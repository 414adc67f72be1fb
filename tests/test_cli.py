import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qpolar
from qpolar.cli import cli

from conftest import spd_with_condition


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def disk_x(tmp_path):
    return write_json(tmp_path / "x.json", {"type": "ellipsoid", "matrix": [[0.25, 0], [0, 0.25]]})


@pytest.fixture
def disk_p(tmp_path):
    return write_json(tmp_path / "p.json", {"type": "ellipsoid", "matrix": [[1.0, 0], [0, 1.0]]})


class TestPolar:
    def test_ball_dual(self, runner, tmp_path, disk_x):
        result = runner.invoke(cli, ["polar", "--body", disk_x, "--hbar", "1.0"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["type"] == "ellipsoid"
        # radius-2 ball dualizes to radius-1/2: matrix 4 I.
        assert np.allclose(doc["matrix"], 4 * np.eye(2))

    def test_interval_dual_halfwidth(self, runner, tmp_path):
        body = write_json(tmp_path / "i.json", {"type": "hpoly", "rows": [[0.5]]})
        result = runner.invoke(cli, ["polar", "--body", body])
        doc = json.loads(result.output)
        assert doc["type"] == "vpoly"
        assert abs(doc["vertices"][0][0]) == pytest.approx(0.5)

    def test_output_file(self, runner, tmp_path, disk_x):
        out = tmp_path / "dual.json"
        result = runner.invoke(cli, ["polar", "--body", disk_x, "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["type"] == "ellipsoid"


class TestPairCheck:
    def test_pass_exit_zero(self, runner, disk_x, disk_p):
        result = runner.invoke(cli, ["pair-check", "-x", disk_x, "-p", disk_p])
        assert result.exit_code == 0
        assert "is_pair: True" in result.output

    def test_fail_exit_two(self, runner, tmp_path, disk_p):
        small = write_json(tmp_path / "s.json", {"type": "ellipsoid", "matrix": [[4.0, 0], [0, 4.0]]})
        result = runner.invoke(cli, ["pair-check", "-x", small, "-p", disk_p])
        assert result.exit_code == 2

    def test_structured_output(self, runner, disk_x, disk_p):
        result = runner.invoke(cli, ["pair-check", "-x", disk_x, "-p", disk_p,
                                     "--format", "structured"])
        doc = json.loads(result.output)
        assert doc["is_pair"] is True
        assert doc["lambda_max"] == pytest.approx(2.0)

    def test_ill_conditioned_ellipsoid_is_decided(self, runner, tmp_path):
        # Eigenvalues 1..1e10 at n = 6: the computed polar is asymmetric far beyond
        # input round-off, which must not make a valid pair an error.
        ell = spd_with_condition(6, 1e10, np.random.default_rng(1))
        x = write_json(tmp_path / "x.json", {"type": "ellipsoid", "matrix": np.eye(6).tolist()})
        p = write_json(tmp_path / "p.json", {"type": "ellipsoid", "matrix": ell.tolist()})
        result = runner.invoke(cli, ["pair-check", "-x", x, "-p", p])
        assert result.exit_code in (0, 2), result.output

    @pytest.mark.parametrize("x_doc, p_doc", [
        # A matrix that is not positive definite.
        ({"type": "ellipsoid", "matrix": [[1.0, 0], [0, -1.0]]},
         {"type": "ellipsoid", "matrix": [[1.0, 0], [0, 1.0]]}),
        # Undecided: the box dual of conv{+-e_i} needs vertex enumeration at n = 9.
        ({"type": "ellipsoid", "matrix": (np.eye(9) / 2.95**2).tolist()},
         {"type": "vpoly", "vertices": np.eye(9).tolist()}),
    ], ids=["not-positive-definite", "undecided-n9"])
    def test_bad_file_exit_one(self, runner, tmp_path, x_doc, p_doc):
        x = write_json(tmp_path / "x.json", x_doc)
        p = write_json(tmp_path / "p.json", p_doc)
        result = runner.invoke(cli, ["pair-check", "-x", x, "-p", p])
        assert result.exit_code == 1
        assert "is_pair" not in result.stdout


class TestCapacity:
    def test_product(self, runner, disk_x, disk_p):
        result = runner.invoke(cli, ["capacity", "-x", disk_x, "-p", disk_p,
                                     "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["capacity"] == pytest.approx(8.0)  # 4 * hbar * (2*1)

    def test_ellipsoid(self, runner, tmp_path):
        ball = write_json(tmp_path / "ball.json", {"type": "ellipsoid", "matrix": np.eye(2).tolist()})
        result = runner.invoke(cli, ["capacity", "--body", ball, "--format", "structured"])
        assert json.loads(result.output)["capacity"] == pytest.approx(np.pi)

    def test_covariance_section(self, runner, tmp_path):
        sigma = write_json(tmp_path / "sigma.json", {"sigma": (0.5 * np.eye(2)).tolist()})
        result = runner.invoke(cli, ["capacity", "--sigma", sigma, "-j", "1",
                                     "--format", "structured"])
        assert json.loads(result.output)["section_area"] == pytest.approx(np.pi)

    @pytest.mark.parametrize("diag", [[1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 1.0]])
    def test_section_of_non_positive_definite_sigma_exits_one(self, runner, tmp_path, diag):
        sigma = write_json(tmp_path / "sigma.json", {"sigma": np.diag(diag).tolist()})
        result = runner.invoke(cli, ["capacity", "--sigma", sigma, "-j", "1"])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ")

    def test_product_below_bound_exits_two(self, runner, tmp_path, disk_p):
        small = write_json(tmp_path / "s.json", {"type": "ellipsoid", "matrix": [[4.0, 0], [0, 4.0]]})
        result = runner.invoke(cli, ["capacity", "-x", small, "-p", disk_p])
        assert result.exit_code == 2

    def test_mutually_exclusive_inputs(self, runner, disk_x, disk_p):
        result = runner.invoke(cli, ["capacity", "-x", disk_x])
        assert result.exit_code != 0


class TestCovariance:
    def test_valid_matrix(self, runner, tmp_path):
        sigma = write_json(tmp_path / "sigma.json", {"sigma": np.eye(2).tolist()})
        result = runner.invoke(cli, ["covariance", "--sigma", sigma, "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["quantum_covariance"] is True
        assert doc["rs_per_mode"] == [True]
        assert doc["projection_pair"]["lambda_max"] == pytest.approx(2.0)

    def test_invalid_matrix_exit_two(self, runner, tmp_path):
        sigma = write_json(tmp_path / "sigma.json", {"sigma": (0.25 * np.eye(2)).tolist()})
        result = runner.invoke(cli, ["covariance", "--sigma", sigma])
        assert result.exit_code == 2

    @pytest.mark.parametrize("diag, rs", [([1.0, -1.0, 1.0, -1.0], [True, True]),
                                          ([1.0, 0.0, 1.0, 1.0], [True, False])],
                             ids=["indefinite", "singular"])
    def test_not_positive_definite_exit_two(self, runner, tmp_path, diag, rs):
        sigma = write_json(tmp_path / "sigma.json", {"sigma": np.diag(diag).tolist()})
        result = runner.invoke(cli, ["covariance", "--sigma", sigma])
        assert result.exit_code == 2
        flags = ", ".join(map(str, rs))
        assert result.output == ("quantum_covariance: False\n"
                                 f"rs_per_mode: [{flags}]\n"
                                 "capacity_criterion: False\n"
                                 "symplectic_spectrum: null\n"
                                 "half_hbar: 0.5\n")
        result = runner.invoke(cli, ["covariance", "--sigma", sigma, "--format", "structured"])
        assert result.exit_code == 2
        assert json.loads(result.output) == {"quantum_covariance": False, "rs_per_mode": rs,
                                             "capacity_criterion": False,
                                             "symplectic_spectrum": None, "half_hbar": 0.5}

    def test_plain_text_matrix_file(self, runner, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("# comment\n1.0 0.0\n0.0 1.0\n")
        result = runner.invoke(cli, ["covariance", "--sigma", str(path)])
        assert result.exit_code == 0

    @pytest.mark.parametrize("scale", [1.0, 0.25])
    def test_validity_decided_once(self, runner, tmp_path, monkeypatch, scale):
        import qpolar.cli
        import qpolar.quantum

        sigma = scale * qpolar.random_quantum_covariance(2, 3, slack=0.5).sigma
        path = write_json(tmp_path / "sigma.json", {"sigma": sigma.tolist()})
        calls = []
        decide = qpolar.quantum.is_quantum_covariance

        def counted(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        for module in (qpolar.cli, qpolar.quantum):
            monkeypatch.setattr(module, "is_quantum_covariance", counted)
        result = runner.invoke(cli, ["covariance", "--sigma", path, "--format", "structured"])
        assert len(calls) == 1
        doc = json.loads(result.output)
        if scale == 1.0:
            verdict = qpolar.theorem2_check(sigma)
            assert doc["projection_pair"] == {"is_pair": verdict.is_pair, "lambda_max": verdict.lambda_max}
        else:
            assert result.exit_code == 2 and "projection_pair" not in doc


class TestHardy:
    def test_boundary_sigmas(self, runner):
        result = runner.invoke(cli, ["hardy", "--sigma-x", "1.0", "--sigma-p",
                                     str(2**-0.5 * 2**-0.5), "--format", "structured"])
        assert result.exit_code == 0
        assert json.loads(result.output)["classification"] == "gaussian_boundary"

    def test_violating_sigmas_exit_two(self, runner):
        result = runner.invoke(cli, ["hardy", "--sigma-x", "0.3", "--sigma-p", "0.3"])
        assert result.exit_code == 2
        assert "violates" in result.output

    def test_matrix_input(self, runner, tmp_path):
        a = write_json(tmp_path / "a.json", {"matrix": [[1.0]]})
        b = write_json(tmp_path / "b.json", {"matrix": [[1.0]]})
        result = runner.invoke(cli, ["hardy", "--a", a, "--b", b, "--format", "structured"])
        assert json.loads(result.output)["classification"] == "hermite_subcritical"


class TestCloudCommands:
    def test_generate_then_analyze(self, runner, tmp_path):
        cloud_file = tmp_path / "cloud.json"
        gen = runner.invoke(cli, ["cloud", "generate", "--rx", "2.0", "--rp", "1.0",
                                  "-n", "5000", "--seed", "3", "-o", str(cloud_file)])
        assert gen.exit_code == 0
        ana = runner.invoke(cli, ["cloud", "analyze", "--cloud", str(cloud_file),
                                  "--format", "structured"])
        assert ana.exit_code == 0
        doc = json.loads(ana.output)
        assert doc["pair"]["is_pair"] is True
        assert doc["capacity"]["value"] == pytest.approx(
            4.0 * doc["pair"]["lambda_max"], rel=1e-12
        )

    def test_text_sample_files(self, runner, tmp_path):
        x_file, p_file = tmp_path / "x.txt", tmp_path / "p.txt"
        gen = runner.invoke(cli, ["cloud", "generate", "--rx", "0.4", "--rp", "1.0",
                                  "-n", "3000", "--seed", "4",
                                  "--x-out", str(x_file), "--p-out", str(p_file)])
        assert gen.exit_code == 0
        ana = runner.invoke(cli, ["cloud", "analyze", "-x", str(x_file), "-p", str(p_file)])
        assert ana.exit_code == 2  # 0.4 * 1.0 < hbar

    def test_generate_without_output_draws_nothing(self, runner, monkeypatch):
        def draw(*args):
            raise AssertionError("samples drawn before the output check")

        monkeypatch.setattr("qpolar.cli.cloud_generate_disk", draw)
        result = runner.invoke(cli, ["cloud", "generate", "--rx", "1", "--rp", "1"])
        assert result.exit_code == 2
        assert "provide -o or --x-out/--p-out" in result.output

    def test_demo_disk_example(self, runner):
        result = runner.invoke(cli, ["demo", "disk-example", "--rx", "2.0", "--rp", "1.0",
                                     "-n", "20000", "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["measured_matches_uniform"] is True
        assert doc["quoted_variance_flag"] == "inconsistent with Monte Carlo oracle"


class TestPlotSection:
    def test_disk_polyline(self, runner, tmp_path):
        ball = write_json(tmp_path / "ball.json", {"type": "ellipsoid", "matrix": np.eye(2).tolist()})
        result = runner.invoke(cli, ["plot", "section", "--body", ball, "--plane", "0,1"])
        assert result.exit_code == 0
        area_line = next(l for l in result.output.splitlines() if l.startswith("# area"))
        assert float(area_line.split(":")[1]) == pytest.approx(np.pi, abs=1e-3)

    def test_product_section(self, runner, tmp_path):
        x = write_json(tmp_path / "x.json", {"type": "hpoly", "rows": [[0.5]]})
        p = write_json(tmp_path / "p.json", {"type": "hpoly", "rows": [[1.0]]})
        result = runner.invoke(cli, ["plot", "section", "-x", x, "-p", p, "--plane", "0,1"])
        assert result.exit_code == 0
        area_line = next(l for l in result.output.splitlines() if l.startswith("# area"))
        assert float(area_line.split(":")[1]) == pytest.approx(8.0)

    def test_sigma_section(self, runner, tmp_path):
        sigma = write_json(tmp_path / "s.json", {"sigma": np.eye(2).tolist()})
        result = runner.invoke(cli, ["plot", "section", "--sigma", sigma, "--plane", "0,1"])
        assert result.exit_code == 0
        area_line = next(l for l in result.output.splitlines() if l.startswith("# area"))
        assert float(area_line.split(":")[1]) == pytest.approx(2 * np.pi, rel=1e-3)


def _scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter that runs code."""
    env = {**os.environ, "PYTHONPATH": str(Path(qpolar.__file__).resolve().parents[1])}
    code += "\nimport sys; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_unloaded():
    # Nor any other scipy module: the LP solver and Qhull load on first use.
    assert _scipy_modules_after("import qpolar") == "[]"
    assert _scipy_modules_after("import qpolar.cli") == "[]"


def test_ellipsoid_and_covariance_work_loads_no_scipy():
    code = """
import numpy as np
import qpolar as q
x, p = q.Ellipsoid(np.diag([0.25, 1.0])), q.Ellipsoid(np.diag([1.0, 0.5]))
assert q.is_quantum_pair(x, p).is_pair and not q.contains(x, p)
sigma = q.random_quantum_covariance(2, 0, slack=0.5).sigma
assert q.is_quantum_covariance(sigma)
assert not q.is_quantum_covariance(0.25 * np.eye(4))
assert not q.is_quantum_covariance(np.diag([1.0, 0.0, 1.0, 1.0]))
assert q.theorem2_check(sigma).is_pair
assert q.hardy_check(q.HardyInput(np.eye(2), np.eye(2))).classification == "hermite_subcritical"
q.disk_demo(2.0, 1.0, 2000, 0)
for fit in ("ball", "mvee", "interval-box"):
    q.cloud_analyze(q.cloud_generate_disk(2.0, 1.0, 2000, 0), fit=fit, trim=0.01)
"""
    assert _scipy_modules_after(code) == "[]"


@pytest.mark.parametrize("hbar", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["polar", "pair-check", "capacity", "covariance", "hardy"])
def test_bad_hbar_exits_one(runner, tmp_path, disk_x, disk_p, command, hbar):
    sigma = write_json(tmp_path / "s.json", {"sigma": np.eye(2).tolist()})
    args = {
        "polar": ["--body", disk_x],
        "pair-check": ["-x", disk_x, "-p", disk_p],
        "capacity": ["-x", disk_x, "-p", disk_p],
        "covariance": ["--sigma", sigma],
        "hardy": ["--sigma-x", "1", "--sigma-p", "1"],
    }[command]
    result = runner.invoke(cli, [command, *args, "--hbar", hbar])
    assert result.exit_code == 1
    assert "Error: hbar must be positive and finite" in result.output


@pytest.mark.parametrize("doc, args, key", [
    ({"type": "ellipsoid"}, ["pair-check", "-x", "{doc}", "-p", "{doc}"], "'matrix'"),
    ([[1.0, 0.0], [0.0, 1.0]], ["polar", "--body", "{doc}"], "JSON object"),
    ({"type": "vpoly", "rows": [[1.0]]}, ["polar", "--body", "{doc}"], "'vertices'"),
    ({"cov": [[1.0, 0.0], [0.0, 1.0]]}, ["covariance", "--sigma", "{doc}"], "'matrix'"),
    ([[1.0, 0.0], [0.0, 1.0]], ["covariance", "--sigma", "{doc}"], "JSON object"),
    ({"x": [[0.0, 1.0], [1.0, 0.0]]}, ["cloud", "analyze", "--cloud", "{doc}"], "'p'"),
    ({"p": [[0.0, 1.0], [1.0, 0.0]]}, ["cloud", "analyze", "--cloud", "{doc}"], "'x'"),
], ids=["body-no-matrix", "body-list", "vpoly-no-vertices", "sigma-no-matrix", "sigma-list",
     "cloud-no-p", "cloud-no-x"])
def test_malformed_document_exits_one(runner, tmp_path, doc, args, key):
    path = write_json(tmp_path / "doc.json", doc)
    result = runner.invoke(cli, [path if a == "{doc}" else a for a in args])
    assert result.exit_code == 1
    assert "Error:" in result.output and key in result.output
