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

from conftest import DISK_DEMO_CASES, HARDY_RATIOS, hardy_pair, spd_with_condition


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

    @pytest.mark.parametrize("hbar", ["1e-300", "1e300"])
    def test_dual_outside_the_float_range_exits_one(self, runner, tmp_path, disk_x, hbar):
        # The dual's matrix, 4 I / hbar^2, would be written as Infinity or as all zeros.
        out = tmp_path / "dual.json"
        result = runner.invoke(cli, ["polar", "--body", disk_x, "--hbar", hbar, "-o", str(out)])
        assert result.exit_code == 1 and result.stdout == "" and not out.exists()
        assert "Error: the derived ellipsoid has a matrix outside the float range" in result.output


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
        # Undecided: the box dual of conv{+-e_i} has 2^21 vertices, above the budget.
        ({"type": "ellipsoid", "matrix": (np.eye(21) / 2.95**2).tolist()},
         {"type": "vpoly", "vertices": np.eye(21).tolist()}),
    ], ids=["not-positive-definite", "undecided-n21"])
    def test_bad_file_exit_one(self, runner, tmp_path, x_doc, p_doc):
        x = write_json(tmp_path / "x.json", x_doc)
        p = write_json(tmp_path / "p.json", p_doc)
        result = runner.invoke(cli, ["pair-check", "-x", x, "-p", p])
        assert result.exit_code == 1
        assert "is_pair" not in result.stdout

    def test_box_corners_decided_at_n9(self, runner, tmp_path):
        # B(2.95) and conv{+-e_i}: the dual box's 512 corners give lambda_max = 2.95 / 3.
        x = write_json(tmp_path / "x.json", {"type": "ellipsoid", "matrix": (np.eye(9) / 2.95**2).tolist()})
        p = write_json(tmp_path / "p.json", {"type": "vpoly", "vertices": np.eye(9).tolist()})
        result = runner.invoke(cli, ["pair-check", "-x", x, "-p", p, "--format", "structured"])
        assert result.exit_code == 2
        doc = json.loads(result.output)
        assert doc["is_pair"] is False
        assert doc["lambda_max"] == pytest.approx(2.95 / 3, rel=1e-12)


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

    def test_mode_index_needs_sigma(self, runner, disk_x, disk_p):
        for args in (["-x", disk_x, "-p", disk_p, "-j", "1"], ["--body", disk_p, "-j", "5"]):
            result = runner.invoke(cli, ["capacity", *args])
            assert result.exit_code == 1
            assert "Error: -j needs --sigma" in result.output

    def test_mutually_exclusive_inputs(self, runner, disk_x, disk_p):
        result = runner.invoke(cli, ["capacity", "-x", disk_x])
        assert result.exit_code != 0

    def test_sigma_capacity_text(self, runner, tmp_path):
        # Sigma = I/2 is the minimal state: its ellipsoid |z|^2 <= 1 has capacity pi = h/2.
        sigma = write_json(tmp_path / "sigma.json", {"sigma": (0.5 * np.eye(2)).tolist()})
        result = runner.invoke(cli, ["capacity", "--sigma", sigma])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["capacity: 3.14159265359", "kind: ellipsoid",
                                              "half_h: 3.14159265359", "hbar: 1"]

    def test_body_must_be_an_ellipsoid(self, runner, tmp_path):
        box = write_json(tmp_path / "box.json", {"type": "hpoly", "rows": [[1.0, 0.0], [0.0, 1.0]]})
        result = runner.invoke(cli, ["capacity", "--body", box])
        assert result.exit_code == 1 and result.stdout == ""
        assert "Error: --body expects an ellipsoid document" in result.output


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

    @pytest.mark.parametrize("diag, rs", [([1.0, -1.0, 1.0, -1.0], [True, False]),
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
        import qpolar.quantum

        sigma = scale * qpolar.random_quantum_covariance(2, 3, slack=0.5).sigma
        path = write_json(tmp_path / "sigma.json", {"sigma": sigma.tolist()})
        calls = []
        decide = qpolar.quantum.is_quantum_covariance

        def counted(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        monkeypatch.setattr(qpolar.quantum, "is_quantum_covariance", counted)
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

    @pytest.mark.parametrize("sx, sp", [("-1", "-1"), ("0", "1"), ("1", "-0.5"), ("nan", "1")])
    def test_widths_must_be_positive(self, runner, sx, sp):
        # Squared, -1 and -1 would read as widths 1 and 1.
        result = runner.invoke(cli, ["hardy", "--sigma-x", sx, "--sigma-p", sp])
        assert result.exit_code == 1 and result.stdout == ""
        assert f"Error: envelope widths must be positive, got {float(sx)}, {float(sp)}" in result.output

    @pytest.mark.parametrize("args", [["--sigma-x", "1e200", "--sigma-p", "1"],
                                      ["--sigma-x", "1e-200", "--sigma-p", "1e-200", "--hbar", "1e-300"]])
    def test_widths_whose_squares_are_not_normal_floats_exit_one(self, runner, args):
        # Unchecked, 1e200 squared raises OverflowError (a traceback) and 1e-200 squared makes
        # A = 0, "not positive definite".
        result = runner.invoke(cli, ["hardy", *args])
        assert result.exit_code == 1 and result.stdout == "" and isinstance(result.exception, SystemExit)
        want = f"Error: envelope widths must lie in [2^-511, 2^512), got {float(args[1])}, {float(args[3])}"
        assert want in result.output

    @pytest.mark.parametrize("n, scale", [(1, 0.3), (1, 1.7), (3, 0.5), (3, 2.0)])
    def test_pair_is_the_induced_pair(self, runner, tmp_path, rng, n, scale):
        a = scale * spd_with_condition(n, 10.0, rng)
        b = scale * spd_with_condition(n, 10.0, rng)
        paths = [write_json(tmp_path / f"{k}.json", {"matrix": m.tolist()}) for k, m in (("a", a), ("b", b))]
        result = runner.invoke(cli, ["hardy", "--a", paths[0], "--b", paths[1], "--hbar", "0.7",
                                     "--format", "structured"])
        pair = qpolar.is_quantum_pair(*qpolar.hardy_check(qpolar.HardyInput(a, b), 0.7).pair, 0.7)
        doc = json.loads(result.output)["pair"]
        assert doc["is_pair"] is pair.is_pair
        assert result.exit_code == (0 if pair.is_pair else 2)
        assert doc["lambda_max"] == pytest.approx(pair.lambda_max, rel=1e-12, abs=0.0)

    def test_lambda_max_survives_underflow(self, runner):
        # sigma_x^2 sigma_p^2 = 1e-400 underflows to 0, but r_1 = 2 sigma_x sigma_p / hbar is 2.
        result = runner.invoke(cli, ["hardy", "--sigma-x", "1e-100", "--sigma-p", "1e-100", "--hbar", "1e-200",
                                     "--format", "structured"])
        assert result.exit_code == 0
        verdict = qpolar.hardy_check(qpolar.HardyInput(np.array([[1e-200]]), np.array([[1e-200]])), 1e-200)
        lam = qpolar.is_quantum_pair(*verdict.pair, 1e-200).lambda_max
        assert json.loads(result.output)["pair"] == {"is_pair": True, "lambda_max": 2.0}
        assert verdict.lambda_max == pytest.approx(lam, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ratios, kind", HARDY_RATIOS)
    def test_exit_reads_is_pair(self, runner, tmp_path, ratios, kind):
        a, b = hardy_pair(ratios)
        paths = [write_json(tmp_path / f"{k}.json", {"matrix": m.tolist()}) for k, m in (("a", a), ("b", b))]
        result = runner.invoke(cli, ["hardy", "--a", paths[0], "--b", paths[1], "--hbar", "0.7"])
        verdict = qpolar.hardy_check(qpolar.HardyInput(a, b), 0.7)
        assert f"classification: {kind}" in result.output and f"is_pair: {verdict.is_pair}" in result.output
        assert result.exit_code == (0 if verdict.is_pair else 2) == (2 if kind == "violates" else 0)


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

    def test_flat_json_cloud_matches_its_text_twin(self, runner, tmp_path):
        # A flat sample list holds one-coordinate samples, as a one-column sample file does.
        x, p = [0.1, -0.2, 0.3, -0.4], [1.0, -2.0, 0.5, 2.5]
        cloud = write_json(tmp_path / "c.json", {"x": x, "p": p})
        for name, values in (("x", x), ("p", p)):
            (tmp_path / f"{name}.txt").write_text("".join(f"{v!r}\n" for v in values))
        s = ["--format", "structured"]
        from_json = runner.invoke(cli, ["cloud", "analyze", "--cloud", cloud, *s])
        from_text = runner.invoke(cli, ["cloud", "analyze", "-x", str(tmp_path / "x.txt"),
                                        "-p", str(tmp_path / "p.txt"), *s])
        assert from_json.exit_code == from_text.exit_code == 2, from_json.output
        assert from_json.stdout == from_text.stdout
        # Four 1-D samples: the ball about their mean -0.05 has radius 0.35.
        assert json.loads(from_json.stdout)["body_x"]["matrix"] == [[pytest.approx(1.0 / 0.35**2)]]

    @pytest.mark.parametrize("state", ["valid", "invalid", "band-above", "band-below", "singular"])
    def test_report_covariance_is_the_covariance_command(self, runner, tmp_path, state):
        # The report's covariance verdicts are those `qpolar covariance` gives on the report's
        # own sample covariance: far from the threshold, in the band nu_min = (hbar/2)(1 +- 2 tol)
        # and, for p = x, singular.
        rng = np.random.default_rng(17)
        z = rng.standard_normal((400, 4))
        if state == "singular":
            cloud = qpolar.MeasurementCloud(z[:, :2], z[:, :2])
        else:
            nu_min = {"valid": 0.8, "invalid": 0.3, "band-above": 0.5 * (1 + 2e-9),
                      "band-below": 0.5 * (1 - 2e-9)}[state]
            s = qpolar.random_symplectic(2, rng)
            target = s @ np.diag([nu_min, 1.3, nu_min, 1.3]) @ s.T
            # Whiten the centered samples, then colour them: their sample covariance is target.
            z -= z.mean(axis=0)
            z = np.linalg.solve(np.linalg.cholesky(z.T @ z / len(z)), z.T).T @ np.linalg.cholesky(target).T
            cloud = qpolar.MeasurementCloud(z[:, :2], z[:, 2:])
        report = qpolar.cloud_analyze(cloud)
        assert report.sigpos_ok is (state in ("valid", "band-above"))
        sigma = write_json(tmp_path / "sigma.json", {"sigma": report.sample_covariance.sigma.tolist()})
        result = runner.invoke(cli, ["covariance", "--sigma", sigma, "--format", "structured"])
        assert result.exit_code == (0 if report.sigpos_ok else 2)
        doc, cov = json.loads(result.stdout), report.to_dict()["covariance"]
        assert doc["quantum_covariance"] is cov["sigpos_ok"]
        assert doc["capacity_criterion"] is cov["capacity_criterion_ok"]
        assert doc["rs_per_mode"] == cov["rs_per_mode"]
        assert doc["symplectic_spectrum"] == cov["symplectic_spectrum"]
        assert (cov["symplectic_spectrum"] is None) is (state == "singular")

    def test_generate_without_output_draws_nothing(self, runner, monkeypatch):
        def draw(*args):
            raise AssertionError("samples drawn before the output check")

        monkeypatch.setattr("qpolar.cli.cloud_generate_disk", draw)
        result = runner.invoke(cli, ["cloud", "generate", "--rx", "1", "--rp", "1"])
        assert result.exit_code == 1
        assert "provide -o or --x-out/--p-out" in result.output

    def test_demo_disk_example(self, runner):
        result = runner.invoke(cli, ["demo", "disk-example", "--rx", "2.0", "--rp", "1.0",
                                     "-n", "20000", "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["measured_matches_uniform"] is True
        assert doc["quoted_variance_flag"] == "inconsistent with Monte Carlo oracle"

    @pytest.mark.parametrize("args, fields", DISK_DEMO_CASES)
    def test_demo_exit_reads_consistent(self, runner, args, fields):
        rx, rp, n, seed, hbar = args
        result = runner.invoke(cli, ["demo", "disk-example", "--rx", repr(rx), "--rp", repr(rp), "-n", str(n),
                                     "--seed", str(seed), "--hbar", repr(hbar)])
        consistent = qpolar.disk_demo(*args).consistent
        assert result.exit_code == (0 if consistent else 2) == (0 if fields[0] == fields[1] and fields[2] else 2)

    def test_demo_disk_example_text_is_the_structured_report(self, runner):
        args = ["demo", "disk-example", "--rx", "2.0", "--rp", "1.0", "-n", "20000", "--seed", "3"]
        text, structured = runner.invoke(cli, args), runner.invoke(cli, [*args, "--format", "structured"])
        assert text.exit_code == structured.exit_code == 0
        doc = json.loads(structured.output)
        pair, capacity = doc["analysis"]["pair"], doc["analysis"]["capacity"]
        expected = {
            "rx": doc["rx"], "rp": doc["rp"], "n_samples": doc["n_samples"],
            "measured_variance_x1": doc["measured_variance_x1"],
            "uniform_disk_variance_rx2_over_4": doc["uniform_disk_variance"],
            "quoted_pi_variance": doc["quoted_pi_variance"], "quoted_variance_flag": doc["quoted_variance_flag"],
            "pair_verdict": pair["is_pair"], "pair_expected_from_radii": doc["pair_expected_from_radii"],
            "lambda_max": pair["lambda_max"], "capacity": capacity["value"],
        }
        assert text.output.splitlines() == [f"{k}: {v:.12g}" if isinstance(v, float) else f"{k}: {v}"
                                            for k, v in expected.items()]


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

    @pytest.mark.parametrize("plane", ["a,b", "0"])
    def test_unparsable_plane_exits_one(self, runner, disk_x, plane):
        result = runner.invoke(cli, ["plot", "section", "--body", disk_x, "--plane", plane])
        assert result.exit_code == 1 and result.stdout == ""
        assert f"cannot parse plane {plane!r}" in result.output

    @pytest.mark.parametrize("plane, extent", [("1,0", [2.0, 1.0]), ("2,0", [3.0, 1.0])], ids=["x-x", "p-x"])
    def test_product_plane_in_reverse_order(self, runner, tmp_path, plane, extent):
        # X = [-1, 1] x [-2, 2], P = [-3, 3] x [-5, 5]: the polyline's axes follow --plane.
        x = write_json(tmp_path / "x.json", {"type": "hpoly", "rows": [[1.0, 0.0], [0.0, 0.5]]})
        p = write_json(tmp_path / "p.json", {"type": "hpoly", "rows": [[1.0 / 3.0, 0.0], [0.0, 0.2]]})
        result = runner.invoke(cli, ["plot", "section", "-x", x, "-p", p, "--plane", plane])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[1] == f"# plane: {plane.replace(',', ' ')}"
        points = np.array([l.split() for l in lines[4:]], dtype=float)
        assert np.abs(points).max(axis=0).tolist() == extent


def test_version_from_a_source_checkout(runner):
    # Reported from the package itself, which need not be installed, and kept
    # equal to the version the project metadata declares (tomllib needs 3.11).
    import re

    pyproject = Path(qpolar.__file__).resolve().parents[2] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M).group(1)
    assert qpolar.__version__ == declared
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output.strip().endswith(f"version {declared}")


def _python(*args):
    """A fresh interpreter on this package's source, run with args."""
    env = {**os.environ, "PYTHONPATH": str(Path(qpolar.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter that runs code."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_unloaded():
    # Nor any other scipy module: the LP solver and Qhull load on first use.
    assert _scipy_modules_after("import qpolar") == "[]"
    assert _scipy_modules_after("import qpolar.cli") == "[]"


def test_import_leaves_io_and_json_unloaded():
    # AnalysisReport.to_dict imports body_to_dict where it is called, since io imports cloud.
    out = _python("-c", "import sys, qpolar; print('qpolar.io' in sys.modules, 'json' in sys.modules)")
    assert out.stdout.split() == ["False", "False"], out.stderr


def test_import_leaves_the_collector_alone():
    out = _python("-c", "import gc, qpolar, qpolar.cli; print(gc.isenabled(), gc.get_freeze_count())")
    assert out.stdout.split() == ["True", "0"], out.stderr


def test_entry_runs_its_command_with_the_collector_off_and_the_heap_frozen():
    code = """
import gc, qpolar.cli
qpolar.cli.cli = lambda **kw: print(gc.isenabled(), gc.get_freeze_count() > 0, kw)
qpolar.cli.main()
"""
    out = _python("-c", code)
    assert out.stdout.strip() == "False True {'prog_name': 'qpolar'}", out.stderr


def test_entry_matches_the_click_runner(runner, tmp_path, disk_x, disk_p):
    # The benchmark's seven command kinds, through `python -m qpolar.cli` (which calls
    # main()) and through CliRunner (which does not): same stdout, exit code and files.
    path = lambda name: str(tmp_path / name)  # noqa: E731
    write_json(tmp_path / "xh.json", {"type": "hpoly", "rows": [[2.0, 0.0], [0.0, 0.5]]})
    write_json(tmp_path / "pv.json", {"type": "vpoly", "vertices": [[0.6, 0.0], [0.0, 2.5]]})
    (tmp_path / "sigma.txt").write_text("1 0.1 0 0\n0.1 2 0 0\n0 0 0.5 0\n0 0 0 0.3\n")
    cloud = qpolar.cloud_generate_disk(1.5, 0.8, 2000, 5)
    qpolar.io.dump_cloud(cloud, path("cloud.json"))
    qpolar.io.dump_samples(cloud.x_samples, path("x.txt"), "x1 x2")
    qpolar.io.dump_samples(cloud.p_samples, path("p.txt"), "p1 p2")
    h, s = ["--hbar", "0.7"], ["--format", "structured"]
    commands = [
        ["pair-check", "-x", disk_x, "-p", disk_p, *h, *s],
        ["capacity", "-x", path("xh.json"), "-p", path("pv.json"), *h, *s],
        ["covariance", "--sigma", path("sigma.txt"), *h, *s],
        ["hardy", "--sigma-x", "1.0", "--sigma-p", "0.3", *h, *s],
        ["cloud", "generate", "--rx", "1.2", "--rp", "0.9", "-n", "2000", "--seed", "7", "-o", "{out}"],
        ["cloud", "analyze", "--cloud", path("cloud.json"), "--trim", "0.01", *h, *s],
        ["cloud", "analyze", "-x", path("x.txt"), "-p", path("p.txt"), "--fit", "mvee", *h, *s],
    ]
    codes = set()
    for args in commands:
        got = _python("-m", "qpolar.cli", *(path("entry.json") if a == "{out}" else a for a in args))
        want = runner.invoke(cli, [path("runner.json") if a == "{out}" else a for a in args])
        assert (got.returncode, got.stdout) == (want.exit_code, want.stdout), (args, got.stderr)
        codes.add(got.returncode)
    assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "runner.json").read_bytes()
    assert codes == {0, 2}


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


def test_ball_box_cross_work_loads_no_scipy():
    # Boxes are parallelotopes and cross-polytopes their polars: both have closed
    # forms, so no Qhull and no LP, here under random maps (X, P) -> (L X, L^-T P).
    code = """
import itertools
import numpy as np
import qpolar as q

def shapes(n, seed):
    l = np.random.default_rng(seed).standard_normal((n, n)) + 3 * np.eye(n)
    x = [q.Ellipsoid.ball(n, 1.3), q.HPolytope.box(np.full(n, 0.7)), q.VPolytope(1.9 * np.eye(n))]
    return [q.linear_image(b, l) for b in x], [q.linear_image(b, np.linalg.inv(l).T) for b in x]

for n in (2, 6):
    xs, ps = shapes(n, n)
    for x in xs:
        q.support(x, np.eye(n))
        for p in ps:
            q.is_quantum_pair(x, p)
            q.product_capacity(x, p)
            q.contains(x, p)
xs, ps = shapes(9, 9)
for x, p in itertools.product(xs, ps):
    q.is_quantum_pair(x, p)
    q.product_capacity(x, p)
    q.contains(x, q.polar_dual(p))
"""
    assert _scipy_modules_after(code) == "[]"


@pytest.mark.parametrize("hbar", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["polar", "pair-check", "capacity", "covariance", "hardy"])
def test_bad_hbar_exits_one(runner, tmp_path, disk_x, disk_p, command, hbar):
    sigma = write_json(tmp_path / "s.json", {"sigma": np.eye(2).tolist()})
    inputs = {
        "polar": [["--body", disk_x]],
        "pair-check": [["-x", disk_x, "-p", disk_p]],
        "capacity": [["-x", disk_x, "-p", disk_p], ["--body", disk_x], ["--sigma", sigma],
                     ["--sigma", sigma, "-j", "1"]],
        "covariance": [["--sigma", sigma]],
        "hardy": [["--sigma-x", "1", "--sigma-p", "1"]],
    }[command]
    for args in inputs:
        result = runner.invoke(cli, [command, *args, "--hbar", hbar])
        assert result.exit_code == 1, args
        assert "Error: hbar must be positive and finite" in result.output


@pytest.mark.parametrize("case", ["none", "part", "extra", "two"])
@pytest.mark.parametrize("command, groups", [
    ("capacity", "(-x and -p), --body, or --sigma"),
    ("plot section", "--body, (-x and -p), or --sigma"),
    ("hardy", "(--a and --b) or (--sigma-x and --sigma-p)"),
    ("cloud analyze", "--cloud or (-x and -p)"),
], ids=["capacity", "plot-section", "hardy", "cloud-analyze"])
def test_exactly_one_input_group(runner, tmp_path, disk_x, disk_p, command, groups, case):
    # Each command reads exactly one input group, given in full. The "extra" cases (a
    # group plus part of another) once ran on the full group and ignored the rest.
    sigma = write_json(tmp_path / "s.json", {"sigma": np.eye(2).tolist()})
    a = write_json(tmp_path / "a.json", {"matrix": [[1.0]]})
    made = qpolar.cloud_generate_disk(1.0, 1.0, 50, 0)
    qpolar.io.dump_cloud(made, tmp_path / "cloud.json")
    qpolar.io.dump_samples(made.x_samples, tmp_path / "x.txt", "x1 x2")
    cloud, xs = str(tmp_path / "cloud.json"), str(tmp_path / "x.txt")
    args = {
        "capacity": {"none": [], "part": ["-x", disk_x], "extra": ["--body", disk_x, "-x", disk_x],
                     "two": ["--body", disk_x, "--sigma", sigma]},
        "plot section": {"none": [], "part": ["-p", disk_p], "extra": ["--sigma", sigma, "-p", disk_p],
                         "two": ["--body", disk_x, "-x", disk_x, "-p", disk_p]},
        "hardy": {"none": [], "part": ["--sigma-x", "1"], "extra": ["--a", a, "--b", a, "--sigma-x", "0.1"],
                  "two": ["--a", a, "--b", a, "--sigma-x", "0.1", "--sigma-p", "0.1"]},
        "cloud analyze": {"none": [], "part": ["-x", xs], "extra": ["--cloud", cloud, "-p", xs],
                          "two": ["--cloud", cloud, "-x", xs, "-p", xs]},
    }[command][case]
    result = runner.invoke(cli, [*command.split(), *args])
    assert result.exit_code == 1 and result.stdout == ""
    assert result.output.endswith(f"Error: provide exactly one of {groups}\n")


@pytest.mark.parametrize("tol", [-1.0, -2.0, float("nan"), float("inf")])
@pytest.mark.parametrize("check", ["contains", "is_quantum_pair", "is_quantum_covariance", "rs_check", "cli",
                                   "is_quantum_covariance-singular", "capacity_criterion-singular"])
def test_bad_tol_is_an_error(runner, disk_x, disk_p, check, tol):
    # -1 divided by zero, -2 accepted every ratio, inf accepted 0.01 I as a valid state.
    message = f"tol must be finite and non-negative, got {tol}"
    if check == "cli":
        result = runner.invoke(cli, ["pair-check", "-x", disk_x, "-p", disk_p, "--tol", str(tol)])
        assert result.exit_code == 1 and result.stdout == ""
        assert f"Error: {message}" in result.output
        return
    x, p = qpolar.Ellipsoid(0.25 * np.eye(2)), qpolar.Ellipsoid(np.eye(2))
    call = {
        "contains": lambda: qpolar.contains(x, p, tol),
        "is_quantum_pair": lambda: qpolar.is_quantum_pair(x, p, 1.0, tol),
        "is_quantum_covariance": lambda: qpolar.is_quantum_covariance(0.01 * np.eye(2), 1.0, tol),
        "rs_check": lambda: qpolar.rs_check(np.eye(2), 1.0, tol),
        # A Sigma with no Cholesky factor is invalid, but its tol is checked all the same.
        "is_quantum_covariance-singular": lambda: qpolar.is_quantum_covariance(np.diag([1.0, 0.0]), 1.0, tol),
        "capacity_criterion-singular": lambda: qpolar.capacity_criterion(np.diag([1.0, 0.0]), 1.0, tol),
    }[check]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("args", [["--body", "{x}"], ["--sigma", "{s}"], ["--sigma", "{s}", "-j", "1"]],
                         ids=["body", "sigma", "section-area"])
def test_capacity_checks_tol_on_every_input(runner, tmp_path, disk_x, disk_p, args):
    # Only the product path reaches a verdict, but every path refuses a bad --tol alike.
    sigma = write_json(tmp_path / "s.json", {"sigma": np.eye(2).tolist()})
    product = runner.invoke(cli, ["capacity", "-x", disk_x, "-p", disk_p, "--tol", "-1"])
    result = runner.invoke(cli, ["capacity", *(a.format(x=disk_x, s=sigma) for a in args), "--tol", "-1"])
    assert result.exit_code == product.exit_code == 1 and result.stdout == ""
    assert result.output == product.output == "Error: tol must be finite and non-negative, got -1.0\n"


@pytest.mark.parametrize("args", [["--bogus"], [], ["--bogus", "covariance"], ["cloud"], ["nosuch"]],
                         ids=["bad-option", "no-command", "bad-option-then-command", "bare-group", "bad-command"])
def test_usage_errors_before_the_command_exit_one(runner, args):
    # A usage error is an error wherever click meets it, so no script reads it as a fail verdict.
    result = runner.invoke(cli, args)
    assert result.exit_code == 1 and result.stdout == ""
    assert "Usage: " in result.output


@pytest.mark.parametrize("args", [["--help"], ["--version"]])
def test_help_and_version_exit_zero(runner, args):
    assert runner.invoke(cli, args).exit_code == 0


@pytest.mark.parametrize("doc, args, key", [
    ({"type": "ellipsoid"}, ["pair-check", "-x", "{doc}", "-p", "{doc}"], "'matrix'"),
    ([[1.0, 0.0], [0.0, 1.0]], ["polar", "--body", "{doc}"], "JSON object"),
    ({"type": "vpoly", "rows": [[1.0]]}, ["polar", "--body", "{doc}"], "'vertices'"),
    ({"cov": [[1.0, 0.0], [0.0, 1.0]]}, ["covariance", "--sigma", "{doc}"], "'matrix'"),
    ([[1.0, 0.0], [0.0, 1.0]], ["covariance", "--sigma", "{doc}"], "JSON object"),
    ({"x": [[0.0, 1.0], [1.0, 0.0]]}, ["cloud", "analyze", "--cloud", "{doc}"], "'p'"),
    ({"p": [[0.0, 1.0], [1.0, 0.0]]}, ["cloud", "analyze", "--cloud", "{doc}"], "'x'"),
    ({"x": [[1.0, 2.0], [3.0]], "p": [[0.0, 1.0], [1.0, 0.0]]}, ["cloud", "analyze", "--cloud", "{doc}"],
     "cloud document 'x' rows must all hold the same number of coordinates"),
], ids=["body-no-matrix", "body-list", "vpoly-no-vertices", "sigma-no-matrix", "sigma-list",
     "cloud-no-p", "cloud-no-x", "cloud-ragged"])
def test_malformed_document_exits_one(runner, tmp_path, doc, args, key):
    path = write_json(tmp_path / "doc.json", doc)
    result = runner.invoke(cli, [path if a == "{doc}" else a for a in args])
    assert result.exit_code == 1
    assert "Error:" in result.output and key in result.output


@pytest.mark.parametrize("args, message", [
    (["pair-check", "-x", "{dir}", "-p", "{x}"], "Is a directory"),
    (["covariance", "--sigma", "{dir}"], "Is a directory"),
    (["cloud", "analyze", "-x", "{dir}", "-p", "{dir}"], "Is a directory"),
    (["cloud", "generate", "--rx", "1", "--rp", "1", "-n", "10", "-o", "{missing}"], "No such file or directory"),
    (["polar", "--body", "{x}", "-o", "{missing}"], "Could not open file"),
    (["plot", "section", "--body", "{x}", "-o", "{missing}"], "Could not open file"),
], ids=["pair-check-dir", "covariance-dir", "cloud-analyze-dir", "cloud-generate-missing", "polar-missing",
        "plot-section-missing"])
def test_unreadable_or_unwritable_path_exits_one(runner, tmp_path, disk_x, args, message):
    # An Error: line, not a traceback: the runner sees click's own exit, not a raised OSError.
    paths = {"{dir}": str(tmp_path), "{x}": disk_x, "{missing}": str(tmp_path / "missing" / "out.json")}
    result = runner.invoke(cli, [paths.get(a, a) for a in args])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and message in result.output
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("args", [[], ["-j", "1"]], ids=["capacity", "section-area"])
def test_singular_sigma_reads_as_not_positive_definite(runner, tmp_path, args):
    # A singular Sigma fails the covariance ellipsoid's Cholesky step, as an indefinite one does.
    sigma = write_json(tmp_path / "sigma.json", {"sigma": np.diag([1.0, 0.0, 1.0, 1.0]).tolist()})
    result = runner.invoke(cli, ["capacity", "--sigma", sigma, *args])
    assert result.exit_code == 1
    assert "Error: ellipsoid matrix is not positive definite" in result.output
