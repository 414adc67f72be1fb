"""Command-line front end.

Exit status: 0 on pass verdicts, 2 on fail verdicts, 1 on errors, usage
errors included, so the commands compose in shell scripts. All configuration
is via flags; no environment variables are read.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import asdict

import click
import numpy as np

from . import __version__, io as qio
from .bodies import DEFAULT_TOL, Ellipsoid, _check_hbar, _check_tol, polar_dual
from .capacities import ellipsoid_capacity, product_capacity
from .cloud import FIT_MODES, body_to_dict, cloud_analyze, cloud_generate_disk, disk_demo
from .errors import QPolarError
from .hardy import HardyInput, _check_widths, hardy_check
from .polarity import is_quantum_pair
from .quantum import (
    _projection_pair,
    capacity_criterion,
    covariance_ellipsoid,
    is_quantum_covariance,
    rs_check,
    section_area,
)
from .sections import emit_section_plot
from .symplectic import _factor_symplectic_eigenvalues

PASS, FAIL, ERROR = 0, 2, 1

hbar_option = click.option("--hbar", type=float, default=1.0, show_default=True,
                           help="Reduced action scale; h = 2*pi*hbar.")
tol_option = click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
                          help="Relative tolerance for verdicts.")
format_option = click.option("--format", "fmt", type=click.Choice(["text", "structured"]),
                             default="text", show_default=True,
                             help="Human-readable text or machine-readable JSON.")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        click.echo(json.dumps(doc, indent=2, default=_jsonify))
        return
    for key, value in doc.items():
        if isinstance(value, dict):
            click.echo(f"{key}:")
            for k, v in value.items():
                click.echo(f"  {k}: {_fmt_value(v)}")
        else:
            click.echo(f"{key}: {_fmt_value(value)}")


def _fmt_value(v):
    if v is None:
        return "null"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, np.ndarray):
        return np.array2string(v, precision=9)
    return v


def _jsonify(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_out(text: str, output) -> None:
    if output is None or output == "-":
        click.echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _check_one_input(*groups: dict) -> None:
    """The one input rule: exactly one group of flags (flag -> value, None when absent) is
    given, in full. Else a usage error names the groups; the command branches on its own."""
    given = [g for g in groups if any(v is not None for v in g.values())]
    if len(given) != 1 or None in given[0].values():
        *rest, last = (f"({' and '.join(g)})" if len(g) > 1 else next(iter(g)) for g in groups)
        listed = ", ".join(rest) + ("," if len(rest) > 1 else "")
        raise click.UsageError(f"provide exactly one of {listed} or {last}")


class _Cli(click.Group):
    def make_context(self, *args, **kwargs):
        return self._exit_one(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._exit_one(super().invoke, ctx)

    @staticmethod
    def _exit_one(step, *args, **kwargs):
        try:
            return step(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = ERROR
            raise
        except (QPolarError, ValueError, IndexError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def cli():
    """Polar duality, symplectic capacities, and quantum covariance analysis."""


@cli.command()
@click.option("--body", "body_path", required=True, type=click.Path(exists=True),
              help="Body document to dualize.")
@hbar_option
@click.option("-o", "--output", default=None, help="Output file (default stdout).")
def polar(body_path, hbar, output):
    """Write the hbar-polar dual of a body."""
    dual = polar_dual(qio.load_body(body_path), hbar)
    text = json.dumps(body_to_dict(dual), indent=2) + "\n"
    _write_out(text, output)


@cli.command("pair-check")
@click.option("-x", "x_path", required=True, type=click.Path(exists=True),
              help="Position body document.")
@click.option("-p", "p_path", required=True, type=click.Path(exists=True),
              help="Momentum body document.")
@hbar_option
@tol_option
@format_option
def pair_check(x_path, p_path, hbar, tol, fmt):
    """Decide whether (X, P) is an hbar-polar quantum pair; exit 2 if not."""
    verdict = is_quantum_pair(qio.load_body(x_path), qio.load_body(p_path), hbar, tol)
    _emit({**asdict(verdict), "hbar": hbar}, fmt)
    sys.exit(PASS if verdict.is_pair else FAIL)


@cli.command()
@click.option("-x", "x_path", type=click.Path(exists=True), default=None,
              help="Position body (with -p: product capacity).")
@click.option("-p", "p_path", type=click.Path(exists=True), default=None,
              help="Momentum body (with -x: product capacity).")
@click.option("--body", "body_path", type=click.Path(exists=True), default=None,
              help="Phase-space ellipsoid document (ellipsoid capacity).")
@click.option("--sigma", "sigma_path", type=click.Path(exists=True), default=None,
              help="Covariance matrix (capacity of its ellipsoid; with -j, section area).")
@click.option("-j", "mode_index", type=int, default=None,
              help="1-based mode index for a conjugate-plane section area.")
@hbar_option
@tol_option
@format_option
def capacity(x_path, p_path, body_path, sigma_path, mode_index, hbar, tol, fmt):
    """Symplectic capacity of a product X x P, an ellipsoid, or a covariance ellipsoid.

    For products, exit 2 when the 4*hbar quantum-pair lower bound fails.
    """
    _check_hbar(hbar)
    _check_tol(tol)  # every input path, though only the product's verdict reads it
    _check_one_input({"-x": x_path, "-p": p_path}, {"--body": body_path}, {"--sigma": sigma_path})
    if mode_index is not None and sigma_path is None:
        raise click.UsageError("-j needs --sigma")
    if body_path:
        ell = qio.load_body(body_path)
        if not isinstance(ell, Ellipsoid):
            raise click.UsageError("--body expects an ellipsoid document")
        _emit({"capacity": ellipsoid_capacity(ell), "kind": "ellipsoid", "hbar": hbar}, fmt)
        sys.exit(PASS)
    if sigma_path:
        sigma = qio.load_covariance(sigma_path)
        if mode_index is not None:
            _emit(
                {"section_area": section_area(sigma, mode_index),
                 "kind": "section", "mode": mode_index,
                 "half_h": float(np.pi * hbar), "hbar": hbar},
                fmt,
            )
        else:
            value = ellipsoid_capacity(covariance_ellipsoid(sigma))
            _emit({"capacity": value, "kind": "ellipsoid", "half_h": float(np.pi * hbar),
                   "hbar": hbar}, fmt)
        sys.exit(PASS)
    report = product_capacity(qio.load_body(x_path), qio.load_body(p_path), hbar, tol)
    _emit(
        {
            "capacity": report.value,
            "kind": report.kind,
            "lambda_max": report.lambda_max,
            "lower_bound_4hbar_met": report.lower_bound_4hbar_met,
            "equality_case": report.equality_case,
            "four_hbar": 4.0 * hbar,
            "exact": report.exact,
        },
        fmt,
    )
    sys.exit(PASS if report.lower_bound_4hbar_met else FAIL)


@cli.command()
@click.option("--sigma", "sigma_path", required=True, type=click.Path(exists=True),
              help="Covariance matrix document or whitespace matrix text.")
@hbar_option
@tol_option
@format_option
def covariance(sigma_path, hbar, tol, fmt):
    """Run every quantum-covariance verdict on a matrix; exit 2 if invalid."""
    cov = qio.load_covariance(sigma_path)
    valid = is_quantum_covariance(cov, hbar, tol)
    spectrum = None if cov.factor is None else _factor_symplectic_eigenvalues(cov.factor)
    doc = {
        "quantum_covariance": valid,
        "rs_per_mode": rs_check(cov, hbar, tol),
        "capacity_criterion": capacity_criterion(cov, hbar, tol),
        "symplectic_spectrum": spectrum,
        "half_hbar": 0.5 * hbar,
    }
    if valid:
        verdict = _projection_pair(cov, hbar, tol)  # theorem2_check's verdict, validity decided above
        doc["projection_pair"] = {
            "is_pair": verdict.is_pair,
            "lambda_max": verdict.lambda_max,
        }
    _emit(doc, fmt)
    sys.exit(PASS if valid else FAIL)


@cli.command()
@click.option("--a", "a_path", type=click.Path(exists=True), default=None,
              help="Position envelope matrix A.")
@click.option("--b", "b_path", type=click.Path(exists=True), default=None,
              help="Momentum envelope matrix B.")
@click.option("--sigma-x", type=float, default=None, help="Scalar position width (n = 1).")
@click.option("--sigma-p", type=float, default=None, help="Scalar momentum width (n = 1).")
@hbar_option
@tol_option
@format_option
def hardy(a_path, b_path, sigma_x, sigma_p, hbar, tol, fmt):
    """Classify a Hardy envelope pair; exit 2 when the bound is violated."""
    _check_one_input({"--a": a_path, "--b": b_path}, {"--sigma-x": sigma_x, "--sigma-p": sigma_p})
    if a_path is not None:
        inp = HardyInput(qio.load_matrix(a_path), qio.load_matrix(b_path))
    else:
        _check_widths(sigma_x, sigma_p)
        inp = HardyInput(np.array([[sigma_x**2]]), np.array([[sigma_p**2]]))
    verdict = hardy_check(inp, hbar, tol)
    # The induced pair's inclusion scale is the first ratio, 2 sqrt(eig_1(A B)) / hbar,
    # and it is a pair exactly when that ratio is accepted, i.e. unless "violates".
    is_pair = verdict.classification != "violates"
    _emit(
        {
            "classification": verdict.classification,
            "eigenvalues": verdict.eigenvalues,
            "quarter_hbar_squared": 0.25 * hbar**2,
            "pair": {"is_pair": is_pair, "lambda_max": 2.0 * np.sqrt(verdict.eigenvalues[0]) / hbar},
        },
        fmt,
    )
    sys.exit(PASS if is_pair else FAIL)


@cli.group()
def cloud():
    """Measurement-cloud generation and analysis."""


@cloud.command("generate")
@click.option("--rx", type=float, required=True, help="Position disk radius.")
@click.option("--rp", type=float, required=True, help="Momentum disk radius.")
@click.option("-n", "n_samples", type=int, default=100_000, show_default=True,
              help="Samples per cloud.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", default=None, help="Structured cloud file (JSON).")
@click.option("--x-out", default=None, help="Plain-text position sample file.")
@click.option("--p-out", default=None, help="Plain-text momentum sample file.")
def cloud_generate(rx, rp, n_samples, seed, output, x_out, p_out):
    """Generate uniform-disk position/momentum clouds."""
    if output is None and x_out is None and p_out is None:
        raise click.UsageError("provide -o or --x-out/--p-out")
    made = cloud_generate_disk(rx, rp, n_samples, seed)
    if output:
        qio.dump_cloud(made, output)
    if x_out:
        qio.dump_samples(made.x_samples, x_out, "x1 x2")
    if p_out:
        qio.dump_samples(made.p_samples, p_out, "p1 p2")


@cloud.command("analyze")
@click.option("--cloud", "cloud_path", type=click.Path(exists=True), default=None,
              help="Structured cloud file.")
@click.option("-x", "x_path", type=click.Path(exists=True), default=None,
              help="Position sample text file.")
@click.option("-p", "p_path", type=click.Path(exists=True), default=None,
              help="Momentum sample text file.")
@click.option("--fit", type=click.Choice(FIT_MODES),
              default="ball", show_default=True)
@click.option("--trim", type=float, default=0.0, show_default=True,
              help="Fraction of most-outlying samples (by gauge) to drop before fitting.")
@hbar_option
@tol_option
@format_option
def cloud_analyze_cmd(cloud_path, x_path, p_path, fit, trim, hbar, tol, fmt):
    """Fit bodies to a cloud and report pair, capacity, and covariance verdicts."""
    _check_one_input({"--cloud": cloud_path}, {"-x": x_path, "-p": p_path})
    made = qio.load_cloud(cloud_path, x_path, p_path)
    report = cloud_analyze(made, hbar=hbar, fit=fit, trim=trim, tol=tol)
    doc = report.to_dict()
    if fmt == "text":
        doc.pop("body_x")
        doc.pop("body_p")
    _emit(doc, fmt)
    sys.exit(PASS if report.pair.is_pair else FAIL)


@cli.group()
def demo():
    """Worked examples."""


@demo.command("disk-example")
@click.option("--rx", type=float, default=2.0, show_default=True)
@click.option("--rp", type=float, default=1.0, show_default=True)
@click.option("-n", "n_samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@hbar_option
@format_option
def disk_example(rx, rp, n_samples, seed, hbar, fmt):
    """Uniform-disk demonstration with the variance cross-check.

    Exits 2 when the analyzed pair verdict disagrees with the radius
    criterion rx * rp >= hbar or the measured variance leaves the Monte
    Carlo oracle rx^2/4 by more than 4%.
    """
    report = disk_demo(rx, rp, n_samples, seed, hbar)
    _emit(report.to_dict() if fmt == "structured" else _demo_text_doc(report), fmt)
    consistent = (
        report.measured_matches_uniform
        and report.analysis.pair.is_pair == report.pair_expected
    )
    sys.exit(PASS if consistent else FAIL)


def _demo_text_doc(report):
    return {
        "rx": report.rx,
        "rp": report.rp,
        "n_samples": report.n_samples,
        "measured_variance_x1": report.measured_variance,
        "uniform_disk_variance_rx2_over_4": report.uniform_disk_variance,
        "quoted_pi_variance": report.quoted_pi_variance,
        "quoted_variance_flag": report.quoted_variance_flag,
        "pair_verdict": report.analysis.pair.is_pair,
        "pair_expected_from_radii": report.pair_expected,
        "lambda_max": report.analysis.pair.lambda_max,
        "capacity": report.analysis.capacity.value,
    }


@cli.group()
def plot():
    """Plot-data emission."""


@plot.command("section")
@click.option("--body", "body_path", type=click.Path(exists=True), default=None,
              help="Single body document.")
@click.option("-x", "x_path", type=click.Path(exists=True), default=None,
              help="Position body (with -p: product section).")
@click.option("-p", "p_path", type=click.Path(exists=True), default=None,
              help="Momentum body (with -x: product section).")
@click.option("--sigma", "sigma_path", type=click.Path(exists=True), default=None,
              help="Covariance matrix: section of its phase-space ellipsoid.")
@click.option("--plane", default="0,1", show_default=True,
              help="Comma-separated 0-based coordinate indices i,j.")
@click.option("-o", "--output", default=None, help="Output file (default stdout).")
def plot_section(body_path, x_path, p_path, sigma_path, plane, output):
    """Emit a closed-polyline section boundary with its annotated area."""
    try:
        i, j = (int(s) for s in plane.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse plane {plane!r}; expected i,j") from None
    _check_one_input({"--body": body_path}, {"-x": x_path, "-p": p_path}, {"--sigma": sigma_path})
    if body_path:
        text = emit_section_plot(qio.load_body(body_path), (i, j))
    elif sigma_path:
        ell = covariance_ellipsoid(qio.load_covariance(sigma_path))
        text = emit_section_plot(ell, (i, j), label="covariance ellipsoid")
    else:
        text = emit_section_plot(
            (qio.load_body(x_path), qio.load_body(p_path)), (i, j), label="product"
        )
    _write_out(text, output)


def main():
    # A qpolar process runs one command: no collection pass during it, and the one at
    # exit skips the frozen import-time heap. Library use keeps the collector as it is.
    gc.freeze()
    gc.disable()
    cli(prog_name="qpolar")


if __name__ == "__main__":
    main()
