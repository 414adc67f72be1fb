"""Command-line front end.

Exit status: 0 on pass verdicts, 2 on fail verdicts, 1 on errors, usage
errors included, so the commands compose in shell scripts. Each verdict is one
the library returned, and ``_verdict`` prints it and exits. All configuration
is via flags; no environment variables are read.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import asdict
from typing import NoReturn

import click
import numpy as np

from . import __version__, io as qio
from .bodies import DEFAULT_TOL, Ellipsoid, _check_hbar, is_quantum_pair, polar_dual
from .capacities import ellipsoid_capacity, product_capacity
from .cloud import FIT_MODES, cloud_analyze, cloud_generate_disk, disk_demo
from .errors import QPolarError
from .hardy import HardyInput, _check_widths, hardy_check
from .quantum import _covariance_verdicts, covariance_ellipsoid, section_area, theorem2_check
from .sections import emit_section_plot
from .symplectic import _check_tol

PASS, FAIL, ERROR = 0, 2, 1

hbar_option = click.option("--hbar", type=float, default=1.0, show_default=True,
                           help="Reduced action scale; h = 2*pi*hbar.")
tol_option = click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
                          help="Relative tolerance for verdicts.")
format_option = click.option("--format", "fmt", type=click.Choice(["text", "structured"]),
                             default="text", show_default=True,
                             help="Human-readable text or machine-readable JSON.")
output_option = click.option("-o", "--output", type=click.File("w", lazy=True), default="-",
                             help="Output file (default stdout).")


def input_option(*decls: str, **attrs):
    """The one input-file option: an existing path, None when absent."""
    return click.option(*decls, type=click.Path(exists=True), **attrs)


def _verdict(doc: dict, fmt: str, passed: bool) -> NoReturn:
    """The one exit rule: print what the library decided, then exit PASS if it passed, else FAIL."""
    if fmt == "structured":
        click.echo(json.dumps(doc, indent=2, default=_jsonify))
    else:
        for key, value in doc.items():
            if isinstance(value, dict):
                click.echo(f"{key}:")
                for k, v in value.items():
                    click.echo(f"  {k}: {_fmt_value(v)}")
            else:
                click.echo(f"{key}: {_fmt_value(value)}")
    sys.exit(PASS if passed else FAIL)


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
        except (QPolarError, ValueError, IndexError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def cli():
    """Polar duality, symplectic capacities, and quantum covariance analysis."""


@cli.command()
@input_option("--body", "body_path", required=True, help="Body document to dualize.")
@hbar_option
@output_option
def polar(body_path, hbar, output):
    """Write the hbar-polar dual of a body."""
    dual = polar_dual(qio.load_body(body_path), hbar)
    output.write(json.dumps(qio.body_to_dict(dual), indent=2) + "\n")


@cli.command("pair-check")
@input_option("-x", "x_path", required=True, help="Position body document.")
@input_option("-p", "p_path", required=True, help="Momentum body document.")
@hbar_option
@tol_option
@format_option
def pair_check(x_path, p_path, hbar, tol, fmt):
    """Decide whether (X, P) is an hbar-polar quantum pair; exit 2 if not."""
    verdict = is_quantum_pair(qio.load_body(x_path), qio.load_body(p_path), hbar, tol)
    _verdict({**asdict(verdict), "hbar": hbar}, fmt, verdict.is_pair)


@cli.command()
@input_option("-x", "x_path", help="Position body (with -p: product capacity).")
@input_option("-p", "p_path", help="Momentum body (with -x: product capacity).")
@input_option("--body", "body_path", help="Phase-space ellipsoid document (ellipsoid capacity).")
@input_option("--sigma", "sigma_path", help="Covariance matrix (capacity of its ellipsoid; with -j, section area).")
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
        _verdict({"capacity": ellipsoid_capacity(ell), "kind": "ellipsoid", "hbar": hbar}, fmt, True)
    if sigma_path:
        sigma = qio.load_covariance(sigma_path)
        if mode_index is not None:
            _verdict({"section_area": section_area(sigma, mode_index), "kind": "section", "mode": mode_index,
                      "half_h": float(np.pi * hbar), "hbar": hbar}, fmt, True)
        value = ellipsoid_capacity(covariance_ellipsoid(sigma))
        _verdict({"capacity": value, "kind": "ellipsoid", "half_h": float(np.pi * hbar), "hbar": hbar}, fmt, True)
    report = product_capacity(qio.load_body(x_path), qio.load_body(p_path), hbar, tol)
    _verdict(
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
        report.lower_bound_4hbar_met,
    )


@cli.command()
@input_option("--sigma", "sigma_path", required=True, help="Covariance matrix document or whitespace matrix text.")
@hbar_option
@tol_option
@format_option
def covariance(sigma_path, hbar, tol, fmt):
    """Run every quantum-covariance verdict on a matrix; exit 2 if invalid."""
    cov = qio.load_covariance(sigma_path)
    valid, rs, criterion, spectrum = _covariance_verdicts(cov, hbar, tol)
    doc = {"quantum_covariance": valid, "rs_per_mode": rs, "capacity_criterion": criterion,
           "symplectic_spectrum": spectrum, "half_hbar": 0.5 * hbar}
    if valid:
        verdict = theorem2_check(cov, hbar, tol)  # its gate reads the validity ratio cov kept above
        doc["projection_pair"] = {"is_pair": verdict.is_pair, "lambda_max": verdict.lambda_max}
    _verdict(doc, fmt, valid)


@cli.command()
@input_option("--a", "a_path", help="Position envelope matrix A.")
@input_option("--b", "b_path", help="Momentum envelope matrix B.")
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
    _verdict(
        {
            "classification": verdict.classification,
            "eigenvalues": verdict.eigenvalues,
            "quarter_hbar_squared": 0.25 * hbar**2,
            "pair": {"is_pair": verdict.is_pair, "lambda_max": verdict.lambda_max},
        },
        fmt,
        verdict.is_pair,
    )


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
@input_option("--cloud", "cloud_path", help="Structured cloud file.")
@input_option("-x", "x_path", help="Position sample text file.")
@input_option("-p", "p_path", help="Momentum sample text file.")
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
    _verdict(doc, fmt, report.pair.is_pair)


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
    _verdict(report.to_dict() if fmt == "structured" else _demo_text_doc(report), fmt, report.consistent)


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
@input_option("--body", "body_path", help="Single body document.")
@input_option("-x", "x_path", help="Position body (with -p: product section).")
@input_option("-p", "p_path", help="Momentum body (with -x: product section).")
@input_option("--sigma", "sigma_path", help="Covariance matrix: section of its phase-space ellipsoid.")
@click.option("--plane", default="0,1", show_default=True,
              help="Comma-separated 0-based coordinate indices i,j.")
@output_option
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
    output.write(text)


def main():
    # A qpolar process runs one command: no collection pass during it, and the one at
    # exit skips the frozen import-time heap. Library use keeps the collector as it is.
    gc.freeze()
    gc.disable()
    cli(prog_name="qpolar")


if __name__ == "__main__":
    main()
