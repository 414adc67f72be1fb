"""Measurement clouds: generation, fitting, and full pair/capacity/covariance reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .bodies import DEFAULT_TOL, ConvexBody, Ellipsoid, HPolytope, VPolytope, _check_hbar, enclosing_ellipsoid, gauge
from .capacities import CapacityReport, _capacity_of
from .errors import DegenerateBodyError, DimensionError
from .polarity import PairVerdict, is_quantum_pair
from .quantum import (
    CovarianceMatrix,
    capacity_criterion,
    is_quantum_covariance,
    rs_check,
)
from .symplectic import _factor_symplectic_eigenvalues

FIT_MODES = ("ball", "mvee", "interval-box")
# The disk demo's measured variance matches a figure within this relative band.
DISK_VARIANCE_RTOL = 0.04


@dataclass(frozen=True, eq=False)
class MeasurementCloud:
    """Position and momentum sample sets (one sample per row, n columns each; a flat
    sequence holds one-coordinate samples)."""

    x_samples: np.ndarray
    p_samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        x, p = (np.asarray(s, dtype=float) for s in (self.x_samples, self.p_samples))
        x, p = (s[:, None] if s.ndim == 1 else np.atleast_2d(s) for s in (x, p))
        if x.size == 0 or p.size == 0:
            raise DegenerateBodyError("both sample sets must be non-empty")
        if x.shape[1] != p.shape[1]:
            raise DimensionError(
                f"position samples have {x.shape[1]} coordinates, momentum samples {p.shape[1]}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "x_samples", x)
        object.__setattr__(self, "p_samples", p)

    @property
    def dim(self) -> int:
        return self.x_samples.shape[1]


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything cloud_analyze derives from a measurement cloud.

    The internal consistency identity pair.lambda_max * 4 * hbar ==
    capacity.value holds on every run because the capacity is read off the
    pair verdict, one inclusion-scale computation.
    """

    x_center: np.ndarray
    p_center: np.ndarray
    body_x: ConvexBody
    body_p: ConvexBody
    pair: PairVerdict
    capacity: CapacityReport
    x_variances: np.ndarray
    p_variances: np.ndarray
    hbar: float
    fit: str
    trim: float
    kept_x: int
    kept_p: int
    rs_per_mode: list
    sigpos_ok: bool
    capacity_criterion_ok: bool
    symplectic_spectrum: Optional[np.ndarray]
    sample_covariance: CovarianceMatrix
    notes: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """JSON-ready dictionary with stable field names."""
        spectrum = self.symplectic_spectrum
        return {
            "x_center": self.x_center.tolist(),
            "p_center": self.p_center.tolist(),
            "body_x": body_to_dict(self.body_x),
            "body_p": body_to_dict(self.body_p),
            "pair": asdict(self.pair),
            "capacity": asdict(self.capacity),
            "x_variances": self.x_variances.tolist(),
            "p_variances": self.p_variances.tolist(),
            "hbar": self.hbar,
            "fit": self.fit,
            "trim": self.trim,
            "kept_x": self.kept_x,
            "kept_p": self.kept_p,
            "notes": list(self.notes),
            "covariance": {
                "sigma": self.sample_covariance.sigma.tolist(),
                "rs_per_mode": self.rs_per_mode,
                "sigpos_ok": self.sigpos_ok,
                "capacity_criterion_ok": self.capacity_criterion_ok,
                "symplectic_spectrum": None if spectrum is None else spectrum.tolist(),
            },
        }


def body_to_dict(body: ConvexBody) -> dict:
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "matrix": body.matrix.tolist()}
    if isinstance(body, HPolytope):
        return {"type": "hpoly", "rows": body.rows.tolist()}
    if isinstance(body, VPolytope):
        return {"type": "vpoly", "vertices": body.vertices.tolist()}
    raise TypeError(f"not a convex body: {type(body)!r}")


def cloud_generate_disk(rx: float, rp: float, n_samples: int, seed: int) -> MeasurementCloud:
    """Uniform samples on the disks |x| <= rx and |p| <= rp (two dimensions).

    Deterministic per seed. The per-coordinate variance of a uniform disk of
    radius R is R^2 / 4.
    """
    if rx <= 0 or rp <= 0:
        raise ValueError("disk radii must be positive")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)

    def disk(radius, count):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    return MeasurementCloud(
        x_samples=disk(rx, n_samples),
        p_samples=disk(rp, n_samples),
        label=f"uniform disks rx={rx} rp={rp} seed={seed}",
    )


def _fit_body(points: np.ndarray, fit: str) -> ConvexBody:
    if fit == "interval-box":
        halfwidths = np.max(np.abs(points), axis=0)
        if np.any(halfwidths == 0):
            raise DegenerateBodyError("samples are flat along a coordinate; box fit is degenerate")
        return HPolytope.box(halfwidths)
    return enclosing_ellipsoid(points, mode=fit)


def _trim_points(points: np.ndarray, fit: str, trim: float) -> np.ndarray:
    """Drop the fraction `trim` of samples with the largest gauge values."""
    if trim == 0.0 or points.shape[0] < 3:
        return points
    body = _fit_body(points, fit)
    gauges = gauge(body, points)
    cutoff = np.quantile(gauges, 1.0 - trim)
    kept = points[gauges <= cutoff]
    return kept if kept.shape[0] >= points.shape[1] + 1 else points


def cloud_analyze(cloud: MeasurementCloud, hbar: float = 1.0, fit: str = "ball",
                  trim: float = 0.0, tol: float = DEFAULT_TOL) -> AnalysisReport:
    """Center, optionally trim, fit bodies, and run every verdict on a cloud.

    Samples are centered at their means (polarity is defined for centered
    bodies). trim = q drops the fraction q with the largest gauge relative to
    a preliminary fit, then refits; the default 0 removes nothing. When the
    sample sets are paired (equal counts) the joint 2n x 2n sample covariance
    and its quantum verdicts are included; otherwise the cross block is not
    estimable and the covariance section is built block-diagonal with a note.
    The verdicts are those of `qpolar covariance`: a singular sample covariance
    is invalid and has no symplectic spectrum (None).
    """
    if fit not in FIT_MODES:
        raise ValueError(f"unknown fit mode {fit!r}; expected one of {FIT_MODES}")
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim quantile must lie in [0, 0.5), got {trim}")
    _check_hbar(hbar)

    x_center = cloud.x_samples.mean(axis=0)
    p_center = cloud.p_samples.mean(axis=0)
    xs = cloud.x_samples - x_center
    ps = cloud.p_samples - p_center

    xs_kept = _trim_points(xs, fit, trim)
    ps_kept = _trim_points(ps, fit, trim)
    body_x = _fit_body(xs_kept, fit)
    body_p = _fit_body(ps_kept, fit)

    pair = is_quantum_pair(body_x, body_p, hbar, tol)
    capacity = _capacity_of(pair, hbar, tol)

    notes = []
    n = cloud.dim
    if xs.shape[0] == ps.shape[0]:
        joint = np.hstack([xs, ps])
        sigma = (joint.T @ joint) / joint.shape[0]
    else:
        notes.append(
            "unpaired sample counts: cross-covariance block not estimable, set to zero"
        )
        sigma = np.zeros((2 * n, 2 * n))
        sigma[:n, :n] = (xs.T @ xs) / xs.shape[0]
        sigma[n:, n:] = (ps.T @ ps) / ps.shape[0]
    cov = CovarianceMatrix(sigma)

    return AnalysisReport(
        x_center=x_center,
        p_center=p_center,
        body_x=body_x,
        body_p=body_p,
        pair=pair,
        capacity=capacity,
        x_variances=xs.var(axis=0),
        p_variances=ps.var(axis=0),
        hbar=hbar,
        fit=fit,
        trim=trim,
        kept_x=xs_kept.shape[0],
        kept_p=ps_kept.shape[0],
        rs_per_mode=rs_check(cov, hbar, tol),
        sigpos_ok=is_quantum_covariance(cov, hbar, tol),
        capacity_criterion_ok=capacity_criterion(cov, hbar, tol),
        symplectic_spectrum=None if cov.factor is None else _factor_symplectic_eigenvalues(cov.factor),
        sample_covariance=cov,
        notes=tuple(notes),
    )


@dataclass(frozen=True, eq=False)
class DiskDemoReport:
    """Reproduction of the uniform-disk example with the variance cross-check.

    measured_variance is the Monte Carlo per-coordinate variance of the
    position cloud; uniform_disk_variance is the analytic value rx^2/4. The
    commonly quoted figure pi rx^2/4 is carried along and flagged: it
    disagrees with the Monte Carlo oracle by a factor pi.
    """

    analysis: AnalysisReport
    rx: float
    rp: float
    n_samples: int
    seed: int
    measured_variance: float
    uniform_disk_variance: float
    quoted_pi_variance: float
    measured_matches_uniform: bool
    measured_matches_quoted: bool
    pair_expected: bool

    @property
    def quoted_variance_flag(self) -> str:
        return "consistent" if self.measured_matches_quoted else "inconsistent with Monte Carlo oracle"

    def to_dict(self) -> dict:
        return {
            "rx": self.rx,
            "rp": self.rp,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "measured_variance_x1": self.measured_variance,
            "uniform_disk_variance": self.uniform_disk_variance,
            "quoted_pi_variance": self.quoted_pi_variance,
            "measured_matches_uniform": self.measured_matches_uniform,
            "measured_matches_quoted": self.measured_matches_quoted,
            "quoted_variance_flag": self.quoted_variance_flag,
            "pair_expected_from_radii": self.pair_expected,
            "analysis": self.analysis.to_dict(),
        }


def disk_demo(rx: float, rp: float, n_samples: int = 100_000, seed: int = 0,
              hbar: float = 1.0) -> DiskDemoReport:
    """Generate uniform disk clouds, analyze with a ball fit, cross-check variances.

    The pair verdict should flip where rx * rp crosses hbar; the measured
    variance should match rx^2/4 within DISK_VARIANCE_RTOL and expose the quoted
    pi rx^2 / 4 figure as inconsistent.
    """
    cloud = cloud_generate_disk(rx, rp, n_samples, seed)
    analysis = cloud_analyze(cloud, hbar=hbar, fit="ball")
    measured = float(analysis.x_variances[0])
    uniform = rx**2 / 4.0
    quoted = np.pi * rx**2 / 4.0
    return DiskDemoReport(
        analysis=analysis,
        rx=rx,
        rp=rp,
        n_samples=n_samples,
        seed=seed,
        measured_variance=measured,
        uniform_disk_variance=uniform,
        quoted_pi_variance=quoted,
        measured_matches_uniform=bool(abs(measured - uniform) <= DISK_VARIANCE_RTOL * uniform),
        measured_matches_quoted=bool(abs(measured - quoted) <= DISK_VARIANCE_RTOL * quoted),
        pair_expected=bool(rx * rp >= hbar),
    )
