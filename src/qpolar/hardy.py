"""Discrete hbar-scaled Fourier transform and Hardy-type envelope verification.

Transform convention:

    psi^(p) = (2 pi hbar)^(-1/2) * integral exp(-i p x / hbar) psi(x) dx

chosen so the Gaussian exp(-x^2 / 4 sigma_X^2) maps onto the envelope
exp(-p^2 / 4 sigma_P^2) with sigma_X sigma_P = hbar / 2. The discrete version
is exactly unitary on the grid (Parseval), and applying it twice with the
kernel sign flipped recovers the input on symmetric grids.

Gaussian envelope pairs are classified by the eigenvalues of A B (hardy_check).

Envelope checks compare |f| against C * exp(-E(x)) pointwise in log space,
restricted to grid points with |f| >= 1e-12 * max|f|: below that relative
floor (the same level the transform's edge-decay precondition uses) FFT
round-off noise would dominate the ratio and poison boundary cases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .bodies import DEFAULT_TOL, ConvexBody, Ellipsoid, _accepts, _check_hbar, _inverse_ellipsoid, gauge
from .errors import BoundaryDecayWarning, GridError, HardyInconsistencyWarning
from .polarity import PairVerdict, is_quantum_pair
from .quantum import _mode_scales
from .symplectic import require_symmetric

RELATIVE_FLOOR = 1e-12
ENVELOPE_C_FACTOR = 10.0


def _check_grid(grid: np.ndarray) -> tuple[float, float]:
    """Validate uniform power-of-two grid; return (x0, dx)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise GridError("grid must be a one-dimensional array with at least two points")
    n = grid.size
    if n & (n - 1):
        raise GridError(f"grid length must be a power of two, got {n}")
    steps = np.diff(grid)
    dx = steps[0]
    if dx <= 0 or np.max(np.abs(steps - dx)) > 1e-9 * abs(dx):
        raise GridError("grid must be uniformly increasing")
    return float(grid[0]), float(dx)


def hbar_fourier_1d(samples, grid, hbar: float = 1.0,
                    sign: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Discrete approximation of the hbar-scaled Fourier transform.

    Parameters
    ----------
    samples : complex array on the grid.
    grid : uniform grid of power-of-two length.
    hbar : positive scale constant.
    sign : -1 for the forward kernel exp(-i p x / hbar), +1 for the inverse.

    Returns
    -------
    (p_grid, transformed) : the dual grid p_j = 2 pi hbar (j - N/2) / (N dx)
    and the transform values on it. Unitary: the discrete L2 norms (with dx
    and dp weights) agree exactly.

    Samples that fail to decay below 1e-12 (relative) at the grid edges
    trigger a BoundaryDecayWarning; the transform still runs.
    """
    _check_hbar(hbar)
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    psi = np.asarray(samples, dtype=complex)
    grid = np.asarray(grid, dtype=float)
    if psi.shape != grid.shape:
        raise GridError(f"samples shape {psi.shape} does not match grid shape {grid.shape}")
    x0, dx = _check_grid(grid)
    n = grid.size

    peak = np.max(np.abs(psi))
    if peak > 0 and max(abs(psi[0]), abs(psi[-1])) > RELATIVE_FLOOR * peak:
        warnings.warn(
            "samples do not decay to 1e-12 (relative) at the grid edges; "
            "the discrete transform will carry truncation artifacts",
            BoundaryDecayWarning,
            stacklevel=2,
        )

    k = np.arange(n)
    freqs = (k - n / 2) / (n * dx)
    p_grid = 2.0 * np.pi * hbar * freqs
    alternate = np.where(k % 2 == 0, 1.0, -1.0)
    if sign == -1:
        core = np.fft.fft(alternate * psi)
    else:
        core = n * np.fft.ifft(alternate * psi)
    phase = np.exp(sign * 2.0j * np.pi * freqs * x0)
    transformed = dx / np.sqrt(2.0 * np.pi * hbar) * phase * core
    return p_grid, transformed


def _log_envelope_constant(values: np.ndarray, exponent: np.ndarray) -> float:
    """log of the smallest C with |values| <= C exp(-exponent), above the noise floor."""
    mags = np.abs(values)
    peak = mags.max()
    if peak == 0:
        return -np.inf
    mask = mags >= RELATIVE_FLOOR * peak
    return float(np.max(np.log(mags[mask]) + exponent[mask]))


def _envelope_fit(samples, grid, hbar: float, x_exponent, p_exponent) -> tuple[bool, bool, float]:
    """Verdicts |psi| <= C exp(-x_exponent(x)), |psi^| <= C exp(-p_exponent(p)) on the grid.

    C is ENVELOPE_C_FACTOR * max|psi|; also returns the log of the least C serving both.
    """
    psi = np.asarray(samples, dtype=complex)
    grid = np.asarray(grid, dtype=float)
    p_grid, psi_hat = hbar_fourier_1d(psi, grid, hbar)
    log_cx = _log_envelope_constant(psi, x_exponent(grid))
    log_cp = _log_envelope_constant(psi_hat, p_exponent(p_grid))
    peak = float(np.max(np.abs(psi)))
    bound = np.log(ENVELOPE_C_FACTOR * peak) if peak > 0 else np.inf
    return bool(log_cx <= bound), bool(log_cp <= bound), max(log_cx, log_cp)


def hardy_envelope_verify(samples, grid, sigma_x: float, sigma_p: float,
                          hbar: float = 1.0) -> bool:
    """Check Gaussian envelope bounds on a grid function and its transform.

    True iff a single constant C <= ENVELOPE_C_FACTOR * max|psi| satisfies
    |psi(x)| <= C exp(-x^2 / 4 sigma_x^2) and
    |psi^(p)| <= C exp(-p^2 / 4 sigma_p^2) on the grid (above the relative
    noise floor). When the check passes with sigma_x * sigma_p below hbar/2
    the uncertainty bound forbids the configuration, so a
    HardyInconsistencyWarning is emitted.
    """
    if sigma_x <= 0 or sigma_p <= 0:
        raise ValueError("envelope widths must be positive")
    pos_ok, mom_ok, log_c = _envelope_fit(samples, grid, hbar,
                                          lambda x: x**2 / (4.0 * sigma_x**2),
                                          lambda p: p**2 / (4.0 * sigma_p**2))
    # psi = 0 (log_c = -inf) meets every envelope and no uncertainty bound.
    if pos_ok and mom_ok and log_c > -np.inf and not _accepts(2.0 * sigma_x * sigma_p / hbar, DEFAULT_TOL):
        warnings.warn(
            f"envelopes verified at sigma_x*sigma_p = {sigma_x * sigma_p:.6g} "
            f"< hbar/2 = {0.5 * hbar:.6g}; forbidden by the uncertainty bound, "
            "so the grid resolution is probably inadequate",
            HardyInconsistencyWarning,
            stacklevel=2,
        )
    return pos_ok and mom_ok


@dataclass(frozen=True)
class HardyInput:
    """Gaussian envelope data |psi| <= C exp(-x A^{-1} x / 4), |psi^| <= C exp(-p B^{-1} p / 4).

    The prefactor C does not enter the classification, so it is not stored.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", require_symmetric(self.a))
        object.__setattr__(self, "b", require_symmetric(self.b))


HardyClass = Literal["violates", "gaussian_boundary", "hermite_subcritical"]


@dataclass(frozen=True)
class HardyVerdict:
    """Eigenvalue classification of a Hardy envelope pair.

    classification is "violates" when some eigenvalue of A B is below
    hbar^2/4 (r_1 rejected; no such psi exists), "gaussian_boundary" when all
    sit at hbar^2/4 (r_1 and 1/r_n accepted; psi is the matching Gaussian), and
    "hermite_subcritical" otherwise (psi is a finite Hermite combination).
    pair is the induced ellipsoid pair (X, P), a polar quantum pair iff the
    classification is not "violates".
    """

    eigenvalues: np.ndarray
    classification: HardyClass
    pair: tuple[Ellipsoid, Ellipsoid] = field(repr=False)


def hardy_check(inp: HardyInput, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> HardyVerdict:
    """Classify a Hardy envelope pair on the ratios r_j = 2 sqrt(eig_j(A B)) / hbar, ascending."""
    eigs, scales = _mode_scales(inp.a, inp.b, hbar)
    if not _accepts(scales[0], tol):
        kind: HardyClass = "violates"
    elif _accepts(1.0 / scales[-1], tol):
        kind = "gaussian_boundary"
    else:
        kind = "hermite_subcritical"
    pair = (_inverse_ellipsoid(inp.a, 2.0, "A"), _inverse_ellipsoid(inp.b, 2.0, "B"))
    return HardyVerdict(eigenvalues=eigs, classification=kind, pair=pair)


@dataclass(frozen=True)
class MinkowskiExperiment:
    """Evidence record for the Minkowski-norm envelope conjecture.

    The conjecture reads: envelopes |psi| <= C exp(-||x||_X^2 / 2) and
    |psi^| <= C exp(-||p||_P^2 / 2) should force (X, P) to be a quantum pair.
    This record reports both envelope verdicts and the pair verdict; it
    gathers evidence and asserts nothing. A counterexample candidate is a run
    where both envelopes hold but the pair fails.
    """

    pair: PairVerdict
    position_envelope: bool
    momentum_envelope: bool
    log_envelope_constant: float
    counterexample_candidate: bool


def minkowski_envelope_experiment(samples, grid, x_body: ConvexBody, p_body: ConvexBody,
                                  hbar: float = 1.0) -> MinkowskiExperiment:
    """Run the Minkowski-norm envelope experiment for one-dimensional bodies."""
    if x_body.dim != 1 or p_body.dim != 1:
        raise GridError("the grid experiment is one-dimensional; bodies must have dim 1")
    pos_ok, mom_ok, log_c = _envelope_fit(samples, grid, hbar,
                                          lambda x: 0.5 * gauge(x_body, x[:, None])**2,
                                          lambda p: 0.5 * gauge(p_body, p[:, None])**2)
    verdict = is_quantum_pair(x_body, p_body, hbar)
    return MinkowskiExperiment(
        pair=verdict,
        position_envelope=pos_ok,
        momentum_envelope=mom_ok,
        log_envelope_constant=log_c,
        counterexample_candidate=bool(pos_ok and mom_ok and not verdict.is_pair),
    )
