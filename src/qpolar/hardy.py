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

import math
import warnings
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .bodies import DEFAULT_TOL, ConvexBody, Ellipsoid, _accepts, _check_hbar, gauge
from .errors import BoundaryDecayWarning, GridError, HardyInconsistencyWarning
from .polarity import PairVerdict, is_quantum_pair
from .quantum import _mode_scales
from .symplectic import _spd_pair, require_symmetric

RELATIVE_FLOOR = 1e-12
ENVELOPE_C_FACTOR = 10.0


def _checked_samples(samples, grid, hbar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(psi, |psi|, grid, dx) for samples on a uniform power-of-two grid, the transform's
    preconditions: GridError for a bad grid, ValueError for non-finite samples, and a
    BoundaryDecayWarning where |psi| does not decay below 1e-12 (relative) at the edges.
    """
    _check_hbar(hbar)
    psi = np.asarray(samples, dtype=complex)
    grid = np.asarray(grid, dtype=float)
    if psi.shape != grid.shape:
        raise GridError(f"samples shape {psi.shape} does not match grid shape {grid.shape}")
    if grid.ndim != 1 or grid.size < 2:
        raise GridError("grid must be a one-dimensional array with at least two points")
    n = grid.size
    if n & (n - 1):
        raise GridError(f"grid length must be a power of two, got {n}")
    if not np.isfinite(grid).all():
        raise GridError("grid points must be finite")
    steps = grid[1:] - grid[:-1]
    dx = float(steps[0])
    if dx <= 0 or np.abs(steps - dx).max() > 1e-9 * dx:
        raise GridError("grid must be uniformly increasing")
    mags = np.abs(psi)
    peak = mags.max()
    if not math.isfinite(peak):
        raise ValueError("samples must be finite")
    if peak > 0 and max(mags[0], mags[-1]) > RELATIVE_FLOOR * peak:
        warnings.warn(
            "samples do not decay to 1e-12 (relative) at the grid edges; "
            "the discrete transform will carry truncation artifacts",
            BoundaryDecayWarning,
            stacklevel=3,
        )
    return psi, mags, grid, dx


def _fft_core(psi: np.ndarray, dx: float, hbar: float, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_grid, frequencies f_j, core): the transform is dx / sqrt(2 pi hbar) * exp(sign 2 pi i f_j x0) * core."""
    n = psi.size
    k = np.arange(n)
    freqs = (k - n / 2) / (n * dx)
    alternate = np.ones(n)
    alternate[1::2] = -1.0
    if sign == -1:
        core = np.fft.fft(alternate * psi)
    else:
        core = n * np.fft.ifft(alternate * psi)
    return 2.0 * np.pi * hbar * freqs, freqs, core


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
    trigger a BoundaryDecayWarning; the transform still runs. Non-finite
    samples raise ValueError, a non-finite grid GridError.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    psi, _, grid, dx = _checked_samples(samples, grid, hbar)
    p_grid, freqs, core = _fft_core(psi, dx, hbar, sign)
    phase = np.exp(sign * 2.0j * np.pi * freqs * float(grid[0]))
    transformed = dx / np.sqrt(2.0 * np.pi * hbar) * phase * core
    return p_grid, transformed


def _transform_magnitudes(psi: np.ndarray, dx: float, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """(p_grid, |hbar_fourier_1d(psi)|) for checked samples: |core| dx / sqrt(2 pi hbar), no phase."""
    p_grid, _, core = _fft_core(psi, dx, hbar, -1)
    return p_grid, np.abs(core) * (dx / np.sqrt(2.0 * np.pi * hbar))


def _log_envelope_constant(mags: np.ndarray, exponent: np.ndarray) -> float:
    """log of the smallest C with mags <= C exp(-exponent), above the noise floor."""
    peak = mags.max()
    if peak == 0:
        return -np.inf
    mask = mags >= RELATIVE_FLOOR * peak
    return float((np.log(mags[mask]) + exponent[mask]).max())


def _envelope_fit(samples, grid, hbar: float, x_exponent, p_exponent) -> tuple[bool, bool, float]:
    """Verdicts |psi| <= C exp(-x_exponent(x)), |psi^| <= C exp(-p_exponent(p)) on the grid.

    C is ENVELOPE_C_FACTOR * max|psi|; also returns the log of the least C serving both.
    Only magnitudes enter, so psi^ is taken without its unit-modulus phase.
    """
    psi, mags, grid, dx = _checked_samples(samples, grid, hbar)
    p_grid, hat_mags = _transform_magnitudes(psi, dx, hbar)
    log_cx = _log_envelope_constant(mags, x_exponent(grid))
    log_cp = _log_envelope_constant(hat_mags, p_exponent(p_grid))
    peak = float(mags.max())
    bound = np.log(ENVELOPE_C_FACTOR * peak) if peak > 0 else np.inf
    return bool(log_cx <= bound), bool(log_cp <= bound), max(log_cx, log_cp)


def _check_widths(sigma_x: float, sigma_p: float) -> None:
    """The one envelope-width check: ValueError unless both widths are positive (NaN fails)."""
    if not (sigma_x > 0 and sigma_p > 0):
        raise ValueError(f"envelope widths must be positive, got {sigma_x}, {sigma_p}")


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
    _check_widths(sigma_x, sigma_p)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    """Classify a Hardy envelope pair on the ratios r_j = 2 sqrt(eig_j(A B)) / hbar, ascending.
    The pair's X has the factor C^-T / sqrt(2) of (2 A)^-1 for A = C C^T, and P likewise."""
    c, g = _spd_pair(inp.a, inp.b)  # symmetrized by HardyInput
    eigs, scales = _mode_scales(c, g, hbar)
    if not _accepts(scales[0], tol):
        kind: HardyClass = "violates"
    elif _accepts(1.0 / scales[-1], tol):
        kind = "gaussian_boundary"
    else:
        kind = "hermite_subcritical"
    pair = tuple(Ellipsoid._from_factor(np.linalg.inv(f).T / math.sqrt(2.0)) for f in (c, g))
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
