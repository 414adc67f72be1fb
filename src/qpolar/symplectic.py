"""Symplectic linear algebra on phase space R^(2n), coordinates ordered (x_1..x_n, p_1..p_n).

The standard form is sigma(z, z') = z'^T J z with J = [[0, I], [-I, 0]]; under this
convention sigma(e1, e2) = -1 and sigma(Jz, z) = -|z|^2 for every z.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)

SYMMETRY_RTOL = 1e-10


def standard_symplectic_matrix(n: int) -> np.ndarray:
    """Return the 2n x 2n block matrix J = [[0, I], [-I, 0]].

    Satisfies J^2 = -I and J^T = -J. A fresh, writable array on every call.
    """
    return _symplectic_j(n).copy()


@lru_cache(maxsize=16)
def _symplectic_j(n: int) -> np.ndarray:
    """J for n modes, cached and read-only: the one the package computes with."""
    if n < 1:
        raise DimensionError(f"need n >= 1 modes, got n={n}")
    j = np.eye(2 * n, k=n) - np.eye(2 * n, k=-n)
    j.setflags(write=False)
    return j


def symplectic_form(z: np.ndarray, zp: np.ndarray) -> float:
    """Evaluate sigma(z, z') = z'^T J z on a pair of 2n-vectors."""
    z = np.asarray(z, dtype=float).ravel()
    zp = np.asarray(zp, dtype=float).ravel()
    if z.shape != zp.shape:
        raise DimensionError(f"vector shapes differ: {z.shape} vs {zp.shape}")
    if z.size == 0 or z.size % 2:
        raise DimensionError(f"phase-space vectors must have even positive length, got {z.size}")
    j = _symplectic_j(z.size // 2)
    return float(zp @ (j @ z))


def _check_tol(tol: float) -> None:
    """The one tol check: ValueError unless tol is finite and non-negative."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def is_symplectic(m: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff ||M^T J M - J||_max <= tol, for a finite tol >= 0 (``_check_tol``)."""
    _check_tol(tol)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] % 2:
        raise DimensionError(f"symplectic matrices have even dimension, got {m.shape[0]}")
    j = _symplectic_j(m.shape[0] // 2)
    return bool(np.max(np.abs(m.T @ j @ m - j)) <= tol)


def require_symmetric(s: np.ndarray) -> np.ndarray:
    """Validate approximate symmetry and return the symmetrized matrix (S + S^T)/2.

    Accepts S when ||S - S^T||_max <= SYMMETRY_RTOL * ||S||_max, a guard for round-off in
    input files (derived ellipsoids come from factors, unchecked); worse raises NotSymmetricError.
    Two reductions: ||S||_max is NaN or inf exactly when an entry is not finite.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or not s.size:
        raise DimensionError(f"expected a non-empty square matrix, got shape {s.shape}")
    scale = np.abs(s).max()
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    big = 2.0 * float(scale) == math.inf  # s - s.T and s + s.T may overflow: then taken on halves
    gap, bound = (np.abs(0.5 * s - 0.5 * s.T).max(), 0.5 * scale) if big else (np.abs(s - s.T).max(), scale)
    if gap > SYMMETRY_RTOL * bound:
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    if big:  # those entries of s + s.T that overflow are halved first
        with np.errstate(over="ignore"):
            return np.where(np.isfinite(half := 0.5 * (s + s.T)), half, 0.5 * s + 0.5 * s.T)
    return 0.5 * (s + s.T)


def _spd_cholesky(s: np.ndarray, name: str = "matrix") -> np.ndarray:
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from None


def symplectic_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues of a symmetric positive definite 2n x 2n matrix.

    Returns the n positive numbers lam_1 <= ... <= lam_n such that the
    eigenvalues of J S are {+-i lam_j}. The spectrum is invariant under
    symplectic congruence S -> M^T S M.

    Computed without complex arithmetic: with S = C C^T (Cholesky), the matrix
    K = C^T J C is real skew-symmetric and similar to J S, so its singular
    values are the lam_j, each doubled.
    """
    s = require_symmetric(s)
    if s.shape[0] % 2:
        raise DimensionError(f"phase-space matrices have even dimension, got {s.shape[0]}")
    return _factor_symplectic_eigenvalues(_spd_cholesky(s))


def _factor_symplectic_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues of C C^T for any invertible 2n x 2n factor C, ascending."""
    j = _symplectic_j(c.shape[0] // 2)
    svals = np.linalg.svd(c.T @ j @ c, compute_uv=False)[::-1]  # ascending, paired
    return 0.5 * (svals[0::2] + svals[1::2])


def _spd_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factors (C, G) of symmetric A = C C^T and B = G G^T, each checked once. The
    squared singular values of C^T G are the eigenvalues of A B, similar to C^T B C."""
    if a.shape != b.shape:
        raise DimensionError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    return _spd_cholesky(a, "A"), _spd_cholesky(b, "B")


def _mode_scales(c: np.ndarray, g: np.ndarray, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues eig_j of A B = C C^T G G^T, ascending, and their ratios 2 sqrt(eig_j) / hbar: the
    s_j in eig_j = s_j^2 are the singular values of C^T G (``_spd_pair``). hbar is checked by the caller."""
    s = np.linalg.svd(c.T @ g, compute_uv=False)[::-1]
    return s**2, 2.0 * s / hbar


def block_diagonalize(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous congruence of two SPD matrices to a common diagonal.

    Returns (L, Lam) with L invertible and

        L^T A L = Lam      and      L^{-1} B L^{-T} = Lam,

    where Lam = diag(sqrt(mu_1), ..., sqrt(mu_n)) and the mu_j are the
    (positive) eigenvalues of the product A B, sorted ascending.

    Construction: with A = C C^T, B = G G^T (``_spd_pair``) and C^T G = U D V^T, take
    L = C^{-T} U D^{1/2}, so L^{-1} = D^{-1/2} U^T C^T; both identities then hold exactly
    in exact arithmetic. Residuals beyond 1e-8 (relative) raise ConvergenceError.
    """
    a, b = require_symmetric(a), require_symmetric(b)
    c, g = _spd_pair(a, b)
    u, d, _ = np.linalg.svd(c.T @ g)
    u, d = u[:, ::-1], d[::-1]
    l = np.linalg.solve(c.T, u * np.sqrt(d))
    lam = np.diag(d)

    scale = max(np.max(np.abs(lam)), 1.0)
    r1 = np.max(np.abs(l.T @ a @ l - lam))
    l_inv = (u / np.sqrt(d)).T @ c.T
    r2 = np.max(np.abs(l_inv @ b @ l_inv.T - lam))
    if max(r1, r2) > 1e-8 * scale:
        raise ConvergenceError(
            f"simultaneous diagonalization residuals {r1:.3e}, {r2:.3e} exceed tolerance; "
            "the product A B is too ill-conditioned"
        )
    return l, lam


def random_symplectic(n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Random 2n x 2n symplectic matrix, deterministic per seed.

    Built as an alternating product of block factors diag(L^T, L^{-1}) with L
    random invertible (controlled conditioning) and phase-plane rotations
    exp(theta J); every factor satisfies M^T J M = J exactly.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1 modes, got n={n}")
    rng = np.random.default_rng(rng)
    two_n = 2 * n
    eye = np.eye(two_n)
    j = _symplectic_j(n)
    m = eye
    for _ in range(3):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        l = q1 @ np.diag(np.exp(rng.uniform(-0.7, 0.7, size=n))) @ q2
        ml = np.block([[l.T, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(l)]])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.cos(theta) * eye + np.sin(theta) * j
        m = ml @ rot @ m
    return m
