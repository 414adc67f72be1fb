"""Quantum covariance matrices and their uncertainty criteria.

A symmetric 2n x 2n matrix Sigma (coordinates x_1..x_n, p_1..p_n) is a quantum
covariance matrix iff the Hermitian matrix Sigma + (i hbar / 2) J is positive
semidefinite; equivalently all Williamson eigenvalues of Sigma are >= hbar/2,
equivalently the symplectic capacity of the covariance ellipsoid
{z : z^T Sigma^{-1} z / 2 <= 1} is >= pi hbar. The three routes are exposed
separately (is_quantum_covariance, symplectic spectrum, capacity_criterion) and
must agree; the test suite enforces the triangle.

The position/momentum projections of the covariance ellipsoid form an
hbar-polar quantum pair whenever Sigma is valid (theorem2_check), which reduces
to the eigenvalues of Delta(x,x) Delta(p,p) being >= hbar^2/4
(heisenberg_eigen_check); the same eigenvalue criterion classifies Gaussian
envelope pairs in Hardy's uncertainty principle (hardy_check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .bodies import Ellipsoid
from .capacities import ellipsoid_capacity
from .errors import DimensionError, InvalidCovarianceError, NotPositiveDefiniteError
from .polarity import PairVerdict, is_quantum_pair
from .symplectic import random_symplectic, require_symmetric, standard_symplectic_matrix

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class CovarianceMatrix:
    """A symmetric 2n x 2n covariance matrix with named blocks.

    The coordinate ordering is (x_1..x_n, p_1..p_n); dxx, dxp, dpp are the
    n x n blocks Delta(x,x), Delta(x,p), Delta(p,p). Construction only
    enforces symmetry and even dimension; quantum validity is a separate
    check (is_quantum_covariance), so invalid candidates are representable.
    """

    sigma: np.ndarray

    def __post_init__(self):
        s = require_symmetric(self.sigma)
        if s.shape[0] % 2:
            raise DimensionError(f"covariance matrices have even dimension, got {s.shape[0]}")
        s = np.array(s)
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)

    @property
    def n(self) -> int:
        return self.sigma.shape[0] // 2

    @property
    def dxx(self) -> np.ndarray:
        return self.sigma[: self.n, : self.n]

    @property
    def dxp(self) -> np.ndarray:
        return self.sigma[: self.n, self.n:]

    @property
    def dpp(self) -> np.ndarray:
        return self.sigma[self.n:, self.n:]


def _as_cov(s) -> CovarianceMatrix:
    return s if isinstance(s, CovarianceMatrix) else CovarianceMatrix(np.asarray(s, dtype=float))


def _scaled_tol(sigma: np.ndarray, tol: float) -> float:
    return tol * max(np.max(np.abs(sigma)), 1.0)


def is_quantum_covariance(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> bool:
    """True iff Sigma + (i hbar / 2) J is positive semidefinite (within tol).

    Boundary states (smallest Hermitian eigenvalue exactly zero) count as
    valid. Agrees with min Williamson eigenvalue >= hbar/2 and with the
    capacity criterion on every symmetric input.
    """
    cov = _as_cov(s)
    j = standard_symplectic_matrix(cov.n)
    herm = cov.sigma + 0.5j * hbar * j
    smallest = np.linalg.eigvalsh(herm)[0]
    return bool(smallest >= -_scaled_tol(cov.sigma, tol))


def rs_check(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> list[bool]:
    """Per-mode Robertson-Schrodinger test.

    Entry j is (Dx_j)^2 (Dp_j)^2 >= Delta(x_j,p_j)^2 + hbar^2/4, boundary
    included.
    """
    cov = _as_cov(s)
    out = []
    for j in range(cov.n):
        lhs = cov.dxx[j, j] * cov.dpp[j, j]
        rhs = cov.dxp[j, j] ** 2 + 0.25 * hbar**2
        out.append(bool(lhs >= rhs - _scaled_tol(cov.sigma, tol)))
    return out


def _half_inverse_ellipsoid(m: np.ndarray, what: str) -> Ellipsoid:
    """The ellipsoid {z : z^T M^{-1} z / 2 <= 1}, symmetrizing the computed inverse."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(f"{what} is singular") from None
    return Ellipsoid(0.25 * (inv + inv.T))


def covariance_ellipsoid(s) -> Ellipsoid:
    """The phase-space region {z : z^T Sigma^{-1} z / 2 <= 1} as an Ellipsoid."""
    return _half_inverse_ellipsoid(_as_cov(s).sigma, "covariance matrix")


def capacity_criterion(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> bool:
    """True iff the covariance ellipsoid has capacity >= pi * hbar (= h/2)."""
    value = ellipsoid_capacity(covariance_ellipsoid(s))
    return bool(value >= np.pi * hbar * (1.0 - tol))


def project_xp(s) -> tuple[Ellipsoid, Ellipsoid]:
    """Orthogonal projections of the covariance ellipsoid onto x- and p-space.

    These are the n-dimensional ellipsoids {x : x^T A^{-1} x / 2 <= 1} and
    {p : p^T B^{-1} p / 2 <= 1} with A = Delta(x,x), B = Delta(p,p); the
    off-diagonal block does not enter.
    """
    cov = _as_cov(s)
    what = "a diagonal block of the covariance matrix"
    return _half_inverse_ellipsoid(cov.dxx, what), _half_inverse_ellipsoid(cov.dpp, what)


def theorem2_check(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> PairVerdict:
    """Quantum-pair verdict on the (X, P) projections of a valid covariance matrix.

    Rejects invalid covariance input; for every valid quantum covariance
    matrix the verdict is a pair (lambda_max >= 1), hence the product
    capacity of X x P is at least 4 * hbar.
    """
    cov = _as_cov(s)
    if not is_quantum_covariance(cov, hbar, tol):
        raise InvalidCovarianceError("input is not a quantum covariance matrix at this hbar")
    x, p = project_xp(cov)
    return is_quantum_pair(x, p, hbar, tol)


def _product_eigenvalues(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of A B for SPD A, B (all positive), ascending."""
    a = require_symmetric(a)
    b = require_symmetric(b)
    if a.shape != b.shape:
        raise DimensionError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    wb, vb = np.linalg.eigh(b)
    if wb[0] <= 0:
        raise NotPositiveDefiniteError("B is not positive definite")
    b_sqrt = (vb * np.sqrt(wb)) @ vb.T
    w = np.linalg.eigvalsh(b_sqrt @ a @ b_sqrt)
    if w[0] <= 0:
        raise NotPositiveDefiniteError("A is not positive definite")
    return w


def heisenberg_eigen_check(a, b, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> list[bool]:
    """Per-eigenvalue test eig_j(A B) >= hbar^2 / 4, ascending order.

    All-true coincides with the quantum-pair property of the induced
    ellipsoid pair {x A^{-1} x / 2 <= 1}, {p B^{-1} p / 2 <= 1}.
    """
    eigs = _product_eigenvalues(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    crit = 0.25 * hbar**2
    cut = crit - tol * max(crit, float(eigs[-1]))
    return [bool(e >= cut) for e in eigs]


@dataclass(frozen=True)
class HardyInput:
    """Gaussian envelope data |psi| <= C exp(-x A^{-1} x / 4), |psi^| <= C exp(-p B^{-1} p / 4)."""

    a: np.ndarray
    b: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", require_symmetric(self.a))
        object.__setattr__(self, "b", require_symmetric(self.b))
        if self.c <= 0:
            raise ValueError(f"envelope prefactor must be positive, got {self.c}")


HardyClass = Literal["violates", "gaussian_boundary", "hermite_subcritical"]


@dataclass(frozen=True)
class HardyVerdict:
    """Eigenvalue classification of a Hardy envelope pair.

    classification is "violates" when some eigenvalue of A B is below
    hbar^2/4 (no such psi exists), "gaussian_boundary" when all eigenvalues
    sit at hbar^2/4 (psi must be the matching Gaussian), and
    "hermite_subcritical" otherwise (psi is a finite Hermite combination).
    pair is the induced ellipsoid pair (X, P), a polar quantum pair iff the
    classification is not "violates".
    """

    eigenvalues: np.ndarray
    classification: HardyClass
    pair: tuple[Ellipsoid, Ellipsoid] = field(repr=False)


def hardy_check(inp: HardyInput, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> HardyVerdict:
    """Classify a Hardy envelope pair by the eigenvalues of A B."""
    eigs = _product_eigenvalues(inp.a, inp.b)
    crit = 0.25 * hbar**2
    eps = tol * max(crit, float(eigs[-1]))
    if eigs[0] < crit - eps:
        kind: HardyClass = "violates"
    elif np.all(np.abs(eigs - crit) <= eps):
        kind = "gaussian_boundary"
    else:
        kind = "hermite_subcritical"
    pair = (_half_inverse_ellipsoid(inp.a, "A"), _half_inverse_ellipsoid(inp.b, "B"))
    return HardyVerdict(eigenvalues=eigs, classification=kind, pair=pair)


def random_quantum_covariance(n: int, seed: int, hbar: float = 1.0,
                              slack: float = 0.0) -> CovarianceMatrix:
    """Seeded random valid quantum covariance matrix.

    Returns Sigma = (1 + slack) * (hbar/2) * M M^T with M a random symplectic
    matrix, so every Williamson eigenvalue equals (1 + slack) * hbar / 2;
    slack = 0 produces boundary (minimum-uncertainty) states. Deterministic
    per seed.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1 modes, got n={n}")
    if slack < 0:
        raise ValueError(f"slack must be nonnegative, got {slack}")
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    m = random_symplectic(n, np.random.default_rng(seed))
    sigma = (1.0 + slack) * 0.5 * hbar * (m @ m.T)
    return CovarianceMatrix(0.5 * (sigma + sigma.T))
