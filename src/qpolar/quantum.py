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
(heisenberg_eigen_check); hardy.hardy_check classifies Gaussian envelope pairs
by the same eigenvalues: the squared singular values of C^T G for A = C C^T, B = G G^T
(Cholesky), each block factored once; theorem2_check reads C off Sigma's factor.

Each verdict is the threshold hbar/2 on one dimensionless ratio r (>= 1 iff the
bound holds), accepted by bodies._accepts: 2 nu_min / hbar for validity,
c / (pi hbar) for the capacity criterion, 2 sqrt(det_j) / hbar per
Robertson-Schrodinger mode and 2 sqrt(eig_j(A B)) / hbar per eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodies import DEFAULT_TOL, Ellipsoid, _accepts, _check_hbar, _freeze, _inverse_ellipsoid
from .capacities import ellipsoid_capacity
from .errors import DimensionError, InvalidCovarianceError, NotPositiveDefiniteError
from .polarity import PairVerdict
from .symplectic import (_factor_pencil_eigenvalues, _spd_cholesky, _spd_pair, _symplectic_j,
                         random_symplectic, require_symmetric)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A symmetric 2n x 2n covariance matrix with named blocks.

    The coordinate ordering is (x_1..x_n, p_1..p_n); dxx, dxp, dpp are the
    n x n blocks Delta(x,x), Delta(x,p), Delta(p,p). Construction only
    enforces symmetry and even dimension; quantum validity is a separate
    check (is_quantum_covariance), so invalid candidates are representable.
    ``factor`` is the Cholesky factor C of Sigma = C C^T, or None when Sigma is
    not positive definite; it is not in the repr. Instances compare by identity.
    """

    sigma: np.ndarray
    factor: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        s = require_symmetric(self.sigma)
        if s.shape[0] % 2:
            raise DimensionError(f"covariance matrices have even dimension, got {s.shape[0]}")
        try:
            c = _freeze(_spd_cholesky(s))
        except NotPositiveDefiniteError:
            c = None
        object.__setattr__(self, "factor", c)
        object.__setattr__(self, "sigma", _freeze(s))

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


def is_quantum_covariance(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> bool:
    """True iff Sigma + (i hbar / 2) J is positive semidefinite (within tol).

    With Sigma = C C^T (Cholesky, ``CovarianceMatrix.factor``), the Hermitian
    C^{-1} (i hbar / 2) J C^{-T} has eigenvalues +-hbar / (2 nu_j), so the ratio
    is 2 nu_min / hbar = -1 / (smallest of them). Boundary states count as valid,
    a Sigma that is not positive definite (no Cholesky factor) as invalid (ratio 0).
    Agrees with the Williamson threshold and the capacity criterion on every SPD input.
    """
    _check_hbar(hbar)
    cov = _as_cov(s)
    if cov.factor is None:
        return _accepts(0.0, tol)
    smallest = _factor_pencil_eigenvalues(0.5j * hbar * _symplectic_j(cov.n), cov.factor)[0]
    return _accepts(-1.0 / smallest, tol)


def rs_check(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> list[bool]:
    """Per-mode Robertson-Schrodinger test.

    Entry j is (Dx_j)^2 (Dp_j)^2 >= Delta(x_j,p_j)^2 + hbar^2/4, boundary
    included, accepted on the ratio 2 sqrt(det_j) / hbar; a mode with a
    variance that is not positive has ratio 0.
    """
    _check_hbar(hbar)
    cov = _as_cov(s)
    dx, dp = np.diag(cov.dxx), np.diag(cov.dpp)
    det = np.where((dx > 0) & (dp > 0), dx * dp - np.diag(cov.dxp) ** 2, 0.0)
    return [_accepts(r, tol) for r in 2.0 * np.sqrt(np.maximum(det, 0.0)) / hbar]


def covariance_ellipsoid(s) -> Ellipsoid:
    """The phase-space region {z : z^T Sigma^{-1} z / 2 <= 1} as an Ellipsoid."""
    return _inverse_ellipsoid(_as_cov(s).sigma, 2.0)


def capacity_criterion(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> bool:
    """True iff the covariance ellipsoid has capacity >= pi * hbar (= h/2); False if Sigma has none."""
    _check_hbar(hbar)
    try:
        ell = covariance_ellipsoid(s)
    except NotPositiveDefiniteError:  # not positive definite: invalid, as in is_quantum_covariance
        return _accepts(0.0, tol)
    return _accepts(ellipsoid_capacity(ell) / (np.pi * hbar), tol)


def section_area(s, j: int) -> float:
    """Area of the covariance ellipsoid's section by the j-th conjugate plane (1-based):
    pi / sqrt(det) of the (x_j, p_j) block of its matrix, >= pi * hbar when Sigma is
    valid. NotPositiveDefiniteError unless Sigma is positive definite."""
    q = covariance_ellipsoid(s).matrix
    n = q.shape[0] // 2
    if not 1 <= j <= n:
        raise IndexError(f"mode index must satisfy 1 <= j <= {n}, got {j}")
    idx = [j - 1, n + j - 1]
    return float(np.pi / np.sqrt(np.linalg.det(q[np.ix_(idx, idx)])))


def project_xp(s) -> tuple[Ellipsoid, Ellipsoid]:
    """Orthogonal projections of the covariance ellipsoid onto x- and p-space.

    These are the n-dimensional ellipsoids {x : x^T A^{-1} x / 2 <= 1} and
    {p : p^T B^{-1} p / 2 <= 1} with A = Delta(x,x), B = Delta(p,p); the
    off-diagonal block does not enter.
    """
    cov = _as_cov(s)
    return _inverse_ellipsoid(cov.dxx, 2.0), _inverse_ellipsoid(cov.dpp, 2.0)


def theorem2_check(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> PairVerdict:
    """Quantum-pair verdict on the (X, P) projections of a valid covariance matrix.

    Rejects invalid covariance input; for every valid quantum covariance
    matrix the verdict is a pair (lambda_max >= 1), hence the product
    capacity of X x P is at least 4 * hbar. lambda_max is the inclusion scale of
    ``project_xp``'s pair in closed form, 2 sigma_min(C11^T G) / hbar: C11, the leading
    n x n block of Sigma's factor, is chol(Delta(x,x)), and G is chol(Delta(p,p)).
    """
    cov = _as_cov(s)
    if not is_quantum_covariance(cov, hbar, tol):
        raise InvalidCovarianceError("input is not a quantum covariance matrix at this hbar")
    return _projection_pair(cov, hbar, tol)


def _projection_pair(cov: CovarianceMatrix, hbar: float, tol: float) -> PairVerdict:
    """theorem2_check's verdict for a Sigma already found valid."""
    lam = float(_mode_scales(cov.factor[: cov.n, : cov.n], _spd_cholesky(cov.dpp, "B"), hbar)[1][0])
    return PairVerdict(is_pair=_accepts(lam, tol), lambda_max=lam, margin=lam - 1.0)


def _mode_scales(c: np.ndarray, g: np.ndarray, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues eig_j of A B = C C^T G G^T, ascending, and their ratios 2 sqrt(eig_j) / hbar:
    the s_j in eig_j = s_j^2 are the singular values of C^T G (``_spd_pair``)."""
    _check_hbar(hbar)
    s = np.linalg.svd(c.T @ g, compute_uv=False)[::-1]
    return s**2, 2.0 * s / hbar


def heisenberg_eigen_check(a, b, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> list[bool]:
    """Per-eigenvalue test eig_j(A B) >= hbar^2 / 4, ascending order.

    All-true coincides with the quantum-pair property of the induced
    ellipsoid pair {x A^{-1} x / 2 <= 1}, {p B^{-1} p / 2 <= 1}: the first
    ratio 2 sqrt(eig_1) / hbar is that pair's inclusion scale.
    """
    c, g = _spd_pair(require_symmetric(a), require_symmetric(b))
    return [_accepts(r, tol) for r in _mode_scales(c, g, hbar)[1]]


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
    _check_hbar(hbar)
    m = random_symplectic(n, np.random.default_rng(seed))
    sigma = (1.0 + slack) * 0.5 * hbar * (m @ m.T)
    return CovarianceMatrix(sigma)
