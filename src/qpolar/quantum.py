"""Quantum covariance matrices and their uncertainty criteria.

A symmetric 2n x 2n matrix Sigma (coordinates x_1..x_n, p_1..p_n) is a quantum
covariance matrix iff the Hermitian matrix Sigma + (i hbar / 2) J is positive
semidefinite; equivalently all Williamson eigenvalues of Sigma are >= hbar/2,
equivalently the symplectic capacity of the covariance ellipsoid
{z : z^T Sigma^{-1} z / 2 <= 1} is >= pi hbar. The library computes two of the three:
is_quantum_covariance reads the Williamson spectrum, capacity_criterion the capacity of
the inverse ellipsoid; the test suite adds the Hermitian definition and enforces the triangle.

A ``CovarianceMatrix`` is factored once, when built, and takes its hbar-free Williamson spectrum
once, on first read (``CovarianceMatrix._spectrum``); hbar enters its validity ratio last
(``CovarianceMatrix._validity_ratio``, also theorem2_check's gate). capacity_criterion reads the
factor of (2 Sigma)^-1 and builds no Ellipsoid.

The x/p projections of the covariance ellipsoid (project_xp, built from C = chol(Delta(x,x)) and
G = chol(Delta(p,p)) as hardy.hardy_check's pair is) form an hbar-polar quantum pair whenever Sigma
is valid (theorem2_check): the eigenvalues of Delta(x,x) Delta(p,p), the squared singular values of
C^T G, are >= hbar^2/4 (heisenberg_eigen_check). hardy_check classifies Gaussian envelope pairs by
the same eigenvalues; each block is factored once, and theorem2_check reads C off Sigma's factor.

Each verdict is the threshold hbar/2 on one dimensionless ratio r (>= 1 iff the
bound holds), accepted by bodies._accepts: 2 nu_min / hbar for validity,
c / (pi hbar) for the capacity criterion, 2 sqrt(det_j) / hbar per
Robertson-Schrodinger mode and 2 sqrt(eig_j(A B)) / hbar per eigenvalue. Every verdict
checks hbar before it factors its input; heisenberg_eigen_check and hardy_check check tol
then too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bodies import DEFAULT_TOL, Ellipsoid, PairVerdict, _accepts, _check_hbar, _freeze, _induced_pair, _inverse_factor
from .capacities import _factor_capacity
from .errors import DimensionError, InvalidCovarianceError, NotPositiveDefiniteError
from .symplectic import (_check_tol, _factor_symplectic_eigenvalues, _mode_scales, _spd_cholesky, _spd_pair,
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

    @cached_property
    def _spectrum(self) -> np.ndarray | None:
        """The Williamson spectrum nu_1 <= ... <= nu_n off ``factor``, frozen; None without a factor."""
        return None if self.factor is None else _freeze(_factor_symplectic_eigenvalues(self.factor))

    def _validity_ratio(self, hbar: float) -> float:
        """2 nu_min / hbar off ``_spectrum``, hbar last; 0 without a factor."""
        return 0.0 if self.factor is None else 2.0 * self._spectrum[0] / hbar


def _as_cov(s) -> CovarianceMatrix:
    return s if isinstance(s, CovarianceMatrix) else CovarianceMatrix(np.asarray(s, dtype=float))


def is_quantum_covariance(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> bool:
    """True iff Sigma + (i hbar / 2) J is positive semidefinite (within tol).

    That holds iff the smallest Williamson eigenvalue nu_min of Sigma is >= hbar / 2, so the
    ratio is 2 nu_min / hbar, with nu_min read off the spectrum the state keeps
    (``CovarianceMatrix._spectrum``, taken once per state). Boundary states count as valid,
    a Sigma that is not positive definite (no Cholesky factor) as invalid (ratio 0).
    Agrees with the capacity criterion on every SPD input.
    """
    _check_hbar(hbar)
    return _accepts(_as_cov(s)._validity_ratio(hbar), tol)


def rs_check(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> list[bool]:
    """Per-mode Robertson-Schrodinger test.

    Entry j is (Dx_j)^2 (Dp_j)^2 >= Delta(x_j,p_j)^2 + hbar^2/4, boundary
    included, accepted on the ratio 2 sqrt(det_j) / hbar; a mode with a
    variance that is not positive has ratio 0.
    """
    _check_hbar(hbar)
    cov = _as_cov(s)
    variances = cov.sigma.diagonal()
    dx, dp = variances[: cov.n], variances[cov.n:]
    det = np.where((dx > 0) & (dp > 0), dx * dp - cov.sigma.diagonal(cov.n) ** 2, 0.0)
    return _accepts(2.0 * np.sqrt(np.maximum(det, 0.0)) / hbar, tol)


def covariance_ellipsoid(s) -> Ellipsoid:
    """The phase-space region {z : z^T Sigma^{-1} z / 2 <= 1} as an Ellipsoid."""
    return Ellipsoid._from_factor(_inverse_factor(_as_cov(s).sigma, 2.0))


def capacity_criterion(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> bool:
    """True iff the covariance ellipsoid has capacity >= pi * hbar (= h/2); False if Sigma has none.
    The capacity is read off the factor of (2 Sigma)^-1, with no Ellipsoid built."""
    _check_hbar(hbar)
    try:
        f = _inverse_factor(_as_cov(s).sigma, 2.0)
    except NotPositiveDefiniteError:  # not positive definite: invalid, as in is_quantum_covariance
        return _accepts(0.0, tol)
    return _accepts(_factor_capacity(f) / (np.pi * hbar), tol)


def _covariance_verdicts(cov: CovarianceMatrix, hbar: float, tol: float) -> tuple:
    """The bundle `qpolar covariance` and cloud_analyze report: (validity, Robertson-Schrodinger flag
    per mode, capacity criterion, the Williamson spectrum ``CovarianceMatrix._spectrum`` that validity
    reads, None without a factor)."""
    return (is_quantum_covariance(cov, hbar, tol), rs_check(cov, hbar, tol), capacity_criterion(cov, hbar, tol),
            cov._spectrum)


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
    off-diagonal block does not enter. Built from chol(A) and chol(B), as hardy_check's pair is.
    """
    cov = _as_cov(s)
    return _induced_pair(*_spd_pair(cov.dxx, cov.dpp))


def theorem2_check(s, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> PairVerdict:
    """Quantum-pair verdict on the (X, P) projections of a valid covariance matrix.

    Rejects invalid covariance input, on the nu_min the CovarianceMatrix keeps; for every
    valid quantum covariance matrix the verdict is a pair (lambda_max >= 1), hence the product capacity
    of X x P is at least 4 * hbar. lambda_max is the inclusion scale of ``project_xp``'s pair in closed
    form, 2 sigma_min(C11^T G) / hbar: C11 = chol(Delta(x,x)) leads Sigma's factor, G = chol(Delta(p,p)).
    """
    _check_hbar(hbar)
    cov = _as_cov(s)
    if not _accepts(cov._validity_ratio(hbar), tol):  # is_quantum_covariance's verdict
        raise InvalidCovarianceError("input is not a quantum covariance matrix at this hbar")
    lam = float(_mode_scales(cov.factor[: cov.n, : cov.n], _spd_cholesky(cov.dpp, "B"), hbar)[1][0])
    return PairVerdict(is_pair=_accepts(lam, tol), lambda_max=lam, margin=lam - 1.0)


def heisenberg_eigen_check(a, b, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> list[bool]:
    """Per-eigenvalue test eig_j(A B) >= hbar^2 / 4, ascending order.

    All-true coincides with the quantum-pair property of the induced
    ellipsoid pair {x A^{-1} x / 2 <= 1}, {p B^{-1} p / 2 <= 1}: the first
    ratio 2 sqrt(eig_1) / hbar is that pair's inclusion scale. hbar and tol are checked
    before A and B.
    """
    _check_hbar(hbar)
    _check_tol(tol)
    return _accepts(_mode_scales(*_spd_pair(require_symmetric(a), require_symmetric(b)), hbar)[1], tol)


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
