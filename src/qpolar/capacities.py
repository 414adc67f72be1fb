"""Symplectic capacities: exact ellipsoid values, the Lagrangian-product formula,
and conjugate-plane projection areas of products.

On a phase-space ellipsoid {z : z^T Q z <= 1} every symplectic capacity equals
pi / mu_max with mu_max the largest Williamson eigenvalue of Q (normalized so a
ball of radius R has capacity pi R^2). On a Lagrangian product X x P of a
position body and a momentum body the capacity is 4 * hbar * lambda_max with
lambda_max the polar inclusion scale (Artstein-Avidan, Karasev & Ostrover
2014, Duke Math. J.); for intervals this reduces to the rectangle area 4ab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import (DEFAULT_TOL, ConvexBody, Ellipsoid, PairVerdict, _accepts, _check_pair_dims,
                     is_quantum_pair, support)
from .errors import DimensionError
from .symplectic import _factor_symplectic_eigenvalues


@dataclass(frozen=True)
class CapacityReport:
    """A product capacity plus the quantum-pair bookkeeping around it.

    Every report is a product report (kind="product"): value = 4 * hbar * lambda_max
    and lower_bound_4hbar_met records value >= 4*hbar (the quantum-pair
    threshold); equality_case flags the minimal pair lambda_max = 1.
    lambda_max is always exact, so ``exact`` is always True.
    """

    value: float
    kind: str
    lower_bound_4hbar_met: bool
    equality_case: bool
    lambda_max: float
    exact: bool = True


def ellipsoid_capacity(ell: Ellipsoid) -> float:
    """Symplectic capacity of a phase-space ellipsoid {z : z^T Q z <= 1}.

    Returns pi / mu_max, mu_max the largest Williamson eigenvalue of Q (from its factor).
    Monotone, conformal of degree 2, and invariant under linear symplectic
    images. The value does not depend on hbar.
    """
    if ell.dim % 2:
        raise DimensionError(f"phase-space ellipsoids have even dimension, got {ell.dim}")
    return _factor_capacity(ell.factor)


def _factor_capacity(f: np.ndarray) -> float:
    """pi / mu_max for the ellipsoid with an even-dimensional factor F, no Ellipsoid built."""
    return float(np.pi / _factor_symplectic_eigenvalues(f)[-1])


def product_capacity(x: ConvexBody, p: ConvexBody, hbar: float = 1.0,
                     tol: float = DEFAULT_TOL) -> CapacityReport:
    """Capacity of the Lagrangian product X x P: 4 * hbar * lambda_max.

    A view of the quantum-pair verdict on (X, P): lambda_max is its inclusion
    scale, the 4*hbar lower bound holds iff the pair does, and the equality case
    also accepts 1/lambda_max. Raises ``UndecidedError`` where ``is_quantum_pair`` does.
    """
    return _capacity_of(is_quantum_pair(x, p, hbar, tol), hbar, tol)


def _capacity_of(pair: PairVerdict, hbar: float, tol: float) -> CapacityReport:
    """The product capacity report read off a decided quantum-pair verdict."""
    lam = pair.lambda_max
    return CapacityReport(
        value=4.0 * hbar * lam,
        kind="product",
        lower_bound_4hbar_met=pair.is_pair,
        equality_case=pair.is_pair and _accepts(1.0 / lam, tol),
        lambda_max=lam,
    )


def product_projection_area(x: ConvexBody, p: ConvexBody, j: int) -> float:
    """Area of the projection of X x P onto the j-th conjugate plane (1-based).

    The projection is the rectangle [-h_X(e_j), h_X(e_j)] x [-h_P(e_j), h_P(e_j)];
    for a quantum pair it is at least 4 * hbar.
    """
    _check_pair_dims(x, p)
    if not 1 <= j <= x.dim:
        raise IndexError(f"mode index must satisfy 1 <= j <= {x.dim}, got {j}")
    e = np.eye(x.dim)[j - 1]
    return 4.0 * support(x, e) * support(p, e)
