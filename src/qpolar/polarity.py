"""hbar-polar duality of centered convex bodies and the quantum-pair decision.

The hbar-polar dual of a centrally symmetric body X is

    X^hbar = {p : p . x <= hbar for all x in X},

a geometric Fourier transform: it reverses inclusions, is an involution on
convex bodies, and at hbar = 1 reduces to the classical polar set. A pair
(X, P) is a quantum pair when X^hbar is contained in P; the relation is
symmetric in X and P. The inclusion scale

    lambda_max = max{lambda > 0 : lambda * P^hbar subset of X}

quantifies the pair: lambda_max >= 1 iff (X, P) is a quantum pair, and
4 * hbar * lambda_max is the product capacity (see capacities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import DEFAULT_TOL, ConvexBody, Ellipsoid, HPolytope, VPolytope, _accepts, _fit_scale
from .errors import DimensionError


@dataclass(frozen=True)
class PairVerdict:
    """Result of a quantum-pair check.

    ``margin`` is lambda_max - 1: the dimensionless slack of the inclusion
    lambda * P^hbar inside X (nonnegative iff the pair holds). ``exact`` is
    False when lambda_max came from the sampled fallback path.
    """

    is_pair: bool
    lambda_max: float
    margin: float
    exact: bool


def polar_dual(body: ConvexBody, hbar: float = 1.0) -> ConvexBody:
    """The hbar-polar dual X^hbar = {p : p . x <= hbar on X}.

    Representation map: an ellipsoid {x Q x <= 1} dualizes to the ellipsoid
    with matrix Q^{-1} / hbar^2 (so a ball of radius R dualizes to one of
    radius hbar / R); H-polytope rows a_i become V-polytope vertices
    hbar * a_i, and V-polytope vertices v_j become H-polytope rows v_j / hbar.
    """
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if isinstance(body, Ellipsoid):
        return Ellipsoid(np.linalg.inv(body.matrix) / hbar**2)
    if isinstance(body, HPolytope):
        return VPolytope(hbar * body.rows)
    return HPolytope(body.vertices / hbar)


def _inclusion_scale_detail(x: ConvexBody, p: ConvexBody, hbar: float) -> tuple[float, bool]:
    if x.dim != p.dim:
        raise DimensionError(f"dimension mismatch: X is {x.dim}-dim, P is {p.dim}-dim")
    return _fit_scale(polar_dual(p, hbar), x)


def inclusion_scale(x: ConvexBody, p: ConvexBody, hbar: float = 1.0) -> float:
    """lambda_max = max{lambda > 0 : lambda * P^hbar subset of X}.

    Exact for every pairing of the three representations except H-polytope
    sources beyond the vertex-enumeration dimension cap. Symmetric in its
    body arguments.
    """
    lam, _ = _inclusion_scale_detail(x, p, hbar)
    return lam


def is_quantum_pair(x: ConvexBody, p: ConvexBody, hbar: float = 1.0,
                    tol: float = DEFAULT_TOL) -> PairVerdict:
    """Decide whether (X, P) is an hbar-polar quantum pair (X^hbar inside P).

    Decided through the inclusion scale, so the verdict, the scale, and the
    product-capacity value are mutually consistent by construction; the
    boundary lambda_max = 1 (dual touching) counts as a pair.
    """
    lam, exact = _inclusion_scale_detail(x, p, hbar)
    return PairVerdict(
        is_pair=_accepts(lam, tol),
        lambda_max=lam,
        margin=lam - 1.0,
        exact=exact,
    )

