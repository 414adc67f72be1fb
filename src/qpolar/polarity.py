"""hbar-polar duality of centered convex bodies and the quantum-pair decision.

The hbar-polar dual of a centrally symmetric body X is

    X^hbar = {p : p . x <= hbar for all x in X},

a geometric Fourier transform: it reverses inclusions, is an involution on
convex bodies, and at hbar = 1 reduces to the classical polar set. A pair
(X, P) is a quantum pair when X^hbar is contained in P; the relation is
symmetric in X and P. The inclusion scale

    lambda_max = max{lambda > 0 : lambda * P^hbar subset of X} = 1 / (hbar sigma(X, P))

quantifies the pair: lambda_max >= 1 iff (X, P) is a quantum pair, and
4 * hbar * lambda_max is the product capacity (see capacities). The pairing
sigma(X, P) = max{x . y : x in X°, y in P°} is plainly symmetric in X and P, and
needs no polar body (``bodies._polar_pairing``); the scale is ``bodies.inclusion_scale``.
The representation map X -> X^hbar is ``bodies.polar_dual``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bodies import DEFAULT_TOL, ConvexBody, _accepts, inclusion_scale


@dataclass(frozen=True)
class PairVerdict:
    """Result of a quantum-pair check.

    ``margin`` is lambda_max - 1: the dimensionless slack of the inclusion
    lambda * P^hbar inside X (nonnegative iff the pair holds). lambda_max is
    always exact, so ``exact`` is always True; a pair that cannot be decided
    exactly raises ``UndecidedError`` instead.
    """

    is_pair: bool
    lambda_max: float
    margin: float
    exact: bool = True


def is_quantum_pair(x: ConvexBody, p: ConvexBody, hbar: float = 1.0,
                    tol: float = DEFAULT_TOL) -> PairVerdict:
    """Decide whether (X, P) is an hbar-polar quantum pair (X^hbar inside P).

    Decided through the inclusion scale, so the verdict, the scale, and the
    product-capacity value are mutually consistent by construction; the
    boundary lambda_max = 1 (dual touching) counts as a pair. Raises
    ``UndecidedError`` where ``inclusion_scale`` does.
    """
    lam = inclusion_scale(x, p, hbar)
    return PairVerdict(is_pair=_accepts(lam, tol), lambda_max=lam, margin=lam - 1.0)

