"""The paper's invariances, stated as properties of the inclusion scale and the gauge.

(LX, L^-T P) is an hbar-polar quantum pair exactly when (X, P) is, with the same
lambda_max = max{lambda : lambda P^hbar in X}: lambda is a symplectic invariant. Each
property states its bound.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qpolar.bodies import Ellipsoid, HPolytope, VPolytope, gauge, inclusion_scale
from qpolar.polarity import is_quantum_pair

from conftest import random_spd

# An ellipsoid, an H-polytope with n rows and with more, a V-polytope with n
# vertices and with more.
KINDS = ("E", "H", "H+", "V", "V+")


def _body(kind, arr, d):
    """The body of this kind and array mapped by L = diag(d): L^-T Q L^-1, rows A L^-1, vertices V L^T."""
    if kind == "E":
        return Ellipsoid(arr / d[:, None] / d[None, :])
    return HPolytope(arr / d) if kind[0] == "H" else VPolytope(arr * d)


def _array(kind, n, rng):
    if kind == "E":
        return random_spd(n, rng)
    m = 2 * n if kind.endswith("+") else n
    return rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, size=(m, 1))


@settings(max_examples=150)
@given(kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)), n=st.integers(2, 4),
       k=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_lambda_is_invariant_under_diagonal_maps(kinds, n, k, seed):
    # lambda(L X, L^-T P) = lambda(X, P) for L = diag(d), d_i = 10^(+-j), j up to k <= 15,
    # to 1e-12 relative. Every kernel runs on data scaled by powers of two per row or
    # column; on one power of two per body the LP gauge read 1.65 for 0.90 at 1e-9.
    rng = np.random.default_rng(seed)
    d = 10.0 ** rng.integers(-k, k + 1, size=n).astype(float)
    (kx, kp), hbar = kinds, float(np.exp(rng.uniform(-2.0, 2.0)))
    ax, ap = _array(kx, n, rng), _array(kp, n, rng)
    want = inclusion_scale(_body(kx, ax, np.ones(n)), _body(kp, ap, np.ones(n)), hbar)
    got = inclusion_scale(_body(kx, ax, d), _body(kp, ap, 1.0 / d), hbar)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (kinds, n, d)


@pytest.mark.parametrize("d3", 10.0 ** np.arange(-20, 21, 2))
def test_diagonal_map_gives_no_false_pass(d3):
    # The pair verdict of eight vertex pairs against three rows is 0.900008, not a
    # pair, for every D = diag(1, 1, d3) the validator accepts; at the one-power-of-two
    # LP scaling it read 1.652 and passed from d3 = 1e-9 down. To 1e-13 relative.
    gen = np.random.default_rng(2)
    v, b = gen.standard_normal((8, 3)), gen.standard_normal((3, 3))
    d, hbar = np.array([1.0, 1.0, d3]), 0.19357
    verdict = is_quantum_pair(VPolytope(v * d), HPolytope(b * d), hbar)
    assert verdict.lambda_max == pytest.approx(0.900008, abs=1e-6)
    assert verdict.lambda_max == pytest.approx(is_quantum_pair(VPolytope(v), HPolytope(b), hbar).lambda_max,
                                               rel=1e-13, abs=0.0)
    assert not verdict.is_pair


def test_lp_gauges_of_mixed_scale_vertices():
    # The LP gauge scales V's columns and each vertex by powers of two, and weights a
    # vertex's coefficient by its own. A column at 1e-10 read 0.0596 for 0.8; six of
    # eight vertices at 1e-10 made HiGHS report "infeasible". Oracles: the gauge of
    # the unmapped body (to 1e-12), and the LP over the unscaled vertices whose
    # coefficients cost 1e10 (to 1e-9, HiGHS's tolerance).
    gen = np.random.default_rng(2)
    v = gen.standard_normal((8, 3))
    y = 0.5 * v[7] + 0.3 * v[6]
    d = np.array([1.0, 1.0, 1e-10])
    assert gauge(VPolytope(v * d), y * d) == pytest.approx(gauge(VPolytope(v), y), rel=1e-12)
    assert gauge(VPolytope(v), y) == pytest.approx(0.8, rel=1e-12)
    w, x = v.copy(), np.array([0.3, -0.2, 0.5])
    w[:6] *= 1e-10
    cost = np.r_[np.full(6, 1e10), np.ones(2)]
    res = linprog(np.r_[cost, cost], A_eq=np.hstack([v.T, -v.T]), b_eq=x, bounds=(0, None), method="highs")
    assert res.success
    assert gauge(VPolytope(w), x) == pytest.approx(res.fun, rel=1e-9)
    assert res.fun == pytest.approx(5.4737e8, rel=1e-4)


@pytest.mark.parametrize("r, hbar", [(1e-200, 1e-300), (1e200, 1e300)])
def test_extreme_hbar_closed_forms_with_extreme_bodies(r, hbar):
    # lambda = r_X r_P / (hbar sigma) for the nine ball, box and cross-polytope
    # pairings, sigma = sqrt(n) for ball/cross, n for cross/cross and 1 otherwise, to
    # 1e-14 relative. Boxes and cross-polytopes have size r = 1e+-200 and balls
    # r^(3/4) = 1e+-150 (the radius range of a ball's matrix). sigma itself overflows or
    # underflows while hbar sigma is a normal float: it is taken on scaled operands,
    # and hbar and the exponents are applied to the scaled sigma.
    n, rb = 3, r**0.75
    shapes = {"ball": (Ellipsoid.ball(n, rb), rb), "box": (HPolytope.box(np.full(n, r)), r),
              "cross": (VPolytope(r * np.eye(n)), r)}
    sigma = {("ball", "cross"): n**0.5, ("cross", "ball"): n**0.5, ("cross", "cross"): float(n)}
    for (kx, (x, rx)), (kp, (p, rp)) in itertools.product(shapes.items(), repeat=2):
        expected = rx * (rp / (hbar * sigma.get((kx, kp), 1.0)))
        assert inclusion_scale(x, p, hbar) == pytest.approx(expected, rel=1e-14, abs=0.0), (kx, kp)
