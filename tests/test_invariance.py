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

from qpolar.bodies import Ellipsoid, HPolytope, VPolytope, gauge, inclusion_scale, is_quantum_pair
from qpolar.quantum import CovarianceMatrix, _covariance_verdicts
from qpolar.sections import section_polygon
from qpolar.symplectic import is_symplectic

from conftest import covariance_with_spectrum, random_spd

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


def _signed_permutation(n, rng):
    """(perm, d, L) with L e_i = d_i e_perm(i), d_i = +-1: orthogonal, so L^-T = L, and exact."""
    perm, d = rng.permutation(n), rng.choice([-1.0, 1.0], size=n)
    l = np.zeros((n, n))
    l[perm, np.arange(n)] = d
    return perm, d, l


def _permuted(kind, arr, l):
    """The body of this kind and array mapped by an orthogonal L: L Q L^T, rows A L^T, vertices V L^T."""
    return Ellipsoid(l @ arr @ l.T) if kind == "E" else (HPolytope if kind[0] == "H" else VPolytope)(arr @ l.T)


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


@settings(max_examples=150)
@given(kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)), n=st.integers(2, 4),
       k=st.integers(-40, 40), seed=st.integers(0, 2**32 - 1))
def test_lambda_is_unchanged_by_powers_of_two(kinds, n, k, seed):
    # (X, P) -> (2^k X, 2^-k P) is applied exactly, and every route reads its operands
    # scaled by powers of two, so lambda is bit-identical (no draw of 5000, over all 25
    # pairings at |k| <= 40, differed).
    rng = np.random.default_rng(seed)
    (kx, kp), hbar = kinds, float(np.exp(rng.uniform(-2.0, 2.0)))
    ax, ap = _array(kx, n, rng), _array(kp, n, rng)
    want = inclusion_scale(_body(kx, ax, np.ones(n)), _body(kp, ap, np.ones(n)), hbar)
    assert inclusion_scale(_body(kx, ax, np.full(n, 2.0**k)), _body(kp, ap, np.full(n, 2.0**-k)), hbar) == want


@settings(max_examples=150)
@given(kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)), n=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_lambda_under_signed_coordinate_permutations(kinds, n, seed):
    # (LX, LP) for a signed permutation L (L^-T = L) is applied exactly, but the routes sum
    # in another order, so lambda is not bit-identical. Within 16 eps where no body is a
    # V-polytope with n vertices (at most 6 eps on 3200 draws); a V-polytope's gauge reads
    # V^-1, so with one it is within 4 eps cond(V) (at most 1.13 eps cond(V) on 1800 draws).
    rng = np.random.default_rng(seed)
    (kx, kp), hbar = kinds, float(np.exp(rng.uniform(-2.0, 2.0)))
    ax, ap = _array(kx, n, rng), _array(kp, n, rng)
    _, _, l = _signed_permutation(n, rng)
    want = inclusion_scale(_body(kx, ax, np.ones(n)), _body(kp, ap, np.ones(n)), hbar)
    got = inclusion_scale(_permuted(kx, ax, l), _permuted(kp, ap, l), hbar)
    conds = [np.linalg.cond(a) for kind, a in ((kx, ax), (kp, ap)) if kind == "V"]
    bound = 4.0 * max(conds) if conds else 16.0
    assert got == pytest.approx(want, rel=bound * np.finfo(float).eps, abs=0.0), (kinds, n)


@settings(max_examples=100)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_section_polygons_permute_with_the_plane(kind, n, seed):
    # The section of LX by the plane (perm(i), perm(j)) is diag(d_i, d_j) times X's by
    # (i, j). A polytope's polygon has the same vertices to 1e-12 of its extent (at most
    # 994 eps, from Qhull's vertices of a V-polytope's polar, on 1000 draws); an ellipse's
    # points, flipped back, lie on X's section to 32 eps (at most 8 eps).
    rng = np.random.default_rng(seed)
    arr = _array(kind, n, rng)
    perm, d, l = _signed_permutation(n, rng)
    i, j = rng.choice(n, size=2, replace=False)
    x = _body(kind, arr, np.ones(n))
    want = section_polygon(x, (i, j))
    got = section_polygon(_permuted(kind, arr, l), (perm[i], perm[j])) * d[[i, j]]
    if kind == "E":
        q = x.matrix[np.ix_([i, j], [i, j])]
        assert np.abs(np.einsum("ki,ij,kj->k", got, q, got) - 1.0).max() <= 32 * np.finfo(float).eps
    else:
        assert got.shape == want.shape
        gaps = np.abs(want[:, None, :] - got[None, :, :]).max(axis=2)
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-12 * np.abs(want).max()


@settings(max_examples=150)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_covariance_verdicts_under_signed_mode_permutations(n, seed):
    # S = diag(DP, DP) for a signed permutation DP is symplectic and applied exactly. S Sigma
    # S^T keeps validity and the capacity criterion, moves the Robertson-Schrodinger flag of
    # mode i to mode perm(i), and keeps the Williamson spectrum within eps cond(Sigma) per
    # entry (at most 0.37 eps cond(Sigma) on 600 states). A third of the states sit on the
    # boundary nu_min = hbar/2; the spectra span hbar/2 (0.6 to 3).
    rng = np.random.default_rng(seed)
    hbar = float(np.exp(rng.uniform(-1.0, 1.0)))
    nu = 0.5 * hbar * rng.uniform(0.6, 3.0, size=n)
    if seed % 3 == 0:
        nu[rng.integers(n)] = 0.5 * hbar
    sigma = covariance_with_spectrum(nu, rng)
    perm, _, dp = _signed_permutation(n, rng)
    s = np.kron(np.eye(2), dp)
    assert is_symplectic(s, tol=0.0)
    valid, rs, capacity, spectrum = _covariance_verdicts(CovarianceMatrix(sigma), hbar, 1e-9)
    mapped = _covariance_verdicts(CovarianceMatrix(s @ sigma @ s.T), hbar, 1e-9)
    assert mapped[0] == valid and mapped[2] == capacity
    assert [mapped[1][perm[i]] for i in range(n)] == rs
    assert mapped[3] == pytest.approx(spectrum, rel=np.finfo(float).eps * np.linalg.cond(sigma), abs=0.0)


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
