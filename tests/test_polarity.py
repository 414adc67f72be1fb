import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpolar.bodies import (DEFAULT_TOL, Ellipsoid, HPolytope, VPolytope, contains, gauge, inclusion_scale,
                           is_quantum_pair, linear_image, polar_dual, scale, support)
from qpolar.capacities import product_capacity
from qpolar.errors import DimensionError

from conftest import random_body, random_ellipsoid, random_hpolytope, random_vpolytope, support_oracle


def bodies_close(a, b, tol=1e-10):
    """Representation-level equality up to row/vertex reordering and sign."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Ellipsoid):
        return np.allclose(a.matrix, b.matrix, atol=tol * max(1, np.abs(a.matrix).max()))
    pa = a.rows if isinstance(a, HPolytope) else a.vertices
    pb = b.rows if isinstance(b, HPolytope) else b.vertices
    if pa.shape != pb.shape:
        return False
    used = set()
    for row in pa:
        hit = None
        for j, cand in enumerate(pb):
            if j in used:
                continue
            if np.allclose(row, cand, atol=tol) or np.allclose(row, -cand, atol=tol):
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def _row_vertices(rows):
    """Vertices of the planar polytope {x : |rows x| <= 1}, from every pair of rows."""
    pts = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            pair = rows[[i, j]]
            if abs(np.linalg.det(pair)) < 1e-12:
                continue
            pts.extend(np.linalg.solve(pair, [si, sj]) for si in (1, -1) for sj in (1, -1))
    pts = np.array(pts)
    return pts[np.max(np.abs(pts @ rows.T), axis=1) <= 1 + 1e-9]


def _support_2d(body, u):
    """h_body on the rows of u, in plain numpy."""
    if isinstance(body, Ellipsoid):
        return np.sqrt(np.einsum("ki,ij,kj->k", u, np.linalg.inv(body.matrix), u))
    pts = _row_vertices(body.rows) if isinstance(body, HPolytope) else body.vertices
    return np.max(np.abs(u @ pts.T), axis=1)


def _gauge_2d(body, u):
    """||u||_body on the rows of u, in plain numpy; a V-polytope's facet normals
    are the vertices of the H-polytope with its vertices as rows."""
    if isinstance(body, Ellipsoid):
        return np.sqrt(np.einsum("ki,ij,kj->k", u, body.matrix, u))
    normals = body.rows if isinstance(body, HPolytope) else _row_vertices(body.vertices)
    return np.max(np.abs(u @ normals.T), axis=1)


def support_ratio_scale(x, p, hbar, count=100_000):
    """min over dense planar directions u of h_X(u) / h_{P^hbar}(u), h_{P^hbar} = hbar ||.||_P.

    An upper bound on lambda_max that tightens as the directions get denser.
    """
    t = np.linspace(0.0, np.pi, count, endpoint=False)
    u = np.column_stack([np.cos(t), np.sin(t)])
    return float(np.min(_support_2d(x, u) / (hbar * _gauge_2d(p, u))))


class TestPolarDual:
    def test_ball_radius_inversion(self):
        out = polar_dual(Ellipsoid.ball(2, 2.0), hbar=1.0)
        assert bodies_close(out, Ellipsoid.ball(2, 0.5))

    def test_ellipsoid_matrix_inversion(self):
        # B_A(1) with A = diag(4, 1) dualizes to the ellipsoid with matrix diag(1/4, 1).
        out = polar_dual(Ellipsoid(np.diag([4.0, 1.0])), hbar=1.0)
        assert bodies_close(out, Ellipsoid(np.diag([0.25, 1.0])))

    def test_interval(self):
        # X = [-2, 2] dualizes to [-1/2, 1/2].
        out = polar_dual(HPolytope([[0.5]]), hbar=1.0)
        assert isinstance(out, VPolytope)
        assert abs(float(out.vertices[0, 0])) == pytest.approx(0.5)

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError):
            polar_dual(Ellipsoid.ball(2), hbar=0.0)

    def test_involution_all_representations(self, rng):
        for n in (1, 2, 3):
            for _ in range(15):
                body = random_body(n, rng)
                hbar = rng.uniform(0.3, 3.0)
                assert bodies_close(polar_dual(polar_dual(body, hbar), hbar), body, tol=1e-9)

    def test_inclusion_reversal(self, rng):
        for _ in range(20):
            body = random_body(2, rng)
            big = scale(body, 1.5)
            assert contains(big, body)
            assert contains(polar_dual(body, 1.0), polar_dual(big, 1.0))

    def test_linear_equivariance(self, rng):
        # (L X)^hbar = (L^T)^{-1} X^hbar
        for n in (2, 3):
            for _ in range(10):
                body = random_body(n, rng)
                l = rng.standard_normal((n, n)) + 3 * np.eye(n)
                hbar = rng.uniform(0.5, 2.0)
                lhs = polar_dual(linear_image(body, l), hbar)
                rhs = linear_image(polar_dual(body, hbar), np.linalg.inv(l.T))
                assert bodies_close(lhs, rhs, tol=1e-8)

    def test_scaling_inverse(self, rng):
        for _ in range(10):
            body = random_body(2, rng)
            lam = rng.uniform(0.2, 4.0)
            lhs = polar_dual(scale(body, lam), 1.0)
            rhs = scale(polar_dual(body, 1.0), 1.0 / lam)
            assert bodies_close(lhs, rhs, tol=1e-9)

    def test_hbar_scaling(self, rng):
        for _ in range(10):
            body = random_body(2, rng)
            hbar = rng.uniform(0.2, 4.0)
            assert bodies_close(polar_dual(body, hbar), scale(polar_dual(body, 1.0), hbar), tol=1e-9)

    def test_gauge_of_dual_is_support(self, rng):
        # h_{X^hbar}(u) = hbar * ||u||_X, the analytic core of polarity; both
        # sides are checked against a support oracle that uses no polarity.
        for _ in range(10):
            body = random_body(2, rng)
            u = rng.standard_normal(2)
            hbar = rng.uniform(0.5, 2.0)
            dual = polar_dual(body, hbar)
            expected = support_oracle(dual, u)
            assert hbar * gauge(body, u) == pytest.approx(expected, rel=1e-7)
            assert support(dual, u) == pytest.approx(expected, rel=1e-7)


class TestQuantumPair:
    def test_self_dual_interval(self):
        x = HPolytope([[1.0]])
        assert is_quantum_pair(x, x, hbar=1.0).is_pair

    def test_narrow_interval_fails(self):
        x = HPolytope([[1.0]])      # [-1, 1]
        p = HPolytope([[2.0]])      # [-1/2, 1/2]
        verdict = is_quantum_pair(x, p, hbar=1.0)
        assert not verdict.is_pair
        assert verdict.lambda_max == pytest.approx(0.5)

    def test_disk_pair_criterion(self):
        # Disks pair iff Rx * Rp >= hbar.
        for rx, rp, expect in [(2.0, 1.0, True), (0.5, 1.0, False), (1.0, 1.0, True)]:
            verdict = is_quantum_pair(Ellipsoid.ball(2, rx), Ellipsoid.ball(2, rp), hbar=1.0)
            assert verdict.is_pair is expect
            assert verdict.lambda_max == pytest.approx(rx * rp)

    def test_symmetry_in_arguments(self, rng):
        agree = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            x = random_body(n, rng)
            p = random_body(n, rng)
            hbar = rng.uniform(0.3, 3.0)
            vx = is_quantum_pair(x, p, hbar)
            vp = is_quantum_pair(p, x, hbar)
            assert vx.is_pair == vp.is_pair
            assert vx.lambda_max == pytest.approx(vp.lambda_max, rel=1e-9)
            agree += 1
        assert agree == 200

    def test_agrees_with_support_ratio_oracle(self, rng):
        for _ in range(50):
            x = random_body(2, rng)
            p = random_body(2, rng)
            hbar = rng.uniform(0.3, 3.0)
            verdict = is_quantum_pair(x, p, hbar)
            oracle = support_ratio_scale(x, p, hbar)
            assert verdict.lambda_max <= oracle * (1 + 1e-12)
            assert oracle <= verdict.lambda_max * (1 + 1e-3)
            if abs(oracle - 1.0) > 1e-3:
                assert verdict.is_pair == (oracle > 1.0)

    def test_verdict_margin_consistency(self, rng):
        for _ in range(50):
            x = random_body(2, rng)
            p = random_body(2, rng)
            v = is_quantum_pair(x, p)
            assert v.margin == pytest.approx(v.lambda_max - 1.0)
            assert v.is_pair == (v.lambda_max >= 1.0 - 1e-9)


UNIT_SHAPES = {
    "ball": lambda n: Ellipsoid.ball(n),
    "box": lambda n: HPolytope.box(np.ones(n)),
    "cross": lambda n: VPolytope(np.eye(n)),
}


def unit_fit(inner: str, outer: str, n: int) -> float:
    """max{lambda : lambda * inner in outer} for the unit ball, box and cross-polytope."""
    smaller = {("box", "ball"): n**-0.5, ("ball", "cross"): n**-0.5, ("box", "cross"): 1.0 / n}
    return smaller.get((inner, outer), 1.0)


@given(x_shape=st.sampled_from(sorted(UNIT_SHAPES)), dual_shape=st.sampled_from(sorted(UNIT_SHAPES)),
       n=st.sampled_from([1, 2, 3, 6]), hbar=st.sampled_from([1e-3, 1.0, 1e3]),
       k=st.sampled_from([2, 10, 100]), sign=st.sampled_from([-1, 1]), seed=st.integers(0, 2**32 - 1))
def test_pair_bound_and_containment_agree_on_band(x_shape, dual_shape, n, hbar, k, sign, seed):
    # X = L.outer and P^hbar = c L.inner, with c chosen so that lambda_max = 1 + sign k tol.
    l = np.random.default_rng(seed).standard_normal((n, n)) + 3 * np.eye(n)
    lam = 1 + sign * k * DEFAULT_TOL
    x = linear_image(UNIT_SHAPES[x_shape](n), l)
    c = unit_fit(dual_shape, x_shape, n) / lam
    p = polar_dual(scale(linear_image(UNIT_SHAPES[dual_shape](n), l), c), hbar)
    pair = is_quantum_pair(x, p, hbar)
    assert pair.lambda_max == pytest.approx(lam, rel=1e-12)
    assert pair.is_pair == product_capacity(x, p, hbar).lower_bound_4hbar_met
    assert pair.is_pair == contains(x, polar_dual(p, hbar)) == (sign > 0)


class TestInclusionScale:
    def test_intervals(self):
        # X = [-2, 2], P = [-3, 3]: lambda_max = a b / hbar = 6.
        x = HPolytope([[0.5]])
        p = HPolytope([[1.0 / 3.0]])
        assert inclusion_scale(x, p, hbar=1.0) == pytest.approx(6.0, rel=1e-12)

    def test_dual_pair_is_unit(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            body = random_body(n, rng)
            hbar = rng.uniform(0.3, 3.0)
            assert inclusion_scale(body, polar_dual(body, hbar), hbar) == pytest.approx(1.0, rel=1e-9)

    def test_unit_boxes(self):
        box = HPolytope.box([1.0, 1.0])
        assert inclusion_scale(box, box, hbar=1.0) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inclusion_scale(Ellipsoid.ball(2), Ellipsoid.ball(3))

    def test_mixed_representations_consistent(self, rng):
        # The same geometric pair must give the same scale whatever the encoding.
        for _ in range(20):
            rx, rp = rng.uniform(0.5, 2.0, size=2)
            as_ellipsoids = inclusion_scale(Ellipsoid.ball(2, rx), Ellipsoid.ball(2, rp))
            square_x = HPolytope.box([rx, rx])
            square_p = HPolytope.box([rp, rp])
            cross_x = VPolytope(rx * np.eye(2))
            # Square vs square: corners of the dual cross-polytope reach the
            # square's gauge at 1/(rx rp) -> lambda = rx rp, same as disks.
            assert inclusion_scale(square_x, square_p) == pytest.approx(rx * rp, rel=1e-9)
            assert as_ellipsoids == pytest.approx(rx * rp, rel=1e-9)
            # Cross-polytope X vs square P: dual of P has vertices e_i/rp and
            # gauge_X(e_i/rp) = 1/(rx rp), so the scale is again rx rp.
            assert inclusion_scale(cross_x, square_p) == pytest.approx(rx * rp, rel=1e-9)


# Random bodies: an ellipsoid, H-polytopes with n and n + 2 rows, V-polytopes with n
# and n + 2 vertices. The pair scale tells four kinds apart (both H-polytopes are one).
KIND_BUILDERS = {
    "E": lambda n, rng: random_ellipsoid(n, rng),
    "H": lambda n, rng: random_hpolytope(n, rng, extra_rows=0),
    "H+": lambda n, rng: random_hpolytope(n, rng),
    "V": lambda n, rng: random_vpolytope(n, rng, extra_vertices=0),
    "V+": lambda n, rng: random_vpolytope(n, rng),
}
PAIR_KIND = {"E": "E", "H": "H", "H+": "H", "V": "V", "V+": "V+"}


def test_inclusion_scale_is_symmetric_bit_for_bit():
    # sigma(X, P) = max{x . y : x in X°, y in P°} is symmetric, and the scale is
    # 1 / (hbar sigma): for bodies of different kinds swapping X and P changes no bit.
    compared = 0
    for n, seed in itertools.product([2, 3, 6, 8, 9], range(3)):
        rng = np.random.default_rng([n, seed])
        bodies = {kind: build(n, rng) for kind, build in KIND_BUILDERS.items()}
        hbar = float(np.exp(rng.uniform(-2.0, 2.0)))
        for (kx, x), (kp, p) in itertools.product(bodies.items(), repeat=2):
            if PAIR_KIND[kx] != PAIR_KIND[kp]:
                assert inclusion_scale(x, p, hbar) == inclusion_scale(p, x, hbar), (n, seed, kx, kp)
                compared += 1
    assert compared == 270


@pytest.mark.parametrize("n", [2, 3])
def test_extreme_hbar_scales_match_closed_forms(n):
    # hbar is applied to the scalar sigma, not to a body's array: the 9 ball, box and
    # cross-polytope pairings keep their closed forms r_X r_P / (hbar sigma) with
    # sigma = sqrt(n) for ball/cross and cross/ball, n for cross/cross and 1 otherwise.
    sigma = {("ball", "cross"): n**0.5, ("cross", "ball"): n**0.5, ("cross", "cross"): float(n)}
    for hbar, rx in ((1e-300, 1e-10), (1e300, 1e10)):
        xs = {"ball": Ellipsoid.ball(n, rx), "box": HPolytope.box(np.full(n, rx)), "cross": VPolytope(rx * np.eye(n))}
        for (kx, x), (kp, p) in itertools.product(xs.items(), UNIT_SHAPES.items()):
            expected = rx / (hbar * sigma.get((kx, kp), 1.0))
            assert inclusion_scale(x, p(n), hbar) == pytest.approx(expected, rel=1e-14, abs=0.0), (hbar, kx, kp)
