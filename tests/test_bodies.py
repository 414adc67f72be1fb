import contextlib
import itertools
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qpolar.bodies import (
    MVEE_VOL_TOL,
    Ellipsoid,
    HPolytope,
    VPolytope,
    _halfspace_vertices,
    _polytope_array,
    contains,
    enclosing_ellipsoid,
    gauge,
    hpolytope_vertices,
    inclusion_scale,
    is_quantum_pair,
    linear_image,
    polar_dual,
    scale,
    support,
)
from qpolar.capacities import ellipsoid_capacity, product_capacity
from qpolar.cloud import MeasurementCloud, cloud_analyze
from qpolar.errors import (
    ConvergenceError,
    DegenerateBodyError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    UndecidedError,
)
from qpolar.hardy import HardyInput, hardy_check
from qpolar.quantum import covariance_ellipsoid, project_xp, random_quantum_covariance, theorem2_check
from qpolar.sections import section_polygon

from conftest import (
    assert_raises_exactly,
    random_body,
    random_spd,
    random_ellipsoid,
    random_hpolytope,
    random_vpolytope,
    spd_with_condition,
    support_oracle,
    vgauge_lp_oracle,
)

# conv{+-m_i} with a 1e-12 entry: its facet normals are (s1, s2, (s3 - s1 - s2) 1e12)
# for the sign vectors s, so they differ only far below the largest entry.
BADLY_SCALED = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-12]])


def fit_scale(inner, outer):
    """max{lambda > 0 : lambda * inner subset of outer}, the scale that ``contains`` accepts."""
    return inclusion_scale(outer, polar_dual(inner))


def forbid_linprog(*args, **kwargs):
    raise AssertionError("linprog called where the facets should be enumerated")


def forbid_qhull(*args, **kwargs):
    raise AssertionError("Qhull called on a body with a closed form")


class TestConstruction:
    def test_ellipsoid_requires_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            Ellipsoid(np.diag([1.0, -1.0]))

    def test_hpolytope_requires_bounded(self):
        # A single row in 2-D leaves a slab, not a body.
        with pytest.raises(DegenerateBodyError):
            HPolytope([[1.0, 0.0]])

    def test_vpolytope_requires_full_dimension(self):
        with pytest.raises(DegenerateBodyError):
            VPolytope([[1.0, 0.0], [2.0, 0.0]])

    def test_zero_rows_rejected(self):
        with pytest.raises(DegenerateBodyError):
            HPolytope([[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("radius", [1e-300, 7e-155, 2e154, 1e200])
    def test_ball_radius_range(self, radius):
        # 1/radius^2 must be a finite nonzero float. 1e-300 warned twice (divide by zero,
        # invalid value) and then raised "matrix entries must be finite"; 1e200 raised an
        # OverflowError. Now a ValueError names the range, and nothing warns.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^radius must be positive and finite, from 7\.458e-155 to "
                                                 r"1\.341e\+154, got "):
                Ellipsoid.ball(3, radius)
        assert Ellipsoid.ball(3, 1e-150).matrix[0, 0] == pytest.approx(1e300, rel=1e-15)
        assert Ellipsoid.ball(3, 1e150).matrix[0, 0] == pytest.approx(1e-300, rel=1e-15)

    def test_ball_and_box_helpers(self):
        assert np.allclose(Ellipsoid.ball(3, 2.0).matrix, np.eye(3) / 4)
        assert np.allclose(HPolytope.box([2.0, 1.0]).rows, np.diag([0.5, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sizes_are_refused(self, bad):
        # Each size gets its own message, before any matrix is built from it.
        with pytest.raises(ValueError, match="^radius must be positive and finite"):
            Ellipsoid.ball(2, bad)
        with pytest.raises(ValueError, match="^box halfwidths must be positive and finite$"):
            HPolytope.box([1.0, bad])
        for body in (Ellipsoid.ball(2), HPolytope.box([1.0, 2.0]), VPolytope(np.eye(2))):
            with pytest.raises(ValueError, match="^scale factor must be positive and finite"):
                scale(body, bad)
            for l in (np.array([[1.0, 0.0], [bad, 1.0]]), np.full((2, 2), bad)):
                with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                    linear_image(body, l)


class TestSupport:
    def test_unit_ball_euclid(self):
        assert support(Ellipsoid.ball(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_cross_polytope(self):
        body = VPolytope([[1.0, 0.0], [0.0, 1.0]])
        assert support(body, [1.0, 1.0]) == pytest.approx(1.0)

    def test_box_corner(self):
        # max of x1 + x2 over [-1,1]^2 is attained at the corner (1,1).
        assert support(HPolytope.box([1.0, 1.0]), [1.0, 1.0]) == pytest.approx(2.0)

    def test_positive_homogeneity(self, rng):
        for n in (1, 2, 3):
            body = random_body(n, rng)
            u = rng.standard_normal(n)
            lam = rng.uniform(0.1, 5.0)
            assert support(body, lam * u) == pytest.approx(lam * support(body, u), rel=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            support(Ellipsoid.ball(2), [1.0, 0.0, 0.0])


class TestGauge:
    def test_unit_ball_boundary(self):
        assert gauge(Ellipsoid.ball(2), [0.6, 0.8]) == pytest.approx(1.0)

    def test_ellipsoid_boundary_point(self):
        body = Ellipsoid(np.diag([0.25, 1.0]))
        assert gauge(body, [2.0, 0.0]) == pytest.approx(1.0)

    def test_box_max_abs_coordinate(self):
        assert gauge(HPolytope.box([1.0, 1.0]), [0.5, -0.2]) == pytest.approx(0.5)

    def test_origin(self, rng):
        for n in (1, 2, 3):
            assert gauge(random_body(n, rng), np.zeros(n)) == 0.0

    def test_vpolytope_lp(self):
        # Cross-polytope gauge is the l1 norm.
        body = VPolytope(np.eye(3))
        assert gauge(body, [0.2, -0.3, 0.1]) == pytest.approx(0.6, rel=1e-8)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_vpolytope_cross_image_closed_form(self, n, rng, monkeypatch):
        # conv{+-m_i} over the rows of an invertible M has gauge ||M^-T x||_1 at
        # every dimension, with no Qhull and no LP.
        import scipy.optimize
        import scipy.spatial

        m = rng.standard_normal((n, n)) + 3 * np.eye(n)
        x = rng.standard_normal((5, n))
        x[1] = 0.0
        expected = [vgauge_lp_oracle(VPolytope(m), r) for r in x]
        monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", forbid_qhull)
        got = gauge(VPolytope(m), x)
        assert got[1] == 0.0
        assert np.allclose(got, np.abs(np.linalg.solve(m.T, x.T)).sum(axis=0), rtol=1e-9, atol=0.0)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_vpolytope_matches_lp_oracle(self, n, rng, monkeypatch):
        # 40 rows are enough for the facet path at m = 2n, n <= 8; the oracle's
        # linprog was bound at import, so forbidding the library's keeps it working.
        import scipy.optimize

        monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
        for extra in (0, n):
            body = random_vpolytope(n, rng, extra_vertices=extra)
            x = rng.standard_normal((40, n))
            assert np.allclose(gauge(body, x), [vgauge_lp_oracle(body, r) for r in x], rtol=1e-9, atol=0.0)

    def test_facet_rich_vpolytope_solves_lps_for_few_rows(self, rng, monkeypatch):
        # m = 12 vertex pairs at n = 6: at most 1520 facets against 112 for a
        # cross-polytope image, so the facets are enumerated from 14 rows on.
        import qpolar.bodies
        import scipy.optimize

        body = random_vpolytope(6, rng, extra_vertices=6)
        x = rng.standard_normal((14, 6))
        expected = [vgauge_lp_oracle(body, r) for r in x]
        with monkeypatch.context() as patch:
            patch.setattr(qpolar.bodies, "_enumerate_vertices", None)
            assert np.allclose(gauge(body, x[:13]), expected[:13], rtol=1e-9, atol=0.0)
        monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
        assert np.allclose(gauge(body, x), expected, rtol=1e-9, atol=0.0)

    def test_nearly_coincident_vertices(self, monkeypatch):
        # The vertices of B and their negated copies with 1e-13 noise: Qhull fails
        # on the polar's rows until each nearly opposite pair is merged. 16 rows
        # take the facet path.
        import scipy.optimize

        rng = np.random.default_rng(73)
        v = rng.standard_normal((7, 5)) * rng.uniform(0.5, 2.0, size=(7, 1))
        body = VPolytope(np.vstack([v, -(v + 1e-13 * rng.standard_normal(v.shape))]))
        x = rng.standard_normal((16, 5))
        expected = [vgauge_lp_oracle(body, r) for r in x]
        monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
        assert np.allclose(gauge(body, x), expected, rtol=1e-9, atol=0.0)

    def test_badly_scaled_vpolytope(self):
        # ||M^-T x||_1 in closed form. Rounding the normals to their common
        # scale would merge distinct ones and read 0.4 for the second x.
        body = VPolytope(BADLY_SCALED)
        assert gauge(body, [0.3, 0.2, 1e-13]) == pytest.approx(0.4, rel=1e-9)
        assert gauge(body, [0.3, -0.2, 1e-13]) == pytest.approx(0.6, rel=1e-9)

    def test_facet_product_in_row_blocks(self, rng, monkeypatch):
        # 2^17 rows against 270 facet normals: one product would hold 35M entries
        # (283 MB, twice with its absolute value); blocks of about 2^22 keep the
        # peak under three blocks' worth.
        import tracemalloc

        import scipy.optimize

        body = random_vpolytope(6, np.random.default_rng(7), extra_vertices=6)
        x = rng.standard_normal((2**17, 6))
        monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
        tracemalloc.start()
        try:
            got = gauge(body, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**22 * 8
        assert np.allclose(got[:5], [vgauge_lp_oracle(body, r) for r in x[:5]], rtol=1e-9, atol=0.0)

    def test_facets_above_the_budget_solve_lps(self, rng, monkeypatch):
        # 14 rows enumerate the facets of m = 12 vertex pairs at n = 6 (at most
        # 1520); with the budget below that bound the same rows solve LPs.
        import qpolar.bodies
        import scipy.optimize

        body = random_vpolytope(6, rng, extra_vertices=6)
        x = rng.standard_normal((14, 6))
        with monkeypatch.context() as patch:
            patch.setattr(scipy.optimize, "linprog", forbid_linprog)
            expected = gauge(body, x)
        monkeypatch.setattr(qpolar.bodies, "VERTEX_BUDGET", 1519)
        monkeypatch.setattr(qpolar.bodies, "_enumerate_vertices", None)
        assert np.allclose(gauge(body, x), expected, rtol=1e-9, atol=0.0)

    def test_lp_cost_above_dimension_8(self, monkeypatch):
        # Above n = 8 one LP is worth LP_COST_FACETS = 660 bound facets, not the
        # cross-polytope image's own bound. m = 10 vertex pairs at n = 9 (at most
        # 2730 facets): 4 rows solve LPs, 5 enumerate the facets. m = 13 at n = 12
        # (at most 50388): the 26 rows of a V/V pair's vertices solve LPs.
        import scipy.optimize
        import scipy.spatial

        rng = np.random.default_rng(910)
        body = random_vpolytope(9, rng, extra_vertices=1)
        x = rng.standard_normal((5, 9))
        expected = [vgauge_lp_oracle(body, r) for r in x]
        with monkeypatch.context() as patch:
            patch.setattr(scipy.spatial, "HalfspaceIntersection", forbid_qhull)
            assert np.allclose(gauge(body, x[:4]), expected[:4], rtol=1e-9, atol=0.0)
        with monkeypatch.context() as patch:
            patch.setattr(scipy.optimize, "linprog", forbid_linprog)
            assert np.allclose(gauge(body, x), expected, rtol=1e-9, atol=0.0)

        body = random_vpolytope(12, rng, extra_vertices=1)
        x = np.vstack([body.vertices, -body.vertices]) * rng.uniform(0.5, 2.0, size=(26, 1))
        expected = [vgauge_lp_oracle(body, r) for r in x]
        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", forbid_qhull)
        assert np.allclose(gauge(body, x), expected, rtol=1e-9, atol=0.0)

    def test_failed_enumeration_is_undecided(self, monkeypatch):
        import scipy.spatial

        def fail(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6154 Qhull precision error: Initial simplex is flat")

        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", fail)
        # More vertex pairs than dimensions (a cross-polytope image has a closed
        # form) and enough rows that the facets cost less than the LPs.
        with pytest.raises(UndecidedError, match="Qhull"):
            gauge(VPolytope(np.vstack([np.eye(3), [[1.0, 1.0, 1.0]]])), np.eye(3))

    @pytest.mark.parametrize("c", [1e-9, 1e-10, 1e16, 1e-300, 1e300])
    def test_lp_gauge_is_the_same_at_every_scale(self, c, monkeypatch):
        # HiGHS drops matrix entries below 1e-9 and its feasibility tolerance is
        # absolute. On the data as given, this scale (0.1742 at c = 1) read 1.490 at
        # c = 1e-9, a false pass, inf at 1e-10, and a model error at 1e16. The LP
        # runs on the vertices and each row scaled by powers of two.
        import scipy.spatial

        gen = np.random.default_rng(2)
        v, b = gen.standard_normal((8, 3)), gen.standard_normal((3, 3))
        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", forbid_qhull)
        want = inclusion_scale(VPolytope(v), HPolytope(b))
        assert want == pytest.approx(0.1742, abs=1e-4)
        assert inclusion_scale(VPolytope(c * v), HPolytope(c * b)) == pytest.approx(want, rel=1e-14)
        assert not is_quantum_pair(VPolytope(c * v), HPolytope(c * b)).is_pair
        x = np.array([0.3, -0.2, 0.5])
        assert gauge(VPolytope(v), c * x) == pytest.approx(c * gauge(VPolytope(v), x), rel=1e-14)

    def test_membership_criterion(self, rng):
        for _ in range(20):
            body = random_body(2, rng)
            x = rng.standard_normal(2)
            g = gauge(body, x)
            if g > 0:
                assert gauge(body, x / g) == pytest.approx(1.0, rel=1e-7)

    def test_gauge_support_duality_on_ellipsoids(self, rng):
        # h of the unit polar Ellipsoid(Q^{-1}) equals the gauge sqrt(x Q x);
        # both sides are checked against sqrt(x . solve(Q^{-1}, x)).
        for _ in range(10):
            body = random_ellipsoid(3, rng)
            x = rng.standard_normal(3)
            polar = Ellipsoid(np.linalg.inv(body.matrix))
            expected = support_oracle(polar, x)
            assert gauge(body, x) == pytest.approx(expected, rel=1e-9)
            assert support(polar, x) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind", [random_ellipsoid, random_hpolytope, random_vpolytope])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_single_vectors(self, kind, n, rng):
        body = kind(n, rng)
        rows = rng.standard_normal((6, n))
        rows[2] = 0.0
        got = gauge(body, rows)
        assert got.shape == (6,)
        assert got[2] == 0.0
        assert np.allclose(got, [gauge(body, r) for r in rows], rtol=1e-12, atol=0.0)
        assert np.allclose(support(body, rows), [support(body, r) for r in rows], rtol=1e-12, atol=0.0)

    def test_ellipsoid_gauges_out_of_the_range_of_squares(self, rng):
        # A q = 2 gauge is a square root of a sum of squares, which overflowed (inf for
        # a row of 1e200) or underflowed (0 for a row of 1e-170). Those rows are taken
        # again on scaled rows, exact by homogeneity; rows in range keep their bits.
        import warnings

        ball, turned = Ellipsoid.ball(2), Ellipsoid([[4.25, -3.75], [-3.75, 4.25]])
        body = random_ellipsoid(3, rng)
        rows = rng.standard_normal((5, 3))
        in_range = np.sqrt(((rows @ body.factor) ** 2).sum(axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gauge(ball, [1e200, 1e200]) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
            assert gauge(ball, [1e-170, 0.0]) == 1e-170
            assert gauge(turned, [1e308, 1e308]) == pytest.approx(1e308, rel=1e-14)
            assert gauge(body, rows).tobytes() == in_range.tobytes()
            for k in (-1100, -600, -520, 520, 600):
                got = gauge(body, np.vstack([np.ldexp(rows, k), rows, np.zeros((1, 3))]))
                assert np.allclose(got[:5], np.ldexp(in_range, k), rtol=1e-15, atol=0.0)
                assert got[5:10].tobytes() == in_range.tobytes() and got[10] == 0.0

    def test_scalar_is_a_vector_in_one_dimension(self):
        body = VPolytope([[2.0]])
        assert isinstance(gauge(body, 3.0), float)
        assert gauge(body, 3.0) == gauge(body, [3.0]) == pytest.approx(1.5)

    @pytest.mark.parametrize("kind", [random_ellipsoid, random_hpolytope, random_vpolytope])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bad_shapes_rejected(self, kind, n, rng):
        body = kind(n, rng)
        for bad in (np.ones(n + 1), np.ones((4, n + 1)), np.ones((2, 3, n))):
            with pytest.raises(DimensionError):
                gauge(body, bad)
        for bad in (np.array([np.nan] + [0.0] * (n - 1)), np.full((3, n), np.inf)):
            with pytest.raises(ValueError):
                gauge(body, bad)


class TestLinearImage:
    def test_identity(self, rng):
        body = random_vpolytope(2, rng)
        assert np.allclose(linear_image(body, np.eye(2)).vertices, body.vertices)

    def test_scaling_ball(self):
        out = linear_image(Ellipsoid.ball(2), 2.0 * np.eye(2))
        assert np.allclose(out.matrix, np.eye(2) / 4)

    def test_box_stretch(self):
        out = linear_image(HPolytope.box([1.0, 1.0]), np.diag([2.0, 1.0]))
        assert np.allclose(out.rows, np.diag([0.5, 1.0]))

    def test_composition(self, rng):
        for n in (2, 3):
            for _ in range(10):
                body = random_body(n, rng)
                l1 = rng.standard_normal((n, n)) + 3 * np.eye(n)
                l2 = rng.standard_normal((n, n)) + 3 * np.eye(n)
                once = linear_image(body, l2 @ l1)
                twice = linear_image(linear_image(body, l1), l2)
                if isinstance(body, Ellipsoid):
                    assert np.allclose(once.matrix, twice.matrix, atol=1e-10)
                elif isinstance(body, VPolytope):
                    assert np.allclose(once.vertices, twice.vertices, atol=1e-10)
                else:
                    assert np.allclose(once.rows, twice.rows, atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            linear_image(Ellipsoid.ball(2), np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_support_transforms_correctly(self, rng):
        # h_{LX}(u) = h_X(L^T u) for every body type, including the LP path.
        for _ in range(10):
            body = random_body(2, rng)
            l = rng.standard_normal((2, 2)) + 3 * np.eye(2)
            u = rng.standard_normal(2)
            assert support(linear_image(body, l), u) == pytest.approx(
                support(body, l.T @ u), rel=1e-7
            )


class TestHPolytopeVertices:
    def test_interval(self):
        verts = hpolytope_vertices(HPolytope([[0.5]]))
        assert sorted(verts.ravel()) == pytest.approx([-2.0, 2.0])

    def test_unit_box(self):
        verts = hpolytope_vertices(HPolytope.box([1.0, 1.0]))
        assert verts.shape == (4, 2)
        assert np.allclose(np.abs(verts), 1.0)

    def test_gauge_one_on_vertices(self, rng):
        for _ in range(10):
            body = random_hpolytope(3, rng)
            for v in hpolytope_vertices(body):
                assert gauge(body, v) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s", [1e80, 1e150, 1e300, 2.0**900, 2.0**-900])
    def test_qhull_vertices_at_every_scale(self, s):
        # Qhull ran on the rows as given and was undecided for s A at every s from
        # 1e80 to 1e300. It runs on the rows scaled by 2^-e, and the vertices are
        # scaled back: bit for bit those of A at a power of two, to rounding elsewhere.
        a = np.random.default_rng(2).standard_normal((8, 3))
        want, got = hpolytope_vertices(HPolytope(a)), s * hpolytope_vertices(HPolytope(s * a))
        assert got.shape == want.shape == (12, 3)
        want, got = (v[np.lexsort(v.T)] for v in (want, got))
        if np.log2(s) % 1 == 0:
            assert np.array_equal(got, want)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("rows", [1e-309 * np.eye(2), 1e-309 * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                                      np.diag([1e-310, 1.0])], ids=["parallelotope", "qhull", "mixed"])
    def test_overflowed_vertices_are_refused_at_the_source(self, rows):
        # The vertices lie near 1e309, past the float range. They were returned as inf
        # and NaN, and a section plot printed '# area: nan'; the enumeration now
        # refuses them, as an outside vector is refused, and warns of nothing.
        import warnings

        from qpolar.sections import emit_section_plot

        body = HPolytope(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: hpolytope_vertices(body), lambda: emit_section_plot(body, (0, 1))):
                assert_raises_exactly(call, ValueError, "vector entries must be finite")

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("cond", [None, 1e6])
    def test_parallelotope_vertices_match_qhull(self, n, cond, rng, monkeypatch):
        # n rows: the 2^n vertices A^-1 s over the sign vectors s, without Qhull.
        # Qhull's intersections (the reference) are off by up to about 1e-16 cond(A)
        # relative, so the tolerance is 1e-12, or 1e-14 cond(A) where that is larger.
        import scipy.spatial

        if cond is None:
            a = rng.standard_normal((n, n))
        else:
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = u @ np.diag(np.geomspace(1.0, cond, n)) @ v.T
        expected = _halfspace_vertices(a)
        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", forbid_qhull)
        got = hpolytope_vertices(HPolytope(a))
        assert got.shape == expected.shape == (2**n, n)
        # Each vertex is named by its sign vector sign(A v); both sets name all 2^n.
        names = [((a @ vs.T) > 0).T @ (1 << np.arange(n)) for vs in (got, expected)]
        assert sorted(names[0]) == sorted(names[1]) == list(range(2**n))
        got = got[np.argsort(names[0])][names[1]]
        rtol = max(1e-12, 1e-14 * np.linalg.cond(a))
        assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


class TestContains:
    def test_nested_balls(self):
        assert contains(Ellipsoid.ball(2, 2.0), Ellipsoid.ball(2, 1.0)) is True

    def test_ellipsoid_pair_from_radii(self):
        assert contains(Ellipsoid(np.eye(2) / 4), Ellipsoid(np.eye(2)))
        assert not contains(Ellipsoid(np.eye(2)), Ellipsoid(np.eye(2) / 4))

    def test_cross_polytope_in_box_but_not_reverse(self):
        cross = VPolytope(np.eye(2))
        box = HPolytope.box([1.0, 1.0])
        assert contains(box, cross)
        assert not contains(cross, box)

    def test_box_in_cross_polytope_scaled(self):
        # [-1,1]^2 fits in 2 * conv{+-e1, +-e2}.
        box = HPolytope.box([1.0, 1.0])
        assert contains(VPolytope(2 * np.eye(2)), box)
        assert not contains(VPolytope(1.9 * np.eye(2)), box)

    def test_ellipsoid_in_vpolytope_via_polar_flip(self):
        disk = Ellipsoid.ball(2)
        cross = VPolytope(np.eye(2))
        # The unit disk pokes out of the unit cross-polytope but fits in sqrt(2) of it.
        assert not contains(cross, disk)
        assert contains(VPolytope(np.sqrt(2.0) * np.eye(2)), disk)

    def test_reflexive(self, rng):
        for n in (1, 2, 3):
            for _ in range(5):
                body = random_body(n, rng)
                assert contains(body, body, tol=1e-9)

    def test_transitive_on_scaled_copies(self, rng):
        for _ in range(10):
            body = random_body(2, rng)
            small = scale(body, 0.5)
            mid = scale(body, 0.8)
            assert contains(mid, small)
            assert contains(body, mid)
            assert contains(body, small)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            contains(Ellipsoid.ball(2), Ellipsoid.ball(3))

    def test_badly_scaled_outer_vpolytope(self):
        # The vertex x / 0.35 has gauge 0.4 / 0.35, so lambda_max = 0.875: no containment.
        x = np.array([0.3, 0.2, 1e-13])
        inner = VPolytope(np.vstack([x / 0.35, 0.1 * BADLY_SCALED]))
        assert not contains(VPolytope(BADLY_SCALED), inner)
        assert contains(VPolytope(BADLY_SCALED), scale(inner, 0.875))

    def test_budget_edge_in_rows_at_n8(self):
        # lambda P subset of the unit cube for P = {|A x| <= 1}, the polar of
        # conv{+-a_i}: 1 / max_i h_P(e_i), each support an LP. An H-in-H pair flips
        # to V in V and decides at 37 and 38 rows alike. In the unit ball P's
        # vertices are enumerated: 37 rows at n = 8 bound them by 969289 <= 2^20 and
        # decide; 38 rows (1085945) are undecided before Qhull starts.
        import scipy.optimize

        rng = np.random.default_rng(837)
        rows = rng.standard_normal((38, 8))
        cube = HPolytope.box(np.ones(8))

        def oracle(m):
            a = np.vstack([rows[:m], -rows[:m]])
            h = [-scipy.optimize.linprog(-e, A_ub=a, b_ub=np.ones(2 * m), bounds=(None, None), method="highs").fun
                 for e in np.eye(8)]
            return 1.0 / max(h)

        for m in (37, 38):
            assert inclusion_scale(cube, VPolytope(rows[:m])) == pytest.approx(oracle(m), rel=1e-9)
        ball = Ellipsoid.ball(8)
        assert inclusion_scale(ball, VPolytope(rows[:37])) > 0
        with pytest.raises(UndecidedError, match="1085945"):
            inclusion_scale(ball, VPolytope(rows))

    def test_undecided_above_enumeration_cap(self):
        # X = B(2.95), P = conv{+-e_i}: P's dual is the unit box, whose 2^n corners
        # sit at |x| = sqrt(n), so lambda_max = 2.95 / sqrt(n): 0.983 at n = 9 (not
        # a pair). At n = 21 the 2^21 corners exceed the vertex budget, and every
        # verdict is undecided before any enumeration starts.
        import tracemalloc

        def shapes(n):
            return Ellipsoid.ball(n, 2.95), VPolytope(np.eye(n))

        x, p = shapes(21)
        for verdict in (is_quantum_pair, inclusion_scale, product_capacity,
                        lambda a, b: contains(a, polar_dual(b))):
            tracemalloc.start()
            try:
                with pytest.raises(UndecidedError, match="budget"):
                    verdict(x, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20  # the 2^21 x 21 sign array alone would take 352 MB

        for n in (8, 9, 12):
            x, p = shapes(n)
            lam = 2.95 / np.sqrt(n)
            assert inclusion_scale(x, p) == pytest.approx(lam, rel=1e-12)
            assert is_quantum_pair(x, p).lambda_max == pytest.approx(lam, rel=1e-12)
            assert product_capacity(x, p).value == pytest.approx(4 * lam, rel=1e-12)
            assert contains(scale(x, 1 / lam), polar_dual(p))
            assert not contains(scale(x, 0.99 / lam), polar_dual(p))


@pytest.mark.parametrize("n", [2, 8])
def test_no_lp_up_to_the_enumeration_cap(n, monkeypatch):
    # Balls, boxes and cross-polytopes: a V-polytope with m = n has a closed-form gauge.
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
    shapes = [Ellipsoid.ball(n, 1.3), HPolytope.box(np.full(n, 0.7)), VPolytope(1.9 * np.eye(n))]
    u = np.eye(n)
    for x in shapes:
        gauge(x, u)
        support(x, u)
        section_polygon(x, (0, 1))
        for p in shapes:
            is_quantum_pair(x, p)
            product_capacity(x, p)
            contains(x, polar_dual(p))


def test_parallelotope_vertices_stream_in_blocks(rng, monkeypatch):
    # At n = 18 the 2^18 vertices are solved in two blocks of sign vectors; the scale,
    # taken over half the sign vectors through B = A^-T, is the full enumeration's to
    # 1e-14 for each kind of outer body.
    import qpolar.bodies
    import tracemalloc

    n = 18
    a = rng.standard_normal((n, n)) + 4 * np.eye(n)
    signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    full = np.linalg.solve(a, signs.T).T
    inner = HPolytope(a)
    assert len(list(qpolar.bodies._sign_blocks(n, 2**n))) == 2
    for outer in (Ellipsoid(random_spd(n, rng)), HPolytope(rng.standard_normal((n, n)) + 4 * np.eye(n)),
                  VPolytope(rng.standard_normal((n, n)) + 4 * np.eye(n))):
        assert fit_scale(inner, outer) == pytest.approx(1.0 / np.max(gauge(outer, full)), rel=1e-14, abs=0.0)
    assert np.array_equal(hpolytope_vertices(inner), full)
    del full, signs

    # At n = 20 the vertices alone take 168 MB; the scale streams its 2^19 sign
    # vectors in three blocks and never holds them all.
    blocks = []
    def counted(n, count, _run=qpolar.bodies._sign_blocks):
        for s in _run(n, count):
            blocks.append(s.shape[0])
            yield s
    monkeypatch.setattr(qpolar.bodies, "_sign_blocks", counted)
    inner, outer = HPolytope(np.eye(20)), Ellipsoid.ball(20)
    tracemalloc.start()
    try:
        assert fit_scale(inner, outer) == 1.0 / np.sqrt(20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 3 and sum(blocks) == 2**19
    assert peak < 2**20 * 20 * 8


@pytest.mark.parametrize("n", [9, 12, 16])
def test_ball_box_cross_pairings_decide_above_dimension_8(n, monkeypatch):
    # The unit ball, box and cross-polytope, with hbar = 1: P's dual is the ball,
    # the cross-polytope or the box, and the largest dilate of it inside X is 1,
    # 1/sqrt(n) (ball in cross, box in ball) or 1/n (box in cross).
    import scipy.optimize
    import scipy.spatial

    monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
    monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", forbid_qhull)
    shapes = {"ball": Ellipsoid.ball(n), "box": HPolytope.box(np.ones(n)), "cross": VPolytope(np.eye(n))}
    expected = {("ball", "cross"): n**-0.5, ("cross", "ball"): n**-0.5, ("cross", "cross"): 1 / n}
    for (xk, x), (pk, p) in itertools.product(shapes.items(), repeat=2):
        lam = expected.get((xk, pk), 1.0)
        assert inclusion_scale(x, p) == pytest.approx(lam, rel=1e-12, abs=0.0), (xk, pk)
        assert product_capacity(x, p).value == pytest.approx(4 * lam, rel=1e-12, abs=0.0)
        assert is_quantum_pair(x, p).is_pair == (lam == 1.0)


class TestEnclosingEllipsoid:
    def test_ball_mode_symmetric_cross(self):
        pts = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        out = enclosing_ellipsoid(pts, "ball")
        assert np.allclose(out.matrix, np.eye(2))

    def test_ball_mode_box_corners(self):
        pts = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        out = enclosing_ellipsoid(pts, "ball")
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_mvee_axis_aligned(self):
        pts = [[2, 0], [-2, 0], [0, 1], [0, -1]]
        out = enclosing_ellipsoid(pts, "mvee")
        assert np.allclose(out.matrix, np.diag([0.25, 1.0]), atol=1e-6)

    def test_mvee_contains_and_near_optimal_volume(self, rng):
        # Volume oracle: MVEE of the points' symmetric hull can be no smaller
        # than the MVEE restricted to any sub-ellipsoid; compare against the
        # exact optimum for an affine image of the cross configuration.
        l = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        base = np.array([[2.0, 0.0], [0.0, 1.0]])
        pts = base @ l.T
        out = enclosing_ellipsoid(pts, "mvee")
        for p in pts:
            assert gauge(out, p) <= 1 + 1e-9
        exact = linear_image(Ellipsoid(np.diag([0.25, 1.0])), l)
        vol_ratio = np.sqrt(np.linalg.det(exact.matrix) / np.linalg.det(out.matrix))
        assert vol_ratio <= 1.0 + 0.011

    def test_random_clouds_contained(self, rng):
        for n in (2, 3):
            pts = rng.standard_normal((200, n))
            for mode in ("ball", "mvee"):
                out = enclosing_ellipsoid(pts, mode)
                assert max(gauge(out, p) for p in pts) <= 1 + 1e-9
        # 2000 points on a line and n spanning points of size 1e-9 to 1e-6: the moment
        # matrix is nearly singular, yet each fit contains and touches its points.
        for seed in range(40):
            gen = np.random.default_rng(seed)
            n = (2, 3, 6)[seed % 3]
            d = gen.standard_normal(n)
            line = np.outer(gen.standard_normal(2000), d / np.linalg.norm(d))
            assert_mvee_touches(np.vstack([line, 10 ** (-6 - gen.uniform(0, 3)) * gen.standard_normal((n, n))]))

    def test_degenerate_points_rejected(self):
        with pytest.raises(DegenerateBodyError):
            enclosing_ellipsoid([[1.0, 0.0], [2.0, 0.0]], "ball")

    @pytest.mark.parametrize("points", [[[1.0, 0.0], [2.0, 0.0]], np.zeros((3, 2)), np.empty((0, 2)),
                                        [[1.0, 0.0], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
                             ids=["rank-one", "zeros", "empty", "nan", "inf"])
    def test_unknown_mode_is_refused_before_the_points_are_read(self, points):
        assert_raises_exactly(lambda: enclosing_ellipsoid(points, "bogus"), ValueError,
                              "unknown mode 'bogus'; expected 'ball' or 'mvee'")

    @pytest.mark.parametrize("mode", ["ball", "mvee"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, mode, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            enclosing_ellipsoid([[1.0, 0.0], [0.0, 1.0], [bad, 0.5]], mode)

    @pytest.mark.parametrize("mode", ["ball", "mvee"])
    def test_power_of_two_scale_leaves_the_fit_unchanged(self, mode, rng):
        # The fit runs on the points scaled into [0.5, 1) by a power of two, so
        # 2^k p gives the factor 2^-k F and the matrix 2^-2k Q, bit for bit.
        pts = rng.standard_normal((300, 3)) * [1.0, 5.0, 0.2]
        base = enclosing_ellipsoid(pts, mode)
        for k in (-300, -40, 7, 300):
            out = enclosing_ellipsoid(np.ldexp(pts, k), mode)
            assert out.factor.tobytes() == np.ldexp(base.factor, -k).tobytes()
            assert out.matrix.tobytes() == np.ldexp(base.matrix, -2 * k).tobytes()

    @pytest.mark.parametrize("mode", ["ball", "mvee"])
    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_matrix_outside_the_float_range_is_refused(self, mode, scale, monkeypatch, rng):
        # The matrix would be about 1e340 or 1e-320: refused after the fit on scaled
        # points, which takes its usual few steps (at the parent the 1e160 cloud ran
        # every step on NaN weights).
        monkeypatch.setattr("qpolar.bodies.MVEE_MAX_ITER", 100)
        pts = rng.standard_normal((300, 3)) * scale
        with pytest.raises(DegenerateBodyError, match="outside the float range"):
            enclosing_ellipsoid(pts, mode)


@pytest.mark.parametrize("derive", [polar_dual, scale])
@pytest.mark.parametrize("c", [1e-300, 1e300, 1e-150, 1e150])
def test_derived_ellipsoid_outside_the_float_range_is_refused(derive, c):
    # The unit ball's polar at hbar = c and its scale by c are the ball of radius c, with
    # matrix I / c^2, built from a factor and checked as a derived polytope's row maxima
    # are. At c = 1e+-300 the matrix, 1e-+600, is 0 or inf and refused; at 1e+-150 it builds.
    if abs(np.log10(c)) > 200:
        with pytest.raises(DegenerateBodyError, match="^the derived ellipsoid has a matrix outside the float range$"):
            derive(Ellipsoid.ball(2), c)
    else:
        assert derive(Ellipsoid.ball(2), c).matrix.diagonal() == pytest.approx([c**-2] * 2, rel=1e-15)


def cube_corners(n):
    """The 2^n corners {+-1}^n, and the matrix I / n of their MVEE, the ball of radius sqrt(n)."""
    signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    return signs, np.eye(n) / n


def regular_polygon(k, phase=0.3):
    """The regular 2k-gon (k >= 2) on the unit circle, and the matrix of its MVEE: the
    unit disk, the only ellipse that the rotation by pi / k maps onto itself."""
    t = np.pi * (np.arange(2 * k) + phase) / k
    return np.column_stack([np.cos(t), np.sin(t)]), np.eye(2)


def image_oracle(points, q, l):
    """The points L p and the MVEE matrix L^-T Q L^-1 of their fit: the MVEE commutes with L."""
    l_inv = np.linalg.inv(l)
    return points @ l.T, l_inv.T @ q @ l_inv


def assert_mvee_touches(points):
    """The MVEE fit of the points, which contains every point and touches one."""
    out = enclosing_ellipsoid(points, "mvee")
    g = gauge(out, points)
    assert g.max() <= 1 + 1e-12 and g.max() >= 1 - 1e-12
    return out


def assert_mvee_guarantee(points, q_opt):
    """The MVEE fit contains every point, touches one, and is at most (1 + MVEE_VOL_TOL)
    times the volume of the optimum Q_opt (and, containing the points, no smaller)."""
    out = assert_mvee_touches(points)
    vol_ratio = np.exp(0.5 * (np.linalg.slogdet(q_opt)[1] - np.linalg.slogdet(out.matrix)[1]))
    assert 1 - 1e-10 <= vol_ratio <= 1 + MVEE_VOL_TOL
    return out


class TestMveeGuarantee:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_cube_corners_and_their_images(self, n, rng):
        assert_mvee_guarantee(*cube_corners(n))
        for _ in range(3):
            assert_mvee_guarantee(*image_oracle(*cube_corners(n), rng.standard_normal((n, n)) + 2 * np.eye(n)))

    @pytest.mark.parametrize("k", [2, 3, 5, 64, 5000])
    def test_regular_polygons(self, k, rng):
        # k = 5000, a 10^4-gon: every point lies on the optimal boundary (g_i = n for all i).
        assert_mvee_guarantee(*regular_polygon(k))
        assert_mvee_guarantee(*image_oracle(*regular_polygon(k), rng.standard_normal((2, 2)) + 2 * np.eye(2)))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_heavily_duplicated_points(self, n, rng):
        pts, q = image_oracle(*cube_corners(n), rng.standard_normal((n, n)) + 2 * np.eye(n))
        assert_mvee_guarantee(np.repeat(pts, 1000 // n, axis=0), q)
        assert_mvee_guarantee(np.tile(pts, (1000 // n, 1)), q)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_zero_rows_and_n_spanning_points(self, n, rng):
        # The MVEE of +-v_i over the rows of an invertible V is {x : x^T (V^T V)^-1 x <= 1}.
        v = rng.standard_normal((n, n)) + 2 * np.eye(n)
        pts = np.vstack([np.zeros((10_000, n)), v, np.zeros((10, n))])
        assert_mvee_guarantee(pts, np.linalg.inv(v.T @ v))

    def test_fits_are_deterministic(self, rng):
        # The same cloud, also as a copy at another address, gives the same bytes.
        pts = rng.standard_normal((20_000, 6)) * np.geomspace(1.0, 1e3, 6)
        first = enclosing_ellipsoid(pts, "mvee").matrix
        assert enclosing_ellipsoid(pts, "mvee").matrix.tobytes() == first.tobytes()
        assert enclosing_ellipsoid(pts.copy(), "mvee").matrix.tobytes() == first.tobytes()

    def test_each_moment_matrix_is_inverted_once(self, linalg_calls, monkeypatch):
        # One inverse per ascent step, which a certification pass over all m points reads
        # too, and three more: the core set's dual basis, the whitening and the final
        # factor. Inverting the moment matrix again for the pass would add one per pass.
        pts = np.random.default_rng(1).standard_normal((3000, 3)) * [1.0, 4.0, 0.3]
        rows, einsum = [], np.einsum
        monkeypatch.setattr(np, "einsum", lambda spec, x, *rest: rows.append(len(x)) or einsum(spec, x, *rest))
        calls = linalg_calls("inv")
        enclosing_ellipsoid(pts, "mvee")
        # Gauges over all m points: the farthest point first, then one per certification pass.
        passes, steps = rows.count(len(pts)) - 1, len(rows) - rows.count(len(pts))
        assert passes >= 2 and calls["inv"] == 3 + steps, (passes, steps, calls)

    def test_step_cap(self, monkeypatch):
        # Work without timing: a 1e5-point disk fits within 40 ascent steps (the plain
        # Frank-Wolfe loop needs about 100), and a 6-dim Gaussian cloud needs more than one.
        gen = np.random.default_rng(11)
        r, t = np.sqrt(gen.uniform(size=100_000)), gen.uniform(0.0, 2 * np.pi, size=100_000)
        disk = np.column_stack([r * np.cos(t), r * np.sin(t)])
        monkeypatch.setattr("qpolar.bodies.MVEE_MAX_ITER", 40)
        out = enclosing_ellipsoid(disk, "mvee")
        assert gauge(out, disk).max() <= 1 + 1e-12
        monkeypatch.setattr("qpolar.bodies.MVEE_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"^enclosing ellipsoid did not reach the 1% volume gap in 1 iterations$"):
            enclosing_ellipsoid(gen.standard_normal((10_000, 6)), "mvee")


def decided_or_undecided(f, *args):
    try:
        f(*args)
    except UndecidedError:
        pass


@given(n=st.sampled_from([2, 3, 6, 9]), log_cond=st.integers(0, 11), seed=st.integers(0, 2**32 - 1))
def test_maps_of_valid_ellipsoids_build_or_are_undecided(n, log_cond, seed):
    # Inverting an ill-conditioned matrix leaves round-off far above the symmetry
    # check's input tolerance; every derived body must still construct.
    rng = np.random.default_rng(seed)
    cond = 10.0**log_cond
    ell = Ellipsoid(spd_with_condition(n, cond, rng))
    ball = Ellipsoid.ball(n)
    cube = HPolytope.box(np.ones(n))
    cross = VPolytope(np.eye(n))

    dual = polar_dual(ell)
    q = ell.matrix
    assert np.allclose(polar_dual(dual).matrix, q, rtol=0, atol=1e-14 * cond * np.abs(q).max())
    assert np.all(support(ell, rng.standard_normal((5, n))) > 0)
    for x in (ball, cube, cross):
        decided_or_undecided(is_quantum_pair, x, ell)
        decided_or_undecided(is_quantum_pair, ell, x)
        decided_or_undecided(contains, x, ell)
        decided_or_undecided(contains, ell, x)
    linear_image(ell, rng.standard_normal((n, n)) + 3 * np.eye(n))
    scale(ell, 0.5)

    sigma = spd_with_condition(2 * n, cond, rng)
    covariance_ellipsoid(sigma)
    project_xp(sigma)
    hardy_check(HardyInput(q, spd_with_condition(n, cond, rng)))


# Bodies built from factors lose accuracy like n cond(L) eps, not cond(L)^2: each
# check below allows FACTOR_ERR_C times that (the worst seen over 300 seeds is 3.2).
FACTOR_ERR_C = 10.0
EPS = np.finfo(float).eps


def _orthosymplectic(n, rng):
    """[[Re U, -Im U], [Im U, Re U]] for a random unitary U: orthogonal and symplectic."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


@given(n=st.sampled_from([2, 3, 6, 9]), log_cond=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_linear_images_lose_accuracy_like_the_condition_number(n, log_cond, seed):
    rng = np.random.default_rng(seed)
    cond = min(10.0**log_cond, 0.99e12)  # just inside linear_image's 1e12 guard
    bound = FACTOR_ERR_C * n * cond * EPS
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(1.0, cond, n)
    l, l_inv_t = (q1 * s) @ q2.T, (q1 / s) @ q2.T
    ball = Ellipsoid.ball(n)
    # (L B, L^-T B) is a minimal pair: lambda = 1.
    lam = inclusion_scale(linear_image(ball, l), linear_image(ball, l_inv_t))
    assert abs(lam - 1.0) <= bound
    if n <= 3:
        # For these float inputs lambda = sigma_min(M^T L) with M = l_inv_t, in 60 digits.
        mpmath.mp.dps = 60
        a = mpmath.matrix(l_inv_t.T.tolist()) * mpmath.matrix(l.tolist())
        exact = min(mpmath.svd_r(a, compute_uv=False))
        assert abs(lam - exact) <= bound * exact

    # A symplectic map with singular values d and 1/d, d up to sqrt(cond), keeps
    # the unit ball's capacity pi.
    d = np.geomspace(1.0, np.sqrt(cond), n)
    sym = (_orthosymplectic(n, rng) * np.concatenate([d, 1.0 / d])) @ _orthosymplectic(n, rng)
    cap = ellipsoid_capacity(linear_image(Ellipsoid.ball(2 * n), sym))
    assert abs(cap - np.pi) <= FACTOR_ERR_C * 2 * n * cond * EPS * np.pi


def test_symmetry_is_checked_on_inputs_only(monkeypatch, rng):
    # Polars, projections, covariance ellipsoids and MVEE fits are built from
    # factors, so require_symmetric sees only the matrices a caller passes in.
    seen = []
    check = sys.modules["qpolar.symplectic"].require_symmetric

    def recording(s):
        seen.append(np.asarray(s, dtype=float))
        return check(s)

    for name, module in list(sys.modules.items()):
        if name.startswith("qpolar") and getattr(module, "require_symmetric", None) is check:
            monkeypatch.setattr(module, "require_symmetric", recording)

    def inputs_only(*expected):
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert got.shape == want.shape and np.allclose(got, want, rtol=1e-14, atol=0.0)
        seen.clear()

    a, b = random_spd(3, rng), random_spd(3, rng)
    is_quantum_pair(Ellipsoid(a), Ellipsoid(b))
    inputs_only(a, b)

    sigma = random_quantum_covariance(2, seed=5, slack=0.5).sigma
    seen.clear()
    theorem2_check(sigma)
    inputs_only(sigma)

    # The sample covariance is checked once, by CovarianceMatrix; its spectrum is read off the factor.
    report = cloud_analyze(MeasurementCloud(rng.standard_normal((200, 2)), rng.standard_normal((200, 2))),
                           fit="mvee", trim=0.1)
    inputs_only(report.sample_covariance.sigma)


@contextlib.contextmanager
def full_polytope_checks():
    """Record every array that goes through the full polytope validator, rank test included."""
    seen = []
    bodies = sys.modules["qpolar.bodies"]
    check = bodies._polytope_array

    def recording(arr, *args):
        seen.append(np.array(arr, dtype=float))
        return check(arr, *args)

    with mock.patch.object(bodies, "_polytope_array", recording):
        yield seen


def test_polytopes_are_validated_once_on_construction(rng):
    # polar_dual scales a validated polytope and keeps its rank, so the full
    # validator sees only the polytopes a caller constructs (linear_image is one).
    # A pair verdict builds no polar body at all, nor does a gauge read its facets.
    n = 3
    bodies = sys.modules["qpolar.bodies"]
    facet_rich = VPolytope(rng.standard_normal((n + 2, n)))
    with full_polytope_checks() as seen, mock.patch.object(bodies, "polar_dual", wraps=bodies.polar_dual) as polars:
        l = rng.standard_normal((n, n)) + 3 * np.eye(n)
        box = linear_image(HPolytope.box(np.full(n, 2.0)), l)
        cross = linear_image(VPolytope(np.eye(n)), np.linalg.inv(l).T)
        shapes = {"ball": Ellipsoid.ball(n), "box": box, "cross": cross}
        assert len(seen) == 4
        seen.clear()
        for x, p in itertools.product(shapes.values(), repeat=2):
            is_quantum_pair(x, p, hbar=0.7)
        product_capacity(box, cross, hbar=2.0)
        # At most 16 facets against 8 for a cross-polytope image: 4 rows read the facets.
        gauge(facet_rich, rng.standard_normal((4, n)))
        assert polars.call_count == 0
        contains(box, polar_dual(cross))
        assert seen == []


def polar_matches_the_validator(body, hbar):
    """polar_dual(body, hbar) builds exactly what the full validator builds from the
    scaled array, or raises its exception, without running the full validator."""
    def built(construct, *args):
        try:
            with np.errstate(over="ignore"):
                return construct(*args)
        except ValueError as exc:
            return exc

    if isinstance(body, HPolytope):
        want = built(lambda: VPolytope(hbar * body.rows))  # the public, fully checked constructor
    else:
        want = built(lambda: HPolytope(body.vertices / hbar))
    with full_polytope_checks() as seen:
        got = built(polar_dual, body, hbar)
    assert seen == []
    assert type(got) is type(want)
    if isinstance(want, ValueError):
        assert str(got) == str(want)
    else:
        arr, want_arr = (got.rows, want.rows) if isinstance(want, HPolytope) else (got.vertices, want.vertices)
        assert arr.shape == want_arr.shape and arr.tobytes() == want_arr.tobytes()
        assert not arr.flags.writeable


def test_pair_verdict_linalg_budget(linalg_calls):
    # A square polytope a caller constructs is certified by one inverse and no SVD, a
    # non-square one by one rank SVD; a polar is not checked again. A verdict or a gauge
    # on a constructed V-polytope with n vertices reads the inverse it keeps, and the
    # ellipsoid-in-ellipsoid scale comes from singular values alone (no norm call).
    calls = linalg_calls("svd", "inv", "norm")
    h = HPolytope([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0]])
    assert calls == {"svd": 1, "inv": 0, "norm": 0}
    v, box = VPolytope([[1.0, 0.2], [0.3, 1.0]]), HPolytope([[2.0, 0.1], [0.4, 1.0]])
    assert calls == {"svd": 1, "inv": 2, "norm": 0}
    polar_dual(h, hbar=0.7)
    polar_dual(v, hbar=0.7)
    for x, p in ((v, box), (box, v), (v, v), (h, v)):
        is_quantum_pair(x, p, hbar=0.7)
    gauge(v, [[1.0, 2.0], [0.5, 0.1]])
    assert calls == {"svd": 1, "inv": 2, "norm": 0}
    x, p = Ellipsoid(np.diag([1.0, 4.0])), Ellipsoid(np.diag([0.5, 2.0]))
    calls.update(svd=0, inv=0)
    assert is_quantum_pair(x, p, hbar=0.7).lambda_max == pytest.approx(0.5 / (0.7 * np.sqrt(2.0)))
    assert calls == {"svd": 1, "inv": 0, "norm": 0}


def test_derived_square_v_polytopes_invert_once(linalg_calls):
    # A V-polytope with n vertices that is derived, not constructed (the polar of a
    # parallelotope), inverts its vertices on first use and keeps the inverse; a linear
    # image is constructed and keeps the validator's. Repeated gauges and verdicts
    # invert no more, and the kept inverse gives the gauges a fresh body gives.
    rng = np.random.default_rng(7)
    n = 3
    l = rng.standard_normal((n, n)) + 3 * np.eye(n)
    box = linear_image(HPolytope.box([1.0, 2.0, 0.5]), l)
    cross = polar_dual(box, hbar=0.9)
    image = linear_image(VPolytope(np.eye(n) + 0.1 * rng.standard_normal((n, n))), l)
    ball, rows = Ellipsoid.ball(n), rng.standard_normal((4, n))
    calls = linalg_calls("inv")
    for _ in range(3):
        for body in (cross, image):
            gauge(body, rows)
            for other in (ball, box, cross, image):
                is_quantum_pair(body, other)
                is_quantum_pair(other, body)
    assert calls == {"inv": 1}
    assert gauge(VPolytope(cross.vertices), rows).tobytes() == gauge(cross, rows).tobytes()


def test_unit_polar_shares_its_parallelotopes_inverse(linalg_calls):
    # An H-polytope with n rows keeps the inverse its validator computed, and its unit
    # polar, whose vertices are its rows bit for bit, reads it: containment and the support
    # function invert nothing. At any other hbar the polar inverts once, on first use.
    h = HPolytope([[2.0, 0.3], [0.1, 1.5]])
    ball, rows = Ellipsoid.ball(2, 3.0), np.random.default_rng(8).standard_normal((5, 2))
    want_in, want_support = fit_scale(h, ball) >= 1.0, support_oracle(h, rows[0])
    calls = linalg_calls("inv")
    for _ in range(5):
        assert contains(ball, h) is want_in
    assert calls == {"inv": 0}
    for _ in range(5):
        assert support(h, rows[0]) == pytest.approx(want_support, rel=1e-12)
    assert calls == {"inv": 0}
    assert gauge(polar_dual(h), rows).tobytes() == gauge(VPolytope(h.rows), rows).tobytes()
    assert calls == {"inv": 1}  # VPolytope(h.rows)'s own validator
    polar = polar_dual(h, hbar=0.7)
    for _ in range(3):
        gauge(polar, rows)
    assert calls == {"inv": 2}


def test_overflowed_vertices_are_refused():
    # A row of 1e-310 has a vertex at 1e310 = inf: an enumerated vertex is checked
    # like any outside vector before the gauge reads it. In a box or a cross-polytope
    # the scale never enumerates, and the overflow is refused all the same, not read
    # as lambda = 0.
    h = HPolytope(np.diag([1e-310, 1.0]))
    for outer in (Ellipsoid.ball(2), HPolytope.box([1.0, 1.0]), VPolytope(np.eye(2))):
        for decide in (lambda: contains(outer, h), lambda: fit_scale(h, outer),
                       lambda: is_quantum_pair(outer, polar_dual(h))):
            with pytest.raises(ValueError, match="^vector entries must be finite$"):
                decide()


def test_overflowed_outer_gauges_give_a_zero_scale():
    # The box of half-width 1e200 has finite vertices, but their gauges overflow in
    # the tiny box and cross-polytope: the scale, about 1e-400, is 0, not NaN, and the
    # pair verdict reads it. So does a ball of radius 1e150 in a turned box of
    # half-width 1e-200. In the unit ball the scale 1e-200 / sqrt(2) is a normal float:
    # sigma is taken on scaled operands, and the q = 2 norms on scaled rows.
    inner = HPolytope.box([1e200, 1e200])
    for outer, want in ((Ellipsoid.ball(2), 1e-200 / np.sqrt(2.0)), (HPolytope.box([1e-200, 1e-200]), 0.0),
                        (VPolytope(1e-200 * np.eye(2)), 0.0)):
        with np.errstate(over="ignore"):
            assert fit_scale(inner, outer) == pytest.approx(want, rel=1e-15, abs=0.0)
            verdict = is_quantum_pair(outer, polar_dual(inner))
        assert verdict.lambda_max == pytest.approx(want, rel=1e-15, abs=0.0) and not verdict.is_pair
    c, s = np.cos(0.3), np.sin(0.3)
    with np.errstate(over="ignore"):
        assert fit_scale(Ellipsoid.ball(2, 1e150), HPolytope(1e200 * np.array([[c, -s], [s, c]]))) == 0.0


def test_overflowed_products_never_give_nan():
    # Products of finite matrices that overflow with opposite signs give NaN, read as
    # an infinite sigma: the scale is 0. A V-polytope whose V^-1 overflows (the vertices
    # s V^-T of its polar) is refused like an overflowed vertex, in its gauge too. And
    # where hbar sigma underflows to 0 the scale is inf, not a ZeroDivisionError.
    c, s = np.cos(0.3), np.sin(0.3)
    r = np.array([[c, -s], [s, c]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert fit_scale(HPolytope(1e-200 * r.T), VPolytope(1e-200 * r)) == 0.0
        assert inclusion_scale(VPolytope(1e-200 * r), VPolytope(1e-200 * r.T)) == 0.0
    tiny = VPolytope(1e-310 * np.eye(2))
    for decide in (lambda: gauge(tiny, [0.0, 1.0]), lambda: fit_scale(HPolytope.box([1.0, 1.0]), tiny)):
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            decide()
    wide = HPolytope.box([1e200, 1e200])
    verdict = is_quantum_pair(wide, wide, hbar=1e-300)
    assert verdict.lambda_max == np.inf and verdict.is_pair


def test_row_merge_takes_norms_without_underflow():
    # Squares of rows of 1e-300 underflow. The merge before Qhull's retry measures rows
    # scaled by powers of two: a near copy of a tiny row is dropped, and where Qhull
    # fails again the scale is undecided, not a bare ValueError from KDTree. Rows of
    # 1e-300 and 1 within one column fail twice; where the tiny entries fill their own
    # column, Qhull runs on the columns scaled and decides (it failed twice on them as
    # given): the vertices are near (1e300, +-1).
    from qpolar.bodies import _merge_close_rows

    rows = np.array([[1e-300, 0.0], [0.0, 1.0], [1.000000000001e-300, 0.0]])
    assert np.array_equal(_merge_close_rows(rows), rows[1:])
    flat = HPolytope([[1.0, 1.0], [1e-300, 0.0], [0.0, 1e-300]])
    columns = HPolytope([[1e-300, 0.0], [0.0, 1.0], [1e-300, 1e-300]])
    for outer in (Ellipsoid.ball(2), HPolytope.box([1.0, 1.0]), VPolytope(np.eye(2))):
        with pytest.raises(UndecidedError, match="^undecided: Qhull vertex enumeration failed"):
            fit_scale(flat, outer)
        assert fit_scale(columns, outer) == pytest.approx(1e-300, rel=1e-14, abs=0.0)


def _with_condition(n, cond, rng):
    """A random n x n matrix with singular values geometrically spaced from 1 to cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.geomspace(1.0, cond, n)) @ q2.T


@given(inner=st.sampled_from(["parallelotope", "ellipsoid"]), kind=st.sampled_from(["ellipsoid", "cross image", "hpoly"]),
       n=st.sampled_from([1, 2, 3]), log_cond=st.integers(0, 6), log_scale=st.floats(-3, 3),
       seed=st.integers(0, 2**32 - 1))
def test_parallelotope_scales_match_a_60_digit_oracle(inner, kind, n, log_cond, log_scale, seed):
    # The parallelotope {|A x| <= 1}, cond(A) up to 1e6, or the ellipsoid {x^T Q x <= 1},
    # cond(Q) up to 1e6, in an ellipsoid, a V-polytope with n vertices and an H-polytope
    # with n + 2 rows: lambda against the outer gauge over the parallelotope's 2^n
    # vertices A^-1 s, or over the ellipsoid by its support h(c) = sqrt(c^T Q^-1 c), all
    # in 60 digits on the same floats. The error stays below n cond eps (over 900 seeds
    # for the parallelotope, 300 for the ellipsoid); FACTOR_ERR_C times that is allowed.
    rng = np.random.default_rng(seed)
    cond = 10.0**log_cond
    m = rng.standard_normal((n, n)) + 3 * np.eye(n)
    outer = {"ellipsoid": lambda: Ellipsoid(m @ m.T), "cross image": lambda: VPolytope(m),
             "hpoly": lambda: HPolytope(np.vstack([m, rng.standard_normal((2, n))]))}[kind]()
    if inner == "parallelotope":
        a = _with_condition(n, cond, rng) * 10.0**log_scale
        body = HPolytope(a)
    else:
        body = Ellipsoid(spd_with_condition(n, cond, rng) * 10.0**log_scale)
    lam = fit_scale(body, outer)
    with mpmath.workdps(60):
        if inner == "ellipsoid":
            q_inv = mpmath.inverse(mpmath.matrix(body.matrix.tolist()))

            def h(c):
                return mpmath.sqrt((c.T * q_inv * c)[0])

            if kind == "ellipsoid":
                # max x^T Q_out x over x^T Q x <= 1: the largest eigenvalue of L^-1 Q_out L^-T, Q = L L^T.
                l_inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(body.matrix.tolist())))
                top = mpmath.sqrt(max(mpmath.eigsy(l_inv * mpmath.matrix(outer.matrix.tolist()) * l_inv.T)[0]))
            elif kind == "cross image":
                # The outer gauge is max_s s . V^-T x, so its maximum is max_s h(V^-1 s).
                v = mpmath.matrix(outer.vertices.tolist())
                top = max(h(mpmath.lu_solve(v, mpmath.matrix(s))) for s in itertools.product((-1, 1), repeat=n))
            else:
                top = max(h(mpmath.matrix(c.tolist())) for c in outer.rows)
        else:
            verts = [mpmath.lu_solve(mpmath.matrix(a.tolist()), mpmath.matrix(s))
                     for s in itertools.product((-1, 1), repeat=n)]
            if kind == "ellipsoid":
                q = mpmath.matrix(outer.matrix.tolist())
                gauges = [mpmath.sqrt((v.T * q * v)[0]) for v in verts]
            elif kind == "cross image":
                vt = mpmath.matrix(outer.vertices.T.tolist())
                gauges = [sum(abs(c) for c in mpmath.lu_solve(vt, v)) for v in verts]
            else:
                rows = mpmath.matrix(outer.rows.tolist())
                gauges = [max(abs(x) for x in rows * v) for v in verts]
            top = max(gauges)
        exact = 1 / top
        assert abs(lam - exact) <= FACTOR_ERR_C * n * cond * EPS * exact


@pytest.mark.parametrize("n", [24, 40])
def test_h_in_h_decides_above_the_budget_without_lp_or_qhull(n, rng, monkeypatch):
    # 2^24 and 2^40 vertices exceed the budget, but an H-in-H pair flips to V in V:
    # lambda = 1 / max_j ||A^-T c_j||_1 over the outer rows c_j.
    import scipy.optimize
    import scipy.spatial

    monkeypatch.setattr(scipy.optimize, "linprog", forbid_linprog)
    monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", forbid_qhull)
    monkeypatch.setattr(scipy.spatial, "KDTree", forbid_qhull)
    a = rng.standard_normal((n, n)) + 4 * np.eye(n)
    c = rng.standard_normal((2 * n, n)) + np.vstack([4 * np.eye(n), np.zeros((n, n))])
    expected = 1.0 / np.abs(np.linalg.solve(a.T, c.T)).sum(axis=0).max()
    assert contains(HPolytope(c), scale(HPolytope(a), 0.999 * expected))
    assert not contains(HPolytope(c), scale(HPolytope(a), 1.001 * expected))
    assert inclusion_scale(HPolytope(c), polar_dual(HPolytope(a))) == pytest.approx(expected, rel=1e-12, abs=0.0)
    # The unit box in the unit cross-polytope's polar (the box again): a quantum pair at lambda = 1.
    verdict = is_quantum_pair(HPolytope.box(np.ones(n)), VPolytope(np.eye(n)))
    assert verdict.is_pair and verdict.lambda_max == 1.0


def test_parallelotope_work_per_verdict(monkeypatch):
    # No H-in-H pair enumerates vertices, and no verdict inverts a parallelotope inner
    # body, however many blocks of sign vectors its gauges take: its unit polar reads the
    # inverse the validator kept. The budget counts all 2^n vertices, not the 2^(n-1)
    # sign vectors the scale reads.
    import qpolar.bodies

    rng = np.random.default_rng(21)
    n = 8
    a = rng.standard_normal((n, n)) + 3 * np.eye(n)
    inner = HPolytope(a)
    m = rng.standard_normal((n, n)) + 3 * np.eye(n)
    outers = {"ellipsoid": Ellipsoid(m @ m.T), "cross image": VPolytope(m),
              "vpoly": VPolytope(np.vstack([m, rng.standard_normal((2, n))])),
              "box": HPolytope(m), "hpoly": HPolytope(np.vstack([m, rng.standard_normal((2, n))]))}
    expected = {kind: fit_scale(inner, outer) for kind, outer in outers.items()}
    assert expected["hpoly"] == pytest.approx(1.0 / np.abs(outers["hpoly"].rows @ np.linalg.inv(a)).sum(axis=1).max(),
                                              rel=1e-14, abs=0.0)

    monkeypatch.setattr(qpolar.bodies, "_BLOCK_ENTRIES", 8 * n)
    monkeypatch.setattr(qpolar.bodies, "_SIGN_TABLE_ENTRIES", 0)
    assert len(list(qpolar.bodies._sign_blocks(n, 2 ** (n - 1)))) == 16
    solved = []
    for name in ("solve", "inv"):
        def recording(m0, *args, _run=getattr(np.linalg, name), **kwargs):
            solved.append(np.array_equal(m0, a) or np.array_equal(m0, a.T))
            return _run(m0, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    for kind, outer in outers.items():
        solved.clear()
        assert fit_scale(inner, outer) == pytest.approx(expected[kind], rel=1e-14, abs=0.0), kind
        assert solved.count(True) == 0, kind

    # With the budget below 2^n, an H-polytope in an ellipsoid is undecided, and no
    # H-in-H pair enumerates: with n inner rows in closed form, with more by the LPs of
    # the flipped V-gauge (below the budget it may read facets where they cost less).
    tall = HPolytope(np.vstack([a, rng.standard_normal((3, n))]))
    tall_in_hpoly = fit_scale(tall, outers["hpoly"])
    monkeypatch.setattr(qpolar.bodies, "VERTEX_BUDGET", 2**n - 1)
    with pytest.raises(UndecidedError, match=f"up to {2**n} vertices exceed the enumeration budget {2**n - 1}$"):
        fit_scale(inner, outers["ellipsoid"])
    monkeypatch.setattr(qpolar.bodies, "hpolytope_vertices", None)
    monkeypatch.setattr(qpolar.bodies, "_enumerate_vertices", None)
    assert fit_scale(inner, outers["box"]) == expected["box"]
    assert fit_scale(tall, outers["hpoly"]) == pytest.approx(tall_in_hpoly, rel=1e-9, abs=0.0)
    assert is_quantum_pair(HPolytope.box(np.ones(30)), VPolytope(np.eye(30))).lambda_max == 1.0


@given(kind=st.sampled_from([HPolytope, VPolytope]), n=st.sampled_from([1, 2, 3, 6, 9]),
       data=st.data(), log_scale=st.floats(-150, 150), log_hbar=st.floats(-150, 150),
       seed=st.integers(0, 2**32 - 1))
def test_polars_of_checked_polytopes_match_the_validator(kind, n, data, log_scale, log_hbar, seed):
    # n spanning rows at a scale in 10^+-150, then up to 2n extra rows each at a
    # smaller scale down to 10^-150. For some hbar in 10^+-150 a scaled row's squares
    # underflow (it is still nonzero) or its entries overflow.
    rng = np.random.default_rng(seed)
    m = n + data.draw(st.integers(0, 2 * n), label="extra rows")
    rows = rng.standard_normal((m, n)) * 10.0**log_scale
    rows[n:] = rng.standard_normal((m - n, n)) * 10.0 ** rng.uniform(-150.0, log_scale, size=(m - n, 1))
    try:
        body = kind(rows)
    except DegenerateBodyError:
        assume(False)
    polar_matches_the_validator(body, 10.0**log_hbar)


@pytest.mark.parametrize("kind, rows, hbar", [
    # Overflow: hbar * 1e300 is infinite, a ValueError for finiteness.
    (HPolytope, 1e300 * np.eye(3), 1e10),
    (VPolytope, 1e300 * np.eye(3), 1e-10),
    # A short third row's squares underflow; the row is still nonzero, so both build.
    (HPolytope, [[1.0, 0.0], [0.0, 1.0], [1e-150, 1e-150]], 1e-20),
    (VPolytope, [[1.0, 0.0], [0.0, 1.0], [1e-150, 1e-150]], 1e20),
    # Rows near the underflow edge still build, with their rank kept.
    (HPolytope, [[1e-140, 0.0], [0.0, 1e-140]], 1e-20),
    # A row scaled into the subnormal range builds; one scaled below it is zero.
    (VPolytope, [[1.0, 0.0], [0.0, 1e-300]], 1e15),
    (HPolytope, [[1.0, 0.0], [0.0, 1e-300]], 1e-30),
])
def test_polar_edges_match_the_validator(kind, rows, hbar):
    polar_matches_the_validator(kind(rows), hbar)


def test_rows_far_below_the_underflow_of_their_squares_are_nonzero():
    # The zero-row test is exact: rows of 1e-170 build, and only all-zero rows are refused.
    assert HPolytope.box([1e170]).rows.tobytes() == np.array([[1e-170]]).tobytes()
    box = HPolytope.box([1e170, 2e170])
    assert gauge(box, [1e170, 1e170]) == pytest.approx(1.0, rel=1e-15)
    assert VPolytope([[1e-170, 0.0], [0.0, 1e-170]]).dim == 2
    for kind, what in ((HPolytope, "rows"), (VPolytope, "vertices")):
        with pytest.raises(DegenerateBodyError, match=f"^{kind.__name__[0]}-polytope {what} must be non-empty and nonzero$"):
            kind([[1.0, 0.0], [0.0, 0.0]])


def test_rank_test_does_not_depend_on_row_scale():
    # Rows whose scales differ by 1e16 or more span the space; both bodies have closed forms.
    box = HPolytope.box([1.0, 1e16])
    assert gauge(box, [1.0, 1e16]) == pytest.approx(1.0, rel=1e-15)
    assert is_quantum_pair(box, polar_dual(box, 2.0), 2.0).lambda_max == pytest.approx(1.0, rel=1e-12)
    assert gauge(VPolytope([[1.0, 0.0], [0.0, 1e-17]]), [0.5, 0.5e-17]) == pytest.approx(1.0, rel=1e-15)
    for rows in ([[1.0, 2.0], [2.0, 4.0]], [[1e-20, 2e-20], [2e20, 4e20]]):
        with pytest.raises(DegenerateBodyError, match=r"^H-polytope rows must span the space \(bounded body\)$"):
            HPolytope(rows)


def test_rank_test_is_matrix_rank():
    # The validator rejects exactly the arrays with a zero row or numerical rank
    # below n (matrix_rank's tolerance) once each row is scaled by its max-abs
    # entry, and also once each column of that is scaled by its own (a zero column
    # kept): tall, wide and near-singular arrays.
    rng = np.random.default_rng(13)
    rejected = 0
    for trial in range(3000):
        m, n = rng.integers(1, 10, size=2)
        r = rng.integers(1, min(m, n) + 1)
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        a += 10.0 ** -rng.uniform(10, 17) * np.abs(a).max() * rng.standard_normal((m, n))
        if trial % 7 == 0:
            a[rng.integers(m)] = 0.0
        if trial % 5 == 0:
            a *= 10.0 ** rng.uniform(-2, 2, size=(m, 1))
        a *= 10.0 ** rng.uniform(-100, 100)
        if trial % 300 == 0:
            a[rng.integers(m)] *= 1e-70  # a row far below the others, whose squares may underflow
        degenerate = not a.any(axis=1).all()
        if not degenerate:
            u = a / np.abs(a).max(axis=1, keepdims=True)
            cols = u / np.abs(u).max(axis=0, initial=np.finfo(float).tiny)
            degenerate = np.linalg.matrix_rank(u) < n and np.linalg.matrix_rank(cols) < n
        try:
            _polytope_array(a, "H")
        except DegenerateBodyError:
            rejected += 1
            assert degenerate, a
        else:
            assert not degenerate, a
    assert 500 < rejected < 2500


def test_square_rank_test_is_matrix_rank(linalg_calls):
    # A square array is certified by its inverse where that bound holds, and by the SVD
    # otherwise: the decision is still matrix_rank's on the rows scaled to max-abs 1 or
    # on their columns scaled too, near the rank boundary (relative noise 1e-10 to
    # 1e-17), at row scales up to 1e+-100 and with one column at 1e-15.
    rng = np.random.default_rng(29)
    calls = linalg_calls("svd")
    rejected = certified = 0
    for trial in range(3000):
        n = int(rng.integers(1, 10))
        r = rng.integers(1, n + 1)
        a = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        a += 10.0 ** -rng.uniform(10, 17) * np.abs(a).max() * rng.standard_normal((n, n))
        if trial % 3 == 0:
            a *= 10.0 ** rng.uniform(-100, 100, size=(n, 1))
        if trial % 4 == 0:
            a[:, rng.integers(n)] *= 1e-15
        u = a / np.abs(a).max(axis=1, keepdims=True)
        cols = u / np.abs(u).max(axis=0, initial=np.finfo(float).tiny)
        degenerate = np.linalg.matrix_rank(u) < n and np.linalg.matrix_rank(cols) < n
        calls.update(svd=0)
        try:
            _polytope_array(a, "V")
        except DegenerateBodyError:
            rejected += 1
            assert degenerate, a
        else:
            assert not degenerate, a
            certified += calls["svd"] == 0
    assert 500 < rejected < 2500 and certified > 500


@pytest.mark.parametrize("call, error, message", [
    (lambda: linear_image(Ellipsoid.ball(2), np.eye(3)), DimensionError, "expected a 2x2 matrix, got (3, 3)"),
    (lambda: enclosing_ellipsoid(np.empty((0, 2))), DegenerateBodyError, "empty point set"),
    (lambda: enclosing_ellipsoid(np.eye(2), mode="box"), ValueError,
     "unknown mode 'box'; expected 'ball' or 'mvee'"),
], ids=["linear-image-shape", "enclose-no-points", "enclose-unknown-mode"])
def test_input_checks(call, error, message):
    assert_raises_exactly(call, error, message)
