import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpolar.bodies import (
    Ellipsoid,
    HPolytope,
    VPolytope,
    contains,
    enclosing_ellipsoid,
    gauge,
    hpolytope_vertices,
    linear_image,
    scale,
    support,
)
from qpolar.capacities import product_capacity
from qpolar.errors import (
    DegenerateBodyError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    UndecidedError,
)
from qpolar.hardy import HardyInput, hardy_check
from qpolar.polarity import inclusion_scale, is_quantum_pair, polar_dual
from qpolar.quantum import covariance_ellipsoid, project_xp
from qpolar.sections import section_polygon

from conftest import (
    random_body,
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


def forbid_linprog(*args, **kwargs):
    raise AssertionError("linprog called where the facets should be enumerated")


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

    def test_ball_and_box_helpers(self):
        assert np.allclose(Ellipsoid.ball(3, 2.0).matrix, np.eye(3) / 4)
        assert np.allclose(HPolytope.box([2.0, 1.0]).rows, np.diag([0.5, 1.0]))


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
    def test_vpolytope_cross_image_closed_form(self, n, rng):
        # conv{+-m_i} over the rows of an invertible M has gauge ||M^-T x||_1.
        # n = 9 is above the enumeration cap, where the gauge solves LPs.
        m = rng.standard_normal((n, n)) + 3 * np.eye(n)
        x = rng.standard_normal((5, n))
        x[1] = 0.0
        got = gauge(VPolytope(m), x)
        assert got[1] == 0.0
        assert np.allclose(got, np.abs(np.linalg.solve(m.T, x.T)).sum(axis=0), rtol=1e-9, atol=0.0)

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
            patch.setattr(qpolar.bodies, "hpolytope_vertices", None)
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

    def test_failed_enumeration_is_undecided(self, monkeypatch):
        import scipy.spatial

        def fail(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6154 Qhull precision error: Initial simplex is flat")

        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", fail)
        with pytest.raises(UndecidedError, match="Qhull"):
            gauge(VPolytope(np.eye(3)), [1.0, 0.0, 0.0])

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

    def test_undecided_above_enumeration_cap(self):
        # X = B(2.95), P = conv{+-e_i}: P's dual is the unit box, whose corners
        # sit at |x| = sqrt(n), so lambda_max = 2.95 / sqrt(n). At n = 9 that is
        # 0.983 (not a pair) and needs the box's vertices, beyond the cap.
        def shapes(n):
            return Ellipsoid.ball(n, 2.95), VPolytope(np.eye(n))

        x, p = shapes(9)
        for verdict in (is_quantum_pair, inclusion_scale, product_capacity,
                        lambda a, b: contains(a, polar_dual(b))):
            with pytest.raises(UndecidedError):
                verdict(x, p)

        x, p = shapes(8)
        lam = 2.95 / np.sqrt(8)
        assert inclusion_scale(x, p) == pytest.approx(lam, rel=1e-12)
        assert is_quantum_pair(x, p).lambda_max == pytest.approx(lam, rel=1e-12)
        assert product_capacity(x, p).value == pytest.approx(4 * lam, rel=1e-12)
        assert contains(x, polar_dual(p)) and not contains(scale(x, 0.95), polar_dual(p))


@pytest.mark.parametrize("n", [2, 8])
def test_no_lp_up_to_the_enumeration_cap(n, monkeypatch):
    # Balls, boxes and cross-polytopes: a V-polytope with m = n always takes the facet path.
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

    def test_degenerate_points_rejected(self):
        with pytest.raises(DegenerateBodyError):
            enclosing_ellipsoid([[1.0, 0.0], [2.0, 0.0]], "ball")


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
