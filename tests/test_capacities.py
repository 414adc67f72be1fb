import numpy as np
import pytest

from qpolar.bodies import (Ellipsoid, HPolytope, VPolytope, contains, is_quantum_pair, linear_image, polar_dual,
                           scale)
from qpolar.capacities import ellipsoid_capacity, product_capacity, product_projection_area
from qpolar.errors import DimensionError, NotPositiveDefiniteError
from qpolar.quantum import section_area
from qpolar.symplectic import random_symplectic

from conftest import area_oracle_1d, assert_raises_exactly, random_body, random_spd


class TestEllipsoidCapacity:
    def test_unit_ball_any_n(self):
        for n in (1, 2, 3):
            assert ellipsoid_capacity(Ellipsoid.ball(2 * n)) == pytest.approx(np.pi)

    def test_ball_radius_square_law(self):
        assert ellipsoid_capacity(Ellipsoid.ball(2, 3.0)) == pytest.approx(9 * np.pi)

    def test_minimal_covariance_ellipsoid(self):
        # Sigma = I/2 at hbar=1: region z Sigma^{-1} z / 2 <= 1 has Q = I, capacity pi = h/2.
        q = np.linalg.inv(0.5 * np.eye(2)) / 2.0
        assert ellipsoid_capacity(Ellipsoid(q)) == pytest.approx(np.pi)

    def test_symplectic_invariance_block_map(self):
        ell = Ellipsoid(np.diag([1.0, 4.0]))
        l = np.diag([3.0])
        m = np.block([[l.T, np.zeros((1, 1))], [np.zeros((1, 1)), np.linalg.inv(l)]])
        assert ellipsoid_capacity(linear_image(ell, m)) == pytest.approx(
            ellipsoid_capacity(ell), rel=1e-12
        )

    def test_invariance_under_random_symplectic_maps(self, rng):
        for trial in range(100):
            n = 1 + trial % 3
            ell = Ellipsoid(random_spd(2 * n, rng))
            base = ellipsoid_capacity(ell)
            m = random_symplectic(n, trial)
            assert ellipsoid_capacity(linear_image(ell, m)) == pytest.approx(base, rel=1e-9)

    def test_monotone_on_nested(self, rng):
        for _ in range(50):
            ell = Ellipsoid(random_spd(4, rng))
            inner = scale(ell, rng.uniform(0.2, 1.0))
            assert ellipsoid_capacity(inner) <= ellipsoid_capacity(ell) * (1 + 1e-12)

    def test_conformality(self, rng):
        for _ in range(20):
            ell = Ellipsoid(random_spd(4, rng))
            lam = rng.uniform(0.3, 3.0)
            assert ellipsoid_capacity(scale(ell, lam)) == pytest.approx(
                lam**2 * ellipsoid_capacity(ell), rel=1e-10
            )

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            ellipsoid_capacity(Ellipsoid.ball(3))


class TestProductCapacity:
    def test_rectangle(self):
        x = HPolytope([[0.5]])          # [-2, 2]
        p = HPolytope([[1.0 / 3.0]])    # [-3, 3]
        report = product_capacity(x, p, hbar=1.0)
        assert report.value == pytest.approx(24.0, rel=1e-12)
        assert report.kind == "product"
        assert report.lower_bound_4hbar_met
        assert not report.equality_case

    def test_polar_dual_equality_case(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            body = random_body(n, rng)
            hbar = rng.uniform(0.3, 3.0)
            report = product_capacity(body, polar_dual(body, hbar), hbar)
            assert report.value == pytest.approx(4 * hbar, rel=1e-9)
            assert report.equality_case
            assert report.lower_bound_4hbar_met

    def test_unit_disks(self):
        report = product_capacity(Ellipsoid.ball(2), Ellipsoid.ball(2), hbar=1.0)
        assert report.value == pytest.approx(4.0, rel=1e-12)
        assert report.equality_case

    def test_conformality(self, rng):
        for _ in range(20):
            x = random_body(2, rng)
            p = random_body(2, rng)
            lam = rng.uniform(0.3, 3.0)
            base = product_capacity(x, p).value
            scaled = product_capacity(scale(x, lam), scale(p, lam)).value
            assert scaled == pytest.approx(lam**2 * base, rel=1e-9)

    def test_lower_bound_equivalence_with_pair(self, rng):
        # Lower bound 4*hbar holds iff (X, P) is a quantum pair iff X^hbar
        # fits in (1 + tol) P; all three reduce to lambda_max >= 1/(1 + tol)
        # and must agree on every random pair and inside the tolerance band.
        tol = 1e-9

        def routes(x, p, hbar, tol=tol):
            report = product_capacity(x, p, hbar, tol)
            verdict = is_quantum_pair(x, p, hbar, tol)
            inside = contains(p, polar_dual(x, hbar), tol)
            assert report.lower_bound_4hbar_met == verdict.is_pair == inside
            assert report.lower_bound_4hbar_met or not report.equality_case
            assert report.value == pytest.approx(4 * hbar * verdict.lambda_max, rel=1e-12)
            return verdict.is_pair

        for _ in range(200):
            n = int(rng.integers(1, 4))
            routes(random_body(n, rng), random_body(n, rng), rng.uniform(0.3, 3.0))

        routes(Ellipsoid.ball(2), Ellipsoid.ball(2, 1 - 1.0000001e-9), 1.0)
        # Balls B(1), B(hbar * lam) have lambda_max = lam.
        for hbar in (1e-3, 1.0, 1e3):
            for lam in (1 / (1 + tol), 1 - tol):
                routes(Ellipsoid.ball(2), Ellipsoid.ball(2, hbar * lam), hbar)
            assert routes(Ellipsoid.ball(2), Ellipsoid.ball(2, hbar * (1 + 2 * tol)), hbar)
            assert not routes(Ellipsoid.ball(2), Ellipsoid.ball(2, hbar * (1 - 2 * tol)), hbar)
        # lambda_max = 0.905 lies inside |lambda - 1| <= 0.1 but below 1/(1 + 0.1).
        assert not routes(Ellipsoid.ball(2), Ellipsoid.ball(2, 0.905), 1.0, tol=0.1)

    def test_capacity_equals_area_1d(self, rng):
        for _ in range(1000):
            a, b = rng.uniform(0.1, 10.0, size=2)
            kinds = rng.integers(0, 3, size=2)
            bodies = []
            for half, kind in zip((a, b), kinds):
                if kind == 0:
                    bodies.append(Ellipsoid(np.array([[1.0 / half**2]])))
                elif kind == 1:
                    bodies.append(HPolytope([[1.0 / half]]))
                else:
                    bodies.append(VPolytope([[half]]))
            x, p = bodies
            assert product_capacity(x, p, hbar=1.0).value == pytest.approx(
                area_oracle_1d(x, p), rel=1e-12
            )


class TestSectionArea:
    def test_minimal_isotropic(self):
        assert section_area(0.5 * np.eye(2), 1) == pytest.approx(np.pi)
        assert section_area(0.5 * np.eye(4), 2) == pytest.approx(np.pi)

    def test_identity_n2(self):
        assert section_area(np.eye(4), 1) == pytest.approx(2 * np.pi)

    def test_scaling_conformality(self, rng):
        s = random_spd(4, rng)
        for j in (1, 2):
            assert section_area(4.0 * s, j) == pytest.approx(4.0 * section_area(s, j), rel=1e-10)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            section_area(np.eye(4), 3)

    @pytest.mark.parametrize("sigma", [np.diag([1.0, -1.0, 1.0, -1.0]), np.diag([1.0, 0.0, 1.0, 1.0])])
    def test_not_positive_definite_rejected(self, sigma):
        with pytest.raises(NotPositiveDefiniteError):
            section_area(sigma, 1)

    def test_section_vs_capacity_on_williamson_aligned(self, rng):
        # For block-diagonal Sigma = diag(c, c) the x1,p1 section is a disk of
        # radius sqrt(2c): area 2 pi c, and capacity of the whole ellipsoid is
        # 2 pi min(c_j).
        c = np.sort(rng.uniform(0.5, 2.0, size=2))
        sigma = np.diag([c[0], c[1], c[0], c[1]])
        areas = [section_area(sigma, j) for j in (1, 2)]
        assert areas[0] == pytest.approx(2 * np.pi * c[0], rel=1e-10)
        assert areas[1] == pytest.approx(2 * np.pi * c[1], rel=1e-10)
        q = np.linalg.inv(sigma) / 2
        from qpolar.capacities import ellipsoid_capacity

        assert ellipsoid_capacity(Ellipsoid(q)) == pytest.approx(min(areas), rel=1e-10)


class TestAreaOracle:
    def test_unit_square(self):
        x = HPolytope([[1.0]])
        assert area_oracle_1d(x, x) == pytest.approx(4.0)

    def test_minimal_pair_value(self):
        # a = 2, b = hbar/a = 0.5: the minimal-pair rectangle has area 4*hbar.
        x = HPolytope([[0.5]])
        p = HPolytope([[2.0]])
        assert area_oracle_1d(x, p) == pytest.approx(4.0)

    def test_rectangle(self):
        x = VPolytope([[2.0]])
        p = Ellipsoid([[1.0 / 9.0]])
        assert area_oracle_1d(x, p) == pytest.approx(24.0)

    def test_rejects_higher_dimension(self):
        with pytest.raises(DimensionError):
            area_oracle_1d(Ellipsoid.ball(2), Ellipsoid.ball(2))


class TestOrderingSanity:
    def test_inscribed_ellipse_below_product_capacity(self, rng):
        # n = 1: the ellipse with semiaxes (a, b) sits inside the rectangle
        # [-a,a] x [-b,b]; capacities pi*a*b <= 4*a*b respect monotonicity and
        # both agree with area on their own regions.
        for _ in range(50):
            a, b = rng.uniform(0.2, 5.0, size=2)
            ellipse = Ellipsoid(np.diag([1 / a**2, 1 / b**2]))
            x = HPolytope([[1.0 / a]])
            p = HPolytope([[1.0 / b]])
            c_ell = ellipsoid_capacity(ellipse)
            c_prod = product_capacity(x, p).value
            assert c_ell == pytest.approx(np.pi * a * b, rel=1e-10)
            assert c_prod == pytest.approx(4 * a * b, rel=1e-12)
            assert c_ell <= c_prod


class TestProjectionConsequence:
    def test_projection_rectangle_for_boxes(self):
        x = HPolytope.box([2.0, 1.0])
        p = HPolytope.box([3.0, 5.0])
        assert product_projection_area(x, p, 1) == pytest.approx(24.0)
        assert product_projection_area(x, p, 2) == pytest.approx(20.0)

    def test_pairs_have_large_projections(self, rng):
        # Quantum pair implies every conjugate-plane projection has area >= 4*hbar.
        for _ in range(50):
            n = int(rng.integers(1, 4))
            x = random_body(n, rng)
            hbar = rng.uniform(0.3, 3.0)
            p = polar_dual(x, hbar)
            for j in range(1, n + 1):
                assert product_projection_area(x, p, j) >= 4 * hbar * (1 - 1e-9)


@pytest.mark.parametrize("call, error, message", [
    (lambda: product_projection_area(Ellipsoid.ball(2), Ellipsoid.ball(3), 1), DimensionError,
     "dimension mismatch: X is 2-dim, P is 3-dim"),
    (lambda: product_projection_area(Ellipsoid.ball(2), Ellipsoid.ball(2), 0), IndexError,
     "mode index must satisfy 1 <= j <= 2, got 0"),
    (lambda: product_projection_area(Ellipsoid.ball(2), Ellipsoid.ball(2), 3), IndexError,
     "mode index must satisfy 1 <= j <= 2, got 3"),
], ids=["dimension-mismatch", "mode-zero", "mode-past-n"])
def test_input_checks(call, error, message):
    assert_raises_exactly(call, error, message)
