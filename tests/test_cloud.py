import itertools

import numpy as np
import pytest

from qpolar.bodies import Ellipsoid, HPolytope, VPolytope, gauge
from qpolar.cloud import (
    MeasurementCloud,
    cloud_analyze,
    cloud_generate_disk,
    disk_demo,
)
from qpolar.errors import DegenerateBodyError, DimensionError
from qpolar.io import body_to_dict
from qpolar.sections import _order_by_angle, emit_section_plot, product_section_rectangle, section_polygon

from conftest import DISK_DEMO_CASES, assert_raises_exactly, random_ellipsoid, random_hpolytope, random_vpolytope


class TestCloudGeneration:
    def test_support_constraint(self):
        cloud = cloud_generate_disk(1.5, 0.7, 2000, seed=1)
        assert np.all(np.linalg.norm(cloud.x_samples, axis=1) <= 1.5)
        assert np.all(np.linalg.norm(cloud.p_samples, axis=1) <= 0.7)

    def test_seed_reproducibility(self):
        a = cloud_generate_disk(1.0, 1.0, 500, seed=7)
        b = cloud_generate_disk(1.0, 1.0, 500, seed=7)
        assert np.array_equal(a.x_samples, b.x_samples)
        assert np.array_equal(a.p_samples, b.p_samples)

    def test_variance_matches_uniform_disk(self):
        # Per-coordinate variance of a uniform disk of radius R is R^2/4.
        cloud = cloud_generate_disk(1.0, 1.0, 100_000, seed=3)
        var = cloud.x_samples[:, 0].var()
        assert var == pytest.approx(0.25, abs=0.01)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            MeasurementCloud(np.ones((5, 2)), np.ones((5, 3)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: MeasurementCloud(np.empty((0, 2)), np.eye(2)), DegenerateBodyError, "both sample sets must be non-empty"),
    (lambda: MeasurementCloud(np.eye(2), [[0.0, np.nan], [1.0, 0.0]]), ValueError, "samples must be finite"),
    (lambda: body_to_dict(np.eye(2)), TypeError, "not a convex body: <class 'numpy.ndarray'>"),
    (lambda: MeasurementCloud(np.ones((4, 2, 2)), np.ones((4, 2, 2))), DimensionError,
     "sample arrays must have at most two dimensions, got 3 and 3"),
    (lambda: cloud_generate_disk(0.0, 1.0, 10, 0), ValueError, "disk radii must be positive"),
    (lambda: cloud_generate_disk(np.nan, 1.0, 10, 0), ValueError, "disk radii must be positive"),
    (lambda: cloud_generate_disk(1.0, np.inf, 10, 0), ValueError, "disk radii must be positive"),
    (lambda: cloud_generate_disk(1.0, 1.0, 0, 0), ValueError, "need at least one sample, got 0"),
    (lambda: cloud_analyze(MeasurementCloud([[1.0, 2.0], [-1.0, 2.0]], np.eye(2)), fit="interval-box"),
     DegenerateBodyError, "samples are flat along a coordinate; box fit is degenerate"),
    (lambda: cloud_analyze(cloud_generate_disk(1.0, 1.0, 10, 0), fit="hull"), ValueError,
     "unknown fit mode 'hull'; expected one of ('ball', 'mvee', 'interval-box')"),
    (lambda: cloud_analyze(cloud_generate_disk(1.0, 1.0, 10, 0), trim=0.5), ValueError,
     "trim quantile must lie in [0, 0.5), got 0.5"),
    (lambda: cloud_analyze(cloud_generate_disk(1.0, 1.0, 10, 0), trim=-0.1), ValueError,
     "trim quantile must lie in [0, 0.5), got -0.1"),
], ids=["empty-samples", "non-finite-samples", "not-a-body", "3-d-samples", "zero-radius", "nan-radius",
        "inf-radius", "no-samples", "flat-box-fit",
        "unknown-fit", "trim-half", "trim-negative"])
def test_cloud_input_checks(call, error, message):
    assert_raises_exactly(call, error, message)


class TestCloudAnalyze:
    def test_disk_pair_true(self):
        cloud = cloud_generate_disk(2.0, 1.0, 20_000, seed=11)
        report = cloud_analyze(cloud, hbar=1.0, fit="ball")
        assert report.pair.is_pair  # Rx Rp = 2 >= hbar

    def test_disk_pair_false(self):
        cloud = cloud_generate_disk(0.5, 1.0, 20_000, seed=12)
        report = cloud_analyze(cloud, hbar=1.0, fit="ball")
        assert not report.pair.is_pair  # 0.5 < 1

    def test_consistency_identity(self):
        cloud = cloud_generate_disk(1.3, 0.9, 5_000, seed=13)
        for hbar in (0.5, 1.0, 2.0):
            report = cloud_analyze(cloud, hbar=hbar)
            assert report.capacity.value == pytest.approx(
                4.0 * hbar * report.pair.lambda_max, rel=1e-12
            )

    def test_gaussian_interval_fit_heisenberg_boundary(self):
        # Paired Gaussian clouds at sigma_x = sigma_p = sqrt(hbar/2): the
        # sample covariance approaches the minimal state as N grows.
        rng = np.random.default_rng(99)
        n = 200_000
        sx = sp = np.sqrt(0.5)
        cloud = MeasurementCloud(
            rng.normal(0, sx, size=(n, 1)), rng.normal(0, sp, size=(n, 1))
        )
        report = cloud_analyze(cloud, hbar=1.0, fit="interval-box")
        var_prod = report.x_variances[0] * report.p_variances[0]
        assert var_prod == pytest.approx(0.25, rel=0.05)
        spec = report.symplectic_spectrum
        assert spec[0] == pytest.approx(0.5, rel=0.05)

    def test_fit_modes_all_contain_samples(self):
        cloud = cloud_generate_disk(1.0, 1.0, 500, seed=21)
        for fit in ("ball", "mvee", "interval-box"):
            report = cloud_analyze(cloud, fit=fit)
            worst = max(gauge(report.body_x, s - report.x_center) for s in cloud.x_samples)
            assert worst <= 1 + 1e-8

    def test_trimming_shrinks_body(self):
        rng = np.random.default_rng(31)
        base = rng.normal(0, 1.0, size=(2000, 2))
        outliers = np.array([[50.0, 0.0], [0.0, -60.0]])
        x = np.vstack([base, outliers])
        p = rng.normal(0, 1.0, size=(2002, 2))
        cloud = MeasurementCloud(x, p)
        fat = cloud_analyze(cloud, fit="ball", trim=0.0)
        slim = cloud_analyze(cloud, fit="ball", trim=0.01)
        r_fat = 1 / np.sqrt(fat.body_x.matrix[0, 0])
        r_slim = 1 / np.sqrt(slim.body_x.matrix[0, 0])
        assert r_slim < 10 < r_fat
        assert slim.kept_x < 2002

    def test_unpaired_counts_noted(self):
        rng = np.random.default_rng(41)
        cloud = MeasurementCloud(rng.normal(size=(100, 2)), rng.normal(size=(150, 2)))
        report = cloud_analyze(cloud)
        assert any("unpaired" in note for note in report.notes)
        assert np.allclose(report.sample_covariance.dxp, 0.0)

    def test_degenerate_covariance_noted(self):
        # p = x makes the joint sample covariance singular: as in `qpolar covariance`
        # it is invalid with no spectrum, and the pair verdict still stands.
        x = np.random.default_rng(43).normal(size=(500, 2))
        report = cloud_analyze(MeasurementCloud(x, x))
        assert report.sample_covariance.factor is None and report.notes == ()
        assert report.sigpos_ok is False and report.capacity_criterion_ok is False
        assert report.symplectic_spectrum is None
        assert report.to_dict()["covariance"]["symplectic_spectrum"] is None
        assert report.pair.lambda_max > 0

    @pytest.mark.parametrize("fit", ["ball", "mvee", "interval-box"])
    def test_trim_gauges_each_sample_set_in_one_call(self, fit, monkeypatch):
        # The trim evaluates all gauges of a sample set at once, not per point.
        calls = []

        def counted(body, x):
            calls.append(np.shape(x))
            return gauge(body, x)

        monkeypatch.setattr("qpolar.cloud.gauge", counted)
        report = cloud_analyze(cloud_generate_disk(1.2, 0.9, 10_000, seed=23), fit=fit, trim=0.01)
        assert len(calls) <= 2
        assert report.kept_x < 10_000 and report.kept_p < 10_000

    @pytest.mark.parametrize("fit", ["ball", "mvee", "interval-box"])
    def test_inclusion_scale_computed_once(self, fit, monkeypatch):
        # The capacity is read off the pair verdict, not computed a second time.
        from qpolar.bodies import _polar_pairing

        calls = []

        def counted(x, p):
            calls.append(1)
            return _polar_pairing(x, p)

        monkeypatch.setattr("qpolar.bodies._polar_pairing", counted)
        report = cloud_analyze(cloud_generate_disk(1.2, 0.9, 2_000, seed=24), fit=fit, trim=0.01)
        assert len(calls) == 1
        assert report.capacity.value == 4.0 * report.pair.lambda_max

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in a covariance verdict")

        monkeypatch.setattr("qpolar.quantum.rs_check", broken)
        with pytest.raises(RuntimeError, match="bug in a covariance verdict"):
            cloud_analyze(cloud_generate_disk(1.0, 1.0, 500, seed=22))

    def test_round_trip_identical_report(self, tmp_path):
        from qpolar.io import dump_cloud, load_cloud

        cloud = cloud_generate_disk(1.1, 0.8, 2_000, seed=17)
        path = tmp_path / "cloud.json"
        dump_cloud(cloud, path)
        again = load_cloud(path)
        a = cloud_analyze(cloud)
        b = cloud_analyze(again)
        assert a.pair.lambda_max == b.pair.lambda_max
        assert a.capacity.value == b.capacity.value
        assert np.array_equal(a.x_variances, b.x_variances)


class TestDiskDemo:
    def test_variance_flags(self):
        report = disk_demo(2.0, 1.0, n_samples=100_000, seed=5)
        assert report.measured_matches_uniform
        assert not report.measured_matches_quoted  # pi Rx^2/4 is off by pi
        assert report.analysis.pair.is_pair
        assert report.pair_expected

    def test_failing_pair(self):
        report = disk_demo(0.5, 1.0, n_samples=20_000, seed=6)
        assert not report.analysis.pair.is_pair
        assert not report.pair_expected

    def test_verdict_flip_near_threshold(self):
        # The fitted radii track the true radii to O(1/N), so the verdict
        # flips within a 2% window around rx * rp = hbar.
        n = 100_000
        assert not disk_demo(0.98, 1.0, n, seed=8).analysis.pair.is_pair
        assert disk_demo(1.02, 1.0, n, seed=8).analysis.pair.is_pair

    @pytest.mark.parametrize("args, fields", DISK_DEMO_CASES)
    def test_consistent_reads_the_pair_and_the_variance(self, args, fields):
        # The demo's verdict: the pair verdict agrees with rx * rp >= hbar, and the
        # variance is within 4% of rx^2/4; each failure alone makes it inconsistent.
        report = disk_demo(*args)
        assert (report.analysis.pair.is_pair, report.pair_expected, report.measured_matches_uniform) == fields
        assert report.consistent is (fields[0] == fields[1] and fields[2])


class TestSections:
    def test_unit_disk_polyline_area(self):
        text = emit_section_plot(Ellipsoid.ball(2), (0, 1))
        lines = text.splitlines()
        area = float(next(l for l in lines if l.startswith("# area")).split(":")[1])
        assert area == pytest.approx(np.pi, abs=1e-3)
        pts = [l for l in lines if not l.startswith("#")]
        assert len(pts) == 257  # 256 distinct + closing repeat
        assert pts[0] == pts[-1]

    def test_covariance_ellipse_radius_sqrt2(self):
        # Sigma = I (n=1): region |z|^2/2 <= 1 is the radius-sqrt(2) disk.
        from qpolar.quantum import covariance_ellipsoid

        ell = covariance_ellipsoid(np.eye(2))
        poly = section_polygon(ell, (0, 1))
        radii = np.linalg.norm(poly, axis=1)
        assert radii == pytest.approx(np.sqrt(2.0) * np.ones(len(poly)), rel=1e-9)
        text = emit_section_plot(ell, (0, 1))
        area = float(next(l for l in text.splitlines() if l.startswith("# area")).split(":")[1])
        assert area == pytest.approx(2 * np.pi, abs=2 * np.pi * 1e-3)

    def test_box_section_four_vertices(self):
        box = HPolytope.box([2.0, 1.0, 3.0])
        poly = section_polygon(box, (0, 2))
        assert poly.shape == (4, 2)
        assert sorted(np.abs(poly[:, 0])) == pytest.approx([2.0] * 4)
        assert sorted(np.abs(poly[:, 1])) == pytest.approx([3.0] * 4)

    def test_product_conjugate_plane_rectangle(self):
        x = HPolytope([[0.5]])          # [-2, 2]
        p = HPolytope([[1.0 / 3.0]])    # [-3, 3]
        text = emit_section_plot((x, p), (0, 1))
        area = float(next(l for l in text.splitlines() if l.startswith("# area")).split(":")[1])
        assert area == pytest.approx(24.0, rel=1e-12)

    def test_vpolytope_section(self):
        from qpolar.bodies import VPolytope

        octa = VPolytope(np.eye(3))
        poly = section_polygon(octa, (0, 1))
        # Section of the octahedron by the z=0 plane is the unit cross-polytope.
        assert poly.shape == (4, 2)
        assert np.max(np.abs(np.linalg.norm(poly, axis=1) - 1.0)) < 1e-9

    @pytest.mark.parametrize("n", [3, 5])
    def test_cube_from_vertices_matches_box(self, n):
        from qpolar.bodies import VPolytope

        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=n))) * np.arange(1.0, n + 1)
        box = HPolytope.box(np.arange(1.0, n + 1))
        for plane in [(0, 1), (n - 1, 1)]:
            assert emit_section_plot(VPolytope(corners), plane) == emit_section_plot(box, plane)

    def test_vpolytope_sections_above_enumeration_cap(self):
        # The 9-D cross-polytope's unit polar is the box, 512 vertices within the
        # budget: its section is the unit diamond, in a single body and in a
        # momentum plane of X x P.
        from qpolar.bodies import VPolytope

        cross = VPolytope(np.eye(9))
        diamond = "# area: 2\n# points: 4\n0 -1\n1 0\n0 1\n-1 0\n0 -1\n"
        assert emit_section_plot(cross, (0, 3)) == "# section: section\n# plane: 0 3\n" + diamond
        assert emit_section_plot((cross, cross), (9, 12)) == "# section: section\n# plane: 9 12\n" + diamond

    def test_cube_from_vertices_above_the_budget_is_undecided(self):
        # The 9-cube given by its 512 vertices: its unit polar has 512 rows, with
        # McMullen's bound far above the vertex budget, so the section is refused
        # before Qhull starts (an enumeration that ran for over a minute).
        from qpolar.bodies import VPolytope
        from qpolar.errors import UndecidedError

        corners = VPolytope(np.array(list(itertools.product([-1.0, 1.0], repeat=9))))
        with pytest.raises(UndecidedError, match="budget"):
            section_polygon(corners, (0, 1))

    def test_polygon_is_not_charged_against_the_budget(self, monkeypatch):
        # Only the n-dim enumeration is budgeted: with a budget of 12, the polar
        # of conv{+-v_j} (4 rows at n = 3, at most 12 vertices) is enumerated,
        # and the polygon of its 8 restricted rows (bound 16 > 12) is not refused.
        import qpolar.bodies
        from qpolar.bodies import VPolytope, polar_dual

        body = VPolytope(np.random.default_rng(316).standard_normal((4, 3)))
        expected = section_polygon(body, (0, 2))
        monkeypatch.setattr(qpolar.bodies, "VERTEX_BUDGET", 12)
        assert len(qpolar.bodies.hpolytope_vertices(polar_dual(body))) == 8
        assert np.array_equal(section_polygon(body, (0, 2)), expected)

    def test_invalid_plane(self):
        with pytest.raises(IndexError):
            section_polygon(Ellipsoid.ball(2), (0, 0))
        with pytest.raises(IndexError):
            section_polygon(Ellipsoid.ball(2), (0, 5))

    @pytest.mark.parametrize("halfwidths", [[1e20, 1e20], [1e-10, 1e-24, 1.0], [1e170, 1e170, 1e-170]],
                             ids=["huge", "mixed-scale", "squares-underflow"])
    def test_plane_rows_are_tested_against_their_own_scale(self, halfwidths):
        # Each row is kept unless its plane part is negligible next to its own largest
        # entry, so a bounded body's section is drawn at any scale, with exact corners.
        a, b = halfwidths[:2]
        poly = section_polygon(HPolytope.box(halfwidths), (0, 1))
        assert sorted(map(tuple, poly)) == sorted((sa * a, sb * b) for sa in (1, -1) for sb in (1, -1))

    def test_huge_cross_polytope_section(self):
        # Its 8 plane rows (+-1e-15, +-1e-15) go to Qhull, which places the corners to 1 ulp.
        poly = section_polygon(VPolytope(1e15 * np.eye(3)), (0, 1))
        diamond = 1e15 * np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(poly, diamond, rtol=0, atol=1e15 * 2 * np.finfo(float).eps)

    def test_product_section_axes_follow_the_plane_order(self):
        x, p = HPolytope.box([1.0, 2.0]), HPolytope.box([3.0, 5.0])
        extents = {(1, 0): [2.0, 1.0], (2, 0): [3.0, 1.0], (3, 2): [5.0, 3.0],
                   (0, 1): [1.0, 2.0], (0, 2): [1.0, 3.0], (2, 3): [3.0, 5.0]}
        for plane, extent in extents.items():
            assert np.abs(product_section_rectangle(x, p, plane)).max(axis=0).tolist() == extent

    @pytest.mark.parametrize("make", [random_ellipsoid, random_hpolytope, random_vpolytope], ids=["E", "H", "V"])
    @pytest.mark.parametrize("plane", [(0, 2), (3, 5), (1, 4), (5, 0)], ids=["x-x", "p-p", "x-p", "p-x"])
    def test_reversed_plane_swaps_the_columns(self, make, plane, rng):
        # The same point set with its columns swapped, to rounding: a polygon's vertices, or
        # an ellipse's samples (the sample angles are symmetric under the swap).
        x, p = make(3, rng), make(3, rng)
        forward = product_section_rectangle(x, p, plane)
        swapped = product_section_rectangle(x, p, plane[::-1])[:, ::-1]
        gaps = np.linalg.norm(forward[:, None] - swapped[None], axis=2)
        assert len(forward) == len(swapped)
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-13 * np.abs(forward).max()

    def test_conjugate_plane_corners_are_the_axis_sections(self, rng):
        # The box of 1/g_x and 1/g_p, g_k the factor's gauge at its axis, bit for bit.
        makers = [random_ellipsoid, random_hpolytope, random_vpolytope]
        checked = 0
        for n, _ in itertools.product((1, 2, 3), range(4)):
            axes = np.eye(n)
            for make_x, make_p in itertools.product(makers, repeat=2):
                x, p = make_x(n, rng), make_p(n, rng)
                for i, j in itertools.product(range(n), range(n, 2 * n)):
                    a, b = 1.0 / gauge(x, axes[i]), 1.0 / gauge(p, axes[j - n])
                    expected = _order_by_angle(np.array([[a, b], [-a, b], [-a, -b], [a, -b]]))
                    assert product_section_rectangle(x, p, (i, j)).tobytes() == expected.tobytes()
                    checked += 1
        assert checked == 4 * 9 * (1 + 4 + 9)


@pytest.mark.parametrize("plane, error, message", [
    ((0, 1), DimensionError, "dimension mismatch: X is 2-dim, P is 3-dim"),
    ((1, 1), IndexError, "plane indices must be distinct and within 0..3, got (1, 1)"),
    ((0, 4), IndexError, "plane indices must be distinct and within 0..3, got (0, 4)"),
    ((-1, 2), IndexError, "plane indices must be distinct and within 0..3, got (-1, 2)"),
], ids=["dimension-mismatch", "same-index", "index-past-2n", "negative-index"])
def test_product_section_input_checks(plane, error, message):
    p = Ellipsoid.ball(3 if error is DimensionError else 2)
    assert_raises_exactly(lambda: product_section_rectangle(Ellipsoid.ball(2), p, plane), error, message)
