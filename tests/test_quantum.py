import inspect
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpolar
from qpolar.bodies import DEFAULT_TOL, Ellipsoid, _accepts, inclusion_scale
from qpolar.capacities import ellipsoid_capacity, product_capacity
from qpolar.errors import (
    DimensionError,
    InvalidCovarianceError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)
from qpolar.hardy import HardyInput, hardy_check
from qpolar.polarity import is_quantum_pair
from qpolar.quantum import (
    CovarianceMatrix,
    capacity_criterion,
    covariance_ellipsoid,
    heisenberg_eigen_check,
    is_quantum_covariance,
    project_xp,
    random_quantum_covariance,
    rs_check,
    theorem2_check,
)
from qpolar.symplectic import block_diagonalize, random_symplectic, symplectic_eigenvalues

from conftest import assert_raises_exactly, covariance_with_spectrum, random_spd


def mixed_covariance_samples(count, rng, max_n=3):
    """Symmetric PD matrices straddling the hbar/2 validity threshold."""
    out = []
    for i in range(count):
        n = 1 + i % max_n
        kind = i % 3
        if kind == 0:
            out.append(random_quantum_covariance(n, 1000 + i, slack=float(rng.uniform(0, 1))).sigma)
        elif kind == 1:
            # Shrunk valid state: usually invalid.
            base = random_quantum_covariance(n, 2000 + i, slack=0.0).sigma
            out.append(float(rng.uniform(0.2, 0.95)) * base)
        else:
            out.append(random_spd(2 * n, rng, cond=20.0) * float(rng.uniform(0.1, 2.0)))
    return out


class TestCovarianceMatrix:
    def test_blocks(self):
        s = np.arange(16.0).reshape(4, 4)
        s = 0.5 * (s + s.T)
        cov = CovarianceMatrix(s)
        assert cov.n == 2
        assert np.allclose(cov.dxx, s[:2, :2])
        assert np.allclose(cov.dxp, s[:2, 2:])
        assert np.allclose(cov.dpp, s[2:, 2:])

    def test_rejects_odd_and_asymmetric(self):
        with pytest.raises(DimensionError):
            CovarianceMatrix(np.eye(3))
        with pytest.raises(NotSymmetricError):
            CovarianceMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_carries_its_cholesky_factor(self, rng):
        sigma = random_quantum_covariance(3, seed=4, slack=0.2).sigma
        cov = CovarianceMatrix(sigma)
        assert np.array_equal(cov.factor, np.linalg.cholesky(cov.sigma))
        assert not cov.factor.flags.writeable
        # States compare by identity: equal matrices are distinct states, and nothing raises.
        assert cov == cov and (cov == CovarianceMatrix(sigma)) is False
        assert "factor" not in repr(cov)

    @pytest.mark.parametrize("diag", [[1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 1.0]])
    def test_factor_is_none_without_positive_definiteness(self, diag):
        assert CovarianceMatrix(np.diag(diag)).factor is None


class TestIsQuantumCovariance:
    def test_identity_is_valid(self):
        assert is_quantum_covariance(np.eye(2), hbar=1.0)

    def test_boundary_isotropic(self):
        for n in (1, 2, 3):
            assert is_quantum_covariance(0.5 * np.eye(2 * n), hbar=1.0)

    def test_squeezed_below_threshold(self):
        assert not is_quantum_covariance(np.diag([0.25, 0.25]), hbar=1.0)

    def test_hermitian_eigenvalue_oracle(self):
        # Sigma = I at hbar=1: eigenvalues of I + (i/2)J are 1 +- 1/2.
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        herm = np.eye(2) + 0.5j * j
        assert np.linalg.eigvalsh(herm) == pytest.approx([0.5, 1.5])
        assert is_quantum_covariance(np.eye(2))

    def test_equivalence_triangle(self, rng):
        for sigma in mixed_covariance_samples(500, rng):
            hbar = 1.0
            sigpos = is_quantum_covariance(sigma, hbar)
            spect = bool(symplectic_eigenvalues(sigma)[0] >= 0.5 * hbar * (1 - 1e-9))
            cap = capacity_criterion(sigma, hbar)
            assert sigpos == spect == cap

    def test_hbar_dependence(self):
        s = np.diag([0.4, 0.4])
        assert is_quantum_covariance(s, hbar=0.5)
        assert not is_quantum_covariance(s, hbar=1.0)


def test_raw_array_and_covariance_matrix_give_one_verdict(rng):
    samples = mixed_covariance_samples(60, rng) + [np.diag([1.0, -1.0]), np.diag([0.5, 0.0, 0.5, 0.5])]
    for sigma in samples:
        for hbar in (0.5, 1.0, 2.0):
            assert is_quantum_covariance(sigma, hbar) == is_quantum_covariance(CovarianceMatrix(sigma), hbar)


@pytest.mark.parametrize("diag", [[1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 1.0]])
def test_not_positive_definite_stays_invalid_on_every_call(diag):
    cov = CovarianceMatrix(np.diag(diag))
    for _ in range(3):
        assert not is_quantum_covariance(cov)
        assert not capacity_criterion(cov)
        with pytest.raises(InvalidCovarianceError):
            theorem2_check(cov)


def test_sigma_is_factored_once(monkeypatch):
    # CovarianceMatrix factors Sigma; is_quantum_covariance, the validity gate of
    # theorem2_check and its projection pair read that factor (its leading block is the
    # factor of Delta(x,x)). Only Delta(p,p) is factored again.
    sigma = random_quantum_covariance(2, seed=8, slack=0.3).sigma
    seen = []
    cholesky = np.linalg.cholesky

    def recording(a):
        seen.append(np.array(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    cov = CovarianceMatrix(sigma)
    assert is_quantum_covariance(cov)
    assert theorem2_check(cov).is_pair
    assert [a.shape for a in seen] == [(4, 4), (2, 2)]
    assert np.array_equal(seen[0], cov.sigma) and np.array_equal(seen[1], cov.dpp)


def test_valid_state_factorization_budget(linalg_calls):
    # The benchmark's covariance bundle on one valid n = 3 state: Sigma, Delta(x,x) and
    # Delta(p,p) are factored once per verdict that needs them, and no block twice inside one.
    sigma = covariance_with_spectrum(np.array([0.6, 0.9, 1.7]), np.random.default_rng(31))
    calls = linalg_calls("cholesky", "inv", "solve")
    cov = CovarianceMatrix(sigma)
    assert is_quantum_covariance(cov)
    rs_check(cov)
    assert capacity_criterion(cov)
    symplectic_eigenvalues(cov.sigma)
    assert theorem2_check(cov).is_pair
    assert hardy_check(HardyInput(cov.dxx, cov.dpp)).classification == "hermite_subcritical"
    assert all(heisenberg_eigen_check(cov.dxx, cov.dpp))
    block_diagonalize(cov.dxx, cov.dpp)
    assert calls["cholesky"] <= 10 and calls["inv"] <= 5 and calls["solve"] <= 1, calls


def _conditioned_covariance(n, log_cond, hbar, rng):
    """A valid Sigma = M diag(nu, nu) M^T with a spread Williamson spectrum nu >= hbar/2 and
    M = diag(L^T, L^-1) S, where L has singular values up to 10^(log_cond/4) and S is a
    random symplectic matrix, so cond(Sigma) reaches about 10^log_cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    l = (q1 * np.geomspace(1.0, 10.0 ** (log_cond / 4), n)) @ q2.T
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n], m[n:, n:] = l.T, np.linalg.inv(l)
    m = m @ random_symplectic(n, rng)
    nu = 0.5 * hbar * np.sort(1.0 + rng.uniform(0.0, 3.0, n))
    sigma = m @ np.diag(np.concatenate([nu, nu])) @ m.T
    return 0.5 * (sigma + sigma.T)


def test_projection_scales_match_a_60_digit_oracle():
    # theorem2_check reads lambda off Sigma's factor, and hardy_check builds its pair from
    # the blocks' own factors; both must give 2 sqrt(eig_min(A B)) / hbar, A = Delta(x,x),
    # B = Delta(p,p), computed here in 60 digits from the same float blocks.
    conds = []
    for seed in range(60):
        rng = np.random.default_rng([19, seed])
        n, hbar = 1 + seed % 3, 10.0 ** rng.uniform(-3.0, 3.0)
        cov = CovarianceMatrix(_conditioned_covariance(n, 7.5 * seed / 59, hbar, rng))
        conds.append(np.linalg.cond(cov.sigma))
        with mpmath.workdps(60):
            c = mpmath.cholesky(mpmath.matrix(cov.dxx.tolist()))
            eigs = mpmath.eigsy(c.T * mpmath.matrix(cov.dpp.tolist()) * c, eigvals_only=True)
            exact = float(2 * mpmath.sqrt(min(eigs)) / hbar)
        lam = theorem2_check(cov, hbar).lambda_max
        pair = hardy_check(HardyInput(cov.dxx, cov.dpp), hbar).pair
        assert abs(lam - exact) <= 1e-10 * exact
        assert abs(inclusion_scale(*pair, hbar) - exact) <= 1e-10 * exact
    assert 1e7 < max(conds) < 1e9


def test_hardy_check_does_not_validate_its_input_again(monkeypatch):
    # HardyInput symmetrizes its blocks once; hardy_check reads them as they are.
    seen = []
    check = sys.modules["qpolar.symplectic"].require_symmetric

    def recording(s):
        seen.append(s)
        return check(s)

    for name, module in list(sys.modules.items()):
        if name.startswith("qpolar") and getattr(module, "require_symmetric", None) is check:
            monkeypatch.setattr(module, "require_symmetric", recording)
    inp = HardyInput(np.diag([0.5, 2.0]), np.diag([0.5, 1.0]))
    assert len(seen) == 2
    seen.clear()
    assert hardy_check(inp).classification == "hermite_subcritical"
    assert seen == []
    heisenberg_eigen_check(inp.a, inp.b)
    assert len(seen) == 2


class TestToleranceBand:
    """States within a few tol of nu_min = hbar/2, where every route must still agree."""

    @pytest.mark.parametrize("hbar", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_routes_agree_on_band(self, n, hbar, rng):
        for k in (2, 10):
            for sign in (1, -1):
                for _ in range(5):
                    nu_min = 0.5 * hbar * (1 + sign * k * DEFAULT_TOL)
                    upper = 0.5 * hbar * (1 + rng.uniform(0.05, 3.0, n - 1))
                    sigma = covariance_with_spectrum(np.concatenate([[nu_min], upper]), rng)
                    valid = is_quantum_covariance(sigma, hbar)
                    williamson = _accepts(2 * symplectic_eigenvalues(sigma)[0] / hbar, DEFAULT_TOL)
                    assert valid == capacity_criterion(sigma, hbar) == williamson == (sign > 0)
                    if n == 1:
                        assert rs_check(sigma, hbar) == [valid]

    @given(n=st.integers(1, 3), hbar=st.sampled_from([1e-3, 1.0, 1e3]), k=st.sampled_from([2, 10, 100]),
           sign=st.sampled_from([-1, 1]), spread=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_triangle_agrees_on_band_property(self, n, hbar, k, sign, spread, seed):
        nu = 0.5 * hbar * np.concatenate([[1 + sign * k * DEFAULT_TOL], 1 + np.array(spread[: n - 1])])
        sigma = covariance_with_spectrum(nu, np.random.default_rng(seed))
        williamson = _accepts(2 * symplectic_eigenvalues(sigma)[0] / hbar, DEFAULT_TOL)
        assert is_quantum_covariance(sigma, hbar) == capacity_criterion(sigma, hbar) == williamson == (sign > 0)

    def test_rs_relative_violation_at_small_hbar(self):
        # One mode at hbar = 1e-3 with det = (hbar^2 / 4)(1 - 1e-4), correlated.
        hbar = 1e-3
        dx2, dp2 = 1e-3, 5e-4
        cv = np.sqrt(dx2 * dp2 - 0.25 * hbar**2 * (1 - 1e-4))
        sigma = np.array([[dx2, cv], [cv, dp2]])
        assert rs_check(sigma, hbar) == [False]
        assert not is_quantum_covariance(sigma, hbar)
        assert not capacity_criterion(sigma, hbar)


class TestRSCheck:
    def test_identity(self):
        assert rs_check(np.eye(2), hbar=1.0) == [True]

    def test_squeezed(self):
        assert rs_check(np.diag([0.4, 0.4]), hbar=1.0) == [False]

    def test_per_mode(self):
        s = np.diag([1.0, 0.1, 1.0, 0.1])
        assert rs_check(s, hbar=1.0) == [True, False]

    def test_boundary_counts_as_valid(self):
        assert rs_check(0.5 * np.eye(2), hbar=1.0) == [True]

    def test_negative_variances_fail(self):
        # (Dx)^2 (Dp)^2 = (-1)(-1) = 1 is no uncertainty product: the variances are not positive.
        assert rs_check(-np.eye(2), hbar=1.0) == [False]
        assert rs_check(np.diag([1.0, -1.0, 1.0, -1.0]), hbar=1.0) == [True, False]
        assert rs_check(np.diag([-1.0, 1.0]), hbar=1.0) == [False]

    def test_covariance_term(self):
        # (Dx)^2 (Dp)^2 = 1, Delta(x,p)^2 = 0.81: 1 >= 0.81 + 0.25 fails.
        s = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert rs_check(s, hbar=1.0) == [False]
        assert rs_check(s, hbar=0.5) == [True]

    def test_diagonal_equivalence_with_sigpos(self, rng):
        # With Delta(x,p) = 0 the RS system is exactly the validity criterion.
        for _ in range(100):
            n = int(rng.integers(1, 4))
            dx = rng.uniform(0.2, 1.5, size=n)
            dp = rng.uniform(0.2, 1.5, size=n)
            s = np.diag(np.concatenate([dx, dp]))
            assert all(rs_check(s)) == is_quantum_covariance(s)

    def test_validity_implies_rs(self, rng):
        for i in range(100):
            n = int(rng.integers(1, 4))
            cov = random_quantum_covariance(n, 300 + i, slack=float(rng.uniform(0, 0.5)))
            assert all(rs_check(cov))


class TestCovarianceEllipsoid:
    def test_identity_gives_radius_sqrt2(self):
        ell = covariance_ellipsoid(np.eye(2))
        assert np.allclose(ell.matrix, 0.5 * np.eye(2))

    def test_capacity_boundary(self):
        ell = covariance_ellipsoid(0.5 * np.eye(2))
        assert ellipsoid_capacity(ell) == pytest.approx(np.pi)

    def test_n1_explicit_form(self, rng):
        # Against the explicit 2x2 inverse with discriminant D.
        for _ in range(20):
            dx2, dp2 = rng.uniform(0.5, 2.0, size=2)
            cv = rng.uniform(-0.5, 0.5) * np.sqrt(dx2 * dp2)
            s = np.array([[dx2, cv], [cv, dp2]])
            d = dx2 * dp2 - cv**2
            expected = np.array([[dp2, -cv], [-cv, dx2]]) / (2 * d)
            assert np.allclose(covariance_ellipsoid(s).matrix, expected, atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            covariance_ellipsoid(np.diag([1.0, 0.0]))


class TestCapacityCriterion:
    def test_boundary(self):
        assert capacity_criterion(0.5 * np.eye(2), hbar=1.0)

    def test_with_margin(self):
        assert capacity_criterion(np.eye(2), hbar=1.0)

    def test_squeezed_fails(self):
        assert not capacity_criterion(np.diag([0.25, 0.25]), hbar=1.0)

    @pytest.mark.parametrize("diag", [[1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 1.0]])
    def test_not_positive_definite_fails(self, diag):
        # No covariance ellipsoid: False, as is_quantum_covariance answers.
        assert not capacity_criterion(np.diag(diag))
        assert not is_quantum_covariance(np.diag(diag))

    def test_capacity_value_scaling(self):
        cap = ellipsoid_capacity(covariance_ellipsoid(2 * 0.5 * np.eye(2)))
        assert cap == pytest.approx(2 * np.pi)


class TestProjections:
    def test_diagonal_intervals(self):
        s = np.diag([2.0, 0.5])
        x, p = project_xp(s)
        # Halfwidths sqrt(2 * sigma^2).
        assert 1.0 / np.sqrt(x.matrix[0, 0]) == pytest.approx(2.0)
        assert 1.0 / np.sqrt(p.matrix[0, 0]) == pytest.approx(1.0)

    def test_isotropic_n2(self):
        x, p = project_xp(np.eye(4))
        assert np.allclose(x.matrix, 0.5 * np.eye(2))
        assert np.allclose(p.matrix, 0.5 * np.eye(2))

    def test_off_diagonal_block_ignored(self, rng):
        a = random_spd(2, rng)
        b = random_spd(2, rng)
        c = 0.1 * rng.standard_normal((2, 2))
        s = np.block([[a, c], [c.T, b]])
        x1, p1 = project_xp(s)
        x2, p2 = project_xp(np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]]))
        assert np.allclose(x1.matrix, x2.matrix)
        assert np.allclose(p1.matrix, p2.matrix)


class TestProjectionPairCheck:
    def test_minimal_state_equality(self):
        verdict = theorem2_check(0.5 * np.eye(2), hbar=1.0)
        assert verdict.is_pair
        assert verdict.lambda_max == pytest.approx(1.0, rel=1e-12)

    def test_identity_state(self):
        verdict = theorem2_check(np.eye(2), hbar=1.0)
        assert verdict.is_pair
        assert verdict.lambda_max == pytest.approx(2.0, rel=1e-12)

    def test_invalid_input_rejected(self):
        with pytest.raises(InvalidCovarianceError):
            theorem2_check(np.diag([0.25, 0.25]), hbar=1.0)

    def test_random_valid_states_always_pair(self, rng):
        for i in range(100):
            n = int(rng.integers(1, 5))
            slack = float(rng.choice([0.0, 0.3, 1.0]))
            hbar = float(rng.uniform(0.5, 2.0))
            cov = random_quantum_covariance(n, 400 + i, hbar=hbar, slack=slack)
            verdict = theorem2_check(cov, hbar=hbar)
            assert verdict.is_pair
            report = product_capacity(*project_xp(cov), hbar=hbar)
            assert report.value >= 4 * hbar * (1 - 1e-9)


class TestHeisenbergEigenCheck:
    def test_boundary_all_true(self):
        a = 0.5 * np.eye(2)
        assert heisenberg_eigen_check(a, a, hbar=1.0) == [True, True]

    def test_mixed_modes(self):
        # eig(AB) = {1, 0.1}; flags follow the ascending eigenvalue order.
        a = np.eye(2)
        b = np.diag([1.0, 0.1])
        assert heisenberg_eigen_check(a, b, hbar=1.0) == [False, True]

    def test_crossed_diagonal(self):
        assert heisenberg_eigen_check(np.diag([4.0, 1.0]), np.diag([1.0, 4.0])) == [True, True]

    def test_non_spd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            heisenberg_eigen_check(np.diag([1.0, -1.0]), np.eye(2))

    def test_matches_pair_verdict(self, rng):
        def check(a, b, hbar):
            flags = heisenberg_eigen_check(a, b, hbar)
            x = Ellipsoid(np.linalg.inv(a) / 2)
            p = Ellipsoid(np.linalg.inv(b) / 2)
            assert all(flags) == is_quantum_pair(x, p, hbar).is_pair

        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = random_spd(n, rng, cond=10.0) * float(rng.uniform(0.3, 1.5))
            b = random_spd(n, rng, cond=10.0) * float(rng.uniform(0.3, 1.5))
            check(a, b, float(rng.uniform(0.5, 2.0)))
        # Spread spectrum: the smallest eigenvalue misses hbar^2/4 by 1e-5 relative.
        check(np.diag([0.25 * (1 - 1e-5), 1e4]), np.eye(2), 1.0)


def test_spd_pair_routes_agree():
    # hardy_check, block_diagonalize and the unsymmetric product A B give one spectrum.
    rng = np.random.default_rng(909)
    for trial in range(100):
        n = 1 + trial % 6
        a = random_spd(n, rng)
        b = random_spd(n, rng)
        expected = np.sort(np.linalg.eigvals(a @ b).real)
        assert hardy_check(HardyInput(a, b)).eigenvalues == pytest.approx(expected, rel=1e-12)
        assert np.diag(block_diagonalize(a, b)[1]) ** 2 == pytest.approx(expected, rel=1e-12)


class TestHardyCheck:
    def test_gaussian_boundary(self):
        inp = HardyInput(0.5 * np.eye(1), 0.5 * np.eye(1))
        assert hardy_check(inp, hbar=1.0).classification == "gaussian_boundary"

    def test_hermite_subcritical(self):
        inp = HardyInput(np.eye(1), np.eye(1))
        verdict = hardy_check(inp, hbar=1.0)
        assert verdict.classification == "hermite_subcritical"
        assert verdict.eigenvalues == pytest.approx([1.0])

    def test_violates(self):
        inp = HardyInput(0.1 * np.eye(1), 0.1 * np.eye(1))
        assert hardy_check(inp, hbar=1.0).classification == "violates"

    def test_pair_matches_classification(self, rng):
        def check(a, b):
            verdict = hardy_check(HardyInput(a, b), hbar=1.0)
            pair_ok = is_quantum_pair(*verdict.pair, 1.0).is_pair
            assert (verdict.classification != "violates") == pair_ok

        for _ in range(100):
            n = int(rng.integers(1, 4))
            a = random_spd(n, rng, cond=10.0) * float(rng.uniform(0.3, 1.2))
            b = random_spd(n, rng, cond=10.0) * float(rng.uniform(0.3, 1.2))
            check(a, b)
        check(np.diag([0.25 * (1 - 1e-5), 1e4]), np.eye(2))

    def test_boundary_classification_iff_unit_scale_n1(self, rng):
        # One degree of freedom: gaussian_boundary iff the induced pair touches.
        for _ in range(50):
            a = float(rng.uniform(0.2, 1.5))
            b = float(rng.uniform(0.2, 1.5))
            verdict = hardy_check(HardyInput([[a]], [[b]]), hbar=1.0)
            lam = inclusion_scale(*verdict.pair, 1.0)
            assert (verdict.classification == "gaussian_boundary") == (abs(lam - 1) <= 1e-9)

    def test_boundary_implies_unit_scale_any_n(self, rng):
        for i in range(20):
            n = int(rng.integers(1, 4))
            a = random_spd(n, rng, cond=5.0)
            b = np.linalg.inv(a) / 4.0  # AB = I/4: exact boundary
            verdict = hardy_check(HardyInput(a, b), hbar=1.0)
            assert verdict.classification == "gaussian_boundary"
            assert inclusion_scale(*verdict.pair, 1.0) == pytest.approx(1.0, rel=1e-9)


def _hbar_calls():
    grid = np.linspace(-8.0, 8.0, 64, endpoint=False)
    psi = np.exp(-grid**2 / 4)
    ball, interval, eye = Ellipsoid.ball(2), Ellipsoid.ball(1), np.eye(2)
    return {
        "polar_dual": lambda h: qpolar.polar_dual(ball, h),
        "inclusion_scale": lambda h: qpolar.inclusion_scale(ball, ball, h),
        "is_quantum_pair": lambda h: qpolar.is_quantum_pair(ball, ball, h),
        "product_capacity": lambda h: qpolar.product_capacity(ball, ball, h),
        "is_quantum_covariance": lambda h: qpolar.is_quantum_covariance(eye, h),
        "rs_check": lambda h: qpolar.rs_check(eye, h),
        "capacity_criterion": lambda h: qpolar.capacity_criterion(eye, h),
        "theorem2_check": lambda h: qpolar.theorem2_check(eye, h),
        "heisenberg_eigen_check": lambda h: qpolar.heisenberg_eigen_check(eye, eye, h),
        "hardy_check": lambda h: qpolar.hardy_check(HardyInput(eye, eye), h),
        "random_quantum_covariance": lambda h: qpolar.random_quantum_covariance(1, 0, hbar=h),
        "hbar_fourier_1d": lambda h: qpolar.hbar_fourier_1d(psi, grid, h),
        "hardy_envelope_verify": lambda h: qpolar.hardy_envelope_verify(psi, grid, 1.0, 1.0, h),
        "minkowski_envelope_experiment":
            lambda h: qpolar.minkowski_envelope_experiment(psi, grid, interval, interval, h),
        "cloud_analyze": lambda h: qpolar.cloud_analyze(qpolar.cloud_generate_disk(1.0, 1.0, 50, 0), h),
        "disk_demo": lambda h: qpolar.disk_demo(1.0, 1.0, 50, 0, h),
    }


def test_hbar_calls_cover_every_public_function():
    public = (getattr(qpolar, name) for name in qpolar.__all__)
    takes_hbar = {f.__name__ for f in public if inspect.isfunction(f) and "hbar" in inspect.signature(f).parameters}
    assert takes_hbar == set(_hbar_calls())


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(_hbar_calls()))
def test_bad_hbar_rejected(name, hbar):
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        _hbar_calls()[name](hbar)


class TestRandomQuantumCovariance:
    def test_boundary_spectrum(self):
        cov = random_quantum_covariance(1, seed=5, slack=0.0)
        assert symplectic_eigenvalues(cov.sigma) == pytest.approx([0.5], rel=1e-10)

    def test_uniform_slack_spectrum(self):
        cov = random_quantum_covariance(3, seed=6, hbar=1.0, slack=1.0)
        assert symplectic_eigenvalues(cov.sigma) == pytest.approx([1.0] * 3, rel=1e-10)

    def test_reproducible(self):
        a = random_quantum_covariance(2, seed=42, slack=0.25)
        b = random_quantum_covariance(2, seed=42, slack=0.25)
        assert np.array_equal(a.sigma, b.sigma)

    def test_always_valid(self, rng):
        for i in range(50):
            n = int(rng.integers(1, 5))
            hbar = float(rng.uniform(0.5, 2.0))
            cov = random_quantum_covariance(n, 700 + i, hbar=hbar, slack=float(rng.uniform(0, 2)))
            assert is_quantum_covariance(cov, hbar=hbar)


@pytest.mark.parametrize("call, error, message", [
    (lambda: random_quantum_covariance(0, 0), DimensionError, "need n >= 1 modes, got n=0"),
    (lambda: random_quantum_covariance(1, 0, slack=-0.5), ValueError, "slack must be nonnegative, got -0.5"),
], ids=["no-modes", "negative-slack"])
def test_input_checks(call, error, message):
    assert_raises_exactly(call, error, message)
