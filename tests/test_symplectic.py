import numpy as np
import pytest
from scipy.linalg import eigh

from qpolar.errors import (
    DimensionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)
from qpolar.bodies import Ellipsoid
from qpolar.hardy import HardyInput, hardy_check
from qpolar.quantum import CovarianceMatrix, heisenberg_eigen_check
from qpolar.symplectic import (
    _factor_pencil_eigenvalues,
    _spd_cholesky,
    block_diagonalize,
    is_symplectic,
    random_symplectic,
    require_symmetric,
    standard_symplectic_matrix,
    symplectic_eigenvalues,
    symplectic_form,
)

from conftest import assert_raises_exactly, covariance_with_spectrum, random_spd


class TestStandardForm:
    def test_n1_matrix(self):
        assert np.array_equal(standard_symplectic_matrix(1), [[0, 1], [-1, 0]])

    def test_n2_blocks(self):
        j = standard_symplectic_matrix(2)
        assert j.shape == (4, 4)
        assert np.array_equal(j[:2, 2:], np.eye(2))
        assert np.array_equal(j[2:, :2], -np.eye(2))
        assert np.array_equal(j[:2, :2], np.zeros((2, 2)))

    def test_j_squared_is_minus_identity(self):
        j = standard_symplectic_matrix(3)
        assert np.allclose(j @ j, -np.eye(6))
        assert np.array_equal(j.T, -j)

    def test_rejects_n0(self):
        with pytest.raises(DimensionError):
            standard_symplectic_matrix(0)

    def test_each_call_returns_a_fresh_writable_array(self):
        # The package computes with one cached, read-only J; callers get their own copy.
        j = standard_symplectic_matrix(2)
        assert j.flags.writeable
        j[0, 2] = 7.0
        assert standard_symplectic_matrix(2)[0, 2] == 1.0
        assert symplectic_form(np.eye(4)[0], np.eye(4)[2]) == -1.0


class TestRequireSymmetric:
    @pytest.mark.parametrize("make", [require_symmetric, CovarianceMatrix, Ellipsoid])
    def test_empty_matrix_is_a_dimension_error(self, make):
        with pytest.raises(DimensionError, match=r"expected a non-empty square matrix, got shape \(0, 0\)"):
            make(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, bad):
        s = np.eye(3)
        s[1, 2] = s[2, 1] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            require_symmetric(s)

    def test_symmetrizes_within_tolerance_and_rejects_beyond(self):
        s = np.array([[2.0, 1.0], [1.0 + 1e-11, 3.0]])
        assert np.array_equal(require_symmetric(s), [[2.0, 1.0 + 5e-12], [1.0 + 5e-12, 3.0]])
        with pytest.raises(NotSymmetricError, match="^matrix is not symmetric within tolerance$"):
            require_symmetric(np.array([[2.0, 1.0], [1.0 + 1e-9, 3.0]]))
        assert np.array_equal(require_symmetric(np.zeros((2, 2))), np.zeros((2, 2)))


class TestSymplecticForm:
    def test_basis_pair_sign(self):
        # sigma(e1, e2) = e2^T J e1 = -1 under J = [[0,1],[-1,0]]: J e1 = (0,-1).
        assert symplectic_form([1, 0], [0, 1]) == -1.0
        assert symplectic_form([0, 1], [1, 0]) == 1.0

    def test_antisymmetry_and_vanishing_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.standard_normal(6)
            zp = rng.standard_normal(6)
            assert symplectic_form(z, zp) == pytest.approx(-symplectic_form(zp, z), abs=1e-12)
            assert symplectic_form(z, z) == pytest.approx(0.0, abs=1e-12)

    def test_sign_convention_sigma_jz_z(self):
        # With this convention sigma(Jz, z) = -|z|^2 < 0 for z != 0.
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            z = rng.standard_normal(2 * n)
            jz = standard_symplectic_matrix(n) @ z
            assert symplectic_form(jz, z) == pytest.approx(-z @ z, rel=1e-12)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            symplectic_form([1, 0], [0, 1, 0])
        with pytest.raises(DimensionError):
            symplectic_form([1, 0, 1], [0, 1, 0])


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(2))

    def test_block_construction(self):
        l = np.diag([2.0])
        m = np.block([[l.T, np.zeros((1, 1))], [np.zeros((1, 1)), np.linalg.inv(l)]])
        assert is_symplectic(m)

    def test_uniform_scaling_is_not_symplectic(self):
        # M = 2I gives M^T J M = 4J != J.
        assert not is_symplectic(np.diag([2.0, 2.0]))

    def test_block_form_for_any_invertible_l(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(20):
                l = rng.standard_normal((n, n)) + 3 * np.eye(n)
                m = np.block(
                    [[l.T, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(l)]]
                )
                assert is_symplectic(m, tol=1e-8)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            is_symplectic(np.eye(3))

    def test_random_generator_output_is_symplectic(self):
        for seed in range(30):
            m = random_symplectic(1 + seed % 3, seed)
            assert is_symplectic(m, tol=1e-9)


class TestSymplecticEigenvalues:
    def test_diagonal_n1(self):
        # S = diag(sx^2, sp^2): J S has eigenvalues +-i sx sp.
        assert symplectic_eigenvalues(np.diag([1.0, 4.0])) == pytest.approx([2.0])
        assert symplectic_eigenvalues(np.diag([0.25, 1.0])) == pytest.approx([0.5])

    def test_isotropic(self):
        vals = symplectic_eigenvalues(0.5 * np.eye(4))
        assert vals == pytest.approx([0.5, 0.5])

    def test_matches_complex_eigenvalues_of_js(self, rng):
        from qpolar.symplectic import standard_symplectic_matrix

        for n in (1, 2, 3):
            s = random_spd(2 * n, rng)
            j = standard_symplectic_matrix(n)
            imag = np.sort(np.abs(np.linalg.eigvals(j @ s).imag))
            expected = imag[::2]  # each value doubled as +-i lam
            got = symplectic_eigenvalues(s)
            assert got == pytest.approx(expected, rel=1e-9)
            assert np.all(np.diff(got) >= -1e-12)

    def test_symplectic_invariance(self, rng):
        for n in (1, 2, 3):
            s = random_spd(2 * n, rng)
            base = symplectic_eigenvalues(s)
            for seed in range(5):
                m = random_symplectic(n, seed)
                assert symplectic_eigenvalues(m.T @ s @ m) == pytest.approx(base, rel=1e-8)

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(NotSymmetricError):
            symplectic_eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            symplectic_eigenvalues(np.diag([1.0, -1.0]))
        with pytest.raises(DimensionError):
            symplectic_eigenvalues(np.eye(3))


class TestBlockDiagonalize:
    def test_identity_pair(self):
        l, lam = block_diagonalize(np.eye(2), np.eye(2))
        assert np.allclose(lam, np.eye(2))
        assert np.allclose(l.T @ l, np.eye(2))

    def test_crossed_diagonal_pair(self):
        # eig(AB) = eig(diag(4,4)) = {4, 4}, so Lam = diag(2, 2).
        a = np.diag([4.0, 1.0])
        b = np.diag([1.0, 4.0])
        l, lam = block_diagonalize(a, b)
        assert np.allclose(lam, 2.0 * np.eye(2), atol=1e-10)
        l_inv = np.linalg.inv(l)
        assert np.max(np.abs(l.T @ a @ l - lam)) <= 1e-10
        assert np.max(np.abs(l_inv @ b @ l_inv.T - lam)) <= 1e-10

    def test_residuals_on_random_spd_pairs(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            n = 1 + trial % 3
            a = random_spd(n, rng)
            b = random_spd(n, rng)
            l, lam = block_diagonalize(a, b)
            l_inv = np.linalg.inv(l)
            scale = max(np.max(np.abs(lam)), 1.0)
            assert np.max(np.abs(l.T @ a @ l - lam)) <= 1e-8 * scale
            assert np.max(np.abs(l_inv @ b @ l_inv.T - lam)) <= 1e-8 * scale

    def test_lambda_matches_product_eigenvalues(self):
        rng = np.random.default_rng(202)
        for trial in range(50):
            n = 1 + trial % 3
            a = random_spd(n, rng)
            b = random_spd(n, rng)
            _, lam = block_diagonalize(a, b)
            expected = np.sqrt(np.sort(np.linalg.eigvals(a @ b).real))
            assert np.diag(lam) == pytest.approx(expected, rel=1e-10)

    def test_rejects_non_spd(self):
        for check in (block_diagonalize, heisenberg_eigen_check,
                      lambda a, b: hardy_check(HardyInput(a, b))):
            for bad in (np.diag([1.0, -1.0]), np.diag([0.0, 1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
                with pytest.raises(NotPositiveDefiniteError, match="^A is not positive definite"):
                    check(bad, np.eye(2))
                with pytest.raises(NotPositiveDefiniteError, match="^B is not positive definite"):
                    check(np.eye(2), bad)
            with pytest.raises(DimensionError):
                check(np.eye(2), np.eye(3))


def _pencil_eigenvalues(m, s):
    """Eigenvalues of M v = mu S v (M Hermitian, S SPD), ascending: those of C^{-1} M C^{-H}
    for S = C C^T, the Cholesky reduction LAPACK's generalized solver makes."""
    return _factor_pencil_eigenvalues(m, _spd_cholesky(s))


class TestPencilEigenvalues:
    """The Cholesky reduction agrees with LAPACK's generalized Hermitian solver."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_real_spd_pencils(self, n, rng):
        for cond in (1.0, 1e2, 1e4):
            for _ in range(10):
                a, b = random_spd(n, rng, cond), random_spd(n, rng, cond)
                ref = eigh(a, b, eigvals_only=True)
                assert np.max(np.abs(_pencil_eigenvalues(a, b) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ratio", np.logspace(-3, np.log10(5e17), 12))
    def test_covariance_pencil(self, ratio, rng):
        # (i hbar / 2) J relative to Sigma: eigenvalues +-hbar / (2 nu_j), nu / hbar = ratio.
        for n in (1, 2, 3):
            for hbar in (1e-3, 1.0, 1e3):
                nu = hbar * ratio * np.exp(rng.uniform(0.0, 1.0, size=n))
                m = 0.5j * hbar * standard_symplectic_matrix(n)
                sigma = covariance_with_spectrum(nu, rng)
                ref = eigh(m, sigma, eigvals_only=True)
                assert np.allclose(_pencil_eigenvalues(m, sigma), ref, rtol=1e-13, atol=0.0)

    def test_not_positive_definite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            _pencil_eigenvalues(np.eye(2), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: is_symplectic(np.zeros((2, 4))), DimensionError, "expected a square matrix, got shape (2, 4)"),
    (lambda: random_symplectic(0), DimensionError, "need n >= 1 modes, got n=0"),
], ids=["not-square", "no-modes"])
def test_input_checks(call, error, message):
    assert_raises_exactly(call, error, message)
