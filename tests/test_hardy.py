import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpolar.bodies import DEFAULT_TOL, HPolytope, VPolytope
from qpolar.errors import BoundaryDecayWarning, GridError, HardyInconsistencyWarning
from qpolar.hardy import (
    ENVELOPE_C_FACTOR,
    RELATIVE_FLOOR,
    _checked_samples,
    _envelope_fit,
    _transform_magnitudes,
    hardy_envelope_verify,
    hbar_fourier_1d,
    minkowski_envelope_experiment,
)

from conftest import assert_raises_exactly


def symmetric_grid(half_extent=20.0, n=1024):
    return np.linspace(-half_extent, half_extent, n, endpoint=False)


class TestTransform:
    def test_gaussian_maps_to_gaussian(self):
        # exp(-x^2/4) has sigma_x = 1; its transform is sqrt(2) exp(-p^2),
        # the envelope exp(-p^2 / 4 sigma_p^2) with sigma_p = 1/2.
        x = symmetric_grid()
        psi = np.exp(-x**2 / 4)
        p, psi_hat = hbar_fourier_1d(psi, x, 1.0)
        exact = np.sqrt(2.0) * np.exp(-p**2)
        mask = exact > 1e-6 * exact.max()
        assert np.max(np.abs(psi_hat[mask] - exact[mask]) / exact[mask]) < 1e-9
        assert np.max(np.abs(psi_hat.imag)) < 1e-12

    def test_unitarity_on_random_smooth_function(self):
        rng = np.random.default_rng(3)
        x = symmetric_grid()
        psi = np.zeros_like(x, dtype=complex)
        for _ in range(6):
            a = rng.uniform(0.3, 2.0)
            x0 = rng.uniform(-3, 3)
            phase = rng.uniform(0, 2 * np.pi)
            psi += rng.uniform(0.2, 1.0) * np.exp(-a * (x - x0) ** 2 + 1j * phase)
        p, psi_hat = hbar_fourier_1d(psi, x, 1.0)
        nx = np.sum(np.abs(psi) ** 2) * (x[1] - x[0])
        np_ = np.sum(np.abs(psi_hat) ** 2) * (p[1] - p[0])
        assert np_ / nx == pytest.approx(1.0, abs=1e-8)

    def test_hermite_1_is_eigenfunction(self):
        # x exp(-x^2/2) transforms to -i p exp(-p^2/2) at hbar = 1: same envelope.
        x = symmetric_grid()
        psi = x * np.exp(-x**2 / 2)
        p, psi_hat = hbar_fourier_1d(psi, x, 1.0)
        expected = -1j * p * np.exp(-p**2 / 2)
        assert np.max(np.abs(psi_hat - expected)) < 1e-9 * np.max(np.abs(expected))

    def test_double_application_with_flipped_kernel_inverts(self):
        rng = np.random.default_rng(4)
        x = symmetric_grid()
        psi = np.exp(-0.3 * x**2) * (1 + 0.5 * np.cos(2 * x)) + 1j * np.exp(-0.5 * (x - 1) ** 2)
        for hbar in (0.5, 1.0, 2.0):
            p, psi_hat = hbar_fourier_1d(psi, x, hbar)
            x_back, psi_back = hbar_fourier_1d(psi_hat, p, hbar, sign=+1)
            assert np.allclose(x_back, x, atol=1e-10)
            assert np.max(np.abs(psi_back - psi)) < 1e-8

    def test_grid_preconditions(self):
        with pytest.raises(GridError):
            hbar_fourier_1d(np.ones(1000), np.linspace(-5, 5, 1000, endpoint=False))
        bad = np.linspace(-5, 5, 1024, endpoint=False).copy()
        bad[3] += 0.01
        with pytest.raises(GridError):
            hbar_fourier_1d(np.ones(1024), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_or_grid_rejected(self, bad):
        x = symmetric_grid(8.0, 64)
        psi = np.exp(-x**2 / 4)
        for f in (lambda s, g: hbar_fourier_1d(s, g), lambda s, g: hardy_envelope_verify(s, g, 1.0, 0.5)):
            with pytest.raises(ValueError, match="^samples must be finite$"):
                f(np.where(np.arange(64) == 5, bad, psi), x)
            for i in (0, 7, 63):
                with pytest.raises(GridError, match="^grid points must be finite$"):
                    f(psi, np.where(np.arange(64) == i, bad, x))

    def test_insufficient_decay_flagged(self):
        x = symmetric_grid(4.0, 256)
        psi = np.exp(-x**2 / 4)  # ~ 2e-2 at the edges: no decay
        with pytest.warns(BoundaryDecayWarning):
            hbar_fourier_1d(psi, x, 1.0)


class TestHardyEnvelope:
    def setup_method(self):
        self.x = symmetric_grid()
        self.psi = np.exp(-self.x**2 / 4)  # Gaussian with sigma_x = 1

    def test_boundary_pair_passes(self):
        assert hardy_envelope_verify(self.psi, self.x, 1.0, 0.5, hbar=1.0)

    def test_too_narrow_momentum_envelope_fails(self):
        assert not hardy_envelope_verify(self.psi, self.x, 1.0, 0.4, hbar=1.0)

    def test_wide_envelope_passes_with_slack(self):
        assert hardy_envelope_verify(self.psi, self.x, 1.0, 0.6, hbar=1.0)

    def test_narrow_position_envelope_fails(self):
        assert not hardy_envelope_verify(self.psi, self.x, 0.8, 0.5, hbar=1.0)

    def test_forbidden_regime_raises_alarm(self):
        # At (1, 0.49) the product is below hbar/2, which the continuum bound
        # forbids, but the pointwise violation only appears at |p| beyond the
        # noise floor the grid can resolve: the check passes numerically and
        # must raise the inconsistency alarm.
        with pytest.warns(HardyInconsistencyWarning):
            ok = hardy_envelope_verify(self.psi, self.x, 1.0, 0.49, hbar=1.0)
        assert ok

    def test_rejects_bad_widths(self):
        for sx, sp in ((-1.0, 0.5), (1.0, 0.0), (np.nan, 0.5), (1.0, np.nan)):
            with pytest.raises(ValueError, match="^envelope widths must be positive"):
                hardy_envelope_verify(self.psi, self.x, sx, sp)

    def test_zero_function_passes_without_alarm(self):
        # psi = 0 meets every envelope; the uncertainty bound says nothing about it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hardy_envelope_verify(np.zeros_like(self.x), self.x, 0.1, 0.1, hbar=1.0)


def phased_envelope_fit(psi, x, hbar, sx, sp):
    """The envelope verdicts and log constant read off |hbar_fourier_1d|, the phased transform."""
    def log_constant(mags, exponent):
        mask = mags >= RELATIVE_FLOOR * mags.max()
        return np.max(np.log(mags[mask]) + exponent[mask])

    p, psi_hat = hbar_fourier_1d(psi, x, hbar)
    log_cx = log_constant(np.abs(psi), x**2 / (4 * sx**2))
    log_cp = log_constant(np.abs(psi_hat), p**2 / (4 * sp**2))
    bound = np.log(ENVELOPE_C_FACTOR * np.abs(psi).max())
    return log_cx <= bound, log_cp <= bound, max(log_cx, log_cp)


@given(log_hbar=st.floats(-3, 3), log_sx=st.floats(-1, 1), shift=st.floats(-2, 2), chirp=st.floats(-1, 1),
       half_extent=st.floats(12, 30), log_n=st.integers(8, 11))
def test_magnitude_path_matches_the_phased_transform(log_hbar, log_sx, shift, chirp, half_extent, log_n):
    # The envelope check takes |psi^| as |FFT core| dx / sqrt(2 pi hbar), without the
    # unit-modulus phase: equal to |hbar_fourier_1d| within 1e-14, entry by entry
    # (within the least normal float below it, where entries are subnormal).
    hbar, sx = 10.0**log_hbar, 10.0**log_sx
    x = symmetric_grid(half_extent, 2**log_n) * sx + shift
    psi = np.exp(-(x - shift) ** 2 / (4 * sx**2) + 1j * chirp * x / sx)
    dx = _checked_samples(psi, x, hbar)[3]
    p, mags = _transform_magnitudes(psi, dx, hbar)
    p_ref, psi_hat = hbar_fourier_1d(psi, x, hbar)
    assert np.array_equal(p, p_ref)
    assert np.all(np.abs(mags - np.abs(psi_hat)) <= 1e-14 * np.abs(psi_hat) + np.finfo(float).tiny)


@pytest.mark.parametrize("hbar", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("k", [2, 10, 1e3, 1e6])
@pytest.mark.parametrize("sign", [-1, 1])
def test_envelope_verdicts_agree_with_the_phased_transform_on_the_band(hbar, k, sign):
    # Gaussians with sigma_x sigma_p = (hbar / 2)(1 + sign k tol) on a grid off the origin.
    sx = 0.7 * np.sqrt(hbar)
    sp = 0.5 * hbar * (1 + sign * k * DEFAULT_TOL) / sx
    x = symmetric_grid(20.0 * sx, 1024) + 0.3 * sx
    psi = np.exp(-x**2 / (4 * sx**2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HardyInconsistencyWarning)
        verdict = hardy_envelope_verify(psi, x, sx, sp, hbar)
    pos_ok, mom_ok, log_c = _envelope_fit(psi, x, hbar, lambda v: v**2 / (4 * sx**2), lambda v: v**2 / (4 * sp**2))
    want = phased_envelope_fit(psi, x, hbar, sx, sp)
    assert (pos_ok, mom_ok) == want[:2] and verdict == (pos_ok and mom_ok)
    assert abs(log_c - want[2]) <= 1e-14 * max(abs(want[2]), 1.0)


class TestMinkowskiExperiment:
    def test_interval_pair_matches_hardy(self):
        # X = [-sqrt2, sqrt2], P = [-sqrt2/2, sqrt2/2)]: the gauge envelopes
        # reduce to the Gaussian envelopes with sigma = halfwidth / sqrt2,
        # i.e. (sigma_x, sigma_p) = (1, 0.5), the boundary pair.
        x_grid = symmetric_grid()
        psi = np.exp(-x_grid**2 / 4)
        x_body = HPolytope([[1.0 / np.sqrt(2.0)]])
        p_body = VPolytope([[np.sqrt(2.0) / 2.0]])
        out = minkowski_envelope_experiment(psi, x_grid, x_body, p_body, hbar=1.0)
        assert out.position_envelope
        assert out.momentum_envelope
        assert out.pair.is_pair
        assert not out.counterexample_candidate

    def test_narrow_momentum_body_fails_envelope(self):
        x_grid = symmetric_grid()
        psi = np.exp(-x_grid**2 / 4)
        x_body = HPolytope([[1.0 / np.sqrt(2.0)]])
        p_body = VPolytope([[0.4 * np.sqrt(2.0)]])
        out = minkowski_envelope_experiment(psi, x_grid, x_body, p_body, hbar=1.0)
        assert not out.momentum_envelope
        assert not out.pair.is_pair
        assert not out.counterexample_candidate

    def test_compact_support_envelopes_hold(self):
        x_grid = symmetric_grid()
        psi = np.where(np.abs(x_grid) <= 1.0, np.cos(np.pi * x_grid / 2) ** 2, 0.0)
        x_body = HPolytope([[0.25]])  # [-4, 4]: wide, envelope easily holds
        p_body = HPolytope([[0.1]])   # [-10, 10]
        out = minkowski_envelope_experiment(psi, x_grid, x_body, p_body, hbar=1.0)
        assert out.position_envelope
        assert out.pair.is_pair

    def test_records_counterexample_candidate_bookkeeping(self):
        # Wide envelopes around a non-pair: candidate flag must be set. A very
        # wide X and P fail the pair criterion only if the product of
        # halfwidths is below hbar; choose small bodies but a tightly
        # concentrated psi whose transform is too wide to matter... instead
        # verify the flag wiring directly with a compact psi and tiny bodies
        # scaled so gauges stay small on the support.
        x_grid = symmetric_grid()
        psi = np.exp(-x_grid**2 / 0.001)  # nearly a spike: very wide transform
        x_body = HPolytope([[2.0]])   # [-0.5, 0.5]
        p_body = HPolytope([[2.0]])   # pair needs product >= 1; 0.25 < 1
        out = minkowski_envelope_experiment(psi, x_grid, x_body, p_body, hbar=1.0)
        assert not out.pair.is_pair
        assert out.counterexample_candidate == (out.position_envelope and out.momentum_envelope)

    def test_dimension_guard(self):
        x_grid = symmetric_grid()
        psi = np.exp(-x_grid**2)
        with pytest.raises(GridError):
            minkowski_envelope_experiment(psi, x_grid, HPolytope.box([1, 1]), HPolytope([[1.0]]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: hbar_fourier_1d(np.zeros(8), np.linspace(-1.0, 1.0, 16)), GridError,
     "samples shape (8,) does not match grid shape (16,)"),
    (lambda: hbar_fourier_1d(np.zeros((2, 4)), np.zeros((2, 4))), GridError,
     "grid must be a one-dimensional array with at least two points"),
    (lambda: hbar_fourier_1d(np.zeros(8), np.linspace(-1.0, 1.0, 8), sign=0), ValueError,
     "sign must be -1 or +1, got 0"),
], ids=["shape-mismatch", "grid-not-1d", "bad-sign"])
def test_input_checks(call, error, message):
    assert_raises_exactly(call, error, message)
