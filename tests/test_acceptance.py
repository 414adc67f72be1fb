"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest

from qpolar.bodies import (Ellipsoid, HPolytope, VPolytope, contains, is_quantum_pair, linear_image, polar_dual,
                           scale)
from qpolar.capacities import ellipsoid_capacity, product_capacity
from qpolar.cloud import disk_demo
from qpolar.hardy import HardyInput, hardy_check, hardy_envelope_verify
from qpolar.quantum import (
    capacity_criterion,
    heisenberg_eigen_check,
    is_quantum_covariance,
    random_quantum_covariance,
    theorem2_check,
)
from qpolar.symplectic import block_diagonalize, random_symplectic, symplectic_eigenvalues

from conftest import area_oracle_1d, covariance_with_spectrum, random_body, random_spd
from test_polarity import bodies_close


def report(k, text):
    print(f"\nACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_polar_duality_laws():
    """Involution, inclusion reversal, linear equivariance, scaling laws, ball law
    on 500 seeded bodies across all representations at 1e-9 relative, under 10 s."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(500):
        n = 1 + trial % 3
        body = random_body(n, rng)
        hbar = float(rng.uniform(0.3, 3.0))

        # Involution (X^hbar)^hbar = X.
        assert bodies_close(polar_dual(polar_dual(body, hbar), hbar), body, tol=1e-9)

        # Inclusion reversal on a nested dilate.
        big = scale(body, 1.0 + float(rng.uniform(0.1, 1.0)))
        assert contains(polar_dual(body, hbar), polar_dual(big, hbar), tol=1e-9)

        # Linear equivariance (L X)^hbar = (L^T)^{-1} X^hbar.
        l = rng.standard_normal((n, n)) + 3 * np.eye(n)
        lhs = polar_dual(linear_image(body, l), hbar)
        rhs = linear_image(polar_dual(body, hbar), np.linalg.inv(l.T))
        assert bodies_close(lhs, rhs, tol=1e-9)

        # (lambda X)^hbar = lambda^{-1} X^hbar.
        lam = float(rng.uniform(0.2, 5.0))
        assert bodies_close(
            polar_dual(scale(body, lam), hbar), scale(polar_dual(body, hbar), 1.0 / lam), tol=1e-9
        )

        # hbar scaling X^hbar = hbar * X^1.
        assert bodies_close(polar_dual(body, hbar), scale(polar_dual(body, 1.0), hbar), tol=1e-9)

        # Ball law B(R)^hbar = B(hbar/R).
        r = float(rng.uniform(0.2, 5.0))
        assert bodies_close(
            polar_dual(Ellipsoid.ball(n, r), hbar), Ellipsoid.ball(n, hbar / r), tol=1e-9
        )
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 500
    assert elapsed < 10.0, f"law suite took {elapsed:.2f}s"
    report(1, f"polar-duality laws on 500 bodies in {elapsed:.2f}s (tol 1e-9)")


def test_criterion_2_capacity_equals_area_1d():
    """product_capacity equals 4ab on 1000 random interval pairs to 1e-12, under 1 s."""
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    for _ in range(1000):
        a, b = rng.uniform(0.05, 20.0, size=2)
        kinds = rng.integers(0, 3, size=2)
        bodies = []
        for half, kind in zip((a, b), kinds):
            if kind == 0:
                bodies.append(Ellipsoid([[1.0 / half**2]]))
            elif kind == 1:
                bodies.append(HPolytope([[1.0 / half]]))
            else:
                bodies.append(VPolytope([[half]]))
        value = product_capacity(bodies[0], bodies[1], hbar=1.0).value
        oracle = area_oracle_1d(*bodies)
        assert abs(value - oracle) <= 1e-12 * oracle
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"1-D capacity sweep took {elapsed:.2f}s"
    report(2, f"n=1 capacity = area on 1000 interval pairs in {elapsed:.2f}s (tol 1e-12)")


def test_criterion_3_product_lower_bound():
    """Equality product_capacity(X, X^hbar) = 4 hbar within 1e-9 for ellipsoids and
    boxes in n = 1..3; and the 4 hbar bound is equivalent to the pair verdict on
    200 random pairs, both directions."""
    rng = np.random.default_rng(1003)
    for n in (1, 2, 3):
        for _ in range(20):
            hbar = float(rng.uniform(0.3, 3.0))
            ell = Ellipsoid(random_spd(n, rng))
            box = HPolytope.box(rng.uniform(0.3, 3.0, size=n))
            for body in (ell, box):
                rep = product_capacity(body, polar_dual(body, hbar), hbar)
                assert abs(rep.value - 4 * hbar) <= 1e-9 * 4 * hbar
                assert rep.equality_case

    forward = backward = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        x = random_body(n, rng)
        p = random_body(n, rng)
        hbar = float(rng.uniform(0.3, 3.0))
        rep = product_capacity(x, p, hbar)
        pair = is_quantum_pair(x, p, hbar)
        if pair.is_pair:
            assert rep.value >= 4 * hbar * (1 - 1e-9)
            forward += 1
        if rep.value >= 4 * hbar:
            assert pair.is_pair
            backward += 1
    assert forward > 0 and backward > 0
    report(3, f"4*hbar equality on dual pairs and both bound/pair implications on 200 pairs "
              f"({forward} pairs, {backward} above bound)")


def test_criterion_4_validity_equivalence():
    """sigpos, capacity criterion, and the Williamson threshold agree pairwise on
    500 mixed matrices (n <= 3) with zero disagreements, and with the built
    spectrum on 150 states with a spread Williamson spectrum; the boundary state
    reproduces h/2 = pi exactly at hbar = 1."""
    rng = np.random.default_rng(1004)
    disagreements = 0
    for i in range(500):
        n = 1 + i % 3
        kind = i % 3
        if kind == 0:
            sigma = random_quantum_covariance(n, 5000 + i, slack=float(rng.uniform(0, 1))).sigma
        elif kind == 1:
            sigma = float(rng.uniform(0.2, 0.999)) * random_quantum_covariance(n, 6000 + i).sigma
        else:
            sigma = random_spd(2 * n, rng, cond=30.0) * float(rng.uniform(0.1, 2.0))
        a = is_quantum_covariance(sigma, 1.0, 1e-9)
        b = capacity_criterion(sigma, 1.0, 1e-9)
        c = bool(symplectic_eigenvalues(sigma)[0] >= 0.5 * (1 - 1e-9))
        if not (a == b == c):
            disagreements += 1
    for i in range(150):
        n = 1 + i % 3
        # nu_min / (hbar/2) in [0.5, 2): valid and invalid states, the others up to 4x higher.
        nu = 0.5 * float(rng.uniform(0.5, 2.0)) * np.concatenate([[1.0], rng.uniform(1.0, 4.0, n - 1)])
        sigma = covariance_with_spectrum(nu, rng)
        a = is_quantum_covariance(sigma, 1.0, 1e-9)
        b = capacity_criterion(sigma, 1.0, 1e-9)
        c = bool(symplectic_eigenvalues(sigma)[0] >= 0.5 * (1 - 1e-9))
        if not (a == b == c == (nu[0] >= 0.5)):
            disagreements += 1
    assert disagreements == 0

    from qpolar.quantum import covariance_ellipsoid

    boundary = ellipsoid_capacity(covariance_ellipsoid(0.5 * np.eye(2)))
    assert boundary == np.pi  # exact: h/2 at hbar = 1
    report(4, "sigpos = capacity = Williamson threshold on 500 matrices and 150 spread spectra; "
              "boundary h/2 exact")


def test_criterion_5_projection_pairs():
    """theorem2_check returns a pair on 100% of 500 random valid covariance
    matrices and 200 with a spread Williamson spectrum (n <= 4), boundary
    states included."""
    rng = np.random.default_rng(1005)
    passed = 0
    for i in range(500):
        n = 1 + i % 4
        slack = 0.0 if i % 5 == 0 else float(rng.uniform(0.0, 2.0))
        hbar = float(rng.uniform(0.3, 3.0))
        cov = random_quantum_covariance(n, 7000 + i, hbar=hbar, slack=slack)
        verdict = theorem2_check(cov, hbar=hbar)
        assert verdict.is_pair, f"projection pair failed at seed {7000 + i} (release blocker)"
        passed += 1
    for i in range(200):
        n = 1 + i % 4
        hbar = float(rng.uniform(0.3, 3.0))
        # Every fifth state has nu_min = hbar/2 exactly; the others sit above it.
        nu = 0.5 * hbar * np.concatenate([[1.0 if i % 5 == 0 else float(rng.uniform(1.0, 3.0))],
                                          rng.uniform(1.0, 4.0, n - 1)])
        verdict = theorem2_check(covariance_with_spectrum(nu, rng), hbar=hbar)
        assert verdict.is_pair, f"projection pair failed on spectrum {nu} (release blocker)"
        passed += 1
    assert passed == 700
    report(5, "projection pair verdict on 700/700 valid covariance matrices (n <= 4), "
              "200 with a spread spectrum")


def test_criterion_6_block_williamson():
    """block_diagonalize residuals <= 1e-8 on 100 random SPD pairs; the diagonal
    matches sqrt(eig(AB)) to 1e-10."""
    rng = np.random.default_rng(1006)
    for trial in range(100):
        n = 1 + trial % 3
        a = random_spd(n, rng)
        b = random_spd(n, rng)
        l, lam = block_diagonalize(a, b)
        l_inv = np.linalg.inv(l)
        scale_ = max(np.max(np.abs(lam)), 1.0)
        assert np.max(np.abs(l.T @ a @ l - lam)) <= 1e-8 * scale_
        assert np.max(np.abs(l_inv @ b @ l_inv.T - lam)) <= 1e-8 * scale_
        expected = np.sqrt(np.sort(np.linalg.eigvals(a @ b).real))
        assert np.max(np.abs(np.diag(lam) - expected)) <= 1e-10 * max(1.0, expected[-1])
    report(6, "block Williamson residuals <= 1e-8 and diagonal = sqrt(eig(AB)) on 100 pairs")


def test_criterion_7_hardy_desk_scale():
    """Envelope check passes at (1, 0.5) and fails at (1, 0.4) on the 1024-point
    grid; the boundary Hardy input classifies as gaussian_boundary; the
    eigenvalue criterion matches the pair verdict on 200 random (A, B); under 5 s."""
    t0 = time.perf_counter()
    x = np.linspace(-20.0, 20.0, 1024, endpoint=False)
    psi = np.exp(-x**2 / 4.0)
    assert hardy_envelope_verify(psi, x, 1.0, 0.5, hbar=1.0)
    assert not hardy_envelope_verify(psi, x, 1.0, 0.4, hbar=1.0)

    verdict = hardy_check(HardyInput(0.5 * np.eye(2), 0.5 * np.eye(2)), hbar=1.0)
    assert verdict.classification == "gaussian_boundary"

    rng = np.random.default_rng(1007)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        a = random_spd(n, rng, cond=10.0) * float(rng.uniform(0.3, 1.5))
        b = random_spd(n, rng, cond=10.0) * float(rng.uniform(0.3, 1.5))
        hbar = float(rng.uniform(0.5, 2.0))
        flags = heisenberg_eigen_check(a, b, hbar)
        x_body = Ellipsoid(np.linalg.inv(a) / 2.0)
        p_body = Ellipsoid(np.linalg.inv(b) / 2.0)
        assert all(flags) == is_quantum_pair(x_body, p_body, hbar).is_pair
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"Hardy suite took {elapsed:.2f}s"
    report(7, f"Hardy envelopes, boundary classification, and 200 eigen/pair matches "
              f"in {elapsed:.2f}s")


def test_criterion_8_disk_demo():
    """N = 1e5: measured Var(x1) = Rx^2/4 within 4%, pair flip at Rx Rp = hbar
    within 2%, and the pi Rx^2/4 figure flagged inconsistent."""
    n = 100_000
    demo = disk_demo(2.0, 1.0, n_samples=n, seed=1008)
    assert abs(demo.measured_variance - demo.uniform_disk_variance) <= 0.04 * demo.uniform_disk_variance
    assert not demo.measured_matches_quoted
    assert demo.to_dict()["quoted_variance_flag"] == "inconsistent with Monte Carlo oracle"

    below = disk_demo(0.98, 1.0, n_samples=n, seed=1009)
    above = disk_demo(1.02, 1.0, n_samples=n, seed=1009)
    assert not below.analysis.pair.is_pair
    assert above.analysis.pair.is_pair
    report(8, "disk demo: variance oracle within 4%, verdict flip within 2% of hbar, "
              "quoted pi-variance flagged")


def test_criterion_9_capacity_axioms():
    """Monotonicity, lambda^2 conformality, and invariance under 100 random linear
    symplectic maps with relative error <= 1e-9, on phase-space ellipsoids."""
    rng = np.random.default_rng(1010)
    for trial in range(100):
        n = 1 + trial % 3
        ell = Ellipsoid(random_spd(2 * n, rng))
        base = ellipsoid_capacity(ell)

        inner = scale(ell, float(rng.uniform(0.2, 1.0)))
        assert ellipsoid_capacity(inner) <= base * (1 + 1e-12)

        lam = float(rng.uniform(0.3, 3.0))
        assert abs(ellipsoid_capacity(scale(ell, lam)) - lam**2 * base) <= 1e-9 * lam**2 * base

        m = random_symplectic(n, 9000 + trial)
        mapped = ellipsoid_capacity(linear_image(ell, m))
        assert abs(mapped - base) <= 1e-9 * base
    report(9, "capacity axioms: monotone, conformal, symplectically invariant "
              "(100 maps, rel err <= 1e-9)")
