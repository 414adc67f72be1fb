"""Checks of the benchmark's oracle formulas at n <= 3, in plain numpy.

    python3 -m pytest bench/test_oracles.py -q
"""

import itertools

import numpy as np
import pytest

import oracles as orc


def directions(n: int, count: int = 200_000, seed: int = 0) -> np.ndarray:
    """Random directions plus every vector of entries in {-1, 0, 1}."""
    special = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=n) if any(v)])
    return np.vstack([np.random.default_rng(seed).standard_normal((count, n)), special])


def support(kind: str, arr: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Support function of a body given as in mapped_body (square H and V arrays)."""
    if kind == "ellipsoid":
        return np.sqrt(np.einsum("ij,jk,ik->i", u, np.linalg.inv(arr), u))
    if kind == "vpoly":
        return np.abs(u @ arr.T).max(axis=1)
    return np.abs(np.linalg.solve(arr.T, u.T).T).sum(axis=1)


def gauge(kind: str, arr: np.ndarray, w: np.ndarray) -> np.ndarray:
    if kind == "ellipsoid":
        return np.sqrt(np.einsum("ij,jk,ik->i", w, arr, w))
    if kind == "hpoly":
        return np.abs(w @ arr.T).max(axis=1)
    return np.abs(np.linalg.solve(arr.T, w.T).T).sum(axis=1)


def support_ratio_scale(x_shape: str, p_shape: str, a: float, b: float, hbar: float,
                        directions: np.ndarray) -> float:
    """min over directions w of h_X(w) / h_{P^hbar}(w): an upper bound on lambda_max.

    Uses only support functions and gauges of the unit shapes
    (h_{P^hbar} = hbar * gauge_P), never the polar table of shape_factor, so it
    checks that table independently. Dense directions make the bound tight.
    """
    w = np.asarray(directions, dtype=float)
    h_x = {"ball": np.linalg.norm(w, axis=1),
           "box": np.abs(w).sum(axis=1),
           "cross": np.abs(w).max(axis=1)}[x_shape] * a
    g_p = {"ball": np.linalg.norm(w, axis=1),
           "box": np.abs(w).max(axis=1),
           "cross": np.abs(w).sum(axis=1)}[p_shape] / b
    return float(np.min(h_x / (hbar * g_p)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("x_shape,p_shape", list(itertools.product(orc.SHAPES, orc.SHAPES)))
def test_shape_factor_matches_support_ratios(n, x_shape, p_shape):
    a, b, hbar = 1.3, 0.7, 0.9
    closed = a * b * orc.shape_factor(x_shape, p_shape, n) / hbar
    sampled = support_ratio_scale(x_shape, p_shape, a, b, hbar, directions(n))
    assert closed <= sampled * (1 + 1e-12)
    assert sampled <= closed * (1 + 1e-9)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("x_shape,p_shape", list(itertools.product(orc.SHAPES, orc.SHAPES)))
def test_pair_inputs_have_the_target_scale(n, x_shape, p_shape):
    rng = np.random.default_rng([n, len(x_shape), len(p_shape)])
    lam = 1.37
    (xk, xa), (pk, pa), hbar = orc.pair_inputs(x_shape, p_shape, n, lam, rng)
    # lambda_max = min_u h_X(u) / h_{P^hbar}(u), and h_{P^hbar} = hbar * gauge_P.
    u = directions(n, 400_000, seed=1)
    sampled = np.min(support(xk, xa, u) / (hbar * gauge(pk, pa, u)))
    assert lam <= sampled * (1 + 1e-12)
    assert sampled <= lam * (1 + 2e-3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constructed_covariance_has_the_chosen_spectrum(n):
    rng = np.random.default_rng(n)
    s = orc.random_symplectic(n, rng)
    j = orc.symplectic_j(n)
    assert np.allclose(s.T @ j @ s, j, atol=1e-12)
    hbar = 0.3
    for nu_min in (0.5 * hbar * 0.9, 0.5 * hbar * 1.1):
        nu = np.sort(np.concatenate([[nu_min], 0.5 * hbar * (1.0 + rng.uniform(0.05, 3.0, n - 1))]))
        sigma = orc.covariance_with_spectrum(nu, rng)
        assert np.allclose(orc.williamson_numpy(sigma), nu, rtol=1e-10)
        # validity: Sigma + (i hbar / 2) J is positive semidefinite iff nu_min >= hbar / 2
        smallest = np.linalg.eigvalsh(sigma + 0.5j * hbar * j)[0]
        assert (smallest >= 0) == (nu_min >= 0.5 * hbar)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projection_pair_scale_two_ways(n):
    rng = np.random.default_rng(10 + n)
    hbar = 2.0
    nu = np.sort(0.5 * hbar * (1.0 + rng.uniform(0.05, 2.0, n)))
    sigma = orc.covariance_with_spectrum(nu, rng)
    a, b = sigma[:n, :n], sigma[n:, n:]
    via_product = 2.0 * np.sqrt(orc.product_eigs(a, b)[0]) / hbar
    via_ellipsoids = orc.ellipsoid_pair_scale(np.linalg.inv(a) / 2.0, np.linalg.inv(b) / 2.0, hbar)
    assert via_product == pytest.approx(via_ellipsoids, rel=1e-10)
    assert via_product >= 1.0  # projections of a valid state form a pair


def test_ellipsoid_and_box_scales_match_support_ratios():
    rng = np.random.default_rng(3)
    u = directions(2, 400_000)
    qx = orc.random_invertible(2, rng)
    qx = qx @ qx.T
    qp = orc.random_invertible(2, rng)
    qp = qp @ qp.T
    hbar = 0.8
    sampled = np.min(support("ellipsoid", qx, u) / (hbar * gauge("ellipsoid", qp, u)))
    assert orc.ellipsoid_pair_scale(qx, qp, hbar) == pytest.approx(sampled, rel=1e-4)
    hx, hp = np.array([1.0, 2.0]), np.array([0.7, 0.2])
    sampled = np.min(support("hpoly", np.diag(1 / hx), u) / (hbar * gauge("hpoly", np.diag(1 / hp), u)))
    assert np.min(hx * hp) / hbar == pytest.approx(sampled, rel=1e-9)


@pytest.mark.parametrize("m", [10, 1000, 10_000])
def test_kept_count_and_fits(m):
    rng = np.random.default_rng(m)
    pts = orc.disk(2.0, m, rng)
    pts -= pts.mean(axis=0)
    norms = np.linalg.norm(pts, axis=1)
    assert len(orc.trimmed(pts, norms, 0.01)) == orc.kept_count(m, 0.01)
    assert orc.ball_fit_radius(pts, 0.0) == norms.max()
    r = orc.ball_fit_radius(pts, 0.01)
    assert np.sum(norms <= r) == orc.kept_count(m, 0.01)


def test_gaussian_transform_matches_a_riemann_sum():
    hbar, sigma = 0.4, 0.6
    x = np.linspace(-12 * sigma, 12 * sigma, 20_001)
    psi = np.exp(-x**2 / (4 * sigma**2))
    p = np.linspace(-3, 3, 7) * hbar / sigma
    direct = np.abs(np.exp(-1j * np.outer(p, x) / hbar) @ psi) * (x[1] - x[0]) / np.sqrt(2 * np.pi * hbar)
    assert np.allclose(direct, orc.gaussian_transform_abs(p, sigma, hbar), rtol=1e-8)


def test_envelope_cases_have_the_stated_verdict():
    rng = np.random.default_rng(5)
    for _ in range(200):
        hbar = 10.0 ** rng.uniform(-3, 3)
        psi, grid, sx, sp, expected = orc.gaussian_envelope_case(rng, hbar, 1024)
        sigma = np.sqrt(-grid[0] ** 2 / (4 * np.log(psi[0])))
        n, dx = grid.size, grid[1] - grid[0]
        p = 2 * np.pi * hbar * (np.arange(n) - n / 2) / (n * dx)
        bound = np.log(10.0)
        log_cx = orc.log_envelope_constant(psi, grid**2 / (4 * sx**2))
        log_cp = orc.log_envelope_constant(orc.gaussian_transform_abs(p, sigma, hbar), p**2 / (4 * sp**2))
        assert (max(log_cx, log_cp) <= bound) == expected
        assert abs(max(log_cx, log_cp) - bound) > 0.5
