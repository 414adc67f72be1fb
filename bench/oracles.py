"""Input builders and closed-form oracles for the qpolar benchmark.

Nothing here imports qpolar. Every expected value is derived from the
parameters the benchmark drew (or recomputed in plain numpy), so a defect in
the code under test cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9  # the library's default verdict tolerance
SHAPES = ("ball", "box", "cross")


# --------------------------------------------------------------------------
# pair-sweep: lambda_max in closed form for balls, boxes and cross-polytopes
# --------------------------------------------------------------------------

def shape_factor(x_shape: str, p_shape: str, n: int) -> float:
    """f(X, P, n) with lambda_max(a*X, b*P, hbar) = a*b*f / hbar.

    The hbar-polar of a ball of radius b is the ball of radius hbar/b, of the
    box |p_i| <= b the cross-polytope conv{+-(hbar/b) e_i}, and of that
    cross-polytope the box of halfwidth hbar/b. f is then the largest scale of
    the unit polar shape inside the unit X shape: 1 except for a box inside a
    ball (1/sqrt n), a ball inside a cross-polytope (1/sqrt n) and a box
    inside a cross-polytope (1/n).
    """
    inner = {"ball": "ball", "box": "cross", "cross": "box"}[p_shape]
    if (inner, x_shape) in (("box", "ball"), ("ball", "cross")):
        return 1.0 / np.sqrt(n)
    if (inner, x_shape) == ("box", "cross"):
        return 1.0 / n
    return 1.0


def mapped_body(shape: str, size: float, m: np.ndarray, m_inv: np.ndarray) -> tuple[str, np.ndarray]:
    """The image M * (size * unit shape) as (qpolar representation, array)."""
    if shape == "ball":
        return "ellipsoid", m_inv.T @ m_inv / size**2
    if shape == "box":
        return "hpoly", m_inv / size
    return "vpoly", size * m.T


def random_invertible(n: int, rng: np.random.Generator, spread: float = 0.5) -> np.ndarray:
    """Q1 diag(exp(U(-spread, spread))) Q2: a random, well-conditioned matrix."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(np.exp(rng.uniform(-spread, spread, n))) @ q2


def pair_inputs(x_shape: str, p_shape: str, n: int, lam: float, rng: np.random.Generator,
                hbar: float | None = None):
    """(X array, P array, hbar) with lambda_max exactly `lam` after (L X, L^-T P)."""
    if hbar is None:
        hbar = 10.0 ** rng.uniform(-1.0, 1.0)
    a = 10.0 ** rng.uniform(-0.3, 0.3)
    b = lam * hbar / (a * shape_factor(x_shape, p_shape, n))
    l = random_invertible(n, rng)
    l_inv = np.linalg.inv(l)
    x = mapped_body(x_shape, a, l, l_inv)
    p = mapped_body(p_shape, b, l_inv.T, l.T)
    return x, p, hbar


# --------------------------------------------------------------------------
# uncertainty-sweep: covariance matrices with a chosen Williamson spectrum
# --------------------------------------------------------------------------

def symplectic_j(n: int) -> np.ndarray:
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def orthogonal_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """[[A, -B], [B, A]] from a random unitary A + iB."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return np.block([[q.real, -q.imag], [q.imag, q.real]])


def random_symplectic(n: int, rng: np.random.Generator, squeeze: float = 0.7) -> np.ndarray:
    """K1 D1 K2 D2 K3 with K orthogonal symplectic and D = diag(e^r, e^-r)."""
    s = orthogonal_symplectic(n, rng)
    for _ in range(2):
        r = rng.uniform(-squeeze, squeeze, n)
        s = s @ np.diag(np.exp(np.concatenate([r, -r]))) @ orthogonal_symplectic(n, rng)
    return s


def covariance_with_spectrum(nu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sigma = S diag(nu, nu) S^T: its Williamson eigenvalues are exactly nu."""
    s = random_symplectic(len(nu), rng)
    sigma = s @ np.diag(np.concatenate([nu, nu])) @ s.T
    return 0.5 * (sigma + sigma.T)


def williamson_numpy(sigma: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues from the spectrum {+-i nu} of J Sigma, ascending."""
    n = sigma.shape[0] // 2
    ev = np.abs(np.linalg.eigvals(symplectic_j(n) @ sigma).imag)
    return np.sort(ev)[::2]


def product_eigs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of A B (real, positive for SPD A, B), ascending."""
    return np.sort(np.linalg.eigvals(a @ b).real)


def gaussian_envelope_case(rng: np.random.Generator, hbar: float, size: int):
    """A Gaussian psi = exp(-x^2 / 4 sigma^2) with envelope widths and the verdict.

    sigma = s * sqrt(hbar / 2) keeps the transform's peak (s) under the
    envelope prefactor bound 10 * max|psi|. The envelopes hold exactly when
    sigma_x >= sigma and sigma_p >= hbar / (2 sigma); the factors drawn stay
    well away from that edge so the verdict is unambiguous on the grid.
    """
    sigma = rng.uniform(0.5, 2.0) * np.sqrt(hbar / 2.0)
    grid = np.linspace(-12.0 * sigma, 12.0 * sigma, size, endpoint=False)
    psi = np.exp(-grid**2 / (4.0 * sigma**2))
    t, u = rng.uniform(1.05, 1.5, 2)
    expected = True
    if rng.uniform() < 0.5:
        expected = False
        if rng.uniform() < 0.5:
            t = rng.uniform(0.5, 0.8)
        else:
            u = rng.uniform(0.5, 0.8)
    return psi, grid, sigma * t, hbar * u / (2.0 * sigma), expected


# --------------------------------------------------------------------------
# cli-invoke: disk clouds and their numpy recomputation
# --------------------------------------------------------------------------

def disk(radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples on the disk of the given radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def kept_count(m: int, trim: float) -> int:
    """Samples kept by a (1 - trim) gauge quantile cut of m distinct gauges."""
    if trim == 0.0 or m < 3:
        return m
    return int(np.floor((1.0 - trim) * (m - 1))) + 1


def trimmed(points: np.ndarray, gauges: np.ndarray, trim: float) -> np.ndarray:
    if trim == 0.0:
        return points
    return points[gauges <= np.quantile(gauges, 1.0 - trim)]


def ball_fit_radius(points: np.ndarray, trim: float) -> float:
    """Radius of the smallest centered ball after the gauge-quantile trim."""
    norms = np.linalg.norm(points, axis=1)
    kept = trimmed(points, norms / norms.max(), trim)
    return float(np.linalg.norm(kept, axis=1).max())


def ellipsoid_pair_scale(qx: np.ndarray, qp: np.ndarray, hbar: float) -> float:
    """lambda_max for X = {x Qx x <= 1}, P = {p Qp p <= 1}: 1 / (hbar sqrt(max eig(Qp Qx)))."""
    return float(1.0 / (hbar * np.sqrt(np.max(np.linalg.eigvals(qp @ qx).real))))


def ellipsoid_gauges_sq(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", points, q, points)


def gaussian_transform_abs(p: np.ndarray, sigma: float, hbar: float) -> np.ndarray:
    """|psi^(p)| for psi = exp(-x^2 / 4 sigma^2) under the hbar-scaled transform."""
    return sigma * np.sqrt(2.0 / hbar) * np.exp(-(sigma * p / hbar) ** 2)


def log_envelope_constant(mags: np.ndarray, exponent: np.ndarray, floor: float = 1e-12) -> float:
    """log of the smallest C with mags <= C exp(-exponent), above a relative floor."""
    mask = mags >= floor * mags.max()
    return float(np.max(np.log(mags[mask]) + exponent[mask]))
