"""Shared random generators for the test suite. Everything is seeded."""

import itertools

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import linprog

from qpolar.bodies import Ellipsoid, HPolytope, VPolytope
from qpolar.errors import DimensionError
from qpolar.symplectic import random_symplectic

# Property tests draw the same examples on every run.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def random_spd(n, rng, cond=50.0):
    """Random SPD matrix with eigenvalues log-spread up to the given condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lo = 1.0 / np.sqrt(cond)
    eigs = np.exp(rng.uniform(np.log(lo), np.log(lo * cond), size=n))
    return q @ np.diag(eigs) @ q.T


def spd_with_condition(n, cond, rng):
    """Random SPD matrix with eigenvalues geometrically spaced from 1 to cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(np.geomspace(1.0, cond, n)) @ q.T


def random_ellipsoid(n, rng, cond=50.0):
    return Ellipsoid(random_spd(n, rng, cond))


def random_hpolytope(n, rng, extra_rows=2):
    m = n + extra_rows
    rows = rng.standard_normal((m, n))
    rows *= rng.uniform(0.5, 2.0, size=(m, 1))
    return HPolytope(rows)


def random_vpolytope(n, rng, extra_vertices=2):
    m = n + extra_vertices
    verts = rng.standard_normal((m, n))
    verts *= rng.uniform(0.5, 2.0, size=(m, 1))
    return VPolytope(verts)


def random_body(n, rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return random_ellipsoid(n, rng)
    if kind == 1:
        return random_hpolytope(n, rng)
    return random_vpolytope(n, rng)


def covariance_with_spectrum(nu, rng):
    """Sigma = M diag(nu, nu) M^T with M random symplectic: its Williamson spectrum is nu."""
    m = random_symplectic(len(nu), rng)
    sigma = m @ np.diag(np.concatenate([nu, nu])) @ m.T
    return 0.5 * (sigma + sigma.T)


def support_oracle(body, u):
    """h_body(u) in plain numpy, without polarity: E and V at any n, H at n = 2.

    An H-polytope's support is the largest u.x over its vertices, found as
    the intersections of pairs of facet lines a_i.x = +-1, a_j.x = +-1 that
    satisfy every row.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(body, Ellipsoid):
        return float(np.sqrt(u @ np.linalg.solve(body.matrix, u)))
    if isinstance(body, VPolytope):
        return float(np.max(np.abs(body.vertices @ u)))
    assert body.dim == 2, "the H-polytope support oracle is planar"
    best = -np.inf
    for i, j in itertools.combinations(range(body.rows.shape[0]), 2):
        pair = body.rows[[i, j]]
        if abs(np.linalg.det(pair)) < 1e-12:
            continue
        for signs in itertools.product((-1.0, 1.0), repeat=2):
            x = np.linalg.solve(pair, np.array(signs))
            if np.max(np.abs(body.rows @ x)) <= 1.0 + 1e-9:
                best = max(best, float(u @ x))
    return best


def vgauge_lp_oracle(body, x):
    """||x|| of a V-polytope as the LP min sum|c| subject to V^T c = x (HiGHS), without polarity."""
    w = body.vertices.T
    res = linprog(np.ones(2 * w.shape[1]), A_eq=np.hstack([w, -w]), b_eq=np.asarray(x, dtype=float),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def _interval_halfwidth(body):
    if body.dim != 1:
        raise DimensionError(f"expected a one-dimensional interval body, got dim {body.dim}")
    if isinstance(body, Ellipsoid):
        return float(1.0 / np.sqrt(body.matrix[0, 0]))
    if isinstance(body, HPolytope):
        return float(1.0 / np.max(np.abs(body.rows)))
    return float(np.max(np.abs(body.vertices)))


def area_oracle_1d(x, p):
    """Area of the rectangle X x P for symmetric intervals X = [-a,a], P = [-b,b].

    Computed straight from the representations (no polarity involved); on one
    degree of freedom this must coincide with product_capacity.
    """
    return 4.0 * _interval_halfwidth(x) * _interval_halfwidth(p)


def assert_raises_exactly(call, error, message):
    """call() raises this exception type itself (not a subclass) with exactly this message."""
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count calls into np.linalg: ``calls = linalg_calls("svd", "norm")`` wraps those
    functions for the rest of the test, and ``calls[name]`` reads how often each ran."""

    def record(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def recording(*args, _run=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _run(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recording)
        return calls

    return record
