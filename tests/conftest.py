"""Shared random generators for the test suite. Everything is seeded."""

import numpy as np
import pytest

from qpolar.bodies import Ellipsoid, HPolytope, VPolytope
from qpolar.symplectic import random_symplectic


def random_spd(n, rng, cond=50.0):
    """Random SPD matrix with eigenvalues log-spread up to the given condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lo = 1.0 / np.sqrt(cond)
    eigs = np.exp(rng.uniform(np.log(lo), np.log(lo * cond), size=n))
    return q @ np.diag(eigs) @ q.T


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
