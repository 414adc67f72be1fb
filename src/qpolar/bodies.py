"""Centrally symmetric convex bodies: ellipsoids, H-polytopes, V-polytopes.

All bodies are origin-centered (body = -body by construction):

* ``Ellipsoid(matrix=Q)``      is {x : x^T Q x <= 1} with Q symmetric positive definite;
* ``HPolytope(rows=A)``        is {x : |a_i^T x| <= 1 for every row a_i};
* ``VPolytope(vertices=V)``    is conv{+-v_j} over the listed vertices.

Operations are pure functions over these immutable values. The Minkowski
gauge is the one body kernel: it takes one vector or a (k, n) array of rows,
is a closed form for ellipsoids and H-polytopes, and a small linear program
(HiGHS) per row only for V-polytopes. The support function is the gauge of
the unit polar, h_K = ||.||_{K°}, and ``polar_dual`` maps each
representation to the representation of its polar.

Containment, the quantum-pair verdict and the product capacity all reduce to
one inclusion scale, max{lambda : lambda * inner subset of outer}, computed by
``_fit_scale`` and accepted by ``_accepts``, the one rule of every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import eigh as gen_eigh
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from .errors import (
    ConvergenceError,
    DegenerateBodyError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    UndecidedError,
)
from .symplectic import require_symmetric

# H-polytope vertex enumeration is attempted up to this dimension; beyond it
# an inclusion scale that needs the vertices is undecided.
ENUMERATION_MAX_DIM = 8

# The MVEE fit stops within this volume factor (1 + MVEE_VOL_TOL) of optimal,
# or raises ConvergenceError after MVEE_MAX_ITER iterations.
MVEE_VOL_TOL = 0.01
MVEE_MAX_ITER = 100_000


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Ellipsoid:
    """The ellipsoid {x : x^T Q x <= 1} for a symmetric positive definite Q."""

    matrix: np.ndarray

    def __post_init__(self):
        q = require_symmetric(self.matrix)
        try:
            np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("ellipsoid matrix must be positive definite") from None
        object.__setattr__(self, "matrix", _freeze(q))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def ball(cls, dim: int, radius: float = 1.0) -> "Ellipsoid":
        """The Euclidean ball |x| <= radius."""
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        return cls(np.eye(dim) / radius**2)


@dataclass(frozen=True)
class HPolytope:
    """The symmetric polytope {x : |a_i^T x| <= 1} over the rows a_i."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if not np.all(np.isfinite(rows)):
            raise ValueError("polytope rows must be finite")
        norms = np.linalg.norm(rows, axis=1)
        if rows.shape[0] == 0 or np.any(norms == 0):
            raise DegenerateBodyError("H-polytope rows must be non-empty and nonzero")
        if np.linalg.matrix_rank(rows) < rows.shape[1]:
            raise DegenerateBodyError("H-polytope rows must span the space (bounded body)")
        object.__setattr__(self, "rows", _freeze(rows))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def box(cls, halfwidths) -> "HPolytope":
        """The axis-aligned box { |x_i| <= halfwidths[i] }."""
        h = np.atleast_1d(np.asarray(halfwidths, dtype=float))
        if np.any(h <= 0):
            raise ValueError("box halfwidths must be positive")
        return cls(np.diag(1.0 / h))


@dataclass(frozen=True)
class VPolytope:
    """The symmetric polytope conv{+-v_j} over the listed vertices v_j."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if not np.all(np.isfinite(verts)):
            raise ValueError("polytope vertices must be finite")
        if verts.shape[0] == 0 or np.any(np.linalg.norm(verts, axis=1) == 0):
            raise DegenerateBodyError("V-polytope vertices must be non-empty and nonzero")
        if np.linalg.matrix_rank(verts) < verts.shape[1]:
            raise DegenerateBodyError("V-polytope vertices must span the space (full-dimensional body)")
        object.__setattr__(self, "vertices", _freeze(verts))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


ConvexBody = Union[Ellipsoid, HPolytope, VPolytope]


def _check_rows(body: ConvexBody, x) -> tuple[np.ndarray, bool]:
    """x as a (k, n) array of rows, and whether it was given as one vector."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    rows = x.reshape(1, -1) if single else x
    if rows.ndim != 2 or rows.shape[1] != body.dim:
        raise DimensionError(f"expected vectors of length {body.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("vector entries must be finite")
    return rows, single


def gauge(body: ConvexBody, x) -> float | np.ndarray:
    """Minkowski gauge ||x||_body = inf{t > 0 : x/t in body}; 0 at the origin.

    x is one vector (returns a float) or a (k, n) array of rows (returns the
    k gauges). Closed forms for ellipsoids and H-polytopes; a V-polytope above
    dimension 1 solves one LP per nonzero row.
    """
    rows, single = _check_rows(body, x)
    if isinstance(body, Ellipsoid):
        g = np.sqrt(np.sum((rows @ body.matrix) * rows, axis=1))
    elif isinstance(body, HPolytope):
        g = np.max(np.abs(rows @ body.rows.T), axis=1)
    elif body.dim == 1:
        g = np.abs(rows[:, 0]) / np.max(np.abs(body.vertices))
    else:
        # One LP per nonzero row: min sum(c+ + c-)  s.t.  V^T (c+ - c-) = x, c+- >= 0.
        w = body.vertices.T
        a_eq = np.hstack([w, -w])
        g = np.zeros(rows.shape[0])
        for i in np.flatnonzero(np.any(rows, axis=1)):
            res = linprog(np.ones(a_eq.shape[1]), A_eq=a_eq, b_eq=rows[i], bounds=(0, None), method="highs")
            if not res.success:
                raise DegenerateBodyError(f"gauge LP failed: {res.message}")
            g[i] = res.fun
    return float(g[0]) if single else g


def support(body: ConvexBody, u) -> float | np.ndarray:
    """Support function h_body(u) = max{u . x : x in body}: the gauge of the unit polar.

    Takes one vector or (k, n) rows, as ``gauge`` does.
    """
    return gauge(polar_dual(body), u)


def polar_dual(body: ConvexBody, hbar: float = 1.0) -> ConvexBody:
    """The hbar-polar dual X^hbar = {p : p . x <= hbar on X}.

    Representation map: an ellipsoid {x Q x <= 1} dualizes to the ellipsoid
    with matrix Q^{-1} / hbar^2 (so a ball of radius R dualizes to one of
    radius hbar / R); H-polytope rows a_i become V-polytope vertices
    hbar * a_i, and V-polytope vertices v_j become H-polytope rows v_j / hbar.
    """
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if isinstance(body, Ellipsoid):
        return Ellipsoid(np.linalg.inv(body.matrix) / hbar**2)
    if isinstance(body, HPolytope):
        return VPolytope(hbar * body.rows)
    return HPolytope(body.vertices / hbar)


def linear_image(body: ConvexBody, l: np.ndarray) -> ConvexBody:
    """The image L.body = {L x : x in body} under an invertible matrix L."""
    l = np.asarray(l, dtype=float)
    if l.shape != (body.dim, body.dim):
        raise DimensionError(f"expected a {body.dim}x{body.dim} matrix, got {l.shape}")
    svals = np.linalg.svd(l, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularMatrixError("linear image requires an invertible matrix")
    if isinstance(body, Ellipsoid):
        l_inv = np.linalg.inv(l)
        return Ellipsoid(l_inv.T @ body.matrix @ l_inv)
    if isinstance(body, VPolytope):
        return VPolytope(body.vertices @ l.T)
    return HPolytope(np.linalg.solve(l.T, body.rows.T).T)


def scale(body: ConvexBody, factor: float) -> ConvexBody:
    """The dilate factor * body for factor > 0."""
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    if isinstance(body, Ellipsoid):
        return Ellipsoid(body.matrix / factor**2)
    if isinstance(body, VPolytope):
        return VPolytope(body.vertices * factor)
    return HPolytope(body.rows / factor)


def hpolytope_vertices(body: HPolytope) -> np.ndarray:
    """All vertices of an H-polytope (both sign classes), via Qhull for dim >= 2.

    Raises ``UndecidedError`` above ``ENUMERATION_MAX_DIM``.
    """
    n = body.dim
    if n == 1:
        a = 1.0 / np.max(np.abs(body.rows))
        return np.array([[a], [-a]])
    if n > ENUMERATION_MAX_DIM:
        raise UndecidedError(
            f"undecided: vertex enumeration not attempted for dim {n} > {ENUMERATION_MAX_DIM}"
        )
    stacked = np.vstack([body.rows, -body.rows])
    halfspaces = np.hstack([stacked, -np.ones((stacked.shape[0], 1))])
    hs = HalfspaceIntersection(halfspaces, np.zeros(n))
    verts = hs.intersections
    # Qhull reports one point per facet intersection; dedupe to working precision.
    scale_ = max(np.max(np.abs(verts)), 1.0)
    _, idx = np.unique(np.round(verts / scale_, 9), axis=0, return_index=True)
    return verts[np.sort(idx)]


def _fit_scale(inner: ConvexBody, outer: ConvexBody) -> float:
    """max{lambda > 0 : lambda * inner subset of outer}, exact or UndecidedError."""
    if isinstance(inner, Ellipsoid):
        if isinstance(outer, Ellipsoid):
            mu_max = gen_eigh(outer.matrix, inner.matrix, eigvals_only=True)[-1]
            return float(1.0 / np.sqrt(mu_max))
        # By unit polarity lambda * E in K iff lambda * K° in E°.
        return _fit_scale(polar_dual(outer), polar_dual(inner))

    pts = inner.vertices if isinstance(inner, VPolytope) else hpolytope_vertices(inner)
    return float(1.0 / np.max(gauge(outer, pts)))


DEFAULT_TOL = 1e-9


def _accepts(r: float, tol: float) -> bool:
    """The one acceptance rule: a ratio r (>= 1 iff the bound holds) passes when r >= 1/(1 + tol)."""
    return bool(r >= 1.0 / (1.0 + tol))


def contains(outer: ConvexBody, inner: ConvexBody, tol: float = DEFAULT_TOL) -> bool:
    """Test inner subset-of (1 + tol) * outer.

    Decided by the inclusion scale max{lambda : lambda * inner in outer},
    accepted when it is at least 1/(1 + tol), the same rule as the
    quantum-pair verdict and the 4*hbar capacity bound. Exact for every
    pairing of the three representations; an H-polytope source (or an
    ellipsoid in a V-polytope, which flips to one) beyond the vertex
    enumeration cap raises ``UndecidedError``.
    """
    if outer.dim != inner.dim:
        raise DimensionError(f"dimension mismatch: outer {outer.dim}, inner {inner.dim}")
    return _accepts(_fit_scale(inner, outer), tol)


def enclosing_ellipsoid(points, mode: str = "ball") -> Ellipsoid:
    """Origin-centered ellipsoid enclosing every point of a centered sample.

    mode="ball" gives the smallest origin-centered Euclidean ball.
    mode="mvee" gives a minimum-volume enclosing ellipsoid of {+-p_i}, within
    a (1 + MVEE_VOL_TOL) volume factor of optimal, by Frank-Wolfe ascent on the
    determinant (the symmetric Khachiyan iteration).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise DegenerateBodyError("empty point set")
    n = pts.shape[1]
    if np.linalg.matrix_rank(pts) < n:
        raise DegenerateBodyError("points do not span the space; enclosing body is degenerate")

    if mode == "ball":
        r = np.max(np.linalg.norm(pts, axis=1))
        return Ellipsoid(np.eye(n) / r**2)
    if mode != "mvee":
        raise ValueError(f"unknown mode {mode!r}; expected 'ball' or 'mvee'")

    m = pts.shape[0]
    u = np.full(m, 1.0 / m)
    # (1 + eps)^(n/2) <= 1 + MVEE_VOL_TOL  maps the volume gap to the duality gap.
    eps = (1.0 + MVEE_VOL_TOL) ** (2.0 / n) - 1.0
    for _ in range(MVEE_MAX_ITER):
        mat = pts.T @ (pts * u[:, None])
        g = np.einsum("ij,ij->i", pts @ np.linalg.inv(mat), pts)
        j = int(np.argmax(g))
        kappa = g[j]
        if kappa <= n * (1.0 + eps):
            break
        step = (kappa - n) / (n * (kappa - 1.0))
        u *= 1.0 - step
        u[j] += step
    else:
        raise ConvergenceError(
            f"enclosing ellipsoid did not reach the {MVEE_VOL_TOL:.0%} volume gap "
            f"in {MVEE_MAX_ITER} iterations"
        )
    # Scale by the worst gauge so containment of every input point is exact.
    q = np.linalg.inv(mat) / np.max(g)
    return Ellipsoid(0.5 * (q + q.T))
