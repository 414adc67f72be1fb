"""Centrally symmetric convex bodies: ellipsoids, H-polytopes, V-polytopes.

All bodies are origin-centered (body = -body by construction):

* ``Ellipsoid(matrix=Q)``      is {x : x^T Q x <= 1} with Q symmetric positive definite;
* ``HPolytope(rows=A)``        is {x : |a_i^T x| <= 1 for every row a_i};
* ``VPolytope(vertices=V)``    is conv{+-v_j} over the listed vertices.

Operations are pure functions over these immutable values, and each derived body has
one construction: every inverted ellipsoid (a polar, the MVEE) is ``_inverse_ellipsoid``,
which symmetrizes the computed inverse; both polytopes validate in ``_polytope_array``;
``scale`` is a ``linear_image``. The Minkowski gauge is the one body kernel and a closed
form for every representation; a V-polytope's facet normals come from
``hpolytope_vertices`` (Qhull), the one polytope conversion, unless there may be so many
that one HiGHS LP per row costs less. The support function is the gauge of the unit
polar, h_K = ||.||_{K°}, and ``polar_dual`` maps each representation to its polar's.

Containment, the quantum-pair verdict and the product capacity all reduce to
one inclusion scale, max{lambda : lambda * inner subset of outer}, computed by
``_fit_scale`` and accepted by ``_accepts``, the one rule of every verdict.
For ellipsoids it is 1 / sqrt(mu_max), mu_max the largest eigenvalue of the outer
matrix relative to the inner one by the inner's Cholesky factor (``_pencil_eigenvalues``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Union

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateBodyError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    UndecidedError,
)
from .symplectic import _pencil_eigenvalues, _spd_cholesky, require_symmetric

# Inclusion scales and V-polytope gauges enumerate H-polytope vertices up to
# this dimension; beyond it an inclusion scale that needs the vertices is
# undecided and a V-polytope gauge solves LPs. Sections enumerate at any dimension.
ENUMERATION_MAX_DIM = 8

# Where Qhull fails on nearly coincident rows, a row that agrees (up to sign)
# with a longer row to within this factor of its own norm is dropped and the
# enumeration retried; the body grows by at most this relative amount.
ROW_MERGE_RTOL = 1e-10

# The MVEE fit stops within this volume factor (1 + MVEE_VOL_TOL) of optimal,
# or raises ConvergenceError after MVEE_MAX_ITER iterations.
MVEE_VOL_TOL = 0.01
MVEE_MAX_ITER = 100_000


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _polytope_array(arr, kind: str, what: str, spans: str) -> np.ndarray:
    """The one polytope validator: arr as frozen finite nonzero rows spanning the space."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"polytope {what} must be finite")
    if arr.shape[0] == 0 or np.any(np.linalg.norm(arr, axis=1) == 0):
        raise DegenerateBodyError(f"{kind}-polytope {what} must be non-empty and nonzero")
    if np.linalg.matrix_rank(arr) < arr.shape[1]:
        raise DegenerateBodyError(f"{kind}-polytope {what} must span the space ({spans})")
    return _freeze(arr)


@dataclass(frozen=True)
class Ellipsoid:
    """The ellipsoid {x : x^T Q x <= 1} for a symmetric positive definite Q."""

    matrix: np.ndarray

    def __post_init__(self):
        q = require_symmetric(self.matrix)
        _spd_cholesky(q, "ellipsoid matrix")
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
        object.__setattr__(self, "rows", _polytope_array(self.rows, "H", "rows", "bounded body"))

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
        object.__setattr__(self, "vertices", _polytope_array(self.vertices, "V", "vertices", "full-dimensional body"))

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


def _max_facets(vertices: int, n: int) -> int:
    """McMullen's upper bound on the facets of an n-polytope with this many vertices."""
    k = n // 2
    if n % 2:
        return 2 * comb(vertices - k - 1, k)
    return vertices * comb(vertices - k, k) // (vertices - k)


def gauge(body: ConvexBody, x) -> float | np.ndarray:
    """Minkowski gauge ||x||_body = inf{t > 0 : x/t in body}; 0 at the origin.

    x is one vector (returns a float) or a (k, n) array of rows (returns the
    k gauges). Closed forms for ellipsoids and H-polytopes. A V-polytope's gauge
    is max|w . x| over the vertices w of its unit polar (||.||_K = h_{K°}), its
    facet normals, when they are few enough; otherwise, and always above
    ``ENUMERATION_MAX_DIM``, it solves one HiGHS LP per nonzero row. Raises
    ``UndecidedError`` where ``hpolytope_vertices`` does.
    """
    rows, single = _check_rows(body, x)
    if isinstance(body, Ellipsoid):
        g = np.sqrt(np.sum((rows @ body.matrix) * rows, axis=1))
    elif isinstance(body, HPolytope):
        g = np.max(np.abs(rows @ body.rows.T), axis=1)
    else:
        m, n = body.vertices.shape
        nonzero = np.flatnonzero(np.any(rows, axis=1))
        # Enumerate the facets when their bound is at most, per LP replaced, the
        # bound for a linear image of the cross-polytope (m = n), whose 2^n
        # facets enumerate faster than one LP up to the cap.
        if n <= ENUMERATION_MAX_DIM and _max_facets(2 * m, n) <= _max_facets(2 * n, n) * nonzero.size:
            g = np.max(np.abs(rows @ hpolytope_vertices(polar_dual(body)).T), axis=1)
        else:
            from scipy.optimize import linprog

            # One LP per nonzero row: min sum(c+ + c-)  s.t.  V^T (c+ - c-) = x, c+- >= 0.
            w = body.vertices.T
            a_eq = np.hstack([w, -w])
            g = np.zeros(rows.shape[0])
            for i in nonzero:
                res = linprog(np.ones(a_eq.shape[1]), A_eq=a_eq, b_eq=rows[i], bounds=(0, None), method="highs")
                if not res.success:
                    raise DegenerateBodyError(f"gauge LP failed: {res.message}")
                g[i] = res.fun
    return float(g[0]) if single else g


def support(body: ConvexBody, u) -> float | np.ndarray:
    """Support function h_body(u) = max{u . x : x in body}: the gauge of the unit polar.

    Takes one vector or (k, n) rows, and raises, as ``gauge`` does.
    """
    return gauge(polar_dual(body), u)


def _inverse_ellipsoid(m: np.ndarray, d: float, what: str) -> Ellipsoid:
    """The ellipsoid with matrix M^{-1} / d, the computed inverse symmetrized."""
    try:
        inv = np.linalg.inv(m) / d
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(f"{what} is singular") from None
    return Ellipsoid(0.5 * (inv + inv.T))


def polar_dual(body: ConvexBody, hbar: float = 1.0) -> ConvexBody:
    """The hbar-polar dual X^hbar = {p : p . x <= hbar on X}.

    Representation map: an ellipsoid {x Q x <= 1} dualizes to the ellipsoid
    with matrix Q^{-1} / hbar^2 (so a ball of radius R dualizes to one of
    radius hbar / R); H-polytope rows a_i become V-polytope vertices
    hbar * a_i, and V-polytope vertices v_j become H-polytope rows v_j / hbar.
    """
    _check_hbar(hbar)
    if isinstance(body, Ellipsoid):
        return _inverse_ellipsoid(body.matrix, hbar**2, "ellipsoid matrix")
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
    return linear_image(body, factor * np.eye(body.dim))


def _halfspace_vertices(rows: np.ndarray) -> np.ndarray:
    """Vertices of {x : |a_i . x| <= 1} by Qhull; one point per merged dual facet,
    i.e. per vertex. Not rounded, which would merge distinct vertices of a badly
    scaled body."""
    from scipy.spatial import HalfspaceIntersection

    stacked = np.vstack([rows, -rows])
    halfspaces = np.hstack([stacked, -np.ones((stacked.shape[0], 1))])
    return HalfspaceIntersection(halfspaces, np.zeros(rows.shape[1])).intersections


def _merge_close_rows(rows: np.ndarray) -> np.ndarray:
    """rows without each row that agrees, up to sign, with a longer row (or an
    earlier one of equal norm) to within ROW_MERGE_RTOL of its own norm."""
    from scipy.spatial import KDTree

    m = rows.shape[0]
    norms = np.linalg.norm(rows, axis=1)
    units = rows / norms[:, None]
    # Such rows have unit directions within 2 * ROW_MERGE_RTOL of each other.
    tree = KDTree(np.vstack([units, -units]))
    keep = np.ones(m, dtype=bool)
    for i in np.argsort(-norms, kind="stable"):
        if keep[i]:
            near = np.asarray(tree.query_ball_point(units[i], 2 * ROW_MERGE_RTOL), dtype=int) % m
            near = near[(near != i) & keep[near]]
            gap = np.minimum(np.linalg.norm(rows[near] - rows[i], axis=1),
                             np.linalg.norm(rows[near] + rows[i], axis=1))
            keep[near[gap <= ROW_MERGE_RTOL * norms[near]]] = False
    return rows[keep]


def hpolytope_vertices(body: HPolytope) -> np.ndarray:
    """All vertices of an H-polytope (both sign classes), via Qhull for dim >= 2.

    Where Qhull fails, nearly coincident rows are merged (``ROW_MERGE_RTOL``)
    and Qhull runs once more; ``UndecidedError`` if it fails again.
    """
    n = body.dim
    if n == 1:
        a = 1.0 / np.max(np.abs(body.rows))
        return np.array([[a], [-a]])
    from scipy.spatial import QhullError

    try:
        return _halfspace_vertices(body.rows)
    except QhullError:
        pass
    try:
        return _halfspace_vertices(_merge_close_rows(body.rows))
    except QhullError as exc:
        raise UndecidedError(f"undecided: Qhull vertex enumeration failed: {exc}".splitlines()[0]) from None


def _fit_scale(inner: ConvexBody, outer: ConvexBody) -> float:
    """max{lambda > 0 : lambda * inner subset of outer}, exact or UndecidedError."""
    if isinstance(inner, Ellipsoid):
        if isinstance(outer, Ellipsoid):
            mu_max = _pencil_eigenvalues(outer.matrix, inner.matrix)[-1]
            return float(1.0 / np.sqrt(mu_max))
        # By unit polarity lambda * E in K iff lambda * K° in E°.
        return _fit_scale(polar_dual(outer), polar_dual(inner))

    if isinstance(inner, VPolytope):
        pts = inner.vertices
    elif inner.dim > ENUMERATION_MAX_DIM:
        raise UndecidedError(
            f"undecided: vertex enumeration not attempted for dim {inner.dim} > {ENUMERATION_MAX_DIM}"
        )
    else:
        pts = hpolytope_vertices(inner)
    return float(1.0 / np.max(gauge(outer, pts)))


DEFAULT_TOL = 1e-9


def _accepts(r: float, tol: float) -> bool:
    """The one acceptance rule: a ratio r (>= 1 iff the bound holds) passes when r >= 1/(1 + tol)."""
    return bool(r >= 1.0 / (1.0 + tol))


def _check_hbar(hbar: float) -> None:
    """The one hbar check: ValueError unless hbar is positive and finite."""
    if not 0 < hbar < np.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")


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
    return _inverse_ellipsoid(mat, np.max(g), "moment matrix")
