"""Centrally symmetric convex bodies: ellipsoids, H-polytopes, V-polytopes.

All bodies are origin-centered (body = -body by construction):

* ``Ellipsoid(matrix=Q)``      is {x : x^T Q x <= 1} with Q = F F^T symmetric positive definite;
* ``HPolytope(rows=A)``        is {x : |a_i^T x| <= 1 for every row a_i};
* ``VPolytope(vertices=V)``    is conv{+-v_j} over the listed vertices.

Operations are pure functions over these immutable values, which compare by identity. An
ellipsoid carries a factor F of its matrix, and a derived one is built from a factor, checked only
for a matrix in the normal float range (``Ellipsoid._from_factor``): L^-T F for a linear image
(``scale`` is one), else F^-T / c (``_inverse_transpose``), with c = hbar for a polar, 1 for (d M)^-1
with d M = F F^T (``_inverse_factor``) and sqrt(2) for the x/p pair of blocks A = C C^T, B = G G^T
(``_induced_pair``). Errors are of order cond(F) eps, so ``linear_image`` decides up to its
cond(L) <= 1e12 guard. A polytope carries the least and greatest of its row maxima, which
``polar_dual`` scales with the array (rounding is monotone) for the polar's finiteness and
nonzero-row checks: no rank test. A square array is certified by its inverse (``_square_inverse``),
which the polytope keeps and its unit polar, the same array, shares: a V-polytope's gauge reads it.
One rule brings data into range before a solver, a product or a norm: ``_pow2_scaled``
scales an array exactly by powers of two to max |entry| in [0.5, 1), over the whole array,
per row or per column, and keeps the exponents. A range like 1 to 1e-310 within one row or
column stays out of reach.

The Minkowski gauge is the one body kernel. ``_linear_gauge`` writes each closed form
once, ||x||_body = ||x M||_q over row vectors x, and ``_row_norms`` is its one blocked
kernel. Any other V-polytope's gauge is max |w . x| over its facet normals w, the vertices
of its unit polar, which ``_enumerate_vertices`` (the one polytope conversion) reads off
its own vertices, unless there may be so many that one HiGHS LP per row costs less.
``gauge`` checks its rows and the internal ``_gauge`` does not: its callers pass a body's
own rows or vertices, validated when it was built, or vertices ``_enumerate_vertices``
checked (they can overflow). The support function is the gauge of the unit polar, h_K =
||.||_{K°}. An H-polytope with n rows A (a parallelotope) has the vertices A^-1 s over
the 2^n sign vectors s; Qhull runs only for more rows, and no enumeration starts whose
vertex count bound exceeds ``VERTEX_BUDGET``.

The hbar-polar dual of X is X^hbar = {p : p . x <= hbar for all x in X} (``polar_dual``), and
(X, P) is a quantum pair when X^hbar is contained in P, a relation symmetric in X and P.
Containment, the quantum-pair verdict (``is_quantum_pair``) and the product capacity all read
one inclusion scale, ``inclusion_scale``: 1 / (hbar sigma) for the one symmetric pairing sigma
of ``_polar_pairing``, accepted by ``_accepts``, the one rule of every verdict.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb, frexp, isfinite, sqrt
from typing import Iterator, Union

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateBodyError,
    DimensionError,
    SingularMatrixError,
    UndecidedError,
)
from .symplectic import _check_tol, _spd_cholesky, require_symmetric

# H-polytope vertex enumeration is refused when its count bound (``_vertex_bound``)
# exceeds this budget: an inclusion scale or a section that needs the vertices is
# then undecided, and a V-polytope gauge solves LPs.
VERTEX_BUDGET = 2**20

# One HiGHS LP of a V-polytope gauge costs about as much as Qhull enumerating this
# many facets of McMullen's bound (the bound of the 8-dim cross-polytope image).
# Measured at n = 9-14 with n + 1 to 2n vertex pairs: 2-3 ms per LP, 1.6-4.7 us
# per bound facet. Below n = 8 the cross-polytope image's own bound is used.
LP_COST_FACETS = 660

# Where Qhull fails on nearly coincident rows, a row that agrees (up to sign)
# with a longer row to within this factor of its own norm is dropped and the
# enumeration retried; the body grows by at most this relative amount.
ROW_MERGE_RTOL = 1e-10

# The MVEE fit stops within this volume factor (1 + MVEE_VOL_TOL) of optimal,
# or raises ConvergenceError after MVEE_MAX_ITER steps.
MVEE_VOL_TOL = 0.01
MVEE_MAX_ITER = 100_000


# Products and enumerations run in blocks of about this many entries (``_row_norms``,
# the sign vectors of ``_sign_blocks``).
_BLOCK_ENTRIES = 2**22

# Sign-vector tables of at most this many entries (128 kB) are kept (``_sign_blocks``).
_SIGN_TABLE_ENTRIES = 2**14

_EPS = np.finfo(float).eps


def _pow2_scaled(arr, axis=None, top=None, e=None):
    """(arr 2^-e, e), exact. Unless given, e brings top into [0.5, 1): max |entry| of the whole
    array (axis None: e an int, and top may be a bound the caller has), each row (1) or column (0)."""
    if e is None:
        top = np.abs(arr).max(axis=axis, keepdims=axis is not None) if top is None else top
        e = np.frexp(top)[1] if axis is not None else frexp(top)[1]
    return np.ldexp(arr, -e), e


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr made read-only in place: an array its caller has just computed and owns."""
    arr.setflags(write=False)
    return arr


_POLYTOPE_WORDS = {"H": ("rows", "bounded body"), "V": ("vertices", "full-dimensional body")}


def _polytope_array(arr, kind: str) -> tuple[np.ndarray, tuple[float, float], tuple[np.ndarray, float] | None]:
    """The one polytope validator: arr as frozen finite nonzero rows spanning the space
    (matrix_rank's test, sigma_n > sigma_1 max(m, n) eps, on rows scaled to max-abs 1, and
    where they fall short, their columns scaled too: no row or column scale refuses a body),
    of an H- or V-polytope (kind), its least and greatest row maxima (``_check_row_range``), and
    for n rows U, ``_square_inverse``'s (X, top) where n eps n^1.5 hi top <= 1e-3 (hi the greatest
    row maximum; so n eps cond(U) is 1000 times within the test); else the SVD decides (None)."""
    arr = np.array(arr, dtype=float, ndmin=2)
    row_max = np.abs(arr).max(axis=1, initial=0.0)
    row_range = (float(row_max.min()), float(row_max.max())) if row_max.size else (0.0, 0.0)
    _check_row_range(row_range, kind)
    if len(arr) == arr.shape[1]:
        with suppress(np.linalg.LinAlgError):
            if row_range[1] * (inverse := _square_inverse(arr))[1] * len(arr) ** 2.5 * _EPS <= 1e-3:
                return _freeze(arr), row_range, inverse
    svals = np.linalg.svd(unit := arr / row_max[:, None], compute_uv=False)
    if svals[-1] <= svals[0] * max(arr.shape) * _EPS:  # short of rank: its columns scaled decide
        svals = np.linalg.svd(unit / np.abs(unit).max(axis=0, initial=np.finfo(float).tiny), compute_uv=False)
    if len(arr) < arr.shape[1] or svals[-1] <= svals[0] * max(arr.shape) * _EPS:
        what, spans = _POLYTOPE_WORDS[kind]
        raise DegenerateBodyError(f"{kind}-polytope {what} must span the space ({spans})")
    return _freeze(arr), row_range, None


def _square_inverse(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """(arr^-1 frozen, its largest abs row sum): a polytope's one inverse (LinAlgError from LU)."""
    with np.errstate(all="ignore"):
        inv = np.linalg.inv(arr)
        return _freeze(inv), float(np.abs(inv).sum(axis=1).max())


def _check_row_range(row_range: tuple[float, float], kind: str) -> None:
    """The finiteness and nonzero-row checks of a polytope array, read off the least and
    greatest of its row maxima: the greatest is NaN or inf exactly when an entry is not
    finite, and the least is 0 exactly when a row is zero (or there is none)."""
    what = _POLYTOPE_WORDS[kind][0]
    if not isfinite(row_range[1]):
        raise ValueError(f"polytope {what} must be finite")
    if not row_range[0] > 0.0:
        raise DegenerateBodyError(f"{kind}-polytope {what} must be non-empty and nonzero")


def _unchecked(cls, **fields):
    """An instance of a frozen body class with these fields, derived from a validated
    body and not checked again."""
    body = object.__new__(cls)
    body.__dict__.update(fields)
    return body


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """The ellipsoid {x : x^T Q x <= 1} for a symmetric positive definite Q = F F^T (``factor``)."""

    matrix: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q = require_symmetric(self.matrix)
        object.__setattr__(self, "factor", _freeze(_spd_cholesky(q, "ellipsoid matrix")))
        object.__setattr__(self, "matrix", _freeze(q))

    @classmethod
    def _from_factor(cls, f: np.ndarray) -> "Ellipsoid":
        """The ellipsoid with matrix F F^T for an invertible F, not checked again; F is an
        array the caller has just computed, frozen in place. DegenerateBodyError where the
        matrix leaves the normal float range (a diagonal entry inf, NaN or below 2^-1022)."""
        with np.errstate(over="ignore", invalid="ignore"):  # an inf in F gives inf * 0 = NaN
            m = f @ f.T
        if not (2.0**-1022 <= (d := m.diagonal()).min() and d.max() < np.inf):
            raise DegenerateBodyError("the derived ellipsoid has a matrix outside the float range")
        return _unchecked(cls, factor=_freeze(f), matrix=_freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def ball(cls, dim: int, radius: float = 1.0) -> "Ellipsoid":
        """The Euclidean ball |x| <= radius, for a radius whose 1/radius^2 is a finite nonzero float."""
        sq = float(radius) * float(radius) if 0 < radius < np.inf else 0.0
        if not (0 < sq < np.inf and 1.0 / sq < np.inf):
            raise ValueError(f"radius must be positive and finite, from 7.458e-155 to 1.341e+154, got {radius}")
        return cls(np.eye(dim) / sq)


@dataclass(frozen=True, eq=False)
class HPolytope:
    """The symmetric polytope {x : |a_i^T x| <= 1} over the rows a_i (``row_range``: the
    least and greatest of max_j |a_ij|)."""

    rows: np.ndarray
    row_range: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        self.__dict__.update(zip(("rows", "row_range", "_inverse"), _polytope_array(self.rows, "H")))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def box(cls, halfwidths) -> "HPolytope":
        """The axis-aligned box { |x_i| <= halfwidths[i] }."""
        h = np.atleast_1d(np.asarray(halfwidths, dtype=float))
        if not np.all((h > 0) & (h < np.inf)):
            raise ValueError("box halfwidths must be positive and finite")
        return cls(np.diag(1.0 / h))


@dataclass(frozen=True, eq=False)
class VPolytope:
    """The symmetric polytope conv{+-v_j} over the listed vertices v_j (``row_range``: the
    least and greatest of max_i |v_ji|)."""

    vertices: np.ndarray
    row_range: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        self.__dict__.update(zip(("vertices", "row_range", "_inverse"), _polytope_array(self.vertices, "V")))

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


def _vertex_bound(rows: int, n: int) -> int:
    """Vertex count bound of an n-dim H-polytope: 2^n for n rows, else McMullen's."""
    return 2**n if rows == n else _max_facets(2 * rows, n)


def _linear_gauge(body: ConvexBody) -> tuple[np.ndarray, float, float | None] | None:
    """(M, q, top) with ||x||_body = ||x M||_q for every row vector x and top >= max |M| if at
    hand: (F, 2, None) for an ellipsoid with Q = F F^T, (A^T, inf, max |A|) for an H-polytope
    with rows A and (V^-1, 1, its largest abs row sum) for a V-polytope with n vertices V. None
    for any other V-polytope (``_gauge`` takes its facets or LPs). ValueError where that row
    sum, the largest entry of the unit polar's vertices s V^-T, overflows."""
    if isinstance(body, Ellipsoid):
        return body.factor, 2, None
    if isinstance(body, HPolytope):
        return body.rows.T, np.inf, body.row_range[1]
    if body.vertices.shape[0] == body.dim:
        # A linear image of the cross-polytope: x = c V has the one solution
        # c = x V^-1, so the least ||c||_1 over x's representations is its own.
        if body._inverse is None:  # none kept: derived at hbar != 1, or not certified
            body.__dict__["_inverse"] = _square_inverse(body.vertices)
        inv, top = body._inverse
        if not isfinite(top):
            raise ValueError("vector entries must be finite")
        return inv, 1, top
    return None


def _row_norms(x: np.ndarray, m: np.ndarray, q: float) -> np.ndarray:
    """||x_i M||_q for each row x_i, in row blocks of about _BLOCK_ENTRIES products."""
    out = np.empty(x.shape[0])
    step = max(1, _BLOCK_ENTRIES // m.shape[1])
    for i in range(0, x.shape[0], step):
        y = x[i:i + step] @ m
        y = np.abs(y, out=y)  # in place: at most two blocks at once
        out[i:i + step] = np.sqrt((y * y).sum(axis=1)) if q == 2 else y.sum(axis=1) if q == 1 else y.max(axis=1)
    return out


def gauge(body: ConvexBody, x) -> float | np.ndarray:
    """Minkowski gauge ||x||_body = inf{t > 0 : x/t in body}; 0 at the origin.

    x is one vector (returns a float) or a (k, n) array of rows (returns the k gauges).
    Closed forms ||x M||_q for ellipsoids, H-polytopes and V-polytopes with n vertices,
    ||V^-T x||_1 (``_linear_gauge``); an ellipsoid's rows whose sum of squares leaves
    [2^-1022, inf) again on x and x M scaled. Any other V-polytope's gauge is max|w . x| over
    the vertices w of its unit polar (||.||_K = h_{K°}), its facet normals, when their count
    bound is within ``VERTEX_BUDGET`` and at most ``LP_COST_FACETS`` per row; otherwise one
    HiGHS LP per nonzero row. ``UndecidedError`` where Qhull fails twice."""
    rows, single = _check_rows(body, x)
    with np.errstate(over="ignore", invalid="ignore"):
        g = _gauge(body, rows)
        if isinstance(body, Ellipsoid) and not 2.0**-511 <= g.min(initial=1.0) <= g.max(initial=1.0) < np.inf:
            redo = np.flatnonzero(~((g >= 2.0**-511) & (g < np.inf)))
            x, ex = _pow2_scaled(rows[redo], 1)
            y, ey = _pow2_scaled(x @ body.factor, 1)
            g[redo] = _pow2_scaled(np.sqrt((y * y).sum(axis=1)), e=-(ex + ey)[:, 0])[0]
    return float(g[0]) if single else g


def _gauge(body: ConvexBody, rows: np.ndarray) -> np.ndarray:
    """The gauges of a (k, n) array of finite rows, not checked again: ``gauge``'s kernel."""
    linear = _linear_gauge(body)
    if linear is not None:
        return _row_norms(rows, *linear[:2])
    m, n = body.vertices.shape
    nonzero = np.flatnonzero(np.any(rows, axis=1))
    # Enumerate the facets within the budget when their bound is at most, per
    # LP replaced, what one LP costs: the bound for m = n, at most LP_COST_FACETS.
    per_lp = min(_max_facets(2 * n, n), LP_COST_FACETS)
    if _vertex_bound(m, n) <= min(VERTEX_BUDGET, per_lp * nonzero.size):
        # The facet normals w, the unit polar's vertices: max |x . w| = ||x W^T||_inf.
        return _row_norms(rows, _enumerate_vertices(body.vertices).T, np.inf)
    from scipy.optimize import linprog

    # One LP per nonzero row, min w . (c+ + c-) s.t. W^T (c+ - c-) = x', c+- >= 0 (HiGHS drops
    # entries below 1e-9; its tolerances are absolute): W is V scaled per column, x with it, then
    # per vertex, whose coefficient costs w_j = 2^-e_j; x' is x scaled by 2^-f: ||x||_V = 2^f g'.
    v, ec = _pow2_scaled(body.vertices, 0)
    (v, ev), (x, f) = _pow2_scaled(v, 1), _pow2_scaled(_pow2_scaled(rows, e=ec)[0], 1)
    cost, a_eq = np.tile(_pow2_scaled(np.ones(m), e=ev[:, 0])[0], 2), np.hstack([v.T, -v.T])
    g = np.zeros(rows.shape[0])
    for i in nonzero:
        res = linprog(cost, A_eq=a_eq, b_eq=x[i], bounds=(0, None), method="highs")
        if not res.success:
            raise DegenerateBodyError(f"gauge LP failed: {res.message}")
        g[i] = res.fun
    return _pow2_scaled(g, e=-f[:, 0])[0]


def support(body: ConvexBody, u) -> float | np.ndarray:
    """Support function h_body(u) = max{u . x : x in body}: the gauge of the unit polar.

    Takes one vector or (k, n) rows, and raises, as ``gauge`` does.
    """
    return gauge(polar_dual(body), u)


def _inverse_transpose(f: np.ndarray, c: float) -> np.ndarray:
    """F^-T / c for an invertible F: a factor of (F F^T)^-1 / c^2, or for c = 1 the dual basis of F's rows."""
    return np.linalg.inv(f).T / c


def _inverse_factor(m: np.ndarray, d: float) -> np.ndarray:
    """C^-T for d M = C C^T, M SPD: a factor of (d M)^-1, the one place that factors and inverts it."""
    return _inverse_transpose(_spd_cholesky(d * m, "ellipsoid matrix"), 1.0)


def _induced_pair(c: np.ndarray, g: np.ndarray) -> tuple[Ellipsoid, Ellipsoid]:
    """{x (2 A)^-1 x <= 1} and {p (2 B)^-1 p <= 1} for A = C C^T, B = G G^T: factors C^-T / sqrt(2), G^-T / sqrt(2)."""
    return tuple(Ellipsoid._from_factor(_inverse_transpose(f, sqrt(2.0))) for f in (c, g))


def polar_dual(body: ConvexBody, hbar: float = 1.0) -> ConvexBody:
    """The hbar-polar dual X^hbar = {p : p . x <= hbar on X}.

    Representation map: an ellipsoid {x Q x <= 1} dualizes to the ellipsoid
    with matrix Q^{-1} / hbar^2 (so a ball of radius R dualizes to one of
    radius hbar / R); H-polytope rows a_i become V-polytope vertices
    hbar * a_i, and V-polytope vertices v_j become H-polytope rows v_j / hbar.
    """
    _check_hbar(hbar)
    if isinstance(body, Ellipsoid):
        return Ellipsoid._from_factor(_inverse_transpose(body.factor, hbar))
    c = float(hbar)
    lo, hi = body.row_range
    inverse = body._inverse if c == 1.0 else None  # the unit polar's array is the body's, bit for bit
    if isinstance(body, HPolytope):
        return _scaled_polytope(VPolytope, c * body.rows, (c * lo, c * hi), inverse)
    return _scaled_polytope(HPolytope, body.vertices / c, (lo / c, hi / c), inverse)


def _scaled_polytope(cls, arr: np.ndarray, row_range: tuple[float, float], inverse: tuple[np.ndarray, float] | None):
    """A polytope of class cls from arr = c * (a validated array), just computed, given
    c times the least and greatest of its row maxima and, for c = 1, the array's kept
    inverse. Rounding is monotone, so those are exactly arr's, and the finiteness and
    nonzero-row checks read them; scaling keeps the rank."""
    kind = cls.__name__[0]
    _check_row_range(row_range, kind)
    return _unchecked(cls, **{_POLYTOPE_WORDS[kind][0]: _freeze(arr)}, row_range=row_range, _inverse=inverse)


def linear_image(body: ConvexBody, l: np.ndarray) -> ConvexBody:
    """The image L.body = {L x : x in body} under an invertible matrix L with finite entries."""
    l = np.asarray(l, dtype=float)
    if l.shape != (body.dim, body.dim):
        raise DimensionError(f"expected a {body.dim}x{body.dim} matrix, got {l.shape}")
    if not isfinite(np.abs(l).max()):
        raise ValueError("matrix entries must be finite")
    svals = np.linalg.svd(l, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularMatrixError("linear image requires an invertible matrix")
    if isinstance(body, Ellipsoid):
        return Ellipsoid._from_factor(np.linalg.solve(l.T, body.factor))
    if isinstance(body, VPolytope):
        return VPolytope(body.vertices @ l.T)
    return HPolytope(np.linalg.solve(l.T, body.rows.T).T)


def scale(body: ConvexBody, factor: float) -> ConvexBody:
    """The dilate factor * body for a positive finite factor."""
    if not 0 < factor < np.inf:
        raise ValueError(f"scale factor must be positive and finite, got {factor}")
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
    # Norms and gaps are taken on rows scaled by ``_pow2_scaled``, so no square underflows.
    scaled, e = _pow2_scaled(rows, 1)
    unit_norms = np.linalg.norm(scaled, axis=1)
    units = scaled / unit_norms[:, None]
    # Such rows have unit directions within 2 * ROW_MERGE_RTOL of each other.
    tree = KDTree(np.vstack([units, -units]))
    keep = np.ones(m, dtype=bool)
    for i in np.argsort(-_pow2_scaled(unit_norms, e=-e[:, 0])[0], kind="stable"):
        if keep[i]:
            near = np.asarray(tree.query_ball_point(units[i], 2 * ROW_MERGE_RTOL), dtype=int) % m
            near = near[(near != i) & keep[near]]
            a, b = scaled[near], _pow2_scaled(rows[i], e=e[near])[0]
            gap = np.minimum(np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1))
            keep[near[gap <= ROW_MERGE_RTOL * unit_norms[near]]] = False
    return rows[keep]


def hpolytope_vertices(body: HPolytope) -> np.ndarray:
    """All vertices of an H-polytope (both sign classes).

    ``UndecidedError`` before any work when their count bound (2^n for n rows,
    McMullen's for more) exceeds ``VERTEX_BUDGET``; otherwise ``_enumerate_vertices``.
    """
    _check_budget(_vertex_bound(*body.rows.shape))
    return _enumerate_vertices(body.rows)


def _check_budget(bound: int) -> None:
    """UndecidedError when a vertex count bound exceeds ``VERTEX_BUDGET``."""
    if bound > VERTEX_BUDGET:
        raise UndecidedError(f"undecided: up to {bound} vertices exceed the enumeration budget {VERTEX_BUDGET}")


def _enumerate_vertices(rows: np.ndarray) -> np.ndarray:
    """The vertices of {x : |a_i . x| <= 1} over validated rows a_i, with no budget. In
    closed form for dim 1 and for n rows A (a parallelotope): A^-1 s over the 2^n sign
    vectors s, solved per block of ``_sign_blocks``. Otherwise by Qhull; where it fails,
    nearly coincident rows are merged (``ROW_MERGE_RTOL``) and Qhull runs once more;
    ``UndecidedError`` if it fails again. Each route runs on the rows' columns scaled, and
    maps the vertices back; those that overflow raise ValueError, as an outside vector would.
    """
    m, n = rows.shape
    rows, e = _pow2_scaled(rows, 0)
    if n == 1:
        vertices = np.array([[1.0], [-1.0]]) / np.max(np.abs(rows))
    elif m == n:
        # A parallelotope (the rows span, so A is invertible): A v = s over the sign vectors s.
        vertices = np.concatenate([np.linalg.solve(rows, s.T).T for s in _sign_blocks(n, 2**n)])
    else:
        from scipy.spatial import QhullError

        try:
            vertices = _halfspace_vertices(rows)
        except QhullError:
            try:
                vertices = _halfspace_vertices(_merge_close_rows(rows))
            except QhullError as exc:
                raise UndecidedError(f"undecided: Qhull vertex enumeration failed: {exc}".splitlines()[0]) from None
    with np.errstate(over="ignore"):
        vertices = _pow2_scaled(vertices, e=e)[0]
    if not isfinite(np.abs(vertices).max()):
        raise ValueError("vector entries must be finite")
    return vertices


def _sign_blocks(n: int, count: int) -> Iterator[np.ndarray]:
    """The first count sign vectors s in {-1, 1}^n, s_k = -1 where bit k of the row number
    is set, in blocks of about ``_BLOCK_ENTRIES`` entries. Below count = 2^n the last signs
    are +1. Tables of at most ``_SIGN_TABLE_ENTRIES`` entries are built once, frozen."""
    if count * n <= _SIGN_TABLE_ENTRIES:
        yield _sign_table(n, count)
        return
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, count, step):
        yield _signs(n, start, min(start + step, count))


def _signs(n: int, start: int, stop: int) -> np.ndarray:
    """The sign vectors numbered start .. stop - 1 (``_sign_blocks``)."""
    return 1.0 - 2.0 * ((np.arange(start, stop)[:, None] >> np.arange(n)) & 1)


@lru_cache(maxsize=None)
def _sign_table(n: int, count: int) -> np.ndarray:
    """``_signs(n, 0, count)`` frozen, built once: a few small tables, since count is
    2^n or 2^(n-1) and count * n <= ``_SIGN_TABLE_ENTRIES``."""
    return _freeze(_signs(n, 0, count))


def _kind_order(body: ConvexBody) -> int:
    """The order of kinds in ``_polar_pairing``: H-polytope, V-polytope with n vertices, with more, ellipsoid."""
    return 3 if isinstance(body, Ellipsoid) else 0 if isinstance(body, HPolytope) else 1 + (len(body.vertices) > body.dim)


def _polar_pairing(a: ConvexBody, b: ConvexBody) -> tuple[float, int]:
    """sigma(a, b) = max{x . y : x in a°, y in b°} = max ||y||_a over y in b°, exact or
    UndecidedError; no polar body is built. It is s 2^e for the returned (s, e): each route
    runs on its operands scaled by ``_pow2_scaled``, so sigma may lie past the float range.

    max{lambda : lambda * b° in a} = 1 / sigma(a, b) (``inclusion_scale``): 1 / sigma(outer,
    inner°) for containment, 1 / (hbar sigma(X, P)) for P^hbar = hbar P° in X. sigma is
    symmetric, so the arguments are ordered by kind (``_kind_order``; a tie keeps them) and
    the route is that of b, the earlier kind: the swap is lambda K in L iff lambda L° in K°.

    * H-polytope with rows c_j, b°'s vertices: max_j ||c_j||_a, in closed form unless a is a
      V-polytope with more than n vertices. This gives E in H, H in H and V in any body.
    * V-polytope with n vertices V: b° is the parallelotope with the vertices s V^-T. Under
      the budget of 2^n, over the 2^(n-1) sign vectors s with last sign +1 (the gauges are
      even), ||s G||_q with G = V^-T M for a's gauge ||x M||_q, one product per block, or
      a's gauges of s V^-T. ``_linear_gauge`` refuses an overflowed V^-1.
    * V-polytope with more than n vertices: a's gauges of b°'s Qhull vertices, checked
      (they can overflow); undecided past McMullen's bound.
    * Two ellipsoids: sigma_max(F_b^T F_a).

    So only E or V against V can be refused by the budget (2^n for n vertices, refused above
    n = 20; McMullen's bound for more), and only a pairing with a V-polytope with more than n
    vertices (its polar's vertices, or its facets) is undecided where Qhull fails twice.
    Overflowed products give inf or NaN, which np.maximum keeps and ``inclusion_scale`` reads as inf.
    """
    if _kind_order(a) < _kind_order(b):
        a, b = b, a
    if isinstance(b, Ellipsoid):
        (fb, eb), (fa, ea) = _pow2_scaled(b.factor), _pow2_scaled(a.factor)
        return float(np.linalg.svd(fb.T @ fa, compute_uv=False)[0]), eb + ea
    n, signs = b.dim, None
    if isinstance(b, HPolytope):
        y, top = b.rows, b.row_range[1]
    elif len(b.vertices) > n:
        _check_budget(_vertex_bound(*b.vertices.shape))
        y, top = _enumerate_vertices(b.vertices), None
    else:
        _check_budget(2**n)
        y, _, top = _linear_gauge(b)
        y, signs = y.T, _sign_blocks(n, 2 ** (n - 1))
    (y, e), (m, q, top) = _pow2_scaled(y, top=top), _linear_gauge(a) or (None, None, None)
    m, em = (None, 0) if m is None else _pow2_scaled(m, top=top)
    if signs is None:
        return float((_gauge(a, y) if m is None else _row_norms(y, m, q)).max()), e + em
    g = y if m is None else y @ m
    return float(reduce(np.maximum, ((_gauge(a, s @ g) if m is None else _row_norms(s, g, q)).max()
                                     for s in signs))), e + em


def inclusion_scale(x: ConvexBody, p: ConvexBody, hbar: float = 1.0) -> float:
    """lambda_max = max{lambda > 0 : lambda * P^hbar subset of X} = 1 / (hbar sigma(X, P)).

    Exact, or ``UndecidedError`` where sigma, ``_polar_pairing``, is (its docstring lists
    the routes); symmetric in its body arguments; 0 where hbar sigma overflows (inf or
    NaN), inf where it underflows. K in L is ``inclusion_scale(L, polar_dual(K)) >= 1``.
    """
    _check_pair_dims(x, p)
    _check_hbar(hbar)
    s, e = _polar_pairing(x, p)
    t = float(_pow2_scaled(float(hbar) * s, e=-e)[0])
    return 0.0 if not t < np.inf else 1.0 / t if t else np.inf


DEFAULT_TOL = 1e-9


def _accepts(r: float | np.ndarray, tol: float) -> bool | list[bool]:
    """The one acceptance rule: a ratio r (>= 1 iff the bound holds) passes when r >= 1/(1 + tol),
    for a finite tol >= 0 (``_check_tol``). An array of ratios gets a list of verdicts, one each."""
    _check_tol(tol)
    ok = r >= 1.0 / (1.0 + tol)
    return ok.tolist() if isinstance(ok, np.ndarray) else bool(ok)


def _check_hbar(hbar: float) -> None:
    """The one hbar check: ValueError unless hbar is positive and finite."""
    if not 0 < hbar < np.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")


def _check_pair_dims(x: ConvexBody, p: ConvexBody) -> None:
    """The one X/P dimension check: DimensionError unless X and P have the same dimension."""
    if x.dim != p.dim:
        raise DimensionError(f"dimension mismatch: X is {x.dim}-dim, P is {p.dim}-dim")


def contains(outer: ConvexBody, inner: ConvexBody, tol: float = DEFAULT_TOL) -> bool:
    """Test inner subset-of (1 + tol) * outer.

    Decided by ``inclusion_scale(outer, polar_dual(inner))`` = max{lambda : lambda * inner
    in outer}, accepted when it is at least 1/(1 + tol), the same rule as the quantum-pair
    verdict and the 4*hbar capacity bound; ``UndecidedError`` where the scale is.
    """
    if outer.dim != inner.dim:
        raise DimensionError(f"dimension mismatch: outer {outer.dim}, inner {inner.dim}")
    return _accepts(inclusion_scale(outer, polar_dual(inner)), tol)


@dataclass(frozen=True)
class PairVerdict:
    """Result of a quantum-pair check.

    ``margin`` is lambda_max - 1: the dimensionless slack of the inclusion
    lambda * P^hbar inside X (nonnegative iff the pair holds). lambda_max is
    always exact, so ``exact`` is always True; a pair that cannot be decided
    exactly raises ``UndecidedError`` instead.
    """

    is_pair: bool
    lambda_max: float
    margin: float
    exact: bool = True


def is_quantum_pair(x: ConvexBody, p: ConvexBody, hbar: float = 1.0,
                    tol: float = DEFAULT_TOL) -> PairVerdict:
    """Decide whether (X, P) is an hbar-polar quantum pair (X^hbar inside P).

    Decided through the inclusion scale, so the verdict, the scale, and the
    product-capacity value are mutually consistent by construction; the
    boundary lambda_max = 1 (dual touching) counts as a pair. Raises
    ``UndecidedError`` where ``inclusion_scale`` does.
    """
    lam = inclusion_scale(x, p, hbar)
    return PairVerdict(is_pair=_accepts(lam, tol), lambda_max=lam, margin=lam - 1.0)


def enclosing_ellipsoid(points, mode: str = "ball") -> Ellipsoid:
    """Origin-centered ellipsoid enclosing every point of a centered sample.

    mode="ball" gives the smallest origin-centered Euclidean ball.
    mode="mvee" gives a minimum-volume enclosing ellipsoid of {+-p_i}, within
    a (1 + MVEE_VOL_TOL) volume factor of optimal, by Frank-Wolfe ascent on the
    determinant over a working set: a Kumar-Yildirim core set to start, Todd-Yildirim
    away and drop steps, and a scan of all m points only to certify the factor or
    to add the worst violators.

    Both fit the points scaled by ``_pow2_scaled``, and the factor is scaled back; where
    its matrix then leaves the normal float range, DegenerateBodyError (``Ellipsoid._from_factor``).
    """
    if mode not in ("ball", "mvee"):
        raise ValueError(f"unknown mode {mode!r}; expected 'ball' or 'mvee'")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise DegenerateBodyError("empty point set")
    if not isfinite(top := np.abs(pts).max()):  # NaN or inf exactly when an entry is not finite
        raise ValueError("points must be finite")
    pts, e = _pow2_scaled(pts, top=top)
    with np.errstate(over="ignore"):
        return Ellipsoid._from_factor(_pow2_scaled(_unit_scale_fit(pts, mode).factor, e=e)[0])


def _unit_scale_fit(pts: np.ndarray, mode: str) -> Ellipsoid:
    """``enclosing_ellipsoid`` of points with max |entry| in [0.5, 1)."""
    n = pts.shape[1]
    if np.linalg.matrix_rank(pts) < n:
        raise DegenerateBodyError("points do not span the space; enclosing body is degenerate")

    if mode == "ball":
        r = np.max(np.linalg.norm(pts, axis=1))
        return Ellipsoid(np.eye(n) / r**2)

    # Kumar-Yildirim core set: the farthest point, then the farthest along a direction
    # orthogonal to the earlier picks, n in all; then along the picks' n dual directions.
    picks = [int(np.argmax(np.einsum("ij,ij->i", pts, pts)))]
    for _ in range(n - 1):
        picks.append(int(np.argmax(np.abs(pts @ np.linalg.svd(pts[picks])[2][-1]))))
    picks += [int(np.argmax(np.abs(pts @ w))) for w in _inverse_transpose(pts[picks], 1.0)]
    work = np.unique(picks)
    # Whitened by the core set's R the cloud is well conditioned; the fit is affine-invariant.
    white = np.linalg.inv(np.linalg.qr(pts[work], mode="r"))
    pts = pts @ white
    p, u, steps = pts[work], np.full(work.size, 1.0 / work.size), 0
    # n (1 + eps) with (1 + eps)^(n/2) = 1 + MVEE_VOL_TOL maps the volume gap to the duality gap.
    bound = n * (1.0 + MVEE_VOL_TOL) ** (2.0 / n)
    while True:
        mat = p.T @ (p * u[:, None])
        g = np.einsum("ij,ij->i", p @ (mat_inv := np.linalg.inv(mat)), p)
        if g.max() <= bound:
            # The working set is solved: certify on all m points, or add the worst violators.
            g_all = np.einsum("ij,ij->i", pts @ mat_inv, pts)
            worst = np.flatnonzero(g_all > bound)
            if not worst.size:
                break
            new = np.setdiff1d(worst[np.argsort(g_all[worst])[-2 * n:]], work)
            work, u = np.r_[work, new], np.r_[u, np.zeros(new.size)]
            p, g = pts[work], g_all[work]
        if steps == MVEE_MAX_ITER:
            raise ConvergenceError(f"enclosing ellipsoid did not reach the {MVEE_VOL_TOL:.0%} volume gap "
                                   f"in {MVEE_MAX_ITER} iterations")
        steps += 1
        # Toward the worst point, or away from the support point of least gauge,
        # whichever is further from the optimum g = n; a drop step ends at u_k = 0.
        j, k = int(np.argmax(g)), int(np.argmin(np.where(u > 0, g, np.inf)))
        if g[j] - n >= n - g[k]:
            step = (g[j] - n) / (n * (g[j] - 1.0))
            u *= 1.0 - step
            u[j] += step
        else:
            drop = u[k] / (1.0 - u[k])
            step = min((n - g[k]) / (n * (g[k] - 1.0)), drop) if g[k] > 1.0 else drop
            u *= 1.0 + step
            u[k] = 0.0 if step == drop else u[k] - step
    # Scale by the worst gauge so containment of every input point is exact; undo the whitening.
    return Ellipsoid._from_factor(white @ _inverse_factor(mat, np.max(g_all)))
