"""Two-dimensional section polylines of bodies and Lagrangian products.

emit_section_plot writes a closed polyline of a 2-D section boundary in a
plain text format:

    # section: <label>
    # plane: <i> <j>
    # area: <shoelace area of the emitted polygon>
    # points: <number of distinct points>
    x0 y0
    ...
    x0 y0          <- first point repeated to close the polyline

Curved boundaries (ellipsoid sections) are sampled at 256 boundary points;
polygonal sections emit their exact vertices. The annotated area is always
the polygonal (shoelace) area of what is drawn. Polygon axes follow the plane
(i, j) in the order given; a conjugate plane of X x P gives the box of its two
axis sections; a plane row is tested against its own largest entry (scale-free).
"""

from __future__ import annotations

import numpy as np
from .bodies import (ConvexBody, Ellipsoid, HPolytope, VPolytope, _enumerate_vertices, gauge,
                     hpolytope_vertices, polar_dual)
from .errors import DegenerateBodyError, DimensionError

CURVE_POINTS = 256


def _shoelace(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _order_by_angle(points: np.ndarray) -> np.ndarray:
    angles = np.arctan2(points[:, 1], points[:, 0])
    return points[np.argsort(angles)]


def _ellipse_polyline(q2: np.ndarray) -> np.ndarray:
    """Boundary of {w : w^T Q2 w <= 1} sampled at ``CURVE_POINTS`` parameter values."""
    w, v = np.linalg.eigh(q2)
    if w[0] <= 0:
        raise DegenerateBodyError("section is unbounded on the requested plane")
    t = np.linspace(0.0, 2.0 * np.pi, CURVE_POINTS, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    return circle @ np.diag(1.0 / np.sqrt(w)) @ v.T


def section_polygon(body: ConvexBody, plane: tuple[int, int]) -> np.ndarray:
    """Points outlining the section of a body by the coordinate plane (i, j).

    The section is {(s, t) : s e_i + t e_j in body}. Indices are 0-based
    coordinates of the body's own space.
    """
    i, j = plane
    if not (0 <= i < body.dim and 0 <= j < body.dim) or i == j:
        raise IndexError(f"plane indices must be distinct and within 0..{body.dim - 1}, got {plane}")
    if isinstance(body, Ellipsoid):
        sub = body.matrix[np.ix_([i, j], [i, j])]
        return _ellipse_polyline(sub)
    # A V-polytope's facet rows are the vertices of its unit polar.
    rows = hpolytope_vertices(polar_dual(body)) if isinstance(body, VPolytope) else body.rows
    restricted = rows[:, [i, j]]
    # A row with a plane part below 1e-14 of its own largest entry constrains nothing
    # once the other coordinates are pinned to zero; HPolytope refuses rows that do not span.
    plane_rows = restricted[np.abs(restricted).max(axis=1) > 1e-14 * np.abs(rows).max(axis=1)]
    # A polygon has at most one vertex per row: only the n-dim enumeration is budgeted.
    return _order_by_angle(_enumerate_vertices(HPolytope(plane_rows).rows))


def product_section_rectangle(x_body: ConvexBody, p_body: ConvexBody,
                              plane: tuple[int, int]) -> np.ndarray:
    """Section of X x P by a plane of product coordinates (x_1..x_n, p_1..p_n).

    Both-position or both-momentum planes reduce to a section of that factor, a
    conjugate plane to the box |s| <= 1/g_i, |t| <= 1/g_j of the axis sections,
    g_k the factor's gauge at its axis. Axes follow the plane in the order given.
    """
    n = x_body.dim
    if p_body.dim != n:
        raise DimensionError(f"dimension mismatch: X is {n}-dim, P is {p_body.dim}-dim")
    i, j = plane
    if not (0 <= i < 2 * n and 0 <= j < 2 * n) or i == j:
        raise IndexError(f"plane indices must be distinct and within 0..{2 * n - 1}, got {plane}")
    factors = (x_body, p_body)
    if i // n == j // n:
        return section_polygon(factors[i // n], (i % n, j % n))
    g = [gauge(factors[k // n], np.eye(n)[k % n]) for k in (i, j)]
    return section_polygon(HPolytope(np.diag(g)), (0, 1))


def render_polyline(points: np.ndarray, plane: tuple[int, int], label: str = "section") -> str:
    """Serialize a section polygon in the documented closed-polyline text format."""
    area = _shoelace(points)
    lines = [
        f"# section: {label}",
        f"# plane: {plane[0]} {plane[1]}",
        f"# area: {area:.12g}",
        f"# points: {len(points)}",
    ]
    closed = np.vstack([points, points[:1]])
    lines += [f"{px:.12g} {py:.12g}" for px, py in closed]
    return "\n".join(lines) + "\n"


def emit_section_plot(body_or_product, plane: tuple[int, int], label: str = "section") -> str:
    """Text polyline of a 2-D section of a body or a product (X, P) pair."""
    if isinstance(body_or_product, tuple):
        x_body, p_body = body_or_product
        points = product_section_rectangle(x_body, p_body, plane)
    else:
        points = section_polygon(body_or_product, plane)
    return render_polyline(points, plane, label)
