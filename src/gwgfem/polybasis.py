"""Scaled monomial element bases, Legendre edge bases, and quadrature rules.

Element bases are centroid-centered monomials in (x - xc)/h_T and
(y - yc)/h_T, ordered graded-lexicographically: 1, X, Y, X^2, XY, Y^2, ...
The centering and scaling keep the element mass matrix well conditioned up
to degree 7 on shape-regular elements, which the raw monomials would not.

Edge bases are Legendre polynomials in the arc-length coordinate
t in [-1, 1] along the edge's ascending-vertex direction, so edge mass
matrices are exactly diagonal.

Quadrature rules are constructed for a requested polynomial exactness
degree d: tensor Gauss-Legendre on rectangles, a collapsed (Duffy) tensor
rule with a Gauss-Jacobi factor absorbing the volume Jacobian on
triangles, and Gauss-Legendre on edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.special import roots_jacobi, roots_legendre

__all__ = [
    "dim_pk",
    "monomial_exponents",
    "ElementBasis",
    "EdgeBasis",
    "QuadratureRule",
    "element_quadrature",
    "edge_quadrature",
    "map_to_element",
    "map_to_edge",
]


def dim_pk(r: int) -> int:
    """Dimension of P_r in two variables."""
    return (r + 1) * (r + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(r: int) -> np.ndarray:
    """Multi-indices (a, b) with a+b <= r in graded lexicographic order."""
    exps = [(d - i, i) for d in range(r + 1) for i in range(d + 1)]
    out = np.array(exps, dtype=np.int64).reshape(-1, 2)
    out.setflags(write=False)
    return out


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return pts


class ElementBasis:
    """Centroid-centered, diameter-scaled monomial basis on one element."""

    def __init__(self, degree: int, center, scale: float):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.degree = degree
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.exponents = monomial_exponents(degree)

    @property
    def dim(self) -> int:
        return self.exponents.shape[0]

    def _scaled(self, points):
        pts = _as_points(points)
        return (pts - self.center) / self.scale

    def eval(self, points) -> np.ndarray:
        """Values of all basis functions: (npoints, dim)."""
        uv = self._scaled(points)
        pu = _power_table(uv[:, 0], self.degree)
        pv = _power_table(uv[:, 1], self.degree)
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        return pu[:, a] * pv[:, b]

    def grad(self, points) -> np.ndarray:
        """Analytic gradients, chain factor 1/scale included: (npoints, dim, 2)."""
        uv = self._scaled(points)
        pu = _power_table(uv[:, 0], self.degree)
        pv = _power_table(uv[:, 1], self.degree)
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        out = np.zeros((uv.shape[0], self.dim, 2))
        am = a > 0
        bm = b > 0
        out[:, am, 0] = a[am] * pu[:, a[am] - 1] * pv[:, b[am]] / self.scale
        out[:, bm, 1] = b[bm] * pu[:, a[bm]] * pv[:, b[bm] - 1] / self.scale
        return out


def _power_table(t: np.ndarray, rmax: int) -> np.ndarray:
    out = np.ones((t.size, rmax + 1))
    for p in range(1, rmax + 1):
        out[:, p] = out[:, p - 1] * t
    return out


class EdgeBasis:
    """Legendre polynomials L_0..L_j in the edge coordinate t in [-1, 1]."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.degree = degree

    @property
    def dim(self) -> int:
        return self.degree + 1

    def eval(self, t) -> np.ndarray:
        """Values L_0(t)..L_j(t): (npoints, j+1)."""
        return npleg.legvander(np.asarray(t, dtype=float), self.degree)

    def mass_diagonal(self, length: float) -> np.ndarray:
        """Diagonal of the edge mass matrix for an edge of given length."""
        return length / (2.0 * np.arange(self.degree + 1) + 1.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference domain.

    Reference domains: unit triangle {x, y >= 0, x + y <= 1}, unit square
    [0, 1]^2, and the interval [-1, 1] for edges (1-d points).
    """

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def element_quadrature(shape: str, d: int) -> QuadratureRule:
    """Rule of exactness >= d on the reference triangle or square."""
    if d < 0:
        raise ValueError("exactness degree must be non-negative")
    n = (d + 2) // 2
    if shape == "rectangle":
        x, w = roots_legendre(n)
        x, w = (x + 1.0) / 2.0, w / 2.0
        px = np.repeat(x, n)
        py = np.tile(x, n)
        ww = np.repeat(w, n) * np.tile(w, n)
        pts = np.column_stack([px, py])
    elif shape == "triangle":
        # Collapsed tensor rule: x = a, y = b(1-a), Jacobian (1-a) handled
        # by the Gauss-Jacobi weight so n points per axis stay exact to d.
        xa, wa = roots_jacobi(n, 1.0, 0.0)
        a = (xa + 1.0) / 2.0
        wa = wa / 4.0
        xb, wb = roots_legendre(n)
        b = (xb + 1.0) / 2.0
        wb = wb / 2.0
        A = np.repeat(a, n)
        B = np.tile(b, n)
        ww = np.repeat(wa, n) * np.tile(wb, n)
        pts = np.column_stack([A, B * (1.0 - A)])
    else:
        raise ValueError(f"unknown element shape: {shape!r}")
    pts.setflags(write=False)
    ww.setflags(write=False)
    return QuadratureRule(points=pts, weights=ww)


@lru_cache(maxsize=None)
def edge_quadrature(d: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] of exactness >= d."""
    if d < 0:
        raise ValueError("exactness degree must be non-negative")
    n = (d + 2) // 2
    x, w = roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(points=x, weights=w)


def map_to_element(rule: QuadratureRule, verts) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference rule onto a physical triangle or rectangle.

    Returns physical points and weights; weights sum to the element area.
    """
    verts = np.asarray(verts, dtype=float)
    v0 = verts[0]
    if verts.shape[0] == 3:
        e1, e2 = verts[1] - v0, verts[2] - v0
    elif verts.shape[0] == 4:
        e1, e2 = verts[1] - v0, verts[3] - v0
    else:
        raise ValueError("expected 3 or 4 vertices")
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    pts = v0 + np.outer(rule.points[:, 0], e1) + np.outer(rule.points[:, 1], e2)
    return pts, rule.weights * jac


def map_to_edge(rule: QuadratureRule, p0, p1):
    """Map an edge rule onto the segment p0 -> p1.

    Returns (points, weights, t) with weights summing to the segment length
    and t the reference coordinates (t = -1 at p0, t = +1 at p1).
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    mid = (p0 + p1) / 2.0
    half = (p1 - p0) / 2.0
    t = rule.points
    pts = mid + np.outer(t, half)
    w = rule.weights * np.linalg.norm(half)
    return pts, w, t


def _corner_split(v: np.ndarray) -> list[np.ndarray]:
    """Split an element into 4 congruent children; child 0 keeps vertex 0."""
    if v.shape[0] == 3:
        m01, m12, m02 = (v[0] + v[1]) / 2, (v[1] + v[2]) / 2, (v[0] + v[2]) / 2
        return [
            np.array([v[0], m01, m02]),
            np.array([m01, v[1], m12]),
            np.array([m02, m12, v[2]]),
            np.array([m01, m12, m02]),
        ]
    c = v.mean(axis=0)
    m01, m12 = (v[0] + v[1]) / 2, (v[1] + v[2]) / 2
    m23, m30 = (v[2] + v[3]) / 2, (v[3] + v[0]) / 2
    return [
        np.array([v[0], m01, c, m30]),
        np.array([m01, v[1], m12, c]),
        np.array([c, m12, v[2], m23]),
        np.array([m30, c, m23, v[3]]),
    ]


def graded_element_rule(verts, corner: int, d: int, depth: int):
    """Composite rule grading dyadically toward one vertex of the element.

    The element is split into 4 congruent children; the child holding the
    `corner` vertex is split again, `depth` times, applying the base rule
    of exactness d on every child peeled off along the way and on the final
    innermost piece.  Used for integrands with a point singularity at that
    vertex.
    """
    verts = np.asarray(verts, dtype=float)
    w = verts.shape[0]
    order = [(corner + i) % w for i in range(w)]
    cur = verts[order]
    base = element_quadrature("triangle" if w == 3 else "rectangle", d)
    all_pts, all_w = [], []
    for _ in range(depth):
        children = _corner_split(cur)
        for child in children[1:]:
            p, ww = map_to_element(base, child)
            all_pts.append(p)
            all_w.append(ww)
        cur = children[0]
    p, ww = map_to_element(base, cur)
    all_pts.append(p)
    all_w.append(ww)
    return np.vstack(all_pts), np.concatenate(all_w)


def graded_edge_rule(p0, p1, singular_at_start: bool, d: int, depth: int):
    """Composite edge rule grading dyadically toward one endpoint.

    Returns (points, weights, t) like map_to_edge, with t measured along
    p0 -> p1 regardless of which endpoint carries the singularity.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    base = edge_quadrature(d)
    pieces = [(0.5 ** (i + 1), 0.5**i) for i in range(depth)]
    pieces.append((0.0, 0.5**depth))
    s_all, w_all = [], []
    for lo, hi in pieces:
        s_all.append((lo + hi) / 2.0 + base.points * (hi - lo) / 2.0)
        w_all.append(base.weights * (hi - lo) / 2.0)
    s = np.concatenate(s_all)  # fraction of the edge, measured from the singular end
    w_s = np.concatenate(w_all)
    # points come straight from s so tiny offsets from the singular end are
    # not lost to cancellation; t only feeds polynomial evaluation
    if singular_at_start:
        t = 2.0 * s - 1.0
        pts = p0[None, :] + np.outer(s, p1 - p0)
    else:
        t = 1.0 - 2.0 * s
        pts = p1[None, :] + np.outer(s, p0 - p1)
    return pts, w_s * np.linalg.norm(p1 - p0), t
