"""Scaled monomial element bases, Legendre edge bases, and quadrature rules.

Element bases are centroid-centered monomials in (x - xc)/h_T and
(y - yc)/h_T, ordered graded-lexicographically: 1, X, Y, X^2, XY, Y^2, ...
Centering and scaling free the basis of the element's size and position, but
its mass matrix is ill conditioned at high degree (cond 1.1e8 at degree 4 on
the uniform triangles, 1.9e10 with vertices moved by up to h/10), so the
weak space orthonormalizes it per shape class and solves no mass matrix.

Edge bases are Legendre polynomials in the arc-length coordinate
t in [-1, 1] along the edge's ascending-vertex direction, so edge mass
matrices are exactly diagonal.

Quadrature rules are constructed for a requested polynomial exactness
degree d: tensor Gauss-Legendre on rectangles, Gauss-Legendre on edges,
and on triangles a fully symmetric rule of 6, 7, 12 or 16 points at
d = 4, 5, 6 or 8 (the degrees the element families use), else a collapsed
(Duffy) tensor rule with a Gauss-Jacobi factor absorbing the volume
Jacobian.  For integrands with a point singularity at a vertex,
graded_rule composes the rule for a segment or an element with one dyadic
grading toward that vertex: level i is the cell scaled by 2^-i about it,
and its children are the cell halved about each vertex (and a triangle's
middle child), all mapped in one stacked call.

map_to_element, map_to_edge and _monomials are the one code for the element
map, the edge map and the scaled monomials; they take stacks of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.special import roots_jacobi, roots_legendre

from ._checks import check_integer, real_array

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


class ElementBasis:
    """Centroid-centered, diameter-scaled monomial basis on one element."""

    def __init__(self, degree: int, center, scale: float):
        check_integer(degree, "degree")
        self.degree = degree
        self.center = real_array(center, "center")
        if self.center.shape != (2,) or not np.isfinite(self.center).all():
            raise ValueError(f"center must be a finite point of shape (2,), got {center!r}")
        self.scale = float(scale)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and > 0, got {scale!r}")
        self.exponents = monomial_exponents(degree)

    @property
    def dim(self) -> int:
        return self.exponents.shape[0]

    def _scaled(self, points):
        return (np.atleast_2d(np.asarray(points, dtype=float)) - self.center) / self.scale

    def eval(self, points) -> np.ndarray:
        """Values of all basis functions: (npoints, dim)."""
        uv = self._scaled(points)
        return _monomials(uv[:, 0], uv[:, 1], self.degree)

    def grad(self, points) -> np.ndarray:
        """Analytic gradients, chain factor 1/scale included: (npoints, dim, 2)."""
        uv = self._scaled(points)
        lower = _monomials(uv[:, 0], uv[:, 1], max(self.degree - 1, 0))
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        i = (a + b - 1) * (a + b) // 2 + b  # X^(a-1) Y^b in the basis of one degree less
        out = np.zeros((uv.shape[0], self.dim, 2))
        am, bm = a > 0, b > 0
        out[:, am, 0] = a[am] * lower[:, i[am]] / self.scale
        out[:, bm, 1] = b[bm] * lower[:, i[bm] - 1] / self.scale
        return out


def _monomials(u, v, degree: int) -> np.ndarray:
    """X^a Y^b at X = u, Y = v, u and v of one shape S, for (a, b) in monomial_exponents(degree).

    Shape S + (dim_pk(degree),), the basis axis the slowest in memory.
    """
    powers = np.empty((degree + 1, 2) + np.shape(u))
    powers[0] = 1.0
    if degree:
        powers[1, 0], powers[1, 1] = u, v
    for p in range(2, degree + 1):
        np.multiply(powers[p - 1], powers[1], out=powers[p])
    out = np.empty((dim_pk(degree),) + powers.shape[2:])
    for r in range(degree + 1):  # X^r, X^(r-1) Y, ..., Y^r in one call
        np.multiply(powers[r::-1, 0], powers[: r + 1, 1], out=out[r * (r + 1) // 2 : dim_pk(r)])
    return out.transpose(*range(1, out.ndim), 0)


class EdgeBasis:
    """Legendre polynomials L_0..L_j in the edge coordinate t in [-1, 1]."""

    def __init__(self, degree: int):
        check_integer(degree, "degree")
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


# Fully symmetric triangle rules with positive weights and interior points
# (Lyness and Jespersen 1975; Dunavant 1985), by exactness degree: orbits
# (weight, barycentric coordinates), the weights summing to 1.  An orbit of
# () is the centroid (S3), of (a,) the 3 points (a, a, 1 - 2a) (S21), of
# (a, b) the 6 points (a, b, 1 - a - b) (S111).  Degree 5 is Radon's rule:
# a = (6 -+ sqrt(15)) / 21 with weights (155 -+ sqrt(15)) / 1200.  The
# published 15-digit values were polished by Gauss-Newton steps on the
# moment equations in 50-digit arithmetic and rounded to double; every
# monomial moment up to the degree is then exact to 6e-17.
_SYMMETRIC_TRIANGLE_RULES = {
    4: (
        (0.22338158967801147, (0.4459484909159649,)),
        (0.10995174365532187, (0.09157621350977074,)),
    ),
    5: (
        (0.225, ()),
        (0.1323941527885062, (0.4701420641051151,)),
        (0.12593918054482714, (0.10128650732345634,)),
    ),
    6: (
        (0.11678627572637937, (0.24928674517091043,)),
        (0.05084490637020682, (0.06308901449150223,)),
        (0.08285107561837357, (0.053145049844816945, 0.3103524510337844)),
    ),
    8: (
        (0.14431560767778717, ()),
        (0.09509163426728462, (0.4592925882927232,)),
        (0.10321737053471824, (0.1705693077517602,)),
        (0.03245849762319808, (0.05054722831703098,)),
        (0.027230314174434993, (0.008394777409957605, 0.2631128296346381)),
    ),
}


def _symmetric_triangle_rule(orbits) -> tuple[np.ndarray, np.ndarray]:
    """Points (x, y) = barycentric (l1, l2) and weights, summing to 1/2, of a table's orbits."""
    pts, ww = [], []
    for weight, coords in orbits:
        if not coords:
            orbit = [(1.0 / 3.0, 1.0 / 3.0)]
        elif len(coords) == 1:
            a, c = coords[0], 1.0 - 2.0 * coords[0]
            orbit = [(a, a), (a, c), (c, a)]
        else:
            a, b = coords
            c = 1.0 - a - b
            orbit = [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]
        pts += orbit
        ww += [weight / 2.0] * len(orbit)
    return np.array(pts), np.array(ww)


@lru_cache(maxsize=None, typed=True)  # typed: the rule cached for 4 must not answer 4.0
def element_quadrature(shape: str, d: int) -> QuadratureRule:
    """Rule of exactness >= d on the reference triangle or square.

    Rectangles take the tensor Gauss-Legendre rule of (d + 2) // 2 points
    per axis.  Triangles take a fully symmetric rule of 6, 7, 12 and 16
    points at d = 4, 5, 6 and 8, and otherwise the collapsed Gauss-Jacobi
    product of ((d + 2) // 2)^2 points (the centroid alone at d <= 1).
    """
    check_integer(d, "exactness degree")
    n = (d + 2) // 2
    if shape == "triangle" and d in _SYMMETRIC_TRIANGLE_RULES:
        pts, ww = _symmetric_triangle_rule(_SYMMETRIC_TRIANGLE_RULES[d])
    elif shape == "rectangle":
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


@lru_cache(maxsize=None, typed=True)
def edge_quadrature(d: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] of exactness >= d."""
    check_integer(d, "exactness degree")
    n = (d + 2) // 2
    x, w = roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(points=x, weights=w)


def map_to_element(rule: QuadratureRule, verts) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference rule onto triangles or parallelograms, verts (..., 3 or 4, 2).

    One formula for both shapes: v0 + p0 e1 + p1 e2, e1 from vertex 0 to
    vertex 1 and e2 to the last vertex.  Returns points (..., n, 2) and
    weights (..., n), the weights summing to each cell's area.
    """
    verts = np.asarray(verts, dtype=float)
    if verts.ndim < 2 or verts.shape[-2:] not in ((3, 2), (4, 2)):
        raise ValueError(f"expected vertices of shape (..., 3 or 4, 2), got {verts.shape}")
    # x and y on a leading axis, so numpy's inner loops run over cells, not pairs
    Z = verts.transpose(-1, *range(verts.ndim - 1))
    v0 = Z[..., :1]
    e1, e2 = Z[..., 1:2] - v0, Z[..., -1:] - v0
    pts = v0 + rule.points[:, 0] * e1 + rule.points[:, 1] * e2
    weights = rule.weights * np.abs(e1[0] * e2[1] - e1[1] * e2[0])
    return pts.transpose(*range(1, pts.ndim), 0), weights


def map_to_edge(rule: QuadratureRule, p0, p1):
    """Map an edge rule onto the segments p0 -> p1, p0 and p1 of shape (..., 2).

    Returns (points (..., n, 2), weights (..., n) summing to each segment's
    length); rule.points are the reference coordinates, t = -1 at p0 and
    t = +1 at p1.
    """
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    axes = (-1, *range(p0.ndim - 1))  # x and y on a leading axis, as in map_to_element
    P0, P1, t = p0.transpose(axes), p1.transpose(axes), rule.points
    # order="C": in the memory order of p0 and p1 the inner loops would run over x and y
    mid, half = np.add(P0, P1, order="C") / 2.0, np.subtract(P1, P0, order="C") / 2.0
    pts = np.empty(mid.shape[1:] + (t.size, 2))
    # written through (n, 2, segments) views, 2^14 entries at a time: the inner
    # loops run over segments, and no temporary holds all the points
    out = pts.reshape(-1, t.size, 2).transpose(1, 2, 0)
    m, h, step = mid.reshape(2, -1), half.reshape(2, -1), max(1, 2**14 // t.size)
    for e in (slice(s, s + step) for s in range(0, out.shape[-1], step)):
        np.add(m[:, e], t[:, None, None] * h[:, e], out=out[..., e])
    length = np.sqrt(half[0] * half[0] + half[1] * half[1])  # |half|, as np.linalg.norm sums it
    return pts, rule.weights * length[..., None]


def _corner_split(v: np.ndarray) -> np.ndarray:
    """The 2 or 4 congruent children of a segment, triangle or parallelogram, stacked.

    Child i, the cell halved about vertex i, is (v + v[i]) / 2, so it holds
    vertex i; a triangle's fourth child is its middle one, (v + roll(v, -1)) / 2.
    Together the children tile the cell.
    """
    children = (v + v[:, None]) / 2
    if len(v) == 3:
        children = np.concatenate([children, [(v + np.roll(v, -1, axis=0)) / 2]])
    return children


def graded_rule(verts, corner: int, d: int, depth: int):
    """Composite rule grading dyadically toward one vertex of a segment or element.

    verts holds a segment (2 vertices), a triangle (3) or a parallelogram
    (4).  Level i of the grading is the cell scaled by 2^-i about vertex
    `corner`: the rule of exactness d is applied on the children of every
    level i < depth that do not hold the corner, and on the innermost cell,
    the one at scale 2^-depth.  Those children and the cell itself are
    mapped in one stacked map_to_edge or map_to_element call.  Returns
    (points, weights), the weights summing to the cell's length or area.
    Each point is the corner plus an exactly scaled offset, so with the
    corner at the origin the points approach it without cancellation.  Used
    for integrands with a point singularity at that vertex.
    """
    cell = np.roll(np.asarray(verts, dtype=float), -corner, axis=0)
    apex = cell[0]
    # the children without the corner, then the cell itself
    cells = np.concatenate([_corner_split(cell)[1:], cell[None]])
    if len(cell) == 2:
        pts, w = map_to_edge(edge_quadrature(d), cells[:, 0], cells[:, 1])
        dim = 1
    else:
        shape = "triangle" if len(cell) == 3 else "rectangle"
        pts, w = map_to_element(element_quadrature(shape, d), cells)
        dim = 2
    pts = pts - apex
    # all levels 0..depth-1 of the outer children in one broadcast, then the innermost cell
    level = -np.arange(depth)[:, None, None]
    pts = np.concatenate(
        [np.ldexp(pts[:-1], level[..., None]).reshape(-1, 2), np.ldexp(pts[-1], -depth)]
    )
    w = np.concatenate([np.ldexp(w[:-1], dim * level).ravel(), np.ldexp(w[-1], -dim * depth)])
    return apex + pts, w


def _grading_depth(strength: float, h: float) -> int:
    # Choose the dyadic depth so the untouched innermost piece, of size
    # h * 2^-depth, contributes O((h 2^-depth)^strength) ~ 2^-40 or less;
    # capped (before ceil, as 40 / strength may be inf) so r**(strength - 2) stays in range.
    depth = min(480.0, 40.0 / strength + math.log2(max(h, 1e-300)))
    return max(4, math.ceil(depth))
