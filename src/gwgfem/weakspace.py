"""Weak function spaces: degrees of freedom, projections, weak gradients.

A weak function v = {v0, vb} carries an interior polynomial v0 of degree k
per element and an edge polynomial vb of degree j per edge (single valued
across elements).  The generalized weak gradient of v on an element T is

    grad_g v = grad v0 + delta_g v,

where the correction delta_g v lives in [P_ell(T)]^2 and is defined by

    (delta_g v, psi)_T = <vb - Qb v0, psi . n>_{boundary of T}

for every psi in [P_ell(T)]^2, with Qb the L2 projection onto the edge
polynomial space.  All local operators below are assembled once per element
shape class (uniform meshes only contain a handful of shapes up to
translation) and expressed in centroid-relative coordinates, which makes
them exactly translation invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .mesh import Mesh
from .polybasis import (
    EdgeBasis,
    ElementBasis,
    dim_pk,
    edge_quadrature,
    element_quadrature,
    graded_edge_rule,
    graded_element_rule,
    map_to_edge,
    map_to_element,
    monomial_exponents,
)

__all__ = [
    "WeakSpaceSignature",
    "GlobalDofMap",
    "WeakFunction",
    "OperatorCache",
    "project_Qh",
]

_VERTEX_TOL = 1e-12
# shape-class keys: centroid-relative vertices rounded to this many decimals of h_max
_SHAPE_DECIMALS = 10


@dataclass(frozen=True)
class WeakSpaceSignature:
    """Polynomial degrees (k, j, ell) of the element family P_k/P_j/[P_ell]^2."""

    k: int
    j: int
    ell: int

    def __post_init__(self):
        for name in ("k", "j", "ell"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"degree {name} must be a non-negative integer, got {value!r}")

    @property
    def s(self) -> int:
        """Largest degree whose vector polynomials see the commuting identity."""
        return min(self.j, self.ell)

    @property
    def m(self) -> int:
        """Degree of the space containing grad_g v: max(k - 1, ell)."""
        return max(self.k - 1, self.ell)

    @property
    def interior_dim(self) -> int:
        return dim_pk(self.k)

    @property
    def edge_dim(self) -> int:
        return self.j + 1


class GlobalDofMap:
    """Global numbering: all interior blocks first, then one block per edge.

    Element e owns coefficients [e*n0, (e+1)*n0); edge E owns
    [n_interior + E*nb, n_interior + (E+1)*nb).  The per-element gather
    table orders local degrees of freedom as interior block followed by the
    edge block of each side in side order.
    """

    def __init__(self, mesh: Mesh, signature: WeakSpaceSignature):
        self.mesh = mesh
        self.signature = signature
        n0, nb = signature.interior_dim, signature.edge_dim
        ne = mesh.n_elements
        self.n_interior = ne * n0
        self.total = self.n_interior + mesh.n_edges * nb
        width = mesh.elements.shape[1]
        table = np.empty((ne, n0 + width * nb), dtype=np.int64)
        table[:, :n0] = n0 * np.arange(ne)[:, None] + np.arange(n0)
        for side in range(width):
            base = self.n_interior + mesh.element_edges[:, side] * nb
            table[:, n0 + side * nb : n0 + (side + 1) * nb] = base[:, None] + np.arange(nb)
        table.setflags(write=False)
        self.element_dof_table = table

    def interior_offset(self, element: int) -> int:
        return element * self.signature.interior_dim

    def edge_offset(self, edge: int) -> int:
        return self.n_interior + edge * self.signature.edge_dim

    def element_dofs(self, element: int) -> np.ndarray:
        """Local-to-global indices: interior block, then side edge blocks."""
        return self.element_dof_table[element]

    @cached_property
    def boundary_dofs(self) -> np.ndarray:
        """Indices of edge coefficients sitting on the domain boundary."""
        nb = self.signature.edge_dim
        edges = np.nonzero(self.mesh.boundary_edge)[0]
        return (self.n_interior + edges[:, None] * nb + np.arange(nb)).ravel()


class WeakFunction:
    """Coefficient vector of a weak function over a GlobalDofMap."""

    def __init__(self, dofmap: GlobalDofMap, coeffs=None):
        self.dofmap = dofmap
        if coeffs is None:
            coeffs = np.zeros(dofmap.total)
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (dofmap.total,):
                raise ValueError(
                    f"coefficient vector has shape {coeffs.shape}, expected ({dofmap.total},)"
                )
        self.coeffs = coeffs

    def interior(self, element: int) -> np.ndarray:
        off = self.dofmap.interior_offset(element)
        return self.coeffs[off : off + self.dofmap.signature.interior_dim]

    def edge(self, edge: int) -> np.ndarray:
        off = self.dofmap.edge_offset(edge)
        return self.coeffs[off : off + self.dofmap.signature.edge_dim]

    def copy(self) -> "WeakFunction":
        return WeakFunction(self.dofmap, self.coeffs.copy())

    def __sub__(self, other: "WeakFunction") -> "WeakFunction":
        if (
            other.dofmap.mesh is not self.dofmap.mesh
            or other.dofmap.signature != self.dofmap.signature
        ):
            raise ValueError("weak functions live on different spaces")
        return WeakFunction(self.dofmap, self.coeffs - other.coeffs)


class _ShapeOps:
    """Local operators shared by every translate of one element shape.

    All matrices act on the local coefficient vector ordered as
    [interior block | side-0 edge block | side-1 edge block | ...], with
    edge polynomials always expressed in the canonical (ascending vertex
    index) orientation of each edge.
    """

    def __init__(self, shape, rel_verts, canon_flags, signature):
        k, j, ell, m = signature.k, signature.j, signature.ell, signature.m
        n0, nb = signature.interior_dim, signature.edge_dim
        dim_l, dim_m = dim_pk(ell), dim_pk(m)
        n_sides = rel_verts.shape[0]
        self.n_sides = n_sides
        self.n_loc = n0 + n_sides * nb

        d = np.roll(rel_verts, -1, axis=0) - rel_verts
        self.edge_lengths = np.linalg.norm(d, axis=1)
        self.normals = np.column_stack([d[:, 1], -d[:, 0]]) / self.edge_lengths[:, None]
        diffs = rel_verts[:, None, :] - rel_verts[None, :, :]
        self.h_T = float(np.sqrt((diffs**2).sum(axis=2)).max())
        self.area = 0.5 * float(
            np.sum(rel_verts[:, 0] * np.roll(rel_verts[:, 1], -1)
                   - np.roll(rel_verts[:, 0], -1) * rel_verts[:, 1])
        )

        degree = max(k, m)
        self.basis = ElementBasis(degree, (0.0, 0.0), self.h_T)
        rule = element_quadrature(shape, 2 * degree)
        q_offsets, q_weights = map_to_element(rule, rel_verts)
        V = self.basis.eval(q_offsets)
        M_full = V.T @ (q_weights[:, None] * V)
        self.M0 = M_full[:n0, :n0]
        self.M_m = M_full[:dim_m, :dim_m]

        # higher-order rule for moments of smooth, non-polynomial data
        data_rule = element_quadrature(shape, max(2 * k, k + 4))
        self.data_offsets, self.data_weights = map_to_element(data_rule, rel_verts)
        self.phi_k_data = self.basis.eval(self.data_offsets)[:, :n0]
        # Q0 takes its mass matrix from the same rule as its moments
        self._cho_data_M0 = cho_factor(
            self.phi_k_data.T @ (self.data_weights[:, None] * self.phi_k_data)
        )

        edge_basis = EdgeBasis(j)
        edge_rule = edge_quadrature(2 * max(k, j, ell))
        Bx = np.zeros((dim_l, self.n_loc))
        By = np.zeros((dim_l, self.n_loc))
        St = np.zeros((self.n_loc, self.n_loc))
        self.trace_ops = []
        self.edge_mass = []
        for side in range(n_sides):
            p, q = rel_verts[side], rel_verts[(side + 1) % n_sides]
            if canon_flags[side] < 0:
                p, q = q, p
            pts, ew, t = map_to_edge(edge_rule, p, q)
            E = edge_basis.eval(t)
            V_side = self.basis.eval(pts)
            D = edge_basis.mass_diagonal(self.edge_lengths[side])
            # L2 trace projection onto the edge space: coefficients of Qb v0
            T_e = (E.T @ (ew[:, None] * V_side[:, :n0])) / D[:, None]
            jump = np.zeros((t.size, self.n_loc))
            jump[:, :n0] = -E @ T_e
            block = slice(n0 + side * nb, n0 + (side + 1) * nb)
            jump[:, block] = E
            moments = V_side[:, :dim_l].T @ (ew[:, None] * jump)
            nx, ny = self.normals[side]
            Bx += nx * moments
            By += ny * moments
            N_e = np.zeros((nb, self.n_loc))
            N_e[:, :n0] = T_e
            N_e[:, block] = -np.eye(nb)
            St += N_e.T @ (D[:, None] * N_e)
            self.trace_ops.append(T_e)
            self.edge_mass.append(D)
        self.stab_unit = St

        cho_l = cho_factor(M_full[:dim_l, :dim_l])
        delta_x = cho_solve(cho_l, Bx)
        delta_y = cho_solve(cho_l, By)
        self.delta = np.vstack([delta_x, delta_y])

        # grad v0 embedded into [P_m]^2 (coefficients of the scaled basis)
        Gx = np.zeros((dim_m, self.n_loc))
        Gy = np.zeros((dim_m, self.n_loc))
        index_m = {tuple(e): i for i, e in enumerate(monomial_exponents(m))}
        for i, (a, b) in enumerate(monomial_exponents(k)):
            if a > 0:
                Gx[index_m[(a - 1, b)], i] += a / self.h_T
            if b > 0:
                Gy[index_m[(a, b - 1)], i] += b / self.h_T
        Gx[:dim_l, :] += delta_x
        Gy[:dim_l, :] += delta_y
        self.Gx, self.Gy = Gx, Gy
        self.G = np.vstack([Gx, Gy])

        MGx = self.M_m @ Gx
        MGy = self.M_m @ Gy
        self.Sxx = Gx.T @ MGx
        self.Syy = Gy.T @ MGy
        self.Sxy = Gx.T @ MGy


class OperatorCache:
    """Shape-class detection and shared local operators for one mesh/family.

    Elements are grouped by their centroid-relative vertex coordinates, taken
    relative to the mesh size h_max, and their edge orientation pattern; each
    group gets a single _ShapeOps bundle, numbered in order of first
    appearance.  On the uniform meshes used here this yields two groups
    (triangles) or one (rectangles).
    """

    def __init__(self, mesh: Mesh, signature: WeakSpaceSignature):
        self.mesh = mesh
        self.signature = signature
        self.dofmap = GlobalDofMap(mesh, signature)
        self.centroids = mesh.element_centroids()
        width = mesh.elements.shape[1]
        self.shape = "triangle" if width == 3 else "rectangle"

        rel = mesh.vertices[mesh.elements] - self.centroids[:, None, :]
        signs = mesh.element_edge_signs
        scaled = np.round(rel / mesh.h_max, _SHAPE_DECIMALS).reshape(mesh.n_elements, -1)
        # one opaque byte string per row sorts far faster than unique(axis=0);
        # + 0.0 turns -0.0 into 0.0 so equal floats have equal bytes
        keys = np.hstack([scaled, signs]) + 0.0
        rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        order = np.argsort(first)  # classes in order of first appearance
        self.class_ids = np.argsort(order)[inverse.reshape(-1)]
        self.class_ops: list[_ShapeOps] = [
            _ShapeOps(self.shape, rel[e], signs[e], signature) for e in first[order]
        ]
        self.class_elements = [
            np.nonzero(self.class_ids == cid)[0] for cid in range(len(self.class_ops))
        ]

        j = signature.j
        rule = edge_quadrature(max(2 * j, j + 4))
        eb = EdgeBasis(j)
        self.edge_data = (rule.points, rule.weights, eb.eval(rule.points), eb)

    def shape_ops(self, element: int) -> _ShapeOps:
        return self.class_ops[self.class_ids[element]]

    def classes(self):
        """Iterate over (ops, element index array) pairs."""
        return zip(self.class_ops, self.class_elements)


def _cache_for(mesh: Mesh, signature: WeakSpaceSignature, cache) -> OperatorCache:
    """cache, checked against (mesh, signature), or a new OperatorCache when it is None."""
    if cache is None:
        return OperatorCache(mesh, signature)
    if cache.mesh is not mesh:
        raise ValueError("cache was built for another mesh")
    if cache.signature != signature:
        raise ValueError(f"cache was built for {cache.signature}, not {signature}")
    return cache


def _grading_depth(strength: float, h: float) -> int:
    # Choose the dyadic depth so the untouched innermost piece, of size
    # h * 2^-depth, contributes O((h 2^-depth)^strength) ~ 2^-40 or less;
    # capped so r**(strength - 2) stays inside double range.
    depth = math.ceil(40.0 / strength + math.log2(max(h, 1e-300)))
    return int(min(480, max(4, depth)))


def _touching(mesh: Mesh, cells: np.ndarray, singularity):
    """Rows of cells (vertex index arrays) with a vertex at the singular point.

    Returns (rows, local index of that vertex); both empty without a singularity.
    """
    if singularity is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    hit = np.linalg.norm(mesh.vertices[cells] - singularity[0], axis=2) < _VERTEX_TOL
    rows = np.nonzero(hit.any(axis=1))[0]
    return rows, hit[rows].argmax(axis=1)


def _interior_moments(cache: OperatorCache, fn, singularity=None) -> np.ndarray:
    """(fn, phi_i)_T against the P_k basis of every element, shape (n_elements, n0).

    singularity, if given, is a (point, strength) pair; elements with a
    vertex at the point are integrated with a rule graded toward it.
    """
    mesh, k = cache.mesh, cache.signature.k
    out = np.empty((mesh.n_elements, cache.signature.interior_dim))
    for ops, elems in cache.classes():
        pts = cache.centroids[elems][:, None, :] + ops.data_offsets[None, :, :]
        values = np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(elems.size, -1)
        out[elems] = (values * ops.data_weights) @ ops.phi_k_data
    for e, corner in zip(*_touching(mesh, mesh.elements, singularity)):
        ops = cache.shape_ops(e)
        depth = _grading_depth(singularity[1], ops.h_T)
        verts = mesh.vertices[mesh.elements[e]]
        pts, w = graded_element_rule(verts, corner, max(2 * k, k + 4), depth)
        phi = ops.basis.eval(pts - cache.centroids[e])[:, : out.shape[1]]
        out[e] = phi.T @ (w * np.asarray(fn(pts), dtype=float))
    return out


def _edge_projection(cache: OperatorCache, fn, edges, singularity=None) -> np.ndarray:
    """Qb fn on the given edges: Legendre coefficients, shape (edges.size, edge_dim).

    Edges with an endpoint at the singular point use a rule graded toward it.
    """
    mesh, j = cache.mesh, cache.signature.j
    t, w_ref, legendre_vals, eb = cache.edge_data
    p0 = mesh.vertices[mesh.edges[edges, 0]]
    p1 = mesh.vertices[mesh.edges[edges, 1]]
    pts = (p0 + p1)[:, None, :] / 2.0 + t[None, :, None] * (p1 - p0)[:, None, :] / 2.0
    values = np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(edges.size, -1)
    out = ((values * w_ref) @ legendre_vals) / eb.mass_diagonal(2.0)  # reference edge [-1, 1]
    for i, end in zip(*_touching(mesh, mesh.edges[edges], singularity)):
        a, b = mesh.vertices[mesh.edges[edges[i]]]
        length = float(np.linalg.norm(b - a))
        depth = _grading_depth(singularity[1], length)
        pts, w, s = graded_edge_rule(a, b, end == 0, max(2 * j, j + 4), depth)
        out[i] = eb.eval(s).T @ (w * np.asarray(fn(pts), dtype=float)) / eb.mass_diagonal(length)
    return out


def project_Qh(
    fn,
    mesh: Mesh,
    signature: WeakSpaceSignature,
    *,
    singularity=None,
    cache: OperatorCache | None = None,
) -> WeakFunction:
    """Project a scalar field into the weak space: Qh u = {Q0 u, Qb u}.

    fn must be vectorized: (n, 2) points -> (n,) values.  singularity, if
    given, is a (point, strength) pair; integrals over elements and edges
    touching the point are computed with rules graded toward it.  A cache
    built for another mesh or signature raises ValueError.
    """
    cache = _cache_for(mesh, signature, cache)
    q0 = _interior_moments(cache, fn, singularity)
    for ops, elems in cache.classes():
        q0[elems] = cho_solve(ops._cho_data_M0, q0[elems].T).T
    qb = _edge_projection(cache, fn, np.arange(mesh.n_edges), singularity)
    return WeakFunction(cache.dofmap, np.concatenate([q0.ravel(), qb.ravel()]))
