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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .mesh import Mesh, _diameters
from .polybasis import (
    EdgeBasis,
    ElementBasis,
    dim_pk,
    edge_quadrature,
    element_quadrature,
    _grading_depth,
    graded_rule,
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
    """The one owner of the coefficient layout: interior blocks first, then one per edge.

    interiors(c) and edges(c) view a coefficient vector c as (n_elements,
    interior_dim) and (n_edges, edge_dim) blocks that write through to c;
    the index sets are taken from them.  Row e of element_dof_table holds
    element e's interior block, then the edge block of each side in side
    order; boundary_dofs holds the boundary edges' blocks in edge order.
    """

    def __init__(self, mesh: Mesh, signature: WeakSpaceSignature):
        self.mesh = mesh
        self.signature = signature
        self.n_interior = mesh.n_elements * signature.interior_dim
        self.total = self.n_interior + mesh.n_edges * signature.edge_dim
        index = np.arange(self.total)
        edges = self.edges(index)
        sides = edges[mesh.element_edges].reshape(mesh.n_elements, -1)
        table = np.hstack([self.interiors(index), sides])
        table.setflags(write=False)
        self.element_dof_table = table
        self.boundary_dofs = edges[mesh.boundary_edge].ravel()

    def interiors(self, c: np.ndarray) -> np.ndarray:
        """Interior blocks of the coefficient vector c, shape (n_elements, interior_dim)."""
        return c[: self.n_interior].reshape(self.mesh.n_elements, -1)

    def edges(self, c: np.ndarray) -> np.ndarray:
        """Edge blocks of the coefficient vector c, shape (n_edges, edge_dim)."""
        return c[self.n_interior :].reshape(self.mesh.n_edges, -1)


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
        return self.dofmap.interiors(self.coeffs)[element]

    def edge(self, edge: int) -> np.ndarray:
        return self.dofmap.edges(self.coeffs)[edge]

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
    index) orientation of each edge.  One element rule (offsets, weights;
    phi0 is the P_k basis at its points) gives M0, M_m and data moments.
    """

    def __init__(self, shape, rel_verts, canon_flags, signature):
        k, j, ell, m = signature.k, signature.j, signature.ell, signature.m
        n0, nb = signature.interior_dim, signature.edge_dim
        dim_l, dim_m = dim_pk(ell), dim_pk(m)
        self.n_sides = n_sides = rel_verts.shape[0]
        self.n_loc = n0 + n_sides * nb

        d = np.roll(rel_verts, -1, axis=0) - rel_verts
        self.edge_lengths = np.linalg.norm(d, axis=1)
        self.normals = np.column_stack([d[:, 1], -d[:, 0]]) / self.edge_lengths[:, None]
        self.h_T = float(_diameters(rel_verts[None, :, 0], rel_verts[None, :, 1])[0])

        self.basis = ElementBasis(max(k, m), (0.0, 0.0), self.h_T)
        rule = element_quadrature(shape, _element_rule_degree(signature))
        self.offsets, self.weights = map_to_element(rule, rel_verts)
        V = self.basis.eval(self.offsets)
        M_full = V.T @ (self.weights[:, None] * V)
        self.M0 = M_full[:n0, :n0]
        self.M_m = M_full[:dim_m, :dim_m]
        self.phi0 = V[:, :n0]

        edge_basis = EdgeBasis(j)
        edge_rule = edge_quadrature(2 * max(k, j, ell))
        E = edge_basis.eval(edge_rule.points)
        self.edge_mass = edge_basis.mass_diagonal(self.edge_lengths[:, None])  # (n_sides, nb)
        B = np.zeros((2, dim_l, self.n_loc))  # x and y moments of the correction
        self.stab_unit = np.zeros((self.n_loc, self.n_loc))
        self.trace_ops = []
        for side in range(n_sides):
            p, q = rel_verts[side], rel_verts[(side + 1) % n_sides]
            if canon_flags[side] < 0:
                p, q = q, p
            pts, ew, _ = map_to_edge(edge_rule, p, q)
            V_side = self.basis.eval(pts)
            D = self.edge_mass[side]
            # L2 trace projection onto the edge space: coefficients of Qb v0
            T_e = (E.T @ (ew[:, None] * V_side[:, :n0])) / D[:, None]
            # N_e v = Legendre coefficients of Qb v0 - vb on this side
            N_e = np.zeros((nb, self.n_loc))
            N_e[:, :n0] = T_e
            N_e[:, n0 + side * nb : n0 + (side + 1) * nb] = -np.eye(nb)
            moments = -V_side[:, :dim_l].T @ (ew[:, None] * (E @ N_e))
            B += self.normals[side][:, None, None] * moments
            self.stab_unit += N_e.T @ (D[:, None] * N_e)
            self.trace_ops.append(T_e)

        cho_l = cho_factor(M_full[:dim_l, :dim_l])
        delta_x, delta_y = cho_solve(cho_l, B[0]), cho_solve(cho_l, B[1])
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

        rx = mesh.vertices[:, 0][mesh.elements] - self.centroids[:, 0, None]
        ry = mesh.vertices[:, 1][mesh.elements] - self.centroids[:, 1, None]
        signs = mesh.element_edge_signs
        kx, ky = rx / mesh.h_max, ry / mesh.h_max
        tol = 1e-10 + 64 * np.finfo(float).eps * np.abs(mesh.vertices).max() / mesh.h_max
        # partition refinement: start from the exact edge-sign pattern, then
        # sort each key column x0, y0, x1, y1, ... within the current groups
        # and split wherever neighbours differ by more than tol.  A column
        # whose spread within every group is at most tol has no such
        # neighbours, so it is not sorted.  order lists the elements group
        # by group, and starts holds where each group begins in it.
        group = np.unique((signs > 0) @ (1 << np.arange(width)), return_inverse=True)[1]
        order = np.argsort(group)
        starts = np.flatnonzero(np.diff(group[order], prepend=-1))
        for column in (k[:, i] for i in range(width) for k in (kx, ky)):
            sorted_column = column[order]
            spread = np.maximum.reduceat(sorted_column, starts)
            spread -= np.minimum.reduceat(sorted_column, starts)
            if (spread <= tol).all():
                continue
            order = np.lexsort((column, group))
            split = (np.diff(column[order]) > tol) | (np.diff(group[order]) != 0)
            group[order] = np.concatenate([[0], np.cumsum(split)])
            starts = np.concatenate([[0], np.flatnonzero(split) + 1])
        first = np.minimum.reduceat(order, starts)  # first element of each group
        order = np.argsort(first)  # classes in order of first appearance
        self.class_ids = np.argsort(order)[group]
        self.class_ops: list[_ShapeOps] = [
            _ShapeOps(self.shape, np.column_stack([rx[e], ry[e]]), signs[e], signature)
            for e in first[order]
        ]
        self.class_elements = [
            np.nonzero(self.class_ids == cid)[0] for cid in range(len(self.class_ops))
        ]

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


def _touching(mesh: Mesh, cells: np.ndarray, singularity):
    """Rows of cells (vertex index arrays) with a vertex at the singular point.

    Returns (rows, local index of that vertex); both empty without a singularity.
    """
    if singularity is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    hit = np.linalg.norm(mesh.vertices[cells] - singularity[0], axis=2) < _VERTEX_TOL
    rows = np.nonzero(hit.any(axis=1))[0]
    return rows, hit[rows].argmax(axis=1)


def _element_rule_degree(signature: WeakSpaceSignature) -> int:
    """Exactness of the element rule: P_max(k,m) mass matrices, and data against P_k."""
    return max(2 * max(signature.k, signature.m), signature.k + 4)


def _values(fn, pts) -> np.ndarray:
    """fn at the (n, 2) points pts, checked to be n finite values.

    Raises ValueError, naming fn, when it returns another shape or a value
    that is NaN or infinite.
    """
    values = np.asarray(fn(pts), dtype=float)
    name = getattr(fn, "__name__", repr(fn))
    if values.shape != (len(pts),):
        raise ValueError(
            f"function {name} must return one value per point: it returned shape "
            f"{values.shape} for {len(pts)} points"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        x, y = pts[bad[0]]
        raise ValueError(
            f"function {name} returned {values[bad[0]]} at ({x:.6g}, {y:.6g}); "
            f"{bad.size} of {len(pts)} values are not finite"
        )
    return values


def _interior_moments(cache: OperatorCache, fn, singularity=None) -> np.ndarray:
    """(fn, phi_i)_T against the P_k basis of every element, shape (n_elements, n0).

    singularity, if given, is a (point, strength) pair; elements with a
    vertex at the point are integrated with a rule graded toward it.
    """
    mesh = cache.mesh
    out = np.empty((mesh.n_elements, cache.signature.interior_dim))
    for ops, elems in cache.classes():
        # centroid plus offset, built flat: broadcasting into (n_el, n_q, 2)
        # runs numpy's inner loop on 2 entries per point
        pts = np.repeat(cache.centroids[elems], ops.offsets.shape[0], axis=0)
        pts += np.tile(ops.offsets, (elems.size, 1))
        values = _values(fn, pts).reshape(elems.size, -1)
        out[elems] = (values * ops.weights) @ ops.phi0
    for e, corner in zip(*_touching(mesh, mesh.elements, singularity)):
        ops = cache.shape_ops(e)
        depth = _grading_depth(singularity[1], ops.h_T)
        verts = mesh.vertices[mesh.elements[e]]
        pts, w = graded_rule(verts, corner, _element_rule_degree(cache.signature), depth)
        phi = ops.basis.eval(pts - cache.centroids[e])[:, : out.shape[1]]
        out[e] = phi.T @ (w * _values(fn, pts))
    return out


def _edge_projection(cache: OperatorCache, fn, edges, singularity=None) -> np.ndarray:
    """Qb fn on the given edges: Legendre coefficients, shape (edges.size, edge_dim).

    Edges with an endpoint at the singular point use a rule graded toward it.
    """
    mesh, j = cache.mesh, cache.signature.j
    degree = max(2 * j, j + 4)  # exactness of both the plain and the graded rule
    rule, eb = edge_quadrature(degree), EdgeBasis(j)
    ends = mesh.vertices[mesh.edges[edges]]
    pts, _, _ = map_to_edge(rule, ends[:, 0], ends[:, 1])
    values = _values(fn, pts.reshape(-1, 2)).reshape(edges.size, -1)
    # Legendre coefficients on the reference edge [-1, 1]
    out = ((values * rule.weights) @ eb.eval(rule.points)) / eb.mass_diagonal(2.0)
    for i, end in zip(*_touching(mesh, mesh.edges[edges], singularity)):
        a, b = ends[i]
        length = float(np.linalg.norm(b - a))
        pts, w = graded_rule(ends[i], end, degree, _grading_depth(singularity[1], length))
        t = 2.0 * (pts - a) @ (b - a) / ((b - a) @ (b - a)) - 1.0  # Legendre coordinate
        out[i] = eb.eval(t).T @ (w * _values(fn, pts)) / eb.mass_diagonal(length)
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

    fn must be vectorized: (n, 2) points -> (n,) finite values; any other
    shape, NaN or infinity raises ValueError.  singularity, if given, is a
    (point, strength) pair; integrals over elements and edges touching the
    point are computed with rules graded toward it.  A cache built for
    another mesh or signature raises ValueError.
    """
    cache = _cache_for(mesh, signature, cache)
    dm = cache.dofmap
    wf = WeakFunction(dm)
    q0 = dm.interiors(wf.coeffs)
    q0[:] = _interior_moments(cache, fn, singularity)
    for ops, elems in cache.classes():
        q0[elems] = cho_solve(cho_factor(ops.M0), q0[elems].T).T
    dm.edges(wf.coeffs)[:] = _edge_projection(cache, fn, np.arange(mesh.n_edges), singularity)
    return wf
