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
them exactly translation invariant.  Interior polynomials and weak
gradients are written in a basis orthonormal on each class, so every
element mass matrix is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import check_integer, check_real, real_array
from .mesh import Mesh, _diameters
from .polybasis import (
    EdgeBasis,
    dim_pk,
    edge_quadrature,
    element_quadrature,
    _grading_depth,
    _monomials,
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
            check_integer(getattr(self, name), f"degree {name}")

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
            coeffs = real_array(coeffs, "coeffs")
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


def _shape_stacks(shape: str, X, Y, signs, signature: WeakSpaceSignature) -> dict:
    """Local operators of C element shapes at once, each a read-only stack over the shapes.

    X and Y, each (C, w), hold the vertex coordinates of every shape
    relative to its centroid, and signs, (C, w), its edge orientation
    pattern.  Every stack has the shapes on its first axis: h_T (C,),
    edge_lengths (C, w), normals (C, w, 2), the element rule's offsets
    (C, n_q, 2) and weights (C, n_q), U (C, nb, nb), phi0 (C, n_q, n0),
    edge_mass (C, w, j + 1), trace_ops (C, w, j + 1, n0), delta, Gx, Gy,
    G, Sxx, Syy, Sxy and stab_unit.  U is upper triangular and phi =
    monomials @ U, nb = dim_pk(max(k, m)) of them, orthonormal on the
    element rule; its leading blocks are bases of P_k, P_ell and P_m, in
    which every interior and gradient coefficient is written.  Sxx, Syy
    and stab_unit are exactly symmetric.  One call each of map_to_element,
    map_to_edge and _monomials maps and evaluates all shapes.  The number
    of numpy calls grows with neither C nor w, and every product is an
    einsum or a stacked `@` of matrices too small for BLAS threads.
    """
    n0, dim_l, dim_m = signature.interior_dim, dim_pk(signature.ell), dim_pk(signature.m)
    C, w = X.shape
    n_loc = n0 + w * signature.edge_dim
    rule, edge_rule, E, after, (rows, cols, factors) = _reference_data(shape, signature)

    # x and y on a leading axis of 2; side s runs from vertex s to s + 1
    Z = np.array((X, Y))
    Z1 = Z[..., after]
    d = Z1 - Z
    lengths = np.sqrt((d * d).sum(axis=0))
    h = _diameters(X, Y)
    normal = d[::-1] / lengths  # unit outer normals (dy, -dx) / length
    np.negative(normal[1], out=normal[1])

    offsets, weights = map_to_element(rule, Z.transpose(1, 2, 0))
    # each side's edge rule in the canonical direction: its ends swapped where signs < 0
    forward = signs > 0
    ends = np.where(forward, Z, Z1), np.where(forward, Z1, Z)
    edge_pts, edge_w = map_to_edge(edge_rule, *(p.transpose(1, 2, 0) for p in ends))

    # the scaled basis of degree max(k, m) at the element and then the edge
    # points, x and y on a leading axis as the maps store them
    pts = np.concatenate([a.transpose(2, 0, 1) for a in (offsets, edge_pts.reshape(C, -1, 2))], 2)
    pts /= h[:, None]
    V = _monomials(pts[0], pts[1], max(signature.k, signature.m))  # (C, points, basis)
    n_q = weights.shape[1]
    # CholeskyQR2 on the element rule: phi = V U is orthonormal, U is upper
    # triangular and R = U^-1 = (L1 L2)^T.  One pass alone leaves about 1e-12
    # in phi^T W phi - I on skewed shapes; the second, on V L1^-T, rounding
    U, L = np.eye(V.shape[-1]), []
    for _ in range(2):
        phi = V[:, :n_q] @ U
        L.append(np.linalg.cholesky(phi.swapaxes(1, 2) @ (weights[..., None] * phi)))
        U = U @ np.linalg.inv(L[-1]).swapaxes(1, 2)
    R, phi = (L[0] @ L[1]).swapaxes(1, 2), V @ U
    w_phi_edge = edge_w[..., None] * phi[:, n_q:].reshape(C, w, edge_w.shape[-1], -1)

    D = EdgeBasis(signature.j).mass_diagonal(lengths[..., None])
    # T[s] v0: the coefficients of the L2 trace projection Qb v0 on side s
    T = (E.T @ w_phi_edge[..., :n0]) / D[..., None]
    # delta = the moments <Qb v0 - vb, psi . n>_boundary against the orthonormal
    # P_ell basis psi, x and y on axis 1: the interior block sums -n_s P_s T_s
    # over the sides s, side s's block is n_s P_s, with P_s = <psi, L_a>_s
    P = w_phi_edge[..., :dim_l].swapaxes(-1, -2) @ E
    n_cds = normal.transpose(1, 0, 2)  # component d of side s's normal, (C, 2, w)
    delta = np.empty((C, 2, dim_l, n_loc))
    np.einsum("cds,csij->cdij", -n_cds, P @ T, out=delta[..., :n0])
    delta[..., n0:] = (n_cds[:, :, None, :, None] * P.swapaxes(1, 2)[:, None]).reshape(C, 2, dim_l, -1)

    # grad v0 in [P_m]^2, x rows then y rows: R_m (monomial derivatives) U_k, plus delta
    G = np.zeros((C, 2, dim_m, n_loc))
    G.reshape(C, -1, n_loc)[:, rows, cols] = factors / h[:, None]
    G[..., :n0] = R[:, None, :dim_m, :dim_m] @ G[..., :n0] @ U[:, None, :n0, :n0]
    G[:, :, :dim_l] += delta
    Gx, Gy = G[:, 0], G[:, 1]
    # Sxx = Gx^T Gx, Syy and Sxy likewise, in place; Sxx and Syy exactly symmetric
    Sxx, Syy, Sxy = np.empty((3, C, n_loc, n_loc))
    np.matmul(Gx.swapaxes(1, 2), Gy, out=Sxy)
    GG = np.empty_like(Sxx)
    for out, Gd in ((Sxx, Gx), (Syy, Gy)):
        np.matmul(Gd.swapaxes(1, 2), Gd, out=GG)
        np.add(GG, GG.swapaxes(1, 2), out=out)
        out *= 0.5

    # stabilizer sum_s N_s^T diag(D_s) N_s, where N_s v = T_s v0 - vb_s
    T_flat = T.reshape(C, -1, n0)
    TD = T_flat * D.reshape(C, -1, 1)
    TDT = T_flat.swapaxes(1, 2) @ TD
    stab = np.zeros((C, n_loc, n_loc))
    stab[:, :n0, :n0] = 0.5 * (TDT + TDT.swapaxes(1, 2))  # exactly symmetric
    stab[:, n0:, :n0] = -TD
    stab[:, :n0, n0:] = stab[:, n0:, :n0].swapaxes(1, 2)
    edge = np.arange(n0, n_loc)
    stab[:, edge, edge] = D.reshape(C, -1)

    stacks = {
        "h_T": h,
        "edge_lengths": lengths,
        "normals": normal.transpose(1, 2, 0),
        "offsets": offsets,
        "weights": weights,
        "phi0": phi[:, :n_q, :n0],
        "U": U,
        "edge_mass": D,
        "trace_ops": T,
        "delta": delta.reshape(C, 2 * dim_l, n_loc),
        "Gx": Gx,
        "Gy": Gy,
        "G": G.reshape(C, 2 * dim_m, n_loc),
        "Sxx": Sxx,
        "Syy": Syy,
        "Sxy": Sxy,
        "stab_unit": stab,
    }
    for stack in stacks.values():
        stack.setflags(write=False)
    return stacks


@lru_cache(maxsize=None)
def _reference_data(shape: str, signature: WeakSpaceSignature):
    """What the local operators need of the family alone, not of the element.

    The element rule, the edge rule, the Legendre values E at its points,
    the vertex after each vertex, and where grad of the P_k basis sits in
    G: rows, columns and factors, times 1/h_T.  d/dx X^p Y^q = p X^(p-1) Y^q
    and d/dy X^p Y^q = q X^p Y^(q-1); the monomial of degree r at position
    q within its degree is basis function r (r + 1) / 2 + q, and the d/dy
    rows follow the dim_m d/dx rows.
    """
    k, j, m = signature.k, signature.j, signature.m
    edge_rule = edge_quadrature(2 * max(k, j, signature.ell))
    p, q = monomial_exponents(k).T
    row = (p + q - 1) * (p + q) // 2 + q
    x, y = np.flatnonzero(p > 0), np.flatnonzero(q > 0)
    gradient = np.r_[row[x], dim_pk(m) + row[y] - 1], np.r_[x, y], np.r_[p[x], q[y]]
    E = EdgeBasis(j).eval(edge_rule.points)
    after = np.roll(np.arange(3 if shape == "triangle" else 4), -1)
    for array in (E, after, *gradient):
        array.setflags(write=False)
    rule = element_quadrature(shape, _element_rule_degree(signature))
    return rule, edge_rule, E, after, gradient


class OperatorCache:
    """Shape-class detection and shared local operators for one mesh/family.

    Elements are grouped by their centroid-relative vertex coordinates, taken
    relative to the mesh size h_max, and their edge orientation pattern, and
    the groups are numbered in order of first appearance.  On the uniform
    meshes used here this yields two groups (triangles) or one
    (rectangles); on a general mesh nearly every element is its own group.
    The operators of all groups are built in one batched pass
    (_shape_stacks) from each group's first element, class_first[c]; stacks
    holds them over the groups, and element-local work gathers from stacks
    by class_ids.  Every matrix acts on the local coefficient vector
    [interior block | side-0 edge block | side-1 edge block | ...], interior
    polynomials in the group's orthonormal basis monomials @ U[c][:n0, :n0]
    and edge polynomials in each edge's ascending-vertex orientation.  Group
    c's operator `name` is stacks[name][c], and element e's group is
    class_ids[e].
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
        pattern = (signs > 0) @ (1 << np.arange(width))
        group = (np.cumsum(np.bincount(pattern) > 0) - 1)[pattern]  # patterns in ascending order
        order = np.argsort(group)
        sizes = np.bincount(group)
        starts = np.cumsum(sizes) - sizes
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
        reps = self.class_first = first[order]
        self.stacks = _shape_stacks(self.shape, rx[reps], ry[reps], signs[reps], signature)

    @property
    def class_ops(self) -> np.ndarray:
        """class_first under its old name, so len(cache.class_ops) is the class count.

        It stays only for perfbench/worker.py's weakspace.n_classes count, and
        goes when the benchmark refresh (ROADMAP item 2) reads class_first.size.
        """
        return self.class_first


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
    ValueError unless singularity is a pair, its point a finite (x, y) and its
    strength finite and > 0.
    """
    if singularity is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    message = (
        f"singularity must pair a finite point (x, y) with a finite strength > 0, "
        f"got {singularity!r}"
    )
    try:
        point, strength = singularity
    except (TypeError, ValueError):  # a bare number, or not two entries
        raise ValueError(message) from None
    point = real_array(point, "singularity point")
    check_real(strength, "singularity strength")
    if point.shape != (2,) or not np.isfinite(point).all() or not 0.0 < strength < np.inf:
        raise ValueError(message)
    hit = np.linalg.norm(mesh.vertices[cells] - point, axis=2) < _VERTEX_TOL
    rows = np.nonzero(hit.any(axis=1))[0]
    return rows, hit[rows].argmax(axis=1)


def _mv(M, rows, v) -> np.ndarray:
    """M[rows[e]] @ v[e] for every row e of v: M (R, p, q), rows (n,), v (n, q) -> (n, p).

    M is gathered 2^16 entries (512 KiB) at a time, never as one (n, p, q) array.
    """
    out = np.empty((len(v), M.shape[1]))
    step = max(1, 2**16 // M[0].size)
    for start in range(0, len(v), step):
        e = slice(start, start + step)
        np.einsum("eij,ej->ei", np.take(M, rows[e], axis=0), v[e], out=out[e])
    return out


def _element_rule_degree(signature: WeakSpaceSignature) -> int:
    """Exactness of the element rule: P_max(k,m) mass matrices, and data against P_k."""
    return max(2 * max(signature.k, signature.m), signature.k + 4)


def _values(fn, pts) -> np.ndarray:
    """fn at the (n, 2) points pts, checked to be n finite values.

    Raises ValueError, naming fn, when it returns complex values, another
    shape, or a value that is NaN or infinite.
    """
    name = getattr(fn, "__name__", repr(fn))
    values = real_array(fn(pts), f"the values of function {name}")
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
    """(fn, phi_i)_T against the orthonormal P_k basis of every element, shape (n_elements, n0).

    singularity, if given, is a (point, strength) pair; elements with a
    vertex at the point are integrated with a rule graded toward it.
    """
    mesh, stacks, ids = cache.mesh, cache.stacks, cache.class_ids
    weights, phi0 = stacks["weights"], stacks["phi0"]
    # one coordinate at a time: over (n_elements, n_q, 2) numpy loops on 2 entries
    pts = np.empty((mesh.n_elements, weights.shape[1], 2))
    for d, offsets in enumerate(stacks["offsets"].transpose(2, 0, 1)):
        np.add(offsets[ids], cache.centroids[:, d, None], out=pts[..., d])
    values = _values(fn, pts.reshape(-1, 2)).reshape(mesh.n_elements, -1)
    out = _mv((weights[..., None] * phi0).swapaxes(1, 2), ids, values)
    U0 = stacks["U"][:, : out.shape[1], : out.shape[1]]  # to the orthonormal basis
    for e, corner in zip(*_touching(mesh, mesh.elements, singularity)):
        h_T, verts = stacks["h_T"][ids[e]], mesh.vertices[mesh.elements[e]]
        depth = _grading_depth(singularity[1], h_T)
        pts, w = graded_rule(verts, corner, _element_rule_degree(cache.signature), depth)
        X, Y = ((pts[:, c] - cache.centroids[e, c]) / h_T for c in range(2))
        out[e] = U0[ids[e]].T @ _monomials(X, Y, cache.signature.k).T @ (w * _values(fn, pts))
    return out


def _edge_projection(cache: OperatorCache, fn, edges, singularity=None) -> np.ndarray:
    """Qb fn on the given edges: Legendre coefficients, shape (edges.size, edge_dim).

    Edges with an endpoint at the singular point use a rule graded toward it.
    """
    mesh, j = cache.mesh, cache.signature.j
    degree = max(2 * j, j + 4)  # exactness of both the plain and the graded rule
    rule, eb = edge_quadrature(degree), EdgeBasis(j)
    ends = mesh.vertices[mesh.edges[edges]]
    pts, _ = map_to_edge(rule, ends[:, 0], ends[:, 1])
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
    (point, strength) pair, a finite (x, y) and a finite strength > 0 (else
    ValueError); integrals over elements and edges touching the point are
    computed with rules graded toward it.  Q0 u is the moments against each
    class's orthonormal basis, so nothing is solved per call.  A cache
    built for another mesh or signature raises ValueError.
    """
    cache = _cache_for(mesh, signature, cache)
    dm = cache.dofmap
    wf = WeakFunction(dm)
    dm.interiors(wf.coeffs)[:] = _interior_moments(cache, fn, singularity)
    dm.edges(wf.coeffs)[:] = _edge_projection(cache, fn, np.arange(mesh.n_edges), singularity)
    return wf
