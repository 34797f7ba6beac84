"""Tests for degree-of-freedom layout, projections, and weak gradients."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve

from gwgfem import (
    Mesh,
    OperatorCache,
    SchemeParameters,
    SingularSystem,
    WeakFunction,
    WeakSpaceSignature,
    assemble,
    build_uniform_rectangular,
    build_uniform_triangular,
    project_Qh,
    solve,
)
from gwgfem.polybasis import (
    ElementBasis,
    EdgeBasis,
    dim_pk,
    _corner_split,
    _grading_depth,
    element_quadrature,
    edge_quadrature,
    graded_rule,
    map_to_edge,
    map_to_element,
    monomial_exponents,
)
from gwgfem.verify import lowreg_case, run_convergence_study
from gwgfem.weakspace import _interior_moments


def edge_index(mesh, a, b):
    key = sorted((a, b))
    hits = np.nonzero((mesh.edges[:, 0] == key[0]) & (mesh.edges[:, 1] == key[1]))[0]
    assert hits.size == 1
    return int(hits[0])


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def interior_U(cache, element, dim):
    """The leading dim x dim block of element's U: its orthonormal basis of P_r, dim = dim_pk(r)."""
    return cache.stacks["U"][cache.class_ids[element], :dim, :dim]


def interior_values(cache, wf, element, pts):
    mesh, n0 = cache.mesh, wf.dofmap.signature.interior_dim
    centroid, diameter = mesh.element_centroids()[element], mesh.element_diameters()[element]
    basis = ElementBasis(wf.dofmap.signature.k, centroid, diameter)
    return basis.eval(pts) @ interior_U(cache, element, n0) @ wf.interior(element)


def edge_values(mesh, wf, edge, t):
    eb = EdgeBasis(wf.dofmap.signature.j)
    return eb.eval(np.asarray(t, dtype=float)) @ wf.edge(edge)


# ---------------------------------------------------------------- signature


def test_signature_properties():
    sig = WeakSpaceSignature(3, 4, 4)
    assert (sig.s, sig.m) == (4, 4)
    assert sig.interior_dim == 10
    assert sig.edge_dim == 5
    assert WeakSpaceSignature(2, 1, 3).s == 1
    assert WeakSpaceSignature(2, 1, 3).m == 3
    assert WeakSpaceSignature(0, 0, 0).m == 0
    with pytest.raises(ValueError):
        WeakSpaceSignature(-1, 0, 0)
    with pytest.raises(ValueError):
        WeakSpaceSignature(1, 0.5, 0)
    with pytest.raises(ValueError, match="degree k must be an integer, got True"):
        WeakSpaceSignature(True, 1, 1)
    assert WeakSpaceSignature(np.int64(1), np.int32(1), 1).m == 1


# ------------------------------------------------------------------ dof map


def test_dofmap_layout():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 1, 0)
    cache = OperatorCache(mesh, sig)
    dm = cache.dofmap
    assert dm.n_interior == mesh.n_elements * 3
    assert dm.total == mesh.n_elements * 3 + mesh.n_edges * 2
    assert dm.element_dof_table.shape == (mesh.n_elements, 3 + 3 * 2)
    # every dof is referenced by at least one element
    assert np.array_equal(np.unique(dm.element_dof_table), np.arange(dm.total))
    # interior blocks come first, element by element, then one block per edge
    index = np.arange(dm.total)
    interiors, edges = dm.interiors(index), dm.edges(index)
    assert np.array_equal(interiors, index[: dm.n_interior].reshape(-1, 3))
    assert np.array_equal(edges, index[dm.n_interior :].reshape(-1, 2))
    for e in range(mesh.n_elements):
        expected = np.concatenate([interiors[e], edges[mesh.element_edges[e]].ravel()])
        assert np.array_equal(dm.element_dof_table[e], expected)
    # boundary dofs are the edge coefficients of the boundary edges, two per edge
    assert np.array_equal(dm.boundary_dofs, edges[mesh.boundary_edge].ravel())
    assert dm.boundary_dofs.size == int(mesh.boundary_edge.sum()) * 2
    # the free unknowns of the condensed system are all the other edge coefficients
    one = lambda p: np.ones(p.shape[0])
    system = assemble(mesh, sig, SchemeParameters(), one, one, cache=cache)
    expected_free = np.setdiff1d(index[dm.n_interior :], dm.boundary_dofs)
    assert np.array_equal(system.free, expected_free)


def test_dofmap_shared_edge_indices():
    mesh = build_uniform_triangular(1)
    sig = WeakSpaceSignature(2, 1, 1)
    dm = OperatorCache(mesh, sig).dofmap
    shared = edge_index(mesh, 0, 3)
    block = dm.edges(np.arange(dm.total))[shared]
    n0 = sig.interior_dim
    for e in range(2):
        side = int(np.nonzero(mesh.element_edges[e] == shared)[0][0])
        cols = dm.element_dof_table[e, n0 + side * 2 : n0 + (side + 1) * 2]
        assert np.array_equal(cols, block)


def test_weakfunction_views_and_arithmetic():
    mesh = build_uniform_triangular(1)
    sig = WeakSpaceSignature(1, 0, 0)
    dm = OperatorCache(mesh, sig).dofmap
    v = WeakFunction(dm)
    v.interior(1)[0] = 2.0
    v.edge(3)[0] = -1.0
    assert v.coeffs[3] == 2.0
    assert v.coeffs[dm.n_interior + 3] == -1.0
    # writes through the block views land in the coefficient vector
    dm.interiors(v.coeffs)[0, 2] = 5.0
    dm.edges(v.coeffs)[4] = 7.0
    assert v.coeffs[2] == 5.0 and v.coeffs[dm.n_interior + 4] == 7.0
    assert np.count_nonzero(v.coeffs) == 4
    w = v - WeakFunction(dm, v.coeffs.copy())
    assert not np.any(w.coeffs)
    with pytest.raises(ValueError):
        WeakFunction(dm, np.zeros(dm.total + 1))
    other = OperatorCache(mesh, WeakSpaceSignature(2, 0, 0)).dofmap
    with pytest.raises(ValueError):
        v - WeakFunction(other)
    # same signature and size, but another mesh
    twin = OperatorCache(build_uniform_triangular(1), sig).dofmap
    assert twin.total == dm.total
    with pytest.raises(ValueError, match="different spaces"):
        v - WeakFunction(twin)


# -------------------------------------------------------------- projections


def test_project_q0_constant_and_linear():
    # interior coefficients read as monomial coefficients through U
    mesh = build_uniform_rectangular(0)
    cache = OperatorCache(mesh, WeakSpaceSignature(2, 2, 0))
    wf = project_Qh(lambda p: np.full(p.shape[0], 3.5), mesh, cache.signature, cache=cache)
    c = interior_U(cache, 2, 6) @ wf.interior(2)
    assert abs(c[0] - 3.5) < 1e-13 and np.all(np.abs(c[1:]) < 1e-13)

    cache = OperatorCache(mesh, WeakSpaceSignature(1, 1, 0))
    c = project_Qh(lambda p: p[:, 0], mesh, cache.signature, cache=cache).interior(1)
    centroid, diameter = mesh.element_centroids()[1], mesh.element_diameters()[1]
    rng = np.random.default_rng(3)
    pts = centroid + 0.05 * rng.standard_normal((20, 2))
    vals = ElementBasis(1, centroid, diameter).eval(pts) @ interior_U(cache, 1, 3) @ c
    np.testing.assert_allclose(vals, pts[:, 0], atol=1e-13)


def test_project_q0_reproduces_cubics():
    mesh = build_uniform_triangular(2)
    f = lambda p: p[:, 0] ** 3 - 2 * p[:, 0] * p[:, 1] + 1.0
    cache = OperatorCache(mesh, WeakSpaceSignature(3, 3, 0))
    wf = project_Qh(f, mesh, cache.signature, cache=cache)
    centroid = mesh.element_centroids()[5]
    rng = np.random.default_rng(4)
    pts = centroid + 0.04 * rng.standard_normal((20, 2))
    vals = interior_values(cache, wf, 5, pts)
    np.testing.assert_allclose(vals, f(pts), rtol=0, atol=1e-12)


def test_project_qb_trace_of_x_squared():
    # On the segment from (0,0) to (1,0), x^2 in Legendre coordinates is
    # 1/3 + (1/2) P1(t) + (1/6) P2(t).
    mesh = build_uniform_triangular(1)
    e = edge_index(mesh, 0, 1)
    c = project_Qh(lambda p: p[:, 0] ** 2, mesh, WeakSpaceSignature(2, 2, 0)).edge(e)
    np.testing.assert_allclose(c, [1.0 / 3.0, 0.5, 1.0 / 6.0], atol=1e-14)


def test_project_qb_mean_kills_odd_part():
    mesh = build_uniform_triangular(1)
    e = edge_index(mesh, 0, 1)
    c = project_Qh(lambda p: p[:, 0] - 0.5, mesh, WeakSpaceSignature(0, 0, 0)).edge(e)
    assert abs(c[0]) < 1e-15


def test_project_qh_reproduces_low_degree():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(2, 2, 1)
    p = lambda pts: pts[:, 0] ** 2 + pts[:, 0] * pts[:, 1] - 3 * pts[:, 1] + 1.0
    cache = OperatorCache(mesh, sig)
    wf = project_Qh(p, mesh, sig, cache=cache)
    for e in [0, 3, 7]:
        centroid = mesh.element_centroids()[e]
        rng = np.random.default_rng(e)
        pts = centroid + 0.03 * rng.standard_normal((10, 2))
        np.testing.assert_allclose(interior_values(cache, wf, e, pts), p(pts), atol=1e-12)
    for edge in [0, 2, mesh.n_edges - 1]:
        a, b = mesh.edges[edge]
        t = np.linspace(-1.0, 1.0, 7)
        pts = (mesh.vertices[a] + mesh.vertices[b]) / 2 + np.outer(
            t / 2, mesh.vertices[b] - mesh.vertices[a]
        )
        np.testing.assert_allclose(edge_values(mesh, wf, edge, t), p(pts), atol=1e-12)


def test_project_qh_rejects_nan_values():
    # without the check, the NaN reached the Cholesky solve of the mass
    # matrices and scipy's message named no function
    def holey(p):
        return np.where(p[:, 0] > 0.5, np.nan, p[:, 1])

    with pytest.raises(ValueError, match="function holey returned nan"):
        project_Qh(holey, build_uniform_triangular(4), WeakSpaceSignature(1, 1, 1))


def test_project_qh_interior_convergence_rate():
    u = lambda p: np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    sig = WeakSpaceSignature(2, 0, 0)
    errs = []
    for n in (4, 8):
        cache = OperatorCache(build_uniform_triangular(n), sig)
        mesh = cache.mesh
        wf = project_Qh(u, mesh, sig, cache=cache)
        total = 0.0
        for e in range(mesh.n_elements):
            verts = mesh.vertices[mesh.elements[e]]
            pts, w = map_to_element(element_quadrature("triangle", 10), verts)
            diff = u(pts) - interior_values(cache, wf, e, pts)
            total += float(w @ diff**2)
        errs.append(math.sqrt(total))
    rate = math.log2(errs[0] / errs[1])
    assert abs(rate - 3.0) < 0.3


def _shifted(mesh, shift):
    """The same elements as a general Mesh, moved by shift."""
    return Mesh(mesh.vertices + np.asarray(shift), mesh.elements)


@pytest.mark.parametrize(
    "mesh,signature",
    [
        (build_uniform_triangular(32), (0, 0, 0)),
        (build_uniform_triangular(8), (3, 4, 4)),
        (build_uniform_rectangular(3), (2, 1, 3)),
        (_shifted(build_uniform_triangular(16), [1e4, -3.0]), (1, 2, 2)),
    ],
    ids=["tri-0-0-0", "tri-3-4-4", "rect-2-1-3", "shifted-1-2-2"],
)
def test_interior_moment_points_are_the_broadcast_formula_bit_for_bit(mesh, signature):
    # the element quadrature points are the offsets of each element's class
    # plus its centroid, added one coordinate at a time; fn must see exactly
    # centroids[:, None, :] + offsets, for all elements in one call
    cache = OperatorCache(mesh, WeakSpaceSignature(*signature))
    seen = []

    def spy(p):
        seen.append(p.copy())
        return np.zeros(len(p))

    _interior_moments(cache, spy)
    assert len(seen) == 1
    offsets = cache.stacks["offsets"][cache.class_ids]
    expected = (cache.centroids[:, None, :] + offsets).reshape(-1, 2)
    assert seen[0].shape == expected.shape
    assert np.array_equal(seen[0].view(np.uint64), expected.view(np.uint64))


# ------------------------------------------------------------ weak gradient


def test_shape_classes_on_uniform_meshes():
    cache = OperatorCache(build_uniform_triangular(4), WeakSpaceSignature(1, 0, 0))
    assert cache.class_first.size == 2
    assert np.bincount(cache.class_ids).tolist() == [16, 16]
    # the first orthonormal basis function is the constant 1 / sqrt(area)
    np.testing.assert_allclose(
        1.0 / np.sqrt(cache.mesh.element_areas()), cache.stacks["U"][cache.class_ids, 0, 0], rtol=1e-13
    )
    cache = OperatorCache(build_uniform_rectangular(1), WeakSpaceSignature(1, 0, 0))
    assert cache.class_first.size == 1
    assert abs(cache.stacks["U"][0, 0, 0] ** -2 - (1.0 / 6.0) * (1.0 / 4.0)) < 1e-15


@pytest.mark.parametrize(
    "element,n_points", [((0, 0, 0), 6), ((1, 2, 2), 7), ((2, 2, 2), 12), ((3, 4, 4), 16)]
)
def test_operator_cache_takes_the_symmetric_triangle_rule(element, n_points):
    # the collapsed product gives the same exactness from 9, 9, 16 and 25
    # points, so a fallback to it would pass every accuracy test
    cache = OperatorCache(build_uniform_triangular(2), WeakSpaceSignature(*element))
    assert cache.stacks["weights"].shape[1] == n_points


def test_shape_classes_separate_tiny_elements_of_different_size():
    # two triangles of area ratio 1:2 with the same edge-sign pattern, on a
    # mesh so small that absolute rounding would take them for one shape
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0], [2.0, 2.0]])
    mesh = Mesh(V * 1e-13, [[0, 1, 2], [3, 4, 5]])
    cache = OperatorCache(mesh, WeakSpaceSignature(1, 1, 1))
    assert cache.class_first.size == 2
    # the areas, read from the constant basis function 1 / sqrt(area)
    assert interior_U(cache, 0, 1)[0, 0] ** -2 / 1e-26 == pytest.approx(0.5, rel=1e-12)
    assert interior_U(cache, 1, 1)[0, 0] ** -2 / 1e-26 == pytest.approx(1.0, rel=1e-12)


def test_far_translated_meshes_keep_their_shape_classes():
    # rounding the keys to a fixed number of decimals split classes once a
    # mesh sat far from the origin; grouping within a tolerance must not
    rng = np.random.default_rng(20)
    sig = WeakSpaceSignature(1, 1, 1)
    for _ in range(30):
        base = build_uniform_triangular(int(rng.integers(1, 7)))
        moved = Mesh(base.vertices + rng.uniform(-1e6, 1e6, 2), base.elements)
        ref, out = OperatorCache(base, sig), OperatorCache(moved, sig)
        np.testing.assert_array_equal(out.class_ids, ref.class_ids)


def test_moved_vertex_splits_the_elements_around_it():
    # a displacement far above rounding, here 3e-7 at h = 1/4, changes the
    # shape of the six triangles around the vertex: each becomes its own class
    mesh = build_uniform_triangular(4)
    vertices = mesh.vertices.copy()
    vertex = np.flatnonzero(np.all((vertices > 0) & (vertices < 1), axis=1))[0]
    vertices[vertex] += 3e-7
    cache = OperatorCache(Mesh(vertices, mesh.elements), WeakSpaceSignature(1, 0, 0))
    assert cache.class_first.size == 8


def key_tol(mesh):
    return 1e-10 + 64 * np.finfo(float).eps * np.abs(mesh.vertices).max() / mesh.h_max


def reference_class_ids(mesh):
    """Shape classes by sorting every key column within the current groups.

    The partition refinement as a plain loop that skips no column: start
    from the edge-sign pattern, lexsort each centroid-relative coordinate
    x0, y0, x1, y1, ... over h_max within the groups, split where
    neighbours differ by more than the tolerance, and number the classes by
    first appearance.
    """
    rel = mesh.vertices[mesh.elements] - mesh.element_centroids()[:, None, :]
    keys = (rel / mesh.h_max).reshape(mesh.n_elements, -1)
    tol = key_tol(mesh)
    group = (mesh.element_edge_signs > 0) @ (1 << np.arange(mesh.elements.shape[1]))
    for column in keys.T:
        order = np.lexsort((column, group))
        split = (np.diff(column[order]) > tol) | (np.diff(group[order]) != 0)
        group[order] = np.concatenate([[0], np.cumsum(split)])
    first = np.unique(group, return_index=True)[1]
    return np.argsort(np.argsort(first))[group]


class ReferenceShapeOps:
    """The local operators of one shape class, built class by class.

    The per-class construction in plain loops over the sides and the
    monomials, with scipy's Cholesky solve: the reference for the batched
    build of OperatorCache.  Its orthonormal basis phi = V U comes from a
    Householder QR of sqrt(w) V, the signs fixed so that diag(U) > 0, not
    from Cholesky factors.  rel_verts holds the vertices relative to the
    centroid, canon_flags the edge orientation pattern.
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
        self.h_T = float(max(np.linalg.norm(p - q) for p in rel_verts for q in rel_verts))

        self.basis = ElementBasis(max(k, m), (0.0, 0.0), self.h_T)
        rule = element_quadrature(shape, max(2 * max(k, m), k + 4))
        self.offsets, self.weights = map_to_element(rule, rel_verts)
        V = self.basis.eval(self.offsets)
        R = np.linalg.qr(np.sqrt(self.weights)[:, None] * V, mode="r")
        R *= np.sign(np.diag(R))[:, None]
        self.U = np.linalg.inv(R)
        phi = V @ self.U
        M_full = phi.T @ (self.weights[:, None] * phi)
        self.M_m = M_full[:dim_m, :dim_m]
        self.phi0 = phi[:, :n0]

        edge_basis = EdgeBasis(j)
        edge_rule = edge_quadrature(2 * max(k, j, ell))
        E = edge_basis.eval(edge_rule.points)
        self.edge_mass = edge_basis.mass_diagonal(self.edge_lengths[:, None])
        B = np.zeros((2, dim_l, self.n_loc))
        self.stab_unit = np.zeros((self.n_loc, self.n_loc))
        self.trace_ops = []
        for side in range(n_sides):
            p, q = rel_verts[side], rel_verts[(side + 1) % n_sides]
            if canon_flags[side] < 0:
                p, q = q, p
            pts, ew, _ = map_to_edge(edge_rule, p, q)
            V_side = self.basis.eval(pts) @ self.U
            D = self.edge_mass[side]
            T_e = (E.T @ (ew[:, None] * V_side[:, :n0])) / D[:, None]
            N_e = np.zeros((nb, self.n_loc))
            N_e[:, :n0] = T_e
            N_e[:, n0 + side * nb : n0 + (side + 1) * nb] = -np.eye(nb)
            moments = -V_side[:, :dim_l].T @ (ew[:, None] * (E @ N_e))
            B += self.normals[side][:, None, None] * moments
            self.stab_unit += N_e.T @ (D[:, None] * N_e)
            self.trace_ops.append(T_e)

        self.M_l, self.B = M_full[:dim_l, :dim_l], B  # delta's system M_l delta = B
        cho_l = cho_factor(self.M_l)
        delta_x, delta_y = cho_solve(cho_l, B[0]), cho_solve(cho_l, B[1])
        self.delta = np.vstack([delta_x, delta_y])

        # grad v0: the monomial derivatives, taken to the phi basis by R_m and U_k
        Gx = np.zeros((dim_m, self.n_loc))
        Gy = np.zeros((dim_m, self.n_loc))
        index_m = {tuple(e): i for i, e in enumerate(monomial_exponents(m))}
        for i, (a, b) in enumerate(monomial_exponents(k)):
            if a > 0:
                Gx[index_m[(a - 1, b)], i] += a / self.h_T
            if b > 0:
                Gy[index_m[(a, b - 1)], i] += b / self.h_T
        for Gd in (Gx, Gy):
            Gd[:, :n0] = R[:dim_m, :dim_m] @ Gd[:, :n0] @ self.U[:n0, :n0]
        Gx[:dim_l, :] += delta_x
        Gy[:dim_l, :] += delta_y
        self.Gx, self.Gy = Gx, Gy
        self.G = np.vstack([Gx, Gy])
        self.Sxx = Gx.T @ (self.M_m @ Gx)
        self.Syy = Gy.T @ (self.M_m @ Gy)
        self.Sxy = Gx.T @ (self.M_m @ Gy)


def reference_classes(cache):
    """ReferenceShapeOps of every class of cache, built from its first element."""
    mesh = cache.mesh
    out = []
    for e in cache.class_first:
        rel = mesh.vertices[mesh.elements[e]] - cache.centroids[e]
        out.append(ReferenceShapeOps(cache.shape, rel, mesh.element_edge_signs[e], cache.signature))
    return out


def parallelogram_mesh():
    """rect 2 sheared into parallelograms by x += y / 2: every side slanted or flat."""
    mesh = build_uniform_rectangular(2)
    vertices = mesh.vertices.copy()
    vertices[:, 0] += 0.5 * vertices[:, 1]
    return Mesh(vertices, mesh.elements)


def moved_vertex(mesh, displacement):
    """mesh as a general mesh, its first interior vertex moved by displacement."""
    vertices = mesh.vertices.copy()
    vertex = np.flatnonzero(np.all((vertices > 0) & (vertices < 1), axis=1))[0]
    vertices[vertex] += displacement
    return Mesh(vertices, mesh.elements)


def jittered_interior(mesh, seed):
    """mesh as a general mesh, every interior vertex moved by up to h_max / 10."""
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0) & (vertices < 1), axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-0.1, 0.1, (interior.sum(), 2)) * mesh.h_max
    return Mesh(vertices, mesh.elements)


tri_8 = build_uniform_triangular(8)
tri_16 = build_uniform_triangular(16)


@pytest.mark.parametrize(
    "mesh",
    [
        tri_16,
        build_uniform_rectangular(2),
        Mesh(tri_16.vertices + [1e4, -3], tri_16.elements),
        moved_vertex(build_uniform_triangular(4), 3e-7),
        jittered_interior(tri_8, 5),
        # 3 tol in x: in the elements around the vertex its own key moves
        # by 2 tol and the other vertices' keys by tol, the skip bound
        moved_vertex(tri_8, [3 * key_tol(tri_8) * tri_8.h_max, 0.0]),
    ],
    ids=["tri-16", "rect-2", "far-tri-16", "moved-vertex", "jittered-tri-8", "moved-3-tol"],
)
def test_skipped_key_columns_give_the_full_refinement_classes(mesh):
    # a key column whose spread within every group is at most tol is not
    # sorted; the classes must be those of sorting every column
    cache = OperatorCache(mesh, WeakSpaceSignature(0, 0, 0))
    expected = reference_class_ids(mesh)
    assert cache.class_ids.dtype == expected.dtype
    np.testing.assert_array_equal(cache.class_ids, expected)


STACK_NAMES = (
    "h_T", "edge_lengths", "normals", "offsets", "weights", "phi0", "U", "edge_mass",
    "trace_ops", "delta", "Gx", "Gy", "G", "Sxx", "Syy", "Sxy", "stab_unit",
)
FROM_DELTA = {"delta", "Gx", "Gy", "G", "Sxx", "Syy", "Sxy"}


# (3, 2, 2) has k > ell: the P_ell basis is a leading block of the P_k basis
@pytest.mark.parametrize("family", [(0, 0, 0), (1, 1, 1), (1, 2, 2), (2, 1, 3), (3, 4, 4), (3, 2, 2)])
@pytest.mark.parametrize(
    "mesh",
    [
        tri_16,
        build_uniform_rectangular(2),
        Mesh(tri_16.vertices + [1e4, -3], tri_16.elements),
        parallelogram_mesh(),
        jittered_interior(tri_8, 5),
    ],
    ids=["tri-16", "rect-2", "far-tri-16", "parallelogram", "jittered-tri-8"],
)
def test_batched_shape_operators_are_the_per_class_build(mesh, family):
    # entry c of every stack of the one batched build against the
    # class-by-class construction, name by name, to rounding.  delta solves
    # M_l delta = B in the reference's orthonormal basis, so M_l is the
    # identity to rounding and delta and what is built from it are compared
    # to max(1e-13, eps cond(M_l)); delta must solve the reference's system
    # to rounding.  The monomial mass matrix reaches cond 1.9e10 on the
    # jittered mesh at degree 4, and U still agrees to 1e-13 there
    cache = OperatorCache(mesh, WeakSpaceSignature(*family))
    stacks, reference = cache.stacks, reference_classes(cache)
    assert cache.class_first.size == len(reference) > 0
    assert sorted(stacks) == sorted(STACK_NAMES)
    n_sides, n_loc = stacks["normals"].shape[1], stacks["G"].shape[-1]
    for c, ref in enumerate(reference):
        assert (n_sides, n_loc) == (ref.n_sides, ref.n_loc)
        eps = np.finfo(float).eps
        from_delta = max(1e-13, eps * np.linalg.cond(ref.M_l))
        for name in STACK_NAMES:
            got, want = stacks[name][c], np.asarray(getattr(ref, name))
            assert got.shape == want.shape, name
            assert not got.flags.writeable, name
            rtol = from_delta if name in FROM_DELTA else 1e-13
            np.testing.assert_allclose(
                got, want, rtol=0, atol=rtol * np.abs(want).max(), err_msg=name
            )
        delta = stacks["delta"][c].reshape(ref.B.shape)
        residual = np.abs(ref.M_l @ delta - ref.B).max()
        assert residual <= 1e-13 * np.abs(ref.M_l).sum(axis=1).max() * np.abs(delta).max()
        for name in ("Sxx", "Syy", "stab_unit"):
            assert np.array_equal(stacks[name][c], stacks[name][c].T), name
        # the scale of the class's basis, the diameter h_T
        assert stacks["h_T"][c] == pytest.approx(ref.basis.scale, rel=1e-15)


@pytest.mark.parametrize(
    "mesh,family",
    [
        (jittered_interior(build_uniform_triangular(4), 5), (3, 4, 4)),
        (build_uniform_rectangular(2), (2, 1, 3)),
    ],
    ids=["jittered-tri-4", "rect-2"],
)
def test_class_rules_and_basis_are_the_polybasis_maps_bit_for_bit(mesh, family):
    # the batched build takes its element rule and basis values from
    # map_to_element and the scaled monomials of polybasis: each class's
    # offsets, weights and phi0 (the monomials times its U) are those of its
    # vertices alone, bit for bit
    sig = WeakSpaceSignature(*family)
    cache = OperatorCache(mesh, sig)
    stacks = cache.stacks
    rule = element_quadrature(cache.shape, max(2 * max(sig.k, sig.m), sig.k + 4))
    for c, e in enumerate(cache.class_first):
        rel = mesh.vertices[mesh.elements[e]] - cache.centroids[e]
        offsets, weights = map_to_element(rule, rel)
        basis = ElementBasis(max(sig.k, sig.m), (0.0, 0.0), stacks["h_T"][c])
        phi0 = basis.eval(offsets) @ stacks["U"][c]
        for got, want in [
            (stacks["offsets"][c], offsets),
            (stacks["weights"][c], weights),
            (stacks["phi0"][c], phi0[:, : sig.interior_dim]),
        ]:
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _monomials_ld(pts, h, degree):
    """The scaled monomials of degree at most degree, in long double, at pts (..., 2) / h."""
    X, Y = (pts[..., i].astype(np.longdouble) / np.asarray(h, dtype=np.longdouble) for i in (0, 1))
    a, b = monomial_exponents(degree).T
    return X[..., None] ** a * Y[..., None] ** b


def _long_double_solve(M, b):
    """x with M x = b, M (..., n, n) and b (..., n, r) in long double, by refinement."""
    M_float = M.astype(float)
    x = np.linalg.solve(M_float, b.astype(float)).astype(np.longdouble)
    for _ in range(4):
        x += np.linalg.solve(M_float, (b - M @ x).astype(float))
    return x


def test_delta_is_the_long_double_solve_on_a_jittered_mesh():
    # delta's edge columns, as functions at the element points, against the
    # monomial system M_l delta = B formed and solved in long double, on a
    # mesh where every element is its own class and cond(M_l) reaches 7e9;
    # a double solve against M_l reads 2.3e-12 here, so the bound catches it
    mesh, signature = jittered_interior(tri_16, 5), WeakSpaceSignature(3, 4, 4)
    cache = OperatorCache(mesh, signature)
    stacks, n0, dim_l = cache.stacks, signature.interior_dim, dim_pk(signature.ell)
    h, offsets, weights = stacks["h_T"], stacks["offsets"], stacks["weights"]
    V = _monomials_ld(offsets, h[:, None], signature.ell)
    M = np.einsum("cqi,cq,cqj->cij", V, weights.astype(np.longdouble), V)
    # B's edge columns: side s's block is n_s <psi, L_a>_s
    rel = mesh.vertices[mesh.elements[cache.class_first]] - cache.centroids[cache.class_first, None]
    after = np.roll(rel, -1, axis=1)
    forward = (mesh.element_edge_signs[cache.class_first] > 0)[..., None]
    edge_rule = edge_quadrature(2 * max(signature.k, signature.j, signature.ell))
    pts, w, _ = map_to_edge(edge_rule, np.where(forward, rel, after), np.where(forward, after, rel))
    E = EdgeBasis(signature.j).eval(edge_rule.points).astype(np.longdouble)
    P = np.einsum("csqi,csq,qa->csia", _monomials_ld(pts, h[:, None, None], signature.ell), w, E)
    B = np.einsum("csd,csia->cdisa", stacks["normals"], P).reshape(len(h), 2, dim_l, -1)
    want = V[:, None] @ _long_double_solve(M[:, None], B)
    for c, (hc, oc) in enumerate(zip(h, offsets)):
        phi = ElementBasis(max(signature.k, signature.m), (0.0, 0.0), hc).eval(oc) @ stacks["U"][c]
        got = phi[:, :dim_l] @ stacks["delta"][c].reshape(2, dim_l, -1)[..., n0:]
        assert np.abs(got - want[c]).max() <= 1e-13 * np.abs(want[c]).max()


@pytest.mark.parametrize("family", [(3, 4, 4), (3, 2, 2), (1, 1, 0)])
def test_projection_q0_values_are_the_long_double_solve(family):
    # Q0 u is the moments against the orthonormal basis, with no solve: its
    # values at the element points must match the monomial mass matrix
    # system formed and solved in long double, over 12 jittered meshes where
    # every element is its own class (cond(M0) up to 2e7 at k = 3)
    def u(p):
        return np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])

    signature = WeakSpaceSignature(*family)
    n0 = signature.interior_dim
    for seed in range(12):
        cache = OperatorCache(jittered_interior(tri_16, seed), signature)
        stacks, ids = cache.stacks, cache.class_ids
        offsets, weights = stacks["offsets"][ids], stacks["weights"][ids].astype(np.longdouble)
        V = _monomials_ld(offsets, stacks["h_T"][ids, None], signature.k)
        values = u((cache.centroids[:, None] + offsets).reshape(-1, 2)).reshape(weights.shape)
        moments = np.einsum("eqi,eq->ei", V, weights * values)[..., None]
        M0 = np.einsum("eqi,eq,eqj->eij", V, weights, V)
        want = V @ _long_double_solve(M0, moments)
        wf = project_Qh(u, cache.mesh, signature, cache=cache)
        phi0 = np.stack([
            ElementBasis(signature.k, (0.0, 0.0), h).eval(o) @ U[:n0, :n0]
            for h, o, U in zip(stacks["h_T"], stacks["offsets"], stacks["U"])
        ])
        got = phi0[ids] @ cache.dofmap.interiors(wf.coeffs)[..., None]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_operator_cache_survives_pickle_and_copy():
    # an unpickled or copied cache must still give the same operators and
    # classes, and an unknown name must raise
    cache = OperatorCache(build_uniform_triangular(2), WeakSpaceSignature(1, 1, 1))
    for other in (pickle.loads(pickle.dumps(cache)), copy.copy(cache), copy.deepcopy(cache)):
        assert sorted(other.stacks) == sorted(STACK_NAMES)
        for name in STACK_NAMES:
            np.testing.assert_array_equal(other.stacks[name], cache.stacks[name])
        np.testing.assert_array_equal(other.class_ids, cache.class_ids)
        np.testing.assert_array_equal(other.class_first, cache.class_first)
    with pytest.raises(KeyError, match="Szz"):
        cache.stacks["Szz"]


@pytest.mark.parametrize("mesh", [jittered_interior(tri_8, 5), tri_16], ids=["jittered-tri-8", "tri-16"])
def test_class_first_is_the_first_element_of_each_class(mesh):
    # the stacks are built from class_first, and a pivot message names the
    # interior coefficients of the first element of a class
    cache = OperatorCache(mesh, WeakSpaceSignature(0, 0, 0))
    expected = [np.flatnonzero(cache.class_ids == c)[0] for c in range(cache.class_ids.max() + 1)]
    np.testing.assert_array_equal(cache.class_first, expected)


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(4), build_uniform_rectangular(2), jittered_interior(tri_8, 5)],
    ids=["tri-4", "rect-2", "jittered-tri-8"],
)
def test_class_ops_is_the_class_count_alias(mesh):
    # perfbench/worker.py reports weakspace.n_classes as len(cache.class_ops);
    # that alias of class_first is all that is left of the per-class views,
    # and the class defines no other public name
    cache = OperatorCache(mesh, WeakSpaceSignature(1, 1, 1))
    assert len(cache.class_ops) == cache.class_first.size
    assert cache.class_ops is cache.class_first
    assert [name for name in vars(OperatorCache) if not name.startswith("_")] == ["class_ops"]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
# a tiny shift leaves the unstabilized P0 interior block at rounding level,
# not exactly zero, and it must still be rejected
@example(n=1, shift=(0.0, 1e-8))
def test_translated_mesh_gives_same_classes_and_operators(n, shift):
    base = build_uniform_triangular(n)
    moved = Mesh(base.vertices + np.array(shift), base.elements)
    sig = WeakSpaceSignature(1, 1, 1)
    ref, out = OperatorCache(base, sig), OperatorCache(moved, sig)
    assert out.class_first.size == ref.class_first.size
    assert np.array_equal(out.class_ids, ref.class_ids)
    for name in ("Sxx", "stab_unit"):
        for expected, got in zip(ref.stacks[name], out.stacks[name]):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    # the unstabilized lowest-order family is singular wherever the mesh sits
    def one(p):
        return np.ones(p.shape[0])

    lowest, unstabilized = WeakSpaceSignature(0, 0, 0), SchemeParameters(rho=0.0)
    for mesh in (base, moved):
        with pytest.raises(SingularSystem):
            solve(assemble(mesh, lowest, unstabilized, one, one))


def test_weak_gradient_kernel_contains_constants():
    mesh = build_uniform_triangular(2)
    for sig in [WeakSpaceSignature(1, 0, 0), WeakSpaceSignature(2, 1, 2)]:
        cache = OperatorCache(mesh, sig)
        wf = project_Qh(lambda p: np.full(p.shape[0], 4.25), mesh, sig, cache=cache)
        for e in range(mesh.n_elements):
            vloc = wf.coeffs[cache.dofmap.element_dof_table[e]]
            g = cache.stacks["G"][cache.class_ids[e]] @ vloc
            assert np.max(np.abs(g)) < 1e-10


def test_weak_gradient_reproduces_polynomial_gradient():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(2, 2, 1)
    p = lambda pts: pts[:, 0] ** 2 + pts[:, 0] * pts[:, 1] - 3 * pts[:, 1] + 1.0
    grad = lambda pts: np.column_stack([2 * pts[:, 0] + pts[:, 1], pts[:, 0] - 3.0])
    cache = OperatorCache(mesh, sig)
    wf = project_Qh(p, mesh, sig, cache=cache)
    dim_m = dim_pk(sig.m)
    for e in range(mesh.n_elements):
        g = cache.stacks["G"][cache.class_ids[e]] @ wf.coeffs[cache.dofmap.element_dof_table[e]]
        centroid, diameter = mesh.element_centroids()[e], mesh.element_diameters()[e]
        rng = np.random.default_rng(e)
        pts = centroid + 0.03 * rng.standard_normal((8, 2))
        V = ElementBasis(sig.m, centroid, diameter).eval(pts) @ interior_U(cache, e, dim_m)
        expected = grad(pts)
        np.testing.assert_allclose(V @ g[:dim_m], expected[:, 0], atol=1e-11)
        np.testing.assert_allclose(V @ g[dim_m:], expected[:, 1], atol=1e-11)


def test_delta_vanishes_when_traces_match():
    # If the edge component is the exact trace projection of the interior
    # one, the correction term of the weak gradient is zero.
    mesh = build_uniform_triangular(2)
    for sig in [WeakSpaceSignature(2, 2, 1), WeakSpaceSignature(1, 2, 0), WeakSpaceSignature(1, 1, 3)]:
        cache = OperatorCache(mesh, sig)
        deg = min(sig.k, sig.j)
        if deg >= 2:
            p = lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2 + pts[:, 0]
        else:
            p = lambda pts: 2 * pts[:, 0] - pts[:, 1] + 0.5
        wf = project_Qh(p, mesh, sig, cache=cache)
        for e in range(mesh.n_elements):
            vloc = wf.coeffs[cache.dofmap.element_dof_table[e]]
            d = cache.stacks["delta"][cache.class_ids[e]] @ vloc
            assert np.max(np.abs(d)) < 1e-10


def test_trace_operator_matches_edge_blocks():
    # For a globally smooth low-degree field both incident elements must
    # reconstruct the shared edge coefficients through their own trace maps.
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 1, 0)
    cache = OperatorCache(mesh, sig)
    wf = project_Qh(lambda p: p[:, 0] + 2 * p[:, 1], mesh, sig, cache=cache)
    n0 = sig.interior_dim
    for e in range(mesh.n_elements):
        trace_ops = cache.stacks["trace_ops"][cache.class_ids[e]]
        v0 = wf.interior(e)
        for side, edge in enumerate(mesh.element_edges[e]):
            np.testing.assert_allclose(trace_ops[side] @ v0, wf.edge(edge), atol=1e-12)


def test_delta_closed_form_oracle():
    # Hand-derived on the unit right triangle with k=1, j=0, ell=1 and the
    # weak function {x, 0}: solving the moment system exactly gives
    # delta = (3 - 6x - 6y, 6 - 6x - 12y).
    mesh = unit_right_triangle()
    sig = WeakSpaceSignature(1, 0, 1)
    stacks = OperatorCache(mesh, sig).stacks
    U, delta = stacks["U"][0], stacks["delta"][0]
    centroid, diameter = mesh.element_centroids()[0], mesh.element_diameters()[0]
    # x = xc + h X in monomial coefficients, U^-1 of them in the orthonormal basis
    vloc = np.zeros(delta.shape[-1])
    vloc[:3] = np.linalg.solve(U, [centroid[0], diameter, 0.0])
    d = delta @ vloc
    rng = np.random.default_rng(11)
    pts = np.array([1.0, 1.0]) * rng.random((12, 2)) * 0.4 + 0.05
    V = ElementBasis(1, centroid, diameter).eval(pts) @ U
    np.testing.assert_allclose(V @ d[:3], 3 - 6 * pts[:, 0] - 6 * pts[:, 1], atol=1e-12)
    np.testing.assert_allclose(V @ d[3:], 6 - 6 * pts[:, 0] - 12 * pts[:, 1], atol=1e-12)


def test_weak_gradient_commutes_with_projection_spot():
    # (grad_g Qh(phi), psi)_T == (grad phi, psi)_T for constant psi, even
    # when phi has higher degree than the interior space.
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 0, 1)
    cache = OperatorCache(mesh, sig)
    phi = lambda p: p[:, 0] ** 2 * p[:, 1]
    wf = project_Qh(phi, mesh, sig, cache=cache)
    dim_m = dim_pk(sig.m)
    for e in range(mesh.n_elements):
        g = cache.stacks["G"][cache.class_ids[e]] @ wf.coeffs[cache.dofmap.element_dof_table[e]]
        # (phi_i, 1)_T = (phi_i, phi_0)_T / U[0, 0]: only coefficient 0 sees psi = 1
        lhs = np.array([g[0], g[dim_m]]) / interior_U(cache, e, 1)[0, 0]
        verts = mesh.vertices[mesh.elements[e]]
        pts, w = map_to_element(element_quadrature("triangle", 6), verts)
        rhs = np.array(
            [w @ (2 * pts[:, 0] * pts[:, 1]), w @ (pts[:, 0] ** 2)]
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_build_local_weak_gradient_shapes_and_sharing():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(2, 1, 3)
    cache = OperatorCache(mesh, sig)
    stacks, n_classes = cache.stacks, cache.class_first.size
    dim_m, dim_l = dim_pk(sig.m), dim_pk(sig.ell)
    n_loc = sig.interior_dim + 3 * sig.edge_dim
    assert stacks["G"].shape == (n_classes, 2 * dim_m, n_loc)
    assert stacks["delta"].shape == (n_classes, 2 * dim_l, n_loc)
    # translated copies of the same shape share one class and so one operator entry
    same = [e for e in range(mesh.n_elements) if cache.class_ids[e] == cache.class_ids[0]]
    assert len(same) == 4


# ---------------------------------------------------------- graded rules


def test_graded_element_rule_integrates_corner_singularity():
    # integral of r^(-1/2) over the unit right triangle, corner at origin
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    exact = quad(
        lambda th: (2.0 / 3.0) * (np.cos(th) + np.sin(th)) ** (-1.5),
        0.0,
        np.pi / 2,
        epsabs=1e-14,
        epsrel=1e-14,
    )[0]
    pts, w = graded_rule(verts, 0, 12, 30)
    r = np.sqrt((pts**2).sum(axis=1))
    np.testing.assert_allclose(w @ r ** (-0.5), exact, rtol=1e-7)


def test_graded_element_rule_still_exact_for_polynomials():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts, w = graded_rule(verts, 2, 6, 6)
    val = w @ (pts[:, 0] ** 3 * pts[:, 1] ** 3)
    np.testing.assert_allclose(val, 1.0 / 16.0, rtol=1e-13)


def test_graded_edge_rule_both_orientations():
    # the singular end is the corner whichever way the segment is given
    origin, far = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    for verts, corner in (([origin, far], 0), ([far, origin], 1)):
        pts, w = graded_rule(np.array(verts), corner, 12, 80)
        np.testing.assert_allclose(w @ pts[:, 0] ** (-0.5), 2.0, rtol=1e-7)
        np.testing.assert_array_equal(pts[:, 1], 0.0)
        # the points reach the singular end without cancellation
        assert pts[:, 0].min() < 1e-20


SKEWED_PARALLELOGRAM = np.array([[0.0, 0.0], [1.0, 0.25], [1.5, 1.25], [0.5, 1.0]])


def _measure(cell):
    """Length of a segment, area of a counterclockwise triangle or parallelogram."""
    if len(cell) == 2:
        return np.linalg.norm(cell[1] - cell[0])
    x, y = cell[:, 0], cell[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


@pytest.mark.parametrize(
    "cell",
    [
        np.array([[0.25, -1.0], [2.0, 0.5]]),
        np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 0.9]]),
        SKEWED_PARALLELOGRAM,
    ],
    ids=["segment", "triangle", "parallelogram"],
)
def test_corner_split_children_hold_their_vertex_and_tile_the_cell(cell):
    children = _corner_split(cell)
    assert len(children) == (2 if len(cell) == 2 else 4)
    for i, vertex in enumerate(cell):
        np.testing.assert_array_equal(children[i][i], vertex)
    measures = [_measure(child) for child in children]
    np.testing.assert_allclose(measures, _measure(cell) / len(children), rtol=1e-14)
    assert math.fsum(measures) == pytest.approx(_measure(cell), rel=1e-14)


def _per_child_graded_rule(verts, corner, d, depth):
    """graded_rule as one map call per child, over written-out children."""
    cell = np.roll(np.asarray(verts, dtype=float), -corner, axis=0)
    apex = cell[0]
    if len(cell) == 2:
        m = (cell[0] + cell[1]) / 2
        outer = [np.array([m, cell[1]])]
    else:
        v0, v1, v2 = cell
        m01, m12, m02 = (v0 + v1) / 2, (v1 + v2) / 2, (v0 + v2) / 2
        outer = [np.array([m01, v1, m12]), np.array([m02, m12, v2]), np.array([m01, m12, m02])]

    def mapped(child):
        if len(child) == 2:
            return map_to_edge(edge_quadrature(d), child[0], child[1])[:2]
        return map_to_element(element_quadrature("triangle", d), child)

    rules = [mapped(child) for child in outer]
    outer_pts = np.concatenate([p for p, _ in rules]) - apex
    outer_w = np.concatenate([w for _, w in rules])
    inner_pts, inner_w = mapped(cell)
    dim = 1 if len(cell) == 2 else 2
    pts = [np.ldexp(outer_pts, -i) for i in range(depth)] + [np.ldexp(inner_pts - apex, -depth)]
    w = [np.ldexp(outer_w, -dim * i) for i in range(depth)] + [np.ldexp(inner_w, -dim * depth)]
    return apex + np.concatenate(pts), np.concatenate(w)


@pytest.mark.parametrize("n_vertices", [2, 3])
def test_graded_rule_is_the_per_child_rule_bit_for_bit(n_vertices):
    # segments and triangles over 12 decades, at every corner
    rng = np.random.default_rng(11)
    for _ in range(20):
        verts = rng.standard_normal((n_vertices, 2)) * 10.0 ** rng.integers(-6, 6)
        d, depth = int(rng.integers(0, 13)), int(rng.integers(1, 40))
        for corner in range(n_vertices):
            got = graded_rule(verts, corner, d, depth)
            want = _per_child_graded_rule(verts, corner, d, depth)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_graded_parallelogram_rule_is_its_two_triangles():
    # r^(-1/2) with the corner at the origin: the parallelogram's graded rule
    # against those of the two triangles that share its corner
    cell = SKEWED_PARALLELOGRAM

    def integral(verts):
        pts, w = graded_rule(verts, 0, 12, 30)
        return w @ np.hypot(pts[:, 0], pts[:, 1]) ** -0.5

    halves = integral(cell[[0, 1, 2]]) + integral(cell[[0, 2, 3]])
    np.testing.assert_allclose(integral(cell), halves, rtol=1e-7)


def test_grading_depth_bounds():
    assert _grading_depth(0.5, 1.0) == 80
    assert _grading_depth(0.5, 1.0 / 64.0) == 74
    assert _grading_depth(1.0, 2.0 ** -50) >= 4
    assert _grading_depth(1.0 / 32.0, 1.0) == 480
    # 40 / strength overflows to inf; the cap still holds
    assert _grading_depth(1e-310, 1.0) == 480


def test_project_q0_graded_override_matches_plain_for_polynomials():
    # both the plain and the graded rule are exact here, so the projections
    # may differ only by accumulated roundoff
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(2, 2, 0)
    f = lambda p: p[:, 0] ** 3 - p[:, 1]
    plain = project_Qh(f, mesh, sig)
    graded = project_Qh(f, mesh, sig, singularity=(np.array([0.0, 0.0]), 0.5))
    # element 0 and two edges touch the corner, so the graded rules did run
    assert not np.array_equal(graded.coeffs, plain.coeffs)
    np.testing.assert_allclose(graded.coeffs, plain.coeffs, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize(
    "singularity",
    [
        ((0.0, 0.0), 0.0),
        ((0.0, 0.0), np.nan),
        ((0.0, 0.0, 0.0), 0.5),
        ((0.0, np.nan), 0.5),
        ((0.0, 0.0), -1.0),
        ((0.0, 0.0), np.inf),
        ((0.0, 0.0), "0.5"),
        ((0.0, 0.0), True),
    ],
    ids=[
        "zero-strength", "nan-strength", "3d-point", "nan-point", "negative-strength",
        "inf-strength", "str-strength", "bool-strength",
    ],
)
def test_bad_singularity_is_rejected_by_every_caller(singularity):
    # before the check these raised ZeroDivisionError, a NaN-to-integer or a
    # broadcast error, or graded silently: a NaN point matched no vertex, and
    # a strength of -1 or inf took the minimum depth of 4
    mesh, signature = build_uniform_triangular(4), WeakSpaceSignature(1, 1, 0)
    case = dataclasses.replace(lowreg_case(0.5), singularity=singularity)
    with pytest.raises(ValueError, match="singularity"):
        project_Qh(case.u, mesh, signature, singularity=singularity)
    with pytest.raises(ValueError, match="singularity"):
        assemble(mesh, signature, SchemeParameters(), case.f, case.g, singularity=singularity)
    with pytest.raises(ValueError, match="singularity"):
        run_convergence_study(case, "tri", [2, 4], signature, SchemeParameters())
