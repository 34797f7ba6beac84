"""Tests for degree-of-freedom layout, projections, and weak gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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
    element_quadrature,
    graded_edge_rule,
    graded_element_rule,
    map_to_element,
)
from gwgfem.weakspace import _grading_depth


def edge_index(mesh, a, b):
    key = sorted((a, b))
    hits = np.nonzero((mesh.edges[:, 0] == key[0]) & (mesh.edges[:, 1] == key[1]))[0]
    assert hits.size == 1
    return int(hits[0])


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def interior_values(mesh, wf, element, pts):
    centroid, diameter = mesh.element_centroids()[element], mesh.element_diameters()[element]
    basis = ElementBasis(wf.dofmap.signature.k, centroid, diameter)
    return basis.eval(pts) @ wf.interior(element)


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
    # interior blocks are disjoint between elements
    for e in range(mesh.n_elements):
        assert dm.interior_offset(e) == 3 * e
    # boundary dofs are distinct edge coefficients, two per boundary edge
    bdofs = dm.boundary_dofs
    assert bdofs.size == int(mesh.boundary_edge.sum()) * 2
    assert np.unique(bdofs).size == bdofs.size and bdofs.min() >= dm.n_interior


def test_dofmap_shared_edge_indices():
    mesh = build_uniform_triangular(1)
    sig = WeakSpaceSignature(2, 1, 1)
    dm = OperatorCache(mesh, sig).dofmap
    shared = edge_index(mesh, 0, 3)
    block = np.arange(dm.edge_offset(shared), dm.edge_offset(shared) + 2)
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
    assert v.coeffs[dm.interior_offset(1)] == 2.0
    assert v.coeffs[dm.edge_offset(3)] == -1.0
    w = v - v.copy()
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
    mesh = build_uniform_rectangular(0)
    wf = project_Qh(lambda p: np.full(p.shape[0], 3.5), mesh, WeakSpaceSignature(2, 2, 0))
    c = wf.interior(2)
    assert abs(c[0] - 3.5) < 1e-13 and np.all(np.abs(c[1:]) < 1e-13)

    c = project_Qh(lambda p: p[:, 0], mesh, WeakSpaceSignature(1, 1, 0)).interior(1)
    centroid, diameter = mesh.element_centroids()[1], mesh.element_diameters()[1]
    rng = np.random.default_rng(3)
    pts = centroid + 0.05 * rng.standard_normal((20, 2))
    vals = ElementBasis(1, centroid, diameter).eval(pts) @ c
    np.testing.assert_allclose(vals, pts[:, 0], atol=1e-13)


def test_project_q0_reproduces_cubics():
    mesh = build_uniform_triangular(2)
    f = lambda p: p[:, 0] ** 3 - 2 * p[:, 0] * p[:, 1] + 1.0
    c = project_Qh(f, mesh, WeakSpaceSignature(3, 3, 0)).interior(5)
    centroid, diameter = mesh.element_centroids()[5], mesh.element_diameters()[5]
    rng = np.random.default_rng(4)
    pts = centroid + 0.04 * rng.standard_normal((20, 2))
    vals = ElementBasis(3, centroid, diameter).eval(pts) @ c
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
    wf = project_Qh(p, mesh, sig)
    for e in [0, 3, 7]:
        centroid, diameter = mesh.element_centroids()[e], mesh.element_diameters()[e]
        rng = np.random.default_rng(e)
        pts = centroid + 0.03 * rng.standard_normal((10, 2))
        np.testing.assert_allclose(interior_values(mesh, wf, e, pts), p(pts), atol=1e-12)
    for edge in [0, 2, mesh.n_edges - 1]:
        a, b = mesh.edges[edge]
        t = np.linspace(-1.0, 1.0, 7)
        pts = (mesh.vertices[a] + mesh.vertices[b]) / 2 + np.outer(
            t / 2, mesh.vertices[b] - mesh.vertices[a]
        )
        np.testing.assert_allclose(edge_values(mesh, wf, edge, t), p(pts), atol=1e-12)


def test_project_qh_interior_convergence_rate():
    u = lambda p: np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    sig = WeakSpaceSignature(2, 0, 0)
    errs = []
    for n in (4, 8):
        mesh = build_uniform_triangular(n)
        wf = project_Qh(u, mesh, sig)
        total = 0.0
        for e in range(mesh.n_elements):
            verts = mesh.vertices[mesh.elements[e]]
            pts, w = map_to_element(element_quadrature("triangle", 10), verts)
            diff = u(pts) - interior_values(mesh, wf, e, pts)
            total += float(w @ diff**2)
        errs.append(math.sqrt(total))
    rate = math.log2(errs[0] / errs[1])
    assert abs(rate - 3.0) < 0.3


# ------------------------------------------------------------ weak gradient


def test_shape_classes_on_uniform_meshes():
    cache = OperatorCache(build_uniform_triangular(4), WeakSpaceSignature(1, 0, 0))
    assert len(cache.class_ops) == 2
    sizes = sorted(idx.size for idx in cache.class_elements)
    assert sizes == [16, 16]
    for ops, elems in cache.classes():
        np.testing.assert_allclose(
            cache.mesh.element_areas()[elems], ops.area, rtol=1e-13
        )
    cache = OperatorCache(build_uniform_rectangular(1), WeakSpaceSignature(1, 0, 0))
    assert len(cache.class_ops) == 1
    assert abs(cache.class_ops[0].area - (1.0 / 6.0) * (1.0 / 4.0)) < 1e-15


def test_shape_classes_separate_tiny_elements_of_different_size():
    # two triangles of area ratio 1:2 with the same edge-sign pattern, on a
    # mesh so small that absolute rounding would take them for one shape
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0], [2.0, 2.0]])
    mesh = Mesh(V * 1e-13, [[0, 1, 2], [3, 4, 5]])
    cache = OperatorCache(mesh, WeakSpaceSignature(1, 1, 1))
    assert len(cache.class_ops) == 2
    assert cache.shape_ops(0).area / 1e-26 == pytest.approx(0.5, rel=1e-12)
    assert cache.shape_ops(1).area / 1e-26 == pytest.approx(1.0, rel=1e-12)


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
    assert len(out.class_ops) == len(ref.class_ops)
    assert np.array_equal(out.class_ids, ref.class_ids)
    for a, b in zip(ref.class_ops, out.class_ops):
        for name in ("Sxx", "stab_unit"):
            expected = getattr(a, name)
            np.testing.assert_allclose(
                getattr(b, name), expected, rtol=0, atol=1e-12 * np.abs(expected).max()
            )

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
            vloc = wf.coeffs[cache.dofmap.element_dofs(e)]
            g = cache.shape_ops(e).G @ vloc
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
        ops = cache.shape_ops(e)
        g = ops.G @ wf.coeffs[cache.dofmap.element_dofs(e)]
        centroid, diameter = mesh.element_centroids()[e], mesh.element_diameters()[e]
        rng = np.random.default_rng(e)
        pts = centroid + 0.03 * rng.standard_normal((8, 2))
        V = ElementBasis(sig.m, centroid, diameter).eval(pts)
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
            vloc = wf.coeffs[cache.dofmap.element_dofs(e)]
            d = cache.shape_ops(e).delta @ vloc
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
        ops = cache.shape_ops(e)
        v0 = wf.interior(e)
        for side in range(ops.n_sides):
            edge = mesh.element_edges[e, side]
            np.testing.assert_allclose(ops.trace_ops[side] @ v0, wf.edge(edge), atol=1e-12)


def test_delta_closed_form_oracle():
    # Hand-derived on the unit right triangle with k=1, j=0, ell=1 and the
    # weak function {x, 0}: solving the moment system exactly gives
    # delta = (3 - 6x - 6y, 6 - 6x - 12y).
    mesh = unit_right_triangle()
    sig = WeakSpaceSignature(1, 0, 1)
    ops = OperatorCache(mesh, sig).shape_ops(0)
    centroid, diameter = mesh.element_centroids()[0], mesh.element_diameters()[0]
    vloc = np.zeros(ops.n_loc)
    vloc[0] = centroid[0]
    vloc[1] = diameter
    d = ops.delta @ vloc
    rng = np.random.default_rng(11)
    pts = np.array([1.0, 1.0]) * rng.random((12, 2)) * 0.4 + 0.05
    V = ElementBasis(1, centroid, diameter).eval(pts)
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
        ops = cache.shape_ops(e)
        g = ops.G @ wf.coeffs[cache.dofmap.element_dofs(e)]
        lhs = np.array(
            [(ops.M_m @ g[:dim_m])[0], (ops.M_m @ g[dim_m:])[0]]
        )
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
    ops = cache.shape_ops(0)
    dim_m, dim_l = dim_pk(sig.m), dim_pk(sig.ell)
    n_loc = sig.interior_dim + 3 * sig.edge_dim
    assert ops.G.shape == (2 * dim_m, n_loc)
    assert ops.delta.shape == (2 * dim_l, n_loc)
    # translated copies of the same shape share one operator bundle
    same = [e for e in range(mesh.n_elements) if cache.class_ids[e] == cache.class_ids[0]]
    assert len(same) == 4
    for e in same:
        assert cache.shape_ops(e) is ops


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
    pts, w = graded_element_rule(verts, 0, 12, 30)
    r = np.sqrt((pts**2).sum(axis=1))
    np.testing.assert_allclose(w @ r ** (-0.5), exact, rtol=1e-7)


def test_graded_element_rule_still_exact_for_polynomials():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts, w = graded_element_rule(verts, 2, 6, 6)
    val = w @ (pts[:, 0] ** 3 * pts[:, 1] ** 3)
    np.testing.assert_allclose(val, 1.0 / 16.0, rtol=1e-13)


def test_graded_edge_rule_both_orientations():
    origin, far = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    pts, w, t = graded_edge_rule(origin, far, True, 12, 80)
    np.testing.assert_allclose(w @ pts[:, 0] ** (-0.5), 2.0, rtol=1e-7)
    # t still parametrizes p0 -> p1
    np.testing.assert_allclose(pts[:, 0], (t + 1) / 2, atol=1e-15)
    # same edge traversed the other way, singular end now at t = +1
    pts, w, t = graded_edge_rule(far, origin, False, 12, 80)
    np.testing.assert_allclose(w @ pts[:, 0] ** (-0.5), 2.0, rtol=1e-7)
    np.testing.assert_allclose(pts[:, 0], 1.0 - (t + 1) / 2, atol=1e-15)


def test_grading_depth_bounds():
    assert _grading_depth(0.5, 1.0) == 80
    assert _grading_depth(0.5, 1.0 / 64.0) == 74
    assert _grading_depth(1.0, 2.0 ** -50) >= 4
    assert _grading_depth(1.0 / 32.0, 1.0) == 480


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
