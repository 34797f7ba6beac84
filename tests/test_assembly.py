"""Tests for the bilinear forms, global assembly, and solvers.

The heart of this file is a deliberately slow, dense, loop-based
reconstruction of the local stiffness matrix, the local stabilizer, the
reduced global system and its dense Schur complement onto the edge
unknowns.  It shares only the basis conventions (scaled monomials, Legendre
edge polynomials) and the degree-of-freedom layout with the package, and
is compared after the change of basis to the package's orthonormal
interior basis (interior_basis_change); every
projection, moment solve, and scatter is redone from scratch with plain
numpy so that any plumbing mistake in the fast path shows up as a
disagreement.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gwgfem import (
    Mesh,
    NotConverged,
    OperatorCache,
    SchemeParameters,
    SingularSystem,
    WeakFunction,
    WeakSpaceSignature,
    assemble,
    assembly,
    build_uniform_rectangular,
    build_uniform_triangular,
    energy_norm,
    project_Qh,
    solve,
)
from gwgfem.polybasis import (
    EdgeBasis,
    ElementBasis,
    dim_pk,
    edge_quadrature,
    element_quadrature,
    map_to_edge,
    map_to_element,
)
from gwgfem.weakspace import _interior_moments
from test_weakspace import jittered_interior


# ------------------------------------------------------- brute-force oracle


def brute_local_matrices(mesh, e, sig, a_mat=None):
    """Dense reconstruction of (stiffness, unit stabilizer) on one element.

    The unit stabilizer is the edge penalty without the rho h_T^gamma
    factor.  Everything is computed column by column: for each local basis
    coefficient vector we form the weak gradient by explicitly solving the
    moment system of its correction term, then integrate products with
    generous quadrature.
    """
    k, j, ell, m = sig.k, sig.j, sig.ell, sig.m
    n0, nb = sig.interior_dim, sig.edge_dim
    verts = mesh.vertices[mesh.elements[e]]
    nv = verts.shape[0]
    centroid = verts.mean(axis=0)
    h_T = max(
        float(np.linalg.norm(verts[a] - verts[b]))
        for a in range(nv)
        for b in range(nv)
    )
    shape = "triangle" if nv == 3 else "rectangle"
    basis = ElementBasis(max(k, m), centroid, h_T)
    edge_basis = EdgeBasis(j)
    dim_l = dim_pk(ell)
    n_loc = n0 + nv * nb
    if a_mat is None:
        a_mat = np.eye(2)

    vol_pts, vol_w = map_to_element(element_quadrature(shape, 2 * max(k, m) + 2), verts)
    phi_vol = basis.eval(vol_pts)
    grad_vol = basis.grad(vol_pts)

    # mass matrix of [P_ell] on this element, for the moment solve
    M_l = phi_vol[:, :dim_l].T @ (vol_w[:, None] * phi_vol[:, :dim_l])

    # per-side edge data, with the edge parameter oriented like the stored
    # (ascending vertex index) edge so edge blocks mean the same thing
    edge_rule = edge_quadrature(2 * max(k, j, ell) + 2)
    side_data = []
    for side in range(nv):
        p, q = verts[side], verts[(side + 1) % nv]
        if mesh.element_edge_signs[e][side] < 0:
            p, q = q, p
        pts, ew, t = map_to_edge(edge_rule, p, q)
        length = float(np.linalg.norm(q - p))
        d = verts[(side + 1) % nv] - verts[side]
        normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        side_data.append((pts, ew, t, length, normal))

    def jump_values(c):
        """(Qb v0 - vb) sampled at the quadrature points of every side."""
        out = []
        for side, (pts, ew, t, length, _) in enumerate(side_data):
            trace = basis.eval(pts)[:, :n0] @ c[:n0]
            leg = edge_basis.eval(t)
            proj = np.zeros(nb)
            for r in range(nb):
                proj[r] = (ew * trace * leg[:, r]).sum() / (length / (2 * r + 1))
            vb = leg @ c[n0 + side * nb : n0 + (side + 1) * nb]
            out.append(leg @ proj - vb)
        return out

    def weak_gradient_values(c):
        """grad_g v at the volume quadrature points, shape (npts, 2)."""
        rhs = np.zeros((dim_l, 2))
        for side, (pts, ew, t, length, normal) in enumerate(side_data):
            jump = jump_values(c)[side]
            mom = basis.eval(pts)[:, :dim_l].T @ (ew * jump)
            # edge moments of (vb - Qb v0) against psi . n
            rhs += np.outer(mom, -normal)
        delta = np.linalg.solve(M_l, rhs)
        vals = np.einsum("pid,i->pd", grad_vol[:, :n0, :], c[:n0])
        vals += phi_vol[:, :dim_l] @ delta
        return vals

    stiff = np.zeros((n_loc, n_loc))
    stab = np.zeros((n_loc, n_loc))
    wg_cols = []
    jump_cols = []
    for i in range(n_loc):
        c = np.zeros(n_loc)
        c[i] = 1.0
        wg_cols.append(weak_gradient_values(c))
        jump_cols.append(jump_values(c))
    for i in range(n_loc):
        for jj in range(n_loc):
            stiff[i, jj] = np.einsum(
                "p,pd,pd->", vol_w, wg_cols[i] @ a_mat.T, wg_cols[jj]
            )
            acc = 0.0
            for side, (_, ew, _, _, _) in enumerate(side_data):
                acc += (ew * jump_cols[i][side] * jump_cols[jj][side]).sum()
            stab[i, jj] = acc
    return stiff, stab, h_T


def brute_global_system(mesh, sig, params, f, g):
    """Dense reduced system built by scattering the brute-force locals."""
    n0, nb = sig.interior_dim, sig.edge_dim
    ne = mesh.n_elements
    total = ne * n0 + mesh.n_edges * nb
    A = np.zeros((total, total))
    b = np.zeros(total)
    for e in range(ne):
        a = params.coefficient
        a_mat = None if a is None else (a if a.ndim == 2 else a[e])
        stiff, stab, h_T = brute_local_matrices(mesh, e, sig, a_mat)
        local = stiff + params.rho * h_T**params.gamma * stab
        nv = mesh.elements.shape[1]
        gdofs = np.concatenate(
            [np.arange(e * n0, (e + 1) * n0)]
            + [
                np.arange(ne * n0 + mesh.element_edges[e][s] * nb,
                          ne * n0 + (mesh.element_edges[e][s] + 1) * nb)
                for s in range(nv)
            ]
        )
        A[np.ix_(gdofs, gdofs)] += local

        verts = mesh.vertices[mesh.elements[e]]
        centroid = verts.mean(axis=0)
        h_T = max(
            float(np.linalg.norm(verts[p] - verts[q]))
            for p in range(nv)
            for q in range(nv)
        )
        shape = "triangle" if nv == 3 else "rectangle"
        basis = ElementBasis(max(sig.k, sig.m), centroid, h_T)
        pts, w = map_to_element(element_quadrature(shape, 2 * sig.k + 6), verts)
        for i in range(n0):
            b[e * n0 + i] = (w * f(pts) * basis.eval(pts)[:, i]).sum()

    edge_basis = EdgeBasis(sig.j)
    rule = edge_quadrature(2 * sig.j + 6)
    bedges = np.nonzero(mesh.boundary_edge)[0]
    dirichlet = np.zeros(bedges.size * nb)
    for pos, edge in enumerate(bedges):
        p0, p1 = mesh.vertices[mesh.edges[edge]]
        pts, ew, t = map_to_edge(rule, p0, p1)
        length = float(np.linalg.norm(p1 - p0))
        vals = g(pts)
        leg = edge_basis.eval(t)
        for r in range(nb):
            dirichlet[pos * nb + r] = (ew * vals * leg[:, r]).sum() / (
                length / (2 * r + 1)
            )
    constrained = (ne * n0 + bedges[:, None] * nb + np.arange(nb)).ravel()
    mask = np.ones(total, dtype=bool)
    mask[constrained] = False
    free = np.nonzero(mask)[0]
    A_red = A[np.ix_(free, free)]
    b_red = b[free] - A[np.ix_(free, constrained)] @ dirichlet
    return A_red, b_red, dirichlet


def interior_basis_change(cache, elements, size):
    """T = blockdiag(U0 of each of elements, I), of size x size: monomial from orthonormal coefficients.

    The oracle works in the scaled monomials and the package in each class's
    orthonormal basis phi = monomials @ U, so T^T K T is the oracle's matrix
    K in the package's basis.  The interior blocks of elements come first.
    """
    n0 = cache.signature.interior_dim
    U0 = cache.stacks["U"][cache.class_ids[elements], :n0, :n0]
    return scipy.linalg.block_diag(*U0, np.eye(size - U0.shape[0] * n0))


def brute_condensed_system(mesh, sig, params, f, g):
    """Dense Schur complement of brute_global_system onto the free edge unknowns.

    The interior unknowns come first in the reduced system, so eliminating
    them leaves the free edge unknowns in ascending global order.
    """
    A, b, dirichlet = brute_global_system(mesh, sig, params, f, g)
    n = mesh.n_elements * sig.interior_dim
    A00, A0b, Abb = A[:n, :n], A[:n, n:], A[n:, n:]
    S = Abb - A0b.T @ np.linalg.solve(A00, A0b)
    c = b[n:] - A0b.T @ np.linalg.solve(A00, b[:n])
    return S, c, dirichlet


# ------------------------------------------------------ scheme parameters


def test_scheme_parameters_validation():
    with pytest.raises(ValueError):
        SchemeParameters(rho=-1.0)
    with pytest.raises(ValueError):
        SchemeParameters(coefficient=[[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(ValueError):
        SchemeParameters(coefficient=[[1.0, 2.0], [2.0, 1.0]])  # indefinite
    # an empty per-element stack once raised numpy's zero-size reduction error
    for bad in [np.ones((3, 2)), np.zeros((0, 2, 2))]:
        with pytest.raises(ValueError, match=r"\(2, 2\) matrix or an \(n, 2, 2\) array$"):
            SchemeParameters(coefficient=bad)
    nan_stack = np.tile(np.eye(2), (3, 1, 1))
    nan_stack[1, 0, 0] = math.nan
    for bad in [[[math.inf, 0.0], [0.0, 1.0]], [[math.nan, 0.0], [0.0, 1.0]], nan_stack]:
        with pytest.raises(ValueError, match="coefficient must be finite"):
            SchemeParameters(coefficient=bad)
    # symmetry is measured relative to each tensor's largest entry
    with pytest.raises(ValueError, match="must be symmetric"):
        SchemeParameters(coefficient=1e-20 * np.array([[1.0, 1.0], [0.0, 1.0]]))
    SchemeParameters(coefficient=1e8 * np.array([[2.0, 1.0], [1.0 + 4e-15, 2.0]]))
    for bad in [{"rho": math.nan}, {"rho": math.inf}, {"gamma": math.nan}, {"gamma": -math.inf}]:
        with pytest.raises(ValueError, match="must be finite"):
            SchemeParameters(**bad)
    params = SchemeParameters(coefficient=[[2.0, 0.5], [0.5, 1.0]])
    assert params.coefficient is not None
    assert np.allclose(params.coefficient, [[2.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"rho": "1"}, "stabilizer weight rho must be a real number, got '1'"),
        ({"rho": 1j}, "stabilizer weight rho must be a real number, got 1j"),
        ({"rho": True}, "stabilizer weight rho must be a real number, got True"),
        ({"gamma": None}, "stabilizer exponent gamma must be a real number, got None"),
        ({"gamma": "-1"}, "stabilizer exponent gamma must be a real number, got '-1'"),
    ],
    ids=["rho-str", "rho-complex", "rho-bool", "gamma-none", "gamma-str"],
)
def test_scheme_parameters_name_a_scalar_that_is_not_real(kwargs, message):
    # these once raised a bare TypeError that named no parameter, or took True as 1
    with pytest.raises(ValueError) as err:
        SchemeParameters(**kwargs)
    assert str(err.value) == message
    SchemeParameters(rho=np.float32(0.5), gamma=np.int64(-2))


def test_default_parameters():
    params = SchemeParameters()
    assert params.rho == 1.0 and params.gamma == -1.0 and params.coefficient is None


# ----------------------------------------------------------- local forms


def local_forms(cache, e, params):
    """(stiffness, stabilizer) of element e, split out of its batched local matrix."""
    stiff, rows, _ = assembly._local_matrices(cache, dataclasses.replace(params, rho=0.0))
    K, _, _ = assembly._local_matrices(cache, params)
    return stiff[rows[e]], K[rows[e]] - stiff[rows[e]]


def test_local_stabilizer_zero_when_rho_zero():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 1, 1)
    _, S = local_forms(OperatorCache(mesh, sig), 0, SchemeParameters(rho=0.0, gamma=-1.0))
    assert np.all(S == 0.0)


def test_local_stabilizer_constant_interior_oracle():
    # v = {1, 0} on a right triangle with legs 1: the jump is 1 on each of
    # the three sides, so the unstabilized penalty integrates to the
    # perimeter 2 + sqrt(2); gamma scales it by powers of h_T = sqrt(2).
    mesh = build_uniform_triangular(1)
    sig = WeakSpaceSignature(1, 1, 1)
    cache = OperatorCache(mesh, sig)
    v = np.zeros(sig.interior_dim + 3 * sig.edge_dim)
    v[0] = 1.0 / cache.stacks["U"][cache.class_ids[0], 0, 0]  # the constant 1
    for gamma, scale in [(0.0, 1.0), (-1.0, 1.0 / math.sqrt(2)), (1.0, math.sqrt(2))]:
        _, S = local_forms(cache, 0, SchemeParameters(rho=1.0, gamma=gamma))
        assert v @ S @ v == pytest.approx((2.0 + math.sqrt(2)) * scale, rel=1e-13)
    _, S = local_forms(cache, 0, SchemeParameters(rho=2.5, gamma=0.0))
    assert v @ S @ v == pytest.approx(2.5 * (2.0 + math.sqrt(2)), rel=1e-13)


@pytest.mark.parametrize("k,j,ell", [(1, 1, 1), (2, 2, 0), (2, 3, 2)])
def test_local_stabilizer_vanishes_on_projected_traces(k, j, ell):
    # with j >= k the edge space contains every interior trace, so a weak
    # function whose edge part is the projected trace pays no penalty
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(k, j, ell)
    cache = OperatorCache(mesh, sig)

    def u(p):
        return 1.0 + p[:, 0] ** k - 2.0 * p[:, 0] * p[:, 1] ** (k - 1)

    wf = project_Qh(u, mesh, sig, cache=cache)
    params = SchemeParameters(rho=1.0, gamma=0.0)
    for e in range(mesh.n_elements):
        _, S = local_forms(cache, e, params)
        c = wf.coeffs[cache.dofmap.element_dof_table[e]]
        assert abs(c @ S @ c) <= 1e-12


@pytest.mark.parametrize("shape", ["tri", "rect"])
@pytest.mark.parametrize("k,j,ell", [(0, 0, 0), (1, 1, 1), (2, 1, 3)])
def test_local_forms_match_brute_force(shape, k, j, ell):
    mesh = build_uniform_triangular(1) if shape == "tri" else build_uniform_rectangular(0)
    sig = WeakSpaceSignature(k, j, ell)
    cache = OperatorCache(mesh, sig)
    params = SchemeParameters(rho=1.0, gamma=0.0)
    for e in range(min(mesh.n_elements, 2)):
        stiff, stab, _ = brute_local_matrices(mesh, e, sig)
        T = interior_basis_change(cache, [e], len(stiff))
        stiff, stab = T.T @ stiff @ T, T.T @ stab @ T
        fast_stiff, fast_stab = local_forms(cache, e, params)
        scale = max(np.abs(stiff).max(), 1.0)
        assert np.abs(fast_stiff - stiff).max() <= 1e-12 * scale
        assert np.abs(fast_stab - stab).max() <= 1e-12 * max(np.abs(stab).max(), 1.0)


def test_local_stiffness_anisotropic_matches_brute_force():
    mesh = build_uniform_triangular(1)
    sig = WeakSpaceSignature(1, 1, 1)
    a_mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    params = SchemeParameters(coefficient=a_mat)
    stiff, _, _ = brute_local_matrices(mesh, 0, sig, a_mat=a_mat)
    cache = OperatorCache(mesh, sig)
    T = interior_basis_change(cache, [0], len(stiff))
    stiff = T.T @ stiff @ T
    fast, _ = local_forms(cache, 0, params)
    assert np.abs(fast - stiff).max() <= 1e-12 * np.abs(stiff).max()


# -------------------------------------------------------- global assembly


@pytest.mark.parametrize(
    "shape,k,j,ell,gamma,per_element",
    [
        ("tri", 0, 0, 0, 0.0, False),
        ("tri", 1, 0, 1, -1.0, False),
        ("rect", 2, 1, 2, 1.0, False),
        ("rect", 1, 1, 1, -1.0, True),
        ("jittered", 1, 2, 2, -1.0, True),
    ],
    ids=[
        "tri-0-0-0-0.0",
        "tri-1-0-1--1.0",
        "rect-2-1-2-1.0",
        "rect-1-1-1--1.0-per_element",
        "jittered-1-2-2--1.0-per_element",
    ],
)
def test_global_system_matches_brute_force(shape, k, j, ell, gamma, per_element):
    # the jittered tri 3 has 18 shape classes, one per element
    mesh = {
        "tri": lambda: build_uniform_triangular(1),
        "rect": lambda: build_uniform_rectangular(0),
        "jittered": lambda: jittered_interior(build_uniform_triangular(3), 5),
    }[shape]()
    sig = WeakSpaceSignature(k, j, ell)
    coefficient = None
    if per_element:
        # a different anisotropic SPD tensor on every element, and g != 0:
        # the Dirichlet load S gb then runs on a per-element stack of S
        t = np.linspace(0.0, 1.0, mesh.n_elements)
        coefficient = np.stack(
            [np.stack([1.0 + t, 0.5 * t], -1), np.stack([0.5 * t, 1.0 - 0.5 * t], -1)], -2
        )
    params = SchemeParameters(rho=1.0, gamma=gamma, coefficient=coefficient)

    def f(p):
        return 1.0 + p[:, 0] - 2.0 * p[:, 1]

    def g(p):
        return 2.0 - p[:, 0] + p[:, 1]

    system = assemble(mesh, sig, params, f, g)
    A_ref, b_ref, dirichlet_ref = brute_condensed_system(mesh, sig, params, f, g)
    A = system.A.toarray()
    scale = np.abs(A_ref).max()
    assert np.abs(A - A_ref).max() <= 1e-12 * scale
    assert np.abs(system.b - b_ref).max() <= 1e-12 * max(np.abs(b_ref).max(), 1.0)
    assert np.abs(system.dirichlet_values - dirichlet_ref).max() <= 1e-12


def test_per_element_coefficient_matches_constant():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 1, 1)
    a_mat = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(p):
        return np.ones(p.shape[0])

    def g(p):
        return 1.0 + p[:, 0] ** 2 - p[:, 1]

    constant = assemble(mesh, sig, SchemeParameters(coefficient=a_mat), f, g)
    stacked = np.tile(a_mat, (mesh.n_elements, 1, 1))
    per_elem = assemble(mesh, sig, SchemeParameters(coefficient=stacked), f, g)
    diff = (constant.A - per_elem.A).toarray()
    assert np.abs(diff).max() <= 1e-13 * np.abs(constant.A.toarray()).max()
    assert np.abs(constant.b - per_elem.b).max() <= 1e-13 * np.abs(constant.b).max()


def test_inverse_cholesky_of_one_by_one_blocks_is_the_reciprocal_root():
    d = np.random.default_rng(8).uniform(0.1, 10.0, 1000)
    L_inv = assembly._inverse_cholesky(d[:, None, None], d, np.zeros((d.size, 1), int), "block")
    np.testing.assert_array_equal(L_inv[:, 0, 0], 1.0 / np.sqrt(d))


@pytest.mark.parametrize("n", [2, 5])
def test_inverse_cholesky_matches_the_inverse_of_the_cholesky_factor(n):
    B = np.random.default_rng(n).standard_normal((200, n, n))
    K = B @ np.swapaxes(B, -1, -2) + n * np.eye(n)
    scale = np.diagonal(K, axis1=-2, axis2=-1).max(axis=-1)
    L_inv = assembly._inverse_cholesky(K, scale, np.zeros((200, n), int), "block")
    expected = np.linalg.inv(np.linalg.cholesky(K))
    assert np.abs(L_inv - expected).max() <= 1e-14 * np.abs(expected).max()


def _spd_stack_with_a_failing_column(block, col, nan):
    """Ten SPD 5 x 5 matrices; matrix block has no positive pivot at column col.

    Row col of its factor B, K = B B^T, is a combination of the rows before
    it, so the Cholesky pivot there is rounding noise.  With nan set, the
    entries (col, 1) and (1, col) are NaN instead: the diagonal and so the
    block's scale stay finite, and the first pivot that reads NaN is col's.
    """
    B = np.random.default_rng(4).standard_normal((10, 5, 5))
    K = B @ np.swapaxes(B, -1, -2) + np.eye(5)
    if nan:
        K[block, col, 1] = K[block, 1, col] = np.nan
    else:
        B[block, col] = B[block, 0] - 2.0 * B[block, col - 1]
        K[block] = B[block] @ B[block].T
    return K


@pytest.mark.parametrize(
    "block,col,nan,stack",
    [(6, 3, False, True), (2, 3, True, True), (0, 4, False, False)],
    ids=["singular-block-6", "nan-in-block-2", "one-matrix"],
)
def test_inverse_cholesky_names_the_failing_block_and_column(block, col, nan, stack):
    # the pivot test, its message and .pivot, for a stack and for the one
    # matrix that assemble factors when the coefficient is constant
    K = _spd_stack_with_a_failing_column(block, col, nan)
    index = 100 + np.arange(50).reshape(10, 5)
    scale = np.diagonal(K, axis1=-2, axis2=-1).max(axis=-1)
    if not stack:
        K, scale = K[block], scale[block]
    with pytest.raises(SingularSystem, match="not positive definite") as err:
        assembly._inverse_cholesky(K, scale, index, "the test block")
    assert err.value.pivot == index[block, col]
    assert str(err.value).startswith("the test block is singular")
    assert f"coefficient {col} (global index {index[block, col]})" in str(err.value)


def _renumbered_tri(n):
    """tri n as a general Mesh with its vertices renumbered by a fixed permutation.

    The renumbering mixes the edge signs: the uniform builder gives each
    triangle one of two sign patterns, this mesh gives them all six.
    """
    built = build_uniform_triangular(n)
    perm = np.random.default_rng(7).permutation(built.n_vertices)
    new_index = np.argsort(perm)  # vertex v of the built mesh is vertex new_index[v]
    return Mesh(built.vertices[perm], new_index[built.elements])


def _coo_sum(system, params):
    """A as a plain COO sum of every element's Schur complement between free edge coefficients.

    S is computed as assemble computes it, so the sum must match A bit for
    bit; only the scatter into the pattern is redone.
    """
    cache = system.cache
    dm, n0 = cache.dofmap, cache.signature.interior_dim
    position = np.full(dm.total, -1)
    position[system.free] = np.arange(system.free.size)
    K, rows, first = assembly._local_matrices(cache, params)
    scale = np.diagonal(K, axis1=-2, axis2=-1).max(axis=-1)
    L_inv = assembly._inverse_cholesky(
        K[:, :n0, :n0], scale, dm.element_dof_table[first], "interior block"
    )
    W = L_inv @ K[:, :n0, n0:]
    S = (K[:, n0:, n0:] - np.swapaxes(W, -1, -2) @ W)[rows]
    dofs = position[dm.element_dof_table[:, n0:]]
    r, c = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    both = (r >= 0) & (c >= 0)
    return sp.coo_matrix((S[both], (r[both], c[both])), shape=system.A.shape).tocsr()


def _per_element_tensors(n_elements):
    t = np.linspace(0.0, 1.0, n_elements)
    return np.stack([np.stack([1.0 + t, 0.5 * t], -1), np.stack([0.5 * t, 1.0 - 0.5 * t], -1)], -2)


@pytest.mark.parametrize(
    "mesh,element,params",
    [
        (build_uniform_triangular(8), (0, 0, 0), SchemeParameters()),
        (build_uniform_triangular(8), (1, 0, 1), SchemeParameters()),
        (build_uniform_triangular(8), (3, 4, 4), SchemeParameters()),
        (build_uniform_rectangular(2), (2, 1, 3), SchemeParameters(rho=0.0)),
        (build_uniform_triangular(4), (1, 2, 2), SchemeParameters(coefficient=_per_element_tensors(32))),
        (_renumbered_tri(8), (1, 2, 2), SchemeParameters()),
        (build_uniform_triangular(1), (1, 1, 1), SchemeParameters()),
        (jittered_interior(build_uniform_triangular(8), 5), (3, 4, 4), SchemeParameters()),
        (
            jittered_interior(build_uniform_triangular(4), 5),
            (1, 2, 2),
            SchemeParameters(coefficient=_per_element_tensors(32)),
        ),
    ],
    ids=[
        "tri-0-0-0",
        "tri-1-0-1",
        "tri-3-4-4",
        "rect-2-1-3-rho0",
        "per-element",
        "renumbered",
        "tri1",
        "jittered-3-4-4",
        "jittered-per-element",
    ],
)
def test_block_pattern_gives_the_coo_sum_bit_for_bit(mesh, element, params):
    # the block pattern and its scatter must give exactly the matrix that
    # summing every element's triplets gives: each diagonal entry takes two
    # contributions and every other entry one, so no rounding can differ
    system = assemble(mesh, WeakSpaceSignature(*element), params, _f, _g)
    reference = _coo_sum(system, params)
    A = system.A
    assert isinstance(A, sp.csr_matrix) and A.has_canonical_format
    for got, want in ((A.indptr, reference.indptr), (A.indices, reference.indices)):
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)
    assert np.array_equal(A.data.view(np.int64), reference.data.view(np.int64))


@pytest.mark.parametrize(
    "mesh,element,params",
    [
        (build_uniform_triangular(32), (3, 4, 4), SchemeParameters()),
        (build_uniform_rectangular(4), (2, 1, 3), SchemeParameters(rho=0.0)),
        (build_uniform_triangular(16), (1, 2, 2), SchemeParameters()),
        (build_uniform_triangular(64), (0, 0, 0), SchemeParameters()),
        (build_uniform_triangular(16), (1, 1, 1), SchemeParameters()),
        (
            build_uniform_triangular(16),
            (3, 4, 4),
            SchemeParameters(coefficient=_per_element_tensors(512)),
        ),
    ],
    ids=["tri-3-4-4", "rect-2-1-3-rho0", "tri-1-2-2", "tri-0-0-0", "tri-1-1-1", "per-element"],
)
def test_condensed_matrix_is_exactly_symmetric(mesh, element, params):
    # the shape-class operators Sxx, Syy and stab_unit are symmetric bit for
    # bit, and so is every step from them to A: each local matrix, its
    # Schur complement and the sum of two elements on a diagonal block
    A = assemble(mesh, WeakSpaceSignature(*element), params, _f, _g).A
    assert (A != A.T).nnz == 0


@pytest.mark.parametrize("width", [5, 7])
def test_sorting_network_sorts_every_input_of_zeros_and_ones(width):
    # a compare-exchange network that sorts every 0/1 input sorts every input
    x = list((np.arange(2**width) >> np.arange(width)[:, None]) & 1)
    for a, b in assembly._SORTING_NETWORKS[width]:
        x[a], x[b] = np.minimum(x[a], x[b]), np.maximum(x[a], x[b])
    assert np.all(np.diff(np.stack(x), axis=0) >= 0)


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(4), build_uniform_rectangular(1), _renumbered_tri(8)],
    ids=["tri", "rect", "renumbered"],
)
def test_block_pattern_is_sorted_and_each_off_diagonal_block_has_one_element(request, mesh):
    # assemble assigns the off-diagonal blocks, right only when each is reached
    # by exactly one (element, p, q != p) over the whole mesh; it adds the
    # diagonal blocks with one += per edge sign over all sides, right only
    # when each diagonal block is reached once with each sign; and it builds
    # the CSR matrix with no sort, right only when each row's columns increase
    indptr, indices, own, other, slot = assembly._block_pattern(mesh)
    m = indptr.size - 1
    for i in range(m):
        assert np.all(np.diff(indices[indptr[i] : indptr[i + 1]]) > 0)
    block = np.full(mesh.n_edges, -1)
    block[~mesh.boundary_edge] = np.arange(m)
    block_row = np.repeat(np.arange(m), np.diff(indptr))
    n = mesh.element_edges.shape[1]
    if request.node.callspec.id == "renumbered":
        assert len({tuple(s) for s in mesh.element_edge_signs}) == 6
    reached = np.zeros(indices.size, dtype=int)
    diagonal = {1: np.zeros(indices.size, dtype=int), -1: np.zeros(indices.size, dtype=int)}
    for p in range(n):
        for q in range(n):
            d = (q - p) % n
            target = slot[own[:, p] if d == 0 else other[:, p] + d - 1]
            row = block[mesh.element_edges[:, p]]
            col = block[mesh.element_edges[:, q]]
            live = (row >= 0) & (col >= 0)
            assert np.all(target[~live] == indices.size)
            assert np.array_equal(block_row[target[live]], row[live])
            assert np.array_equal(indices[target[live]], col[live])
            if d == 0:
                for sign, count in diagonal.items():
                    one_sign = target[live & (mesh.element_edge_signs[:, p] == sign)]
                    count += np.bincount(one_sign, minlength=indices.size)
            else:
                reached += np.bincount(target[live], minlength=indices.size)
    off_diagonal = indices != block_row
    assert np.all(reached[off_diagonal] == 1)
    assert np.all(reached[~off_diagonal] == 0)
    for count in diagonal.values():
        assert np.all(count[~off_diagonal] == 1)
        assert np.all(count[off_diagonal] == 0)


@pytest.mark.parametrize("shape", ["tri", "rect"])
@pytest.mark.parametrize("k,j,ell", [(0, 0, 0), (1, 1, 1), (2, 1, 3), (3, 4, 4)])
def test_assembled_matrix_symmetric_and_positive_definite(shape, k, j, ell):
    mesh = build_uniform_triangular(4) if shape == "tri" else build_uniform_rectangular(1)
    sig = WeakSpaceSignature(k, j, ell)
    params = SchemeParameters(rho=1.0, gamma=-1.0)

    def f(p):
        return np.ones(p.shape[0])

    def g(p):
        return np.zeros(p.shape[0])

    system = assemble(mesh, sig, params, f, g)
    A = system.A.toarray()
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    assert np.linalg.eigvalsh(A).min() > 0.0


def test_stiffness_alone_is_positive_semidefinite():
    # without the stabilizer, a linear interior part with zero mean and zero
    # edge parts has a vanishing weak gradient (its divergence moments are
    # zero), so every element's K00 has a two-dimensional kernel: the full
    # matrix is only semidefinite, and assemble must refuse to condense it
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 1, 1)
    params = SchemeParameters(rho=0.0)

    def zero(p):
        return np.zeros(p.shape[0])

    A, _, _ = brute_global_system(mesh, sig, params, zero, zero)
    scale = np.abs(A).max()
    eigenvalues = np.linalg.eigvalsh(A)
    assert eigenvalues.min() >= -1e-12 * scale
    assert np.count_nonzero(eigenvalues <= 1e-12 * scale) == 2 * mesh.n_elements
    # the kernel: the x and y monomials of each element (interior first)
    kernel = (sig.interior_dim * np.arange(mesh.n_elements)[:, None] + [1, 2]).ravel()
    assert np.abs(A[:, kernel]).max() <= 1e-12 * scale

    with pytest.raises(SingularSystem) as err:
        assemble(mesh, sig, params, zero, zero)
    assert err.value.pivot in kernel


# ----------------------------------------------------------------- solvers


@pytest.mark.parametrize(
    "shape,k,j,ell,rho,per_element",
    [
        ("tri", 1, 1, 1, 1.0, False),
        ("tri", 3, 4, 4, 1.0, False),
        ("rect", 2, 1, 3, 0.0, False),
        ("tri", 2, 1, 2, 1.0, True),
        ("tri1", 3, 4, 4, 1.0, False),
    ],
    ids=[
        "tri-1-1-1-1.0",
        "tri-3-4-4-1.0",
        "rect-2-1-3-0.0",
        "tri-2-1-2-1.0-per_element",
        "tri1-3-4-4-1.0",
    ],
)
def test_solve_matches_dense_solver(shape, k, j, ell, rho, per_element):
    # the dense solve of the full (uncondensed) system checks the condensed
    # edge solve and the recovery of every interior coefficient.  The load
    # moments of the non-polynomial f come from the package's own quadrature
    # (test_global_system_matches_brute_force checks them on a polynomial
    # load), so the comparison does not see the oracle's different rule.
    # tri1 (two triangles) has no interior vertex, so the preconditioner has
    # no coarse space and CG runs on block Jacobi alone
    mesh = {
        "tri": build_uniform_triangular(3),
        "rect": build_uniform_rectangular(1),
        "tri1": build_uniform_triangular(1),
    }[shape]
    sig = WeakSpaceSignature(k, j, ell)
    coefficient = None
    if per_element:
        # a different anisotropic SPD tensor on every element
        t = np.linspace(0.0, 1.0, mesh.n_elements)
        coefficient = np.stack(
            [np.stack([1.0 + t, 0.5 * t], -1), np.stack([0.5 * t, 1.0 - 0.5 * t], -1)], -2
        )
    params = SchemeParameters(rho=rho, coefficient=coefficient)

    def f(p):
        return np.sin(p[:, 0] + 2.0 * p[:, 1])

    def g(p):
        return p[:, 0] * p[:, 1]

    system = assemble(mesh, sig, params, f, g)
    u_h = solve(system)
    A_ref, b_ref, _ = brute_global_system(mesh, sig, params, lambda p: 0.0 * f(p), g)
    T = interior_basis_change(system.cache, np.arange(mesh.n_elements), len(A_ref))
    A_ref, b_ref = T.T @ A_ref @ T, T.T @ b_ref
    dm = system.cache.dofmap
    b_ref[: dm.n_interior] += _interior_moments(system.cache, f).ravel()
    x_ref = np.linalg.solve(A_ref, b_ref)
    unknown = np.ones(dm.total, dtype=bool)
    unknown[dm.boundary_dofs] = False
    assert np.abs(u_h.coeffs[unknown] - x_ref).max() <= 1e-10 * (np.abs(x_ref).max() + 1.0)
    assert np.abs(u_h.coeffs[dm.boundary_dofs] - system.dirichlet_values).max() == 0.0


def test_solve_is_scale_invariant():
    # scaling the coefficient, the stabilizer and f by 1e-13 scales the matrix
    # and the load alike, so the pivot test must not see an absolute scale
    mesh = build_uniform_triangular(4)
    sig = WeakSpaceSignature(1, 1, 1)

    def g(p):
        return p[:, 0] * p[:, 1]

    def solved(scale):
        params = SchemeParameters(rho=scale, coefficient=scale * np.eye(2))
        return solve(
            assemble(mesh, sig, params, lambda p: scale * np.sin(p[:, 0] + 2.0 * p[:, 1]), g)
        ).coeffs

    unscaled = solved(1.0)
    assert np.abs(solved(1e-13) - unscaled).max() <= 1e-10 * np.abs(unscaled).max()


def _small_system():
    mesh = build_uniform_triangular(3)
    sig = WeakSpaceSignature(1, 1, 1)

    def f(p):
        return np.cos(3.0 * p[:, 0]) + p[:, 1]

    def g(p):
        return p[:, 0]

    return assemble(mesh, sig, SchemeParameters(), f, g)


@pytest.mark.parametrize(
    "indefinite",
    [lambda A: -A, lambda A: sp.csr_matrix(np.fliplr(np.eye(A.shape[0])))],
    ids=["negated", "antidiagonal"],
)
def test_solve_rejects_matrix_that_is_not_positive_definite(indefinite):
    # CG and its block smoother are only valid for SPD matrices: a negative
    # definite matrix, or a symmetric permutation matrix whose diagonal
    # blocks are zero or indefinite, must be rejected rather than solved
    system = _small_system()
    with pytest.raises(SingularSystem) as err:
        solve(dataclasses.replace(system, A=indefinite(system.A)))
    assert err.value.pivot is not None


def test_solve_reports_exactly_singular_system_by_global_index():
    # a zero row and column leave that edge's diagonal block singular; the
    # error names that unknown by its global coefficient index
    system = _small_system()
    A = system.A.tolil()
    A[5, :] = 0.0
    A[:, 5] = 0.0
    with pytest.raises(SingularSystem, match="singular") as err:
        solve(dataclasses.replace(system, A=A.tocsr()))
    assert err.value.pivot == system.free[5]


def test_solve_rejects_large_residual(monkeypatch):
    # a CG that returns a wrong vector without complaint (here the solution
    # of A + I) is caught by the residual check
    system = _small_system()
    wrong = spla.spsolve((system.A + sp.eye(system.A.shape[0])).tocsc(), system.b)
    monkeypatch.setattr(assembly, "_pcg", lambda A, b, precondition: (wrong, 1, (1.0, 1.0)))
    with pytest.raises(SingularSystem, match="residual"):
        solve(system)


def _diagonal_blocks(system):
    nb = system.cache.signature.edge_dim
    A = system.A.toarray()
    return [A[i : i + nb, i : i + nb] for i in range(0, A.shape[0], nb)]


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(4), build_uniform_rectangular(0)],
    ids=["tri", "rect"],
)
@pytest.mark.parametrize("element", [(0, 2, 1), (0, 3, 1), (0, 3, 2), (1, 3, 2)])
def test_unsolvable_unstabilized_family_fails_at_an_edge_block(mesh, element, monkeypatch):
    # without the stabilizer these families leave some edge's own block
    # singular (smallest over largest eigenvalue at most 6e-18, against at
    # least 3e-2 for every solvable family checked), so the block Cholesky
    # of the smoother rejects them before CG takes a single step
    def f(p):
        return np.sin(p[:, 0] + 2.0 * p[:, 1])

    def g(p):
        return p[:, 0] * p[:, 1]

    system = assemble(mesh, WeakSpaceSignature(*element), SchemeParameters(rho=0.0), f, g)
    eigenvalues = [np.linalg.eigvalsh(D) for D in _diagonal_blocks(system)]
    assert min(ev[0] / ev[-1] for ev in eigenvalues) <= 1e-15

    def no_cg(A, b, precondition):
        raise AssertionError("CG ran on a system with a singular edge block")

    monkeypatch.setattr(assembly, "_pcg", no_cg)
    with pytest.raises(SingularSystem, match="diagonal block") as err:
        solve(system)
    assert err.value.pivot in system.free


def test_solve_rejects_indefinite_matrix_with_positive_definite_blocks():
    # shifting by half the smallest block eigenvalue keeps every diagonal
    # block SPD, so the smoother sets up, but the matrix is indefinite: CG's
    # curvature, its r.z or its Lanczos estimate must reject it
    system = _small_system()
    s = 0.5 * min(np.linalg.eigvalsh(D)[0] for D in _diagonal_blocks(system))
    shifted = dataclasses.replace(system, A=(system.A - s * sp.eye(system.A.shape[0])).tocsr())
    assert min(np.linalg.eigvalsh(D)[0] for D in _diagonal_blocks(shifted)) > 0
    assert np.linalg.eigvalsh(shifted.A.toarray())[0] < 0
    with pytest.raises(SingularSystem, match=r"p\.Ap|r\.z|Ritz"):
        solve(shifted)


def _f(p):
    return np.sin(p[:, 0] + 2.0 * p[:, 1])


def _g(p):
    return p[:, 0] * p[:, 1]


@pytest.mark.parametrize(
    "shape,element,rho,labels,bound",
    [
        ("tri", (3, 4, 4), 1.0, (8, 16, 32, 64), 24),
        ("rect", (2, 1, 3), 0.0, (0, 1, 2, 3), 13),
        ("tri", (0, 0, 0), 1.0, (32, 64, 128, 256), 22),
    ],
    ids=["tri-3-4-4", "rect-2-1-3-rho0", "tri-0-0-0"],
)
def test_cg_iterations_do_not_grow_with_refinement(shape, element, rho, labels, bound):
    # the auxiliary-space V-cycle makes the iteration count independent of
    # h (19 on tri and 9-10 on rect when this was written); block Jacobi
    # alone would need about twice as many iterations per halving of h.
    # (0, 0, 0) at 1/h = 64 and finer has more than _COARSEST_LU P1 unknowns,
    # so its cycle has levels below P^T A P (19 at every 1/h)
    build = build_uniform_triangular if shape == "tri" else build_uniform_rectangular
    sig, params = WeakSpaceSignature(*element), SchemeParameters(rho=rho)
    counts = []
    for label in labels:
        system = assemble(build(label), sig, params, _f, _g)
        _, iterations, _ = assembly._pcg(system.A, system.b, assembly._preconditioner(system))
        counts.append(iterations)
    assert max(counts) <= bound, counts
    assert counts[-1] <= counts[0] + 1, counts


def _count_levels(monkeypatch):
    """Record a 1 for each V-cycle level that _coarsen builds below P^T A P."""
    seen = []
    coarsen = assembly._coarsen

    def spy(graph, interior):
        seen.append(1)
        return coarsen(graph, interior)

    monkeypatch.setattr(assembly, "_coarsen", spy)
    return seen


def _record_factored(monkeypatch):
    """Record every matrix that spla.splu factors."""
    factored = []
    splu = spla.splu

    def spy(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return factored


def test_multilevel_preconditioner_is_symmetric(monkeypatch):
    # 127^2 and 63^2 P1 unknowns (tri 128) and 95 x 63 Q1 unknowns (rect
    # level 5, no stabilizer) exceed _COARSEST_LU: the cycles have two levels
    # and one level below P^T A P, and equal pre- and post-smoothing keep B
    # symmetric for CG
    seen = _count_levels(monkeypatch)
    for mesh, element, rho, below in (
        (build_uniform_triangular(128), (0, 0, 0), 1.0, [1, 1]),
        (build_uniform_rectangular(5), (2, 1, 3), 0.0, [1]),
    ):
        system = assemble(mesh, WeakSpaceSignature(*element), SchemeParameters(rho=rho), _f, _g)
        B = assembly._preconditioner(system)
        assert seen == below
        seen.clear()
        r1, r2 = np.random.default_rng(4).standard_normal((2, system.b.size))
        scale = math.sqrt((r1 @ B(r1)) * (r2 @ B(r2)))
        assert abs(r2 @ B(r1) - r1 @ B(r2)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "build,label,element,rho,below,bound",
    [
        (build_uniform_rectangular, 4, (2, 1, 3), 0.0, [], 10),
        (build_uniform_rectangular, 5, (2, 1, 3), 0.0, [1], 15),
        (build_uniform_rectangular, 5, (2, 2, 2), 1.0, [1], 19),
        (build_uniform_triangular, 128, (1, 2, 2), 1.0, [1, 1], 17),
    ],
    ids=["rect-4-2-1-3-rho0", "rect-5-2-1-3-rho0", "rect-5-2-2-2", "tri-128-1-2-2"],
)
def test_cg_iterations_on_the_multilevel_paths(
    monkeypatch, build, label, element, rho, below, bound
):
    # the Q1 levels below P^T A P (rect 5) and the P1 levels under 3 x 3
    # edge blocks (k = 1), which test_cg_iterations_do_not_grow_with_refinement
    # never reaches; each bound is the count when this was written
    seen = _count_levels(monkeypatch)
    system = assemble(build(label), WeakSpaceSignature(*element), SchemeParameters(rho=rho), _f, _g)
    _, iterations, _ = assembly._pcg(system.A, system.b, assembly._preconditioner(system))
    assert seen == below
    assert iterations <= bound


def test_anisotropic_coefficient_converges_on_the_multilevel_path(monkeypatch):
    # a = Q diag(100, 1) Q^T, Q the rotation by 30 degrees, gives the
    # Galerkin matrices below level 0 positive off-diagonal entries, so
    # sum_j |a_ij| exceeds 2 a_ii there and l1 Jacobi damps more than omega
    # (87 iterations when this was written)
    seen, factored = _count_levels(monkeypatch), _record_factored(monkeypatch)
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    Q = np.array([[c, -s], [s, c]])
    params = SchemeParameters(coefficient=Q @ np.diag([100.0, 1.0]) @ Q.T)
    system = assemble(build_uniform_triangular(64), WeakSpaceSignature(0, 0, 0), params, _f, _g)
    _, iterations, _ = assembly._pcg(system.A, system.b, assembly._preconditioner(system))
    assert seen == [1]
    coarsest = factored[0]
    assert (coarsest - sp.diags(coarsest.diagonal())).max() > 0
    assert iterations <= 100


@pytest.mark.parametrize(
    "built,element,rho",
    [
        (build_uniform_triangular(128), (0, 0, 0), 1.0),
        (build_uniform_rectangular(5), (2, 1, 3), 0.0),
    ],
    ids=["tri-128-0-0-0", "rect-5-2-1-3-rho0"],
)
def test_general_mesh_copy_solves_like_the_built_mesh(monkeypatch, built, element, rho):
    # the levels below P^T A P come from the vertex graph alone, so the same
    # arrays as a plain Mesh build the built mesh's levels and solution
    seen, factored = _count_levels(monkeypatch), _record_factored(monkeypatch)
    sig, params = WeakSpaceSignature(*element), SchemeParameters(rho=rho)
    runs = []
    for mesh in (built, Mesh(built.vertices, built.elements)):
        seen.clear()
        factored.clear()
        coeffs = solve(assemble(mesh, sig, params, _f, _g)).coeffs
        runs.append((len(seen), [A.shape for A in factored], coeffs))
    assert runs[0][0] >= 1
    assert runs[1][:2] == runs[0][:2]
    np.testing.assert_array_equal(runs[1][2], runs[0][2])


def test_renumbered_mesh_builds_levels_below_p1(monkeypatch):
    # a random vertex numbering still coarsens, though its first independent
    # set is no halved grid: CG takes 25 iterations when this was written,
    # against 19 on the built mesh, and only a matrix of at most
    # _COARSEST_LU unknowns is factored
    seen, factored = _count_levels(monkeypatch), _record_factored(monkeypatch)
    system = assemble(_renumbered_tri(128), WeakSpaceSignature(0, 0, 0), SchemeParameters(), _f, _g)
    _, iterations, _ = assembly._pcg(system.A, system.b, assembly._preconditioner(system))
    assert len(seen) >= 1
    assert len(factored) == 1 and factored[0].shape[0] <= 2048
    assert iterations <= 25


def test_coarsening_stops_when_every_vertex_is_kept(monkeypatch):
    # three separate squares, each cut into four triangles around a centre
    # numbered first: the centres are the whole coarse set and each is the
    # one interior vertex of its piece, so coarsening drops no unknown; with
    # _COARSEST_LU = 2 the level loop must stop there and factor P^T A P
    verts, elems = [], []
    for k in range(3):
        verts += [[2 * k + 0.5, 0.5], [2 * k, 0], [2 * k + 1, 0], [2 * k + 1, 1], [2 * k, 1]]
        elems += [[5 * k, 5 * k + 1 + i, 5 * k + 1 + (i + 1) % 4] for i in range(4)]
    mesh = Mesh(np.array(verts, dtype=float), elems)
    system = assemble(mesh, WeakSpaceSignature(0, 0, 0), SchemeParameters(), _f, _g)
    expected = solve(system).coeffs
    monkeypatch.setattr(assembly, "_COARSEST_LU", 2)
    seen, factored = _count_levels(monkeypatch), _record_factored(monkeypatch)
    np.testing.assert_array_equal(solve(system).coeffs, expected)
    assert seen == [1]
    assert [A.shape for A in factored] == [(3, 3)]


@pytest.mark.parametrize(
    "built,element",
    [
        (build_uniform_triangular(8), (1, 1, 1)),
        (build_uniform_rectangular(2), (1, 1, 1)),
        (build_uniform_triangular(64), (0, 0, 0)),
    ],
    ids=["tri-8", "rect-2", "tri-64-0-0-0"],
)
def test_vertex_that_no_element_uses_carries_no_unknown(built, element):
    # counted as an interior P1 vertex, it gave P a zero column and the
    # coarsest matrix an exact singularity; the system itself is SPD.  On
    # tri 64 it is also an empty row of the vertex graph below P^T A P
    sig = WeakSpaceSignature(*element)
    plain = Mesh(built.vertices, built.elements)
    padded = _padded(built)
    expected = solve(assemble(plain, sig, SchemeParameters(), _f, _g)).coeffs
    coeffs = solve(assemble(padded, sig, SchemeParameters(), _f, _g)).coeffs
    np.testing.assert_array_equal(coeffs, expected)


@pytest.mark.parametrize(
    "shape,element,rho,label,size",
    [
        ("tri", (0, 0, 0), 1.0, 64, 31 * 31),
        ("tri", (0, 0, 0), 1.0, 128, 31 * 31),
        ("tri", (0, 0, 0), 1.0, 256, 31 * 31),
        ("tri", (0, 0, 0), 1.0, 130, 32 * 32),
        ("tri", (3, 4, 4), 1.0, 32, 31 * 31),
        ("rect", (2, 1, 3), 0.0, 4, 47 * 31),
        ("rect", (2, 1, 3), 0.0, 5, 47 * 31),
    ],
    ids=[
        "tri-0-0-0-64",
        "tri-0-0-0-128",
        "tri-0-0-0-256",
        "tri-0-0-0-130",
        "tri-3-4-4-32",
        "rect-4",
        "rect-5",
    ],
)
def test_coarsest_factored_matrix_size(monkeypatch, shape, element, rho, label, size):
    # _COARSEST_LU = 2048: the grids halve until the P1 matrix is 31^2 = 961
    # (3969 at 1/h = 64 becomes a cycle level), while the 47 x 31 = 1457 Q1
    # matrix of rect levels 4 and 5 is still factored.  1/h = 130 halves to
    # the odd 65, whose first independent set keeps 32^2 interior vertices
    factored = _record_factored(monkeypatch)
    build = build_uniform_triangular if shape == "tri" else build_uniform_rectangular
    system = assemble(build(label), WeakSpaceSignature(*element), SchemeParameters(rho=rho), _f, _g)
    assembly._preconditioner(system)
    assert [A.shape for A in factored] == [(size, size)]


def _coo_transfer(mesh, nb):
    """P built from COO triplets and converted by scipy: the reference for _edge_transfer."""
    interior = np.zeros(mesh.n_vertices, dtype=bool)
    interior[mesh.edges] = True
    interior[mesh.edges[mesh.boundary_edge]] = False
    n_coarse = int(np.count_nonzero(interior))
    vertex = np.full(mesh.n_vertices, -1)
    vertex[interior] = np.arange(n_coarse)
    ends = vertex[mesh.edges[~mesh.boundary_edge]]
    index = np.arange(ends.shape[0] * nb).reshape(-1, nb)
    weights = np.array([[0.5, 0.5], [-0.5, 0.5]])[: min(nb, 2)]
    rows, cols, vals = np.broadcast_arrays(index[:, : len(weights), None], ends[:, None, :], weights)
    keep = cols >= 0
    P = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(index.size, n_coarse))
    return P, interior


def _padded(built):
    """built with one extra vertex, numbered first, that no element uses."""
    return Mesh(np.vstack([[0.3, 0.7], built.vertices]), built.elements + 1)


@pytest.mark.parametrize(
    "mesh,element",
    [
        (build_uniform_triangular(8), (0, 0, 0)),
        (build_uniform_triangular(8), (3, 4, 4)),
        (build_uniform_rectangular(2), (2, 1, 3)),
        (_renumbered_tri(8), (1, 2, 2)),
        (_padded(build_uniform_triangular(8)), (1, 1, 1)),
    ],
    ids=["tri-0-0-0", "tri-3-4-4", "rect-2-1-3", "renumbered", "unused-vertex"],
)
def test_edge_transfer_is_the_coo_build_bit_for_bit(mesh, element):
    # written straight into CSR, P must be the matrix that scipy makes from
    # the triplets, in canonical form: each row's live ends already ascend
    nb = WeakSpaceSignature(*element).edge_dim
    P, interior = assembly._edge_transfer(mesh, nb)
    reference, expected_interior = _coo_transfer(mesh, nb)
    np.testing.assert_array_equal(interior, expected_interior)
    assert isinstance(P, sp.csr_matrix) and P.has_canonical_format
    assert P.shape == reference.shape
    for got, want in ((P.indptr, reference.indptr), (P.indices, reference.indices)):
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)
    assert np.array_equal(P.data.view(np.int64), reference.data.view(np.int64))


def _block_jacobi(A, nb):
    """Dense omega D^-1, D the nb x nb diagonal blocks of the dense matrix A."""
    S = np.zeros_like(A)
    for i in range(0, A.shape[0], nb):
        S[i : i + nb, i : i + nb] = assembly._OMEGA * np.linalg.inv(A[i : i + nb, i : i + nb])
    return S


def _auxiliary_transfer(system, nx, ny, diagonal):
    """Dense P: column v is Qb of the hat function of interior vertex v, on the free edges.

    The mesh has the vertices of an nx x ny grid on the unit square, cut by
    the lower-left to upper-right diagonals when diagonal is set; the hat
    is the P1 (diagonal) or Q1 nodal function, projected independently.
    """
    mesh, sig = system.cache.mesh, system.cache.signature
    interior = np.flatnonzero(np.all((mesh.vertices > 0) & (mesh.vertices < 1), axis=1))
    return np.column_stack(
        [
            project_Qh(_hat(mesh.vertices[v], nx, ny, diagonal), mesh, sig, cache=system.cache)
            .coeffs[system.free]
            for v in interior
        ]
    )


def _hat(center, nx, ny, diagonal):
    """The P1 (diagonal) or Q1 nodal function at center of an nx x ny grid on the unit square."""

    def phi(p):
        s, t = ((p - center) * [nx, ny]).T
        if diagonal:
            return np.maximum(0.0, 1.0 - np.maximum(np.maximum(abs(s), abs(t)), abs(s - t)))
        return np.maximum(0.0, 1.0 - abs(s)) * np.maximum(0.0, 1.0 - abs(t))

    return phi


def _interior_points(nx, ny):
    """The interior vertices of an nx x ny grid on the unit square, row by row."""
    x, y = np.meshgrid(np.arange(1, nx) / nx, np.arange(1, ny) / ny, indexing="xy")
    return np.column_stack([x.ravel(), y.ravel()])


def _nodal_transfer(nx, ny, diagonal):
    """Dense R from the nx/2 x ny/2 grid to the nx x ny grid, both on their interior vertices.

    Column V is the hat function of coarse interior vertex V evaluated at
    the fine interior vertices: the nodal P1 or Q1 interpolation.
    """
    fine = _interior_points(nx, ny)
    return np.column_stack(
        [_hat(c, nx // 2, ny // 2, diagonal)(fine) for c in _interior_points(nx // 2, ny // 2)]
    )


@pytest.mark.parametrize("element", [(0, 0, 0), (1, 2, 2), (3, 4, 4)])
def test_preconditioner_is_the_two_level_step_on_a_general_mesh(element):
    # tri 8 has 49 P1 unknowns, too few for a level below P^T A P, so the
    # cycle is one smoothing sweep, an exact solve in P1 and a second sweep:
    # B = 2 S - S A S + (I - S A) P A_c^-1 P^T (I - A S)
    built = build_uniform_triangular(8)
    mesh = Mesh(built.vertices, built.elements)
    sig = WeakSpaceSignature(*element)
    system = assemble(mesh, sig, SchemeParameters(), _f, _g)
    A = system.A.toarray()
    S = _block_jacobi(A, sig.edge_dim)
    P = _auxiliary_transfer(system, 8, 8, True)
    I = np.eye(A.shape[0])
    B = 2 * S - S @ A @ S + (I - S @ A) @ P @ np.linalg.solve(P.T @ A @ P, P.T @ (I - A @ S))
    r = np.random.default_rng(5).standard_normal(A.shape[0])
    z = assembly._preconditioner(system)(r)
    assert np.linalg.norm(z - B @ r) <= 1e-12 * np.linalg.norm(B @ r)


def _dense_v_cycle(matrices, smoothers, transfers, r):
    """Dense recursive V(1,1) cycle applied to r.

    Level l is smoothed by smoothers[l] before and after the correction from
    level l + 1 through transfers[l]; the last matrix is solved exactly.
    """
    if not transfers:
        return np.linalg.solve(matrices[0], r)
    A, S, R = matrices[0], smoothers[0], transfers[0]
    x = S @ r
    x += R @ _dense_v_cycle(matrices[1:], smoothers[1:], transfers[1:], R.T @ (r - A @ x))
    return x + S @ (r - A @ x)


@pytest.mark.parametrize(
    "build,label,element,rho,sizes",
    [
        (build_uniform_triangular, 16, (0, 0, 0), 1.0, [225, 49, 9]),
        (build_uniform_triangular, 16, (1, 2, 2), 1.0, [225, 49, 9]),
        (build_uniform_rectangular, 3, (2, 1, 3), 0.0, [345, 77, 15]),
    ],
    ids=["tri-16-0-0-0", "tri-16-1-2-2", "rect-3-2-1-3-rho0"],
)
def test_multilevel_preconditioner_is_the_dense_v_cycle(
    monkeypatch, build, label, element, rho, sizes
):
    # with _COARSEST_LU = 30 the grid halves twice below P^T A P and the last
    # P1/Q1 matrix is factored.  Level 0 is smoothed by omega D^-1 and every
    # level below it by one sweep of 2 omega / sum_j |a_ij|; each transfer
    # below P is the nodal interpolation from the grid of half the size
    monkeypatch.setattr(assembly, "_COARSEST_LU", 30)
    mesh = build(label)
    nx, ny = (np.unique(mesh.vertices[:, i]).size - 1 for i in (0, 1))
    diagonal = mesh.elements.shape[1] == 3
    sig = WeakSpaceSignature(*element)
    system = assemble(mesh, sig, SchemeParameters(rho=rho), _f, _g)
    A = system.A.toarray()
    matrices, smoothers = [A], [_block_jacobi(A, sig.edge_dim)]
    transfers = [_auxiliary_transfer(system, nx, ny, diagonal)]
    while True:
        A = transfers[-1].T @ A @ transfers[-1]
        matrices.append(A)
        if A.shape[0] <= 30:
            break
        smoothers.append(np.diag(2 * assembly._OMEGA / np.abs(A).sum(axis=1)))
        transfers.append(_nodal_transfer(nx, ny, diagonal))
        nx, ny = nx // 2, ny // 2
    assert [M.shape[0] for M in matrices[1:]] == sizes
    r = np.random.default_rng(9).standard_normal(system.b.size)
    expected = _dense_v_cycle(matrices, smoothers, transfers, r)
    z = assembly._preconditioner(system)(r)
    assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)


def test_preconditioner_without_interior_vertex_is_two_smoothing_sweeps():
    # tri 1 has one interior edge and no interior vertex: the coarse space
    # is empty and B = 2 S - S A S; with that edge's block the whole of A,
    # S = omega A^-1 and B = (2 omega - omega^2) A^-1
    system = assemble(
        build_uniform_triangular(1), WeakSpaceSignature(1, 1, 1), SchemeParameters(), _f, _g
    )
    A = system.A.toarray()
    omega = assembly._OMEGA
    r = np.random.default_rng(6).standard_normal(A.shape[0])
    z = assembly._preconditioner(system)(r)
    expected = (2 * omega - omega**2) * np.linalg.solve(A, r)
    assert np.linalg.norm(z - expected) <= 1e-13 * np.linalg.norm(expected)


def test_cg_cap_raises_not_converged(monkeypatch):
    # a valid SPD system stopped at the iteration cap is reported as not
    # converged, with the steps taken and their Lanczos estimates
    monkeypatch.setattr(assembly, "_CG_MAXITER", 2)
    with pytest.raises(NotConverged, match="did not converge") as err:
        solve(_small_system())
    assert isinstance(err.value, SingularSystem)
    assert err.value.iterations == 2
    lam_min, lam_max = err.value.ritz
    assert np.isfinite([lam_min, lam_max]).all() and 0 < lam_min <= lam_max


# solves (0,0,0) tri 64 (12 160 free unknowns) and (3,4,4) tri 32 (15 040):
# OpenBLAS threads a dot product of more than 10 000 entries
_SOLVE_HASHES = """
import hashlib
import numpy as np
from gwgfem import SchemeParameters, WeakSpaceSignature, assemble, build_uniform_triangular, solve
for element, n in (((0, 0, 0), 64), ((3, 4, 4), 32)):
    system = assemble(
        build_uniform_triangular(n), WeakSpaceSignature(*element), SchemeParameters(),
        lambda p: np.sin(p[:, 0] + 2.0 * p[:, 1]), lambda p: p[:, 0] * p[:, 1],
    )
    print(hashlib.sha256(solve(system).coeffs.tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core cannot run two BLAS threads")
def test_solution_does_not_depend_on_blas_thread_count():
    # the same systems solved in two processes, one with one BLAS thread and
    # one with two, must agree bit for bit
    hashes = []
    for threads in ("1", "2"):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        proc = subprocess.run(
            [sys.executable, "-c", _SOLVE_HASHES],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, **dict.fromkeys(names, threads)},
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]


def test_zero_data_gives_zero_solution():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(2, 1, 2)

    def zero(p):
        return np.zeros(p.shape[0])

    u_h = solve(assemble(mesh, sig, SchemeParameters(), zero, zero))
    assert np.abs(u_h.coeffs).max() <= 1e-12


def test_zero_load_still_checks_the_matrix():
    # x = 0 solves any zero load, but a matrix that is singular only
    # globally (its diagonal blocks stay positive definite) must still be
    # reported, not solved
    def zero(p):
        return np.zeros(p.shape[0])

    mesh, sig = build_uniform_triangular(3), WeakSpaceSignature(1, 1, 1)
    system = assemble(mesh, sig, SchemeParameters(), zero, zero)
    assert not np.any(system.b)
    shift = np.linalg.eigvalsh(system.A.toarray())[0]
    singular = (system.A - shift * sp.eye(system.A.shape[0])).tocsr()
    with pytest.raises(SingularSystem):
        solve(dataclasses.replace(system, A=singular))


@pytest.mark.parametrize(
    "shape,k,j,ell,gamma",
    [("tri", 1, 1, 1, -1.0), ("tri", 1, 0, 1, 0.0), ("rect", 2, 1, 2, -1.0)],
)
def test_linear_solution_reproduced_exactly(shape, k, j, ell, gamma):
    # an affine exact solution is reproduced to machine precision: its weak
    # gradient is constant, so both consistency error and stabilizer vanish
    mesh = build_uniform_triangular(3) if shape == "tri" else build_uniform_rectangular(1)
    sig = WeakSpaceSignature(k, j, ell)
    params = SchemeParameters(rho=1.0, gamma=gamma)

    def u(p):
        return 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]

    def zero(p):
        return np.zeros(p.shape[0])

    cache = OperatorCache(mesh, sig)
    u_h = solve(assemble(mesh, sig, params, zero, u, cache=cache))
    ref = project_Qh(u, mesh, sig, cache=cache)
    assert np.abs(u_h.coeffs - ref.coeffs).max() <= 1e-10


def test_mesh_without_interior_edge_is_solved():
    # on a single triangle every edge is a boundary edge: the edge system is
    # empty and solve only recovers the interior from the Dirichlet data
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    sig = WeakSpaceSignature(1, 1, 1)

    def u(p):
        return 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]

    def zero(p):
        return np.zeros(p.shape[0])

    system = assemble(mesh, sig, SchemeParameters(), zero, u)
    assert system.A.shape == (0, 0)
    u_h = solve(system)
    assert np.abs(u_h.coeffs - project_Qh(u, mesh, sig, cache=system.cache).coeffs).max() <= 1e-12


def test_unstabilized_lowest_order_family_is_singular():
    # P0/P0/[P0]^2 without the stabilizer leaves interior constants entirely
    # uncontrolled: condensing the interior block must report this
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(0, 0, 0)

    def f(p):
        return np.ones(p.shape[0])

    def g(p):
        return np.zeros(p.shape[0])

    with pytest.raises(SingularSystem) as err:
        assemble(mesh, sig, SchemeParameters(rho=0.0), f, g)
    assert err.value.pivot is not None


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(4), build_uniform_rectangular(0)],
    ids=["tri", "rect"],
)
@pytest.mark.parametrize(
    "element,rho,fails_in",
    [
        ((0, 0, 0), 0.0, "assemble"),
        ((1, 1, 1), 0.0, "assemble"),
        ((0, 2, 1), 0.0, "solve"),
        ((0, 3, 1), 0.0, "solve"),
        ((0, 3, 2), 0.0, "solve"),
        ((1, 3, 2), 0.0, "solve"),
        ((2, 1, 3), 0.0, None),
        ((1, 1, 1), 1.0, None),
    ],
)
def test_singularity_decisions_are_affine_invariant(mesh, element, rho, fails_in):
    # a shear plus an anisotropic scaling keeps triangles triangles and
    # parallelograms parallelograms; whether a family is solvable is a
    # property of the reference element, so no decision may change
    shear_scale = np.array([[1.0, 0.6], [0.0, 1.0]]) @ np.diag([2.5, 0.4])
    sig, params = WeakSpaceSignature(*element), SchemeParameters(rho=rho)

    def f(p):
        return np.sin(p[:, 0] + 2.0 * p[:, 1])

    def g(p):
        return p[:, 0] * p[:, 1]

    for m in (mesh, Mesh(mesh.vertices @ shear_scale.T, mesh.elements)):
        failed = None
        try:
            system = assemble(m, sig, params, f, g)
        except SingularSystem:
            failed = "assemble"
        else:
            try:
                solve(system)
            except SingularSystem:
                failed = "solve"
        assert failed == fails_in


def _non_finite_near_origin(radius, value):
    """A data function equal to 1, or to value within radius of the origin."""

    def data(p):
        return np.where(np.hypot(p[:, 0], p[:, 1]) < radius, value, 1.0)

    return data


# every plain-rule point on tri 4 lies within 2 of the origin; only a rule
# graded toward the corner comes within 1e-3 of it
_PLAIN_AND_GRADED = pytest.mark.parametrize(
    "radius,singularity", [(2.0, None), (1e-3, (np.array([0.0, 0.0]), 0.5))], ids=["plain", "graded"]
)


@_PLAIN_AND_GRADED
def test_nan_load_is_rejected(radius, singularity):
    # a NaN load would assemble a NaN system, and solve would then blame the matrix
    f = _non_finite_near_origin(radius, np.nan)
    with pytest.raises(ValueError, match="function data returned nan"):
        assemble(
            build_uniform_triangular(4),
            WeakSpaceSignature(1, 1, 1),
            SchemeParameters(),
            f,
            _g,
            singularity=singularity,
        )


@_PLAIN_AND_GRADED
def test_infinite_boundary_data_is_rejected(radius, singularity):
    g = _non_finite_near_origin(radius, np.inf)
    with pytest.raises(ValueError, match="function data returned inf"):
        assemble(
            build_uniform_triangular(4),
            WeakSpaceSignature(1, 1, 1),
            SchemeParameters(),
            _f,
            g,
            singularity=singularity,
        )


def _complex_near_origin(radius):
    """A data function equal to 1, returned as a complex array when a point lies within radius."""

    def data(p):
        values = np.ones(len(p))
        return values + 0j if (np.hypot(p[:, 0], p[:, 1]) < radius).any() else values

    return data


@_PLAIN_AND_GRADED
@pytest.mark.parametrize("caller", ["f", "g", "project_Qh"])
def test_complex_data_is_rejected(radius, singularity, caller):
    # a cast to float kept only the real part, with a ComplexWarning
    data = _complex_near_origin(radius)
    mesh, sig = build_uniform_triangular(4), WeakSpaceSignature(1, 1, 1)
    message = "the values of function data must be real, got complex128"
    with pytest.raises(ValueError, match=message):
        if caller == "project_Qh":
            project_Qh(data, mesh, sig, singularity=singularity)
        else:
            f, g = (data, _g) if caller == "f" else (_f, data)
            assemble(mesh, sig, SchemeParameters(), f, g, singularity=singularity)


@pytest.mark.parametrize("argument", ["coeffs", "coefficient", "vertices"])
def test_complex_input_is_rejected(argument):
    # a cast to float kept only the real part, with a ComplexWarning
    mesh = build_uniform_triangular(2)
    with pytest.raises(ValueError, match=f"^{argument} must be real, got complex128$"):
        if argument == "coeffs":
            dofmap = OperatorCache(mesh, WeakSpaceSignature(1, 1, 1)).dofmap
            WeakFunction(dofmap, np.ones(dofmap.total) + 1j)
        elif argument == "coefficient":
            SchemeParameters(coefficient=np.eye(2) + 1j * np.eye(2))
        else:
            Mesh(mesh.vertices + 1j, mesh.elements)


def test_scalar_load_is_rejected():
    # a constant written as a scalar is not one value per point
    def one(p):
        return 1.0

    with pytest.raises(ValueError, match="function one must return one value per point"):
        assemble(
            build_uniform_triangular(4), WeakSpaceSignature(1, 1, 1), SchemeParameters(), one, _g
        )


def test_cache_must_match_mesh_and_signature():
    mesh, sig = build_uniform_triangular(2), WeakSpaceSignature(1, 1, 1)

    def one(p):
        return np.ones(p.shape[0])

    for cache, message in [
        (OperatorCache(build_uniform_triangular(2), sig), "another mesh"),
        (OperatorCache(mesh, WeakSpaceSignature(1, 2, 1)), r"for WeakSpaceSignature\(k=1, j=2"),
    ]:
        with pytest.raises(ValueError, match=message):
            assemble(mesh, sig, SchemeParameters(), one, one, cache=cache)
        with pytest.raises(ValueError, match=message):
            project_Qh(one, mesh, sig, cache=cache)


@pytest.mark.parametrize("extra", [1, -1])
def test_per_element_coefficient_count_must_match_mesh(extra):
    mesh, sig = build_uniform_triangular(2), WeakSpaceSignature(1, 1, 1)
    cache = OperatorCache(mesh, sig)
    params = SchemeParameters(coefficient=np.tile(np.eye(2), (mesh.n_elements + extra, 1, 1)))

    def one(p):
        return np.ones(p.shape[0])

    message = f"holds {mesh.n_elements + extra} tensors, but the mesh has {mesh.n_elements}"
    with pytest.raises(ValueError, match=message):
        assemble(mesh, sig, params, one, one, cache=cache)
    with pytest.raises(ValueError, match=message):
        energy_norm(project_Qh(one, mesh, sig, cache=cache), params, cache)
