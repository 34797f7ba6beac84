"""Tests for the bilinear forms, global assembly, and solvers.

The heart of this file is a deliberately slow, dense, loop-based
reconstruction of the local stiffness matrix, the local stabilizer, the
reduced global system and its dense Schur complement onto the edge
unknowns.  It shares only the basis conventions (scaled monomials, Legendre
edge polynomials) and the degree-of-freedom layout with the package; every
projection, moment solve, and scatter is redone from scratch with plain
numpy so that any plumbing mistake in the fast path shows up as a
disagreement.
"""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gwgfem import (
    Mesh,
    OperatorCache,
    SchemeParameters,
    SingularSystem,
    WeakFunction,
    WeakSpaceSignature,
    assemble,
    assembly,
    build_uniform_rectangular,
    build_uniform_triangular,
    dump_system,
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
    with pytest.raises(ValueError):
        SchemeParameters(coefficient=np.ones((3, 2)))
    for bad in [{"rho": math.nan}, {"rho": math.inf}, {"gamma": math.nan}, {"gamma": -math.inf}]:
        with pytest.raises(ValueError, match="must be finite"):
            SchemeParameters(**bad)
    params = SchemeParameters(coefficient=[[2.0, 0.5], [0.5, 1.0]])
    assert not params.is_identity
    assert np.allclose(params.coefficient, [[2.0, 0.5], [0.5, 1.0]])


def test_default_parameters():
    params = SchemeParameters()
    assert params.rho == 1.0 and params.gamma == -1.0 and params.is_identity


# ----------------------------------------------------------- local forms


def local_forms(cache, e, params):
    """(stiffness, stabilizer) of element e, split out of its batched local matrix."""
    ops = cache.shape_ops(e)
    stiff = assembly._class_matrices(ops, e, dataclasses.replace(params, rho=0.0))
    return stiff, assembly._class_matrices(ops, e, params) - stiff


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
    v[0] = 1.0
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
        c = wf.coeffs[cache.dofmap.element_dofs(e)]
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
    fast, _ = local_forms(OperatorCache(mesh, sig), 0, params)
    assert np.abs(fast - stiff).max() <= 1e-12 * np.abs(stiff).max()


# -------------------------------------------------------- global assembly


@pytest.mark.parametrize(
    "shape,k,j,ell,gamma",
    [("tri", 0, 0, 0, 0.0), ("tri", 1, 0, 1, -1.0), ("rect", 2, 1, 2, 1.0)],
)
def test_global_system_matches_brute_force(shape, k, j, ell, gamma):
    mesh = build_uniform_triangular(1) if shape == "tri" else build_uniform_rectangular(0)
    sig = WeakSpaceSignature(k, j, ell)
    params = SchemeParameters(rho=1.0, gamma=gamma)

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
        return np.zeros(p.shape[0])

    constant = assemble(mesh, sig, SchemeParameters(coefficient=a_mat), f, g)
    stacked = np.tile(a_mat, (mesh.n_elements, 1, 1))
    per_elem = assemble(mesh, sig, SchemeParameters(coefficient=stacked), f, g)
    diff = (constant.A - per_elem.A).toarray()
    assert np.abs(diff).max() <= 1e-13 * np.abs(constant.A.toarray()).max()


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
    ],
    ids=["tri-1-1-1-1.0", "tri-3-4-4-1.0", "rect-2-1-3-0.0", "tri-2-1-2-1.0-per_element"],
)
def test_solve_matches_dense_solver(shape, k, j, ell, rho, per_element):
    # the dense solve of the full (uncondensed) system checks the condensed
    # edge solve and the recovery of every interior coefficient.  The load
    # moments of the non-polynomial f come from the package's own quadrature
    # (test_global_system_matches_brute_force checks them on a polynomial
    # load), so the comparison does not see the oracle's different rule
    mesh = build_uniform_triangular(3) if shape == "tri" else build_uniform_rectangular(1)
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
    # the unpivoted factorization is only valid for SPD matrices: a negative
    # definite matrix, or a symmetric permutation matrix whose zero diagonal
    # forces row swaps, must be rejected rather than solved
    system = _small_system()
    with pytest.raises(SingularSystem) as err:
        solve(dataclasses.replace(system, A=indefinite(system.A)))
    assert err.value.pivot is not None


def test_solve_rejects_large_residual(monkeypatch):
    # a factorization that returns a wrong vector without complaint is
    # caught by the residual check
    system = _small_system()
    wrong = spla.splu((system.A + sp.eye(system.A.shape[0])).tocsc())
    monkeypatch.setattr(assembly, "_factor", lambda A: wrong)
    with pytest.raises(SingularSystem, match="residual"):
        solve(system)


def test_zero_data_gives_zero_solution():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(2, 1, 2)

    def zero(p):
        return np.zeros(p.shape[0])

    u_h = solve(assemble(mesh, sig, SchemeParameters(), zero, zero))
    assert np.abs(u_h.coeffs).max() <= 1e-12


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


# ------------------------------------------------------------ dump format


def test_dump_system_round_trips():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 1, 1)

    def f(p):
        return p[:, 0]

    def g(p):
        return p[:, 1]

    system = assemble(mesh, sig, SchemeParameters(), f, g)
    buf = io.StringIO()
    dump_system(system, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == system.A.nnz
    pattern = re.compile(r"^\d+ \d+ -?\d")
    rebuilt = np.zeros(system.A.shape)
    keys = []
    for line in lines:
        assert pattern.match(line)
        r, c, v = line.split()
        rebuilt[int(r), int(c)] = float(v)
        keys.append((int(r), int(c)))
    assert keys == sorted(keys)
    assert np.array_equal(rebuilt, system.A.toarray())
