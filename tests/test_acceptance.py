"""End-to-end acceptance checks with pinned tolerances.

Each test covers one headline behavior of the scheme — convergence rates of
representative element families, reproduction of reference error magnitudes,
stabilizer-free solvability, and the exact algebraic properties of the weak
gradient — and writes a single PASS/FAIL line (with the measured numbers) to
the real stdout so the outcome is visible even under output capture.
"""

import sys

import numpy as np

import conftest

from gwgfem import (
    OperatorCache,
    SchemeParameters,
    SingularSystem,
    WeakSpaceSignature,
    assemble,
    build_uniform_rectangular,
    build_uniform_triangular,
    edge_norm_eb,
    energy_norm,
    error_function,
    get_case,
    l2_norm_e0,
    project_Qh,
    run_convergence_study,
    solve,
)
from gwgfem.polybasis import dim_pk, element_quadrature, map_to_element

from test_assembly import brute_condensed_system, brute_local_matrices, interior_basis_change

_REPORTS = {}


def study(case_name, mesh, levels, element, rho, gamma, alpha=None):
    key = (case_name, mesh, tuple(levels), element, rho, gamma, alpha)
    if key not in _REPORTS:
        _REPORTS[key] = run_convergence_study(
            get_case(case_name, alpha=alpha),
            mesh,
            levels,
            WeakSpaceSignature(*element),
            SchemeParameters(rho=rho, gamma=gamma),
        )
    return _REPORTS[key]


def report(label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, f"{label}: {detail}"


def fmt_rates(rates):
    return "(" + ", ".join(f"{r:.2f}" for r in rates) + ")"


# --------------------------------------------------------- smooth families


def test_high_order_triangular_family():
    # P3/P4/[P4]^2, rho=1, gamma=-1, u = cos(pi x) cos(pi y).  Final-pair
    # rates must sit within 0.1 of (3.00, 4.01, 4.00) and every error within
    # a factor of 2 of the frozen reference values (the reference initial
    # triangulation geometry is not fully determined, hence the slack).
    reference = {
        8: (1.56e-04, 1.33e-06, 4.13e-06),
        16: (1.95e-05, 8.03e-08, 2.60e-07),
        32: (2.45e-06, 4.96e-09, 1.63e-08),
        64: (3.06e-07, 3.08e-10, 1.02e-09),
    }
    rep = study("cospi_cospi", "tri", [8, 16, 32, 64], (3, 4, 4), 1.0, -1.0)
    rates = rep.final_rates()
    rates_ok = all(abs(r - t) <= 0.1 for r, t in zip(rates, (3.00, 4.01, 4.00)))
    worst = 1.0
    for row in rep.rows:
        for err, ref in zip((row.energy_err, row.l2_err, row.edge_err), reference[row.label]):
            ratio = err / ref
            worst = max(worst, ratio, 1.0 / ratio)
    report(
        "high-order triangular family (3,4,4)",
        rates_ok and worst <= 2.0,
        f"final rates {fmt_rates(rates)} vs (3.00, 4.01, 4.00) +-0.1; "
        f"errors within x{worst:.2f} of reference (limit x2)",
    )


def test_lowest_order_quadratic_l2_recovery():
    # P0/P1/[P1]^2 with gamma=1: the generalized gradient restores O(h^2)
    # convergence in L2 where the uncorrected lowest-order scheme stalls
    rep = study("cospi_cospi", "tri", [8, 16, 32, 64], (0, 1, 1), 1.0, 1.0)
    rates = rep.final_rates()
    ok = all(abs(r - 2.0) <= 0.1 for r in rates)
    report(
        "lowest-order family (0,1,1), gamma=1",
        ok,
        f"final rates {fmt_rates(rates)} vs (2.00, 2.00, 2.00) +-0.1",
    )


def test_lowest_order_stagnation():
    # P0/P0/[P0]^2 with gamma=1 does not converge in energy or L2 (rates
    # pinned near zero) while the edge error still decays at second order
    rep = study("cospi_cospi", "tri", [8, 16, 32, 64], (0, 0, 0), 1.0, 1.0)
    rates = rep.final_rates()
    ok = abs(rates[0]) <= 0.1 and abs(rates[1]) <= 0.1 and abs(rates[2] - 2.0) <= 0.1
    report(
        "lowest-order stagnation (0,0,0), gamma=1",
        ok,
        f"final rates {fmt_rates(rates)} vs (0.00, 0.00, 2.00) +-0.1",
    )


def test_lowest_order_gamma_zero():
    # P0/P0/[P0]^2 with gamma=0 converges at (0.5, 1.0, 1.0)
    rep = study("cospi_cospi", "tri", [8, 16, 32, 64], (0, 0, 0), 1.0, 0.0)
    rates = rep.final_rates()
    ok = all(abs(r - t) <= 0.1 for r, t in zip(rates, (0.5, 1.0, 1.0)))
    report(
        "lowest-order family (0,0,0), gamma=0",
        ok,
        f"final rates {fmt_rates(rates)} vs (0.50, 1.00, 1.00) +-0.1",
    )


def test_high_order_rectangular_family():
    # P3/P2/[P2]^2 on the quartered 3x2 rectangular partitions.  The last
    # label is chosen so the finest cell diameter (~1/53) reaches the same
    # resolution as the triangular 1/h=64 meshes (diameter sqrt(2)/64);
    # one level coarser the edge rate is still climbing through ~3.85.
    rep = study("cospi_cospi", "rect", [8, 16, 32, 64, 128], (3, 2, 2), 1.0, -1.0)
    rates = rep.final_rates()
    ok = all(abs(r - t) <= 0.1 for r, t in zip(rates, (3.0, 4.0, 4.0)))
    report(
        "high-order rectangular family (3,2,2)",
        ok,
        f"final rates {fmt_rates(rates)} vs (3.00, 4.00, 4.00) +-0.1 "
        f"at cell diameter {rep.rows[-1].h_max:.4f}",
    )


def test_low_regularity_half():
    # u ~ r^(1/2) at the origin: rates limited by regularity to
    # (alpha, 1+alpha, 1+alpha) = (0.5, 1.5, 1.5)
    rep = study("lowreg", "tri", [8, 16, 32, 64], (1, 1, 0), 1.0, -1.0, alpha=0.5)
    rates = rep.final_rates()
    ok = all(abs(r - t) <= 0.15 for r, t in zip(rates, (0.5, 1.5, 1.5)))
    report(
        "low-regularity alpha=1/2 family (1,1,0)",
        ok,
        f"final rates {fmt_rates(rates)} vs (0.50, 1.50, 1.50) +-0.15",
    )


def test_stabilizer_free_family():
    # rho=0 with P2/P1/[P3]^2: the system is solved without any
    # penalty term and superconverges at (3, 4, 4)
    try:
        rep = study("x2_cospi", "rect", [8, 16, 32, 64], (2, 1, 3), 0.0, -1.0)
    except SingularSystem as err:
        report("stabilizer-free family (2,1,3), rho=0", False, f"singular: {err}")
        return
    rates = rep.final_rates()
    ok = all(abs(r - t) <= 0.15 for r, t in zip(rates, (3.0, 4.0, 4.0)))
    report(
        "stabilizer-free family (2,1,3), rho=0",
        ok,
        f"solved at every level; final rates {fmt_rates(rates)} "
        f"vs (3.00, 4.00, 4.00) +-0.15",
    )


# ------------------------------------------------------- exact properties


def _random_polynomial(rng, degree):
    exps = [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]
    coeffs = rng.uniform(-1.0, 1.0, len(exps))

    def fn(p):
        return sum(c * p[:, 0] ** a * p[:, 1] ** b for c, (a, b) in zip(coeffs, exps))

    def grad(p):
        gx = np.zeros(p.shape[0])
        gy = np.zeros(p.shape[0])
        for c, (a, b) in zip(coeffs, exps):
            if a:
                gx += c * a * p[:, 0] ** (a - 1) * p[:, 1] ** b
            if b:
                gy += c * b * p[:, 0] ** a * p[:, 1] ** (b - 1)
        return np.column_stack([gx, gy])

    return fn, grad


def test_weak_gradient_commutes_with_projection():
    # for smooth phi and any psi in [P_s]^2:
    #   (grad_g Qh phi, psi)_T = (grad phi, psi)_T + (phi - Q0 phi, div psi)_T
    # checked on 200 random (element, phi, psi) triples across four families
    rng = np.random.default_rng(424242)
    worst = 0.0
    meshes = [build_uniform_triangular(2), build_uniform_rectangular(0)]
    for element in [(0, 0, 0), (1, 0, 1), (2, 1, 3), (3, 4, 4)]:
        sig = WeakSpaceSignature(*element)
        dim_s, dim_m, n0 = dim_pk(sig.s), dim_pk(sig.m), sig.interior_dim
        for mesh in meshes:
            cache = OperatorCache(mesh, sig)
            for _ in range(25):
                phi, grad_phi = _random_polynomial(rng, sig.k + 2)
                wf = project_Qh(phi, mesh, sig, cache=cache)
                e = int(rng.integers(mesh.n_elements))
                ops = cache.shape_ops(e)
                c = wf.coeffs[cache.dofmap.element_dof_table[e]]
                gx, gy = ops.Gx @ c, ops.Gy @ c
                rule = element_quadrature(cache.shape, 2 * (sig.k + 2 + sig.m) + 2)
                pts, w = map_to_element(rule, mesh.vertices[mesh.elements[e]])
                V = ops.basis.eval(pts - cache.centroids[e])
                Vg = ops.basis.grad(pts - cache.centroids[e])
                phi_T = V @ ops.U  # the class's orthonormal basis, in which c is written
                cs = rng.uniform(-1.0, 1.0, (2, dim_s))
                psi = np.stack([V[:, :dim_s] @ cs[0], V[:, :dim_s] @ cs[1]], axis=1)
                div_psi = Vg[:, :dim_s, 0] @ cs[0] + Vg[:, :dim_s, 1] @ cs[1]
                wg = np.stack([phi_T[:, :dim_m] @ gx, phi_T[:, :dim_m] @ gy], axis=1)
                lhs = float((w[:, None] * wg * psi).sum())
                t1 = float((w[:, None] * grad_phi(pts) * psi).sum())
                t2 = float((w * (phi(pts) - phi_T[:, :n0] @ c[:n0]) * div_psi).sum())
                worst = max(worst, abs(lhs - t1 - t2) / (abs(t1) + abs(t2) + 1e-30))
    report(
        "weak gradient commutes with projection",
        worst <= 1e-10,
        f"worst relative residual {worst:.2e} over 200 triples (limit 1e-10)",
    )


def test_assembled_matrix_symmetric_positive_definite():
    worst_sym = 0.0
    min_eig = np.inf

    def f(p):
        return np.ones(p.shape[0])

    def g(p):
        return np.zeros(p.shape[0])

    for mesh in [build_uniform_triangular(4), build_uniform_rectangular(1)]:
        for element in [(1, 1, 1), (3, 4, 4)]:
            sig = WeakSpaceSignature(*element)
            system = assemble(mesh, sig, SchemeParameters(rho=1.0, gamma=-1.0), f, g)
            A = system.A.toarray()
            worst_sym = max(worst_sym, np.abs(A - A.T).max() / np.abs(A).max())
            min_eig = min(min_eig, float(np.linalg.eigvalsh(A).min()))
    report(
        "assembled matrix symmetric and positive definite",
        worst_sym <= 1e-12 and min_eig > 0.0,
        f"relative asymmetry {worst_sym:.2e} (limit 1e-12); "
        f"smallest eigenvalue {min_eig:.2e} > 0",
    )


def test_affine_solutions_reproduced_exactly():
    def u(p):
        return 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]

    def zero(p):
        return np.zeros(p.shape[0])

    worst = 0.0
    for mesh in [build_uniform_triangular(4), build_uniform_rectangular(1)]:
        sig = WeakSpaceSignature(1, 1, 1)
        params = SchemeParameters(rho=1.0, gamma=-1.0)
        cache = OperatorCache(mesh, sig)
        u_h = solve(assemble(mesh, sig, params, zero, u, cache=cache))
        e = project_Qh(u, mesh, sig, cache=cache) - u_h
        worst = max(
            worst,
            energy_norm(e, params, cache),
            l2_norm_e0(e, cache),
            edge_norm_eb(e, cache),
        )
    report(
        "affine exact solution reproduced",
        worst <= 1e-9,
        f"largest error norm {worst:.2e} (limit 1e-9)",
    )


def test_matrices_match_dense_reconstruction():
    # local stiffness, local stabilizer, and the reduced global matrix all
    # agree with an independent dense loop-based reconstruction
    mesh = build_uniform_triangular(1)
    sig = WeakSpaceSignature(1, 1, 1)
    params = SchemeParameters(rho=1.0, gamma=0.0)
    cache = OperatorCache(mesh, sig)
    worst = 0.0
    from test_assembly import local_forms

    for e in range(mesh.n_elements):
        stiff, stab, _ = brute_local_matrices(mesh, e, sig)
        T = interior_basis_change(cache, [e], len(stiff))
        stiff, stab = T.T @ stiff @ T, T.T @ stab @ T
        fast_stiff, fast_stab = local_forms(cache, e, params)
        scale = np.abs(stiff).max()
        worst = max(
            worst,
            np.abs(fast_stiff - stiff).max() / scale,
            np.abs(fast_stab - stab).max() / np.abs(stab).max(),
        )

    def f(p):
        return 1.0 + p[:, 0] - 2.0 * p[:, 1]

    def g(p):
        return 2.0 - p[:, 0] + p[:, 1]

    system = assemble(mesh, sig, params, f, g, cache=cache)
    A_ref, _, _ = brute_condensed_system(mesh, sig, params, f, g)
    worst = max(worst, np.abs(system.A.toarray() - A_ref).max() / np.abs(A_ref).max())
    report(
        "matrices match dense reconstruction",
        worst <= 1e-12,
        f"worst relative entry difference {worst:.2e} (limit 1e-12)",
    )


def test_gradient_correction_vanishes_on_matching_traces():
    # when the edge degree dominates (j >= k) and the edge part of a weak
    # function is the projected trace of its interior part, the correction
    # term of the weak gradient is identically zero
    rng = np.random.default_rng(7)
    worst = 0.0
    meshes = [build_uniform_triangular(2), build_uniform_rectangular(0)]
    for element in [(0, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 1), (2, 2, 1)]:
        sig = WeakSpaceSignature(*element)
        exps = [(d - i, i) for d in range(sig.k + 1) for i in range(d + 1)]
        for mesh in meshes:
            cache = OperatorCache(mesh, sig)
            for _ in range(10):
                coeffs = rng.uniform(-1.0, 1.0, len(exps))

                def u(p):
                    return sum(
                        c * p[:, 0] ** a * p[:, 1] ** b
                        for c, (a, b) in zip(coeffs, exps)
                    )

                wf = project_Qh(u, mesh, sig, cache=cache)
                for e in range(mesh.n_elements):
                    ops = cache.shape_ops(e)
                    c = wf.coeffs[cache.dofmap.element_dof_table[e]]
                    worst = max(worst, float(np.abs(ops.delta @ c).max()))
    report(
        "gradient correction vanishes on matching traces",
        worst <= 1e-12,
        f"largest correction coefficient {worst:.2e} (limit 1e-12)",
    )
