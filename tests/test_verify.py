"""Tests for manufactured solutions, error norms, and convergence studies."""

import math
import sys

import numpy as np
import pytest

from gwgfem import (
    ErrorReport,
    LevelResult,
    Mesh,
    OperatorCache,
    SchemeParameters,
    SingularSystem,
    WeakFunction,
    WeakSpaceSignature,
    assemble,
    build_uniform_triangular,
    edge_norm_eb,
    energy_norm,
    error_function,
    get_case,
    l2_norm_e0,
    lowreg_case,
    project_Qh,
    run_convergence_study,
    solve,
    verify,
)

from test_weakspace import jittered_interior

RNG = np.random.default_rng(20240817)


def fd_laplacian(u, pts, h=1e-5):
    """Five-point central-difference Laplacian of a vectorized scalar field."""
    out = -4.0 * u(pts)
    for d in range(2):
        for s in (-1.0, 1.0):
            q = pts.copy()
            q[:, d] += s * h
            out += u(q)
    return out / h**2


# ------------------------------------------------------ manufactured cases


@pytest.mark.parametrize("name", ["cospi_cospi", "cospi_sinpi", "x2_cospi"])
def test_smooth_case_source_consistent(name):
    case = get_case(name)
    pts = RNG.uniform(0.1, 0.9, size=(40, 2))
    lap = fd_laplacian(case.u, pts)
    assert np.abs(case.f(pts) + lap).max() <= 1e-4 * (np.abs(lap).max() + 1.0)
    boundary = np.column_stack([RNG.uniform(0, 1, 25), np.zeros(25)])
    assert np.allclose(case.g(boundary), case.u(boundary))
    assert case.singularity is None


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_lowreg_case_source_consistent(alpha):
    # away from the singular corner the data must satisfy f = -lap(u)
    case = get_case("lowreg", alpha=alpha)
    pts = RNG.uniform(0.3, 0.9, size=(40, 2))
    lap = fd_laplacian(case.u, pts)
    assert np.abs(case.f(pts) + lap).max() <= 1e-4 * (np.abs(lap).max() + 1.0)


def test_lowreg_case_boundary_and_singularity():
    case = lowreg_case(0.5)
    t = np.linspace(0.0, 1.0, 33)
    for edge_pts in (
        np.column_stack([t, np.zeros_like(t)]),
        np.column_stack([t, np.ones_like(t)]),
        np.column_stack([np.zeros_like(t), t]),
        np.column_stack([np.ones_like(t), t]),
    ):
        assert np.abs(case.u(edge_pts)).max() == 0.0
        assert np.abs(case.g(edge_pts)).max() == 0.0
    point, strength = case.singularity
    assert np.allclose(point, [0.0, 0.0]) and strength == 0.5
    # u ~ r^alpha near the corner
    r = np.array([1e-3, 1e-4])
    vals = case.u(np.column_stack([r / math.sqrt(2), r / math.sqrt(2)]))
    observed = math.log(vals[0] / vals[1]) / math.log(r[0] / r[1])
    assert observed == pytest.approx(0.5, abs=1e-3)


def test_get_case_validation():
    with pytest.raises(ValueError):
        get_case("cos_cos")
    with pytest.raises(ValueError):
        get_case("lowreg")
    with pytest.raises(ValueError):
        get_case("cospi_cospi", alpha=0.5)
    with pytest.raises(ValueError):
        lowreg_case(0.0)
    with pytest.raises(ValueError):
        lowreg_case(1.5)


# ------------------------------------------------------------------ norms


def test_l2_norm_oracles():
    mesh = build_uniform_triangular(4)
    sig = WeakSpaceSignature(1, 1, 1)
    cache = OperatorCache(mesh, sig)

    def one(p):
        return np.ones(p.shape[0])

    def x(p):
        return p[:, 0]

    assert l2_norm_e0(project_Qh(one, mesh, sig, cache=cache), cache) == pytest.approx(
        1.0, rel=1e-12
    )
    assert l2_norm_e0(project_Qh(x, mesh, sig, cache=cache), cache) == pytest.approx(
        1.0 / math.sqrt(3.0), rel=1e-12
    )


def test_energy_norm_of_projected_linear():
    # grad_g of the projection of u = x is the constant (1, 0) and the
    # penalty vanishes (j >= k), so the energy norm is exactly |Omega|^(1/2)
    mesh = build_uniform_triangular(3)
    sig = WeakSpaceSignature(1, 1, 0)
    cache = OperatorCache(mesh, sig)

    def x(p):
        return p[:, 0]

    wf = project_Qh(x, mesh, sig, cache=cache)
    for gamma in (0.0, -1.0, 1.0):
        val = energy_norm(wf, SchemeParameters(rho=1.0, gamma=gamma), cache)
        assert val == pytest.approx(1.0, rel=1e-10)


def test_energy_norm_anisotropic_constant_field():
    # for grad_g v = (1, 0) the energy is sqrt(a_00 |Omega|), on a uniform
    # mesh and on one whose every element is its own shape class, with the
    # tensor given once (one matrix per class) or per element (one each)
    sig = WeakSpaceSignature(1, 1, 0)

    def x(p):
        return p[:, 0]

    a_mat = np.array([[3.0, 0.5], [0.5, 2.0]])
    for mesh in (build_uniform_triangular(2), jittered_interior(build_uniform_triangular(4), 5)):
        cache = OperatorCache(mesh, sig)
        wf = project_Qh(x, mesh, sig, cache=cache)
        val = energy_norm(wf, SchemeParameters(coefficient=a_mat), cache)
        assert val == pytest.approx(math.sqrt(3.0), rel=1e-10)
        stacked = np.tile(a_mat, (mesh.n_elements, 1, 1))
        val = energy_norm(wf, SchemeParameters(coefficient=stacked), cache)
        assert val == pytest.approx(math.sqrt(3.0), rel=1e-10)


def test_edge_norm_constant_oracle():
    # v_b = 1 on a single right triangle with legs 1:
    # edge norm = sqrt(h_T * perimeter) = sqrt(sqrt(2) (2 + sqrt(2)))
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    sig = WeakSpaceSignature(0, 0, 0)
    cache = OperatorCache(mesh, sig)
    wf = WeakFunction(cache.dofmap)
    for e in range(mesh.n_edges):
        wf.edge(e)[0] = 1.0
    expected = math.sqrt(math.sqrt(2.0) * (2.0 + math.sqrt(2.0)))
    assert edge_norm_eb(wf, cache) == pytest.approx(expected, rel=1e-13)


def test_edge_norm_counts_interior_edges_per_element():
    # two triangles sharing the diagonal: the shared edge contributes
    # h_T * length once for each of its two incident elements
    mesh = build_uniform_triangular(1)
    sig = WeakSpaceSignature(0, 0, 0)
    cache = OperatorCache(mesh, sig)
    wf = WeakFunction(cache.dofmap)
    diag = np.nonzero(~mesh.boundary_edge)[0]
    assert diag.size == 1
    wf.edge(int(diag[0]))[0] = 1.0
    expected = math.sqrt(2.0 * math.sqrt(2.0) * math.sqrt(2.0))
    assert edge_norm_eb(wf, cache) == pytest.approx(expected, rel=1e-13)


def test_error_function_vanishes_on_projection():
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(2, 1, 2)
    cache = OperatorCache(mesh, sig)
    case = get_case("cospi_cospi")
    qhu = project_Qh(case.u, mesh, sig, cache=cache)
    e = error_function(case, qhu, cache)
    assert np.abs(e.coeffs).max() <= 1e-14
    assert energy_norm(e, SchemeParameters(), cache) <= 1e-12
    assert l2_norm_e0(e, cache) <= 1e-14
    assert edge_norm_eb(e, cache) <= 1e-14


def test_norms_reject_a_weak_function_from_another_space():
    # a (2,2,2) projection measured with caches of another signature, another
    # resolution, or an equal but distinct mesh object
    mesh = build_uniform_triangular(4)
    sig = WeakSpaceSignature(2, 2, 2)
    case = get_case("cospi_cospi")
    wf = project_Qh(case.u, mesh, sig)
    norms = [
        lambda c: energy_norm(wf, SchemeParameters(), c),
        lambda c: l2_norm_e0(wf, c),
        lambda c: edge_norm_eb(wf, c),
    ]
    for cache, message in [
        (OperatorCache(mesh, WeakSpaceSignature(1, 1, 1)), r"for WeakSpaceSignature\(k=1, j=1"),
        (OperatorCache(build_uniform_triangular(2), sig), "another mesh"),
        (OperatorCache(build_uniform_triangular(4), sig), "another mesh"),
    ]:
        for norm in norms:
            with pytest.raises(ValueError, match=message):
                norm(cache)


def _python_calls(run):
    """The number of Python and C function calls that run() makes, by sys.setprofile."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_element_local_work_does_not_grow_with_the_class_count():
    # every element of a jittered mesh is its own shape class: 32 on tri 4,
    # 128 on tri 8.  Assembly, the projection and the norms run one stacked
    # pass over the classes or elements, so their Python work is the same
    # on both meshes; a loop over the classes would add calls per class
    case, sig, params = get_case("cospi_cospi"), WeakSpaceSignature(1, 2, 2), SchemeParameters()
    counts = []
    for n in (4, 8):
        mesh = jittered_interior(build_uniform_triangular(n), 5)
        cache = OperatorCache(mesh, sig)
        assert len(cache.class_ops) == mesh.n_elements == 2 * n * n
        u_h = solve(assemble(mesh, sig, params, case.f, case.g, cache=cache))  # fills the lru_caches

        def run():
            assemble(mesh, sig, params, case.f, case.g, cache=cache)
            e_h = error_function(case, u_h, cache)
            energy_norm(e_h, params, cache)
            l2_norm_e0(e_h, cache)
            edge_norm_eb(e_h, cache)

        counts.append(_python_calls(run))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "case", [get_case("cospi_cospi"), lowreg_case(0.5)], ids=["smooth", "lowreg"]
)
def test_a_study_step_builds_no_class_views(case):
    # the per-class views are built on first use, and no pipeline step uses
    # them: on a jittered mesh (one class per element) they stay unbuilt
    # through assemble, solve, the error function and the three norms, on
    # the plain path and on the graded rules of lowreg
    mesh = jittered_interior(build_uniform_triangular(4), 5)
    sig, params = WeakSpaceSignature(1, 1, 0), SchemeParameters()
    cache = OperatorCache(mesh, sig)
    system = assemble(mesh, sig, params, case.f, case.g, cache=cache, singularity=case.singularity)
    e_h = error_function(case, solve(system), cache)
    errors = (energy_norm(e_h, params, cache), l2_norm_e0(e_h, cache), edge_norm_eb(e_h, cache))
    assert all(0.0 < err < math.inf for err in errors), errors
    assert "class_ops" not in cache.__dict__
    assert cache.shape_ops(3) is cache.class_ops[cache.class_ids[3]]
    assert "class_ops" in cache.__dict__


def test_affine_solution_error_is_machine_zero():
    # solving with an affine exact solution must hit the projection exactly
    mesh = build_uniform_triangular(2)
    sig = WeakSpaceSignature(1, 1, 1)
    params = SchemeParameters()

    def u(p):
        return 0.5 - p[:, 0] + 2.0 * p[:, 1]

    def zero(p):
        return np.zeros(p.shape[0])

    case_like = get_case("cospi_cospi")
    cache = OperatorCache(mesh, sig)
    u_h = solve(assemble(mesh, sig, params, zero, u, cache=cache))
    qhu = project_Qh(u, mesh, sig, cache=cache)
    e = qhu - u_h
    assert energy_norm(e, params, cache) <= 1e-9
    assert l2_norm_e0(e, cache) <= 1e-9
    assert edge_norm_eb(e, cache) <= 1e-9
    del case_like


def test_rates_survive_an_affine_map():
    # a shear plus an anisotropic scaling maps the uniform grids to general
    # meshes of sheared triangles; the (2,2,2) rates (2, 3, 3) of energy, l2
    # and edge errors are properties of the reference element and must stay
    shear_scale = np.array([[2.0, 1.0], [0.0, 0.5]])
    shift = np.array([0.3, -0.2])
    case = get_case("cospi_cospi")
    sig, params = WeakSpaceSignature(2, 2, 2), SchemeParameters(rho=1.0)
    errors = []
    for n in (16, 32, 64):
        built = build_uniform_triangular(n)
        mesh = Mesh(built.vertices @ shear_scale.T + shift, built.elements)
        cache = OperatorCache(mesh, sig)
        e = error_function(case, solve(assemble(mesh, sig, params, case.f, case.g, cache=cache)), cache)
        errors.append((energy_norm(e, params, cache), l2_norm_e0(e, cache), edge_norm_eb(e, cache)))
    rates = np.log2(np.divide(errors[-2], errors[-1]))
    assert np.abs(rates - (2.0, 3.0, 3.0)).max() <= 0.1, rates


# ------------------------------------------------------------ rate report


def fabricated_report():
    report = ErrorReport("demo", "tri", WeakSpaceSignature(1, 1, 1), SchemeParameters())
    for i in range(3):
        h = 0.5**i
        report.rows.append(
            LevelResult(
                label=2 * 2**i,
                h_max=h,
                n_dofs=10 * 4**i,
                energy_err=h,
                l2_err=h**2,
                edge_err=3.0 * h**2,
            )
        )
    return report


def test_rate_arithmetic():
    report = fabricated_report()
    rates = report.rates()
    assert rates[0] == (None, None, None)
    for triple in rates[1:]:
        assert triple == pytest.approx((1.0, 2.0, 2.0), abs=1e-13)
    assert report.final_rates() == pytest.approx((1.0, 2.0, 2.0), abs=1e-13)


def test_rate_guard_for_vanishing_errors():
    report = fabricated_report()
    report.rows[-1] = LevelResult(
        label=8, h_max=0.25, n_dofs=160, energy_err=0.0, l2_err=0.0625, edge_err=0.1875
    )
    rates = report.rates()
    assert math.isnan(rates[-1][0])
    assert rates[-1][1] == pytest.approx(2.0, abs=1e-13)


def test_single_row_report_has_no_rates():
    report = fabricated_report()
    report.rows = report.rows[:1]
    assert report.rates() == [(None, None, None)]
    assert report.final_rates() == (None, None, None)


# ----------------------------------------------------- convergence studies


def test_study_validation():
    case = get_case("cospi_cospi")
    sig = WeakSpaceSignature(1, 1, 1)
    params = SchemeParameters()
    with pytest.raises(ValueError):
        run_convergence_study(case, "tri", [4], sig, params)
    with pytest.raises(ValueError):
        run_convergence_study(case, "tri", [4, 4], sig, params)
    with pytest.raises(ValueError):
        run_convergence_study(case, "hex", [2, 4], sig, params)
    with pytest.raises(ValueError):
        run_convergence_study(case, "rect", [8, 12], sig, params)


def test_study_checks_every_label_before_building_a_mesh(monkeypatch):
    built = []
    monkeypatch.setattr(
        verify, "build_uniform_rectangular", lambda level: built.append(level)
    )
    with pytest.raises(ValueError, match="4\\*2\\^L, got 12"):
        run_convergence_study(
            get_case("cospi_cospi"), "rect", [4, 8, 12], WeakSpaceSignature(1, 1, 1),
            SchemeParameters(),
        )
    assert built == []


@pytest.mark.parametrize(
    "family, labels, shown",
    [
        ("tri", [4.9, 8.2], "[4.9, 8.2]"),
        ("rect", (4.5, 8.9), "[4.5, 8.9]"),
        ("tri", [4, float("inf")], "[4, inf]"),
        ("rect", [4, float("nan")], "[4, nan]"),
        ("tri", ["4", "8"], "['4', '8']"),
    ],
    ids=["tri", "rect", "tri-inf", "rect-nan", "tri-str"],
)
def test_study_rejects_non_integer_labels(family, labels, shown):
    with pytest.raises(ValueError) as err:
        run_convergence_study(
            get_case("cospi_cospi"), family, labels, WeakSpaceSignature(1, 1, 1),
            SchemeParameters(),
        )
    assert str(err.value) == f"refinement levels must be integers, got {shown}"


def test_low_regularity_study_on_parallelograms():
    # the graded rules on parallelograms and their edges, through a whole study
    report = run_convergence_study(
        lowreg_case(0.5), "rect", [8, 16, 32], WeakSpaceSignature(2, 1, 3), SchemeParameters()
    )
    rates = report.final_rates()
    assert all(abs(r - t) <= 0.1 for r, t in zip(rates, (0.5, 1.5, 1.5))), rates


def test_study_collects_rows_and_rates():
    case = get_case("cospi_cospi")
    report = run_convergence_study(
        case, "tri", [2, 4, 8], WeakSpaceSignature(1, 1, 1), SchemeParameters()
    )
    assert [row.label for row in report.rows] == [2, 4, 8]
    assert report.rows[0].h_max == pytest.approx(math.sqrt(2.0) / 2.0)
    assert all(b.n_dofs > a.n_dofs for a, b in zip(report.rows, report.rows[1:]))
    for key in ("energy_err", "l2_err", "edge_err"):
        vals = [getattr(row, key) for row in report.rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    assert len(report.rates()) == 3
    # second-order family: L2 rate at least quadratic on these coarse meshes
    assert 1.5 <= report.final_rates()[1] <= 3.5


def test_study_on_the_twelve_point_triangle_rule():
    # (2,2,2) integrates with the 12-point symmetric rule; its finest errors
    # are those of the collapsed 16-point product it replaced, to quadrature
    # error (3e-5, 6e-5 and 1e-7 relative)
    report = run_convergence_study(
        get_case("cospi_cospi"), "tri", [4, 8, 16], WeakSpaceSignature(2, 2, 2),
        SchemeParameters(),
    )
    last = report.rows[-1]
    np.testing.assert_allclose(
        [last.energy_err, last.l2_err, last.edge_err],
        [6.5582408773e-04, 7.7591604641e-06, 6.1088111095e-06],
        rtol=1e-3,
    )


def test_study_rect_labels_map_to_levels():
    case = get_case("x2_cospi")
    report = run_convergence_study(
        case, "rect", [4, 8], WeakSpaceSignature(1, 1, 1), SchemeParameters()
    )
    assert report.rows[0].h_max == pytest.approx(math.hypot(1.0 / 3.0, 0.5))
    assert report.rows[1].h_max == pytest.approx(report.rows[0].h_max / 2.0)


def test_study_propagates_singular_level():
    case = get_case("cospi_cospi")
    with pytest.raises(SingularSystem) as err:
        run_convergence_study(
            case, "tri", [2, 4], WeakSpaceSignature(0, 0, 0), SchemeParameters(rho=0.0)
        )
    assert err.value.level == 2
    assert err.value.partial is not None and err.value.partial.rows == []
