import io

import numpy as np
import pytest

from gwgfem.mesh import (
    Mesh,
    build_uniform_rectangular,
    build_uniform_triangular,
    dump_mesh,
    geometry,
)

# Hand-enumerated entity counts for the smallest triangular meshes
# (vertices, elements, edges, interior edges).
TRI_COUNTS = {1: (4, 2, 5, 1), 2: (9, 8, 16, 8)}


def unit_right_triangle():
    return Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


@pytest.mark.parametrize("n", [1, 2])
def test_triangular_counts(n):
    mesh = build_uniform_triangular(n)
    nv, ne, nE, n_int = TRI_COUNTS[n]
    assert mesh.n_vertices == nv
    assert mesh.n_elements == ne
    assert mesh.n_edges == nE
    assert int((~mesh.boundary_edge).sum()) == n_int
    assert mesh.inv_h == n


def test_triangular_area_conservation():
    mesh = build_uniform_triangular(16)
    assert mesh.n_elements == 512
    assert abs(mesh.element_areas().sum() - 1.0) <= 1e-12


def test_triangular_rejects_zero():
    with pytest.raises(ValueError):
        build_uniform_triangular(0)


def test_rectangular_level0():
    mesh = build_uniform_rectangular(0)
    assert mesh.n_elements == 6
    verts = mesh.vertices[mesh.elements[0]]
    w = verts[:, 0].max() - verts[:, 0].min()
    h = verts[:, 1].max() - verts[:, 1].min()
    assert abs(w - 1.0 / 3.0) <= 1e-15
    assert abs(h - 0.5) <= 1e-15
    assert mesh.inv_h == 4


def test_rectangular_level1_boundary():
    mesh = build_uniform_rectangular(1)
    assert mesh.n_elements == 24
    # 6 cells along each of y=0 and y=1 at level 1
    on_y01 = 0
    for (a, b), is_b in zip(mesh.edges, mesh.boundary_edge):
        ya, yb = mesh.vertices[a, 1], mesh.vertices[b, 1]
        if is_b and ya == yb and ya in (0.0, 1.0):
            on_y01 += 1
    assert on_y01 == 12


@pytest.mark.parametrize("level", [0, 1, 2])
def test_rectangular_area_conservation(level):
    mesh = build_uniform_rectangular(level)
    assert mesh.n_elements == 6 * 4**level
    assert abs(mesh.element_areas().sum() - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(3), build_uniform_rectangular(1)],
    ids=["tri", "rect"],
)
def test_edge_incidence(mesh):
    counts = (mesh.edge_elements != -1).sum(axis=1)
    assert np.all(counts[mesh.boundary_edge] == 1)
    assert np.all(counts[~mesh.boundary_edge] == 2)


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(4), build_uniform_rectangular(1)],
    ids=["tri", "rect"],
)
def test_euler_formula(mesh):
    assert mesh.n_vertices - mesh.n_edges + mesh.n_elements == 1


def test_element_edges_decompose_boundary():
    mesh = build_uniform_triangular(2)
    for t in range(mesh.n_elements):
        cyc = mesh.elements[t]
        for s in range(3):
            a, b = cyc[s], cyc[(s + 1) % 3]
            e = mesh.element_edges[t, s]
            assert set(mesh.edges[e]) == {a, b}
            expect = 1 if a < b else -1
            assert mesh.element_edge_signs[t, s] == expect


def test_ccw_validation():
    with pytest.raises(ValueError):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 2, 1]])


def test_non_parallelogram_quadrilateral_rejected():
    # the affine map to the reference square would give this trapezoid of
    # area 1.5 quadrature weights summing to 2.0
    with pytest.raises(ValueError, match="parallelogram"):
        Mesh([[0.0, 0.0], [2.0, 0.0], [1.5, 1.0], [0.5, 1.0]], [[0, 1, 2, 3]])


def test_sheared_parallelogram_accepted():
    mesh = Mesh([[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [0.5, 1.0]], [[0, 1, 2, 3]])
    assert mesh.element_areas()[0] == pytest.approx(2.0)


def test_geometry_unit_right_triangle():
    mesh = unit_right_triangle()
    g = geometry(mesh, 0)
    assert abs(g.area - 0.5) <= 1e-15
    assert abs(g.diameter - np.sqrt(2.0)) <= 1e-15
    np.testing.assert_allclose(g.centroid, [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    # side 1 runs from (1,0) to (0,1): the hypotenuse
    np.testing.assert_allclose(g.normals[1], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
    np.testing.assert_allclose(g.normals[0], [0.0, -1.0], atol=1e-15)


def test_geometry_rectangle():
    mesh = build_uniform_rectangular(0)
    g = geometry(mesh, 0)
    np.testing.assert_allclose(g.centroid, [1.0 / 6.0, 0.25], atol=1e-15)
    assert abs(g.diameter - np.sqrt(1.0 / 9.0 + 0.25)) <= 1e-15


def test_geometry_out_of_range():
    mesh = unit_right_triangle()
    with pytest.raises(IndexError):
        geometry(mesh, 1)


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(3), build_uniform_rectangular(1)],
    ids=["tri", "rect"],
)
def test_normals(mesh):
    for t in range(mesh.n_elements):
        g = geometry(mesh, t)
        np.testing.assert_allclose(np.linalg.norm(g.normals, axis=1), 1.0, atol=1e-14)
        resultant = (g.edge_lengths[:, None] * g.normals).sum(axis=0)
        np.testing.assert_allclose(resultant, 0.0, atol=1e-12)


def test_interior_normals_opposite():
    mesh = build_uniform_triangular(2)
    normals = {}
    for t in range(mesh.n_elements):
        g = geometry(mesh, t)
        for s, e in enumerate(mesh.element_edges[t]):
            normals.setdefault(e, []).append(g.normals[s])
    for e, ns in normals.items():
        if not mesh.boundary_edge[e]:
            assert len(ns) == 2
            np.testing.assert_allclose(ns[0], -ns[1], atol=1e-14)


def test_diameter_is_max_vertex_distance():
    mesh = build_uniform_rectangular(1)
    for t in range(mesh.n_elements):
        verts = mesh.vertices[mesh.elements[t]]
        dmax = max(
            np.linalg.norm(p - q) for p in verts for q in verts
        )
        assert abs(geometry(mesh, t).diameter - dmax) <= 1e-15


def test_refinement_nests_vertices():
    coarse = build_uniform_triangular(2)
    fine = build_uniform_triangular(4)
    fine_set = {tuple(np.round(p, 12)) for p in fine.vertices}
    for p in coarse.vertices:
        assert tuple(np.round(p, 12)) in fine_set


def test_dump_roundtrip():
    mesh = build_uniform_triangular(1)
    buf = io.StringIO()
    dump_mesh(mesh, buf)
    lines = buf.getvalue().strip().splitlines()
    v = [ln for ln in lines if ln.startswith("v ")]
    t = [ln for ln in lines if ln.startswith("t ")]
    e = [ln for ln in lines if ln.startswith("e ")]
    assert (len(v), len(t), len(e)) == (4, 2, 5)
    xy = np.array([[float(w) for w in ln.split()[1:]] for ln in v])
    np.testing.assert_allclose(xy, mesh.vertices)
    for ln in e:
        a, b, lft, rgt = (int(w) for w in ln.split()[1:])
        assert a < b
        assert (lft == -1) + (rgt == -1) <= 1
