
import re

import numpy as np
import pytest
import scipy.sparse as sp

from gwgfem import OperatorCache, WeakSpaceSignature
from gwgfem.assembly import _coarsen
from gwgfem.mesh import Mesh, build_uniform_rectangular, build_uniform_triangular
from test_weakspace import jittered_interior

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


def test_triangular_area_conservation():
    mesh = build_uniform_triangular(16)
    assert mesh.n_elements == 512
    assert abs(mesh.element_areas().sum() - 1.0) <= 1e-12


def test_triangular_rejects_zero():
    with pytest.raises(ValueError):
        build_uniform_triangular(0)


@pytest.mark.parametrize(
    "build,size,name",
    [
        (build_uniform_triangular, 2.5, "subdivision count n"),
        (build_uniform_rectangular, 1.5, "refinement level"),
        (build_uniform_triangular, True, "subdivision count n"),
        (build_uniform_rectangular, False, "refinement level"),
    ],
    ids=["tri", "rect", "tri-bool", "rect-bool"],
)
def test_builders_reject_a_size_that_is_not_an_integer(build, size, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {size}"):
        build(size)


def test_builders_accept_numpy_integers():
    assert build_uniform_triangular(np.int64(2)).n_elements == 8
    assert build_uniform_rectangular(np.int32(1)).n_elements == 24


def test_rectangular_level0():
    mesh = build_uniform_rectangular(0)
    assert mesh.n_elements == 6
    verts = mesh.vertices[mesh.elements[0]]
    w = verts[:, 0].max() - verts[:, 0].min()
    h = verts[:, 1].max() - verts[:, 1].min()
    assert abs(w - 1.0 / 3.0) <= 1e-15
    assert abs(h - 0.5) <= 1e-15


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


def reference_edge_table(elements):
    """Edge table by one dict lookup per element side, in (element, side) order.

    The loop states the numbering contract directly: an edge gets the next
    index the first time a side meets it, it is stored as its ascending
    vertex pair, and edge_elements column 0 (1) takes the element that
    traverses it in ascending (descending) order.
    """
    elements = np.asarray(elements, dtype=np.int64)
    ne, w = elements.shape
    edge_of = {}
    pairs, left, right = [], [], []
    element_edges = np.empty((ne, w), dtype=np.int64)
    signs = np.empty((ne, w), dtype=np.int64)
    for t in range(ne):
        for s in range(w):
            a, b = int(elements[t, s]), int(elements[t, (s + 1) % w])
            key = (min(a, b), max(a, b))
            if key not in edge_of:
                edge_of[key] = len(pairs)
                pairs.append(key)
                left.append(-1)
                right.append(-1)
            idx = edge_of[key]
            element_edges[t, s] = idx
            signs[t, s] = 1 if a < b else -1
            side = left if a < b else right
            assert side[idx] == -1
            side[idx] = t
    edges = np.array(pairs, dtype=np.int64)
    edge_elements = np.column_stack([left, right]).astype(np.int64)
    return {
        "edges": edges,
        "edge_elements": edge_elements,
        "element_edges": element_edges,
        "element_edge_signs": signs,
        "boundary_edge": (edge_elements == -1).any(axis=1),
    }


def assert_matches_reference(mesh):
    for name, expected in reference_edge_table(mesh.elements).items():
        got = getattr(mesh, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)


@pytest.mark.parametrize("n", range(1, 13))
def test_triangular_edge_table_matches_reference(n):
    assert_matches_reference(build_uniform_triangular(n))


@pytest.mark.parametrize("level", range(4))
def test_rectangular_edge_table_matches_reference(level):
    assert_matches_reference(build_uniform_rectangular(level))


def _renumbered(mesh, seed):
    """mesh with its vertices renumbered by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(mesh.n_vertices)
    new_index = np.argsort(perm)  # vertex v of mesh is vertex new_index[v]
    return Mesh(mesh.vertices[perm], new_index[mesh.elements])


def _with_unused_vertices(mesh):
    """mesh with one vertex that no element uses numbered first and one numbered last."""
    vertices = np.vstack([[0.3, 0.7], mesh.vertices, [2.0, -1.0]])
    return Mesh(vertices, mesh.elements + 1)


def general_meshes():
    """Small meshes of both builders, and general ones that the builders do not give."""
    return {
        "tri": build_uniform_triangular(6),
        "rect": build_uniform_rectangular(1),
        "renumbered": _renumbered(build_uniform_triangular(6), 7),
        "renumbered-rect": _renumbered(build_uniform_rectangular(1), 3),
        "jittered": jittered_interior(build_uniform_triangular(8), 2023),
        "unused-vertices": _with_unused_vertices(build_uniform_triangular(4)),
    }


def assert_geometry_is_the_gathered_formulas(mesh):
    # the mesh folds one (ne,) column per vertex and coordinate; areas,
    # diameters and centroids must equal the formulas on the (ne, w, 2)
    # array vertices[elements] exactly, sign of zero included
    v = mesh.vertices[mesh.elements]
    x, y = v[..., 0], v[..., 1]
    areas = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
    i, j = np.triu_indices(v.shape[1], 1)
    diameters = np.sqrt(((v[:, i] - v[:, j]) ** 2).sum(-1).max(1))
    centroids = v.mean(axis=1)
    for got, want in (
        (mesh.element_areas(), areas),
        (mesh.element_diameters(), diameters),
        (mesh.element_centroids(), centroids),
    ):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_element_list_matches_reference(seed):
    # permuted elements, each cycle rotated: first appearance no longer
    # follows the grid order, but it still fixes the numbering; on rect
    # meshes, renumbered vertices (every edge sign pattern), jittered
    # vertices and vertices that no element uses
    rng = np.random.default_rng(seed)
    for name, base in general_meshes().items():
        ne, w = base.elements.shape
        elements = base.elements[rng.permutation(ne)]
        shifts = rng.integers(0, w, size=ne)
        elements = np.array([np.roll(cyc, k) for cyc, k in zip(elements, shifts)])
        mesh = Mesh(base.vertices, elements)
        for m in (base, mesh):
            assert_matches_reference(m)
            assert_geometry_is_the_gathered_formulas(m)
        assert mesh.n_edges == base.n_edges, name


UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


def test_negative_vertex_index_rejected():
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        Mesh(UNIT_SQUARE, [[0, 1, -1]])


def test_vertex_index_past_end_rejected():
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 5]])


def test_non_finite_vertex_rejected():
    with pytest.raises(ValueError, match="vertex 2 is not finite"):
        Mesh([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], [[0, 1, 2]])


def test_first_non_finite_vertex_is_named():
    # the finite check runs on the whole array; the message still names
    # the first bad vertex when several are bad
    base = build_uniform_triangular(2)
    vertices = base.vertices.copy()
    vertices[7, 0] = np.inf
    vertices[3, 1] = np.nan
    with pytest.raises(ValueError, match=r"^vertex 3 is not finite$"):
        Mesh(vertices, base.elements)


@pytest.mark.parametrize("first,second", [(-1, 9), (9, -4), (12, 10)])
def test_first_element_with_an_index_out_of_range_is_named(first, second):
    # the range check runs on the whole array; the message still names the
    # first bad element and its cycle when several are bad
    base = build_uniform_triangular(2)  # 9 vertices, 8 elements
    elements = base.elements.copy()
    elements[5, 0] = second
    elements[2, 2] = first
    message = f"element 2 has vertex indices outside [0, 9): {elements[2].tolist()}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Mesh(base.vertices, elements)


def test_mesh_without_elements_rejected():
    with pytest.raises(ValueError, match="mesh has no elements"):
        Mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=int))


def test_non_integer_vertex_index_rejected():
    with pytest.raises(ValueError, match="must be integers"):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2.7]])


def test_edge_traversed_twice_in_same_direction_rejected():
    # both triangles are counterclockwise and both run 0 -> 1
    with pytest.raises(ValueError, match=r"edge \(0, 1\) traversed twice in the same direction"):
        Mesh(UNIT_SQUARE, [[0, 1, 2], [0, 1, 3]])


@pytest.mark.parametrize("elements", [[[0, 1, 1]], [[0, 0, 1, 2]]], ids=["tri", "quad"])
def test_repeated_vertex_rejected(elements):
    # zero area for the triangle; the quad fails the parallelogram check
    with pytest.raises(ValueError):
        Mesh(UNIT_SQUARE, elements)


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


def side_geometry(mesh):
    """Per-element (normals, side lengths), read from the shape-class operators."""
    cache = OperatorCache(mesh, WeakSpaceSignature(0, 0, 0))
    stacks, ids = cache.stacks, cache.class_ids
    return list(zip(stacks["normals"][ids], stacks["edge_lengths"][ids]))


def test_geometry_unit_right_triangle():
    mesh = unit_right_triangle()
    assert abs(mesh.element_areas()[0] - 0.5) <= 1e-15
    assert abs(mesh.element_diameters()[0] - np.sqrt(2.0)) <= 1e-15
    np.testing.assert_allclose(mesh.element_centroids()[0], [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    normals, _ = side_geometry(mesh)[0]
    # side 1 runs from (1,0) to (0,1): the hypotenuse
    np.testing.assert_allclose(normals[1], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
    np.testing.assert_allclose(normals[0], [0.0, -1.0], atol=1e-15)


def test_geometry_rectangle():
    mesh = build_uniform_rectangular(0)
    np.testing.assert_allclose(mesh.element_centroids()[0], [1.0 / 6.0, 0.25], atol=1e-15)
    assert abs(mesh.element_diameters()[0] - np.sqrt(1.0 / 9.0 + 0.25)) <= 1e-15


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(3), build_uniform_rectangular(1)],
    ids=["tri", "rect"],
)
def test_normals(mesh):
    for normals, lengths in side_geometry(mesh):
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-14)
        resultant = (lengths[:, None] * normals).sum(axis=0)
        np.testing.assert_allclose(resultant, 0.0, atol=1e-12)


def test_interior_normals_opposite():
    mesh = build_uniform_triangular(2)
    normals = {}
    for t, (element_normals, _) in enumerate(side_geometry(mesh)):
        for s, e in enumerate(mesh.element_edges[t]):
            normals.setdefault(e, []).append(element_normals[s])
    for e, ns in normals.items():
        if not mesh.boundary_edge[e]:
            assert len(ns) == 2
            np.testing.assert_allclose(ns[0], -ns[1], atol=1e-14)


@pytest.mark.parametrize(
    "mesh,shift",
    [
        (build_uniform_triangular(128), None),
        (build_uniform_rectangular(4), None),
        (build_uniform_triangular(64), [-2.5e3, 1e-3]),
    ],
    ids=["tri-128", "rect-4", "shifted-tri-64"],
)
def test_centroids_are_the_vertex_mean_bit_for_bit(mesh, shift):
    # the centroids sum the w vertices in order and divide by w; they must
    # equal vertices[elements].mean(axis=1) exactly, sign of zero included
    if shift is not None:
        # the same elements as a general mesh far from the origin
        mesh = Mesh(mesh.vertices + shift, mesh.elements)
    expected = mesh.vertices[mesh.elements].mean(axis=1)
    centroids = mesh.element_centroids()
    assert centroids.shape == expected.shape
    assert np.array_equal(centroids.view(np.uint64), expected.view(np.uint64))


def shifted_general_tri_64():
    base = build_uniform_triangular(64)
    return Mesh(base.vertices + [-2.5e3, 1e-3], base.elements)


def sheared_parallelograms():
    base = build_uniform_rectangular(2)
    vertices = base.vertices.copy()
    vertices[:, 0] += 0.37 * vertices[:, 1]
    return Mesh(vertices, base.elements)


@pytest.mark.parametrize(
    "mesh",
    [
        build_uniform_triangular(128),
        build_uniform_rectangular(4),
        shifted_general_tri_64(),
        sheared_parallelograms(),
    ],
    ids=["tri-128", "rect-4", "shifted-tri-64", "sheared"],
)
def test_areas_and_diameters_are_the_gathered_formulas_bit_for_bit(mesh):
    assert_geometry_is_the_gathered_formulas(mesh)


def test_diameter_is_max_vertex_distance():
    mesh = build_uniform_rectangular(1)
    for t in range(mesh.n_elements):
        verts = mesh.vertices[mesh.elements[t]]
        dmax = max(
            np.linalg.norm(p - q) for p in verts for q in verts
        )
        assert abs(mesh.element_diameters()[t] - dmax) <= 1e-15


def test_refinement_nests_vertices():
    coarse = build_uniform_triangular(2)
    fine = build_uniform_triangular(4)
    fine_set = {tuple(np.round(p, 12)) for p in fine.vertices}
    for p in coarse.vertices:
        assert tuple(np.round(p, 12)) in fine_set


def _interior_vertices(mesh):
    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[mesh.edges[mesh.boundary_edge]] = False
    return np.flatnonzero(interior)


def _evaluate_coarse_function(coarse, values, points):
    """Brute force: the coarse P1 (triangles) or Q1 (rectangles) function at points."""
    out = np.full(len(points), np.nan)
    for cycle in coarse.elements:
        v = coarse.vertices[cycle]
        if len(cycle) == 3:
            # barycentric coordinates from the affine map of the triangle
            T = np.column_stack([v[1] - v[0], v[2] - v[0]])
            st = np.linalg.solve(T, (points - v[0]).T).T
            lam = np.column_stack([1.0 - st.sum(axis=1), st])
        else:
            # bilinear on the axis-aligned rectangle [v0, v2]
            s, t = ((points - v[0]) / (v[2] - v[0])).T
            lam = np.column_stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])
        inside = (lam >= -1e-12).all(axis=1)
        out[inside] = lam[inside] @ values[cycle]
    return out


@pytest.mark.parametrize(
    "fine,coarse",
    [
        (build_uniform_triangular(8), build_uniform_triangular(4)),
        (build_uniform_triangular(16), build_uniform_triangular(8)),
        (build_uniform_rectangular(1), build_uniform_rectangular(0)),
        (build_uniform_rectangular(2), build_uniform_rectangular(1)),
    ],
    ids=["tri-8", "tri-16", "rect-1", "rect-2"],
)
def test_grid_prolongation_interpolates_the_coarse_function(fine, coarse):
    # _coarsen sees only the vertex graph, built here from the elements: on
    # a builder's row-by-row numbering its coarse vertices are those of the
    # grid of half the size, and its transfer is that grid's P1/Q1 function
    graph = np.zeros((fine.n_vertices, fine.n_vertices))
    for cycle in fine.elements:
        graph[np.ix_(cycle, cycle)] = 1.0
    fine_interior, coarse_interior = _interior_vertices(fine), _interior_vertices(coarse)
    interior = np.zeros(fine.n_vertices, dtype=bool)
    interior[fine_interior] = True
    R, coarse_graph, inner = _coarsen(sp.csr_matrix(graph), interior)
    assert coarse_graph.shape == (coarse.n_vertices, coarse.n_vertices)
    assert np.array_equal(np.flatnonzero(inner), coarse_interior)
    assert R.shape == (fine_interior.size, coarse_interior.size)
    assert R.has_canonical_format
    # a coarse vertex takes itself: column V holds a 1 at the fine vertex V is
    at = np.asarray(R.argmax(axis=0)).ravel()
    assert np.all(R.toarray()[at, np.arange(R.shape[1])] == 1.0)
    np.testing.assert_array_equal(
        fine.vertices[fine_interior[at]], coarse.vertices[coarse_interior]
    )
    values = np.zeros(coarse.n_vertices)  # zero on the boundary
    values[coarse_interior] = np.random.default_rng(3).standard_normal(coarse_interior.size)
    expected = _evaluate_coarse_function(coarse, values, fine.vertices[fine_interior])
    assert np.abs(R @ values[coarse_interior] - expected).max() <= 1e-14
