import itertools
import math

import numpy as np
import pytest

from gwgfem.mesh import build_uniform_rectangular, build_uniform_triangular
from gwgfem.polybasis import (
    EdgeBasis,
    ElementBasis,
    dim_pk,
    edge_quadrature,
    element_quadrature,
    map_to_edge,
    map_to_element,
    monomial_exponents,
)

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def tri_monomial(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def square_monomial(a, b):
    return 1.0 / ((a + 1) * (b + 1))


def test_dims_and_ordering():
    assert [dim_pk(r) for r in range(5)] == [1, 3, 6, 10, 15]
    exps = monomial_exponents(2)
    np.testing.assert_array_equal(exps, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    # degrees nest: exponents of degree r are a prefix of degree r+1
    np.testing.assert_array_equal(monomial_exponents(3)[: dim_pk(2)], exps)


def test_eval_degree0():
    basis = ElementBasis(0, [0.3, 0.7], 0.5)
    np.testing.assert_array_equal(basis.eval([[0.1, 0.2]]), [[1.0]])


def test_eval_centroid():
    basis = ElementBasis(1, [0.25, 0.5], 2.0)
    np.testing.assert_allclose(basis.eval([[0.25, 0.5]]), [[1.0, 0.0, 0.0]], atol=1e-15)


def test_eval_degree2_shifted():
    xc, yc, h = 0.4, 0.9, 0.35
    basis = ElementBasis(2, [xc, yc], h)
    vals = basis.eval([[xc + h, yc]])
    np.testing.assert_allclose(vals, [[1.0, 1.0, 0.0, 1.0, 0.0, 0.0]], atol=1e-14)


def test_grad_constant_and_linear():
    basis = ElementBasis(1, [0.5, 0.5], 0.25)
    g = basis.grad([[0.8, 0.1]])
    np.testing.assert_allclose(g[0, 0], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g[0, 1], [4.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g[0, 2], [0.0, 4.0], atol=1e-15)


@pytest.mark.parametrize("degree", range(8))
def test_eval_is_the_written_out_monomials(degree):
    # the powers come from repeated multiplication, so each value is within
    # a few ulp of x**a * y**b
    rng = np.random.default_rng(11)
    center, scale = np.array([0.3, -0.2]), 0.45
    pts = center + rng.uniform(-0.6, 0.6, size=(40, 2))
    x, y = ((pts - center) / scale).T
    expected = np.column_stack([x**a * y**b for a, b in monomial_exponents(degree)])
    got = ElementBasis(degree, center, scale).eval(pts)
    assert got.shape == (40, dim_pk(degree))
    np.testing.assert_allclose(got, expected, rtol=8 * np.finfo(float).eps, atol=0)


def test_grad_matches_finite_differences():
    # grad multiplies a into X^(a-1) Y^b, for every degree the families use
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    eps = 1e-6
    for degree in range(8):
        basis = ElementBasis(degree, [0.3, 0.6], 0.7)
        g = basis.grad(pts)
        assert g.shape == (20, dim_pk(degree), 2)
        dx = (basis.eval(pts + [eps, 0.0]) - basis.eval(pts - [eps, 0.0])) / (2 * eps)
        dy = (basis.eval(pts + [0.0, eps]) - basis.eval(pts - [0.0, eps])) / (2 * eps)
        assert np.max(np.abs(g[:, :, 0] - dx)) <= 1e-8, degree
        assert np.max(np.abs(g[:, :, 1] - dy)) <= 1e-8, degree


def test_triangle_centroid_rule():
    rule = element_quadrature("triangle", 1)
    assert rule.points.shape == (1, 2)
    np.testing.assert_allclose(rule.points[0], [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    np.testing.assert_allclose(rule.weights.sum(), 0.5, atol=1e-15)


def test_rectangle_2x2_gauss():
    rule = element_quadrature("rectangle", 3)
    assert rule.points.shape == (4, 2)
    x, y = rule.points[:, 0], rule.points[:, 1]
    val = (rule.weights * x**3 * y**3).sum()
    assert abs(val - 1.0 / 16.0) <= 1e-15


def test_triangle_degree14_dirichlet_integral():
    rule = element_quadrature("triangle", 14)
    x, y = rule.points[:, 0], rule.points[:, 1]
    val = (rule.weights * x**7 * y**7).sum()
    exact = tri_monomial(7, 7)
    assert abs(val - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize("shape,oracle", [("triangle", tri_monomial), ("rectangle", square_monomial)])
def test_element_monomial_exactness(shape, oracle):
    for d in range(0, 17):
        rule = element_quadrature(shape, d)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(d + 1):
            for b in range(d + 1 - a):
                val = (rule.weights * x**a * y**b).sum()
                exact = oracle(a, b)
                assert abs(val - exact) <= 1e-12 * abs(exact), (shape, d, a, b)


@pytest.mark.parametrize("d,n_points", [(4, 6), (5, 7), (6, 12), (8, 16)])
def test_symmetric_triangle_rules(d, n_points):
    rule = element_quadrature("triangle", d)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert rule.points.shape == (n_points, 2)
    assert rule.weights.min() > 0.0
    assert np.column_stack([1.0 - x - y, x, y]).min() > 0.0
    # each vertex permutation maps the rule onto itself, point for point
    for perm in itertools.permutations(range(3)):
        pts, w = map_to_element(rule, REF_TRIANGLE[list(perm)])
        dist = np.abs(pts[:, None, :] - rule.points[None, :, :]).max(axis=-1)
        match = dist.argmin(axis=1)
        assert sorted(match) == list(range(n_points))
        assert dist.min(axis=1).max() <= 1e-15
        assert np.abs(w - rule.weights[match]).max() <= 1e-15
    for a in range(d + 1):
        for b in range(d + 1 - a):
            assert abs((rule.weights * x**a * y**b).sum() - tri_monomial(a, b)) <= 1e-15, (a, b)


def test_element_random_polynomial_exactness():
    rng = np.random.default_rng(42)
    for trial in range(100):
        d = int(rng.integers(0, 15))
        shape = "triangle" if trial % 2 == 0 else "rectangle"
        oracle = tri_monomial if shape == "triangle" else square_monomial
        exps = monomial_exponents(d)
        coeffs = rng.standard_normal(exps.shape[0])
        rule = element_quadrature(shape, d)
        x, y = rule.points[:, 0], rule.points[:, 1]
        val = sum(
            c * (rule.weights * x**a * y**b).sum() for c, (a, b) in zip(coeffs, exps)
        )
        exact = sum(c * oracle(a, b) for c, (a, b) in zip(coeffs, exps))
        assert abs(val - exact) <= 1e-12 * max(1.0, abs(exact))


def test_edge_rules():
    r1 = edge_quadrature(1)
    assert r1.points.shape == (1,)
    assert abs(r1.points[0]) <= 1e-15
    assert abs(r1.weights[0] - 2.0) <= 1e-15

    r3 = edge_quadrature(3)
    np.testing.assert_allclose(np.sort(r3.points), [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)

    r10 = edge_quadrature(10)
    val = (r10.weights * r10.points**10).sum()
    assert abs(val - 2.0 / 11.0) <= 1e-15


def test_edge_monomial_exactness():
    for d in range(0, 20):
        rule = edge_quadrature(d)
        for a in range(d + 1):
            val = (rule.weights * rule.points**a).sum()
            exact = (1.0 + (-1.0) ** a) / (a + 1)
            assert abs(val - exact) <= 1e-13


def test_map_to_element_measures():
    tri_rule = element_quadrature("triangle", 4)
    pts, w = map_to_element(tri_rule, [[1.0, 1.0], [3.0, 1.5], [0.5, 4.0]])
    assert abs(w.sum() - 0.5 * abs(2.0 * 3.0 - 0.5 * (-0.5))) <= 1e-13
    sq_rule = element_quadrature("rectangle", 4)
    pts, w = map_to_element(sq_rule, [[0.0, 0.0], [1 / 3, 0.0], [1 / 3, 0.5], [0.0, 0.5]])
    assert abs(w.sum() - 1.0 / 6.0) <= 1e-15
    assert pts[:, 0].max() <= 1 / 3 and pts[:, 1].max() <= 0.5


def test_map_to_element_single_cell_shapes():
    for shape, cell in (("triangle", REF_TRIANGLE), ("rectangle", UNIT_SQUARE)):
        rule = element_quadrature(shape, 5)
        pts, w = map_to_element(rule, cell)
        assert pts.shape == rule.points.shape and w.shape == rule.weights.shape
        np.testing.assert_array_equal(pts, rule.points)
        np.testing.assert_array_equal(w, rule.weights)
    with pytest.raises(ValueError, match="3 or 4"):
        map_to_element(element_quadrature("triangle", 2), UNIT_SQUARE[:2])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: element_quadrature("triangle", 4.0), "exactness degree must be an integer, got 4"),
        (lambda: element_quadrature("triangle", 7.0), "exactness degree must be an integer, got 7"),
        (lambda: element_quadrature("rectangle", -1), "exactness degree must be at least 0"),
        (lambda: edge_quadrature(2.5), "exactness degree must be an integer, got 2.5"),
        (lambda: edge_quadrature(True), "exactness degree must be an integer, got True"),
        (lambda: ElementBasis(2.5, (0.0, 0.0), 1.0), "degree must be an integer, got 2.5"),
        (lambda: ElementBasis(-1, (0.0, 0.0), 1.0), "degree must be at least 0"),
        (lambda: EdgeBasis(1.5), "degree must be an integer, got 1.5"),
        (lambda: EdgeBasis(-2), "degree must be at least 0"),
    ],
    ids=[
        "tri-4.0",
        "tri-7.0",
        "rect-negative",
        "edge-2.5",
        "edge-bool",
        "element-basis-2.5",
        "element-basis-negative",
        "edge-basis-1.5",
        "edge-basis-negative",
    ],
)
def test_degrees_must_be_integers(make, message):
    # the rules of 4 and 1 are cached first: 4.0 and True must not find them
    element_quadrature("triangle", 4)
    edge_quadrature(1)
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_element_basis_scale_must_be_finite_and_positive(scale):
    # a zero scale once evaluated to inf with a divide-by-zero warning, and a
    # negative or NaN one passed silently
    with pytest.raises(ValueError) as err:
        ElementBasis(1, (0.0, 0.0), scale)
    assert str(err.value) == f"scale must be finite and > 0, got {scale!r}"


def test_degrees_accept_numpy_integers():
    assert element_quadrature("triangle", np.int64(4)).weights.size == 6
    assert edge_quadrature(np.int32(3)).weights.size == 2
    assert ElementBasis(np.int64(2), (0.0, 0.0), 1.0).dim == 6
    assert EdgeBasis(np.int16(2)).dim == 3


def _affine_parallelograms():
    """rect 2 under a fixed affine map: 96 parallelograms, every side slanted."""
    mesh = build_uniform_rectangular(2)
    A = np.array([[1.3, 0.4], [-0.7, 0.9]])
    return (mesh.vertices @ A.T + [-5.0, 3.0])[mesh.elements]


def _scattered_triangles():
    """Triangles with coordinates over 12 decades, and the cells of a uniform mesh far out."""
    rng = np.random.default_rng(4)
    scattered = rng.standard_normal((300, 3, 2)) * 10.0 ** rng.integers(-6, 6, (300, 3, 2))
    mesh = build_uniform_triangular(8)
    return np.concatenate([scattered, mesh.vertices[mesh.elements] + [1e3, -7.0]])


@pytest.mark.parametrize(
    "shape,cells",
    [("triangle", _scattered_triangles()), ("rectangle", _affine_parallelograms())],
    ids=["triangles", "parallelograms"],
)
@pytest.mark.parametrize("degree", [1, 4, 8])
def test_map_to_element_on_a_stack_is_each_cell_and_the_broadcast_formula_bit_for_bit(
    shape, cells, degree
):
    # a stack of cells maps as each cell alone and as v0 + p0 e1 + p1 e2,
    # e1 to vertex 1 and e2 to the last vertex, bit for bit (so -0.0 and
    # 0.0 differ), also with two leading axes
    rule = element_quadrature(shape, degree)
    pts, w = map_to_element(rule, cells)
    n = rule.weights.size
    assert pts.shape == (len(cells), n, 2) and w.shape == (len(cells), n)
    v0, v1, vl = (cells[:, None, i] for i in (0, 1, -1))
    e1, e2 = v1 - v0, vl - v0
    expected = v0 + rule.points[:, :1] * e1 + rule.points[:, 1:] * e2
    assert np.array_equal(pts.view(np.uint64), expected.view(np.uint64))
    expected = rule.weights * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    assert np.array_equal(w.view(np.uint64), expected.view(np.uint64))
    for cell, cell_pts, cell_w in zip(cells, pts, w):
        alone = map_to_element(rule, cell)
        assert np.array_equal(alone[0].view(np.uint64), cell_pts.view(np.uint64))
        assert np.array_equal(alone[1].view(np.uint64), cell_w.view(np.uint64))
    half = len(cells) // 2
    pts2, w2 = map_to_element(rule, cells[: 2 * half].reshape(2, half, -1, 2))
    assert np.array_equal(pts2.reshape(-1, n, 2).view(np.uint64), pts[: 2 * half].view(np.uint64))
    assert np.array_equal(w2.reshape(-1, n).view(np.uint64), w[: 2 * half].view(np.uint64))


def test_map_to_edge():
    rule = edge_quadrature(5)
    p0, p1 = np.array([0.25, 0.0]), np.array([0.25, 2.0])
    pts, w, t = map_to_edge(rule, p0, p1)
    assert abs(w.sum() - 2.0) <= 1e-14
    np.testing.assert_allclose(pts[:, 0], 0.25)
    np.testing.assert_allclose(pts[:, 1], 1.0 + t)


@pytest.mark.parametrize("degree", [1, 4, 9])
def test_map_to_edge_points_and_weights_are_the_broadcast_formulas_bit_for_bit(degree):
    # the points are built one coordinate and one point at a time; they and
    # the weights must equal mid + t[:, None] * half and weights * |half| bit
    # for bit (so -0.0 and 0.0 differ), for the batched call of the edge
    # projection (non-contiguous end points of a mesh's edges), for scattered
    # stacks such as a graded rule's children, and for a single pair
    rule = edge_quadrature(degree)
    mesh = build_uniform_triangular(16)
    ends = mesh.vertices[mesh.edges] + np.array([-1e3, 7.0])
    rng = np.random.default_rng(3)
    scattered = rng.standard_normal((500, 2, 2)) * 10.0 ** rng.integers(-6, 6, (500, 2, 2))
    for p0, p1 in [
        (ends[:, 0], ends[:, 1]),
        (scattered[:, 0], scattered[:, 1]),
        (ends[5, 0], ends[5, 1]),
    ]:
        mid = (p0[..., None, :] + p1[..., None, :]) / 2.0
        half = (p1[..., None, :] - p0[..., None, :]) / 2.0
        pts, w, t = map_to_edge(rule, p0, p1)
        assert pts.shape == p0.shape[:-1] + (rule.points.size, 2)
        expected = mid + rule.points[:, None] * half
        assert np.array_equal(pts.view(np.uint64), expected.view(np.uint64))
        expected = rule.weights * np.linalg.norm(half, axis=-1)
        assert np.array_equal(w.view(np.uint64), expected.view(np.uint64))
        assert t is rule.points


def test_edge_mass_diagonal():
    j = 6
    basis = EdgeBasis(j)
    length = 0.3
    rule = edge_quadrature(2 * j)
    L = basis.eval(rule.points)
    M = L.T @ (rule.weights[:, None] * L) * (length / 2.0)
    diag = basis.mass_diagonal(length)
    np.testing.assert_allclose(np.diag(M), diag, rtol=1e-13)
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) <= 1e-13 * diag.min()


def element_mass(mesh, t, degree):
    basis = ElementBasis(degree, mesh.element_centroids()[t], mesh.element_diameters()[t])
    shape = "triangle" if mesh.elements.shape[1] == 3 else "rectangle"
    rule = element_quadrature(shape, 2 * degree)
    pts, w = map_to_element(rule, mesh.vertices[mesh.elements[t]])
    V = basis.eval(pts)
    return V.T @ (w[:, None] * V)


@pytest.mark.parametrize(
    "mesh",
    [build_uniform_triangular(4), build_uniform_rectangular(1)],
    ids=["tri", "rect"],
)
def test_mass_matrix_conditioning(mesh):
    # centered h-scaled monomials stay factorizable through degree 5, which
    # covers the element families exercised here; conditioning is also
    # mesh-size independent thanks to the scaling
    for t in [0, mesh.n_elements // 2]:
        for degree in [2, 3, 4, 5]:
            M = element_mass(mesh, t, degree)
            np.testing.assert_allclose(M, M.T, atol=1e-15 * abs(M).max())
            eig = np.linalg.eigvalsh(M)
            assert eig.min() > 0.0
            assert eig.max() / eig.min() <= 5e10


def test_mass_matrix_scaling_invariance():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    c = 3.7
    base = build_uniform_triangular(1)

    def mass(vertices):
        from gwgfem.mesh import Mesh

        m = Mesh(vertices, [[0, 1, 2]])
        return element_mass(m, 0, 4)

    M1 = mass(verts)
    M2 = mass(c * verts)
    np.testing.assert_allclose(M2, c**2 * M1, rtol=1e-12, atol=1e-14 * abs(M1).max())
