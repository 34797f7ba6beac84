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


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    basis = ElementBasis(3, [0.3, 0.6], 0.7)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    g = basis.grad(pts)
    eps = 1e-6
    dx = (basis.eval(pts + [eps, 0.0]) - basis.eval(pts - [eps, 0.0])) / (2 * eps)
    dy = (basis.eval(pts + [0.0, eps]) - basis.eval(pts - [0.0, eps])) / (2 * eps)
    assert np.max(np.abs(g[:, :, 0] - dx)) <= 1e-8
    assert np.max(np.abs(g[:, :, 1] - dy)) <= 1e-8


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


def test_map_to_edge():
    rule = edge_quadrature(5)
    p0, p1 = np.array([0.25, 0.0]), np.array([0.25, 2.0])
    pts, w, t = map_to_edge(rule, p0, p1)
    assert abs(w.sum() - 2.0) <= 1e-14
    np.testing.assert_allclose(pts[:, 0], 0.25)
    np.testing.assert_allclose(pts[:, 1], 1.0 + t)


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
