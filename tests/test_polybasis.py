import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gwgfem.mesh import build_uniform_rectangular, build_uniform_triangular
from gwgfem.polybasis import (
    EdgeBasis,
    ElementBasis,
    QuadratureRule,
    _gauss_jacobi_1_0,
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


# Gauss rules in 40 significant digits, one block of "node  weight" lines per
# point count n = 1, 2, ...  Computed offline with mpmath at 60 digits: the
# nodes are Newton-polished roots of P_n (Legendre) and of the Jacobi
# polynomial P_n^(1,0) (weight 1 - x), evaluated by mpmath.legendre and
# mpmath.jacobi, with P_n^(1,0)' = (n + 2) / 2 P_(n-1)^(2,1); the weights are
# the closed forms 2 / ((1 - x^2) P_n'(x)^2) and 4 / ((1 - x^2) P_n^(1,0)'(x)^2).
# The Gauss-Jacobi values agree to 1e-45 with a 60-digit eigensolve of the
# Jacobi matrix of the three-term recurrence
#   x p_k = b_k p_(k-1) + a_k p_k + b_(k+1) p_(k+1),
#   a_k = -1 / ((2k + 1)(2k + 3)),  b_k = sqrt(k (k + 1)) / (2k + 1).
_GAUSS_LEGENDRE = """
                                         0.0  2.0

 -0.5773502691896257645091487805019574556476  1.0
  0.5773502691896257645091487805019574556476  1.0

 -0.7745966692414833770358530799564799221666  0.5555555555555555555555555555555555555556
                                         0.0  0.8888888888888888888888888888888888888889
  0.7745966692414833770358530799564799221666  0.5555555555555555555555555555555555555556

 -0.8611363115940525752239464888928095050957  0.3478548451374538573730639492219994072353
 -0.3399810435848562648026657591032446872006  0.6521451548625461426269360507780005927647
  0.3399810435848562648026657591032446872006  0.6521451548625461426269360507780005927647
  0.8611363115940525752239464888928095050957  0.3478548451374538573730639492219994072353

 -0.9061798459386639927976268782993929651257  0.2369268850561890875142640407199173626433
 -0.5384693101056830910363144207002088049673  0.4786286704993664680412915148356381929123
                                         0.0  0.5688888888888888888888888888888888888889
  0.5384693101056830910363144207002088049673  0.4786286704993664680412915148356381929123
  0.9061798459386639927976268782993929651257  0.2369268850561890875142640407199173626433

 -0.9324695142031520278123015544939946091348  0.1713244923791703450402961421727328935268
 -0.6612093864662645136613995950199053470064  0.3607615730481386075698335138377161116615
 -0.2386191860831969086305017216807119354186  0.4679139345726910473898703439895509948117
  0.2386191860831969086305017216807119354186  0.4679139345726910473898703439895509948117
  0.6612093864662645136613995950199053470064  0.3607615730481386075698335138377161116615
  0.9324695142031520278123015544939946091348  0.1713244923791703450402961421727328935268

 -0.9491079123427585245261896840478512624008  0.1294849661688696932706114326790820183286
 -0.7415311855993944398638647732807884070741  0.2797053914892766679014677714237795824869
 -0.4058451513773971669066064120769614633474  0.3818300505051189449503697754889751338784
                                         0.0  0.4179591836734693877551020408163265306122
  0.4058451513773971669066064120769614633474  0.3818300505051189449503697754889751338784
  0.7415311855993944398638647732807884070741  0.2797053914892766679014677714237795824869
  0.9491079123427585245261896840478512624008  0.1294849661688696932706114326790820183286

 -0.9602898564975362316835608685694729904282  0.1012285362903762591525313543099621901154
 -0.7966664774136267395915539364758304368372  0.2223810344533744705443559944262408844301
  -0.525532409916328985817739049189246349042  0.3137066458778872873379622019866013132603
 -0.1834346424956498049394761423601839806668  0.3626837833783619829651504492771956121941
  0.1834346424956498049394761423601839806668  0.3626837833783619829651504492771956121941
   0.525532409916328985817739049189246349042  0.3137066458778872873379622019866013132603
  0.7966664774136267395915539364758304368372  0.2223810344533744705443559944262408844301
  0.9602898564975362316835608685694729904282  0.1012285362903762591525313543099621901154

 -0.9681602395076260898355762029036728700494  0.08127438836157441197189215811052365067566
 -0.8360311073266357942994297880697348765441  0.1806481606948574040584720312429128095143
 -0.6133714327005903973087020393414741847857  0.2606106964029354623187428694186328497718
  -0.324253423403808929038538014643336608572  0.3123470770400028400686304065844436655988
                                         0.0  0.3302393550012597631645250692869740488788
   0.324253423403808929038538014643336608572  0.3123470770400028400686304065844436655988
  0.6133714327005903973087020393414741847857  0.2606106964029354623187428694186328497718
  0.8360311073266357942994297880697348765441  0.1806481606948574040584720312429128095143
  0.9681602395076260898355762029036728700494  0.08127438836157441197189215811052365067566

 -0.9739065285171717200779640120844520534283  0.06667134430868813759356880989333179285786
 -0.8650633666889845107320966884234930485275  0.1494513491505805931457763396576973324026
 -0.6794095682990244062343273651148735757693  0.2190863625159820439955349342281631924588
 -0.4333953941292471907992659431657841622001  0.2692667193099963550912269215694693528598
 -0.1488743389816312108848260011297199846176  0.295524224714752870173892994651338329421
  0.1488743389816312108848260011297199846176  0.295524224714752870173892994651338329421
  0.4333953941292471907992659431657841622001  0.2692667193099963550912269215694693528598
  0.6794095682990244062343273651148735757693  0.2190863625159820439955349342281631924588
  0.8650633666889845107320966884234930485275  0.1494513491505805931457763396576973324026
  0.9739065285171717200779640120844520534283  0.06667134430868813759356880989333179285786
"""

_GAUSS_JACOBI_1_0 = """
 -0.3333333333333333333333333333333333333333  2.0

 -0.6898979485566356196394568149411782783932  1.272165526975908677577476008300654599107
  0.2898979485566356196394568149411782783932  0.7278344730240913224225239916993454008927

 -0.8228240809745921052089077124610876062285  0.8037276549558385230887925330583993945546
 -0.1810662711185305782701474958623402118962  0.916964425438344986775682378225292985795
  0.5753189235216941120504837797519992466962  0.2793079196058164901355250887163076196504

 -0.8857916077709646356137576148917687575298  0.5420276537259524648330566963117635985841
 -0.4463139727237523446399080046287497177782  0.8138582720410854431656179037434191004221
  0.1671808647378336401133953373258344973869  0.5193901904329297633058248115585160584542
  0.7204802713124388956958258377502395334768  0.1247238838000323286955005883863012425396

 -0.9203802858970625153183866198133336645915  0.3871263609066067170974438865446029412602
 -0.6039731642527836549284157264094075279236  0.6686985523774782619667024923907952743357
 -0.1240503795052277119899749599895422949664  0.585547948338679234792151477423835543944
   0.390928546707272189029229647442334322788  0.2956354802904666814025328773668143152942
   0.802929828402347147753002204224494619239  0.06299165808676910474116926627395192516596

 -0.9413671456804302160558994461736701792525  0.2892413229020347346218173044993278705736
 -0.7038428006630314163000462950080415755395  0.5421699889260744673627615865522017108307
 -0.3260306194376914018058940558384485896049  0.5631702151527957124763073562837154033092
  0.1173430375431002641627866836110438801487  0.3946446035626210564823380421934391517959
  0.5384677240601090018337667202312909036743  0.175820662202035902032706497221720380512
  0.8538913426394822297037479316393640221123  0.03495320725443812702406921324959548297859

 -0.9550412271225750037823490008583098801557  0.2238694536939642046062484537197025347163
 -0.7706418936781915361807195258649707458445  0.4420370327634984096844829454784310987134
  -0.468420354430821063046421216613220005126  0.509563589198353307674937943099846565398
-0.09430725266111076600289711530469770928077  0.4285002627834946799636490119994229290862
   0.294750565773660725252184459657517594384  0.2655387858619658799345919550545596536321
  0.6395186165262152700248401143816364309159  0.1096334268874939017773241934329051459083
  0.8874748789261557070686956179353776484405  0.0208574488112296163587654972151320725457

  -0.964440169705273096373589797924641877467  0.1782032174462237253048624781358530428716
 -0.8173527842004120879925170838509172937859  0.3644760945454945053828898471315190414077
 -0.5713830412087384832849174648366593546511  0.4500231978835494646870883944171244949171
 -0.2561356708334553951382920790347415106638  0.4241894377437200428181243856446328646947
 0.09037336960685329806454445990642611026596  0.316798397969276640481632757439568906878
  0.4263504857111389621026275205018146828938  0.1817572780187955923322216843827763984256
   0.711267485915708857029562959543570060573  0.07137161062394483357421118880416897033961
  0.9107320894200602985337579562833844769528  0.01318076576899519541896926404435628046584

 -0.9711751807022469027343465183783735211765  0.1451120140931194858385983917646385552
  -0.851225220581607910728163628088002829838  0.3042970204372326503203172150158571624264
 -0.6477666876740094362736485078548628271772  0.3941349686893828206406920814770977018047
 -0.3806648401447243658807590655410319023672  0.4012352367734731586166008989303471560811
-0.07605919783797813023371378263887138378553  0.3374332873796813975770000798343499634209
  0.2362344693905880492784595032070089605613  0.2336047811806604422629260916065605920607
   0.525646030370079229365386614293451065847  0.1272192859642160050467604277434799359302
  0.7638420424200025996154297760105295526142  0.04824001713914151620690860914760106909722
  0.9274843742335810781176713984638370958483  0.008723388343092523490196204480067863978693
"""


def _reference_rules(table):
    """(n, nodes, weights) of each block of a rule table, n = 1, 2, ..."""
    for n, block in enumerate(table.strip("\n").split("\n\n"), start=1):
        x, w = np.array([line.split() for line in block.splitlines()], dtype=float).T
        assert x.size == n
        yield n, x, w


@pytest.mark.parametrize(
    "table, rule, n_max",
    [
        (_GAUSS_LEGENDRE, lambda n: edge_quadrature(2 * n - 2), 10),
        (_GAUSS_JACOBI_1_0, lambda n: QuadratureRule(*_gauss_jacobi_1_0(n)), 9),
    ],
    ids=["legendre", "jacobi-1-0"],
)
def test_gauss_rules_match_40_digit_references(table, rule, n_max):
    # numpy's leggauss and the Golub-Welsch eigensolve, each within 2e-15 of
    # the 40-digit values; the nodes ascend inside (-1, 1), the weights are
    # positive
    references = list(_reference_rules(table))
    assert len(references) == n_max
    for n, x_ref, w_ref in references:
        computed = rule(n)
        x, w = computed.points, computed.weights
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=2e-15)
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=2e-15)
        assert (np.diff(x) > 0).all() and -1.0 < x[0] and x[-1] < 1.0
        assert (w > 0).all()


_IMPORTED_SCIPY_SPECIAL = """
import sys
import gwgfem
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy.special"))))
"""


def test_import_loads_no_scipy_special():
    # the quadrature rules come from numpy: a fresh import gwgfem loads no
    # scipy.special module
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTED_SCIPY_SPECIAL],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


@pytest.mark.parametrize(
    "center", [(np.nan, 0.0), (0.0, np.inf), (0.0, 0.0, 0.0)], ids=["nan", "inf", "3-entry"]
)
def test_element_basis_center_must_be_a_finite_point(center):
    # a NaN center once evaluated to NaN values, and a 3-entry one failed only
    # later with a broadcast error
    with pytest.raises(ValueError) as err:
        ElementBasis(1, center, 1.0)
    assert str(err.value) == f"center must be a finite point of shape (2,), got {center!r}"


@pytest.mark.parametrize(
    "center, message",
    [((1j, 0.0), "center must be real, got complex128"), (("ab", 0.0), "center must be real numbers")],
    ids=["complex", "str"],
)
def test_element_basis_center_must_be_real(center, message):
    # a complex center raised float()'s TypeError and a string one numpy's
    # conversion error, neither naming the center
    with pytest.raises(ValueError, match=re.escape(message)):
        ElementBasis(1, center, 1.0)


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
    pts, w = map_to_edge(rule, p0, p1)
    assert abs(w.sum() - 2.0) <= 1e-14
    np.testing.assert_allclose(pts[:, 0], 0.25)
    np.testing.assert_allclose(pts[:, 1], 1.0 + rule.points)


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
        pts, w = map_to_edge(rule, p0, p1)
        assert pts.shape == p0.shape[:-1] + (rule.points.size, 2)
        expected = mid + rule.points[:, None] * half
        assert np.array_equal(pts.view(np.uint64), expected.view(np.uint64))
        expected = rule.weights * np.linalg.norm(half, axis=-1)
        assert np.array_equal(w.view(np.uint64), expected.view(np.uint64))


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
