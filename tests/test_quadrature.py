import math
from fractions import Fraction

import numpy as np
import pytest

from trefftzdg.quadrature import (
    _gauss_legendre_unit,
    box_rule,
    duffy_rule_barycentric,
    facet_quadrature,
    triangle_rule,
    unit_box_rule,
    volume_quadrature,
)
from trefftzdg.mesh import Mesh2D, build_structured_mesh

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def exact_triangle_monomial(vertices, a, b):
    """Exact integral of x^a y^b over a ccw triangle via Green's theorem.

    Uses the boundary integral of x^(a+1) y^b / (a+1) dy along each edge,
    evaluated in rational arithmetic, so it is independent of any quadrature.
    """
    verts = [(Fraction(v[0]).limit_denominator(10**12),
              Fraction(v[1]).limit_denominator(10**12)) for v in vertices]
    total = Fraction(0)
    for k in range(3):
        (px, py), (qx, qy) = verts[k], verts[(k + 1) % 3]
        dx, dy = qx - px, qy - py
        if dy == 0:
            continue
        # x(t)^(a+1) y(t)^b dy, t in [0,1]; expand both factors in t.
        xpow = _poly_pow((px, dx), a + 1)
        ypow = _poly_pow((py, dy), b)
        prod = _poly_mul(xpow, ypow)
        integral = sum(c / (i + 1) for i, c in enumerate(prod))
        total += integral * dy / (a + 1)
    return total


def _poly_pow(linear, n):
    c0, c1 = linear
    poly = [Fraction(1)]
    for _ in range(n):
        poly = _poly_mul(poly, [c0, c1])
    return poly


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_reference_triangle_constant():
    rule = triangle_rule(REF_TRIANGLE, 0)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)


def test_reference_triangle_xy():
    rule = triangle_rule(REF_TRIANGLE, 2)
    val = np.sum(rule.weights * rule.points[:, 0] * rule.points[:, 1])
    assert val == pytest.approx(1.0 / 24.0, abs=1e-14)


def test_box_cubic_product():
    rule = box_rule(center=(0.5, 0.5), side=1.0, degree=6)
    val = np.sum(rule.weights * rule.points[:, 0] ** 3 * rule.points[:, 1] ** 3)
    assert val == pytest.approx(1.0 / 16.0, abs=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 10, 12, 16, 20])
def test_triangle_exactness_reference(degree):
    rule = triangle_rule(REF_TRIANGLE, degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(got - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("seed", range(4))
def test_triangle_exactness_random_elements(seed):
    rng = np.random.default_rng(seed)
    while True:
        verts = rng.uniform(-1.0, 2.0, size=(3, 2))
        d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
        area2 = d1[0] * d2[1] - d1[1] * d2[0]
        if area2 > 0.3:
            break
    degree = 9
    rule = triangle_rule(verts, degree)
    assert rule.weights.sum() == pytest.approx(0.5 * area2, rel=1e-13)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = float(exact_triangle_monomial(verts, a, b))
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1e-3)


def test_triangle_points_inside():
    rule = triangle_rule(REF_TRIANGLE, 11)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all(x > 0) and np.all(y > 0) and np.all(x + y < 1)


@pytest.mark.parametrize("degree", [0, 3, 7, 12, 16])
def test_positive_triangle_rule_exactness(degree):
    rule = triangle_rule(REF_TRIANGLE, degree)
    assert np.all(rule.weights > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(got - exact) <= 1e-13 * abs(exact) + 1e-16


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        triangle_rule(REF_TRIANGLE, -1)


def test_box_exactness_and_interior_points():
    center, side, degree = (0.25, -0.5), 0.4, 9
    rule = box_rule(center=center, side=side, degree=degree)
    assert rule.weights.sum() == pytest.approx(side * side, rel=1e-13)
    assert np.all(np.abs(rule.points[:, 0] - center[0]) < side / 2)
    assert np.all(np.abs(rule.points[:, 1] - center[1]) < side / 2)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            # tensor-product of exact 1D monomial integrals
            exact = _interval_monomial(center[0], side, a) * _interval_monomial(center[1], side, b)
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1e-6)


def _interval_monomial(center, side, n):
    lo, hi = center - side / 2, center + side / 2
    return (hi ** (n + 1) - lo ** (n + 1)) / (n + 1)


def test_facet_quadrature_segment_polynomial():
    p0, p1 = np.array([0.0, 1.0]), np.array([2.0, 0.0])
    mesh = Mesh2D(vertices=np.array([p0, p1, [2.0, 1.0]]), triangles=np.array([[0, 1, 2]]))
    f = int(np.flatnonzero((mesh.facet_vertices == [0, 1]).all(axis=1))[0])
    pts, w = facet_quadrature(mesh, 5)
    pts, w = pts[f], w[f]
    length = np.hypot(2.0, 1.0)
    assert w.sum() == pytest.approx(length, rel=1e-14)
    # integral of x^2 y along the segment, parametrized by arclength
    got = np.sum(w * pts[:, 0] ** 2 * pts[:, 1])
    t = np.linspace(0, 1, 200001)
    x, y = p0[0] + t * 2.0, p0[1] - t
    trapz = np.trapezoid(x * x * y, t) * length
    assert got == pytest.approx(trapz, rel=1e-8)


def test_mesh_quadrature_shapes():
    mesh = build_structured_mesh(3)
    pts, w = volume_quadrature(mesh, 4)
    assert pts.shape[0] == mesh.n_elements and w.shape == pts.shape[:2]
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    fpts, fw = facet_quadrature(mesh, 4)
    assert fpts.shape[0] == mesh.n_facets
    assert fw.sum() == pytest.approx(mesh.facet_lengths.sum(), rel=1e-13)


@pytest.mark.parametrize("perturbed", [False, True])
def test_volume_points_are_the_barycentric_einsum_bitwise(perturbed_mesh, perturbed):
    mesh = perturbed_mesh(5) if perturbed else build_structured_mesh(5)
    for p in range(1, 7):
        degree = 2 * p + 4
        pts, w = volume_quadrature(mesh, degree)
        bary, ref_w = duffy_rule_barycentric(degree)
        expected = np.einsum("qc,ecd->eqd", bary, mesh.vertices[mesh.triangles])
        assert np.array_equal(pts, expected), p
        assert np.array_equal(w, ref_w[None, :] * mesh.areas[:, None]), p


@pytest.mark.parametrize("center,side", [((0.25, -0.5), 0.4), ((0.81, 0.12), 1e-3)])
def test_box_rule_maps_the_unit_square_rule_bitwise(center, side):
    t, w = _gauss_legendre_unit(6)
    xx, yy = np.meshgrid(center[0] - side / 2 + side * t, center[1] - side / 2 + side * t,
                         indexing="ij")
    rule = box_rule(center, side, 10)
    np.testing.assert_array_equal(rule.points, np.column_stack([xx.ravel(), yy.ravel()]))
    np.testing.assert_array_equal(rule.weights, np.outer(w, w).ravel() * side * side)


def test_unit_box_rule_is_read_only():
    points, weights = unit_box_rule(4)
    assert unit_box_rule(4)[0] is points
    for array in (points, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize(
    "center,side,match",
    [
        ((0.5, 0.5), math.nan, "box side"),
        ((0.5, 0.5), math.inf, "box side"),
        ((0.5, 0.5), -0.1, "box side"),
        ((math.nan, 0.5), 0.1, "box center"),
        ((0.5, -math.inf), 0.1, "box center"),
    ],
)
def test_box_rule_rejects_bad_boxes(center, side, match):
    with pytest.raises(ValueError, match=match):
        box_rule(center, side, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_triangle_rule_rejects_non_finite_vertices(bad):
    verts = REF_TRIANGLE.copy()
    verts[2, 0] = bad
    with pytest.raises(ValueError, match="triangle vertices must be finite"):
        triangle_rule(verts, 4)
