import math
from fractions import Fraction

import numpy as np
import pytest

from trefftzdg.basis import (
    BrokenSpace,
    ElementBasis,
    _derivative_table,
    _orthonormalizer,
    derivative_matrix,
    evaluate_basis,
    l2_project,
    polynomial_exponents,
    scaled_monomials,
    space_dimension,
    tabulate,
)
from trefftzdg.mesh import Mesh2D, build_structured_mesh
from trefftzdg.quadrature import triangle_rule

UNIT_RIGHT = Mesh2D(
    vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    triangles=np.array([[0, 1, 2]]),
)


def random_triangle_mesh(seed):
    rng = np.random.default_rng(seed)
    while True:
        verts = rng.uniform(-1.0, 2.0, size=(3, 2))
        d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
        if d1[0] * d2[1] - d1[1] * d2[0] > 0.4:
            return Mesh2D(vertices=verts, triangles=np.array([[0, 1, 2]]))


def reference_orthonormal_basis(mesh, degree):
    """Gram-Schmidt oracle on scaled monomials with exact moment integrals.

    Moments of the scaled monomials over the triangle are computed by the
    rational Green's-theorem boundary integral, then classical (modified)
    Gram-Schmidt produces an orthonormal basis independent of the package's
    Cholesky construction. Returns a callable evaluating the basis.
    """
    geo = mesh.element_geometry(0)
    cx, cy = geo.centroid
    hk = geo.h
    exps = polynomial_exponents(degree)
    dim = len(exps)
    gram = np.empty((dim, dim))
    for i, (ai, bi) in enumerate(exps):
        for j, (aj, bj) in enumerate(exps):
            gram[i, j] = scaled_monomial_moment(mesh, cx, cy, hk, ai + aj, bi + bj)
    coeffs = np.eye(dim)
    for i in range(dim):
        for j in range(i):
            proj = coeffs[j] @ gram @ coeffs[i]
            coeffs[i] -= proj * coeffs[j]
        nrm = math.sqrt(coeffs[i] @ gram @ coeffs[i])
        coeffs[i] /= nrm

    def evaluate(points):
        pts = np.asarray(points, dtype=float)
        X = (pts[..., 0] - cx) / hk
        Y = (pts[..., 1] - cy) / hk
        mono = np.stack([X**a * Y**b for a, b in exps], axis=-1)
        return mono @ coeffs.T

    return evaluate


def scaled_monomial_moment(mesh, cx, cy, hk, a, b):
    """Exact integral of ((x-cx)/h)^a ((y-cy)/h)^b over the triangle."""
    verts = mesh.vertices
    total = Fraction(0)
    fr = lambda v: Fraction(v).limit_denominator(10**12)
    for k in range(3):
        p = verts[mesh.triangles[0][k]]
        q = verts[mesh.triangles[0][(k + 1) % 3]]
        px, py = fr((p[0] - cx) / hk), fr((p[1] - cy) / hk)
        qx, qy = fr((q[0] - cx) / hk), fr((q[1] - cy) / hk)
        dx, dy = qx - px, qy - py
        if dy == 0:
            continue
        xpow = _poly_pow((px, dx), a + 1)
        ypow = _poly_pow((py, dy), b)
        prod = _poly_mul(xpow, ypow)
        total += sum(c / (i + 1) for i, c in enumerate(prod)) * dy / (a + 1)
    # integral computed in scaled coordinates; measure scales by h^2
    return float(total) * hk * hk


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


def test_exponent_ordering():
    assert polynomial_exponents(2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert space_dimension(3) == 10


def test_constant_mode_on_unit_right_triangle():
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=2)
    pts = np.array([[0.1, 0.2], [0.4, 0.4], [2.0, -1.0]])
    ev = basis.eval(pts, gradients=True)
    assert np.allclose(ev.values[:, 0], math.sqrt(2.0), atol=1e-12)
    assert np.allclose(ev.gradients[:, 0, :], 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_gram_schmidt_oracle(seed):
    mesh = random_triangle_mesh(seed)
    degree = 3
    oracle = reference_orthonormal_basis(mesh, degree)
    basis = ElementBasis.from_element(mesh, 0, degree=degree)
    rng = np.random.default_rng(seed + 100)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    expected = oracle(pts)
    got = basis.eval(pts).values
    # both use the same graded-lex monomial pivoting, so they agree up to sign
    for j in range(expected.shape[1]):
        s = 1.0 if np.dot(expected[:, j], got[:, j]) >= 0 else -1.0
        assert np.allclose(got[:, j], s * expected[:, j], atol=1e-9)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [3, 4])
def test_orthonormality_random_elements(degree, seed):
    mesh = random_triangle_mesh(seed)
    basis = ElementBasis.from_element(mesh, 0, degree=degree)
    rule = triangle_rule(mesh.vertices[mesh.triangles[0]], 2 * degree)
    vals = basis.eval(rule.points).values
    gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-10


def test_degree_one_gradients_constant_hessian_zero():
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=1)
    pts = np.random.default_rng(0).uniform(size=(7, 2))
    ev = basis.eval(pts, gradients=True, hessians=True)
    for j in range(basis.dim):
        assert np.allclose(ev.gradients[:, j, :], ev.gradients[0, j, :], atol=1e-13)
    assert np.allclose(ev.hessians, 0.0, atol=1e-13)


def test_derivatives_match_finite_differences():
    mesh = random_triangle_mesh(7)
    basis = ElementBasis.from_element(mesh, 0, degree=4)
    pts = np.random.default_rng(1).uniform(0.2, 0.8, size=(5, 2))
    ev = basis.eval(pts, gradients=True, hessians=True)
    eps = 1e-6
    for d, unit in enumerate(np.eye(2)):
        vp = basis.eval(pts + eps * unit, gradients=True)
        vm = basis.eval(pts - eps * unit, gradients=True)
        fd_grad = (vp.values - vm.values) / (2 * eps)
        scale = np.maximum(np.abs(ev.gradients[..., d]), 1.0)
        assert np.max(np.abs(fd_grad - ev.gradients[..., d]) / scale) < 1e-6
        fd_hess = (vp.gradients - vm.gradients) / (2 * eps)
        hscale = np.maximum(np.abs(ev.hessians[..., d]), 1.0)
        assert np.max(np.abs(fd_hess - ev.hessians[..., d]) / hscale) < 1e-6


def test_higher_order_derivative_evaluation():
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=3)
    pts = np.array([[0.3, 0.25]])
    third = basis.derivative(pts, (3, 0))
    ref = (
        basis.derivative(pts + [[1e-5, 0]], (2, 0))
        - basis.derivative(pts - [[1e-5, 0]], (2, 0))
    ) / 2e-5
    assert np.allclose(third, ref, rtol=1e-5, atol=1e-4)


def test_gram_conditioning_under_refinement():
    conds = []
    for n in (2, 4, 8):
        mesh = build_structured_mesh(n)
        space = BrokenSpace(mesh, degree=3)
        mono = space.scaled_monomials(space.volume_points[:1])
        gram = np.einsum("q,qi,qj->ij", space.volume_weights[0] / mesh.areas[0], mono[0], mono[0])
        conds.append(np.linalg.cond(gram))
    assert conds[2] <= conds[0] * (1 + 1e-8)
    assert conds[1] <= conds[0] * (1 + 1e-8)


def test_l2_project_zero_and_linear():
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=2)
    rule = triangle_rule(UNIT_RIGHT.vertices[UNIT_RIGHT.triangles[0]], 8)
    czero = l2_project(lambda x, y: np.zeros_like(x), basis, rule)
    assert np.allclose(czero, 0.0, atol=1e-14)
    clin = l2_project(lambda x, y: x, basis, rule)
    vals = basis.eval(rule.points).values @ clin
    assert np.max(np.abs(vals - rule.points[:, 0])) < 1e-12


def test_l2_project_sine_onto_constants():
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=0)
    rule = triangle_rule(UNIT_RIGHT.vertices[UNIT_RIGHT.triangles[0]], 20)
    f = lambda x, y: np.sin(np.pi * (x + y))
    coeff = l2_project(f, basis, rule)
    # direct quadrature oracle: (integral of f) / sqrt(area)
    expected = np.sum(rule.weights * f(rule.points[:, 0], rule.points[:, 1])) / math.sqrt(0.5)
    assert coeff.shape == (1,)
    assert coeff[0] == pytest.approx(expected, rel=1e-12)


def test_broken_space_offsets_and_basis():
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, degree=2)
    assert space.ndof_local == 6
    assert space.ndof_total == 6 * mesh.n_elements
    b3 = space.element_basis(3)
    assert isinstance(b3, ElementBasis)
    vals = b3.eval(mesh.centroids[3][None, :]).values
    assert vals[0, 0] == pytest.approx(1.0 / math.sqrt(mesh.areas[3]))


def reference_basis_derivative(space, dx, dy):
    """``D^(dx,dy)`` of the space's basis at its volume points: each
    monomial's derivative gathered from the kept table with its constant
    factor, then mapped by ``G^T``."""
    exps = polynomial_exponents(space.degree)
    cols = [exps.index((max(a - dx, 0), max(b - dy, 0))) for a, b in exps]
    factor = np.array([math.perm(a, dx) * math.perm(b, dy) for a, b in exps], dtype=float)
    mono = space.monomials[..., cols] * factor / space.scales[:, None, None] ** (dx + dy)
    return mono @ np.swapaxes(space.G, -1, -2)


def assert_rel_close(actual, expected, rtol):
    scale = max(float(np.max(np.abs(expected))), 1.0e-300)
    assert np.max(np.abs(actual - expected)) <= rtol * scale


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("p", range(1, 7))
def test_volume_table_matches_evaluate_basis(p, perturbed, perturbed_mesh):
    mesh = perturbed_mesh(3) if perturbed else build_structured_mesh(3)
    space = BrokenSpace(mesh, p)
    tab = space.volume_basis(gradients=True, laplacians=True)
    ref = evaluate_basis(
        space.volume_points, space.centers, space.scales, space.G, p,
        gradients=True, hessians=True,
    )
    assert_rel_close(tab.values, ref.values, 1e-12)
    assert_rel_close(tab.gradients, ref.gradients, 1e-12)
    assert_rel_close(tab.laplacians, ref.hessians[..., 0, 0] + ref.hessians[..., 1, 1], 1e-12)
    assert_rel_close(tab.values, reference_basis_derivative(space, 0, 0), 1e-12)
    for d, (dx, dy) in enumerate([(1, 0), (0, 1)]):
        assert_rel_close(tab.gradients[..., d], reference_basis_derivative(space, dx, dy), 1e-12)
    if p >= 2:
        lap = reference_basis_derivative(space, 2, 0) + reference_basis_derivative(space, 0, 2)
        assert_rel_close(tab.laplacians, lap, 1e-12)
    else:
        assert np.all(tab.laplacians == 0.0)


def test_volume_function_matches_basis_table(perturbed_mesh):
    space = BrokenSpace(perturbed_mesh(3), 4)
    coeffs = np.random.default_rng(3).standard_normal((space.mesh.n_elements, space.ndof_local))
    vals, grads = space.eval_function(coeffs, gradients=True)
    tab = space.volume_basis(gradients=True)
    assert_rel_close(vals, np.einsum("eqn,en->eq", tab.values, coeffs), 1e-12)
    assert_rel_close(grads, np.einsum("eqnd,en->eqd", tab.gradients, coeffs), 1e-12)
    elems = [4, 0, 7]
    at_points = space.eval_function(coeffs, elems, space.volume_points[elems])
    assert_rel_close(at_points, vals[elems], 1e-12)


@pytest.mark.parametrize("degree", range(7))
def test_derivative_matrix_agrees_with_derivative_table(degree):
    exps = polynomial_exponents(degree)
    for dx, dy in polynomial_exponents(degree + 1):
        D = derivative_matrix(degree, dx, dy)
        powers_x, powers_y, factor = _derivative_table(degree, dx, dy)
        assert not D.flags.writeable
        for j in range(len(exps)):
            expected = np.zeros(len(exps))
            if factor[j]:
                expected[exps.index((powers_x[j], powers_y[j]))] = factor[j]
            np.testing.assert_array_equal(D[j], expected)
    # applied to a monomial table: the closed-form derivative of each monomial
    pts = np.random.default_rng(degree).uniform(-1.0, 1.0, size=(1, 7, 2))
    mono = scaled_monomials(pts, [[0.0, 0.0]], [1.0], degree)
    X, Y = pts[0, :, :1], pts[0, :, 1:]
    a, b = np.array(exps).T
    np.testing.assert_allclose(
        (mono @ derivative_matrix(degree, 1, 1).T)[0],
        a * b * X ** np.maximum(a - 1, 0) * Y ** np.maximum(b - 1, 0),
        rtol=1e-13, atol=1e-13,
    )


@pytest.mark.parametrize("npoints", [3, None])
def test_tabulate_applies_the_derivative_matrix(npoints):
    # D goes on the table for fewer points than basis functions (3 < 15),
    # on the coefficients otherwise (49 points); both equal the product
    space = BrokenSpace(build_structured_mesh(2), 4)
    mono = space.monomials[:, :npoints]
    Gt = np.swapaxes(space.G, -1, -2)
    laplacian = ((2, 0), (0, 2))
    tab = tabulate(mono, Gt, space.scales, 4, [((1, 0),), ((0, 1),), laplacian])
    for i, terms in enumerate([((1, 0),), ((0, 1),), laplacian]):
        D = sum(derivative_matrix(4, dx, dy) for dx, dy in terms)
        expected = mono @ (D.T @ Gt) / space.scales[:, None, None] ** sum(terms[0])
        assert_rel_close(tab[..., i, :], expected, 1e-14)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("p", range(1, 7))
def test_leading_basis_columns_are_the_lower_degree_basis(p, perturbed, perturbed_mesh):
    # the AR and DAR test bases: dim P_(p-1) and dim P_(p-2) leading columns
    mesh = perturbed_mesh(3) if perturbed else build_structured_mesh(3)
    space = BrokenSpace(mesh, p)
    values = space.volume_basis().values
    for q in (p - 1, p - 2):
        if q < 0:
            continue
        mono = scaled_monomials(space.volume_points, space.centers, space.scales, q)
        lower = mono @ np.swapaxes(_orthonormalizer(space.volume_weights, mono), -1, -2)
        assert_rel_close(values[..., : space_dimension(q)], lower, 1e-12)


def test_volume_table_is_kept_read_only():
    space = BrokenSpace(build_structured_mesh(2), 3)
    assert space.monomials.shape == space.volume_points.shape[:2] + (space.ndof_local,)
    assert not space.monomials.flags.writeable
