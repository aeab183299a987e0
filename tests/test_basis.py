import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from trefftzdg.basis import (
    _REFERENCE_CENTER,
    _REFERENCE_SCALE,
    BrokenSpace,
    _derivative_table,
    _orthonormalizer,
    _reference_basis,
    _reference_tabulate,
    derivative_matrix,
    polynomial_exponents,
    reference_products,
    reference_tables,
    scaled_monomials,
    space_dimension,
)
from trefftzdg.mesh import Mesh2D, build_structured_mesh
from trefftzdg.quadrature import facet_quadrature, triangle_rule

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
    construction. Returns a callable evaluating the basis.
    """
    cx, cy = mesh.centroids[0]
    hk = mesh.h[0]
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
    space = BrokenSpace(UNIT_RIGHT, 2)
    pts = np.array([[0.1, 0.2], [0.4, 0.4], [2.0, -1.0]])
    ev = space.eval_elements([0], pts[None], gradients=True)
    assert np.allclose(ev.values[0, :, 0], math.sqrt(2.0), atol=1e-12)
    assert np.allclose(ev.gradients[0, :, 0, :], 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_gram_schmidt_oracle(seed):
    # the element basis is the reference-triangle basis pulled back through
    # the affine map x = v0 + J xi and divided by sqrt(|det J|)
    mesh = random_triangle_mesh(seed)
    degree = 3
    oracle = reference_orthonormal_basis(UNIT_RIGHT, degree)
    v0, v1, v2 = mesh.vertices[mesh.triangles[0]]
    J = np.column_stack([v1 - v0, v2 - v0])
    space = BrokenSpace(mesh, degree)
    rng = np.random.default_rng(seed + 100)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    expected = oracle(np.linalg.solve(J, (pts - v0).T).T) / math.sqrt(abs(np.linalg.det(J)))
    got = space.eval_elements([0], pts[None]).values[0]
    assert np.allclose(got, expected, atol=1e-9)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [3, 4])
def test_orthonormality_random_elements(degree, seed):
    mesh = random_triangle_mesh(seed)
    space = BrokenSpace(mesh, degree)
    # a finer rule than the one the basis was orthonormalized on
    rule = triangle_rule(mesh.vertices[mesh.triangles[0]], 2 * degree + 2)
    vals = space.eval_elements([0], rule.points[None]).values[0]
    gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    assert np.max(np.abs(gram - np.eye(space.ndof_local))) < 1e-10


def orthonormality_error(mesh, evaluate, degree):
    """Orthonormality error of the basis values ``evaluate(points)`` on a
    finer rule than the one the basis was orthonormalized on."""
    rule = triangle_rule(mesh.vertices[mesh.triangles[0]], 2 * degree + 2)
    vals = evaluate(rule.points)
    gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    return np.max(np.abs(gram - np.eye(vals.shape[-1])))


def element_values(mesh, degree):
    space = BrokenSpace(mesh, degree)
    return lambda points: space.eval_elements([0], points[None]).values[0]


@pytest.mark.parametrize("aspect", [1e1, 1e3])
def test_orthonormality_axis_aligned_sliver(aspect, sliver_mesh):
    mesh = sliver_mesh(aspect, 0.0)
    assert orthonormality_error(mesh, element_values(mesh, 6), 6) < 1e-12


@pytest.mark.parametrize(("aspect", "degree"), [(1e1, 6), (1e2, 4), (1e3, 3)])
def test_orthonormality_turned_sliver_matches_qr(aspect, degree, sliver_mesh):
    # turned against the axes, a sliver's scaled monomials are nearly
    # dependent, so no construction over them is orthonormal to rounding;
    # the mapped reference basis must do at least as well as a QR of the
    # element's own table
    mesh = sliver_mesh(aspect, 0.7)
    rule = triangle_rule(mesh.vertices[mesh.triangles[0]], 2 * degree)
    mono = lambda points: scaled_monomials(points[None], mesh.centroids, mesh.h, degree)[0]
    G = _orthonormalizer(rule.weights[None], mono(rule.points)[None])[0]
    qr = orthonormality_error(mesh, lambda points: mono(points) @ G.T, degree)
    got = orthonormality_error(mesh, element_values(mesh, degree), degree)
    assert got <= max(2.0 * qr, 1e-12)


@pytest.mark.parametrize("aspect", [1e1, 1e2, 1e3])
def test_turned_sliver_space_is_orthonormal(aspect, sliver_mesh):
    # the space maps the reference basis, so a turned needle's basis is
    # orthonormal to rounding where no basis over its scaled monomials is;
    # nothing is corrected and nothing warns
    mesh = sliver_mesh(aspect, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = BrokenSpace(mesh, 6)
        eye = np.eye(space.ndof_local)
        assert np.max(np.abs(mass_matrices(space)[0] - eye)) < 1e-12
        # on a finer rule than the space's
        rule = triangle_rule(mesh.vertices[mesh.triangles[0]], 2 * 6 + 6)
        values = space.eval_elements([0], rule.points[None]).values[0]
        gram = np.einsum("q,qi,qj->ij", rule.weights, values, values)
        assert np.max(np.abs(gram - eye)) < 1e-12


def test_degree_one_gradients_constant_hessian_zero():
    space = BrokenSpace(UNIT_RIGHT, 1)
    pts = np.random.default_rng(0).uniform(size=(1, 7, 2))
    gradients = space.eval_elements([0], pts, gradients=True).gradients[0]
    for j in range(space.ndof_local):
        assert np.allclose(gradients[:, j, :], gradients[0, j, :], atol=1e-13)
    # the second derivatives (2, 0), (1, 1) and (0, 2)
    assert np.allclose(space.derivatives([0], pts, 2)[0, :, 3:], 0.0, atol=1e-13)


def test_one_element_mesh_rejects_out_of_range_element():
    space = BrokenSpace(UNIT_RIGHT, 1)
    for k in (-1, 1):
        with pytest.raises(IndexError, match=f"element index {k} out of range"):
            space.eval_elements([k], UNIT_RIGHT.centroids[None])


@pytest.mark.parametrize("k", [-1, -8, 8, 9])
def test_element_basis_rejects_out_of_range_element(k):
    # every evaluation at points checks the element ids: negative ones
    # would otherwise count from the end, as numpy indexing does
    space = BrokenSpace(build_structured_mesh(2), 2)
    points = space.mesh.centroids[:1, None]
    coeffs = np.ones((space.mesh.n_elements, space.ndof_local))
    for evaluate in (lambda e: space.eval_elements(e, points, gradients=True),
                     lambda e: space.derivatives(e, points, 2),
                     lambda e: space.apply(e, points, value=np.ones((1, 1))),
                     lambda e: space.eval_function(coeffs, e, points)):
        with pytest.raises(IndexError, match=f"element index {k} out of range"):
            evaluate([k])
        with pytest.raises(IndexError, match=f"element index {k} out of range"):
            evaluate(np.array([7, k]))
    # the last element is in range
    values = space.eval_elements([7], space.mesh.centroids[7][None, None]).values
    assert values[0, 0, 0] == pytest.approx(1.0 / math.sqrt(space.mesh.areas[7]))


def test_derivatives_match_finite_differences():
    mesh = random_triangle_mesh(7)
    space = BrokenSpace(mesh, 4)
    pts = np.random.default_rng(1).uniform(0.2, 0.8, size=(1, 5, 2))
    ev = space.eval_elements([0], pts, gradients=True)
    # hessians[..., e, d] = D_e D_d phi, the derivative (2 - e - d, e + d)
    # at index 3 + e + d of the graded-lex derivatives
    second = space.derivatives([0], pts, 2)
    hessians = np.stack(
        [np.stack([second[:, :, 3 + e + d] for d in range(2)], axis=-1) for e in range(2)],
        axis=-2,
    )
    eps = 1e-6
    for d, unit in enumerate(np.eye(2)):
        vp = space.eval_elements([0], pts + eps * unit, gradients=True)
        vm = space.eval_elements([0], pts - eps * unit, gradients=True)
        fd_grad = (vp.values - vm.values) / (2 * eps)
        scale = np.maximum(np.abs(ev.gradients[..., d]), 1.0)
        assert np.max(np.abs(fd_grad - ev.gradients[..., d]) / scale) < 1e-6
        fd_hess = (vp.gradients - vm.gradients) / (2 * eps)
        hscale = np.maximum(np.abs(hessians[..., d]), 1.0)
        assert np.max(np.abs(fd_hess - hessians[..., d]) / hscale) < 1e-6


def test_higher_order_derivative_evaluation():
    space = BrokenSpace(UNIT_RIGHT, 3)
    pts = np.array([[[0.3, 0.25]]])
    xx, xxx = polynomial_exponents(3).index((2, 0)), polynomial_exponents(3).index((3, 0))
    third = space.derivatives([0], pts, 3)[..., xxx, :]
    ref = (
        space.derivatives([0], pts + [1e-5, 0], 3)[..., xx, :]
        - space.derivatives([0], pts - [1e-5, 0], 3)[..., xx, :]
    ) / 2e-5
    assert np.allclose(third, ref, rtol=1e-5, atol=1e-4)


def test_gram_conditioning_under_refinement():
    conds = []
    for n in (2, 4, 8):
        mesh = build_structured_mesh(n)
        space = BrokenSpace(mesh, degree=3)
        mono = scaled_monomials(space.volume_points[:1], space.centers[:1], space.scales[:1], 3)
        gram = np.einsum("q,qi,qj->ij", space.volume_weights[0] / mesh.areas[0], mono[0], mono[0])
        conds.append(np.linalg.cond(gram))
    assert conds[2] <= conds[0] * (1 + 1e-8)
    assert conds[1] <= conds[0] * (1 + 1e-8)


def test_broken_space_offsets_and_basis():
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, degree=2)
    assert space.ndof_local == 6
    assert space.ndof_total == 6 * mesh.n_elements
    vals = space.eval_elements([3], mesh.centroids[3][None, None]).values
    assert vals.shape == (1, 1, 6)
    assert vals[0, 0, 0] == pytest.approx(1.0 / math.sqrt(mesh.areas[3]))


def assert_rel_close(actual, expected, rtol):
    scale = max(float(np.max(np.abs(expected))), 1.0e-300)
    assert np.max(np.abs(actual - expected)) <= rtol * scale


def mass_matrices(space):
    """The mass matrices ``(E, n, n)`` of every element on the space's
    volume rule, from the shared reference tables."""
    weights = space.volume_weights
    return space.volume_matrices(slice(None), weights, value=np.ones_like(weights))


def contract(table, coeffs):
    """A basis table ``(E, nq, n, ...)`` applied to per-element
    coefficients ``(E, n)``: ``(E, nq, ...)``."""
    return np.einsum("eqn...,en->eq...", table, coeffs)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("p", range(1, 7))
def test_volume_table_matches_evaluate_basis(p, perturbed, perturbed_mesh):
    # a function from the shared tables mapped to the elements against the
    # same function at the pulled-back volume points, and against the
    # derivatives of the chain rule of the affine map; the Laplacian the
    # space applies against the second derivatives
    mesh = perturbed_mesh(3) if perturbed else build_structured_mesh(3)
    space = BrokenSpace(mesh, p)
    elems = np.arange(mesh.n_elements)
    coeffs = np.random.default_rng(p).standard_normal((mesh.n_elements, space.ndof_local))
    vals, grads = space.eval_function(coeffs, gradients=True)
    pulled_vals, pulled_grads = space.eval_function(coeffs, points=space.volume_points,
                                                    gradients=True)
    assert_rel_close(vals, pulled_vals, 1e-12)
    assert_rel_close(grads, pulled_grads, 1e-12)
    derivatives = space.derivatives(elems, space.volume_points, 2)
    assert_rel_close(vals, contract(derivatives[..., 0, :], coeffs), 1e-12)
    for d in range(2):
        assert_rel_close(grads[..., d], contract(derivatives[..., 1 + d, :], coeffs), 1e-12)
    lap = space.apply(elems, space.volume_points, laplacian=np.ones(space.volume_weights.shape))
    if p >= 2:
        assert_rel_close(lap, derivatives[..., 3, :] + derivatives[..., 5, :], 1e-12)
    else:
        assert np.all(lap == 0.0)
        assert np.all(derivatives[..., 3:, :] == 0.0)


def test_volume_function_matches_basis_table(perturbed_mesh):
    space = BrokenSpace(perturbed_mesh(3), 4)
    coeffs = np.random.default_rng(3).standard_normal((space.mesh.n_elements, space.ndof_local))
    vals, grads = space.eval_function(coeffs, gradients=True)
    elems = np.arange(space.mesh.n_elements)
    tab = space.eval_elements(elems, space.volume_points, gradients=True)
    assert_rel_close(vals, contract(tab.values, coeffs), 1e-12)
    assert_rel_close(grads, contract(tab.gradients, coeffs), 1e-12)
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
    # the reference derivatives at fewer points than basis functions
    # (3 < 15) and at more (49 points), of the reference basis itself and
    # of a batch of polynomials in it: each the derivative matrix applied
    # to the reference basis over its scaled monomials
    space = BrokenSpace(build_structured_mesh(2), 4)
    zeta = space._pull_back(space.volume_points[:, :npoints], slice(None))
    E, nq = zeta.shape[:2]
    center = np.broadcast_to(_REFERENCE_CENTER, (E, 2))
    mono = scaled_monomials(zeta, center, np.full(E, _REFERENCE_SCALE), 4)
    coefficients = np.random.default_rng(4).standard_normal((E, 15, 2))
    basis = _reference_tabulate(zeta, None, 4, 2)
    functions = _reference_tabulate(zeta, coefficients, 4, 2)
    assert basis.shape == (E, nq, 6, 15) and functions.shape == (E, nq, 6, 2)
    Ct = _reference_basis(4).T
    for i, (dx, dy) in enumerate(polynomial_exponents(2)):
        D = derivative_matrix(4, dx, dy)
        expected = mono @ (D.T @ Ct) / _REFERENCE_SCALE ** (dx + dy)
        assert_rel_close(basis[..., i, :], expected, 1e-14)
        assert_rel_close(functions[..., i, :], expected @ coefficients, 1e-14)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("p", range(1, 7))
def test_leading_basis_columns_are_the_lower_degree_basis(p, perturbed, perturbed_mesh):
    # the AR and DAR test bases: dim P_(p-1) and dim P_(p-2) leading columns
    mesh = perturbed_mesh(3) if perturbed else build_structured_mesh(3)
    space = BrokenSpace(mesh, p)
    elems = np.arange(mesh.n_elements)
    values = space.eval_elements(elems, space.volume_points).values
    for q in (p - 1, p - 2):
        if q < 0:
            continue
        lower = BrokenSpace(mesh, q).eval_elements(elems, space.volume_points).values
        assert_rel_close(values[..., : space_dimension(q)], lower, 1e-12)


def test_space_keeps_no_per_element_volume_table():
    space = BrokenSpace(build_structured_mesh(2), 3)
    per_element = space.volume_points.shape[:2]
    for name, value in vars(space).items():
        if isinstance(value, np.ndarray) and value.shape[:2] == per_element:
            assert space.ndof_local not in value.shape[2:], name
    tables = reference_tables(3)
    assert reference_tables(3) is tables
    assert tables.shape == (per_element[1], 6, space.ndof_local)
    assert not tables.flags.writeable
    products = reference_products(3, (((0, 0), (1, 0)),))
    assert reference_products(3, (((0, 0), (1, 0)),)) is products
    assert not products.flags.writeable


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("p", range(1, 7))
def test_closed_form_basis_is_block_triangular_and_orthonormal(p, perturbed, perturbed_mesh):
    mesh = perturbed_mesh(3) if perturbed else build_structured_mesh(3)
    space = BrokenSpace(mesh, p)
    degree = np.sum(polynomial_exponents(p), axis=1)
    # basis function i uses no monomial of a higher degree than its own:
    # every derivative of a higher order is exactly zero
    elems = np.arange(mesh.n_elements)
    derivatives = space.derivatives(elems, space.volume_points[:, :4], p)
    above = degree[:, None] > degree[None, :]
    assert np.all(derivatives[..., above] == 0.0)
    assert np.max(np.abs(mass_matrices(space) - np.eye(space.ndof_local))) < 1e-12


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("p", [1, 3, 6])
def test_element_basis_matches_the_space(p, perturbed, perturbed_mesh):
    # one element's basis is a batch of one of the space's methods, and
    # agrees with the shared volume tables and the whole batch
    mesh = perturbed_mesh(3) if perturbed else build_structured_mesh(3)
    space = BrokenSpace(mesh, p)
    coeffs = np.random.default_rng(p).standard_normal((mesh.n_elements, space.ndof_local))
    vals, grads = space.eval_function(coeffs, gradients=True)
    elems = np.arange(mesh.n_elements)
    derivatives = space.derivatives(elems, space.volume_points, 2)
    for k in range(mesh.n_elements):
        points = space.volume_points[k][None]
        ev = space.eval_elements([k], points, gradients=True)
        assert_rel_close(ev.values[0] @ coeffs[k], vals[k], 1e-12)
        assert_rel_close(np.einsum("qnd,n->qd", ev.gradients[0], coeffs[k]), grads[k], 1e-12)
        assert_rel_close(space.derivatives([k], points, 2)[0], derivatives[k], 1e-12)


def test_reference_basis_is_cached_read_only():
    C = _reference_basis(4)
    assert _reference_basis(4) is C
    assert not C.flags.writeable
    assert np.all(np.triu(C, 1) == 0.0)


def test_space_runs_no_factorization_per_element(monkeypatch, perturbed_mesh):
    # once the per-degree reference basis exists, building a space and
    # evaluating every element basis, its derivatives of any order and one
    # element's basis as a batch of one factor nothing
    mesh = perturbed_mesh(4)
    elems = np.arange(mesh.n_elements)
    points = mesh.centroids[:, None]

    def evaluate():
        space = BrokenSpace(mesh, 5)
        coeffs = np.ones((mesh.n_elements, space.ndof_local))
        laplacian = np.ones(points.shape[:2])
        return (*space.eval_function(coeffs, gradients=True),
                space.apply(elems, points, laplacian=laplacian),
                space.eval_elements(elems, points, gradients=True).gradients,
                space.derivatives(elems, points, 6),
                space.derivatives([3], points[3][None], 6))

    expected = evaluate()

    def refuse(*args, **kwargs):
        raise AssertionError("factorization called while evaluating a broken space")

    for name in ("qr", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for got, want in zip(evaluate(), expected):
        np.testing.assert_array_equal(got, want)


def squeezed_mesh(n, aspect):
    """The ``n x n`` structured mesh squeezed to height ``1/aspect``: needle
    triangles with interior facets."""
    base = build_structured_mesh(n)
    return Mesh2D(vertices=base.vertices * [1.0, 1.0 / aspect], triangles=base.triangles)


@pytest.mark.parametrize("kind", ["structured", "perturbed", "shuffled", "squeezed", "sliver"])
@pytest.mark.parametrize("p", range(1, 7))
def test_facet_traces_match_pulled_back_evaluation(p, kind, perturbed_mesh, shuffled_mesh,
                                                   sliver_mesh):
    # the traces gathered from the reference edge tables against the basis
    # and a function evaluated at the pulled-back facet rule points, from
    # K1 on every facet and from K2 on the interior ones; the sliver is not
    # turned, as the pulled-back points of a turned needle are themselves
    # some 45 ulp off the reference edge
    mesh = {
        "structured": lambda: build_structured_mesh(3),
        "perturbed": lambda: perturbed_mesh(3),
        "shuffled": lambda: shuffled_mesh(4),
        "squeezed": lambda: squeezed_mesh(3, 1e2),
        "sliver": lambda: sliver_mesh(1e3, 0.0),
    }[kind]()
    space = BrokenSpace(mesh, p)
    points, _ = space.facet_rule
    np.testing.assert_array_equal(points, facet_quadrature(mesh, 2 * p + 2)[0])
    coeffs = np.random.default_rng(p).standard_normal((mesh.n_elements, space.ndof_local))
    sides = [(0, np.arange(mesh.n_facets))]
    if len(mesh.interior_facets):
        sides.append((1, mesh.interior_facets))
    for side, facets in sides:
        elems = (mesh.facet_left, mesh.facet_right)[side][facets]
        pulled = space.eval_elements(elems, points[facets], gradients=True)
        normal = np.einsum("fqid,fd->fqi", pulled.gradients, mesh.facet_normals[facets])
        values, dn = space.facet_traces(facets, side, normal_derivatives=True)
        assert_rel_close(values, pulled.values, 1e-13)
        assert_rel_close(dn, normal, 1e-13)
        np.testing.assert_array_equal(space.facet_traces(facets, side), values)
        function = space.eval_function(coeffs, elems, points[facets])
        assert_rel_close(space.facet_traces(facets, side, coeffs), function, 1e-13)


def test_facet_traces_from_k2_reject_boundary_facets():
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    facet = mesh.boundary_facets[0]
    with pytest.raises(ValueError, match=f"boundary facet {facet} has no K2"):
        space.facet_traces(mesh.boundary_facets, 1)


NO_ELEMENTS = np.arange(0)
#: evaluations of the space ``s`` with coefficients ``c`` on the element
#: ids ``e`` (the empty batch in the cases named ``-no-elements``)
EMPTY_BATCHES = {
    "eval_elements-no-elements": (
        lambda s, c, e: s.eval_elements(e, np.empty((0, 4, 2)), gradients=True),
        [(0, 4, 10), (0, 4, 10, 2)],
    ),
    "eval_elements-no-points": (
        lambda s, c, e: s.eval_elements([0, 5], np.empty((2, 0, 2)), gradients=True),
        [(2, 0, 10), (2, 0, 10, 2)],
    ),
    "derivatives-no-elements": (
        lambda s, c, e: (s.derivatives(e, np.empty((0, 4, 2)), 2),),
        [(0, 4, 6, 10)],
    ),
    "apply-no-elements": (
        lambda s, c, e: (s.apply(e, np.empty((0, 4, 2)), value=np.empty((0, 4)),
                                 laplacian=np.empty((0, 4))),),
        [(0, 4, 10)],
    ),
    "eval_function-points-no-elements": (
        lambda s, c, e: s.eval_function(c, e, np.empty((0, 4, 2)), gradients=True),
        [(0, 4), (0, 4, 2)],
    ),
    "eval_function-volume-no-elements": (
        lambda s, c, e: s.eval_function(c, e, gradients=True),
        [(0, 49), (0, 49, 2)],
    ),
}


def evaluate_batch(name, elements):
    """Shapes of the results of the ``name`` evaluation on ``elements``."""
    space = BrokenSpace(build_structured_mesh(2), 3)
    coeffs = np.ones((space.mesh.n_elements, space.ndof_local))
    evaluate, _ = EMPTY_BATCHES[name]
    result = evaluate(space, coeffs, elements)
    if hasattr(result, "values"):
        result = (result.values, result.gradients)
    return [np.shape(r) for r in result]


@pytest.mark.parametrize("name", EMPTY_BATCHES)
def test_empty_batches_evaluate_to_empty_results(name):
    # a mesh without interior facets hands the evaluations empty batches
    assert evaluate_batch(name, NO_ELEMENTS) == EMPTY_BATCHES[name][1]


@pytest.mark.parametrize("name", [name for name in EMPTY_BATCHES if name.endswith("-no-elements")])
def test_a_plain_empty_list_is_an_empty_batch(name):
    # np.asarray([]) is a float array; the space reads it as integer ids
    assert evaluate_batch(name, []) == EMPTY_BATCHES[name][1]
    with pytest.raises(IndexError):
        evaluate_batch(name, [0.5])
