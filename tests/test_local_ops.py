import functools
import math

import numpy as np
import pytest
import sympy as sp

from trefftzdg.basis import (
    BrokenSpace,
    ElementBasis,
    l2_project,
    polynomial_exponents,
    space_dimension,
)
from trefftzdg.coefficients import ScalarField, builtin_case, manufactured_case
from trefftzdg.local_ops import (
    AR,
    DAR,
    DAR_BOX,
    KINDS,
    QT_DIFFUSION,
    MultiIndexSet,
    assemble_local_operator,
    assemble_local_operators,
    compute_box,
    leibniz_point_derivative,
    operator_row_count as q_dimension,
)
from trefftzdg.mesh import Mesh2D, build_structured_mesh
from trefftzdg.quadrature import box_rule, triangle_rule

UNIT_RIGHT = Mesh2D(
    vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    triangles=np.array([[0, 1, 2]]),
)


def test_multi_index_set():
    mis = MultiIndexSet(2)
    assert tuple(mis) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert len(MultiIndexSet(3)) == 10
    assert len(MultiIndexSet(0)) == 1


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_row_counts(p):
    assert q_dimension(AR, p) == p * (p + 1) // 2
    assert q_dimension(DAR, p) == (p - 1) * p // 2
    assert q_dimension(DAR_BOX, p) == (p - 1) * p // 2
    assert q_dimension(QT_DIFFUSION, p) == (p - 1) * p // 2
    assert q_dimension(AR, 1) == 1


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_assembled_shapes(kind):
    p = 3
    coeffs = builtin_case("QT_DIFFUSION" if kind != AR else "AR_EXAMPLE")
    mesh = build_structured_mesh(2)
    basis = ElementBasis.from_element(mesh, 1, degree=p)
    op = assemble_local_operator(kind, mesh, 1, basis, coeffs)
    assert op.matrix.shape == (q_dimension(kind, p), space_dimension(p))
    assert op.rhs.shape == (q_dimension(kind, p),)
    assert op.kind == kind and op.element == 1


def test_ar_p1_constant_column_and_nullspace():
    coeffs = manufactured_case(beta=(1, 0), gamma=0, exact=sp.Symbol("x"))
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=1)
    op = assemble_local_operator(AR, UNIT_RIGHT, 0, basis, coeffs)
    assert op.matrix.shape == (1, 3)
    # column of the constant basis function: derivative of a constant
    assert abs(op.matrix[0, 0]) < 1e-14
    # dense nullspace oracle
    _, svals, _ = np.linalg.svd(op.matrix)
    nullity = op.matrix.shape[1] - np.sum(svals > 1e-12 * svals[0])
    assert nullity == 2


def test_dar_harmonic_column_is_annihilated():
    coeffs = manufactured_case(alpha=1, exact=sp.sympify("x**2 - y**2"))
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    basis = space.element_basis(3)
    op = assemble_local_operator(DAR, mesh, 3, basis, coeffs)
    rule = triangle_rule(mesh.vertices[mesh.triangles[3]], 8, positive=True)
    c = l2_project(lambda x, y: x * x - y * y, basis, rule)
    assert np.max(np.abs(op.matrix @ c)) < 1e-12


def test_qt_row_against_symbolic_oracle():
    coeffs = builtin_case("QT_DIFFUSION")
    mesh = build_structured_mesh(2)
    p = 2
    basis = ElementBasis.from_element(mesh, 5, degree=p)
    op = assemble_local_operator(QT_DIFFUSION, mesh, 5, basis, coeffs)
    assert op.matrix.shape == (1, 6)
    # symbolic differentiation oracle applied to the orthonormalized basis
    x, y = sp.symbols("x y", real=True)
    cx, cy = basis.center
    hk = basis.scale
    alpha = 1 + x + y
    xk = mesh.centroids[5]
    expected = np.empty(basis.dim)
    for j in range(basis.dim):
        phi = sum(
            basis.G[j, m] * ((x - cx) / hk) ** a * ((y - cy) / hk) ** b
            for m, (a, b) in enumerate(basis.exponents)
        )
        div_term = sp.diff(alpha * sp.diff(phi, x), x) + sp.diff(alpha * sp.diff(phi, y), y)
        expected[j] = -hk ** 1.5 * float(div_term.subs({x: xk[0], y: xk[1]}))
    assert np.allclose(op.matrix[0], expected, rtol=1e-10, atol=1e-10)


def test_qt_row_for_x_squared_combination():
    coeffs = manufactured_case(alpha=1, exact=sp.sympify("x**2"))
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=2)
    op = assemble_local_operator(QT_DIFFUSION, UNIT_RIGHT, 0, basis, coeffs)
    rule = triangle_rule(UNIT_RIGHT.vertices[UNIT_RIGHT.triangles[0]], 8, positive=True)
    c = l2_project(lambda x, y: x * x, basis, rule)
    h = UNIT_RIGHT.h[0]
    # Laplacian of x^2 is 2; the row carries the -div(alpha grad .) sign
    assert op.matrix[0] @ c == pytest.approx(-2.0 * h ** 1.5, rel=1e-12)
    assert abs(op.matrix[0] @ c) == pytest.approx(2.0 * h ** 1.5, rel=1e-12)


def test_leibniz_constant_alpha_collapses():
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=3)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(basis.dim)
    alpha = ScalarField(2.5)
    pt = np.array([0.3, 0.3])
    for index in ((0, 0), (1, 0), (0, 1)):
        got = leibniz_point_derivative(index, basis, c, alpha, pt)
        lap = basis.derivative(pt[None], (index[0] + 2, index[1])) + basis.derivative(
            pt[None], (index[0], index[1] + 2)
        )
        assert got == pytest.approx(2.5 * float(lap[0] @ c), rel=1e-12, abs=1e-12)


def test_leibniz_linear_alpha_example():
    # alpha = x, w = x^2, i = (1,0): D(div(x * (2x, 0))) = D(4x) = 4
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=2)
    rule = triangle_rule(UNIT_RIGHT.vertices[UNIT_RIGHT.triangles[0]], 8, positive=True)
    c = l2_project(lambda x, y: x * x, basis, rule)
    alpha = ScalarField(sp.Symbol("x"))
    got = leibniz_point_derivative((1, 0), basis, c, alpha, np.array([0.4, 0.2]))
    assert got == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leibniz_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x, y = sp.symbols("x y", real=True)
    alpha_expr = 1.5 + 0.3 * x + 0.2 * y + 0.1 * sp.sin(x + y)
    alpha = ScalarField(alpha_expr)
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=4)
    c = rng.standard_normal(basis.dim)
    pt = rng.uniform(0.2, 0.5, size=2)
    alpha_fn = lambda px, py: alpha(px, py)

    def div_alpha_grad(px, py):
        eps = 1e-5
        vals = []
        for d, unit in enumerate(np.eye(2)):
            wp = _w_grad(basis, c, px + eps * unit[0], py + eps * unit[1])[d]
            wm = _w_grad(basis, c, px - eps * unit[0], py - eps * unit[1])[d]
            ap = alpha_fn(px + eps * unit[0], py + eps * unit[1])
            am = alpha_fn(px - eps * unit[0], py - eps * unit[1])
            vals.append((ap * wp - am * wm) / (2 * eps))
        return vals[0] + vals[1]

    for index in ((0, 0), (1, 0), (0, 1)):
        got = leibniz_point_derivative(index, basis, c, alpha, pt)
        eps = 1e-4
        if index == (0, 0):
            fd = div_alpha_grad(pt[0], pt[1])
        elif index == (1, 0):
            fd = (div_alpha_grad(pt[0] + eps, pt[1]) - div_alpha_grad(pt[0] - eps, pt[1])) / (2 * eps)
        else:
            fd = (div_alpha_grad(pt[0], pt[1] + eps) - div_alpha_grad(pt[0], pt[1] - eps)) / (2 * eps)
        assert got == pytest.approx(fd, rel=2e-6, abs=2e-6)


def _w_grad(basis, c, px, py):
    ev = basis.eval(np.array([[px, py]]), gradients=True)
    return ev.gradients[0].T @ c


def test_leibniz_missing_oracle_order():
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=4)
    alpha = ScalarField.from_callable(lambda x, y: 1.0 + 0 * x, max_order=1)
    with pytest.raises(ValueError):
        leibniz_point_derivative((1, 0), basis, np.zeros(basis.dim), alpha, np.array([0.3, 0.3]))


def barycentric(mesh, k, pts):
    v = mesh.vertices[mesh.triangles[k]]
    T = np.column_stack([v[1] - v[0], v[2] - v[0]])
    lam = np.linalg.solve(T, (pts - v[0]).T).T
    return np.column_stack([1 - lam.sum(axis=1), lam])


def test_compute_box_unit_right_triangle():
    box = compute_box(UNIT_RIGHT, 0, scale=0.25)
    r = (2 - math.sqrt(2.0)) / 2
    assert np.allclose(box.center, [r, r], atol=1e-14)
    assert box.side == pytest.approx(math.sqrt(2.0) / 4)
    # point-in-triangle containment oracle on the corners
    lam = barycentric(UNIT_RIGHT, 0, box.corners)
    assert np.all(lam >= -1e-12)


def test_compute_box_errors_and_contract():
    with pytest.raises(ValueError):
        compute_box(UNIT_RIGHT, 0, scale=0.0)
    with pytest.raises(ValueError):
        compute_box(UNIT_RIGHT, 0, scale=-1.0)
    mesh = build_structured_mesh(3)
    for k in range(mesh.n_elements):
        box = compute_box(mesh, k, scale=0.9)
        lam = barycentric(mesh, k, box.corners)
        assert np.all(lam >= -1e-12)
        assert box.side >= 0.9**50 * 0.9 * mesh.h[k]
        assert box.h == pytest.approx(box.side * math.sqrt(2.0))


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_compute_box_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match=f"box scale must be positive and finite, got {scale}"):
        compute_box(UNIT_RIGHT, 0, scale=scale)


def test_kind_preconditions():
    coeffs = builtin_case("DAR_EXAMPLE")
    basis1 = ElementBasis.from_element(UNIT_RIGHT, 0, degree=1)
    for kind in (DAR, DAR_BOX, QT_DIFFUSION):
        with pytest.raises(ValueError):
            assemble_local_operator(kind, UNIT_RIGHT, 0, basis1, coeffs)
    with pytest.raises(ValueError):
        assemble_local_operator("NOPE", UNIT_RIGHT, 0, basis1, coeffs)


def test_nonpositive_alpha_rejected():
    coeffs = manufactured_case(alpha=sp.sympify("x - 2"), exact=sp.sympify("x"))
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=2)
    with pytest.raises(ValueError, match="positive"):
        assemble_local_operator(DAR, UNIT_RIGHT, 0, basis, coeffs)


def test_qt_requires_exact_oracles():
    coeffs = builtin_case("QT_DIFFUSION")
    weak_alpha = ScalarField.from_callable(lambda x, y: 1 + x + y, max_order=1)
    coeffs_weak = type(coeffs)(
        f=coeffs.f, g_D=coeffs.g_D, alpha=weak_alpha, beta=coeffs.beta,
        gamma=coeffs.gamma, exact_solution=coeffs.exact_solution,
    )
    basis = ElementBasis.from_element(UNIT_RIGHT, 0, degree=4)
    with pytest.raises(ValueError):
        assemble_local_operator(QT_DIFFUSION, UNIT_RIGHT, 0, basis, coeffs_weak)


@pytest.mark.parametrize(
    "kind,case", [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
                  (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")]
)
def test_full_row_rank_for_builtins(kind, case):
    coeffs = builtin_case(case)
    mesh = build_structured_mesh(4)
    space = BrokenSpace(mesh, 3)
    ops = assemble_local_operators(kind, space, coeffs)
    for op in ops[:: max(1, len(ops) // 8)]:
        svals = np.linalg.svd(op.matrix, compute_uv=False)
        assert svals[-1] > 1e-8 * svals[0]


def test_batch_matches_single_element():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 3)
    ops = assemble_local_operators(DAR, space, coeffs)
    k = 5
    single = assemble_local_operator(DAR, mesh, k, space.element_basis(k), coeffs)
    assert np.allclose(ops[k].matrix, single.matrix, atol=1e-11)
    assert np.allclose(ops[k].rhs, single.rhs, atol=1e-11)


def perturbed_grid_mesh():
    """3x3 grid of the unit square with its four interior vertices moved,
    orientation kept; only the two corner triangles without an interior
    vertex stay congruent."""
    xs = np.linspace(0.0, 1.0, 4)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    interior = [5, 6, 9, 10]
    verts[interior] += [[0.07, -0.05], [-0.06, 0.03], [0.04, 0.06], [-0.03, -0.08]]
    tris = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = 4 * i + j, 4 * (i + 1) + j, 4 * (i + 1) + j + 1, 4 * i + j + 1
            tris += [[a, b, c], [a, c, d]]
    return Mesh2D(vertices=verts, triangles=np.array(tris))


def reference_operator(kind, mesh, k, basis, coeffs, box_scale=0.25):
    """Per-element operator written out directly. AR/DAR/DAR_BOX: the test
    basis is orthonormalized on the test domain's own rule, and the strong
    form is evaluated term by term from the trial basis derivatives.
    QT_DIFFUSION: symbolic derivatives of the strong form at the centroid,
    as in :func:`test_qt_row_against_symbolic_oracle`."""
    p = basis.degree
    if kind == QT_DIFFUSION:
        return reference_qt_operator(mesh, k, basis, coeffs)
    if kind == DAR_BOX:
        box = compute_box(mesh, k, box_scale)
        rule = box_rule(box.center, box.side, 2 * p + 4)
        q_basis = ElementBasis.from_rule(box.center, box.h, p - 2, rule)
        scale = box.h
    else:
        rule = triangle_rule(mesh.vertices[mesh.triangles[k]], 2 * p + 4, positive=True)
        q_degree = p - 1 if kind == AR else p - 2
        q_basis = ElementBasis.from_rule(basis.center, basis.scale, q_degree, rule)
        scale = math.sqrt(mesh.h[k]) if kind == AR else mesh.h[k]
    x, y = rule.points[:, 0], rule.points[:, 1]
    ev = basis.eval(rule.points, gradients=True, hessians=True)
    gx, gy = ev.gradients[..., 0], ev.gradients[..., 1]
    vals = np.zeros_like(ev.values)
    if kind != AR:
        a = coeffs.alpha
        lap = ev.hessians[..., 0, 0] + ev.hessians[..., 1, 1]
        vals -= a(x, y)[:, None] * lap
        vals -= a.derivative(1, 0)(x, y)[:, None] * gx + a.derivative(0, 1)(x, y)[:, None] * gy
    if coeffs.beta is not None:
        b = coeffs.beta(x, y)
        vals += b[:, None, 0] * gx + b[:, None, 1] * gy
    if coeffs.gamma is not None:
        vals += coeffs.gamma(x, y)[:, None] * ev.values
    qv = q_basis.eval(rule.points).values
    matrix = np.einsum("q,qi,qj->ij", rule.weights, qv, scale * vals)
    rhs = np.einsum("q,q,qi->i", rule.weights, scale * coeffs.f(x, y), qv)
    return matrix, rhs


def reference_qt_operator(mesh, k, basis, coeffs):
    """Rows ``-h^(1.5+|i|) D^i div(alpha grad phi_j)`` and loads
    ``h^(1.5+|i|) D^i f`` at the centroid for ``|i| <= p - 2``, each
    monomial of the trial basis differentiated symbolically as a whole."""
    oracle = symbolic_qt_oracle(coeffs.alpha.expr, coeffs.f.expr, basis.degree)
    point = mesh.centroids[k]
    matrix, rhs = [], []
    for (ix, iy), mono_rows, f_derivative in oracle:
        scale = mesh.h[k] ** (1.5 + ix + iy)
        mono = np.array(mono_rows(*point, *basis.center, basis.scale), dtype=float)
        matrix.append(-scale * (basis.G @ mono))
        rhs.append(scale * float(f_derivative(*point)))
    return np.array(matrix), np.array(rhs)


@functools.lru_cache(maxsize=None)
def symbolic_qt_oracle(alpha, f, p):
    """Per multi-index ``i``: ``D^i div(alpha grad m)`` of every scaled
    monomial ``m`` of degree ``<= p`` as a function of the point, the center
    and the scale, and ``D^i f`` as a function of the point."""
    x, y, cx, cy, s = sp.symbols("x y cx cy s", real=True)
    divs = []
    for a, b in polynomial_exponents(p):
        m = ((x - cx) / s) ** a * ((y - cy) / s) ** b
        divs.append(sp.diff(alpha * sp.diff(m, x), x) + sp.diff(alpha * sp.diff(m, y), y))
    return [
        (
            (ix, iy),
            sp.lambdify((x, y, cx, cy, s), [sp.diff(d, x, ix, y, iy) for d in divs]),
            sp.lambdify((x, y), sp.diff(f, x, ix, y, iy)),
        )
        for ix, iy in MultiIndexSet(p - 2)
    ]


def assert_batch_and_single_match_reference(kind, coeffs, p):
    mesh = perturbed_grid_mesh()
    space = BrokenSpace(mesh, p)
    ops = assemble_local_operators(kind, space, coeffs)
    for k in range(mesh.n_elements):
        basis = space.element_basis(k)
        matrix, rhs = reference_operator(kind, mesh, k, basis, coeffs)
        single = assemble_local_operator(kind, mesh, k, basis, coeffs)
        for op in (ops[k], single):
            assert op.element == k
            np.testing.assert_allclose(op.matrix, matrix, rtol=1e-10, atol=1e-11)
            np.testing.assert_allclose(op.rhs, rhs, rtol=1e-10, atol=1e-11)


@pytest.mark.parametrize(
    "kind,case",
    [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"), (DAR_BOX, "DAR_EXAMPLE"),
     (QT_DIFFUSION, "QT_DIFFUSION")],
)
def test_batch_and_single_match_reference(kind, case):
    assert_batch_and_single_match_reference(kind, builtin_case(case), 3)


def test_qt_batch_and_single_match_reference_for_curved_alpha():
    # every partial derivative of alpha up to the order 3 used at p = 4 is
    # nonzero, so every Leibniz term D^l alpha * D^(i-l) (...) enters a row
    x, y = sp.symbols("x y", real=True)
    coeffs = manufactured_case(
        alpha=2 + x**3 + x**2 * y + x * y**2 + sp.sin(y), exact=sp.sin(sp.pi * (x + y))
    )
    assert_batch_and_single_match_reference(QT_DIFFUSION, coeffs, 4)


def test_qt_coefficient_evaluations_do_not_grow_with_the_mesh(monkeypatch):
    # every coefficient field is evaluated once per element batch, not once
    # per element
    calls = []
    original = ScalarField.__call__

    def counting(self, x, y):
        calls.append(1)
        return original(self, x, y)

    monkeypatch.setattr(ScalarField, "__call__", counting)
    coeffs = builtin_case("QT_DIFFUSION")
    counts = []
    for n in (2, 8):
        space = BrokenSpace(build_structured_mesh(n), 3)
        before = len(calls)
        assemble_local_operators(QT_DIFFUSION, space, coeffs)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("kind,case", [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE")])
def test_projection_residual_shrinks_under_refinement(kind, case):
    coeffs = builtin_case(case)
    u = coeffs.exact_solution
    residuals = []
    for n in (2, 4, 8):
        mesh = build_structured_mesh(n)
        space = BrokenSpace(mesh, 2)
        ops = assemble_local_operators(kind, space, coeffs)
        total = 0.0
        for k, op in enumerate(ops):
            rule = triangle_rule(mesh.vertices[mesh.triangles[k]], 8, positive=True)
            c = l2_project(u, space.element_basis(k), rule)
            total += np.sum((op.matrix @ c - op.rhs) ** 2)
        residuals.append(math.sqrt(total))
    assert residuals[1] < residuals[0] and residuals[2] < residuals[1]
    rate = math.log(residuals[1] / residuals[2]) / math.log(2.0)
    assert rate >= 0.5


def test_qt_dar_kernels_agree_for_constant_alpha():
    coeffs = manufactured_case(alpha=2.0, exact=sp.sympify("x**2 - y**2"))
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    basis = space.element_basis(2)
    from scipy.linalg import null_space, subspace_angles

    op_qt = assemble_local_operator(QT_DIFFUSION, mesh, 2, basis, coeffs)
    op_dar = assemble_local_operator(DAR, mesh, 2, basis, coeffs)
    k_qt = null_space(op_qt.matrix)
    k_dar = null_space(op_dar.matrix)
    assert k_qt.shape == k_dar.shape
    assert np.max(subspace_angles(k_qt, k_dar)) < 1e-8
