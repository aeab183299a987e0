import functools
import math

import numpy as np
import pytest
import sympy as sp

from trefftzdg.basis import (
    BrokenSpace,
    _orthonormalizer,
    _reference_basis,
    polynomial_exponents,
    scaled_monomials,
    space_dimension,
)
from trefftzdg.coefficients import ScalarField, builtin_case, manufactured_case
from trefftzdg.local_ops import (
    AR,
    DAR,
    DAR_BOX,
    KINDS,
    QT_DIFFUSION,
    ElementBox,
    LocalOperatorBatch,
    _leibniz_rows,
    _unit_box_test_basis,
    assemble_local_operator,
    assemble_local_operators,
    compute_box,
    operator_row_count as q_dimension,
)
from trefftzdg.mesh import Mesh2D, build_structured_mesh
from trefftzdg.quadrature import box_rule, triangle_rule

from projection import l2_projection

UNIT_RIGHT = Mesh2D(
    vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    triangles=np.array([[0, 1, 2]]),
)


def test_multi_index_set():
    assert polynomial_exponents(2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert len(polynomial_exponents(3)) == 10
    assert len(polynomial_exponents(0)) == 1


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
    space = BrokenSpace(build_structured_mesh(2), p)
    op = assemble_local_operator(kind, space, 1, coeffs)
    assert op.matrix.shape == (q_dimension(kind, p), space_dimension(p))
    assert op.rhs.shape == (q_dimension(kind, p),)
    assert op.kind == kind and op.element == 1


def test_ar_p1_constant_column_and_nullspace():
    coeffs = manufactured_case(beta=(1, 0), gamma=0, exact=sp.Symbol("x"))
    op = assemble_local_operator(AR, BrokenSpace(UNIT_RIGHT, 1), 0, coeffs)
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
    op = assemble_local_operator(DAR, space, 3, coeffs)
    c = l2_projection(space, lambda x, y: x * x - y * y, 8, [3])[0]
    assert np.max(np.abs(op.matrix @ c)) < 1e-12


def test_qt_row_against_symbolic_oracle():
    coeffs = builtin_case("QT_DIFFUSION")
    mesh = build_structured_mesh(2)
    p = 2
    space = BrokenSpace(mesh, p)
    op = assemble_local_operator(QT_DIFFUSION, space, 5, coeffs)
    assert op.matrix.shape == (1, 6)
    # symbolic differentiation oracle applied to the orthonormal reference
    # basis composed with the element's inverse map
    x, y = sp.symbols("x y", real=True)
    alpha = 1 + x + y
    xk = mesh.centroids[5]
    hk = mesh.h[5]
    det = space.dets[5]
    zeta = reference_coordinates(x, y, *space.origins[5], *(space.adjugates[5] / det).ravel())
    mono = reference_monomials(*zeta, p)
    C = _reference_basis(p)
    dim = space.ndof_local
    expected = np.empty(dim)
    for j in range(dim):
        phi = sum(C[j, m] * mono[m] for m in range(dim)) / sp.sqrt(det)
        div_term = sp.diff(alpha * sp.diff(phi, x), x) + sp.diff(alpha * sp.diff(phi, y), y)
        expected[j] = -hk ** 1.5 * float(div_term.subs({x: xk[0], y: xk[1]}))
    assert np.allclose(op.matrix[0], expected, rtol=1e-10, atol=1e-10)


def test_qt_row_for_x_squared_combination():
    coeffs = manufactured_case(alpha=1, exact=sp.sympify("x**2"))
    space = BrokenSpace(UNIT_RIGHT, 2)
    op = assemble_local_operator(QT_DIFFUSION, space, 0, coeffs)
    c = l2_projection(space, lambda x, y: x * x, 8)[0]
    h = UNIT_RIGHT.h[0]
    # Laplacian of x^2 is 2; the row carries the -div(alpha grad .) sign
    assert op.matrix[0] @ c == pytest.approx(-2.0 * h ** 1.5, rel=1e-12)
    assert abs(op.matrix[0] @ c) == pytest.approx(2.0 * h ** 1.5, rel=1e-12)


def leibniz_value(space, index, c, alpha, point):
    """``D^index div(alpha grad w)`` at ``point`` of the polynomial ``w``
    with coefficients ``c`` on the one element of ``space``: the Leibniz
    rows of the quasi-Trefftz kernel, fed with the space's exact
    derivatives there, as a batch of one."""
    point = np.reshape(point, (1, 2))
    phi = space.derivatives([0], point[None], sum(index) + 2)[:, 0]
    return float(_leibniz_rows([index], alpha, point, phi)[0, 0] @ c)


def test_leibniz_constant_alpha_collapses():
    space = BrokenSpace(UNIT_RIGHT, 3)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(space.ndof_local)
    alpha = ScalarField(2.5)
    pt = np.array([0.3, 0.3])
    derivatives = space.derivatives([0], pt[None, None], 3)[0, 0]
    position = polynomial_exponents(3).index
    for ix, iy in ((0, 0), (1, 0), (0, 1)):
        got = leibniz_value(space, (ix, iy), c, alpha, pt)
        lap = derivatives[position((ix + 2, iy))] + derivatives[position((ix, iy + 2))]
        assert got == pytest.approx(2.5 * float(lap @ c), rel=1e-12, abs=1e-12)


def test_leibniz_linear_alpha_example():
    # alpha = x, w = x^2, i = (1,0): D(div(x * (2x, 0))) = D(4x) = 4
    space = BrokenSpace(UNIT_RIGHT, 2)
    c = l2_projection(space, lambda x, y: x * x, 8)[0]
    alpha = ScalarField(sp.Symbol("x"))
    got = leibniz_value(space, (1, 0), c, alpha, np.array([0.4, 0.2]))
    assert got == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leibniz_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x, y = sp.symbols("x y", real=True)
    alpha_expr = 1.5 + 0.3 * x + 0.2 * y + 0.1 * sp.sin(x + y)
    alpha = ScalarField(alpha_expr)
    space = BrokenSpace(UNIT_RIGHT, 4)
    c = rng.standard_normal(space.ndof_local)
    pt = rng.uniform(0.2, 0.5, size=2)
    alpha_fn = lambda px, py: alpha(px, py)

    def div_alpha_grad(px, py):
        eps = 1e-5
        vals = []
        for d, unit in enumerate(np.eye(2)):
            wp = _w_grad(space, c, px + eps * unit[0], py + eps * unit[1])[d]
            wm = _w_grad(space, c, px - eps * unit[0], py - eps * unit[1])[d]
            ap = alpha_fn(px + eps * unit[0], py + eps * unit[1])
            am = alpha_fn(px - eps * unit[0], py - eps * unit[1])
            vals.append((ap * wp - am * wm) / (2 * eps))
        return vals[0] + vals[1]

    for index in ((0, 0), (1, 0), (0, 1)):
        got = leibniz_value(space, index, c, alpha, pt)
        eps = 1e-4
        if index == (0, 0):
            fd = div_alpha_grad(pt[0], pt[1])
        elif index == (1, 0):
            fd = (div_alpha_grad(pt[0] + eps, pt[1]) - div_alpha_grad(pt[0] - eps, pt[1])) / (2 * eps)
        else:
            fd = (div_alpha_grad(pt[0], pt[1] + eps) - div_alpha_grad(pt[0], pt[1] - eps)) / (2 * eps)
        assert got == pytest.approx(fd, rel=2e-6, abs=2e-6)


def _w_grad(space, c, px, py):
    ev = space.eval_elements([0], np.array([[[px, py]]]), gradients=True)
    return ev.gradients[0, 0].T @ c


def corners(box):
    """The four corners of an axis-aligned box."""
    offsets = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    return box.center + 0.5 * box.side * offsets


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
    lam = barycentric(UNIT_RIGHT, 0, corners(box))
    assert np.all(lam >= -1e-12)


def test_compute_box_errors_and_contract():
    with pytest.raises(ValueError):
        compute_box(UNIT_RIGHT, 0, scale=0.0)
    with pytest.raises(ValueError):
        compute_box(UNIT_RIGHT, 0, scale=-1.0)
    mesh = build_structured_mesh(3)
    for k in range(mesh.n_elements):
        box = compute_box(mesh, k, scale=0.9)
        lam = barycentric(mesh, k, corners(box))
        assert np.all(lam >= -1e-12)
        assert box.side >= 0.9**50 * 0.9 * mesh.h[k]
        assert box.h == pytest.approx(box.side * math.sqrt(2.0))


def test_compute_box_clips_to_the_largest_square_inside(perturbed_mesh):
    mesh = perturbed_mesh(3)
    for k in range(mesh.n_elements):
        fit = compute_box(mesh, k, scale=1e300)
        lam = barycentric(mesh, k, corners(fit))
        # inside, and a corner on an edge: no larger square fits
        assert np.all(lam >= -1e-12) and np.min(lam) <= 1e-12
        assert np.allclose(fit.center, mesh.incenters[k])
        half = compute_box(mesh, k, scale=0.5 * fit.side / mesh.h[k])
        assert half.side == pytest.approx(0.5 * fit.side, rel=1e-14)
    # structured meshes fit sides up to (1 - 1/sqrt(2)) h_K = 0.2929 h_K
    mesh = build_structured_mesh(2)
    for k in range(mesh.n_elements):
        assert compute_box(mesh, k, scale=0.25).side == 0.25 * mesh.h[k]
        limit = (1 - 1 / math.sqrt(2.0)) * mesh.h[k]
        assert compute_box(mesh, k, scale=0.3).side == pytest.approx(limit, rel=1e-14)


def test_compute_box_rejects_out_of_range_element():
    for k in (-1, 1):
        with pytest.raises(IndexError, match=f"element index {k} out of range"):
            compute_box(UNIT_RIGHT, k, scale=0.25)


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_compute_box_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match=f"box scale must be positive and finite, got {scale}"):
        compute_box(UNIT_RIGHT, 0, scale=scale)


def test_kind_preconditions():
    coeffs = builtin_case("DAR_EXAMPLE")
    space1 = BrokenSpace(UNIT_RIGHT, 1)
    for kind in (DAR, DAR_BOX, QT_DIFFUSION):
        with pytest.raises(ValueError):
            assemble_local_operator(kind, space1, 0, coeffs)
    with pytest.raises(ValueError):
        assemble_local_operator("NOPE", space1, 0, coeffs)


@pytest.mark.parametrize("entry", ["assemble_local_operator", "build_embedding", "run_diagnostics"])
def test_ar_kind_rejects_data_with_diffusion(entry):
    # AR would embed the kernel of the advection-reaction operator of data
    # whose PDE has diffusion, a different PDE from the one assembled
    from trefftzdg.analysis import run_diagnostics
    from trefftzdg.embedding import build_embedding

    coeffs, mesh = builtin_case("DAR_EXAMPLE"), build_structured_mesh(2)
    with pytest.raises(ValueError, match="alpha"):
        if entry == "assemble_local_operator":
            assemble_local_operator(AR, BrokenSpace(mesh, 3), 0, coeffs)
        elif entry == "build_embedding":
            build_embedding(BrokenSpace(mesh, 3), coeffs, AR)
        else:
            run_diagnostics(BrokenSpace(mesh, 3), AR, coeffs)


@pytest.mark.parametrize("field", ["beta", "gamma"])
@pytest.mark.parametrize("entry", ["assemble_local_operator", "build_embedding", "run_diagnostics"])
def test_qt_kind_rejects_data_with_advection_or_reaction(entry, field):
    # the quasi-Trefftz kernel reads only alpha and f, so on data with
    # advection or reaction it would embed the kernel of pure diffusion
    from trefftzdg.analysis import run_diagnostics
    from trefftzdg.embedding import build_embedding

    x, y = sp.symbols("x y")
    term = {"beta": (sp.sin(x), sp.sin(y))} if field == "beta" else {"gamma": 4 / (1 + x + y)}
    coeffs = manufactured_case(alpha=1 + x + y, exact=sp.sin(sp.pi * (x + y)), **term)
    mesh = build_structured_mesh(2)
    with pytest.raises(ValueError, match=f"QT_DIFFUSION local operator would drop the .* {field}"):
        if entry == "assemble_local_operator":
            assemble_local_operator(QT_DIFFUSION, BrokenSpace(mesh, 3), 0, coeffs)
        elif entry == "build_embedding":
            build_embedding(BrokenSpace(mesh, 3), coeffs, QT_DIFFUSION)
        else:
            run_diagnostics(BrokenSpace(mesh, 3), QT_DIFFUSION, coeffs)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_out_of_range_element_is_rejected(kind):
    # a negative id must not wrap around to an element from the end
    space = BrokenSpace(build_structured_mesh(2), 3)
    coeffs = builtin_case("QT_DIFFUSION" if kind != AR else "AR_EXAMPLE")
    for k in (-1, -8, 8, 9):
        with pytest.raises(IndexError, match=f"element index {k} out of range"):
            assemble_local_operator(kind, space, k, coeffs)


def test_nonpositive_alpha_rejected():
    coeffs = manufactured_case(alpha=sp.sympify("x - 2"), exact=sp.sympify("x"))
    with pytest.raises(ValueError, match="positive"):
        assemble_local_operator(DAR, BrokenSpace(UNIT_RIGHT, 2), 0, coeffs)


@pytest.mark.parametrize(
    "kind,case", [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
                  (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")]
)
def test_full_row_rank_for_builtins(kind, case):
    coeffs = builtin_case(case)
    mesh = build_structured_mesh(4)
    space = BrokenSpace(mesh, 3)
    ops = assemble_local_operators(kind, space, coeffs)
    for matrix in ops.matrices[:: max(1, len(ops) // 8)]:
        svals = np.linalg.svd(matrix, compute_uv=False)
        assert svals[-1] > 1e-8 * svals[0]


@pytest.mark.parametrize(
    "kind,case", [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
                  (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")]
)
def test_local_operators_come_as_one_stacked_batch(kind, case):
    space = BrokenSpace(build_structured_mesh(2), 3)
    ops = assemble_local_operators(kind, space, builtin_case(case))
    m = q_dimension(kind, 3)
    assert isinstance(ops, LocalOperatorBatch) and len(ops) == 8
    assert ops.matrices.shape == (8, m, 10) and ops.rhs.shape == (8, m)
    assert list(ops.elements) == list(range(8))
    for k, op in enumerate(ops):
        assert (op.kind, op.element) == (kind, k)
        assert np.shares_memory(op.matrix, ops.matrices) and np.shares_memory(op.rhs, ops.rhs)


def test_batch_matches_single_element():
    coeffs = builtin_case("DAR_EXAMPLE")
    space = BrokenSpace(build_structured_mesh(2), 3)
    ops = assemble_local_operators(DAR, space, coeffs)
    k = 5
    single = assemble_local_operator(DAR, space, k, coeffs)
    assert np.allclose(ops[k].matrix, single.matrix, atol=1e-11)
    assert np.allclose(ops[k].rhs, single.rhs, atol=1e-11)


@pytest.mark.parametrize(
    "kind,case", [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
                  (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")]
)
def test_single_element_is_a_batch_of_one(perturbed_mesh, kind, case):
    # one code path: the per-element operator is the batched one. The box
    # and quasi-Trefftz operators agree bit for bit. The volume-projected
    # ones are one matrix product over the batch, and BLAS may sum a
    # product of one row in another order than one of many rows, so they
    # agree to rounding
    coeffs = builtin_case(case)
    space = BrokenSpace(perturbed_mesh(3), 3)
    ops = assemble_local_operators(kind, space, coeffs)
    for k in range(space.mesh.n_elements):
        single = assemble_local_operator(kind, space, k, coeffs)
        assert (single.kind, single.element) == (kind, k)
        for got, want in ((single.matrix, ops[k].matrix), (single.rhs, ops[k].rhs)):
            if kind in (DAR_BOX, QT_DIFFUSION):
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


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


def box_test_basis(box, degree, rule):
    """Values at the points of ``rule`` of the scaled monomials about the
    box center, of scale the box diameter, orthonormalized on ``rule`` by
    QR of the weighted point values."""
    mono = scaled_monomials(rule.points[None], box.center[None], [box.h], degree)
    return (mono @ np.swapaxes(_orthonormalizer(rule.weights[None], mono), -1, -2))[0]


def reference_operator(kind, space, k, coeffs, box_scale=0.25):
    """Per-element operator written out directly. AR/DAR: the test basis is
    the leading trial columns on the element's rule; DAR_BOX: it is
    orthonormalized on the box's own rule. The strong form is evaluated
    term by term from the trial basis derivatives.
    QT_DIFFUSION: symbolic derivatives of the strong form at the centroid,
    as in :func:`test_qt_row_against_symbolic_oracle`."""
    mesh, p = space.mesh, space.degree
    if kind == QT_DIFFUSION:
        return reference_qt_operator(space, k, coeffs)
    if kind == DAR_BOX:
        box = compute_box(mesh, k, box_scale)
        rule = box_rule(box.center, box.side, 2 * p + 4)
        qv = box_test_basis(box, p - 2, rule)
        scale = box.h
    else:
        rule = triangle_rule(mesh.vertices[mesh.triangles[k]], 2 * p + 4)
        q_degree = p - 1 if kind == AR else p - 2
        qv = space.eval_elements([k], rule.points[None]).values[0]
        qv = qv[:, : space_dimension(q_degree)]
        scale = math.sqrt(mesh.h[k]) if kind == AR else mesh.h[k]
    x, y = rule.points[:, 0], rule.points[:, 1]
    derivatives = space.derivatives([k], rule.points[None], 2)[0]
    values, gx, gy = derivatives[:, 0], derivatives[:, 1], derivatives[:, 2]
    vals = np.zeros_like(values)
    if kind != AR:
        a = coeffs.alpha
        lap = derivatives[:, 3] + derivatives[:, 5]
        vals -= a(x, y)[:, None] * lap
        vals -= a.derivative(1, 0)(x, y)[:, None] * gx + a.derivative(0, 1)(x, y)[:, None] * gy
    if coeffs.beta is not None:
        b = coeffs.beta(x, y)
        vals += b[:, None, 0] * gx + b[:, None, 1] * gy
    if coeffs.gamma is not None:
        vals += coeffs.gamma(x, y)[:, None] * values
    matrix = np.einsum("q,qi,qj->ij", rule.weights, qv, scale * vals)
    rhs = np.einsum("q,q,qi->i", rule.weights, scale * coeffs.f(x, y), qv)
    return matrix, rhs


def reference_qt_operator(space, k, coeffs):
    """Rows ``-h^(1.5+|i|) D^i div(alpha grad phi_j)`` and loads
    ``h^(1.5+|i|) D^i f`` at the centroid for ``|i| <= p - 2``, each
    reference monomial composed with the element's inverse map and
    differentiated symbolically as a whole."""
    oracle = symbolic_qt_oracle(coeffs.alpha.expr, coeffs.f.expr, space.degree)
    point = space.mesh.centroids[k]
    inverse = (space.adjugates[k] / space.dets[k]).ravel()
    C = _reference_basis(space.degree) / math.sqrt(space.dets[k])
    matrix, rhs = [], []
    for (ix, iy), mono_rows, f_derivative in oracle:
        scale = space.mesh.h[k] ** (1.5 + ix + iy)
        mono = np.array(mono_rows(*point, *space.origins[k], *inverse), dtype=float)
        matrix.append(-scale * (C @ mono))
        rhs.append(scale * float(f_derivative(*point)))
    return np.array(matrix), np.array(rhs)


def reference_coordinates(x, y, x0, y0, a00, a01, a10, a11):
    """``zeta = A (x - v0)`` with ``A = J^-1``, symbolically."""
    return a00 * (x - x0) + a01 * (y - y0), a10 * (x - x0) + a11 * (y - y0)


def reference_monomials(zx, zy, p):
    """The scaled monomials of the reference triangle, about its centroid
    and scaled by its diameter, at ``(zx, zy)``, graded-lex."""
    c, s = sp.Rational(1, 3), sp.sqrt(2)
    return [((zx - c) / s) ** a * ((zy - c) / s) ** b for a, b in polynomial_exponents(p)]


@functools.lru_cache(maxsize=None)
def symbolic_qt_oracle(alpha, f, p):
    """Per multi-index ``i``: ``D^i div(alpha grad m)`` of every reference
    scaled monomial ``m`` of degree ``<= p`` composed with ``A (x - v0)``,
    as a function of the point, ``v0`` and the entries of ``A``, and
    ``D^i f`` as a function of the point."""
    x, y, x0, y0, a00, a01, a10, a11 = sp.symbols("x y x0 y0 a00 a01 a10 a11", real=True)
    mono = reference_monomials(*reference_coordinates(x, y, x0, y0, a00, a01, a10, a11), p)
    # each D^i from a lower one by a single differentiation
    divs = {(0, 0): [sp.diff(alpha * sp.diff(m, x), x) + sp.diff(alpha * sp.diff(m, y), y)
                     for m in mono]}
    for ix, iy in polynomial_exponents(p - 2)[1:]:
        lower, var = ((ix - 1, iy), x) if ix else ((0, iy - 1), y)
        divs[ix, iy] = [sp.diff(d, var) for d in divs[lower]]
    return [
        (
            index,
            sp.lambdify((x, y, x0, y0, a00, a01, a10, a11), rows),
            sp.lambdify((x, y), sp.diff(f, x, index[0], y, index[1])),
        )
        for index, rows in divs.items()
    ]


def assert_batch_and_single_match_reference(kind, coeffs, p, box_scale=0.25):
    mesh = perturbed_grid_mesh()
    space = BrokenSpace(mesh, p)
    ops = assemble_local_operators(kind, space, coeffs, box_scale=box_scale)
    for k in range(mesh.n_elements):
        matrix, rhs = reference_operator(kind, space, k, coeffs, box_scale=box_scale)
        single = assemble_local_operator(kind, space, k, coeffs, box_scale=box_scale)
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
        projections = l2_projection(space, u, 8)
        total = 0.0
        for op, c in zip(ops, projections):
            total += np.sum((op.matrix @ c - op.rhs) ** 2)
        residuals.append(math.sqrt(total))
    assert residuals[1] < residuals[0] and residuals[2] < residuals[1]
    rate = math.log(residuals[1] / residuals[2]) / math.log(2.0)
    assert rate >= 0.5


def test_qt_dar_kernels_agree_for_constant_alpha():
    coeffs = manufactured_case(alpha=2.0, exact=sp.sympify("x**2 - y**2"))
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    from scipy.linalg import null_space, subspace_angles

    op_qt = assemble_local_operator(QT_DIFFUSION, space, 2, coeffs)
    op_dar = assemble_local_operator(DAR, space, 2, coeffs)
    k_qt = null_space(op_qt.matrix)
    k_dar = null_space(op_dar.matrix)
    assert k_qt.shape == k_dar.shape
    assert np.max(subspace_angles(k_qt, k_dar)) < 1e-8


@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("box_scale", [0.25, 1e-3, 1e300])
def test_box_operators_match_reference_across_degrees_and_box_sizes(p, box_scale):
    """``box_scale = 1e300`` clips every box to the largest square inside
    its element."""
    assert_batch_and_single_match_reference(
        DAR_BOX, builtin_case("DAR_EXAMPLE"), p, box_scale=box_scale
    )


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("side", [1e-3, 0.05, 1.0])
@pytest.mark.parametrize("center", [(0.3, 0.7), (0.81, 0.12)])
def test_unit_box_test_basis_scales_to_every_box(p, side, center):
    """The cached unit-square test values over the side are the test basis
    orthonormalized on the box's own rule. Off the origin, forming
    ``x - c`` costs the per-box reference about ``eps |c| / side``
    relative, hence the ``1e-12`` bound at ``side = 1e-3``."""
    box = ElementBox(center=np.array(center), side=side)
    rule = box_rule(box.center, box.side, 2 * p + 4)
    reference = box_test_basis(box, p - 2, rule)
    scaled = _unit_box_test_basis(p) / side
    assert scaled.shape == reference.shape
    np.testing.assert_allclose(scaled, reference, rtol=0, atol=1e-12 * np.abs(reference).max())


def test_unit_box_test_basis_is_read_only():
    values = _unit_box_test_basis(3)
    assert _unit_box_test_basis(3) is values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 0.0


@pytest.mark.parametrize("aspect", [1e1, 1e2, 1e3])
def test_box_rows_annihilate_an_exact_solution_on_a_turned_sliver(aspect, sliver_mesh):
    # the box rows test the basis the space evaluates, so they annihilate
    # its projection of an exact solution in P6 also on a needle turned
    # against the axes, where no basis over scaled monomials is orthonormal
    x, y = sp.symbols("x y", real=True)
    coeffs = manufactured_case(alpha=1, exact=sp.expand(sp.re((x + sp.I * y) ** 5)) + x**3 * y)
    mesh = sliver_mesh(aspect, 0.7)
    space = BrokenSpace(mesh, 6)
    rule = triangle_rule(mesh.vertices[mesh.triangles[0]], 18)
    values = space.eval_elements([0], rule.points[None]).values[0]
    c = values.T @ (rule.weights * coeffs.exact_solution(rule.points[:, 0], rule.points[:, 1]))
    (op,) = assemble_local_operators(DAR_BOX, space, coeffs)
    residual = np.max(np.abs(op.matrix @ c - op.rhs))
    assert residual <= 1e-12 * np.max(np.abs(op.matrix)) * np.max(np.abs(c))
