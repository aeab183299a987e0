import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from trefftzdg import analysis
from trefftzdg.analysis import (
    DiagnosticsReport,
    EocEstimate,
    compute_errors,
    estimate_eoc,
    run_diagnostics,
)
from trefftzdg.basis import BrokenSpace
from trefftzdg.coefficients import ScalarField, VectorField, builtin_case, manufactured_case
from trefftzdg.dg_forms import assemble_global_system
from trefftzdg.local_ops import AR, DAR, DAR_BOX, QT_DIFFUSION, assemble_local_operators
from trefftzdg.mesh import build_structured_mesh
from trefftzdg.quadrature import facet_quadrature, volume_quadrature
from trefftzdg.solver import DiscreteSolution, solve_standard_dg

from projection import l2_projection


def project_globally(space, f):
    return l2_projection(space, f, 2 * space.degree + 6).ravel()


def test_zero_error_for_exactly_representable_solution():
    coeffs = manufactured_case(alpha=1, exact=sp.sympify("x**2 - y**2"))
    mesh = build_structured_mesh(2)
    p = 2
    sys = assemble_global_system(BrokenSpace(mesh, p), coeffs, sigma=50.0 * p * p)
    u = solve_standard_dg(sys)
    report = compute_errors(u, coeffs)
    assert report.l2_error <= 1e-8
    assert report.vh_error <= 1e-8
    assert report.h == pytest.approx(math.sqrt(2.0) / 2)
    assert report.p == p and report.method == "STANDARD_DG"


@pytest.mark.filterwarnings("error")
def test_upwind_norm_without_advection_is_the_l2_norm():
    # beta = 0: the streamline and the upwind facet terms, both weighted by
    # 1 / sup |beta|, vanish, so no 0 / 0 may reach the norm
    coeffs = manufactured_case(beta=(0, 0), gamma=1, exact=sp.sympify("sin(pi*(x + y))"))
    system = assemble_global_system(BrokenSpace(build_structured_mesh(4), 2), coeffs)
    report = compute_errors(solve_standard_dg(system), coeffs)
    assert 0.0 < report.l2_error < 1e-2
    assert report.vh_error == report.l2_error


def transient_bytes(call):
    """Peak memory that ``call()`` takes above what it leaves allocated,
    measured on a second call, after the first has filled the caches."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - max(current, start)


def test_error_norm_and_local_operator_transients_do_not_grow_with_the_mesh():
    # 512, 2,048 and 8,192 elements: from n = 16 on the volume points fill
    # several batches, from n = 32 on the facet points of the norm do too
    coeffs = builtin_case("AR_EXAMPLE")
    errors, operators = [], []
    for n in (16, 32, 64):
        space = BrokenSpace(build_structured_mesh(n), 3)
        u = DiscreteSolution(
            coeffs=np.random.default_rng(n).standard_normal(space.ndof_total), space=space,
            method="STANDARD_DG", ndof_full=space.ndof_total,
        )
        errors.append(transient_bytes(lambda: compute_errors(u, coeffs)))
        operators.append(transient_bytes(lambda: assemble_local_operators(AR, space, coeffs)))
    assert errors[2] <= 1.1 * errors[1]
    assert max(operators[1:]) <= 1.1 * operators[0]


def test_l2_error_of_zero_solution_is_analytic():
    # || sin(pi (x+y)) ||_{L2} over the unit square equals sqrt(1/2)
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(6)
    space = BrokenSpace(mesh, 3)
    u = DiscreteSolution(
        coeffs=np.zeros(space.ndof_total), space=space,
        method="STANDARD_DG", ndof_full=space.ndof_total,
    )
    report = compute_errors(u, coeffs)
    assert report.l2_error == pytest.approx(math.sqrt(0.5), rel=1e-9)


def test_continuous_function_has_no_interior_jump_contribution():
    # with exact solution zero, the AR norm of a continuous u_h consists of
    # the volume terms plus only the boundary facet terms
    coeffs = manufactured_case(beta=(-sp.Symbol("x"), sp.Symbol("y")),
                               gamma=sp.sympify("x + y"), exact=sp.Integer(0))
    mesh = build_structured_mesh(3)
    space = BrokenSpace(mesh, 2)
    u = DiscreteSolution(
        coeffs=project_globally(space, lambda x, y: 1.0 + 2.0 * x + 3.0 * y),
        space=space, method="STANDARD_DG", ndof_full=space.ndof_total,
    )
    report = compute_errors(u, coeffs)

    vpts, vw = volume_quadrature(mesh, 8)
    x, y = vpts[..., 0], vpts[..., 1]
    w_fun = lambda x, y: 1.0 + 2.0 * x + 3.0 * y
    beta_sup = np.max(np.linalg.norm(coeffs.beta(x, y), axis=-1))
    grad_term = ((-x) * 2.0 + y * 3.0) / beta_sup
    expected = np.sum(vw * w_fun(x, y) ** 2)
    expected += np.sum(mesh.h[:, None] * vw * grad_term**2)
    fpts, fw = facet_quadrature(mesh, 8)
    for f in mesh.boundary_facets:
        b = coeffs.beta(fpts[f, :, 0], fpts[f, :, 1]) @ mesh.facet_normals[f]
        expected += np.sum(fw[f] * np.abs(b) / beta_sup * w_fun(fpts[f, :, 0], fpts[f, :, 1]) ** 2)
    assert report.vh_error == pytest.approx(math.sqrt(expected), rel=1e-9)


def test_error_norms_absolutely_homogeneous():
    coeffs = manufactured_case(alpha=1 + sp.Symbol("x"), exact=sp.Integer(0))
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    rng = np.random.default_rng(0)
    base = rng.standard_normal(space.ndof_total)
    reports = []
    for s in (1.0, -3.5):
        u = DiscreteSolution(
            coeffs=s * base, space=space, method="STANDARD_DG",
            ndof_full=space.ndof_total, sigma=100.0,
        )
        reports.append(compute_errors(u, coeffs))
    assert reports[1].l2_error == pytest.approx(3.5 * reports[0].l2_error, rel=1e-12)
    assert reports[1].vh_error == pytest.approx(3.5 * reports[0].vh_error, rel=1e-12)


def test_missing_exact_solution_is_an_error():
    coeffs = builtin_case("AR_EXAMPLE")
    coeffs.exact_solution = None
    mesh = build_structured_mesh(1)
    space = BrokenSpace(mesh, 1)
    u = DiscreteSolution(
        coeffs=np.zeros(space.ndof_total), space=space,
        method="STANDARD_DG", ndof_full=space.ndof_total,
    )
    with pytest.raises(ValueError):
        compute_errors(u, coeffs)


def test_ar_norm_requires_advection_field():
    # without diffusion the norm is the upwind one, which needs beta
    coeffs = manufactured_case(gamma=1, exact=sp.Integer(0))
    mesh = build_structured_mesh(1)
    space = BrokenSpace(mesh, 2)
    u = DiscreteSolution(
        coeffs=np.zeros(space.ndof_total), space=space,
        method="STANDARD_DG", ndof_full=space.ndof_total,
    )
    with pytest.raises(ValueError, match="beta"):
        compute_errors(u, coeffs)


def test_diffusion_norm_requires_the_penalty_of_the_solution():
    coeffs = builtin_case("DAR_EXAMPLE")
    space = BrokenSpace(build_structured_mesh(1), 2)
    u = DiscreteSolution(
        coeffs=np.zeros(space.ndof_total), space=space, method="STANDARD_DG",
        ndof_full=space.ndof_total, alpha_facet=np.ones(space.mesh.n_facets),
    )
    with pytest.raises(ValueError, match="sigma"):
        compute_errors(u, coeffs)


@pytest.mark.parametrize(
    "field,kind,name",
    [
        ("exact_solution", AR, "exact solution"),
        ("exact_solution", DAR, "exact solution"),
        ("exact_gradient", AR, "exact gradient"),
        ("exact_gradient", DAR, "exact gradient"),
        ("beta", AR, "beta"),
        ("beta", DAR, "div beta"),
        ("gamma", DAR, "gamma"),
        ("alpha", DAR, "alpha"),
        ("alpha_nonpositive", DAR, "alpha"),
    ],
)
def test_error_norms_reject_bad_data(field, kind, name):
    # one field is NaN wherever x < 1/2 (alpha_nonpositive: negative there);
    # the error norms must name it and the first offending element instead
    # of returning a NaN or meaningless error; the AR norm is that of data
    # without diffusion
    x, y = sp.symbols("x y")
    bad = 1 + sp.sqrt(x - sp.Rational(1, 2))
    alpha = None if kind == AR else 1
    coeffs = manufactured_case(alpha=alpha, beta=(1, y), gamma=1, exact=x * y)
    if field == "exact_gradient":
        coeffs.exact_gradient = lambda: VectorField(bad, y)
    elif field == "beta":
        coeffs.beta = VectorField(bad, y)
    elif field == "alpha_nonpositive":
        coeffs.alpha = ScalarField(x - sp.Rational(1, 2))
    else:
        setattr(coeffs, field, ScalarField(bad))
    mesh = build_structured_mesh(4)
    space = BrokenSpace(mesh, 2)
    # a solver hands over its facet weights, so alpha is not re-evaluated there
    u = DiscreteSolution(
        coeffs=np.zeros(space.ndof_total), space=space, method="STANDARD_DG",
        ndof_full=space.ndof_total, sigma=50.0, alpha_facet=np.ones(mesh.n_facets),
    )
    with np.errstate(invalid="ignore"), pytest.raises(
        ValueError, match=rf"^{name} must be finite.* element \d+ has {name} = "
    ):
        compute_errors(u, coeffs)


def two_pass_dg_error(solution, coeffs):
    """Diffusion-family error norm with the penalty and the upwind facet
    terms summed in two separate passes over the facets."""
    space = solution.space
    mesh = space.mesh
    x, y = space.volume_points[..., 0], space.volume_points[..., 1]
    w = space.volume_weights
    vals, grads = solution.element_values(np.arange(mesh.n_elements), space.volume_points, True)
    err = coeffs.exact_solution(x, y) - vals
    err_grad = coeffs.exact_gradient()(x, y) - grads
    vh_sq = np.sum(w * coeffs.alpha(x, y) * np.einsum("eqd,eqd->eq", err_grad, err_grad))
    if coeffs.gamma is not None:
        stab = coeffs.gamma(x, y)
        if coeffs.beta is not None:
            stab = stab - 0.5 * coeffs.beta.divergence()(x, y)
        vh_sq += max(0.0, float(np.min(stab))) * np.sum(w * err**2)
    fpts, fw = facet_quadrature(mesh, 2 * space.degree + 2)
    left, right = mesh.facet_left, mesh.facet_right

    def facet_pass(weight):
        total = 0.0
        inner, bnd = mesh.interior_facets, mesh.boundary_facets
        jump = solution.element_values(right[inner], fpts[inner]) - solution.element_values(
            left[inner], fpts[inner]
        )
        total += np.sum(fw[inner] * weight(inner) * jump**2)
        pts = fpts[bnd]
        dev = coeffs.exact_solution(pts[..., 0], pts[..., 1]) - solution.element_values(
            left[bnd], pts
        )
        return total + np.sum(fw[bnd] * weight(bnd) * dev**2)

    def penalty(facets):
        base = solution.sigma * solution.alpha_facet[facets] / mesh.facet_lengths[facets]
        return base[:, None] * np.ones(fpts.shape[1])

    def upwind(facets):
        pts = fpts[facets]
        beta = coeffs.beta(pts[..., 0], pts[..., 1])
        return 0.5 * np.abs(np.einsum("fqd,fd->fq", beta, mesh.facet_normals[facets]))

    if coeffs.beta is None:
        return math.sqrt(vh_sq + facet_pass(penalty))
    return math.sqrt(vh_sq + facet_pass(penalty) + facet_pass(upwind))


@pytest.mark.parametrize("case", ["DAR_EXAMPLE", "BOX_DIFFUSION_2D"])
def test_shared_facet_jumps_match_two_pass_norm(case):
    coeffs = builtin_case(case)
    mesh = build_structured_mesh(3)
    system = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=450.0)
    solution = solve_standard_dg(system)
    report = compute_errors(solution, coeffs)
    expected = two_pass_dg_error(solution, coeffs)
    assert report.vh_error == pytest.approx(expected, rel=1e-13)


def test_facet_error_jumps_match_pulled_back_traces():
    # n = 32 has 3,040 interior facets, run from every local edge of both sides
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(32)
    space = BrokenSpace(mesh, 1)
    coeffs_vec = np.random.default_rng(5).standard_normal(space.ndof_total)
    solution = DiscreteSolution(
        coeffs=coeffs_vec, space=space, method="STANDARD_DG", ndof_full=space.ndof_total,
        sigma=50.0, alpha_facet=np.ones(mesh.n_facets),
    )
    fpts, _ = facet_quadrature(mesh, 2 * space.degree + 2)
    inner, outer = mesh.interior_facets, mesh.boundary_facets
    whole = solution.element_values(mesh.facet_right[inner], fpts[inner]) - (
        solution.element_values(mesh.facet_left[inner], fpts[inner])
    )
    pts = fpts[outer]
    deviation = coeffs.exact_solution(pts[..., 0], pts[..., 1]) - (
        solution.element_values(mesh.facet_left[outer], pts)
    )
    batches = list(analysis._facet_error_jumps(solution, coeffs))
    facets = np.concatenate([f for f, _, _, _ in batches])
    jump_sq = np.concatenate([j for _, _, _, j in batches])
    np.testing.assert_array_equal(facets, np.concatenate([inner, outer]))
    for group, expected in zip(np.split(jump_sq, [len(inner)]), (whole**2, deviation**2)):
        np.testing.assert_allclose(group, expected, rtol=0, atol=1e-13 * np.max(expected))


def test_eoc_simple_cases():
    est = estimate_eoc([(1.0, 1.0), (0.5, 0.25)])
    assert isinstance(est, EocEstimate)
    assert est.steps == [pytest.approx(2.0)]
    assert est.least_squares == pytest.approx(2.0)
    flat = estimate_eoc([(1.0, 0.3), (0.5, 0.3), (0.25, 0.3)])
    assert flat.steps == [pytest.approx(0.0), pytest.approx(0.0)]


def test_eoc_synthetic_rate():
    hs = [0.5**k for k in range(5)]
    pairs = [(h, 3.0 * h**4.5) for h in hs]
    est = estimate_eoc(pairs)
    for s in est.steps:
        assert s == pytest.approx(4.5, abs=1e-12)
    assert est.least_squares == pytest.approx(4.5, abs=1e-12)


def test_eoc_validation():
    with pytest.raises(ValueError):
        estimate_eoc([(1.0, 1.0)])
    with pytest.raises(ValueError):
        estimate_eoc([(1.0, 1.0), (1.5, 0.5)])  # h not decreasing
    with pytest.raises(ValueError):
        estimate_eoc([(1.0, 1.0), (0.5, 0.0)])  # nonpositive error


def test_diagnostics_on_ar_example():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(4)
    report = run_diagnostics(BrokenSpace(mesh, 3), AR, coeffs)
    assert isinstance(report, DiagnosticsReport)
    assert report.rho_max <= 1e-10
    assert report.dim_table[3] == (10, 4, 6)
    assert 0.0 < report.sigma_min_rel <= 1.0
    assert report.block_equivalence_gap_rel <= 1e-8


def test_diagnostics_reject_an_unknown_kind_before_any_assembly(monkeypatch):
    def no_assembly(*_args, **_kwargs):
        raise AssertionError("global system assembled")

    monkeypatch.setattr(analysis, "assemble_global_system", no_assembly)
    space = BrokenSpace(build_structured_mesh(2), 3)
    with pytest.raises(ValueError, match="'BOGUS'"):
        run_diagnostics(space, "BOGUS", builtin_case("DAR_EXAMPLE"))


@pytest.mark.parametrize(
    "kind,case",
    [(DAR, "DAR_EXAMPLE"), (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")],
)
def test_diagnostics_second_order_kinds(kind, case):
    coeffs = builtin_case(case)
    mesh = build_structured_mesh(2)
    report = run_diagnostics(BrokenSpace(mesh, 3), kind, coeffs)
    assert report.rho_max <= 1e-10
    assert report.dim_table[3] == (10, 7, 3)
    assert report.block_equivalence_gap_rel <= 1e-8


@pytest.mark.parametrize(
    "kind,case",
    [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
     (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")],
)
def test_sigma_uniformity_trend(kind, case):
    coeffs = builtin_case(case)
    values = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        report = run_diagnostics(BrokenSpace(mesh, 3), kind, coeffs)
        values.append(report.sigma_min_rel)
    assert max(values) / min(values) < 5.0
