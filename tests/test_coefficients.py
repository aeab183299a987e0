import dataclasses

import numpy as np
import pytest
import sympy as sp

from trefftzdg.basis import polynomial_exponents
from trefftzdg.cli import MAX_DEGREE
from trefftzdg.coefficients import (
    BUILTIN_CASES,
    X,
    Y,
    PdeCoefficients,
    ScalarField,
    VectorField,
    builtin_case,
    evaluate,
    manufactured_case,
)

RNG = np.random.default_rng(42)
SAMPLES = RNG.uniform(0.05, 0.95, size=(40, 2))


def strong_residual(coeffs, x, y):
    """-div(alpha grad u) + beta.grad u + gamma u - f at sample points,
    with absent terms dropped."""
    u = coeffs.exact_solution
    res = -coeffs.f(x, y)
    if coeffs.alpha is not None:
        ux, uy = u.derivative(1, 0), u.derivative(0, 1)
        ax, ay = coeffs.alpha.derivative(1, 0), coeffs.alpha.derivative(0, 1)
        lap = u.derivative(2, 0)(x, y) + u.derivative(0, 2)(x, y)
        res += -(coeffs.alpha(x, y) * lap + ax(x, y) * ux(x, y) + ay(x, y) * uy(x, y))
    if coeffs.beta is not None:
        bx, by = coeffs.beta(x, y)[..., 0], coeffs.beta(x, y)[..., 1]
        res += bx * u.derivative(1, 0)(x, y) + by * u.derivative(0, 1)(x, y)
    if coeffs.gamma is not None:
        res += coeffs.gamma(x, y) * u(x, y)
    return res


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_manufactured_consistency(name):
    coeffs = builtin_case(name)
    res = strong_residual(coeffs, SAMPLES[:, 0], SAMPLES[:, 1])
    assert np.max(np.abs(res)) < 1e-8


def test_ar_example_fields():
    coeffs = builtin_case("AR_EXAMPLE")
    x, y = SAMPLES[:, 0], SAMPLES[:, 1]
    assert coeffs.alpha is None
    beta = coeffs.beta(x, y)
    assert np.allclose(beta[:, 0], -x) and np.allclose(beta[:, 1], y)
    assert np.allclose(coeffs.gamma(x, y), x + y)
    assert np.allclose(coeffs.exact_solution(x, y), np.sin(np.pi * (x + y)))
    # f manufactured from the advection-reaction strong form
    pi = np.pi
    f_expected = (-x + y) * pi * np.cos(pi * (x + y)) + (x + y) * np.sin(pi * (x + y))
    assert np.allclose(coeffs.f(x, y), f_expected, atol=1e-12)


def test_dar_example_fields():
    coeffs = builtin_case("DAR_EXAMPLE")
    x, y = SAMPLES[:, 0], SAMPLES[:, 1]
    assert np.allclose(coeffs.alpha(x, y), 1 + x + y)
    beta = coeffs.beta(x, y)
    assert np.allclose(beta[:, 0], np.sin(x)) and np.allclose(beta[:, 1], np.sin(y))
    assert np.allclose(coeffs.gamma(x, y), 4.0 / (1 + x + y))
    assert np.allclose(coeffs.g_D(x, y), np.sin(np.pi * (x + y)))


def test_box_and_qt_cases_are_pure_diffusion():
    for name in ("BOX_DIFFUSION_2D", "QT_DIFFUSION"):
        coeffs = builtin_case(name)
        x, y = SAMPLES[:, 0], SAMPLES[:, 1]
        assert np.allclose(coeffs.alpha(x, y), 1 + x + y)
        assert coeffs.beta is None and coeffs.gamma is None


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="AR_EXAMPLE"):
        builtin_case("NO_SUCH_CASE")


def test_derivative_oracles_match_finite_differences():
    coeffs = builtin_case("DAR_EXAMPLE")
    eps = 1e-6
    x, y = SAMPLES[:10, 0], SAMPLES[:10, 1]
    for field in (coeffs.alpha, coeffs.gamma, coeffs.f, coeffs.exact_solution):
        dx = field.derivative(1, 0)(x, y)
        fd = (field(x + eps, y) - field(x - eps, y)) / (2 * eps)
        assert np.max(np.abs(dx - fd) / np.maximum(np.abs(dx), 1.0)) < 1e-5
        dy = field.derivative(0, 1)(x, y)
        fd = (field(x, y + eps) - field(x, y - eps)) / (2 * eps)
        assert np.max(np.abs(dy - fd) / np.maximum(np.abs(dy), 1.0)) < 1e-5


def test_higher_derivatives_available_for_qt():
    coeffs = builtin_case("QT_DIFFUSION")
    # QT at degree p needs alpha-derivatives to order p-1 and f to p-2
    for order in range(5):
        for a in range(order + 1):
            assert coeffs.alpha.derivative(a, order - a) is not None
            assert coeffs.f.derivative(a, order - a) is not None
    d3 = coeffs.f.derivative(2, 1)
    x, y = SAMPLES[:5, 0], SAMPLES[:5, 1]
    eps = 1e-5
    fd = (coeffs.f.derivative(2, 0)(x, y + eps) - coeffs.f.derivative(2, 0)(x, y - eps)) / (2 * eps)
    assert np.allclose(d3(x, y), fd, rtol=1e-4, atol=1e-4)


def test_scalar_field_broadcasting_and_constants():
    zero = ScalarField(0)
    arr = zero(np.zeros((3, 4)), np.zeros((3, 4)))
    assert arr.shape == (3, 4) and np.all(arr == 0)
    xs = sp.symbols("x")
    lin = ScalarField(2 * xs)
    assert lin(1.5, 0.0) == pytest.approx(3.0)


def test_vector_field_divergence():
    x, y = sp.symbols("x y")
    v = VectorField(x * y, y**2)
    div = v.divergence()
    assert div(2.0, 3.0) == pytest.approx(3.0 + 6.0)


def test_manufactured_case_builds_g_d_and_f():
    x, y = sp.symbols("x y")
    coeffs = manufactured_case(alpha=1, exact=x**2 - y**2, name="laplace")
    assert isinstance(coeffs, PdeCoefficients)
    pts = SAMPLES[:8]
    assert np.allclose(coeffs.f(pts[:, 0], pts[:, 1]), 0.0, atol=1e-13)
    assert np.allclose(coeffs.g_D(pts[:, 0], pts[:, 1]), pts[:, 0] ** 2 - pts[:, 1] ** 2)


@pytest.mark.parametrize("entry", ["DAR_SIP", "DAR", "DAR_BOX", "QT_DIFFUSION"])
def test_non_finite_alpha_rejected_at_entry(entry):
    # alpha is NaN wherever x < 1/2; every entry point must name the field
    # and the first offending element or facet instead of failing later
    from trefftzdg.basis import BrokenSpace
    from trefftzdg.dg_forms import assemble_global_system
    from trefftzdg.embedding import build_embedding
    from trefftzdg.mesh import build_structured_mesh

    x = sp.Symbol("x")
    coeffs = manufactured_case(alpha=1 + sp.sqrt(x - sp.Rational(1, 2)), exact=x)
    mesh = build_structured_mesh(4)
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(
        ValueError, match=r"alpha must be finite .* (element|facet) \d+ has alpha = nan"
    ):
        if entry == "DAR_SIP":
            assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=50.0)
        else:
            build_embedding(BrokenSpace(mesh, 3), coeffs, entry)


@pytest.mark.parametrize(
    "field,entry",
    [(f, e) for f in ("beta", "gamma", "f") for e in ("AR_UPWIND", "DAR_SIP", "AR", "DAR", "DAR_BOX")]
    + [("g_D", "AR_UPWIND"), ("g_D", "DAR_SIP"), ("f", "QT_DIFFUSION")],
)
def test_non_finite_data_rejected_at_entry(field, entry):
    # one field is NaN wherever x < 1/2, the others are smooth; every entry
    # point must name that field and the first offending element or facet
    # instead of handing a NaN matrix to the sparse LU. DAR_SIP is the
    # assembly of data with diffusion, AR_UPWIND that of data without it
    from trefftzdg.basis import BrokenSpace
    from trefftzdg.dg_forms import assemble_global_system
    from trefftzdg.embedding import build_embedding
    from trefftzdg.mesh import build_structured_mesh

    x, y = sp.symbols("x y")
    bad = 1 + sp.sqrt(x - sp.Rational(1, 2))
    alpha = None if entry in ("AR_UPWIND", "AR") else 1
    # the quasi-Trefftz kind takes pure diffusion only
    lower = {} if entry == "QT_DIFFUSION" else {"beta": (1, y), "gamma": 1}
    smooth = manufactured_case(alpha=alpha, exact=x * y, **lower)
    replacement = VectorField(bad, y) if field == "beta" else ScalarField(bad)
    coeffs = dataclasses.replace(smooth, **{field: replacement})
    mesh = build_structured_mesh(4)
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(
        ValueError, match=rf"^{field} must be finite on .* (element|facet) \d+ has {field} = nan"
    ):
        if entry in ("AR_UPWIND", "DAR_SIP"):
            assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=50.0)
        else:
            build_embedding(BrokenSpace(mesh, 3), coeffs, entry)


def test_second_case_build_reuses_the_lambdified_fields(monkeypatch):
    x, y = SAMPLES[:, 0], SAMPLES[:, 1]

    def evaluate(coeffs):
        fields = (coeffs.f, coeffs.g_D, coeffs.gamma, coeffs.exact_solution)
        values = [field(x, y) for field in fields] + [coeffs.beta(x, y)]
        return values + [coeffs.exact_gradient()(x, y), coeffs.beta.divergence()(x, y)]

    first = evaluate(builtin_case("AR_EXAMPLE"))

    def no_lambdify(*_args, **_kwargs):
        raise AssertionError("sp.lambdify called")

    monkeypatch.setattr(sp, "lambdify", no_lambdify)
    second = evaluate(builtin_case("AR_EXAMPLE"))
    for got, want in zip(second, first):
        np.testing.assert_array_equal(got, want)
    # a new expression still needs its own function
    with pytest.raises(AssertionError, match="sp.lambdify called"):
        ScalarField(sp.Symbol("x") ** 7 + 3)(x, y)


def builtin_fields(coeffs):
    """Every field the solvers evaluate on ``coeffs``: the data, the exact
    solution and its gradient, ``div beta``, and the derivatives of ``f``
    and ``alpha`` up to the CLI's top degree (``DAR_BOX`` reads the first
    ones of ``alpha``, ``QT_DIFFUSION`` those of ``f`` up to order ``p - 2``
    and of ``alpha`` up to ``p - 1``)."""
    fields = [coeffs.f, coeffs.g_D, coeffs.gamma, coeffs.exact_solution]
    fields += [coeffs.exact_gradient().fx, coeffs.exact_gradient().fy]
    if coeffs.beta is not None:
        fields += [coeffs.beta.fx, coeffs.beta.fy, coeffs.beta.divergence()]
    for d in polynomial_exponents(MAX_DEGREE):
        fields.append(coeffs.f.derivative(*d))
        if coeffs.alpha is not None:
            fields.append(coeffs.alpha.derivative(*d))
    return [field for field in fields if field is not None]


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_fields_match_plain_lambdify(name):
    # the fields share common subexpressions; the plain function does not
    x, y = RNG.uniform(0.0, 1.0, size=(2, 1000))
    for field in builtin_fields(builtin_case(name)):
        plain = sp.lambdify((X, Y), field.expr)
        want = np.broadcast_to(np.asarray(plain(x, y), dtype=float), x.shape)
        got = field(x, y)
        assert got.shape == x.shape
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale, err_msg=str(field.expr))


#: every method of the CLI that fits each builtin case
CASE_METHODS = {
    "AR_EXAMPLE": "dg,et",
    "DAR_EXAMPLE": "dg,et,etbox",
    "BOX_DIFFUSION_2D": "dg,et,etbox,qt",
    "QT_DIFFUSION": "dg,qt",
}


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_fused_evaluation_is_the_per_field_values(monkeypatch, tmp_path, name):
    # every fused evaluation of a run, by the local operators and by the
    # error norms, against each field's own call at the same points. The
    # error norms' field sets are bit for bit, so no error column moves;
    # so are the operators' ones but for the source of DAR_EXAMPLE, which
    # shares subexpressions with beta and gamma and rounds differently
    from trefftzdg import analysis, local_ops
    from trefftzdg.cli import main

    records = []

    def recording(module):
        def fused(fields, x, y):
            fields = list(fields)
            values = evaluate(fields, x, y)
            records.append((module, fields, np.copy(x), np.copy(y), values))
            return values

        return fused

    for module in (analysis, local_ops):
        monkeypatch.setattr(module, "evaluate", recording(module.__name__))
    assert main(["run", "--case", name, "--methods", CASE_METHODS[name], "--p", "3",
                 "--n", "2,4", "--out", str(tmp_path / "run.csv")]) == 0
    modules = {module for module, *_ in records}
    # AR takes its operators from assembly, QT_DIFFUSION reads derivatives
    diffusive_et = name in ("DAR_EXAMPLE", "BOX_DIFFUSION_2D")
    assert modules == {"trefftzdg.analysis"} | ({"trefftzdg.local_ops"} if diffusive_et else set())
    source = builtin_case(name).f.expr
    for module, fields, x, y, values in records:
        for field, got in zip(fields, values):
            want = field(x, y)
            assert got.shape == x.shape and got.dtype == float
            if name == "DAR_EXAMPLE" and module.endswith("local_ops") and field.expr == source:
                scale = np.max(np.abs(want))
                np.testing.assert_allclose(got, want, rtol=0, atol=4e-16 * scale)
            else:
                np.testing.assert_array_equal(got, want, err_msg=f"{module}: {field.expr}")


def test_fused_constants_come_back_in_the_point_shape():
    # grad alpha of 1 + x + y is constant: the function returns Python
    # numbers for it, which come back as float arrays of the points' shape
    alpha = builtin_case("BOX_DIFFUSION_2D").alpha
    fields = [alpha, alpha.derivative(1, 0), alpha.derivative(0, 1), ScalarField(0)]
    x, y = SAMPLES[:6, 0].reshape(2, 3), SAMPLES[:6, 1].reshape(2, 3)
    values = evaluate(fields, x, y)
    for value, constant in zip(values, [None, 1.0, 1.0, 0.0]):
        assert isinstance(value, np.ndarray) and value.dtype == float and value.shape == (2, 3)
        if constant is not None:
            np.testing.assert_array_equal(value, np.full((2, 3), constant))
    np.testing.assert_array_equal(values[0], 1 + x + y)
    # points that broadcast: a field of one coordinate takes the full shape
    column, row = SAMPLES[:3, 0][:, None], SAMPLES[:4, 1][None, :]
    only_x, constant = evaluate([ScalarField(sp.Symbol("x") ** 2), ScalarField(3)], column, row)
    np.testing.assert_array_equal(only_x, np.broadcast_to(column**2, (3, 4)))
    np.testing.assert_array_equal(constant, np.full((3, 4), 3.0))
    # and so does a single field, the one-field case of the same path
    assert ScalarField(2)(x, y).shape == (2, 3)
    assert alpha.derivative(1, 0)(0.5, 0.25).shape == ()


def test_fused_evaluation_lambdifies_each_tuple_once(monkeypatch):
    # one function per tuple of expressions, shared by the cases built anew
    x, y = SAMPLES[:, 0], SAMPLES[:, 1]

    def fields(coeffs):
        return [coeffs.beta.fx, coeffs.beta.fy, coeffs.alpha, coeffs.alpha.derivative(1, 0),
                coeffs.gamma, coeffs.f]

    first = evaluate(fields(builtin_case("DAR_EXAMPLE")), x, y)
    calls = []
    lambdify = sp.lambdify

    def counting(*args, **kwargs):
        calls.append(args[1])
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sp, "lambdify", counting)
    second = evaluate(fields(builtin_case("DAR_EXAMPLE")), x, y)
    assert calls == []
    for got, want in zip(second, first):
        np.testing.assert_array_equal(got, want)
    # another tuple of the same fields is another function
    evaluate(fields(builtin_case("DAR_EXAMPLE"))[::-1], x, y)
    assert len(calls) == 1


def test_divergence_is_built_once():
    beta = builtin_case("DAR_EXAMPLE").beta
    assert beta.divergence() is beta.divergence()
