import io
import math

import numpy as np
import pytest
import sympy as sp

from trefftzdg.basis import BrokenSpace
from trefftzdg.coefficients import builtin_case, manufactured_case
from trefftzdg.dg_forms import (
    AR_UPWIND,
    DAR_SIP,
    assemble_global_system,
    element_alpha_means,
    export_matrix_coo,
    facet_alpha,
)
from trefftzdg.mesh import BOUNDARY, build_structured_mesh
from trefftzdg.quadrature import facet_quadrature, volume_quadrature


def constant_one_vector(space):
    c = np.zeros(space.ndof_total)
    c[space.offsets] = np.sqrt(space.mesh.areas)
    return c


def test_ar_constant_bilinear_value_oracle():
    # a_h(1,1) = integral of gamma + inflow integral of |beta.n|
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(3)
    sys = assemble_global_system(AR_UPWIND, mesh, p=2, coeffs=coeffs)
    c = constant_one_vector(sys.space)
    got = c @ (sys.matrix @ c)

    vpts, vw = volume_quadrature(mesh, 8)
    vol = np.sum(vw * coeffs.gamma(vpts[..., 0], vpts[..., 1]))
    fpts, fw = facet_quadrature(mesh, 8)
    inflow = 0.0
    for f in mesh.boundary_facets:
        b = coeffs.beta(fpts[f, :, 0], fpts[f, :, 1]) @ mesh.facet_normals[f]
        inflow += np.sum(fw[f] * np.abs(b) * (b < 0))
    assert got == pytest.approx(vol + inflow, rel=1e-12)
    # closed forms for this data: integral gamma = 1, inflow edge x=1 length 1
    assert got == pytest.approx(2.0, rel=1e-10)


def test_dar_constant_bilinear_penalty_only():
    coeffs = builtin_case("BOX_DIFFUSION_2D")
    mesh = build_structured_mesh(1)
    sigma = 7.5
    sys = assemble_global_system(DAR_SIP, mesh, p=2, coeffs=coeffs, sigma=sigma)
    c = constant_one_vector(sys.space)
    got = c @ (sys.matrix @ c)
    # term-by-term hand evaluation: only boundary penalty terms survive
    means = element_alpha_means(sys.space, coeffs)
    expected = 0.0
    for f in mesh.boundary_facets:
        a_f = means[mesh.facet_left[f]]
        expected += sigma * a_f / mesh.facet_lengths[f] * mesh.facet_lengths[f]
    assert got == pytest.approx(expected, rel=1e-12)
    # alpha element means are 2 on both triangles of the n=1 mesh
    assert got == pytest.approx(8.0 * sigma, rel=1e-10)


def test_zero_data_zero_load():
    coeffs = manufactured_case(alpha=1, exact=sp.Integer(0))
    mesh = build_structured_mesh(2)
    sys = assemble_global_system(DAR_SIP, mesh, p=2, coeffs=coeffs, sigma=50.0)
    assert np.allclose(sys.load, 0.0, atol=1e-14)


def test_sip_symmetry_without_advection():
    coeffs = builtin_case("BOX_DIFFUSION_2D")
    mesh = build_structured_mesh(3)
    sys = assemble_global_system(DAR_SIP, mesh, p=3, coeffs=coeffs, sigma=50 * 9.0)
    A = sys.matrix
    asym = (A - A.T).tocoo()
    denom = np.sqrt((A.multiply(A)).sum())
    num = math.sqrt(np.sum(asym.data**2)) if asym.nnz else 0.0
    assert num <= 1e-10 * denom


def test_block_sparsity_pattern():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(2)
    sys = assemble_global_system(DAR_SIP, mesh, p=2, coeffs=coeffs, sigma=200.0)
    nd = sys.space.ndof_local
    allowed = {(k, k) for k in range(mesh.n_elements)}
    for f in mesh.interior_facets:
        k1, k2 = mesh.facet_left[f], mesh.facet_right[f]
        allowed.add((k1, k2))
        allowed.add((k2, k1))
    coo = sys.matrix.tocoo()
    pairs = set(zip(coo.row // nd, coo.col // nd))
    assert pairs <= allowed


@pytest.mark.parametrize("case", ["DAR_EXAMPLE", "BOX_DIFFUSION_2D"])
def test_positive_definite_at_default_penalty(case):
    coeffs = builtin_case(case)
    mesh = build_structured_mesh(2)
    p = 2
    sys = assemble_global_system(DAR_SIP, mesh, p=p, coeffs=coeffs, sigma=50.0 * p * p)
    dense = sys.matrix.toarray()
    sym = 0.5 * (dense + dense.T)
    np.linalg.cholesky(sym)  # raises LinAlgError if not positive definite


def test_ar_coercivity_witness_identity():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(3)
    p = 2
    sys = assemble_global_system(AR_UPWIND, mesh, p=p, coeffs=coeffs)
    space = sys.space
    rng = np.random.default_rng(5)
    fpts, fw = facet_quadrature(mesh, 2 * p + 2)
    div_beta = coeffs.beta.divergence()
    for _ in range(4):
        v = rng.standard_normal(space.ndof_total)
        quad = v @ (sys.matrix @ v)
        # independent quadrature of the integration-by-parts identity
        x, y = space.volume_points[..., 0], space.volume_points[..., 1]
        vals = np.einsum(
            "eqn,en->eq",
            space.eval_elements(np.arange(mesh.n_elements), space.volume_points).values,
            v.reshape(mesh.n_elements, -1),
        )
        witness = np.sum(
            space.volume_weights
            * (coeffs.gamma(x, y) - 0.5 * div_beta(x, y))
            * vals**2
        )
        for f in range(mesh.n_facets):
            k1 = mesh.facet_left[f]
            b = coeffs.beta(fpts[f, :, 0], fpts[f, :, 1]) @ mesh.facet_normals[f]
            tr1 = space.eval_elements([k1], fpts[f][None])\
                .values[0] @ v.reshape(mesh.n_elements, -1)[k1]
            if mesh.facet_right[f] == BOUNDARY:
                witness += 0.5 * np.sum(fw[f] * np.abs(b) * tr1**2)
            else:
                k2 = mesh.facet_right[f]
                tr2 = space.eval_elements([k2], fpts[f][None])\
                    .values[0] @ v.reshape(mesh.n_elements, -1)[k2]
                witness += 0.5 * np.sum(fw[f] * np.abs(b) * (tr1 - tr2) ** 2)
        assert quad >= 0.9 * witness
        assert quad == pytest.approx(witness, rel=1e-9)


def test_galerkin_consistency_smoke():
    from trefftzdg.basis import l2_project
    from trefftzdg.quadrature import triangle_rule

    coeffs = builtin_case("AR_EXAMPLE")
    residuals = []
    for n in (2, 4, 8):
        mesh = build_structured_mesh(n)
        sys = assemble_global_system(AR_UPWIND, mesh, p=2, coeffs=coeffs)
        space = sys.space
        c = np.zeros(space.ndof_total)
        for k in range(mesh.n_elements):
            rule = triangle_rule(mesh.vertices[mesh.triangles[k]], 10, positive=True)
            c[space.offsets[k] : space.offsets[k] + space.ndof_local] = l2_project(
                coeffs.exact_solution, space.element_basis(k), rule
            )
        residuals.append(np.linalg.norm(sys.matrix @ c - sys.load))
    assert residuals[1] < residuals[0] and residuals[2] < residuals[1]


def test_parameter_validation():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(1)
    with pytest.raises(ValueError):
        assemble_global_system(DAR_SIP, mesh, p=2, coeffs=coeffs, sigma=0.0)
    with pytest.raises(ValueError):
        assemble_global_system(DAR_SIP, mesh, p=2, coeffs=coeffs)  # sigma missing
    ar_coeffs = manufactured_case(alpha=1, exact=sp.Integer(0))
    with pytest.raises(ValueError):
        assemble_global_system(AR_UPWIND, mesh, p=2, coeffs=ar_coeffs)  # no beta
    with pytest.raises(ValueError):
        assemble_global_system("SOMETHING", mesh, p=2, coeffs=coeffs, sigma=1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_non_finite_penalty_rejected(sigma):
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(1)
    with pytest.raises(ValueError, match=f"sigma, got {sigma}"):
        assemble_global_system(DAR_SIP, mesh, p=2, coeffs=coeffs, sigma=sigma)


def test_nonpositive_alpha_detected_at_assembly():
    coeffs = manufactured_case(alpha=sp.sympify("x - 2"), exact=sp.sympify("x*y"))
    mesh = build_structured_mesh(2)
    with pytest.raises(ValueError, match="positive"):
        assemble_global_system(DAR_SIP, mesh, p=2, coeffs=coeffs, sigma=50.0)


def test_facet_alpha_rule_bounds():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(3)
    space = BrokenSpace(mesh, 2)
    means = element_alpha_means(space, coeffs)
    af = facet_alpha(space, coeffs)
    assert af.shape == (mesh.n_facets,)
    for f in mesh.interior_facets:
        k1, k2 = mesh.facet_left[f], mesh.facet_right[f]
        assert af[f] == pytest.approx(0.5 * (means[k1] + means[k2]))
    for f in mesh.boundary_facets:
        assert af[f] == pytest.approx(means[mesh.facet_left[f]])
    # stays within [min alpha, max alpha] over the domain
    assert np.all(af >= 1.0) and np.all(af <= 3.0)


def test_matrix_export_round_trip():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(1)
    sys = assemble_global_system(AR_UPWIND, mesh, p=1, coeffs=coeffs)
    buf = io.StringIO()
    export_matrix_coo(sys, buf)
    dense = np.zeros(sys.matrix.shape)
    for line in buf.getvalue().strip().split("\n"):
        i, j, v = line.split()
        dense[int(i), int(j)] = float(v)
    assert np.allclose(dense, sys.matrix.toarray(), atol=1e-14)
