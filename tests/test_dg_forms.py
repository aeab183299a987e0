import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp

from trefftzdg import dg_forms
from trefftzdg.basis import BrokenSpace
from trefftzdg.coefficients import builtin_case, manufactured_case
from trefftzdg.dg_forms import (
    assemble_global_system,
    default_sigma,
    element_alpha_means,
    facet_alpha,
)
from trefftzdg.local_ops import AR, assemble_local_operators
from trefftzdg.mesh import BOUNDARY, build_structured_mesh
from trefftzdg.quadrature import facet_quadrature, volume_quadrature

from flows import rotating_flow
from projection import l2_projection


def constant_one_vector(space):
    c = np.zeros(space.ndof_total)
    c[space.offsets] = np.sqrt(space.mesh.areas)
    return c


def test_ar_constant_bilinear_value_oracle():
    # a_h(1,1) = integral of gamma + inflow integral of |beta.n|
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(3)
    sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs)
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
    sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=sigma)
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
    sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=50.0)
    assert np.allclose(sys.load, 0.0, atol=1e-14)


def test_sip_symmetry_without_advection():
    coeffs = builtin_case("BOX_DIFFUSION_2D")
    mesh = build_structured_mesh(3)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=50 * 9.0)
    A = sys.matrix
    asym = (A - A.T).tocoo()
    denom = np.sqrt((A.multiply(A)).sum())
    num = math.sqrt(np.sum(asym.data**2)) if asym.nnz else 0.0
    assert num <= 1e-10 * denom


def test_block_sparsity_pattern():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(2)
    sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=200.0)
    nd = sys.space.ndof_local
    allowed = {(k, k) for k in range(mesh.n_elements)}
    for f in mesh.interior_facets:
        k1, k2 = mesh.facet_left[f], mesh.facet_right[f]
        allowed.add((k1, k2))
        allowed.add((k2, k1))
    coo = sys.matrix.tocoo()
    pairs = set(zip(coo.row // nd, coo.col // nd))
    assert pairs <= allowed


#: a builtin case of each DG form with its penalty; the ids name the form
#: the data picks, upwind or symmetric interior penalty
CASES = [
    pytest.param("AR_EXAMPLE", None, id="AR_EXAMPLE-AR_UPWIND-None"),
    pytest.param("DAR_EXAMPLE", 200.0, id="DAR_EXAMPLE-DAR_SIP-200.0"),
]

#: the upwind form on a closed flow, whose beta.n changes sign along the
#: facets that the perpendicular from the centre of the square meets
ROTATING = "ROTATING_FLOW"


def case_data(case):
    """The coefficients of a builtin ``case`` or of :data:`ROTATING`."""
    return rotating_flow() if case == ROTATING else builtin_case(case)


def stored_pairs(blocks):
    """The ``(row, column)`` element pairs of the stored blocks."""
    rows = np.repeat(np.arange(len(blocks.indptr) - 1), np.diff(blocks.indptr))
    return set(zip(rows.tolist(), blocks.indices.tolist()))


def assemble_capturing_terms(monkeypatch, space, coeffs, sigma=None):
    """Assemble on ``space`` and capture every term the assembly computed:
    the volume blocks ``(elements, blocks)`` and the facet matrices
    ``(facets, M)`` of each batch, in the order they were computed."""
    volume, facet = [], []
    volume_matrices = BrokenSpace.volume_matrices
    facet_terms = dg_forms._facet_terms

    def capture_volume(self, elems, *args, **kwargs):
        blocks = volume_matrices(self, elems, *args, **kwargs)
        volume.append((np.arange(self.mesh.n_elements)[elems], blocks))
        return blocks

    def capture_facets(space, facets, *args):
        M, test = facet_terms(space, facets, *args)
        facet.append((facets, M))
        return M, test

    monkeypatch.setattr(BrokenSpace, "volume_matrices", capture_volume)
    monkeypatch.setattr(dg_forms, "_facet_terms", capture_facets)
    sys = assemble_global_system(space, coeffs, sigma=sigma)
    monkeypatch.undo()
    return sys, volume, facet


def incidence_order_terms(mesh, nd, volume, facet):
    """The captured terms as the self terms ``(elements, blocks)`` and the
    coupling terms ``(test, trial, blocks)`` of an assembly that computes
    its interior facets in batches of 2,048, each batch's K1 self blocks
    before its K2 ones, then its boundary facets, after the volume."""
    inner = np.concatenate([f for f, m in facet if m.shape[1] == 2 * nd])
    outer = np.concatenate([f for f, m in facet if m.shape[1] == nd])
    M_inner = np.concatenate([m for f, m in facet if m.shape[1] == 2 * nd])
    M_outer = np.concatenate([m for f, m in facet if m.shape[1] == nd])
    assert np.array_equal(inner, mesh.interior_facets)
    assert np.array_equal(outer, mesh.boundary_facets)
    own, pairs = list(volume), []
    for start in range(0, len(inner), 2048):
        run = slice(start, start + 2048)
        left, right, m = mesh.facet_left[inner[run]], mesh.facet_right[inner[run]], M_inner[run]
        own += [(left, m[:, :nd, :nd]), (right, m[:, nd:, nd:])]
        pairs += [(left, right, m[:, :nd, nd:]), (right, left, m[:, nd:, :nd])]
    own.append((mesh.facet_left[outer], M_outer))
    return own, pairs


def reference_block_matrix(n_elements, own, pairs):
    """BSR matrix of the element self terms ``own`` ``(elements, blocks)``
    and the coupling terms ``pairs`` ``(test, trial, blocks)``: the self
    terms sum into the diagonal blocks in term order, by a sparse incidence
    product, and a coupling block is stored only if it has a nonzero
    entry. The assembly must reproduce it bit for bit."""
    elems = np.concatenate([e for e, _ in own])
    terms = np.concatenate([b for _, b in own])
    m, nd, _ = terms.shape
    incidence = sparse.csr_matrix((np.ones(m), (elems, np.arange(m))), shape=(n_elements, m))
    rows, cols = [np.arange(n_elements)], [np.arange(n_elements)]
    data = [(incidence @ terms.reshape(m, -1)).reshape(n_elements, nd, nd)]
    for test, trial, blocks in pairs:
        keep = np.any(blocks != 0.0, axis=(1, 2))
        rows.append(test[keep])
        cols.append(trial[keep])
        data.append(blocks[keep])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_elements))])
    n = n_elements * nd
    return sparse.bsr_matrix((np.concatenate(data)[order], cols[order], indptr), shape=(n, n))


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize(
    "case,sigma", CASES + [pytest.param(ROTATING, None, id="ROTATING_FLOW-AR_UPWIND-None")]
)
def test_matrix_is_the_coo_sum_of_its_terms_without_zero_blocks(
    monkeypatch, perturbed_mesh, perturbed, case, sigma
):
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    space = BrokenSpace(mesh, 2)
    sys, volume, facet = assemble_capturing_terms(monkeypatch, space, case_data(case), sigma)
    # every entry of every term as one COO entry, duplicates summed
    nd = sys.space.ndof_local
    local = np.arange(nd)
    terms = list(volume)
    for facets, M in facet:
        sides = [mesh.facet_left[facets]]
        if M.shape[1] == 2 * nd:
            sides.append(mesh.facet_right[facets])
        # the dofs of the facet's elements, K1 first
        terms.append((np.concatenate([(k * nd)[:, None] + local for k in sides], axis=1), M))
    rows, cols, vals = [], [], []
    for elements, blocks in terms:
        dofs = elements if elements.ndim == 2 else (elements * nd)[:, None] + local
        rows.append(np.broadcast_to(dofs[:, :, None], blocks.shape))
        cols.append(np.broadcast_to(dofs[:, None, :], blocks.shape))
        vals.append(blocks)
    rows, cols, vals = (np.concatenate([a.ravel() for a in x]) for x in (rows, cols, vals))
    coo = sparse.coo_matrix((vals, (rows, cols)), shape=sys.matrix.shape).tocsr()
    assert abs(sys.matrix - coo).max() <= 1e-14 * abs(coo).max()
    # the stored blocks are the matrix entries, and none of them is all zero
    blocks = sys.blocks
    assert sys.matrix.nnz == blocks.data.size
    assert np.all(np.any(blocks.data != 0.0, axis=(1, 2)))
    couplings = blocks.data.shape[0] - mesh.n_elements
    if case == "AR_EXAMPLE":
        # beta = (-x, y) keeps one sign of beta.n along every interior facet
        # of these meshes, so each facet couples in its upwind direction only
        assert couplings == len(mesh.interior_facets)
    elif case == ROTATING:
        # a facet whose beta.n changes sign among its points keeps both
        # blocks: K1 tests the inflow from K2 where beta.n < 0, K2 that from
        # K1 where beta.n > 0
        inner = mesh.interior_facets
        pts, _ = facet_quadrature(mesh, 2 * space.degree + 2)
        beta = case_data(case).beta(pts[inner, :, 0], pts[inner, :, 1])
        bn = np.einsum("fqd,fd->fq", beta, mesh.facet_normals[inner])
        left, right = mesh.facet_left[inner], mesh.facet_right[inner]
        into_left, into_right = np.any(bn < 0.0, axis=1), np.any(bn > 0.0, axis=1)
        assert np.any(into_left & into_right)
        expected = set(zip(left[into_left].tolist(), right[into_left].tolist()))
        expected |= set(zip(right[into_right].tolist(), left[into_right].tolist()))
        assert stored_pairs(blocks) - {(k, k) for k in range(mesh.n_elements)} == expected
        assert len(inner) < couplings < 2 * len(inner)
    else:
        assert couplings == 2 * len(mesh.interior_facets)


@pytest.mark.parametrize(
    "case,p,n,mesh_kind",
    [
        # 3,008 interior facets: more than one run of 2,048
        ("AR_EXAMPLE", 3, 32, "structured"),
        ("DAR_EXAMPLE", 6, 12, "structured"),
        # 2,133 interior facets, SIP
        ("DAR_EXAMPLE", 2, 27, "perturbed"),
        ("AR_EXAMPLE", 2, 27, "shuffled"),
        # odd n: 79 facets with both coupling blocks, across two runs
        (ROTATING, 3, 27, "structured"),
    ],
)
def test_blocks_are_the_incidence_sum_of_the_terms_bit_for_bit(
    monkeypatch, perturbed_mesh, shuffled_mesh, case, p, n, mesh_kind
):
    builders = {"structured": build_structured_mesh, "perturbed": perturbed_mesh,
                "shuffled": shuffled_mesh}
    mesh = builders[mesh_kind](n)
    space = BrokenSpace(mesh, p)
    sys, volume, facet = assemble_capturing_terms(monkeypatch, space, case_data(case))
    own, pairs = incidence_order_terms(mesh, sys.space.ndof_local, volume, facet)
    reference = reference_block_matrix(mesh.n_elements, own, pairs)
    blocks = sys.blocks
    assert blocks.data.shape == reference.data.shape
    assert np.array_equal(blocks.data.view(np.uint64), reference.data.view(np.uint64))
    assert np.array_equal(blocks.indices, reference.indices)
    assert np.array_equal(blocks.indptr, reference.indptr)


def test_assembly_transient_is_a_few_times_the_system():
    space = BrokenSpace(build_structured_mesh(32), 3)
    coeffs = builtin_case("AR_EXAMPLE")
    assemble_global_system(space, coeffs)  # the space's cached rules and tables
    tracemalloc.start()
    try:
        sys = assemble_global_system(space, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (sys.blocks.data.nbytes + sys.load.nbytes)


def textbook_system(mesh, p, coeffs, sigma):
    """Dense DG matrix and load from the textbook upwind and SIP terms
    (Arnold, Brezzi, Cockburn and Marini 2002), one quadrature point at a
    time. In the volume ``(beta . grad u + gamma u) v`` (plus
    ``alpha grad u . grad v`` for SIP) with load ``f v``. On an interior
    facet with unit normal ``n`` from ``K1`` to ``K2``, ``[u] = u1 - u2``
    and ``{u} = (u1 + u2) / 2``:
    ``-(beta.n) [u]{v} + |beta.n|/2 [u][v]``, and for SIP
    ``- {alpha d_n u}[v] - [u]{alpha d_n v} + sigma alpha_F/|F| [u][v]``.
    On a boundary facet ``|beta.n| u v`` where ``beta.n < 0`` (load
    ``|beta.n| g v``), and for SIP ``- alpha d_n u v - u alpha d_n v +
    sigma alpha_F/|F| u v`` (load ``sigma alpha_F/|F| g v - g alpha d_n v``).
    """
    space = BrokenSpace(mesh, p)
    nd = space.ndof_local
    matrix = np.zeros((space.ndof_total, space.ndof_total))
    load = np.zeros(space.ndof_total)
    diffusive = coeffs.alpha is not None
    af = facet_alpha(space, coeffs) if diffusive else None

    def basis(k, point):
        ev = space.eval_elements([k], np.reshape(point, (1, 1, 2)), gradients=True)
        return ev.values[0, 0], ev.gradients[0, 0]

    def dofs(*elements):
        return np.concatenate([np.arange(k * nd, (k + 1) * nd) for k in elements])

    for k in range(mesh.n_elements):
        own = np.ix_(dofs(k), dofs(k))
        for point, w in zip(space.volume_points[k], space.volume_weights[k]):
            x, y = point
            v, grad = basis(k, point)
            matrix[own] += w * np.outer(v, grad @ coeffs.beta(x, y) + coeffs.gamma(x, y) * v)
            if diffusive:
                matrix[own] += w * coeffs.alpha(x, y) * (grad @ grad.T)
            load[dofs(k)] += w * coeffs.f(x, y) * v

    fpts, fw = facet_quadrature(mesh, 2 * p + 2)
    for f in range(mesh.n_facets):
        k1, k2, n = mesh.facet_left[f], mesh.facet_right[f], mesh.facet_normals[f]
        penalty = sigma * af[f] / mesh.facet_lengths[f] if diffusive else 0.0
        for point, w in zip(fpts[f], fw[f]):
            x, y = point
            bn = coeffs.beta(x, y) @ n
            alpha = coeffs.alpha(x, y) if diffusive else 0.0
            v1, grad1 = basis(k1, point)
            if k2 == BOUNDARY:
                g, dn = coeffs.g_D(x, y), grad1 @ n
                inflow = -bn if bn < 0 else 0.0
                matrix[np.ix_(dofs(k1), dofs(k1))] += w * (
                    (inflow + penalty) * np.outer(v1, v1)
                    - alpha * (np.outer(v1, dn) + np.outer(dn, v1))
                )
                load[dofs(k1)] += w * ((inflow + penalty) * g * v1 - alpha * g * dn)
                continue
            v2, grad2 = basis(k2, point)
            jump = np.concatenate([v1, -v2])
            average = 0.5 * np.concatenate([v1, v2])
            flux = 0.5 * np.concatenate([grad1 @ n, grad2 @ n])
            matrix[np.ix_(dofs(k1, k2), dofs(k1, k2))] += w * (
                -bn * np.outer(average, jump)
                + (0.5 * abs(bn) + penalty) * np.outer(jump, jump)
                - alpha * (np.outer(jump, flux) + np.outer(flux, jump))
            )
    return matrix, load


@pytest.mark.parametrize("case,sigma", CASES)
def test_operator_matches_the_textbook_forms_point_by_point(perturbed_mesh, case, sigma):
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(3)
    sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=sigma)
    matrix, load = textbook_system(mesh, 2, coeffs, sigma)
    assert np.abs(sys.matrix.toarray() - matrix).max() <= 1e-13 * np.abs(matrix).max()
    assert np.abs(sys.load - load).max() <= 1e-13 * np.abs(load).max()


def test_system_keeps_the_operator_once_as_blocks():
    coeffs = builtin_case("DAR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(3), 2), coeffs, sigma=200.0)
    stored = [name for name, value in vars(sys).items() if sparse.issparse(value)]
    assert stored == ["blocks"]
    # the CSR matrix is built from the blocks on each request and is read-only
    matrix = sys.matrix
    assert matrix is not sys.matrix
    assert (matrix != sys.blocks.tocsr()).nnz == 0
    with pytest.raises(ValueError, match="read-only"):
        matrix.data[0] = 1.0
    with pytest.raises(AttributeError):
        sys.matrix = matrix


@pytest.mark.parametrize("case", ["DAR_EXAMPLE", "BOX_DIFFUSION_2D"])
def test_positive_definite_at_default_penalty(case):
    coeffs = builtin_case(case)
    mesh = build_structured_mesh(2)
    sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs)
    dense = sys.matrix.toarray()
    sym = 0.5 * (dense + dense.T)
    np.linalg.cholesky(sym)  # raises LinAlgError if not positive definite


def test_ar_coercivity_witness_identity():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(3)
    p = 2
    sys = assemble_global_system(BrokenSpace(mesh, p), coeffs)
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
    coeffs = builtin_case("AR_EXAMPLE")
    residuals = []
    for n in (2, 4, 8):
        mesh = build_structured_mesh(n)
        sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs)
        c = l2_projection(sys.space, coeffs.exact_solution, 10).ravel()
        residuals.append(np.linalg.norm(sys.matrix @ c - sys.load))
    assert residuals[1] < residuals[0] and residuals[2] < residuals[1]


def test_parameter_validation():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(1)
    with pytest.raises(ValueError):
        assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=0.0)


def test_data_without_diffusion_or_advection_is_rejected():
    coeffs = manufactured_case(gamma=1, exact=sp.Integer(0))
    with pytest.raises(ValueError, match="beta"):
        assemble_global_system(BrokenSpace(build_structured_mesh(1), 2), coeffs)


@pytest.mark.parametrize("case", ["DAR_EXAMPLE", "BOX_DIFFUSION_2D"])
def test_default_penalty_is_applied_at_assembly(case):
    coeffs, mesh = builtin_case(case), build_structured_mesh(2)
    default = assemble_global_system(BrokenSpace(mesh, 3), coeffs)
    explicit = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=default_sigma(3))
    assert default.sigma == explicit.sigma == default_sigma(3)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(default.blocks, attr), getattr(explicit.blocks, attr))
    assert np.array_equal(default.load, explicit.load)


def test_data_without_diffusion_keeps_no_penalty():
    coeffs, mesh = builtin_case("AR_EXAMPLE"), build_structured_mesh(2)
    plain = assemble_global_system(BrokenSpace(mesh, 2), coeffs)
    given = assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=5.0)
    assert plain.sigma is given.sigma is None
    assert plain.alpha_facet is given.alpha_facet is None
    assert (plain.matrix != given.matrix).nnz == 0
    assert np.array_equal(plain.load, given.load)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_non_finite_penalty_rejected(sigma):
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(1)
    with pytest.raises(ValueError, match=f"sigma, got {sigma}"):
        assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=sigma)


def test_nonpositive_alpha_detected_at_assembly():
    coeffs = manufactured_case(alpha=sp.sympify("x - 2"), exact=sp.sympify("x*y"))
    mesh = build_structured_mesh(2)
    with pytest.raises(ValueError, match="positive"):
        assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=50.0)


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


def test_sip_assembly_evaluates_alpha_once_per_volume_point():
    # 4,608 elements: several batches of the volume loop, which also give
    # the element means of alpha behind the facet weights
    coeffs = builtin_case("BOX_DIFFUSION_2D")
    space = BrokenSpace(build_structured_mesh(48), 2)
    calls = []

    def counting(x, y):
        calls.append(np.shape(x))
        return coeffs.alpha(x, y)

    system = assemble_global_system(space, dataclasses.replace(coeffs, alpha=counting))
    n_volume = space.volume_points.shape[1]
    assert space.facet_rule[0].shape[1] != n_volume
    volume = [shape for shape in calls if shape[1:] == (n_volume,)]
    batches = [chunk.stop - chunk.start for chunk in space.element_batches()]
    assert len(batches) > 1 and sum(batches) == space.mesh.n_elements
    assert [rows for rows, _ in volume] == batches
    assert np.array_equal(system.alpha_facet, facet_alpha(space, coeffs))


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("mesh", ["structured", "perturbed", "shuffled"])
def test_upwind_assembly_keeps_the_ar_local_operators(p, mesh, perturbed_mesh, shuffled_mesh):
    build = {"structured": build_structured_mesh, "perturbed": perturbed_mesh,
             "shuffled": shuffled_mesh}[mesh]
    # n = 32 runs the volume pass in several batches
    space = BrokenSpace(build(32 if mesh == "structured" else 8), p)
    coeffs = builtin_case("AR_EXAMPLE")
    system = assemble_global_system(space, coeffs)
    assert len(list(space.element_batches())) > 1 or mesh != "structured"
    kept, reference = system.local_operators, assemble_local_operators(AR, space, coeffs)
    assert kept.kind == AR
    np.testing.assert_array_equal(kept.elements, reference.elements)
    for ours, theirs in ((kept.matrices, reference.matrices), (kept.rhs, reference.rhs)):
        assert ours.shape == theirs.shape
        assert np.linalg.norm(ours - theirs) <= 1e-14 * np.linalg.norm(theirs)


def test_sip_assembly_keeps_no_local_operators():
    space = BrokenSpace(build_structured_mesh(2), 3)
    system = assemble_global_system(space, builtin_case("DAR_EXAMPLE"))
    assert system.local_operators is None


@pytest.mark.parametrize(
    "case,kind", [("AR_EXAMPLE", "AR"), ("DAR_EXAMPLE", "DAR"), ("BOX_DIFFUSION_2D", "DAR_BOX")]
)
def test_tested_width_drops_rows_and_keeps_every_entry(case, kind):
    # the Trefftz facet pass tests against the kernels only: u_L is a trial
    # column, not a tested row. Every kept entry of the blocks is bit for
    # bit the one tested against [T | u_L]; the load's boundary sums run
    # over a narrower table, which numpy's contraction may round otherwise
    from trefftzdg.dg_forms import assemble_in_basis, assemble_volume_terms
    from trefftzdg.embedding import build_embedding

    coeffs = builtin_case(case)
    space = BrokenSpace(build_structured_mesh(4), 3)
    emb = build_embedding(space, coeffs, kind, system=assemble_volume_terms(space, coeffs))
    T = emb.kernels
    w = T.shape[2]
    own = np.concatenate([T, emb.u_L.reshape(len(T), -1, 1)], axis=2)
    shapes = []
    facet_terms = dg_forms._facet_terms

    def recording(*args):
        M, test = facet_terms(*args)
        shapes.append((M.shape[1:], test.shape[2]))
        return M, test

    data, load = assemble_in_basis(assemble_volume_terms(space, coeffs), [own])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dg_forms, "_facet_terms", recording)
        kept, kept_load = assemble_in_basis(assemble_volume_terms(space, coeffs), [own], w)
    assert set(shapes) == {((2 * w, 2 * (w + 1)), 2 * w), ((w, w + 1), w)}
    np.testing.assert_array_equal(kept, data[:, :w])
    want = load.reshape(len(T), w + 1)[:, :w].ravel()
    np.testing.assert_allclose(kept_load, want, rtol=0, atol=1e-15 * np.abs(want).max())
