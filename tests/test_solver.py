import tracemalloc
import warnings
from dataclasses import replace

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from trefftzdg import solver
from trefftzdg.analysis import compute_errors, run_diagnostics
from trefftzdg.basis import BrokenSpace
from trefftzdg.cli import main
from trefftzdg.coefficients import builtin_case, manufactured_case
from trefftzdg.dg_forms import DgSystem, assemble_global_system, volume_terms
from trefftzdg.embedding import (
    assemble_global_embedding,
    block_matrix,
    build_embedding,
    compute_embedding,
)
from trefftzdg.local_ops import AR, DAR, assemble_local_operators
from trefftzdg.mesh import Mesh2D, build_structured_mesh
from trefftzdg.solver import (
    BLOCK_COUPLED,
    EMBEDDED_TREFFTZ,
    STANDARD_DG,
    SolverError,
    solve_block_coupled,
    solve_embedded_trefftz,
    solve_standard_dg,
)

from flows import rotating_flow
from projection import l2_projection
from prolongation import prolongation, trailing

LAPLACE_SADDLE = manufactured_case(alpha=1, exact=sp.sympify("x**2 - y**2"), name="laplace")

#: a builtin case of each DG form with its local kind and penalty; the ids
#: name the form the data picks, upwind or symmetric interior penalty
CASES = [
    pytest.param("AR_EXAMPLE", AR, None, id="AR_EXAMPLE-AR_UPWIND-AR-None"),
    pytest.param("DAR_EXAMPLE", DAR, 450.0, id="DAR_EXAMPLE-DAR_SIP-DAR-450.0"),
]


def l2_error(solution, exact):
    space = solution.space
    mesh = space.mesh
    elems = np.arange(mesh.n_elements)
    vals = solution.element_values(elems, space.volume_points)
    x, y = space.volume_points[..., 0], space.volume_points[..., 1]
    return np.sqrt(np.sum(space.volume_weights * (vals - exact(x, y)) ** 2))


def test_zero_data_gives_zero_solutions():
    coeffs = manufactured_case(alpha=1, exact=sp.Integer(0))
    mesh = build_structured_mesh(2)
    sys = assemble_global_system(BrokenSpace(mesh, 2), coeffs, sigma=200.0)
    u_dg = solve_standard_dg(sys)
    assert np.allclose(u_dg.coeffs, 0.0, atol=1e-12)
    assert u_dg.method == STANDARD_DG
    emb = build_embedding(sys.space, coeffs, DAR)
    u_et = solve_embedded_trefftz(sys, emb)
    assert np.allclose(u_et.coeffs, 0.0, atol=1e-12)
    assert u_et.method == EMBEDDED_TREFFTZ
    u_bl = solve_block_coupled(sys, emb)
    assert np.allclose(u_bl.coeffs, 0.0, atol=1e-12)
    assert u_bl.method == BLOCK_COUPLED


def test_exactly_representable_solution():
    mesh = build_structured_mesh(2)
    p = 2
    sys = assemble_global_system(BrokenSpace(mesh, p), LAPLACE_SADDLE, sigma=50.0 * p * p)
    u_dg = solve_standard_dg(sys)
    exact = LAPLACE_SADDLE.exact_solution
    assert l2_error(u_dg, exact) < 1e-8
    # projection of the exact solution solves the linear system
    space = sys.space
    c = l2_projection(space, exact, 2 * p + 4).ravel()
    residual = np.linalg.norm(sys.matrix @ c - sys.load)
    assert residual < 1e-9 * max(1.0, np.linalg.norm(sys.load))
    # embedded Trefftz reproduces the standard solution coefficient-wise
    emb = build_embedding(space, LAPLACE_SADDLE, DAR)
    u_et = solve_embedded_trefftz(sys, emb)
    assert np.linalg.norm(u_et.coeffs - u_dg.coeffs) < 1e-8
    assert l2_error(u_et, exact) < 1e-8


def test_residual_contract_on_builtin_runs():
    for case, sigma in (("AR_EXAMPLE", None), ("DAR_EXAMPLE", 50.0 * 9)):
        coeffs = builtin_case(case)
        mesh = build_structured_mesh(4)
        sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
        u = solve_standard_dg(sys)
        res = np.linalg.norm(sys.matrix @ u.coeffs - sys.load)
        assert res <= 1e-10 * np.linalg.norm(sys.load)
        assert u.ndof_full == sys.space.ndof_total


def test_embedded_error_close_to_standard_ar():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(8)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs)
    u_dg = solve_standard_dg(sys)
    emb = build_embedding(sys.space, coeffs, AR)
    u_et = solve_embedded_trefftz(sys, emb)
    exact = coeffs.exact_solution
    e_dg = l2_error(u_dg, exact)
    e_et = l2_error(u_et, exact)
    assert e_et <= 2.0 * e_dg
    assert u_et.ndof_trefftz == 4 * mesh.n_elements


def test_local_rows_satisfied_by_embedded_solution():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(4)
    p = 3
    sys = assemble_global_system(BrokenSpace(mesh, p), coeffs, sigma=50.0 * p * p)
    emb = build_embedding(sys.space, coeffs, DAR)
    u = solve_embedded_trefftz(sys, emb)
    nd = sys.space.ndof_local
    for k, op in enumerate(emb.local_operators):
        uk = u.coeffs[k * nd : (k + 1) * nd]
        res = np.linalg.norm(op.matrix @ uk - op.rhs)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(op.rhs))


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_block_solver_matches_embedded(perturbed_mesh, perturbed, case, local_kind, sigma):
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    u_et = solve_embedded_trefftz(sys, emb)
    u_bl = solve_block_coupled(sys, emb)
    gap = np.linalg.norm(u_bl.coeffs - u_et.coeffs) / np.linalg.norm(u_et.coeffs)
    assert gap <= 1e-8


@pytest.mark.parametrize(
    "case,local_kind,sigma,factorizations",
    [
        pytest.param("DAR_EXAMPLE", DAR, 450.0, 1, id="DAR_EXAMPLE-SIP"),
        pytest.param("AR_EXAMPLE", AR, None, 0, id="AR_EXAMPLE-upwind-swept"),
        pytest.param("rotating", AR, None, 1, id="rotating_flow-upwind-LU"),
    ],
)
def test_coupled_solve_returns_the_embedded_solution(
    monkeypatch, case, local_kind, sigma, factorizations
):
    coeffs = rotating_flow() if case == "rotating" else builtin_case(case)
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(6), 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    factored = recording_factorizations(monkeypatch)
    u = solve_block_coupled(sys, emb)
    # at most one LU, of T'AT, for the embedded and the Schur solve
    assert len(factored) == factorizations
    assert np.array_equal(u.block_parts["u_E"], solve_embedded_trefftz(sys, emb).coeffs)


def complement(emb):
    """The complement bases ``Q_1`` ``(E, n, m)`` of the coupled solve."""
    return emb.factors.Q[:, :, : emb.local_operators.matrices.shape[1]]


def coupled_system(sys, emb):
    """The assembled 2x2 system, local rows ``[AL AT]`` and global rows
    ``[T'AL T'AT]``, and its right-hand side ``[l, T'g]``."""
    A = np.stack([op.matrix for op in emb.local_operators])
    load = np.stack([op.rhs for op in emb.local_operators])
    L, T = complement(emb), emb.kernels
    matrix = sparse.bmat(
        [
            [sparse.block_diag(list(A @ L)), sparse.block_diag(list(A @ T))],
            [projected(sys, T, L), projected(sys, T, T)],
        ]
    )
    T_global = sparse.block_diag(list(T))
    return matrix, np.concatenate([load.ravel(), T_global.T @ sys.load])


def assert_solves_the_block_system(u, sys, emb):
    matrix, rhs = coupled_system(sys, emb)
    x = np.concatenate([u.block_parts["c_L"], u.block_parts["c_T"]])
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_condensed_solution_solves_the_whole_block_system(
    perturbed_mesh, perturbed, case, local_kind, sigma
):
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    u = solve_block_coupled(sys, emb)
    assert_solves_the_block_system(u, sys, emb)
    parts = u.block_parts
    A = np.stack([op.matrix for op in emb.local_operators])
    load = np.stack([op.rhs for op in emb.local_operators])
    L = complement(emb)
    n_elements, m, n = A.shape
    c_L = parts["c_L"].reshape(n_elements, m)
    u_L = np.concatenate([L[k] @ c_L[k] for k in range(n_elements)])
    assert np.abs(parts["u_L"] - u_L).max() <= 1e-14 * np.abs(u_L).max()
    assert np.array_equal(u.coeffs, parts["u_L"] + parts["u_T"])
    u_K = u.coeffs.reshape(n_elements, n)
    for k in range(n_elements):
        assert np.linalg.norm(A[k] @ u_K[k] - load[k]) <= 1e-12 * np.linalg.norm(load[k])


@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_condensation_solves_a_block_system_that_does_not_decouple(
    case, local_kind, sigma
):
    # with the kernels, A T vanishes to rounding and so does the coupling
    # term of the Schur complement; columns T mixed with the complement
    # make A T of the size of A, and the condensed solve must still hold
    coeffs = builtin_case(case)
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(4), 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    mixed = mixed_kernels(emb)
    A = np.stack([op.matrix for op in emb.local_operators])
    assert np.linalg.norm(A @ mixed.kernels) >= 0.1 * np.linalg.norm(A)
    u = solve_block_coupled(sys, mixed)
    assert_solves_the_block_system(u, sys, mixed)


def mixed_kernels(emb):
    """``emb`` with its kernels ``T`` mixed with the complement: orthonormal
    columns that ``A`` does not annihilate, so that the coupling term
    ``T'AL X_T`` of the Schur complement is of the size of ``T'AT``."""
    L = complement(emb)
    rng = np.random.default_rng(7)
    mixing = rng.standard_normal((L.shape[2], emb.kernels.shape[2]))
    return replace(emb, kernels=np.linalg.qr(emb.kernels + 0.5 * L @ mixing)[0])


def sip_system(n=4, p=3):
    """The SIP system of ``DAR_EXAMPLE`` and its ``DAR`` embedding."""
    coeffs = builtin_case("DAR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(n), p), coeffs, sigma=450.0)
    return sys, build_embedding(sys.space, coeffs, DAR)


def test_coupled_solve_factors_the_reduced_matrix_once(monkeypatch):
    sys, emb = sip_system()
    direct = recording_direct_matrices(monkeypatch)
    factored = recording_factorizations(monkeypatch)
    u = solve_block_coupled(sys, emb)
    # one unpivoted factorization, of the ordered T'AT, by the embedded
    # solve: the Schur system is refined against it, in the same order,
    # and meets the residual contract on S itself
    (reduced, _, perm_reduced, _), (schur, rhs, perm, c_t) = direct
    ((matrix, options, _),) = factored
    assert np.array_equal(perm_reduced, perm)
    assert_sorted_and_equal(reduced, matrix)
    assert options["permc_spec"] == "NATURAL"
    assert_sorted_and_equal(matrix, plain_ordered(trefftz_matrix(sys, emb), perm))
    inverse = np.argsort(perm)
    S = schur[inverse][:, inverse]
    assert np.linalg.norm(S @ c_t - rhs) <= solver._RESIDUAL_TOL * np.linalg.norm(rhs)
    assert np.abs(S - schur_complement(sys, emb)).max() <= 1e-13 * np.abs(S).max()
    assert (abs(S - trefftz_matrix(sys, emb))).max() > 0
    assert_solves_the_block_system(u, sys, emb)


def test_schur_complement_far_from_the_reduced_matrix_is_factored_itself(monkeypatch):
    # mixed kernels make S differ from T'AT at the size of T'AT: refinement
    # against the LU of T'AT misses the contract, and S is factored
    sys, emb = sip_system()
    mixed = mixed_kernels(emb)
    direct = recording_direct_matrices(monkeypatch)
    handed = recording_handed_matrices(monkeypatch)
    calls = count_factorizations(monkeypatch)
    u = solve_block_coupled(sys, mixed)
    _, (schur, rhs, perm, c_t) = direct
    assert_sorted_and_equal(handed[0], plain_ordered(trefftz_matrix(sys, mixed), perm))
    assert_sorted_and_equal(handed[1], schur)
    assert [options.get("permc_spec") for options in calls] == ["NATURAL"] * 2
    inverse = np.argsort(perm)
    residual = np.linalg.norm(schur[inverse][:, inverse] @ c_t - rhs)
    assert residual <= solver._RESIDUAL_TOL * np.linalg.norm(rhs)
    assert_solves_the_block_system(u, sys, mixed)


def test_solves_reject_an_embedding_of_another_degree():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(3)
    sys4 = assemble_global_system(BrokenSpace(mesh, 4), coeffs)
    emb3 = build_embedding(BrokenSpace(mesh, 3), coeffs, AR)
    with pytest.raises(ValueError, match="embedding and system dimensions do not match"):
        solve_embedded_trefftz(sys4, emb3)
    with pytest.raises(ValueError, match="embedding and system dimensions do not match"):
        solve_block_coupled(sys4, emb3)


def test_block_splits_differ_but_sums_agree():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(4)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs)
    emb = build_embedding(sys.space, coeffs, AR)
    # another orthonormal basis of every complement: Q_1 times a seeded
    # random orthogonal m x m matrix
    Q, m = emb.factors.Q.copy(), emb.local_operators.matrices.shape[1]
    rotation = np.linalg.qr(np.random.default_rng(11).standard_normal((m, m)))[0]
    Q[:, :, :m] = Q[:, :, :m] @ rotation
    rotated = replace(emb, factors=replace(emb.factors, Q=Q))
    u_svd = solve_block_coupled(sys, emb)
    u_rot = solve_block_coupled(sys, rotated)
    total = np.linalg.norm(u_svd.coeffs)
    assert np.linalg.norm(u_svd.coeffs - u_rot.coeffs) <= 1e-8 * total
    # both bases span the same complement, so the split functions agree,
    # but the coordinate vectors in the two bases must differ
    diff_c = np.linalg.norm(u_svd.block_parts["c_L"] - u_rot.block_parts["c_L"])
    assert diff_c > 1e-8 * np.linalg.norm(u_svd.block_parts["c_L"])
    assert np.allclose(
        u_svd.block_parts["u_L"], u_rot.block_parts["u_L"], atol=1e-10
    )


def test_dof_accounting_ratios():
    for case, local_kind, sigma, expected in (
        ("AR_EXAMPLE", AR, None, 4 / 10),
        ("DAR_EXAMPLE", DAR, 450.0, 7 / 10),
    ):
        coeffs = builtin_case(case)
        mesh = build_structured_mesh(2)
        sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
        emb = build_embedding(sys.space, coeffs, local_kind)
        u = solve_embedded_trefftz(sys, emb)
        assert u.ndof_trefftz / u.ndof_full == pytest.approx(expected)


def test_solves_reject_an_embedding_of_another_mesh():
    # the same triangles with the interior vertices moved: the dimensions
    # match, but the kernels belong to other elements
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(4)
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0) & (vertices < 1), axis=1)
    vertices[interior] += 0.05
    moved = assemble_global_system(BrokenSpace(Mesh2D(vertices, mesh.triangles), 3), coeffs)
    emb = build_embedding(BrokenSpace(mesh, 3), coeffs, AR)
    with pytest.raises(ValueError, match="embedding and system meshes do not match"):
        solve_embedded_trefftz(moved, emb)
    with pytest.raises(ValueError, match="embedding and system meshes do not match"):
        solve_block_coupled(moved, emb)
    # another space on the same mesh, or on an equal mesh built again, fits
    for other in (mesh, build_structured_mesh(4)):
        sys = assemble_global_system(BrokenSpace(other, 3), coeffs)
        solve_embedded_trefftz(sys, emb)
        solve_block_coupled(sys, emb)


def test_embedding_dimension_mismatch_rejected():
    coeffs = builtin_case("AR_EXAMPLE")
    sys4 = assemble_global_system(BrokenSpace(build_structured_mesh(4), 3), coeffs)
    space2 = BrokenSpace(build_structured_mesh(2), 3)
    emb2 = build_embedding(space2, coeffs, AR)
    with pytest.raises(ValueError):
        solve_embedded_trefftz(sys4, emb2)


def assert_entrywise_close(got, want, rtol=1e-14):
    got = got.toarray() if sparse.issparse(got) else got
    want = want.toarray() if sparse.issparse(want) else want
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def reduced_matrix(sys, emb):
    """The embedded Trefftz system ``T' A T`` in the numbering of the
    Trefftz unknowns and ``T' (l - A u_L)``, from the blocks the embedded
    solve forms in the Trefftz basis, the padding of narrower kernels
    dropped."""
    terms = volume_terms(sys)
    blocks, _, rhs = solver._trefftz_blocks(terms, emb)
    A, keep = terms.layout, trailing(np.diff(emb.offsets), emb.kernels.shape[2]).ravel()
    return block_matrix(blocks, A.indices, A.indptr)[keep][:, keep], rhs[keep]


def trefftz_matrix(sys, emb):
    """The blocks ``T_K' A_KL T_L`` that the Trefftz solves form, as one
    CSR matrix on the layout of ``sys``, the padding kept."""
    terms = volume_terms(sys)
    blocks = solver._trefftz_blocks(terms, emb)[0]
    return sparse.bsr_matrix((blocks, terms.layout.indices, terms.layout.indptr)).tocsr()


def assert_matches_the_triple_product(sys, emb):
    """The system the Trefftz basis pass forms is ``T' A T`` and ``T' (l -
    A u_L)`` of the assembled DG system, to 1e-14 of its largest entry."""
    matrix, rhs = reduced_matrix(sys, emb)
    T = prolongation(emb)
    assert_entrywise_close(matrix, T.T @ sys.matrix @ T)
    assert_entrywise_close(rhs, T.T @ (sys.load - sys.matrix @ emb.u_L))


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_reduced_system_matches_the_triple_product(
    perturbed_mesh, perturbed, case, local_kind, sigma
):
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    assert_matches_the_triple_product(sys, emb)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize(
    "case,local_kind,p", [("AR_EXAMPLE", AR, 1), ("AR_EXAMPLE", AR, 4), ("DAR_EXAMPLE", DAR, 4)]
)
def test_reduced_system_matches_the_triple_product_at_other_degrees(
    perturbed_mesh, perturbed, case, local_kind, p
):
    # p = 1: a kernel of one column against the constant; the DAR kinds
    # start at p = 2
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    sys = assemble_global_system(BrokenSpace(mesh, p), coeffs)
    emb = build_embedding(sys.space, coeffs, local_kind)
    assert_matches_the_triple_product(sys, emb)


def test_reduced_system_with_mixed_kernel_widths(zero_odd_operators):
    coeffs = builtin_case("AR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(2), 3), coeffs)
    with pytest.warns(UserWarning, match="4 of 8 elements"):
        emb = build_embedding(sys.space, coeffs, AR)
    assert list(np.diff(emb.offsets)) == [4, 10] * 4
    assert reduced_matrix(sys, emb)[0].shape == (56, 56)
    assert_matches_the_triple_product(sys, emb)


def untouchable(system):
    raise AssertionError("DgSystem.matrix used")


@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_trefftz_solves_never_use_the_assembled_matrix(
    monkeypatch, case, local_kind, sigma
):
    coeffs = builtin_case(case)
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(3), 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    u_et = solve_embedded_trefftz(sys, emb)
    u_bl = solve_block_coupled(sys, emb)
    monkeypatch.setattr(DgSystem, "matrix", property(untouchable))
    with pytest.raises(AssertionError):
        sys.matrix.tocsc()
    assert np.array_equal(solve_embedded_trefftz(sys, emb).coeffs, u_et.coeffs)
    assert np.array_equal(solve_block_coupled(sys, emb).coeffs, u_bl.coeffs)


@pytest.mark.parametrize(
    "case,sigma",
    [
        pytest.param("AR_EXAMPLE", None, id="AR_EXAMPLE-AR_UPWIND-None"),
        pytest.param("DAR_EXAMPLE", 450.0, id="DAR_EXAMPLE-DAR_SIP-450.0"),
    ],
)
def test_standard_solve_reads_the_blocks(monkeypatch, case, sigma):
    coeffs = builtin_case(case)
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(3), 2), coeffs, sigma=sigma)
    expected = solve_standard_dg(sys).coeffs
    monkeypatch.setattr(DgSystem, "matrix", property(untouchable))
    assert np.array_equal(solve_standard_dg(sys).coeffs, expected)


def test_hand_gathered_embedding_solves_like_build_embedding():
    coeffs = builtin_case("AR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(4), 3), coeffs)
    ops = assemble_local_operators(AR, sys.space, coeffs)
    gathered = assemble_global_embedding(sys.space.mesh, [compute_embedding(op) for op in ops])
    assert gathered.factors is None
    u = solve_embedded_trefftz(sys, gathered).coeffs
    reference = solve_embedded_trefftz(sys, build_embedding(sys.space, coeffs, AR)).coeffs
    assert np.linalg.norm(u - reference) <= 1e-12 * np.linalg.norm(reference)


def test_block_solver_rejects_embedding_without_factors():
    coeffs = builtin_case("AR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(2), 3), coeffs)
    ops = assemble_local_operators(AR, sys.space, coeffs)
    glob = assemble_global_embedding(sys.space.mesh, [compute_embedding(op) for op in ops])
    with pytest.raises(ValueError, match="build_embedding"):
        solve_block_coupled(sys, glob)


def test_singular_matrix_raises():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(1)
    space = BrokenSpace(mesh, 1)
    n, nd = space.ndof_total, space.ndof_local
    singular = DgSystem(
        blocks=sparse.bsr_matrix(sparse.csr_matrix((n, n)), blocksize=(nd, nd)),
        load=np.ones(n),
        space=space,
    )
    with pytest.raises(SolverError):
        solve_standard_dg(singular)


def count_factorizations(monkeypatch):
    """Record the keyword options of every LU factorization the solver makes."""
    calls = []
    original = solver.splu

    def counting(matrix, **options):
        calls.append(options)
        return original(matrix, **options)

    monkeypatch.setattr(solver, "splu", counting)
    return calls


#: a nonsingular, well conditioned element block whose subnormal leading
#: pivot overflows the unpivoted multipliers; SuperLU still swaps rows on an
#: exactly zero pivot, so a zero would not fail
SUBNORMAL_PIVOT = np.array([[1e-320, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])


def subnormal_pivot_system(coupled):
    """The block-diagonal system of :data:`SUBNORMAL_PIVOT` on every element
    of an 8-element mesh; ``coupled`` makes elements 0 and 1 depend on each
    other, one strongly connected component of two elements."""
    space = BrokenSpace(build_structured_mesh(2), 1)
    nd = space.ndof_local
    matrix = sparse.block_diag([SUBNORMAL_PIVOT] * space.mesh.n_elements, format="lil")
    if coupled:
        matrix[:nd, nd:2 * nd] = matrix[nd:2 * nd, :nd] = 0.1 * np.eye(nd)
    matrix = matrix.tocsr()
    load = np.linspace(1.0, 2.0, space.ndof_total)
    blocks = sparse.bsr_matrix(matrix, blocksize=(nd, nd))
    return matrix, DgSystem(blocks=blocks, load=load, space=space)


def test_pivoting_fallback_when_unpivoted_lu_fails(monkeypatch):
    calls = count_factorizations(monkeypatch)
    # the cyclic pair reaches the LU, whose unpivoted attempt fails
    matrix, system = subnormal_pivot_system(coupled=True)
    u = solve_standard_dg(system)
    assert calls == [{"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}, {}]
    assert np.linalg.norm(matrix @ u.coeffs - system.load) <= 1e-10 * np.linalg.norm(system.load)
    # block diagonal, the system is swept: the batched dense solve pivots
    # inside each block, so nothing is factored
    calls.clear()
    matrix, system = subnormal_pivot_system(coupled=False)
    u = solve_standard_dg(system)
    assert calls == []
    assert np.linalg.norm(matrix @ u.coeffs - system.load) <= 1e-10 * np.linalg.norm(system.load)


def test_singular_matrix_fails_both_factorizations(monkeypatch):
    space = BrokenSpace(build_structured_mesh(1), 1)
    n, nd = space.ndof_total, space.ndof_local
    blocks = sparse.bsr_matrix(sparse.csr_matrix((n, n)), blocksize=(nd, nd))
    singular = DgSystem(blocks=blocks, load=np.ones(n), space=space)
    sweeps = recording_sweeps(monkeypatch)
    calls = count_factorizations(monkeypatch)
    with pytest.raises(SolverError, match="factorization failed"):
        solve_standard_dg(singular)
    # no element depends on another, so the sweep is tried first; its
    # singular diagonal blocks hand the matrix to the LU
    assert sweeps == [None]
    assert len(calls) == 2


def test_sweep_missing_the_residual_contract_falls_back_to_the_lu(monkeypatch):
    # element 0's block has condition number 1e10, so no double solve meets
    # the contract: the sweep returns nothing and the LU reports the failure
    U, _ = np.linalg.qr(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]))
    V, _ = np.linalg.qr(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [5.0, 6.0, 0.0]]))
    block = U @ np.diag([1.0, 1.0, 1e-10]) @ V.T
    space = BrokenSpace(build_structured_mesh(1), 1)
    blocks = sparse.bsr_matrix(sparse.block_diag([block, np.eye(3)]), blocksize=(3, 3))
    system = DgSystem(blocks=blocks, load=np.ones(6), space=space)
    sweeps = recording_sweeps(monkeypatch)
    calls = count_factorizations(monkeypatch)
    with pytest.raises(SolverError, match="standard DG solve: relative residual"):
        solve_standard_dg(system)
    assert sweeps == [None]
    assert len(calls) == 2


def recording_sweeps(monkeypatch):
    """Record the result of every sweep, ``None`` where it fell back."""
    results = []
    sweep = solver._sweep

    def recording(*args):
        results.append(sweep(*args))
        return results[-1]

    monkeypatch.setattr(solver, "_sweep", recording)
    return results


def refuse_sweeps(monkeypatch):
    """Make every sweep fall back, so that acyclic systems reach the LU."""
    monkeypatch.setattr(solver, "_sweep", lambda *args: None)


def recording_ordered_solves(monkeypatch):
    """Record the system, blocks, kernel widths, right-hand side, label
    and solution of every ordered solve."""
    solves = []
    ordered_solve = solver._ordered_solve

    def recording(system, blocks, rhs, label, widths=None, nearby=None):
        x, lu = ordered_solve(system, blocks, rhs, label, widths, nearby)
        solves.append((system, blocks, widths, rhs, label, x))
        return x, lu

    monkeypatch.setattr(solver, "_ordered_solve", recording)
    return solves


def assert_match_plain_lu(solves):
    """Every recorded solution matches plain ``splu`` of the unordered
    matrix, the padding of narrower kernels dropped, to 1e-12 relative,
    and is zero on the padding."""
    for system, blocks, widths, rhs, _, x in solves:
        full = widths is None
        keep = np.full(len(rhs), True) if full else trailing(widths, blocks.shape[1]).ravel()
        plain = block_matrix(blocks, system.layout.indices, system.layout.indptr)
        reference = splu(plain[keep][:, keep]).solve(rhs[keep])
        assert np.linalg.norm(x[keep] - reference) <= 1e-12 * np.linalg.norm(reference)
        assert not np.any(x[~keep])


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_ordered_solves_match_plain_lu(
    monkeypatch, perturbed_mesh, perturbed, case, local_kind, sigma
):
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(6) if perturbed else build_structured_mesh(6)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    # the coupled solve makes the embedded solve and the Schur solve
    if local_kind == AR:
        # acyclic upwind graph: the three solves sweep and none factors
        calls = count_factorizations(monkeypatch)
        with monkeypatch.context() as patch:
            ordered = recording_ordered_solves(patch)
            solve_standard_dg(sys)
            solve_block_coupled(sys, emb)
        assert calls == []
        assert len(ordered) == 3
        assert_match_plain_lu(ordered)
        # the LU stays the sweep's fallback
        refuse_sweeps(monkeypatch)
    solves = recording_direct_matrices(monkeypatch)
    factored = recording_factorizations(monkeypatch)
    solve_standard_dg(sys)
    solve_block_coupled(sys, emb)
    # one unpivoted factorization each of A and T'AT: the fallback never
    # ran, and the Schur system is refined against the LU of T'AT
    assert [options.get("permc_spec") for _, options, _ in factored] == ["NATURAL"] * 2
    assert_sorted_and_equal(factored[1][0], solves[1][0])
    assert len(solves) == 3
    for ordered, rhs, perm, x in solves:
        assert sorted(perm) == list(range(len(rhs)))
        assert np.any(perm != np.arange(len(rhs)))
        # the solver gets the matrix already ordered; plain LU takes it back
        # to the numbering of the right-hand side
        inverse = np.argsort(perm)
        reference = splu(sparse.csc_matrix(ordered[inverse][:, inverse])).solve(rhs)
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


def test_solution_carries_the_systems_facet_alpha(monkeypatch):
    coeffs = builtin_case("DAR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(2), 2), coeffs, sigma=200.0)
    u = solve_standard_dg(sys)
    assert u.alpha_facet is sys.alpha_facet
    recomputed = compute_errors(
        solver.DiscreteSolution(
            coeffs=u.coeffs, space=u.space, method=u.method, ndof_full=u.ndof_full, sigma=u.sigma
        ),
        coeffs,
    )

    def no_recompute(*_args):
        raise AssertionError("facet alpha recomputed")

    monkeypatch.setattr("trefftzdg.analysis.facet_alpha", no_recompute)
    report = compute_errors(u, coeffs)
    assert report.vh_error == recomputed.vh_error
    assert report.l2_error == recomputed.l2_error


def element_graph(blocks):
    """Directed element graph of stored blocks: an arc ``K -> L`` per block
    ``B_KL``, built on copies so the blocks' index arrays stay untouched."""
    n = len(blocks.indptr) - 1
    data = np.ones(len(blocks.indices))
    return sparse.csr_matrix((data, blocks.indices.copy(), blocks.indptr.copy()), shape=(n, n))


def level_order(blocks):
    """The elements that :func:`solver._levels` schedules on the element
    graph of the stored ``blocks``, in level order."""
    n = len(blocks.indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(blocks.indptr))
    off = blocks.indices != rows
    return solver._levels(blocks.indices[off], rows[off], n)[0]


def recording_factorizations(monkeypatch):
    """Record every matrix the solver factors, its options and its LU."""
    factored = []
    original = solver.splu

    def recording(matrix, **options):
        lu = original(matrix, **options)
        factored.append((matrix, options, lu))
        return lu

    monkeypatch.setattr(solver, "splu", recording)
    return factored


@pytest.mark.parametrize("perturbed", [False, True])
def test_upwind_order_is_block_triangular_and_factors_without_fill(
    monkeypatch, perturbed_mesh, perturbed
):
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = perturbed_mesh(6) if perturbed else build_structured_mesh(6)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs)
    n = mesh.n_elements
    n_components, _ = connected_components(element_graph(sys.blocks), connection="strong")
    assert n_components == n
    order = level_order(sys.blocks)
    assert sorted(order) == list(range(n))
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    rows = np.repeat(np.arange(n), np.diff(sys.blocks.indptr))
    # no stored block above the block diagonal: every upwind element comes first
    assert np.all(position[sys.blocks.indices] <= position[rows])
    emb = build_embedding(sys.space, coeffs, AR)
    factored = recording_factorizations(monkeypatch)
    with monkeypatch.context() as patch:
        solves = recording_ordered_solves(patch)
        solve_standard_dg(sys)
        solve_embedded_trefftz(sys, emb)
    # block lower triangular: swept, with no factorization
    assert factored == []
    assert_match_plain_lu(solves)
    # the LU of the fallback runs in the same level order and has no fill
    refuse_sweeps(monkeypatch)
    perms = recording_direct_solves(monkeypatch)
    solve_standard_dg(sys)
    solve_embedded_trefftz(sys, emb)
    assert len(perms) == 2
    for perm, width in zip(perms, (sys.space.ndof_local, emb.kernels.shape[2])):
        np.testing.assert_array_equal(perm, solver._block_permutation(order, width))
    assert [matrix.shape[0] for matrix, _, _ in factored] == [
        sys.space.ndof_total,
        emb.ndof_trefftz,
    ]
    for matrix, options, lu in factored:
        assert options["permc_spec"] == "NATURAL"
        # no fill: every entry of L and U lies on a stored entry of the
        # permuted matrix; scipy drops factor entries that are exactly zero,
        # so an explicit zero of the matrix can make the count smaller
        stored = sparse.csc_matrix((np.ones(matrix.nnz), matrix.indices, matrix.indptr))
        factors = abs(lu.L) + abs(lu.U)
        assert (factors - factors.multiply(stored)).count_nonzero() == 0
        assert lu.L.nnz + lu.U.nnz <= matrix.nnz + matrix.shape[0]


@pytest.mark.parametrize("perturbed", [False, True])
def test_acyclic_upwind_order_skips_the_mesh_order(monkeypatch, perturbed_mesh, perturbed):
    mesh = perturbed_mesh(6) if perturbed else build_structured_mesh(6)
    coeffs = builtin_case("AR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs)
    emb = build_embedding(sys.space, coeffs, AR)
    solve_standard_dg(sys)
    solve_embedded_trefftz(sys, emb)
    assert "element_order" not in mesh.__dict__
    # the fallback LU runs in level order, so it does not need it either
    refuse_sweeps(monkeypatch)
    solve_standard_dg(sys)
    assert "element_order" not in mesh.__dict__


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case", ["DAR_EXAMPLE", "BOX_DIFFUSION_2D", "QT_DIFFUSION"])
def test_sip_order_is_the_mesh_order(monkeypatch, perturbed_mesh, perturbed, case):
    mesh = perturbed_mesh(6) if perturbed else build_structured_mesh(6)
    sys = assemble_global_system(BrokenSpace(mesh, 3), builtin_case(case), sigma=450.0)
    # every element has an upwind one, so none is scheduled
    assert len(level_order(sys.blocks)) == 0
    perms = recording_direct_solves(monkeypatch)
    solve_standard_dg(sys)
    assert len(perms) == 1
    width = sys.space.ndof_local
    np.testing.assert_array_equal(perms[0], solver._block_permutation(mesh.element_order, width))


def test_rotating_flow_solves_in_one_unpivoted_factorization(monkeypatch):
    coeffs = rotating_flow()
    mesh = build_structured_mesh(6)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs)
    # the flow circles the centre, so the element graph is one component
    n_components, _ = connected_components(element_graph(sys.blocks), connection="strong")
    assert n_components == 1
    emb = build_embedding(sys.space, coeffs, AR)
    perms = recording_direct_solves(monkeypatch)
    factored = recording_factorizations(monkeypatch)
    u_dg = solve_standard_dg(sys)
    u_et = solve_embedded_trefftz(sys, emb)
    assert [options["permc_spec"] for _, options, _ in factored] == ["NATURAL"] * 2
    # both LUs run in the mesh order
    assert len(perms) == 2
    for perm, width in zip(perms, (sys.space.ndof_local, emb.kernels.shape[2])):
        np.testing.assert_array_equal(perm, solver._block_permutation(mesh.element_order, width))
    reduced, rhs = reduced_matrix(sys, emb)
    # the kernel columns are orthonormal, so T' recovers the Trefftz unknowns
    x_t = prolongation(emb).T @ (u_et.coeffs - emb.u_L)
    for matrix, load, x in ((sys.matrix, sys.load, u_dg.coeffs), (reduced, rhs, x_t)):
        residual = np.linalg.norm(matrix @ x - load)
        assert residual <= solver._RESIDUAL_TOL * np.linalg.norm(load)


@pytest.mark.parametrize(
    "argv,factorizations",
    [
        (["--case", "DAR_EXAMPLE", "--p", "3", "--n", "4"], 1),
        (["--case", "BOX_DIFFUSION_2D", "--kind", "DAR_BOX", "--p", "3", "--n", "4"], 1),
        (["--case", "AR_EXAMPLE", "--p", "3", "--n", "4"], 0),
    ],
)
def test_diagnose_factors_the_trefftz_system_at_most_once(monkeypatch, capsys, argv, factorizations):
    # the embedded solve factors T'AT and the coupled solve refines its
    # Schur system against that LU; the acyclic upwind graph sweeps both
    factored = recording_factorizations(monkeypatch)
    assert main(["diagnose", *argv]) == 0
    assert len(factored) == factorizations
    text = capsys.readouterr().out
    assert float(text.split("(relative ")[1].split(")")[0]) <= 1e-12


@pytest.mark.parametrize("case", ["AR_EXAMPLE", "DAR_EXAMPLE"])
def test_run_computes_the_level_schedule_once_per_system(monkeypatch, capsys, tmp_path, case):
    # the dg and the et solve of one assembled system read one schedule
    sizes = []
    levels = solver._levels

    def counting(up, down, n):
        sizes.append(n)
        return levels(up, down, n)

    monkeypatch.setattr(solver, "_levels", counting)
    argv = ["run", "--case", case, "--methods", "dg,et", "--p", "3", "--n", "2,4"]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert sizes == [8, 32]


def test_box_and_rotating_flow_block_gaps_stay_at_rounding_level(monkeypatch, capsys):
    factored = recording_factorizations(monkeypatch)
    assert main(["diagnose", "--case", "BOX_DIFFUSION_2D", "--p", "3", "--n", "16"]) == 0
    text = capsys.readouterr().out
    assert float(text.split("(relative ")[1].split(")")[0]) <= 1e-12
    report = run_diagnostics(BrokenSpace(build_structured_mesh(6), 3), AR, rotating_flow())
    assert report.block_equivalence_gap_rel <= 1e-12
    # one LU each, of T'AT: the SIP system and the cyclic upwind one
    assert len(factored) == 2


def test_ar_diagnose_block_gap_stays_at_rounding_level(capsys):
    assert main(["diagnose", "--case", "AR_EXAMPLE", "--p", "3", "--n", "8"]) == 0
    text = capsys.readouterr().out
    gap_rel = float(text.split("(relative ")[1].split(")")[0])
    assert gap_rel <= 1e-12


def test_dar_diagnose_block_gap_stays_at_rounding_level(capsys):
    assert main(["diagnose", "--case", "DAR_EXAMPLE", "--p", "6", "--n", "12"]) == 0
    text = capsys.readouterr().out
    gap_rel = float(text.split("(relative ")[1].split(")")[0])
    assert gap_rel <= 1e-12


@hypothesis.seed(20261018)
@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(data=st.data(), acyclic=st.booleans())
def test_strong_component_labels_follow_the_arcs(data, acyclic):
    # the longest-path reference of the sweep test visits the elements by
    # these labels, so an arc's head must never be labelled after its tail,
    # on cyclic and acyclic graphs alike
    n = data.draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = data.draw(st.lists(pair, max_size=4 * n))
    if acyclic:
        rank = np.array(data.draw(st.permutations(range(n))))
        arcs = [(i, j) for i, j in arcs if rank[i] > rank[j]]
    tails = np.array([i for i, _ in arcs], dtype=int)
    heads = np.array([j for _, j in arcs], dtype=int)
    graph = sparse.csr_matrix((np.ones(len(arcs)), (tails, heads)), shape=(n, n))
    n_components, labels = connected_components(graph, connection="strong")
    assert np.all(labels[heads] <= labels[tails])
    if acyclic:
        assert n_components == n


def random_block_system(data, n, acyclic, width):
    """Blocks ``(B, width, width)`` in BSR layout on ``n`` elements, with a
    diagonal block for every element and one off-diagonal block per arc of
    the arc generator above, and the kernel widths of the elements. The
    diagonal blocks are diagonally dominant, an off-diagonal entry is at
    most 0.5 over the number of upwind blocks of its row, and some
    elements keep only their last ``widths[k] < width`` rows and columns,
    zeros in front as in the kernel stacks."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = data.draw(st.lists(pair, max_size=4 * n))
    if acyclic:
        rank = np.array(data.draw(st.permutations(range(n))))
        arcs = [(i, j) for i, j in arcs if rank[i] > rank[j]]
    arcs = sorted({(i, j) for i, j in arcs if i != j} | {(k, k) for k in range(n)})
    rows = np.array([i for i, _ in arcs])
    indices = np.array([j for _, j in arcs])
    indptr = np.searchsorted(rows, np.arange(n + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    blocks = rng.uniform(-0.5, 0.5, (len(arcs), width, width))
    diagonal = rows == indices
    blocks[~diagonal] /= np.bincount(rows, minlength=n)[rows[~diagonal]][:, None, None]
    blocks[diagonal] += width * np.eye(width)
    widths = np.array(data.draw(st.lists(st.integers(1, width), min_size=n, max_size=n)))
    keep = np.arange(width) >= width - widths[:, None]
    blocks *= keep[rows][:, :, None] & keep[indices][:, None, :]
    return blocks, indices, indptr, widths


@hypothesis.seed(20261019)
@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(data=st.data(), acyclic=st.booleans(), refinement=st.integers(1, 4))
def test_sweep_solves_acyclic_block_systems_like_a_dense_solve(data, acyclic, refinement):
    space = BrokenSpace(build_structured_mesh(refinement), 1)
    n, nd = space.mesh.n_elements, space.ndof_local
    blocks, indices, indptr, widths = random_block_system(data, n, acyclic, nd)
    pattern = sparse.bsr_matrix((blocks, indices, indptr), shape=(n * nd, n * nd))
    system = DgSystem(blocks=pattern, load=None, space=space)
    # the right-hand side is zero on the padding, as T' r of a kernel stack
    keep = trailing(widths, nd).ravel()
    rhs = np.zeros(n * nd)
    rhs[keep] = np.random.default_rng(n).standard_normal(keep.sum())
    dense = block_matrix(blocks, indices, indptr).toarray()[keep][:, keep]
    with pytest.MonkeyPatch.context() as patch:
        sweeps = recording_sweeps(patch)
        perms = recording_direct_solves(patch)
        x, _ = solver._ordered_solve(system, blocks, rhs, "random block system", widths)
    assert not np.any(x[~keep])
    x, rhs = x[keep], rhs[keep]
    reference = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
    assert np.linalg.norm(dense @ x - rhs) <= solver._RESIDUAL_TOL * np.linalg.norm(rhs)
    # the level schedule covers every element exactly on the graphs whose
    # strong components are all single elements; those are swept, and the
    # sweep never falls back on these well-conditioned blocks
    n_components, _ = connected_components(element_graph(pattern), connection="strong")
    assert (len(level_order(pattern)) == n) == (n_components == n)
    assert len(sweeps) == (n_components == n)
    assert all(result is not None for result in sweeps)
    if n_components < n:
        # a cycle, possibly in several components: the LU runs in mesh order
        assert len(perms) == 1
        expected = solver._block_permutation(space.mesh.element_order, nd)
        np.testing.assert_array_equal(perms[0], expected)
    else:
        assert perms == []
    if acyclic:
        assert len(sweeps) == 1
        # each element's level is its longest upwind path, the loop reference
        rows = np.repeat(np.arange(n), np.diff(indptr))
        off = rows != indices
        order, starts = solver._levels(indices[off], rows[off], n)
        level = np.repeat(np.arange(len(starts) - 1), np.diff(starts))[np.argsort(order)]
        longest = np.zeros(n, dtype=int)
        for k in np.argsort(connected_components(element_graph(pattern), connection="strong")[1]):
            upwind = indices[indptr[k]:indptr[k + 1]]
            longest[k] = max((longest[j] + 1 for j in upwind if j != k), default=0)
        np.testing.assert_array_equal(level, longest)


def test_ar_diagnose_sweeps_the_schur_step_at_p6(monkeypatch, capsys):
    solves = recording_ordered_solves(monkeypatch)
    sweeps = recording_sweeps(monkeypatch)
    factored = recording_factorizations(monkeypatch)
    assert main(["diagnose", "--case", "AR_EXAMPLE", "--p", "6", "--n", "8"]) == 0
    assert "coupled block solve" in [label for *_, label, _ in solves]
    # every solve, the Schur step of the coupled one included, was swept
    assert len(sweeps) == len(solves)
    assert all(result is not None for result in sweeps)
    assert factored == []
    text = capsys.readouterr().out
    gap_rel = float(text.split("(relative ")[1].split(")")[0])
    assert gap_rel <= 1e-12


def recording_direct_solves(monkeypatch):
    """Record the permutation of every direct solve."""
    perms = []
    direct_solve = solver._direct_solve

    def recording(ordered, rhs, label, perm, nearby=None):
        perms.append(perm)
        return direct_solve(ordered, rhs, label, perm, nearby)

    monkeypatch.setattr(solver, "_direct_solve", recording)
    return perms


def recording_direct_matrices(monkeypatch):
    """Record the ordered matrix, the right-hand side, the permutation and
    the solution of every direct solve; the matrix is copied before any
    ``splu`` sorts its indices in place."""
    solves = []
    direct_solve = solver._direct_solve

    def recording(ordered, rhs, label, perm, nearby=None):
        handed = ordered.copy()
        x, lu = direct_solve(ordered, rhs, label, perm, nearby)
        solves.append((handed, rhs, perm, x))
        return x, lu

    monkeypatch.setattr(solver, "_direct_solve", recording)
    return solves


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_coupled_solve_eliminates_the_complement_unknowns_first(
    monkeypatch, perturbed_mesh, perturbed, case, local_kind, sigma
):
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(6) if perturbed else build_structured_mesh(6)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    if local_kind == AR:
        sweeps = recording_sweeps(monkeypatch)
        with monkeypatch.context() as patch:
            solves = recording_ordered_solves(patch)
            solve_block_coupled(sys, emb)
        # the embedded solve of T'AT first, then the Schur solve
        (_, reduced, reduced_widths, *_), (_, schur, schur_widths, *_) = solves
        # only the Schur complement of the Trefftz unknowns is swept, on the
        # block pattern and the unknowns of T'AT: every kernel has the full
        # width, so neither has padding
        assert len(sweeps) == 2 and all(x is not None for x in sweeps)
        assert schur.shape == reduced.shape
        assert schur_widths is None and np.all(reduced_widths == reduced.shape[1])
        assert_match_plain_lu(solves)
        refuse_sweeps(monkeypatch)
    direct = recording_direct_matrices(monkeypatch)
    handed = recording_handed_matrices(monkeypatch)
    factored = recording_factorizations(monkeypatch)
    solve_block_coupled(sys, emb)
    (reduced, _, perm_reduced, _), (schur, _, perm_schur, _) = direct
    # the complement unknowns are condensed element by element: only the
    # Schur complement of the Trefftz unknowns reaches the direct solve, in
    # the order and on the block pattern of T'AT
    assert schur.shape == (emb.ndof_trefftz, emb.ndof_trefftz)
    assert np.array_equal(perm_schur, perm_reduced)
    assert_sorted(schur)
    assert np.array_equal(schur.indptr, reduced.indptr)
    assert np.array_equal(schur.indices, reduced.indices)
    # one factorization, of T'AT, which the Schur system is refined
    # against: in level order where the sweeps fell back, on a cycle in
    # the mesh order
    assert len(factored) == 1
    assert_sorted_and_equal(handed[0], reduced)


def test_schur_sweep_fallback_factors_the_schur_complement_itself(monkeypatch):
    # the embedded solve is swept and leaves no LU to refine against, so
    # where the Schur sweep falls back, S itself is factored, in level
    # order and without fill
    coeffs = builtin_case("AR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(6), 3), coeffs)
    emb = build_embedding(sys.space, coeffs, AR)
    sweep, sweeps = solver._sweep, []

    def first_only(*args):
        sweeps.append(sweep(*args) if not sweeps else None)
        return sweeps[-1]

    monkeypatch.setattr(solver, "_sweep", first_only)
    direct = recording_direct_matrices(monkeypatch)
    factored = recording_factorizations(monkeypatch)
    u = solve_block_coupled(sys, emb)
    assert sweeps[0] is not None and sweeps[1] is None
    ((schur, _, perm, _),) = direct
    ((matrix, options, lu),) = factored
    assert options["permc_spec"] == "NATURAL"
    assert_sorted_and_equal(matrix, schur)
    assert schur.shape == (emb.ndof_trefftz, emb.ndof_trefftz)
    np.testing.assert_array_equal(
        perm, solver._block_permutation(level_order(sys.blocks), emb.kernels.shape[2])
    )
    assert lu.L.nnz + lu.U.nnz <= matrix.nnz + matrix.shape[0]
    assert_solves_the_block_system(u, sys, emb)


def recording_handed_matrices(monkeypatch):
    """Record a copy of every matrix handed to the LU, taken before
    ``splu`` sorts its indices in place."""
    handed = []
    original = solver.splu

    def recording(matrix, **options):
        handed.append(matrix.copy())
        return original(matrix, **options)

    monkeypatch.setattr(solver, "splu", recording)
    return handed


def plain_ordered(matrix, perm):
    """``matrix[perm][:, perm]`` by plain scipy indexing, indices sorted."""
    expected = sparse.csc_matrix(matrix)[perm][:, perm]
    expected.sort_indices()
    return expected


def projected(sys, left, right):
    """The stored blocks ``left_K' B_KL right_L`` as one CSR matrix."""
    A = sys.blocks
    rows = np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr))
    data = np.swapaxes(left, 1, 2)[rows] @ (A.data @ right[A.indices])
    return sparse.bsr_matrix((data, A.indices, A.indptr)).tocsr()


def assert_sorted(handed):
    assert handed.format == "csc"
    # strictly increasing row indices inside every column
    column_starts = np.zeros(len(handed.indices), dtype=bool)
    column_starts[handed.indptr[:-1][np.diff(handed.indptr) > 0]] = True
    assert np.all((np.diff(handed.indices) > 0) | column_starts[1:])


def assert_sorted_and_equal(handed, expected):
    assert_sorted(handed)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(handed, attr), getattr(expected, attr))


def schur_complement(sys, emb):
    """``T'AT - T'AL (AL)^-1 AT`` through plain sparse products."""
    A = np.stack([op.matrix for op in emb.local_operators])
    L, T = complement(emb), emb.kernels
    X_T = sparse.block_diag(list(np.linalg.solve(A @ L, A @ T)))
    return (projected(sys, T, T) - projected(sys, T, L) @ X_T).tocsr()


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case,local_kind,sigma", CASES)
def test_lu_gets_the_ordered_matrix_with_sorted_indices(
    monkeypatch, perturbed_mesh, perturbed, case, local_kind, sigma
):
    coeffs = builtin_case(case)
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=sigma)
    emb = build_embedding(sys.space, coeffs, local_kind)
    if local_kind == AR:
        handed = recording_handed_matrices(monkeypatch)
        with monkeypatch.context() as patch:
            solves = recording_ordered_solves(patch)
            solve_standard_dg(sys)
            solve_block_coupled(sys, emb)
        # swept: nothing reaches the LU
        assert handed == []
        assert_match_plain_lu(solves)
        # the fallback LU gets the same ordered, sorted matrices
        refuse_sweeps(monkeypatch)
    direct = recording_direct_matrices(monkeypatch)
    handed = recording_handed_matrices(monkeypatch)
    solve_standard_dg(sys)
    # the embedded solve of T'AT, then the Schur solve
    solve_block_coupled(sys, emb)
    T = emb.kernels
    perms = [perm for _, _, perm, _ in direct]
    # the Schur system is refined against the LU of T'AT: three direct
    # solves, two factorizations
    assert len(direct) == 3 and len(handed) == 2
    for matrix, perm, plain in zip(handed[:2], perms, (sys.blocks, trefftz_matrix(sys, emb))):
        assert_sorted_and_equal(matrix, plain_ordered(plain, perm))
    # the Schur complement has the pattern of the ordered T'AT; its entries
    # are formed blockwise, so they match plain products to rounding
    schur, expected = direct[2][0], plain_ordered(schur_complement(sys, emb), perms[2])
    assert_sorted(schur)
    assert np.array_equal(schur.indptr, handed[1].indptr)
    assert np.array_equal(schur.indices, handed[1].indices)
    assert_entrywise_close(schur, expected, rtol=1e-13)


def test_mixed_width_reduced_matrix_is_ordered_and_sorted(monkeypatch, zero_odd_operators):
    coeffs = builtin_case("AR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(3), 3), coeffs)
    with pytest.warns(UserWarning, match="elements have numerically rank deficient"):
        emb = build_embedding(sys.space, coeffs, AR)
    handed = recording_handed_matrices(monkeypatch)
    sweeps = recording_sweeps(monkeypatch)
    with monkeypatch.context() as patch:
        solves = recording_ordered_solves(patch)
        solve_embedded_trefftz(sys, emb)
    # the padded sweep solves the kernels of widths 4 and 10
    assert handed == []
    assert len(sweeps) == 1 and sweeps[0] is not None
    assert_match_plain_lu(solves)
    # the fallback LU gets the padded blocks, a unit diagonal on the
    # padding of the kernels of width 4, ordered and sorted
    refuse_sweeps(monkeypatch)
    perms = recording_direct_solves(monkeypatch)
    solve_embedded_trefftz(sys, emb)
    assert len(handed) == 1
    T, A = emb.kernels, sys.blocks
    pad = ~trailing(np.diff(emb.offsets), T.shape[2])
    rows = np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr))
    data = solver._trefftz_blocks(volume_terms(sys), emb)[0]
    diagonal = rows == A.indices
    data[diagonal] += pad[rows[diagonal], None, :] * np.eye(T.shape[2])
    padded = sparse.bsr_matrix((data, A.indices, A.indptr)).tocsr()
    assert_sorted_and_equal(handed[0], plain_ordered(padded, perms[0]))


@pytest.mark.parametrize(
    "case,local_kind,p,mixed",
    [("AR_EXAMPLE", AR, 3, False), ("AR_EXAMPLE", AR, 3, True), ("DAR_EXAMPLE", DAR, 6, False)],
)
def test_stack_products_match_the_sparse_embedding(request, case, local_kind, p, mixed):
    if mixed:
        request.getfixturevalue("zero_odd_operators")
    space = BrokenSpace(build_structured_mesh(3), p)
    with warnings.catch_warnings():
        # the rank fallback of the zero operators warns; tested elsewhere
        warnings.simplefilter("ignore")
        emb = build_embedding(space, builtin_case(case), local_kind)
    T, P = emb.kernels, prolongation(emb)
    keep = trailing(np.diff(emb.offsets), T.shape[2]).ravel()
    assert len(set(np.diff(emb.offsets))) == (2 if mixed else 1)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(space.ndof_total)
    x = np.zeros(keep.shape)
    x[keep] = rng.standard_normal(emb.ndof_trefftz)
    # T' r and T x summed in the sparse products' order: equal bit for bit,
    # and T' r is zero on the padding
    restricted = solver._stack_product(np.swapaxes(T, 1, 2), r)
    assert np.array_equal(restricted[keep], P.T @ r)
    assert not np.any(restricted[~keep])
    assert np.array_equal(solver._stack_product(T, x), P @ x[keep])


def test_padded_lu_matches_the_sweep_on_mixed_widths(monkeypatch, zero_odd_operators):
    coeffs = builtin_case("AR_EXAMPLE")
    sys = assemble_global_system(BrokenSpace(build_structured_mesh(4), 3), coeffs)
    with pytest.warns(UserWarning, match="elements have numerically rank deficient"):
        emb = build_embedding(sys.space, coeffs, AR)
    with monkeypatch.context() as patch:
        sweeps = recording_sweeps(patch)
        swept_solves = recording_ordered_solves(patch)
        swept = solve_embedded_trefftz(sys, emb).coeffs
    assert len(sweeps) == 1 and sweeps[0] is not None
    refuse_sweeps(monkeypatch)
    factored = recording_factorizations(monkeypatch)
    lu_solves = recording_ordered_solves(monkeypatch)
    factored_coeffs = solve_embedded_trefftz(sys, emb).coeffs
    # the LU factors the padded matrix: one unpivoted factorization
    assert [options.get("permc_spec") for _, options, _ in factored] == ["NATURAL"]
    assert np.linalg.norm(factored_coeffs - swept) <= 1e-12 * np.linalg.norm(swept)
    matrix, rhs = reduced_matrix(sys, emb)
    keep = trailing(np.diff(emb.offsets), emb.kernels.shape[2]).ravel()
    ((*_, x_sweep),), ((*_, x_lu),) = swept_solves, lu_solves
    assert np.linalg.norm(x_lu - x_sweep) <= 1e-12 * np.linalg.norm(x_sweep)
    assert not np.any(x_lu[~keep])
    residual = np.linalg.norm(matrix @ x_lu[keep] - rhs)
    assert residual <= solver._RESIDUAL_TOL * np.linalg.norm(rhs)


@pytest.mark.parametrize("n", [32, 64])
def test_sweep_transient_is_a_few_levels_of_blocks(n):
    space = BrokenSpace(build_structured_mesh(n), 3)
    system = assemble_global_system(space, builtin_case("AR_EXAMPLE"))
    solve_standard_dg(system)  # forms the schedule the system keeps
    schedule = solver._schedule(system)
    assert schedule.acyclic
    width = space.ndof_local
    upwind = np.bincount(schedule.rows[~schedule.diagonal], minlength=space.mesh.n_elements)
    level = np.diff(schedule.levels[1]).max() * (1 + upwind.max()) * width * width * 8
    tracemalloc.start()
    try:
        solve_standard_dg(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the solution, its residual and the gather tables are a few vectors of
    # the load's size; of the blocks, the sweep holds one level's at a time
    assert peak <= 4 * system.load.nbytes + 8 * level
