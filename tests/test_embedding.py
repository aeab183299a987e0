import io
import warnings
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import subspace_angles

from trefftzdg import embedding as embedding_module
from trefftzdg.analysis import run_diagnostics
from trefftzdg.basis import BrokenSpace, l2_project
from trefftzdg.coefficients import builtin_case, manufactured_case
from trefftzdg.embedding import (
    EXPECT_FULL_ROW_RANK,
    ElementEmbedding,
    GlobalEmbedding,
    RankDeficiencyError,
    assemble_global_embedding,
    build_embedding,
    compute_embedding,
    export_sigma_csv,
)
from trefftzdg.local_ops import (
    AR,
    DAR,
    DAR_BOX,
    QT_DIFFUSION,
    LocalOperator,
    assemble_local_operator,
    assemble_local_operators,
)
from trefftzdg.mesh import build_structured_mesh
from trefftzdg.quadrature import triangle_rule


def test_zero_operator_kernel_is_everything():
    coeffs = manufactured_case(beta=(0, 0), gamma=0, exact=sp.Integer(0))
    mesh = build_structured_mesh(1)
    space = BrokenSpace(mesh, 2)
    op = assemble_local_operator(AR, mesh, 0, space.element_basis(0), coeffs)
    assert np.allclose(op.matrix, 0.0, atol=1e-14)
    with pytest.warns(UserWarning):
        emb = compute_embedding(op)
    assert emb.T.shape == (6, 6)
    assert np.allclose(emb.T.T @ emb.T, np.eye(6), atol=1e-12)
    assert np.allclose(emb.uL, 0.0)
    assert emb.rank_used == 0


def test_laplace_kernel_is_harmonic_p2():
    coeffs = manufactured_case(alpha=1, exact=sp.sympify("x**2 - y**2"))
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    op = assemble_local_operator(DAR, mesh, 3, space.element_basis(3), coeffs)
    emb = compute_embedding(op)
    assert emb.T.shape[1] == 6 - 1 == 5
    basis = space.element_basis(3)
    pts = np.random.default_rng(0).uniform(0, 1, size=(11, 2))
    lap = basis.derivative(pts, (2, 0)) + basis.derivative(pts, (0, 2))
    for col in emb.T.T:
        assert np.max(np.abs(lap @ col)) < 1e-10


def test_ar_p3_dimension():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 3)
    op = assemble_local_operator(AR, mesh, 0, space.element_basis(0), coeffs)
    emb = compute_embedding(op)
    assert emb.T.shape == (10, 4)
    assert emb.rank_used == 6


@pytest.mark.parametrize(
    "kind,case",
    [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
     (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")],
)
@pytest.mark.parametrize("p", [2, 3])
def test_rho_zero_and_dimension_formula(kind, case, p):
    coeffs = builtin_case(case)
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, p)
    ops = assemble_local_operators(kind, space, coeffs)
    for op in ops:
        emb = compute_embedding(op)
        fro = np.linalg.norm(op.matrix @ emb.T)
        assert fro <= 1e-10 * (1.0 + np.linalg.norm(op.matrix))
        assert emb.T.shape[1] == space.ndof_local - op.n_rows
        # residual of the particular solution at full row rank
        res = np.linalg.norm(op.matrix @ emb.uL - op.rhs)
        assert res <= 1e-9 * (1.0 + np.linalg.norm(op.rhs))
        # min-norm: particular solution orthogonal to the kernel
        if np.linalg.norm(emb.uL) > 0:
            assert np.linalg.norm(emb.T.T @ emb.uL) <= 1e-9 * np.linalg.norm(emb.uL)


def test_threshold_rank_rule():
    matrix = np.array([[2.0, 0.0, 0.0], [0.0, 1e-6, 0.0]])
    rhs = np.array([2.0, 0.0])
    op = LocalOperator(kind=AR, element=0, matrix=matrix, rhs=rhs)
    emb = compute_embedding(op, rank_rule=1e-3)
    assert emb.rank_used == 1
    assert emb.T.shape == (3, 2)
    assert np.allclose(emb.uL, [1.0, 0.0, 0.0])
    strict = compute_embedding(op)  # full-row-rank guard passes at 5e-7 rel
    assert strict.rank_used == 2


def test_rank_deficiency_error_carries_spectrum():
    matrix = np.zeros((2, 4))
    matrix[0, 0] = 1.0
    op = LocalOperator(kind=AR, element=7, matrix=matrix, rhs=np.zeros(2))
    with pytest.raises(RankDeficiencyError) as err:
        compute_embedding(op, rank_rule=EXPECT_FULL_ROW_RANK, allow_fallback=False)
    assert err.value.sigma.shape == (2,)
    with pytest.warns(UserWarning):
        emb = compute_embedding(op)
    assert emb.rank_used == 1


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), 2.0])
def test_invalid_threshold_rank_rule_rejected(tau):
    matrix = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    op = LocalOperator(kind=AR, element=0, matrix=matrix, rhs=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=repr(tau)):
        compute_embedding(op, rank_rule=tau)


def test_rank_fallback_warns_once_per_build():
    coeffs = manufactured_case(beta=(0, 0), gamma=0, exact=sp.Integer(0))
    space = BrokenSpace(build_structured_mesh(2), 3)
    with pytest.warns(UserWarning) as record:
        glob = build_embedding(space, coeffs, AR)
    assert len(record) == 1
    assert "8 of 8 elements" in str(record[0].message)
    assert [emb.rank_used for emb in glob.embeddings] == [0] * 8


def reference_embedding(op):
    """Per-element SVD formula under the full-row-rank rule with its
    threshold fallback: kernel, min-norm particular solution, spectrum and
    rank of one local operator."""
    matrix = np.asarray(op.matrix)
    m, n = matrix.shape
    U, sigma, Vt = np.linalg.svd(matrix, full_matrices=True)
    if sigma[0] > 0 and sigma[min(m, n) - 1] > 1e-9 * sigma[0] and m <= n:
        k = m
    else:
        k = int(np.sum(sigma >= 1e-9 * sigma[0])) if sigma[0] > 0 else 0
    uL = Vt[:k].T @ ((U[:, :k].T @ op.rhs) / sigma[:k])
    return Vt[k:].T, uL, sigma, k


def assert_matches_reference(glob):
    for op, emb in zip(glob.local_operators, glob.embeddings):
        T, uL, sigma, k = reference_embedding(op)
        assert emb.rank_used == k, op.element
        assert np.array_equal(emb.T, T), op.element
        assert np.array_equal(emb.sigma, sigma), op.element
        assert np.linalg.norm(emb.uL - uL) <= 1e-13 * np.linalg.norm(uL), op.element
    assert np.array_equal(glob.u_L, np.concatenate([emb.uL for emb in glob.embeddings]))


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize(
    "kind,case",
    [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
     (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")],
)
def test_build_embedding_matches_per_element_reference(perturbed_mesh, perturbed, kind, case):
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    assert_matches_reference(build_embedding(BrokenSpace(mesh, 3), builtin_case(case), kind))


def zero_odd_operators(monkeypatch):
    """Give every odd element a zero local operator, so kernel widths differ."""
    assemble = embedding_module.assemble_local_operators

    def half_zero(*args, **kwargs):
        ops = assemble(*args, **kwargs)
        return [replace(op, matrix=0.0 * op.matrix) if op.element % 2 else op for op in ops]

    monkeypatch.setattr(embedding_module, "assemble_local_operators", half_zero)


def test_mixed_rank_build_matches_reference(monkeypatch):
    zero_odd_operators(monkeypatch)
    mesh = build_structured_mesh(2)
    coeffs = builtin_case("AR_EXAMPLE")
    with pytest.warns(UserWarning, match="4 of 8 elements"):
        glob = build_embedding(BrokenSpace(mesh, 3), coeffs, AR)
    assert_matches_reference(glob)
    assert list(np.diff(glob.offsets)) == [4, 10] * 4
    T = glob.prolongation.toarray()
    assert np.allclose(T.T @ T, np.eye(glob.ndof_trefftz), atol=1e-12)
    with pytest.warns(UserWarning, match="4 of 8 elements"):
        report = run_diagnostics(mesh, 3, AR, coeffs, with_block_gap=False)
    assert report.rho_max <= 1e-12
    assert report.dim_table == {3: (10, [4, 10], 6)}
    spectra = [emb.sigma for emb in glob.embeddings[::2]]
    assert report.sigma_min_rel == min(s[-1] / s[0] for s in spectra)


def test_build_embedding_makes_one_svd_call(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    build_embedding(BrokenSpace(build_structured_mesh(4), 3), builtin_case("AR_EXAMPLE"), AR)
    assert shapes == [(32, 6, 10)]


def test_classical_trefftz_recovery():
    coeffs = manufactured_case(alpha=1, exact=sp.Integer(0))
    rng = np.random.default_rng(11)
    for p in (2, 3, 4):
        mesh = build_structured_mesh(2)
        space = BrokenSpace(mesh, p)
        k = int(rng.integers(mesh.n_elements))
        basis = space.element_basis(k)
        op = assemble_local_operator(DAR, mesh, k, basis, coeffs)
        emb = compute_embedding(op)
        assert emb.T.shape[1] == 2 * p + 1
        rule = triangle_rule(mesh.vertices[mesh.triangles[k]], 2 * p + 6)
        harmonics = [lambda x, y: np.ones_like(x)]
        for m in range(1, p + 1):
            harmonics.append(lambda x, y, m=m: np.real((x + 1j * y) ** m))
            harmonics.append(lambda x, y, m=m: np.imag((x + 1j * y) ** m))
        H = np.column_stack([l2_project(f, basis, rule) for f in harmonics])
        assert np.max(subspace_angles(emb.T, H)) < 1e-8


def test_global_embedding_concatenation():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(1)
    space = BrokenSpace(mesh, 3)
    ops = assemble_local_operators(AR, space, coeffs)
    embs = [compute_embedding(op) for op in ops]
    glob = assemble_global_embedding(mesh, embs)
    assert glob.ndof_trefftz == 8
    T = glob.prolongation.toarray()
    assert T.shape == (20, 8)
    assert np.allclose(T.T @ T, np.eye(8), atol=1e-12)
    # block structure: unit vectors map to single-element support
    for j in range(4):
        col = T[:, j]
        assert np.allclose(col[10:], 0.0)
    assert np.allclose(glob.u_L[:10], embs[0].uL)
    assert np.allclose(glob.u_L[10:], embs[1].uL)


def test_global_embedding_size_mismatch():
    mesh = build_structured_mesh(2)
    emb = ElementEmbedding(
        element=0, T=np.eye(3), uL=np.zeros(3), sigma=np.ones(1), rank_used=0
    )
    with pytest.raises(ValueError):
        assemble_global_embedding(mesh, [emb])


def test_global_embedding_with_empty_kernel_block():
    # hypothetical element without Trefftz modes: its columns are skipped
    # and the column offsets still sum up correctly
    mesh = build_structured_mesh(1)
    full = ElementEmbedding(
        element=0, T=np.eye(3), uL=np.zeros(3), sigma=np.ones(1), rank_used=0
    )
    empty = ElementEmbedding(
        element=1,
        T=np.zeros((3, 0)),
        uL=np.arange(3.0),
        sigma=np.ones(3),
        rank_used=3,
    )
    glob = assemble_global_embedding(mesh, [full, empty])
    assert glob.ndof_trefftz == 3
    assert glob.prolongation.shape == (6, 3)
    assert glob.element_columns(1) == slice(3, 3)
    assert np.allclose(glob.u_L, [0, 0, 0, 0, 1, 2])


def test_build_embedding_pipeline_and_sigma_csv():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    glob = build_embedding(space, coeffs, DAR)
    assert isinstance(glob, GlobalEmbedding)
    assert glob.ndof_trefftz == mesh.n_elements * 5
    buf = io.StringIO()
    export_sigma_csv(glob.embeddings, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "element_id,sigma_index,sigma_value"
    assert len(lines) == 1 + mesh.n_elements * 1  # one singular value per element
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2])


@pytest.mark.parametrize("mixed", [False, True])
def test_build_embedding_reads_the_stacked_factors(monkeypatch, mixed):
    if mixed:
        zero_odd_operators(monkeypatch)
    mesh = build_structured_mesh(4)
    with warnings.catch_warnings():
        # the rank fallback of the zero operators warns; tested above
        warnings.simplefilter("ignore")
        glob = build_embedding(BrokenSpace(mesh, 3), builtin_case("AR_EXAMPLE"), AR)
    assert len(set(np.diff(glob.offsets))) == (2 if mixed else 1)
    factors = glob.factors
    assert glob.kernels is factors.kernels
    gathered = assemble_global_embedding(mesh, factors.embeddings())
    assert np.array_equal(glob.offsets, gathered.offsets)
    assert np.array_equal(glob.u_L, gathered.u_L)
    assert glob.ndof_trefftz == gathered.ndof_trefftz
    P, Q = glob.prolongation, gathered.prolongation
    assert P.shape == Q.shape
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(P, attr), getattr(Q, attr))


def per_row_sigma_csv(embeddings):
    """The sigma CSV written one formatted numpy scalar per row."""
    lines = ["element_id,sigma_index,sigma_value\n"]
    for emb in embeddings:
        for i, s in enumerate(emb.sigma):
            lines.append(f"{emb.element},{i},{s:.16e}\n")
    return "".join(lines)


def test_sigma_csv_matches_the_per_row_writer(tmp_path):
    report = run_diagnostics(
        build_structured_mesh(2), 6, DAR, builtin_case("DAR_EXAMPLE"), sigma=1800.0,
        with_block_gap=False,
    )
    target = tmp_path / "sigma.csv"
    export_sigma_csv(report.embedding.embeddings, target)
    assert target.read_bytes() == per_row_sigma_csv(report.embedding.embeddings).encode()
