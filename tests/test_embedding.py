import io
import warnings

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import subspace_angles

from trefftzdg import embedding as embedding_module
from trefftzdg.analysis import compute_errors, run_diagnostics
from trefftzdg.basis import BrokenSpace
from trefftzdg.coefficients import builtin_case, manufactured_case
from trefftzdg.dg_forms import assemble_global_system
from trefftzdg.embedding import (
    ElementEmbedding,
    GlobalEmbedding,
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
from trefftzdg.solver import solve_embedded_trefftz

from projection import l2_projection
from prolongation import prolongation


def test_zero_operator_kernel_is_everything():
    coeffs = manufactured_case(beta=(0, 0), gamma=0, exact=sp.Integer(0))
    mesh = build_structured_mesh(1)
    space = BrokenSpace(mesh, 2)
    op = assemble_local_operator(AR, space, 0, coeffs)
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
    op = assemble_local_operator(DAR, space, 3, coeffs)
    emb = compute_embedding(op)
    assert emb.T.shape[1] == 6 - 1 == 5
    pts = np.random.default_rng(0).uniform(0, 1, size=(1, 11, 2))
    second = space.derivatives([3], pts, 2)[0]
    lap = second[:, 3] + second[:, 5]
    for col in emb.T.T:
        assert np.max(np.abs(lap @ col)) < 1e-10


def test_ar_p3_dimension():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 3)
    op = assemble_local_operator(AR, space, 0, coeffs)
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
        assert emb.T.shape[1] == space.ndof_local - op.matrix.shape[0]
        # residual of the particular solution at full row rank
        res = np.linalg.norm(op.matrix @ emb.uL - op.rhs)
        assert res <= 1e-9 * (1.0 + np.linalg.norm(op.rhs))
        # min-norm: particular solution orthogonal to the kernel
        if np.linalg.norm(emb.uL) > 0:
            assert np.linalg.norm(emb.T.T @ emb.uL) <= 1e-9 * np.linalg.norm(emb.uL)


def test_rank_fallback_warns_once_per_build():
    coeffs = manufactured_case(beta=(0, 0), gamma=0, exact=sp.Integer(0))
    space = BrokenSpace(build_structured_mesh(2), 3)
    with pytest.warns(UserWarning) as record:
        glob = build_embedding(space, coeffs, AR)
    assert len(record) == 1
    assert "8 of 8 elements" in str(record[0].message)
    assert [emb.rank_used for emb in glob.factors.embeddings()] == [0] * 8


def svd_reference(op):
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


def reference_embedding(op):
    """Per-element QR formula ``A' = Q [R; 0]``: the kernel ``Q[:, m:]``,
    the min-norm particular solution ``Q_1 R^-T l``, the singular values
    of ``R`` and the rank ``m``, wherever ``||R||_F ||R^-1||_F < 1e9``
    certifies full row rank; the SVD formula everywhere else."""
    matrix = np.asarray(op.matrix)
    m, n = matrix.shape
    if m <= n:
        Q, R = np.linalg.qr(matrix.T, mode="complete")
        R = R[:m]
        if np.all(np.diag(R) != 0):
            R_inv = np.linalg.inv(R)
            if np.linalg.norm(R) * np.linalg.norm(R_inv) < 1e9:
                uL = Q[:, :m] @ (R_inv.T @ op.rhs)
                return Q[:, m:], uL, np.linalg.svd(R, compute_uv=False), m
    return svd_reference(op)


def assert_matches_reference(glob):
    embeddings = glob.factors.embeddings()
    for op, emb in zip(glob.local_operators, embeddings):
        T, uL, sigma, k = reference_embedding(op)
        assert emb.rank_used == k, op.element
        assert np.array_equal(emb.T, T), op.element
        assert np.array_equal(emb.sigma, sigma), op.element
        assert np.linalg.norm(emb.uL - uL) <= 1e-13 * np.linalg.norm(uL), op.element
        # the same kernel and spectrum as the SVD of A_K
        T_svd, _, sigma_svd, k_svd = svd_reference(op)
        assert k_svd == k, op.element
        if T.shape[1]:
            assert np.max(subspace_angles(emb.T, T_svd)) <= 1e-12, op.element
        assert np.all(np.abs(emb.sigma - sigma_svd) <= 1e-14 * sigma_svd), op.element
    assert np.array_equal(glob.u_L, np.concatenate([emb.uL for emb in embeddings]))


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize(
    "kind,case",
    [(AR, "AR_EXAMPLE"), (DAR, "DAR_EXAMPLE"),
     (DAR_BOX, "BOX_DIFFUSION_2D"), (QT_DIFFUSION, "QT_DIFFUSION")],
)
def test_build_embedding_matches_per_element_reference(perturbed_mesh, perturbed, kind, case):
    mesh = perturbed_mesh(4) if perturbed else build_structured_mesh(4)
    assert_matches_reference(build_embedding(BrokenSpace(mesh, 3), builtin_case(case), kind))


def test_mixed_rank_build_matches_reference(zero_odd_operators):
    space = BrokenSpace(build_structured_mesh(2), 3)
    coeffs = builtin_case("AR_EXAMPLE")
    with pytest.warns(UserWarning, match="4 of 8 elements"):
        glob = build_embedding(space, coeffs, AR)
    assert_matches_reference(glob)
    assert list(np.diff(glob.offsets)) == [4, 10] * 4
    T = prolongation(glob).toarray()
    assert np.allclose(T.T @ T, np.eye(glob.ndof_trefftz), atol=1e-12)
    # the odd elements keep none of their rows, so the coupled block system
    # is singular and diagnostics leave its gap out
    with pytest.warns(UserWarning, match="4 of 8 elements"):
        report = run_diagnostics(space, AR, coeffs)
    assert report.rho_max <= 1e-12
    assert report.dim_table == {3: (10, [4, 10], 6)}
    spectra = [emb.sigma for emb in report.embedding.factors.embeddings()[::2]]
    assert report.sigma_min_rel == min(s[-1] / s[0] for s in spectra)
    assert np.isnan(report.block_equivalence_gap)
    assert np.isnan(report.block_equivalence_gap_rel)


def counting(monkeypatch, name):
    """Record the shape of the first argument of every ``np.linalg.<name>``
    call."""
    shapes = []
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_build_embedding_makes_one_qr_call_and_no_svd(monkeypatch):
    qr, svd = counting(monkeypatch, "qr"), counting(monkeypatch, "svd")
    glob = build_embedding(BrokenSpace(build_structured_mesh(4), 3), builtin_case("AR_EXAMPLE"), AR)
    assert qr == [(32, 10, 6)]
    assert svd == []
    # the spectra are not computed
    assert glob.factors._sigma is None


def test_build_embedding_svds_only_the_fallback_elements(monkeypatch, zero_odd_operators):
    qr, svd = counting(monkeypatch, "qr"), counting(monkeypatch, "svd")
    with pytest.warns(UserWarning, match="16 of 32 elements"):
        glob = build_embedding(
            BrokenSpace(build_structured_mesh(4), 3), builtin_case("AR_EXAMPLE"), AR
        )
    assert qr == [(32, 10, 6)]
    assert svd == [(16, 6, 10)]
    assert list(glob.factors.svd_elements) == list(range(1, 32, 2))


def flat_spectrum_operator(rng, ratio, m, n):
    """An ``m x n`` operator in random singular vectors whose singular
    values are 1 but the last, which is ``ratio``."""
    sigma = np.ones(min(m, n))
    sigma[-1] = ratio
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (U[:, : len(sigma)] * sigma) @ V[: len(sigma)]


def factor_as_batch(matrices, rhs):
    """``_factor`` under the full-row-rank rule with its fallback, and every
    warning it issues."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        factors = embedding_module._factor(matrices, rhs, np.arange(len(matrices)))
    return factors, record


def svd_rule_fallbacks(factors, matrices, rhs):
    """Assert that ``factors`` keep the ranks and kernel widths of the
    per-element SVD rule, and its results bit for bit on the elements sent
    to the SVD; return the number of elements that rule finds rank
    deficient."""
    references = [
        svd_reference(LocalOperator(AR, k, a, l)) for k, (a, l) in enumerate(zip(matrices, rhs))
    ]
    assert list(factors.rank) == [ref[3] for ref in references]
    embeddings = factors.embeddings()
    assert [emb.T.shape[1] for emb in embeddings] == [ref[0].shape[1] for ref in references]
    for k in factors.svd_elements:
        T, uL, sigma, _ = references[k]
        assert np.array_equal(embeddings[k].T, T), k
        assert np.array_equal(embeddings[k].sigma, sigma), k
        assert np.linalg.norm(embeddings[k].uL - uL) <= 1e-13 * np.linalg.norm(uL), k
    return sum(ref[3] < matrices.shape[1] for ref in references)


def test_qr_rank_guard_decides_as_the_svd_rule():
    rng = np.random.default_rng(5)
    ratios = [0.5, 1e-8, 2e-9, 5e-10, 1e-12, 0.5, 0.5, 0.5]
    matrices = np.stack([flat_spectrum_operator(rng, r, 6, 10) for r in ratios])
    matrices[-3, 2] *= 1e-300  # the norm of R^-1 overflows
    matrices[-2, 2] *= 1e-310  # R^-1 has infinite entries
    matrices[-1, 2] = 0.0  # an exactly zero row
    rhs = rng.standard_normal((len(ratios), 6))
    factors, record = factor_as_batch(matrices, rhs)
    # ||R||_F ||R^-1||_F is sqrt(5) / ratio: below 1e9 at 1e-8, above at 2e-9
    assert list(factors.svd_elements) == [2, 3, 4, 5, 6, 7]
    assert list(factors.rank) == [6, 6, 6, 5, 5, 5, 5, 5]
    assert svd_rule_fallbacks(factors, matrices, rhs) == 5
    # no overflow or invalid-value warning, only the one fallback warning
    assert len(record) == 1
    assert issubclass(record[0].category, UserWarning)
    assert "5 of 8 elements" in str(record[0].message)


def test_qr_rank_guard_sends_tall_operators_to_the_svd():
    rng = np.random.default_rng(6)
    matrices = np.stack([flat_spectrum_operator(rng, r, 8, 5) for r in (0.5, 1e-3, 1e-12)])
    rhs = rng.standard_normal((3, 8))
    factors, record = factor_as_batch(matrices, rhs)
    assert list(factors.svd_elements) == [0, 1, 2]
    assert list(factors.rank) == [5, 5, 4]
    assert svd_rule_fallbacks(factors, matrices, rhs) == 3
    assert len(record) == 1 and "3 of 3 elements" in str(record[0].message)


def test_classical_trefftz_recovery():
    coeffs = manufactured_case(alpha=1, exact=sp.Integer(0))
    rng = np.random.default_rng(11)
    for p in (2, 3, 4):
        mesh = build_structured_mesh(2)
        space = BrokenSpace(mesh, p)
        k = int(rng.integers(mesh.n_elements))
        op = assemble_local_operator(DAR, space, k, coeffs)
        emb = compute_embedding(op)
        assert emb.T.shape[1] == 2 * p + 1
        harmonics = [lambda x, y: np.ones_like(x)]
        for m in range(1, p + 1):
            harmonics.append(lambda x, y, m=m: np.real((x + 1j * y) ** m))
            harmonics.append(lambda x, y, m=m: np.imag((x + 1j * y) ** m))
        H = np.column_stack([l2_projection(space, f, 2 * p + 6, [k])[0] for f in harmonics])
        assert np.max(subspace_angles(emb.T, H)) < 1e-8


def test_global_embedding_concatenation():
    coeffs = builtin_case("AR_EXAMPLE")
    mesh = build_structured_mesh(1)
    space = BrokenSpace(mesh, 3)
    ops = assemble_local_operators(AR, space, coeffs)
    embs = [compute_embedding(op) for op in ops]
    glob = assemble_global_embedding(mesh, embs)
    assert glob.ndof_trefftz == 8
    T = prolongation(glob).toarray()
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
    assert glob.mesh is mesh
    assert prolongation(glob).shape == (6, 3)
    assert list(glob.offsets) == [0, 3, 3]
    assert np.allclose(glob.u_L, [0, 0, 0, 0, 1, 2])


def test_build_embedding_pipeline_and_sigma_csv():
    coeffs = builtin_case("DAR_EXAMPLE")
    mesh = build_structured_mesh(2)
    space = BrokenSpace(mesh, 2)
    glob = build_embedding(space, coeffs, DAR)
    assert isinstance(glob, GlobalEmbedding)
    assert glob.ndof_trefftz == mesh.n_elements * 5
    buf = io.StringIO()
    export_sigma_csv(glob.factors, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "element_id,sigma_index,sigma_value"
    assert len(lines) == 1 + mesh.n_elements * 1  # one singular value per element
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2])


@pytest.mark.parametrize("mixed", [False, True])
def test_build_embedding_reads_the_stacked_factors(request, mixed):
    if mixed:
        request.getfixturevalue("zero_odd_operators")
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
    assert np.array_equal(glob.kernels, gathered.kernels)
    assert glob.mesh is gathered.mesh is mesh


def test_build_embedding_rejects_a_system_of_other_data():
    # the AR operators of another problem's system would embed that
    # problem's kernels: here u_L moved by 0.044 and the l2 error read 0.142
    x, y = sp.symbols("x y")
    other = manufactured_case(beta=(1 + x, 1 + y), gamma=1, exact=sp.exp(x * y))
    space = BrokenSpace(build_structured_mesh(4), 3)
    system = assemble_global_system(space, builtin_case("AR_EXAMPLE"))
    with pytest.raises(ValueError, match="assembled from other data"):
        build_embedding(space, other, AR, system=system)
    with pytest.raises(ValueError, match="assembled on another space"):
        build_embedding(BrokenSpace(space.mesh, 3), system.coeffs, AR, system=system)
    own = assemble_global_system(space, other)
    solution = solve_embedded_trefftz(own, build_embedding(space, other, AR, system=own))
    assert compute_errors(solution, other).l2_error < 1e-4


def per_row_sigma_csv(embeddings):
    """The sigma CSV written one formatted numpy scalar per row."""
    lines = ["element_id,sigma_index,sigma_value\n"]
    for emb in embeddings:
        for i, s in enumerate(emb.sigma):
            lines.append(f"{emb.element},{i},{s:.16e}\n")
    return "".join(lines)


def test_sigma_csv_matches_the_per_row_writer(tmp_path):
    space = BrokenSpace(build_structured_mesh(2), 6)
    report = run_diagnostics(space, DAR, builtin_case("DAR_EXAMPLE"), sigma=1800.0)
    factors = report.embedding.factors
    target = tmp_path / "sigma.csv"
    export_sigma_csv(factors, target)
    assert target.read_bytes() == per_row_sigma_csv(factors.embeddings()).encode()


def test_exactly_zero_pivot_goes_to_the_svd_and_warns_once():
    rng = np.random.default_rng(7)
    matrices = np.stack([flat_spectrum_operator(rng, 0.5, 6, 10) for _ in range(4)])
    # a zero row of A_2 is a zero column of A_2', so the QR leaves an
    # exactly zero pivot R_22, and back substitution an infinite row
    matrices[2, 2] = 0.0
    assert np.linalg.qr(matrices[2].T)[1][2, 2] == 0.0
    rhs = rng.standard_normal((4, 6))
    with np.errstate(all="raise"):
        factors, record = factor_as_batch(matrices, rhs)
    assert list(factors.svd_elements) == [2]
    assert list(factors.rank) == [6, 6, 5, 6]
    assert len(record) == 1 and "1 of 4 elements" in str(record[0].message)
    assert np.all(np.isfinite(factors.uL))


def test_huge_operator_fails_the_screen_without_non_finite_solutions():
    rng = np.random.default_rng(8)
    matrices = np.stack([flat_spectrum_operator(rng, 0.5, 6, 10) for _ in range(3)])
    matrices[1] *= 1e300  # ||R||_F overflows and ||R^-1||_F underflows
    rhs = rng.standard_normal((3, 6))
    factors, record = factor_as_batch(matrices, rhs)
    assert list(factors.svd_elements) == [1]
    assert list(factors.rank) == [6, 6, 6]
    assert record == []
    assert np.all(np.isfinite(factors.uL))
    # the SVD gives the min-norm solution, about 1e-300 here
    reference = np.linalg.pinv(matrices[1] / 1e300) @ rhs[1] / 1e300
    assert np.linalg.norm(factors.uL[1] - reference) <= 1e-12 * np.linalg.norm(reference)
