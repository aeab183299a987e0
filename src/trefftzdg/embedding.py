"""Element-wise weak Trefftz kernels and particular solutions from one
stacked QR, and the global block-diagonal embedding they form.

A complete QR of each transposed local operator, ``A_K' = Q_K [R_K; 0]``,
gives an orthonormal kernel basis, the trailing columns of ``Q_K``, and the
min-norm particular solution ``Q_1 R_K^-T l_K``, orthogonal to the kernel,
with ``R_K^-1`` from one back substitution over all elements. The leading
columns ``Q_1`` span the complement of the kernel, the one complement basis
of the coupled block solver. The singular values of ``R_K``, those of
``A_K``, are a stability diagnostic computed only when read.

The global embedding ``T`` is kept as its diagonal blocks only, the
kernels padded in front to one width, and the Trefftz unknowns take the
same padded layout: the solver assembles the Trefftz system with the
kernel stack as its per-element basis and applies ``T`` block by block."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .local_ops import BOX_SCALE, LocalOperatorBatch, assemble_local_operators
from .mesh import Mesh2D

_GUARD_REL = 1e-9


@dataclass
class ElementEmbedding:
    """Kernel basis, particular solution and spectrum of one element."""

    element: int
    T: np.ndarray
    uL: np.ndarray
    sigma: np.ndarray
    rank_used: int


@dataclass
class LocalFactors:
    """Stacked factors ``A_K' = Q_K[:, :s] R_K``, ``s = min(m, n)``, of the
    local operators of ``elements`` and the ``rank`` each keeps: ``Q`` ``(E,
    n, n)`` orthogonal, ``R`` ``(E, s, m)``. The elements ``svd_elements``
    hold their SVD ``U diag(svd_sigma) V'`` as ``V`` and ``diag(svd_sigma)
    U[:, :s]'``. ``kernels`` ``(E, n, n - min(rank))`` holds each kernel
    basis ``Q_K[:, rank:]`` in its last columns and zeros in front; ``uL``
    ``(E, n)`` are the particular solutions."""

    elements: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    rank: np.ndarray
    kernels: np.ndarray
    uL: np.ndarray
    svd_elements: np.ndarray = field(repr=False)
    svd_sigma: np.ndarray = field(repr=False)
    _sigma: np.ndarray = field(default=None, init=False, repr=False)

    @property
    def sigma(self):
        """Singular values ``(E, s)`` of the operators, descending: those
        of ``R``, computed on first access, and the SVD's where it ran."""
        if self._sigma is None:
            self._sigma = np.linalg.svd(self.R, compute_uv=False)
            self._sigma[self.svd_elements] = self.svd_sigma
        return self._sigma

    def embeddings(self):
        """Per-element views of the batch."""
        r0 = self.rank.min()
        batch = zip(self.elements, self.kernels, self.uL, self.sigma, self.rank)
        return [ElementEmbedding(int(e), T[:, k - r0:], uL, s, int(k)) for e, T, uL, s, k in batch]


def _factor(matrices, rhs, elements):
    """Kernels, min-norm particular solutions and factors of the local
    operators ``matrices`` ``(E, m, n)`` of ``elements`` with loads ``rhs``
    ``(E, m)``, under the full-row-rank rule of :func:`compute_embedding`.
    With ``m <= n``, an element keeps the stacked QR when
    ``||R||_F ||R^-1||_F``, which bounds ``sigma_1 / sigma_m``, is below
    ``1 / _GUARD_REL``, as the guard then passes; ``R^-1`` comes from a
    back substitution over all elements at once, one row per step. The
    others, and every element with ``m > n``, take the SVD."""
    if matrices.size == 0:
        raise ValueError("local operator matrix is empty")
    n_elements, m, n = matrices.shape
    s = min(m, n)
    Q, R, uL = np.empty((n_elements, n, n)), np.empty((n_elements, s, m)), np.empty((n_elements, n))
    rank, svd = np.full(n_elements, m), np.arange(n_elements)
    if m <= n:
        Q, R = np.linalg.qr(np.swapaxes(matrices, 1, 2), mode="complete")
        R, R_inv = R[:, :m], np.zeros((n_elements, m, m))
        # a zero pivot (an infinite row), or an inverse that overflows, fails the screen
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in reversed(range(m)):  # back substitution, row i of R^-1
                R_inv[:, i, i] = 1.0
                R_inv[:, i] -= (R[:, i, None, i + 1:] @ R_inv[:, i + 1:])[:, 0]
                R_inv[:, i] /= R[:, i, i, None]
            bound = np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(R_inv, axis=(1, 2))
        certified = bound < 1.0 / _GUARD_REL
        # the SVD overwrites the other rows; zeros keep inf and nan out of the products
        R_inv[~certified] = 0.0
        uL = (Q[:, :, :m] @ (np.swapaxes(R_inv, 1, 2) @ rhs[..., None]))[..., 0]
        svd = np.flatnonzero(~certified)
    sigma = np.empty((0, s))
    if svd.size:
        U, sigma, Vt = np.linalg.svd(matrices[svd], full_matrices=True)
        # the threshold rank is m wherever the full-row-rank guard passes
        kept = np.count_nonzero((sigma >= _GUARD_REL * sigma[:, :1]) & (sigma > 0), axis=1)
        bad = np.flatnonzero((sigma[:, -1] <= _GUARD_REL * sigma[:, 0]) | (m > n))
        if len(bad):
            s1 = sigma[bad, 0]
            rel = np.divide(sigma[bad, -1], s1, out=np.zeros_like(s1), where=s1 > 0)
            k = bad[np.argmin(rel)]
            warnings.warn(
                f"{len(bad)} of {n_elements} elements have numerically rank deficient operator "
                f"rows; worst element {elements[svd[k]]} (sigma_min/sigma_1 = {rel.min():.3e}, "
                f"sigma = {sigma[k]}); falling back to threshold {_GUARD_REL}"
            )
        # stacked matrix-vector products give the per-element results bit for bit
        Ut, V = np.swapaxes(U[:, :, :s], 1, 2), np.swapaxes(Vt, 1, 2)
        coef = (Ut @ rhs[svd][..., None])[..., 0]
        coef = np.divide(coef, sigma, out=np.zeros_like(sigma), where=np.arange(s) < kept[:, None])
        Q[svd], R[svd], rank[svd] = V, sigma[..., None] * Ut, kept
        uL[svd] = (V[:, :, :s] @ coef[..., None])[..., 0]
    r0 = rank.min()
    kernels = np.where(np.arange(r0, n) >= rank[:, None, None], Q[:, :, r0:], 0.0)
    return LocalFactors(np.asarray(elements), Q, R, rank, kernels, uL, svd, sigma)


def compute_embedding(op):
    """Kernel basis and min-norm particular solution of a local operator;
    a batch of one of the stacked factorization.

    The operator is expected to have full row rank, as many independent
    rows as the test space has dimensions, so that its kernel is the local
    Trefftz space. Where ``sigma_min <= 1e-9 sigma_1`` or there are more
    rows than columns, the rank falls back, with a warning, to the number
    of singular values at least ``1e-9 sigma_1``.
    """
    matrix, rhs = np.asarray(op.matrix, dtype=float), np.asarray(op.rhs, dtype=float)
    factors = _factor(matrix[None], rhs[None], [op.element])
    return factors.embeddings()[0]


def block_matrix(data, indices, indptr, order=None):
    """CSC matrix with sorted indices of the blocks ``data`` ``(B, r, c)``
    in BSR layout over ``E x E`` block positions: block row ``k`` holds
    ``data[indptr[k]:indptr[k + 1]]`` in block columns
    ``indices[indptr[k]:indptr[k + 1]]``. With an element ``order`` the
    block rows and columns come in that order, so the matrix is the
    unordered one indexed ``[perm][:, perm]``.

    The blocks are permuted and transposed as whole blocks and converted
    once: the CSR form of the transpose, its block columns sorted, is the
    wanted CSC matrix."""
    n_blocks = len(indptr) - 1
    _, r, c = data.shape
    order = np.arange(n_blocks) if order is None else np.asarray(order)
    position = np.empty(n_blocks, dtype=np.intp)
    position[order] = np.arange(n_blocks)
    rows = position[np.repeat(np.arange(n_blocks), np.diff(indptr))]
    cols = position[indices]
    key = np.lexsort((rows, cols))
    t_indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_blocks))])
    transpose = sparse.bsr_matrix(
        (np.swapaxes(data, 1, 2)[key], rows[key], t_indptr), shape=(n_blocks * c, n_blocks * r)
    ).tocsr()
    return sparse.csc_matrix(
        (transpose.data, transpose.indices, transpose.indptr), shape=(n_blocks * r, n_blocks * c)
    )


@dataclass
class GlobalEmbedding:
    """Block-diagonal embedding ``T`` from Trefftz to broken coefficients
    on ``mesh``, kept as its blocks: ``kernels`` ``(E, n, w)`` stacks the
    kernel bases, each in its last columns behind zeros as in
    :class:`LocalFactors`. The Trefftz unknowns take the same layout, ``w``
    per element, so element ``k`` has ``offsets[k + 1] - offsets[k]`` of
    them, in its last entries. :func:`build_embedding` also keeps the
    local operators and their factors."""

    mesh: Mesh2D = field(repr=False)
    offsets: np.ndarray
    u_L: np.ndarray
    ndof_trefftz: int
    kernels: np.ndarray = field(repr=False)
    local_operators: LocalOperatorBatch = field(default=None, repr=False)
    factors: LocalFactors = field(default=None, repr=False)


def assemble_global_embedding(mesh, embeddings):
    """Gather per-element embeddings into the global embedding: each
    kernel basis goes into the last columns of its element's block, so
    that a Trefftz unit vector yields a function supported on a single
    element.
    """
    if len(embeddings) != mesh.n_elements:
        raise ValueError(
            f"expected {mesh.n_elements} element embeddings, got {len(embeddings)}"
        )
    widths = np.array([emb.T.shape[1] for emb in embeddings])
    width = widths.max()
    kernels = np.zeros((len(embeddings), embeddings[0].T.shape[0], width))
    for k, emb in enumerate(embeddings):
        kernels[k, :, width - widths[k]:] = emb.T
    u_L = np.concatenate([emb.uL for emb in embeddings])
    return _global_embedding(mesh, kernels, widths, u_L)


def _global_embedding(mesh, kernels, widths, u_L):
    """The global embedding on ``mesh`` of stacked ``kernels`` padded in
    front to the kernel ``widths``."""
    offsets = np.concatenate([[0], np.cumsum(widths)])
    return GlobalEmbedding(
        mesh=mesh, offsets=offsets, u_L=u_L, ndof_trefftz=int(offsets[-1]), kernels=kernels
    )


def _local_operators(space, coeffs, kind, box_scale, system):
    """The local operators of ``kind``: those ``system`` (a DG system or
    volume terms) keeps, or else assembled."""
    if system is not None and system.space is not space:
        raise ValueError("the system was assembled on another space than the embedding's")
    if system is not None and system.coeffs is not coeffs:
        raise ValueError("the system was assembled from other data (coeffs) than the embedding's")
    ops = getattr(system, "local_operators", None)
    if ops is None or ops.kind != kind:
        ops = assemble_local_operators(kind, space, coeffs, box_scale=box_scale)
    return ops


def build_embedding(space, coeffs, kind, box_scale=BOX_SCALE, system=None):
    """Local operators, their stacked factorization, and the global
    embedding in one sweep. Returns the :class:`GlobalEmbedding`; the
    local operators are kept on the result as the
    :class:`~trefftzdg.local_ops.LocalOperatorBatch` ``local_operators``,
    taken from a ``system`` that keeps those of ``kind``: the volume pass
    (:func:`~trefftzdg.dg_forms.assemble_volume_terms`) of the upwind form,
    or the DG system assembled from it. A system of another space or data
    raises."""
    ops = _local_operators(space, coeffs, kind, box_scale, system)
    factors = _factor(ops.matrices, ops.rhs, ops.elements)
    widths = space.ndof_local - factors.rank
    glob = _global_embedding(space.mesh, factors.kernels, widths, factors.uL.ravel())
    glob.local_operators, glob.factors = ops, factors
    return glob


def export_sigma_csv(factors, target):
    """Write the singular-value spectra of the stacked :class:`LocalFactors`
    as CSV rows ``element_id,sigma_index,sigma_value`` to a path or stream."""
    rows = [
        f"{element},{i},{s:.16e}\n"
        for element, spectrum in zip(factors.elements.tolist(), factors.sigma.tolist())
        for i, s in enumerate(spectrum)
    ]
    text = "element_id,sigma_index,sigma_value\n" + "".join(rows)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", newline="\n") as fh:
            fh.write(text)
