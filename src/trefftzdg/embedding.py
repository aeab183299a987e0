"""Element-wise weak Trefftz kernels and particular solutions from one
stacked SVD, and their aggregation into the global block-diagonal embedding.

The kernel basis of each element is taken from the trailing right
singular vectors, so its columns are orthonormal and the singular-value
spectrum doubles as a stability diagnostic. Particular solutions are
min-norm (pseudo-inverse) solves, hence orthogonal to the kernel. The
singular vectors stay in this module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .local_ops import assemble_local_operators

#: Rank rule expecting as many independent rows as the test space has
#: dimensions (guarded; falls back to a relative threshold with a warning).
EXPECT_FULL_ROW_RANK = "expect_full_row_rank"

#: Complement-space rules of the coupled block solver: the right singular
#: vectors kept, or the orthonormalized image of the pseudo-inverse.
SVD_COMPLEMENT = "svd_complement"
MINNORM_IMAGE = "minnorm_image"

_GUARD_REL = 1e-9


class RankDeficiencyError(RuntimeError):
    """Local operator lost row rank under the strict rank rule."""

    def __init__(self, message, sigma):
        super().__init__(message)
        self.sigma = sigma


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
    """Stacked SVDs ``A_K = U diag(sigma) Vt`` of the local operators of
    ``elements`` and the ``rank`` each keeps. ``kernels`` ``(E, n, n -
    min(rank))`` holds each kernel basis ``Vt[rank:].T`` in its last columns
    and zeros in front; ``uL`` ``(E, n)`` are the particular solutions."""

    elements: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray
    rank: np.ndarray
    kernels: np.ndarray
    uL: np.ndarray

    def embeddings(self):
        """Per-element views of the batch."""
        r0 = self.rank.min()
        batch = zip(self.elements, self.kernels, self.uL, self.sigma, self.rank)
        return [ElementEmbedding(int(e), T[:, k - r0:], uL, s, int(k)) for e, T, uL, s, k in batch]

    def complement(self, complement_rule):
        """Orthonormal bases ``(E, n, m)`` of the element complement spaces;
        every element must keep all ``m`` operator rows."""
        V = np.swapaxes(self.Vt[:, : self.U.shape[1]], 1, 2)
        if complement_rule == SVD_COMPLEMENT:
            return V
        if complement_rule == MINNORM_IMAGE:
            return np.linalg.qr((V / self.sigma[:, None]) @ np.swapaxes(self.U, 1, 2))[0]
        raise ValueError(f"unknown complement rule {complement_rule!r}")


def _factor(matrices, rhs, elements, rank_rule, allow_fallback):
    """Kernels, min-norm particular solutions and spectra of the local
    operators ``matrices`` ``(E, m, n)`` with loads ``rhs`` ``(E, m)`` from
    one stacked SVD; see :func:`compute_embedding` for the rank rules."""
    if matrices.size == 0:
        raise ValueError("local operator matrix is empty")
    _, m, n = matrices.shape
    strict = rank_rule == EXPECT_FULL_ROW_RANK
    tau = _GUARD_REL if strict else float(rank_rule)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"threshold rank rule tau = {rank_rule!r} must satisfy 0 < tau <= 1")
    U, sigma, Vt = np.linalg.svd(matrices, full_matrices=True)
    # the threshold rank is m wherever the full-row-rank guard passes
    rank = np.count_nonzero((sigma >= tau * sigma[:, :1]) & (sigma > 0), axis=1)
    bad = np.flatnonzero((sigma[:, -1] <= tau * sigma[:, 0]) | (m > n)) if strict else []
    if len(bad):
        k = bad[0]
        if not allow_fallback:
            raise RankDeficiencyError(
                f"element {elements[k]}: operator rows are numerically rank deficient "
                f"(sigma = {sigma[k]}); strict rank rule failed",
                sigma[k],
            )
        s1 = sigma[bad, 0]
        rel = np.divide(sigma[bad, -1], s1, out=np.zeros_like(s1), where=s1 > 0)
        k = bad[np.argmin(rel)]
        warnings.warn(
            f"{len(bad)} of {len(sigma)} elements have numerically rank deficient operator "
            f"rows; worst element {elements[k]} (sigma_min/sigma_1 = {rel.min():.3e}, "
            f"sigma = {sigma[k]}); falling back to threshold {_GUARD_REL}"
        )
    # stacked matrix-vector products give the per-element results bit for bit
    s = sigma.shape[1]
    coef = (np.swapaxes(U[:, :, :s], 1, 2) @ rhs[..., None])[..., 0]
    coef = np.divide(coef, sigma, out=np.zeros_like(sigma), where=np.arange(s) < rank[:, None])
    r0 = rank.min()
    kernels = np.where(np.arange(r0, n) >= rank[:, None, None], np.swapaxes(Vt[:, r0:], 1, 2), 0.0)
    uL = (np.swapaxes(Vt[:, :s], 1, 2) @ coef[..., None])[..., 0]
    return LocalFactors(np.asarray(elements), U, sigma, Vt, rank, kernels, uL)


def compute_embedding(op, rank_rule=EXPECT_FULL_ROW_RANK, allow_fallback=True):
    """Kernel basis and min-norm particular solution of a local operator;
    a batch of one of the stacked factorization.

    ``rank_rule`` is either :data:`EXPECT_FULL_ROW_RANK` or a relative
    threshold ``tau`` with ``0 < tau <= 1``; in the latter case the rank is
    the number of singular values at least ``tau * sigma_1``.
    """
    matrix, rhs = np.asarray(op.matrix, dtype=float), np.asarray(op.rhs, dtype=float)
    factors = _factor(matrix[None], rhs[None], [op.element], rank_rule, allow_fallback)
    return factors.embeddings()[0]


def block_matrix(data, indices, indptr, row_widths=None, col_widths=None, order=None):
    """CSC matrix with sorted indices of the blocks ``data`` ``(B, r, c)``
    in BSR layout over ``E x E`` block positions: block row ``k`` holds
    ``data[indptr[k]:indptr[k + 1]]`` in block columns
    ``indices[indptr[k]:indptr[k + 1]]``. With an element ``order`` the
    block rows and columns come in that order, so the matrix is the
    unordered one indexed ``[perm][:, perm]``. Blocks padded in front, as
    :attr:`LocalFactors.kernels` are, keep only the last ``row_widths[k]``
    rows of block row ``k`` and the last ``col_widths[l]`` columns of
    block column ``l``.

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
    csc = sparse.csc_matrix(
        (transpose.data, transpose.indices, transpose.indptr), shape=(n_blocks * r, n_blocks * c)
    )
    if col_widths is not None and np.any(col_widths != c):
        csc = csc[:, _trailing(np.asarray(col_widths)[order], c)]
    if row_widths is not None and np.any(row_widths != r):
        csc = csc[_trailing(np.asarray(row_widths)[order], r)]
    return csc


def block_diagonal(blocks, widths=None, order=None):
    """CSC matrix with the blocks ``(E, r, c)`` on its diagonal; see
    :func:`block_matrix` for ``widths`` and ``order``."""
    k = np.arange(len(blocks) + 1)
    return block_matrix(blocks, k[:-1], k, col_widths=widths, order=order)


def _trailing(widths, size):
    """Indices of the last ``widths[k]`` entries of every block ``k`` of
    ``size`` consecutive entries."""
    return np.flatnonzero(np.arange(size) >= size - np.asarray(widths)[:, None])


@dataclass
class GlobalEmbedding:
    """Block-diagonal prolongation from Trefftz to broken coefficients;
    ``kernels`` ``(E, n, w)`` stacks the kernel bases, each in its last
    columns behind zeros as in :class:`LocalFactors`. :func:`build_embedding`
    also keeps the local operators and their factors."""

    embeddings: list
    offsets: np.ndarray
    prolongation: sparse.csc_matrix
    u_L: np.ndarray
    ndof_trefftz: int
    kernels: np.ndarray = field(repr=False)
    local_operators: list = field(default=None, repr=False)
    factors: LocalFactors = field(default=None, repr=False)

    def element_columns(self, k):
        return slice(self.offsets[k], self.offsets[k + 1])


def assemble_global_embedding(mesh, per_element):
    """Gather per-element embeddings into the global embedding.

    Columns of the prolongation are the kernel bases laid out block by
    block; applying it to a unit vector yields a function supported on a
    single element.
    """
    if len(per_element) != mesh.n_elements:
        raise ValueError(
            f"expected {mesh.n_elements} element embeddings, got {len(per_element)}"
        )
    widths = np.array([emb.T.shape[1] for emb in per_element])
    width = widths.max()
    kernels = np.zeros((len(per_element), per_element[0].T.shape[0], width))
    for k, emb in enumerate(per_element):
        kernels[k, :, width - widths[k]:] = emb.T
    u_L = np.concatenate([emb.uL for emb in per_element])
    return _global_embedding(list(per_element), kernels, widths, u_L)


def _global_embedding(embeddings, kernels, widths, u_L):
    """The global embedding of stacked ``kernels`` padded in front to the
    kernel ``widths``."""
    offsets = np.concatenate([[0], np.cumsum(widths)])
    return GlobalEmbedding(
        embeddings=embeddings,
        offsets=offsets,
        prolongation=block_diagonal(kernels, widths),
        u_L=u_L,
        ndof_trefftz=int(offsets[-1]),
        kernels=kernels,
    )


def build_embedding(space, coeffs, kind, box_scale=0.25):
    """Local operators, their stacked factorization, and the global
    embedding in one sweep. Returns the :class:`GlobalEmbedding`; the local
    operators are kept on the result as ``local_operators``."""
    ops = assemble_local_operators(kind, space, coeffs, box_scale=box_scale)
    matrices, rhs = np.stack([op.matrix for op in ops]), np.stack([op.rhs for op in ops])
    factors = _factor(matrices, rhs, [op.element for op in ops], EXPECT_FULL_ROW_RANK, True)
    widths = space.ndof_local - factors.rank
    glob = _global_embedding(factors.embeddings(), factors.kernels, widths, factors.uL.ravel())
    glob.local_operators, glob.factors = ops, factors
    return glob


def export_sigma_csv(embeddings, target):
    """Write singular-value spectra as CSV rows
    ``element_id,sigma_index,sigma_value``."""
    if hasattr(target, "write"):
        _write_sigma(embeddings, target)
    else:
        with open(target, "w", newline="\n") as fh:
            _write_sigma(embeddings, fh)


def _write_sigma(embeddings, fh):
    rows = [
        f"{emb.element},{i},{s:.16e}\n"
        for emb in embeddings
        for i, s in enumerate(emb.sigma.tolist())
    ]
    fh.write("element_id,sigma_index,sigma_value\n" + "".join(rows))
