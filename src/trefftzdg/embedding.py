"""Element-wise weak Trefftz kernels and particular solutions via SVD,
and their aggregation into the global block-diagonal embedding.

The kernel basis of each element is taken from the trailing right
singular vectors, so its columns are orthonormal and the singular-value
spectrum doubles as a stability diagnostic. Particular solutions are
min-norm (pseudo-inverse) solves, hence orthogonal to the kernel.
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

_GUARD_REL = 1e-9


class RankDeficiencyError(RuntimeError):
    """Local operator lost row rank under the strict rank rule."""

    def __init__(self, message, sigma):
        super().__init__(message)
        self.sigma = sigma


@dataclass
class ElementEmbedding:
    """Kernel basis, particular solution and spectrum of one element.

    ``Vt_used`` and ``U_used`` keep the right and left singular vectors of
    the ``rank_used`` singular values kept, ``Vt[:k]`` and ``U[:, :k]``.
    """

    element: int
    T: np.ndarray
    uL: np.ndarray
    sigma: np.ndarray
    rank_used: int
    Vt_used: np.ndarray = field(default=None, repr=False)
    U_used: np.ndarray = field(default=None, repr=False)


def compute_embedding(op, rank_rule=EXPECT_FULL_ROW_RANK, allow_fallback=True):
    """Kernel basis and min-norm particular solution of a local operator.

    ``rank_rule`` is either :data:`EXPECT_FULL_ROW_RANK` or a relative
    threshold ``tau``; in the latter case the rank is the number of
    singular values at least ``tau * sigma_1``.
    """
    matrix = np.asarray(op.matrix, dtype=float)
    if matrix.size == 0:
        raise ValueError("local operator matrix is empty")
    m, n = matrix.shape
    U, sigma, Vt = np.linalg.svd(matrix, full_matrices=True)
    if rank_rule == EXPECT_FULL_ROW_RANK:
        if sigma[0] > 0 and sigma[min(m, n) - 1] > _GUARD_REL * sigma[0] and m <= n:
            k = m
        else:
            message = (
                f"element {op.element}: operator rows are numerically rank "
                f"deficient (sigma = {sigma}); "
            )
            if not allow_fallback:
                raise RankDeficiencyError(message + "strict rank rule failed", sigma)
            warnings.warn(message + f"falling back to threshold {_GUARD_REL}")
            k = _threshold_rank(sigma, _GUARD_REL)
    else:
        k = _threshold_rank(sigma, float(rank_rule))
    Vt_used, U_used = Vt[:k], U[:, :k]
    return ElementEmbedding(
        element=op.element,
        T=Vt[k:, :].T,
        uL=Vt_used.T @ ((U_used.T @ op.rhs) / sigma[:k]),
        sigma=sigma,
        rank_used=k,
        Vt_used=Vt_used,
        U_used=U_used,
    )


def _threshold_rank(sigma, tau_rel):
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int(np.sum(sigma >= tau_rel * sigma[0]))


@dataclass
class GlobalEmbedding:
    """Block-diagonal prolongation from Trefftz to broken coefficients."""

    embeddings: list
    offsets: np.ndarray
    prolongation: sparse.csr_matrix
    u_L: np.ndarray
    ndof_trefftz: int
    local_operators: list = field(default=None, repr=False)

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
    cols = [emb.T.shape[1] for emb in per_element]
    offsets = np.concatenate([[0], np.cumsum(cols)])
    return GlobalEmbedding(
        embeddings=list(per_element),
        offsets=offsets,
        prolongation=sparse.block_diag([emb.T for emb in per_element], format="csr"),
        u_L=np.concatenate([emb.uL for emb in per_element]),
        ndof_trefftz=int(offsets[-1]),
    )


def build_embedding(space, coeffs, kind, box_scale=0.25, rank_rule=EXPECT_FULL_ROW_RANK):
    """Local operators, per-element kernels, and the global embedding in
    one sweep. Returns the :class:`GlobalEmbedding`; the local operators
    are kept on the result as ``local_operators``."""
    ops = assemble_local_operators(kind, space, coeffs, box_scale=box_scale)
    embeddings = [compute_embedding(op, rank_rule=rank_rule) for op in ops]
    glob = assemble_global_embedding(space.mesh, embeddings)
    glob.local_operators = ops
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
    fh.write("element_id,sigma_index,sigma_value\n")
    for emb in embeddings:
        for i, s in enumerate(emb.sigma):
            fh.write(f"{emb.element},{i},{s:.16e}\n")
