"""Prolongation oracle for the tests: the global embedding as the sparse
block-diagonal matrix of the kernel bases, each trimmed to its width."""

import numpy as np
import scipy.sparse as sparse


def trailing(widths, width):
    """Mask ``(E, width)`` of the last ``widths[k]`` entries of every
    element ``k``: its unknowns in the padded layout of the kernel stack."""
    return np.arange(width) >= width - np.asarray(widths)[:, None]


def prolongation(emb):
    """The CSC matrix ``T`` with the trimmed kernel bases of ``emb`` on its
    diagonal, from Trefftz to broken coefficients."""
    keep = trailing(np.diff(emb.offsets), emb.kernels.shape[2])
    return sparse.block_diag([T[:, k] for T, k in zip(emb.kernels, keep)], format="csc")
