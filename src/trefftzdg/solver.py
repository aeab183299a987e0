"""Direct solvers for the standard DG system, the decoupled
embedded-Trefftz reduced system, and the generic coupled block system.

All variants return coefficient vectors over the full broken basis, so
error computation downstream is method-agnostic. The Trefftz systems are
projected block by block from the DG operator's element-pair blocks, never
through a product of sparse matrices. Every sparse LU runs in one element
order (:func:`_solve_order`): the block-triangular form of the element-pair
graph, with the mesh's nested-dissection order inside each strongly
connected component. An acyclic upwind system then factors with no fill,
and a connected one (SIP, cyclic flow) keeps the nested-dissection order.
The coupled system takes all complement unknowns first and then all
Trefftz unknowns, each group in that element order, so its block-diagonal
local rows are eliminated without fill. Each matrix is built once, already
in solve order: :func:`block_matrix` permutes the element-pair blocks as
whole blocks and converts them in one pass to the CSC matrix with sorted
indices that the LU factors. One step of iterative refinement and a
pivoting LU as the fallback enforce the residual contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .embedding import (  # noqa: F401  (complement rules re-exported)
    MINNORM_IMAGE,
    SVD_COMPLEMENT,
    block_diagonal,
    block_matrix,
)

STANDARD_DG = "STANDARD_DG"
EMBEDDED_TREFFTZ = "EMBEDDED_TREFFTZ"
BLOCK_COUPLED = "BLOCK_COUPLED"

_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Direct solve failed (singular or numerically unusable matrix)."""


@dataclass
class DiscreteSolution:
    """Coefficient vector over the full broken basis plus bookkeeping.

    ``sigma`` and ``alpha_facet`` are the penalty data of the solved system,
    which the error norms reuse.
    """

    coeffs: np.ndarray
    space: object
    method: str
    ndof_full: int
    ndof_trefftz: int = None
    sigma: float = None
    alpha_facet: np.ndarray = field(default=None, repr=False)
    block_parts: dict = field(default=None, repr=False)

    def element_values(self, elems, points=None, gradients=False):
        """Evaluate the discrete function on per-element point sets, or
        without ``points`` at the space's volume points."""
        local = self.coeffs.reshape(self.space.mesh.n_elements, -1)
        return self.space.eval_function(local, elems, points, gradients)


def _direct_solve(ordered, rhs, label, perm):
    """Solve ``A x = rhs`` by sparse LU under the residual contract, given
    ``ordered = A[perm][:, perm]`` as :func:`block_matrix` builds it: CSC
    with sorted indices, the unknowns already in solve order.

    The ordered matrix is factored without pivoting, which keeps the fill
    of the ordering. If that factorization fails, or its solution misses
    the residual contract after the refinement step, the solve is repeated
    on the same matrix with the default COLAMD ordering and partial
    pivoting; a matrix that fails both raises :class:`SolverError`.
    """
    b = rhs[perm]
    try:
        y = _lu_solve(ordered, b, label, pivot=False)
    except SolverError:
        y = _lu_solve(ordered, b, label, pivot=True)
    x = np.empty_like(y)
    x[perm] = y
    return x


def _lu_solve(csc, rhs, label, pivot):
    """One factorization, solve and refinement step; ``pivot`` uses
    SuperLU's default ordering and pivoting in place of the given order.
    The refinement residual is accumulated in ``np.longdouble``, which
    takes the error of the refined solution well below the
    ``cond(A) * eps`` of the first solve."""
    try:
        if pivot:
            lu = splu(csc)
        else:
            lu = splu(csc, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        x = lu.solve(rhs)
    except (RuntimeError, ValueError) as exc:
        raise SolverError(
            f"{label}: sparse LU factorization failed ({exc}); "
            f"shape {csc.shape}, nnz {csc.nnz}"
        ) from exc
    if not np.all(np.isfinite(x)):
        raise SolverError(
            f"{label}: non-finite solution entries, matrix is numerically singular "
            f"(shape {csc.shape})"
        )
    wide = sparse.csc_matrix((csc.data.astype(np.longdouble), csc.indices, csc.indptr), csc.shape)
    x = x + lu.solve((rhs - wide @ x).astype(float))
    denom = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    residual = np.linalg.norm(csc @ x - rhs)
    if not residual <= _RESIDUAL_TOL * denom:
        raise SolverError(
            f"{label}: relative residual {residual / denom:.3e} exceeds "
            f"{_RESIDUAL_TOL:.0e}; matrix likely ill-conditioned or singular"
        )
    return x


def _block_permutation(order, bounds):
    """Unknowns in element ``order``: for each element ``k`` the range
    ``bounds[k]:bounds[k + 1]``."""
    starts, sizes = bounds[:-1][order], np.diff(bounds)[order]
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def _solve_order(system):
    """Element order of the LU solves of ``system``: the strongly connected
    components of its element-pair graph (block row ``K`` stores ``B_KL``:
    ``K`` depends on ``L``) in dependency order, upwind component first
    (the block-triangular form of KLU, Davis and Palamadai Natarajan 2010),
    each component in :attr:`Mesh2D.element_order`. An acyclic upwind
    operator becomes block lower triangular (Lesaint and Raviart 1974), so
    its unpivoted LU has no fill; a connected graph keeps the mesh order.
    When every component is a single element, the labels alone fix the
    order and the mesh order is not computed.

    The order relies on scipy labelling the components so that every
    block's column component is at most its row component, which
    ``tests/test_solver.py`` checks on random graphs.
    """
    mesh = system.space.mesh
    n = mesh.n_elements
    blocks = system.blocks
    # copies: a graph sharing the index arrays would let an edit reach the blocks
    graph = sparse.csr_matrix(
        (np.ones(len(blocks.indices)), blocks.indices.copy(), blocks.indptr.copy()), shape=(n, n)
    )
    n_components, labels = connected_components(graph, connection="strong")
    if n_components == n:
        return np.argsort(labels)
    rank = np.empty(n, dtype=np.intp)
    rank[mesh.element_order] = np.arange(n)
    return np.lexsort((rank, labels))


def solve_standard_dg(system):
    """Solve the full DG system directly."""
    space = system.space
    order = _solve_order(system)
    A = system.blocks
    ordered = block_matrix(A.data, A.indices, A.indptr, order=order)
    perm = _block_permutation(order, np.append(space.offsets, space.ndof_total))
    x = _direct_solve(ordered, system.load, "standard DG solve", perm)
    return DiscreteSolution(
        coeffs=x,
        space=system.space,
        method=STANDARD_DG,
        ndof_full=system.space.ndof_total,
        sigma=system.sigma,
        alpha_facet=system.alpha_facet,
    )


def _project(system, left, right, left_widths=None, right_widths=None, order=None):
    """``left' A right`` for element stacks ``left``, ``right`` ``(E, n, w)``,
    one batched block ``left_K' B_KL right_L`` per stored block ``B_KL`` of
    the system; see :func:`block_matrix` for the widths and the order."""
    A = system.blocks
    rows = np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr))
    data = np.swapaxes(left, 1, 2)[rows] @ (A.data @ right[A.indices])
    return block_matrix(data, A.indices, A.indptr, left_widths, right_widths, order)


def reduced_system(system, embedding, order=None):
    """The embedded Trefftz system ``T' A T`` and ``T' (l - A u_L)``,
    formed from the system's blocks and the stacked kernels. An element
    ``order`` orders the matrix as :func:`block_matrix` does; the
    right-hand side keeps the numbering of the Trefftz unknowns."""
    space = system.space
    T = embedding.kernels
    if T.shape[:2] != (space.mesh.n_elements, space.ndof_local):
        raise ValueError("embedding and system dimensions do not match")
    widths = np.diff(embedding.offsets)
    rhs = embedding.prolongation.T @ (system.load - system.blocks @ embedding.u_L)
    return _project(system, T, T, widths, widths, order), rhs


def solve_embedded_trefftz(system, embedding):
    """Solve the reduced Galerkin problem on the embedded Trefftz space.

    Returns ``u = T u_T + u_L``; the element-local rows hold exactly by
    construction of the particular solution and the kernel, the global
    rows to solver tolerance.
    """
    order = _solve_order(system)
    ordered, rhs = reduced_system(system, embedding, order)
    perm = _block_permutation(order, embedding.offsets)
    x = _direct_solve(ordered, rhs, "embedded Trefftz solve", perm)
    return DiscreteSolution(
        coeffs=embedding.prolongation @ x + embedding.u_L,
        space=system.space,
        method=EMBEDDED_TREFFTZ,
        ndof_full=system.space.ndof_total,
        ndof_trefftz=embedding.ndof_trefftz,
        sigma=system.sigma,
        alpha_facet=system.alpha_facet,
    )


def solve_block_coupled(local_ops, system, embedding, complement_rule=SVD_COMPLEMENT):
    """Assemble and solve the coupled 2x2 local/global block system.

    The unknowns are split per element into a complement-space part (spanned
    per ``complement_rule``) and the Trefftz part; by the weak-coupling
    property of the kernels the result matches the embedded solve, which the
    diagnostics verify numerically. ``embedding`` comes from
    :func:`build_embedding`.

    All complement unknowns are factored first, then all Trefftz unknowns,
    each group in the element order of the solves. The local rows ``A L``
    and ``A T`` are block diagonal, so eliminating the complement unknowns
    first is static condensation (Guyan, AIAA J. 3, 1965): it adds no
    entry outside the stored blocks, since the Schur complement
    ``T'AT - T'AL (AL)^-1 AT`` left for the Trefftz unknowns has the block
    pattern of ``T'AT``.
    """
    space = system.space
    mesh = space.mesh
    if len(local_ops) != mesh.n_elements or len(embedding.embeddings) != mesh.n_elements:
        raise ValueError("local operators, embedding, and mesh sizes do not match")
    if embedding.factors is None:
        raise ValueError("the block solve needs the local factors build_embedding keeps")
    A = np.stack([op.matrix for op in local_ops])
    n_rows = A.shape[1]
    factors = embedding.factors
    deficient = np.flatnonzero(factors.rank != n_rows)
    if deficient.size:
        k = deficient[0]
        raise SolverError(
            f"element {k}: local operator is rank deficient "
            f"({factors.rank[k]} < {n_rows} rows); block system would be singular"
        )
    # every element keeps all rows, so every kernel has the full width
    L, T = factors.complement(complement_rule), embedding.kernels
    order = _solve_order(system)
    ordered = sparse.bmat(
        [
            [block_diagonal(A @ L, order=order), block_diagonal(A @ T, order=order)],
            [_project(system, T, L, order=order), _project(system, T, T, order=order)],
        ],
        format="csc",
    )
    T_global = embedding.prolongation
    rhs = np.concatenate([op.rhs for op in local_ops] + [T_global.T @ system.load])
    k_total = n_rows * mesh.n_elements
    perm = np.concatenate([
        _block_permutation(order, n_rows * np.arange(mesh.n_elements + 1)),
        k_total + _block_permutation(order, embedding.offsets),
    ])
    x = _direct_solve(ordered, rhs, "coupled block solve", perm)
    c_l, c_t = x[:k_total], x[k_total:]
    u_l = block_diagonal(L) @ c_l
    u_t = T_global @ c_t
    return DiscreteSolution(
        coeffs=u_l + u_t,
        space=space,
        method=BLOCK_COUPLED,
        ndof_full=space.ndof_total,
        ndof_trefftz=embedding.ndof_trefftz,
        sigma=system.sigma,
        alpha_facet=system.alpha_facet,
        block_parts={"u_L": u_l, "u_T": u_t, "c_L": c_l, "c_T": c_t},
    )
