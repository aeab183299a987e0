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
The coupled system takes its local rows, and its complement basis ``Q_1``,
from the operators and factors that
:func:`~trefftzdg.embedding.build_embedding` keeps on the embedding and
eliminates its complement unknowns element by element with dense
batched solves (static condensation), so its only sparse LU is that of
the Schur complement on the Trefftz unknowns, which has the size
and the block pattern of the reduced system. Each matrix is built once,
already in solve order: :func:`block_matrix` permutes the element-pair
blocks as whole blocks and converts them in one pass to the CSC matrix
with sorted indices that the LU factors. One step of iterative refinement
and a pivoting LU as the fallback enforce the residual contract, which
the coupled solve also checks on its whole 2x2 system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .embedding import block_matrix

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


def _ordered_solve(system, blocks, bounds, rhs, label):
    """Solve the matrix of the element-pair ``blocks`` on the block pattern
    of ``system``, element ``k``'s unknowns ``bounds[k]:bounds[k + 1]``
    (the trailing ones of padded blocks, as :func:`block_matrix` keeps
    them), built and factored in the solve order of ``system``."""
    A, widths = system.blocks, np.diff(bounds)
    order = _solve_order(system)
    ordered = block_matrix(blocks, A.indices, A.indptr, widths, widths, order)
    return _direct_solve(ordered, rhs, label, _block_permutation(order, bounds))


def _solution(system, coeffs, method, **fields):
    """The solution ``coeffs`` of ``system`` by ``method``, with the
    system's space and the penalty data the error norms reuse."""
    return DiscreteSolution(
        coeffs=coeffs, space=system.space, method=method, ndof_full=system.space.ndof_total,
        sigma=system.sigma, alpha_facet=system.alpha_facet, **fields,
    )


def solve_standard_dg(system):
    """Solve the full DG system directly."""
    space = system.space
    bounds = np.append(space.offsets, space.ndof_total)
    x = _ordered_solve(system, system.blocks.data, bounds, system.load, "standard DG solve")
    return _solution(system, x, STANDARD_DG)


def _pair_blocks(system, left, right):
    """The blocks ``left_K' B_KL right_L`` of ``left' A right`` for element
    stacks ``left`` ``(E, n, w)`` and ``right`` ``(E, n, v)``, one batched
    product per stored block ``B_KL`` of the system, in its BSR layout."""
    A = system.blocks
    rows = np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr))
    return np.swapaxes(left, 1, 2)[rows] @ (A.data @ right[A.indices])


def _check_embedding(system, embedding):
    """Reject an embedding built on another mesh or degree than ``system``."""
    space = system.space
    expected = (space.mesh.n_elements, space.ndof_local)
    if embedding.kernels.shape[:2] != expected:
        raise ValueError(
            "embedding and system dimensions do not match: kernels of "
            f"{embedding.kernels.shape[:2]} (elements, local unknowns), system {expected}"
        )


def _reduced_blocks(system, embedding):
    """The blocks ``T_K' B_KL T_L`` of the embedded Trefftz system and its
    right-hand side ``T' (l - A u_L)``."""
    _check_embedding(system, embedding)
    T = embedding.kernels
    rhs = embedding.prolongation.T @ (system.load - system.blocks @ embedding.u_L)
    return _pair_blocks(system, T, T), rhs


def solve_embedded_trefftz(system, embedding):
    """Solve the reduced Galerkin problem on the embedded Trefftz space.

    Returns ``u = T u_T + u_L``; the element-local rows hold exactly by
    construction of the particular solution and the kernel, the global
    rows to solver tolerance.
    """
    blocks, rhs = _reduced_blocks(system, embedding)
    x = _ordered_solve(system, blocks, embedding.offsets, rhs, "embedded Trefftz solve")
    coeffs = embedding.prolongation @ x + embedding.u_L
    return _solution(system, coeffs, EMBEDDED_TREFFTZ, ndof_trefftz=embedding.ndof_trefftz)


def solve_block_coupled(system, embedding):
    """Solve the coupled 2x2 local/global block system by static
    condensation.

    The unknowns are split per element into a complement-space part ``c_L``
    (spanned by ``L = Q_1``, the leading columns of the orthogonal factor
    of ``A_K'``, which span the row space of the local operator) and the
    Trefftz part ``c_T`` (spanned by the kernels ``T``); the solution does
    not depend on which basis of the complement is taken. The rows are the
    local problems ``A L c_L + A T c_T = l`` and the global ones ``T'A L c_L
    + T'A T c_T = T'g``. By the weak-coupling property of the kernels the
    result matches the embedded solve, which the diagnostics verify
    numerically.
    ``embedding`` comes from :func:`build_embedding`, which keeps the local
    operators it factored and their factors; the local rows are read from
    those stacks.

    The local rows are block diagonal, so the complement unknowns are
    eliminated element by element (static condensation; Guyan, AIAA J. 3,
    1965): one batched dense solve gives ``X = (AL)^-1 [AT | l]``, so that
    ``c_L = x_l - X_T c_T``. The Schur complement ``S = T'AT - T'AL X_T``
    has the block pattern of ``T'AT`` and is the only matrix factored; it
    is solved with the right-hand side ``T'(g - A L x_l)``. The residual of
    the whole 2x2 system, local and global rows, is then checked against
    the residual contract.
    """
    _check_embedding(system, embedding)
    factors = embedding.factors
    if factors is None:
        raise ValueError("the block solve needs the local factors build_embedding keeps")
    A, load = embedding.local_operators.matrices, embedding.local_operators.rhs
    n_elements, n_rows, n = A.shape
    deficient = np.flatnonzero(factors.rank != n_rows)
    if deficient.size:
        k = deficient[0]
        raise SolverError(
            f"element {k}: local operator is rank deficient "
            f"({factors.rank[k]} < {n_rows} rows); block system would be singular"
        )
    # every element keeps all rows, so every kernel has the full width w
    L, T = factors.Q[:, :, :n_rows], embedding.kernels
    w = T.shape[2]
    AL, AT = A @ L, A @ T
    X = np.linalg.solve(AL, np.concatenate([AT, load[..., None]], axis=2))
    X_T, x_l = X[..., :w], X[..., w]
    blocks = system.blocks
    # [T'AT | T'AL], formed as in the reduced system
    coupling = _pair_blocks(system, T, np.concatenate([T, L], axis=2))
    schur = coupling[..., :w] - coupling[..., w:] @ X_T[blocks.indices]
    Tt = np.swapaxes(T, 1, 2)
    g = system.load.reshape(n_elements, n, 1)
    rhs = Tt @ (g - (blocks @ (L @ x_l[..., None]).ravel()).reshape(g.shape))
    c_t = _ordered_solve(system, schur, embedding.offsets, rhs.ravel(), "coupled block solve")
    c_T = c_t.reshape(n_elements, w, 1)
    c_L = x_l[..., None] - X_T @ c_T
    # residual of the 2x2 system: local rows per element, global rows
    # through the coupling blocks
    local = (AL @ c_L + AT @ c_T)[..., 0] - load
    tg = (Tt @ g).ravel()
    coupled = sparse.bsr_matrix(
        (coupling, blocks.indices, blocks.indptr), shape=(len(tg), n_elements * n)
    )
    glob = coupled @ np.concatenate([c_T, c_L], axis=1).ravel() - tg
    r_local, r_global = np.linalg.norm(local), np.linalg.norm(glob)
    denom = max(float(np.hypot(np.linalg.norm(load), np.linalg.norm(tg))), np.finfo(float).tiny)
    if not np.hypot(r_local, r_global) <= _RESIDUAL_TOL * denom:
        raise SolverError(
            f"coupled block solve: relative residual {np.hypot(r_local, r_global) / denom:.3e} "
            f"of the 2x2 system exceeds {_RESIDUAL_TOL:.0e} (local rows {r_local:.3e}, "
            f"global rows {r_global:.3e})"
        )
    u_l, u_t = (L @ c_L).ravel(), (T @ c_T).ravel()
    return _solution(
        system, u_l + u_t, BLOCK_COUPLED, ndof_trefftz=embedding.ndof_trefftz,
        block_parts={"u_L": u_l, "u_T": u_t, "c_L": c_L.ravel(), "c_T": c_t},
    )
