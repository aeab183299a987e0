"""Direct solvers for the standard DG system, the decoupled
embedded-Trefftz reduced system, and the generic coupled block system.

All variants return coefficient vectors over the full broken basis, so
error computation downstream is method-agnostic. The Trefftz systems are
assembled in the Trefftz basis, by the facet pass of the volume terms in
the basis ``[T | u_L]`` (:func:`_trefftz_blocks`), on the block layout of
the DG operator but never from its blocks; a DG system handed in is
assembled again from its data. Their unknowns keep the layout of the
embedding's padded kernel stack, ``w`` per element: ``T x`` is a
per-element product (:func:`_stack_product`), and the padding of narrower
kernels gets a unit diagonal in :func:`_ordered_solve` before either solve
path sees the blocks. One graph pass picks the path of every solve: the
level schedule of the element-pair graph (:func:`_levels`). When it
covers every element, as for upwind DG on a flow without cycles, the
system is block lower triangular in level order and is solved by a block
forward sweep (:func:`_sweep`) that gathers one level's blocks at a time,
with batched dense solves and no LU. A graph with a cycle (SIP, a closed flow) is factored by SuperLU in the mesh's
nested-dissection order; an acyclic one whose sweep misses the residual
contract is factored in level order, without fill. The coupled system
takes its local rows, and its complement basis ``Q_1``, from the
operators and factors that :func:`~trefftzdg.embedding.build_embedding`
keeps on the embedding and eliminates its complement unknowns element by
element with dense batched solves (static condensation). It solves the
reduced system first, from the same facet pass, whose trial basis it
widens by ``Q_1``, and then the Schur complement on the Trefftz unknowns,
which has the size and the block pattern of the reduced system; where that is not swept, it is
refined against the factorization of ``T'AT`` that the first solve made,
which it equals up to rounding, and factored itself only as the
fallback. A matrix
that reaches the LU is built once, already in solve order:
:func:`block_matrix` permutes the element-pair blocks as whole blocks and
converts them in one pass to the CSC matrix with sorted indices that the
LU factors. The sweep checks the residual contract on the whole system;
for the LU, iterative refinement and a pivoting LU as the fallback
enforce it. The coupled solve also checks it on its whole 2x2 system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .dg_forms import assemble_in_basis, volume_terms
from .embedding import block_matrix
from .mesh import occurrences

STANDARD_DG = "STANDARD_DG"
EMBEDDED_TREFFTZ = "EMBEDDED_TREFFTZ"
BLOCK_COUPLED = "BLOCK_COUPLED"

_RESIDUAL_TOL = 1e-10
#: refinement steps against the factorization of a nearby matrix (the
#: coupled solve's Schur complement against ``T'AT``) before the matrix
#: itself is factored
_NEARBY_STEPS = 3


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


def _direct_solve(ordered, rhs, label, perm, nearby=None):
    """Solve ``A x = rhs`` by sparse LU under the residual contract, given
    ``ordered = A[perm][:, perm]`` as :func:`block_matrix` builds it: CSC
    with sorted indices, the unknowns already in solve order. Returns the
    solution and the factorization it was solved with.

    Given ``nearby``, the factorization of a matrix near ``A`` in this
    order, the solve refines against it for at most :data:`_NEARBY_STEPS`
    steps first. Otherwise, or if that misses the residual contract, the
    ordered matrix is factored without pivoting, which keeps the fill of
    the ordering. If that factorization fails, or its solution misses the
    residual contract after the refinement step, the solve is repeated on
    the same matrix with the default COLAMD ordering and partial pivoting;
    a matrix that fails both raises :class:`SolverError`.
    """
    b = rhs[perm]
    y = None
    if nearby is not None:
        try:
            y, lu = _refined(nearby, ordered, b, label, _NEARBY_STEPS), nearby
        except SolverError:
            pass  # the matrix itself is factored below
    if y is None:
        try:
            y, lu = _lu_solve(ordered, b, label, pivot=False)
        except SolverError:
            y, lu = _lu_solve(ordered, b, label, pivot=True)
    x = np.empty_like(y)
    x[perm] = y
    return x, lu


def _lu_solve(csc, rhs, label, pivot):
    """One factorization, solve and refinement step; returns the solution
    and the factorization. The sparse LU of ``csc`` is taken in its own
    order without pivoting, or with ``pivot`` in SuperLU's default ordering
    with partial pivoting."""
    try:
        if pivot:
            lu = splu(csc)
        else:
            lu = splu(csc, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except (RuntimeError, ValueError) as exc:
        raise SolverError(
            f"{label}: sparse LU factorization failed ({exc}); "
            f"shape {csc.shape}, nnz {csc.nnz}"
        ) from exc
    return _refined(lu, csc, rhs, label, 1), lu


def _refined(lu, csc, rhs, label, steps):
    """Solve ``csc x = rhs`` with ``lu``, the factorization of ``csc`` or
    of a matrix ``F`` near it in the same order, then refine: at most
    ``steps`` steps ``x <- x + F^-1 (rhs - csc x)``, up to the first that
    meets the residual contract, or :class:`SolverError`.

    The refinement residual is accumulated in ``np.longdouble``, which
    takes the error of the refined solution well below the
    ``cond(A) * eps`` of the first solve. Against a nearby ``F`` each step
    contracts the error by ``||F^-1 (csc - F)||`` (Moler, J. ACM 14,
    1967)."""
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError(
            f"{label}: non-finite solution entries, matrix is numerically singular "
            f"(shape {csc.shape})"
        )
    wide = sparse.csc_matrix((csc.data.astype(np.longdouble), csc.indices, csc.indptr), csc.shape)
    denom = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    for _ in range(steps):
        x = x + lu.solve((rhs - wide @ x).astype(float))
        residual = np.linalg.norm(csc @ x - rhs)
        if residual <= _RESIDUAL_TOL * denom:
            return x
    raise SolverError(
        f"{label}: relative residual {residual / denom:.3e} exceeds "
        f"{_RESIDUAL_TOL:.0e}; matrix likely ill-conditioned or singular"
    )


def _block_permutation(order, width):
    """Unknowns in element ``order``, ``width`` consecutive ones per
    element."""
    return (np.asarray(order)[:, None] * width + np.arange(width)).ravel()


def _table(keys, values, n, fill):
    """``(n, m)`` table whose row ``k`` lists the ``values`` of key ``k`` in
    their given order, padded with ``fill``; ``m`` is the largest count."""
    slot = occurrences(keys)
    table = np.full((n, slot.max(initial=-1) + 1), fill)
    table[keys, slot] = values
    return table


def _levels(up, down, n):
    """Elements in level order and the start of every level, for the
    graph on elements ``0..n-1`` with an arc ``up[i] -> down[i]`` for each
    off-diagonal block (``down`` depends on ``up``): an element's level is
    the length of its longest upwind path, so every level depends only on
    the levels before it (level scheduling; Anderson and Saad 1989).

    Each level is the set of elements whose upwind elements are all
    scheduled (Kahn 1962): one vectorised pass per level, through the
    table of the downstream elements of every element padded with ``n``.
    An element on a cycle, or downstream of one, is never scheduled, so
    the order lists all ``n`` elements exactly when the graph is acyclic;
    it is empty when every element has an upwind one, as on SIP graphs."""
    downstream = _table(up, down, n, n)
    # upwind elements not yet scheduled; the padding entry never reaches 0
    waiting = np.append(np.bincount(down, minlength=n), -1)
    level = np.flatnonzero(waiting == 0)
    levels = []
    while level.size:
        levels.append(level)
        waiting[level] = -1
        waiting -= np.bincount(downstream[level].ravel(), minlength=n + 1)
        level = np.flatnonzero(waiting == 0)
    # the last, empty level keeps the order defined when none is scheduled
    return np.concatenate(levels + [level]), np.cumsum([0] + [len(level) for level in levels])


def _sweep(indices, indptr, blocks, rhs, rows, diagonal, levels):
    """Solve the block lower triangular system of the element-pair
    ``blocks`` in BSR layout (block ``i`` in block row ``rows[i]``, a
    diagonal block where ``diagonal[i]``) by block forward substitution,
    one level of the ``levels`` of :func:`_levels` at a time, or return
    ``None`` so that the caller factors it.

    Each level gathers its own blocks from the layout, so the sweep holds
    one level's blocks at a time: it subtracts its upwind blocks times the
    known unknowns, one batched product through a fixed table of as many
    blocks as an element has upwind neighbours at most, and solves its
    diagonal blocks in one batched ``np.linalg.solve`` with ``(k, w, 1)``
    right-hand sides. A missing or singular diagonal block, or a solution
    that misses the residual contract on the whole system, returns ``None``.
    """
    n, width = len(indptr) - 1, blocks.shape[1]
    off = np.flatnonzero(~diagonal)
    order, starts = levels
    rank = np.empty(n + 1, dtype=np.intp)
    rank[order], rank[n] = np.arange(n), n
    # in level order: the slot of each element's diagonal block, those of
    # its upwind blocks B_kl and the rows of the unknowns x_l they multiply;
    # a missing upwind slot takes block 0 times the zero row n of x
    own = _table(rows[diagonal], np.flatnonzero(diagonal), n, -1)[order]
    if own.shape[1] != 1 or np.any(own < 0):
        return None
    slots = _table(rows[off], off, n, 0)[order]
    source = rank[_table(rows[off], indices[off], n, n)[order]]
    b, x = rhs.reshape(n, width), np.zeros((n + 1, width))
    # a non-finite block or solution fails the residual check
    with np.errstate(all="ignore"):
        try:
            for start, end in zip(starts[:-1], starts[1:]):
                upwind = np.swapaxes(blocks, 1, 2)[slots[start:end]].reshape(end - start, -1, width)
                known = (x[source[start:end]].reshape(end - start, 1, -1) @ upwind)[:, 0, :, None]
                rest = b[order[start:end], :, None] - known
                x[start:end] = np.linalg.solve(blocks[own[start:end, 0]], rest)[..., 0]
        except np.linalg.LinAlgError:
            return None
        x = x[rank[:n]].ravel()
        matrix = sparse.bsr_matrix((blocks, indices, indptr), shape=(n * width, n * width))
        residual = np.linalg.norm(matrix @ x - rhs)
    if not residual <= _RESIDUAL_TOL * max(float(np.linalg.norm(rhs)), np.finfo(float).tiny):
        return None
    return x


class _Schedule:
    """The level schedule (:func:`_levels`) of the block pattern of
    ``system``: the ``rows`` of its blocks, which are ``diagonal``, the
    ``levels``, whether they cover every element (``acyclic``), and the
    element ``order`` of the LU, the level order on an acyclic graph and
    the nested-dissection :attr:`Mesh2D.element_order` on one with a
    cycle. Every solve reads it through :func:`_schedule`."""

    def __init__(self, system):
        A = system.layout
        n = len(A.indptr) - 1
        self.rows = np.repeat(np.arange(n), np.diff(A.indptr))
        self.diagonal = A.indices == self.rows
        self.levels = _levels(A.indices[~self.diagonal], self.rows[~self.diagonal], n)
        self.acyclic = len(self.levels[0]) == n
        self.order = self.levels[0] if self.acyclic else system.space.mesh.element_order


def _schedule(system):
    """The :class:`_Schedule` of ``system`` (a DG system or the volume
    terms of one), formed by the first solve on its block layout and kept
    on the layout for every later one: the DG system of a volume pass and
    the Trefftz systems assembled from it share the layout and with it the
    schedule."""
    if system.layout.schedule is None:
        system.layout.schedule = _Schedule(system)
    return system.layout.schedule


def _ordered_solve(system, blocks, rhs, label, widths=None, nearby=None):
    """Solve the matrix of the element-pair ``blocks`` ``(B, w, w)`` on the
    block layout of ``system`` (a DG system or volume terms), ``w``
    unknowns per element.

    An element of ``widths[k] < w`` has only its last ``widths[k]``
    unknowns, as a narrower kernel in the padded stack has: its leading
    rows and columns are zero in every block and its leading right-hand
    side entries are zero. They get a unit diagonal here, before either
    path below sees the blocks, so they solve to zero.

    The level schedule of the element graph (:func:`_schedule`) picks the
    path. When it covers every element, the graph is acyclic and the
    system is block lower triangular in level order, so :func:`_sweep`
    solves it without a factorization; if the sweep returns ``None``, the
    LU runs in that same order and has no fill. Otherwise the graph has a
    cycle, and the LU runs in the nested-dissection
    :attr:`Mesh2D.element_order`. ``nearby`` passes on to
    :func:`_direct_solve`. Returns the solution and the factorization it
    was solved with, None where the system was swept."""
    A, width = system.layout, blocks.shape[1]
    schedule = _schedule(system)
    rows, diagonal = schedule.rows, schedule.diagonal
    if widths is not None and np.any(widths < width):
        pad = np.arange(width) < width - widths[:, None]
        unit = diagonal[:, None, None] & np.eye(width, dtype=bool) & pad[rows][:, None, :]
        blocks = np.where(unit, 1.0, blocks)
    if schedule.acyclic:
        x = _sweep(A.indices, A.indptr, blocks, rhs, rows, diagonal, schedule.levels)
        if x is not None:
            return x, None
    ordered = block_matrix(blocks, A.indices, A.indptr, schedule.order)
    perm = _block_permutation(schedule.order, width)
    return _direct_solve(ordered, rhs, label, perm, nearby)


def _solution(system, coeffs, method, **fields):
    """The solution ``coeffs`` of ``system`` by ``method``, with the
    system's space and the penalty data the error norms reuse."""
    return DiscreteSolution(
        coeffs=coeffs, space=system.space, method=method, ndof_full=system.space.ndof_total,
        sigma=system.sigma, alpha_facet=system.alpha_facet, **fields,
    )


def solve_standard_dg(system):
    """Solve the full DG system directly."""
    x, _ = _ordered_solve(system, system.blocks.data, system.load, "standard DG solve")
    return _solution(system, x, STANDARD_DG)


def _stack_product(blocks, v):
    """The products ``blocks_K v_K`` of a stack ``blocks`` ``(E, a, b)``
    and a vector ``v`` of ``E b`` entries, each summed term by term in
    order from zero, as the sparse product of the block-diagonal matrix
    sums them; ``matmul`` reassociates the sum, which moves the
    ``DAR_EXAMPLE`` ``p = 6`` errors in their fifth digit."""
    v = v.reshape(len(blocks), -1)
    y = np.zeros(blocks.shape[:2])
    for k in range(blocks.shape[2]):
        y += blocks[:, :, k] * v[:, k, None]
    return y.ravel()


def _check_embedding(system, embedding):
    """Reject an embedding built on another mesh or degree than ``system``."""
    space, mesh = system.space, embedding.mesh
    if embedding.kernels.shape[1] != space.ndof_local:
        raise ValueError(
            "embedding and system dimensions do not match: kernels of "
            f"{embedding.kernels.shape[1]} local unknowns, system {space.ndof_local}"
        )
    for name in ("triangles", "vertices"):
        if not np.array_equal(getattr(mesh, name), getattr(space.mesh, name)):
            raise ValueError(
                f"embedding and system meshes do not match: their {name} differ "
                f"({mesh.n_elements} and {space.mesh.n_elements} elements)"
            )


def _trefftz_blocks(terms, embedding, complement=None):
    """The embedded Trefftz system of the volume ``terms`` on the layout of
    their DG operator, from one facet pass in the trial basis ``[T | u_L |
    complement]`` (:func:`~trefftzdg.dg_forms.assemble_in_basis`), tested
    against the kernels ``T``. Returns the blocks ``T_K' A_KL [T_L |
    complement_L]``, the restricted load ``T'l`` and the right-hand side
    ``T'(l - A u_L)``, whose ``T'A u_L`` is the ``u_L`` column summed over
    each block row. The columns of ``[T | u_L]`` come out of the same
    operations with or without a complement."""
    T = embedding.kernels
    w = T.shape[2]
    own = np.concatenate([T, embedding.u_L.reshape(len(T), -1, 1)], axis=2)
    data, load = assemble_in_basis(terms, [own] if complement is None else [own, complement], w)
    applied = np.add.reduceat(data[:, :, w], terms.layout.indptr[:-1])
    return np.delete(data, w, axis=2), load, load - applied.ravel()


def solve_embedded_trefftz(system, embedding):
    """Solve the reduced Galerkin problem on the embedded Trefftz space.

    Returns ``u = T u_T + u_L``; the element-local rows hold exactly by
    construction of the particular solution and the kernel, the global
    rows to solver tolerance. ``system`` is the volume pass the system is
    assembled from (:func:`~trefftzdg.dg_forms.assemble_volume_terms`), or
    a DG system, from whose data it is assembled again.
    """
    _check_embedding(system, embedding)
    terms = volume_terms(system)
    blocks, _, rhs = _trefftz_blocks(terms, embedding)
    x, _ = _ordered_solve(
        terms, blocks, rhs, "embedded Trefftz solve", np.diff(embedding.offsets)
    )
    coeffs = _stack_product(embedding.kernels, x) + embedding.u_L
    return _solution(system, coeffs, EMBEDDED_TREFFTZ, ndof_trefftz=embedding.ndof_trefftz)


def solve_block_coupled(system, embedding):
    """Solve the coupled 2x2 local/global block system by static
    condensation, and the embedded Trefftz system it reduces to.

    The unknowns are split per element into a complement-space part ``c_L``
    (spanned by ``L = Q_1``, the leading columns of the orthogonal factor
    of ``A_K'``, which span the row space of the local operator) and the
    Trefftz part ``c_T`` (spanned by the kernels ``T``); the solution does
    not depend on which basis of the complement is taken. The rows are the
    local problems ``A L c_L + A T c_T = l`` and the global ones ``T'A L c_L
    + T'A T c_T = T'g``. By the weak-coupling property of the kernels the
    result matches the embedded solve, which the diagnostics verify
    numerically: ``block_parts["u_E"]`` is the embedded solution, equal to
    that of :func:`solve_embedded_trefftz` bit for bit.
    ``embedding`` comes from :func:`build_embedding`, which keeps the local
    operators it factored and their factors; the local rows are read from
    those stacks.

    One facet pass in the trial basis ``[T | u_L | L]`` forms the blocks of
    ``T'A [T | L]`` and ``T'(l - A u_L)``; its ``T'AT`` part is solved
    first, as by :func:`solve_embedded_trefftz`, whose pass forms the
    columns of ``[T | u_L]`` by the same operations. The local rows are
    block diagonal, so the complement unknowns are eliminated element by
    element (static condensation; Guyan, AIAA J. 3, 1965): one batched
    dense solve gives ``X = (AL)^-1 [AT | l]``, so that ``c_L = x_l - X_T
    c_T``. The Schur complement ``S = T'AT - T'AL X_T`` has the block
    pattern of ``T'AT`` and is solved with the right-hand side ``T'g -
    T'AL x_l``. On an acyclic graph it is swept like any system. Otherwise
    it is refined against the factorization the embedded solve made, in the
    same order: ``A_K T_K = 0`` makes ``T'AL X_T`` rounding, so a step or
    two meet the residual contract, and ``S`` is factored only when they
    do not. The residual of the whole 2x2 system, local and global rows,
    is then checked against the residual contract.
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
    # every element keeps all rows, so every kernel has the full width w;
    # L = Q_1, the leading columns of the orthogonal factors of A_K'
    L, T = factors.Q[:, :, :n_rows], embedding.kernels
    w = T.shape[2]
    terms = volume_terms(system)
    coupling, tg, reduced_rhs = _trefftz_blocks(terms, embedding, L)
    x, lu = _ordered_solve(
        terms, coupling[..., :w], reduced_rhs, "embedded Trefftz solve", np.diff(embedding.offsets)
    )
    u_E = _stack_product(T, x) + embedding.u_L
    AL, AT = A @ L, A @ T
    X = np.linalg.solve(AL, np.concatenate([AT, load[..., None]], axis=2))
    X_T, x_l = X[..., :w], X[..., w]
    layout = terms.layout
    schur = coupling[..., :w] - coupling[..., w:] @ X_T[layout.indices]
    shape = (n_elements * w, n_elements * n_rows)
    complement = sparse.bsr_matrix((coupling[..., w:], layout.indices, layout.indptr), shape=shape)
    rhs = tg - complement @ x_l.ravel()
    c_t, _ = _ordered_solve(terms, schur, rhs, "coupled block solve", nearby=lu)
    c_T = c_t.reshape(n_elements, w, 1)
    c_L = x_l[..., None] - X_T @ c_T
    # residual of the 2x2 system: local rows per element, global rows
    # through the coupling blocks
    local = (AL @ c_L + AT @ c_T)[..., 0] - load
    coupled = sparse.bsr_matrix(
        (coupling, layout.indices, layout.indptr), shape=(len(tg), n_elements * n)
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
        block_parts={"u_L": u_l, "u_T": u_t, "c_L": c_L.ravel(), "c_T": c_t, "u_E": u_E},
    )
