"""Direct solvers for the standard DG system, the decoupled
embedded-Trefftz reduced system, and the generic coupled block system.

All variants return coefficient vectors over the full broken basis, so
error computation downstream is method-agnostic. Sparse LU in the mesh's
nested-dissection element order, with one step of iterative refinement
and a pivoting LU as the fallback, enforces the residual contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .embedding import MINNORM_IMAGE, SVD_COMPLEMENT  # noqa: F401  (re-exported)

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


def _direct_solve(matrix, rhs, label, perm):
    """Solve ``matrix x = rhs`` by sparse LU under the residual contract.

    The unknowns are reordered by ``perm`` and factored without pivoting,
    which keeps the fill of the ordering. If that factorization fails, or
    its solution misses the residual contract after one refinement step,
    the solve is repeated with the default COLAMD ordering and partial
    pivoting; a matrix that fails both raises :class:`SolverError`.
    """
    csc = sparse.csc_matrix(matrix)
    try:
        return _lu_solve(csc, rhs, label, perm)
    except SolverError:
        return _lu_solve(csc, rhs, label, None)


def _lu_solve(csc, rhs, label, perm):
    """One factorization, solve and refinement step; ``perm`` None keeps
    SuperLU's default ordering and pivoting."""
    try:
        if perm is None:
            solve = splu(csc).solve
        else:
            lu = splu(csc[perm][:, perm], permc_spec="NATURAL", diag_pivot_thresh=0.0)

            def solve(b):
                x = np.empty_like(b)
                x[perm] = lu.solve(b[perm])
                return x

        x = solve(rhs)
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
    denom = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    residual = np.linalg.norm(csc @ x - rhs)
    if residual > _RESIDUAL_TOL * denom:
        x = x + solve(rhs - csc @ x)
        residual = np.linalg.norm(csc @ x - rhs)
    if not residual <= _RESIDUAL_TOL * denom:
        raise SolverError(
            f"{label}: relative residual {residual / denom:.3e} exceeds "
            f"{_RESIDUAL_TOL:.0e}; matrix likely ill-conditioned or singular"
        )
    return x


def _block_permutation(order, *bounds):
    """Unknowns in element ``order``: for each element ``k`` the ranges
    ``b[k]:b[k + 1]`` of every boundary array ``b`` in ``bounds``, in turn."""
    starts = np.stack([b[:-1][order] for b in bounds], axis=1).ravel()
    sizes = np.stack([np.diff(b)[order] for b in bounds], axis=1).ravel()
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def solve_standard_dg(system):
    """Solve the full DG system directly."""
    space = system.space
    perm = _block_permutation(
        space.mesh.element_order, np.append(space.offsets, space.ndof_total)
    )
    x = _direct_solve(system.matrix, system.load, "standard DG solve", perm)
    return DiscreteSolution(
        coeffs=x,
        space=system.space,
        method=STANDARD_DG,
        ndof_full=system.space.ndof_total,
        sigma=system.sigma,
        alpha_facet=system.alpha_facet,
    )


def solve_embedded_trefftz(system, embedding):
    """Solve the reduced Galerkin problem on the embedded Trefftz space.

    Returns ``u = T u_T + u_L``; the element-local rows hold exactly by
    construction of the particular solution and the kernel, the global
    rows to solver tolerance.
    """
    T = embedding.prolongation
    if T.shape[0] != system.space.ndof_total:
        raise ValueError("embedding and system dimensions do not match")
    reduced = (T.T @ system.matrix @ T).tocsc()
    rhs = T.T @ (system.load - system.matrix @ embedding.u_L)
    perm = _block_permutation(system.space.mesh.element_order, embedding.offsets)
    x = _direct_solve(reduced, rhs, "embedded Trefftz solve", perm)
    return DiscreteSolution(
        coeffs=T @ x + embedding.u_L,
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
    L = factors.complement(complement_rule)
    # global complement prolongation and the local rows applied to the
    # complement and Trefftz columns (block diagonal)
    L_global = sparse.block_diag(L, format="csr")
    A11 = sparse.block_diag(A @ L, format="csr")
    A12 = sparse.block_diag(A @ factors.kernels, format="csr")
    k_total = L_global.shape[1]
    T_global = embedding.prolongation
    A21 = (T_global.T @ system.matrix @ L_global).tocsr()
    A22 = (T_global.T @ system.matrix @ T_global).tocsr()
    block = sparse.bmat([[A11, A12], [A21, A22]], format="csc")
    rhs = np.concatenate([op.rhs for op in local_ops] + [T_global.T @ system.load])
    # per element: its complement unknowns, then its Trefftz unknowns
    perm = _block_permutation(
        mesh.element_order, n_rows * np.arange(mesh.n_elements + 1), k_total + embedding.offsets
    )
    x = _direct_solve(block, rhs, "coupled block solve", perm)
    c_l, c_t = x[:k_total], x[k_total:]
    u_l = L_global @ c_l
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
