"""Error norms, convergence-order estimation, and framework diagnostics.

The data picks the error norm as it picks the DG form: the upwind norm of
advection-reaction without diffusion, the interior-penalty norm, with the
penalty of the solved system, with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BATCH_POINTS, batches
from .coefficients import require_finite, require_positive
from .dg_forms import _beta_normal, assemble_global_system, facet_alpha
from .embedding import GlobalEmbedding, build_embedding
from .local_ops import operator_row_count
from .solver import TrefftzBlocks, solve_block_coupled, solve_embedded_trefftz

@dataclass
class ErrorReport:
    l2_error: float
    vh_error: float
    h: float
    p: int
    method: str
    ndof_full: int
    ndof_trefftz: int = None


@dataclass
class EocEstimate:
    """Per-step convergence slopes and the least-squares fit."""

    steps: list
    least_squares: float


@dataclass
class DiagnosticsReport:
    """Computable witnesses of the framework assumptions.

    ``rho_max`` measures the coupling of the kernel blocks (zero by
    construction), ``sigma_min_rel`` the relative size of the smallest used
    singular value (local stability), ``block_equivalence_gap`` the norm
    distance between the embedded and the coupled block solution (NaN when
    an element keeps fewer than all its operator rows).
    ``embedding`` is the global embedding the witnesses were computed on.
    """

    rho_max: float
    sigma_min_rel: float
    dim_table: dict
    block_equivalence_gap: float
    block_equivalence_gap_rel: float
    p: int
    kind: str
    n_elements: int
    embedding: GlobalEmbedding = field(default=None, repr=False)


def _facet_error_jumps(solution, coeffs):
    """Facet batches ``(facets, points, weights, jump**2)`` of the squared
    error jumps: the interior facets, then the boundary ones, in batches of
    at most :data:`~trefftzdg.basis.BATCH_POINTS` points.

    On interior facets the jump of the error reduces to the (negated) jump
    of u_h; on boundary facets the single-valued exact trace stays, giving
    the deviation of u_h from the Dirichlet data. The traces of u_h come
    from the space's facet tables (:meth:`BrokenSpace.facet_traces`).
    Every norm sums ``weight(x, b_n) * jump**2`` over these batches.
    """
    space = solution.space
    mesh = space.mesh
    local = solution.coeffs.reshape(mesh.n_elements, -1)
    fpts, fw = space.facet_rule
    size = max(1, BATCH_POINTS // fw.shape[1])
    for group, interior in ((mesh.interior_facets, True), (mesh.boundary_facets, False)):
        for chunk in batches(len(group), size):
            facets = group[chunk]
            pts = fpts[facets]
            tr = space.facet_traces(facets, 0, local)
            if interior:
                # exact solution cancels across the facet
                jump = space.facet_traces(facets, 1, local) - tr
            else:
                exact_vals = coeffs.exact_solution(pts[..., 0], pts[..., 1])
                jump = require_finite(exact_vals, "exact solution", "facet", facets) - tr
            yield facets, pts, fw[facets], jump**2


def compute_errors(solution, coeffs):
    """L2 error and the mesh-dependent norm of ``u_ex - u_h``: the upwind
    norm when ``coeffs`` has no diffusion, otherwise the interior-penalty
    norm with the penalty ``solution.sigma`` of the solved system.

    Both norms are sums over the volume and the facet quadrature points,
    formed batch by batch (:meth:`BrokenSpace.element_batches`, and facet
    batches of as many points), so their temporaries do not grow with the
    mesh. The upwind norm weighs its streamline and facet terms by
    ``1 / sup |beta|``; both vanish where ``beta = 0``, so with zero
    advection it is the L2 norm."""
    if coeffs.exact_solution is None:
        raise ValueError("error computation requires an exact solution")
    if coeffs.alpha is None and coeffs.beta is None:
        raise ValueError("the upwind error norm without diffusion alpha requires beta")
    if coeffs.alpha is not None and solution.sigma is None:
        raise ValueError("the interior-penalty error norm requires the penalty sigma of the solution")
    space = solution.space
    mesh = space.mesh
    exact = coeffs.exact_solution
    exact_grad = coeffs.exact_gradient()
    upwind = coeffs.alpha is None
    # upwind: sum h (beta . grad e)^2; interior penalty: sum alpha |grad e|^2
    l2_sq = weighted_sq = 0.0
    beta_sup, stab_min = 0.0, math.inf
    for batch in space.element_batches():
        elems = np.arange(batch.start, batch.stop)
        vals, grads = solution.element_values(batch, gradients=True)
        x, y = space.volume_points[batch, :, 0], space.volume_points[batch, :, 1]
        w = space.volume_weights[batch]
        err = require_finite(exact(x, y), "exact solution", "element", elems) - vals
        err_grad = require_finite(exact_grad(x, y), "exact gradient", "element", elems) - grads
        l2_sq += np.sum(w * err**2)
        if upwind:
            beta_vals = require_finite(coeffs.beta(x, y), "beta", "element", elems)
            beta_sup = max(beta_sup, float(np.max(np.linalg.norm(beta_vals, axis=-1))))
            directional = np.einsum("eqd,eqd->eq", beta_vals, err_grad)
            weighted_sq += np.sum(mesh.h[batch, None] * w * directional**2)
            continue
        alpha_vals = require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
        weighted_sq += np.sum(w * alpha_vals * np.einsum("eqd,eqd->eq", err_grad, err_grad))
        if coeffs.gamma is not None:
            stab = require_finite(coeffs.gamma(x, y), "gamma", "element", elems)
            if coeffs.beta is not None:
                div_beta = coeffs.beta.divergence()(x, y)
                stab = stab - 0.5 * require_finite(div_beta, "div beta", "element", elems)
            stab_min = min(stab_min, float(np.min(stab)))

    if upwind:
        vh_sq = l2_sq + (weighted_sq / beta_sup**2 if beta_sup > 0.0 else 0.0)

        def facet_weight(facets, pts):
            return np.abs(_beta_normal(coeffs, pts, mesh, facets)) / beta_sup

    else:
        gamma0 = max(0.0, stab_min) if coeffs.gamma is not None else 0.0
        vh_sq = weighted_sq + gamma0 * l2_sq
        af = solution.alpha_facet
        if af is None:
            af = facet_alpha(space, coeffs)

        def facet_weight(facets, pts):
            # penalty weight, plus the upwind weight where there is advection
            weight = (solution.sigma * af[facets] / mesh.facet_lengths[facets])[:, None]
            if coeffs.beta is not None:
                weight = weight + 0.5 * np.abs(_beta_normal(coeffs, pts, mesh, facets))
            return weight

    # with beta = 0 the upwind facet terms vanish too
    if not upwind or beta_sup > 0.0:
        for facets, pts, fw, jump_sq in _facet_error_jumps(solution, coeffs):
            vh_sq += np.sum(fw * facet_weight(facets, pts) * jump_sq)

    return ErrorReport(
        l2_error=math.sqrt(l2_sq),
        vh_error=math.sqrt(vh_sq),
        h=float(mesh.h.max()),
        p=space.degree,
        method=solution.method,
        ndof_full=solution.ndof_full,
        ndof_trefftz=solution.ndof_trefftz,
    )


def estimate_eoc(pairs):
    """Convergence slopes from (h, error) pairs.

    Returns the per-step slopes ``log(e_i/e_{i+1}) / log(h_i/h_{i+1})``
    and the least-squares slope of log(error) against log(h).
    """
    pairs = [(float(h), float(e)) for h, e in pairs]
    if len(pairs) < 2:
        raise ValueError("at least two (h, error) points are required")
    hs = np.array([p[0] for p in pairs])
    es = np.array([p[1] for p in pairs])
    if np.any(np.diff(hs) >= 0):
        raise ValueError("mesh sizes must be strictly decreasing")
    if np.any(es <= 0):
        raise ValueError("errors must be positive")
    steps = [
        math.log(es[i] / es[i + 1]) / math.log(hs[i] / hs[i + 1])
        for i in range(len(pairs) - 1)
    ]
    least_squares = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
    return EocEstimate(steps=steps, least_squares=least_squares)


def run_diagnostics(space, kind, coeffs, sigma=None, box_scale=0.25):
    """Numerical witnesses for the decoupling and local-stability
    assumptions on the broken ``space``, plus the embedded/block
    equivalence gap. The gap is computed when every element keeps all its
    operator rows, as the coupled block solve needs; otherwise it is NaN.

    The two solves share one :class:`~trefftzdg.solver.TrefftzBlocks`:
    the product ``T'A [T | L]``, the level schedule and at most one LU,
    that of ``T'AT``, which the embedded solve makes and against which the
    coupled solve refines its Schur system; ``S`` is factored only as the
    fallback. The factorization is dropped before this returns."""
    p = space.degree
    embedding = build_embedding(space, coeffs, kind, box_scale=box_scale)
    factors = embedding.factors
    A = embedding.local_operators.matrices
    a_norm = np.linalg.norm(A, axis=(1, 2))
    rho = np.linalg.norm(A @ factors.kernels, axis=(1, 2)) / (1.0 + a_norm)
    # a kept singular value is positive, so sigma_1 > 0 wherever rank > 0
    rank, spectra = factors.rank[factors.rank > 0], factors.sigma[factors.rank > 0]
    smallest_kept = np.take_along_axis(spectra, rank[:, None] - 1, axis=1)[:, 0]
    sigma_min_rel = float(np.min(smallest_kept / spectra[:, 0])) if rank.size else float("nan")
    n_local = space.ndof_local
    dim_q = operator_row_count(kind, p)
    dim_table = {p: (n_local, n_local - dim_q, dim_q)}
    nt_values = np.unique(n_local - factors.rank).tolist()
    if nt_values != [n_local - dim_q]:
        dim_table[p] = (n_local, nt_values, dim_q)

    gap = gap_rel = float("nan")
    if np.all(factors.rank == A.shape[1]):
        system = assemble_global_system(space, coeffs, sigma=sigma)
        shared = TrefftzBlocks(system, embedding)
        u_emb = solve_embedded_trefftz(system, embedding, shared=shared)
        u_block = solve_block_coupled(system, embedding, shared=shared)
        del shared  # and with it the factorization
        gap = float(np.linalg.norm(u_emb.coeffs - u_block.coeffs))
        denom = float(np.linalg.norm(u_emb.coeffs))
        gap_rel = gap / denom if denom > 0 else gap
    return DiagnosticsReport(
        rho_max=float(rho.max()),
        sigma_min_rel=sigma_min_rel,
        dim_table=dim_table,
        block_equivalence_gap=gap,
        block_equivalence_gap_rel=gap_rel,
        p=p,
        kind=kind,
        n_elements=space.mesh.n_elements,
        embedding=embedding,
    )
