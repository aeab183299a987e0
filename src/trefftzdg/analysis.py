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
from .coefficients import evaluate, require_finite, require_positive
from .dg_forms import _beta_normal, assemble_volume_terms
from .embedding import GlobalEmbedding, build_embedding
from .local_ops import BOX_SCALE, _check_box_scale, _validate, operator_row_count
from .solver import solve_block_coupled

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
    norm with the per-facet ``solution.penalty`` of the solved system.

    Both norms are sums over the volume and the facet quadrature points,
    formed batch by batch (:meth:`BrokenSpace.element_batches`, and facet
    batches of as many points), so their temporaries do not grow with the
    mesh. The upwind norm weighs its streamline and facet terms by
    ``1 / sup |beta|``; both vanish where ``beta = 0``, so with zero
    advection it is the L2 norm. The exact solution, its gradient and the
    data the norm reads come from one fused evaluation per volume batch
    (:func:`~trefftzdg.coefficients.evaluate`)."""
    if coeffs.exact_solution is None:
        raise ValueError("error computation requires an exact solution")
    if coeffs.alpha is None and coeffs.beta is None:
        raise ValueError("the upwind error norm without diffusion alpha requires beta")
    if coeffs.alpha is not None and solution.penalty is None:
        raise ValueError("the interior-penalty error norm requires the penalty of the solution")
    space = solution.space
    mesh = space.mesh
    exact_grad = coeffs.exact_gradient()
    upwind = coeffs.alpha is None
    # the fields of the volume terms, fused into one evaluation
    fields = {"u": coeffs.exact_solution, "u_x": exact_grad.fx, "u_y": exact_grad.fy}
    if upwind:
        fields["beta_x"], fields["beta_y"] = coeffs.beta.fx, coeffs.beta.fy
    else:
        fields["alpha"] = coeffs.alpha
        if coeffs.gamma is not None:
            fields["gamma"] = coeffs.gamma
            if coeffs.beta is not None:
                fields["div_beta"] = coeffs.beta.divergence()
    # upwind: sum h (beta . grad e)^2; interior penalty: sum alpha |grad e|^2
    l2_sq = weighted_sq = 0.0
    beta_sup, stab_min = 0.0, math.inf
    for batch in space.element_batches():
        elems = np.arange(batch.start, batch.stop)
        vals, grads = solution.element_values(batch, gradients=True)
        x, y = space.volume_points[batch, :, 0], space.volume_points[batch, :, 1]
        w = space.volume_weights[batch]
        data = dict(zip(fields, evaluate(fields.values(), x, y)))
        err = require_finite(data["u"], "exact solution", "element", elems) - vals
        exact_grads = np.stack([data["u_x"], data["u_y"]], axis=-1)
        err_grad = require_finite(exact_grads, "exact gradient", "element", elems) - grads
        l2_sq += np.sum(w * err**2)
        if upwind:
            beta_vals = np.stack([data["beta_x"], data["beta_y"]], axis=-1)
            beta_vals = require_finite(beta_vals, "beta", "element", elems)
            # sqrt is monotone: one sqrt of the largest square, not one per point
            beta_sq = np.einsum("eqd,eqd->eq", beta_vals, beta_vals)
            beta_sup = max(beta_sup, math.sqrt(float(np.max(beta_sq))))
            directional = np.einsum("eqd,eqd->eq", beta_vals, err_grad)
            weighted_sq += np.sum(mesh.h[batch, None] * w * directional**2)
            continue
        alpha_vals = require_positive(data["alpha"], "alpha", "element", elems)
        weighted_sq += np.sum(w * alpha_vals * np.einsum("eqd,eqd->eq", err_grad, err_grad))
        if coeffs.gamma is not None:
            stab = require_finite(data["gamma"], "gamma", "element", elems)
            if coeffs.beta is not None:
                div_beta = require_finite(data["div_beta"], "div beta", "element", elems)
                stab = stab - 0.5 * div_beta
            stab_min = min(stab_min, float(np.min(stab)))

    if upwind:
        vh_sq = l2_sq + (weighted_sq / beta_sup**2 if beta_sup > 0.0 else 0.0)

        def facet_weight(facets, pts):
            return np.abs(_beta_normal(coeffs, pts, mesh, facets)) / beta_sup

    else:
        gamma0 = max(0.0, stab_min) if coeffs.gamma is not None else 0.0
        vh_sq = weighted_sq + gamma0 * l2_sq

        def facet_weight(facets, pts):
            # penalty weight, plus the upwind weight where there is advection
            weight = solution.penalty[facets][:, None]
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


def run_diagnostics(space, kind, coeffs, sigma=None, box_scale=BOX_SCALE):
    """Numerical witnesses for the decoupling and local-stability
    assumptions on the broken ``space``, plus the embedded/block
    equivalence gap. The gap is computed when every element keeps all its
    operator rows, as the coupled block solve needs; otherwise it is NaN.

    A ``kind`` that does not fit the data, or a box scale that is not
    positive and finite, fails before any assembly. The one volume pass
    (:func:`~trefftzdg.dg_forms.assemble_volume_terms`) gives the embedding
    its ``AR`` operators, and one call of
    :func:`~trefftzdg.solver.solve_block_coupled` on it makes both solves:
    one facet pass in the Trefftz basis ``[T | u_L | L]`` and at most one
    LU, that of ``T'AT``, against which the Schur system is refined; ``S``
    is factored only as the fallback. No DG coupling block is formed."""
    p = space.degree
    _validate(kind, p, coeffs)
    _check_box_scale(box_scale)
    terms = assemble_volume_terms(space, coeffs, sigma=sigma)
    embedding = build_embedding(space, coeffs, kind, box_scale=box_scale, system=terms)
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
        u_block = solve_block_coupled(terms, embedding)
        u_emb = u_block.block_parts["u_E"]
        gap = float(np.linalg.norm(u_emb - u_block.coeffs))
        denom = float(np.linalg.norm(u_emb))
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
