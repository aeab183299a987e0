"""Error norms, convergence-order estimation, and framework diagnostics.

The data picks the error norm as it picks the DG form: the upwind norm of
advection-reaction without diffusion, the interior-penalty norm, with the
penalty of the solved system, with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import require_finite, require_positive
from .dg_forms import assemble_global_system, facet_alpha
from .embedding import GlobalEmbedding, build_embedding
from .local_ops import KINDS, operator_row_count
from .solver import solve_block_coupled, solve_embedded_trefftz

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
    """Facet points, normals, weights and squared error jumps, as
    ``(facets, points, normals, weights, jump**2)`` per facet group.

    On interior facets the jump of the error reduces to the (negated) jump
    of u_h; on boundary facets the single-valued exact trace stays, giving
    the deviation of u_h from the Dirichlet data. The traces of u_h come
    from the space's facet tables (:meth:`BrokenSpace.facet_traces`).
    Every norm sums ``weight(x, b_n) * jump**2`` over these groups.
    """
    space = solution.space
    mesh = space.mesh
    local = solution.coeffs.reshape(mesh.n_elements, -1)
    fpts, fw = space.facet_rule
    groups = []
    interior = mesh.interior_facets
    if len(interior):
        # exact solution cancels across the facet
        jump = space.facet_traces(interior, 1, local) - space.facet_traces(interior, 0, local)
        groups.append((interior, fpts[interior], jump))
    boundary = mesh.boundary_facets
    if len(boundary):
        pts = fpts[boundary]
        tr = space.facet_traces(boundary, 0, local)
        exact_vals = coeffs.exact_solution(pts[..., 0], pts[..., 1])
        err = require_finite(exact_vals, "exact solution", "facet", boundary) - tr
        groups.append((boundary, pts, err))
    return [(f, pts, mesh.facet_normals[f], fw[f], jump**2) for f, pts, jump in groups]


def _beta_normal(coeffs, pts, normals, facets):
    """Normal component of beta at the facet points ``(F, nq, 2)``."""
    beta = require_finite(coeffs.beta(pts[..., 0], pts[..., 1]), "beta", "facet", facets)
    return np.einsum("fqd,fd->fq", beta, normals)


def compute_errors(solution, coeffs):
    """L2 error and the mesh-dependent norm of ``u_ex - u_h``: the upwind
    norm when ``coeffs`` has no diffusion, otherwise the interior-penalty
    norm with the penalty ``solution.sigma`` of the solved system."""
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
    elems = np.arange(mesh.n_elements)
    vals, grads = solution.element_values(slice(None), gradients=True)
    x, y = space.volume_points[..., 0], space.volume_points[..., 1]
    w = space.volume_weights
    err = require_finite(exact(x, y), "exact solution", "element", elems) - vals
    err_grad = require_finite(exact_grad(x, y), "exact gradient", "element", elems) - grads
    l2_sq = np.sum(w * err**2)

    if coeffs.alpha is None:
        beta_vals = require_finite(coeffs.beta(x, y), "beta", "element", elems)
        beta_sup = float(np.max(np.linalg.norm(beta_vals, axis=-1)))
        directional = np.einsum("eqd,eqd->eq", beta_vals, err_grad) / beta_sup
        vh_sq = l2_sq
        vh_sq += np.sum(mesh.h[:, None] * w * directional**2)

        def facet_weight(facets, pts, normals):
            return np.abs(_beta_normal(coeffs, pts, normals, facets)) / beta_sup

    else:
        alpha_vals = require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
        vh_sq = np.sum(w * alpha_vals * np.einsum("eqd,eqd->eq", err_grad, err_grad))
        gamma0 = 0.0
        if coeffs.gamma is not None:
            stab = require_finite(coeffs.gamma(x, y), "gamma", "element", elems)
            if coeffs.beta is not None:
                div_beta = coeffs.beta.divergence()(x, y)
                stab = stab - 0.5 * require_finite(div_beta, "div beta", "element", elems)
            gamma0 = max(0.0, float(np.min(stab)))
        vh_sq += gamma0 * l2_sq
        af = solution.alpha_facet
        if af is None:
            af = facet_alpha(space, coeffs)

        def facet_weight(facets, pts, normals):
            # penalty weight, plus the upwind weight where there is advection
            weight = (solution.sigma * af[facets] / mesh.facet_lengths[facets])[:, None]
            if coeffs.beta is not None:
                weight = weight + 0.5 * np.abs(_beta_normal(coeffs, pts, normals, facets))
            return weight

    for facets, pts, normals, fw, jump_sq in _facet_error_jumps(solution, coeffs):
        vh_sq += np.sum(fw * facet_weight(facets, pts, normals) * jump_sq)

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
    operator rows, as the coupled block solve needs; otherwise it is NaN."""
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
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
        u_emb = solve_embedded_trefftz(system, embedding)
        u_block = solve_block_coupled(system, embedding)
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
