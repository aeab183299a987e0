"""Global DG systems on the broken polynomial space. The problem data
picks the form: symmetric interior penalty when there is diffusion, with
the upwind advection terms wherever there is advection, and the upwind
form of advection-reaction when there is none.

The volume terms of a batch of elements are one matrix product of the
weighted coefficients with the space's shared reference tables
(:meth:`BrokenSpace.volume_matrices`). The facet terms are written once,
in jump/average form (Arnold, Brezzi, Cockburn and Marini, SIAM J. Numer.
Anal. 39, 2002): with the unit normal ``n`` from the left element to the
right one, ``[u] = u_L - u_R`` and ``{u} = (u_L + u_R) / 2``, an interior
facet adds ``-(beta.n)[u]{v} + (|beta.n|/2 + sigma alpha_F/|F|)[u][v]
- {alpha d_n u}[v] - [u]{alpha d_n v}``. A boundary facet is the
one-sided case, where the upwind terms reduce to ``|beta.n| u v`` at the
inflow quadrature nodes (``beta.n < 0``) and the Dirichlet data takes the
place of the outer trace in the load. The operator is stored once, as
element-pair blocks in a layout fixed by the mesh (:func:`_block_layout`):
facet batches write their coupling blocks into it and their self blocks
into a stack, which sums into the diagonal blocks in an order the facet
numbering fixes; the exactly zero upwind outflow blocks are then dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .basis import BrokenSpace
from .coefficients import require_finite, require_positive

_CHUNK = 4096
#: facet matrix entries per batch of the facet loop
_FACET_ENTRIES = 1 << 16
#: interior facets per run of the self-term summation order
_SELF_RUN = 2048


@dataclass
class DgSystem:
    """Assembled DG operator and load vector.

    The operator is stored once, as element-pair blocks in BSR layout
    (``blocks``), each diagonal block summed in the order the facet
    numbering fixes. ``matrix`` is a read-only CSR copy built on each
    request, for inspection (tests, nnz counts). ``sigma`` and the facet
    mean diffusion ``alpha_facet`` are the penalty data (None for the
    upwind form without diffusion); error norms reuse them.
    """

    blocks: sparse.bsr_matrix = field(repr=False)
    load: np.ndarray
    space: BrokenSpace
    sigma: float = None
    alpha_facet: np.ndarray = None

    @property
    def matrix(self):
        csr = self.blocks.tocsr()
        for array in (csr.data, csr.indices, csr.indptr):
            array.flags.writeable = False
        return csr


def default_sigma(p):
    """Default interior-penalty parameter ``50 p^2`` for degree ``p``."""
    return 50.0 * p * p


def _element_means(weights, values, areas):
    """Mean of ``values`` ``(E, nq)`` over each element, from the volume
    rule's ``weights`` and the element ``areas``."""
    return np.einsum("eq,eq->e", weights, values) / areas


def element_alpha_means(space, coeffs):
    """Mean of the diffusion coefficient over each element."""
    x = space.volume_points[..., 0]
    y = space.volume_points[..., 1]
    return _element_means(space.volume_weights, coeffs.alpha(x, y), space.mesh.areas)


def facet_alpha(space, coeffs):
    """Facet diffusion weight: arithmetic mean of the adjacent element
    means (single mean on the boundary); stays within
    [min alpha, max alpha]."""
    return _facet_means(space.mesh, element_alpha_means(space, coeffs))


def _facet_means(mesh, means):
    """The facet weights of :func:`facet_alpha` from the element ``means``."""
    af = means[mesh.facet_left].astype(float)
    interior = mesh.interior_facets
    af[interior] = 0.5 * (
        means[mesh.facet_left[interior]] + means[mesh.facet_right[interior]]
    )
    return af


def _block_layout(mesh):
    """The block layout of the DG operator on ``mesh``: ``rows`` and
    ``cols`` of its slots in row order, one for each element's diagonal
    block and one for each of the two coupling blocks of every interior
    facet; ``slots`` of the diagonal, then the ``(K1, K2)``, then the
    ``(K2, K1)`` blocks; and ``own`` ``(E, 3)``, each element's facet self
    blocks in the stack ``[K1 | K2 | boundary]`` in summation order: the
    interior facets in runs of ``_SELF_RUN``, the K1 sides of a run before
    its K2 sides, then the boundary facets."""
    E, inner = mesh.n_elements, mesh.interior_facets
    left, right = mesh.facet_left[inner], mesh.facet_right[inner]
    rows = np.concatenate([np.arange(E), left, right])
    cols = np.concatenate([np.arange(E), right, left])
    order = np.lexsort((cols, rows))
    k = np.arange(len(inner))
    start = k - k % _SELF_RUN
    run = np.minimum(_SELF_RUN, len(inner) - start)
    key = np.concatenate([start + k, start + k + run, np.arange(2 * len(inner), 3 * E)])
    owner = np.concatenate([left, right, mesh.facet_left[mesh.boundary_facets]])
    own = np.lexsort((key, owner)).reshape(E, 3)
    return rows[order], cols[order], np.argsort(order), own


def _gram(w, a, b):
    """``sum_q w[e, q] a[e, q, i] b[e, q, j]`` for every batch entry ``e``."""
    return np.swapaxes(a * w[..., None], -1, -2) @ b


def _facet_terms(space, facets, s, w, c_avg, c_jump, c_flux=None):
    """Facet terms in jump/average form of a batch of ``facets`` at the
    space's facet rule, each between its ``s`` elements (K1 and K2, or K1
    alone on the boundary), with weights ``w``.

    The trace tables ``(F, nq, s nd)`` are the values ``T = [phi_1 | phi_2]``,
    the signed jumps ``J = [phi_1 | -phi_2]`` and the normal derivatives
    ``N = [d_n phi_1 | d_n phi_2]``; the coefficients ``(F, nq)`` weigh the
    averages, the jumps and the normal fluxes (``c_flux`` None: no
    diffusion). Returns ``M = gram(w, test, J) + gram(w c_flux, J, N)``
    ``(F, s nd, s nd)``, test functions along the rows, whose ``nd x nd``
    quadrants are the own and coupling blocks, and the test table
    ``test = c_avg T + c_jump J + c_flux N``.
    """
    flux = c_flux is not None
    traces = [space.facet_traces(facets, side, normal_derivatives=flux) for side in range(s)]
    T = np.concatenate([t[0] if flux else t for t in traces], axis=-1)
    J = T.copy()
    J[..., space.ndof_local :] *= -1.0
    test = c_avg[..., None] * T + c_jump[..., None] * J
    if not flux:
        return _gram(w, test, J), test
    N = np.concatenate([t[1] for t in traces], axis=-1)
    test += c_flux[..., None] * N
    return _gram(w, test, J) + _gram(w * c_flux, J, N), test


def _chunks(total, size=_CHUNK):
    """Consecutive slices of at most ``size`` entries; a slice views the
    arrays it indexes."""
    for start in range(0, total, size):
        yield slice(start, min(start + size, total))


def assemble_global_system(space, coeffs, sigma=None):
    """Assemble the DG matrix and load vector on the broken ``space`` in
    the form the data picks.

    With a diffusion field ``alpha`` the form is symmetric interior
    penalty with the penalty ``sigma`` (``None``: :func:`default_sigma` of
    the space's degree), plus the upwind advection and reaction terms
    wherever the coefficients carry them. Without diffusion it is the
    upwind form, which needs an advection field ``beta``, and the system
    keeps ``sigma = None``. A given ``sigma`` must be positive and finite.
    """
    if sigma is not None and not 0 < sigma < math.inf:
        raise ValueError(f"the penalty must be a positive finite sigma, got {sigma}")
    diffusive = coeffs.alpha is not None
    if not diffusive and coeffs.beta is None:
        raise ValueError("the upwind form without diffusion alpha requires an advection field beta")
    if not diffusive:
        sigma = None
    elif sigma is None:
        sigma = default_sigma(space.degree)
    mesh = space.mesh
    nd = space.ndof_local
    E, n_inner = mesh.n_elements, len(mesh.interior_facets)
    diag = np.zeros((E, nd, nd))
    load = np.zeros(space.ndof_total)
    has_beta = coeffs.beta is not None
    has_gamma = coeffs.gamma is not None
    means = np.empty(E)

    # volume terms: weighted coefficients against the shared reference
    # tables; the diffusion values also give the element means of alpha
    for chunk in _chunks(E):
        elems = np.arange(chunk.start, chunk.stop)
        pts = space.volume_points[chunk]
        w = space.volume_weights[chunk]
        x, y = pts[..., 0], pts[..., 1]
        terms = {}
        if diffusive:
            terms["diffusion"] = require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
            means[chunk] = _element_means(w, terms["diffusion"], mesh.areas[chunk])
        if has_beta:
            terms["drift"] = require_finite(coeffs.beta(x, y), "beta", "element", elems)
        if has_gamma:
            terms["value"] = require_finite(coeffs.gamma(x, y), "gamma", "element", elems)
        diag[chunk] += space.volume_matrices(chunk, w, **terms)
        fv = require_finite(coeffs.f(x, y), "f", "element", elems)
        load[chunk.start * nd : chunk.stop * nd] += space.volume_load(chunk, w, fv).ravel()
    del terms, fv  # the coefficient values of the last chunk
    af = _facet_means(mesh, means) if diffusive else None

    # facet terms in jump/average form: interior facets, then the one-sided
    # boundary facets; each batch writes its coupling blocks into their
    # slots and its self blocks into the stack [K1 | K2 | boundary]
    rows, cols, slots, own = _block_layout(mesh)
    # the stack first, so that the kept blocks can reuse its memory and diag's
    selfs = np.empty((3 * E, nd, nd))
    data = np.empty((len(slots), nd, nd))
    fpts, fw = space.facet_rule
    inner, outer = mesh.interior_facets, mesh.boundary_facets
    groups = (
        (inner, np.stack([mesh.facet_left[inner], mesh.facet_right[inner]], axis=1)),
        (outer, mesh.facet_left[outer][:, None]),
    )
    for group, group_sides in groups:
        interior = group_sides.shape[1] == 2
        for chunk in _chunks(len(group), max(1, _FACET_ENTRIES // (2 * nd) ** 2)):
            facets, sides = group[chunk], group_sides[chunk]
            pts, w = fpts[facets], fw[facets]
            x, y = pts[..., 0], pts[..., 1]
            normals = mesh.facet_normals[facets]
            bn = np.zeros_like(w)
            if has_beta:
                beta = require_finite(coeffs.beta(x, y), "beta", "facet", facets)
                bn = np.einsum("fqd,fd->fq", beta, normals)
            c_avg = -0.5 * bn if interior else np.zeros_like(w)
            c_jump = 0.5 * np.abs(bn) if interior else np.where(bn < 0.0, -bn, 0.0)
            c_flux = None
            if diffusive:
                alpha = require_positive(coeffs.alpha(x, y), "alpha", "facet", facets)
                c_jump = c_jump + (sigma * af[facets] / mesh.facet_lengths[facets])[:, None]
                # the average of a one-sided trace is the trace itself
                c_flux = -alpha / sides.shape[1]
            M, test = _facet_terms(space, facets, sides.shape[1], w, c_avg, c_jump, c_flux)
            if interior:
                data[slots[E:][chunk]] = M[:, :nd, nd:]
                data[slots[E + n_inner :][chunk]] = M[:, nd:, :nd]
                selfs[chunk] = M[:, :nd, :nd]
                selfs[n_inner:][chunk] = M[:, nd:, nd:]
            else:
                selfs[2 * n_inner :][chunk] = M
                # the Dirichlet data enters as the trial trace of the jump
                g = require_finite(coeffs.g_D(x, y), "g_D", "facet", facets)
                lb = np.einsum("fq,fqi->fi", w * g, test)
                np.add.at(load, space.offsets[sides[:, 0]][:, None] + np.arange(nd), lb)

    for column in own.T:
        diag += selfs[column]
    data[slots[:E]] = diag
    del selfs, diag
    # the diagonal blocks stay; the exactly zero upwind outflow blocks go
    keep = np.any(data != 0.0, axis=(1, 2))
    keep[slots[:E]] = True
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=E))])
    blocks = sparse.bsr_matrix((data[keep], cols[keep], indptr), shape=(len(load),) * 2)
    return DgSystem(load=load, space=space, sigma=sigma, alpha_facet=af, blocks=blocks)
