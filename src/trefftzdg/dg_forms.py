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
element-pair blocks: each element's self terms sum into its diagonal
block, and only coupling blocks with a nonzero entry are stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .basis import BrokenSpace
from .coefficients import require_finite, require_positive

_CHUNK = 4096


@dataclass
class DgSystem:
    """Assembled DG operator and load vector.

    The operator is stored once, as element-pair blocks in BSR layout
    (``blocks``). ``matrix`` is a read-only CSR copy built on each request,
    for inspection (tests, nnz counts). ``sigma`` and ``alpha_facet``, the
    facet-averaged diffusion coefficient, are the penalty data (None for
    the upwind form without diffusion); error norms reuse them.
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

    @property
    def p(self):
        return self.space.degree


def default_sigma(p):
    """Default interior-penalty parameter ``50 p^2`` for degree ``p``."""
    return 50.0 * p * p


def element_alpha_means(space, coeffs):
    """Mean of the diffusion coefficient over each element."""
    x = space.volume_points[..., 0]
    y = space.volume_points[..., 1]
    vals = coeffs.alpha(x, y)
    return np.einsum("eq,eq->e", space.volume_weights, vals) / space.mesh.areas


def facet_alpha(space, coeffs):
    """Facet diffusion weight: arithmetic mean of the adjacent element
    means (single mean on the boundary); stays within
    [min alpha, max alpha]."""
    mesh = space.mesh
    means = element_alpha_means(space, coeffs)
    af = means[mesh.facet_left].astype(float)
    interior = mesh.interior_facets
    af[interior] = 0.5 * (
        means[mesh.facet_left[interior]] + means[mesh.facet_right[interior]]
    )
    return af


def _block_matrix(n_elements, own, pairs):
    """BSR matrix of the element self terms ``own`` ``(elements, blocks)``
    and the coupling terms ``pairs`` ``(test, trial, blocks)``. The self
    terms sum into the diagonal blocks in term order; a coupling block is
    stored only if it has a nonzero entry, so the exactly zero upwind
    outflow blocks are dropped."""
    elems = np.concatenate([e for e, _ in own])
    terms = np.concatenate([b for _, b in own])
    m, nd, _ = terms.shape
    incidence = sparse.csr_matrix((np.ones(m), (elems, np.arange(m))), shape=(n_elements, m))
    rows, cols = [np.arange(n_elements)], [np.arange(n_elements)]
    data = [(incidence @ terms.reshape(m, -1)).reshape(n_elements, nd, nd)]
    for test, trial, blocks in pairs:
        keep = np.any(blocks != 0.0, axis=(1, 2))
        rows.append(test[keep])
        cols.append(trial[keep])
        data.append(blocks[keep])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_elements))])
    n = n_elements * nd
    return sparse.bsr_matrix((np.concatenate(data)[order], cols[order], indptr), shape=(n, n))


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


def assemble_global_system(mesh, p, coeffs, sigma=None, space=None):
    """Assemble the DG matrix and load vector in the form the data picks.

    With a diffusion field ``alpha`` the form is symmetric interior
    penalty with the penalty ``sigma`` (``None``: :func:`default_sigma`),
    plus the upwind advection and reaction terms wherever the coefficients
    carry them. Without diffusion it is the upwind form, which needs an
    advection field ``beta``, and the system keeps ``sigma = None``. A
    given ``sigma`` must be positive and finite, and a given ``space``
    must be the degree-``p`` space on ``mesh``.
    """
    if sigma is not None and not 0 < sigma < math.inf:
        raise ValueError(f"the penalty must be a positive finite sigma, got {sigma}")
    diffusive = coeffs.alpha is not None
    if not diffusive and coeffs.beta is None:
        raise ValueError("the upwind form without diffusion alpha requires an advection field beta")
    if not diffusive:
        sigma = None
    elif sigma is None:
        sigma = default_sigma(p)
    if space is None:
        space = BrokenSpace(mesh, p)
    elif space.degree != p or space.mesh is not mesh:
        raise ValueError(
            f"space of degree {space.degree} on a mesh of {space.mesh.n_elements} elements "
            f"does not match p = {p} on the given mesh of {mesh.n_elements} elements"
        )
    nd = space.ndof_local
    own, pairs = [], []
    load = np.zeros(space.ndof_total)
    has_beta = coeffs.beta is not None
    has_gamma = coeffs.gamma is not None
    af = facet_alpha(space, coeffs) if diffusive else None

    # volume terms: weighted coefficients against the shared reference tables
    for chunk in _chunks(mesh.n_elements):
        elems = np.arange(chunk.start, chunk.stop)
        pts = space.volume_points[chunk]
        w = space.volume_weights[chunk]
        x, y = pts[..., 0], pts[..., 1]
        terms = {}
        if diffusive:
            terms["diffusion"] = require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
        if has_beta:
            terms["drift"] = require_finite(coeffs.beta(x, y), "beta", "element", elems)
        if has_gamma:
            terms["value"] = require_finite(coeffs.gamma(x, y), "gamma", "element", elems)
        own.append((elems, space.volume_matrices(chunk, w, **terms)))
        fv = require_finite(coeffs.f(x, y), "f", "element", elems)
        load[chunk.start * nd : chunk.stop * nd] += space.volume_load(chunk, w, fv).ravel()

    # facet terms in jump/average form: interior facets, then the one-sided
    # boundary facets
    fpts, fw = space.facet_rule
    inner, outer = mesh.interior_facets, mesh.boundary_facets
    groups = (
        (inner, np.stack([mesh.facet_left[inner], mesh.facet_right[inner]], axis=1)),
        (outer, mesh.facet_left[outer][:, None]),
    )
    for group, group_sides in groups:
        # at most _CHUNK element traces per batch, as in the volume loop
        for chunk in _chunks(len(group), _CHUNK // group_sides.shape[1]):
            facets, sides = group[chunk], group_sides[chunk]
            interior = sides.shape[1] == 2
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
                left, right = sides.T
                own += [(left, M[:, :nd, :nd]), (right, M[:, nd:, nd:])]
                pairs += [(left, right, M[:, :nd, nd:]), (right, left, M[:, nd:, :nd])]
            else:
                left = sides[:, 0]
                own.append((left, M))
                # the Dirichlet data enters as the trial trace of the jump
                g = require_finite(coeffs.g_D(x, y), "g_D", "facet", facets)
                lb = np.einsum("fq,fqi->fi", w * g, test)
                np.add.at(load, space.offsets[left][:, None] + np.arange(nd), lb)

    blocks = _block_matrix(mesh.n_elements, own, pairs)
    return DgSystem(load=load, space=space, sigma=sigma, alpha_facet=af, blocks=blocks)

