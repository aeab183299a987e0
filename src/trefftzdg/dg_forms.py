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
place of the outer trace in the load.

The operator is stored once, as element-pair blocks in a layout fixed by
the mesh and the upwind direction (:func:`_block_layout`). ``beta.n`` is
evaluated at the interior facet points once, before the facet terms;
without diffusion the upwind outflow blocks, exactly zero where ``beta.n``
keeps one sign along a facet, get no slot, and with diffusion every
coupling block does. Volume batches add their blocks into the diagonal
slots and facet batches write their coupling blocks into theirs and add
their self blocks into the diagonal ones (:func:`_add_in_order`), in an
order the facet numbering fixes, so the layout is the returned operator
and every pass holds one batch of temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .basis import BATCH_POINTS, BrokenSpace, batches
from .coefficients import require_finite, require_positive
from .local_ops import AR, LocalOperatorBatch, _row_scale, operator_row_count
from .mesh import occurrences

#: facet matrix entries per batch of the facet loop
_FACET_ENTRIES = 1 << 16
#: interior facets per run of the self-term summation order
_SELF_RUN = 2048


@dataclass
class DgSystem:
    """Assembled DG operator and load vector.

    The operator is stored once, as element-pair blocks in BSR layout
    (``blocks``): every diagonal block, summed in the order the facet
    numbering fixes, and the coupling blocks the form can fill, which
    without diffusion are those upwind of each facet by the sign of
    ``beta.n`` at its points. ``matrix`` is a read-only CSR copy built on
    each request, for inspection (tests, nnz counts). ``sigma`` and the
    facet mean diffusion ``alpha_facet`` are the penalty data (None for
    the upwind form without diffusion); error norms reuse them.
    ``schedule`` is the level schedule of the block pattern, formed by the
    first solve and read by every later one (:func:`trefftzdg.solver._schedule`);
    ``local_operators`` the ``AR`` local operators of the upwind form (None
    for SIP) and ``coeffs`` the data it was assembled from.
    """

    blocks: sparse.bsr_matrix = field(repr=False)
    load: np.ndarray
    space: BrokenSpace
    sigma: float = None
    alpha_facet: np.ndarray = None
    local_operators: LocalOperatorBatch = field(default=None, repr=False, compare=False)
    coeffs: object = field(default=None, repr=False, compare=False)
    schedule: object = field(default=None, init=False, repr=False, compare=False)

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


def _block_layout(mesh, couples):
    """The block layout of the DG operator on ``mesh``: one slot for each
    element's diagonal block and one for each coupling block of an interior
    facet that ``couples`` ``(2, n_inner)`` keeps (row 0 the ``(K1, K2)``
    blocks, row 1 the ``(K2, K1)`` ones). Returns the block columns
    ``indices`` and the ``indptr`` of the slots in row order (BSR), the slot
    ``diagonal`` of each element's diagonal block and ``pairs``
    ``(2, n_inner)``, the slot of each coupling block, -1 where there is
    none."""
    E, inner = mesh.n_elements, mesh.interior_facets
    left, right = mesh.facet_left[inner], mesh.facet_right[inner]
    rows = np.concatenate([np.arange(E), left[couples[0]], right[couples[1]]])
    cols = np.concatenate([np.arange(E), right[couples[0]], left[couples[1]]])
    order = np.lexsort((cols, rows))
    slots = np.empty_like(order)
    slots[order] = np.arange(len(order))
    pairs = np.full(couples.shape, -1)
    pairs[couples] = slots[E:]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=E))])
    return cols[order], indptr, slots[:E], pairs


def _add_in_order(data, slots, blocks):
    """``data[slots[i]] += blocks[i]`` for each ``i`` in turn: a slot listed
    more than once takes its blocks in order, one occurrence per round, so
    that no round repeats a slot."""
    occurrence = occurrences(slots)
    for r in range(occurrence.max(initial=-1) + 1):
        pick = occurrence == r
        data[slots[pick]] += blocks[pick]


def _beta_normal(coeffs, pts, mesh, facets):
    """``beta . n`` at the points ``(F, nq, 2)`` of ``facets``."""
    beta = require_finite(coeffs.beta(pts[..., 0], pts[..., 1]), "beta", "facet", facets)
    return np.einsum("fqd,fd->fq", beta, mesh.facet_normals[facets])


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
    test = np.multiply(c_avg[..., None], T, out=T)  # in place: one table fewer at the peak
    test += c_jump[..., None] * J
    if not flux:
        return _gram(w, test, J), test
    N = np.concatenate([t[1] for t in traces], axis=-1)
    test += c_flux[..., None] * N
    return _gram(w, test, J) + _gram(w * c_flux, J, N), test


def assemble_global_system(space, coeffs, sigma=None):
    """Assemble the DG matrix and load vector on the broken ``space`` in
    the form the data picks.

    With a diffusion field ``alpha`` the form is symmetric interior
    penalty with the penalty ``sigma`` (``None``: :func:`default_sigma` of
    the space's degree), plus the upwind advection and reaction terms
    wherever the coefficients carry them. Without diffusion it is the
    upwind form, which needs an advection field ``beta``, and the system
    keeps ``sigma = None``. A given ``sigma`` must be positive and finite.

    The upwind form, built for exactly the data the ``AR`` kind fits, keeps
    the ``AR`` local operators: the upwind volume term is their strong form
    and the basis is orthonormal and graded by degree, so they are the
    leading ``dim P_{p-1}`` rows of the volume blocks and loads, times
    ``sqrt(h_K)``.
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
    E = mesh.n_elements
    inner, outer = mesh.interior_facets, mesh.boundary_facets
    left, right = mesh.facet_left[inner], mesh.facet_right[inner]
    fpts, fw = space.facet_rule
    batch = max(1, _FACET_ENTRIES // (2 * nd) ** 2)
    has_beta = coeffs.beta is not None
    has_gamma = coeffs.gamma is not None

    # beta.n at the interior facet points, evaluated once: without diffusion
    # the upwind terms leave the (K1, K2) block of a facet exactly zero
    # where beta.n >= 0 at all its points, the (K2, K1) block where <= 0
    bn_inner = np.zeros((len(inner), fw.shape[1]))
    if has_beta:
        for chunk in batches(len(inner), max(1, BATCH_POINTS // fw.shape[1])):
            bn_inner[chunk] = _beta_normal(coeffs, fpts[inner[chunk]], mesh, inner[chunk])
    couples = np.ones((2, len(inner)), dtype=bool)
    if not diffusive:
        couples = np.stack([np.any(bn_inner < 0.0, axis=1), np.any(bn_inner > 0.0, axis=1)])
    indices, indptr, diagonal, pairs = _block_layout(mesh, couples)
    data = np.zeros((len(indices), nd, nd))
    load = np.zeros(space.ndof_total)
    means = np.empty(E)
    m, ops = operator_row_count(AR, space.degree), None
    if not diffusive:
        ops = LocalOperatorBatch(AR, np.arange(E), np.empty((E, m, nd)), np.empty((E, m)))

    # each batch adds its terms in a call of its own, whose temporaries go
    # before the next batch makes its own
    def volume_batch(chunk):
        """Volume terms of the elements in ``chunk``: weighted coefficients
        against the shared reference tables; the diffusion values also give
        the element means of alpha."""
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
        volume = space.volume_matrices(chunk, w, **terms)
        data[diagonal[chunk]] += volume
        fl = space.volume_load(chunk, w, require_finite(coeffs.f(x, y), "f", "element", elems))
        load[chunk.start * nd : chunk.stop * nd] += fl.ravel()
        if ops is not None:
            root = _row_scale(AR, space.scales[chunk])[:, None]
            ops.matrices[chunk], ops.rhs[chunk] = volume[:, :m] * root[..., None], fl[:, :m] * root

    def facet_batch(facets, n_sides, bn):
        """The facet matrices and test tables of a batch of ``facets`` in
        jump/average form, from ``beta.n`` at their points."""
        w = fw[facets]
        interior = n_sides == 2
        c_avg = -0.5 * bn if interior else np.zeros_like(w)
        c_jump = 0.5 * np.abs(bn) if interior else np.where(bn < 0.0, -bn, 0.0)
        c_flux = None
        if diffusive:
            pts = fpts[facets]
            alpha = coeffs.alpha(pts[..., 0], pts[..., 1])
            alpha = require_positive(alpha, "alpha", "facet", facets)
            c_jump = c_jump + (sigma * af[facets] / mesh.facet_lengths[facets])[:, None]
            # the average of a one-sided trace is the trace itself
            c_flux = -alpha / n_sides
        return _facet_terms(space, facets, n_sides, w, c_avg, c_jump, c_flux)

    def interior_batch(part, k2_blocks):
        """Write the kept coupling blocks of the interior facets ``part``
        into their slots, add their K1 self blocks to the diagonal blocks
        and leave their K2 self blocks in ``k2_blocks``."""
        M, _ = facet_batch(inner[part], 2, bn_inner[part])
        for slots, block in zip(pairs[:, part], (M[:, :nd, nd:], M[:, nd:, :nd])):
            kept = slots >= 0
            data[slots[kept]] = block[kept]
        _add_in_order(data, diagonal[left[part]], M[:, :nd, :nd])
        k2_blocks[...] = M[:, nd:, nd:]

    def boundary_batch(facets):
        """Add the self blocks of the boundary ``facets`` to the diagonal
        blocks, and the Dirichlet data, as the trial trace of the jump, to
        the load."""
        pts, owners = fpts[facets], mesh.facet_left[facets]
        bn = _beta_normal(coeffs, pts, mesh, facets) if has_beta else np.zeros(pts.shape[:2])
        M, test = facet_batch(facets, 1, bn)
        _add_in_order(data, diagonal[owners], M)
        g = require_finite(coeffs.g_D(pts[..., 0], pts[..., 1]), "g_D", "facet", facets)
        lb = np.einsum("fq,fqi->fi", fw[facets] * g, test)
        np.add.at(load, space.offsets[owners][:, None] + np.arange(nd), lb)

    for chunk in space.element_batches():
        volume_batch(chunk)
    af = _facet_means(mesh, means) if diffusive else None
    # interior facets in runs of _SELF_RUN, the K2 self blocks of a run
    # after its K1 ones, then the one-sided boundary facets
    k2_run = np.empty((min(_SELF_RUN, len(inner)), nd, nd))
    for run in batches(len(inner), _SELF_RUN):
        for chunk in batches(run.stop - run.start, batch):
            interior_batch(slice(run.start + chunk.start, run.start + chunk.stop), k2_run[chunk])
        # a self block has a quarter of the entries of a facet matrix
        for chunk in batches(run.stop - run.start, 4 * batch):
            _add_in_order(data, diagonal[right[run][chunk]], k2_run[chunk])
    del k2_run
    for chunk in batches(len(outer), batch):
        boundary_batch(outer[chunk])

    blocks = sparse.bsr_matrix((data, indices, indptr), shape=(len(load),) * 2)
    return DgSystem(blocks, load, space, sigma=sigma, alpha_facet=af, local_operators=ops,
                    coeffs=coeffs)
