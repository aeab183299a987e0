"""Global DG systems on the broken polynomial space. The problem data
picks the form: symmetric interior penalty when there is diffusion, with
the upwind advection terms wherever there is advection, and the upwind
form of advection-reaction when there is none.

Assembly runs in two passes. The volume pass (:func:`assemble_volume_terms`)
runs once per space and data: the volume terms of a batch of elements are
one matrix product of the weighted coefficients with the space's shared
reference tables (:meth:`BrokenSpace.volume_matrices`), and ``beta.n`` at
the interior facet points fixes the block layout (:func:`_block_layout`).
The facet pass (:func:`assemble_in_basis`) then writes the operator and
the load in a per-element basis: the broken basis itself for the DG system
(:func:`global_system`), or the Trefftz basis ``[T_K | u_L,K]`` of an
embedding, whose columns the trace tables are contracted with before the
Gram products. The Trefftz system is so formed on its own, narrower
blocks, and no DG coupling block is built for it.

The facet terms are written once, in jump/average form (Arnold, Brezzi,
Cockburn and Marini, SIAM J. Numer. Anal. 39, 2002): with the unit normal
``n`` from the left element to the right one, ``[u] = u_L - u_R`` and
``{u} = (u_L + u_R) / 2``, an interior facet adds ``-(beta.n)[u]{v} +
(|beta.n|/2 + sigma alpha_F/|F|)[u][v] - {alpha d_n u}[v] - [u]{alpha d_n
v}``. A boundary facet is the one-sided case, where the upwind terms
reduce to ``|beta.n| u v`` at the inflow quadrature nodes (``beta.n < 0``)
and the Dirichlet data takes the place of the outer trace in the load.

The operator is stored once, as element-pair blocks in a layout fixed by
the mesh and the upwind direction: without diffusion the upwind outflow
blocks, exactly zero where ``beta.n`` keeps one sign along a facet, get no
slot, and with diffusion every coupling block does. The facet pass starts
from the volume blocks in the diagonal slots; facet batches write their
coupling blocks into theirs and add their self blocks into the diagonal
ones (:func:`_add_in_order`), in an order the facet numbering fixes, so
the layout is the returned operator and every pass holds one batch of
temporaries.
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
class BlockLayout:
    """The block layout of an operator on a mesh of ``E`` elements: the
    block columns ``indices`` and the ``indptr`` of its slots in BSR order,
    the slot ``diagonal`` ``(E,)`` of each element's diagonal block and the
    slots ``pairs`` ``(2, n_inner)`` of the coupling blocks of the interior
    facets, -1 where there is none (None for a system built from its
    blocks). ``schedule`` is the level schedule of the block pattern,
    formed by the first solve on the layout and read by every later one
    (:func:`trefftzdg.solver._schedule`)."""

    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray = None
    pairs: np.ndarray = None
    schedule: object = field(default=None, init=False, repr=False, compare=False)


@dataclass
class DgSystem:
    """Assembled DG operator and load vector.

    The operator is stored once, as element-pair blocks in BSR layout
    (``blocks``): every diagonal block, summed in the order the facet
    numbering fixes, and the coupling blocks the form can fill, which
    without diffusion are those upwind of each facet by the sign of
    ``beta.n`` at its points. ``matrix`` is a read-only CSR copy built on
    each request, for inspection (tests, nnz counts). ``penalty`` is the
    interior-penalty weight of each facet (None for the upwind form
    without diffusion); error norms reuse it.
    ``layout`` is the :class:`BlockLayout` of the blocks, shared with the
    volume pass it was assembled from.
    """

    blocks: sparse.bsr_matrix = field(repr=False)
    load: np.ndarray
    space: BrokenSpace
    penalty: np.ndarray = field(default=None, repr=False)
    layout: BlockLayout = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.layout is None:
            self.layout = BlockLayout(self.blocks.indices, self.blocks.indptr)

    @property
    def matrix(self):
        csr = self.blocks.tocsr()
        for array in (csr.data, csr.indices, csr.indptr):
            array.flags.writeable = False
        return csr


@dataclass
class VolumeTerms:
    """The volume pass of the DG form of the data ``coeffs`` on ``space``,
    and what every facet pass reads (:func:`assemble_in_basis`): the volume
    blocks ``volume`` ``(E, nd, nd)`` and loads ``volume_load`` ``(E, nd)``
    of all elements (both None once the DG system took them over), the
    interior-penalty weight ``penalty`` ``sigma alpha_F / |F|`` of each
    facet (None for the upwind form), ``beta.n`` at the interior facet
    points ``bn_inner`` and the :class:`BlockLayout` it fixes, and the
    ``AR`` local operators of the upwind form (None for SIP)."""

    space: BrokenSpace
    coeffs: object = field(repr=False)
    penalty: np.ndarray = field(repr=False)
    volume: np.ndarray = field(repr=False)
    volume_load: np.ndarray = field(repr=False)
    bn_inner: np.ndarray = field(repr=False)
    layout: BlockLayout = field(repr=False)
    local_operators: LocalOperatorBatch = field(default=None, repr=False)


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
    """The :class:`BlockLayout` of the operator on ``mesh``: one slot for
    each element's diagonal block and one for each coupling block of an
    interior facet that ``couples`` ``(2, n_inner)`` keeps (row 0 the
    ``(K1, K2)`` blocks, row 1 the ``(K2, K1)`` ones), in row order."""
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
    return BlockLayout(cols[order], indptr, slots[:E], pairs)


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


def _facet_terms(space, facets, s, w, c_avg, c_jump, c_flux=None, bases=None, width=None):
    """Facet terms in jump/average form of a batch of ``facets`` at the
    space's facet rule, each between its ``s`` elements (K1 and K2, or K1
    alone on the boundary), with weights ``w``, in a per-element basis.

    Without ``bases`` the basis is the broken one, and the trace tables
    ``(F, nq, s nd)`` are the values ``T = [phi_1 | phi_2]``, the signed
    jumps ``J = [phi_1 | -phi_2]`` and the normal derivatives ``N = [d_n
    phi_1 | d_n phi_2]``. Otherwise each side's traces are contracted with
    the columns of its element's stacks ``bases`` ``(E, nd, v_g)`` in turn:
    the first ``width`` columns of the first stack (all by default) are the
    functions tested against, those of every stack the trial functions.
    The coefficients ``(F, nq)`` weigh the averages, the jumps and the
    normal fluxes (``c_flux`` None: no diffusion). Returns ``M = gram(w,
    test, J) + gram(w c_flux, J_0, N)`` ``(F, s width, s v)``, the tested
    functions of each side along the rows and its trial functions in the
    order of the stacks along the columns, whose quadrants are the own and
    coupling blocks, and the test table ``test = c_avg T_0 + c_jump J_0 +
    c_flux N_0`` of the tested functions. The tables of the tested
    functions are columns of those of the first stack, so each entry of
    ``M`` comes out of the same operations whatever ``width``.
    """
    flux = c_flux is not None
    traces = [space.facet_traces(facets, k, normal_derivatives=flux) for k in range(s)]
    traces = [t if flux else (t,) for t in traces]
    owners = (space.mesh.facet_left[facets], space.mesh.facet_right[facets])

    def tables(basis, i):
        """Table ``i`` (0 the values, 1 the normal derivatives) of both
        sides in ``basis``, and the width of a side."""
        sides = [t[i] if basis is None else t[i] @ basis[owners[k]] for k, t in enumerate(traces)]
        return np.concatenate(sides, axis=-1), sides[0].shape[-1]

    def tested(table, v):
        """The first ``width`` of the ``v`` columns of each side of
        ``table``, side by side, as one C-ordered copy: numpy's contraction
        of the load rounds by layout, and on this one it rounds as on those
        columns of the whole table (a fancy-indexed copy does not)."""
        return np.concatenate([table[..., k * v : k * v + width] for k in range(s)], axis=-1)

    blocks = []
    for g, basis in enumerate([None] if bases is None else bases):
        T, v = tables(basis, 0)
        J = T.copy()
        J[..., v:] *= -1.0
        N = tables(basis, 1)[0] if flux else None
        if g == 0:
            T0, J0, N0 = T, J, N
            if width is not None and width < v:
                T0, J0 = tested(T, v), tested(J, v)
                N0 = tested(N, v) if flux else None
            # the test side: in place, one table fewer at the peak
            test = np.multiply(c_avg[..., None], T0, out=T0)
            test += c_jump[..., None] * J0
            if flux:
                test += c_flux[..., None] * N0
        M = _gram(w, test, J)
        if flux:
            M += _gram(w * c_flux, J0, N)
        blocks.append((M, v))
    if len(blocks) == 1:
        return blocks[0][0], test
    # each side's trial columns together, in the order of the stacks
    sides = [M[..., k * v : (k + 1) * v] for k in range(s) for M, v in blocks]
    return np.concatenate(sides, axis=-1), test


def assemble_volume_terms(space, coeffs, sigma=None):
    """The volume pass of the DG form on the broken ``space`` that the data
    picks, as :class:`VolumeTerms`.

    With a diffusion field ``alpha`` the form is symmetric interior
    penalty with the penalty ``sigma`` (``None``: :func:`default_sigma` of
    the space's degree), plus the upwind advection and reaction terms
    wherever the coefficients carry them. Without diffusion it is the
    upwind form, which needs an advection field ``beta``, and the terms
    keep no penalty. A given ``sigma`` must be positive and finite. The
    penalty of a facet is ``sigma alpha_F / |F|``, with ``alpha_F`` the
    :func:`facet_alpha` of the data.

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
    if diffusive and sigma is None:
        sigma = default_sigma(space.degree)
    mesh = space.mesh
    nd = space.ndof_local
    E = mesh.n_elements
    inner = mesh.interior_facets
    fpts, fw = space.facet_rule

    # beta.n at the interior facet points, evaluated once: without diffusion
    # the upwind terms leave the (K1, K2) block of a facet exactly zero
    # where beta.n >= 0 at all its points, the (K2, K1) block where <= 0
    bn_inner = np.zeros((len(inner), fw.shape[1]))
    if coeffs.beta is not None:
        for chunk in batches(len(inner), max(1, BATCH_POINTS // fw.shape[1])):
            bn_inner[chunk] = _beta_normal(coeffs, fpts[inner[chunk]], mesh, inner[chunk])
    couples = np.ones((2, len(inner)), dtype=bool)
    if not diffusive:
        couples = np.stack([np.any(bn_inner < 0.0, axis=1), np.any(bn_inner > 0.0, axis=1)])
    volume, volume_load = np.empty((E, nd, nd)), np.empty((E, nd))
    means = np.empty(E)
    m, ops = operator_row_count(AR, space.degree), None
    if not diffusive:
        ops = LocalOperatorBatch(AR, np.arange(E), np.empty((E, m, nd)), np.empty((E, m)))

    # each batch runs in a call of its own, whose temporaries go before the
    # next batch makes its own
    def volume_batch(chunk):
        """Volume terms of the elements in ``chunk``: weighted coefficients
        against the shared reference tables; the diffusion values also give
        the element means of alpha."""
        elems = np.arange(chunk.start, chunk.stop)
        pts = space.volume_points[chunk]
        w = space.volume_weights[chunk]
        x, y = pts[..., 0], pts[..., 1]
        fields = {}
        if diffusive:
            fields["diffusion"] = require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
            means[chunk] = _element_means(w, fields["diffusion"], mesh.areas[chunk])
        if coeffs.beta is not None:
            fields["drift"] = require_finite(coeffs.beta(x, y), "beta", "element", elems)
        if coeffs.gamma is not None:
            fields["value"] = require_finite(coeffs.gamma(x, y), "gamma", "element", elems)
        volume[chunk] = space.volume_matrices(chunk, w, **fields)
        f = require_finite(coeffs.f(x, y), "f", "element", elems)
        volume_load[chunk] = space.volume_load(chunk, w, f)
        if ops is not None:
            root = _row_scale(AR, space.scales[chunk])[:, None]
            ops.matrices[chunk] = volume[chunk, :m] * root[..., None]
            ops.rhs[chunk] = volume_load[chunk, :m] * root

    for chunk in space.element_batches():
        volume_batch(chunk)
    penalty = sigma * _facet_means(mesh, means) / mesh.facet_lengths if diffusive else None
    return VolumeTerms(
        space, coeffs, penalty, volume, volume_load, bn_inner, _block_layout(mesh, couples), ops,
    )


def assemble_in_basis(terms, bases=None, width=None):
    """The facet pass: the operator blocks and the load of the form whose
    volume pass is ``terms``, in a per-element basis, in the layout of the
    terms. Returns the blocks ``(B, w, v)`` and the load ``(E w,)``.

    Without ``bases`` the basis is the broken one (``w = v = nd``), and
    the blocks and the load are those of the DG system, whose diagonal
    blocks take over the volume blocks: they leave ``terms``, so that the
    volume stack and the DG operator are not held at once. The passes in
    another basis come first.

    Otherwise the test functions of element ``K`` are the first ``width``
    columns ``W_K`` of ``bases[0][K]`` (all by default) and its trial
    functions the columns of every stack of ``bases`` in turn, ``v`` of
    them: the blocks are ``W_K' A_KL [B_0L | B_1L | ...]`` and the load
    ``W_K' l_K``. The volume blocks are projected as ``W_K' V_K [B_0K |
    B_1K | ...]``, and every facet's traces are contracted with the stacks
    of its elements before the Gram products (:func:`_facet_terms`), so no
    DG block is formed.

    Each diagonal block is its volume block plus the element's facet self
    blocks, summed from zero in an order that the facet numbering fixes:
    runs of :data:`_SELF_RUN` interior facets, the K1 self blocks of a run
    before its K2 ones, which wait in a buffer of one run, then the
    boundary facets. Each bounded batch of facets writes its coupling
    blocks into their slots and adds its self blocks into the diagonal
    ones before the next batch is formed.
    """
    space, coeffs = terms.space, terms.coeffs
    mesh = space.mesh
    nd = space.ndof_local
    inner, outer = mesh.interior_facets, mesh.boundary_facets
    left, right = mesh.facet_left[inner], mesh.facet_right[inner]
    fpts, fw = space.facet_rule
    diffusive = coeffs.alpha is not None
    layout = terms.layout
    diagonal, pairs = layout.diagonal, layout.pairs
    if bases is None:
        volume, volume_load = terms.volume, terms.volume_load
        terms.volume = terms.volume_load = None
    else:
        test_basis = np.swapaxes(bases[0][:, :, :width], 1, 2)
        projected = test_basis @ terms.volume
        volume = np.concatenate([projected @ basis for basis in bases], axis=2)
        volume_load = (test_basis @ terms.volume_load[..., None])[..., 0]
    w, v = volume.shape[1:]
    # the columns of the first stack, of which the first w are tested; the
    # batches depend on these alone, so that the columns of the first stack
    # come out of the same operations whatever the other stacks
    u = nd if bases is None else bases[0].shape[2]
    batch = max(1, _FACET_ENTRIES // (4 * nd * u))
    # each sum starts from zero, which turns -0.0 into 0.0; in place, as
    # the scatter below then gathers no copy
    volume += 0.0
    data = np.zeros((len(layout.indices), w, v))
    data[diagonal] = volume
    load = volume_load.ravel() + 0.0
    del volume, volume_load

    def facet_batch(facets, n_sides, bn):
        """The facet matrices and test tables of a batch of ``facets`` in
        jump/average form, from ``beta.n`` at their points."""
        fw_ = fw[facets]
        interior = n_sides == 2
        c_avg = -0.5 * bn if interior else np.zeros_like(fw_)
        c_jump = 0.5 * np.abs(bn) if interior else np.where(bn < 0.0, -bn, 0.0)
        c_flux = None
        if diffusive:
            pts = fpts[facets]
            alpha = coeffs.alpha(pts[..., 0], pts[..., 1])
            alpha = require_positive(alpha, "alpha", "facet", facets)
            c_jump = c_jump + terms.penalty[facets][:, None]
            # the average of a one-sided trace is the trace itself
            c_flux = -alpha / n_sides
        return _facet_terms(space, facets, n_sides, fw_, c_avg, c_jump, c_flux, bases, w)

    def interior_batch(part, k2_blocks):
        """Write the kept coupling blocks of the interior facets ``part``
        into their slots, add their K1 self blocks to the diagonal blocks
        and leave their K2 self blocks in ``k2_blocks``."""
        M, _ = facet_batch(inner[part], 2, terms.bn_inner[part])
        for slots, block in zip(pairs[:, part], (M[:, :w, v:], M[:, w:, :v])):
            kept = slots >= 0
            data[slots[kept]] = block[kept]
        _add_in_order(data, diagonal[left[part]], M[:, :w, :v])
        k2_blocks[...] = M[:, w:, v:]

    def boundary_batch(facets):
        """Add the self blocks of the boundary ``facets`` to the diagonal
        blocks, and the Dirichlet data, as the trial trace of the jump, to
        the load."""
        pts, owners = fpts[facets], mesh.facet_left[facets]
        bn = np.zeros(pts.shape[:2])
        if coeffs.beta is not None:
            bn = _beta_normal(coeffs, pts, mesh, facets)
        M, test = facet_batch(facets, 1, bn)
        _add_in_order(data, diagonal[owners], M)
        g = require_finite(coeffs.g_D(pts[..., 0], pts[..., 1]), "g_D", "facet", facets)
        lb = np.einsum("fq,fqi->fi", fw[facets] * g, test)
        np.add.at(load, owners[:, None] * w + np.arange(w), lb)

    # interior facets in runs of _SELF_RUN, the K2 self blocks of a run
    # after its K1 ones, then the one-sided boundary facets
    k2_run = np.empty((min(_SELF_RUN, len(inner)), w, v))
    for run in batches(len(inner), _SELF_RUN):
        for chunk in batches(run.stop - run.start, batch):
            interior_batch(slice(run.start + chunk.start, run.start + chunk.stop), k2_run[chunk])
        # a self block has a quarter of the entries of a facet matrix
        for chunk in batches(run.stop - run.start, 4 * batch):
            _add_in_order(data, diagonal[right[run][chunk]], k2_run[chunk])
    del k2_run
    for chunk in batches(len(outer), batch):
        boundary_batch(outer[chunk])
    return data, load


def global_system(terms):
    """The DG system of the volume pass ``terms``: its facet pass in the
    broken basis."""
    data, load = assemble_in_basis(terms)
    layout = terms.layout
    blocks = sparse.bsr_matrix((data, layout.indices, layout.indptr), shape=(len(load),) * 2)
    return DgSystem(blocks, load, terms.space, penalty=terms.penalty, layout=layout)


def assemble_global_system(space, coeffs, sigma=None):
    """Assemble the DG matrix and load vector on the broken ``space`` in
    the form the data picks: the volume pass
    (:func:`assemble_volume_terms`, which documents the forms and the
    penalty) and the facet pass in the broken basis (:func:`global_system`)."""
    return global_system(assemble_volume_terms(space, coeffs, sigma))

