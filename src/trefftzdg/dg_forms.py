"""Global DG systems on the broken polynomial space: upwind
discretization of advection-reaction and symmetric interior penalty
discretization of diffusion-advection-reaction.

Assembly walks elements and facets in fixed order, evaluating every term
of the bilinear/linear forms by quadrature; inflow boundary portions are
detected pointwise from the sign of beta.n at facet quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .basis import BrokenSpace
from .coefficients import require_finite, require_positive
from .quadrature import facet_quadrature

AR_UPWIND = "AR_UPWIND"
DAR_SIP = "DAR_SIP"

_CHUNK = 4096


@dataclass
class DgSystem:
    """Assembled sparse DG operator and load vector.

    ``alpha_facet`` stores the facet-averaged diffusion coefficient used in
    the penalty terms (None for the pure advection form); error norms reuse
    it together with ``sigma``.
    """

    kind: str
    matrix: sparse.csr_matrix
    load: np.ndarray
    space: BrokenSpace
    sigma: float = None
    alpha_facet: np.ndarray = None

    @property
    def p(self):
        return self.space.degree


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


class _CooAccumulator:
    def __init__(self, ndof_local):
        self.nd = ndof_local
        self.rows, self.cols, self.vals = [], [], []

    def add(self, off_test, off_trial, blocks):
        nd = self.nd
        local = np.arange(nd, dtype=np.int32)
        r = (off_test[:, None] + local[None, :]).astype(np.int32)
        c = (off_trial[:, None] + local[None, :]).astype(np.int32)
        self.rows.append(np.repeat(r, nd, axis=1).ravel())
        self.cols.append(np.tile(c, (1, nd)).ravel())
        self.vals.append(blocks.ravel())

    def matrix(self, n):
        return sparse.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=(n, n),
        ).tocsr()


def _gram(w, a, b):
    """``sum_q w[e, q] a[e, q, i] b[e, q, j]`` for every batch entry ``e``."""
    return np.swapaxes(a * w[..., None], -1, -2) @ b


def _chunks(total, size=_CHUNK):
    """Consecutive slices of at most ``size`` entries; a slice views the
    arrays it indexes."""
    for start in range(0, total, size):
        yield slice(start, min(start + size, total))


def assemble_global_system(kind, mesh, p, coeffs, sigma=None, space=None):
    """Assemble the DG matrix and load vector.

    For :data:`DAR_SIP` the penalty ``sigma`` must be positive and finite,
    and a diffusion coefficient must be present; advection/reaction terms
    are included whenever the coefficients carry them. For
    :data:`AR_UPWIND` an advection field is required.
    """
    if kind not in (AR_UPWIND, DAR_SIP):
        raise ValueError(f"unknown DG form kind {kind!r}")
    if kind == AR_UPWIND and coeffs.beta is None:
        raise ValueError("AR_UPWIND requires an advection field beta")
    diffusive = kind == DAR_SIP
    if diffusive:
        if coeffs.alpha is None:
            raise ValueError("DAR_SIP requires a diffusion field alpha")
        if sigma is None or not 0 < sigma < math.inf:
            raise ValueError(
                f"DAR_SIP requires a positive finite penalty parameter sigma, got {sigma}"
            )
    if space is None:
        space = BrokenSpace(mesh, p)
    nd = space.ndof_local
    n_total = space.ndof_total
    acc = _CooAccumulator(nd)
    load = np.zeros(n_total)
    has_beta = coeffs.beta is not None
    has_gamma = coeffs.gamma is not None
    af = facet_alpha(space, coeffs) if diffusive else None

    # volume terms
    for chunk in _chunks(mesh.n_elements):
        elems = np.arange(chunk.start, chunk.stop)
        pts = space.volume_points[chunk]
        w = space.volume_weights[chunk]
        x, y = pts[..., 0], pts[..., 1]
        ev = space.volume_basis(chunk, gradients=True)
        blocks = np.zeros((len(elems), nd, nd))
        if diffusive:
            alpha = coeffs.alpha(x, y)
            require_positive(alpha, "alpha", "element", elems)
            for d in range(2):
                blocks += _gram(w * alpha, ev.gradients[..., d], ev.gradients[..., d])
        if has_beta:
            b = coeffs.beta(x, y)
            require_finite(b, "beta", "element", elems)
            badv = np.einsum("eqjd,eqd->eqj", ev.gradients, b)
            blocks += _gram(w, ev.values, badv)
        if has_gamma:
            gamma = coeffs.gamma(x, y)
            require_finite(gamma, "gamma", "element", elems)
            blocks += _gram(w * gamma, ev.values, ev.values)
        acc.add(space.offsets[elems], space.offsets[elems], blocks)
        fv = coeffs.f(x, y)
        require_finite(fv, "f", "element", elems)
        contrib = np.einsum("eq,eqi->ei", w * fv, ev.values)
        np.add.at(load, space.offsets[elems][:, None] + np.arange(nd)[None, :], contrib)

    fpts, fw = facet_quadrature(mesh, 2 * p + 2)

    # interior facets
    for chunk in _chunks(len(mesh.interior_facets)):
        facets = mesh.interior_facets[chunk]
        pts, w = fpts[facets], fw[facets]
        x, y = pts[..., 0], pts[..., 1]
        normals = mesh.facet_normals[facets]
        left, right = mesh.facet_left[facets], mesh.facet_right[facets]
        ev_l = space.eval_elements(left, pts, gradients=diffusive)
        ev_r = space.eval_elements(right, pts, gradients=diffusive)
        b = None
        if has_beta:
            beta = coeffs.beta(x, y)
            require_finite(beta, "beta", "facet", facets)
            b = np.einsum("fqd,fd->fq", beta, normals)
        if diffusive:
            alpha = coeffs.alpha(x, y)
            require_positive(alpha, "alpha", "facet", facets)
            pen = sigma * af[facets] / mesh.facet_lengths[facets]
            gn_l = np.einsum("fqid,fd->fqi", ev_l.gradients, normals)
            gn_r = np.einsum("fqid,fd->fqi", ev_r.gradients, normals)
        sides = ((left, ev_l, 1.0), (right, ev_r, -1.0))
        for elems_a, ev_a, sa in sides:
            for elems_b, ev_b, sb in sides:
                coef = np.zeros_like(w)
                if has_beta:
                    # -(beta.n)[u]{v} + 1/2 |beta.n| [u][v]
                    coef += -0.5 * b * sb + 0.5 * np.abs(b) * sa * sb
                if diffusive:
                    coef += pen[:, None] * sa * sb
                blocks = _gram(w * coef, ev_a.values, ev_b.values)
                if diffusive:
                    gn_b = gn_l if sb > 0 else gn_r
                    gn_a = gn_l if sa > 0 else gn_r
                    blocks += _gram(w * (-0.5 * alpha * sa), ev_a.values, gn_b)
                    blocks += _gram(w * (-0.5 * alpha * sb), gn_a, ev_b.values)
                acc.add(space.offsets[elems_a], space.offsets[elems_b], blocks)

    # boundary facets
    for chunk in _chunks(len(mesh.boundary_facets)):
        facets = mesh.boundary_facets[chunk]
        pts, w = fpts[facets], fw[facets]
        x, y = pts[..., 0], pts[..., 1]
        normals = mesh.facet_normals[facets]
        left = mesh.facet_left[facets]
        ev = space.eval_elements(left, pts, gradients=diffusive)
        g = coeffs.g_D(x, y)
        require_finite(g, "g_D", "facet", facets)
        coef = np.zeros_like(w)
        load_coef = np.zeros_like(w)
        if has_beta:
            beta = coeffs.beta(x, y)
            require_finite(beta, "beta", "facet", facets)
            b = np.einsum("fqd,fd->fq", beta, normals)
            inflow = np.where(b < 0.0, -b, 0.0)
            coef += inflow
            load_coef += inflow * g
        blocks = None
        if diffusive:
            alpha = coeffs.alpha(x, y)
            require_positive(alpha, "alpha", "facet", facets)
            pen = sigma * af[facets] / mesh.facet_lengths[facets]
            coef += pen[:, None]
            load_coef += pen[:, None] * g
            gn = np.einsum("fqid,fd->fqi", ev.gradients, normals)
            blocks = _gram(w * (-alpha), ev.values, gn)
            blocks += _gram(w * (-alpha), gn, ev.values)
            lb = np.einsum("fq,fqi->fi", w * (-alpha) * g, gn)
            np.add.at(load, space.offsets[left][:, None] + np.arange(nd)[None, :], lb)
        vv = _gram(w * coef, ev.values, ev.values)
        blocks = vv if blocks is None else blocks + vv
        acc.add(space.offsets[left], space.offsets[left], blocks)
        lb = np.einsum("fq,fqi->fi", w * load_coef, ev.values)
        np.add.at(load, space.offsets[left][:, None] + np.arange(nd)[None, :], lb)

    return DgSystem(
        kind=kind,
        matrix=acc.matrix(n_total),
        load=load,
        space=space,
        sigma=sigma,
        alpha_facet=af,
    )


def export_matrix_coo(system, target):
    """Write the sparse matrix as ``row col value`` lines (sorted)."""
    if hasattr(target, "write"):
        _write_coo(system.matrix, target)
    else:
        with open(target, "w", newline="\n") as fh:
            _write_coo(system.matrix, fh)


def _write_coo(matrix, fh):
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    for i in order:
        fh.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.16e}\n")
