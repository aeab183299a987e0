"""Per-element operator matrices A_K and load vectors for the local
problems, covering the volume-projected, box-restricted, and
point-derivative (quasi-Trefftz) operator kinds.

Rows are expressed against an L2-orthonormal test basis of the kind's
test space (or the plain multi-index entries for the quasi-Trefftz
kind), so dual norms of A_K u reduce to Euclidean vector norms. The
mesh-size scalings baked into each kind keep the induced norms uniform
in h; diagnostics downstream rely on them.

The volume-projected and box-restricted kinds share one batched kernel
over per-element test rules, which takes the trial basis tabulated on the
rule. On the space's volume rule that is one product with the space's
kept monomial table, and the test basis is its leading columns. The
quasi-Trefftz kind has one batched point-derivative kernel at the element
centers. The per-element entry points :func:`assemble_local_operator` and
:func:`leibniz_point_derivative` are batches of one of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    _orthonormalizer,
    evaluate_basis,
    polynomial_exponents,
    scaled_monomials,
    space_dimension,
    tabulate,
)
from .coefficients import require_finite, require_positive
from .quadrature import box_rule, triangle_rule

AR = "AR"
DAR = "DAR"
DAR_BOX = "DAR_BOX"
QT_DIFFUSION = "QT_DIFFUSION"
KINDS = frozenset({AR, DAR, DAR_BOX, QT_DIFFUSION})

_CHUNK = 2048


class MultiIndexSet:
    """Fixed graded-lexicographic ordering of 2D multi-indices up to a
    total order."""

    def __init__(self, order):
        if order < 0:
            raise ValueError("multi-index order must be nonnegative")
        self.order = int(order)
        self.indices = polynomial_exponents(self.order)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i):
        return self.indices[i]


@dataclass(frozen=True)
class ElementBox:
    """Axis-aligned square used by the box-restricted operator kind."""

    center: np.ndarray
    side: float

    @property
    def h(self):
        """Diameter of the box (consistent with h_K = diam K)."""
        return self.side * math.sqrt(2.0)

    @property
    def corners(self):
        half = self.side / 2.0
        offsets = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        return self.center[None, :] + half * offsets


@dataclass
class LocalOperator:
    kind: str
    element: int
    matrix: np.ndarray
    rhs: np.ndarray

    @property
    def n_rows(self):
        return self.matrix.shape[0]


def operator_row_count(kind, p):
    """Row count of the local operator for polynomial degree ``p``."""
    if kind == AR:
        return space_dimension(p - 1)
    if kind in (DAR, DAR_BOX, QT_DIFFUSION):
        return space_dimension(p - 2) if p >= 2 else 0
    raise ValueError(f"unknown local operator kind {kind!r}")


def compute_box(mesh, element, scale):
    """Axis-aligned square inside element ``element``.

    Starts from a square of side ``scale * h_K`` centered at the incenter
    and shrinks by factor 0.9 until all four corners lie in the closed
    element. Fails after 50 shrink steps (degenerate element).
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"box scale must be positive and finite, got {scale}")
    geo = mesh.element_geometry(element)
    verts = mesh.vertices[mesh.triangles[element]]
    T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    Tinv = np.linalg.inv(T)
    center = geo.incenter
    side = scale * geo.h
    for _ in range(50):
        box = ElementBox(center=center, side=side)
        lam = (Tinv @ (box.corners - verts[0]).T).T
        bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
        if np.all(bary >= -1e-12):
            return box
        side *= 0.9
    raise RuntimeError(
        f"no box of relative size {scale} fits inside element {element} "
        f"after 50 shrink steps (degenerate element)"
    )


def _validate(kind, p, coeffs):
    """Preconditions of each operator kind on the degree and the data."""
    if kind not in KINDS:
        raise ValueError(f"unknown local operator kind {kind!r}")
    if kind == AR:
        if p < 1:
            raise ValueError("AR local operator requires degree p >= 1")
        if coeffs.beta is None:
            raise ValueError("AR local operator requires an advection field beta")
        return
    if p < 2:
        raise ValueError(f"{kind} local operator requires degree p >= 2")
    if coeffs.alpha is None:
        raise ValueError(f"{kind} local operator requires a diffusion field alpha")
    if kind == QT_DIFFUSION:
        if not coeffs.alpha.has_derivatives(p - 1):
            raise ValueError("quasi-Trefftz assembly needs alpha derivatives up to order p-1")
        if not coeffs.f.has_derivatives(p - 2):
            raise ValueError("quasi-Trefftz assembly needs source derivatives up to order p-2")


def _operator_kernel(kind, coeffs, elems, rule, trial, test, scale):
    """Matrices and loads of the AR, DAR or DAR_BOX operator on a batch of
    elements.

    ``rule`` is a positive-weight rule per element on the test domain
    (points ``(E, nq, 2)``, weights ``(E, nq)``). ``trial`` is the
    degree-``p`` trial basis tabulated at its points (a ``BasisEval`` with
    values, gradients and, but for AR, Laplacians), and ``test`` holds the
    values ``(E, nq, m)`` of a test basis orthonormal on the rule. Rows and
    loads carry the kind's mesh-size factor ``scale`` ``(E,)``, see
    :func:`_row_scale`.
    """
    pts, w = rule
    x, y = pts[..., 0], pts[..., 1]
    beta = None
    if coeffs.beta is not None:
        beta = require_finite(coeffs.beta(x, y), "beta", "element", elems)
    if kind == AR:
        vals = np.einsum("eqjd,eqd->eqj", trial.gradients, beta)
    else:
        # -div(alpha grad phi) = -(alpha lap phi + grad alpha . grad phi)
        alpha_vals = require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
        ax = coeffs.alpha.derivative(1, 0)(x, y)
        ay = coeffs.alpha.derivative(0, 1)(x, y)
        vals = -(
            alpha_vals[..., None] * trial.laplacians
            + ax[..., None] * trial.gradients[..., 0]
            + ay[..., None] * trial.gradients[..., 1]
        )
        if beta is not None:
            vals += np.einsum("eqjd,eqd->eqj", trial.gradients, beta)
    if coeffs.gamma is not None:
        gamma = require_finite(coeffs.gamma(x, y), "gamma", "element", elems)
        vals += gamma[..., None] * trial.values
    f = require_finite(coeffs.f(x, y), "f", "element", elems)
    # scaled, weighted test values: A = Q_w^T V and l = Q_w^T f per element
    qw = test * (scale[:, None] * w)[..., None]
    return np.swapaxes(qw, -1, -2) @ vals, np.einsum("eqi,eq->ei", qw, f)


def _row_scale(kind, s):
    """Mesh-size factor of the rows for test monomials of scale ``s``:
    ``sqrt(s)`` for AR and ``s`` otherwise."""
    s = np.asarray(s, dtype=float)
    return np.sqrt(s) if kind == AR else s


def _test_basis(kind, p, rule, centers, scales):
    """Values of the kind's test basis, orthonormalized on ``rule`` (points
    and weights per element, exact to twice the test degree), over the
    monomials of the given centers and scales."""
    pts, w = rule
    mono = scaled_monomials(pts, centers, scales, p - 1 if kind == AR else p - 2)
    return mono @ np.swapaxes(_orthonormalizer(w, mono), -1, -2)


def _qt_kernel(coeffs, p, elems, trial, h):
    """Quasi-Trefftz rows and loads on a batch of elements: the derivatives
    ``D^i``, ``|i| <= p - 2``, of the PDE residual at the trial centers,
    scaled by ``h**(1.5 + |i|)`` with the element diameters ``h`` ``(E,)``.
    ``trial`` holds the centers ``(E, 2)``, scales ``(E,)`` and
    orthonormalization matrices ``(E, n, n)`` of the degree-``p`` trial
    bases. No quadrature involved.
    """
    x, y = trial[0].T
    require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
    indices = MultiIndexSet(p - 2).indices
    scale = np.asarray(h, dtype=float)[:, None] ** (1.5 + np.sum(indices, axis=1))
    f = np.stack([coeffs.f.derivative(*i)(x, y) for i in indices], axis=1)
    require_finite(f, "f", "element", elems)
    rows = _leibniz_rows(indices, coeffs.alpha, p, trial[0], trial)
    return -scale[..., None] * rows, scale * f


def _leibniz_rows(indices, alpha, p, points, trial):
    """``D^i div(alpha grad phi_j)`` at one point per element, for every
    multi-index ``i`` of ``indices`` and every trial basis function ``j``:
    points ``(E, 2)`` in, ``(E, len(indices), n)`` out.

    Expands div(alpha grad w) = alpha lap(w) + grad(alpha).grad(w) and
    applies the Leibniz product rule; all polynomial derivatives are exact.
    Each basis and alpha derivative is evaluated once for the whole batch,
    so the loops run over multi-indices only.
    """
    pts = np.asarray(points, dtype=float)[:, None]
    top = max(ix + iy for ix, iy in indices) + 1
    a = {d: alpha.derivative(*d)(pts[..., 0], pts[..., 1]) for d in polynomial_exponents(top)}
    centers, scales, G = trial
    derivatives = polynomial_exponents(top + 1)
    mono = scaled_monomials(pts, centers, scales, p)
    tab = tabulate(mono, np.swapaxes(G, -1, -2), scales, p, [(d,) for d in derivatives])
    phi = dict(zip(derivatives, np.moveaxis(tab[:, 0], 1, 0)))
    rows = np.zeros((len(pts), len(indices), G.shape[-1]))
    for row, (ix, iy) in enumerate(indices):
        for lx, ly in itertools.product(range(ix + 1), range(iy + 1)):
            binom = math.comb(ix, lx) * math.comb(iy, ly)
            rx, ry = ix - lx, iy - ly
            rows[:, row] += binom * a[lx, ly] * (phi[rx + 2, ry] + phi[rx, ry + 2])
            rows[:, row] += binom * (
                a[lx + 1, ly] * phi[rx + 1, ry] + a[lx, ly + 1] * phi[rx, ry + 1]
            )
    return rows


def assemble_local_operator(kind, mesh, element, basis, coeffs, box_scale=0.25):
    """Matrix representation of the local operator on one element.

    ``basis`` is the element's orthonormal trial basis of degree p. The
    returned rows are tested against an orthonormal basis of the kind's
    test space; the load vector carries the same mesh-size scaling as the
    operator. Every kind is a batch of one of the kernel that
    :func:`assemble_local_operators` uses.
    """
    p = basis.degree
    _validate(kind, p, coeffs)
    trial = (basis.center[None], np.array([basis.scale]), basis.G[None])
    if kind == QT_DIFFUSION:
        matrices, loads = _qt_kernel(coeffs, p, [element], trial, [mesh.h[element]])
    else:
        if kind == DAR_BOX:
            box = compute_box(mesh, element, box_scale)
            rule = box_rule(box.center, box.side, 2 * p + 4)
            center, scale = box.center, box.h
        else:
            rule = triangle_rule(mesh.vertices[mesh.triangles[element]], 2 * p + 4, positive=True)
            center, scale = mesh.centroids[element], mesh.h[element]
        rule = (rule.points[None], rule.weights[None])
        tab = evaluate_basis(rule[0], *trial, p, gradients=True, laplacians=kind != AR)
        test = _test_basis(kind, p, rule, [center], [scale])
        matrices, loads = _operator_kernel(
            kind, coeffs, [element], rule, tab, test, _row_scale(kind, [scale])
        )
    return LocalOperator(kind=kind, element=element, matrix=matrices[0], rhs=loads[0])


def assemble_local_operators(kind, space, coeffs, box_scale=0.25):
    """Local operators for every element of a broken space.

    All kinds but the box one run in element batches: the volume-projected
    kinds through the operator kernel with the space's volume rule as test
    domain, the quasi-Trefftz kind through the point-derivative kernel at
    the element centers. The box kind goes element by element, as each
    element has its own box.
    """
    mesh = space.mesh
    p = space.degree
    _validate(kind, p, coeffs)
    if kind == DAR_BOX:
        return [
            assemble_local_operator(
                kind, mesh, k, space.element_basis(k), coeffs, box_scale=box_scale
            )
            for k in range(mesh.n_elements)
        ]
    ops = []
    for start in range(0, mesh.n_elements, _CHUNK):
        chunk = slice(start, min(start + _CHUNK, mesh.n_elements))
        elems = np.arange(chunk.start, chunk.stop)
        if kind == QT_DIFFUSION:
            trial = (space.centers[chunk], space.scales[chunk], space.G[chunk])
            matrices, loads = _qt_kernel(coeffs, p, elems, trial, space.scales[chunk])
        else:
            # the space's basis is orthonormal on the same rule and graded by
            # degree, so its leading columns are the test basis
            tab = space.volume_basis(chunk, gradients=True, laplacians=kind != AR)
            test = tab.values[..., : operator_row_count(kind, p)]
            rule = (space.volume_points[chunk], space.volume_weights[chunk])
            scale = _row_scale(kind, space.scales[chunk])
            matrices, loads = _operator_kernel(kind, coeffs, elems, rule, tab, test, scale)
        ops.extend(
            LocalOperator(kind=kind, element=int(k), matrix=m, rhs=r)
            for k, m, r in zip(elems, matrices, loads)
        )
    return ops


def leibniz_point_derivative(index, basis, coefficients, alpha, point):
    """Exact value of D^index div(alpha grad w)(point) for the polynomial
    ``w`` given by coefficients in the element basis; a batch of one of the
    Leibniz rows of the quasi-Trefftz kernel. Fails if ``alpha`` has no
    derivative oracle of order ``|index| + 1``."""
    trial = (basis.center[None], np.array([basis.scale]), basis.G[None])
    rows = _leibniz_rows([tuple(index)], alpha, basis.degree, np.reshape(point, (1, 2)), trial)
    return float(rows[0, 0] @ np.asarray(coefficients, dtype=float))
