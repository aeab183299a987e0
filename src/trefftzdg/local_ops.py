"""Per-element operator matrices A_K and load vectors for the local
problems, covering the volume-projected, box-restricted, and
point-derivative (quasi-Trefftz) operator kinds.

Rows are expressed against an L2-orthonormal test basis of the kind's
test space (or the plain multi-index entries for the quasi-Trefftz
kind), so dual norms of A_K u reduce to Euclidean vector norms. The
mesh-size scalings baked into each kind keep the induced norms uniform
in h; diagnostics downstream rely on them.

The volume-projected and box-restricted kinds share one batched kernel
over per-element test rules; the per-element entry point
:func:`assemble_local_operator` is a batch of one of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    _orthonormalizer,
    evaluate_basis,
    polynomial_exponents,
    scaled_monomials,
    space_dimension,
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
    box: ElementBox = None

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
    if scale <= 0:
        raise ValueError("box scale must be positive")
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


def _operator_kernel(kind, coeffs, p, elems, trial, test):
    """Matrices and loads of the AR, DAR or DAR_BOX operator on a batch of
    elements.

    ``trial`` holds the centers ``(E, 2)``, scales ``(E,)`` and
    orthonormalization matrices ``(E, n, n)`` of the degree-``p`` trial
    bases. ``test`` holds, per element, a positive-weight rule on the test
    domain (points ``(E, nq, 2)``, weights ``(E, nq)``) and the center and
    scale ``s`` of the test monomials; the test basis is orthonormalized on
    that rule, so it must be exact to twice the test degree. Rows and loads
    carry the kind's mesh-size factor, ``sqrt(s)`` for AR and ``s`` otherwise.
    """
    centers, scales, G = trial
    pts, w, test_centers, test_scales = test
    x, y = pts[..., 0], pts[..., 1]
    ev = evaluate_basis(pts, centers, scales, G, p, gradients=True, hessians=kind != AR)
    mono_q = scaled_monomials(pts, test_centers, test_scales, p - 1 if kind == AR else p - 2)
    qv = mono_q @ np.swapaxes(_orthonormalizer(w, mono_q), -1, -2)
    beta = None
    if coeffs.beta is not None:
        beta = coeffs.beta(x, y)
        require_finite(beta, "beta", "element", elems)
    if kind == AR:
        vals = np.einsum("eqjd,eqd->eqj", ev.gradients, beta)
        scale = np.sqrt(test_scales)
    else:
        # -div(alpha grad phi) = -(alpha lap phi + grad alpha . grad phi)
        alpha_vals = coeffs.alpha(x, y)
        require_positive(alpha_vals, "alpha", "element", elems)
        ax = coeffs.alpha.derivative(1, 0)(x, y)
        ay = coeffs.alpha.derivative(0, 1)(x, y)
        lap = ev.hessians[..., 0, 0] + ev.hessians[..., 1, 1]
        vals = -(
            alpha_vals[..., None] * lap
            + ax[..., None] * ev.gradients[..., 0]
            + ay[..., None] * ev.gradients[..., 1]
        )
        if beta is not None:
            vals += np.einsum("eqjd,eqd->eqj", ev.gradients, beta)
        scale = np.asarray(test_scales, dtype=float)
    if coeffs.gamma is not None:
        gamma = coeffs.gamma(x, y)
        require_finite(gamma, "gamma", "element", elems)
        vals += gamma[..., None] * ev.values
    f = coeffs.f(x, y)
    require_finite(f, "f", "element", elems)
    # scaled, weighted test values: A = Q_w^T V and l = Q_w^T f per element
    qw = qv * (scale[:, None] * w)[..., None]
    return np.swapaxes(qw, -1, -2) @ vals, np.einsum("eqi,eq->ei", qw, f)


def assemble_local_operator(kind, mesh, element, basis, coeffs, box_scale=0.25):
    """Matrix representation of the local operator on one element.

    ``basis`` is the element's orthonormal trial basis of degree p. The
    returned rows are tested against an orthonormal basis of the kind's
    test space; the load vector carries the same mesh-size scaling as the
    operator. The AR, DAR and DAR_BOX kinds are a batch of one of the
    kernel that :func:`assemble_local_operators` uses.
    """
    p = basis.degree
    _validate(kind, p, coeffs)
    if kind == QT_DIFFUSION:
        return _qt_operator(mesh, element, basis, coeffs)
    box = None
    if kind == DAR_BOX:
        box = compute_box(mesh, element, box_scale)
        rule = box_rule(box.center, box.side, 2 * p + 4)
        center, scale = box.center, box.h
    else:
        rule = triangle_rule(mesh.vertices[mesh.triangles[element]], 2 * p + 4, positive=True)
        center, scale = mesh.centroids[element], mesh.h[element]
    trial = (basis.center[None], np.array([basis.scale]), basis.G[None])
    test = (rule.points[None], rule.weights[None], np.array([center]), np.array([scale]))
    matrices, loads = _operator_kernel(kind, coeffs, p, [element], trial, test)
    return LocalOperator(kind=kind, element=element, matrix=matrices[0], rhs=loads[0], box=box)


def _qt_operator(mesh, element, basis, coeffs):
    """Quasi-Trefftz rows: scaled point derivatives of the PDE residual at
    the element center; no quadrature involved."""
    p = basis.degree
    h_k = mesh.h[element]
    point = basis.center
    require_positive(coeffs.alpha(point[0], point[1])[None], "alpha", "element", [element])
    indices = MultiIndexSet(p - 2)
    matrix = np.empty((len(indices), basis.dim))
    rhs = np.empty(len(indices))
    for row, idx in enumerate(indices):
        scale = h_k ** (1.5 + idx[0] + idx[1])
        matrix[row] = -scale * _leibniz_basis_rows(idx, basis, coeffs.alpha, point)
        rhs[row] = scale * coeffs.f.derivative(*idx)(point[0], point[1])
    return LocalOperator(kind=QT_DIFFUSION, element=element, matrix=matrix, rhs=rhs)


def assemble_local_operators(kind, space, coeffs, box_scale=0.25):
    """Local operators for every element of a broken space.

    The volume-projected kinds run through the operator kernel in element
    batches, with the space's volume rule as test domain; the box and
    point-derivative kinds go element by element.
    """
    mesh = space.mesh
    _validate(kind, space.degree, coeffs)
    if kind in (DAR_BOX, QT_DIFFUSION):
        return [
            assemble_local_operator(
                kind, mesh, k, space.element_basis(k), coeffs, box_scale=box_scale
            )
            for k in range(mesh.n_elements)
        ]
    ops = []
    for start in range(0, mesh.n_elements, _CHUNK):
        elems = np.arange(start, min(start + _CHUNK, mesh.n_elements))
        centers, scales = space.centers[elems], space.scales[elems]
        trial = (centers, scales, space.G[elems])
        test = (space.volume_points[elems], space.volume_weights[elems], centers, scales)
        matrices, loads = _operator_kernel(kind, coeffs, space.degree, elems, trial, test)
        ops.extend(
            LocalOperator(kind=kind, element=int(k), matrix=m, rhs=r)
            for k, m, r in zip(elems, matrices, loads)
        )
    return ops


def _leibniz_basis_rows(index, basis, alpha, point):
    """D^index div(alpha grad phi_j)(point) for every basis function.

    Expands div(alpha grad w) = alpha lap(w) + grad(alpha).grad(w) and
    applies the Leibniz product rule; all polynomial derivatives are exact.
    """
    ix, iy = index
    pt = np.asarray(point, dtype=float)[None, :]
    cache = {}

    def dphi(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = basis.derivative(pt, (a, b))[0]
        return cache[(a, b)]

    px, py = float(point[0]), float(point[1])
    rows = np.zeros(basis.dim)
    for lx in range(ix + 1):
        for ly in range(iy + 1):
            binom = math.comb(ix, lx) * math.comb(iy, ly)
            rx, ry = ix - lx, iy - ly
            a_l = float(alpha.derivative(lx, ly)(px, py))
            rows += binom * a_l * (dphi(rx + 2, ry) + dphi(rx, ry + 2))
            a_x = float(alpha.derivative(lx + 1, ly)(px, py))
            a_y = float(alpha.derivative(lx, ly + 1)(px, py))
            rows += binom * (a_x * dphi(rx + 1, ry) + a_y * dphi(rx, ry + 1))
    return rows


def leibniz_point_derivative(index, basis, coefficients, alpha, point):
    """Exact value of D^index div(alpha grad w)(point) for the polynomial
    ``w`` given by coefficients in the element basis."""
    order = index[0] + index[1]
    if not alpha.has_derivatives(order + 1):
        raise ValueError(
            f"alpha derivative oracle does not reach order {order + 1}"
        )
    rows = _leibniz_basis_rows(index, basis, alpha, point)
    return float(rows @ np.asarray(coefficients, dtype=float))
