"""Per-element operator matrices A_K and load vectors for the local
problems, covering the volume-projected, box-restricted, and
point-derivative (quasi-Trefftz) operator kinds.

Rows are expressed against an L2-orthonormal test basis of the kind's
test space (or the plain multi-index entries for the quasi-Trefftz
kind), so dual norms of A_K u reduce to Euclidean vector norms. The
mesh-size scalings baked into each kind keep the induced norms uniform
in h; diagnostics downstream rely on them.

Every trial basis is the reference-triangle basis mapped to its element
(:mod:`trefftzdg.basis`). The volume-projected and box-restricted kinds
write the PDE operator as ``value phi + drift . grad phi + laplacian lap
phi`` with coefficients evaluated once per point (:func:`_operator_fields`)
and mapped onto the reference derivatives of the basis. The trial basis is
orthonormal on its element and graded by degree, so on the space's volume
rule the test basis is its leading columns, and the operators of a batch
of elements are one matrix product of the mapped, weighted coefficients
with the space's reference tables (:meth:`BrokenSpace.volume_matrices`).
For ``AR`` these are the scaled leading rows of the DG volume blocks, so
``run`` takes them from assembly. The box kind runs element by element:
its rule and test basis are those of the unit square, built once per
degree and mapped to each box, and the operator is applied to the trial
basis at the mapped rule points (:meth:`BrokenSpace.apply`). The
quasi-Trefftz kind has one batched point-derivative kernel at the element
centers, fed with the trial basis derivatives up to order ``p`` there
(chain rule of the affine map). For every kind but the box one,
:func:`assemble_local_operator` is a batch of one of the batched code.

Which kinds fit the PDE data is one rule, :func:`kind_misfit`: every
kind must represent the whole operator, so the library and the CLI reject
the same pairs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    _orthonormalizer,
    polynomial_exponents,
    scaled_monomials,
    space_dimension,
)
from .coefficients import require_finite, require_positive
from .quadrature import box_rule

AR = "AR"
DAR = "DAR"
DAR_BOX = "DAR_BOX"
QT_DIFFUSION = "QT_DIFFUSION"
KINDS = frozenset({AR, DAR, DAR_BOX, QT_DIFFUSION})


@dataclass(frozen=True)
class ElementBox:
    """Axis-aligned square used by the box-restricted operator kind."""

    center: np.ndarray
    side: float

    @property
    def h(self):
        """Diameter of the box (consistent with h_K = diam K)."""
        return self.side * math.sqrt(2.0)


@dataclass
class LocalOperator:
    kind: str
    element: int
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class LocalOperatorBatch(Sequence):
    """Local operators as stacks, ``matrices`` ``(E, m, n)`` and loads
    ``rhs`` ``(E, m)`` of ``elements``: a sequence of :class:`LocalOperator`
    views."""

    kind: str
    elements: np.ndarray
    matrices: np.ndarray
    rhs: np.ndarray

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, k):
        return LocalOperator(self.kind, int(self.elements[k]), self.matrices[k], self.rhs[k])


def operator_row_count(kind, p):
    """Row count of the local operator for polynomial degree ``p``."""
    if kind == AR:
        return space_dimension(p - 1)
    if kind in (DAR, DAR_BOX, QT_DIFFUSION):
        return space_dimension(p - 2) if p >= 2 else 0
    raise ValueError(f"unknown local operator kind {kind!r}")


def compute_box(mesh, element, scale):
    """Axis-aligned square of side ``scale * h_K`` centered at the incenter
    of element ``element``, clipped to the largest such square inside the
    element.

    The incenter lies at the inradius ``r_K`` from every edge line, so a
    square of half-side ``a`` fits exactly when ``a (|n_x| + |n_y|) <= r_K``
    for every unit edge normal ``n``. On structured meshes that allows
    sides up to ``0.2929 h_K``.
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"box scale must be positive and finite, got {scale}")
    if not 0 <= element < mesh.n_elements:
        raise IndexError(f"element index {element} out of range")
    verts = mesh.vertices[mesh.triangles[element]]
    edges = np.roll(verts, -1, axis=0) - verts
    # max_e |n_x| + |n_y|: a unit normal is its edge's unit tangent rotated
    tilt = np.max(np.abs(edges).sum(axis=1) / np.linalg.norm(edges, axis=1))
    side = min(scale * mesh.h[element], 2.0 * mesh.inradii[element] / tilt)
    return ElementBox(center=mesh.incenters[element].copy(), side=float(side))


def kind_misfit(kind, coeffs):
    """Why the local operator ``kind`` does not represent the PDE of the
    data ``coeffs``, naming the field, or None when it does: ``AR`` needs
    advection and no diffusion, the other kinds diffusion, and
    ``QT_DIFFUSION`` pure diffusion, as its kernel reads only ``alpha`` and
    ``f``."""
    if kind == AR:
        if coeffs.beta is None:
            return "AR local operator requires an advection field beta"
        if coeffs.alpha is not None:
            return "AR local operator would drop the diffusion field alpha of the data"
        return None
    if coeffs.alpha is None:
        return f"{kind} local operator requires a diffusion field alpha"
    if kind == QT_DIFFUSION:
        for term, name in (("advection", "beta"), ("reaction", "gamma")):
            if getattr(coeffs, name) is not None:
                return f"{kind} local operator would drop the {term} field {name} of the data"
    return None


def _validate(kind, p, coeffs):
    """Preconditions of each operator kind on the degree and the data."""
    if kind not in KINDS:
        raise ValueError(f"unknown local operator kind {kind!r}")
    p_min = 1 if kind == AR else 2
    if p < p_min:
        raise ValueError(f"{kind} local operator requires degree p >= {p_min}")
    misfit = kind_misfit(kind, coeffs)
    if misfit:
        raise ValueError(misfit)


def _operator_fields(kind, coeffs, elems, points):
    """The AR, DAR or DAR_BOX operator ``L phi = value phi + drift . grad
    phi + laplacian lap phi`` and the source at per-element points
    ``(E, nq, 2)``, as the dict of coefficients (``drift`` ``(E, nq, 2)``,
    the others ``(E, nq)``) and ``f``."""
    x, y = points[..., 0], points[..., 1]
    fields = {}
    if coeffs.beta is not None:
        fields["drift"] = require_finite(coeffs.beta(x, y), "beta", "element", elems)
    if kind != AR:
        # -div(alpha grad phi) = -alpha lap phi - grad alpha . grad phi
        alpha = require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
        grad_alpha = np.stack(
            [coeffs.alpha.derivative(1, 0)(x, y), coeffs.alpha.derivative(0, 1)(x, y)], axis=-1
        )
        fields["laplacian"] = -alpha
        fields["drift"] = fields.get("drift", 0.0) - grad_alpha
    if coeffs.gamma is not None:
        fields["value"] = require_finite(coeffs.gamma(x, y), "gamma", "element", elems)
    return fields, require_finite(coeffs.f(x, y), "f", "element", elems)


def _row_scale(kind, s):
    """Mesh-size factor of the rows for test monomials of scale ``s``:
    ``sqrt(s)`` for AR and ``s`` otherwise."""
    s = np.asarray(s, dtype=float)
    return np.sqrt(s) if kind == AR else s


@lru_cache(maxsize=None)
def _unit_box_test_basis(p):
    """Values ``(nq, m)`` of the box kind's test basis on the unit square,
    at the points of its degree-``2p + 4`` rule; read-only, as every box
    shares them.

    The test basis orthonormalizes the scaled monomials about the box
    center, of scale the box diameter, on the box rule. A box of side ``s``
    is the unit square scaled by ``s``: its rule has the same points in box
    coordinates and weights scaled by ``s**2``, and its test monomials, of
    scale ``s sqrt(2)``, take the same values. Graded Gram-Schmidt commutes
    with that scaling, so the box's test values are these divided by ``s``.
    """
    unit = ElementBox(center=np.array([0.5, 0.5]), side=1.0)
    rule = box_rule(unit.center, unit.side, 2 * p + 4)
    mono = scaled_monomials(rule.points[None], unit.center[None], [unit.h], p - 2)
    G = _orthonormalizer(rule.weights[None], mono)
    values = (mono @ np.swapaxes(G, -1, -2))[0]
    values.flags.writeable = False
    return values


def _qt_kernel(coeffs, p, elems, centers, phi, h):
    """Quasi-Trefftz rows and loads on a batch of elements: the derivatives
    ``D^i``, ``|i| <= p - 2``, of the PDE residual at the element
    ``centers`` ``(E, 2)``, scaled by ``h**(1.5 + |i|)`` with the element
    diameters ``h`` ``(E,)``. ``phi`` ``(E, K, n)`` holds every derivative
    of order at most ``p`` of the degree-``p`` trial bases at the centers,
    graded-lex. No quadrature involved.
    """
    x, y = centers.T
    require_positive(coeffs.alpha(x, y), "alpha", "element", elems)
    indices = polynomial_exponents(p - 2)
    scale = np.asarray(h, dtype=float)[:, None] ** (1.5 + np.sum(indices, axis=1))
    f = np.stack([coeffs.f.derivative(*i)(x, y) for i in indices], axis=1)
    require_finite(f, "f", "element", elems)
    rows = _leibniz_rows(indices, coeffs.alpha, centers, phi)
    return -scale[..., None] * rows, scale * f


def _leibniz_rows(indices, alpha, points, phi):
    """``D^i div(alpha grad phi_j)`` at one point per element, for every
    multi-index ``i`` of ``indices`` and every trial basis function ``j``:
    points ``(E, 2)`` and the trial basis derivatives ``phi`` ``(E, K, n)``
    there, every one of order at most ``max |i| + 2`` in graded-lex order,
    in; ``(E, len(indices), n)`` out.

    Expands div(alpha grad w) = alpha lap(w) + grad(alpha).grad(w) and
    applies the Leibniz product rule; all polynomial derivatives are exact.
    Each alpha derivative is evaluated once for the whole batch, so the
    loops run over multi-indices only.
    """
    pts = np.asarray(points, dtype=float)[:, None]
    top = max(ix + iy for ix, iy in indices) + 1
    a = {d: alpha.derivative(*d)(pts[..., 0], pts[..., 1]) for d in polynomial_exponents(top)}
    phi = dict(zip(polynomial_exponents(top + 1), np.moveaxis(phi, 1, 0)))
    rows = np.zeros((len(pts), len(indices), phi[0, 0].shape[-1]))
    for row, (ix, iy) in enumerate(indices):
        for lx, ly in itertools.product(range(ix + 1), range(iy + 1)):
            binom = math.comb(ix, lx) * math.comb(iy, ly)
            rx, ry = ix - lx, iy - ly
            rows[:, row] += binom * a[lx, ly] * (phi[rx + 2, ry] + phi[rx, ry + 2])
            rows[:, row] += binom * (
                a[lx + 1, ly] * phi[rx + 1, ry] + a[lx, ly + 1] * phi[rx, ry + 1]
            )
    return rows


def _batch_operators(kind, space, coeffs, chunk):
    """Matrices ``(E, m, n)`` and loads ``(E, m)`` of the AR, DAR or
    QT_DIFFUSION operators of the elements in the slice ``chunk``."""
    p = space.degree
    elems = np.arange(chunk.start, chunk.stop)
    if kind == QT_DIFFUSION:
        centers = space.centers[chunk]
        phi = space.derivatives(elems, centers[:, None], p)[:, 0]
        return _qt_kernel(coeffs, p, elems, centers, phi, space.scales[chunk])
    # the space's basis is orthonormal on the same rule and graded by
    # degree, so its leading columns are the test basis
    fields, f = _operator_fields(kind, coeffs, elems, space.volume_points[chunk])
    w = space.volume_weights[chunk] * _row_scale(kind, space.scales[chunk])[:, None]
    rows = operator_row_count(kind, p)
    return (space.volume_matrices(chunk, w, rows=rows, **fields),
            space.volume_load(chunk, w, f, rows=rows))


def _box_operator(space, element, coeffs, box_scale):
    """Matrix and load of the DAR_BOX operator of one element: the
    unit-square rule and test basis (cached per degree) mapped onto the
    element's box, and the operator applied to the trial basis at the
    mapped points."""
    p = space.degree
    box = compute_box(space.mesh, element, box_scale)
    rule = box_rule(box.center, box.side, 2 * p + 4)
    fields, f = _operator_fields(DAR_BOX, coeffs, [element], rule.points[None])
    # scaled, weighted test values: A = Q_w^T L(phi) and l = Q_w^T f
    test = _unit_box_test_basis(p) / box.side
    qw = test * (_row_scale(DAR_BOX, box.h) * rule.weights)[:, None]
    matrix = qw.T @ space.apply([element], rule.points[None], **fields)[0]
    return matrix, np.einsum("qi,q->i", qw, f[0])


def assemble_local_operator(kind, space, element, coeffs, box_scale=0.25):
    """Matrix representation of the local operator on element ``element``
    of the broken space ``space``.

    The rows are tested against an orthonormal basis of the kind's test
    space; the load vector carries the same mesh-size scaling as the
    operator. The box kind is computed element by element; the others are
    a batch of one of :func:`assemble_local_operators`.
    """
    if not 0 <= element < space.mesh.n_elements:
        raise IndexError(f"element index {element} out of range")
    _validate(kind, space.degree, coeffs)
    if kind == DAR_BOX:
        matrix, rhs = _box_operator(space, element, coeffs, box_scale)
    else:
        matrices, loads = _batch_operators(kind, space, coeffs, slice(element, element + 1))
        matrix, rhs = matrices[0], loads[0]
    return LocalOperator(kind=kind, element=element, matrix=matrix, rhs=rhs)


def assemble_local_operators(kind, space, coeffs, box_scale=0.25):
    """Local operators for every element of a broken space, as one
    :class:`LocalOperatorBatch`.

    All kinds but the box one run in the space's element batches
    (:meth:`BrokenSpace.element_batches`), each written into the stacks
    before the next is formed: the volume-projected kinds as one product
    of their weighted coefficients with the space's reference tables, on
    its volume rule, the quasi-Trefftz kind through the point-derivative
    kernel at the element centers. The box kind goes element by element
    through :func:`assemble_local_operator`, as each element has its own
    box, and the results are stacked.
    """
    n_elements = space.mesh.n_elements
    _validate(kind, space.degree, coeffs)
    if kind == DAR_BOX:
        ops = [assemble_local_operator(kind, space, k, coeffs, box_scale=box_scale)
               for k in range(n_elements)]
        matrices, loads = np.stack([op.matrix for op in ops]), np.stack([op.rhs for op in ops])
    else:
        rows = operator_row_count(kind, space.degree)
        matrices = np.empty((n_elements, rows, space.ndof_local))
        loads = np.empty((n_elements, rows))
        for batch in space.element_batches():
            matrices[batch], loads[batch] = _batch_operators(kind, space, coeffs, batch)
    return LocalOperatorBatch(kind, np.arange(n_elements), matrices, loads)

