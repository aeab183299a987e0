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
every upwind system keeps them. The box kind has one kernel over a
slice of elements too: the box sides in closed form from mesh arrays,
the rule and test basis of the unit square, built once per degree and
mapped to every box, the data at all points from one fused evaluation,
and the operator applied to the trial basis at the mapped rule points
(:meth:`BrokenSpace.apply`). The quasi-Trefftz kind has one batched
point-derivative kernel at the element centers, fed with the trial basis
derivatives up to order ``p`` there (chain rule of the affine map). For
every kind, :func:`assemble_local_operator` is a batch of one of the
batched code. :func:`assemble_local_operators` still runs the box kind
element by element, as batches of one, because the benchmark's smoke
test requires per-element calls of it (ROADMAP items 1 and 5).

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
from .coefficients import evaluate, require_finite, require_positive
from .quadrature import box_rule, unit_box_rule

AR = "AR"
DAR = "DAR"
DAR_BOX = "DAR_BOX"
QT_DIFFUSION = "QT_DIFFUSION"
KINDS = frozenset({AR, DAR, DAR_BOX, QT_DIFFUSION})
#: default side of the ``DAR_BOX`` boxes relative to the element diameter ``h_K``
BOX_SCALE = 0.25


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
    sides up to ``0.2929 h_K``. The side is the closed form the box
    kernel reads for a whole slice of elements (:func:`_box_sides`).
    """
    _check_box_scale(scale)
    if not 0 <= element < mesh.n_elements:
        raise IndexError(f"element index {element} out of range")
    side = _box_sides(mesh, slice(element, element + 1), scale)[0]
    return ElementBox(center=mesh.incenters[element].copy(), side=float(side))


def _box_sides(mesh, elems, scale):
    """Sides ``min(scale h_K, 2 r_K / tilt_K)`` of the boxes of ``elems``,
    with the inradii ``r_K`` and the edge tilts of the mesh
    (:attr:`Mesh2D.edge_tilts`, ``max_e |n_x| + |n_y|`` over the unit edge
    normals)."""
    return np.minimum(scale * mesh.h[elems], 2.0 * mesh.inradii[elems] / mesh.edge_tilts[elems])


def _check_box_scale(scale):
    """Reject a box ``scale`` outside ``0 < scale < inf`` (nan included)."""
    if not 0 < scale < math.inf:
        raise ValueError(f"box scale must be positive and finite, got {scale}")


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
    the others ``(E, nq)``) and ``f``. Every data field it reads comes
    from one call of :func:`~trefftzdg.coefficients.evaluate`."""
    data = {}
    if coeffs.beta is not None:
        data["beta_x"], data["beta_y"] = coeffs.beta.fx, coeffs.beta.fy
    if kind != AR:
        data["alpha"] = coeffs.alpha
        data["alpha_x"], data["alpha_y"] = coeffs.alpha.derivative(1, 0), coeffs.alpha.derivative(0, 1)
    if coeffs.gamma is not None:
        data["gamma"] = coeffs.gamma
    data["f"] = coeffs.f
    values = dict(zip(data, evaluate(data.values(), points[..., 0], points[..., 1])))
    fields = {}
    if coeffs.beta is not None:
        beta = np.stack([values["beta_x"], values["beta_y"]], axis=-1)
        fields["drift"] = require_finite(beta, "beta", "element", elems)
    if kind != AR:
        # -div(alpha grad phi) = -alpha lap phi - grad alpha . grad phi
        alpha = require_positive(values["alpha"], "alpha", "element", elems)
        grad_alpha = np.stack([values["alpha_x"], values["alpha_y"]], axis=-1)
        fields["laplacian"] = -alpha
        fields["drift"] = fields.get("drift", 0.0) - grad_alpha
    if coeffs.gamma is not None:
        fields["value"] = require_finite(values["gamma"], "gamma", "element", elems)
    return fields, require_finite(values["f"], "f", "element", elems)


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


def _box_kernel(coeffs, space, chunk, box_scale):
    """DAR_BOX rows and loads of the elements in the slice ``chunk``: the
    box sides in closed form (:func:`_box_sides`), the cached unit-square
    rule mapped onto every box, the data at all points from one fused
    evaluation, and one contraction of the operator applied to the trial
    basis there (:meth:`BrokenSpace.apply`) with the weighted unit-square
    test table. A box of side ``s`` has weights ``s**2`` times the unit
    ones, test values the unit ones over ``s`` (:func:`_unit_box_test_basis`)
    and rows scaled by its diameter ``h = s sqrt(2)``, so its table is the
    unit one times ``s h``.
    """
    p = space.degree
    mesh = space.mesh
    sides = _box_sides(mesh, chunk, box_scale)
    # the points of box_rule(center, side, 2p + 4): p + 3 per axis
    unit_points, unit_weights = unit_box_rule(p + 3)
    points = sides[:, None, None] * unit_points
    points += (mesh.incenters[chunk] - sides[:, None] / 2)[:, None]
    elems = np.arange(chunk.start, chunk.stop)
    fields, f = _operator_fields(DAR_BOX, coeffs, elems, points)
    test = _unit_box_test_basis(p) * unit_weights[:, None]
    scale = sides * (sides * math.sqrt(2.0))
    matrices = test.T @ space.apply(chunk, points, **fields)
    matrices *= scale[:, None, None]
    return matrices, (f @ test) * scale[:, None]


def _batch_operators(kind, space, coeffs, chunk, box_scale=BOX_SCALE):
    """Matrices ``(E, m, n)`` and loads ``(E, m)`` of the ``kind``
    operators of the elements in the slice ``chunk``."""
    if kind == DAR_BOX:
        return _box_kernel(coeffs, space, chunk, box_scale)
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


def assemble_local_operator(kind, space, element, coeffs, box_scale=BOX_SCALE):
    """Matrix representation of the local operator on element ``element``
    of the broken space ``space``.

    The rows are tested against an orthonormal basis of the kind's test
    space; the load vector carries the same mesh-size scaling as the
    operator. For every kind it is a batch of one, ``slice(element,
    element + 1)``, of the batched kernels; the element and, for the box
    kind, the box scale are checked here.
    """
    if not 0 <= element < space.mesh.n_elements:
        raise IndexError(f"element index {element} out of range")
    _validate(kind, space.degree, coeffs)
    if kind == DAR_BOX:
        _check_box_scale(box_scale)
    matrices, loads = _batch_operators(kind, space, coeffs, slice(element, element + 1), box_scale)
    return LocalOperator(kind=kind, element=element, matrix=matrices[0], rhs=loads[0])


def assemble_local_operators(kind, space, coeffs, box_scale=BOX_SCALE):
    """Local operators for every element of a broken space, as one
    :class:`LocalOperatorBatch`.

    Every kind has one kernel over a slice of elements, and each slice is
    written into the stacks before the next is formed: the
    volume-projected kinds as one product of their weighted coefficients
    with the space's reference tables, on its volume rule, the box kind by
    its box kernel, the quasi-Trefftz kind through the point-derivative
    kernel at the element centers. All kinds but the box one run in the
    space's element batches (:meth:`BrokenSpace.element_batches`); the
    box kind runs element by element, each a batch of one through
    :func:`assemble_local_operator`.
    """
    n_elements = space.mesh.n_elements
    _validate(kind, space.degree, coeffs)
    rows = operator_row_count(kind, space.degree)
    matrices = np.empty((n_elements, rows, space.ndof_local))
    loads = np.empty((n_elements, rows))
    if kind == DAR_BOX:
        # one call per element: perfbench/test_perfbench_smoke.py requires
        # a nonzero local_ops.element_calls on etbox, which only a change
        # of the benchmark lifts (ROADMAP item 1). Then batching the box
        # kind (item 5) is this loop over space.element_batches() through
        # _batch_operators, as for the other kinds
        for k in range(n_elements):
            op = assemble_local_operator(kind, space, k, coeffs, box_scale=box_scale)
            matrices[k], loads[k] = op.matrix, op.rhs
    else:
        for batch in space.element_batches():
            matrices[batch], loads[batch] = _batch_operators(kind, space, coeffs, batch)
    return LocalOperatorBatch(kind, np.arange(n_elements), matrices, loads)

