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
orthonormal on its element and graded by degree, so on a triangle rule the
test basis is its leading columns. On a space's volume rule the operators
of a batch of elements are one matrix product of the mapped, weighted
coefficients with the space's shared reference tables
(:meth:`BrokenSpace.volume_matrices`). On one element's own rule, and for
the box kind, the operator is applied to the basis at the rule points
(:meth:`ElementBasis.apply`). The box kind runs element by element, but
its rule and test basis are those of the unit square, built once per degree
and mapped to each box. The quasi-Trefftz kind has one batched
point-derivative kernel at the element centers, fed with the trial basis
derivatives up to order ``p`` there (chain rule of the affine map), and
:func:`leibniz_point_derivative` is a batch of one of it. The per-element
entry point :func:`assemble_local_operator` rejects a basis whose affine
map is not the element's.
"""

from __future__ import annotations

import itertools
import math
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
from .quadrature import box_rule, triangle_rule

AR = "AR"
DAR = "DAR"
DAR_BOX = "DAR_BOX"
QT_DIFFUSION = "QT_DIFFUSION"
KINDS = frozenset({AR, DAR, DAR_BOX, QT_DIFFUSION})

_CHUNK = 2048


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


#: relative difference above which :func:`assemble_local_operator` takes a
#: basis's affine map for another element's than its own
_MAP_RTOL = 1e-12


def _require_element_basis(mesh, element, basis):
    """Reject a basis whose origin, adjugate or ``det J`` differ from those
    of element ``element`` by more than :data:`_MAP_RTOL` relative to the
    largest entry of each."""
    own = (*mesh.vertices[mesh.triangles[element, 0]].tolist(),
           *mesh.adjugates[element].ravel().tolist(), 2.0 * mesh.areas[element].item())
    given = (*basis.origin.tolist(), *basis.adjugate.ravel().tolist(), basis.det)
    if given == own:
        # the element's own basis holds the mesh's numbers exactly
        return
    for name, part in (("origin", slice(0, 2)), ("adjugate", slice(2, 6)), ("det J", slice(6, 7))):
        bound = _MAP_RTOL * max(map(abs, own[part]))
        if not all(abs(a - b) <= bound for a, b in zip(own[part], given[part])):
            raise ValueError(
                f"the basis passed for element {element} is not that element's: "
                f"its {name} differs"
            )


def assemble_local_operator(kind, mesh, element, basis, coeffs, box_scale=0.25):
    """Matrix representation of the local operator on one element.

    ``basis`` is the element's orthonormal trial basis of degree p, graded
    by degree (:class:`ElementBasis`); a basis built for another element
    is rejected (:func:`_require_element_basis`). For the volume-projected
    kinds its leading columns are the test basis. The returned rows are
    tested against an orthonormal basis of the kind's test space; the load
    vector carries the same mesh-size scaling as the operator.
    """
    p = basis.degree
    _validate(kind, p, coeffs)
    _require_element_basis(mesh, element, basis)
    if kind == QT_DIFFUSION:
        center = mesh.centroids[element][None]
        phi = basis.derivatives(center, p)
        matrices, loads = _qt_kernel(coeffs, p, [element], center, phi, [mesh.h[element]])
        return LocalOperator(kind=kind, element=element, matrix=matrices[0], rhs=loads[0])
    if kind == DAR_BOX:
        box = compute_box(mesh, element, box_scale)
        rule, scale = box_rule(box.center, box.side, 2 * p + 4), box.h
        test = _unit_box_test_basis(p) / box.side
    else:
        rule = triangle_rule(mesh.vertices[mesh.triangles[element]], 2 * p + 4)
        scale = mesh.h[element]
        # as in the batched path: the trial basis is orthonormal on the
        # element and graded by degree, so its leading columns are the test
        # basis
        test = basis.eval(rule.points).values[:, : operator_row_count(kind, p)]
    fields, f = _operator_fields(kind, coeffs, [element], rule.points[None])
    # scaled, weighted test values: A = Q_w^T L(phi) and l = Q_w^T f
    qw = test * (_row_scale(kind, scale) * rule.weights)[:, None]
    matrix = qw.T @ basis.apply(rule.points[None], **fields)[0]
    rhs = np.einsum("qi,q->i", qw, f[0])
    return LocalOperator(kind=kind, element=element, matrix=matrix, rhs=rhs)


def assemble_local_operators(kind, space, coeffs, box_scale=0.25):
    """Local operators for every element of a broken space.

    All kinds but the box one run in element batches: the volume-projected
    kinds as one product of their weighted coefficients with the space's
    reference tables, on its volume rule, the quasi-Trefftz kind through
    the point-derivative kernel at the element centers. The box kind goes
    element by element, as each element has its own box; per element it
    computes the box, maps the unit-square rule and test basis (cached per
    degree) onto it and applies the operator to the trial basis at the
    mapped points.
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
            centers = space.centers[chunk]
            phi = space.derivatives(elems, centers[:, None], p)[:, 0]
            matrices, loads = _qt_kernel(coeffs, p, elems, centers, phi, space.scales[chunk])
        else:
            # the space's basis is orthonormal on the same rule and graded by
            # degree, so its leading columns are the test basis
            fields, f = _operator_fields(kind, coeffs, elems, space.volume_points[chunk])
            w = space.volume_weights[chunk] * _row_scale(kind, space.scales[chunk])[:, None]
            rows = operator_row_count(kind, p)
            matrices = space.volume_matrices(chunk, w, rows=rows, **fields)
            loads = space.volume_load(chunk, w, f, rows=rows)
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
    point = np.reshape(point, (1, 2))
    phi = basis.derivatives(point, sum(index) + 2)
    rows = _leibniz_rows([tuple(index)], alpha, point, phi)
    return float(rows[0, 0] @ np.asarray(coefficients, dtype=float))
