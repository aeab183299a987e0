"""Per-element L2-orthonormal polynomial bases with exact derivative
evaluation.

Every triangle is an affine image ``x = v0_K + J_K zeta`` of the reference
triangle, so its orthonormal basis is one reference basis
``phi_ref = C_ref m`` per degree (:func:`_reference_basis`, over the
reference triangle's scaled monomials ``m``) composed with the inverse map
and divided by ``sqrt(det J_K)``. The basis is graded by degree, so its
leading functions are the orthonormal basis of every lower degree, and the
first is the constant ``1/sqrt(area)``. No element has a basis of its own:
:class:`BrokenSpace` holds only the affine maps, and one element is a batch
of one of its methods.

At the volume points, which are the images of one reference rule, values
come from the shared :func:`reference_tables` and gradients are ``J_K^-T``
times the reference gradients. A differential operator on the basis is
applied by mapping its coefficients onto the reference derivatives
(:func:`_operator_terms`), so volume forms are one matrix product of
weighted coefficients with the shared :func:`reference_products`, and at
other points one contraction (:meth:`BrokenSpace.apply`). Each facet
rule point is the image of a point of one of six fixed sets, the edge
rule nodes ``t`` or ``1 - t`` on one of the three reference edges, so
facet traces are gathered from the shared :func:`reference_facet_tables`
(:meth:`BrokenSpace.facet_traces`). Other points are pulled back to the
reference triangle, where the scaled monomials times the per-degree maps
``D^T C_ref^T`` (:func:`_reference_maps`, ``D`` an exact differentiation
matrix in the monomial basis) give the reference derivatives; a function
contracts its coefficients with the maps first. Derivatives of any order
follow from the reference ones by the exact chain rule of the affine map
(:func:`_chain_rule`).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .quadrature import (
    duffy_rule_barycentric, edge_rule, facet_quadrature, triangle_rule, volume_quadrature,
)


#: volume points per batch of every per-element pass (assembly's volume
#: terms, the local operators, the error norms), so that a pass holds the
#: temporaries of one batch whatever the size of the mesh
BATCH_POINTS = 1 << 14


def batches(total, size):
    """Consecutive slices of ``range(total)`` of at most ``size`` entries;
    a slice views the arrays it indexes."""
    for start in range(0, total, size):
        yield slice(start, min(start + size, total))


@lru_cache(maxsize=None)
def polynomial_exponents(degree):
    """Graded-lexicographic monomial exponents ``(a, b)`` with ``a+b <= degree``."""
    return tuple((a, d - a) for d in range(degree + 1) for a in range(d, -1, -1))


def space_dimension(degree):
    return (degree + 1) * (degree + 2) // 2


def _power_table(values, max_power):
    """Stack ``values**k`` for k = 0..max_power along a trailing axis."""
    table = np.empty(values.shape + (max_power + 1,))
    table[..., 0] = 1.0
    for k in range(1, max_power + 1):
        table[..., k] = table[..., k - 1] * values
    return table


def scaled_monomials(points, centers, scales, degree):
    """Scaled monomials at per-element points.

    ``points`` has shape ``(E, nq, 2)``, ``centers`` ``(E, 2)`` and
    ``scales`` ``(E,)``; the result is ``(E, nq, dim)`` over the
    graded-lex monomials ``((x - c)/s)^a ((y - c)/s)^b`` of total degree at
    most ``degree``. Powers come from cumulative product tables (integer
    exponents only), which is considerably faster than float ``**`` on
    large point sets. Derivatives are exact linear maps of this table, see
    :func:`derivative_matrix`.
    """
    pts = np.asarray(points, dtype=float)
    c = np.asarray(centers, dtype=float)
    s = np.asarray(scales, dtype=float)
    X = (pts[..., 0] - c[:, None, 0]) / s[:, None]
    Y = (pts[..., 1] - c[:, None, 1]) / s[:, None]
    powers_x, powers_y, _ = _derivative_table(degree, 0, 0)
    return _power_table(X, degree)[..., powers_x] * _power_table(Y, degree)[..., powers_y]


@lru_cache(maxsize=None)
def _derivative_table(degree, dx, dy):
    """Remaining powers and constant factors of ``D^(dx,dy) x^a y^b`` for
    every monomial of total degree at most ``degree``; read-only, as every
    evaluation shares them."""
    a, b = np.array(polynomial_exponents(degree)).T
    factor = np.ones(len(a))
    for i in range(dx):
        factor *= np.maximum(a - i, 0)
    for i in range(dy):
        factor *= np.maximum(b - i, 0)
    table = (np.maximum(a - dx, 0), np.maximum(b - dy, 0), factor)
    for array in table:
        array.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def derivative_matrix(degree, dx, dy):
    """Exact differentiation matrix ``D`` of the monomials of total degree
    at most ``degree``: row ``j`` holds the monomial coefficients of
    ``D^(dx,dy) m_j``, without the chain-rule factor of the scaling.
    Read-only, as every evaluation shares it."""
    exponents = polynomial_exponents(degree)
    powers_x, powers_y, factor = _derivative_table(degree, dx, dy)
    cols = [exponents.index(e) for e in zip(powers_x.tolist(), powers_y.tolist())]
    D = np.zeros((len(exponents), len(exponents)))
    D[np.arange(len(exponents)), cols] = factor
    D.flags.writeable = False
    return D


def _orthonormalizer(weights, mono):
    """Batched lower-triangular ``G`` orthonormalizing the monomial basis
    on a positive-weight rule, by QR of the weighted point values.

    Works on the square root of the Gram matrix: with ``B = sqrt(w) M`` and
    ``B = QR``, the map ``G = R^-T`` satisfies ``G (B^T B) G^T = I``. Two
    re-orthonormalization passes on the computed point values keep the
    result orthonormal well below 1e-10 even on badly shaped domains,
    where a Cholesky of the Gram matrix itself breaks down. Element bases
    do not use it per element: it runs once per degree on the reference
    triangle (:func:`_reference_basis`) and once per degree on the unit
    box.
    """
    if np.any(weights < 0):
        raise ValueError("basis orthonormalization requires a positive-weight rule")
    B = mono * np.sqrt(weights)[..., None]
    G = _qr_inverse_transposed(B)
    for _ in range(2):
        G = _qr_inverse_transposed(B @ np.swapaxes(G, -1, -2)) @ G
    return G


def _qr_inverse_transposed(B):
    R = np.linalg.qr(B, mode="r")
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    sign = np.where(diag < 0, -1.0, 1.0)
    R = R * sign[..., None]
    n = R.shape[-1]
    eye = np.broadcast_to(np.eye(n), R.shape)
    return np.swapaxes(np.linalg.solve(R, np.ascontiguousarray(eye)), -1, -2)


#: the reference triangle, its centroid and its monomial scale (diameter)
_REFERENCE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_REFERENCE_CENTER = _REFERENCE.mean(axis=0)
_REFERENCE_SCALE = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _reference_basis(degree):
    """Lower-triangular ``C_ref`` orthonormalizing the graded-lex scaled
    monomials of the reference triangle ``(0,0), (1,0), (0,1)`` (about its
    centroid, scaled by its diameter); read-only, as every element maps
    it."""
    rule = triangle_rule(_REFERENCE, 2 * degree)
    mono = scaled_monomials(rule.points[None], [_REFERENCE_CENTER], [_REFERENCE_SCALE], degree)
    C = _orthonormalizer(rule.weights[None], mono)[0]
    C.flags.writeable = False
    return C


#: the derivatives the reference tables hold, graded-lex up to order two:
#: the value, the two first and the three second derivatives
_REFERENCE_DERIVATIVES = polynomial_exponents(2)


@lru_cache(maxsize=None)
def _reference_maps(degree, order):
    """``D_b^T C_ref^T`` over the reference scale to the power ``|b|`` for
    every ``b`` in ``polynomial_exponents(order)`` (``K`` of them):
    ``(dim, K, dim)``, so that a table of the reference triangle's scaled
    monomials times block ``b`` is ``D^b`` of the reference basis;
    read-only, as every evaluation shares them."""
    Ct = _reference_basis(degree).T
    maps = np.stack([
        (derivative_matrix(degree, *b).T @ Ct) / _REFERENCE_SCALE ** sum(b)
        for b in polynomial_exponents(order)
    ], axis=-2)
    maps.flags.writeable = False
    return maps


def _reference_monomials(zeta, degree):
    """The reference triangle's scaled monomials at reference points
    ``zeta`` ``(E, nq, 2)``: ``(E, nq, dim)``."""
    # one center and scale, broadcast over the elements
    return scaled_monomials(zeta, _REFERENCE_CENTER[None], [_REFERENCE_SCALE], degree)


def _reference_tabulate(zeta, degree, order):
    """Every derivative ``D^b``, ``|b| <= order`` in the graded-lex order of
    :func:`polynomial_exponents`, of the reference basis at reference
    points ``zeta`` ``(E, nq, 2)``: ``(E, nq, K, dim)``."""
    maps = _reference_maps(degree, order)
    out = _reference_monomials(zeta, degree) @ maps.reshape(len(maps), -1)
    # explicit sizes: a -1 cannot be inferred on an empty batch
    return out.reshape(zeta.shape[:2] + maps.shape[1:])


def _volume_rule_degree(degree):
    """Exactness of the volume rule of the degree-``degree`` space."""
    return 2 * degree + 4


@lru_cache(maxsize=None)
def reference_tables(degree):
    """``D^d phi_ref`` ``(nq, 6, dim)`` of the reference basis at the
    reference volume rule, for ``d`` in :data:`_REFERENCE_DERIVATIVES`;
    read-only, as every element maps it.

    The volume points of an element are the images of these points
    (:func:`~trefftzdg.quadrature.volume_quadrature`), so every element
    basis takes its values there from this one table.
    """
    bary, _ = duffy_rule_barycentric(_volume_rule_degree(degree))
    tab = _reference_tabulate(bary[None, :, 1:], degree, 2)[0]
    tab.flags.writeable = False
    return tab


def _facet_rule_degree(degree):
    """Exactness of the facet rule of the degree-``degree`` space."""
    return 2 * degree + 2


@lru_cache(maxsize=None)
def reference_facet_tables(degree):
    """Values and reference gradients ``(2, 3, 3, nq, dim)`` of the
    reference basis on the reference edges, read-only: entry ``[o, d, k]``
    holds the value (``d = 0``) or the derivative along ``zeta_d``
    (``d = 1, 2``) at the :func:`~trefftzdg.quadrature.edge_rule` nodes
    ``t`` (``o = 0``) or ``1 - t`` (``o = 1``) of local edge ``k``, which
    runs from vertex ``k`` to vertex ``k + 1`` of the reference triangle.

    A facet rule point ``v0 + t (v1 - v0)`` is the image of node ``t`` on
    the edge of K1 and of node ``1 - t`` on the edge of K2, which runs the
    other way, so every element trace is gathered from this one table.
    """
    t, _ = edge_rule(_facet_rule_degree(degree))
    start = _REFERENCE
    step = np.roll(_REFERENCE, -1, axis=0) - start
    nodes = np.stack([t, 1.0 - t])
    zeta = start[:, None] + nodes[:, None, :, None] * step[:, None]
    tab = _reference_tabulate(zeta.reshape(1, -1, 2), degree, 1)
    tab = np.ascontiguousarray(np.moveaxis(tab.reshape(2, 3, len(t), 3, -1), 3, 1))
    tab.flags.writeable = False
    return tab


@lru_cache(maxsize=None)
def reference_products(degree, pairs, rows=None):
    """Products ``D^a phi_ref_i D^b phi_ref_j`` at the reference volume
    points for every pair ``(a, b)`` of :data:`_REFERENCE_DERIVATIVES`, as
    one ``(len(pairs) nq, rows dim)`` matrix over the test functions
    ``i < rows`` (all by default) and the trial functions ``j``; read-only,
    as every element contracts it."""
    tab = reference_tables(degree)
    index = _REFERENCE_DERIVATIVES.index
    out = np.stack([
        tab[:, index(a), :rows, None] * tab[:, index(b), None, :] for a, b in pairs
    ])
    out = out.reshape(len(pairs) * len(tab), -1)
    out.flags.writeable = False
    return out


def _to_elements(ref, inverses, dets, gradients=False):
    """Values ``(E, nq)`` and, with ``gradients``, gradients ``(E, nq, 2)``
    of a function ``u_K = u_ref / sqrt(det J_K)`` on the elements from its
    reference derivatives ``ref`` ``(E, nq, k)`` (the first ``k`` of
    :data:`_REFERENCE_DERIVATIVES`: 1 or 3), the inverse Jacobians
    ``inverses`` ``(E, 2, 2)`` and ``dets`` ``(E,)``. Gradients are
    ``J_K^-T`` times the reference gradients.
    """
    r = np.sqrt(dets)[:, None]
    values = ref[..., 0] / r
    if not gradients:
        return values
    inv = inverses[:, None]
    grads = np.stack(
        [inv[..., 0, a] * ref[..., 1] + inv[..., 1, a] * ref[..., 2] for a in range(2)], axis=-1
    )
    return values, grads / r[..., None]


def _operator_terms(inverses, value=None, drift=None, laplacian=None):
    """The operator ``value phi + drift . grad phi + laplacian lap phi`` on
    ``phi_K = phi_ref / sqrt(det J_K)`` as weights on reference derivatives:
    the derivatives of :data:`_REFERENCE_DERIVATIVES` it reads and their
    weights ``(E, nq)``, from the inverse Jacobians ``inverses``
    ``(E, 2, 2)`` and per-point coefficients ``(E, nq)`` (``drift``
    ``(E, nq, 2)``); the factor ``1 / sqrt(det J_K)`` is the caller's.

    ``beta . grad phi = (J^-1 beta) . grad_zeta phi_ref``, and ``lap phi``
    is the reference Hessian contracted with the metric ``J^-1 J^-T``.
    """
    derivatives, terms = [], []
    if value is not None:
        derivatives.append((0, 0))
        terms.append(value)
    if drift is not None:
        mapped = drift @ np.swapaxes(inverses, -1, -2)
        derivatives += _REFERENCE_DERIVATIVES[1:3]
        terms += [mapped[..., 0], mapped[..., 1]]
    if laplacian is not None:
        metric = inverses @ np.swapaxes(inverses, -1, -2)
        derivatives += _REFERENCE_DERIVATIVES[3:]
        terms += [laplacian * metric[:, None, 0, 0], 2.0 * laplacian * metric[:, None, 0, 1],
                  laplacian * metric[:, None, 1, 1]]
    return derivatives, terms


def _chain_rule(ref, inverses, dets, order):
    """Every derivative ``D^g phi_K``, ``|g| <= order`` in graded-lex order,
    of ``phi_K = phi_ref(J_K^-1 (x - v0_K)) / sqrt(det J_K)`` from the same
    derivatives ``ref`` ``(E, nq, K, m)`` of ``phi_ref``, the inverse
    Jacobians ``inverses`` ``(E, 2, 2)`` and ``dets`` ``(E,)``.

    Taylor expansion of the affine map gives, exactly,
    ``D^g phi_K / g! = sum_(|b| = |g|) S_bg D^b phi_ref / b! / sqrt(det J_K)``
    with ``m(J_K^-1 X) = S m(X)`` (:func:`_monomial_substitution`, block
    diagonal by degree, so the sum may run over every ``b``).
    """
    factorials = np.array(
        [math.factorial(a) * math.factorial(b) for a, b in polynomial_exponents(order)]
    )
    S = _monomial_substitution(inverses, order) * (factorials / factorials[:, None])
    out = np.swapaxes(S, -1, -2)[:, None] @ ref
    return out / np.sqrt(dets)[:, None, None, None]


def _monomial_substitution(A, degree):
    """Batched ``S`` ``(E, dim, dim)`` with ``m(A X) = S m(X)`` for the
    graded-lex monomials ``m`` and per-element matrices ``A`` ``(E, 2, 2)``.

    The map is linear, so ``S`` is block diagonal by degree. Row
    ``(a, b)`` is row ``(a - 1, b)`` times the linear form ``(A X)_0``, or
    for ``a = 0`` row ``(0, b - 1)`` times ``(A X)_1``; in the degree-``d``
    block, column ``j`` holds the coefficient of ``X^(d-j) Y^j``.
    """
    exponents = polynomial_exponents(degree)
    S = np.zeros((len(A), len(exponents), len(exponents)))
    S[:, 0, 0] = 1.0
    for row, (a, b) in enumerate(exponents[1:], start=1):
        d = a + b
        low, high = (d - 1) * d // 2, d * (d + 1) // 2
        source = exponents.index((a - 1, b) if a else (0, b - 1))
        form = A[:, 0 if a else 1]
        previous = S[:, source, low:high]
        S[:, row, high : high + d] = form[:, :1] * previous
        S[:, row, high + 1 : high + d + 1] += form[:, 1:] * previous
    return S


class BrokenSpace:
    """Element-wise polynomial space of uniform degree over a mesh.

    Bundles the shared volume quadrature and the affine data of each
    element: the origin ``v0_K``, the inverse Jacobian ``J_K^-1`` and
    ``det J_K`` (positive, as meshes keep their triangles counterclockwise)
    of the map ``x = v0_K + J_K zeta`` from the reference triangle. The
    element basis is the reference one composed with the inverse map and
    divided by ``sqrt(det J_K)``, so every evaluation maps a per-degree
    reference table: :func:`reference_tables` at the volume points,
    :func:`reference_facet_tables` at the facet rule points
    (:attr:`facet_rule`), and reference values at pulled-back points
    anywhere else; no basis table over the elements is kept. Coefficient
    vectors over the space are laid out element by element
    (``offsets[k] = k * ndof_local``).
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = int(degree)
        self.exponents = polynomial_exponents(self.degree)
        self.ndof_local = len(self.exponents)
        self.ndof_total = self.ndof_local * mesh.n_elements
        self.offsets = np.arange(mesh.n_elements) * self.ndof_local
        self.centers = mesh.centroids
        self.scales = mesh.h
        self.volume_points, self.volume_weights = volume_quadrature(
            mesh, _volume_rule_degree(self.degree)
        )
        self.dets = 2.0 * mesh.areas
        self.adjugates = mesh.adjugates
        self.origins = mesh.vertices[mesh.triangles[:, 0]]
        self.inverse_jacobians = self.adjugates / self.dets[:, None, None]

    def element_batches(self):
        """Consecutive slices of the elements, each of at most
        :data:`BATCH_POINTS` volume points (one element at least)."""
        size = max(1, BATCH_POINTS // self.volume_points.shape[1])
        return batches(self.mesh.n_elements, size)

    @cached_property
    def facet_rule(self):
        """Points ``(n_facets, nq, 2)`` and weights ``(n_facets, nq)`` of
        the facet rule, at which :meth:`facet_traces` evaluates; computed
        on first use."""
        return facet_quadrature(self.mesh, _facet_rule_degree(self.degree))

    def facet_traces(self, facets, side, coeffs=None, normal_derivatives=False):
        """Traces at the :attr:`facet_rule` points of ``facets`` from
        their K1 (``side`` 0) or their K2 (``side`` 1), gathered from
        :func:`reference_facet_tables` by each facet's local edge.

        With ``coeffs`` ``(n_elements, ndof_local)``: the values ``(F, nq)``
        of that function, one product per local edge. Otherwise the basis
        values ``(F, nq, ndof_local)``, and with ``normal_derivatives`` also
        ``d_n phi`` along the facet normal (out of K1), contracted directly
        as ``(J^-1 n) . grad_ref phi / sqrt(det J)``.
        """
        mesh = self.mesh
        facets = np.asarray(facets)
        elems = (mesh.facet_left, mesh.facet_right)[side][facets]
        edges = (mesh.facet_left_edge, mesh.facet_right_edge)[side][facets]
        if np.any(elems < 0):
            raise ValueError(f"boundary facet {facets[elems < 0][0]} has no K2")
        table = reference_facet_tables(self.degree)[side]
        on_edge = [edges == k for k in range(3)]
        scale = 1.0 / np.sqrt(self.dets[elems])
        if coeffs is not None:
            out = np.empty((len(elems), table.shape[-2]))
            for k, on in enumerate(on_edge):
                out[on] = coeffs[elems[on]] @ table[0, k].T
            return out * scale[:, None]
        values = np.take(table[0], edges, axis=0)
        values *= scale[:, None, None]
        if not normal_derivatives:
            return values
        mapped = np.einsum("fab,fb->fa", self.inverse_jacobians[elems], mesh.facet_normals[facets])
        mapped *= scale[:, None]
        dn = np.empty_like(values)
        for k, on in enumerate(on_edge):
            dn[on] = (mapped[on] @ table[1:, k].reshape(2, -1)).reshape(-1, *values.shape[1:])
        return values, dn

    def _element_ids(self, elems):
        """Element ids ``elems`` as an index array, a slice as it is. An id
        outside ``[0, n_elements)`` raises :class:`IndexError` rather than
        count from the end. An empty list reads as an empty integer batch
        (``np.asarray([])`` is a float array, which cannot index);
        non-integer ids still fail to index."""
        if isinstance(elems, slice):
            return elems
        ids = np.asarray(elems)
        if ids.size == 0:
            return ids.astype(np.intp)
        outside = ids[(ids < 0) | (ids >= self.mesh.n_elements)]
        if outside.size:
            raise IndexError(f"element index {outside.flat[0]} out of range")
        return ids

    def _pull_back(self, points, elems):
        """Reference coordinates ``zeta = J_K^-1 (x - v0_K)`` of per-element
        points ``(m, nq, 2)`` of ``elems``, a slice or ids checked by
        :meth:`_element_ids`."""
        shifted = np.asarray(points, dtype=float) - self.origins[elems][:, None]
        # dividing last keeps each vertex's image exact and halves the
        # rounding on slivers against multiplying by J_K^-1
        zeta = shifted @ np.swapaxes(self.adjugates[elems], -1, -2)
        return zeta / self.dets[elems][:, None, None]

    def volume_matrices(self, elems, weights, value=None, drift=None, laplacian=None,
                        diffusion=None, rows=None):
        """Per-element matrices ``(m, rows, ndof)`` of the volume form
        ``sum_q w_q [phi_i (value phi_j + drift . grad phi_j + laplacian
        lap phi_j) + diffusion grad phi_i . grad phi_j]`` over the volume
        points of ``elems``, for the test functions ``i < rows`` (all by
        default); ``weights`` and the coefficients are ``(m, nq)``,
        ``drift`` ``(m, nq, 2)``.

        Each weighted coefficient is mapped to the reference derivatives
        and divided by ``det J_K``, so the whole form is one matrix product
        of the stacked coefficients with the shared
        :func:`reference_products`.
        """
        inverses = self.inverse_jacobians[elems]
        derivatives, terms = _operator_terms(inverses, value, drift, laplacian)
        pairs = [((0, 0), d) for d in derivatives]
        if diffusion is not None:
            metric = inverses @ np.swapaxes(inverses, -1, -2)
            first = _REFERENCE_DERIVATIVES[1:3]
            pairs += [(a, b) for a in first for b in first]
            terms += [diffusion * metric[:, None, a, b] for a in range(2) for b in range(2)]
        scale = weights / self.dets[elems][:, None]
        coefficients = np.stack(terms, axis=1)
        coefficients *= scale[:, None]
        table = reference_products(self.degree, tuple(pairs), rows)
        out = coefficients.reshape(len(coefficients), -1) @ table
        return out.reshape(len(coefficients), -1, self.ndof_local)

    def volume_load(self, elems, weights, f, rows=None):
        """``sum_q w_q f phi_i`` ``(m, rows)`` over the volume points of
        ``elems``, from ``weights`` and ``f`` ``(m, nq)``."""
        values = reference_tables(self.degree)[:, 0, :rows]
        return (weights * f / np.sqrt(self.dets[elems])[:, None]) @ values

    def eval_function(self, coeffs, elems=slice(None), points=None, gradients=False):
        """Values ``(m, nq)`` and optionally gradients ``(m, nq, 2)`` of the
        function with per-element basis coefficients ``coeffs``
        ``(n_elements, ndof_local)`` on ``elems``: at the volume points from
        the shared tables, or at per-element ``points`` ``(m, nq, 2)``,
        pulled back to the reference triangle, from the shared
        :func:`_reference_maps` over its scaled monomials. Either way the
        coefficients are contracted with the shared table first, so no
        basis table is built.
        """
        elems = self._element_ids(elems)
        c = coeffs[elems]
        k = 3 if gradients else 1
        if points is None:
            table = reference_tables(self.degree)[:, :k]
        else:
            table = _reference_maps(self.degree, int(gradients))
        ref = (c @ table.reshape(-1, self.ndof_local).T).reshape(len(c), len(table), k)
        if points is not None:
            ref = _reference_monomials(self._pull_back(points, elems), self.degree) @ ref
        return _to_elements(ref, self.inverse_jacobians[elems], self.dets[elems], gradients)

    def apply(self, elems, points, value=None, drift=None, laplacian=None):
        """``value phi + drift . grad phi + laplacian lap phi`` of the basis
        of ``elems`` at per-element ``points`` ``(m, nq, 2)``, from
        per-point coefficients ``(m, nq)`` (``drift`` ``(m, nq, 2)``):
        ``(m, nq, ndof_local)``. The coefficients are mapped onto the
        reference derivatives (:func:`_operator_terms`, as in
        :meth:`volume_matrices`), so no derivative of the element basis is
        tabulated."""
        elems = self._element_ids(elems)
        ref = self._reference_basis_at(elems, points, 1 if laplacian is None else 2)
        inverses = self.inverse_jacobians[elems]
        derivatives, terms = _operator_terms(inverses, value, drift, laplacian)
        index = [_REFERENCE_DERIVATIVES.index(d) for d in derivatives]
        vals = np.einsum("eqk,eqkm->eqm", np.stack(terms, axis=-1), ref[:, :, index])
        return vals / np.sqrt(self.dets[elems])[:, None, None]

    def derivatives(self, elems, points, order):
        """Every partial derivative of total order at most ``order`` of the
        basis of ``elems``, graded-lex, at per-element ``points``
        ``(m, nq, 2)``: ``(m, nq, K, ndof_local)``; exact, by
        :func:`_chain_rule`."""
        elems = self._element_ids(elems)
        ref = self._reference_basis_at(elems, points, order)
        return _chain_rule(ref, self.inverse_jacobians[elems], self.dets[elems], order)

    def _reference_basis_at(self, elems, points, order):
        """Reference basis derivatives up to ``order`` at the pulled-back
        points, tabulated in one product over all of them."""
        zeta = self._pull_back(points, elems)
        ref = _reference_tabulate(zeta.reshape(1, -1, 2), self.degree, order)
        return ref.reshape(zeta.shape[:2] + ref.shape[2:])
