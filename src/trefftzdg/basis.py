"""Per-element L2-orthonormal polynomial bases with exact derivative
evaluation.

Every triangle is an affine image ``x = v0_K + J_K zeta`` of the reference
triangle, so its orthonormal basis is one reference basis
``phi_ref = C_ref m`` per degree (:func:`_reference_basis`, over the
reference triangle's scaled monomials ``m``) composed with the inverse map
and divided by ``sqrt(det J_K)``. The basis is graded by degree, so its
leading functions are the orthonormal basis of every lower degree, and the
first is the constant ``1/sqrt(area)``.

:class:`BrokenSpace` evaluates it without a per-element table: at the
volume points, which are the images of one reference rule, values come
from the shared :func:`reference_tables`, gradients are ``J_K^-T`` times
the reference gradients and Laplacians the reference Hessians contracted
with ``J_K^-1 J_K^-T``; volume forms are one matrix product of weighted
coefficients with the shared :func:`reference_products`. Other points are
pulled back to the reference triangle.

Code that needs the basis over the element's own scaled monomials
``(x - x_K)/h_K`` (the quasi-Trefftz point derivatives, :class:`ElementBasis`
and the box operators) reads ``G_K`` with ``phi_K = G_K m_K``, built in
closed form from ``C_ref`` (:func:`_closed_form_basis`), with no
factorization per element. All monomial evaluation goes through
:func:`tabulate`: a table of scaled monomials times a small per-element
matrix ``(D^T G^T) / s^k``, with ``D`` an exact differentiation matrix in
the monomial basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import duffy_rule_barycentric, triangle_rule, volume_quadrature


@lru_cache(maxsize=None)
def polynomial_exponents(degree):
    """Graded-lexicographic monomial exponents ``(a, b)`` with ``a+b <= degree``."""
    return tuple((a, d - a) for d in range(degree + 1) for a in range(d, -1, -1))


def space_dimension(degree):
    return (degree + 1) * (degree + 2) // 2


@dataclass
class BasisEval:
    values: np.ndarray
    gradients: np.ndarray = None
    laplacians: np.ndarray = None


#: differential operators for :func:`tabulate`
_VALUES = ((0, 0),)
_GRADIENT = (((1, 0),), ((0, 1),))
_LAPLACIAN = ((2, 0), (0, 2))


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
    :func:`tabulate`.
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


def tabulate(mono, coefficients, scales, degree, operators):
    """Differential operators applied to polynomials given by their
    scaled-monomial coefficients, at the points of a monomial table.

    ``mono`` ``(E, nq, dim)`` comes from :func:`scaled_monomials`,
    ``coefficients`` is ``(E, dim, m)`` (``G^T`` for the orthonormal basis
    itself) and ``scales`` ``(E,)``; each of the ``k`` operators is a tuple
    of multi-indices of one order, summed (``((2, 0), (0, 2))`` is the
    Laplacian). The result ``(E, nq, k, m)`` is one batched matmul of the
    table with the per-element ``(D^T coefficients) / s^order``, or, with
    fewer points than functions, of the differentiated tables
    ``(m D^T) / s^order`` with the coefficients: ``D`` goes on the smaller
    factor.
    """
    s = np.asarray(scales, dtype=float)[:, None, None]
    on_table = mono.shape[-2] < coefficients.shape[-1]
    maps = []
    for terms in operators:
        D = sum(derivative_matrix(degree, dx, dy) for dx, dy in terms)
        maps.append((mono @ D.T if on_table else D.T @ coefficients) / s ** sum(terms[0]))
    stacked = np.stack(maps, axis=-2)
    E, nq, k, m = mono.shape[0], mono.shape[-2], len(maps), coefficients.shape[-1]
    if on_table:
        out = stacked.reshape(E, nq * k, -1) @ coefficients
    else:
        out = mono @ stacked.reshape(E, -1, k * m)
    return out.reshape(E, nq, k, m)


def _basis_eval(mono, G, scales, degree, gradients=False, laplacians=False):
    """Orthonormal basis ``phi = G m`` and the requested derivatives from a
    monomial table, as views of one :func:`tabulate` result."""
    operators = [_VALUES, *(_GRADIENT * gradients), *([_LAPLACIAN] * laplacians)]
    tab = tabulate(mono, np.swapaxes(G, -1, -2), scales, degree, operators)
    out = BasisEval(values=tab[..., 0, :])
    if gradients:
        out.gradients = np.swapaxes(tab[..., 1:3, :], -1, -2)
    if laplacians:
        out.laplacians = tab[..., -1, :]
    return out


def basis_derivative(points, centers, scales, G, degree, dx=0, dy=0):
    """``D^(dx,dy)`` of the orthonormal bases ``phi = G m`` of a batch of
    elements at per-element points: ``(E, nq, 2)`` in, ``(E, nq, n)`` out."""
    mono = scaled_monomials(points, centers, scales, degree)
    return tabulate(mono, np.swapaxes(G, -1, -2), scales, degree, [((dx, dy),)])[..., 0, :]


def evaluate_basis(points, centers, scales, G, degree, gradients=False, laplacians=False):
    """Orthonormal basis values (and optionally gradients and Laplacians)
    of a batch of elements from one monomial table; arguments as in
    :func:`basis_derivative`."""
    mono = scaled_monomials(points, centers, scales, degree)
    return _basis_eval(mono, G, scales, degree, gradients, laplacians)


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


def _reference_tabulate(zeta, coefficients, degree, k):
    """The first ``k`` of :data:`_REFERENCE_DERIVATIVES` of polynomials
    with coefficients ``(E, dim, m)`` in the reference basis, at reference
    points ``zeta`` ``(E, nq, 2)``: ``(E, nq, k, m)``, by :func:`tabulate`."""
    E = len(zeta)
    scales = np.full(E, _REFERENCE_SCALE)
    mono = scaled_monomials(zeta, np.broadcast_to(_REFERENCE_CENTER, (E, 2)), scales, degree)
    operators = [(d,) for d in _REFERENCE_DERIVATIVES[:k]]
    return tabulate(mono, _reference_basis(degree).T @ coefficients, scales, degree, operators)


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
    eye = np.eye(space_dimension(degree))[None]
    tab = _reference_tabulate(bary[None, :, 1:], eye, degree, len(_REFERENCE_DERIVATIVES))[0]
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


def _to_elements(ref, inverses, dets, gradients=False, laplacians=False):
    """Element values, gradients and Laplacians of
    ``phi_K = phi_ref / sqrt(det J_K)`` from reference derivatives ``ref``
    ``(E or 1, nq, k, m)`` (the first ``k`` of
    :data:`_REFERENCE_DERIVATIVES`), the inverse Jacobians ``inverses``
    ``(E, 2, 2)`` and ``dets`` ``(E,)``.

    Gradients are ``J_K^-T`` times the reference gradients, Laplacians the
    reference Hessians contracted with the metric ``J_K^-1 J_K^-T``.
    """
    r = np.sqrt(dets)[:, None, None]
    inv = inverses[:, None, None]
    out = BasisEval(values=ref[:, :, 0] / r)
    if gradients:
        out.gradients = np.stack(
            [inv[..., 0, a] * ref[:, :, 1] + inv[..., 1, a] * ref[:, :, 2] for a in range(2)],
            axis=-1,
        ) / r[..., None]
    if laplacians:
        metric = (inverses @ np.swapaxes(inverses, -1, -2))[:, None, None]
        out.laplacians = (
            metric[..., 0, 0] * ref[:, :, 3]
            + 2.0 * metric[..., 0, 1] * ref[:, :, 4]
            + metric[..., 1, 1] * ref[:, :, 5]
        ) / r
    return out


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


def _affine_maps(vertices):
    """``det J_K`` ``(E,)`` and the adjugate ``det J_K J_K^-1`` ``(E, 2, 2)``
    of the maps ``x = v0_K + J_K zeta`` from the reference triangle onto
    the triangles ``vertices`` ``(E, 3, 2)``."""
    e1 = vertices[:, 1] - vertices[:, 0]
    e2 = vertices[:, 2] - vertices[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # J_K has the edges as columns; the rows of det J_K^-1 are e2 and -e1
    # turned by a right angle, (x, y) @ perp = (y, -x)
    perp = np.array([[0.0, -1.0], [1.0, 0.0]])
    return det, np.stack([e2 @ perp, -e1 @ perp], axis=1)


def _closed_form_basis(vertices, scales, degree, weights, mono):
    """Orthonormalization matrices ``G`` ``(E, dim, dim)`` of triangles
    ``vertices`` ``(E, 3, 2)`` over their scaled monomials about the
    centroids, scaled by ``scales``, without a factorization per element.

    Element ``K`` is the image of the reference triangle under
    ``x = c_K + J_K zeta``, with ``zeta`` the reference coordinates about
    the reference centroid, so its orthonormal basis is the reference one
    composed with the inverse map and divided by ``sqrt(|det J_K|)``. In
    scaled monomials ``X = (x - c_K)/h_K`` that is ``zeta / h_ref = A_K X``
    with ``A_K = h_K J_K^-1 / h_ref``, and
    ``G_K = C_ref S_K / sqrt(|det J_K|)`` with the substitution matrix
    ``S_K`` of :func:`_monomial_substitution`, then
    :func:`_correct_orthonormality` takes out the rounding of that product
    on the element's own rule (``weights`` ``(E, nq)`` and monomial table
    ``mono`` ``(E, nq, dim)``, exact to degree ``2 degree``).
    """
    det, adjugate = _affine_maps(vertices)
    A = adjugate * (np.asarray(scales, dtype=float) / (det * _REFERENCE_SCALE))[:, None, None]
    G = _reference_basis(degree) @ _monomial_substitution(A, degree)
    G /= np.sqrt(np.abs(det))[:, None, None]
    return _correct_orthonormality(G, weights, mono)


#: orthonormality error above which an element's basis is corrected, over
#: ten times the rounding of the error itself at degree 6 (3e-14 to 8e-14
#: on structured and perturbed meshes), and the cap on correction steps
_ORTHONORMALITY_TOL = 1e-12
_MAX_CORRECTIONS = 4
#: orthonormality error left after the correction above which a space
#: warns that its ``G`` is unusable
_ORTHONORMALITY_WARN = 1e-8


def _correct_orthonormality(G, weights, mono):
    """Correct nearly orthonormal ``G`` ``(E, dim, dim)`` in place on a rule
    (``weights`` ``(E, nq)``, monomial table ``mono`` ``(E, nq, dim)``)
    without a factorization, and return it.

    With the error ``Z = G M G^T - I`` for the monomial Gram matrix ``M``,
    the step ``G <- (I - strict_tril(Z) - diag(Z)/2) G`` leaves an error of
    order ``Z^2``. It repeats, on the elements whose ``max |Z|`` is still
    above :data:`_ORTHONORMALITY_TOL`, at most :data:`_MAX_CORRECTIONS`
    times; an element whose error is 1 or more is left as it is, as the
    step does not converge there. Both factors are block lower triangular
    by degree, so the leading rows stay the orthonormal basis of every
    lower degree. Where the monomial table itself is too ill-conditioned
    (slivers turned against the axes at high degree) the error stalls at
    its rounding, as a QR of the same table does.
    """
    eye = np.eye(G.shape[-1])
    rows = slice(None)
    for _ in range(_MAX_CORRECTIONS):
        Z = _orthonormality_defect(G[rows], weights[rows], mono[rows])
        error = np.max(np.abs(Z), axis=(-2, -1))
        step = (error > _ORTHONORMALITY_TOL) & (error < 1.0)
        if not step.any():
            break
        rows = np.arange(len(G))[rows][step]
        Z = Z[step]
        G[rows] -= (np.tril(Z) - 0.5 * Z * eye) @ G[rows]
    return G


def _orthonormality_defect(G, weights, mono):
    """``Z = G M G^T - I`` ``(E, dim, dim)`` on a rule, from the weighted
    point values: forming the Gram matrix ``M`` first squares the
    conditioning of ``G`` and can leave a larger error than it measures."""
    Q = mono @ np.swapaxes(G, -1, -2)
    Q *= np.sqrt(weights)[..., None]
    return np.swapaxes(Q, -1, -2) @ Q - np.eye(G.shape[-1])


class ElementBasis:
    """Orthonormal polynomial basis of one element.

    ``G`` maps the scaled-monomial vector ``m(x)`` to the orthonormal
    basis, ``phi(x) = G m(x)``. It is block lower triangular by degree
    (lower triangular when built by :meth:`from_rule`), so its leading
    rows are the orthonormal basis of every lower degree. Evaluation is
    polynomial extension: points are not required to lie inside the
    element.
    """

    def __init__(self, center, scale, G, degree):
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.G = np.asarray(G, dtype=float)
        self.degree = int(degree)
        self.exponents = polynomial_exponents(self.degree)

    @property
    def dim(self):
        return len(self.exponents)

    @classmethod
    def from_element(cls, mesh, k, degree):
        if not 0 <= k < mesh.n_elements:
            raise IndexError(f"element index {k} out of range")
        vertices = mesh.vertices[mesh.triangles[k]]
        rule = triangle_rule(vertices, 2 * degree)
        center, scale = mesh.centroids[k], mesh.h[k]
        mono = scaled_monomials(rule.points[None], [center], [scale], degree)
        G = _closed_form_basis(vertices[None], [scale], degree, rule.weights[None], mono)[0]
        return cls(center=center, scale=scale, G=G, degree=degree)

    @classmethod
    def from_rule(cls, center, scale, degree, rule):
        """Basis orthonormal w.r.t. the (positive-weight) quadrature domain,
        by QR of the weighted point values.

        Used for test bases on domains other than mesh triangles (e.g.
        boxes), whose bases :meth:`from_element` builds in closed form;
        ``rule`` must be exact to degree ``2 * degree`` on its domain.
        """
        mono = scaled_monomials(rule.points[None], [center], [scale], degree)
        G = _orthonormalizer(rule.weights[None], mono)[0]
        return cls(center=center, scale=scale, G=G, degree=degree)

    def _as_batch(self, points):
        """Arguments of the batched evaluators for this element alone."""
        pts = np.asarray(points, dtype=float).reshape(1, -1, 2)
        return pts, self.center[None], [self.scale], self.G[None], self.degree

    def eval(self, points, gradients=False):
        """Values (and optionally gradients) at ``points``."""
        shape = np.shape(points)[:-1]
        ev = evaluate_basis(*self._as_batch(points), gradients)
        drop = lambda a: None if a is None else a.reshape(shape + a.shape[2:])
        return BasisEval(drop(ev.values), drop(ev.gradients))

    def derivative(self, points, order):
        """Exact partial derivative ``D^order`` of each basis function."""
        vals = basis_derivative(*self._as_batch(points), *order)
        return vals.reshape(np.shape(points)[:-1] + vals.shape[2:])


def l2_project(f, basis, rule):
    """Coefficients of the L2(K)-orthogonal projection of ``f``.

    ``rule`` must be exact to degree ``2 p`` so that projections of
    polynomials up to the basis degree are reproduced exactly.
    """
    vals = basis.eval(rule.points).values
    fv = np.asarray(f(rule.points[:, 0], rule.points[:, 1]), dtype=float)
    return np.einsum("q,q,qi->i", rule.weights, fv, vals)


class BrokenSpace:
    """Element-wise polynomial space of uniform degree over a mesh.

    Bundles the shared volume quadrature and the affine data of each
    element: the origin ``v0_K``, the inverse Jacobian ``J_K^-1`` and
    ``det J_K`` (positive, as meshes keep their triangles counterclockwise)
    of the map ``x = v0_K + J_K zeta`` from the reference triangle. The
    element basis is the reference one composed with the inverse map and
    divided by ``sqrt(det J_K)``, so every evaluation maps the per-degree
    :func:`reference_tables` (at the volume points) or reference values at
    pulled-back points (anywhere else); no basis table over the elements
    is kept. Coefficient vectors over the space are laid out
    element by element (``offsets[k] = k * ndof_local``).
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
        vertices = mesh.vertices[mesh.triangles]
        self.dets, self._adjugates = _affine_maps(vertices)
        self.origins = vertices[:, 0]
        self.inverse_jacobians = self._adjugates / self.dets[:, None, None]
        self._G = None

    @property
    def G(self):
        """Per-element matrices ``G_K`` ``(E, dim, dim)`` with
        ``phi_K = G_K m_K`` over the element's scaled monomials, built on
        first use in closed form (:func:`_closed_form_basis`) and kept
        read-only. Only the quasi-Trefftz kernel, :meth:`element_basis` and
        what reads it (the per-element box operators) need them.

        Over scaled monomials a sliver turned against the axes cannot be
        made orthonormal at high degree; one counted warning names the
        worst element if any error stays above 1e-8 after the correction.
        """
        if self._G is None:
            mono = scaled_monomials(self.volume_points, self.centers, self.scales, self.degree)
            G = _closed_form_basis(
                self.mesh.vertices[self.mesh.triangles], self.scales, self.degree,
                self.volume_weights, mono,
            )
            defect = _orthonormality_defect(G, self.volume_weights, mono)
            error = np.max(np.abs(defect), axis=(1, 2))
            bad = np.flatnonzero(~(error <= _ORTHONORMALITY_WARN))
            if len(bad):
                k = bad[np.argmax(np.nan_to_num(error[bad], nan=np.inf))]
                warnings.warn(
                    f"{len(bad)} of {len(G)} elements have no orthonormal degree-{self.degree} "
                    f"basis over scaled monomials (orthonormality error above "
                    f"{_ORTHONORMALITY_WARN:.0e}); worst element {k} (error {error[k]:.1e})"
                )
            G.flags.writeable = False
            self._G = G
        return self._G

    def _pull_back(self, points, elems):
        """Reference coordinates ``zeta = J_K^-1 (x - v0_K)`` of per-element
        points ``(m, nq, 2)``."""
        shifted = np.asarray(points, dtype=float) - self.origins[elems][:, None]
        # dividing last keeps each vertex's image exact and halves the
        # rounding on slivers against multiplying by J_K^-1
        zeta = shifted @ np.swapaxes(self._adjugates[elems], -1, -2)
        return zeta / self.dets[elems][:, None, None]

    def volume_basis(self, elems=slice(None), gradients=False, laplacians=False):
        """Orthonormal basis values (and optionally gradients and
        Laplacians) at the volume points of ``elems``, mapped from the
        shared reference tables."""
        ref = reference_tables(self.degree)[None]
        return _to_elements(
            ref, self.inverse_jacobians[elems], self.dets[elems], gradients, laplacians
        )

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
        metric = inverses @ np.swapaxes(inverses, -1, -2)
        first = _REFERENCE_DERIVATIVES[1:3]
        pairs, terms = [], []
        if value is not None:
            pairs.append(((0, 0), (0, 0)))
            terms.append(value)
        if drift is not None:
            # beta . grad phi = (J^-1 beta) . grad_zeta phi_ref
            mapped = drift @ np.swapaxes(inverses, -1, -2)
            pairs += [((0, 0), d) for d in first]
            terms += [mapped[..., 0], mapped[..., 1]]
        if laplacian is not None:
            # lap phi: the reference Hessian contracted with the metric
            pairs += [((0, 0), d) for d in _REFERENCE_DERIVATIVES[3:]]
            terms += [laplacian * metric[:, None, 0, 0], 2.0 * laplacian * metric[:, None, 0, 1],
                      laplacian * metric[:, None, 1, 1]]
        if diffusion is not None:
            pairs += [(a, b) for a in first for b in first]
            terms += [diffusion * metric[:, None, a, b] for a in range(2) for b in range(2)]
        scale = weights / self.dets[elems][:, None]
        coefficients = np.stack(terms, axis=1) * scale[:, None]
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
        ``(n_elements, ndof_local)`` on ``elems``: at per-element ``points``
        ``(m, nq, 2)``, pulled back to the reference triangle, or at the
        volume points from the shared tables. Either way the coefficients
        are contracted first, so no basis table is built.
        """
        c = coeffs[elems]
        k = 3 if gradients else 1
        if points is None:
            table = reference_tables(self.degree)[:, :k]
            ref = (c @ table.reshape(-1, self.ndof_local).T).reshape(len(c), -1, k, 1)
        else:
            ref = _reference_tabulate(self._pull_back(points, elems), c[..., None], self.degree, k)
        ev = _to_elements(ref, self.inverse_jacobians[elems], self.dets[elems], gradients)
        return (ev.values[..., 0], ev.gradients[..., 0, :]) if gradients else ev.values[..., 0]

    def eval_elements(self, elems, points, gradients=False):
        """Orthonormal basis values on a batch of elements.

        ``points`` has shape ``(m, nq, 2)`` with one point set per entry of
        ``elems``; results have a trailing basis axis (and derivative axes).
        The points are pulled back to the reference triangle and the
        reference basis is evaluated there in one product.
        """
        elems = np.asarray(elems)
        zeta = self._pull_back(points, elems)
        eye = np.eye(self.ndof_local)[None]
        ref = _reference_tabulate(zeta.reshape(1, -1, 2), eye, self.degree, 3 if gradients else 1)
        ref = ref.reshape(zeta.shape[:2] + ref.shape[2:])
        return _to_elements(ref, self.inverse_jacobians[elems], self.dets[elems], gradients)

    def element_basis(self, k):
        return ElementBasis(self.centers[k], self.scales[k], self.G[k], self.degree)
