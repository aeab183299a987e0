"""Per-element L2-orthonormal polynomial bases with exact derivative
evaluation.

Each element carries monomials in the shifted/scaled coordinates
``(x - x_K)/h_K`` which are orthonormalized in L2(K) through a QR
factorization of the weighted point values. The scaling keeps the Gram
condition number independent of the mesh size, and the first basis
function is the constant ``1/sqrt(area)``.

All evaluation goes through one batched path, :func:`tabulate`: a table of
scaled monomials at per-element points times a small per-element matrix
``(D^T G^T) / s^k``, with ``D`` an exact differentiation matrix in the
monomial basis. :class:`BrokenSpace` keeps the table at its volume points,
so values, gradients and Laplacians there cost one matmul each time;
:func:`evaluate_basis` builds the table at other points, and the
per-element :class:`ElementBasis` methods are a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import triangle_rule, volume_quadrature


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
    hessians: np.ndarray = None
    laplacians: np.ndarray = None


#: differential operators for :func:`tabulate`
_VALUES = ((0, 0),)
_GRADIENT = (((1, 0),), ((0, 1),))
_HESSIAN = (((2, 0),), ((1, 1),), ((0, 2),))
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


def _basis_eval(mono, G, scales, degree, gradients=False, hessians=False, laplacians=False):
    """Orthonormal basis ``phi = G m`` and the requested derivatives from a
    monomial table, as views of one :func:`tabulate` result."""
    operators = [_VALUES, *(_GRADIENT * gradients), *(_HESSIAN * hessians)]
    operators += [_LAPLACIAN] * laplacians
    tab = tabulate(mono, np.swapaxes(G, -1, -2), scales, degree, operators)
    out = BasisEval(values=tab[..., 0, :])
    k = 1
    if gradients:
        out.gradients = np.swapaxes(tab[..., 1:3, :], -1, -2)
        k = 3
    if hessians:
        hxx, hxy, hyy = (tab[..., k + i, :] for i in range(3))
        out.hessians = np.stack(
            [np.stack([hxx, hxy], axis=-1), np.stack([hxy, hyy], axis=-1)], axis=-2
        )
        k += 3
    if laplacians:
        out.laplacians = tab[..., k, :]
    return out


def basis_derivative(points, centers, scales, G, degree, dx=0, dy=0):
    """``D^(dx,dy)`` of the orthonormal bases ``phi = G m`` of a batch of
    elements at per-element points: ``(E, nq, 2)`` in, ``(E, nq, n)`` out."""
    mono = scaled_monomials(points, centers, scales, degree)
    return tabulate(mono, np.swapaxes(G, -1, -2), scales, degree, [((dx, dy),)])[..., 0, :]


def evaluate_basis(
    points, centers, scales, G, degree, gradients=False, hessians=False, laplacians=False
):
    """Orthonormal basis values (and optionally first derivatives, second
    derivatives and Laplacians) of a batch of elements from one monomial
    table; arguments as in :func:`basis_derivative`."""
    mono = scaled_monomials(points, centers, scales, degree)
    return _basis_eval(mono, G, scales, degree, gradients, hessians, laplacians)


def _orthonormalizer(weights, mono):
    """Batched lower-triangular ``G`` orthonormalizing the monomial basis.

    Works on the square root of the Gram matrix: with ``B = sqrt(w) M`` and
    ``B = QR``, the map ``G = R^-T`` satisfies ``G (B^T B) G^T = I``. Two
    re-orthonormalization passes on the computed point values keep the
    result orthonormal well below 1e-10 even on badly shaped elements,
    where a Cholesky of the Gram matrix itself breaks down.
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


class ElementBasis:
    """Orthonormal polynomial basis of one element.

    ``G`` is lower triangular and maps the scaled-monomial vector ``m(x)``
    to the orthonormal basis, ``phi(x) = G m(x)``. Evaluation is polynomial
    extension: points are not required to lie inside the element.
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
        geo = mesh.element_geometry(k)
        rule = triangle_rule(mesh.vertices[mesh.triangles[k]], 2 * degree, positive=True)
        return cls.from_rule(geo.centroid, geo.h, degree, rule)

    @classmethod
    def from_rule(cls, center, scale, degree, rule):
        """Basis orthonormal w.r.t. the (positive-weight) quadrature domain.

        Used both for element bases and for test bases on other domains
        (e.g. boxes); ``rule`` must be exact to degree ``2 * degree`` on its
        domain.
        """
        mono = scaled_monomials(rule.points[None], [center], [scale], degree)
        G = _orthonormalizer(rule.weights[None], mono)[0]
        return cls(center=center, scale=scale, G=G, degree=degree)

    def _as_batch(self, points):
        """Arguments of the batched evaluators for this element alone."""
        pts = np.asarray(points, dtype=float).reshape(1, -1, 2)
        return pts, self.center[None], [self.scale], self.G[None], self.degree

    def eval(self, points, gradients=False, hessians=False):
        """Values (and optionally first/second derivatives) at ``points``."""
        shape = np.shape(points)[:-1]
        ev = evaluate_basis(*self._as_batch(points), gradients, hessians)
        drop = lambda a: None if a is None else a.reshape(shape + a.shape[2:])
        return BasisEval(drop(ev.values), drop(ev.gradients), drop(ev.hessians))

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

    Bundles the shared volume quadrature, the scaled-monomial table at its
    points (read-only) and the per-element orthonormalization matrices;
    coefficient vectors over the space are laid out element by element
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
        self.volume_points, self.volume_weights = volume_quadrature(mesh, 2 * self.degree + 4)
        self.monomials = scaled_monomials(
            self.volume_points, self.centers, self.scales, self.degree
        )
        self.monomials.flags.writeable = False
        self.G = _orthonormalizer(self.volume_weights, self.monomials)

    def scaled_monomials(self, points, elems=None):
        """Scaled-monomial table ``(m, nq, ndof)`` for per-element point sets."""
        elems = np.arange(np.shape(points)[0]) if elems is None else elems
        return scaled_monomials(points, self.centers[elems], self.scales[elems], self.degree)

    def volume_basis(self, elems=slice(None), gradients=False, laplacians=False):
        """Orthonormal basis values (and optionally gradients and
        Laplacians) at the volume points of ``elems``, from the kept
        monomial table; a slice views the table where an index array would
        copy it."""
        return _basis_eval(
            self.monomials[elems], self.G[elems], self.scales[elems], self.degree,
            gradients=gradients, laplacians=laplacians,
        )

    def eval_function(self, coeffs, elems=slice(None), points=None, gradients=False):
        """Values ``(m, nq)`` and optionally gradients ``(m, nq, 2)`` of the
        function with per-element basis coefficients ``coeffs``
        ``(n_elements, ndof_local)`` on ``elems``: at per-element ``points``
        ``(m, nq, 2)``, or at the volume points from the kept table. Works
        on the monomial coefficients ``G^T c``, so no basis table is built.
        """
        mono = self.monomials[elems] if points is None else self.scaled_monomials(points, elems)
        a = np.swapaxes(self.G[elems], -1, -2) @ coeffs[elems][..., None]
        operators = [_VALUES, *(_GRADIENT * gradients)]
        tab = tabulate(mono, a, self.scales[elems], self.degree, operators)[..., 0]
        return (tab[..., 0], tab[..., 1:]) if gradients else tab[..., 0]

    def eval_elements(self, elems, points, gradients=False, hessians=False):
        """Orthonormal basis values on a batch of elements.

        ``points`` has shape ``(m, nq, 2)`` with one point set per entry of
        ``elems``; results have a trailing basis axis (and derivative axes).
        """
        elems = np.asarray(elems)
        return evaluate_basis(
            points, self.centers[elems], self.scales[elems], self.G[elems],
            self.degree, gradients, hessians,
        )

    def element_basis(self, k):
        return ElementBasis(self.centers[k], self.scales[k], self.G[k], self.degree)
