"""Quadrature rules on triangles, axis-aligned boxes, and mesh facets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule in physical coordinates.

    ``weights`` carry the measure of the domain (area for 2D domains,
    length for edges), so plain weighted sums approximate integrals.
    ``degree`` is the declared polynomial exactness.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=None)
def duffy_rule_barycentric(degree):
    """Positive-weight collapsed tensor rule on the triangle.

    Not symmetric, but all weights are positive (normalized to sum to one),
    which the orthonormalization of element bases requires. Point count
    grows quadratically with the degree.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    m = (degree + 3) // 2 + 1
    t, w = _gauss_legendre_unit(m)
    xi, eta = np.meshgrid(t, t, indexing="ij")
    x = (xi * (1.0 - eta)).ravel()
    y = eta.ravel()
    wts = (np.outer(w, w) * (1.0 - eta[:1, :])).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    return bary, 2.0 * wts


def triangle_rule(vertices, degree):
    """Collapsed tensor rule with positive weights on a ccw triangle,
    exact for polynomials up to ``degree``."""
    verts = np.asarray(vertices, dtype=float)
    bary, w = duffy_rule_barycentric(degree)
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    area = 0.5 * float(e1[0] * e2[1] - e1[1] * e2[0])
    if area <= 0.0:
        raise ValueError("triangle is degenerate or not counterclockwise")
    return QuadratureRule(points=bary @ verts, weights=w * area, degree=degree)


@lru_cache(maxsize=None)
def _gauss_legendre_unit(npoints):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


def box_rule(center, side, degree):
    """Tensor Gauss-Legendre rule on an axis-aligned square."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if side <= 0.0:
        raise ValueError("box side must be positive")
    n1 = degree // 2 + 1
    t, w = _gauss_legendre_unit(n1)
    cx, cy = float(center[0]), float(center[1])
    x = cx - side / 2 + side * t
    y = cy - side / 2 + side * t
    xx, yy = np.meshgrid(x, y, indexing="ij")
    ww = np.outer(w, w).ravel() * side * side
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return QuadratureRule(points=pts, weights=ww, degree=degree)


def volume_quadrature(mesh, degree):
    """Batched positive-weight triangle rule over all mesh elements.

    Returns physical points ``(n_elements, nq, 2)`` and weights
    ``(n_elements, nq)``. Global assembly and basis orthonormalization rely
    on the positive weights.
    """
    bary, w = duffy_rule_barycentric(degree)
    tri = mesh.vertices[mesh.triangles]
    pts = np.einsum("qc,ecd->eqd", bary, tri)
    wts = w[None, :] * mesh.areas[:, None]
    return pts, wts


def facet_quadrature(mesh, degree):
    """Batched edge rule over all mesh facets.

    Returns physical points ``(n_facets, nq, 2)`` and weights
    ``(n_facets, nq)``.
    """
    t, w = _gauss_legendre_unit(degree // 2 + 1)
    p0 = mesh.vertices[mesh.facet_vertices[:, 0]]
    p1 = mesh.vertices[mesh.facet_vertices[:, 1]]
    pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    wts = w[None, :] * mesh.facet_lengths[:, None]
    return pts, wts
