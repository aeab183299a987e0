"""Quadrature rules on triangles, axis-aligned boxes, and mesh facets."""

from __future__ import annotations

import math
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
    if not np.isfinite(verts).all():
        raise ValueError(f"triangle vertices must be finite, got {verts.tolist()}")
    bary, w = duffy_rule_barycentric(degree)
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    area = 0.5 * float(e1[0] * e2[1] - e1[1] * e2[0])
    if area <= 0.0:
        raise ValueError("triangle is degenerate or not counterclockwise")
    return QuadratureRule(points=bary @ verts, weights=w * area, degree=degree)


@lru_cache(maxsize=None)
def _gauss_legendre_unit(npoints):
    """Gauss-Legendre nodes/weights on [0, 1]; read-only, as they are
    cached."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    for array in (t, w):
        array.flags.writeable = False
    return t, w


@lru_cache(maxsize=None)
def unit_box_rule(npoints):
    """Tensor Gauss-Legendre rule with ``npoints`` points per axis on the
    unit square ``[0, 1]^2``: points ``(npoints^2, 2)`` and weights
    ``(npoints^2,)``, read-only, as every box rule maps them."""
    t, w = _gauss_legendre_unit(npoints)
    tx, ty = np.meshgrid(t, t, indexing="ij")
    points = np.column_stack([tx.ravel(), ty.ravel()])
    weights = np.outer(w, w).ravel()
    for array in (points, weights):
        array.flags.writeable = False
    return points, weights


def box_rule(center, side, degree):
    """Tensor Gauss-Legendre rule on an axis-aligned square: the unit
    square rule of :func:`unit_box_rule` mapped to the lower corner
    ``center - side/2``, its weights scaled by ``side**2``."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if not 0.0 < side < math.inf:
        raise ValueError(f"box side must be positive and finite, got {side}")
    cx, cy = float(center[0]), float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"box center must be finite, got ({cx}, {cy})")
    points, weights = unit_box_rule(degree // 2 + 1)
    corner = np.array([cx - side / 2, cy - side / 2])
    return QuadratureRule(
        points=corner + side * points, weights=weights * side * side, degree=degree
    )


def volume_quadrature(mesh, degree):
    """Batched positive-weight triangle rule over all mesh elements.

    Returns physical points ``(n_elements, nq, 2)`` and weights
    ``(n_elements, nq)``. Global assembly and basis orthonormalization rely
    on the positive weights.
    """
    bary, w = duffy_rule_barycentric(degree)
    tri = mesh.vertices[mesh.triangles]
    # per coordinate, sum_c bary[:, c] tri[:, c] in place: bit for bit the
    # einsum "qc,ecd->eqd" (a matrix product rounds differently)
    pts = np.empty((mesh.n_elements, len(bary), 2))
    term = np.empty(pts.shape[:2])
    for d in range(2):
        np.multiply(tri[:, 0, d, None], bary[:, 0], out=pts[..., d])
        for c in (1, 2):
            pts[..., d] += np.multiply(tri[:, c, d, None], bary[:, c], out=term)
    wts = w[None, :] * mesh.areas[:, None]
    return pts, wts


def edge_rule(degree):
    """Gauss-Legendre nodes ``t`` and weights on ``[0, 1]``, exact up to
    ``degree``; read-only. Every facet rule maps them, and the basis
    tabulates its facet traces at them."""
    return _gauss_legendre_unit(degree // 2 + 1)


def facet_quadrature(mesh, degree):
    """Batched edge rule over all mesh facets: the :func:`edge_rule` nodes
    ``t`` at ``v0 + t (v1 - v0)`` for the facet vertices ``v0, v1``.

    Returns physical points ``(n_facets, nq, 2)`` and weights
    ``(n_facets, nq)``.
    """
    t, w = edge_rule(degree)
    p0 = mesh.vertices[mesh.facet_vertices[:, 0]]
    p1 = mesh.vertices[mesh.facet_vertices[:, 1]]
    pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    wts = w[None, :] * mesh.facet_lengths[:, None]
    return pts, wts
