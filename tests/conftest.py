import math
from dataclasses import replace

import numpy as np
import pytest

from trefftzdg import embedding
from trefftzdg.mesh import Mesh2D, build_structured_mesh


@pytest.fixture
def perturbed_mesh():
    """Builder of an ``n x n`` structured mesh whose interior vertices are
    moved by a fixed smooth pattern of at most ``0.2 h`` per coordinate;
    orientation is kept and the triangles are no longer congruent."""

    def build(n):
        base = build_structured_mesh(n)
        verts = base.vertices.copy()
        x, y = verts[:, 0], verts[:, 1]
        interior = (x > 0) & (x < 1) & (y > 0) & (y < 1)
        shift = np.column_stack([np.sin(7.1 * x + 3.3 * y), np.cos(5.3 * x - 2.9 * y)])
        verts[interior] += 0.2 / n * shift[interior]
        return Mesh2D(vertices=verts, triangles=base.triangles)

    return build


@pytest.fixture
def shuffled_mesh():
    """Builder of the ``n x n`` structured mesh with its triangles in a
    seeded random order and each vertex list rotated by a random shift,
    which keeps the orientation; on larger meshes every local edge number
    of K1 meets every one of K2 across some facet."""

    def build(n, seed=0):
        base = build_structured_mesh(n)
        rng = np.random.default_rng(seed)
        triangles = base.triangles[rng.permutation(base.n_elements)]
        shift = rng.integers(0, 3, size=(len(triangles), 1))
        triangles = np.take_along_axis(triangles, (np.arange(3) + shift) % 3, axis=1)
        return Mesh2D(vertices=base.vertices, triangles=triangles)

    return build


@pytest.fixture
def sliver_mesh():
    """Builder of one needle triangle of unit length and height
    ``1/aspect``, turned by ``turn`` radians."""

    def build(aspect, turn):
        c, s = math.cos(turn), math.sin(turn)
        turned = np.array([[c, s], [-s, c]])
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 1.0 / aspect]]) @ turned
        return Mesh2D(vertices=verts, triangles=np.array([[0, 1, 2]]))

    return build


@pytest.fixture
def zero_odd_operators(monkeypatch):
    """Give every odd element a zero local operator in every embedding
    built, whether its operators come from a system or are assembled, so
    that its kernel is the whole local space: kernel widths 4 and 10
    alternate at AR p = 3."""
    assemble = embedding._local_operators

    def half_zero(*args, **kwargs):
        ops = assemble(*args, **kwargs)
        odd = (ops.elements % 2 == 1)[:, None, None]
        return replace(ops, matrices=np.where(odd, 0.0, 1.0) * ops.matrices)

    monkeypatch.setattr(embedding, "_local_operators", half_zero)
