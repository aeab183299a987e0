import numpy as np
import pytest

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
