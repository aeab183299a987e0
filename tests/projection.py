"""L2 projection oracle for the tests: each element's own quadrature rule
contracted with the basis values of the space there."""

import numpy as np

from trefftzdg.quadrature import triangle_rule


def l2_projection(space, f, degree, elems=None):
    """Coefficients ``(m, ndof_local)`` of the L2 projections of ``f(x, y)``
    onto the basis of each of ``elems`` (every element by default), on the
    element's own :func:`triangle_rule` of exactness ``degree``, which
    must be at least ``2 p`` to reproduce polynomials of the space."""
    mesh = space.mesh
    elems = np.arange(mesh.n_elements) if elems is None else np.asarray(elems)
    rules = [triangle_rule(mesh.vertices[mesh.triangles[k]], degree) for k in elems]
    points = np.stack([rule.points for rule in rules])
    weights = np.stack([rule.weights for rule in rules])
    values = space.eval_elements(elems, points).values
    f_values = np.asarray(f(points[..., 0], points[..., 1]), dtype=float)
    return np.einsum("eq,eq,eqi->ei", weights, f_values, values)
