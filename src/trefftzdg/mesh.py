"""Simplicial meshes of the unit square with the facet topology needed
for discontinuous Galerkin jump/average terms.

Meshes are immutable after construction; all geometric quantities are
precomputed as arrays indexed by element or facet.
"""

from __future__ import annotations

import functools

import numpy as np

#: Marker stored in ``facet_right`` for boundary facets.
BOUNDARY = -1

#: Element sets of at most this size are not dissected further.
_ND_LEAF = 16


class Mesh2D:
    """Conforming triangulation with per-facet adjacency and normals.

    Facet ``f`` separates ``facet_left[f]`` (K1) from ``facet_right[f]``
    (K2, or :data:`BOUNDARY`); ``facet_normals[f]`` is the unit normal
    pointing out of K1. Jumps downstream follow the convention
    ``[u] = u|K1 - u|K2``.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (n, 3)")
        self._build_geometry()
        self._build_facets()

    # -- construction ---------------------------------------------------

    def _build_geometry(self):
        tri = self.vertices[self.triangles]
        e01 = tri[:, 1] - tri[:, 0]
        e02 = tri[:, 2] - tri[:, 0]
        signed = 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])
        if np.any(signed <= 1e-14):
            bad = int(np.argmin(signed))
            raise ValueError(
                f"triangle {bad} has non-positive area (collinear or "
                f"clockwise vertices)"
            )
        self.areas = signed
        self.centroids = tri.mean(axis=1)
        # side lengths opposite each local vertex
        a = np.linalg.norm(tri[:, 2] - tri[:, 1], axis=1)
        b = np.linalg.norm(tri[:, 0] - tri[:, 2], axis=1)
        c = np.linalg.norm(tri[:, 1] - tri[:, 0], axis=1)
        lengths = np.stack([a, b, c], axis=1)
        self.h = lengths.max(axis=1)
        perim = lengths.sum(axis=1)
        self.incenters = np.einsum("ek,ekd->ed", lengths, tri) / perim[:, None]
        self.inradii = self.areas / (0.5 * perim)

    def _build_facets(self):
        order = {}
        adjacency = {}
        for e in range(len(self.triangles)):
            tri = self.triangles[e]
            for k in range(3):
                va, vb = int(tri[k]), int(tri[(k + 1) % 3])
                key = (va, vb) if va < vb else (vb, va)
                if key not in order:
                    order[key] = len(order)
                    adjacency[key] = []
                adjacency[key].append((e, va, vb))
        nf = len(order)
        self.facet_vertices = np.empty((nf, 2), dtype=np.int64)
        self.facet_left = np.empty(nf, dtype=np.int64)
        self.facet_right = np.full(nf, BOUNDARY, dtype=np.int64)
        for key, owners in adjacency.items():
            if len(owners) > 2:
                raise ValueError(f"edge {key} is shared by more than two triangles")
            f = order[key]
            e1, va, vb = owners[0]
            self.facet_vertices[f] = (va, vb)
            self.facet_left[f] = e1
            if len(owners) == 2:
                self.facet_right[f] = owners[1][0]
        p0 = self.vertices[self.facet_vertices[:, 0]]
        p1 = self.vertices[self.facet_vertices[:, 1]]
        tangent = p1 - p0
        self.facet_lengths = np.linalg.norm(tangent, axis=1)
        # ccw traversal of K1 makes (ty, -tx) the outward normal of K1
        self.facet_normals = (
            np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
            / self.facet_lengths[:, None]
        )
        self.interior_facets = np.flatnonzero(self.facet_right != BOUNDARY)
        self.boundary_facets = np.flatnonzero(self.facet_right == BOUNDARY)

    # -- queries ---------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.triangles)

    @property
    def n_facets(self):
        return len(self.facet_vertices)

    @functools.cached_property
    def element_order(self):
        """Nested-dissection order of the elements (George 1973).

        The centroids are bisected recursively at the median of their
        longer extent. The elements of the first half that share a facet
        with the second half form the separator and come after both
        halves, so a sparse LU of a DG matrix in this block order fills in
        only along the separators. The solver orders each strongly
        connected component of a system's element graph this way and puts
        the components in dependency order, so a connected (SIP) system is
        factored in exactly this order. Only centroids and facet adjacency
        are used, so any triangulation works. Read-only; computed on first
        use.
        """
        n = self.n_elements
        # neighbours across each element's facets; n marks "no neighbour"
        left = self.facet_left[self.interior_facets]
        right = self.facet_right[self.interior_facets]
        owner, other = np.concatenate([left, right]), np.concatenate([right, left])
        by_owner = np.argsort(owner, kind="stable")
        owner, other = owner[by_owner], other[by_owner]
        slot = np.arange(len(owner)) - np.searchsorted(owner, owner)
        neighbours = np.full((n, 3), n)
        neighbours[owner, slot] = other
        # tag[k] == t marks k as in the second half of dissection step t
        tag = np.full(n + 1, -1)
        parts = []

        def dissect(elems, step):
            if len(elems) <= _ND_LEAF:
                parts.append(elems)
                return step
            pts = self.centroids[elems]
            axis = int(np.argmax(np.ptp(pts, axis=0)))
            ranked = elems[np.argsort(pts[:, axis], kind="stable")]
            first, second = np.split(ranked, [len(ranked) // 2])
            tag[second] = step
            cut = np.any(tag[neighbours[first]] == step, axis=1)
            step = dissect(first[~cut], step + 1)
            step = dissect(second, step)
            parts.append(first[cut])
            return step

        dissect(np.arange(n), 0)
        order = np.concatenate(parts)
        order.flags.writeable = False
        return order

    def dump(self, target):
        """Write the mesh as plain text: ``v x y`` and ``t i j k`` lines."""
        if hasattr(target, "write"):
            self._dump_stream(target)
        else:
            with open(target, "w", newline="\n") as fh:
                self._dump_stream(fh)

    def _dump_stream(self, fh):
        for x, y in self.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r}\n")
        for i, j, k in self.triangles:
            fh.write(f"t {i} {j} {k}\n")


def build_structured_mesh(n):
    """Uniform triangulation of the unit square.

    Each of the ``n x n`` grid cells is split along its lower-left to
    upper-right diagonal, giving ``2 n^2`` congruent right triangles with
    ``h = sqrt(2)/n``.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("number of subdivisions must be a positive integer")
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            ll, lr = vid(i, j), vid(i + 1, j)
            ur, ul = vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((ll, lr, ur))
            triangles.append((ll, ur, ul))
    return Mesh2D(vertices=vertices, triangles=np.array(triangles))
