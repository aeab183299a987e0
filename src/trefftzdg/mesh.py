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


def occurrences(keys):
    """Each entry's rank among the entries of ``keys`` with its key, in
    their given order: ``[5, 2, 5, 5]`` gives ``[0, 0, 1, 2]``."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.arange(len(keys)) - np.searchsorted(ranked, ranked)
    return rank


class Mesh2D:
    """Conforming triangulation with per-facet adjacency and normals.

    Facet ``f`` separates ``facet_left[f]`` (K1) from ``facet_right[f]``
    (K2, or :data:`BOUNDARY`); ``facet_normals[f]`` is the unit normal
    pointing out of K1. Jumps downstream follow the convention
    ``[u] = u|K1 - u|K2``.

    Local edge ``k`` of a triangle runs from its vertex ``k`` to vertex
    ``k + 1`` (mod 3). ``facet_left_edge[f]`` is the local edge of K1 on
    facet ``f``, which runs from ``facet_vertices[f, 0]`` to
    ``facet_vertices[f, 1]``; ``facet_right_edge[f]`` is that of K2 (or
    :data:`BOUNDARY`), which runs the other way, as both triangles are
    counterclockwise.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (n, 3)")
        bad = ~np.isfinite(self.vertices).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"vertex {k} has non-finite coordinates {self.vertices[k].tolist()}")
        bad = ((self.triangles < 0) | (self.triangles >= len(self.vertices))).any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"triangle {k} has vertex indices {self.triangles[k].tolist()} outside "
                f"[0, {len(self.vertices)})"
            )
        self._build_geometry()
        self._build_facets()

    # -- construction ---------------------------------------------------

    def _build_geometry(self):
        tri = self.vertices[self.triangles]
        e01 = tri[:, 1] - tri[:, 0]
        e02 = tri[:, 2] - tri[:, 0]
        signed = 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])
        # relative to the squared longest edge, so the test does not depend
        # on the scale of the coordinates
        longest = np.max(np.sum((tri - np.roll(tri, 1, axis=1)) ** 2, axis=2), axis=1)
        flat = signed <= 1e-14 * longest
        if flat.any():
            bad = int(np.argmax(flat))
            raise ValueError(
                f"triangle {bad} has non-positive area (collinear or "
                f"clockwise vertices)"
            )
        self.areas = signed
        # the map x = v0 + J zeta from the reference triangle has J = [e01 e02]
        # and det J = 2 area; the rows of its adjugate det J J^-1 are e02 and
        # -e01 turned by a right angle, (x, y) @ perp = (y, -x)
        perp = np.array([[0.0, -1.0], [1.0, 0.0]])
        self.adjugates = np.stack([e02 @ perp, -e01 @ perp], axis=1)
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
        # edge 3e + k runs from local vertex k to k + 1 of triangle e
        start = self.triangles.ravel()
        end = np.roll(self.triangles, -1, axis=1).ravel()
        key = np.minimum(start, end) * self.n_vertices + np.maximum(start, end)
        # the edges of each facet side by side in triangle order; facets are
        # numbered by their first edge, whose triangle is K1
        edges = np.argsort(key, kind="stable")
        heads = np.flatnonzero(np.diff(key[edges], prepend=-1))
        counts = np.diff(heads, append=len(edges))
        by_appearance = np.argsort(edges[heads])
        heads, counts = heads[by_appearance], counts[by_appearance]
        first = edges[heads]
        if np.any(counts > 2):
            e = first[np.argmax(counts > 2)]
            edge = (int(min(start[e], end[e])), int(max(start[e], end[e])))
            raise ValueError(f"edge {edge} is shared by more than two triangles")
        self.facet_vertices = np.column_stack([start[first], end[first]])
        self.facet_left = first // 3
        second = edges[np.minimum(heads + 1, len(edges) - 1)]
        same_way = (counts == 2) & (start[second] == start[first])
        if same_way.any():
            e, o = first[same_way][0], second[same_way][0]
            raise ValueError(
                f"triangles {e // 3} and {o // 3} overlap: both run edge "
                f"({start[e]}, {end[e]}) the same way"
            )
        self.facet_right = np.where(counts == 2, second // 3, BOUNDARY)
        self.facet_left_edge = first % 3
        self.facet_right_edge = np.where(counts == 2, second % 3, BOUNDARY)
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
    def edge_tilts(self):
        """``max_e (|e_x| + |e_y|) / |e|`` over the edges ``e`` of each
        element: 1 for an edge along an axis, up to ``sqrt(2)`` for one at
        45 degrees. A unit edge normal is its unit tangent turned, so this
        is also ``max_e |n_x| + |n_y|``, and an axis-aligned square of
        half-side ``a`` about the incenter fits in the element exactly when
        ``a tilt_K <= r_K``. Read-only; computed on first use."""
        tri = self.vertices[self.triangles]
        edges = np.roll(tri, -1, axis=1) - tri
        tilts = np.max(np.abs(edges).sum(axis=2) / np.linalg.norm(edges, axis=2), axis=1)
        tilts.flags.writeable = False
        return tilts

    @functools.cached_property
    def element_order(self):
        """Nested-dissection order of the elements (George 1973).

        The centroids are bisected recursively at the median of their
        longer extent. The elements of the first half that share a facet
        with the second half form the separator and come after both
        halves, so a sparse LU of a DG matrix in this block order fills in
        only along the separators. The solver factors every system whose
        element graph has a cycle (SIP, a closed flow) in this order; an
        acyclic graph is swept in level order and never computes it. Only
        centroids and facet adjacency are used, so any triangulation works.
        Read-only; computed on first use.
        """
        n = self.n_elements
        # neighbours across each element's facets; n marks "no neighbour"
        left = self.facet_left[self.interior_facets]
        right = self.facet_right[self.interior_facets]
        owner, other = np.concatenate([left, right]), np.concatenate([right, left])
        neighbours = np.full((n, 3), n)
        neighbours[owner, occurrences(owner)] = other
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

    # lower-left, lower-right, upper-right and upper-left corners of the
    # cells, row by row
    j, i = np.divmod(np.arange(n * n), n)
    ll = j * (n + 1) + i
    lr, ul = ll + 1, ll + n + 1
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.stack([lower, upper], axis=1).reshape(-1, 3)
    return Mesh2D(vertices=vertices, triangles=triangles)
