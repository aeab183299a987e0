import io
import math

import numpy as np
import pytest

from trefftzdg.mesh import BOUNDARY, Mesh2D, build_structured_mesh, occurrences


def enumerate_expected_facets(triangles):
    """Independent facet enumeration: each undirected edge once, with the
    elements sharing it."""
    seen = {}
    for e, tri in enumerate(triangles):
        for k in range(3):
            key = tuple(sorted((tri[k], tri[(k + 1) % 3])))
            seen.setdefault(key, []).append(e)
    return seen


def test_minimal_split():
    mesh = build_structured_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    assert mesh.n_facets == 5
    assert len(mesh.boundary_facets) == 4
    assert len(mesh.interior_facets) == 1


def test_n2_facet_enumeration_oracle():
    mesh = build_structured_mesh(2)
    assert mesh.n_vertices == 9
    assert mesh.n_elements == 8
    expected = enumerate_expected_facets(mesh.triangles)
    assert mesh.n_facets == len(expected) == 16
    n_interior = sum(1 for elems in expected.values() if len(elems) == 2)
    assert n_interior == 8
    assert len(mesh.interior_facets) == 8
    assert len(mesh.boundary_facets) == 8
    # every facet record matches the enumerated adjacency
    for f in range(mesh.n_facets):
        key = tuple(sorted(mesh.facet_vertices[f]))
        elems = expected[key]
        if mesh.facet_right[f] == BOUNDARY:
            assert elems == [mesh.facet_left[f]]
        else:
            assert sorted(elems) == sorted([mesh.facet_left[f], mesh.facet_right[f]])


def test_invalid_subdivision_count():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_area_partition_and_h(n):
    mesh = build_structured_mesh(n)
    assert abs(mesh.areas.sum() - 1.0) < 1e-12
    assert np.allclose(mesh.h, math.sqrt(2.0) / n, rtol=1e-14)
    assert np.all(mesh.areas > 0)


def test_facet_partition_of_element_edges():
    mesh = build_structured_mesh(3)
    # every triangle edge appears in exactly one facet record
    count = {}
    for f in range(mesh.n_facets):
        key = tuple(sorted(mesh.facet_vertices[f]))
        count[key] = count.get(key, 0) + 1
    assert all(c == 1 for c in count.values())
    assert 3 * mesh.n_elements == 2 * len(mesh.interior_facets) + len(mesh.boundary_facets)


def test_normal_orientation():
    mesh = build_structured_mesh(4)
    for f in range(mesh.n_facets):
        k1 = mesh.facet_left[f]
        n = mesh.facet_normals[f]
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14
        p0, p1 = mesh.vertices[mesh.facet_vertices[f]]
        assert abs(np.dot(n, p1 - p0)) < 1e-14
        if mesh.facet_right[f] == BOUNDARY:
            # outward from the unit square
            mid = 0.5 * (p0 + p1)
            outward = mid - np.array([0.5, 0.5])
            assert np.dot(n, outward) > 0
        else:
            k2 = mesh.facet_right[f]
            assert np.dot(n, mesh.centroids[k2] - mesh.centroids[k1]) > 0


def test_refinement_nesting():
    for n in (1, 2, 4):
        coarse = build_structured_mesh(n)
        fine = build_structured_mesh(2 * n)
        assert fine.n_elements == 4 * coarse.n_elements


def test_element_geometry_right_triangle():
    mesh = Mesh2D(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
    )
    assert mesh.h[0] == pytest.approx(math.sqrt(2.0))
    assert mesh.areas[0] == pytest.approx(0.5)
    assert np.allclose(mesh.centroids[0], [1 / 3, 1 / 3])
    r = (2 - math.sqrt(2.0)) / 2
    assert mesh.inradii[0] == pytest.approx(r)
    assert np.allclose(mesh.incenters[0], [r, r])


def test_element_geometry_equilateral():
    mesh = Mesh2D(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2]]),
        triangles=np.array([[0, 1, 2]]),
    )
    assert mesh.h[0] == pytest.approx(1.0)
    assert mesh.areas[0] == pytest.approx(math.sqrt(3.0) / 4)


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_collinear_vertices_rejected(scale):
    # the third vertex lies off the line by a relative 1e-15, rounding level
    with pytest.raises(ValueError, match="triangle 0 has non-positive area"):
        Mesh2D(
            vertices=scale * np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0 + 1e-15]]),
            triangles=np.array([[0, 1, 2]]),
        )


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_clockwise_triangle_rejected(scale):
    with pytest.raises(ValueError, match="triangle 0 has non-positive area"):
        Mesh2D(
            vertices=scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 2, 1]]),
        )


@pytest.mark.parametrize("scale", [1e-7, 1e7])
def test_scaled_structured_mesh_builds(scale):
    mesh = build_structured_mesh(2)
    scaled = Mesh2D(mesh.vertices * scale, mesh.triangles)
    np.testing.assert_allclose(scaled.areas, mesh.areas * scale**2, rtol=1e-14)


def test_dump_plain_text():
    mesh = build_structured_mesh(1)
    buf = io.StringIO()
    mesh.dump(buf)
    lines = buf.getvalue().splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    tlines = [l for l in lines if l.startswith("t ")]
    assert len(vlines) == 4 and len(tlines) == 2
    first = vlines[0].split()
    assert first[0] == "v" and len(first) == 3
    float(first[1]), float(first[2])
    tri = tlines[0].split()
    assert tri[0] == "t" and all(0 <= int(i) < 4 for i in tri[1:])


@pytest.mark.parametrize("n", [1, 3, 8, 12])
@pytest.mark.parametrize("perturbed", [False, True])
def test_element_order_is_a_reproducible_permutation(n, perturbed, perturbed_mesh):
    build = perturbed_mesh if perturbed else build_structured_mesh
    mesh = build(n)
    order = mesh.element_order
    assert sorted(order.tolist()) == list(range(mesh.n_elements))
    assert mesh.element_order is order
    assert not order.flags.writeable
    np.testing.assert_array_equal(build(n).element_order, order)


def test_element_order_puts_the_first_separator_last():
    # 16 x 16 cells: the first bisection splits at x = 1/2, and its
    # separator is the column of triangles left of x = 1/2 with a facet on it
    mesh = build_structured_mesh(16)
    on_cut = np.flatnonzero(np.isclose(mesh.centroids[:, 0], (7 + 2 / 3) / 16))
    assert len(on_cut) == 16
    np.testing.assert_array_equal(np.sort(mesh.element_order[-16:]), on_cut)


def dict_facets(triangles):
    """Facet arrays built edge by edge with a dict, facets numbered by first
    appearance: vertices as seen from the first triangle, that triangle as
    K1, the second one (if any) as K2."""
    owners = {}
    for e, tri in enumerate(triangles.tolist()):
        for k in range(3):
            va, vb = tri[k], tri[(k + 1) % 3]
            owners.setdefault((min(va, vb), max(va, vb)), []).append((e, va, vb))
    vertices, left, right = [], [], []
    for edges in owners.values():
        vertices.append(edges[0][1:])
        left.append(edges[0][0])
        right.append(edges[1][0] if len(edges) == 2 else BOUNDARY)
    return np.array(vertices), np.array(left), np.array(right)


def random_delaunay_mesh(n_points, seed):
    """Delaunay triangulation of the unit square corners and random points,
    every triangle turned counterclockwise, in a shuffled triangle order."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    points = np.vstack([corners, rng.uniform(0.05, 0.95, (n_points, 2))])
    tris = Delaunay(points).simplices[rng.permutation(2 * n_points + 2)]
    e1, e2 = points[tris[:, 1]] - points[tris[:, 0]], points[tris[:, 2]] - points[tris[:, 0]]
    clockwise = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    tris[clockwise] = tris[clockwise][:, ::-1]
    return Mesh2D(vertices=points, triangles=tris)


@pytest.mark.parametrize("kind", ["structured", "perturbed", "random"])
@pytest.mark.parametrize("size", [1, 3, 8])
def test_facet_arrays_match_the_dict_reference(kind, size, perturbed_mesh):
    if kind == "structured":
        mesh = build_structured_mesh(size)
    elif kind == "perturbed":
        mesh = perturbed_mesh(size)
    else:
        mesh = random_delaunay_mesh(4 * size * size, seed=size)
    vertices, left, right = dict_facets(mesh.triangles)
    for got, want in ((mesh.facet_vertices, vertices), (mesh.facet_left, left),
                      (mesh.facet_right, right)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", ["structured", "perturbed", "shuffled", "random"])
@pytest.mark.parametrize("size", [1, 3, 8])
def test_local_edges_run_along_the_facet_from_k1_and_back_from_k2(
    kind, size, perturbed_mesh, shuffled_mesh
):
    # local edge k of a triangle runs from its vertex k to vertex k + 1
    if kind == "structured":
        mesh = build_structured_mesh(size)
    elif kind == "perturbed":
        mesh = perturbed_mesh(size)
    elif kind == "shuffled":
        mesh = shuffled_mesh(size, seed=size)
    else:
        mesh = random_delaunay_mesh(4 * size * size, seed=size)
    start, end = mesh.facet_vertices.T
    for edges in (mesh.facet_left_edge, mesh.facet_right_edge):
        assert edges.dtype == np.int64
    k1 = mesh.triangles[mesh.facet_left]
    k = mesh.facet_left_edge
    rows = np.arange(mesh.n_facets)
    np.testing.assert_array_equal(k1[rows, k], start)
    np.testing.assert_array_equal(k1[rows, (k + 1) % 3], end)
    inner, outer = mesh.interior_facets, mesh.boundary_facets
    k2 = mesh.triangles[mesh.facet_right[inner]]
    k = mesh.facet_right_edge[inner]
    rows = np.arange(len(inner))
    np.testing.assert_array_equal(k2[rows, k], end[inner])
    np.testing.assert_array_equal(k2[rows, (k + 1) % 3], start[inner])
    assert np.all(mesh.facet_right_edge[outer] == BOUNDARY)
    if kind == "shuffled" and size == 8:
        # every pair of local edge numbers meets on some facet
        pairs = set(zip(mesh.facet_left_edge[inner].tolist(), k.tolist()))
        assert pairs == {(a, b) for a in range(3) for b in range(3)}


def test_triangles_running_an_edge_the_same_way_rejected():
    # both triangles are counterclockwise and lie above the edge (0, 1)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0]])
    triangles = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(ValueError, match=r"triangles 0 and 1 overlap: both run edge \(0, 1\)"):
        Mesh2D(vertices=vertices, triangles=triangles)


def test_structured_triangles_run_row_by_row():
    n = 3
    expected = []
    for j in range(n):
        for i in range(n):
            ll, lr, ur, ul = j * 4 + i, j * 4 + i + 1, (j + 1) * 4 + i + 1, (j + 1) * 4 + i
            expected += [(ll, lr, ur), (ll, ur, ul)]
    np.testing.assert_array_equal(build_structured_mesh(n).triangles, expected)


def test_edge_shared_by_three_triangles_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
    triangles = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is shared by more than two triangles"):
        Mesh2D(vertices=vertices, triangles=triangles)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vertex_rejected(bad):
    mesh = build_structured_mesh(2)
    vertices = mesh.vertices.copy()
    vertices[4, 1] = bad
    vertices[7, 0] = bad
    with pytest.raises(ValueError, match=r"^vertex 4 has non-finite coordinates"):
        Mesh2D(vertices=vertices, triangles=mesh.triangles)


@pytest.mark.parametrize("index", [-1, 9, 10**9])
def test_out_of_range_triangle_index_rejected(index):
    mesh = build_structured_mesh(2)
    triangles = mesh.triangles.copy()
    triangles[5, 2] = index
    with pytest.raises(ValueError, match=r"^triangle 5 has vertex indices .* outside \[0, 9\)"):
        Mesh2D(vertices=mesh.vertices, triangles=triangles)


@pytest.mark.parametrize("size", [0, 1, 50])
def test_occurrences_rank_each_entry_among_its_equal_keys(size):
    keys = np.random.default_rng(size).integers(0, 7, size)
    counts, expected = {}, []
    for k in keys.tolist():
        expected.append(counts.get(k, 0))
        counts[k] = expected[-1] + 1
    np.testing.assert_array_equal(occurrences(keys), expected)
    np.testing.assert_array_equal(occurrences(np.array([5, 2, 5, 5])), [0, 0, 1, 2])


def test_edge_tilts_are_the_per_element_formula_and_read_only(perturbed_mesh):
    mesh = perturbed_mesh(4)
    tilts = mesh.edge_tilts
    assert mesh.edge_tilts is tilts
    for k in range(mesh.n_elements):
        verts = mesh.vertices[mesh.triangles[k]]
        edges = np.roll(verts, -1, axis=0) - verts
        want = np.max(np.abs(edges).sum(axis=1) / np.linalg.norm(edges, axis=1))
        assert tilts[k] == want
    # axis-aligned legs and a 45-degree hypotenuse
    np.testing.assert_allclose(build_structured_mesh(2).edge_tilts, math.sqrt(2.0), rtol=1e-15)
    with pytest.raises(ValueError):
        tilts[0] = 1.0
