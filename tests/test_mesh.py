import numpy as np
import pytest

from lovebem import (TriangleMesh, MeshError, load_mesh,
                     generate_sphere_mesh, barycentric_refine)
from conftest import OCTAHEDRON_OFF, OCTAHEDRON_GMSH, make_torus_mesh


class TestReaders:
    def test_off_octahedron_counts(self, octahedron):
        assert octahedron.n_vertices == 6
        assert octahedron.n_edges == 12
        assert octahedron.n_faces == 8
        euler = (octahedron.n_vertices - octahedron.n_edges
                 + octahedron.n_faces)
        assert euler == 2

    def test_gmsh_matches_off(self, octahedron):
        m = load_mesh(OCTAHEDRON_GMSH)
        np.testing.assert_array_equal(m.vertices, octahedron.vertices)
        np.testing.assert_array_equal(m.triangles, octahedron.triangles)
        np.testing.assert_array_equal(m.edges, octahedron.edges)

    def test_deterministic_edge_table(self):
        a = load_mesh(OCTAHEDRON_OFF)
        b = load_mesh(OCTAHEDRON_OFF)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.edge_faces, b.edge_faces)
        # reference orientation is lower index -> higher index
        assert np.all(a.edges[:, 0] < a.edges[:, 1])
        order = np.lexsort((a.edges[:, 1], a.edges[:, 0]))
        np.testing.assert_array_equal(order, np.arange(a.n_edges))

    def test_orientation_repair(self, octahedron):
        tri = octahedron.triangles.copy()
        tri[[1, 4, 6], :] = tri[[1, 4, 6]][:, [0, 2, 1]]
        repaired = TriangleMesh.from_arrays(octahedron.vertices, tri)
        assert repaired.signed_volume > 0
        # all normals outward on a convex solid centred at the origin
        dots = np.einsum("ij,ij->i", repaired.face_normals,
                         repaired.face_centroids)
        assert np.all(dots > 0)

    def test_fully_inverted_input_flipped_outward(self, octahedron):
        tri = octahedron.triangles[:, [0, 2, 1]]
        repaired = TriangleMesh.from_arrays(octahedron.vertices, tri)
        assert repaired.signed_volume > 0

    def test_open_surface_rejected(self, octahedron):
        with pytest.raises(MeshError, match="open"):
            TriangleMesh.from_arrays(octahedron.vertices,
                                     octahedron.triangles[:-1])

    def test_nonmanifold_rejected(self, octahedron):
        tri = np.vstack([octahedron.triangles,
                         octahedron.triangles[:1]])
        with pytest.raises(MeshError, match="non-manifold"):
            TriangleMesh.from_arrays(octahedron.vertices, tri)

    def test_genus_one_rejected(self):
        with pytest.raises(MeshError, match="Euler"):
            make_torus_mesh()

    def test_parse_garbage(self):
        with pytest.raises(MeshError):
            load_mesh("OFF\n3 1 0\nnot numbers\n")
        with pytest.raises(MeshError):
            load_mesh("this is not a mesh\nat all\n")

    def test_gmsh_quad_rejected(self):
        bad = OCTAHEDRON_GMSH.replace("10 2 2 0 1 1 4 6",
                                      "10 3 2 0 1 1 4 6 2")
        with pytest.raises(MeshError, match="element type"):
            load_mesh(bad)


class TestSphere:
    def test_coarse_request_low_level(self):
        m = generate_sphere_mesh(0.04, 0.04)
        assert m.n_edges in (30, 120)

    def test_level_one(self, small_sphere):
        assert small_sphere.n_edges == 120
        euler = (small_sphere.n_vertices - small_sphere.n_edges
                 + small_sphere.n_faces)
        assert euler == 2
        assert small_sphere.edge_lengths.max() <= 1.5 * 0.02

    def test_fine_request(self):
        m = generate_sphere_mesh(0.04, 0.003)
        level = int(np.round(np.log(m.n_edges / 30) / np.log(4)))
        assert m.n_edges == 30 * 4 ** level
        assert m.edge_lengths.max() <= 1.5 * 0.003

    def test_vertices_on_sphere(self, small_sphere):
        r = np.linalg.norm(small_sphere.vertices, axis=1)
        np.testing.assert_allclose(r, 0.04, rtol=1e-12)

    def test_bad_targets(self):
        with pytest.raises(MeshError):
            generate_sphere_mesh(0.04, 0.0)
        with pytest.raises(MeshError):
            generate_sphere_mesh(0.04, 0.05)
        with pytest.raises(MeshError, match="cap"):
            generate_sphere_mesh(0.04, 1e-5, level_cap=4)


class TestTopologyTables:
    def test_face_edges_consistent(self, small_sphere):
        m = small_sphere
        for t in range(m.n_faces):
            corners = set(m.triangles[t])
            for a in range(3):
                e = m.face_edges[t, a]
                pair = set(m.edges[e])
                assert pair == corners - {m.triangles[t, a]}
                is_plus = m.edge_faces[e, 0] == t
                assert (1 if is_plus else -1) == m.face_edge_signs[t, a]

    def test_edge_faces_cover(self, small_sphere):
        counts = np.bincount(small_sphere.edge_faces.ravel(),
                             minlength=small_sphere.n_faces)
        assert np.all(counts == 3)

    def test_vertex_fans_cyclic(self, octahedron):
        fans = octahedron.vertex_fans()
        for v, (edges, faces) in enumerate(fans):
            assert len(edges) == len(faces) == 4
            for i, f in enumerate(faces):
                e_in = edges[i]
                e_out = edges[(i + 1) % len(edges)]
                face_edge_set = set(octahedron.face_edges[f])
                assert e_in in face_edge_set
                assert e_out in face_edge_set

    def test_vertex_fans_ccw(self, octahedron):
        # around (0, 0, 1) the spokes must rotate counter-clockwise
        # when seen from +z (outside)
        v = 4
        edges, _ = octahedron.vertex_fans()[v]
        angles = []
        for e in edges:
            a, b = octahedron.edges[e]
            other = b if a == v else a
            d = octahedron.vertices[other] - octahedron.vertices[v]
            angles.append(np.arctan2(d[1], d[0]))
        diffs = np.diff(np.unwrap(angles))
        assert np.all(diffs > 0) or np.all(diffs < 0)
        total = np.unwrap(angles)[-1] - np.unwrap(angles)[0]
        assert total > 0  # CCW overall


class TestRefinement:
    def test_counts(self, octahedron):
        r = barycentric_refine(octahedron)
        assert r.mesh.n_vertices == 6 + 12 + 8
        assert r.mesh.n_faces == 48
        assert r.mesh.n_edges == 72

    def test_area_preserved_per_parent(self, small_sphere):
        r = barycentric_refine(small_sphere)
        child_area = r.mesh.face_areas.reshape(-1, 6).sum(axis=1)
        np.testing.assert_allclose(child_area, small_sphere.face_areas,
                                   rtol=1e-13)

    def test_same_surface(self, small_sphere):
        r = barycentric_refine(small_sphere)
        assert r.mesh.signed_volume == pytest.approx(
            small_sphere.signed_volume, rel=1e-13)
        # children inherit the parent winding: normals agree
        parent_n = np.repeat(small_sphere.face_normals, 6, axis=0)
        np.testing.assert_allclose(r.mesh.face_normals, parent_n,
                                   atol=1e-12)

    def test_vertex_mapping(self, octahedron):
        r = barycentric_refine(octahedron)
        e0 = octahedron.edges[0]
        mid = 0.5 * (octahedron.vertices[e0[0]] +
                     octahedron.vertices[e0[1]])
        np.testing.assert_allclose(
            r.mesh.vertices[r.midpoint_vertex(0)], mid)
        np.testing.assert_allclose(
            r.mesh.vertices[r.centroid_vertex(3)],
            octahedron.face_centroids[3])
