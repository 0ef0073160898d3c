import numpy as np
import pytest

from lovebem import (TriangleMesh, MeshError,
                     generate_sphere_mesh, barycentric_refine)
from lovebem.mesh import _octahedron, unit_icosphere
from conftest import make_torus_mesh, turned


def signed_volume(mesh):
    c = mesh.face_corners
    return float(np.einsum("ij,ij->", c[:, 0],
                           np.cross(c[:, 1], c[:, 2])) / 6.0)


class TestReaders:
    def test_off_octahedron_counts(self, octahedron):
        assert octahedron.n_vertices == 6
        assert octahedron.n_edges == 12
        assert octahedron.n_faces == 8
        euler = (octahedron.n_vertices - octahedron.n_edges
                 + octahedron.n_faces)
        assert euler == 2

    def test_deterministic_edge_table(self):
        a = _octahedron()
        b = _octahedron()
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.edge_faces, b.edge_faces)
        # reference orientation is lower index -> higher index
        assert np.all(a.edges[:, 0] < a.edges[:, 1])
        order = np.lexsort((a.edges[:, 1], a.edges[:, 0]))
        np.testing.assert_array_equal(order, np.arange(a.n_edges))
        # the mesh freezes copies, never the caller's own arrays
        verts, tris = a.vertices.copy(), a.triangles.copy()
        c = TriangleMesh(verts, tris)
        assert verts.flags.writeable and tris.flags.writeable
        assert not (c.vertices.flags.writeable or c.triangles.flags.writeable)

    def test_inconsistent_winding_rejected(self, octahedron):
        tri = octahedron.triangles.copy()
        tri[[1, 4, 6], :] = tri[[1, 4, 6]][:, [0, 2, 1]]
        with pytest.raises(MeshError, match="unorientable"):
            TriangleMesh(octahedron.vertices, tri)

    def test_generated_meshes_wind_outward(self, octahedron):
        meshes = [unit_icosphere(level) for level in range(5)]
        for mesh in meshes + [octahedron]:
            assert signed_volume(mesh) > 0
            # convex solids centred at the origin
            dots = np.einsum("ij,ij->i", mesh.face_normals,
                             mesh.face_centroids)
            assert np.all(dots > 0)

    def test_open_surface_rejected(self, octahedron):
        with pytest.raises(MeshError, match="open"):
            TriangleMesh(octahedron.vertices, octahedron.triangles[:-1])

    def test_nonmanifold_rejected(self, octahedron):
        tri = np.vstack([octahedron.triangles,
                         octahedron.triangles[:1]])
        with pytest.raises(MeshError, match="non-manifold"):
            TriangleMesh(octahedron.vertices, tri)

    def test_genus_one_rejected(self):
        with pytest.raises(MeshError, match="Euler"):
            make_torus_mesh()


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
            generate_sphere_mesh(0.04, 1e-5)


class TestTopologyTables:
    def test_face_edges_consistent(self, small_sphere):
        refined = barycentric_refine(unit_icosphere(2)).mesh
        for m in (small_sphere, refined):
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
        assert signed_volume(r.mesh) == pytest.approx(
            signed_volume(small_sphere), rel=1e-13)
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
            r.mesh.vertices[r.centroid_offset + 3],
            octahedron.face_centroids[3])


class TestRotations:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_icospheres_keep_all_sixty(self, level):
        mesh = unit_icosphere(level)
        rot = mesh.rotations
        np.testing.assert_array_equal(rot.ids, np.arange(60))
        assert rot.perm.shape == rot.sign.shape == (60, mesh.n_edges)
        np.testing.assert_array_equal(rot.perm[0], np.arange(mesh.n_edges))
        np.testing.assert_array_equal(rot.sign[0], 1)
        for perm in rot.perm:
            np.testing.assert_array_equal(np.sort(perm),
                                          np.arange(mesh.n_edges))

    def test_octahedron_keeps_the_tetrahedral_twelve(self, octahedron):
        assert len(octahedron.rotations.ids) == 12

    def test_edge_maps_follow_the_rotated_vertices(self, small_sphere):
        # the rotated midpoint of edge e is the midpoint of perm[e], and
        # sign -1 exactly where the image runs from the higher index
        from lovebem.mesh import _icosahedral_rotations
        mesh, rot = small_sphere, small_sphere.rotations
        v, e = mesh.vertices, mesh.edges
        for g, perm, sign in zip(rot.ids, rot.perm, rot.sign):
            turn = _icosahedral_rotations()[g]
            tail, head = v[e[:, 0]] @ turn.T, v[e[:, 1]] @ turn.T
            np.testing.assert_allclose(tail + head,
                                       v[e[perm, 0]] + v[e[perm, 1]],
                                       atol=1e-15)
            forward = np.linalg.norm(tail - v[e[perm, 0]], axis=1) < 1e-12
            np.testing.assert_array_equal(sign, np.where(forward, 1, -1))

    def test_asymmetric_meshes_keep_the_identity(self):
        icosphere = unit_icosphere(1)
        irregular = TriangleMesh(
            [[0.9, 0.1, 0.0], [-0.3, 1.1, 0.2], [-0.4, -0.7, 0.1],
             [0.1, 0.2, 1.3]], [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
        shifted = TriangleMesh(icosphere.vertices + [0.1, 0.2, 0.3],
                               icosphere.triangles)
        remote = TriangleMesh(icosphere.vertices + [3e9, 0.0, 0.0],
                              icosphere.triangles)
        for mesh in (irregular, shifted, remote, turned(icosphere, 0),
                     turned(icosphere, 1)):
            rot = mesh.rotations
            np.testing.assert_array_equal(rot.ids, [0])
            np.testing.assert_array_equal(rot.perm, [np.arange(mesh.n_edges)])
            np.testing.assert_array_equal(rot.sign, 1)

    def test_cached_on_the_mesh(self, small_sphere):
        assert small_sphere.rotations is small_sphere.rotations
        with pytest.raises(ValueError):
            small_sphere.rotations.perm[0, 0] = 1
