"""Basis space checks: refinement exactness, dual charges, loop-star."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lovebem.mesh import _edge_ids, barycentric_refine, generate_sphere_mesh
from lovebem.spaces import (basis_pair, bc_matrix, build_loop_star,
                            evaluate_rt0, gram_matrix)


@pytest.fixture(scope="module")
def sphere_pair():
    mesh = generate_sphere_mesh(0.04, 0.02)
    return basis_pair(mesh)


def random_interior_points(mesh, faces, rng):
    bary = rng.dirichlet([2.0, 2.0, 2.0], size=len(faces))
    return np.einsum("pk,pkc->pc", bary, mesh.vertices[mesh.triangles[faces]])


class TestRefinementMatrix:
    def test_reproduces_coarse_field(self, sphere_pair):
        rwg, _ = sphere_pair
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=rwg.n_dofs)
        fine_faces = rng.integers(0, rwg.fine.n_faces, size=200)
        pts = random_interior_points(rwg.fine, fine_faces, rng)
        via_fine = evaluate_rt0(rwg.fine, rwg.to_fine @ coeffs,
                                fine_faces, pts)
        direct = evaluate_rt0(rwg.mesh, coeffs, fine_faces // 6, pts)
        np.testing.assert_allclose(via_fine, direct, rtol=0, atol=1e-12)
        # row 3 f + a of local is the fine edge opposite corner a of f
        for space in sphere_pair:
            c = rng.normal(size=space.n_dofs)
            np.testing.assert_array_equal(
                space.local @ c,
                (space.to_fine @ c)[space.fine.face_edges].ravel())

    def test_half_edge_fluxes(self, sphere_pair):
        rwg, _ = sphere_pair
        mesh, fine = rwg.mesh, rwg.fine
        ref = barycentric_refine(mesh)
        dense = rwg.to_fine.toarray()
        lo = mesh.edges[:, 0]
        hi = mesh.edges[:, 1]
        mid = ref.midpoint_vertex(np.arange(mesh.n_edges))
        half_a = _edge_ids(fine, lo, mid)
        half_b = _edge_ids(fine, mid, hi)
        for e in range(mesh.n_edges):
            own = dense[[half_a[e], half_b[e]], e]
            np.testing.assert_allclose(np.abs(own), 0.5, atol=1e-12)
            others = np.concatenate([np.delete(half_a, e),
                                     np.delete(half_b, e)])
            assert np.all(dense[others, e] == 0.0)

    def test_charge_consistency(self, sphere_pair):
        rwg, _ = sphere_pair
        _, stars_f = build_loop_star(rwg.fine)
        _, stars_c = build_loop_star(rwg.mesh)
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=rwg.n_dofs)
        fine_charges = stars_f.T @ (rwg.to_fine @ coeffs)
        grouped = fine_charges.reshape(-1, 6).sum(axis=1)
        np.testing.assert_allclose(grouped, stars_c.T @ coeffs, atol=1e-12)


class TestDualFunctions:
    def test_charge_layout(self, sphere_pair):
        _, bc = sphere_pair
        mesh, fine = bc.mesh, bc.fine
        _, stars_f = build_loop_star(fine)
        fans = fine.vertex_fans()
        charges = (stars_f.T @ bc.to_fine).toarray()
        for e in range(mesh.n_edges):
            lo, hi = mesh.edges[e]
            col = charges[:, e]
            expected = np.zeros(fine.n_faces)
            for v, sign in ((hi, 1.0), (lo, -1.0)):
                _, fcyc = fans[v]
                expected[fcyc] = sign / len(fcyc)
            np.testing.assert_allclose(col, expected, atol=1e-12)

    def test_total_divergence_vanishes(self, sphere_pair):
        _, bc = sphere_pair
        _, stars_f = build_loop_star(bc.fine)
        totals = np.asarray((stars_f.T @ bc.to_fine).sum(axis=0)).ravel()
        np.testing.assert_allclose(totals, 0.0, atol=1e-12)

    def test_transverse_fluxes(self, sphere_pair):
        _, bc = sphere_pair
        mesh, fine = bc.mesh, bc.fine
        ref = barycentric_refine(mesh)
        dense = bc.to_fine.toarray()
        for e in (0, 5, mesh.n_edges - 1):
            mid = ref.midpoint_vertex(e)
            cents = ref.centroid_offset + mesh.edge_faces[e]
            ids = _edge_ids(fine, np.full(2, mid), cents)
            np.testing.assert_allclose(np.abs(dense[ids, e]), 0.5,
                                       atol=1e-12)

    def test_own_half_edges_carry_no_flux(self, sphere_pair):
        _, bc = sphere_pair
        mesh, fine = bc.mesh, bc.fine
        ref = barycentric_refine(mesh)
        dense = bc.to_fine.toarray()
        lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
        mid = ref.midpoint_vertex(np.arange(mesh.n_edges))
        half_a = _edge_ids(fine, lo, mid)
        half_b = _edge_ids(fine, mid, hi)
        for e in (0, 17, mesh.n_edges - 1):
            assert dense[half_a[e], e] == 0.0
            assert dense[half_b[e], e] == 0.0


class TestGramMatrices:
    def test_plain_gram_is_spd(self, sphere_pair):
        rwg, _ = sphere_pair
        g = gram_matrix(rwg, rwg).toarray()
        np.testing.assert_allclose(g, g.T, atol=1e-15)
        assert np.linalg.eigvalsh(g).min() > 0

    def test_rotated_gram_is_antisymmetric(self, sphere_pair):
        rwg, _ = sphere_pair
        g = gram_matrix(rwg, rwg, rotated=True).toarray()
        np.testing.assert_allclose(g, -g.T, atol=1e-15)

    @pytest.mark.parametrize("edge_target", [0.02, 0.01])
    def test_mixed_gram_well_conditioned(self, edge_target):
        mesh = generate_sphere_mesh(0.04, edge_target)
        rwg, bc = basis_pair(mesh)
        g = gram_matrix(rwg, bc, rotated=True).toarray()
        assert np.linalg.cond(g) < 100.0


class TestLoopStar:
    def test_orthogonality_and_ranks(self, octahedron):
        loops, stars = build_loop_star(octahedron)
        prod = (stars.T @ loops).toarray()
        assert np.all(prod == 0.0)
        assert np.linalg.matrix_rank(loops.toarray()) == \
            octahedron.n_vertices - 1
        assert np.linalg.matrix_rank(stars.toarray()) == \
            octahedron.n_faces - 1

    def test_loop_gram_is_vertex_laplacian(self, octahedron):
        loops, _ = build_loop_star(octahedron)
        lap = (loops.T @ loops).toarray()
        adj = np.zeros((octahedron.n_vertices,) * 2)
        adj[octahedron.edges[:, 0], octahedron.edges[:, 1]] = 1
        adj += adj.T
        expected = np.diag(adj.sum(axis=0)) - adj
        np.testing.assert_array_equal(lap, expected)

    def test_star_gram_is_face_laplacian(self, octahedron):
        _, stars = build_loop_star(octahedron)
        lap = (stars.T @ stars).toarray()
        adj = np.zeros((octahedron.n_faces,) * 2)
        adj[octahedron.edge_faces[:, 0], octahedron.edge_faces[:, 1]] = 1
        adj += adj.T
        expected = 3.0 * np.eye(octahedron.n_faces) - adj
        np.testing.assert_array_equal(lap, expected)

    def test_loops_are_charge_free_on_refinement(self, sphere_pair):
        rwg, _ = sphere_pair
        loops, _ = build_loop_star(rwg.mesh)
        _, stars_f = build_loop_star(rwg.fine)
        for v in (0, 3, 9):
            fine_coeffs = rwg.to_fine @ loops[:, v].toarray().ravel()
            charges = stars_f.T @ fine_coeffs
            np.testing.assert_allclose(charges, 0.0, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, 30,
              elements=st.floats(-1e3, 1e3, allow_nan=False)))
def test_refined_charges_match_coarse(coeffs):
    mesh = generate_sphere_mesh(1.0, 1.0)
    rwg = basis_pair(mesh)[0]
    _, stars_f = build_loop_star(rwg.fine)
    _, stars_c = build_loop_star(mesh)
    fine_charges = stars_f.T @ (rwg.to_fine @ coeffs)
    np.testing.assert_allclose(fine_charges.reshape(-1, 6).sum(axis=1),
                               stars_c.T @ coeffs, atol=1e-9)


def test_bc_matrix_entries_are_simple_fractions():
    mesh = generate_sphere_mesh(1.0, 1.0)
    mat = bc_matrix(barycentric_refine(mesh))
    scaled = mat.data * 10.0  # icosahedron fans have five faces per vertex
    np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-12)


def signed_permutation(perm, sign):
    """The matrix S with S[perm[e], e] = sign[e]."""
    n = len(perm)
    return sp.csr_matrix((sign.astype(float), (perm, np.arange(n))),
                         shape=(n, n))


class TestRotationEquivariance:
    @pytest.mark.parametrize("level", [0, 1])
    def test_maps_commute_with_every_rotation(self, level):
        # g turns f_e into sign[e] f_perm[e] on both meshes, so
        # S_fine to_fine = to_fine S_coarse for both families
        from lovebem.mesh import unit_icosphere
        rwg, bc = basis_pair(unit_icosphere(level))
        coarse, fine = rwg.mesh.rotations, rwg.fine.rotations
        np.testing.assert_array_equal(coarse.ids, fine.ids)
        assert len(coarse.ids) == 60
        for g in range(len(coarse.ids)):
            s_c = signed_permutation(coarse.perm[g], coarse.sign[g])
            s_f = signed_permutation(fine.perm[g], fine.sign[g])
            for space in (rwg, bc):
                t = space.to_fine
                gap = abs(s_f @ t - t @ s_c).max()
                assert gap <= 1e-14 * abs(t).max()
