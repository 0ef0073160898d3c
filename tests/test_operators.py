"""Layer-operator assembly vs brute-force quadrature, plus structure checks."""
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lovebem.mesh import TriangleMesh, generate_sphere_mesh
from lovebem import operators
from lovebem.mesh import barycentric_refine, unit_icosphere
from lovebem.operators import (C0, AssemblyOptions, FrequencyContext,
                               NearPlan, _coplanar, _double_layer_local,
                               _gradient_remainder,
                               _moment_table, _MOMENT_POWERS,
                               _near_face_pairs, _pair_orbits, _phase,
                               _smooth_remainder,
                               _static_gradient, assemble_blocks)
from lovebem.quadrature import subdivide4, triangle_rule
from lovebem.formulations import calderon_blocks
from lovebem.spaces import BasisSpace, basis_pair, build_loop_star
from conftest import singular_fans, turned

FOUR_PI = 4.0 * np.pi
KINDS = ("single", "hyper", "double")


def identity_space(mesh):
    """Probe space with one dof per fine edge, for entrywise comparisons."""
    eye = sp.identity(mesh.n_edges, format="csr")
    return BasisSpace(kind="rwg", mesh=mesh, fine=mesh, to_fine=eye)


def tetra_mesh(scale, shift):
    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
         [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return TriangleMesh(verts * scale + np.asarray(shift), faces)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def gradient_kernel(r, k):
    """The full kernel-gradient factor exp(ikr) (ikr - 1) / (4 pi r^3)."""
    return np.exp(1j * k * r) * (1j * k * r - 1.0) / (FOUR_PI * r**3)


# -- brute-force reference quadrature --------------------------------

def refined_points(mesh, faces, depth, degree):
    """Subdivided product-rule points (S, m, 3) and weights (S, m)."""
    kids = mesh.face_corners[faces]
    for _ in range(depth):
        kids = subdivide4(kids).reshape(len(faces), -1, 3, 3)
    pts, wts = triangle_rule(degree).map_to(kids)
    return pts.reshape(len(faces), -1, 3), wts.reshape(len(faces), -1)


def rt0_at(mesh, faces, pts):
    """Local RT0 values (S, m, 3 local, 3 xyz) at points (S, m, 3)."""
    corners = mesh.vertices[mesh.triangles[faces]]
    scale = mesh.face_edge_signs[faces] / (2.0 * mesh.face_areas[faces])[
        :, None]
    return scale[:, None, :, None] * (pts[:, :, None, :]
                                      - corners[:, None, :, :])


def brute_pairs(mesh_t, t, mesh_s, sources, k, depth, degree):
    """Local (S, 3, 3) blocks of test face ``t`` against source faces."""
    xo, wo = refined_points(mesh_t, [t], depth, degree)
    yi, wi = refined_points(mesh_s, sources, depth, degree)
    fa = rt0_at(mesh_t, [t], xo)[0]
    fb = rt0_at(mesh_s, sources, yi)
    rvec = xo[:, :, None, :] - yi[:, None, :, :]
    rr = np.linalg.norm(rvec, axis=-1)
    ww = wo[:, :, None] * wi[:, None, :]
    phase = np.exp(1j * k * rr)
    g1 = phase / (FOUR_PI * rr) * ww
    dot = np.einsum("oac,spbc,sop->sab", fa, fb, g1, optimize=True)
    qt = mesh_t.face_edge_signs[t] / mesh_t.face_areas[t]
    qs = (mesh_s.face_edge_signs[sources]
          / mesh_s.face_areas[sources][:, None])
    chg = qt[None, :, None] * qs[:, None, :] * g1.sum(axis=(1, 2))[
        :, None, None]
    g2 = phase * (1j * k * rr - 1.0) / (FOUR_PI * rr**3) * ww
    # fa . ((x - y) x fb) = (fa x x) . fb - fa . (y x fb): no cross
    # product over all (S, O, P) point pairs is formed.
    dbl = (np.einsum("oac,sop,spbc->sab", np.cross(fa, xo[0, :, None, :]),
                     g2, fb, optimize=True)
           - np.einsum("oac,sop,spbc->sab", fa, g2,
                       np.cross(yi[:, :, None, :], fb), optimize=True))
    return dot, chg, dbl


def brute_self(mesh, t, k, depth, degree, n_fan):
    xo, wo = refined_points(mesh, [t], depth, degree)
    xo, wo = xo[0], wo[0]
    fa = rt0_at(mesh, [t], xo[None])[0]
    qt = mesh.face_edge_signs[t] / mesh.face_areas[t]
    corners = mesh.face_corners[t]
    yi, wi, owner = singular_fans(corners, xo, n=n_fan)
    rr = np.linalg.norm(yi - xo[owner], axis=1)
    g1 = np.exp(1j * k * rr) / (FOUR_PI * rr) * wi * wo[owner]
    fb = rt0_at(mesh, [t], yi[None])[0]
    starts = np.searchsorted(owner, np.arange(len(xo)))
    tested = np.add.reduceat(fb * g1[:, None, None], starts)
    dot = np.einsum("oac,obc->ab", fa, tested, optimize=True)
    zero = np.zeros((3, 3), dtype=np.complex128)
    return dot, np.outer(qt, qt) * g1.sum(), zero


def brute_matrices(mesh_t, mesh_s, k, depth, degree, self_fan=16):
    """Reference fine-edge matrices; near and self pairs get deeper rules.

    Each test face meets its source faces in at most three batches: the
    self pair, the faces sharing a vertex with it (one level deeper)
    and the rest.
    """
    same = mesh_t is mesh_s
    out = {kind: np.zeros((mesh_t.n_edges, mesh_s.n_edges), np.complex128)
           for kind in KINDS}
    for t in range(mesh_t.n_faces):
        et = mesh_t.face_edges[t]
        depths = np.full(mesh_s.n_faces, depth)
        batches = []
        if same:
            touching = np.isin(mesh_s.triangles, mesh_t.triangles[t])
            depths[touching.any(axis=1)] += 1
            depths[t] = -1
            dot, chg, dbl = brute_self(mesh_t, t, k, 2, degree, self_fan)
            batches.append(([t], (dot[None], chg[None], dbl[None])))
        for d in (depth, depth + 1):
            sources = np.flatnonzero(depths == d)
            if sources.size:
                batches.append((sources, brute_pairs(
                    mesh_t, t, mesh_s, sources, k, d, degree)))
        for sources, (dot, chg, dbl) in batches:
            index = (et[None, :, None], mesh_s.face_edges[sources][:, None])
            np.add.at(out["single"], index, 1j * dot)
            np.add.at(out["hyper"], index, -1j * chg)
            np.add.at(out["double"], index, -dbl)
    return out


@pytest.fixture(scope="module")
def icosa_cross():
    base = generate_sphere_mesh(1.0, 1.0)
    other = TriangleMesh(
        base.vertices + np.array([5.0, 0.0, 0.0]), base.triangles)
    return identity_space(base), identity_space(other)


@pytest.fixture(scope="module")
def coarse_sphere_pair():
    return basis_pair(generate_sphere_mesh(1.0, 1.0))


class TestFrequencyContext:
    def test_wavenumber_roundtrip(self):
        ctx = FrequencyContext(2.5 * C0 / (2.0 * np.pi))
        assert ctx.wavenumber == pytest.approx(2.5, rel=1e-14)
        assert ctx.wavelength == pytest.approx(2.0 * np.pi / 2.5, rel=1e-14)
        assert ctx.angular_frequency == pytest.approx(2.5 * C0, rel=1e-14)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            FrequencyContext(0.0)
        with pytest.raises(ValueError):
            FrequencyContext(float("nan"))


class TestAgainstBruteQuadrature:
    def test_far_tetrahedra_all_kinds(self):
        # well separated and electrically small, so a degree-5 far rule
        # and the reference rule agree to quadrature convergence
        mesh_t = tetra_mesh(0.2, (0.0, 0.0, 0.0))
        mesh_s = tetra_mesh(0.2, (3.0, 0.0, 0.0))
        k = 0.9
        eng = assemble_blocks(
            identity_space(mesh_t), [(identity_space(mesh_s), KINDS)], k,
            AssemblyOptions(regular_degree=5))[0]
        ref = brute_matrices(mesh_t, mesh_s, k, 2, 5)
        assert rel(eng["single"], ref["single"]) < 1e-8
        assert rel(eng["hyper"], ref["hyper"]) < 3e-8
        assert rel(eng["double"], ref["double"]) < 1.5e-7

    def test_far_error_collapses_with_rule_degree(self, icosa_cross):
        probe, other = icosa_cross
        k = 1.3
        by_degree = {
            deg: assemble_blocks(probe, [(other, KINDS)], k,
                                 AssemblyOptions(regular_degree=deg))[0]
            for deg in (2, 4, 5)}
        for kind in KINDS:
            low = rel(by_degree[2][kind], by_degree[5][kind])
            high = rel(by_degree[4][kind], by_degree[5][kind])
            assert low < 1e-2
            assert high < 1e-4
            assert high < low / 10.0

    def test_same_surface_all_pair_classes(self):
        # 80 faces: exercises the tile path, both near tiers, self pairs
        # and both orientations of the unordered near-pair sweep
        mesh = generate_sphere_mesh(1.0, 0.55)
        probe = identity_space(mesh)
        k = 1.3
        eng = assemble_blocks(probe, [(probe, KINDS)], k)[0]
        ref = brute_matrices(mesh, mesh, k, 1, 4)
        assert rel(eng["single"], ref["single"]) < 3e-3
        assert rel(eng["hyper"], ref["hyper"]) < 4e-3
        assert rel(eng["double"], ref["double"]) < 4e-2


@pytest.fixture(scope="module")
def blocks(coarse_sphere_pair):
    rwg, bc = coarse_sphere_pair
    k = 1.3
    fwd = assemble_blocks(rwg, [(rwg, KINDS), (bc, ("double",))], k)
    rev = assemble_blocks(bc, [(rwg, ("double",))], k)
    return {"rwg": fwd[0], "mixed": fwd[1]["double"],
            "mixed_rev": rev[0]["double"]}


class TestStructure:
    def test_single_layer_symmetric(self, blocks):
        mat = blocks["rwg"]["single"]
        assert rel(mat, mat.T) < 1e-12

    def test_hypersingular_symmetric(self, blocks):
        mat = blocks["rwg"]["hyper"]
        assert rel(mat, mat.T) < 1e-12

    def test_double_layer_symmetric_same_space(self, blocks):
        mat = blocks["rwg"]["double"]
        assert rel(mat, mat.T) < 1e-12

    def test_mixed_double_layer_transposes(self, blocks):
        assert rel(blocks["mixed"], blocks["mixed_rev"].T) < 1e-12

    def test_loops_annihilate_hypersingular(self, coarse_sphere_pair):
        rwg, _ = coarse_sphere_pair
        loops, _ = build_loop_star(rwg.mesh)
        mat = assemble_blocks(rwg, [(rwg, ("hyper",))], 1.3)[0]["hyper"]
        ratio = np.linalg.norm(mat @ loops.toarray()) / np.linalg.norm(mat)
        assert ratio < 1e-12

    def test_assembly_is_deterministic(self, coarse_sphere_pair):
        rwg, bc = coarse_sphere_pair
        first = assemble_blocks(rwg, [(bc, ("double",))], 1.3)[0]["double"]
        second = assemble_blocks(rwg, [(bc, ("double",))], 1.3)[0]["double"]
        np.testing.assert_array_equal(first, second)


class TestTestQualifiedRequests:
    def test_merged_pass_matches_separate_calls(self, coarse_sphere_pair):
        # the self and dual-tested blocks of one surface from one call
        rwg, bc = coarse_sphere_pair
        k = 1.3
        merged = assemble_blocks(
            rwg, [(rwg, ("single", "hyper")), (bc, ("double",)),
                  (rwg, ("double",), bc), (bc, ("single", "hyper"), bc)], k)
        separate = (
            assemble_blocks(rwg, [(rwg, ("single", "hyper")),
                                  (bc, ("double",))], k)
            + assemble_blocks(bc, [(rwg, ("double",)),
                                   (bc, ("single", "hyper"))], k))
        assert sum(len(blocks) for blocks in separate) == 6
        for got, want in zip(merged, separate):
            assert set(got) == set(want)
            for kind in want:
                np.testing.assert_array_equal(got[kind], want[kind])

    def test_merged_pass_matches_separate_calls_across_tiles(
            self, monkeypatch):
        # On a level-2 surface the merged call's supports fill more than
        # one far tile; every row still keeps its separate call's bits.
        rwg, bc = basis_pair(unit_icosphere(2))
        near = NearPlan(rwg.fine)
        tiles = []
        real = operators._far_tiles

        def spy(reqs, orbits):
            tiles.append(real(reqs, orbits))
            return tiles[-1]

        monkeypatch.setattr(operators, "_far_tiles", spy)
        k = 5.0
        merged = assemble_blocks(
            rwg, [(rwg, ("single", "hyper")), (bc, ("double",)),
                  (rwg, ("double",), bc), (bc, ("single", "hyper"), bc)], k,
            near=near)
        separate = (
            assemble_blocks(rwg, [(rwg, ("single", "hyper")),
                                  (bc, ("double",))], k, near=near)
            + assemble_blocks(bc, [(rwg, ("double",)),
                                   (bc, ("single", "hyper"))], k, near=near))
        assert len(tiles[0]) > 1
        for got, want in zip(merged, separate):
            for kind in want:
                np.testing.assert_array_equal(got[kind], want[kind])

    def test_rejects_test_space_on_another_refined_mesh(
            self, coarse_sphere_pair):
        rwg, _ = coarse_sphere_pair
        # an equal mesh refined again is still another refined mesh
        other = basis_pair(generate_sphere_mesh(1.0, 1.0))[1]
        with pytest.raises(ValueError, match="refined mesh"):
            assemble_blocks(rwg, [(rwg, ("single",), other)], 1.3)


@pytest.fixture(scope="module")
def refined_near(small_sphere):
    """Near pairs of the refined 120-edge sphere: 480 fine faces."""
    fine = basis_pair(small_sphere)[0].fine
    pairs, touching = _near_face_pairs(fine)
    return fine, pairs[:, 0], pairs[:, 1], touching


class TestCoplanarSkip:
    def test_skips_exactly_the_same_parent_pairs(self, refined_near):
        fine, tp, sq, touching = refined_near
        skipped = _coplanar(fine, tp, sq) & (tp != sq)
        # faces 6t .. 6t + 5 are the children of parent face t
        same_parent = (tp // 6 == sq // 6) & (tp != sq)
        np.testing.assert_array_equal(skipped, same_parent)
        assert skipped.sum() == 1200
        assert (touching & (tp != sq)).sum() == 3720
        assert not np.any(skipped & ~touching)

    def test_skipped_blocks_vanish(self, refined_near):
        fine, tp, sq, touching = refined_near
        opts = AssemblyOptions()
        coplanar = _coplanar(fine, tp, sq)

        def largest(mask):
            t, s = tp[mask], sq[mask]
            return max(
                np.abs(_double_layer_local(
                    fine, t[b:b + 256], s[b:b + 256],
                    lambda r: gradient_kernel(r, 41.9),
                    opts.double_outer_subdivisions,
                    opts.double_inner_subdivisions, opts.near_degree)).max()
                for b in range(0, len(t), 256))

        off = touching & (tp != sq)
        assert largest(off & coplanar) <= 1e-12 * largest(off & ~coplanar)


class TestGeometryHandling:
    def test_rejects_surfaces_without_clearance(self):
        base = generate_sphere_mesh(1.0, 1.0)
        near = TriangleMesh(
            base.vertices + np.array([2.2, 0.0, 0.0]), base.triangles)
        with pytest.raises(ValueError, match="too close"):
            assemble_blocks(identity_space(base),
                            [(identity_space(near), ("single",))], 1.3)

    @settings(max_examples=8, deadline=None)
    @given(angle=st.floats(-3.0, 3.0),
           axis=st.tuples(st.floats(-1, 1), st.floats(-1, 1),
                          st.floats(0.2, 1)),
           shift=st.tuples(st.floats(-5, 5), st.floats(-5, 5),
                           st.floats(-5, 5)))
    def test_rigid_motion_invariance(self, angle, axis, shift):
        base = generate_sphere_mesh(1.0, 1.0)
        unit = np.asarray(axis) / np.linalg.norm(axis)
        skew = np.array([[0.0, -unit[2], unit[1]],
                         [unit[2], 0.0, -unit[0]],
                         [-unit[1], unit[0], 0.0]])
        rot = (np.eye(3) + np.sin(angle) * skew
               + (1.0 - np.cos(angle)) * (skew @ skew))
        moved = TriangleMesh(
            base.vertices @ rot.T + np.asarray(shift), base.triangles)
        k = 1.3
        ref = assemble_blocks(
            identity_space(base), [(identity_space(base), KINDS)], k)[0]
        got = assemble_blocks(
            identity_space(moved), [(identity_space(moved), KINDS)], k)[0]
        for kind in KINDS:
            assert rel(got[kind], ref[kind]) < 1e-10


class TestTiling:
    @pytest.mark.parametrize("n_i, q, n_j, p",
                             [(5, 3, 7, 4), (1, 6, 2, 1), (4, 1, 1, 7)])
    def test_moment_table_matches_einsum(self, n_i, q, n_j, p):
        rng = np.random.default_rng(n_i + 10 * q + 100 * n_j + 1000 * p)
        phi_t = rng.standard_normal((n_i, q, 4))
        phi_s = rng.standard_normal((n_j, p, 4))
        vals = (rng.standard_normal((n_i * q, n_j * p))
                + 1j * rng.standard_normal((n_i * q, n_j * p)))
        got = _moment_table(vals, phi_t, phi_s)
        ref = np.einsum("iaq,iqjp,jpb->jiab", phi_t.transpose(0, 2, 1),
                        vals.reshape(n_i, q, n_j, p), phi_s)
        assert got.shape == (n_j, n_i, 4, 4)
        assert rel(got, ref) < 1e-14

    def test_ragged_tiles_on_one_surface(self, monkeypatch):
        # 80 faces in tiles of 37, 37 and 6, with near pairs that
        # straddle tile edges and so get zeroed off the tile diagonal
        mesh = generate_sphere_mesh(1.0, 0.55)
        pairs, _ = _near_face_pairs(mesh)
        assert np.any(pairs[:, 0] // 37 != pairs[:, 1] // 37)
        space = identity_space(mesh)
        ref = assemble_blocks(space, [(space, KINDS)], 1.3)[0]
        monkeypatch.setattr(operators, "_TILE", 37)
        got = assemble_blocks(space, [(space, KINDS)], 1.3)[0]
        for kind in KINDS:
            assert rel(got[kind], ref[kind]) < 1e-12

    def test_ragged_tiles_across_surfaces(self, monkeypatch):
        base = generate_sphere_mesh(1.0, 0.55)
        other = TriangleMesh(
            base.vertices + np.array([5.0, 0.0, 0.0]), base.triangles)
        test, src = identity_space(base), identity_space(other)
        ref = assemble_blocks(test, [(src, KINDS)], 1.3)[0]
        monkeypatch.setattr(operators, "_TILE", 37)
        got = assemble_blocks(test, [(src, KINDS)], 1.3)[0]
        for kind in KINDS:
            assert rel(got[kind], ref[kind]) < 1e-12

    def test_ragged_tiles_on_a_turned_surface(self, monkeypatch):
        # Turned, the surface keeps only the identity, so every face is
        # tiled: 37-face tiles, with near pairs across their edges.
        space = identity_space(turned(generate_sphere_mesh(1.0, 0.55), 3))
        ref = assemble_blocks(space, [(space, KINDS)], 1.3)[0]
        monkeypatch.setattr(operators, "_TILE", 37)
        got = assemble_blocks(space, [(space, KINDS)], 1.3)[0]
        for kind in KINDS:
            assert rel(got[kind], ref[kind]) < 1e-12

    def test_default_tiles_match_one_tile(self, small_sphere, monkeypatch):
        # The 480 fine faces of the 0.04 m sphere span several default
        # tiles, with near pairs across their edges.  One kept near plan
        # serves both tilings: nothing in it depends on the tile.
        rwg, bc = basis_pair(small_sphere)
        tile = operators._TILE
        pairs, _ = _near_face_pairs(rwg.fine)
        assert rwg.fine.n_faces > tile
        assert np.any(pairs[:, 0] // tile != pairs[:, 1] // tile)
        k = FrequencyContext(2e9).wavenumber
        requests = [(rwg, KINDS), (bc, KINDS)]
        near = NearPlan(rwg.fine)
        got = assemble_blocks(rwg, requests, k, near=near)
        monkeypatch.setattr(operators, "_TILE", rwg.fine.n_faces)
        ref = assemble_blocks(rwg, requests, k, near=near)
        for g, r in zip(got, ref):
            for kind in KINDS:
                assert rel(g[kind], r[kind]) < 1e-13

    def test_cross_surface_working_set_is_bounded(self, small_sphere):
        # The probe pass of the 0.04 m sphere at 2 GHz: BC tests on 1 920
        # fine faces of a 0.11 m probe sphere, RWG and BC sources on 480.
        # It traces about 24 MB at the default tiles, 277 MB at 480.
        rwg, bc = basis_pair(small_sphere)
        probe = basis_pair(generate_sphere_mesh(0.11, 0.03))[1]
        assert (probe.fine.n_faces, rwg.fine.n_faces) == (1920, 480)
        k = FrequencyContext(2e9).wavenumber
        tracemalloc.start()
        try:
            assemble_blocks(probe, [(rwg, ("double",)),
                                    (bc, ("single", "hyper"))], k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestRotationOrbits:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_near_pairs_are_closed_under_the_group(self, level):
        fine = barycentric_refine(unit_icosphere(level)).mesh
        np.testing.assert_array_equal(NearPlan(fine).rotations,
                                      np.arange(60))

    @pytest.mark.parametrize("level", [0, 1])
    def test_self_blocks_match_a_turned_surface(self, level):
        # The turned copy keeps only the identity, so it assembles
        # every row itself; level 0 has edges fixed by a half turn.
        mesh = unit_icosphere(level)
        rwg, bc = basis_pair(mesh)
        trwg, tbc = basis_pair(turned(mesh, level))
        assert len(trwg.mesh.rotations.ids) == 1
        k = 2.0
        requests = [(rwg, KINDS), (bc, ("double",)), (rwg, KINDS, bc)]
        got = assemble_blocks(rwg, requests, k)
        ref = assemble_blocks(trwg, [(trwg, KINDS), (tbc, ("double",)),
                                     (trwg, KINDS, tbc)], k)
        for g, r in zip(got, ref):
            for kind in g:
                assert rel(g[kind], r[kind]) < 1e-13

    def test_probe_blocks_match_a_turned_geometry(self, small_sphere):
        rwg, bc = basis_pair(small_sphere)
        probe = basis_pair(generate_sphere_mesh(0.11, 0.03))[1]
        turn = [basis_pair(turned(mesh, 7))
                for mesh in (small_sphere, probe.mesh)]
        k = FrequencyContext(2e9).wavenumber
        got = assemble_blocks(probe, [(rwg, KINDS), (bc, KINDS)], k)
        ref = assemble_blocks(turn[1][1], [(turn[0][0], KINDS),
                                           (turn[0][1], KINDS)], k)
        for g, r in zip(got, ref):
            for kind in KINDS:
                assert rel(g[kind], r[kind]) < 1e-13

    def test_far_kernel_runs_on_one_support_per_orbit(self, small_sphere,
                                                      monkeypatch):
        # Test faces whose far kernel is computed, counted as the rows
        # reaching _pairwise_distance over the four 120-face source tiles
        rwg, bc = basis_pair(small_sphere)
        probe = basis_pair(generate_sphere_mesh(0.11, 0.03))[1]
        rows = []
        real = operators._pairwise_distance

        def counted(x, y):
            if x.ndim == 2:
                rows.append(len(x))
            return real(x, y)

        monkeypatch.setattr(operators, "_pairwise_distance", counted)
        q = len(triangle_rule(AssemblyOptions().regular_degree).weights)
        k = FrequencyContext(2e9).wavenumber
        near = NearPlan(rwg.fine)
        calls = {
            "probe": (probe, [(rwg, ("double",)), (bc, ("single", "hyper"))]),
            "self": (rwg, [(rwg, ("single", "hyper")), (bc, ("double",))]),
            "dual": (bc, [(rwg, ("double",)), (bc, ("single", "hyper"))]),
            "calderon": (rwg, [(rwg, ("single", "hyper")), (bc, ("double",)),
                               (rwg, ("double",), bc),
                               (bc, ("single", "hyper"), bc)])}
        faces = {}
        for name, (test, requests) in calls.items():
            rows.clear()
            assemble_blocks(test, requests, k, near=near)
            faces[name] = sum(rows) / (q * 4)
        assert (probe.fine.n_faces, rwg.fine.n_faces) == (1920, 480)
        assert faces["probe"] <= 200
        assert faces["self"] <= 60 and faces["dual"] <= 60
        # each test space's tiles cover its own supports
        assert faces["calderon"] == faces["self"] + faces["dual"]

    def test_near_integrals_run_on_one_pair_per_orbit(self, small_sphere,
                                                      monkeypatch):
        # Pairs reaching the k-dependent near integrals of a kept plan,
        # whose statics the first pass builds
        rwg, bc = basis_pair(small_sphere)
        ctx = FrequencyContext(2e9)
        near = NearPlan(rwg.fine)
        n_pairs = len(near.pairs[0])
        calls = {
            "self": lambda: assemble_blocks(
                rwg, [(rwg, ("single", "hyper")), (bc, ("double",))],
                ctx.wavenumber, near=near),
            "calderon": lambda: calderon_blocks(rwg, bc, ctx, near=near)}
        for run in calls.values():
            run()
        counts = {}
        # each function's position of the test faces of its pairs
        for name, at in (("_double_layer_local", 1),
                         ("_helmholtz_moments", 3)):
            real = getattr(operators, name)

            def counted(*args, real=real, name=name, at=at):
                counts[name] = counts.get(name, 0) + len(args[at])
                return real(*args)

            monkeypatch.setattr(operators, name, counted)
        assert (rwg.fine.n_faces, n_pairs) == (480, 22680)
        for run in calls.values():
            counts.clear()
            run()
            assert set(counts) == {"_double_layer_local",
                                   "_helmholtz_moments"}
            assert max(counts.values()) <= n_pairs / 25
            assert counts["_helmholtz_moments"] == 118 + 590

    @pytest.mark.parametrize("level", [0, 1])
    def test_edge_reversing_rotations_flip_near_blocks(self, level):
        # A barycentric refinement has no rotation that reverses an
        # edge; an icosphere taken as its own refined mesh has.
        mesh = unit_icosphere(level)
        space, ref = identity_space(mesh), identity_space(turned(mesh, 3))
        near = NearPlan(mesh)
        assert np.any(near.sign < 0)
        got = assemble_blocks(space, [(space, KINDS)], 2.0, near=near)[0]
        want = assemble_blocks(ref, [(ref, KINDS)], 2.0)[0]
        for kind in KINDS:
            assert rel(got[kind], want[kind]) < 1e-13

    def test_a_turned_surface_integrates_every_pair(self, small_sphere):
        near = NearPlan(basis_pair(turned(small_sphere, 7))[0].fine)
        np.testing.assert_array_equal(near.rotations, [0])
        assert sum(len(tp) for tp, _ in near.tiers) == len(near.pairs[0])
        np.testing.assert_array_equal(near.entry, near.pattern.data)
        assert np.all(near.sign == 1)

    def test_default_surface_orbits_are_small_and_lean(self):
        # The level-3 surface of the default reconstruct request
        fine = barycentric_refine(unit_icosphere(3)).mesh
        tp, sq = _near_face_pairs(fine)[0].T
        assert fine.n_faces == 7680
        fine.rotations  # the mesh's own table, built before the trace
        tracemalloc.start()
        try:
            ids, reps, index, sign = _pair_orbits(fine, tp, sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ids, np.arange(60))
        assert len(reps) <= len(tp) / 25
        # measured 142 bytes a pair (352 740 pairs)
        assert peak < 200 * len(tp)
        assert index.shape == sign.shape == (len(tp), 3, 3)


class TestQuadratureDefaults:
    def test_defaults_track_cranked_options(self, coarse_sphere_pair):
        # guards the near-tier depth choices; see AssemblyOptions docs
        rwg, _ = coarse_sphere_pair
        k = 1.3
        hard = AssemblyOptions(
            regular_degree=4, near_degree=5, static_subdivisions=3,
            double_outer_subdivisions=2, double_inner_subdivisions=3)
        loose = assemble_blocks(rwg, [(rwg, KINDS)], k)[0]
        tight = assemble_blocks(rwg, [(rwg, KINDS)], k, hard)[0]
        assert rel(loose["single"], tight["single"]) < 2e-4
        assert rel(loose["hyper"], tight["hyper"]) < 8e-4
        assert rel(loose["double"], tight["double"]) < 1.2e-2

    def test_kind_subset_honored(self):
        mesh_t = tetra_mesh(0.2, (0.0, 0.0, 0.0))
        mesh_s = tetra_mesh(0.2, (3.0, 0.0, 0.0))
        out = assemble_blocks(
            identity_space(mesh_t), [(identity_space(mesh_s), ("hyper",))],
            0.9)
        assert set(out[0]) == {"hyper"}
        assert out[0]["hyper"].shape == (mesh_t.n_edges, mesh_s.n_edges)


# -- near-pair statics and k-dependent remainders ---------------------

GHZ = (1e9, 2e9, 3.16e9)
HARD = AssemblyOptions(
    regular_degree=4, near_degree=5, static_subdivisions=3,
    double_outer_subdivisions=2, double_inner_subdivisions=3)


def previous_depths(opts):
    """The touching tier's remainders on the rules of its static parts."""
    return (opts.static_subdivisions, opts.double_outer_subdivisions,
            opts.double_inner_subdivisions)


def self_blocks(space, k, options=None, near=None, depths=None):
    """Single, hyper and double of ``space`` tested on itself."""
    with pytest.MonkeyPatch.context() as patch:
        if depths is not None:
            patch.setattr(operators, "_remainder_depths", depths)
        return assemble_blocks(space, [(space, KINDS)], k, options,
                               near=near)[0]


class TestPhase:
    def test_matches_mpmath(self):
        # Odd multiples of pi/4096 are where the table index rounds over.
        rng = np.random.default_rng(4)
        boundaries = (2 * np.concatenate([
            np.arange(64), rng.integers(0, 3_911_000, 400),
            [3_911_000]]) + 1) * np.pi / 4096
        x = np.concatenate([[0.0], np.linspace(0.0, 6000.0, 1001),
                            rng.uniform(0.0, 6000.0, 1000), boundaries])
        got = _phase(x)
        mpmath.mp.dps = 40
        ref = np.array([complex(mpmath.cos(mpmath.mpf(v)),
                                mpmath.sin(mpmath.mpf(v))) for v in x])
        assert boundaries.max() < 6000.0
        assert got[0] == 1.0
        assert np.max(np.abs(got - ref)) <= 2.5e-16

    def test_fills_out_in_place(self):
        x = np.linspace(0.0, 40.0, 3 * 7001).reshape(3, 7001)
        out = np.empty(x.shape, dtype=complex)
        assert _phase(x, out=out) is out
        assert np.array_equal(out, _phase(x.ravel()).reshape(x.shape))


class TestRemainderKernels:
    @staticmethod
    def exact(r, k, gradient):
        mpmath.mp.dps = 40
        r = mpmath.mpf(r)
        z = 1j * mpmath.mpf(k) * r
        if gradient:
            return complex((mpmath.exp(z) * (z - 1) + 1)
                           / (4 * mpmath.pi * r**3))
        return complex((mpmath.exp(z) - 1 - z) / (4 * mpmath.pi * r))

    @pytest.mark.parametrize("gradient", [False, True])
    def test_match_mpmath_from_small_to_large_kr(self, gradient):
        # both sides of the switch to the series and of the old one
        k = 66.2287
        x = np.concatenate([np.logspace(-6.0, 1.0, 120),
                            [0.0199999, 0.02, 0.4999999, 0.5, 0.5000001]])
        r = x / k
        got = (_gradient_remainder(r, k, 0.0) if gradient
               else _smooth_remainder(r, k))
        ref = np.array([self.exact(ri, k, gradient) for ri in r])
        worst = np.max(np.abs(got - ref) / np.abs(ref))
        assert worst <= 1e-13

    def test_split_sums_to_the_kernel(self):
        r = np.logspace(-4.0, 0.0, 50)
        k = 13.0
        split = _static_gradient(r, 0.0) + _gradient_remainder(r, k, 0.0)
        full = gradient_kernel(r, k)
        assert np.max(np.abs(split - full) / np.abs(full)) <= 1e-12


@pytest.fixture(scope="module")
def recon_sphere(small_sphere):
    """The 0.04 m, 120-edge sphere with a near plan kept across passes."""
    rwg = basis_pair(small_sphere)[0]
    return rwg, NearPlan(rwg.fine)


class TestNearStatics:
    def test_scaled_statics_match_the_scaled_mesh(self):
        radius = 0.0437
        unit = basis_pair(unit_icosphere(0))[0].fine
        mesh = basis_pair(generate_sphere_mesh(radius, radius))[0].fine
        assert np.array_equal(unit.triangles, mesh.triangles)
        shared = NearPlan(unit)
        direct = NearPlan(mesh)
        for tier in range(2):
            got = shared.moments(tier) * radius ** _MOMENT_POWERS
            want = direct.moments(tier)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            want = direct.double(tier)
            assert (np.abs(shared.double(tier) - want).max()
                    <= 1e-13 * np.abs(want).max())

    def test_scaled_plan_rejects_another_mesh(self):
        unit = basis_pair(unit_icosphere(0))[0]
        other = basis_pair(generate_sphere_mesh(0.04, 0.04))[0]
        plan = NearPlan(unit.fine).scaled(0.05)
        with pytest.raises(ValueError, match="another mesh"):
            assemble_blocks(other, [(other, ("single",))], 1.3, near=plan)
        with pytest.raises(ValueError, match="other options"):
            assemble_blocks(other, [(other, ("single",))], 1.3,
                            AssemblyOptions(near_degree=5),
                            near=plan.scaled(0.04))

    def test_pattern_is_built_once_and_shared(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return near_pattern(*args)

        near_pattern = operators._near_pattern
        monkeypatch.setattr(operators, "_near_pattern", counted)
        radius = 0.0437
        plan = NearPlan(basis_pair(unit_icosphere(0))[0].fine)
        rwg = basis_pair(generate_sphere_mesh(radius, radius))[0]
        for frequency in GHZ[:2]:
            k = FrequencyContext(frequency).wavenumber
            scaled = plan.scaled(radius)
            assemble_blocks(rwg, [(rwg, KINDS)], k, near=scaled)
            assert scaled.pattern is plan.pattern
        assert len(built) == 1

    def test_kept_plan_gives_the_bits_of_a_fresh_one(self, recon_sphere):
        rwg, near = recon_sphere
        k = FrequencyContext(2e9).wavenumber
        kept = self_blocks(rwg, k, near=near)
        fresh = self_blocks(rwg, k)
        for kind in KINDS:
            np.testing.assert_array_equal(kept[kind], fresh[kind])

    @pytest.mark.parametrize("tier", [0, 1])
    def test_split_on_static_rules_matches_the_full_kernel(
            self, recon_sphere, tier):
        # A tier's double layer as cached static part plus remainder,
        # both on the static part's rules, against one integral of the
        # full kernel gradient on those rules.
        rwg, near = recon_sphere
        fine, opts = rwg.fine, near.options
        tp, sq = near.tiers[tier]
        live = near.live[tier]
        to, so = tp[live][:256], sq[live][:256]
        depths = ((opts.double_outer_subdivisions,
                   opts.double_inner_subdivisions) if tier == 0
                  else (0, 0)) + (opts.near_degree,)
        for frequency in GHZ:
            k = FrequencyContext(frequency).wavenumber
            full = _double_layer_local(
                fine, to, so, lambda r: gradient_kernel(r, k), *depths)
            split = near.double(tier)[:256] + _double_layer_local(
                fine, to, so, lambda r: _gradient_remainder(r, k, 0.0),
                *depths)
            assert np.abs(split - full).max() <= 1e-13 * np.abs(full).max()

    def test_translated_pair_keeps_its_block(self):
        # Dyadic corners: the shifted mesh is the same pair, exactly.
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        home = TriangleMesh(verts, faces)
        away = TriangleMesh(verts + 1024.0, faces)
        assert np.array_equal(away.vertices - 1024.0, home.vertices)
        tp = np.array([0, 0, 1, 2, 3, 3])
        sq = np.array([1, 2, 3, 1, 0, 2])
        for kernel in (lambda r: _static_gradient(r, 0.0),
                       lambda r: gradient_kernel(r, 1.3)):
            want = _double_layer_local(home, tp, sq, kernel, 1, 2, 4)
            got = _double_layer_local(away, tp, sq, kernel, 1, 2, 4)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("frequency", GHZ)
    def test_light_remainders_track_the_static_rules(self, recon_sphere,
                                                     frequency):
        rwg, near = recon_sphere
        k = FrequencyContext(frequency).wavenumber
        light = self_blocks(rwg, k, near=near)
        previous = self_blocks(rwg, k, near=near, depths=previous_depths)
        for kind in KINDS:
            assert rel(light[kind], previous[kind]) <= 1e-5

    def test_light_remainders_no_farther_from_raised_knobs(self):
        # The 30-edge sphere keeps the raised-knob statics affordable.
        rwg = basis_pair(generate_sphere_mesh(0.04, 0.04))[0]
        near, hard_near = NearPlan(rwg.fine), NearPlan(rwg.fine, HARD)
        for frequency in GHZ:
            k = FrequencyContext(frequency).wavenumber
            hard = self_blocks(rwg, k, HARD, near=hard_near)
            light = self_blocks(rwg, k, near=near)
            previous = self_blocks(rwg, k, near=near, depths=previous_depths)
            for kind in KINDS:
                assert rel(light[kind], hard[kind]) <= rel(previous[kind],
                                                           hard[kind])
