"""Layer-operator assembly vs brute-force quadrature, plus structure checks."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lovebem.mesh import TriangleMesh, generate_sphere_mesh
from lovebem.operators import (C0, AssemblyOptions, FrequencyContext,
                               assemble_blocks)
from lovebem.quadrature import singular_patch_points, subdivide4, triangle_rule
from lovebem.spaces import BasisSpace, basis_pair, build_loop_star

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
    return TriangleMesh.from_arrays(verts * scale + np.asarray(shift), faces)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# -- brute-force reference quadrature --------------------------------

def refined_points(mesh, face, depth, degree):
    kids = mesh.face_corners[face]
    for _ in range(depth):
        kids = subdivide4(kids).reshape(-1, 3, 3)
    if kids.ndim == 2:
        kids = kids[None]
    pts, wts = triangle_rule(degree).map_to(kids)
    return pts.reshape(-1, 3), wts.reshape(-1)


def rt0_at(mesh, face, pts):
    corners = mesh.vertices[mesh.triangles[face]]
    scale = mesh.face_edge_signs[face] / (2.0 * mesh.face_areas[face])
    return scale[None, :, None] * (pts[:, None, :] - corners[None, :, :])


def brute_pair(mesh_t, t, mesh_s, s, k, depth, degree):
    xo, wo = refined_points(mesh_t, t, depth, degree)
    yi, wi = refined_points(mesh_s, s, depth, degree)
    fa = rt0_at(mesh_t, t, xo)
    fb = rt0_at(mesh_s, s, yi)
    rvec = xo[:, None, :] - yi[None, :, :]
    rr = np.linalg.norm(rvec, axis=-1)
    ww = wo[:, None] * wi[None, :]
    phase = np.exp(1j * k * rr)
    g1 = phase / (FOUR_PI * rr) * ww
    dot = np.einsum("oac,pbc,op->ab", fa, fb, g1)
    qt = mesh_t.face_edge_signs[t] / mesh_t.face_areas[t]
    qs = mesh_s.face_edge_signs[s] / mesh_s.face_areas[s]
    chg = np.outer(qt, qs) * g1.sum()
    g2 = phase * (1j * k * rr - 1.0) / (FOUR_PI * rr**3) * ww
    crossed = np.cross(rvec[:, :, None, :], fb[None, :, :, :])
    dbl = np.einsum("oac,opbc,op->ab", fa, crossed, g2)
    return dot, chg, dbl


def brute_self(mesh, t, k, depth, degree, n_fan):
    xo, wo = refined_points(mesh, t, depth, degree)
    fa = rt0_at(mesh, t, xo)
    qt = mesh.face_edge_signs[t] / mesh.face_areas[t]
    corners = mesh.face_corners[t]
    dot = np.zeros((3, 3), dtype=np.complex128)
    chg = 0.0 + 0.0j
    for o in range(len(xo)):
        yi, wi = singular_patch_points(corners, xo[o], n=n_fan)
        rr = np.linalg.norm(yi - xo[o], axis=1)
        g1 = np.exp(1j * k * rr) / (FOUR_PI * rr) * wi
        fb = rt0_at(mesh, t, yi)
        dot += wo[o] * np.einsum("ac,pbc,p->ab", fa[o], fb, g1)
        chg += wo[o] * g1.sum()
    zero = np.zeros((3, 3), dtype=np.complex128)
    return dot, np.outer(qt, qt) * chg, zero


def brute_matrices(mesh_t, mesh_s, k, depth, degree, self_fan=16):
    """Reference fine-edge matrices; near and self pairs get deeper rules."""
    same = mesh_t is mesh_s
    out = {kind: np.zeros((mesh_t.n_edges, mesh_s.n_edges), np.complex128)
           for kind in KINDS}
    verts_t = [set(tri) for tri in np.asarray(mesh_t.triangles)]
    verts_s = [set(tri) for tri in np.asarray(mesh_s.triangles)]
    for t in range(mesh_t.n_faces):
        et = mesh_t.face_edges[t]
        for s in range(mesh_s.n_faces):
            es = mesh_s.face_edges[s]
            if same and t == s:
                dot, chg, dbl = brute_self(mesh_t, t, k, 2, degree, self_fan)
            else:
                share = same and bool(verts_t[t] & verts_s[s])
                dot, chg, dbl = brute_pair(
                    mesh_t, t, mesh_s, s, k, depth + 1 if share else depth,
                    degree)
            out["single"][np.ix_(et, es)] += 1j * dot
            out["hyper"][np.ix_(et, es)] += -1j * chg
            out["double"][np.ix_(et, es)] += -dbl
    return out


@pytest.fixture(scope="module")
def icosa_cross():
    base = generate_sphere_mesh(1.0, 1.0)
    other = TriangleMesh.from_arrays(
        base.vertices + np.array([5.0, 0.0, 0.0]), base.triangles)
    return identity_space(base), identity_space(other)


@pytest.fixture(scope="module")
def coarse_sphere_pair():
    return basis_pair(generate_sphere_mesh(1.0, 1.0))


class TestFrequencyContext:
    def test_wavenumber_roundtrip(self):
        ctx = FrequencyContext.from_wavenumber(2.5)
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


class TestGeometryHandling:
    def test_rejects_surfaces_without_clearance(self):
        base = generate_sphere_mesh(1.0, 1.0)
        near = TriangleMesh.from_arrays(
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
        moved = TriangleMesh.from_arrays(
            base.vertices @ rot.T + np.asarray(shift), base.triangles)
        k = 1.3
        ref = assemble_blocks(
            identity_space(base), [(identity_space(base), KINDS)], k)[0]
        got = assemble_blocks(
            identity_space(moved), [(identity_space(moved), KINDS)], k)[0]
        for kind in KINDS:
            assert rel(got[kind], ref[kind]) < 1e-10


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
