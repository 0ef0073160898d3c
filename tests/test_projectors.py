"""Quasi-Helmholtz projector algebra and frequency scaling maps."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lovebem.mesh import generate_sphere_mesh
from lovebem.operators import C0, FrequencyContext
from lovebem.projectors import (ProjectorSet, ScalingMap, build_projectors,
                                build_scaling, save_norm_table,
                                verify_limit_property)
from lovebem.spaces import build_loop_star


@pytest.fixture(scope="module")
def octa_set(octahedron):
    loops, stars = build_loop_star(octahedron)
    return build_projectors(loops, stars)


@pytest.fixture(scope="module")
def sphere_set(small_sphere):
    loops, stars = build_loop_star(small_sphere)
    return build_projectors(loops, stars)


@pytest.fixture(scope="module")
def random_coeffs(sphere_set):
    rng = np.random.default_rng(42)
    n = sphere_set.n_edges
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestProjectorAlgebra:
    def test_idempotent(self, sphere_set, random_coeffs):
        x = random_coeffs
        scale = np.abs(x).max()
        for apply in (sphere_set.onto_stars, sphere_set.onto_loops,
                      sphere_set.star_complement, sphere_set.loop_complement):
            once = apply(x)
            assert np.abs(apply(once) - once).max() <= 1e-12 * scale

    def test_complementary_pairs_sum_to_identity(self, sphere_set,
                                                 random_coeffs):
        x = random_coeffs
        a = sphere_set.onto_stars(x) + sphere_set.star_complement(x)
        b = sphere_set.onto_loops(x) + sphere_set.loop_complement(x)
        np.testing.assert_allclose(a, x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(b, x, rtol=0, atol=1e-13)

    def test_mutual_annihilation(self, sphere_set, random_coeffs):
        x = random_coeffs
        scale = np.abs(x).max()
        assert np.abs(sphere_set.onto_loops(
            sphere_set.onto_stars(x))).max() <= 1e-12 * scale
        assert np.abs(sphere_set.onto_stars(
            sphere_set.onto_loops(x))).max() <= 1e-12 * scale

    def test_orthogonal(self, sphere_set):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(sphere_set.n_edges)
        y = rng.standard_normal(sphere_set.n_edges)
        for apply in (sphere_set.onto_stars, sphere_set.onto_loops):
            assert abs(apply(x) @ y - x @ apply(y)) <= 1e-12 * (
                np.linalg.norm(x) * np.linalg.norm(y))

    def test_fixes_own_range(self, sphere_set):
        rng = np.random.default_rng(4)
        sy = sphere_set.stars @ rng.standard_normal(sphere_set.stars.shape[1])
        lz = sphere_set.loops @ rng.standard_normal(sphere_set.loops.shape[1])
        np.testing.assert_allclose(sphere_set.onto_stars(sy), sy,
                                   rtol=0, atol=1e-12 * np.abs(sy).max())
        np.testing.assert_allclose(sphere_set.onto_loops(lz), lz,
                                   rtol=0, atol=1e-12 * np.abs(lz).max())

    def test_genus_zero_loops_equal_star_complement(self, sphere_set,
                                                    random_coeffs):
        x = random_coeffs
        np.testing.assert_allclose(sphere_set.onto_loops(x),
                                   sphere_set.star_complement(x),
                                   rtol=0, atol=1e-12 * np.abs(x).max())

    def test_octahedron_subspace_dimensions(self, octa_set):
        eye = np.eye(octa_set.n_edges)
        assert round(np.trace(octa_set.onto_stars(eye))) == 7
        assert round(np.trace(octa_set.onto_loops(eye))) == 5

    def test_matches_dense_svd_projector(self, sphere_set):
        rng = np.random.default_rng(9)
        n = sphere_set.n_edges
        x = rng.standard_normal((n, 100))
        for apply, inc in ((sphere_set.onto_stars, sphere_set.stars),
                           (sphere_set.onto_loops, sphere_set.loops)):
            u, s, _ = np.linalg.svd(inc.toarray(), full_matrices=False)
            basis = u[:, s > s[0] * 1e-10]
            dense = basis @ basis.T
            assert np.abs(apply(x) - dense @ x).max() <= 1e-12

    def test_disconnected_graph_rejected(self):
        tri = sp.csr_matrix(np.array([[1.0, -1.0, 0.0],
                                      [0.0, 1.0, -1.0],
                                      [-1.0, 0.0, 1.0]]))
        inc = sp.block_diag([tri, tri]).tocsr()
        with pytest.raises(ValueError, match="disconnected"):
            ProjectorSet(inc, inc)

    def test_mismatched_edge_counts_rejected(self, sphere_set):
        with pytest.raises(ValueError, match="edge count"):
            ProjectorSet(sphere_set.loops[:-1], sphere_set.stars)


class TestScalingMaps:
    def test_build_scaling_sides(self, sphere_set):
        ctx = FrequencyContext(2.0 * C0 / (2.0 * np.pi))
        unknown, test = build_scaling(sphere_set, sphere_set, ctx)
        assert unknown.scaled_range == "stars"
        assert test.scaled_range == "loops"
        assert unknown.wavenumber == pytest.approx(2.0)
        bare = build_scaling(sphere_set, sphere_set, 2.0)
        assert bare[0].wavenumber == pytest.approx(2.0)

    def test_star_vector_scaled_by_root_k(self, sphere_set):
        rng = np.random.default_rng(11)
        sy = sphere_set.stars @ rng.standard_normal(sphere_set.stars.shape[1])
        out = ScalingMap(sphere_set, 4.0, "stars").apply(sy)
        np.testing.assert_allclose(out, 2j * sy, rtol=0,
                                   atol=1e-12 * np.abs(sy).max())

    def test_loop_vector_scaled_on_test_side(self, sphere_set):
        rng = np.random.default_rng(12)
        lz = sphere_set.loops @ rng.standard_normal(sphere_set.loops.shape[1])
        out = ScalingMap(sphere_set, 9.0, "loops").apply(lz)
        np.testing.assert_allclose(out, 3j * lz, rtol=0,
                                   atol=1e-12 * np.abs(lz).max())

    def test_roundtrip_double(self, sphere_set, random_coeffs):
        m = ScalingMap(sphere_set, 1.0, "stars")
        x = random_coeffs
        err = np.abs(m.apply_inverse(m.apply(x)) - x).max()
        assert err <= 1e-12 * np.abs(x).max()

    def test_roundtrip_extended_precision(self, sphere_set, random_coeffs):
        x = random_coeffs.astype(np.clongdouble)
        scale = float(np.abs(x).max())
        for k in (1e-6, 1.0, 66.2):
            for rng_name in ("stars", "loops"):
                m = ScalingMap(sphere_set, k, rng_name)
                there = m.apply(x)
                assert there.dtype == np.clongdouble
                err = float(np.abs(m.apply_inverse(there) - x).max())
                assert err <= 1e-12 * scale, (k, rng_name, err)

    def test_inverse_formula_twelve_decades(self, octa_set):
        rng = np.random.default_rng(13)
        x = (rng.standard_normal(octa_set.n_edges)
             + 1j * rng.standard_normal(octa_set.n_edges)).astype(
                 np.clongdouble)
        scale = float(np.abs(x).max())
        for exponent in range(-6, 7):
            m = ScalingMap(octa_set, 10.0 ** exponent, "stars")
            err = float(np.abs(m.apply(m.apply_inverse(x)) - x).max())
            assert err <= 1e-12 * scale, exponent

    @settings(max_examples=20, deadline=None)
    @given(exponent=st.floats(min_value=-3.0, max_value=3.0))
    def test_roundtrip_random_wavenumber(self, sphere_set, exponent):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(sphere_set.n_edges)
        m = ScalingMap(sphere_set, 10.0 ** exponent, "loops")
        err = np.abs(m.apply_inverse(m.apply(x)) - x).max()
        assert err <= 1e-10 * np.abs(x).max()

    def test_rejects_bad_arguments(self, sphere_set):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ScalingMap(sphere_set, bad, "stars")
        with pytest.raises(ValueError, match="scaled_range"):
            ScalingMap(sphere_set, 1.0, "spam")


class TestLimitSweep:
    @pytest.fixture()
    def synthetic_inner(self, octa_set):
        eye = np.eye(octa_set.n_edges)
        onto_l = octa_set.onto_loops(eye)
        onto_s = octa_set.onto_stars(eye)
        rng = np.random.default_rng(5)
        coupling = onto_l @ rng.standard_normal(2 * (octa_set.n_edges,))
        coupling = coupling @ onto_s
        base = 2.0 * onto_l + 3.0 * onto_s
        return {k: base + k ** 2 * coupling
                for k in np.logspace(-4.0, 0.0, 5)}

    def test_detects_quadratic_decay(self, octa_set, synthetic_inner):
        rows = verify_limit_property(octa_set, octa_set, synthetic_inner)
        ks = [k for k, _ in rows]
        assert ks == sorted(ks)
        norms = [n for _, n in rows]
        assert all(a < b for a, b in zip(norms, norms[1:]))
        slope = np.polyfit(np.log10(ks), np.log10(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-6)

    def test_block_clean_inner_gives_machine_zero(self, octa_set):
        eye = np.eye(octa_set.n_edges)
        base = 2.0 * octa_set.onto_loops(eye) + 3.0 * octa_set.onto_stars(eye)
        rows = verify_limit_property(octa_set, octa_set, {1.0: base})
        assert rows[0][1] <= 1e-14

    def test_singular_inner_reported_not_fatal(self, octa_set,
                                               synthetic_inner):
        synthetic_inner[1e-2] = np.zeros(2 * (octa_set.n_edges,))
        rows = verify_limit_property(octa_set, octa_set, synthetic_inner)
        assert len(rows) == len(synthetic_inner)
        assert sum(np.isnan(n) for _, n in rows) == 1

    def test_norm_table_roundtrip(self, tmp_path, octa_set, synthetic_inner):
        rows = verify_limit_property(octa_set, octa_set, synthetic_inner)
        path = tmp_path / "norms.csv"
        save_norm_table(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,norm"
        parsed = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert parsed == [(k, n) for k, n in rows]
