"""Field radiation of recovered currents and the error diagnostics."""
import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lovebem.dipole import DipoleSource, field_arrays, sample_measurement
from lovebem import fields
from lovebem.fields import (_CHUNK, ErrorCurve, KernelRows,
                            check_love_condition, error_curve,
                            fibonacci_directions, radiate_arrays,
                            save_error_curve)
from lovebem.formulations import CurrentSolution
from lovebem.mesh import _icosahedral_rotations, generate_sphere_mesh
from lovebem.operators import ETA0, FrequencyContext
from lovebem.quadrature import triangle_rule
from lovebem.spaces import basis_pair, evaluate_rt0, gram_matrix
from scipy.spatial import cKDTree

from conftest import turned

CTX = FrequencyContext(3.16e9)


@pytest.fixture(scope="module")
def surface():
    gamma = generate_sphere_mesh(0.04, 0.02)
    return (gamma,) + basis_pair(gamma)


@pytest.fixture(scope="module")
def source():
    return DipoleSource(np.array([0.007, 0.004, -0.005]),
                        np.array([0.2 + 0.1j, -0.3, 1.0]) * 1e-3, CTX)


@pytest.fixture(scope="module")
def traced_pair(surface, source):
    """Analytic surface traces projected onto the coefficient spaces."""
    gamma, rwg, bc = surface
    ef, _ = sample_measurement(source, rwg)
    _, hg = sample_measurement(source, bc)
    m = np.linalg.solve(gram_matrix(rwg, rwg).toarray(), ef)
    j = np.linalg.solve(gram_matrix(bc, bc).toarray(), -ETA0 * hg)
    return CurrentSolution(m=m, j=j, wavenumber=CTX.wavenumber,
                           formulation="projected", report=None)


def shell_points(radius, n=50):
    return radius * fibonacci_directions(n)


def einsum_fields(solution, rwg, bc, points, degree=4):
    """Reference E: the direct per-pair sums over ``d = x - y``.

    Forms every (point, face, quadrature point) term explicitly, so it
    shares no algebra with the table products of ``radiate_arrays``.
    """
    k = solution.wavenumber
    fine = rwg.fine
    pts, wts = triangle_rule(degree).map_to(fine.face_corners)

    def tables(space, coeffs):
        if coeffs is None:
            return (np.zeros(pts.shape, dtype=complex),
                    np.zeros(fine.n_faces, dtype=complex))
        fine_coeffs = space.to_fine @ coeffs
        values = evaluate_rt0(fine, fine_coeffs,
                              np.arange(fine.n_faces)[:, None], pts)
        divs = (fine.face_edge_signs / fine.face_areas[:, None]
                * fine_coeffs[fine.face_edges]).sum(axis=1)
        return values, divs

    d = points[:, None, None, :] - pts[None, :, :, :]
    r = np.linalg.norm(d, axis=-1)
    kernel = np.exp(1j * k * r) / (4 * np.pi * r) * wts
    grad = np.exp(1j * k * r) * (1j * k * r - 1.0) / (4 * np.pi * r**3) * wts

    m_vals, _ = tables(rwg, solution.m)
    j_vals, j_divs = tables(bc, solution.j)
    j_pot = np.einsum("pfq,fqc->pc", kernel, j_vals)
    j_charge = np.einsum("pfq,pfqc,f->pc", grad, d, j_divs)
    m_curl = np.einsum("pfq,pfqc->pc", grad, np.cross(d, m_vals[None]))
    return (1j / k) * (k * k * j_pot + j_charge) - m_curl


class TestDirections:
    def test_unit_norm(self):
        dirs = fibonacci_directions(97)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                                   rtol=0, atol=1e-14)

    def test_deterministic(self):
        assert np.array_equal(fibonacci_directions(64),
                              fibonacci_directions(64))

    def test_nearly_centered(self):
        assert np.linalg.norm(fibonacci_directions(400).mean(axis=0)) < 1e-2

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="direction"):
            fibonacci_directions(0)


class TestRadiation:
    def test_zero_currents_zero_fields(self, surface):
        _, rwg, bc = surface
        sol = CurrentSolution(m=np.zeros(rwg.n_dofs), j=np.zeros(bc.n_dofs),
                              wavenumber=CTX.wavenumber,
                              formulation="projected", report=None)
        e = radiate_arrays(sol, rwg, bc, shell_points(0.2))
        assert np.all(e == 0.0)

    def test_linear_in_the_currents(self, surface, traced_pair):
        _, rwg, bc = surface
        pts = shell_points(0.25)
        scaled = CurrentSolution(m=(2.0 - 1j) * traced_pair.m,
                                 j=(2.0 - 1j) * traced_pair.j,
                                 wavenumber=CTX.wavenumber,
                                 formulation="projected", report=None)
        e1 = radiate_arrays(traced_pair, rwg, bc, pts)
        e2 = radiate_arrays(scaled, rwg, bc, pts)
        np.testing.assert_allclose(e2, (2.0 - 1j) * e1, rtol=1e-12)

    def test_missing_j_equals_zero_j(self, surface, traced_pair):
        _, rwg, bc = surface
        pts = shell_points(0.3, 20)
        without = CurrentSolution(m=traced_pair.m, j=None,
                                  wavenumber=CTX.wavenumber,
                                  formulation="projected", report=None)
        zeroed = CurrentSolution(m=traced_pair.m, j=np.zeros(bc.n_dofs),
                                 wavenumber=CTX.wavenumber,
                                 formulation="projected", report=None)
        e1 = radiate_arrays(without, rwg, bc, pts)
        e2 = radiate_arrays(zeroed, rwg, bc, pts)
        np.testing.assert_allclose(e1, e2, rtol=0, atol=1e-30)

    def test_rejects_near_surface_points(self, surface, traced_pair):
        _, rwg, bc = surface
        with pytest.raises(ValueError, match="triangle diameter"):
            radiate_arrays(traced_pair, rwg, bc, shell_points(0.041))

    def test_rejects_bad_point_shape(self, surface, traced_pair):
        _, rwg, bc = surface
        with pytest.raises(ValueError, match="shape"):
            radiate_arrays(traced_pair, rwg, bc, np.zeros(3))

    def test_rejects_mismatched_spaces(self, surface, traced_pair):
        gamma, rwg, _ = surface
        other_bc = basis_pair(gamma)[1]
        with pytest.raises(ValueError, match="refined mesh"):
            radiate_arrays(traced_pair, rwg, other_bc, shell_points(0.2))

    @pytest.mark.parametrize("with_j", [True, False])
    # Inside, the pair's field cancels to a small remainder, so it keeps
    # fewer correct digits than outside.
    @pytest.mark.parametrize("radius, rtol", [(0.2, 1e-12), (0.01, 1e-10)],
                             ids=["exterior", "interior"])
    def test_matches_einsum_reference(self, surface, traced_pair, with_j,
                                      radius, rtol):
        _, rwg, bc = surface
        sol = CurrentSolution(m=traced_pair.m,
                              j=traced_pair.j if with_j else None,
                              wavenumber=CTX.wavenumber,
                              formulation="projected", report=None)
        pts = shell_points(radius, 40)
        e = radiate_arrays(sol, rwg, bc, pts)
        e_ref = einsum_fields(sol, rwg, bc, pts)
        np.testing.assert_allclose(e, e_ref, rtol=rtol, atol=0)

    def test_chunks_match_separate_calls(self, surface, traced_pair):
        _, rwg, bc = surface
        pts = shell_points(0.2, 2 * _CHUNK + 44)
        e = radiate_arrays(traced_pair, rwg, bc, pts)
        cuts = [0, 100, _CHUNK + 7, len(pts)]
        for a, b in zip(cuts, cuts[1:]):
            e_part = radiate_arrays(traced_pair, rwg, bc, pts[a:b])
            np.testing.assert_allclose(e[a:b], e_part, rtol=1e-12, atol=0)


class TestCornerTables:
    def test_corners_give_the_values_at_the_quadrature_points(
            self, surface, traced_pair):
        # Every table entry is affine on its face, so the rule's
        # barycentric weights of its corner values give its values at the
        # quadrature points, formed here from the RT0 values there.
        _, rwg, bc = surface
        fine = rwg.fine
        n = fine.n_faces
        y = fine.quadrature(4)[0]
        tables = fields.radiation_tables(traced_pair, rwg, bc)
        potential = tables.potential.view(complex).reshape(n, 3, 3)
        gradient = tables.gradient.view(complex).reshape(n, 3, 10)

        def at_points(space, coeffs):
            local = (space.local @ coeffs).reshape(-1, 3)
            values = np.einsum("fqac,fa->fqc", fine.rt0_values(4), local)
            divs = (2.0 * fine.rt0_scale * local).sum(axis=1)
            return values, np.broadcast_to(divs[:, None, None], (n, 6, 1))

        m, _ = at_points(rwg, traced_pair.m)
        j, div = at_points(bc, traced_pair.j)
        bary = triangle_rule(4).points
        for corners, want in [(tables.m_corners, m), (tables.j_corners, j),
                              (gradient[..., 0:3], m), (potential, j),
                              (gradient[..., 3:6], np.cross(y, m)),
                              (gradient[..., 6:7], div),
                              (gradient[..., 7:10], y * div)]:
            got = bary @ corners
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestOrbitDirections:
    @pytest.mark.parametrize("n, count", [(1, 60), (64, 60), (89, 60),
                                          (91, 120), (200, 180),
                                          (1000, 1020)])
    def test_count(self, n, count):
        assert fields._orbit_directions(n).shape == (count, 3)

    def test_unit_norm(self):
        dirs = fields._orbit_directions(1000)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [64, 1000])
    def test_whole_orbits(self, n):
        dirs = fields._orbit_directions(n)
        tree = cKDTree(dirs)
        for rotation in _icosahedral_rotations():
            dist, _ = tree.query(dirs @ rotation.T)
            assert dist.max() < 1e-13
        # Rotation-major: the first rows are the seeds.
        m = len(dirs) // 60
        np.testing.assert_array_equal(
            fields._orbit_points(dirs[:m], np.arange(60)), dirs)

    @pytest.mark.parametrize("n", [64, 200, 1000])
    def test_no_two_points_within_a_degree(self, n):
        dirs = fields._orbit_directions(n)
        dist, _ = cKDTree(dirs).query(dirs, k=2)
        assert dist[:, 1].min() > 2.0 * np.sin(np.radians(0.5))

    def test_deterministic_and_read_only(self):
        dirs = fields._orbit_directions(200)
        fields._orbit_design.cache_clear()
        again = fields._orbit_directions(200)
        assert again is not dirs and np.array_equal(again, dirs)
        assert fields._orbit_directions(200) is again
        with pytest.raises(ValueError, match="read-only"):
            again[0, 0] = 0.0

    def test_first_build_stays_small(self):
        # A dense samples-by-points assignment would take 160 MB.
        fields._orbit_design.cache_clear()
        tracemalloc.start()
        try:
            fields._orbit_directions(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def random_solution(rwg, bc, seed=0):
    rng = np.random.default_rng(seed)
    return CurrentSolution(
        m=rng.standard_normal(rwg.n_dofs)
        + 1j * rng.standard_normal(rwg.n_dofs),
        j=rng.standard_normal(bc.n_dofs) + 1j * rng.standard_normal(bc.n_dofs),
        wavenumber=CTX.wavenumber, formulation="random", report=None)


def counted_rows(monkeypatch):
    """Record the number of points of every ``_kernel_rows`` call."""
    real, seen = fields._kernel_rows, []

    def counted(points, *args, **kwargs):
        seen.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(fields, "_kernel_rows", counted)
    return seen


class TestOrbitRadiation:
    RADII = [0.5, 1.0, 2.0]

    def test_orbit_rows_match_per_point_rows(self, surface, traced_pair):
        _, rwg, bc = surface
        assert rwg.fine.n_faces == 480
        group = rwg.fine.rotations.ids
        assert len(group) == 60
        seeds = fields._orbit_directions(200)[:3]
        # Six radii of three seeds: chunks of 16 and 2 representatives.
        reps = np.concatenate([r * seeds for r in (0.07, 0.1, 0.2, 0.3,
                                                   0.5, 0.8)])
        points = fields._orbit_points(reps, group)
        orbit = radiate_arrays(traced_pair, rwg, bc, points, rotations=group)
        direct = radiate_arrays(traced_pair, rwg, bc, points)
        scale = np.linalg.norm(direct, axis=1)
        assert (np.linalg.norm(orbit - direct, axis=1) / scale).max() < 1e-13

    def test_points_must_be_the_orbits(self, surface, traced_pair):
        _, rwg, bc = surface
        group = rwg.fine.rotations.ids
        points = fields._orbit_points(0.2 * fields._orbit_directions(60)[:1],
                                      group)
        with pytest.raises(ValueError, match="orbits"):
            radiate_arrays(traced_pair, rwg, bc, points[::-1],
                           rotations=group)
        with pytest.raises(ValueError, match="orbits"):
            radiate_arrays(traced_pair, rwg, bc, points[:-1],
                           rotations=group)

    def test_rotations_must_be_kept_by_the_mesh(self, surface, traced_pair):
        gamma, _, _ = surface
        rwg, bc = basis_pair(turned(gamma, 0))
        assert list(rwg.fine.rotations.ids) == [0]
        points = fields._orbit_points(0.2 * fields._orbit_directions(60)[:1],
                                      np.arange(60))
        with pytest.raises(ValueError, match="rotations the refined mesh"):
            radiate_arrays(random_solution(rwg, bc), rwg, bc, points,
                           rotations=np.arange(60))

    def test_symmetric_sphere_computes_rows_per_orbit(
            self, surface, source, traced_pair, monkeypatch):
        _, rwg, bc = surface
        seen = counted_rows(monkeypatch)
        error_curve(traced_pair, source, rwg, bc, self.RADII, n_points=1000)
        assert sum(seen) * 50 <= len(self.RADII) * 1020
        assert sum(seen) == len(self.RADII) * 17

    def test_turned_sphere_is_its_own_representatives(
            self, surface, monkeypatch):
        gamma, _, _ = surface
        rwg, bc = basis_pair(turned(gamma, 0))
        src = DipoleSource(np.zeros(3), np.array([0.0, 0.0, 1e-3]), CTX)
        seen = counted_rows(monkeypatch)
        curve = error_curve(random_solution(rwg, bc), src, rwg, bc,
                            self.RADII, n_points=64)
        assert sum(seen) == len(self.RADII) * 60
        assert np.all(np.isfinite(curve.errors))

    def test_kept_rows_give_the_same_curve(self, surface, source,
                                           traced_pair, monkeypatch):
        _, rwg, bc = surface
        plain = error_curve(traced_pair, source, rwg, bc, self.RADII,
                            n_points=200)
        rows = KernelRows(2**30)
        miss = error_curve(traced_pair, source, rwg, bc, self.RADII,
                           n_points=200, rows=rows)
        assert rows.nbytes == row_bytes(np.empty((3 * 180, 3)), rwg)
        seen = counted_rows(monkeypatch)
        hit = error_curve(traced_pair, source, rwg, bc, self.RADII,
                          n_points=200, rows=rows)
        assert seen == []
        assert np.array_equal(miss.errors, plain.errors)
        assert np.array_equal(hit.errors, plain.errors)

    def test_kept_orbit_rows_give_the_same_bits(self, surface, traced_pair,
                                                monkeypatch):
        _, rwg, bc = surface
        group = rwg.fine.rotations.ids
        reps = 0.2 * fields._orbit_directions(1000)[:_CHUNK + 1]
        points = fields._orbit_points(reps, group)
        plain = radiate_arrays(traced_pair, rwg, bc, points, rotations=group)
        rows = KernelRows(2**30)
        miss = radiate_arrays(traced_pair, rwg, bc, points, rows=rows,
                              rotations=group)
        assert list(rows.sets) == [reps.tobytes() + group[1:].tobytes()]
        # 16 representatives take one rotation a product, the 17th 16.
        assert [len(a) for a, _ in rows.sets[list(rows.sets)[0]]] == (
            [2 * _CHUNK] * 60 + [2 * _CHUNK] * 3 + [2 * 12])
        seen = counted_rows(monkeypatch)
        hit = radiate_arrays(traced_pair, rwg, bc, points.copy(), rows=rows,
                             rotations=group)
        assert seen == []
        assert np.array_equal(miss, plain) and np.array_equal(hit, plain)


def row_bytes(pts, rwg):
    """Bytes of the kernel rows a and g of ``pts``: (2n, 3F) floats each."""
    return 2 * 2 * len(pts) * 3 * rwg.fine.n_faces * 8


class TestKernelRows:
    # Chunks of 16, 16 and 5 points.
    PTS = shell_points(0.2, 2 * _CHUNK + 5)

    def test_kept_rows_give_the_same_bits(self, surface, traced_pair,
                                          monkeypatch):
        _, rwg, bc = surface
        other = replace(traced_pair, m=(2.0 - 1j) * traced_pair.m,
                        j=-0.5 * traced_pair.j)
        plain = [radiate_arrays(sol, rwg, bc, self.PTS)
                 for sol in (traced_pair, other)]
        rows = KernelRows(row_bytes(self.PTS, rwg))
        miss = radiate_arrays(traced_pair, rwg, bc, self.PTS, rows=rows)
        assert list(rows.sets) == [self.PTS.tobytes()]
        assert rows.nbytes == rows.bound
        assert [len(a) for a, _ in rows.sets[self.PTS.tobytes()]] == \
            [2 * _CHUNK, 2 * _CHUNK, 10]

        def computed(*args, **kwargs):
            raise AssertionError("a hit must not compute rows")

        monkeypatch.setattr(fields, "_kernel_rows", computed)
        monkeypatch.setattr(fields, "_reject_near", computed)
        # Hits, on an equal but distinct point array: the same currents,
        # then new ones.
        hits = [radiate_arrays(sol, rwg, bc, self.PTS.copy(), rows=rows)
                for sol in (traced_pair, other)]
        for got, want in zip((miss, *hits), (plain[0], *plain)):
            assert np.array_equal(got, want)

    def test_kept_chunks_hold_one_column_per_face_corner(
            self, surface, traced_pair):
        _, rwg, bc = surface
        rows = KernelRows(row_bytes(self.PTS, rwg))
        radiate_arrays(traced_pair, rwg, bc, self.PTS, rows=rows)
        corners = 3 * rwg.fine.n_faces
        assert [(a.shape, g.shape)
                for a, g in rows.sets[self.PTS.tobytes()]] == [
            ((2 * n, corners),) * 2 for n in (_CHUNK, _CHUNK, 5)]

    def test_kept_rows_are_read_only(self, surface, traced_pair):
        _, rwg, bc = surface
        rows = KernelRows(row_bytes(self.PTS, rwg))
        radiate_arrays(traced_pair, rwg, bc, self.PTS, rows=rows)
        for a, g in rows.sets[self.PTS.tobytes()]:
            for arr in (a, g):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 0.0

    def test_point_set_over_the_bound_is_not_kept(self, surface,
                                                  traced_pair):
        _, rwg, bc = surface
        rows = KernelRows(row_bytes(self.PTS, rwg) - 1)
        e = radiate_arrays(traced_pair, rwg, bc, self.PTS, rows=rows)
        assert rows.sets == {} and rows.nbytes == 0
        e_ref = radiate_arrays(traced_pair, rwg, bc, self.PTS)
        assert np.array_equal(e, e_ref)

    def test_bound_covers_all_kept_sets(self, surface, traced_pair):
        _, rwg, bc = surface
        first, second = self.PTS[:_CHUNK], self.PTS[_CHUNK:]
        rows = KernelRows(row_bytes(self.PTS, rwg) - 1)
        radiate_arrays(traced_pair, rwg, bc, first, rows=rows)
        radiate_arrays(traced_pair, rwg, bc, second, rows=rows)
        assert list(rows.sets) == [first.tobytes()]

    def test_near_points_rejected_with_a_store(self, surface, traced_pair):
        _, rwg, bc = surface
        rows = KernelRows(2**30)
        for _ in range(2):
            with pytest.raises(ValueError, match="triangle diameter"):
                radiate_arrays(traced_pair, rwg, bc, shell_points(0.041),
                               rows=rows)
        assert rows.sets == {}

    def test_love_check_shares_the_store(self, surface, traced_pair):
        _, rwg, bc = surface
        pts = shell_points(0.01)
        rows = KernelRows(2**30)
        expected = check_love_condition(traced_pair, rwg, bc, pts)
        for _ in range(2):
            assert check_love_condition(traced_pair, rwg, bc, pts,
                                        rows=rows) == expected
        assert list(rows.sets) == [pts.tobytes()]


class TestAgainstSource:
    def test_traced_pair_reproduces_the_source(self, surface, source,
                                               traced_pair):
        _, rwg, bc = surface
        pts = shell_points(0.04 + 2 * CTX.wavelength)
        e_rec = radiate_arrays(traced_pair, rwg, bc, pts)
        e_ref, _ = field_arrays(source, pts, magnetic=False)
        e_err = np.linalg.norm(e_rec - e_ref) / np.linalg.norm(e_ref)
        assert 1e-3 < e_err < 5e-2

    def test_radial_decay(self, surface, traced_pair):
        _, rwg, bc = surface
        r1, r2 = 20 * CTX.wavelength, 40 * CTX.wavelength
        e1 = radiate_arrays(traced_pair, rwg, bc, shell_points(r1, 30))
        e2 = radiate_arrays(traced_pair, rwg, bc, shell_points(r2, 30))
        scaled1 = r1 * np.linalg.norm(e1, axis=1)
        scaled2 = r2 * np.linalg.norm(e2, axis=1)
        np.testing.assert_allclose(scaled1, scaled2, rtol=1e-2)


class TestLoveCondition:
    def test_traced_pair_is_quiet_inside(self, surface, traced_pair):
        _, rwg, bc = surface
        residual, _ = check_love_condition(traced_pair, rwg, bc,
                                           shell_points(0.01))
        assert residual < 0.1

    def test_dropping_j_breaks_the_condition(self, surface, traced_pair):
        _, rwg, bc = surface
        broken = CurrentSolution(m=traced_pair.m, j=None,
                                 wavenumber=CTX.wavenumber,
                                 formulation="projected", report=None)
        residual, _ = check_love_condition(broken, rwg, bc,
                                           shell_points(0.01))
        assert residual > 0.5
        _, without_j = check_love_condition(traced_pair, rwg, bc,
                                            shell_points(0.01))
        assert without_j == residual

    def test_zero_solution_returns_zero(self, surface):
        _, rwg, bc = surface
        sol = CurrentSolution(m=np.zeros(rwg.n_dofs), j=None,
                              wavenumber=CTX.wavenumber,
                              formulation="projected", report=None)
        assert check_love_condition(sol, rwg, bc,
                                    shell_points(0.01)) == (0.0, 0.0)

    def test_scale_invariant(self, surface, traced_pair):
        _, rwg, bc = surface
        pts = shell_points(0.01, 20)
        scaled = CurrentSolution(m=5.0 * traced_pair.m, j=5.0 * traced_pair.j,
                                 wavenumber=CTX.wavenumber,
                                 formulation="projected", report=None)
        first = check_love_condition(traced_pair, rwg, bc, pts)
        second = check_love_condition(scaled, rwg, bc, pts)
        assert first == pytest.approx(second, rel=1e-12)

    def test_one_pass_matches_two_radiations(self, surface, traced_pair):
        # Both residuals come from one evaluation; the reference radiates
        # the pair and m alone separately and normalizes each the same way.
        _, rwg, bc = surface
        pts = shell_points(0.01)
        fine = rwg.fine
        quad, wts = fine.quadrature(4)
        tables = fields.radiation_tables(traced_pair, rwg, bc)
        bary = triangle_rule(4).points

        def mean_level(values):
            return float((np.linalg.norm(values, axis=2) * wts).sum()
                         / wts.sum())

        mean_m, mean_j = (mean_level(bary @ corners)
                          for corners in (tables.m_corners, tables.j_corners))
        e_pair = radiate_arrays(traced_pair, rwg, bc, pts)
        e_m = radiate_arrays(replace(traced_pair, j=None), rwg, bc, pts)
        expected = (
            float(np.linalg.norm(e_pair, axis=1).max() / max(mean_m, mean_j)),
            float(np.linalg.norm(e_m, axis=1).max() / mean_m))
        assert check_love_condition(traced_pair, rwg, bc, pts) == expected
        # The corner form is exact only in exact arithmetic: the levels
        # agree with the current evaluated at the quadrature points to
        # within rounding.
        faces = np.arange(fine.n_faces)[:, None]
        for level, space, coeffs in ((mean_m, rwg, traced_pair.m),
                                     (mean_j, bc, traced_pair.j)):
            direct = mean_level(
                evaluate_rt0(fine, space.to_fine @ coeffs, faces, quad))
            assert level == pytest.approx(direct, rel=1e-14, abs=0.0)


class TestErrorCurve:
    def test_validation(self):
        with pytest.raises(ValueError, match="matching"):
            ErrorCurve(np.array([1.0, 2.0]), np.array([0.1]), "x")
        with pytest.raises(ValueError, match="increasing"):
            ErrorCurve(np.array([2.0, 1.0]), np.array([0.1, 0.2]), "x")
        with pytest.raises(ValueError, match="nonnegative"):
            ErrorCurve(np.array([1.0, 2.0]), np.array([0.1, -0.2]), "x")

    def test_rejects_frequency_mismatch(self, surface, traced_pair):
        _, rwg, bc = surface
        detuned = DipoleSource(np.zeros(3), np.array([0, 0, 1e-3]),
                               FrequencyContext(1e9))
        with pytest.raises(ValueError, match="frequency"):
            error_curve(traced_pair, detuned, rwg, bc, [1.0, 2.0])

    def test_levels_and_tag(self, surface, source, traced_pair):
        _, rwg, bc = surface
        curve = error_curve(traced_pair, source, rwg, bc, [1.0, 2.0],
                            n_points=50)
        assert curve.formulation == "projected"
        assert np.all(curve.errors < 5e-2)
        assert np.all(curve.errors > 1e-3)

    def test_stacked_radii_match_single_radius_curves(self, surface, source,
                                                     traced_pair):
        _, rwg, bc = surface
        radii = [1.0, 1.5, 3.0]
        curve = error_curve(traced_pair, source, rwg, bc, radii, n_points=50)
        single = [error_curve(traced_pair, source, rwg, bc, [r],
                              n_points=50).errors[0] for r in radii]
        np.testing.assert_allclose(curve.errors, single, rtol=1e-12, atol=0)

    def test_deterministic(self, surface, source, traced_pair):
        _, rwg, bc = surface
        first = error_curve(traced_pair, source, rwg, bc, [1.5], n_points=40)
        second = error_curve(traced_pair, source, rwg, bc, [1.5], n_points=40)
        assert np.array_equal(first.errors, second.errors)

    def test_stable_under_refined_sampling(self, surface, source,
                                           traced_pair):
        _, rwg, bc = surface
        coarse = error_curve(traced_pair, source, rwg, bc, [2.0], n_points=64)
        fine = error_curve(traced_pair, source, rwg, bc, [2.0], n_points=128)
        assert coarse.errors[0] == pytest.approx(fine.errors[0], rel=5e-2)

    def test_csv_output(self, surface, source, traced_pair, tmp_path):
        _, rwg, bc = surface
        curve = error_curve(traced_pair, source, rwg, bc, [1.0, 3.0],
                            n_points=30)
        path = tmp_path / "curve.csv"
        save_error_curve(curve, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["radius_lambda", "rel_error", "formulation"]
        assert len(rows) == 3
        back = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
        assert np.array_equal(back[:, 0], curve.radii)
        assert np.array_equal(back[:, 1], curve.errors)
        assert {r[2] for r in rows[1:]} == {"projected"}
