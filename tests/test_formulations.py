"""Reconstruction systems: block algebra, solvers, and a dipole scene."""
import csv
import json

import numpy as np
import pytest

from lovebem.dipole import DipoleSource, sample_measurement
from lovebem.formulations import (CurrentSolution, SPSystem,
                                  StabilizedSystem,
                                  assemble_calderon_interior, build_sp_system,
                                  calderon_blocks,
                                  double_layer, interior_coupling,
                                  recover_electric_current, rotated_gram,
                                  save_solution, solve_baseline_love, solve_sp,
                                  solve_stabilized, static_coupling)
from lovebem.mesh import generate_sphere_mesh
from lovebem.operators import ETA0, FrequencyContext
from lovebem.projectors import build_projectors, build_scaling
from lovebem.spaces import basis_pair, build_loop_star, gram_matrix
from lovebem.tsvd import RegularizationPolicy, SolveReport

CTX = FrequencyContext(3.16e9)
POLICY = RegularizationPolicy(threshold=1e-6)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def apply_system(system, coeffs):
    """Field-test response of magnetic current coefficients.

    Composes the system's three factors on the vector, without the
    materialized matrix, so it checks ``dense()`` independently.
    """
    recovered = system.inner_solve(system.trace_efie @ coeffs)
    return -system.field_double @ coeffs - system.field_efie @ recovered


def read_solution(path):
    """Parse a file written by ``save_solution`` back into a solution."""
    with open(path) as handle:
        meta = json.loads(handle.readline()[2:])
        rows = list(csv.reader(handle))
    data = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    report = SolveReport(
        sigma_max=float(meta["sigma_max"]), sigma_cut=float(meta["sigma_cut"]),
        rank=int(meta["rank"]), condition=float(meta["condition"]),
        residual=float(meta["residual"]))
    return CurrentSolution(
        m=data[:, 0] + 1j * data[:, 1],
        j=data[:, 2] + 1j * data[:, 3] if len(rows[0]) == 5 else None,
        wavenumber=float(meta["wavenumber"]),
        formulation=str(meta["formulation"]), report=report)


@pytest.fixture(scope="module")
def scene():
    """Dipole in a small sphere, measured on a concentric coarse sphere."""
    gamma = generate_sphere_mesh(0.04, 0.02)
    rwg, bc = basis_pair(gamma)
    mesh_m = generate_sphere_mesh(0.04 + CTX.wavelength, 0.055)
    bc_m = basis_pair(mesh_m)[1]
    src = DipoleSource(np.array([0.007, 0.004, -0.005]),
                       np.array([0.2 + 0.1j, -0.3, 1.0]) * 1e-3, CTX)
    e, h = sample_measurement(src, bc_m, rotated=False)
    return gamma, rwg, bc, mesh_m, bc_m, src, e, h


@pytest.fixture(scope="module")
def projectors(scene):
    return build_projectors(*build_loop_star(scene[0]))


@pytest.fixture(scope="module")
def gram(scene):
    """The rotated mixed Gram, dense, and its LU factors."""
    _, rwg, bc, _, _, _, _, _ = scene
    return rotated_gram(rwg, bc)


@pytest.fixture(scope="module")
def fixed(scene, projectors, gram):
    """The frequency-free input: the static coupling block."""
    _, rwg, bc, _, _, _, _, _ = scene
    return static_coupling(rwg, bc, projectors, gram[0])


@pytest.fixture(scope="module")
def system(scene, fixed):
    _, rwg, bc, _, bc_m, _, _, _ = scene
    return build_sp_system(rwg, bc, bc_m, CTX, fixed)


@pytest.fixture(scope="module")
def solution(system, scene):
    _, _, _, _, _, _, e, _ = scene
    return recover_electric_current(system, solve_sp(system, e, POLICY))


@pytest.fixture(scope="module")
def exact_pair(scene):
    """Analytic surface traces projected onto the two coefficient spaces."""
    gamma, rwg, bc, _, _, src, _, _ = scene
    ef, _ = sample_measurement(src, rwg)
    _, hg = sample_measurement(src, bc)
    m = np.linalg.solve(gram_matrix(rwg, rwg).toarray(), ef)
    j = np.linalg.solve(gram_matrix(bc, bc).toarray(), -ETA0 * hg)
    return m, j


@pytest.fixture(scope="module")
def calderon(system, scene, gram):
    _, rwg, bc, _, _, _, _, _ = scene
    return assemble_calderon_interior(system.coupling,
                                      calderon_blocks(rwg, bc, CTX), gram[1])


@pytest.fixture(scope="module")
def maps(scene, projectors):
    _, _, _, mesh_m, _, _, _, _ = scene
    ps_m = build_projectors(*build_loop_star(mesh_m))
    return build_scaling(projectors, ps_m, CTX), projectors, ps_m


@pytest.fixture(scope="module")
def baseline(scene, fixed, gram):
    _, rwg, bc, _, bc_m, _, e, h = scene
    return solve_baseline_love(rwg, bc, bc_m, CTX, e, h, POLICY, fixed,
                               gram[1])


class TestInteriorCoupling:
    def test_well_conditioned_on_sphere(self, system):
        assert np.linalg.cond(system.coupling) < 50.0
        # The LU-based estimate is a lower bound on the 1-norm condition.
        exact = np.linalg.cond(system.coupling, 1)
        assert exact / 3.0 <= system.coupling_condition <= exact * (1 + 1e-9)

    def test_deterministic(self, scene, fixed, projectors, gram):
        # A second static pass rebuilds the block bit for bit.
        _, rwg, bc, _, _, _, _, _ = scene
        assert np.array_equal(
            static_coupling(rwg, bc, projectors, gram[0]), fixed)

    def test_system_adds_its_double_layer(self, system, fixed):
        assert np.array_equal(system.coupling,
                              interior_coupling(system.trace_double, fixed))

    def test_accepts_preassembled_double_layer(self, scene, system, fixed):
        _, rwg, bc, _, _, _, _, _ = scene
        dynamic = double_layer(rwg, bc, CTX)
        block = interior_coupling(dynamic, fixed)
        assert np.array_equal(block, system.coupling)
        # The self pass's double layer equals the standalone one bit
        # for bit, so sweeps may reuse it for the uncorrected block.
        assert np.array_equal(system.trace_double, dynamic)

    def test_static_coupling_has_no_static_leak(self, scene, fixed,
                                                projectors):
        # The correction moves the half Gram by the quadrature leak,
        # 2.6e-4 of its norm on this mesh, and takes the static
        # star-to-loop part out to rounding (2.3e-4 of the largest
        # entry before).
        _, rwg, bc, _, _, _, _, _ = scene
        half_gram = 0.5 * gram_matrix(rwg, bc, rotated=True).toarray()
        assert (np.linalg.norm(fixed - half_gram)
                < 1e-3 * np.linalg.norm(half_gram))
        static = double_layer(rwg, bc, 1e-30)
        leak = projectors.onto_loops(
            projectors.onto_stars((fixed + static).T).T)
        assert np.abs(leak).max() < 1e-14 * np.abs(half_gram).max()

    def test_rejects_bad_wavenumber(self, scene, fixed):
        _, rwg, bc, _, bc_m, _, _, _ = scene
        with pytest.raises(ValueError, match="wavenumber"):
            build_sp_system(rwg, bc, bc_m, -1.0, fixed)


class TestSPSystem:
    def test_shapes(self, system, scene):
        gamma, _, _, mesh_m, _, _, _, _ = scene
        assert system.n_unknowns == gamma.n_edges
        assert system.n_tests == mesh_m.n_edges
        assert system.dense().shape == (mesh_m.n_edges, gamma.n_edges)

    def test_apply_matches_dense(self, system):
        rng = np.random.default_rng(3)
        x = random_complex(rng, system.n_unknowns)
        assert rel(apply_system(system, x), system.dense() @ x) < 1e-12

    def test_rejects_singular_coupling(self):
        blocks = np.zeros((3, 2)), np.zeros((3, 2))
        with pytest.raises(ValueError, match="singular"):
            SPSystem(1.0, blocks[0], blocks[1], np.zeros((2, 2)),
                     np.zeros((2, 2)))

    def test_rejects_numerically_singular_coupling(self):
        # Rank one: rounding leaves tiny, not exactly zero, pivots.
        rng = np.random.default_rng(4)
        u, v = random_complex(rng, 3), random_complex(rng, 3)
        with pytest.raises(ValueError, match="singular"):
            SPSystem(1.0, np.zeros((4, 3)), np.zeros((4, 3)),
                     np.zeros((3, 3)), np.outer(u, v.conj()))

    def test_rejects_nonsquare_coupling(self):
        with pytest.raises(ValueError, match="square"):
            SPSystem(1.0, np.zeros((3, 2)), np.zeros((3, 2)),
                     np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rejects_mismatched_trace_block(self):
        with pytest.raises(ValueError, match="trace"):
            SPSystem(1.0, np.zeros((3, 2)), np.zeros((3, 2)),
                     np.zeros((3, 3)), np.eye(2))

    def test_rejects_mismatched_radiation_rows(self):
        with pytest.raises(ValueError, match="radiation"):
            SPSystem(1.0, np.zeros((3, 2)), np.zeros((4, 2)),
                     np.eye(2), np.eye(2))


class TestSolve:
    def test_zero_data_gives_zero_current(self, system):
        sol = solve_sp(system, np.zeros(system.n_tests), POLICY)
        assert np.all(sol.m == 0.0)
        assert sol.j is None
        assert sol.formulation == "single-current"

    def test_linearity_at_full_rank(self, system):
        rng = np.random.default_rng(11)
        e1 = random_complex(rng, system.n_tests)
        e2 = random_complex(rng, system.n_tests)
        combo = solve_sp(system, 0.7 * e1 - 1.3j * e2, POLICY).m
        parts = (0.7 * solve_sp(system, e1, POLICY).m
                 - 1.3j * solve_sp(system, e2, POLICY).m)
        assert rel(combo, parts) < 1e-9

    def test_consistent_data_is_recovered(self, system):
        rng = np.random.default_rng(17)
        x_true = random_complex(rng, system.n_unknowns)
        sol = solve_sp(system, -apply_system(system, x_true), POLICY)
        assert rel(sol.m, x_true) < 1e-9
        assert sol.report.rank == system.n_unknowns

    def test_rejects_wrong_length(self, system):
        with pytest.raises(ValueError, match="length"):
            solve_sp(system, np.zeros(system.n_tests + 1), POLICY)

    def test_dipole_report(self, solution, system):
        report = solution.report
        assert report.rank == system.n_unknowns
        assert 1e2 < report.condition < 1e5
        assert report.residual < 5e-4

    def test_dipole_matches_projected_trace(self, solution, exact_pair):
        assert rel(solution.m, exact_pair[0]) < 0.5


class TestRecovery:
    def test_zero_m_gives_zero_j(self, system):
        sol = CurrentSolution(m=np.zeros(system.n_unknowns), j=None,
                              wavenumber=system.wavenumber,
                              formulation="single-current", report=None)
        assert np.all(recover_electric_current(system, sol).j == 0.0)

    def test_bit_identical_repeat(self, system, solution):
        again = recover_electric_current(system, solution)
        assert np.array_equal(again.j, solution.j)

    def test_satisfies_interior_relation(self, system, solution):
        lhs = system.coupling @ solution.j
        rhs = system.trace_efie @ solution.m
        assert rel(lhs, rhs) < 1e-10

    def test_rejects_wrong_size(self, system):
        sol = CurrentSolution(m=np.zeros(3), j=None,
                              wavenumber=system.wavenumber,
                              formulation="single-current", report=None)
        with pytest.raises(ValueError, match="size"):
            recover_electric_current(system, sol)


class TestStabilized:
    def test_matrix_matches_mapped_apply(self, system, maps):
        (unknown_map, test_map), _, _ = maps
        stab = StabilizedSystem(system, unknown_map, test_map)
        rng = np.random.default_rng(5)
        x = random_complex(rng, system.n_unknowns)
        direct = stab.matrix() @ x
        composed = test_map.apply(system.dense() @ unknown_map.apply(x))
        assert rel(direct, composed) < 1e-12

    def test_agrees_with_plain_path_on_consistent_data(self, system, maps):
        (unknown_map, test_map), _, _ = maps
        stab = StabilizedSystem(system, unknown_map, test_map)
        rng = np.random.default_rng(23)
        x_true = random_complex(rng, system.n_unknowns)
        e = -apply_system(system, x_true)
        plain = solve_sp(system, e, POLICY)
        scaled = solve_stabilized(stab, e, POLICY)
        assert rel(scaled.m, plain.m) < 1e-8
        assert scaled.formulation == "single-current scaled"

    def test_zero_data_gives_zero_current(self, system, maps):
        (unknown_map, test_map), _, _ = maps
        stab = StabilizedSystem(system, unknown_map, test_map)
        sol = solve_stabilized(stab, np.zeros(system.n_tests), POLICY)
        assert np.all(sol.m == 0.0)

    def test_rejects_swapped_sides(self, system, maps):
        (unknown_map, test_map), ps, ps_m = maps
        wrong_unknown, wrong_test = build_scaling(ps_m, ps, CTX)
        with pytest.raises(ValueError, match="unknown-side"):
            StabilizedSystem(system, wrong_unknown, test_map)
        with pytest.raises(ValueError, match="test-side"):
            StabilizedSystem(system, unknown_map, wrong_test)

    def test_rejects_wrong_length(self, system, maps):
        (unknown_map, test_map), _, _ = maps
        stab = StabilizedSystem(system, unknown_map, test_map)
        with pytest.raises(ValueError, match="length"):
            solve_stabilized(stab, np.zeros(3), POLICY)


class TestInteriorIdentityMap:
    def test_annihilates_recovered_pair(self, calderon, solution):
        stack = np.concatenate([-solution.m, solution.j])
        assert np.linalg.norm(calderon @ stack) / np.linalg.norm(stack) < 5e-2

    def test_small_on_projected_traces(self, calderon, exact_pair):
        stack = np.concatenate([-exact_pair[0], exact_pair[1]])
        assert np.linalg.norm(calderon @ stack) / np.linalg.norm(stack) < 8e-2

    def test_large_on_random_stack(self, calderon):
        rng = np.random.default_rng(7)
        stack = random_complex(rng, calderon.shape[1])
        assert np.linalg.norm(calderon @ stack) / np.linalg.norm(stack) > 0.5

    def test_near_idempotent(self, calderon):
        defect = np.linalg.norm(calderon @ calderon - calderon)
        assert defect / np.linalg.norm(calderon) < 0.1


class TestBaseline:
    def test_shapes_and_tag(self, baseline, scene):
        gamma = scene[0]
        assert baseline.m.shape == (gamma.n_edges,)
        assert baseline.j.shape == (gamma.n_edges,)
        assert baseline.formulation == "two-current"
        assert baseline.report.rank == 2 * gamma.n_edges

    def test_well_conditioned_with_default_weight(self, baseline):
        assert baseline.report.condition < 1e3

    def test_matches_projected_trace(self, baseline, exact_pair):
        assert rel(baseline.m, exact_pair[0]) < 0.3

    def test_zero_weight_still_solves(self, scene, fixed, gram):
        _, rwg, bc, _, bc_m, _, e, h = scene
        sol = solve_baseline_love(rwg, bc, bc_m, CTX, e, h, POLICY, fixed,
                                  gram[1], love_weight=0.0)
        assert np.all(np.isfinite(sol.m)) and np.all(np.isfinite(sol.j))

    @pytest.mark.parametrize("weight", [-1.0, np.inf, np.nan])
    def test_rejects_bad_weight(self, scene, fixed, gram, weight,
                                count_assembly):
        _, rwg, bc, _, bc_m, _, e, h = scene
        with count_assembly() as calls:
            with pytest.raises(ValueError, match="love_weight"):
                solve_baseline_love(rwg, bc, bc_m, CTX, e, h, POLICY,
                                    fixed, gram[1], love_weight=weight)
        assert calls == []

    def test_rejects_mismatched_data(self, scene, fixed, gram):
        _, rwg, bc, _, bc_m, _, e, _ = scene
        with pytest.raises(ValueError, match="probe"):
            solve_baseline_love(rwg, bc, bc_m, CTX, e, np.zeros(3), POLICY,
                                fixed, gram[1])


class TestSerialization:
    def test_roundtrip_without_recovery(self, solution, tmp_path):
        bare = CurrentSolution(m=solution.m, j=None,
                               wavenumber=solution.wavenumber,
                               formulation=solution.formulation,
                               report=solution.report)
        path = tmp_path / "m_only.csv"
        save_solution(bare, path)
        loaded = read_solution(path)
        assert np.array_equal(loaded.m, bare.m)
        assert loaded.j is None
        assert loaded.report == bare.report

    def test_roundtrip_pair(self, solution, tmp_path):
        path = tmp_path / "pair.csv"
        save_solution(solution, path)
        loaded = read_solution(path)
        assert np.array_equal(loaded.m, solution.m)
        assert np.array_equal(loaded.j, solution.j)
        assert loaded.wavenumber == solution.wavenumber
        assert loaded.formulation == solution.formulation

    @pytest.mark.parametrize("with_j", [False, True])
    def test_bytes_match_a_csv_writer(self, solution, tmp_path, with_j):
        # Awkward values too: signed zeros, tiny and huge exponents.
        m = solution.m.copy()
        m[:4] = [-0.0, 1e-300 - 0.0j, -2.5e17 + 1j / 3.0, complex(0.0, -0.0)]
        sol = CurrentSolution(m=m, j=solution.j if with_j else None,
                              wavenumber=solution.wavenumber,
                              formulation=solution.formulation,
                              report=solution.report)
        path = tmp_path / "currents.csv"
        save_solution(sol, path, extra={"seed": 3})
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as handle:
            with open(path, newline="") as written:
                handle.write(written.readline())
            writer = csv.writer(handle)
            if sol.j is None:
                writer.writerow(["edge", "re_m", "im_m"])
                for i, val in enumerate(sol.m):
                    writer.writerow(
                        [i, repr(float(val.real)), repr(float(val.imag))])
            else:
                writer.writerow(["edge", "re_m", "im_m", "re_j", "im_j"])
                for i, (mv, jv) in enumerate(zip(sol.m, sol.j)):
                    writer.writerow(
                        [i, repr(float(mv.real)), repr(float(mv.imag)),
                         repr(float(jv.real)), repr(float(jv.imag))])
        written = path.read_bytes()
        assert written == reference.read_bytes()
        assert written.count(b"\r\n") == len(sol.m) + 1
