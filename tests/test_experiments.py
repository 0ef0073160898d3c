"""Experiment pipelines: config validation, artifacts, sweep and CLI."""
import csv
import json
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.io

from lovebem import cli
from lovebem import experiments
from lovebem.experiments import (ExperimentConfig, OperatorPlans,
                                 StageError, dump_operator, load_config,
                                 run_frequency_sweep, run_property_suite,
                                 run_reconstruction)
from lovebem.mesh import TriangleMesh, generate_sphere_mesh
from lovebem.operators import AssemblyOptions

GATE_GEOMETRY = {"surface_edge": 0.02, "probe_edge_m": 0.055}
SWEEP_GEOMETRY = {"surface_edge": 0.02, "probe_offset_m": 0.07,
                  "probe_edge_m": 0.03}


def gate_config(out_dir, **overrides):
    return ExperimentConfig(surface_edge=0.02, probe_edge=0.055,
                            probe_edge_unit="m", curve_points=64,
                            output_dir=str(out_dir), **overrides)


@contextmanager
def cold_plans():
    """A fresh, empty plan store for the pipeline, restored afterwards.

    Tests that count assembly passes start cold this way, so their
    counts do not depend on which tests ran before them.
    """
    plans = OperatorPlans()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "PLANS", plans)
        yield plans


@pytest.fixture(scope="module")
def sp_run(tmp_path_factory):
    cfg = gate_config(tmp_path_factory.mktemp("sp"))
    return cfg, run_reconstruction(cfg)


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory, count_assembly):
    cfg = gate_config(tmp_path_factory.mktemp("baseline"),
                      formulation="baseline-love")
    with cold_plans(), count_assembly() as calls:
        paths = run_reconstruction(cfg)
    return cfg, paths, calls


@pytest.fixture(scope="module")
def mini_sweep(tmp_path_factory, count_assembly):
    cfg = ExperimentConfig(surface_edge=0.02, probe_offset=0.07,
                           probe_offset_unit="m", probe_edge=0.03,
                           probe_edge_unit="m", frequency=None,
                           sweep=(1e6, 1e8, 3.16e9),
                           output_dir=str(tmp_path_factory.mktemp("sweep")))
    with cold_plans(), count_assembly() as calls:
        path = run_frequency_sweep(cfg)
    return cfg, path, calls


def read_commented_csv(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    header_meta = json.loads(lines[0][2:])
    rows = [row for row in csv.reader(lines[1:]) if row]
    return header_meta, rows[0], rows[1:]


class TestConfigParsing:
    def test_empty_dict_gives_defaults(self):
        assert (ExperimentConfig.from_dict({}).canonical()
                == ExperimentConfig().canonical())

    def test_unknown_keys_rejected(self):
        with pytest.raises(StageError, match="unknown config keys: probe"):
            ExperimentConfig.from_dict({"probe": {}})

    def test_offset_in_both_units_rejected(self):
        geometry = {"probe_offset_lambda": 1.0, "probe_offset_m": 0.1}
        with pytest.raises(StageError, match="not both"):
            ExperimentConfig.from_dict({"geometry": geometry})

    def test_negative_radius_rejected(self):
        with pytest.raises(StageError, match="surface_radius"):
            ExperimentConfig.from_dict(
                {"geometry": {"surface_radius": -0.04}})

    def test_sweep_must_ascend(self):
        with pytest.raises(StageError, match="ascending"):
            ExperimentConfig.from_dict({"frequency_sweep": [1e6, 1e5, 1e7]})

    def test_sweep_clears_single_frequency(self):
        cfg = ExperimentConfig.from_dict({"frequency_sweep": [1e5, 1e6]})
        assert cfg.frequency is None
        assert cfg.sweep == (1e5, 1e6)

    def test_formulation_membership(self):
        with pytest.raises(StageError, match="formulation must be one of"):
            ExperimentConfig.from_dict({"formulation": "efie"})

    def test_moment_pairs_become_complex(self):
        cfg = ExperimentConfig.from_dict(
            {"dipole": {"moment": [[0.2, 0.1], -0.3, 1.0]}})
        assert cfg.dipole_moment[0] == 0.2 + 0.1j
        assert cfg.dipole_moment[2] == 1.0 + 0.0j

    def test_moment_pair_arity_checked(self):
        with pytest.raises(StageError, match=r"\[re, im\]"):
            ExperimentConfig.from_dict(
                {"dipole": {"moment": [[0.2, 0.1, 0.3], 1.0, 1.0]}})

    def test_zero_moment_rejected(self):
        with pytest.raises(StageError, match="nonzero"):
            ExperimentConfig.from_dict({"dipole": {"moment": [0, 0, 0]}})

    def test_threshold_must_stay_below_one(self):
        with pytest.raises(StageError, match="below one"):
            ExperimentConfig.from_dict({"threshold": 2.0})

    def test_curve_radii_must_ascend(self):
        with pytest.raises(StageError, match="curve_radii"):
            ExperimentConfig.from_dict({"curve_radii": [2.0, 1.0]})

    def test_probe_offset_unit_resolution(self):
        from lovebem.operators import FrequencyContext
        ctx = FrequencyContext(3.16e9)
        relative = ExperimentConfig(probe_offset=1.0,
                                    probe_offset_unit="lambda")
        metric = ExperimentConfig(probe_offset=0.07, probe_offset_unit="m")
        assert relative.probe_offset_meters(ctx) == ctx.wavelength
        assert metric.probe_offset_meters(ctx) == 0.07


class TestConfigLoading:
    def test_file_values_land_in_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "geometry": {"surface_edge": 0.02, "probe_offset_m": 0.07},
            "threshold": 1e-5,
            "formulation": "sp",
        }))
        cfg = load_config(path)
        assert cfg.surface_edge == 0.02
        assert cfg.probe_offset == 0.07
        assert cfg.probe_offset_unit == "m"
        assert cfg.threshold == 1e-5
        assert cfg.formulation == "sp"

    def test_missing_file_reports_config_stage(self, tmp_path):
        with pytest.raises(StageError, match="cannot read config") as info:
            load_config(tmp_path / "absent.json")
        assert info.value.stage == "config"

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StageError, match="not valid JSON"):
            load_config(path)

    def test_overrides_participate_in_hash(self):
        base = load_config(None)
        tightened = load_config(None, threshold=1e-4)
        moved = load_config(None, output_dir="elsewhere")
        assert base.config_hash != tightened.config_hash
        assert base.config_hash != moved.config_hash

    def test_hash_is_stable(self):
        assert (ExperimentConfig().config_hash
                == ExperimentConfig().config_hash)
        assert len(ExperimentConfig().config_hash) == 16

    def test_provenance_carries_version(self):
        from lovebem import __version__
        provenance = ExperimentConfig().provenance()
        assert provenance["version"] == __version__
        assert provenance["config_hash"] == ExperimentConfig().config_hash


class TestReconstruction:
    def test_artifacts_exist(self, sp_run):
        _, paths = sp_run
        assert sorted(paths) == ["currents", "error_curve", "love_residual",
                                 "solve_report"]
        for path in paths.values():
            assert json.dumps(path)  # stringly typed
            assert open(path).read()

    def test_provenance_headers(self, sp_run):
        cfg, paths = sp_run
        for name in ("currents", "error_curve"):
            meta, _, _ = read_commented_csv(paths[name])
            assert meta["config_hash"] == cfg.config_hash
        for name in ("love_residual", "solve_report"):
            with open(paths[name]) as handle:
                payload = json.load(handle)
            assert payload["config_hash"] == cfg.config_hash
            assert "version" in payload

    def test_solve_report_counts(self, sp_run):
        _, paths = sp_run
        with open(paths["solve_report"]) as handle:
            report = json.load(handle)
        assert report["formulation"] == "sp-stabilized"
        assert report["edges"] == 120
        assert report["unknowns"] == 120
        assert report["tests"] == 480
        assert report["rank"] == 120
        assert 1e2 < report["condition"] < 1e6
        assert report["residual"] < 5e-3

    def test_love_residual_discriminates(self, sp_run):
        _, paths = sp_run
        with open(paths["love_residual"]) as handle:
            payload = json.load(handle)
        assert payload["residual"] <= 1e-2
        assert payload["residual_without_j"] >= 0.5

    def test_error_curve_quality(self, sp_run):
        _, paths = sp_run
        _, header, rows = read_commented_csv(paths["error_curve"])
        assert header[0] == "radius_lambda"
        radii = [float(row[0]) for row in rows]
        errors = [float(row[1]) for row in rows]
        assert radii == sorted(radii)
        assert all(err < 5e-2 for err in errors)

    def test_rerun_is_bit_identical(self, sp_run):
        cfg, paths = sp_run
        before = {name: open(path, "rb").read()
                  for name, path in paths.items()}
        again = run_reconstruction(cfg)
        for name, path in again.items():
            assert open(path, "rb").read() == before[name]

    def test_baseline_doubles_unknowns(self, baseline_run):
        _, paths, _ = baseline_run
        with open(paths["solve_report"]) as handle:
            report = json.load(handle)
        assert report["formulation"] == "baseline-love"
        assert report["edges"] == 120
        assert report["unknowns"] == 240
        assert report["rank"] == 240

    def test_baseline_still_reconstructs(self, baseline_run):
        _, paths, _ = baseline_run
        _, _, rows = read_commented_csv(paths["error_curve"])
        assert all(float(row[1]) < 5e-2 for row in rows)

    def test_baseline_shares_the_plan(self, baseline_run):
        _, _, calls = baseline_run
        # The plan's static pass, then the radiation pass, the self pass
        # the single-current system also makes, and the dual-tested pass.
        assert calls.count(1e-30) == 1
        assert len(calls) == 4

    def test_baseline_bad_weight_fails_before_assembly(self, tmp_path,
                                                       count_assembly):
        cfg = gate_config(tmp_path, formulation="baseline-love",
                          love_weight=-1.0)
        with cold_plans(), count_assembly() as calls:
            with pytest.raises(StageError, match="love_weight"):
                run_reconstruction(cfg)
        assert calls == []

    def test_sweep_config_cannot_reconstruct(self, tmp_path):
        cfg = gate_config(tmp_path, frequency=None)
        with pytest.raises(StageError, match="needs a frequency") as info:
            run_reconstruction(cfg)
        assert info.value.stage == "config"

    def test_exterior_dipole_rejected(self, tmp_path):
        cfg = gate_config(tmp_path,
                          dipole_position=np.array([0.05, 0.0, 0.0]))
        with pytest.raises(StageError, match="inside"):
            run_reconstruction(cfg)


class TestFrequencySweep:
    def test_csv_structure(self, mini_sweep):
        cfg, path, _ = mini_sweep
        meta, header, rows = read_commented_csv(path)
        assert meta["config_hash"] == cfg.config_hash
        assert header == ["frequency_hz", "kappa_stabilized", "kappa_raw",
                          "error"]
        assert [float(row[0]) for row in rows] == list(cfg.sweep)
        values = np.array([[float(cell) for cell in row[1:3]]
                           for row in rows])
        assert np.all(np.isfinite(values))
        assert np.all(values >= 1.0)
        assert [row[3] for row in rows] == [""] * len(rows)

    def test_raw_and_stabilized_paths_differ(self, mini_sweep):
        _, path, _ = mini_sweep
        _, _, rows = read_commented_csv(path)
        stabilized = np.array([float(row[1]) for row in rows])
        raw = np.array([float(row[2]) for row in rows])
        assert not np.allclose(stabilized, raw, rtol=1e-3)

    def test_static_layer_assembled_once(self, mini_sweep):
        cfg, _, calls = mini_sweep
        # One static pass per sweep, then a self and a radiation pass
        # per point; the uncorrected block reuses the self pass.
        assert calls.count(1e-30) == 1
        assert len(calls) == 1 + 2 * len(cfg.sweep)

    def test_failed_point_names_its_error(self, tmp_path, monkeypatch):
        real = experiments.condition_at_threshold
        calls = []

        def flaky(matrix, policy):
            # Two calls per point: the third is the middle point's first.
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("synthetic breakdown, mid sweep")
            return real(matrix, policy)

        monkeypatch.setattr(experiments, "condition_at_threshold", flaky)
        cfg = ExperimentConfig(surface_edge=0.04, probe_offset=0.12,
                               probe_offset_unit="m", probe_edge=0.06,
                               probe_edge_unit="m", frequency=None,
                               sweep=(1e6, 1e8, 3.16e9),
                               output_dir=str(tmp_path))
        with cold_plans():
            _, header, rows = read_commented_csv(run_frequency_sweep(cfg))
        assert header[-1] == "error"
        failed = rows[1]
        assert np.isnan(float(failed[1])) and np.isnan(float(failed[2]))
        assert failed[3] == ("FloatingPointError: synthetic breakdown, "
                             "mid sweep")
        for row in (rows[0], rows[2]):
            assert np.all(np.isfinite([float(row[1]), float(row[2])]))
            assert row[3] == ""

    def test_short_sweep_rejected(self, tmp_path):
        cfg = ExperimentConfig(sweep=(1e6, 1e7), frequency=None,
                               probe_offset=0.07, probe_offset_unit="m",
                               probe_edge=0.03, probe_edge_unit="m",
                               output_dir=str(tmp_path))
        with pytest.raises(StageError, match="at least 3"):
            run_frequency_sweep(cfg)

    def test_sweep_requires_metric_probe(self, tmp_path):
        cfg = ExperimentConfig(sweep=(1e6, 1e7, 1e8), frequency=None,
                               output_dir=str(tmp_path))
        with pytest.raises(StageError, match="metric"):
            run_frequency_sweep(cfg)


@pytest.fixture(scope="module")
def subset_ledger(tmp_path_factory):
    cfg = ExperimentConfig(
        output_dir=str(tmp_path_factory.mktemp("suite")))
    return run_property_suite(
        cfg, names=("projector-algebra", "scaling-roundtrip"))


class TestPropertySuite:

    def test_subset_passes(self, subset_ledger):
        assert subset_ledger["all_passed"]
        names = [entry["name"] for entry in subset_ledger["checks"]]
        assert names == ["projector-algebra", "scaling-roundtrip"]
        for entry in subset_ledger["checks"]:
            assert entry["metric"] <= entry["bound"]

    def test_ledger_written(self, subset_ledger):
        with open(subset_ledger["path"]) as handle:
            stored = json.load(handle)
        assert stored["all_passed"]
        assert "config_hash" in stored

    def test_unknown_check_rejected(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        with pytest.raises(StageError, match="unknown checks: bogus"):
            run_property_suite(cfg, names=("bogus",))

    def test_broken_oracle_fails_check(self, tmp_path, monkeypatch):
        real = experiments.field_arrays

        def flipped(src, points):
            e, h = real(src, points)
            return e, -h

        monkeypatch.setattr(experiments, "field_arrays", flipped)
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        ledger = run_property_suite(cfg, names=("dipole-maxwell",))
        assert not ledger["all_passed"]
        assert not ledger["checks"][0]["passed"]

    def test_limit_property_assembles_static_once(self, tmp_path,
                                                  monkeypatch,
                                                  count_assembly):
        # The check's 120-edge sphere swapped for the 30-edge one keeps
        # the seven-wavenumber run short; the property holds on both.
        monkeypatch.setattr(experiments, "generate_sphere_mesh",
                            lambda radius, edge: generate_sphere_mesh(
                                radius, radius))
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        with cold_plans(), count_assembly() as calls:
            ledger = run_property_suite(cfg, names=("limit-property",))
        assert ledger["all_passed"]
        assert calls.count(1e-30) == 1
        assert len(calls) == 1 + len(ledger["checks"][0]["detail"]["norms"])

    def test_check_exception_is_captured(self, tmp_path, monkeypatch):
        def broken(src, points):
            raise RuntimeError("synthetic oracle outage")

        monkeypatch.setattr(experiments, "field_arrays", broken)
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        ledger = run_property_suite(cfg, names=("dipole-maxwell",))
        entry = ledger["checks"][0]
        assert not entry["passed"]
        assert "synthetic oracle outage" in entry["error"]


class TestDumpOperator:
    def test_coupling_dump_roundtrips(self, tmp_path):
        cfg = gate_config(tmp_path)
        path = dump_operator(cfg, "coupling")
        matrix = scipy.io.mmread(path)
        assert matrix.shape == (120, 120)
        text = open(path).read()
        assert cfg.config_hash in text

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = gate_config(tmp_path)
        with pytest.raises(StageError, match="operator kind"):
            dump_operator(cfg, "bogus")

    def test_dump_needs_frequency(self, tmp_path):
        cfg = gate_config(tmp_path, frequency=None)
        with pytest.raises(StageError, match="needs a frequency"):
            dump_operator(cfg, "coupling")


class TestCli:
    def test_verify_subset(self, tmp_path, capsys):
        code = cli.main(["verify", "--check", "projector-algebra",
                         "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS projector-algebra" in out
        assert "ledger:" in out

    def test_verify_failure_sets_exit_code(self, tmp_path, capsys,
                                           monkeypatch):
        real = experiments.field_arrays
        monkeypatch.setattr(experiments, "field_arrays",
                            lambda src, pts: (real(src, pts)[0],
                                              -real(src, pts)[1]))
        code = cli.main(["verify", "--check", "dipole-maxwell",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL dipole-maxwell" in capsys.readouterr().out

    def test_thread_count_guard(self, capsys):
        code = cli.main(["verify", "--threads", "0"])
        assert code == 2
        assert "error [config]" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        code = cli.main(["reconstruct", "--config", str(path)])
        assert code == 2
        assert "error [config]" in capsys.readouterr().err

    def test_dump_operator_bad_kind(self, tmp_path, capsys):
        code = cli.main(["dump-operator", "--kind", "bogus",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "error [config]" in capsys.readouterr().err

    def test_sweep_rejects_short_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "geometry": SWEEP_GEOMETRY,
            "frequency_sweep": [1e6, 1e7],
        }))
        code = cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "at least 3" in capsys.readouterr().err

    def test_reconstruct_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "geometry": GATE_GEOMETRY,
            "formulation": "sp",
            "curve_points": 64,
        }))
        code = cli.main(["reconstruct", "--config", str(path),
                         "--out", str(tmp_path / "run")])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("currents", "error_curve", "love_residual",
                     "solve_report"):
            assert name in out
        with open(tmp_path / "run" / "solve_report.json") as handle:
            assert json.load(handle)["formulation"] == "sp"


def small_pair(plans, octahedron, scale=1.0):
    """Geometry plans of a unit octahedron and a far 120-edge probe."""
    surface = TriangleMesh(scale * octahedron.vertices, octahedron.triangles)
    return (plans.geometry(surface),
            plans.geometry(generate_sphere_mesh(30.0, 20.0)))


class TestOperatorPlans:
    def test_hit_repeats_miss_bytes(self, tmp_path, count_assembly):
        artifacts = {}
        with cold_plans() as plans, count_assembly() as calls:
            # Only the first run assembles: the first sp-stabilized run
            # scales the plain system the sp runs left in the plan.
            for formulation in ("sp", "sp", "sp-stabilized",
                                "sp-stabilized"):
                cfg = gate_config(tmp_path / formulation,
                                  formulation=formulation)
                paths = run_reconstruction(cfg)
                artifacts.setdefault(formulation, []).append(
                    {name: open(path, "rb").read()
                     for name, path in paths.items()})
                assert len(calls) == 3
        assert plans.misses == {"geometry": 2, "operator": 1}
        assert plans.hits == {"geometry": 6, "operator": 3}
        for miss, hit in artifacts.values():
            assert hit == miss

    def test_keys_cover_wavenumber_options_and_contents(self, octahedron):
        plans = OperatorPlans(bound=4)
        surface, probe = small_pair(plans, octahedron)
        first = plans.operator(surface, probe, 1.0)
        assert plans.operator(surface, probe, 1.0) is first
        assert plans.operator(surface, probe, 1.1) is not first
        assert plans.operator(surface, probe, 1.0,
                              AssemblyOptions(regular_degree=3)) \
            is not first
        moved, _ = small_pair(plans, octahedron, scale=1.01)
        assert moved.mesh.vertices.shape == surface.mesh.vertices.shape
        assert moved is not surface
        assert plans.operator(moved, probe, 1.0) is not first
        # Equal contents find the plan, which keeps its own mesh object.
        again, _ = small_pair(plans, octahedron)
        assert again is surface
        assert plans.hits == {"geometry": 3, "operator": 1}
        assert plans.misses == {"geometry": 3, "operator": 4}

    def test_lru_evicts_at_bound(self, octahedron):
        plans = OperatorPlans(bound=1)
        meshes = [TriangleMesh(scale * octahedron.vertices,
                               octahedron.triangles)
                  for scale in (1.0, 1.01, 1.02)]
        first = plans.geometry(meshes[0])
        plans.geometry(meshes[1])
        assert plans.geometry(meshes[0]) is first
        plans.geometry(meshes[2])
        assert len(plans) == 2
        assert plans.geometry(meshes[0]) is first
        plans.geometry(meshes[1])
        assert plans.misses["geometry"] == 4
        probe = plans.geometry(generate_sphere_mesh(30.0, 20.0))
        low = plans.operator(first, probe, 1.0)
        plans.operator(first, probe, 1.1)
        assert len(plans) == 3
        assert plans.operator(first, probe, 1.0) is not low
        assert plans.misses["operator"] == 3

    def test_cached_arrays_are_read_only(self, octahedron):
        plans = OperatorPlans()
        surface, probe = small_pair(plans, octahedron)
        plan = plans.operator(surface, probe, 1.0)
        system = plan.system
        for arr in (system.dense(), system.coupling, system.trace_efie,
                    system.field_double, system.field_efie,
                    system.trace_double, surface.static_double(),
                    plan.stabilized.matrix()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0
        for matrix in (surface.rwg.to_fine, surface.projectors.loops):
            with pytest.raises(ValueError, match="read-only"):
                matrix.data[0] = 0.0
