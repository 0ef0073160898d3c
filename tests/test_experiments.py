"""Experiment pipelines: config validation, artifacts, sweep and CLI."""
import csv
import gc
import json
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from lovebem import cli
from lovebem import experiments
from lovebem import fields
from lovebem.experiments import (ExperimentConfig, OperatorPlans,
                                 StageError, dump_operator, load_config,
                                 run_frequency_sweep, run_property_suite,
                                 run_reconstruction)
from lovebem import formulations
from lovebem import operators
from lovebem.formulations import (SPSystem, calderon_blocks, double_layer,
                                  rotated_gram, static_coupling)
from lovebem.mesh import generate_sphere_mesh
from lovebem.operators import FrequencyContext
from lovebem.projectors import ProjectorSet, build_projectors
from lovebem.quadrature import TriangleRule
from lovebem.spaces import basis_pair, build_loop_star, gram_matrix
from lovebem.tsvd import RegularizationPolicy, condition_at_threshold

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GATE_GEOMETRY = {"surface_edge": 0.02, "probe_edge_m": 0.055}
SWEEP_GEOMETRY = {"surface_edge": 0.02, "probe_offset_m": 0.07,
                  "probe_edge_m": 0.03}
# A probe too close to the surface for the radiation pass.
TOO_CLOSE_GEOMETRY = {"surface_edge": 0.04, "probe_offset_m": 0.15,
                      "probe_edge_m": 0.1}
TOO_CLOSE_SWEEP = {"geometry": TOO_CLOSE_GEOMETRY,
                   "frequency_sweep": [1e9, 2e9, 3e9]}


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
    with cold_plans() as plans, count_assembly() as calls:
        paths = run_reconstruction(cfg)
    return cfg, paths, calls, plans


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

    @pytest.mark.parametrize("weight", [-1.0, "inf", "nan"])
    def test_bad_love_weight_rejected(self, weight):
        with pytest.raises(StageError, match="love_weight") as info:
            ExperimentConfig.from_dict({"love_weight": weight})
        assert info.value.stage == "config"

    @pytest.mark.parametrize("raw", [
        {"threshold": "abc"},
        {"curve_points": "x"},
        {"geometry": {"surface_radius": "r"}},
        {"dipole": {"moment": ["a", 0, 1]}},
        {"curve_radii": [None]},
        {"geometry": 5},
        {"dipole": 5},
        {"frequency_sweep": 5},
        {"curve_radii": 5},
        {"dipole": {"moment": 5}},
        {"frequency_sweep": "123"},
        {"curve_points": 2.5},
        {"frequency": True},
    ])
    def test_non_numbers_are_config_errors(self, raw, tmp_path, capsys):
        with pytest.raises(StageError, match="must be an? (number|positive "
                           "integer|object|list)") as info:
            ExperimentConfig.from_dict(raw)
        assert info.value.stage == "config"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["reconstruct", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "error [config]" in capsys.readouterr().err

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
        for content in (b"{not json", b"\xff\xfe{}"):
            path.write_bytes(content)
            with pytest.raises(StageError, match="not valid JSON") as info:
                load_config(path)
            assert info.value.stage == "config"
        # A root that is not an object, with overrides to merge into it.
        for content in ("[1, 2]", '"abc"'):
            path.write_text(content)
            for overrides in ({"output_dir": "out"}, {"threshold": 1e-4}):
                with pytest.raises(StageError, match="root") as info:
                    load_config(path, **overrides)
                assert info.value.stage == "config"

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

    def test_radiation_tables_are_built_once(self, sp_run, monkeypatch):
        # One table of m and one of j serve the curve and the Love check.
        cfg, _ = sp_run
        real, calls = fields._corner_tables, []

        def counted(space, coeffs):
            calls.append(space)
            return real(space, coeffs)

        monkeypatch.setattr(fields, "_corner_tables", counted)
        run_reconstruction(cfg)
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_baseline_doubles_unknowns(self, baseline_run):
        _, paths, _, _ = baseline_run
        with open(paths["solve_report"]) as handle:
            report = json.load(handle)
        assert report["formulation"] == "baseline-love"
        assert report["edges"] == 120
        assert report["unknowns"] == 240
        assert report["rank"] == 240

    def test_baseline_still_reconstructs(self, baseline_run):
        _, paths, _, _ = baseline_run
        _, _, rows = read_commented_csv(paths["error_curve"])
        assert all(float(row[1]) < 5e-2 for row in rows)

    def test_baseline_shares_the_plan(self, baseline_run):
        _, _, calls, _ = baseline_run
        # The plan's static pass, then the radiation pass and one
        # same-surface pass for the self and the dual-tested blocks.
        assert calls.count(1e-30) == 1
        assert len(calls) == 3

    def test_baseline_bad_weight_fails_before_assembly(self, tmp_path,
                                                       count_assembly):
        cfg = gate_config(tmp_path, formulation="baseline-love",
                          love_weight=-1.0)
        with cold_plans(), count_assembly() as calls:
            with pytest.raises(StageError, match="love_weight"):
                run_reconstruction(cfg)
        assert calls == []

    @pytest.mark.parametrize("formulation", ["sp", "baseline-love"])
    def test_too_close_probe_exits_before_assembly(
            self, formulation, tmp_path, capsys, count_assembly):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": TOO_CLOSE_GEOMETRY,
                                    "frequency": 2e9,
                                    "formulation": formulation}))
        with cold_plans(), count_assembly() as calls:
            code = cli.main(["reconstruct", "--config", str(path),
                             "--out", str(tmp_path / "run")])
        assert code == 4
        assert "error [assembly]" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "run" / "currents.csv").exists()

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

    def test_raw_column_is_the_uncorrected_system(self, mini_sweep):
        # kappa_raw is the condition of the system whose coupling is
        # half the geometry's rotated Gram plus the double layer.
        cfg, path, _ = mini_sweep
        _, _, rows = read_commented_csv(path)
        with cold_plans() as plans:
            scene = experiments._build_scene(cfg, cfg.sweep[-1])
            surface = scene.surface
            half_gram = 0.5 * gram_matrix(surface.rwg, surface.bc,
                                          rotated=True).toarray()
            for frequency, row in zip(cfg.sweep, rows):
                ctx = FrequencyContext(frequency)
                system = plans.operator(surface, scene.probe, ctx).system
                dynamic = double_layer(surface.rwg, surface.bc, ctx,
                                       surface.near)
                raw = SPSystem(ctx.wavenumber, system.field_double,
                               system.field_efie, system.trace_efie,
                               half_gram + dynamic)
                assert float(row[2]) == condition_at_threshold(
                    raw.dense(), cfg.policy())

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

    def test_too_close_probe_fails_before_assembly(self, tmp_path,
                                                   count_assembly):
        cfg = ExperimentConfig.from_dict(
            {**TOO_CLOSE_SWEEP, "output_dir": str(tmp_path)})
        with cold_plans(), count_assembly() as calls:
            with pytest.raises(StageError, match="too close") as info:
                run_frequency_sweep(cfg)
        assert info.value.stage == "assembly"
        assert calls == []
        assert not (tmp_path / "condition_sweep.csv").exists()

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
                                                  count_assembly):
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        with cold_plans(), count_assembly() as calls:
            ledger = run_property_suite(cfg, names=("limit-property",))
        assert ledger["all_passed"]
        assert calls.count(1e-30) == 1
        assert len(calls) == 1 + len(ledger["checks"][0]["detail"]["norms"])

    def test_check_names(self):
        assert [name for name, _ in experiments._PROPERTY_CHECKS] == [
            "solenoidal-cancellation", "projector-algebra",
            "scaling-roundtrip", "limit-property", "dipole-maxwell",
            "interior-identity", "rotation-defect", "lowfreq-flat",
            "field-orbits"]

    def test_stabilized_condition_is_flat_at_low_frequency(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        ledger = run_property_suite(cfg, names=("lowfreq-flat",))
        entry = ledger["checks"][0]
        assert entry["passed"]
        detail = entry["detail"]
        assert detail["frequencies"] == [1e5, 1e6, 1e7]
        scaled = np.array(detail["kappa_stabilized"])
        assert np.abs(scaled / scaled[0] - 1.0).max() <= 1e-3
        assert np.all(np.array(detail["kappa_raw"]) >= 10.0 * scaled)

    def test_a_failed_low_frequency_point_fails_the_check(
            self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("synthetic solver outage")

        monkeypatch.setattr(experiments, "condition_at_threshold", broken)
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        entry = run_property_suite(cfg, names=("lowfreq-flat",))["checks"][0]
        assert not entry["passed"]
        assert "synthetic solver outage" in entry["error"]

    def test_rotation_defect_within_bounds(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        ledger = run_property_suite(cfg, names=("rotation-defect",))
        entry = ledger["checks"][0]
        assert entry["passed"]
        assert entry["detail"]["order"] == 60
        defects = entry["detail"]["defects"]
        assert set(defects) == {"single", "hyper", "double"}
        for kind, bound in entry["detail"]["bounds"].items():
            assert 0.0 < defects[kind] <= bound
        # the near double layer dominates; single and hyper hold 5 digits
        assert defects["double"] > 100.0 * max(defects["single"],
                                               defects["hyper"])

    def test_orbit_rows_match_per_point_rows(self, tmp_path):
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        entry = run_property_suite(cfg, names=("field-orbits",))["checks"][0]
        assert entry["passed"]
        assert entry["detail"] == {"order": 60, "points": 1020}
        assert 0.0 < entry["metric"] <= 1e-12

    def test_lost_rotations_fail_the_defect_check(self, tmp_path,
                                                  monkeypatch):
        # a mesh that detects only the identity would silently take the
        # slow path; the check reports it
        monkeypatch.setattr(operators.NearPlan, "rotations",
                            property(lambda plan: np.array([0])))
        cfg = ExperimentConfig(output_dir=str(tmp_path))
        ledger = run_property_suite(cfg, names=("rotation-defect",))
        entry = ledger["checks"][0]
        assert entry["detail"]["order"] == 1
        assert entry["metric"] <= entry["bound"]
        assert not entry["passed"]

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
        cases = [(json.dumps({"bogus": 1}).encode(), []),
                 (b"[1, 2]", ["--out", str(tmp_path)]),
                 (b'"abc"', ["--tau", "1e-4"]),
                 (b"\xff\xfe{}", [])]
        for content, extra in cases:
            path.write_bytes(content)
            code = cli.main(["reconstruct", "--config", str(path), *extra])
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

    def test_sweep_too_close_exits_with_assembly_code(self, tmp_path,
                                                      capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TOO_CLOSE_SWEEP))
        with cold_plans():
            code = cli.main(["sweep", "--config", str(path),
                             "--out", str(tmp_path)])
        assert code == 4
        assert "error [assembly]" in capsys.readouterr().err
        assert not (tmp_path / "condition_sweep.csv").exists()

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


def small_pair(plans):
    """Geometry plans of a 30-edge unit sphere and a far 120-edge probe."""
    return plans.geometry(1.0, 1.0), plans.geometry(30.0, 20.0)


def artifact_bytes(paths):
    return {name: open(path, "rb").read() for name, path in paths.items()}


@pytest.fixture
def stub_operator_plans(monkeypatch):
    """Operator plans that build nothing, for tests of keys and bounds."""
    monkeypatch.setattr(experiments, "OperatorPlan",
                        lambda surface, probe, ctx: object())


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
                artifacts.setdefault(formulation, []).append(
                    artifact_bytes(run_reconstruction(cfg)))
                assert len(calls) == 3
        assert plans.misses == {"shape": 2, "geometry": 2, "operator": 1}
        assert plans.hits == {"shape": 0, "geometry": 6, "operator": 3}
        for miss, hit in artifacts.values():
            assert hit == miss

    def test_warm_request_factors_and_maps_nothing(self, tmp_path,
                                                    monkeypatch):
        cfg = gate_config(tmp_path, formulation="sp-stabilized")
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        with cold_plans():
            cold = artifact_bytes(run_reconstruction(cfg))
            monkeypatch.setattr(np.linalg, "svd",
                                counted("svd", np.linalg.svd))
            monkeypatch.setattr(TriangleRule, "map_to",
                                counted("map_to", TriangleRule.map_to))
            warm = artifact_bytes(run_reconstruction(cfg))
        assert calls == []
        assert warm == cold

    def test_keys_cover_wavenumber_and_contents(self, stub_operator_plans):
        plans = OperatorPlans(bound=4)
        surface, probe = small_pair(plans)
        first = plans.operator(surface, probe, 1.0)
        assert plans.operator(surface, probe, 1.0) is first
        assert plans.operator(surface, probe, 1.1) is not first
        # A new radius or edge length is a new geometry of the same shape.
        for moved in (plans.geometry(1.01, 1.0), plans.geometry(1.0, 0.9)):
            assert moved is not surface
            assert moved.shape is surface.shape
            assert plans.operator(moved, probe, 1.0) is not first
        again, _ = small_pair(plans)
        assert again is surface
        assert plans.hits == {"shape": 2, "geometry": 2, "operator": 1}
        assert plans.misses == {"shape": 2, "geometry": 4, "operator": 4}

    def test_lru_evicts_at_bound(self, stub_operator_plans):
        plans = OperatorPlans(bound=1)
        first = plans.geometry(1.0, 1.0)
        plans.geometry(1.01, 1.0)
        assert plans.geometry(1.0, 1.0) is first
        plans.geometry(1.02, 1.0)
        assert len(plans) == 3
        assert plans.geometry(1.0, 1.0) is first
        plans.geometry(1.01, 1.0)
        assert plans.misses["geometry"] == 4
        level0 = first.shape
        plans.shape(1)
        assert plans.shape(0) is level0
        plans.shape(2)
        assert len(plans) == 4
        assert plans.shape(0) is level0
        plans.shape(1)
        assert plans.misses["shape"] == 4
        probe = plans.geometry(30.0, 20.0)
        low = plans.operator(first, probe, 1.0)
        plans.operator(first, probe, 1.1)
        assert len(plans) == 5
        assert plans.operator(first, probe, 1.0) is not low
        assert plans.misses["operator"] == 3

    def test_misses_share_the_shape_coupling(self, monkeypatch):
        # The Gram and the projections of the static coupling run once,
        # for the shape; neither an operator-plan miss nor a baseline
        # solve on that shape repeats them.
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(formulations, "gram_matrix",
                            counted("gram", formulations.gram_matrix))
        monkeypatch.setattr(ProjectorSet, "onto_loops",
                            counted("onto_loops", ProjectorSet.onto_loops))
        plans = OperatorPlans()
        surface, probe = small_pair(plans)
        for k in (1.0, 1.1):
            plans.operator(surface, probe, k)
        assert plans.misses["operator"] == 2
        assert calls == ["gram", "onto_loops"]
        zeros = np.zeros(probe.bc.n_dofs)
        formulations.solve_baseline_love(
            surface.rwg, surface.bc, probe.bc, 1.0, zeros, zeros,
            RegularizationPolicy(threshold=1e-6), surface.static_coupling,
            surface.gram_factors, near=surface.near)
        # The interior identity map solves with the shape's Gram factors.
        assert calls == ["gram", "onto_loops"]

    def test_cached_arrays_are_read_only(self):
        plans = OperatorPlans()
        surface, probe = small_pair(plans)
        plan = plans.operator(surface, probe, 1.0)
        system = plan.system
        for arr in (system.dense(), system.coupling, system.trace_efie,
                    system.field_double, system.field_efie,
                    system.trace_double, surface.shape.static_coupling,
                    surface.shape.gram[0], surface.gram_factors[0],
                    plan.stabilized.matrix(), system.factors.u,
                    plan.stabilized.factors.vh):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0
        for matrix in (surface.rwg.to_fine, surface.bc.to_fine,
                       surface.shape.projectors.loops,
                       surface.shape.projectors.stars):
            with pytest.raises(ValueError, match="read-only"):
                matrix.data[0] = 0.0


def only_plan(plans):
    (plan,) = plans._entries["operator"].values()
    return plan


def interior_points(cfg):
    """The Love-check points ``run_reconstruction`` radiates onto."""
    return (0.25 * cfg.surface_radius) * fields.fibonacci_directions(50)


@pytest.fixture(scope="module")
def row_runs(tmp_path_factory):
    """Requests that share a plan's kept field rows, then one that evicts it.

    Three sp-stabilized requests on one plan with different dipoles,
    then an sp request at another frequency.  Per request: the point
    counts of its near-point checks, the plan's kept point sets (None
    without a store) and the artifacts.  Also whether a kept row of the
    first plan outlived its eviction.
    """
    out = tmp_path_factory.mktemp("rows")
    cfgs = [gate_config(out, formulation="sp-stabilized",
                        dipole_position=np.array(position))
            for position in ([0.007, 0.004, -0.005], [-0.01, 0.0, 0.012],
                             [0.0, -0.015, 0.002])]
    cfgs.append(gate_config(out, formulation="sp", frequency=2.5e9))
    real = fields._reject_near
    checks, kept, artifacts = [], [], []

    def counted(mesh, points):
        checks[-1].append(len(points))
        return real(mesh, points)

    with cold_plans() as plans, pytest.MonkeyPatch.context() as patch:
        patch.setattr(fields, "_reject_near", counted)
        for cfg in cfgs:
            if len(checks) == 3:
                chunks = next(iter(only_plan(plans).rows.sets.values()))
                row = weakref.ref(chunks[0][0])
                del chunks
            checks.append([])
            artifacts.append(artifact_bytes(run_reconstruction(cfg)))
            rows = only_plan(plans).rows
            kept.append(None if rows is None else list(rows.sets))
    gc.collect()
    return cfgs, checks, kept, artifacts, row() is not None


class TestFieldRows:
    def test_third_request_reuses_the_rows(self, row_runs):
        cfgs, checks, kept, _, _ = row_runs
        # Only the plan hits keep rows: the second request keeps the
        # curve's 360 points and the 50 interior points, the third
        # reuses them and checks no point again.  64 directions make
        # one orbit of 60, so the near check sees one representative
        # per curve sphere.
        radiated = [len(cfgs[0].curve_radii), 50]
        assert checks == [radiated, radiated, [], radiated]
        assert kept[1] == kept[2]
        assert len(kept[1]) == 2
        assert interior_points(cfgs[2]).tobytes() in kept[1]

    def test_warm_rows_give_cold_bytes(self, row_runs, monkeypatch):
        cfgs, _, _, artifacts, _ = row_runs
        interior = interior_points(cfgs[2])
        with cold_plans() as plans:
            cold = artifact_bytes(run_reconstruction(cfgs[2]))
            # A bound that holds the interior rows but not the curve's:
            # the curve is radiated without keeping.
            corners = 3 * only_plan(plans).surface.rwg.fine.n_faces
            monkeypatch.setattr(experiments, "FIELD_ROWS_BOUND",
                                2 * 2 * len(interior) * corners * 8)
            bounded = artifact_bytes(run_reconstruction(cfgs[2]))
            rows = only_plan(plans).rows
        assert artifacts[2] == cold
        assert bounded == cold
        assert list(rows.sets) == [interior.tobytes()]
        assert rows.nbytes == rows.bound

    def test_plan_misses_keep_no_rows(self, row_runs):
        _, _, kept, _, _ = row_runs
        assert kept[0] is None and kept[3] is None

    def test_evicted_plan_frees_its_rows(self, row_runs):
        *_, outlived = row_runs
        assert not outlived

    def test_repeat_fixture_keeps_corner_rows(self, monkeypatch, tmp_path):
        # A warm plan of the benchmark's recon-repeat fixture keeps a and
        # g of its 410 points (six 60-point curve spheres and 50 interior
        # points) per face corner: 2·2·410·3F·8 bytes, 18.02 MiB at
        # F = 480.  Rows per quadrature point would take twice that.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        rng = np.random.default_rng(0)
        cfgs = [ExperimentConfig.from_dict(
            {**workloads.recon_repeat(rng, i), "output_dir": str(tmp_path)})
            for i in range(2)]
        with cold_plans() as plans:
            for cfg in cfgs:
                run_reconstruction(cfg)
            plan = only_plan(plans)
        n_faces = plan.surface.rwg.fine.n_faces
        assert n_faces == 480
        assert len(plan.rows.sets) == 2
        assert plan.rows.nbytes == 2 * 2 * 410 * 3 * n_faces * 8


@pytest.fixture(scope="module")
def shape_runs(tmp_path_factory, baseline_run, count_assembly):
    """An sp and a baseline-love request, each cold and after the other.

    The sp request (another radius and frequency than ``baseline_run``)
    runs cold in a fresh store, then ``baseline_run``'s request follows
    it there.  The sp request then follows ``baseline_run`` in that
    fixture's store.  Both warm requests count their passes.
    """
    sp_cfg = gate_config(tmp_path_factory.mktemp("shape-sp"),
                         surface_radius=0.045, frequency=2.5e9,
                         formulation="sp")
    baseline_cfg, baseline_paths, _, baseline_plans = baseline_run
    cold = {"baseline-love": artifact_bytes(baseline_paths)}
    warm, calls = {}, {}
    with cold_plans() as sp_plans:
        cold["sp"] = artifact_bytes(run_reconstruction(sp_cfg))
        with count_assembly() as calls["baseline-love"]:
            warm["baseline-love"] = artifact_bytes(
                run_reconstruction(baseline_cfg))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "PLANS", baseline_plans)
        with count_assembly() as calls["sp"]:
            warm["sp"] = artifact_bytes(run_reconstruction(sp_cfg))
    return cold, warm, calls, (sp_plans, baseline_plans)


class TestShapePlans:
    @pytest.mark.parametrize("formulation", ["sp", "baseline-love"])
    def test_warm_shape_repeats_cold_bytes(self, shape_runs, formulation):
        cold, warm, _, _ = shape_runs
        assert warm[formulation] == cold[formulation]

    def test_new_radius_skips_the_static_pass(self, shape_runs):
        _, _, calls, stores = shape_runs
        # sp: the self and radiation passes; baseline-love: the radiation
        # pass of both currents and one pass for the self and the
        # dual-tested blocks.
        assert len(calls["sp"]) == 2
        assert len(calls["baseline-love"]) == 2
        assert 1e-30 not in calls["sp"] + calls["baseline-love"]
        for store in stores:
            assert store.misses["shape"] == 2
            assert store.hits["shape"] == 2

    def test_shape_work_matches_scaled_meshes(self):
        plans = OperatorPlans()
        for radius in (0.035, 0.045):
            geometry = plans.geometry(radius, 0.02)
            mesh = generate_sphere_mesh(radius, 0.02)
            np.testing.assert_array_equal(geometry.shape.mesh.triangles,
                                          mesh.triangles)
            rwg, bc = basis_pair(mesh)
            for direct, shared, owned in ((rwg, geometry.rwg,
                                           geometry.shape.rwg),
                                          (bc, geometry.bc,
                                           geometry.shape.bc)):
                assert shared.to_fine is owned.to_fine
                assert abs(direct.to_fine - shared.to_fine).max() <= 1e-14
            direct = static_coupling(
                rwg, bc, build_projectors(*build_loop_star(mesh)),
                rotated_gram(rwg, bc)[0])
            shared = geometry.static_coupling
            assert (np.linalg.norm(shared - direct)
                    <= 1e-13 * np.linalg.norm(direct))
        assert plans.misses["shape"] == 1

    def test_near_statics_give_order_free_bits(self):
        # Radius A then B against B then A; the second A is a hit.
        def blocks(plans, radius):
            geometry = plans.geometry(radius, radius)
            return calderon_blocks(geometry.rwg, geometry.bc, 1.0,
                                   near=geometry.near)

        ab, ba = OperatorPlans(), OperatorPlans()
        a_miss, b_hit, a_hit = (blocks(ab, r) for r in (1.0, 1.1, 1.0))
        b_miss, a_late = (blocks(ba, r) for r in (1.1, 1.0))
        assert ab.misses["shape"] == ba.misses["shape"] == 1
        for got, want in ((a_late, a_miss), (b_hit, b_miss),
                          (a_hit, a_miss)):
            for block, ref in zip(got, want):
                np.testing.assert_array_equal(block, ref)

    def test_known_level_computes_no_static_moments(self, monkeypatch):
        calls = []
        real = operators.static_moments

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(operators, "static_moments", counted)
        plans = OperatorPlans()
        probe = plans.geometry(30.0, 20.0)
        counts = []
        for radius in (1.0, 1.1):
            plans.operator(plans.geometry(radius, radius), probe, 1.0)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_level_boundary_misses_the_shape(self):
        plans = OperatorPlans()
        small = plans.geometry(0.04, 0.02)
        large = plans.geometry(0.06, 0.02)
        assert (small.mesh.n_faces, large.mesh.n_faces) == (80, 320)
        assert large.shape is not small.shape
        assert plans.geometry(0.045, 0.02).shape is small.shape
        assert plans.misses["shape"] == 2
        assert plans.hits["shape"] == 1
