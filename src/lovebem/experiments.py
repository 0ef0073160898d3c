"""Configuration-driven experiment pipelines with reproducible artifacts.

Three drivers cover the standard studies: a full reconstruction run
(mesh, assembly, solve, recovery, field evaluation), a frequency sweep
reporting the truncation-level condition number of the raw and the
scaled systems, and a property suite that re-checks the structural
invariants of every layer and writes a pass/fail ledger.

Every run is a pure function of its configuration: meshes, direction
sets and solver pivoting are deterministic, so identical configs give
bit-identical artifacts.  Every artifact carries a provenance header
with the config hash and package version.  Pipeline failures raise
``StageError`` tagged with the stage name; the command line maps the
tags to distinct exit codes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from . import __version__, operators
from .dipole import DipoleSource, field_arrays, sample_measurement
from .fields import (KernelRows, check_love_condition, error_curve,
                     fibonacci_directions, radiation_tables,
                     save_error_curve)
from .formulations import (SPSystem, StabilizedSystem, build_sp_system,
                           assemble_calderon_interior, calderon_blocks,
                           check_love_weight, double_layer,
                           interior_coupling, recover_electric_current,
                           save_solution, solve_baseline_love, solve_sp,
                           solve_stabilized, static_coupling)
from .mesh import (_octahedron, barycentric_refine, generate_sphere_mesh,
                   unit_icosphere)
from .operators import ETA0, FrequencyContext, NearPlan, gram_matrix
from .projectors import (ScalingMap, build_projectors, build_scaling,
                         save_norm_table, verify_limit_property)
from .spaces import BasisSpace, basis_pair, build_loop_star
from .tsvd import RegularizationPolicy, condition_at_threshold

__all__ = [
    "EXIT_CODES",
    "FIELD_ROWS_BOUND",
    "PLANS",
    "PLAN_BOUND",
    "ExperimentConfig",
    "GeometryPlan",
    "OperatorPlan",
    "OperatorPlans",
    "ShapePlan",
    "StageError",
    "dump_operator",
    "load_config",
    "run_frequency_sweep",
    "run_property_suite",
    "run_reconstruction",
]

log = logging.getLogger(__name__)

FORMULATIONS = ("sp", "sp-stabilized", "baseline-love")
OPERATOR_KINDS = ("system", "stabilized", "coupling", "gram")
# Clearances above the equivalent surface, in wavelengths.
DEFAULT_CURVE_RADII = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0)

EXIT_CODES = {
    "check": 1,
    "config": 2,
    "mesh": 3,
    "assembly": 4,
    "solve": 5,
    "evaluate": 6,
    "write": 7,
}


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as err:
        raise StageError(name, f"{type(err).__name__}: {err}") from err


def _number(raw, key):
    # JSON true and false are not numbers, though Python's float takes them.
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise StageError("config", f"{key} must be a number, not {raw!r}")


def _typed(raw, key, kind=(list, tuple), name="a list"):
    if not isinstance(raw, kind):
        raise StageError("config", f"{key} must be {name}, not {raw!r}")
    return raw


def _positive(raw, key):
    value = _number(raw, key)
    if not (math.isfinite(value) and value > 0.0):
        raise StageError("config", f"{key} must be positive and finite")
    return value


def _pick_unit(section, base, default):
    """Resolve a ``<base>_lambda`` / ``<base>_m`` alternative pair."""
    in_lambda = section.get(base + "_lambda")
    in_meters = section.get(base + "_m")
    if in_lambda is not None and in_meters is not None:
        raise StageError(
            "config", f"give {base} in wavelengths or meters, not both")
    if in_meters is not None:
        return _positive(in_meters, base + "_m"), "m"
    if in_lambda is not None:
        return _positive(in_lambda, base + "_lambda"), "lambda"
    return default


def _parse_moment(entries):
    if len(_typed(entries, "dipole moment")) != 3:
        raise StageError("config", "dipole moment needs three components")
    moment = np.zeros(3, dtype=complex)
    for axis, entry in enumerate(entries):
        if isinstance(entry, (list, tuple)):
            if len(entry) != 2:
                raise StageError(
                    "config", "complex moment components are [re, im] pairs")
            moment[axis] = (_number(entry[0], "dipole moment")
                            + 1j * _number(entry[1], "dipole moment"))
        else:
            moment[axis] = _number(entry, "dipole moment")
    if not np.all(np.isfinite(moment.view(np.float64))):
        raise StageError("config", "dipole moment must be finite")
    if np.linalg.norm(moment) == 0.0:
        raise StageError("config", "dipole moment must be nonzero")
    return moment


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description, defaulting to the standard recipe.

    Geometry is two concentric sphere meshes: the equivalent surface
    with a metric target edge length, and the measurement sphere placed
    by an offset given in wavelengths or meters.  Sweep runs require
    metric probe geometry, since wavelength-relative offsets diverge as
    the frequency drops.
    """

    surface_radius: float = 0.04
    surface_edge: float = 0.09487 / 20
    probe_offset: float = 1.0
    probe_offset_unit: str = "lambda"
    probe_edge: float = 0.125
    probe_edge_unit: str = "lambda"
    frequency: float | None = 3.16e9
    sweep: tuple[float, ...] | None = None
    dipole_position: np.ndarray = field(
        default_factory=lambda: np.array([0.007, 0.004, -0.005]))
    dipole_moment: np.ndarray = field(
        default_factory=lambda: np.array([0.2 + 0.1j, -0.3, 1.0]) * 1e-3)
    threshold: float = 1e-6
    formulation: str = "sp-stabilized"
    love_weight: float | None = None
    output_dir: str = "out"
    curve_radii: tuple[float, ...] = DEFAULT_CURVE_RADII
    curve_points: int = 200

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise StageError("config", "config root must be an object")
        known = {"geometry", "frequency", "frequency_sweep", "dipole",
                 "threshold", "formulation", "love_weight", "output_dir",
                 "curve_radii", "curve_points"}
        unknown = set(raw) - known
        if unknown:
            raise StageError(
                "config", f"unknown config keys: {', '.join(sorted(unknown))}")
        kwargs = {}
        geometry = _typed(raw.get("geometry", {}), "geometry", dict,
                          "an object")
        if "surface_radius" in geometry:
            kwargs["surface_radius"] = _positive(
                geometry["surface_radius"], "surface_radius")
        if "surface_edge" in geometry:
            kwargs["surface_edge"] = _positive(
                geometry["surface_edge"], "surface_edge")
        offset = _pick_unit(geometry, "probe_offset", None)
        if offset is not None:
            kwargs["probe_offset"], kwargs["probe_offset_unit"] = offset
        edge = _pick_unit(geometry, "probe_edge", None)
        if edge is not None:
            kwargs["probe_edge"], kwargs["probe_edge_unit"] = edge
        if "frequency" in raw:
            kwargs["frequency"] = _positive(raw["frequency"], "frequency")
        if "frequency_sweep" in raw:
            sweep = tuple(_positive(f, "sweep frequency") for f in
                          _typed(raw["frequency_sweep"], "frequency_sweep"))
            if any(b <= a for a, b in zip(sweep, sweep[1:])):
                raise StageError(
                    "config", "frequency sweep must be sorted ascending")
            kwargs["sweep"] = sweep
            kwargs.setdefault("frequency", None)
        dipole = _typed(raw.get("dipole", {}), "dipole", dict, "an object")
        if "position" in dipole:
            position = np.array([
                _number(v, "dipole position")
                for v in _typed(dipole["position"], "dipole position")])
            if position.shape != (3,) or not np.all(np.isfinite(position)):
                raise StageError(
                    "config", "dipole position must be three finite numbers")
            kwargs["dipole_position"] = position
        if "moment" in dipole:
            kwargs["dipole_moment"] = _parse_moment(dipole["moment"])
        if "threshold" in raw:
            tau = _positive(raw["threshold"], "threshold")
            if tau >= 1.0:
                raise StageError("config", "threshold must be below one")
            kwargs["threshold"] = tau
        if "formulation" in raw:
            if raw["formulation"] not in FORMULATIONS:
                raise StageError(
                    "config", "formulation must be one of "
                    + ", ".join(FORMULATIONS))
            kwargs["formulation"] = raw["formulation"]
        if "love_weight" in raw and raw["love_weight"] is not None:
            weight = _number(raw["love_weight"], "love_weight")
            with _stage("config"):
                kwargs["love_weight"] = check_love_weight(weight)
        if "output_dir" in raw:
            kwargs["output_dir"] = str(raw["output_dir"])
        if "curve_radii" in raw:
            radii = tuple(_positive(r, "curve radius")
                          for r in _typed(raw["curve_radii"], "curve_radii"))
            if any(b <= a for a, b in zip(radii, radii[1:])):
                raise StageError(
                    "config", "curve_radii must be sorted ascending")
            kwargs["curve_radii"] = radii
        if "curve_points" in raw:
            points = _number(raw["curve_points"], "curve_points")
            if not (points.is_integer() and points >= 1):
                raise StageError(
                    "config", "curve_points must be a positive integer")
            kwargs["curve_points"] = int(points)
        return cls(**kwargs)

    def canonical(self) -> dict:
        """Fully resolved plain-data form, the hashing input."""
        return {
            "geometry": {
                "surface_radius": self.surface_radius,
                "surface_edge": self.surface_edge,
                f"probe_offset_{self.probe_offset_unit}": self.probe_offset,
                f"probe_edge_{self.probe_edge_unit}": self.probe_edge,
            },
            "frequency": self.frequency,
            "frequency_sweep": list(self.sweep) if self.sweep else None,
            "dipole": {
                "position": [float(v) for v in self.dipole_position],
                "moment": [[float(z.real), float(z.imag)]
                           for z in self.dipole_moment],
            },
            "threshold": self.threshold,
            "formulation": self.formulation,
            "love_weight": self.love_weight,
            "output_dir": self.output_dir,
            "curve_radii": list(self.curve_radii),
            "curve_points": self.curve_points,
        }

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        return {"config_hash": self.config_hash, "version": __version__}

    def probe_offset_meters(self, ctx: FrequencyContext) -> float:
        if self.probe_offset_unit == "m":
            return self.probe_offset
        return self.probe_offset * ctx.wavelength

    def probe_edge_meters(self, ctx: FrequencyContext) -> float:
        if self.probe_edge_unit == "m":
            return self.probe_edge
        return self.probe_edge * ctx.wavelength

    def policy(self) -> RegularizationPolicy:
        return RegularizationPolicy(threshold=self.threshold)


def load_config(path=None, output_dir=None, threshold=None) -> ExperimentConfig:
    """Config from a JSON file, or the default recipe when no path given.

    ``output_dir`` and ``threshold`` override the file values; the
    overrides participate in the config hash like file content.
    """
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as err:
            raise StageError("config", f"cannot read config: {err}") from err
        except ValueError as err:  # bad JSON, or bytes that are not UTF-8
            raise StageError("config", f"config is not valid JSON: {err}") \
                from err
    if not isinstance(raw, dict):
        raise StageError("config", "config root must be an object")
    if output_dir is not None:
        raw["output_dir"] = str(output_dir)
    if threshold is not None:
        raw["threshold"] = threshold
    return ExperimentConfig.from_dict(raw)


def _out_dir(cfg: ExperimentConfig) -> Path:
    with _stage("write"):
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
    return out


# -- operator plans --------------------------------------------------
#
# The system matrix depends on the two meshes and the wavenumber only;
# measured data enters as the right side.  The plans below own that
# work, so a request that repeats a (geometry, wavenumber) pair skips
# assembly.  A hit returns the very arrays a miss built, so it gives
# the same bits.  The builders call their collaborators through this
# module's names, which keeps the calls visible at the module
# boundaries perfbench/tracing.py wraps.

# Operator plans kept; geometry and shape plans keep twice as many,
# since every operator plan names two of each.  The least recently used
# goes first.  One plan serves repeated requests on one (geometry,
# wavenumber) pair; each kept plan holds about 6 MB at 120 unknowns and
# 480 tests, which requests that never repeat carry as dead weight.
PLAN_BOUND = 1
# Bytes of field kernel rows one operator plan keeps over all its point
# sets, at 32 bytes per point and fine-face corner.  Six 64-point curve
# spheres and the 50 interior points of the 120-edge test surface
# (1 440 corners) take 19 MiB, so the bound leaves room for a surface
# or point set about three times as large; a point set that does not
# fit is radiated without keeping.
FIELD_ROWS_BOUND = 64 * 2**20


def _freeze(*values):
    """Make cached arrays read-only; sparse matrices freeze their buffers."""
    for value in values:
        arrays = ((value.data, value.indices, value.indptr)
                  if sp.issparse(value) else (value,))
        for arr in arrays:
            arr.setflags(write=False)


class ShapePlan:
    """Work that depends only on the shape of one icosphere level.

    Everything here is built on the unit sphere of the level: the RWG
    and BC coefficient maps (fluxes, so free of scale), the loop/star
    projectors (connectivity only) and, on first use, the near plan
    (near pairs with their static integrals, which scale by known
    powers of the radius) and the static coupling, the frequency-free
    part of the interior coupling block, which is dimensionless for
    unit-flux functions.  Since no scaled mesh
    ever reaches it, every sphere of the level gets the same bits,
    whatever the order of requests.
    """

    def __init__(self, level: int):
        self.mesh = unit_icosphere(level)
        self.rwg, self.bc = basis_pair(self.mesh)
        _freeze(self.rwg.to_fine, self.bc.to_fine, self.rwg.local,
                self.bc.local)

    @cached_property
    def projectors(self):
        ps = build_projectors(*build_loop_star(self.mesh))
        _freeze(ps.loops, ps.stars)
        return ps

    @cached_property
    def near(self) -> NearPlan:
        return NearPlan(self.rwg.fine)

    @cached_property
    def static_coupling(self):
        block = static_coupling(self.rwg, self.bc, self.projectors, self.near)
        _freeze(block)
        return block


class GeometryPlan:
    """One generated sphere mesh, with the shape work of its level.

    Holds the mesh later stages must use, since identity checks reject
    an equal but distinct mesh, and its RWG/BC pair: the barycentric
    refinement of the mesh with the shape's coefficient maps.  The
    projectors, the near plan (scaled to the radius) and the static
    coupling are the shape's.  ``coupling`` adds the double layer of
    one wavenumber to the static coupling without keeping the sum.
    """

    def __init__(self, key, mesh, shape: ShapePlan):
        self.key, self.mesh, self.shape = key, mesh, shape
        fine = barycentric_refine(mesh).mesh
        self.rwg = BasisSpace("rwg", mesh, fine, shape.rwg.to_fine)
        self.bc = BasisSpace("bc", mesh, fine, shape.bc.to_fine)
        _freeze(self.rwg.local, self.bc.local)
        self._cleared = set()

    @property
    def projectors(self):
        return self.shape.projectors

    @property
    def near(self) -> NearPlan:
        return self.shape.near.scaled(self.key[0])

    @property
    def static_coupling(self):
        return self.shape.static_coupling

    def coupling(self, ctx):
        dynamic = double_layer(self.rwg, self.bc, ctx, self.near)
        return interior_coupling(dynamic, self.static_coupling)

    def check_clearance(self, probe: "GeometryPlan"):
        """Raise unless ``probe`` clears this surface; once per probe."""
        if probe.key not in self._cleared:
            operators.check_clearance(probe.bc.fine, self.rwg.fine)
            self._cleared.add(probe.key)


class OperatorPlan:
    """Single-current system of one (surface, probe, wavenumber).

    ``stabilized`` adds the scaled system, its matrix materialized, on
    first use.  ``field_rows`` hands out the plan's field kernel rows.
    """

    def __init__(self, surface: GeometryPlan, probe: GeometryPlan, ctx):
        self.surface, self.probe, self.ctx = surface, probe, ctx
        self.system = build_sp_system(
            surface.rwg, surface.bc, probe.bc, ctx, surface.static_coupling,
            near=surface.near)
        system = self.system
        _freeze(system.field_double, system.field_efie, system.trace_efie,
                system.trace_double, system.coupling, system.dense())
        self.rows = None
        self._served = False

    def field_rows(self):
        """Kernel-row store for one request's fields on this plan.

        None for the request that built the plan, so requests that
        never repeat a plan keep no rows.
        """
        if self._served and self.rows is None:
            self.rows = KernelRows(FIELD_ROWS_BOUND)
        self._served = True
        return self.rows

    @cached_property
    def stabilized(self):
        maps = build_scaling(self.surface.projectors,
                             self.probe.projectors, self.ctx)
        stabilized = StabilizedSystem(self.system, *maps)
        _freeze(stabilized.matrix())
        return stabilized


class OperatorPlans:
    """Bounded LRU of shape, geometry and operator plans, with hit counters.

    Shape plans are keyed on the icosphere level; geometry plans on the
    ``generate_sphere_mesh`` arguments (radius, target edge length), so
    a hit generates no mesh; operator plans on the two geometry keys
    and the wavenumber.
    """

    def __init__(self, bound: int = PLAN_BOUND):
        self._bounds = {"shape": 2 * bound, "geometry": 2 * bound,
                        "operator": bound}
        self._entries = {level: OrderedDict() for level in self._bounds}
        self.hits = dict.fromkeys(self._bounds, 0)
        self.misses = dict.fromkeys(self._bounds, 0)

    def _lookup(self, level, key, build):
        entries = self._entries[level]
        if key in entries:
            entries.move_to_end(key)
            self.hits[level] += 1
            return entries[key]
        self.misses[level] += 1
        entry = build()
        entries[key] = entry
        if len(entries) > self._bounds[level]:
            entries.popitem(last=False)
        return entry

    def shape(self, level: int) -> ShapePlan:
        return self._lookup("shape", level, lambda: ShapePlan(level))

    def geometry(self, radius: float, edge: float) -> GeometryPlan:
        """Plan of ``generate_sphere_mesh(radius, edge)``."""
        key = (float(radius), float(edge))

        def build():
            mesh = generate_sphere_mesh(radius, edge)
            # generate_sphere_mesh makes 20 * 4**level faces.
            level = round(math.log(mesh.n_faces / 20, 4))
            return GeometryPlan(key, mesh, self.shape(level))
        return self._lookup("geometry", key, build)

    def operator(self, surface: GeometryPlan, probe: GeometryPlan,
                 ctx) -> OperatorPlan:
        key = (surface.key, probe.key, float(getattr(ctx, "wavenumber", ctx)))
        return self._lookup("operator", key,
                            lambda: OperatorPlan(surface, probe, ctx))

    def __len__(self):
        return sum(len(entries) for entries in self._entries.values())


# The pipeline's plans, shared by every run in the process.
PLANS = OperatorPlans()


@dataclass(frozen=True)
class _Scene:
    ctx: FrequencyContext
    surface: GeometryPlan
    probe: GeometryPlan
    src: DipoleSource


def _build_scene(cfg: ExperimentConfig, frequency: float) -> _Scene:
    ctx = FrequencyContext(frequency)
    with _stage("mesh"):
        probe_radius = cfg.surface_radius + cfg.probe_offset_meters(ctx)
        surface = PLANS.geometry(cfg.surface_radius, cfg.surface_edge)
        probe = PLANS.geometry(probe_radius, cfg.probe_edge_meters(ctx))
    if np.linalg.norm(cfg.dipole_position) >= cfg.surface_radius:
        raise StageError("config", "dipole must sit inside the surface")
    src = DipoleSource(cfg.dipole_position, cfg.dipole_moment, ctx)
    return _Scene(ctx, surface, probe, src)


def _solve_scene(cfg: ExperimentConfig, scene: _Scene):
    """Measurement sampling, system build and solve for one scene.

    Returns the solution and the operator plan that solved it, None for
    the baseline, which solves without one.
    """
    ctx, surface, probe = scene.ctx, scene.surface, scene.probe
    with _stage("assembly"):
        surface.check_clearance(probe)
        # Only the baseline reads the tested H.
        e, h = sample_measurement(
            scene.src, probe.bc, rotated=False,
            magnetic=cfg.formulation == "baseline-love")
    policy = cfg.policy()
    if cfg.formulation == "baseline-love":
        with _stage("solve"):
            # An explicit weight is checked before the static pass runs.
            if cfg.love_weight is not None:
                check_love_weight(cfg.love_weight)
            solution = solve_baseline_love(
                surface.rwg, surface.bc, probe.bc, ctx, e, h, policy,
                surface.static_coupling, love_weight=cfg.love_weight,
                near=surface.near)
        return solution, None
    with _stage("assembly"):
        plan = PLANS.operator(surface, probe, ctx)
    with _stage("solve"):
        if cfg.formulation == "sp-stabilized":
            solution = solve_stabilized(plan.stabilized, e, policy)
        else:
            solution = solve_sp(plan.system, e, policy)
        solution = recover_electric_current(plan.system, solution)
    return solution, plan


def run_reconstruction(cfg: ExperimentConfig) -> dict:
    """End-to-end pipeline; returns the artifact paths.

    Artifacts: recovered current coefficients (CSV), relative field
    error over evaluation distance (CSV), interior quiet-zone residual
    (JSON) and the solve report with unknown counts (JSON).
    """
    if cfg.frequency is None:
        raise StageError("config", "reconstruction needs a frequency")
    out = _out_dir(cfg)
    provenance = cfg.provenance()
    scene = _build_scene(cfg, cfg.frequency)
    solution, plan = _solve_scene(cfg, scene)
    rows = None if plan is None else plan.field_rows()
    rwg, bc = scene.surface.rwg, scene.surface.bc
    gamma, probe = scene.surface.mesh, scene.probe.mesh
    with _stage("evaluate"):
        tables = radiation_tables(solution, rwg, bc)
        # Configured radii are clearances above the surface; the curve
        # evaluator wants origin-centered sphere radii in wavelengths.
        shift = cfg.surface_radius / scene.ctx.wavelength
        curve = error_curve(solution, scene.src, rwg, bc,
                            [shift + r for r in cfg.curve_radii],
                            n_points=cfg.curve_points, rows=rows,
                            tables=tables)
        interior = (0.25 * cfg.surface_radius) * fibonacci_directions(50)
        residual, residual_without_j = check_love_condition(
            solution, rwg, bc, interior, rows=rows, tables=tables)
    with _stage("write"):
        paths = {
            "currents": out / "currents.csv",
            "error_curve": out / "error_curve.csv",
            "love_residual": out / "love_residual.json",
            "solve_report": out / "solve_report.json",
        }
        save_solution(solution, paths["currents"], extra=provenance)
        save_error_curve(curve, paths["error_curve"], extra=provenance)
        with open(paths["love_residual"], "w") as handle:
            json.dump({
                "residual": residual,
                "residual_without_j": residual_without_j,
                "interior_points": len(interior),
                **provenance,
            }, handle, indent=2)
        report = solution.report
        with open(paths["solve_report"], "w") as handle:
            json.dump({
                "formulation": cfg.formulation,
                "frequency": cfg.frequency,
                "wavenumber": solution.wavenumber,
                "edges": gamma.n_edges,
                "unknowns": (2 * gamma.n_edges
                             if cfg.formulation == "baseline-love"
                             else gamma.n_edges),
                "tests": probe.n_edges,
                "sigma_max": report.sigma_max,
                "sigma_cut": report.sigma_cut,
                "rank": report.rank,
                "condition": report.condition,
                "residual": report.residual,
                **provenance,
            }, handle, indent=2)
    return {name: str(path) for name, path in paths.items()}


def run_frequency_sweep(cfg: ExperimentConfig) -> str:
    """Truncation-level condition numbers across a frequency sweep.

    Per frequency the CSV reports two numbers.  The stabilized column
    is the condition of the scaled system built on the cleaned
    interior block.  The raw column is the condition of the plain
    discretization, whose coupling is half the rotated Gram of the
    mesh plus the double layer, with no static decoupling correction
    and no scaling maps, which is what a direct pseudo-inversion of
    the formulation would face.

    The geometry is held fixed in meters, so the config must give the
    probe placement metrically.  A failure at a single frequency is
    logged and written as a NaN row whose last column, ``error``, names
    the exception; the sweep continues.  Rows that succeed leave
    ``error`` empty.  Surfaces too close for the radiation pass fail
    every frequency alike, so that is checked once, before any pass,
    and raises a ``StageError`` tagged ``assembly`` instead.
    """
    if cfg.sweep is None or len(cfg.sweep) < 3:
        raise StageError("config", "sweep length must be at least 3")
    if cfg.probe_offset_unit != "m" or cfg.probe_edge_unit != "m":
        raise StageError(
            "config", "sweep runs need metric probe geometry "
            "(probe_offset_m, probe_edge_m)")
    out = _out_dir(cfg)
    scene = _build_scene(cfg, cfg.sweep[-1])
    surface = scene.surface
    with _stage("assembly"):
        surface.check_clearance(scene.probe)
    policy = cfg.policy()
    half_gram = 0.5 * gram_matrix(surface.rwg, surface.bc,
                                  rotated=True).toarray()
    rows = []
    for frequency in cfg.sweep:
        try:
            ctx = FrequencyContext(frequency)
            plan = PLANS.operator(surface, scene.probe, ctx)
            system = plan.system
            # The self pass already assembled the dynamic double layer.
            plain = SPSystem(
                ctx.wavenumber, system.field_double, system.field_efie,
                system.trace_efie,
                interior_coupling(system.trace_double, half_gram))
            kappa_raw = condition_at_threshold(plain.dense(), policy)
            kappa_scaled = condition_at_threshold(plan.stabilized.matrix(),
                                                  policy)
            rows.append((frequency, kappa_scaled, kappa_raw, ""))
        except Exception as err:
            log.warning("sweep point %.6g Hz failed: %s", frequency, err)
            rows.append((frequency, float("nan"), float("nan"),
                         f"{type(err).__name__}: {err}"))
    path = out / "condition_sweep.csv"
    with _stage("write"):
        with open(path, "w", newline="") as handle:
            handle.write("# " + json.dumps(cfg.provenance()) + "\n")
            writer = csv.writer(handle)
            writer.writerow(
                ["frequency_hz", "kappa_stabilized", "kappa_raw", "error"])
            for frequency, kappa_scaled, kappa_raw, error in rows:
                writer.writerow([repr(float(frequency)),
                                 repr(float(kappa_scaled)),
                                 repr(float(kappa_raw)), error])
    return str(path)


def dump_operator(cfg: ExperimentConfig, kind: str) -> str:
    """Write one assembled operator as a Matrix Market file."""
    if kind not in OPERATOR_KINDS:
        raise StageError(
            "config", "operator kind must be one of "
            + ", ".join(OPERATOR_KINDS))
    if cfg.frequency is None:
        raise StageError("config", "operator dump needs a frequency")
    out = _out_dir(cfg)
    scene = _build_scene(cfg, cfg.frequency)
    surface = scene.surface
    with _stage("assembly"):
        if kind == "gram":
            matrix = gram_matrix(surface.rwg, surface.bc,
                                 rotated=True).toarray()
        elif kind == "coupling":
            matrix = surface.coupling(scene.ctx)
        else:
            plan = PLANS.operator(surface, scene.probe, scene.ctx)
            matrix = (plan.stabilized.matrix() if kind == "stabilized"
                      else plan.system.dense())
    path = out / f"operator_{kind}.mtx"
    with _stage("write"):
        scipy.io.mmwrite(path, matrix,
                         comment=json.dumps(cfg.provenance()))
    return str(path)


def _check(name, metric, bound, larger_is_better=False, detail=None):
    passed = metric >= bound if larger_is_better else metric <= bound
    entry = {"name": name, "passed": bool(passed), "metric": float(metric),
             "bound": float(bound)}
    if detail:
        entry["detail"] = detail
    return entry


def _suite_solenoidal():
    """Circulation inputs and tests must not see the charge kernel."""
    worst = 0.0
    for mesh in (_octahedron(),
                 generate_sphere_mesh(0.04, 0.0095)):
        rwg = basis_pair(mesh)[0]
        loops = build_loop_star(mesh)[0].toarray()
        # Looked up on its module, so wrappers installed there count it.
        hyper = operators.assemble_blocks(
            rwg, [(rwg, ("hyper",))], 66.2287)[0]["hyper"]
        scale = np.linalg.norm(hyper)
        worst = max(worst,
                    np.linalg.norm(hyper @ loops) / scale,
                    np.linalg.norm(loops.T @ hyper) / scale)
    return _check("solenoidal-cancellation", worst, 1e-10)


def _suite_projector_algebra():
    """Idempotency, complementarity and mutual annihilation."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for mesh in (_octahedron(),
                 generate_sphere_mesh(1.0, 0.55)):
        ps = build_projectors(*build_loop_star(mesh))
        x = (rng.standard_normal(mesh.n_edges)
             + 1j * rng.standard_normal(mesh.n_edges))
        scale = np.abs(x).max()
        stars, loops = ps.onto_stars(x), ps.onto_loops(x)
        defects = [
            np.abs(ps.onto_stars(stars) - stars).max(),
            np.abs(ps.onto_loops(loops) - loops).max(),
            np.abs(stars + ps.star_complement(x) - x).max(),
            np.abs(loops + ps.loop_complement(x) - x).max(),
            np.abs(ps.onto_loops(stars)).max(),
            np.abs(ps.onto_stars(loops)).max(),
        ]
        worst = max(worst, max(defects) / scale)
    return _check("projector-algebra", worst, 1e-12)


def _suite_scaling_roundtrip():
    """Scaling maps must invert through the full dynamic range."""
    rng = np.random.default_rng(1)
    mesh = generate_sphere_mesh(1.0, 0.55)
    ps = build_projectors(*build_loop_star(mesh))
    x = (rng.standard_normal(mesh.n_edges)
         + 1j * rng.standard_normal(mesh.n_edges)).astype(np.clongdouble)
    worst = 0.0
    for k in (1e-6, 1.0, 66.2):
        for scaled_range in ("stars", "loops"):
            scaling = ScalingMap(ps, k, scaled_range)
            forth = np.abs(scaling.apply_inverse(scaling.apply(x)) - x).max()
            back = np.abs(scaling.apply(scaling.apply_inverse(x)) - x).max()
            worst = max(worst, float(max(forth, back) / np.abs(x).max()))
    return _check("scaling-roundtrip", worst, 1e-12)


def _suite_limit_property():
    """Loop-to-star coupling of the inner solve must vanish with k."""
    plan = PLANS.geometry(1.0, 0.55)
    # From k = 1e-5: at 1e-6 the norm sits at the rounding floor, so a
    # slope through it would measure rounding, not the limit.
    wavenumbers = np.logspace(-5.0, 0.0, 6)
    inner_by_k = {k: plan.coupling(k) for k in wavenumbers}
    rows = verify_limit_property(plan.projectors, plan.projectors,
                                 inner_by_k)
    norms = np.array([norm for _, norm in rows])
    monotone = bool(np.all(np.diff(norms) > 0.0))
    slope = float(np.polyfit(np.log10(wavenumbers), np.log10(norms), 1)[0])
    detail = {"wavenumbers": [k for k, _ in rows],
              "norms": [norm for _, norm in rows],
              "monotone": monotone}
    entry = _check("limit-property", slope, 1.0, larger_is_better=True,
                   detail=detail)
    entry["passed"] = entry["passed"] and monotone
    return entry


def _suite_dipole_oracle():
    """Reference fields must satisfy the curl equations and impedance."""
    ctx = FrequencyContext(3.16e9)
    k = ctx.wavenumber
    src = DipoleSource(np.zeros(3),
                       np.array([0.3 + 0.1j, -0.2j, 1.0]) * 1e-3, ctx)
    pts = (5.0 / k) * fibonacci_directions(8)
    step = 1e-4 * ctx.wavelength
    curl_e = np.zeros((len(pts), 3), dtype=complex)
    curl_h = np.zeros((len(pts), 3), dtype=complex)
    for axis, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        offset = np.zeros(3)
        offset[axis] = step
        de = [(field_arrays(src, pts + offset)[n]
               - field_arrays(src, pts - offset)[n]) / (2.0 * step)
              for n in (0, 1)]
        for out, dfa in zip((curl_e, curl_h), de):
            out[:, i] -= dfa[:, j]
            out[:, j] += dfa[:, i]
    e, h = field_arrays(src, pts)
    target_e = 1j * k * ETA0 * h
    target_h = -1j * k / ETA0 * e
    maxwell = max(
        np.linalg.norm(curl_e - target_e) / np.linalg.norm(target_e),
        np.linalg.norm(curl_h - target_h) / np.linalg.norm(target_h))
    far = (1e4 / k) * fibonacci_directions(8)
    e_far, h_far = field_arrays(src, far)
    normals = far / np.linalg.norm(far, axis=1)[:, None]
    e_tan = e_far - normals * np.sum(e_far * normals, axis=1)[:, None]
    h_tan = h_far - normals * np.sum(h_far * normals, axis=1)[:, None]
    ratios = (np.linalg.norm(e_tan, axis=1)
              / np.linalg.norm(h_tan, axis=1)) / ETA0
    impedance = float(np.abs(ratios - 1.0).max())
    entry = _check("dipole-maxwell", float(maxwell), 1e-6,
                   detail={"impedance_defect": impedance})
    entry["passed"] = entry["passed"] and impedance <= 1e-3
    return entry


def _suite_interior_identity():
    """Recovered pairs must be annihilated; random stacks must not."""
    cfg = ExperimentConfig(surface_edge=0.02, probe_edge=0.055,
                           probe_edge_unit="m", formulation="sp")
    scene = _build_scene(cfg, cfg.frequency)
    solution, plan = _solve_scene(cfg, scene)
    rwg, bc = scene.surface.rwg, scene.surface.bc
    identity_map = assemble_calderon_interior(
        rwg, bc, plan.system.coupling,
        calderon_blocks(rwg, bc, scene.ctx, near=scene.surface.near))
    stack = np.concatenate([-solution.m, solution.j])
    recovered = float(np.linalg.norm(identity_map @ stack)
                      / np.linalg.norm(stack))
    rng = np.random.default_rng(2)
    noise = (rng.standard_normal(len(stack))
             + 1j * rng.standard_normal(len(stack)))
    random_level = float(np.linalg.norm(identity_map @ noise)
                         / np.linalg.norm(noise))
    entry = _check("interior-identity", recovered, 5e-2,
                   detail={"random_stack": random_level})
    entry["passed"] = entry["passed"] and random_level >= 0.5
    return entry


# Largest rotation defect of each kind's self-pass block, over its
# largest entry: the near rules are not rotation-invariant, and the
# touching-pair double layer holds about two digits.
_DEFECT_BOUNDS = {"single": 1e-5, "hyper": 1e-5, "double": 5e-2}


def _suite_rotation_defect():
    """Self-pass blocks must be signed permutations of themselves.

    Every rotation that keeps the mesh and its near pairs maps each
    block onto itself, up to signs, in exact arithmetic; the defect
    max_g max_ij ||B[g i, g j]| - |B[i, j]|| measures the near rules'
    departure from that on the 120-edge, r = 0.04 m surface at 2 GHz.
    Fewer than 60 rotations fails too: the far tiles would then run
    on more orbits than the generated spheres have.
    """
    plan = PLANS.geometry(0.04, 0.02)
    blocks = operators.assemble_blocks(
        plan.rwg, [(plan.rwg, ("single", "hyper")), (plan.bc, ("double",))],
        FrequencyContext(2e9).wavenumber, near=plan.near)
    rot = plan.mesh.rotations
    perms = rot.perm[np.isin(rot.ids, plan.near.rotations)]
    defects = {}
    for kind, block in {**blocks[0], **blocks[1]}.items():
        size = np.abs(block)
        defects[kind] = max(
            float(np.abs(size[np.ix_(perm, perm)] - size).max())
            for perm in perms) / float(size.max())
    worst = max(defects[kind] / bound
                for kind, bound in _DEFECT_BOUNDS.items())
    entry = _check("rotation-defect", worst, 1.0,
                   detail={"order": len(perms), "defects": defects,
                           "bounds": _DEFECT_BOUNDS})
    entry["passed"] = entry["passed"] and len(perms) >= 60
    return entry


_PROPERTY_CHECKS = (
    ("solenoidal-cancellation", _suite_solenoidal),
    ("projector-algebra", _suite_projector_algebra),
    ("scaling-roundtrip", _suite_scaling_roundtrip),
    ("limit-property", _suite_limit_property),
    ("dipole-maxwell", _suite_dipole_oracle),
    ("interior-identity", _suite_interior_identity),
    ("rotation-defect", _suite_rotation_defect),
)


def run_property_suite(cfg: ExperimentConfig, names=None) -> dict:
    """Structural invariant battery; writes a JSON pass/fail ledger.

    ``names`` restricts the run to a subset of checks.  The ledger
    carries every metric plus the low-frequency decay table, and
    ``all_passed`` summarizes the verdict.
    """
    selected = _PROPERTY_CHECKS
    if names is not None:
        known = {name for name, _ in _PROPERTY_CHECKS}
        bogus = set(names) - known
        if bogus:
            raise StageError(
                "config", f"unknown checks: {', '.join(sorted(bogus))}")
        selected = [(name, fn) for name, fn in _PROPERTY_CHECKS
                    if name in set(names)]
    checks = []
    for name, fn in selected:
        try:
            checks.append(fn())
        except Exception as err:
            checks.append({"name": name, "passed": False,
                           "error": f"{type(err).__name__}: {err}"})
    ledger = {
        "all_passed": all(entry["passed"] for entry in checks),
        "checks": checks,
        **cfg.provenance(),
    }
    out = _out_dir(cfg)
    with _stage("write"):
        with open(out / "property_ledger.json", "w") as handle:
            json.dump(ledger, handle, indent=2)
        for entry in checks:
            if entry["name"] == "limit-property" and "detail" in entry:
                save_norm_table(
                    list(zip(entry["detail"]["wavenumbers"],
                             entry["detail"]["norms"])),
                    out / "limit_property.csv")
    ledger["path"] = str(out / "property_ledger.json")
    return ledger
