"""Seeded request streams and output checks for the benchmark workloads.

Every request is a plain config dict in the form
``ExperimentConfig.from_dict`` accepts, so a run's generated inputs can
be written next to its results and replayed through the public
pipeline.  The pipeline itself only ever sees these generated configs.

Both workloads keep the reconstruction sizes of the default recipe: a
120-edge equivalent sphere (surface_edge 0.02 m) and a 480-edge probe
sphere, so 120 unknowns and 480 tests.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Seeded dipoles up to 0.6 r reach about 1.5e-2 field error and 5e-3
# interior leak; a broken quadrature lands far above these bounds.
FIELD_ERR_BOUND = 5e-2
LOVE_RESIDUAL_BOUND = 5e-2
THRESHOLD = 1e-6
# A truncation-level condition number never exceeds 1 / threshold.
KAPPA_BOUND = (1.0 + 1e-9) / THRESHOLD

_FIXTURE = {"surface_radius": 0.04, "surface_edge": 0.02,
            "probe_offset_lambda": 1.0, "probe_edge_m": 0.055}
_METRIC_GEOMETRY = {"surface_edge": 0.02, "probe_offset_m": 0.07,
                    "probe_edge_m": 0.03}
_MIXED_FORMULATIONS = ("sp", "sp-stabilized", "baseline-love")
# The default recipe's dipole, used by the reference requests.
_REFERENCE_DIPOLE = {"position": [0.007, 0.004, -0.005],
                     "moment": [[0.2e-3, 0.1e-3], [-0.3e-3, 0.0],
                                [1.0e-3, 0.0]]}


@dataclass
class Outcome:
    """Checked result of one reconstruction request."""

    failed: bool = False
    field_err: float | None = None
    love_residual: float | None = None
    kappa: float | None = None
    errors: list = field(default_factory=list)


def _dipole(rng, radius):
    """Seeded dipole within 0.6 r, with a complex moment."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    position = 0.6 * radius * rng.uniform() ** (1.0 / 3.0) * direction
    moment = 1e-3 * rng.standard_normal((3, 2))
    return {"position": [float(v) for v in position],
            "moment": [[float(re), float(im)] for re, im in moment]}


def recon_repeat(rng, index):
    """One fixture, fresh dipole: only the measured data changes."""
    return {
        "geometry": _FIXTURE,
        "frequency": 3.16e9,
        "dipole": _dipole(rng, _FIXTURE["surface_radius"]),
        "threshold": THRESHOLD,
        "formulation": "sp-stabilized",
        "curve_points": 64,
    }


def recon_mixed(rng, index):
    """Fresh frequency, radius and dipole, formulations in rotation."""
    radius = float(rng.uniform(0.035, 0.045))
    frequency = math.exp(rng.uniform(math.log(1e9), math.log(3.16e9)))
    return {
        "geometry": {"surface_radius": radius, **_METRIC_GEOMETRY},
        "frequency": frequency,
        "dipole": _dipole(rng, radius),
        "threshold": THRESHOLD,
        "formulation": _MIXED_FORMULATIONS[index % len(_MIXED_FORMULATIONS)],
        "curve_points": 1000,
    }


GENERATORS = {"recon-repeat": recon_repeat, "recon-mixed": recon_mixed}

# Requests a run sends as one unit.  recon-mixed sends whole rotations,
# so every run measures the same formulation mix and its median means
# the same thing across seeds.
ROUND = {"recon-repeat": 1, "recon-mixed": len(_MIXED_FORMULATIONS)}

# Fixed-input request per workload, sent untimed before the timed loop.
# It warms the process up, and its accuracy figures compare the same
# inputs across seeds.
REFERENCES = {
    "recon-repeat": {
        "geometry": _FIXTURE,
        "frequency": 3.16e9,
        "dipole": _REFERENCE_DIPOLE,
        "threshold": THRESHOLD,
        "formulation": "sp-stabilized",
        "curve_points": 64,
    },
    "recon-mixed": {
        "geometry": {"surface_radius": 0.04, **_METRIC_GEOMETRY},
        "frequency": 2e9,
        "dipole": _REFERENCE_DIPOLE,
        "threshold": THRESHOLD,
        "formulation": "sp",
        "curve_points": 1000,
    },
}


def generate(workload, seed, count):
    """The first ``count`` requests of a workload's seeded stream."""
    rng = np.random.default_rng(seed)
    make = GENERATORS[workload]
    return [make(rng, index) for index in range(count)]


def _data_rows(path):
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def check_reconstruction(paths) -> Outcome:
    """Finite artifacts, field error and interior leak under the bounds."""
    out = Outcome()
    currents = [float(v) for row in _data_rows(paths["currents"])
                for v in row[1:]]
    if not currents or not all(map(math.isfinite, currents)):
        out.errors.append("currents are missing or not finite")
    errors = [float(row[1]) for row in _data_rows(paths["error_curve"])]
    if not errors or not all(map(math.isfinite, errors)):
        out.errors.append("error curve is missing or not finite")
    else:
        out.field_err = max(errors)
        if out.field_err > FIELD_ERR_BOUND:
            out.errors.append(
                f"field error {out.field_err:.3g} above {FIELD_ERR_BOUND}")
    with open(paths["love_residual"]) as handle:
        out.love_residual = float(json.load(handle)["residual"])
    if not out.love_residual <= LOVE_RESIDUAL_BOUND:
        out.errors.append(f"Love residual {out.love_residual:.3g} above "
                          f"{LOVE_RESIDUAL_BOUND}")
    with open(paths["solve_report"]) as handle:
        report = json.load(handle)
    out.kappa = float(report["condition"])
    if not (1.0 <= out.kappa <= KAPPA_BOUND
            and math.isfinite(float(report["residual"]))):
        out.errors.append(f"solve report out of range: kappa {out.kappa:.3g}")
    out.failed = bool(out.errors)
    return out


def write_inputs(run_dir, configs):
    """Store the generated configs so the run can be replayed."""
    with open(run_dir / "inputs.json", "w") as handle:
        json.dump(configs, handle, indent=1)
