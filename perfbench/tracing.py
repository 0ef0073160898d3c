"""Call-site spans around the pipeline's module boundaries.

``experiments`` and ``formulations`` bind their collaborators with
``from ... import``, so a wrapper must replace the name in the module
that calls it, not in the module that defines it.  Each boundary below
names the metric its spans feed and every namespace it is installed
in.  Spans stay in memory, tagged with request id and parent span id,
until the run writes them out.

A span's self time is its duration minus the durations of its direct
children; calls are nested on one thread, so children never overlap.
The request span is the root: its self time is the request time no
boundary covers, reported as ``experiments.unattributed.s``.  Summing
self time over every span of a request therefore gives back the
request's wall time exactly.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

REQUEST = "experiments.request"

# (metric, attribute, modules that call it by that name).  A class
# method is named "Class.method" and patched on its class.
BOUNDARIES = (
    ("operators.assemble_blocks", "assemble_blocks",
     ("operators", "formulations")),
    ("quadrature.static_moments", "static_moments", ("operators",)),
    ("formulations.build_sp_system", "build_sp_system", ("experiments",)),
    ("formulations.interior_coupling", "interior_coupling",
     ("formulations",)),
    ("formulations.solve", "solve_sp", ("experiments",)),
    ("formulations.solve", "solve_stabilized", ("experiments",)),
    ("formulations.solve", "solve_baseline_love", ("experiments",)),
    ("formulations.recover_electric_current", "recover_electric_current",
     ("experiments",)),
    ("formulations.assemble_calderon_interior", "assemble_calderon_interior",
     ("formulations",)),
    ("tsvd.svd", "tsvd_solve", ("formulations",)),
    ("fields.radiate_arrays", "radiate_arrays", ("fields",)),
    ("fields.error_curve", "error_curve", ("experiments",)),
    ("fields.check_love_condition", "check_love_condition",
     ("experiments",)),
    ("dipole.sample_measurement", "sample_measurement", ("experiments",)),
    ("mesh.generate_sphere_mesh", "generate_sphere_mesh", ("experiments",)),
    ("spaces.basis_pair", "basis_pair", ("experiments",)),
    ("spaces.gram_matrix", "gram_matrix", ("formulations", "operators")),
    ("spaces.build_loop_star", "build_loop_star",
     ("experiments", "formulations")),
    ("projectors.build_projectors", "build_projectors",
     ("experiments", "formulations")),
    ("projectors.build_scaling", "build_scaling", ("experiments",)),
    ("projectors.scaling_apply", "ScalingMap.apply", ("projectors",)),
    ("experiments.write", "save_solution", ("experiments",)),
    ("experiments.write", "save_error_curve", ("experiments",)),
)

# Call counts worth a metric of their own; every boundary gets a time.
CALL_COUNTS = ("operators.assemble_blocks", "quadrature.static_moments",
               "formulations.interior_coupling", "tsvd.svd")
# Computed counters: sizes of the inputs, not measurements.
COUNTERS = ("operators.face_pairs", "tsvd.svd_cells", "fields.points")


class MissingBoundary(RuntimeError):
    """A wrapped name is gone from the module that should bind it."""


@dataclass
class Span:
    request: int
    span: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _count(name, args, kwargs, result):
    """Work counters for one call, computed from argument sizes."""
    if name == "operators.assemble_blocks":
        test, requests = args[0], args[1]
        return {"operators.face_pairs":
                test.fine.n_faces * requests[0][0].fine.n_faces}
    if name == "tsvd.svd":
        rows, cols = args[0].shape
        return {"tsvd.svd_cells": rows * cols, "tsvd.rank": result[1].rank,
                "tsvd.rank_max": min(rows, cols)}
    if name == "fields.radiate_arrays":
        from lovebem.quadrature import triangle_rule
        points = len(args[3])
        degree = args[4] if len(args) > 4 else kwargs.get("degree", 4)
        quad = args[1].fine.n_faces * triangle_rule(degree).n_points
        return {"fields.points": points, "fields.point_quad": points * quad}
    return {}


class Tracer:
    """Installs call-site wrappers and records spans per request."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._installed: list[tuple] = []
        self.request = -1

    def _wrap(self, name, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1].span if self._stack else None
            span = Span(self.request, len(self.spans), parent, name,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _count(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every boundary; fail naming the first one that is gone."""
        for name, attr, users in BOUNDARIES:
            owner, _, attr_name = attr.rpartition(".")
            for user in users:
                target = importlib.import_module(f"lovebem.{user}")
                if owner:
                    target = getattr(target, owner, None)
                original = getattr(target, attr_name, None)
                if original is None or not callable(original):
                    self.uninstall()
                    raise MissingBoundary(
                        f"boundary {name}: lovebem.{user} no longer binds "
                        f"{attr}")
                self._installed.append((target, attr_name, original))
                setattr(target, attr_name, self._wrap(name, original))

    def uninstall(self):
        while self._installed:
            target, attr_name, original = self._installed.pop()
            setattr(target, attr_name, original)

    def wrap_request(self, request_id, fn):
        """``fn`` as the root span of request ``request_id``."""
        self.request = request_id
        return self._wrap(REQUEST, fn)

    def write(self, path):
        with open(path, "w") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)


def totals(spans):
    """Self seconds, inclusive seconds, calls and counters by name."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    sums = defaultdict(float)
    for span in spans:
        duration = span.end - span.start
        sums[span.name + ".s"] += duration - child_time[span.span]
        sums[span.name + ".total_s"] += duration
        sums[span.name + ".calls"] += 1
        for key, value in span.counts.items():
            sums[key] += value
    return sums


def metric_names():
    """Every per-layer metric ``layer_metrics`` reports, with units."""
    names = {f"{name}.s": "s" for name, *_ in BOUNDARIES}
    names["experiments.unattributed.s"] = "s"
    names["experiments.request.s"] = "s"
    names.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    names.update({name: "count" for name in COUNTERS})
    names["operators.face_pairs_per_s"] = "1/s"
    names["fields.point_quad_per_s"] = "1/s"
    names["tsvd.rank_ratio"] = "ratio"
    names["trace.overhead_s"] = "s"
    return names


def layer_metrics(spans):
    """Per-layer metrics averaged over the traced requests.

    Seconds, calls and counters are per request.  Rates divide computed
    work by the inclusive time of the boundary that did it.  A layer a
    request never reaches reads zero.
    """
    sums = totals(spans)
    n = max(sums[f"{REQUEST}.calls"], 1)
    out = {f"{name}.s": sums[f"{name}.s"] / n for name, *_ in BOUNDARIES}
    out["experiments.unattributed.s"] = sums[f"{REQUEST}.s"] / n
    out["experiments.request.s"] = sums[f"{REQUEST}.total_s"] / n
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = sums[f"{name}.calls"] / n
    for name in COUNTERS:
        out[name] = sums[name] / n
    out["operators.face_pairs_per_s"] = _ratio(
        sums["operators.face_pairs"], sums["operators.assemble_blocks.total_s"])
    out["fields.point_quad_per_s"] = _ratio(
        sums["fields.point_quad"], sums["fields.radiate_arrays.total_s"])
    out["tsvd.rank_ratio"] = _ratio(sums["tsvd.rank"], sums["tsvd.rank_max"])
    return out


def _ratio(part, whole):
    return part / whole if whole > 0 else 0.0
