"""The benchmark's traced run must still find every boundary it wraps.

Tier-1 does not collect ``perfbench/``, so this test installs its
tracer here: a refactor that drops a name the tracer wraps fails with
``MissingBoundary`` instead of surfacing only in a traced benchmark
run.
"""
from pathlib import Path

import numpy as np

from lovebem import experiments, fields, formulations, operators
from lovebem.experiments import ExperimentConfig, OperatorPlans
from lovebem.formulations import CurrentSolution
from lovebem.mesh import generate_sphere_mesh
from lovebem.operators import FrequencyContext
from lovebem.spaces import basis_pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = operators.assemble_blocks
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert operators.assemble_blocks is not original
        assert formulations.assemble_blocks is not original
    finally:
        tracer.uninstall()
    assert operators.assemble_blocks is original
    assert formulations.assemble_blocks is original


def test_traced_radiation_with_a_store(monkeypatch):
    # The tracer reads radiate_arrays' points and degree by position, so
    # the row store, passed by keyword, must not shift either.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rwg, bc = basis_pair(generate_sphere_mesh(0.04, 0.02))
    rng = np.random.default_rng(0)
    solution = CurrentSolution(
        m=rng.standard_normal(rwg.n_dofs), j=rng.standard_normal(bc.n_dofs),
        wavenumber=FrequencyContext(3.16e9).wavenumber,
        formulation="sp", report=None)
    points = 0.2 * fields.fibonacci_directions(37)
    rows = fields.KernelRows(2**30)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # A miss that keeps the rows, then two hits.
        for _ in range(3):
            fields.radiate_arrays(solution, rwg, bc, points, rows=rows)
    finally:
        tracer.uninstall()
    sums = tracing.totals(tracer.spans)
    assert sums["fields.radiate_arrays.calls"] == 3
    assert sums["fields.points"] == 3 * len(points)
    assert sums["fields.point_quad"] == (
        3 * len(points) * rwg.fine.quadrature(4)[1].size)


def test_traced_warm_requests_on_the_repeat_fixture(monkeypatch, tmp_path):
    # The tables a request builds once reach error_curve by keyword, so
    # the tracer still reads the curve's points and one measurement.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    monkeypatch.setattr(experiments, "PLANS", OperatorPlans())
    rng = np.random.default_rng(0)
    configs = [ExperimentConfig.from_dict(
        {**workloads.recon_repeat(rng, i), "output_dir": str(tmp_path)})
        for i in range(3)]
    experiments.run_reconstruction(configs[0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # The first warm request keeps the field rows, the second hits.
        for i, cfg in enumerate(configs[1:]):
            tracer.wrap_request(i, experiments.run_reconstruction)(cfg)
    finally:
        tracer.uninstall()
    sums = tracing.totals(tracer.spans)
    requests = sums[f"{tracing.REQUEST}.calls"]
    assert requests == 2
    # Six curve spheres of one 60-point orbit each.
    assert sums["fields.points"] == 360 * requests
    assert sums["fields.radiate_arrays.calls"] == requests
    assert sums["dipole.sample_measurement.calls"] == requests
    assert sums["operators.assemble_blocks.calls"] == 0
