"""The benchmark's traced run must still find every boundary it wraps.

Tier-1 does not collect ``perfbench/``, so this test installs its
tracer here: a refactor that drops a name the tracer wraps fails with
``MissingBoundary`` instead of surfacing only in a traced benchmark
run.
"""
from pathlib import Path

from lovebem import formulations, operators

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
