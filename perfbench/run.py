"""Benchmark: seeded workloads through the public lovebem pipeline.

    python3 perfbench/run.py --workload recon-repeat --seed 1 \\
        --seconds 45 --trace 0

One process, one closed-loop client: the next request is sent only
after the previous one returns.  Requests go in rounds (one request;
on recon-mixed one rotation of its three formulations), and no round
starts that the mean latency so far says would end past ``--seconds``.  Before the timed
loop each run sends its workload's fixed reference request untimed: it
warms the process up and supplies the accuracy metrics.  Every
request's artifacts are checked; a check that fails counts against
``failed`` instead of stopping the run.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` wraps the module boundaries (see
tracing.py) and prints the per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is one JSON object.

Run from the repository root.  Inputs, per-request artifacts, the
result record and, when traced, the spans go to
``perfbench/.runs/<workload>-seed<seed>-trace<0|1>/``.
"""
from __future__ import annotations

import os

# Pin the linear-algebra pool before numpy loads, so every run uses the
# same recorded thread count.  Child processes inherit the setting.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUNS = BENCH / ".runs"
SETUP_SAMPLES = 3
# More requests than any run of at most 60 s can finish.
REQUEST_POOL = 32

END_TO_END = {
    "setup_s": "s",
    "latency_s_p50": "s",
    "latency_s_tail": "s",
    "requests_per_min": "1/min",
    "field_err_max": "ratio",
    "love_residual_max": "ratio",
    "kappa_max": "ratio",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(workload, seed, run_dir):
    """Everything before the first timed request: imports and inputs."""
    sys.path.insert(0, str(SRC))
    from lovebem import experiments

    configs = workloads.generate(workload, seed, REQUEST_POOL)
    run_dir.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(run_dir, configs)
    return experiments, configs


def time_setup(args):
    """Wall time of a fresh process that only runs ``prepare``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"threads": THREADS, "nproc": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it, so the
    tail is the slowest request (the 100th percentile).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def send(experiments, cfg, out_dir, wrap=None):
    """One reconstruction request; returns (latency, Outcome).

    ``wrap`` decorates the pipeline call, which is how a traced run
    opens the request's root span.
    """
    parsed = experiments.ExperimentConfig.from_dict(
        dict(cfg, output_dir=str(out_dir)))
    call = experiments.run_reconstruction
    if wrap is not None:
        call = wrap(call)
    start = time.perf_counter()
    try:
        paths = call(parsed)
    except Exception as err:  # the request counts as failed; the run goes on
        return time.perf_counter() - start, workloads.Outcome(
            failed=True, errors=[f"{type(err).__name__}: {err}"])
    latency = time.perf_counter() - start
    try:
        return latency, workloads.check_reconstruction(paths)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return latency, workloads.Outcome(
            failed=True, errors=[f"unreadable artifacts: {err}"])


def closed_loop(experiments, configs, run_dir, seconds, round_size,
                tracer=None):
    """Requests in order, in rounds of ``round_size``.

    No round starts that the mean latency so far says would end past
    ``seconds``; the first round always runs.
    """
    start = time.perf_counter()
    latencies, outcomes = [], []
    for index, cfg in enumerate(configs):
        wrap = (None if tracer is None
                else functools.partial(tracer.wrap_request, index))
        latency, outcome = send(experiments, cfg,
                                run_dir / f"req-{index:03d}", wrap)
        latencies.append(latency)
        outcomes.append(outcome)
        elapsed = time.perf_counter() - start
        if ((index + 1) % round_size == 0 and
                elapsed + round_size * statistics.fmean(latencies) > seconds):
            break
    return latencies, outcomes


def end_to_end(experiments, configs, run_dir, seconds, round_size,
               reference, setup):
    latencies, outcomes = closed_loop(experiments, configs, run_dir, seconds,
                                      round_size)
    p_tail, pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_s_p50": statistics.median(latencies),
        "latency_s_tail": p_tail,
        "requests_per_min": 60.0 * len(latencies) / sum(latencies),
        "field_err_max": reference.field_err,
        "love_residual_max": reference.love_residual,
        "kappa_max": reference.kappa,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"samples": len(latencies), "tail_percentile": pct,
             "setup_samples": setup, "latencies": latencies}
    return metrics, END_TO_END, outcomes, notes


def traced(experiments, configs, run_dir, seconds, round_size):
    from tracing import Tracer, layer_metrics, metric_names

    # The first request also runs untraced, so the tracing overhead is
    # measured on identical inputs in an already warm process.
    untraced, first = send(experiments, configs[0],
                           run_dir / "req-000-untraced")
    tracer = Tracer()
    tracer.install()
    try:
        latencies, outcomes = closed_loop(
            experiments, configs, run_dir, seconds, round_size, tracer)
    finally:
        tracer.uninstall()
    tracer.write(run_dir / "spans.json")
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = latencies[0] - untraced
    notes = {"samples": len(latencies), "latencies": latencies,
             "untraced_first": untraced}
    return metrics, metric_names(), [first] + outcomes, notes


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "lovebem").is_dir():
        print(f"perfbench: no lovebem sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_only:
        prepare(args.workload, args.seed, run_dir)
        return 0
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup = ([time_setup(args) for _ in range(SETUP_SAMPLES)]
             if not args.trace else [])
    experiments, configs = prepare(args.workload, args.seed, run_dir)
    _, reference = send(experiments, workloads.REFERENCES[args.workload],
                        run_dir / "reference")
    round_size = workloads.ROUND[args.workload]
    if args.trace:
        metrics, units, outcomes, notes = traced(
            experiments, configs, run_dir, args.seconds, round_size)
    else:
        metrics, units, outcomes, notes = end_to_end(
            experiments, configs, run_dir, args.seconds, round_size,
            reference, setup)
    checked = [reference] + outcomes
    attempted = len(checked)
    failed = sum(o.failed for o in checked)
    errors = [e for o in checked for e in o.errors]
    correct = failed == 0 and all(
        v is not None and math.isfinite(v) for v in metrics.values())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "correct": correct,
              "attempted": attempted, "failed": failed, "errors": errors,
              "metrics": metrics, **notes}
    with open(run_dir / "result.json", "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{notes['samples']} requests, one closed-loop client, "
          f"{THREADS} BLAS thread(s)")
    if not args.trace:
        print(f"#   latency_s_tail is p{notes['tail_percentile']:.0f}")
        print(f"  failed_frac {failed / attempted:.6g} ratio "
              f"({failed} of {attempted})")
    for error in errors:
        print(f"#   failed: {error}")
    for name, unit in units.items():
        print(f"  {name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
