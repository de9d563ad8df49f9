"""The repository's benchmark: one command, three workloads, exact latencies.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs untraced passes for half of ``--seconds``, installs the
span shims of ``perfbench/tracing.py``, runs traced passes for the other
half, and reports the per-layer metrics plus the tracing overhead
(traced minus untraced).  Spans are written to ``.perfbench/``.

Each run fits the pipeline a serving workload serves and computes its
offline reference (in a child process, not timed), sets the workload up
five times, runs a discarded warm-up, restarts the process's peak-memory
count, then repeats the workload's job until ``--seconds`` have passed (at
least twice), timing more set-ups after every pass.  ``setup_s`` is the
median of all set-ups.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 1 when any output check failed.  Lines before it
give every metric with its unit, the sample counts behind each
percentile, and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

# The BLAS thread count is held fixed at one, before NumPy loads: with
# more, concurrent tenants on a small machine make latencies unsteady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
# Set-up is timed this often before the passes, then again after every
# pass for at least SETUP_GAP_SECONDS, and the median is reported.  The
# speed of a shared machine drifts over seconds, so set-up samples are
# spread over the whole run like the passes are; a serving set-up takes
# tens of milliseconds, so it gets many samples per gap.
SETUP_REPEATS = 5
SETUP_GAP_SECONDS = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "test_score": "f1",
    "stream_events_per_s": "1/s",
    "ingest_events_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed, setup_times) -> None:
    """Stop what the last set-up started, then time a new one."""
    workload.discard()
    start = time.perf_counter()
    workload.setup(seed)
    setup_times.append(time.perf_counter() - start)


def set_up_between_passes(workload, seed, setup_times) -> None:
    """Time set-ups for ``SETUP_GAP_SECONDS`` (at least one), then stop
    the last one: each pass starts its own client."""
    start = time.perf_counter()
    while True:
        set_up(workload, seed, setup_times)
        if time.perf_counter() - start >= SETUP_GAP_SECONDS:
            break
    workload.discard()


def run_passes(workload, calls, seconds, minimum, on_pass) -> list:
    """Repeat the workload's job until ``seconds`` passed (≥ ``minimum``),
    calling ``on_pass(workload)`` after each pass."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(workload.run_pass(calls))
        on_pass(workload)
    return results


def end_to_end(stats, results, setup_times, calls, rss_mb):
    """The end-to-end metrics of a set of passes, and notes on their samples.

    Latencies are the benchmark's own per-call samples.  ``query_p50_ms``
    is each pass's median call, averaged over the passes: a training pass
    scores its held-out queries in one burst, so its median is one draw of
    a shared machine's speed, and a median over a few passes would flip
    between a fast and a slow value.  ``query_p90_ms`` pools every pass's
    calls so that it has enough samples above it.  p99 is printed with its
    sample count but not gated: under the CPU contention of a shared
    two-core machine it spread 0.25-0.39 (inter-quartile over median)
    across ten runs of serve-bulk and serve-fleet.
    """
    pooled = [sample for result in results for sample in result.latencies_ms]
    p50s = [stats.percentile(r.latencies_ms, 50.0) for r in results]
    p90, p99 = (stats.percentile(pooled, q) for q in (90.0, 99.0))
    values = {
        "setup_s": stats.median(setup_times),
        "job_s": stats.median([r.job_s for r in results]),
        "test_score": stats.median([r.test_score for r in results]),
        "stream_events_per_s": stats.median(
            [(r.edges + r.queries) / r.job_s for r in results]
        ),
        "ingest_events_per_s": stats.median(
            [r.edges / r.ingest_s if r.ingest_s else 0.0 for r in results]
        ),
        "query_p50_ms": stats.finite(sum(p.value for p in p50s) / len(p50s)),
        "query_p90_ms": stats.finite(p90.value),
        "success_ratio": calls.success_ratio,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "job_s": f"median of {len(results)} passes",
        "query_p50_ms": f"mean over {len(results)} passes of "
        f"{min(p.samples for p in p50s)}-{max(p.samples for p in p50s)} calls each",
        "query_p90_ms": f"{p90.samples} calls, {p90.tail} slower; "
        f"p99 {stats.finite(p99.value):.6g} ms with {p99.tail} slower",
        "peak_rss_mb": "this process's peak after set-up and reference, "
        "plus each fleet shard's private memory",
    }
    return values, notes


def provenance(args, workload_name: str) -> dict:
    import numpy as np

    from repro import obs
    from repro.nn.tensor import get_default_dtype

    return {
        "workload": workload_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dtype": str(get_default_dtype()),
        "obs_mode": obs.current_mode(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import logging

    import stats
    import tracing
    import workloads
    from repro import obs

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    logging.getLogger("repro").setLevel(logging.WARNING)
    obs.configure("off")  # timed runs never pay for the program's telemetry
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.make_workload(args.workload, workdir)
    calls = stats.CallLog()
    tracer = tracing.Tracer()
    try:
        workload.train(args.seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            set_up(workload, args.seed, setup_times)
        workload.prepare()
        workloads.reset_peak_rss()

        def between(done_workload):
            set_up_between_passes(done_workload, args.seed, setup_times)

        if not args.trace:
            results = run_passes(
                workload, calls, args.seconds, workload.min_passes, between
            )
            rss = workloads.peak_rss_mb() + workload.extra_rss_mb
            metrics, notes = end_to_end(stats, results, setup_times, calls, rss)
            units = END_TO_END_UNITS
        else:
            plain = run_passes(workload, calls, args.seconds / 2, 1, between)
            rss = workloads.peak_rss_mb() + workload.extra_rss_mb
            plain_metrics, _ = end_to_end(stats, plain, setup_times, calls, rss)

            def count_pass(traced_workload):
                for name, value in traced_workload.pass_counters().items():
                    tracer.counters[name] += value
                between(traced_workload)

            tracing.install_shims(tracer)
            try:
                traced = run_passes(
                    workload, calls, args.seconds / 2, 1, on_pass=count_pass
                )
            finally:
                tracer.uninstall()
            results = plain + traced
            rss = workloads.peak_rss_mb() + workload.extra_rss_mb
            traced_metrics, _ = end_to_end(stats, traced, setup_times, calls, rss)
            counters = tracer.counters
            counters["fleet.shard_skew"] = workload.shard_skew()
            counters["trace.job_overhead_s"] = (
                traced_metrics["job_s"] - plain_metrics["job_s"]
            )
            counters["trace.query_p50_overhead_ms"] = (
                traced_metrics["query_p50_ms"] - plain_metrics["query_p50_ms"]
            )
            metrics = tracing.layer_metrics(tracer, len(traced))
            units = tracing.LAYER_UNITS
            notes = {}
            print("untraced:", json.dumps(plain_metrics))
            print("traced:  ", json.dumps(traced_metrics))
            print(f"{'span':<26}{'calls':>9}{'incl_s':>11}{'self_s':>11}")
            for name, count, inclusive, own in tracing.self_time_table(tracer):
                print(f"{name:<26}{count:>9}{inclusive:>11.4f}{own:>11.4f}")
            tracer.write(
                os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            )
    finally:
        workload.close()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(workload.problems)
    if len({r.test_score for r in results}) != 1:
        problems.append("test_score differs between passes at one seed")
    correct = not problems and calls.failed == 0
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    shape = workload.describe(results)
    if shape:
        print("calls:", shape)
    print("provenance:", json.dumps(provenance(args, args.workload)))
    for problem in problems + calls.errors:
        print("CHECK FAILED:", problem)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": calls.attempted,
                "failed": calls.failed,
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
