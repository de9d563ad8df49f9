"""Serving-fleet benchmark: sharded ingest scaling + bit-exact queries.

Runs one sustained mixed ingest/query stream through the single-process
:class:`~repro.serving.PredictionService` and through
:class:`~repro.serving.FleetRouter` fleets at several shard counts, and
records in ``BENCH_serving_fleet.json``:

* **identical** — the correctness bit: the fleet's merged query scores
  must equal the single service's bit for bit (always ``true``; any
  ``false`` fails the gate outright);
* **query_p50_ms / query_p99_ms** — per-query latency through the router
  (materialise fan-out + central scoring), the number CI gates against
  the committed smoke baseline;
* **ingest_events_per_s** — router wall-clock throughput of the
  overlapped broadcast.  On 1-CPU runners the worker processes time-slice
  one core, so this shows the broadcast *overhead*, not the scaling —
  check ``environment.cpu_count`` before reading it as capacity;
* **capacity_events_per_s** — the per-shard critical path: each ingest
  batch is timed against one worker at a time (uncontended), and capacity
  is ``events / max-over-shards(busy seconds)`` — the throughput a
  deployment with one core per shard sustains, since shards proceed
  independently and the slowest one bounds the fleet.
  ``ingest_speedup_vs_single`` compares this against the single service's
  pure-ingest throughput; the default preset must clear **≥ 2× at 4
  shards** (the number the fleet exists for).

The record also proves the pooled-telemetry claim: a fleet scrape must
contain every worker's series under ``proc=shardN`` labels next to the
router's own (``pooled_metrics.shards_in_scrape``).

Runs standalone::

    PYTHONPATH=src:benchmarks python benchmarks/bench_serving_fleet.py \
        --preset default

or under pytest as part of the benchmark suite (smoke-sized unless
``REPRO_BENCH_SCALE`` >= 1).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import DTYPE, SCALE, bench_json
from repro import obs
from repro.features.random_feat import RandomFeatureProcess
from repro.features.structural import StructuralFeatureProcess
from repro.models import ModelConfig
from repro.models.slim import SLIM
from repro.pipeline import Splash, SplashConfig
from repro.serving import FleetRouter, PredictionService, ServingConfig

PRESETS = {
    # name -> (num_edges, num_queries, timing repeats)
    "smoke": (30_000, 1_500, 1),
    "default": (120_000, 6_000, 3),
}
SHARD_COUNTS = (2, 4)
# Wide node space: serving fleets target graphs where endpoint conflicts
# are rare, so the replay engine's vectorised runs stay long and the
# per-endpoint assembly work (the part sharding partitions) dominates.
NUM_NODES = 8192
EDGE_FEATURE_DIM = 4
FEATURE_DIM = 32
K = 10
INGEST_BATCH = 4096
MICRO_BATCH = 256
FIT_EDGES = 5_000


def synthetic_traffic(num_edges: int, num_queries: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, size=num_edges)
    dst = rng.integers(0, NUM_NODES, size=num_edges)
    times = np.cumsum(rng.exponential(1.0, size=num_edges))
    features = rng.standard_normal((num_edges, EDGE_FEATURE_DIM))
    weights = rng.uniform(0.5, 1.5, size=num_edges)
    q_times = np.sort(rng.uniform(times[0], times[-1], size=num_queries))
    q_nodes = rng.integers(0, NUM_NODES, size=num_queries)

    from repro.streams.ctdg import CTDG

    ctdg = CTDG(src, dst, times, features, weights, num_nodes=NUM_NODES)
    return ctdg, q_nodes, q_times


def build_splash(ctdg):
    """A servable Splash without training (same pattern as bench_restart):
    fitted R + S processes plus an untrained SLIM — identical serving cost
    to a trained one, with no training time in the bench."""
    config = SplashConfig(
        feature_dim=FEATURE_DIM,
        k=K,
        model=ModelConfig(hidden_dim=48, time_dim=8, seed=0),
    )
    splash = Splash(config)
    splash.processes = [
        RandomFeatureProcess(FEATURE_DIM, rng=0),
        StructuralFeatureProcess(FEATURE_DIM),
    ]
    train = ctdg.slice(0, FIT_EDGES)
    for process in splash.processes:
        process.fit(train, NUM_NODES)
    model = SLIM(
        feature_name="random",
        feature_dim=FEATURE_DIM,
        edge_feature_dim=EDGE_FEATURE_DIM,
        config=config.model,
    )
    model.decoder = model.build_decoder(1)
    model.eval()
    splash.model = model
    splash._fit_dtype = DTYPE
    return splash


def serving_config(num_shards: int = 0) -> ServingConfig:
    return ServingConfig(micro_batch_size=MICRO_BATCH, num_shards=num_shards)


def single_pure_ingest_seconds(splash, ctdg, repeats: int = 1) -> float:
    """Best-of wall-clock of the edges-only stream through one service."""
    best = float("inf")
    for _ in range(repeats):
        service = PredictionService.from_splash(
            splash, NUM_NODES, EDGE_FEATURE_DIM, config=serving_config()
        )
        start = time.perf_counter()
        for lo in range(0, ctdg.num_edges, INGEST_BATCH):
            hi = lo + INGEST_BATCH
            service._ingest_arrays(
                ctdg.src[lo:hi],
                ctdg.dst[lo:hi],
                ctdg.times[lo:hi],
                ctdg.edge_features[lo:hi],
                ctdg.weights[lo:hi],
            )
        best = min(best, time.perf_counter() - start)
    return best


def _one_capacity_pass(splash, ctdg, num_shards: int) -> list:
    """Max per-shard busy seconds over the edges-only stream.

    Batches go to one worker at a time so each measurement is
    uncontended even on a 1-CPU runner; the slowest shard's total is the
    fleet's ingest critical path (shards proceed independently in
    production — one core each — so this is what bounds throughput).
    """
    shard_seconds = [0.0] * num_shards
    with FleetRouter(
        splash,
        NUM_NODES,
        EDGE_FEATURE_DIM,
        config=serving_config(num_shards),
    ) as fleet:
        # Shard-major order: each worker consumes its whole stream
        # consecutively, as it would on its own core.  Batch-major
        # interleaving would evict every worker's cache state between its
        # calls — a 1-CPU measurement artifact, not a property of the
        # fleet.
        for index, worker in enumerate(fleet._workers):
            for lo in range(0, ctdg.num_edges, INGEST_BATCH):
                hi = lo + INGEST_BATCH
                batch = (
                    lo,  # stream offset — workers dedup ingest by base
                    ctdg.src[lo:hi],
                    ctdg.dst[lo:hi],
                    ctdg.times[lo:hi],
                    ctdg.edge_features[lo:hi],
                    ctdg.weights[lo:hi],
                )
                start = time.perf_counter()
                worker.call("ingest", batch)
                shard_seconds[index] += time.perf_counter() - start
    return shard_seconds


def fleet_capacity_seconds(splash, ctdg, num_shards: int, repeats: int) -> float:
    """Best-of-``repeats`` critical path (each repeat is a fresh fleet —
    a worker's stream cannot be replayed into the same incarnation)."""
    best = [float("inf")] * num_shards
    for _ in range(repeats):
        for index, seconds in enumerate(_one_capacity_pass(splash, ctdg, num_shards)):
            best[index] = min(best[index], seconds)
    return max(best)


def pooled_metrics_probe(splash, ctdg, num_shards: int) -> dict:
    """Start a small fleet with metrics on; count shards in one scrape."""
    previous = obs.current_mode()
    obs.configure(mode="metrics")
    try:
        with FleetRouter(
            splash,
            NUM_NODES,
            EDGE_FEATURE_DIM,
            config=serving_config(num_shards),
        ) as fleet:
            cut = min(ctdg.num_edges, 4 * INGEST_BATCH)
            fleet.ingest_arrays(
                ctdg.src[:cut],
                ctdg.dst[:cut],
                ctdg.times[:cut],
                ctdg.edge_features[:cut],
                ctdg.weights[:cut],
            )
            text = fleet.pooled_registry().render_prometheus()
    finally:
        obs.configure(mode=previous)
    present = sum(
        1 for index in range(num_shards) if f'proc="shard{index}"' in text
    )
    return {
        "num_shards": num_shards,
        "shards_in_scrape": present,
        "router_series_in_scrape": "fleet_ingest_events_total" in text,
        "ok": present == num_shards and "fleet_ingest_events_total" in text,
    }


def run_fleet_bench(preset: str = "default") -> dict:
    num_edges, num_queries, repeats = PRESETS[preset]
    ctdg, q_nodes, q_times = synthetic_traffic(num_edges, num_queries)
    splash = build_splash(ctdg)

    # --- single-process reference: mixed traffic + pure-ingest timing ---
    single = PredictionService.from_splash(
        splash, NUM_NODES, EDGE_FEATURE_DIM, config=serving_config()
    )
    baseline_scores = single.serve_stream(
        ctdg, q_nodes, q_times, ingest_batch=INGEST_BATCH, background=False
    )
    single_summary = single.metrics.summary()
    single_ingest_s = single_pure_ingest_seconds(splash, ctdg, repeats)
    single_events_per_s = num_edges / single_ingest_s
    rows = [
        {
            "generator": "single",
            "num_shards": 1,
            "identical": True,  # the reference defines the bits
            "ingest_events_per_s": round(single_events_per_s, 1),
            "capacity_events_per_s": round(single_events_per_s, 1),
            "ingest_speedup_vs_single": 1.0,
            "query_p50_ms": single_summary["query_p50_ms"],
            "query_p99_ms": single_summary["query_p99_ms"],
            "wall_seconds": single_summary["wall_seconds"],
        }
    ]
    print(
        f"single   ingest {single_events_per_s:.0f} ev/s  "
        f"p50 {single_summary['query_p50_ms']:.2f}ms  "
        f"p99 {single_summary['query_p99_ms']:.2f}ms"
    )

    # --- fleets: bit-equality + router latency, then shard capacity ---
    for num_shards in SHARD_COUNTS:
        with FleetRouter(
            splash,
            NUM_NODES,
            EDGE_FEATURE_DIM,
            config=serving_config(num_shards),
        ) as fleet:
            scores = fleet.serve_stream(
                ctdg, q_nodes, q_times, ingest_batch=INGEST_BATCH
            )
            identical = bool(np.array_equal(scores, baseline_scores))
            summary = fleet.metrics.summary()
        capacity_s = fleet_capacity_seconds(splash, ctdg, num_shards, repeats)
        capacity = num_edges / capacity_s
        rows.append(
            {
                "generator": f"fleet-{num_shards}",
                "num_shards": num_shards,
                "identical": identical,
                "ingest_events_per_s": summary["ingest_events_per_s"],
                "capacity_events_per_s": round(capacity, 1),
                "ingest_speedup_vs_single": round(
                    capacity / single_events_per_s, 2
                ),
                "query_p50_ms": summary["query_p50_ms"],
                "query_p99_ms": summary["query_p99_ms"],
                "wall_seconds": summary["wall_seconds"],
            }
        )
        print(
            f"fleet-{num_shards}  capacity {capacity:.0f} ev/s "
            f"({rows[-1]['ingest_speedup_vs_single']:.2f}x vs single)  "
            f"router wall {summary['ingest_events_per_s']:.0f} ev/s  "
            f"p99 {summary['query_p99_ms']:.2f}ms  identical={identical}"
        )

    pooled = pooled_metrics_probe(splash, ctdg, max(SHARD_COUNTS))
    print(
        f"pooled scrape: {pooled['shards_in_scrape']}/{pooled['num_shards']} "
        f"shards present, router series={pooled['router_series_in_scrape']}"
    )
    return {
        "preset": preset,
        "generator": "uniform synthetic",
        "num_edges": num_edges,
        "num_queries": num_queries,
        "num_nodes": NUM_NODES,
        "k": K,
        "micro_batch_size": MICRO_BATCH,
        "ingest_batch": INGEST_BATCH,
        "notes": (
            "capacity_events_per_s is the per-shard critical path (batches "
            "timed against one worker at a time, uncontended): the "
            "throughput a one-core-per-shard deployment sustains. "
            "ingest_events_per_s is the router's overlapped-broadcast wall "
            "clock, which on 1-CPU runners time-slices every worker over "
            "one core and so cannot exceed single-process throughput — "
            "check environment.cpu_count before reading it as scaling."
        ),
        "rows": rows,
        "pooled_metrics": pooled,
    }


def check_claims(payload: dict) -> list:
    """The two claims the benchmark exists for, as failure strings."""
    failures = []
    for row in payload["rows"]:
        if not row["identical"]:
            failures.append(
                f"{row['generator']}: scores differ from the single-process "
                "service (bit-exactness broken)"
            )
    if not payload["pooled_metrics"]["ok"]:
        failures.append(
            "pooled /metrics scrape is missing shard or router series: "
            f"{payload['pooled_metrics']}"
        )
    if payload["preset"] == "default":
        top = [r for r in payload["rows"] if r["num_shards"] == 4]
        if top and top[0]["ingest_speedup_vs_single"] < 2.0:
            failures.append(
                "fleet-4 ingest capacity is "
                f"{top[0]['ingest_speedup_vs_single']}x the single service "
                "(needs >= 2x)"
            )
    return failures


def test_serving_fleet_bench():
    """Benchmark-suite entry: fleet scores must be bit-identical, the
    pooled scrape complete, and (at default scale) capacity >= 2x."""
    preset = "smoke" if SCALE < 1.0 else "default"
    record = (
        "BENCH_serving_fleet.json"
        if preset == "default"
        else f"BENCH_serving_fleet.{preset}.json"
    )
    payload = run_fleet_bench(preset=preset)
    bench_json(record, payload)
    failures = check_claims(payload)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument(
        "--output",
        default=None,
        help="destination JSON (default benchmarks/results/BENCH_serving_fleet.json)",
    )
    args = parser.parse_args(argv)
    payload = run_fleet_bench(preset=args.preset)
    bench_json("BENCH_serving_fleet.json", payload, path=args.output)
    print(f"[dtype={DTYPE} scale={SCALE}]")
    status = 0
    for failure in check_claims(payload):
        print(f"ERROR: {failure}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
