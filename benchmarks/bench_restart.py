"""Warm-restart benchmark: O(tail) resume vs O(stream) cold replay.

Measures the numbers the persistence subsystem exists for
(``repro.serving.persistence``, DESIGN.md §6) and records them in
``BENCH_restart.json``:

* **ingest overhead** — events/sec through a *journaled* store (every
  batch tees into the append-only segment log);
* **restart_seconds** — wall-clock of ``PredictionService.resume``:
  reload the artifact, memory-map the newest snapshot copy-on-write,
  replay only the unsnapshotted log tail.  The tail is held constant
  across stream sizes, so this number must stay flat as the stream
  grows — that flatness *is* the claim;
* **cold_replay_seconds** — the no-snapshot baseline: reload the
  artifact and replay the full durable log through a fresh store.
  Grows linearly with stream length.

The record's ``identical`` bit asserts the resumed store materialises
bit-for-bit the same contexts as the cold full replay — a correctness
gate (always ``true``), not a perf number.  CI gates both the bit and
``restart_seconds`` against a committed baseline at float64 *and*
float32 (``check_perf_regression.py --metric restart_seconds``).

Runs standalone::

    PYTHONPATH=src:benchmarks python benchmarks/bench_restart.py --preset default

or under pytest as part of the benchmark suite (smoke-sized unless
``REPRO_BENCH_SCALE`` >= 1).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

from _common import DTYPE, SCALE, bench_json
from bench_context_replay import _bundles_equal as bundles_equal
from repro.features.random_feat import RandomFeatureProcess
from repro.features.structural import StructuralFeatureProcess
from repro.models import ModelConfig
from repro.models.slim import SLIM
from repro.pipeline import Splash, SplashConfig
from repro.serving import (
    EventLog,
    IncrementalContextStore,
    PredictionService,
    ServingConfig,
    load_artifact,
)
from repro.serving.persistence import SEGMENTS_DIR

PRESETS = {
    # name -> (stream sizes, constant unsnapshotted tail)
    "smoke": ((12_000, 36_000), 2_000),
    "default": ((100_000, 1_000_000), 10_000),
}
NUM_NODES = 2048
EDGE_FEATURE_DIM = 4
FEATURE_DIM = 32
K = 10
INGEST_BATCH = 4096
FIT_EDGES = 5_000  # process-fit prefix (cheap: tables + degree stats)
PROBE_QUERIES = 256


def synthetic_stream(num_edges: int, seed: int = 0):
    """A vectorised synthetic CTDG (email_eu_like's generator is per-edge
    and caps at 160 nodes — too slow/small for million-edge restarts)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, size=num_edges)
    dst = rng.integers(0, NUM_NODES, size=num_edges)
    times = np.cumsum(rng.exponential(1.0, size=num_edges))
    features = rng.standard_normal((num_edges, EDGE_FEATURE_DIM))
    weights = rng.uniform(0.5, 1.5, size=num_edges)
    return src, dst, times, features, weights


def build_splash(src, dst, times, features, weights):
    """A servable Splash without training: fitted processes + an untrained
    SLIM (identical serving/restore cost to a trained one — same dims,
    same arrays — with no training time in the bench)."""
    from repro.streams.ctdg import CTDG

    train = CTDG(
        src[:FIT_EDGES],
        dst[:FIT_EDGES],
        times[:FIT_EDGES],
        features[:FIT_EDGES],
        weights[:FIT_EDGES],
        num_nodes=NUM_NODES,
    )
    config = SplashConfig(
        feature_dim=FEATURE_DIM,
        k=K,
        model=ModelConfig(hidden_dim=48, time_dim=8, seed=0),
    )
    splash = Splash(config)
    # R + S only: node2vec's skip-gram fit (process P) costs minutes and
    # measures nothing about persistence; R's propagated store and S's
    # lazy degree store cover both snapshot/restore state shapes.
    splash.processes = [
        RandomFeatureProcess(FEATURE_DIM, rng=0),
        StructuralFeatureProcess(FEATURE_DIM),
    ]
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


def ingest_journaled(service, src, dst, times, features, weights) -> float:
    """Seconds to push the given edges through the persisted service."""
    start = time.perf_counter()
    for lo in range(0, len(src), INGEST_BATCH):
        hi = lo + INGEST_BATCH
        service._ingest_arrays(
            src[lo:hi], dst[lo:hi], times[lo:hi], features[lo:hi], weights[lo:hi]
        )
    return time.perf_counter() - start


def cold_replay(root: str):
    """The no-snapshot baseline: artifact reload + full log replay."""
    splash = load_artifact(os.path.join(root, "artifact-0001"))
    log = EventLog(os.path.join(root, SEGMENTS_DIR), EDGE_FEATURE_DIM, verify=True)
    store = IncrementalContextStore(splash.processes, K, NUM_NODES, EDGE_FEATURE_DIM)
    for block in log.read_range(0):
        store.ingest_arrays(*block)
    log.close()
    return store


def run_one_size(num_edges: int, tail: int, workdir: str) -> dict:
    src, dst, times, features, weights = synthetic_stream(num_edges)
    splash = build_splash(src, dst, times, features, weights)
    root = os.path.join(workdir, f"persist-{num_edges}")

    service = PredictionService.from_splash(
        splash,
        num_nodes=NUM_NODES,
        edge_feature_dim=EDGE_FEATURE_DIM,
        config=ServingConfig(
            persist_path=root,
            snapshot_every=2**60,  # snapshot placement is explicit below
        ),
    )
    cut = num_edges - tail
    ingest_seconds = ingest_journaled(
        service, src[:cut], dst[:cut], times[:cut], features[:cut], weights[:cut]
    )
    service.persistence.snapshot()
    ingest_seconds += ingest_journaled(
        service, src[cut:], dst[cut:], times[cut:], features[cut:], weights[cut:]
    )
    service.persistence.flush()
    service.persistence.close()

    start = time.perf_counter()
    resumed = PredictionService.resume(root)
    restart_seconds = time.perf_counter() - start
    assert resumed.store.edges_ingested == num_edges

    start = time.perf_counter()
    cold_store = cold_replay(root)
    cold_seconds = time.perf_counter() - start
    assert cold_store.edges_ingested == num_edges

    nodes = np.arange(PROBE_QUERIES, dtype=np.int64) % NUM_NODES
    probe_times = np.full(PROBE_QUERIES, float(times[-1]) + 1.0)
    identical = bundles_equal(
        resumed.store.materialise(nodes, probe_times),
        cold_store.materialise(nodes, probe_times),
    )
    resumed.persistence.close()

    row = {
        "generator": f"restart-{num_edges // 1000}k",
        "num_edges": int(num_edges),
        "tail_events": int(tail),
        "num_nodes": NUM_NODES,
        "k": K,
        "identical": identical,
        "ingest_events_per_s": round(num_edges / ingest_seconds, 1),
        "ingest_seconds": round(ingest_seconds, 4),
        "restart_seconds": round(restart_seconds, 4),
        "cold_replay_seconds": round(cold_seconds, 4),
        "restart_speedup_vs_cold": round(cold_seconds / restart_seconds, 1),
    }
    print(
        f"restart  E={num_edges}  ingest {row['ingest_events_per_s']:.0f} ev/s  "
        f"resume {restart_seconds:.3f}s  cold replay {cold_seconds:.3f}s  "
        f"{row['restart_speedup_vs_cold']:.1f}x  identical={identical}"
    )
    return row


def check_scaling(rows: list) -> list:
    """The two claims the benchmark exists to demonstrate, as failures.

    Warm restart replays a constant tail, so its wall-clock must stay flat
    (±20%, with an absolute floor so millisecond noise cannot flake the
    gate) while the cold-replay baseline grows with the stream.
    """
    small, big = rows[0], rows[-1]
    failures = []
    drift = big["restart_seconds"] - small["restart_seconds"]
    allowed = max(0.20 * small["restart_seconds"], 0.25)
    if drift > allowed:
        failures.append(
            "warm restart is not flat: "
            f"{small['restart_seconds']}s @ {small['num_edges']} edges -> "
            f"{big['restart_seconds']}s @ {big['num_edges']} edges "
            f"(+{drift:.3f}s > {allowed:.3f}s allowed)"
        )
    growth = big["num_edges"] / small["num_edges"]
    if big["cold_replay_seconds"] < 0.5 * growth * small["cold_replay_seconds"]:
        failures.append(
            "cold replay did not grow with the stream (is the baseline "
            f"really replaying? {small['cold_replay_seconds']}s -> "
            f"{big['cold_replay_seconds']}s over a {growth:.0f}x stream)"
        )
    return failures


def run_restart_bench(preset: str = "default"):
    sizes, tail = PRESETS[preset]
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-restart-") as workdir:
        for num_edges in sizes:
            rows.append(run_one_size(num_edges, tail, workdir))
    return {"preset": preset, "rows": rows}


def test_restart_bench():
    """Benchmark-suite entry: resume must equal cold replay bit-for-bit
    and its cost must not scale with the ingested stream."""
    preset = "smoke" if SCALE < 1.0 else "default"
    record = (
        "BENCH_restart.json" if preset == "default" else f"BENCH_restart.{preset}.json"
    )
    payload = run_restart_bench(preset=preset)
    bench_json(record, payload)
    for row in payload["rows"]:
        assert row["identical"], (
            f"resumed store differs from cold replay at {row['num_edges']} edges"
        )
    failures = check_scaling(payload["rows"])
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument(
        "--output",
        default=None,
        help="destination JSON (default benchmarks/results/BENCH_restart.json)",
    )
    args = parser.parse_args(argv)
    payload = run_restart_bench(preset=args.preset)
    bench_json("BENCH_restart.json", payload, path=args.output)
    print(f"[dtype={DTYPE} scale={SCALE}]")
    status = 0
    for row in payload["rows"]:
        if not row["identical"]:
            print(
                f"ERROR: resumed store differs from cold replay at "
                f"{row['num_edges']} edges",
                file=sys.stderr,
            )
            status = 1
    for failure in check_scaling(payload["rows"]):
        print(f"ERROR: {failure}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
