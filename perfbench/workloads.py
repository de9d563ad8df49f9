"""The benchmark's workloads, driven through the public API only.

Every workload is a closed loop: one caller in one process sends the next
call only after the previous one returned.  Each has the same shape:

* ``train(seed)`` fits and saves the served pipeline and computes the
  offline reference the outputs are checked against, in a child process
  (serving only; not timed);
* ``setup(seed)`` generates the inputs and, for serving, loads the served
  pipeline and starts it with ``repro.serving.serve`` — the part timed as
  ``setup_s``;
* ``prepare()`` plans the calls and runs a discarded warm-up (not timed);
* ``run_pass(calls)`` runs the job once and returns a
  :class:`PassResult`; correctness failures are collected in
  ``self.problems``.

Why these three (see also ``BENCHMARK.json``):

* ``train`` — the job users run: ``Splash.fit`` on an email-like stream
  with the default config, then scoring of the held-out queries (repeated
  after the job for more latency samples).  Time goes to features
  (node2vec), selection and SLIM training; no serving layer runs.
* ``serve-bulk`` — uniform traffic over 8192 nodes with 4-dim edge
  features and persistence on.  A burst of 256 queries follows every
  1024 edges, so the replay is 1024-edge ``ingest`` calls alternating with
  256-query ``predict`` calls: the write path (replay blocks, neighbour
  buffers, journal, snapshots) over a large working set dominates.
* ``serve-fleet`` — the same traffic and config on a two-shard fleet; the
  only workload that runs the router's broadcast and pipes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.datasets import StreamDataset, email_eu_like
from repro.features.random_feat import RandomFeatureProcess
from repro.features.structural import StructuralFeatureProcess
from repro.pipeline import Splash, SplashConfig
from repro.serving import ServingConfig, serve
from repro.streams.ctdg import CTDG
from repro.streams.replay import endpoint_shard, iter_interleave
from repro.streams.split import chronological_split
from repro.tasks.base import QuerySet
from repro.tasks.classification import ClassificationTask

from stats import CallLog

TRAIN_EDGES = 20_000
# serve-bulk / serve-fleet traffic
BULK_NODES = 8192
BULK_GROUPS = 4  # = edge feature dim: each edge carries its endpoints' groups
INGEST_BATCH = 1024
BULK_BURSTS = 60  # one burst of queries after every INGEST_BATCH edges
BULK_EDGES = BULK_BURSTS * INGEST_BATCH
BURST_QUERIES = 256
BULK_FIT_EDGES = 10 * INGEST_BATCH
SNAPSHOT_EVERY = 20_000
FLEET_SHARDS = 2
FEATURE_DIM = 32  # SplashConfig's default
# Held-out queries are scored in the chunks Splash.evaluate uses (the
# model's batch size), so the scores are bit-comparable with it.
SCORE_CHUNK = 256
# One round of held-out scoring takes about a tenth of a second, so a
# short stall of a shared machine would move its tail; more rounds spread
# the latency samples over more time.
SCORE_ROUNDS = 5
WARMUP_CALLS = 40  # reaches the first snapshot


@dataclass
class PassResult:
    """One run of a workload's job."""

    job_s: float  # wall time of the whole job
    ingest_s: float  # summed time inside the calls that hand over edges
    edges: int
    queries: int
    latencies_ms: List[float]  # one per call that returns scores
    test_score: float


@dataclass
class Workload:
    """Base: the state a workload carries between set-up and passes."""

    problems: List[str] = field(default_factory=list)
    extra_rss_mb: float = 0.0
    min_passes = 2  # test_score must repeat exactly at one seed

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)

    def train(self, seed: int) -> None:
        """Work done once before the set-ups (not timed)."""

    def discard(self) -> None:
        """Stop what the last set-up started (not timed)."""

    def prepare(self) -> None:
        """Call plan and warm-up (not timed)."""

    def pass_counters(self) -> dict:
        """Per-layer counts the benchmark takes itself after a pass."""
        return {}

    def shard_skew(self) -> float:
        return 0.0

    def describe(self, results: List[PassResult]) -> Optional[str]:
        """A line on the shape of the calls the passes made, if useful."""
        return None

    def close(self) -> None:
        """Stop everything the workload started."""
        self.discard()


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size, so
    the peak left behind by untimed work (fitting, the offline reference)
    is not reported as the workload's."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set of this process since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def private_mb(pid: int) -> float:
    """Memory a live child process does not share with its parent.

    A forked fleet worker's resident set counts every page it inherited
    from the router, which the router's own figure already holds; only
    its private pages are its own.
    """
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total / 1024.0


def _disk_bytes(root: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class TrainWorkload(Workload):
    def __init__(self) -> None:
        super().__init__()
        self.dataset: Optional[StreamDataset] = None
        self.last_history = None

    def setup(self, seed: int) -> None:
        self.dataset = email_eu_like(seed=seed, num_edges=TRAIN_EDGES)

    def pass_counters(self) -> dict:
        history = self.last_history
        return {"slim.epochs": len(history.train_losses) if history else 0}

    def run_pass(self, calls: CallLog) -> PassResult:
        """Fit, then score the held-out queries; then score them again
        ``SCORE_ROUNDS - 1`` times, outside ``job_s``, for more latency
        samples.  Training has no offline reference: its checks are that
        the held-out score repeats at one seed, that the chunked scores are
        bit-equal to one ``Splash.predict_scores`` call over all of them,
        and that every round returns the same scores."""
        dataset = self.dataset
        splash = Splash(SplashConfig())
        test_idx = dataset.split().test_idx
        latencies: List[float] = []

        def score_held_out() -> Optional[np.ndarray]:
            chunks: List[np.ndarray] = []
            starts = range(0, len(test_idx), SCORE_CHUNK)
            for lo in starts:
                done, scores, seconds = calls.call(
                    splash.predict_scores, test_idx[lo : lo + SCORE_CHUNK]
                )
                latencies.append(seconds * 1000.0)
                if done:
                    chunks.append(scores)
            return np.concatenate(chunks) if len(chunks) == len(starts) else None

        start = time.perf_counter()
        ok, history, fit_s = calls.call(splash.fit, dataset)
        scores = score_held_out() if ok else None
        complete = scores is not None
        score = dataset.task.evaluate(scores, test_idx) if complete else math.nan
        job_s = time.perf_counter() - start
        self.last_history = history
        self.check(complete, "training pass did not score every held-out query")
        if complete:
            self.check(
                np.array_equal(scores, splash.predict_scores(test_idx)),
                "chunked held-out scores differ from Splash.predict_scores",
            )
            for _ in range(SCORE_ROUNDS - 1):
                again = score_held_out()
                self.check(
                    again is not None and np.array_equal(again, scores),
                    "scoring the held-out queries again changed their scores",
                )
        return PassResult(
            job_s=job_s,
            ingest_s=fit_s,
            edges=dataset.ctdg.num_edges,
            queries=len(dataset.queries),
            latencies_ms=latencies,
            test_score=score,
        )


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def planted_traffic(seed: int) -> StreamDataset:
    """Uniform traffic over ``BULK_NODES`` nodes with a learnable label.

    Endpoints and query nodes are uniform, so the working set is the whole
    node space.  Every node belongs to one of ``BULK_GROUPS`` groups, and
    each edge's 4-dim feature is the sum of its endpoints' one-hot groups,
    so a node's group (its label) is readable from its recent edges.
    Queries arrive in bursts of ``BURST_QUERIES`` nodes, one burst at the
    timestamp of every ``INGEST_BATCH``-th edge (edges win ties), so every
    edge run between two bursts is exactly one full ingest batch.
    """
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, BULK_GROUPS, size=BULK_NODES)
    src = rng.integers(0, BULK_NODES, size=BULK_EDGES)
    dst = rng.integers(0, BULK_NODES, size=BULK_EDGES)
    times = np.cumsum(rng.exponential(1.0, size=BULK_EDGES))
    onehot = np.eye(BULK_GROUPS)
    features = onehot[groups[src]] + onehot[groups[dst]]
    weights = rng.uniform(0.5, 1.5, size=BULK_EDGES)
    bursts = times[INGEST_BATCH - 1 :: INGEST_BATCH]
    q_times = np.repeat(bursts, BURST_QUERIES)
    q_nodes = rng.integers(0, BULK_NODES, size=len(q_times))
    return StreamDataset(
        name="planted-uniform",
        ctdg=CTDG(src, dst, times, features, weights, num_nodes=BULK_NODES),
        queries=QuerySet(q_nodes, q_times),
        task=ClassificationTask(groups[q_nodes], BULK_GROUPS),
    )


def prefix_dataset(dataset: StreamDataset, num_edges: int) -> StreamDataset:
    """The first ``num_edges`` edges and the queries among them."""
    ctdg = dataset.ctdg.slice(0, num_edges)
    cut = int(np.searchsorted(dataset.queries.times, ctdg.times[-1], side="right"))
    return StreamDataset(
        name=dataset.name + "-prefix",
        ctdg=ctdg,
        queries=QuerySet(dataset.queries.nodes[:cut], dataset.queries.times[:cut]),
        task=ClassificationTask(
            dataset.task.labels[:cut], dataset.task.num_classes
        ),
    )


def call_plan(dataset: StreamDataset) -> list:
    """The recorded order of ``ingest`` and ``predict`` calls."""
    return list(
        iter_interleave(
            dataset.ctdg.times, dataset.queries.times, max_block=INGEST_BATCH
        )
    )


class ServeWorkload(Workload):
    """``serve-bulk`` / ``serve-fleet``: the same traffic, one or two shards."""

    def __init__(self, name: str, workdir: str) -> None:
        super().__init__()
        self.num_shards = FLEET_SHARDS if name == "serve-fleet" else 0
        self.workdir = workdir
        self.artifact = os.path.join(workdir, "artifact")
        self.dataset: Optional[StreamDataset] = None
        self.splash: Optional[Splash] = None
        self.client = None
        self._roots: List[str] = []
        self.plan: list = []
        self.reference_path = os.path.join(workdir, "reference.npz")
        self.reference_scores: Optional[np.ndarray] = None
        self.reference: list = []
        self.heldout: Optional[np.ndarray] = None
        self.last_disk_bytes = 0

    # -- set-up --------------------------------------------------------
    def _serve(self):
        root = tempfile.mkdtemp(prefix="persist-", dir=self.workdir)
        self._roots.append(root)
        config = ServingConfig(
            num_shards=self.num_shards,
            persist_path=root,
            snapshot_every=SNAPSHOT_EVERY,
        )
        return serve(
            self.splash,
            config,
            num_nodes=self.dataset.ctdg.num_nodes,
            edge_feature_dim=self.dataset.ctdg.edge_feature_dim,
            task=self.dataset.task,
        )

    def train(self, seed: int) -> None:
        """Fit the served pipeline, save it as an artifact and compute the
        offline reference (not timed: the ``train`` workload measures
        fitting).

        This runs in a child process, so that the memory it leaves behind
        is not counted as the server's.  The served pipeline is SPLASH with
        the random and structural processes (node2vec's fit would dominate
        without changing what a served call does), fitted on the stream's
        first ``BULK_FIT_EDGES`` edges; the queries after them are held
        out.  The reference is one offline replay of the whole stream, then
        the same micro-batches the service scores.
        """
        child = multiprocessing.get_context("fork").Process(
            target=self._fit_and_score, args=(seed,)
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(
                f"offline fit and reference failed (exit code {child.exitcode})"
            )
        with np.load(self.reference_path) as saved:
            self.reference_scores = saved["scores"]
            self.heldout = saved["heldout"]

    def _fit_and_score(self, seed: int) -> None:
        dataset = planted_traffic(seed)
        fit_on = prefix_dataset(dataset, BULK_FIT_EDGES)
        # The prefix holds few queries: train on 60% of them, not 10%.
        split = chronological_split(fit_on.queries.times, 0.6, 0.2)
        splash = Splash(SplashConfig())
        splash.fit(
            fit_on,
            split=split,
            processes=[
                RandomFeatureProcess(FEATURE_DIM, rng=seed),
                StructuralFeatureProcess(FEATURE_DIM),
            ],
        )
        splash.save(self.artifact)
        splash.attach(dataset)
        scores = [
            splash.predict_scores(np.arange(lo, hi))
            for kind, lo, hi in call_plan(dataset)
            if kind == "queries"
        ]
        np.savez(
            self.reference_path,
            scores=np.concatenate(scores),
            heldout=np.arange(len(fit_on.queries), len(dataset.queries)),
        )

    def setup(self, seed: int) -> None:
        """What bringing up a server costs: the inputs, the trained
        pipeline loaded from its artifact, and ``serve()``."""
        self.dataset = planted_traffic(seed)
        self.splash = Splash.load(self.artifact)
        self.client = self._serve()

    def discard(self) -> None:
        if self.client is not None:
            self.client.shutdown()
            self.client = None
        for root in self._roots:
            shutil.rmtree(root, ignore_errors=True)
        self._roots = []

    def prepare(self) -> None:
        """Call plan, the reference cut into its micro-batches, and a
        warm-up on the last set-up's client, which is then discarded."""
        self.plan = call_plan(self.dataset)
        self.reference = [
            self.reference_scores[lo:hi]
            for kind, lo, hi in self.plan
            if kind == "queries"
        ]
        self._replay(self.client, self.plan[:WARMUP_CALLS], CallLog())
        self.discard()

    # -- one pass ------------------------------------------------------
    def _replay(self, client, plan, calls: CallLog):
        ctdg, queries = self.dataset.ctdg, self.dataset.queries
        ingest_s = 0.0
        latencies: List[float] = []
        served: List[Optional[np.ndarray]] = []
        for kind, lo, hi in plan:
            if kind == "edges":
                _ok, _, seconds = calls.call(
                    client.ingest,
                    ctdg.src[lo:hi],
                    ctdg.dst[lo:hi],
                    ctdg.times[lo:hi],
                    ctdg.edge_features[lo:hi],
                    ctdg.weights[lo:hi],
                )
                ingest_s += seconds
            else:
                _ok, scores, seconds = calls.call(
                    client.predict, queries.nodes[lo:hi], queries.times[lo:hi]
                )
                latencies.append(seconds * 1000.0)
                served.append(scores)
        return ingest_s, latencies, served

    def run_pass(self, calls: CallLog) -> PassResult:
        """Replay the whole recorded stream through a new client.

        The client is built before the clock starts; in a traced run that
        is after the shims are installed.
        """
        self.client = client = self._serve()
        dataset = self.dataset
        start = time.perf_counter()
        ingest_s, latencies, served = self._replay(client, self.plan, calls)
        job_s = time.perf_counter() - start

        ok, health, _ = calls.call(client.health)
        self.check(
            ok and health["edges_ingested"] == dataset.ctdg.num_edges,
            "health() edges_ingested differs from the stream length",
        )
        if ok and self.num_shards:
            # Read at the end of the replay, when a shard's state is largest.
            rss = sum(private_mb(shard["pid"]) for shard in health["shards"])
            self.extra_rss_mb = max(self.extra_rss_mb, rss)
        calls.call(client.shutdown)
        self.client = None
        self.last_disk_bytes = _disk_bytes(self._roots[-1]) if self._roots else 0
        self.discard()

        mismatched = sum(
            1
            for got, want in zip(served, self.reference)
            if got is None or not np.array_equal(got, want)
        )
        self.check(
            mismatched == 0,
            "served scores are not bit-equal to the offline reference",
        )
        scores = np.zeros((len(dataset.queries), dataset.task.num_classes))
        query_blocks = [(lo, hi) for kind, lo, hi in self.plan if kind == "queries"]
        for (lo, hi), got in zip(query_blocks, served):
            if got is not None:
                scores[lo:hi] = got
        score = dataset.task.evaluate(scores[self.heldout], self.heldout)
        return PassResult(
            job_s=job_s,
            ingest_s=ingest_s,
            edges=dataset.ctdg.num_edges,
            queries=len(dataset.queries),
            latencies_ms=latencies,
            test_score=score,
        )

    def pass_counters(self) -> dict:
        return {"persist.disk_bytes": self.last_disk_bytes}

    def describe(self, results: List[PassResult]) -> str:
        """Calls per pass with their sizes, and ingest's share of the
        time spent inside calls."""
        sizes = {"edges": [], "queries": []}
        for kind, lo, hi in self.plan:
            sizes[kind].append(hi - lo)
        ingest_s = sum(r.ingest_s for r in results)
        predict_s = sum(sum(r.latencies_ms) for r in results) / 1000.0
        parts = [
            f"{len(sizes[kind])} {call} calls of {min(sizes[kind])}-"
            f"{max(sizes[kind])} {kind} (mean {np.mean(sizes[kind]):.1f})"
            for kind, call in (("edges", "ingest"), ("queries", "predict"))
        ]
        share = ingest_s / (ingest_s + predict_s)
        return f"per pass {', '.join(parts)}; ingest is {share:.1%} of time in calls"

    def shard_skew(self) -> float:
        """Max over mean edge incidences owned per shard."""
        if not self.num_shards:
            return 0.0
        ctdg = self.dataset.ctdg
        owners = endpoint_shard(np.concatenate([ctdg.src, ctdg.dst]), self.num_shards)
        owned = np.bincount(owners, minlength=self.num_shards)
        return float(owned.max() / owned.mean())


def make_workload(name: str, workdir: str) -> Workload:
    if name == "train":
        return TrainWorkload()
    return ServeWorkload(name, workdir)


WORKLOADS = ("train", "serve-bulk", "serve-fleet")
