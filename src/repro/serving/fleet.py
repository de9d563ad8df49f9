"""Horizontally sharded serving fleet: N worker processes, one front door.

The single-process :class:`~repro.serving.service.PredictionService` owns
the whole graph; its ingest cost is dominated by per-endpoint context
assembly — ``NeighborEntry`` construction, per-store snapshot copies, and
k-recent buffer inserts, all per-event Python.  The fleet partitions
exactly that work by endpoint hash
(:func:`repro.streams.replay.endpoint_shard`) across worker processes
while keeping results **bit-for-bit equal** to the single service:

* **Replicated global state, partitioned assembly.**  A query's context
  transitively depends on *global* state — its neighbours' exact degrees
  and feature snapshots at edge time, which depend on those nodes' full
  incident history and on the stream-wide unseen-node propagation chain
  (Eqs. 4-5).  True stream partitioning (each edge to one shard) therefore
  cannot be bit-exact.  Instead the router broadcasts every ingest
  micro-batch to *all* shards; each shard advances the cheap vectorised
  global state past every edge but performs the dominant per-endpoint work
  only for the nodes it owns (``IncrementalContextStore(owner=...)``).
  Per-shard buffered-context memory is O(owned · k) and per-shard ingest
  wall-clock approaches ``shared + owned/N`` — measured ≥ 2× at 4 shards
  by ``benchmarks/bench_serving_fleet.py``.

* **Central scoring at identical micro-batch boundaries.**  Queries are
  batched in arrival order with the *same* ``micro_batch_size`` boundaries
  a single service would use; each batch's rows fan out to their owner
  shards for materialisation, scatter back into one
  :class:`~repro.models.context._QueryOutputs` block, and the merged
  bundle is scored once by the router's model.  Same contexts, same batch
  shapes, same model/dtype ⇒ bit-identical scores (per-shard
  scoring would change forward-pass batch shapes, and with them BLAS
  accumulation order).

* **Warm restart + catch-up.**  Each worker persists under
  ``<persist_path>/shard<i>`` (the PR 7 machinery, manifest now carrying
  the owner spec).  A restarted worker resumes its durable prefix in
  O(tail) and reports how far it got; the router replays the rest from a
  bounded ring of recent ingest batches — no full-stream replay.

* **Pooled telemetry.**  Every worker keeps its own metrics registry; the
  router's ``/metrics`` materialises a
  :class:`~repro.obs.metrics.PooledRegistryView` per scrape, fetching each
  worker's live payload over its control pipe and merging under
  ``proc=shardN`` labels (the PR 9 wire format).

:func:`serve` is the single front door: ``ServingConfig(num_shards=...)``
selects between one in-process service and a fleet, behind one client
protocol (``predict`` / ``ingest`` / ``health`` / ``shutdown``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time as time_mod
import traceback
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.models.context import _QueryOutputs
from repro.serving.config import ServingConfig, ensure_serving_config
from repro.serving.service import PredictionService
from repro.serving.store import IncrementalContextStore
from repro.streams.ctdg import CTDG
from repro.streams.replay import endpoint_shard, iter_interleave
from repro.tasks.base import QuerySet, Task
from repro.utils.logging import get_logger

logger = get_logger("fleet")

#: Ceiling on a worker's build/resume before the router gives up on its
#: ready handshake.  Generous — a warm restart replays a durable tail —
#: but bounded, so an OOM-killed child cannot hang the router forever.
_SPAWN_TIMEOUT_S = 300.0

#: Arrays a worker ships back per materialised micro-batch slice, in the
#: order they are scattered into the router's output block.
_ROW_ARRAYS = (
    "neighbor_nodes",
    "neighbor_times",
    "neighbor_degrees",
    "edge_features",
    "edge_weights",
    "mask",
    "target_degrees",
    "target_last_times",
    "target_seen",
)


def shard_root(persist_path: str, shard_index: int) -> str:
    """Persistence root of one shard under the fleet's parent directory."""
    return os.path.join(persist_path, f"shard{shard_index}")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    inherited_conns: tuple,
    shard_index: int,
    splash,
    num_nodes: int,
    edge_feature_dim: Optional[int],
    config: ServingConfig,
    task: Optional[Task],
    obs_mode: str,
) -> None:
    """Run one shard worker: build/resume its service, then serve commands.

    Forked from the router, so ``splash`` and friends arrive by memory
    inheritance, not pickling.  The fork also copies every pipe fd the
    router holds — the router end of *this* worker's pipe and both ends
    of every sibling's — and any of those staying open here would defeat
    EOF-based router-death detection (``conn.recv`` only raises
    ``EOFError`` once the last copy of the router end closes), so they
    are closed first.  The worker then re-initialises observability from
    scratch (cleared registry, no inherited trace writer/HTTP server),
    builds an owner-partitioned service — resuming from its persistence
    root when a manifest is already there — and answers command tuples
    over the pipe until ``shutdown``.  Every reply is ``("ok", value)``
    or ``("error", message)``; errors never kill the worker, so one
    poisoned query batch cannot take a shard down.
    """
    for other in inherited_conns:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed
            pass
    obs._fork_reinit(obs_mode)
    try:
        service = _build_worker_service(
            shard_index, splash, num_nodes, edge_feature_dim, config, task
        )
        conn.send(("ready", {"edges_ingested": service.store.edges_ingested}))
    except BaseException as error:  # pragma: no cover - exercised via router
        conn.send(("error", _format_error(error)))
        return
    store = service.store
    while True:
        try:
            command, payload = conn.recv()
        except EOFError:  # router died; nothing left to serve
            return
        try:
            if command == "ingest":
                base, src, dst, times, features, weights = payload
                # Base-aware dedup: ``base`` is the stream offset of the
                # batch's first edge.  A shard that already ingested part
                # (or all) of the batch — it succeeded in a broadcast a
                # sibling failed, or its durable restart prefix ends
                # inside a ring batch — skips the covered prefix, so
                # router retries and ring replay are idempotent.
                count = len(times)
                have = store.edges_ingested
                if have < base:
                    raise RuntimeError(
                        f"shard {shard_index} has ingested {have} edges but "
                        f"the batch starts at offset {base}; refusing to "
                        "ingest across a gap"
                    )
                skip = min(have - base, count)
                if skip < count:
                    service._ingest_arrays(
                        src[skip:],
                        dst[skip:],
                        times[skip:],
                        features[skip:] if features is not None else None,
                        weights[skip:] if weights is not None else None,
                    )
                conn.send(("ok", store.edges_ingested))
            elif command == "materialise":
                nodes, times = payload
                out = _QueryOutputs(
                    len(nodes), store.k, store.edge_feature_dim, store.stores
                )
                with obs.span("fleet.materialise", queries=len(nodes)):
                    store.write_queries(out, range(len(nodes)), nodes, times)
                conn.send(("ok", _pack_rows(out)))
            elif command == "metrics":
                conn.send(
                    (
                        "ok",
                        {
                            "payload": (
                                obs.get_registry().to_payload()
                                if obs.enabled()
                                else None
                            ),
                            "summary": service.metrics.summary(),
                        },
                    )
                )
            elif command == "health":
                conn.send(
                    (
                        "ok",
                        {
                            "pid": os.getpid(),
                            "shard": shard_index,
                            "edges_ingested": store.edges_ingested,
                            "durable_events": (
                                service.persistence.durable_events
                                if service.persistence is not None
                                else None
                            ),
                        },
                    )
                )
            elif command == "snapshot":
                if service.persistence is not None:
                    service.persistence.snapshot()
                conn.send(("ok", None))
            elif command == "shutdown":
                if service.persistence is not None:
                    service.persistence.flush()
                    service.persistence.close()
                conn.send(("ok", None))
                return
            else:
                conn.send(("error", f"unknown fleet command {command!r}"))
        except BaseException as error:
            conn.send(("error", _format_error(error)))


def _build_worker_service(
    shard_index: int,
    splash,
    num_nodes: int,
    edge_feature_dim: Optional[int],
    config: ServingConfig,
    task: Optional[Task],
) -> PredictionService:
    """Fresh owner-partitioned service — or a warm restart of one.

    When the shard's persistence root already holds a manifest (a
    previous incarnation ran there), the service resumes from it: the
    manifest records the ``(shard_index, num_shards)`` owner spec, so the
    rebuilt store owns exactly the nodes its predecessor owned, and only
    the durable log's unsnapshotted tail is replayed.
    """
    owner = (shard_index, config.num_shards)
    root = (
        shard_root(config.persist_path, shard_index)
        if config.persist_path is not None
        else None
    )
    worker_config = ServingConfig(
        micro_batch_size=config.micro_batch_size,
        dtype=config.dtype,
        snapshot_every=config.snapshot_every,
        drift_monitor=config.drift_monitor,
    )
    if root is not None and os.path.exists(os.path.join(root, "manifest.json")):
        service = PredictionService.resume(root, config=worker_config, task=task)
        if service.store.owner != owner:
            raise RuntimeError(
                f"persistence root {root} belongs to shard spec "
                f"{service.store.owner}, expected {owner}"
            )
        return service
    return PredictionService.from_splash(
        splash,
        num_nodes,
        edge_feature_dim,
        config=ServingConfig(
            micro_batch_size=worker_config.micro_batch_size,
            dtype=worker_config.dtype,
            persist_path=root,
            snapshot_every=config.snapshot_every if root is not None else None,
            drift_monitor=config.drift_monitor,
        ),
        task=task,
        owner=owner,
    )


def _pack_rows(out: _QueryOutputs) -> Dict[str, object]:
    """Ship a worker-side output block's arrays through the pipe."""
    packed: Dict[str, object] = {
        name: getattr(out, name) for name in _ROW_ARRAYS
    }
    packed["target_features"] = dict(out.target_features)
    packed["neighbor_features"] = dict(out.neighbor_features)
    return packed


def _format_error(error: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(error), error)
    ).strip() + "\n" + "".join(traceback.format_exc())


class FleetWorkerError(RuntimeError):
    """A shard worker reported an error (message carries its traceback)."""


def _drain(collectors: list) -> Tuple[list, list]:
    """Run every collector, never skipping one because another raised.

    A collector holds its handle's lock (and owes its pipe one pending
    response) until it runs; abandoning one after a sibling's failure
    would wedge every later call to that shard — including ``shutdown``.
    Returns ``(results, errors)`` with ``None`` standing in for a failed
    collector's result.
    """
    results: list = []
    errors: list = []
    for collect in collectors:
        try:
            results.append(collect())
        except Exception as error:
            results.append(None)
            errors.append(error)
    return results, errors


def _collect_all(collectors: list) -> list:
    """Drain every collector, then surface any shard errors — in that order."""
    results, errors = _drain(collectors)
    if errors:
        if len(errors) == 1:
            raise errors[0]
        raise FleetWorkerError(
            f"{len(errors)} shards failed: "
            + "; ".join(str(error) for error in errors)
        )
    return results


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """One shard's process + control pipe, with call serialisation.

    The pipe is a strict request/response channel; the lock keeps pairs
    atomic so a telemetry scrape thread (``metrics``) can interleave
    safely with the ingest/query thread.
    """

    def __init__(self, shard_index: int) -> None:
        self.shard_index = shard_index
        self.process = None
        self.conn = None
        self.lock = threading.Lock()

    def spawn(self, target_args: tuple, sibling_conns: tuple = ()) -> dict:
        """Fork the worker and wait for its ready/error handshake.

        ``sibling_conns`` are the router ends of every *other* worker's
        pipe; the forked child inherits them (plus the router end of its
        own pipe) and closes them first thing, so a sibling staying alive
        cannot keep this worker's EOF-based router-death detection from
        firing.  The handshake is bounded: a child that dies before
        reporting (OOM kill, crash in the fork) surfaces as a
        :class:`FleetWorkerError` naming the shard and exit code instead
        of a bare ``EOFError`` or an indefinite hang.
        """
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, tuple(sibling_conns) + (parent_conn,))
            + target_args,
            name=f"fleet-shard{self.shard_index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        try:
            if not parent_conn.poll(_SPAWN_TIMEOUT_S):
                raise FleetWorkerError(
                    f"shard {self.shard_index} sent no ready handshake "
                    f"within {_SPAWN_TIMEOUT_S:.0f}s"
                )
            status, value = parent_conn.recv()
        except (EOFError, OSError) as error:
            self.process.join(timeout=5.0)
            exitcode = self.process.exitcode
            self.kill()
            raise FleetWorkerError(
                f"shard {self.shard_index} died during startup "
                f"(exitcode={exitcode})"
            ) from error
        if status != "ready":
            raise FleetWorkerError(
                f"shard {self.shard_index} failed to start: {value}"
            )
        return value

    def call(self, command: str, payload=None):
        with self.lock:
            if self.conn is None:
                raise FleetWorkerError(
                    f"shard {self.shard_index} has no live worker"
                )
            try:
                self.conn.send((command, payload))
                status, value = self.conn.recv()
            except (EOFError, OSError) as error:
                raise FleetWorkerError(
                    f"shard {self.shard_index} pipe failed during "
                    f"{command!r}: {error!r}"
                ) from error
        if status != "ok":
            raise FleetWorkerError(f"shard {self.shard_index}: {value}")
        return value

    def start_call(self, command: str, payload=None) -> Callable[[], object]:
        """Send now, collect later — the fan-out half of a broadcast.

        Acquires the handle's lock until the matching collector runs, so
        the send/recv pair stays atomic while *different* workers overlap.
        """
        self.lock.acquire()
        try:
            if self.conn is None:
                raise FleetWorkerError(
                    f"shard {self.shard_index} has no live worker"
                )
            self.conn.send((command, payload))
        except BaseException:
            self.lock.release()
            raise

        def collect():
            try:
                try:
                    status, value = self.conn.recv()
                except (EOFError, OSError) as error:
                    raise FleetWorkerError(
                        f"shard {self.shard_index} died mid-call: {error!r}"
                    ) from error
            finally:
                self.lock.release()
            if status != "ok":
                raise FleetWorkerError(f"shard {self.shard_index}: {value}")
            return value

        return collect

    def kill(self) -> None:
        """Hard-kill the worker process (no flush — the crash drill)."""
        with self.lock:
            if self.process is not None and self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=30.0)
            if self.conn is not None:
                try:
                    self.conn.close()
                except OSError:  # already closed
                    pass
            self.process = None
            self.conn = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class FleetRouter:
    """Fans ingest/queries across shard workers; merges bit-exact results.

    Construct through :func:`serve` (``ServingConfig(num_shards >= 2)``).
    The router holds the model and a never-ingested *template* store (for
    output-block geometry, static tables and structural parameters — all
    ingest-independent), so scoring happens centrally on merged bundles at
    the exact micro-batch boundaries a single service would use.
    """

    def __init__(
        self,
        splash,
        num_nodes: int,
        edge_feature_dim: Optional[int] = None,
        config: Optional[ServingConfig] = None,
        *,
        task: Optional[Task] = None,
    ) -> None:
        config = ensure_serving_config(config)
        if config.num_shards < 2:
            raise ValueError(
                f"a fleet needs num_shards >= 2, got {config.num_shards}; "
                "use repro.serving.serve for a single in-process service"
            )
        if splash.model is None or not splash.processes:
            raise RuntimeError(
                "Splash has no trained model/processes; fit() or load() first"
            )
        if edge_feature_dim is None:
            edge_feature_dim = splash.model.edge_feature_dim
        self.config = config
        self.num_shards = config.num_shards
        self.splash = splash
        self.num_nodes = int(num_nodes)
        self.edge_feature_dim = int(edge_feature_dim)
        self._task = task
        # Template store: geometry + static tables for merged bundles.  It
        # never ingests, so it costs one partition_processes call, not a
        # replica of the stream state.
        template = IncrementalContextStore(
            splash.processes,
            splash.config.k,
            num_nodes,
            edge_feature_dim,
            propagation=splash.config.execution.propagation,
        )
        # The scorer reuses PredictionService for the locked model forward
        # (hot_swap-safe), dtype flips, and latency accounting —
        # its store is the template, used only for bundle geometry.
        self._scorer = PredictionService(
            splash.model,
            template,
            task=task,
            micro_batch_size=config.micro_batch_size,
            dtype=config.dtype if config.dtype is not None else splash.fit_dtype,
        )
        self._template = template
        self._edges_ingested = 0
        # Catch-up ring: (base_offset, batch arrays) of the most recent
        # ingest broadcasts, replayed to a restarted worker whose durable
        # state ends mid-ring.
        self._ring: Deque[Tuple[int, tuple]] = deque(maxlen=config.catchup_ring)
        self._workers: List[_WorkerHandle] = []
        obs_mode = "metrics" if obs.enabled() else "off"
        self._worker_args = lambda shard_index: (
            shard_index,
            splash,
            num_nodes,
            edge_feature_dim,
            config,
            task,
            obs_mode,
        )
        self._telemetry_args: Optional[dict] = None
        for shard_index in range(self.num_shards):
            handle = _WorkerHandle(shard_index)
            handle.spawn(
                self._worker_args(shard_index), self._sibling_conns(handle)
            )
            self._workers.append(handle)
        logger.info(
            "fleet up: %d shards over %d nodes (persist=%s)",
            self.num_shards,
            num_nodes,
            config.persist_path,
        )

    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """The router-side scoring metrics (ServiceMetrics)."""
        return self._scorer.metrics

    @property
    def micro_batch_size(self) -> int:
        return self._scorer.micro_batch_size

    @property
    def edges_ingested(self) -> int:
        return self._edges_ingested

    @property
    def model(self):
        return self._scorer.model

    def owner_of(self, nodes) -> np.ndarray:
        """Shard index owning each node id."""
        return endpoint_shard(nodes, self.num_shards)

    def _sibling_conns(self, handle: _WorkerHandle) -> tuple:
        """Router ends of every *other* worker's pipe, for the fork to close."""
        return tuple(
            worker.conn
            for worker in self._workers
            if worker is not handle and worker.conn is not None
        )

    # ------------------------------------------------------------------
    def _broadcast(self, command: str, payload=None) -> list:
        """Send to every live worker, then collect — workers overlap.

        Collection is all-or-error but never partial: every started call
        is drained (releasing its handle lock and consuming its pipe
        response) before any shard's failure propagates, so one poisoned
        batch degrades into an exception instead of wedging the fleet.
        """
        collectors: list = []
        try:
            for worker in self._workers:
                collectors.append(worker.start_call(command, payload))
        except BaseException:
            _drain(collectors)  # release what was started, then re-raise
            raise
        return _collect_all(collectors)

    def ingest_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        features: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
    ) -> int:
        """Broadcast one edge micro-batch to every shard.

        Every shard ingests every edge (global degree/propagation state
        must track the full stream — see the module docstring); the
        per-endpoint heavy lifting is partitioned by the stores' owner
        masks.  The batch lands in the catch-up ring before the broadcast,
        so a worker that dies mid-broadcast can still be caught up.

        Failure is retryable: the broadcast tags the batch with its
        stream offset and workers skip any prefix they already hold, so
        when some shards succeed and one errors (``_edges_ingested``
        stays put), re-ingesting the same — or a corrected — batch
        no-ops on the shards that got it the first time instead of
        double-ingesting.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        times = np.asarray(times)
        count = len(times)
        base = self._edges_ingested
        batch = (src, dst, times, features, weights)
        if self._ring and self._ring[-1][0] == base:
            # A retry after a failed broadcast re-lands at the same base:
            # replace the failed attempt's ring entry so ring bases stay
            # contiguous for restart_shard's replay arithmetic.
            self._ring[-1] = (base, batch)
        else:
            self._ring.append((base, batch))
        start = time_mod.perf_counter()
        with obs.span("fleet.ingest", batch=count):
            self._broadcast("ingest", (base,) + batch)
        self._edges_ingested = base + count
        self.metrics.record_ingest(count, time_mod.perf_counter() - start)
        obs.inc("fleet.ingest.events", count)
        obs.set_gauge("fleet.edges_ingested", self._edges_ingested)
        return count

    def ingest(self, edges: CTDG) -> int:
        return self.ingest_arrays(
            edges.src, edges.dst, edges.times, edges.edge_features, edges.weights
        )

    # ------------------------------------------------------------------
    def _materialise_batch(
        self, nodes: np.ndarray, times: np.ndarray
    ) -> _QueryOutputs:
        """One merged output block: rows fanned to owner shards."""
        out = _QueryOutputs(
            len(nodes),
            self._template.k,
            self.edge_feature_dim,
            self._template.stores,
        )
        owners = self.owner_of(nodes)
        plan: List[Tuple[np.ndarray, Callable[[], object]]] = []
        try:
            for shard_index in range(self.num_shards):
                rows = np.where(owners == shard_index)[0]
                if not len(rows):
                    continue
                collect = self._workers[shard_index].start_call(
                    "materialise", (nodes[rows], times[rows])
                )
                plan.append((rows, collect))
        except BaseException:
            _drain([collect for _, collect in plan])
            raise
        packs = _collect_all([collect for _, collect in plan])
        for (rows, _), packed in zip(plan, packs):
            for name in _ROW_ARRAYS:
                getattr(out, name)[rows] = packed[name]
            for name, value in packed["target_features"].items():
                out.target_features[name][rows] = value
            for name, value in packed["neighbor_features"].items():
                out.neighbor_features[name][rows] = value
        return out

    def _score_batch(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        t0 = time_mod.perf_counter()
        with obs.span("serving.materialise", queries=len(nodes)):
            out = self._materialise_batch(nodes, times)
            bundle = self._template.bundle_from(out, QuerySet(nodes, times.copy()))
        t1 = time_mod.perf_counter()
        with obs.span("serving.score", queries=len(nodes)):
            scores = self._scorer._score_bundle(bundle)
        self.metrics.record_batch(len(nodes), t1 - t0, time_mod.perf_counter() - t1)
        obs.inc("serving.queries", len(nodes))
        return scores

    def predict(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Score queries against the fleet's current state.

        Identical micro-batch boundaries to
        :meth:`PredictionService.predict`, so the scores are bit-identical
        to the single-process service on the same ingested prefix.
        """
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        times = np.broadcast_to(np.asarray(times, dtype=np.float64), nodes.shape)
        outputs = []
        for lo in range(0, len(nodes), self.micro_batch_size):
            hi = min(lo + self.micro_batch_size, len(nodes))
            outputs.append(self._score_batch(nodes[lo:hi], times[lo:hi]))
        if not outputs:
            return self._scorer._empty_scores()
        return np.concatenate(outputs, axis=0)

    def serve_stream(
        self,
        ctdg: CTDG,
        query_nodes: np.ndarray,
        query_times: np.ndarray,
        *,
        ingest_batch: int = 1024,
    ) -> np.ndarray:
        """Replay a recorded stream through the fleet, returning scores.

        Mirrors :meth:`PredictionService.serve_stream` exactly — same
        §III interleave, same ingest batching, same query micro-batch
        chunking — which is what makes the returned scores bit-comparable.
        """
        if ingest_batch <= 0:
            raise ValueError(f"ingest_batch must be positive, got {ingest_batch}")
        query_nodes = np.asarray(query_nodes, dtype=np.int64)
        query_times = np.asarray(query_times, dtype=np.float64)
        has_features = ctdg.edge_features is not None
        start_wall = time_mod.perf_counter()
        chunks: List[Tuple[int, int, np.ndarray]] = []
        for kind, lo, hi in iter_interleave(
            ctdg.times, query_times, max_block=ingest_batch
        ):
            if kind == "edges":
                self.ingest_arrays(
                    ctdg.src[lo:hi],
                    ctdg.dst[lo:hi],
                    ctdg.times[lo:hi],
                    ctdg.edge_features[lo:hi] if has_features else None,
                    ctdg.weights[lo:hi],
                )
                continue
            for c_lo in range(lo, hi, self.micro_batch_size):
                c_hi = min(c_lo + self.micro_batch_size, hi)
                scores = self._score_batch(
                    query_nodes[c_lo:c_hi], query_times[c_lo:c_hi]
                )
                chunks.append((c_lo, c_hi, scores))
        self.metrics.wall_seconds += time_mod.perf_counter() - start_wall
        if not chunks:
            return self._scorer._empty_scores()
        first = chunks[0][2]
        scores_out = np.zeros(
            (len(query_nodes),) + first.shape[1:], dtype=first.dtype
        )
        for c_lo, c_hi, scores in chunks:
            scores_out[c_lo:c_hi] = scores
        return scores_out

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def kill_shard(self, shard_index: int) -> None:
        """Hard-kill one worker (SIGKILL, no flush) — the crash drill."""
        self._workers[shard_index].kill()

    def restart_shard(self, shard_index: int) -> dict:
        """Bring a dead (or stale) shard back and catch it up.

        The replacement worker warm-restarts from its persistence root —
        O(durable tail), not O(stream) — and reports how many edges its
        durable state covers.  The router then replays only the missing
        suffix from the catch-up ring (the worker's base-aware ingest
        skips the ring batch prefix its durable state already covers).
        Raises when the ring no longer reaches back far enough — the
        caller must then rebuild the shard from a fuller source instead
        of silently serving a hole.

        The replacement is **forked from the router**, so any lock a
        live telemetry thread (HTTP scrape, SLO ticker) happened to hold
        at fork time would arrive in the child permanently held.  The
        router therefore quiesces its telemetry plane around the fork —
        stop the server and engine, spawn, bring them back on the same
        port — trading a momentary scrape outage for a child that cannot
        deadlock before ``obs._fork_reinit`` runs.
        """
        handle = self._workers[shard_index]
        telemetry_args = (
            self._telemetry_args
            if self._scorer._telemetry_server is not None
            else None
        )
        if telemetry_args is not None:
            self.stop_telemetry()
        try:
            handle.kill()
            ready = handle.spawn(
                self._worker_args(shard_index), self._sibling_conns(handle)
            )
            resumed = int(ready["edges_ingested"])
            replayed = 0
            if resumed < self._edges_ingested:
                if not self._ring or self._ring[0][0] > resumed:
                    covered = (
                        self._ring[0][0] if self._ring else self._edges_ingested
                    )
                    raise FleetWorkerError(
                        f"shard {shard_index} resumed at edge {resumed} but "
                        f"the catch-up ring only reaches back to edge "
                        f"{covered}; increase ServingConfig.catchup_ring or "
                        "snapshot more often"
                    )
                watermark = resumed
                for base, batch in self._ring:
                    if base + len(batch[2]) <= watermark:
                        continue
                    watermark = int(handle.call("ingest", (base,) + batch))
                replayed = watermark - resumed
        finally:
            if telemetry_args is not None:
                self.start_telemetry(**telemetry_args)
        obs.inc("fleet.restarts")
        logger.info(
            "shard %d restarted: resumed %d edges durable, replayed %d from "
            "the ring",
            shard_index,
            resumed,
            replayed,
        )
        return {"resumed": resumed, "replayed": replayed}

    # ------------------------------------------------------------------
    # Health / telemetry / shutdown
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness + progress of every shard, plus the router's view."""
        shards = []
        for worker in self._workers:
            if not worker.alive:
                shards.append({"shard": worker.shard_index, "alive": False})
                continue
            try:
                info = worker.call("health")
                info["alive"] = True
            except (FleetWorkerError, EOFError, OSError) as error:
                # A worker dying between the alive check and the call
                # must degrade to "not alive", not fail the whole report.
                info = {
                    "shard": worker.shard_index,
                    "alive": False,
                    "error": str(error),
                }
            shards.append(info)
        healthy = all(s.get("alive") for s in shards) and all(
            s.get("edges_ingested") == self._edges_ingested
            for s in shards
            if s.get("alive")
        )
        return {
            "healthy": healthy,
            "edges_ingested": self._edges_ingested,
            "num_shards": self.num_shards,
            "shards": shards,
        }

    def _collect_worker_payloads(self) -> List[Tuple[dict, Dict[str, str]]]:
        """Live metrics payloads from every reachable worker, labelled."""
        collected = []
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                result = worker.call("metrics")
            except (FleetWorkerError, EOFError, OSError):
                continue  # scrape must not fail because one shard is down
            if result["payload"] is not None:
                collected.append(
                    (result["payload"], {"proc": f"shard{worker.shard_index}"})
                )
        return collected

    def pooled_registry(self):
        """Registry view pooling the router's and every worker's metrics."""
        from repro.obs.metrics import PooledRegistryView

        return PooledRegistryView(
            obs.get_registry() if obs.enabled() else None,
            self._collect_worker_payloads,
        )

    @property
    def telemetry(self):
        return self._scorer.telemetry

    def start_telemetry(
        self,
        port: int = 0,
        *,
        host: str = "127.0.0.1",
        rules=None,
        slo_interval: float = 2.0,
    ):
        """Expose the *pooled* fleet registry over HTTP; returns the server.

        One server at the router: ``/metrics`` renders every shard's live
        registry merged under ``proc=shardN`` labels next to the router's
        own series, ``/healthz`` runs the SLO engine over the same pooled
        view, ``/statusz`` adds the router's scoring summary.
        """
        if self._scorer._telemetry_server is not None:
            return self._scorer._telemetry_server
        from repro.obs.http import TelemetryServer
        from repro.obs.slo import SloEngine, default_serving_rules

        pooled = self.pooled_registry()
        engine = SloEngine(
            rules if rules is not None else default_serving_rules(),
            registry=pooled,
            interval=slo_interval,
            flight=obs.get_flight_recorder(),
        ).start()
        server = TelemetryServer(
            port=port,
            host=host,
            registry=pooled,
            health=engine,
            statusz_extra=self.metrics.summary,
        )
        server.start()
        self._scorer._telemetry_server = server
        self._scorer._telemetry_engine = engine
        self._scorer._owns_telemetry_engine = True
        # Remembered (with the actually-bound port) so restart_shard can
        # quiesce the telemetry threads around its fork and then bring
        # the plane back where clients expect it.
        self._telemetry_args = {
            "port": server.port,
            "host": host,
            "rules": rules,
            "slo_interval": slo_interval,
        }
        return server

    def stop_telemetry(self) -> None:
        self._scorer.stop_telemetry()

    def shutdown(self) -> None:
        """Flush every shard's durable state and stop the fleet."""
        self.stop_telemetry()
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.call("shutdown")
            except FleetWorkerError as error:  # pragma: no cover - best effort
                logger.warning("shard shutdown failed: %s", error)
            if worker.process is not None:
                worker.process.join(timeout=30.0)
            worker.kill()  # reap anything still alive; closes the pipe

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
class ServingClient:
    """One client protocol over either deployment shape.

    ``predict`` / ``ingest`` / ``health`` / ``shutdown`` behave
    identically whether ``backend`` is a single in-process
    :class:`PredictionService` or a :class:`FleetRouter` — by the fleet's
    bit-exactness guarantee, even the returned score bits match.
    """

    def __init__(self, backend) -> None:
        self._backend = backend

    @property
    def backend(self):
        """The underlying service or router (escape hatch)."""
        return self._backend

    @property
    def is_fleet(self) -> bool:
        return isinstance(self._backend, FleetRouter)

    @property
    def metrics(self):
        return self._backend.metrics

    @property
    def telemetry(self):
        return self._backend.telemetry

    def predict(self, nodes, times) -> np.ndarray:
        return self._backend.predict(nodes, times)

    def ingest(
        self, src, dst, times, features=None, weights=None
    ) -> int:
        if isinstance(self._backend, FleetRouter):
            return self._backend.ingest_arrays(src, dst, times, features, weights)
        return self._backend._ingest_arrays(src, dst, times, features, weights)

    def serve_stream(self, ctdg, query_nodes, query_times, **kwargs) -> np.ndarray:
        return self._backend.serve_stream(ctdg, query_nodes, query_times, **kwargs)

    def health(self) -> dict:
        if isinstance(self._backend, FleetRouter):
            return self._backend.health()
        service = self._backend
        return {
            "healthy": True,
            "edges_ingested": service.store.edges_ingested,
            "num_shards": 1,
            "shards": [
                {
                    "shard": 0,
                    "alive": True,
                    "pid": os.getpid(),
                    "edges_ingested": service.store.edges_ingested,
                    "durable_events": (
                        service.persistence.durable_events
                        if service.persistence is not None
                        else None
                    ),
                }
            ],
        }

    def shutdown(self) -> None:
        if isinstance(self._backend, FleetRouter):
            self._backend.shutdown()
            return
        service = self._backend
        service.stop_telemetry()
        if service.persistence is not None:
            service.persistence.flush()
            service.persistence.close()
        service.store.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve(
    splash,
    config: Optional[ServingConfig] = None,
    *,
    num_nodes: int,
    edge_feature_dim: Optional[int] = None,
    task: Optional[Task] = None,
) -> ServingClient:
    """The serving front door: one call, one client, either topology.

    ``ServingConfig(num_shards=...)`` selects the deployment shape —
    ≤ 1 builds a single in-process :class:`PredictionService`, ≥ 2 builds
    a :class:`FleetRouter` over that many endpoint-hash-partitioned worker
    processes — behind one :class:`ServingClient` protocol
    (``predict`` / ``ingest`` / ``health`` / ``shutdown``).  Both shapes
    return bit-identical scores for the same stream; the fleet adds
    horizontal ingest throughput and per-shard warm restart.
    """
    config = ensure_serving_config(config)
    if config.num_shards >= 2:
        router = FleetRouter(
            splash,
            num_nodes,
            edge_feature_dim,
            config,
            task=task,
        )
        if config.telemetry_port is not None:
            router.start_telemetry(
                config.telemetry_port,
                host=config.telemetry_host,
                rules=config.slo_rules,
                slo_interval=config.slo_interval,
            )
        return ServingClient(router)
    service = PredictionService.from_splash(
        splash,
        num_nodes,
        edge_feature_dim,
        config=config,
        task=task,
    )
    return ServingClient(service)
