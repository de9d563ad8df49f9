"""Micro-batched prediction service over an incremental context store.

:class:`PredictionService` closes the serving loop: edge micro-batches are
ingested into an :class:`~repro.serving.store.IncrementalContextStore`,
concurrent queries are grouped into micro-batches, materialised against the
live state, and scored with a trained SLIM — recording per-query latency
percentiles (p50/p99) and ingest/query throughput along the way.

Two execution modes share one code path:

* **synchronous** — ingest and scoring alternate on the caller's thread;
* **background** (``serve_stream(..., background=True)``) — a producer
  thread drives the strictly-ordered state mutations (ingest + bundle
  materialisation) while the caller's thread runs the model forward on
  already-materialised bundles.  Materialised bundles are standalone
  copies, so ingest of batch N+1 safely overlaps scoring of batch N: this
  is the serving half of the ROADMAP's async-prefetch item.

Both modes produce identical scores; the §III ordering (a query sees
exactly the edges with t(l) ≤ t, edges winning ties) is enforced via the
interleave's edge-count watermark, never wall-clock time.

Hot swap: :meth:`PredictionService.hot_swap` replaces the scoring model
between micro-batches under a lock — in-flight queries finish on the old
weights, subsequent batches use the new ones, and the store (whose state
depends only on the feature processes) keeps serving throughout.
"""

from __future__ import annotations

import contextlib
import queue as queue_mod
import threading
import time as time_mod
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.models.base import ContextModel
from repro.models.context import ContextBundle
from repro.obs.metrics import Histogram
from repro.nn.tensor import default_dtype, get_default_dtype
from repro.serving.config import ServingConfig, ensure_serving_config
from repro.serving.persistence import PersistenceManager
from repro.serving.store import IncrementalContextStore
from repro.streams.ctdg import CTDG
from repro.streams.replay import iter_interleave
from repro.tasks.base import Task
from repro.utils.logging import get_logger

logger = get_logger("serving")


@dataclass
class ServiceMetrics:
    """Running latency/throughput accounting for one service instance."""

    ingest_events: int = 0
    ingest_batches: int = 0
    ingest_seconds: float = 0.0
    query_count: int = 0
    batch_count: int = 0
    materialise_seconds: float = 0.0
    score_seconds: float = 0.0
    wall_seconds: float = 0.0
    # (latency_seconds, num_queries) per scored micro-batch; every query in
    # a batch is assigned its batch's latency (materialise + score).  The
    # window is bounded so a long-lived service's memory stays O(window),
    # not O(queries ever served).  Percentile *reads* go through the shared
    # log-scale :class:`repro.obs.metrics.Histogram` — the same vocabulary
    # fleet metrics use — so they cost O(buckets), not O(window); the deque
    # remains the exact windowed record (``exact_latency_ms``).
    LATENCY_WINDOW = 65536
    batch_latencies: Deque[Tuple[float, int]] = field(
        default_factory=lambda: deque(maxlen=ServiceMetrics.LATENCY_WINDOW)
    )
    latency_hist: Histogram = field(default_factory=Histogram)

    def record_ingest(self, events: int, seconds: float) -> None:
        self.ingest_events += events
        self.ingest_batches += 1
        self.ingest_seconds += seconds

    def record_batch(
        self, queries: int, materialise_seconds: float, score_seconds: float
    ) -> None:
        self.query_count += queries
        self.batch_count += 1
        self.materialise_seconds += materialise_seconds
        self.score_seconds += score_seconds
        latency = materialise_seconds + score_seconds
        self.batch_latencies.append((latency, queries))
        self.latency_hist.observe(latency, queries)

    # ------------------------------------------------------------------
    def latency_ms(self, percentile: float) -> float:
        """Per-query latency percentile in milliseconds (O(buckets) read)."""
        return self.latency_hist.percentile(percentile) * 1000.0

    def latencies_ms(self, percentiles: Tuple[float, ...]) -> Tuple[float, ...]:
        """Several percentiles from one cumulative histogram pass."""
        return tuple(
            p * 1000.0 for p in self.latency_hist.percentiles(percentiles)
        )

    def exact_latency_ms(self, *percentiles: float) -> Tuple[float, ...]:
        """Exact windowed percentiles, all from a single ``np.repeat`` pass.

        The histogram covers the full service lifetime within one bucket
        ratio; this materialises the per-query array once for the recent
        ``LATENCY_WINDOW`` batches and answers every requested percentile
        from it (the old per-read rebuild paid this per percentile).
        """
        if not self.batch_latencies:
            return tuple(0.0 for _ in percentiles)
        seconds = np.array([lat for lat, _ in self.batch_latencies])
        counts = np.array([n for _, n in self.batch_latencies])
        per_query = np.repeat(seconds, counts)
        values = np.percentile(per_query, list(percentiles))
        return tuple(float(v) * 1000.0 for v in np.atleast_1d(values))

    @property
    def p50_ms(self) -> float:
        return self.latency_ms(50.0)

    @property
    def p99_ms(self) -> float:
        return self.latency_ms(99.0)

    @property
    def ingest_events_per_sec(self) -> float:
        if self.ingest_seconds <= 0:
            return 0.0
        return self.ingest_events / self.ingest_seconds

    @property
    def queries_per_sec(self) -> float:
        busy = self.materialise_seconds + self.score_seconds
        if busy <= 0:
            return 0.0
        return self.query_count / busy

    def summary(self) -> dict:
        p50, p99 = self.latencies_ms((50.0, 99.0))
        return {
            "ingest_events": self.ingest_events,
            "ingest_events_per_s": round(self.ingest_events_per_sec, 1),
            "query_count": self.query_count,
            "batch_count": self.batch_count,
            "query_p50_ms": round(p50, 4),
            "query_p99_ms": round(p99, 4),
            "queries_per_s": round(self.queries_per_sec, 1),
            "wall_seconds": round(self.wall_seconds, 4),
        }


class PredictionService:
    """Scores live queries against an incremental context store.

    Parameters
    ----------
    model:
        A trained :class:`~repro.models.base.ContextModel` (typically SLIM).
    store:
        The incremental context store the model's features live in; its
        ``k`` and feature processes must match what the model trained on.
    task:
        Optional task providing the logits→scores transform (bound via
        :meth:`~repro.models.base.ContextModel.bind_task`); scoring then
        runs the exact :meth:`predict_scores` path the offline evaluator
        uses.  Without a task, raw logits (or ``scores_fn`` of them) are
        returned.
    micro_batch_size:
        Upper bound on queries per materialise/forward round trip (query
        runs shorter than this — queries interleaved with edges — score as
        their own batch).  Defaults to the model's training ``batch_size``.
        Materialised contexts are bit-identical to the offline bundle's
        rows regardless; scores agree with the offline evaluator to
        floating-point rounding (forward-pass batch boundaries differ, so
        BLAS accumulation order may, too).
    dtype:
        Precision to score under ("float32"/"float64"); defaults to the
        ambient default.  Pass the pipeline's fit dtype (artifacts record
        it) so inference matches training precision.  Caveat: the nn
        backend's default dtype is process-global, so when this differs
        from the ambient default, scoring temporarily flips it — training
        concurrently *in the same process* at a different precision is not
        supported (run retraining in its own process, then hot-swap the
        saved artifact in).
    """

    def __init__(
        self,
        model: ContextModel,
        store: IncrementalContextStore,
        *,
        task: Optional[Task] = None,
        scores_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        micro_batch_size: Optional[int] = None,
        dtype: Optional[str] = None,
    ) -> None:
        if micro_batch_size is not None and micro_batch_size <= 0:
            raise ValueError(
                f"micro_batch_size must be positive, got {micro_batch_size}"
            )
        self.store = store
        self.scores_fn = scores_fn
        self.micro_batch_size = (
            micro_batch_size
            if micro_batch_size is not None
            else model.config.batch_size
        )
        self._dtype = dtype
        self._swap_lock = threading.Lock()
        self._task = task
        self.model = model
        if task is not None:
            model.bind_task(task)
        self.metrics = ServiceMetrics()
        self._persistence: Optional[PersistenceManager] = None
        self._telemetry_server = None
        self._telemetry_engine = None
        self._owns_telemetry_engine = False

    # ------------------------------------------------------------------
    @property
    def persistence(self) -> Optional[PersistenceManager]:
        return self._persistence

    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        """The attached ``TelemetryServer`` (``None`` until started)."""
        return self._telemetry_server

    @property
    def health(self):
        """The attached ``SloEngine`` (``None`` until telemetry starts)."""
        return self._telemetry_engine

    def start_telemetry(
        self,
        port: int = 0,
        *,
        host: str = "127.0.0.1",
        rules=None,
        engine=None,
        slo_interval: float = 2.0,
    ):
        """Expose this service's telemetry over HTTP; returns the server.

        Starts an ``obs.http.TelemetryServer`` on ``port`` (0 = ephemeral;
        read ``server.port``) backed by the shared registry, with an
        ``obs.slo.SloEngine`` answering ``/healthz``.  Pass ``rules`` to
        replace :func:`repro.obs.slo.default_serving_rules`, or a running
        ``engine`` to share one across services.  The engine is handed the
        process flight recorder (if enabled) so SLO breaches dump a
        post-mortem, and ``/statusz`` includes this service's summary.
        """
        if self._telemetry_server is not None:
            return self._telemetry_server
        from repro import obs
        from repro.obs.http import TelemetryServer
        from repro.obs.slo import SloEngine, default_serving_rules

        if engine is None:
            engine = SloEngine(
                rules if rules is not None else default_serving_rules(),
                interval=slo_interval,
                flight=obs.get_flight_recorder(),
            ).start()
            self._owns_telemetry_engine = True
        else:
            self._owns_telemetry_engine = False
        server = TelemetryServer(
            port=port,
            host=host,
            health=engine,
            statusz_extra=self.metrics.summary,
        )
        server.start()
        self._telemetry_server = server
        self._telemetry_engine = engine
        return server

    def stop_telemetry(self) -> None:
        """Stop the HTTP exposition (and the SLO ticker this service owns)."""
        server = self._telemetry_server
        self._telemetry_server = None
        if server is not None:
            server.stop()
        engine = self._telemetry_engine
        self._telemetry_engine = None
        if engine is not None and self._owns_telemetry_engine:
            engine.stop()
        self._owns_telemetry_engine = False

    def attach_persistence(self, manager: Optional[PersistenceManager]) -> None:
        """Bind a :class:`~repro.serving.persistence.PersistenceManager`.

        The manager's journal must already be attached to this service's
        store (``PersistenceManager.create``/``resume`` do that); the
        service only adds snapshot cadence — after each ingest batch it
        asks the manager whether ``snapshot_every`` edges have passed.
        ``None`` detaches (the journal keeps running; detach that on the
        store explicitly if persistence should stop entirely).
        """
        if manager is not None and manager.store is not self.store:
            raise ValueError(
                "persistence manager is bound to a different store than "
                "this service serves"
            )
        self._persistence = manager

    # ------------------------------------------------------------------
    def _apply_config(self, config: ServingConfig) -> None:
        """Wire the deployment knobs of a resolved config into this service."""
        if config.drift_monitor is not None:
            self.store.attach_monitor(config.drift_monitor)
        if config.telemetry_port is not None:
            self.start_telemetry(
                config.telemetry_port,
                host=config.telemetry_host,
                rules=config.slo_rules,
                slo_interval=config.slo_interval,
            )

    @classmethod
    def from_splash(
        cls,
        splash,
        num_nodes: int,
        edge_feature_dim: Optional[int] = None,
        config: Optional[ServingConfig] = None,
        *,
        task: Optional[Task] = None,
        scores_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        owner: Optional[tuple] = None,
    ) -> "PredictionService":
        """Service around a fitted (or loaded) :class:`~repro.pipeline.Splash`.

        Builds a fresh store from the pipeline's fitted processes — ready
        to ingest a live stream from t = 0 — and scores at the pipeline's
        training precision.  ``edge_feature_dim`` defaults to what the
        model trained on (artifacts record it).

        Deployment knobs live in ``config`` (:class:`ServingConfig`):
        persistence root + snapshot cadence (restart later with
        :meth:`resume`, which replays only the post-snapshot tail),
        micro-batch size, dtype override, telemetry exposition, and
        drift-monitor attachment.  ``config.num_shards`` ≥ 2 is a *fleet*
        spec — use :func:`repro.serving.serve` for that; this constructor
        always builds one in-process service.

        ``owner`` is the fleet-internal ``(shard_index, num_shards)``
        store-partitioning spec (:mod:`repro.serving.fleet` passes it for
        its workers); it does not change this service's API.
        """
        config = ensure_serving_config(config)
        if config.snapshot_every is not None and config.persist_path is None:
            warnings.warn(
                "snapshot_every has no effect without persist_path; "
                "snapshots are cut into the persistence root",
                UserWarning,
                stacklevel=2,
            )
        if config.num_shards >= 2 and owner is None:
            raise ValueError(
                f"config.num_shards={config.num_shards} requests a serving "
                "fleet; build it with repro.serving.serve(splash, config) — "
                "from_splash constructs a single in-process service"
            )
        if splash.model is None or not splash.processes:
            raise RuntimeError(
                "Splash has no trained model/processes; fit() or load() first"
            )
        if edge_feature_dim is None:
            edge_feature_dim = splash.model.edge_feature_dim
        store = IncrementalContextStore(
            splash.processes,
            splash.config.k,
            num_nodes,
            edge_feature_dim,
            propagation=splash.config.execution.propagation,
            owner=owner,
        )
        service = cls(
            splash.model,
            store,
            task=task,
            scores_fn=scores_fn,
            micro_batch_size=config.micro_batch_size,
            dtype=config.dtype if config.dtype is not None else splash.fit_dtype,
        )
        if config.persist_path is not None:
            manager_kwargs = {}
            if config.snapshot_every is not None:
                manager_kwargs["snapshot_every"] = config.snapshot_every
            service.attach_persistence(
                PersistenceManager.create(
                    config.persist_path, splash, store, **manager_kwargs
                )
            )
        service._apply_config(config)
        return service

    @classmethod
    def resume(
        cls,
        persist_path: str,
        *,
        verify: bool = True,
        config: Optional[ServingConfig] = None,
        task: Optional[Task] = None,
        scores_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "PredictionService":
        """Warm-restart a service from a persistence root.

        O(1) in stream length: the artifact is reloaded, the newest valid
        snapshot's dense tables are memory-mapped copy-on-write, and only
        the durable log's unsnapshotted suffix is replayed.  The resumed
        store materialises bit-for-bit what a cold replay of the whole
        durable log would (gated by ``benchmarks/bench_restart.py``).

        ``config`` carries the same deployment knobs as
        :meth:`from_splash`, except the persistence root — that is the
        positional argument here, so ``config.persist_path`` must be
        unset.
        """
        config = ensure_serving_config(config)
        if config.persist_path is not None:
            raise ValueError(
                "resume takes the persistence root positionally; leave "
                "config.persist_path unset"
            )
        splash, store, manager = PersistenceManager.resume(
            persist_path, verify=verify, snapshot_every=config.snapshot_every
        )
        service = cls(
            splash.model,
            store,
            task=task,
            scores_fn=scores_fn,
            micro_batch_size=config.micro_batch_size,
            dtype=config.dtype if config.dtype is not None else splash.fit_dtype,
        )
        service.attach_persistence(manager)
        service._apply_config(config)
        logger.info(
            "resumed service from %s: %d edges live, %d durable in the log",
            persist_path,
            store.edges_ingested,
            manager.durable_events,
        )
        return service

    # ------------------------------------------------------------------
    def ingest(self, edges: CTDG) -> int:
        """Timed ingest of one edge micro-batch."""
        start = time_mod.perf_counter()
        with obs.span("serving.ingest", batch=edges.num_edges):
            count = self.store.ingest(edges)
        self.metrics.record_ingest(count, time_mod.perf_counter() - start)
        obs.inc("serving.ingest.events", count)
        if self._persistence is not None:
            self._persistence.maybe_snapshot()
        return count

    def _ingest_arrays(self, src, dst, times, features, weights) -> int:
        start = time_mod.perf_counter()
        with obs.span("serving.ingest", batch=len(src)):
            count = self.store.ingest_arrays(src, dst, times, features, weights)
        self.metrics.record_ingest(count, time_mod.perf_counter() - start)
        obs.inc("serving.ingest.events", count)
        if self._persistence is not None:
            self._persistence.maybe_snapshot()
        return count

    def hot_swap(
        self,
        model: ContextModel,
        *,
        store: Optional[IncrementalContextStore] = None,
        dtype: Optional[str] = None,
        scores_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        """Replace the scoring model without interrupting service.

        Without ``store``, the replacement must consume the same feature
        space the current store serves — same selected process, feature
        dim, and edge-feature dim — because the store's state cannot be
        retrofitted to different features.  With ``store``, a
        model+store *pair* is swapped in together (the adaptation loop's
        promotion path: a windowed re-fit may select a different process,
        so it arrives with its own warmed store); the pair must be
        self-consistent instead — the new store must materialise the new
        model's feature space and edge-feature width, and its ``k`` must
        match.

        Either way the swap is a pointer flip under the scoring lock:
        queries already being scored finish on the old model, the next
        micro-batch uses the new one; no queries are dropped.  A batch
        materialised from the old store may score on the new model (both
        feature spaces are validated compatible); use an external ingest
        lock (as :class:`repro.adapt.AdaptiveService` does) when even that
        one-batch overlap must be excluded.
        """
        current = self.model
        if store is None:
            for attr in ("feature_name", "feature_dim", "edge_feature_dim"):
                new, old = getattr(model, attr, None), getattr(current, attr, None)
                if new != old:
                    raise ValueError(
                        f"hot_swap {attr} mismatch: service serves {old!r}, "
                        f"replacement expects {new!r}"
                    )
        else:
            if store.k != self.store.k:
                raise ValueError(
                    f"hot_swap k mismatch: service serves k={self.store.k}, "
                    f"replacement store has k={store.k}"
                )
            feature_name = getattr(model, "feature_name", None)
            if feature_name is not None and feature_name not in store.feature_names:
                raise ValueError(
                    f"hot_swap store cannot materialise {feature_name!r}; "
                    f"it serves {store.feature_names}"
                )
            model_dim = getattr(model, "feature_dim", None)
            if (
                feature_name is not None
                and model_dim is not None
                and store.feature_dim(feature_name) != model_dim
            ):
                raise ValueError(
                    f"hot_swap feature_dim mismatch: replacement model "
                    f"expects {model_dim}-dim {feature_name!r} features, its "
                    f"store materialises {store.feature_dim(feature_name)}-dim"
                )
            if getattr(model, "edge_feature_dim", 0) != store.edge_feature_dim:
                raise ValueError(
                    f"hot_swap edge_feature_dim mismatch: replacement model "
                    f"expects {getattr(model, 'edge_feature_dim', 0)}, its "
                    f"store serves {store.edge_feature_dim}"
                )
        # Output width must match too: serve_stream sizes its result array
        # from the first chunk, so a mid-stream width change would discard
        # every score already computed.
        current_dims = getattr(getattr(current, "decoder", None), "dims", None)
        new_dims = getattr(getattr(model, "decoder", None), "dims", None)
        if current_dims and new_dims and current_dims[-1] != new_dims[-1]:
            raise ValueError(
                f"hot_swap output_dim mismatch: service serves "
                f"{current_dims[-1]}, replacement produces {new_dims[-1]}"
            )
        with self._swap_lock:
            if self._task is not None:
                model.bind_task(self._task)
            self.model = model
            if store is not None:
                self.store = store
            if dtype is not None:
                self._dtype = dtype
            if scores_fn is not None:
                self.scores_fn = scores_fn
        obs.inc("serving.hot_swaps")
        logger.info(
            "hot-swapped model (dtype=%s%s)",
            self._dtype,
            ", with store" if store is not None else "",
        )

    # ------------------------------------------------------------------
    def _score_bundle(self, bundle: ContextBundle) -> np.ndarray:
        """Model forward on one materialised micro-batch."""
        idx = np.arange(bundle.num_queries, dtype=np.int64)
        with self._swap_lock:
            # Everything configuration-dependent — model, dtype, *and* the
            # score transform — is captured under the one lock acquisition,
            # so a concurrent hot_swap can never pair one model's logits
            # with another's transform.
            model = self.model
            scores_fn = self.scores_fn
            # The nn backend's precision is a process-wide default; only
            # flip it when the service actually needs a different one, and
            # note the caveat: scoring at a precision that differs from a
            # concurrently-training thread's is not supported (the dtype
            # switch is global, not thread-local).
            if self._dtype and np.dtype(self._dtype) != get_default_dtype():
                context = default_dtype(self._dtype)
            else:
                context = contextlib.nullcontext()
            with context:
                if self._task is not None:
                    return model.predict_scores(bundle, idx)
                logits = model.predict_logits(bundle, idx)
        if scores_fn is not None:
            return scores_fn(logits)
        return logits

    def _empty_scores(self) -> np.ndarray:
        """Zero-query result with the decoder's true output width."""
        decoder_dims = getattr(getattr(self.model, "decoder", None), "dims", None)
        output_dim = int(decoder_dims[-1]) if decoder_dims else 1
        return np.zeros((0, output_dim))

    def predict(
        self, nodes: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Score queries against the store's *current* state.

        Splits into micro-batches of ``micro_batch_size``; each batch is
        materialised then scored, and its wall-clock recorded as every
        member query's latency.  The caller guarantees the prefix contract
        (see :meth:`IncrementalContextStore.materialise`).
        """
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        times = np.broadcast_to(np.asarray(times, dtype=np.float64), nodes.shape)
        outputs = []
        for lo in range(0, len(nodes), self.micro_batch_size):
            hi = min(lo + self.micro_batch_size, len(nodes))
            t0 = time_mod.perf_counter()
            with obs.span("serving.materialise", queries=hi - lo):
                bundle = self.store.materialise(nodes[lo:hi], times[lo:hi])
            t1 = time_mod.perf_counter()
            with obs.span("serving.score", queries=hi - lo):
                outputs.append(self._score_bundle(bundle))
            self.metrics.record_batch(
                hi - lo, t1 - t0, time_mod.perf_counter() - t1
            )
            obs.inc("serving.queries", hi - lo)
        if not outputs:
            return self._empty_scores()
        return np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------
    def serve_stream(
        self,
        ctdg: CTDG,
        query_nodes: np.ndarray,
        query_times: np.ndarray,
        *,
        ingest_batch: int = 1024,
        background: bool = True,
        prefetch_depth: int = 4,
    ) -> np.ndarray:
        """Replay a recorded stream through the service, returning scores.

        The edge/query interleave is planned with
        :func:`repro.streams.replay.iter_interleave` (edges win timestamp
        ties, §III), edges are ingested in micro-batches of
        ``ingest_batch``, and each query block is scored in micro-batches
        of ``micro_batch_size``.  With ``background=True`` the ordered
        state mutations (ingest + materialise) run on a producer thread
        while this thread runs the model forward — identical scores,
        overlapped wall-clock.
        """
        if ingest_batch <= 0:
            raise ValueError(f"ingest_batch must be positive, got {ingest_batch}")
        query_nodes = np.asarray(query_nodes, dtype=np.int64)
        query_times = np.asarray(query_times, dtype=np.float64)
        has_features = ctdg.edge_features is not None
        start_wall = time_mod.perf_counter()

        def materialised_chunks():
            """Ordered ingest + materialisation; yields scored-ready work."""
            for kind, lo, hi in iter_interleave(
                ctdg.times, query_times, max_block=ingest_batch
            ):
                if kind == "edges":
                    self._ingest_arrays(
                        ctdg.src[lo:hi],
                        ctdg.dst[lo:hi],
                        ctdg.times[lo:hi],
                        ctdg.edge_features[lo:hi] if has_features else None,
                        ctdg.weights[lo:hi],
                    )
                    continue
                for c_lo in range(lo, hi, self.micro_batch_size):
                    c_hi = min(c_lo + self.micro_batch_size, hi)
                    t0 = time_mod.perf_counter()
                    with obs.span("serving.materialise", queries=c_hi - c_lo):
                        bundle = self.store.materialise(
                            query_nodes[c_lo:c_hi], query_times[c_lo:c_hi]
                        )
                    yield c_lo, c_hi, bundle, time_mod.perf_counter() - t0

        chunks: List[Tuple[int, int, np.ndarray]] = []

        def consume(item) -> None:
            c_lo, c_hi, bundle, materialise_s = item
            t1 = time_mod.perf_counter()
            with obs.span("serving.score", queries=c_hi - c_lo):
                scores = self._score_bundle(bundle)
            self.metrics.record_batch(
                c_hi - c_lo, materialise_s, time_mod.perf_counter() - t1
            )
            obs.inc("serving.queries", c_hi - c_lo)
            chunks.append((c_lo, c_hi, scores))

        if background:
            work: queue_mod.Queue = queue_mod.Queue(maxsize=max(prefetch_depth, 1))
            _DONE = object()
            stop = threading.Event()

            def offer(item) -> bool:
                """Put with a stop check, so a dead consumer (scoring
                raised) never leaves this thread blocked on a full queue."""
                while not stop.is_set():
                    try:
                        work.put(item, timeout=0.1)
                        return True
                    except queue_mod.Full:
                        continue
                return False

            def producer() -> None:
                try:
                    for item in materialised_chunks():
                        if not offer(item):
                            return
                    offer(_DONE)
                except BaseException as error:  # surfaced on the consumer side
                    # The exception is swallowed here (handed across the
                    # queue), so threading.excepthook never fires — record
                    # the crash into the flight recorder explicitly.
                    obs.record_crash("serving-ingest", error)
                    offer(error)

            thread = threading.Thread(
                target=producer, name="serving-ingest", daemon=True
            )
            thread.start()
            try:
                while True:
                    # Bounded wait so a producer that dies without
                    # delivering its exception (e.g. killed, or a bug in
                    # the error path itself) can never strand this thread
                    # on an empty queue forever.
                    try:
                        item = work.get(timeout=1.0)
                    except queue_mod.Empty:
                        if not thread.is_alive():
                            raise RuntimeError(
                                "serving-ingest producer thread died "
                                "without delivering a result or exception"
                            ) from None
                        continue
                    if item is _DONE:
                        break
                    if isinstance(item, BaseException):
                        raise item
                    if obs.enabled():
                        # Ingest lag: materialised work waiting to score.
                        obs.set_gauge("serving.ingest.backlog", work.qsize())
                    consume(item)
            finally:
                stop.set()
                thread.join(timeout=30.0)
        else:
            for item in materialised_chunks():
                consume(item)

        self.metrics.wall_seconds += time_mod.perf_counter() - start_wall
        if not chunks:
            return self._empty_scores()
        first = chunks[0][2]
        out_shape = (len(query_nodes),) + first.shape[1:]
        scores_out = np.zeros(out_shape, dtype=first.dtype)
        for c_lo, c_hi, scores in chunks:
            scores_out[c_lo:c_hi] = scores
        return scores_out


