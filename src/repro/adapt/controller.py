"""The adaptation loop: monitor → trigger → windowed re-fit → shadow gate
→ atomic promotion into the running service.

:class:`AdaptiveService` wraps a :class:`~repro.serving.PredictionService`
with the full continual-adaptation control loop:

1. **monitor** — a :class:`~repro.adapt.DriftMonitor` attached to the
   service's store accumulates sliding-window statistics on the ingest
   hot path (a vectorised ring append per batch);
2. **trigger** — a :class:`~repro.adapt.RefitScheduler` polls the
   divergence score after every ingest batch and fires per its policy
   (threshold + cooldown by default);
3. **re-fit** — on alarm, the buffered window (edges + labelled queries)
   is re-fitted from scratch with :func:`repro.pipeline.splash.fit_window`
   — SPLASH selection may pick a *different* process than the serving
   model uses, which is precisely the adaptation the paper's Fig. 12
   calls for;
4. **shadow gate** — the candidate and the current pipeline are both
   evaluated on the window's held-out trailing slice (the re-fit split's
   test range, data neither trained on); a candidate that does not beat
   the current model is registered for audit but **rejected**;
5. **promotion** — a winning candidate is saved to the
   :class:`~repro.adapt.ModelRegistry`, promoted, and hot-swapped into
   the service *together with* a store warmed on exactly the window it
   trained on (plus any edges that arrived during the re-fit), so its
   training and serving feature state agree.

The swapped-in store knows the buffered window rather than the full
stream history — the windowed-adaptation trade-off: under shift, the
recent window is the distribution that matters (and the stale full-history
state is what the frozen baseline keeps losing accuracy to).

Re-fits run inline (deterministic; the benchmark's mode) or on the
scheduler's background worker; either way ingest keeps flowing — edges
arriving mid-re-fit are both served by the old state and logged for the
candidate store's catch-up replay, so promotion never loses stream
position.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.adapt.monitor import DriftMonitor
from repro.adapt.registry import ModelRegistry
from repro.adapt.scheduler import (
    CooldownTrigger,
    RefitScheduler,
    ThresholdTrigger,
    TriggerPolicy,
)
from repro.pipeline.splash import Splash, SplashConfig, fit_window
from repro.serving.config import ServingConfig
from repro.serving.service import PredictionService
from repro.serving.store import IncrementalContextStore
from repro.streams.ctdg import CTDG
from repro.streams.replay import iter_interleave
from repro.tasks.base import QuerySet, Task
from repro.tasks.classification import ClassificationTask
from repro.utils.logging import get_logger

logger = get_logger("adapt")


@dataclass
class AdaptationConfig:
    """Knobs of the monitor → trigger → re-fit → gate loop."""

    window_edges: int = 4096  # sliding re-fit/monitor window (edges)
    window_queries: int = 2048  # buffered labelled queries
    check_every: int = 512  # score cadence in ingested edges
    threshold: float = 0.2  # default ThresholdTrigger level
    cooldown_edges: Optional[int] = None  # default: window_edges // 2
    policy: Optional[TriggerPolicy] = None  # overrides threshold/cooldown
    reference_edges: Optional[int] = None  # freeze reference after N edges
    min_window_queries: int = 60  # skip re-fits on thinner windows
    refit_train_frac: float = 0.5  # window split: train
    refit_val_frac: float = 0.2  # window split: val (rest = shadow hold-out)
    min_improvement: float = 0.0  # gate: candidate must beat current by this
    background: bool = False  # re-fit on a worker thread

    def __post_init__(self) -> None:
        if self.window_edges <= 0 or self.window_queries <= 0:
            raise ValueError("window sizes must be positive")
        if not 0 < self.refit_train_frac + self.refit_val_frac < 1:
            raise ValueError(
                "refit_train_frac + refit_val_frac must leave a shadow "
                "hold-out in (0, 1)"
            )

    def build_policy(self) -> TriggerPolicy:
        if self.policy is not None:
            return self.policy
        cooldown = (
            self.cooldown_edges
            if self.cooldown_edges is not None
            else self.window_edges // 2
        )
        return CooldownTrigger(ThresholdTrigger(self.threshold), cooldown)


@dataclass
class RefitOutcome:
    """Audit record of one re-fit attempt."""

    triggered_at_edges: int
    promoted: bool
    reason: str
    candidate_metric: Optional[float] = None
    current_metric: Optional[float] = None
    selected_process: Optional[str] = None
    registry_version: Optional[int] = None
    drift: Dict[str, float] = field(default_factory=dict)


class AdaptiveService:
    """A drift-aware serving loop around one trained SPLASH pipeline.

    Parameters
    ----------
    splash:
        The initially-served pipeline (fitted or ``Splash.load``-ed).
    num_nodes:
        Global node-id space of the live stream.
    config:
        :class:`AdaptationConfig` (defaults are serving-scale).
    registry:
        Optional :class:`ModelRegistry`; every re-fit candidate (promoted
        or rejected) is registered there with its drift/metric context.
        ``None`` keeps adaptation purely in memory.
    refit_config:
        :class:`SplashConfig` for windowed re-fits; defaults to the served
        pipeline's config (same k, feature dim, engine, precision).
    task_factory:
        Builds a :class:`~repro.tasks.base.Task` from the window's label
        array for re-fit training and shadow evaluation.  Defaults to a
        :class:`ClassificationTask` over the serving model's output width.
    promotion_gate:
        Optional zero-arg health hook consulted *after* the shadow gate:
        a candidate that won on metrics is still held back (registered,
        not swapped) while the hook returns ``False``.  Wire it to
        ``SloEngine.promotion_gate()`` so cutover never happens while the
        serving plane is failing its SLOs — a hot swap under duress masks
        the incident and muddies the post-mortem.
    """

    def __init__(
        self,
        splash: Splash,
        num_nodes: int,
        *,
        config: Optional[AdaptationConfig] = None,
        registry: Optional[ModelRegistry] = None,
        refit_config: Optional[SplashConfig] = None,
        task_factory: Optional[Callable[[np.ndarray], Task]] = None,
        edge_feature_dim: Optional[int] = None,
        micro_batch_size: Optional[int] = None,
        persist_path: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        promotion_gate: Optional[Callable[[], bool]] = None,
    ) -> None:
        if splash.model is None or not splash.processes:
            raise RuntimeError(
                "AdaptiveService needs a fitted (or loaded) Splash"
            )
        self.config = config or AdaptationConfig()
        self.registry = registry
        self.promotion_gate = promotion_gate
        self.splash = splash
        self.refit_config = refit_config or splash.config
        self.num_nodes = int(num_nodes)
        output_dim = int(splash.model.decoder.dims[-1])
        if task_factory is None:
            if output_dim < 2:
                raise ValueError(
                    "default task_factory needs a classification head "
                    f"(output_dim >= 2, got {output_dim}); pass task_factory"
                )
            def task_factory(labels):
                return ClassificationTask(labels, output_dim)

        self.task_factory = task_factory

        self.service = PredictionService.from_splash(
            splash,
            num_nodes,
            edge_feature_dim,
            config=ServingConfig(
                micro_batch_size=micro_batch_size,
                persist_path=persist_path,
                snapshot_every=snapshot_every,
            ),
        )
        self.monitor = DriftMonitor(
            window_edges=self.config.window_edges,
            window_queries=self.config.window_queries,
            seen_mask=splash.processes[0].seen_mask,
            num_classes=output_dim if output_dim >= 2 else 0,
            edge_feature_dim=self.service.store.edge_feature_dim,
        )
        self.service.store.attach_monitor(self.monitor)
        self.scheduler = RefitScheduler(
            self.monitor,
            self.config.build_policy(),
            self._refit,
            check_every=self.config.check_every,
            background=self.config.background,
        )
        self.outcomes: List[RefitOutcome] = []
        self._reference_edges = (
            self.config.reference_edges
            if self.config.reference_edges is not None
            else self.config.window_edges
        )
        # Guards the catch-up log: edges ingested while a re-fit is
        # building its candidate store must also reach that store before
        # the swap, or promotion would lose stream position.
        self._ingest_lock = threading.Lock()
        self._pending: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    @property
    def metrics(self):
        return self.service.metrics

    def ingest_arrays(self, src, dst, times, features=None, weights=None) -> int:
        """Ingest one edge micro-batch and run the adaptation hooks."""
        with self._ingest_lock:
            count = self.service._ingest_arrays(src, dst, times, features, weights)
            if self._pending is not None and count:
                self._pending.append(
                    (
                        np.array(src, dtype=np.int64),
                        np.array(dst, dtype=np.int64),
                        np.array(times, dtype=np.float64),
                        None if features is None else np.array(features),
                        None if weights is None else np.array(weights),
                    )
                )
        if (
            self.monitor.reference is None
            and self.monitor.edges_observed >= self._reference_edges
        ):
            self.monitor.freeze_reference()
            logger.info(
                "drift reference frozen after %d edges",
                self.monitor.edges_observed,
            )
        self.scheduler.poll()
        return count

    def ingest(self, edges: CTDG) -> int:
        return self.ingest_arrays(
            edges.src, edges.dst, edges.times, edges.edge_features, edges.weights
        )

    def observe_labels(self, nodes, times, labels) -> None:
        """Feed revealed ground truth into the adaptation window."""
        self.monitor.observe_queries(nodes, times, labels)

    def predict(self, nodes, times) -> np.ndarray:
        return self.service.predict(nodes, times)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for an in-flight background re-fit."""
        self.scheduler.join(timeout)

    # ------------------------------------------------------------------
    def serve_labeled_stream(
        self,
        ctdg: CTDG,
        query_nodes: np.ndarray,
        query_times: np.ndarray,
        labels: np.ndarray,
        *,
        ingest_batch: int = 1024,
    ) -> np.ndarray:
        """Replay a recorded stream through the adaptive loop.

        Like :meth:`PredictionService.serve_stream`, but each query's
        ground-truth label is revealed to the adaptation window *after*
        the query is scored (the delayed-feedback protocol: predictions
        never see their own labels), which is what lets re-fits train on
        the recent past mid-stream.
        """
        query_nodes = np.asarray(query_nodes, dtype=np.int64)
        query_times = np.asarray(query_times, dtype=np.float64)
        labels = np.asarray(labels)
        if len(labels) != len(query_nodes):
            raise ValueError(
                f"{len(query_nodes)} queries but {len(labels)} labels"
            )
        has_features = ctdg.edge_features is not None
        chunks: List[tuple] = []
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
            scores = self.service.predict(query_nodes[lo:hi], query_times[lo:hi])
            chunks.append((lo, hi, scores))
            # Ground truth arrives only after scoring (delayed feedback).
            self.observe_labels(
                query_nodes[lo:hi], query_times[lo:hi], labels[lo:hi]
            )
        if not chunks:
            return self.service._empty_scores()
        first = chunks[0][2]
        out = np.zeros((len(query_nodes),) + first.shape[1:], dtype=first.dtype)
        for lo, hi, scores in chunks:
            out[lo:hi] = scores
        return out

    # ------------------------------------------------------------------
    def _capture_window(self):
        """Snapshot the re-fit window and open the catch-up log."""
        with self._ingest_lock:
            edge_arrays = self.monitor.window.edge_arrays()
            query_arrays = self.monitor.window.query_arrays()
            self._pending = []
        return edge_arrays, query_arrays

    def _build_candidate_store(
        self, candidate: Splash, edge_arrays
    ) -> IncrementalContextStore:
        """A store warmed on exactly the candidate's training window."""
        store = IncrementalContextStore(
            candidate.processes,
            candidate.config.k,
            self.num_nodes,
            self.service.store.edge_feature_dim,
            propagation=candidate.config.execution.propagation,
        )
        src, dst, times, features, weights = edge_arrays
        store.ingest_arrays(src, dst, times, features, weights)
        return store

    def _finish_refit(self, outcome: RefitOutcome, candidate, store) -> None:
        """Close the catch-up log; swap if the gate passed."""
        with self._ingest_lock:
            try:
                if candidate is not None and store is not None:
                    with obs.span(
                        "adapt.refit.swap", catch_up_batches=len(self._pending)
                    ):
                        for src, dst, times, features, weights in self._pending:
                            store.ingest_arrays(
                                src, dst, times, features, weights
                            )
                        self.service.hot_swap(
                            candidate.model,
                            store=store,
                            dtype=candidate.fit_dtype,
                        )
                    store.attach_monitor(self.monitor)
                    if self.service.persistence is not None:
                        # Checkpoints must follow the swap: re-bind the
                        # manifest to the candidate artifact + warmed
                        # store.  The store's warm-up edges (window +
                        # catch-up) are the durable log's most recent
                        # suffix — the window ring holds exactly the last
                        # edges at capture and the catch-up log everything
                        # since — so the manager records where in the
                        # global log this store's history begins and
                        # snapshots the new pair immediately.  A crash
                        # before the re-bind completes resumes the old
                        # pair, consistently.
                        self.service.persistence.rebind(
                            candidate,
                            store,
                            note=f"adaptation at {outcome.triggered_at_edges} edges",
                        )
                    self.splash = candidate
                    outcome.promoted = True
            except ValueError as error:
                # An incompatible candidate (e.g. different output width)
                # is a rejection, not a serving outage.
                outcome.promoted = False
                outcome.reason = f"hot_swap rejected: {error}"
                # The gate had already accepted this candidate, so a swap
                # failure is a rollback to the incumbent, not a plain skip.
                obs.inc("adapt.rollbacks")
                logger.warning("candidate rejected at swap: %s", error)
            finally:
                self._pending = None
                obs.inc(
                    "adapt.refits",
                    outcome="promoted" if outcome.promoted else "rejected",
                )

    def _refit(self) -> None:
        """One adaptation attempt: windowed re-fit → shadow gate → swap."""
        triggered_at = self.monitor.edges_observed
        drift = (
            self.scheduler.last_scores.as_dict()
            if self.scheduler.last_scores
            else {}
        )
        outcome = RefitOutcome(
            triggered_at_edges=triggered_at,
            promoted=False,
            reason="",
            drift=drift,
        )
        self.outcomes.append(outcome)

        with obs.span("adapt.refit", triggered_at=triggered_at):
            edge_arrays, (q_nodes, q_times, q_labels) = self._capture_window()
            candidate = store = None
            try:
                candidate, store = self._fit_and_gate(
                    outcome, edge_arrays, q_nodes, q_times, q_labels
                )
            finally:
                # Every exit path — skip, rejection, promotion, exception —
                # must close the catch-up log; a promoted candidate is
                # swapped in under the same lock acquisition.
                self._finish_refit(outcome, candidate, store)
            if outcome.promoted:
                if (
                    self.registry is not None
                    and outcome.registry_version is not None
                ):
                    self.registry.promote(outcome.registry_version)
                # The shifted window is the new normal.  Under the ingest
                # lock: in background mode this runs on the re-fit worker
                # while the serving thread may be appending to the same
                # ring buffers.
                with self._ingest_lock:
                    self.monitor.freeze_reference()
                logger.info(outcome.reason)

    def _fit_and_gate(self, outcome, edge_arrays, q_nodes, q_times, q_labels):
        """Windowed re-fit + shadow gate; returns a promotable pair or Nones."""
        if len(q_nodes) < self.config.min_window_queries:
            outcome.reason = (
                f"window too thin: {len(q_nodes)} labelled queries "
                f"< {self.config.min_window_queries}"
            )
            logger.info("refit skipped: %s", outcome.reason)
            return None, None

        try:
            src, dst, times, features, weights = edge_arrays
            window_ctdg = CTDG(
                src,
                dst,
                times,
                edge_features=features,
                weights=weights,
                num_nodes=self.num_nodes,
            )
            task = self.task_factory(q_labels)
            with obs.span(
                "adapt.refit.fit",
                window_edges=len(times),
                window_queries=len(q_nodes),
            ):
                candidate, window_ds, split = fit_window(
                    self.refit_config,
                    window_ctdg,
                    QuerySet(q_nodes, q_times),
                    task,
                    train_frac=self.config.refit_train_frac,
                    val_frac=self.config.refit_val_frac,
                )

            # Shadow gate: both pipelines score the window's trailing
            # hold-out — recent queries neither model trained on.
            with obs.span("adapt.refit.shadow_gate"):
                candidate_metric = candidate.evaluate(split.test_idx)
                current_metric = self.splash.attach(window_ds, split).evaluate(
                    split.test_idx
                )
            outcome.candidate_metric = float(candidate_metric)
            outcome.current_metric = float(current_metric)
            outcome.selected_process = candidate.selected_process

            if self.registry is not None:
                entry = self.registry.register(
                    candidate,
                    metrics={
                        "shadow_candidate": candidate_metric,
                        "shadow_current": current_metric,
                    },
                    drift=outcome.drift,
                    note=f"refit at {outcome.triggered_at_edges} edges",
                )
                outcome.registry_version = entry.version

            gate_passed = (
                candidate_metric >= current_metric + self.config.min_improvement
            )
            if not gate_passed:
                outcome.reason = (
                    f"shadow gate rejected: candidate {candidate_metric:.4f} "
                    f"< current {current_metric:.4f}"
                )
                logger.info(outcome.reason)
                return None, None

            # Health gate: a metrically-winning candidate still waits out
            # an active SLO incident (the registry entry above keeps it
            # auditable and re-promotable once the plane is healthy).
            if self.promotion_gate is not None and not self.promotion_gate():
                outcome.reason = (
                    f"health gate blocked promotion: candidate "
                    f"{candidate_metric:.4f} beat current "
                    f"{current_metric:.4f} but serving health is not ok"
                )
                obs.inc("adapt.health_gate.blocked")
                logger.warning(outcome.reason)
                return None, None

            store = self._build_candidate_store(candidate, edge_arrays)
            outcome.reason = (
                f"promoted: candidate {candidate_metric:.4f} >= "
                f"current {current_metric:.4f}"
            )
            return candidate, store
        except Exception:
            if not outcome.reason:
                outcome.reason = "refit raised"
            raise

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        promoted = sum(1 for outcome in self.outcomes if outcome.promoted)
        return {
            **self.scheduler.summary(),
            "refit_attempts": len(self.outcomes),
            "promotions": promoted,
            "rejections": len(self.outcomes) - promoted,
            **self.service.metrics.summary(),
        }
