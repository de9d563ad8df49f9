"""Span shims installed from outside the program, and the per-layer metrics
computed from them.

The benchmark does not change the code it measures.  Instead, a
:class:`Tracer` replaces public entry points of each layer with wrappers
that record a span (name, start, end, parent, request id) or bump a
counter, and restores the originals afterwards.  Spans stay in memory
and are written out once, at the end of the run.  Per-event functions
(``ReplayState.apply_edge``, ``write_query``) only bump counters, so the
shims do not swamp the work they measure.

The shims are class attributes, so they must be installed before the
serving client is built: the persistence journal binds
``PersistenceManager.append`` when it is created, and fleet workers are
forked from the router and inherit whatever is installed at fork time.
Spans recorded inside forked fleet workers stay in the workers' memory
and are not collected; the fleet layer is measured from the router side.
"""

from __future__ import annotations

import functools
import json
import pickle
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


_MISSING = object()

# (name, start, end, parent index or -1, request id)
Span = Tuple[str, float, float, int, int]


class Tracer:
    """In-memory span and counter recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._requests = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, before: Optional[Callable] = None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``before(args, kwargs)`` runs ahead of the clock, for counters
        that need the call's arguments.  A span with no enclosing span
        starts a new request id; nested spans inherit it.
        """
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
                request = spans[parent][4]
            else:
                parent = -1
                self._requests += 1
                request = self._requests
            index = len(spans)
            record = [name, 0.0, 0.0, parent, request]
            spans.append(record)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[1] = start
                stack.pop()

        return wrapper

    def count(self, fn: Callable, calls: str, sized: Optional[str] = None):
        """Wrap ``fn`` to bump ``calls`` per call and ``sized`` by the
        length of its first positional argument after ``self``."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            if sized is not None:
                counters[sized] += len(args[1])
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def counted(fn: Callable, before: Callable):
        """Wrap ``fn`` to run ``before(args, kwargs)`` first, with no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(current)``; undone by
        :meth:`uninstall`.  Inherited attributes are shadowed, then
        removed again."""
        original = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One JSON line per span, then one line with the counters."""
        with open(path, "w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, request in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(index, []), start, end)
        for index, (name, start, end, parent, request) in enumerate(spans)
    ]


# ----------------------------------------------------------------------
# What is traced
# ----------------------------------------------------------------------
def install_shims(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.pipeline.splash as splash_module
    from repro.features.positional import PositionalFeatureProcess
    from repro.features.random_feat import RandomFeatureProcess
    from repro.features.structural import StructuralFeatureProcess
    from repro.models.base import ContextModel
    from repro.models.context import ReplayState
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.selection.linear_model import LinearRiskModel
    from repro.selection.selector import FeatureSelector
    from repro.serving.fleet import FleetRouter, ServingClient, _WorkerHandle
    from repro.serving.persistence import EventLog, PersistenceManager
    from repro.serving.service import PredictionService
    from repro.serving.store import IncrementalContextStore

    counters = tracer.counters

    def spans(owner, attr, name, before=None):
        tracer.patch(owner, attr, lambda fn: tracer.span(name, fn, before))

    def count_events(args, kwargs):
        ctdg, queries = args[0], args[1]
        counters["context.events"] += ctdg.num_edges + len(queries)

    # Training pipeline.
    spans(splash_module.Splash, "fit", "job.fit")
    spans(splash_module.Splash, "predict_scores", "job.predict")
    spans(RandomFeatureProcess, "fit", "features.random.fit")
    spans(PositionalFeatureProcess, "fit", "features.positional.fit")
    spans(StructuralFeatureProcess, "fit", "features.structural.fit")
    # Splash.fit calls the name bound in its own module.
    spans(splash_module, "build_context_bundle", "context.build", count_events)
    spans(FeatureSelector, "select", "selection.select")
    spans(LinearRiskModel, "fit", "selection.probe_fit")
    spans(ContextModel, "fit", "slim.fit")
    spans(ContextModel, "forward_queries", "slim.forward")
    spans(ContextModel, "predict_scores", "slim.predict")
    spans(Tensor, "backward", "slim.backward")
    spans(Adam, "step", "optim.step")

    # Serving front door, store, replay core, scoring, persistence.
    spans(ServingClient, "ingest", "client.ingest")
    spans(ServingClient, "predict", "client.predict")
    spans(IncrementalContextStore, "ingest_arrays", "store.ingest")
    spans(IncrementalContextStore, "materialise", "store.materialise")
    tracer.patch(
        ReplayState,
        "apply_edge_block",
        lambda fn: tracer.count(fn, "replay.block_calls", "replay.block_edges"),
    )
    tracer.patch(
        ReplayState, "apply_edge", lambda fn: tracer.count(fn, "replay.event_edges")
    )
    tracer.patch(
        ReplayState, "write_query", lambda fn: tracer.count(fn, "replay.write_queries")
    )
    spans(PredictionService, "_score_bundle", "service.score")
    spans(PersistenceManager, "append", "persist.append")
    spans(PersistenceManager, "snapshot", "persist.snapshot")
    spans(EventLog, "flush", "persist.flush")

    # Fleet router.  Bytes sent are computed, not observed: the pickled
    # size of every ingest or materialise command the router sends a shard.
    def sent_bytes(args, kwargs):
        _handle, command, *payload = args
        if command in ("ingest", "materialise"):
            message = (command, payload[0] if payload else kwargs.get("payload"))
            counters["fleet.bytes_sent"] += len(pickle.dumps(message))

    spans(FleetRouter, "ingest_arrays", "fleet.ingest")
    spans(FleetRouter, "predict", "fleet.predict")
    tracer.patch(
        _WorkerHandle, "start_call", lambda fn: tracer.counted(fn, sent_bytes)
    )


# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "features.random.fit_s": "s",
    "features.positional.fit_s": "s",
    "features.structural.fit_s": "s",
    "context.build_s": "s",
    "context.events": "count",
    "selection.select_s": "s",
    "selection.probe_fits": "count",
    "selection.probe_fit_s": "s",
    "slim.fit_s": "s",
    "slim.epochs": "count",
    "slim.minibatches": "count",
    "slim.forward_s": "s",
    "slim.backward_s": "s",
    "optim.step_s": "s",
    "slim.predict_s": "s",
    "store.ingest_s": "s",
    "store.ingest_calls": "count",
    "store.materialise_s": "s",
    "store.materialise_calls": "count",
    "replay.block_calls": "count",
    "replay.block_edges": "count",
    "replay.event_edges": "count",
    "replay.vectorised_share": "ratio",
    "replay.write_queries": "count",
    "service.score_s": "s",
    "service.self_s": "s",
    "persist.append_s": "s",
    "persist.flush_s": "s",
    "persist.snapshot_s": "s",
    "persist.snapshots": "count",
    "persist.disk_bytes": "bytes",
    "fleet.ingest_s": "s",
    "fleet.predict_s": "s",
    "fleet.bytes_sent": "bytes",
    "fleet.shard_skew": "ratio",
    "trace.job_overhead_s": "s",
    "trace.query_p50_overhead_ms": "ms",
}

# Inclusive time of every span with this name.
_SPAN_TIMES = {
    "features.random.fit_s": "features.random.fit",
    "features.positional.fit_s": "features.positional.fit",
    "features.structural.fit_s": "features.structural.fit",
    "context.build_s": "context.build",
    "selection.select_s": "selection.select",
    "selection.probe_fit_s": "selection.probe_fit",
    "slim.fit_s": "slim.fit",
    "slim.predict_s": "slim.predict",
    "store.ingest_s": "store.ingest",
    "store.materialise_s": "store.materialise",
    "service.score_s": "service.score",
    "persist.append_s": "persist.append",
    "persist.flush_s": "persist.flush",
    "persist.snapshot_s": "persist.snapshot",
    "fleet.ingest_s": "fleet.ingest",
    "fleet.predict_s": "fleet.predict",
}
# Number of spans with this name.
_SPAN_COUNTS = {
    "selection.probe_fits": "selection.probe_fit",
    "store.ingest_calls": "store.ingest",
    "store.materialise_calls": "store.materialise",
    "persist.snapshots": "persist.snapshot",
}
# Training-step spans: only those called directly by the SLIM fit loop
# (validation forwards run under slim.predict, selection probes under
# selection.probe_fit).
_TRAIN_STEP_TIMES = {
    "slim.forward_s": "slim.forward",
    "slim.backward_s": "slim.backward",
    "optim.step_s": "optim.step",
}


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-layer totals over the traced passes, divided by ``passes``.

    Counters the benchmark adds itself (``slim.epochs``,
    ``persist.disk_bytes``, ``fleet.shard_skew`` and the trace overhead)
    arrive through ``tracer.counters``; a layer a workload bypasses
    reports 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    time_by: Dict[str, float] = defaultdict(float)
    count_by: Dict[str, int] = defaultdict(int)
    train_step: Dict[str, float] = defaultdict(float)
    minibatches = 0
    client_self = 0.0
    for (name, start, end, parent, request), own in zip(spans, selfs):
        time_by[name] += end - start
        count_by[name] += 1
        if parent >= 0 and spans[parent][0] == "slim.fit":
            train_step[name] += end - start
            if name == "optim.step":
                minibatches += 1
        if name.startswith("client."):
            client_self += own
    counters = tracer.counters
    block, event = counters["replay.block_edges"], counters["replay.event_edges"]
    totals = {
        **{metric: time_by[span] for metric, span in _SPAN_TIMES.items()},
        **{metric: count_by[span] for metric, span in _SPAN_COUNTS.items()},
        **{metric: train_step[span] for metric, span in _TRAIN_STEP_TIMES.items()},
        "slim.minibatches": minibatches,
        "service.self_s": client_self,
        "replay.block_calls": counters["replay.block_calls"],
        "replay.block_edges": block,
        "replay.event_edges": event,
        "replay.write_queries": counters["replay.write_queries"],
        "context.events": counters["context.events"],
        "slim.epochs": counters["slim.epochs"],
        "persist.disk_bytes": counters["persist.disk_bytes"],
        "fleet.bytes_sent": counters["fleet.bytes_sent"],
    }
    out = {metric: float(value) / passes for metric, value in totals.items()}
    # Ratios and differences describe the run, not one pass.
    out["replay.vectorised_share"] = block / (block + event) if block + event else 0.0
    for metric in (
        "fleet.shard_skew",
        "trace.job_overhead_s",
        "trace.query_p50_overhead_ms",
    ):
        out[metric] = float(counters[metric])
    return {metric: out[metric] for metric in LAYER_UNITS}


def self_time_table(tracer: Tracer) -> List[Tuple[str, int, float, float]]:
    """(span name, calls, inclusive s, self s) rows, slowest self first."""
    rows: Dict[str, list] = {}
    for (name, start, end, _parent, _request), own in zip(
        tracer.spans, self_times(tracer.spans)
    ):
        row = rows.setdefault(name, [name, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += end - start
        row[3] += own
    return sorted((tuple(row) for row in rows.values()), key=lambda r: -r[3])
