"""Chronological replay of an edge stream interleaved with label queries.

This is the execution model of Fig. 4 in the paper: temporal edges and label
queries arrive over time; each edge updates streaming state (memory), and
each query reads the state accumulated *up to and including* time t
(predictions use {δ : t(δ) ≤ t}, §III).  On equal timestamps edges are
processed before queries, matching that inclusive definition.

Two replay engines share those semantics (see DESIGN.md §3):

* :func:`replay` visits events one at a time through the per-event
  :class:`StreamProcessor` interface — simple, and the reference for
  equivalence tests;
* :func:`replay_batched` groups maximal runs of consecutive edges (and of
  consecutive queries) between interaction points and dispatches them as
  numpy array *blocks* to :class:`BatchStreamProcessor` consumers.  The
  interleave is computed once with a vectorised ``searchsorted`` instead of
  a Python merge loop, and blocks are views into the CTDG's columnar
  storage (no per-event copying).  Per-event processors keep working under
  the batched engine via :class:`PerEventAdapter`.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.streams.ctdg import CTDG


class StreamProcessor(Protocol):
    """Callback interface for components that consume a replayed stream."""

    def on_edge(
        self,
        index: int,
        src: int,
        dst: int,
        time: float,
        feature: Optional[np.ndarray],
        weight: float,
    ) -> None: ...

    def on_query(self, index: int, node: int, time: float) -> None: ...


class BatchStreamProcessor(Protocol):
    """Block-wise counterpart of :class:`StreamProcessor`.

    ``on_edge_block`` receives edges ``[start, stop)`` of the stream as
    parallel array views (``features`` is ``None`` for featureless streams,
    else the ``(stop - start, d_e)`` block).  ``on_query_block`` receives
    queries ``[start, stop)``.  Blocks arrive in time order and a query
    block reflects all edge blocks dispatched before it — state read inside
    ``on_query_block`` must therefore be inclusive of every prior edge.
    """

    def on_edge_block(
        self,
        start: int,
        stop: int,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        features: Optional[np.ndarray],
        weights: np.ndarray,
    ) -> None: ...

    def on_query_block(
        self, start: int, stop: int, nodes: np.ndarray, times: np.ndarray
    ) -> None: ...


class PerEventAdapter:
    """Adapts a per-event :class:`StreamProcessor` to the block interface.

    This is the compatibility bridge: any existing processor can run under
    :func:`replay_batched` unchanged (at per-event cost).
    """

    def __init__(self, processor: StreamProcessor) -> None:
        self.processor = processor

    def on_edge_block(self, start, stop, src, dst, times, features, weights) -> None:
        on_edge = self.processor.on_edge
        for offset in range(stop - start):
            feature = features[offset] if features is not None else None
            on_edge(
                start + offset,
                int(src[offset]),
                int(dst[offset]),
                float(times[offset]),
                feature,
                float(weights[offset]),
            )

    def on_query_block(self, start, stop, nodes, times) -> None:
        on_query = self.processor.on_query
        for offset in range(stop - start):
            on_query(start + offset, int(nodes[offset]), float(times[offset]))


def as_batch_processor(processor) -> BatchStreamProcessor:
    """Return ``processor`` if it already speaks blocks, else wrap it."""
    if hasattr(processor, "on_edge_block") and hasattr(processor, "on_query_block"):
        return processor
    return PerEventAdapter(processor)


def _normalize_queries(
    query_nodes: Optional[np.ndarray], query_times: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce the query arrays shared by both replay engines."""
    if (query_nodes is None) != (query_times is None):
        raise ValueError("query_nodes and query_times must be given together")
    if query_times is None:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    query_nodes = np.asarray(query_nodes, dtype=np.int64)
    query_times = np.asarray(query_times, dtype=np.float64)
    if query_nodes.shape != query_times.shape:
        raise ValueError("query arrays must have the same shape")
    if query_times.size and np.any(np.diff(query_times) < 0):
        raise ValueError("query times must be non-decreasing")
    return query_nodes, query_times


def interleave_cuts(
    edge_times: np.ndarray,
    query_times: np.ndarray,
    stop_time: Optional[float] = None,
) -> Tuple[np.ndarray, int, int]:
    """The edge/query interleave shared by the batched and sharded engines.

    Returns ``(cuts, edge_stop, query_stop)`` where ``cuts[q]`` is the
    number of edges processed strictly before query ``q`` — edges win ties
    at equal timestamps (the §III inclusive-time rule) — and the two stops
    bound the replay when ``stop_time`` truncates it.  ``cuts`` is
    non-decreasing, which is what makes contiguous partitions of the
    interleave (see :func:`plan_shards`) well defined.
    """
    edge_stop = len(edge_times)
    query_stop = len(query_times)
    if stop_time is not None:
        edge_stop = int(np.searchsorted(edge_times, stop_time, side="right"))
        query_stop = int(np.searchsorted(query_times, stop_time, side="right"))
    cuts = np.searchsorted(
        edge_times[:edge_stop], query_times[:query_stop], side="right"
    ).astype(np.int64)
    return cuts, edge_stop, query_stop


def plan_shards(
    cuts: np.ndarray, num_edges: int, num_shards: int
) -> List[Tuple[int, int, int, int]]:
    """Partition the interleave into contiguous ``(e_lo, e_hi, q_lo, q_hi)`` shards.

    Queries are split into ``num_shards`` near-equal contiguous ranges and
    every shard receives exactly the edges that precede its successor's
    first query: shard ``s`` owns edges ``[cuts[q_lo(s)], cuts[q_lo(s+1)))``
    (the last shard additionally owns the trailing edges after the final
    query).  Boundaries therefore fall on interaction points of the
    interleave — a tie between an edge and a query is never split the wrong
    way round, because ``cuts`` already resolved it edges-first.  Shards
    with empty query ranges (``num_shards`` > #queries) or empty edge
    ranges are legal and must be handled by consumers.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    num_queries = len(cuts)
    q_bounds = np.linspace(0, num_queries, num_shards + 1).round().astype(np.int64)
    e_bounds = np.empty(num_shards + 1, dtype=np.int64)
    e_bounds[0] = 0
    e_bounds[num_shards] = num_edges
    for s in range(1, num_shards):
        q = int(q_bounds[s])
        e_bounds[s] = int(cuts[q]) if q < num_queries else num_edges
    return [
        (int(e_bounds[s]), int(e_bounds[s + 1]), int(q_bounds[s]), int(q_bounds[s + 1]))
        for s in range(num_shards)
    ]


def endpoint_shard(
    nodes, num_shards: int
):
    """Stable endpoint-hash shard assignment for node ids.

    Maps each node id to a shard in ``[0, num_shards)`` via the SplitMix64
    finaliser — a fixed bijective mixer, so the assignment is deterministic
    across processes, platforms, and restarts (a fleet worker that resumes
    from its persistence root must own exactly the nodes it owned before),
    yet decorrelated from id order (consecutive ids, e.g. one community's
    block of the id space, spread across shards instead of landing on one).
    Accepts a scalar or an array; returns the same shape (``int64``).
    Negative ids are folded through two's complement — any int64 hashes.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    scalar = np.isscalar(nodes) or np.ndim(nodes) == 0
    z = np.atleast_1d(np.asarray(nodes, dtype=np.int64)).astype(np.uint64)
    z = (z + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    shards = (z % np.uint64(num_shards)).astype(np.int64)
    if scalar:
        return int(shards[0])
    return shards


def plan_update_blocks(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Partition an edge sequence into maximal endpoint-disjoint runs.

    Returns a non-decreasing int64 boundary array ``bounds`` with
    ``bounds[0] == 0`` and ``bounds[-1] == len(src)``; run ``i`` spans
    edges ``[bounds[i], bounds[i+1])``.  Within one run no two *distinct*
    edges share a node (a self-loop is a single edge and is allowed), so
    every update of the run reads state no other edge of the run writes:
    applying the run as one gather + scatter
    (:meth:`repro.features.base.OnlineFeatureStore.on_edge_block`) is
    bit-for-bit equivalent to the per-event order.  The same invariant
    makes each run's row indices duplicate-free, so a run's scatter writes
    every row once.  Concatenating the runs reproduces the input order
    exactly.
    Callers may substitute unique
    sentinel ids for endpoints they know to be read-only (all-static
    nodes) to exempt them from conflict detection — see
    ``repro.models.context``.

    Runs are greedy maximal — each extends until the first edge that
    shares an endpoint with an earlier edge of the run.  Planning is one
    stable argsort of the interleaved endpoints (each edge's *latest
    earlier* endpoint-sharing edge falls out of adjacent duplicates) plus
    a single integer-compare scan for the boundaries, so cost is
    O(E log E) numpy work regardless of how dense the conflicts are.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError(
            f"src and dst must be equal-length 1-D arrays, got {src.shape} "
            f"and {dst.shape}"
        )
    num_edges = len(src)
    if num_edges == 0:
        return np.zeros(1, dtype=np.int64)
    values = np.empty(2 * num_edges, dtype=np.int64)
    values[0::2] = src
    values[1::2] = dst
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    # prev[p] = the latest interleave position < p holding the same node id
    # (-1 if none).  Stable sort keeps positions ascending within each
    # group of equal values, so that predecessor is the adjacent entry.
    prev = np.full(2 * num_edges, -1, dtype=np.int64)
    equal = sorted_values[1:] == sorted_values[:-1]
    prev[order[1:][equal]] = order[:-1][equal]
    # A self-loop's two positions alias each other; hop one group entry
    # further to reach the genuine earlier *edge*.  One hop suffices: an
    # edge contributes two entries to one value group only as a self-loop.
    has_prev = prev >= 0
    positions = np.arange(2 * num_edges)
    same_edge = np.zeros(2 * num_edges, dtype=bool)
    same_edge[has_prev] = (prev[has_prev] >> 1) == (positions[has_prev] >> 1)
    prev[same_edge] = prev[prev[same_edge]]
    # conflict[e] = latest earlier edge sharing an endpoint with e (-1 if
    # none; arithmetic shift keeps -1 at -1).
    conflict = np.maximum(prev[0::2] >> 1, prev[1::2] >> 1)

    bounds = [0]
    start = 0
    conflicts = conflict.tolist()
    for edge in range(1, num_edges):
        if conflicts[edge] >= start:
            bounds.append(edge)
            start = edge
    bounds.append(num_edges)
    return np.asarray(bounds, dtype=np.int64)


def iter_interleave(
    edge_times: np.ndarray,
    query_times: np.ndarray,
    stop_time: Optional[float] = None,
    max_block: Optional[int] = None,
):
    """Yield the edge/query interleave as ``(kind, lo, hi)`` block tuples.

    ``kind`` is ``"edges"`` or ``"queries"`` and ``[lo, hi)`` indexes the
    respective array.  Blocks arrive in replay order — maximal runs of
    consecutive edges, then the queries they precede — with edges winning
    ties at equal timestamps (the §III inclusive-time rule).  ``max_block``
    splits long edge runs into chunks of at most that many edges; chunk
    boundaries may land anywhere, including between two edges sharing one
    timestamp, without changing the overall order.

    This is the block plan shared by :func:`replay_batched` and the serving
    layer's micro-batched ingest/score driver
    (:mod:`repro.serving.service`).
    """
    if max_block is not None and max_block <= 0:
        raise ValueError(f"max_block must be positive, got {max_block}")
    cuts, edge_stop, query_stop = interleave_cuts(edge_times, query_times, stop_time)

    def edge_chunks(start: int, stop: int):
        step = max_block or (stop - start)
        for lo in range(start, stop, step):
            yield ("edges", lo, min(lo + step, stop))

    # cuts[q] = number of edges processed before query q (edges win ties).
    edge_ptr = 0
    q = 0
    while q < query_stop:
        cut = int(cuts[q])
        if cut > edge_ptr:
            yield from edge_chunks(edge_ptr, cut)
            edge_ptr = cut
        q_end = int(np.searchsorted(cuts, cut, side="right"))
        yield ("queries", q, q_end)
        q = q_end
    if edge_ptr < edge_stop:
        yield from edge_chunks(edge_ptr, edge_stop)


def replay(
    ctdg: CTDG,
    query_nodes: Optional[np.ndarray],
    query_times: Optional[np.ndarray],
    processors: Sequence[StreamProcessor],
    stop_time: Optional[float] = None,
) -> None:
    """Replay ``ctdg`` and the query stream through ``processors`` in time order.

    Parameters
    ----------
    query_nodes, query_times:
        Parallel arrays defining label queries (may be ``None`` for an
        edge-only replay).  ``query_times`` must be non-decreasing.
    stop_time:
        If given, replay halts after all events with time ≤ ``stop_time``.
    """
    query_nodes, query_times = _normalize_queries(query_nodes, query_times)

    num_edges = ctdg.num_edges
    num_queries = len(query_times)
    edge_ptr = 0
    query_ptr = 0
    has_features = ctdg.edge_features is not None

    while edge_ptr < num_edges or query_ptr < num_queries:
        edge_time = ctdg.times[edge_ptr] if edge_ptr < num_edges else np.inf
        query_time = query_times[query_ptr] if query_ptr < num_queries else np.inf
        next_time = min(edge_time, query_time)
        if stop_time is not None and next_time > stop_time:
            break
        if edge_time <= query_time:
            feature = ctdg.edge_features[edge_ptr] if has_features else None
            src = int(ctdg.src[edge_ptr])
            dst = int(ctdg.dst[edge_ptr])
            weight = float(ctdg.weights[edge_ptr])
            time = float(edge_time)
            for processor in processors:
                processor.on_edge(edge_ptr, src, dst, time, feature, weight)
            edge_ptr += 1
        else:
            node = int(query_nodes[query_ptr])
            time = float(query_time)
            for processor in processors:
                processor.on_query(query_ptr, node, time)
            query_ptr += 1


def replay_batched(
    ctdg: CTDG,
    query_nodes: Optional[np.ndarray],
    query_times: Optional[np.ndarray],
    processors: Sequence[BatchStreamProcessor],
    stop_time: Optional[float] = None,
    max_block: Optional[int] = None,
) -> None:
    """Replay ``ctdg`` through block processors, grouping runs between queries.

    Event ordering is identical to :func:`replay` — edges precede queries at
    equal timestamps (the §III inclusive-time rule), ties among edges and
    among queries keep stream order — but consecutive events of the same
    kind are delivered as one array block.  Per-event processors are wrapped
    with :class:`PerEventAdapter` automatically.

    Dispatch is *processor-major within a block*: each processor consumes
    the whole block before the next processor sees its first event (under
    :func:`replay`, processors alternate per event).  Processors must
    therefore be independent of each other's mid-block state — true for
    every processor in this repository; co-dependent processor chains
    must use :func:`replay`.

    Parameters
    ----------
    max_block:
        Optional upper bound on edge-block length (memory control for
        edge-only replays, where the whole stream is a single run).
    """
    query_nodes, query_times = _normalize_queries(query_nodes, query_times)

    batch_processors = [as_batch_processor(p) for p in processors]
    has_features = ctdg.edge_features is not None

    for kind, lo, hi in iter_interleave(
        ctdg.times, query_times, stop_time, max_block
    ):
        if kind == "edges":
            features = ctdg.edge_features[lo:hi] if has_features else None
            for processor in batch_processors:
                processor.on_edge_block(
                    lo,
                    hi,
                    ctdg.src[lo:hi],
                    ctdg.dst[lo:hi],
                    ctdg.times[lo:hi],
                    features,
                    ctdg.weights[lo:hi],
                )
        else:
            for processor in batch_processors:
                processor.on_query_block(
                    lo, hi, query_nodes[lo:hi], query_times[lo:hi]
                )
