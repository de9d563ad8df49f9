"""Materialised query contexts: one chronological replay, many model runs.

TGNNs make predictions at query time from the k most recent temporal edges
of the target node (Eq. 6) plus streaming feature state.  For epoch-based
training it is standard (DyGLib, TGL) to *materialise* each query's context
once — this module performs that single replay, recording for every query:

* the k-recent neighbour ids, edge times, edge features, and edge weights;
* each neighbour's degree at edge time (for structural features);
* per-feature-process snapshots x_j(t(l)) of neighbour features at edge
  time, and x_i(t) of the target at query time (Eqs. 4-5 evolve features
  over time, so snapshots cannot be recovered after the fact).

The result, a :class:`ContextBundle`, is the common input to SLIM and every
context-based baseline, guaranteeing all methods see identical information.

Two recorder implementations produce byte-identical bundles:

* :class:`_BundleCollector` — the per-event reference, one Python callback
  per edge/query (kept as the equivalence oracle and generic fallback);
* :class:`_BatchedBundleCollector` — the production path.  It consumes
  array blocks from :func:`repro.streams.replay.replay_batched`, appending
  them to columnar *incidence logs* (two incidences per edge, one per
  endpoint), and defers all per-query work to one vectorised ``finalize``
  pass: degree tracking becomes a grouped cumulative count, the k-recent
  neighbour buffers become a ``searchsorted`` over the owner-sorted log,
  and feature snapshots become table gathers plus a compact log of the few
  evolving (unseen-node) vectors — no per-edge ``.copy()`` calls.  Only
  edges touching a non-static node (feature propagation, Eqs. 4-5) run
  through the sequential store pass — itself vectorised by the blocked
  propagation mode (``propagation="blocked"``, the default), which
  scatter-updates maximal endpoint-disjoint runs planned by
  :func:`repro.streams.replay.plan_update_blocks` and fills preallocated
  snapshot logs, bit-for-bit equal to the per-event reference (see
  DESIGN.md §3).

A third engine, ``engine="sharded"``, partitions the precomputed
edge/query interleave (:func:`repro.streams.replay.plan_shards`) into
contiguous time-window shards and runs the batched collection *per shard*,
optionally in worker processes.  Each shard is collected against only its
own incidence log; a sequential merge pass then stitches the shards
together, carrying three pieces of state across every shard boundary:

* per-node **degree offsets** (incidence counts accumulated by earlier
  shards), which turn shard-local degrees into the global deg_i(t);
* per-node **k-recent tails** (the last ≤ k incidences each node produced
  in earlier shards), which fill query slots the local shard cannot; and
* the **evolving unseen-node feature state** — the genuinely sequential
  propagation of Eqs. 4-5 — which runs once over the full stream in the
  parent (overlapped with the workers) and is spliced in by snapshot-log
  index exactly as the batched engine does.

The result is bit-for-bit identical to both other engines (see
DESIGN.md §3 and ``tests/streams/test_engine_equivalence.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.features.base import FeatureProcess, OnlineFeatureStore
from repro.features.random_feat import StaticStore
from repro.features.structural import StructuralFeatureProcess, degree_encoding
from repro.streams.ctdg import CTDG
from repro.streams.degrees import DegreeTracker
from repro.streams.neighbors import NeighborEntry, RecentNeighborBuffer
from repro.streams.replay import (
    endpoint_shard,
    interleave_cuts,
    plan_shards,
    plan_update_blocks,
    replay,
    replay_batched,
)
from repro.tasks.base import QuerySet


# Runs shorter than this take the per-event path inside the blocked
# propagation pass: below it, numpy dispatch overhead outweighs the
# vectorisation gain (hub-dominated conflict regions produce many 1-3 edge
# runs; measured crossover ~8 on the email-eu-like stream).  Shared by the
# offline collectors and the serving ingest.
_MIN_VECTOR_RUN = 8


@dataclass
class ContextBundle:
    """Columnar per-query contexts over a full stream replay."""

    ctdg: CTDG
    queries: QuerySet
    k: int
    neighbor_nodes: np.ndarray  # (Q, k) int64, -1 where padded
    neighbor_times: np.ndarray  # (Q, k) float
    neighbor_degrees: np.ndarray  # (Q, k) int64: deg_j(t(l)) at edge time
    edge_features: np.ndarray  # (Q, k, d_e)
    edge_weights: np.ndarray  # (Q, k) float
    mask: np.ndarray  # (Q, k) bool, True where a neighbour entry exists
    target_degrees: np.ndarray  # (Q,) deg_i(t) at query time
    target_last_times: np.ndarray  # (Q,) time of target's latest edge (or query time)
    target_seen: np.ndarray  # (Q,) bool: target appeared during training period
    target_features: Dict[str, np.ndarray] = field(default_factory=dict)
    neighbor_features: Dict[str, np.ndarray] = field(default_factory=dict)
    structural_params: Dict[str, float] = field(default_factory=dict)
    static_tables: Dict[str, np.ndarray] = field(default_factory=dict)

    JOINT_NAME = "joint"

    # ------------------------------------------------------------------
    @property
    def num_queries(self) -> int:
        return len(self.queries)

    @property
    def edge_feature_dim(self) -> int:
        return int(self.edge_features.shape[2])

    @property
    def feature_names(self) -> List[str]:
        names = set(self.target_features) | set(self.static_tables)
        if self.structural_params:
            names.add("structural")
        return sorted(names)

    @property
    def splash_candidates(self) -> List[str]:
        """The SPLASH candidate processes present: {random, positional,
        structural} ∩ available."""
        wanted = ("random", "positional", "structural")
        return [name for name in wanted if name in self.feature_names]

    def feature_dim(self, name: str) -> int:
        if name in self.target_features:
            return int(self.target_features[name].shape[1])
        if name in self.static_tables:
            return int(self.static_tables[name].shape[1])
        if name == "structural" and self.structural_params:
            return int(self.structural_params["dim"])
        if name == self.JOINT_NAME:
            return sum(self.feature_dim(part) for part in self.splash_candidates)
        raise KeyError(f"no feature process {name!r} in this bundle")

    def get_target_features(
        self, name: str, idx: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(Q, d_v) features of the target node at query time for process ``name``.

        Pass ``idx`` to restrict to a query subset (lazily computed
        structural/static features are then only produced for those rows).
        ``name`` may also be ``"joint"``: the concatenation of all SPLASH
        candidate processes (for the SLIM+Joint ablation).
        """
        if name == self.JOINT_NAME:
            return np.concatenate(
                [
                    self.get_target_features(part, idx)
                    for part in self.splash_candidates
                ],
                axis=-1,
            )
        if name in self.target_features:
            table = self.target_features[name]
            return table if idx is None else table[idx]
        if name in self.static_tables:
            nodes = self.queries.nodes if idx is None else self.queries.nodes[idx]
            return self.static_tables[name][nodes]
        if name == "structural" and self.structural_params:
            degrees = self.target_degrees if idx is None else self.target_degrees[idx]
            return degree_encoding(
                degrees,
                int(self.structural_params["dim"]),
                self.structural_params["alpha"],
            )
        raise KeyError(f"no feature process {name!r} in this bundle")

    def get_neighbor_features(
        self, name: str, idx: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(Q, k, d_v) features of each buffered neighbour at its edge time."""
        if name == self.JOINT_NAME:
            return np.concatenate(
                [
                    self.get_neighbor_features(part, idx)
                    for part in self.splash_candidates
                ],
                axis=-1,
            )
        if name in self.neighbor_features:
            table = self.neighbor_features[name]
            return table if idx is None else table[idx]
        if name in self.static_tables:
            nodes = self.neighbor_nodes if idx is None else self.neighbor_nodes[idx]
            mask = self.mask if idx is None else self.mask[idx]
            safe = np.maximum(nodes, 0)
            gathered = self.static_tables[name][safe]
            gathered[~mask] = 0.0
            return gathered
        if name == "structural" and self.structural_params:
            degrees = (
                self.neighbor_degrees if idx is None else self.neighbor_degrees[idx]
            )
            return degree_encoding(
                degrees,
                int(self.structural_params["dim"]),
                self.structural_params["alpha"],
            )
        raise KeyError(f"no feature process {name!r} in this bundle")

    def time_deltas(self, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """(Q, k) non-negative gaps between query time and each edge time."""
        times = self.queries.times if idx is None else self.queries.times[idx]
        neighbor_times = (
            self.neighbor_times if idx is None else self.neighbor_times[idx]
        )
        mask = self.mask if idx is None else self.mask[idx]
        deltas = times[:, None] - neighbor_times
        deltas[~mask] = 0.0
        return np.maximum(deltas, 0.0)

    def neighbor_counts(self) -> np.ndarray:
        return self.mask.sum(axis=1)


class _QueryOutputs:
    """The bundle's per-query output arrays, shared by both collectors."""

    def __init__(
        self,
        num_queries: int,
        k: int,
        edge_feature_dim: int,
        stores: Dict[str, OnlineFeatureStore],
    ) -> None:
        q = num_queries
        self.neighbor_nodes = np.full((q, k), -1, dtype=np.int64)
        self.neighbor_times = np.zeros((q, k))
        self.neighbor_degrees = np.zeros((q, k), dtype=np.int64)
        self.edge_features = np.zeros((q, k, edge_feature_dim))
        self.edge_weights = np.zeros((q, k))
        self.mask = np.zeros((q, k), dtype=bool)
        self.target_degrees = np.zeros(q, dtype=np.int64)
        self.target_last_times = np.zeros(q)
        self.target_seen = np.zeros(q, dtype=bool)
        self.target_features = {
            name: np.zeros((q, store.dim)) for name, store in stores.items()
        }
        self.neighbor_features = {
            name: np.zeros((q, k, store.dim)) for name, store in stores.items()
        }


class ReplayState:
    """The online state of a chronological replay, and its update rules.

    One edge advances degrees (Eq. 2), the feature stores (Eqs. 4-5), and
    the k-recent neighbour buffers (Eq. 6) — in that order, so snapshots
    taken after the update are *inclusive* of the edge.  One query reads a
    row of context from that state.  This is the single state-update core
    shared by the per-event offline collector (:class:`_BundleCollector`)
    and the serving layer's live store
    (:class:`repro.serving.IncrementalContextStore`): both produce
    bit-for-bit identical context because both execute exactly this code.
    """

    def __init__(
        self,
        k: int,
        stores: Dict[str, OnlineFeatureStore],
        owner: Optional[Tuple[int, int]] = None,
        owner_mask: Optional[np.ndarray] = None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.stores = stores
        self.store_names = sorted(stores)
        self.buffer = RecentNeighborBuffer(k)
        self.degrees = DegreeTracker()
        # Fleet sharding (repro.serving.fleet): with an owner spec, the
        # *global* state — degrees and feature-store propagation, which any
        # node's context may transitively depend on — still advances past
        # every edge, but the per-endpoint context assembly (snapshot
        # copies + k-recent buffer inserts, the dominant ingest cost) runs
        # only for endpoints this shard owns.  Owned nodes' contexts stay
        # bit-for-bit what an unpartitioned replay produces; non-owned
        # nodes simply have no buffer here.
        self.owner = owner
        self._owner_mask = owner_mask

    # ------------------------------------------------------------------
    def owns(self, node: int) -> bool:
        """Whether this state assembles context for ``node`` (always true
        without an owner spec)."""
        if self.owner is None:
            return True
        mask = self._owner_mask
        if mask is not None and 0 <= node < len(mask):
            return bool(mask[node])
        return endpoint_shard(node, self.owner[1]) == self.owner[0]

    def _owns_array(self, nodes: np.ndarray) -> Optional[np.ndarray]:
        """Vectorised :meth:`owns` (None means "owns everything")."""
        if self.owner is None:
            return None
        mask = self._owner_mask
        nodes = np.asarray(nodes, dtype=np.int64)
        if mask is not None:
            in_range = (nodes >= 0) & (nodes < len(mask))
            if in_range.all():
                return mask[nodes]
            out = np.empty(len(nodes), dtype=bool)
            out[in_range] = mask[nodes[in_range]]
        else:
            in_range = np.zeros(len(nodes), dtype=bool)
            out = np.empty(len(nodes), dtype=bool)
        overflow = ~in_range
        out[overflow] = (
            endpoint_shard(nodes[overflow], self.owner[1]) == self.owner[0]
        )
        return out

    # ------------------------------------------------------------------
    def apply_edge(self, index, src, dst, time, feature, weight) -> None:
        """Advance the state past one temporal edge."""
        # Degree and feature state become *inclusive* of this edge before
        # snapshotting (deg_i(t) counts edges with t(l) ≤ t, Eq. 2).
        self.degrees.observe_edge(src, dst)
        for name in self.store_names:
            self.stores[name].on_edge(index, src, dst, time, feature, weight)
        # The entry buffered for an endpoint snapshots the *other*
        # endpoint's state, so each snapshot is needed exactly when the
        # node it will be buffered under is owned.
        own_src = self.owner is None or self.owns(src)
        own_dst = self.owner is None or self.owns(dst)
        if own_src:
            dst_snap = tuple(
                self.stores[name].feature_of(dst).copy()
                for name in self.store_names
            )
            self.buffer.insert(
                src,
                NeighborEntry(
                    neighbor=dst,
                    time=time,
                    edge_index=index,
                    weight=weight,
                    feature=feature,
                    neighbor_degree=self.degrees.degree(dst),
                    snapshot_features=dst_snap,
                ),
            )
        if own_dst:
            src_snap = tuple(
                self.stores[name].feature_of(src).copy()
                for name in self.store_names
            )
            self.buffer.insert(
                dst,
                NeighborEntry(
                    neighbor=src,
                    time=time,
                    edge_index=index,
                    weight=weight,
                    feature=feature,
                    neighbor_degree=self.degrees.degree(src),
                    snapshot_features=src_snap,
                ),
            )

    def apply_edge_block(
        self,
        indices: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        features: Optional[np.ndarray],
        weights: np.ndarray,
    ) -> None:
        """Advance past one *endpoint-disjoint* run of edges.

        Callers must guarantee the run invariant of
        :func:`repro.streams.replay.plan_update_blocks` — no two distinct
        edges of the run share a node.  Degrees, store state and buffered
        snapshots then come out bit-for-bit identical to calling
        :meth:`apply_edge` per event, but the store updates and the
        post-edge snapshot reads run as one vectorised pass per run: a
        node's post-edge state *is* its post-run state, because no other
        edge of the run touches it (a self-loop is one edge, whose two
        touches both happen inside the stores' own block update).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        count = len(src)
        self.degrees.observe_edges(src, dst)
        for name in self.store_names:
            self.stores[name].on_edge_block(indices, src, dst, times, features, weights)
        both = np.concatenate([src, dst])
        snaps = [self.stores[name].features_of(both) for name in self.store_names]
        both_deg = self.degrees.degrees_of(both)
        own_src = self._owns_array(src)
        own_dst = self._owns_array(dst)
        insert = self.buffer.insert
        if own_src is None:
            active = range(count)
        else:
            # An offset with no owned endpoint buffers nothing here; skip
            # its loop iteration entirely so a shard's per-event cost
            # tracks its owned share of the stream, not the full stream.
            active = np.nonzero(own_src | own_dst)[0]
        for offset in active:
            feature = features[offset] if features is not None else None
            s, d = int(src[offset]), int(dst[offset])
            time = float(times[offset])
            weight = float(weights[offset])
            index = int(indices[offset])
            if own_src is None or own_src[offset]:
                insert(
                    s,
                    NeighborEntry(
                        neighbor=d,
                        time=time,
                        edge_index=index,
                        weight=weight,
                        feature=feature,
                        neighbor_degree=int(both_deg[count + offset]),
                        # Copy: a view would pin the whole per-run gather
                        # matrix for as long as this entry stays buffered.
                        snapshot_features=tuple(
                            snap[count + offset].copy() for snap in snaps
                        ),
                    ),
                )
            if own_dst is None or own_dst[offset]:
                insert(
                    d,
                    NeighborEntry(
                        neighbor=s,
                        time=time,
                        edge_index=index,
                        weight=weight,
                        feature=feature,
                        neighbor_degree=int(both_deg[offset]),
                        snapshot_features=tuple(snap[offset].copy() for snap in snaps),
                    ),
                )

    def write_query(
        self,
        out: "_QueryOutputs",
        row: int,
        node: int,
        time: float,
        seen_mask: Optional[np.ndarray],
    ) -> None:
        """Materialise one query's context into row ``row`` of ``out``."""
        if self.owner is not None and not self.owns(node):
            raise ValueError(
                f"node {node} is not owned by shard {self.owner[0]} of "
                f"{self.owner[1]}; route the query to its owner shard"
            )
        entries = self.buffer.neighbors(node)
        out.target_degrees[row] = self.degrees.degree(node)
        out.target_last_times[row] = entries[-1].time if entries else time
        if seen_mask is not None and 0 <= node < len(seen_mask):
            out.target_seen[row] = seen_mask[node]
        for name in self.store_names:
            out.target_features[name][row] = self.stores[name].feature_of(node)
        for slot, entry in enumerate(entries):
            out.neighbor_nodes[row, slot] = entry.neighbor
            out.neighbor_times[row, slot] = entry.time
            out.neighbor_degrees[row, slot] = entry.neighbor_degree
            out.edge_weights[row, slot] = entry.weight
            out.mask[row, slot] = True
            if entry.feature is not None and out.edge_features.shape[2]:
                out.edge_features[row, slot] = entry.feature
            for pos, name in enumerate(self.store_names):
                out.neighbor_features[name][row, slot] = entry.snapshot_features[pos]


class _BundleCollector(_QueryOutputs):
    """Per-event stream processor that fills the bundle arrays during replay."""

    def __init__(
        self,
        num_queries: int,
        k: int,
        edge_feature_dim: int,
        stores: Dict[str, OnlineFeatureStore],
        seen_mask: Optional[np.ndarray],
    ) -> None:
        super().__init__(num_queries, k, edge_feature_dim, stores)
        self.k = k
        self.stores = stores
        self.seen_mask = seen_mask
        self.state = ReplayState(k, stores)

    # ------------------------------------------------------------------
    def on_edge(self, index, src, dst, time, feature, weight) -> None:
        self.state.apply_edge(index, src, dst, time, feature, weight)

    def on_query(self, index, node, time) -> None:
        self.state.write_query(self, index, node, time, self.seen_mask)


def grouped_running_count(sorted_values: np.ndarray) -> np.ndarray:
    """1-based running count within each run of equal adjacent values.

    ``sorted_values`` is grouped (the owner-sorted incidence log of the
    batched context engine); the result's element ``p`` is how many entries
    of ``sorted_values[: p + 1]`` equal ``sorted_values[p]``.  This is the
    segment pass behind Eq. 2's degree accounting.
    """
    n = len(sorted_values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    run_start[1:] = sorted_values[1:] != sorted_values[:-1]
    group_first = np.nonzero(run_start)[0]
    group_id = np.cumsum(run_start) - 1
    return np.arange(n, dtype=np.int64) - group_first[group_id] + 1


class _BatchedBundleCollector(_QueryOutputs):
    """Block stream processor that fills the bundle arrays columnar-ly.

    The replay phase only *appends*: edge blocks are retained as array views
    and queries record how much of the stream precedes them.  ``finalize``
    then reconstructs every query's context in a handful of vectorised
    passes (see the module docstring).  Non-static store updates — the only
    genuinely sequential part of the replay — run through the stores'
    per-event code for exactly the edges that need them, so results are
    bit-for-bit identical to :class:`_BundleCollector`.

    Stores must honour the static-node contract of
    :meth:`repro.features.base.OnlineFeatureStore.static_node_mask`,
    including its locality and zero-start assumptions (features change
    only on a node's own incident edges; untouched non-static nodes read
    as zeros).  A store returning ``None`` is handled within that contract
    by routing *every* edge through its per-event path; a store outside
    the contract entirely needs ``engine="event"``.
    """

    def __init__(
        self,
        num_queries: int,
        k: int,
        edge_feature_dim: int,
        stores: Dict[str, OnlineFeatureStore],
        seen_mask: Optional[np.ndarray],
        num_nodes: int,
        edge_features: Optional[np.ndarray],
        propagation: str = "blocked",
    ) -> None:
        super().__init__(num_queries, k, edge_feature_dim, stores)
        self.k = k
        self.stores = stores
        self.seen_mask = seen_mask
        self.num_nodes = num_nodes
        self.propagation = propagation
        self._edge_feature_table = edge_features
        self._store_names = sorted(stores)
        self._edge_blocks: List[
            Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        self._query_blocks: List[Tuple[np.ndarray, np.ndarray, int]] = []
        self._edges_seen = 0

    # -- replay phase: append-only ------------------------------------
    def on_edge_block(self, start, stop, src, dst, times, features, weights) -> None:
        self._edge_blocks.append((start, src, dst, times, weights))
        self._edges_seen += stop - start

    def on_query_block(self, start, stop, nodes, times) -> None:
        # Two incidences per edge: the position marker doubles as the
        # "log length at query time" used by finalize's searchsorted.
        self._query_blocks.append((nodes, times, 2 * self._edges_seen))

    # -- helpers -------------------------------------------------------
    def _padded_mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Trim/zero-pad a store's static mask to the replay's id space."""
        cover = np.zeros(self.num_nodes, dtype=bool)
        if mask is not None:
            limit = min(len(mask), self.num_nodes)
            cover[:limit] = mask[:limit]
        return cover

    def _concat_edges(self):
        if not self._edge_blocks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0), np.zeros(0), empty
        src = np.concatenate([b[1] for b in self._edge_blocks])
        dst = np.concatenate([b[2] for b in self._edge_blocks])
        times = np.concatenate([b[3] for b in self._edge_blocks])
        weights = np.concatenate([b[4] for b in self._edge_blocks])
        edge_idx = np.concatenate(
            [
                np.arange(b[0], b[0] + len(b[1]), dtype=np.int64)
                for b in self._edge_blocks
            ]
        )
        return src, dst, times, weights, edge_idx

    def _run_store_updates(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        weights: np.ndarray,
        edge_idx: np.ndarray,
        static_all: np.ndarray,
        num_incidences: int,
    ):
        """Sequentially update stores on edges touching non-static nodes.

        Returns the per-incidence snapshot-log index (-1 where the
        neighbour's feature is a static table row) and one ``(L, dim)``
        snapshot log per store, holding the evolving vectors in the order
        they were recorded.
        """
        snap_idx = np.full(num_incidences, -1, dtype=np.int64)
        logs: Dict[str, List[np.ndarray]] = {name: [] for name in self._store_names}
        if not self._store_names or not len(src):
            return snap_idx, logs
        pure = static_all[src] & static_all[dst]
        log_len = 0
        features = self._edge_feature_table
        stores = self.stores
        for e in np.nonzero(~pure)[0]:
            s, d = int(src[e]), int(dst[e])
            time, weight = float(times[e]), float(weights[e])
            index = int(edge_idx[e])
            feature = features[index] if features is not None else None
            for name in self._store_names:
                stores[name].on_edge(index, s, d, time, feature, weight)
            # Post-edge snapshots, mirroring the per-event collector: the
            # dst snapshot lands on src's incidence (position 2e) and vice
            # versa.  Static endpoints need no log — their snapshot is a
            # table row.
            for endpoint, position in ((d, 2 * e), (s, 2 * e + 1)):
                if not static_all[endpoint]:
                    snap_idx[position] = log_len
                    for name in self._store_names:
                        logs[name].append(stores[name].feature_of(endpoint).copy())
                    log_len += 1
        return snap_idx, logs

    def _run_store_updates_blocked(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        weights: np.ndarray,
        edge_idx: np.ndarray,
        static_all: np.ndarray,
        num_incidences: int,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Block-scatter variant of :meth:`_run_store_updates`.

        The non-static-edge subsequence is partitioned into maximal
        endpoint-disjoint runs (:func:`repro.streams.replay.plan_update_blocks`);
        each run advances every store with one vectorised
        :meth:`~repro.features.base.OnlineFeatureStore.on_edge_block` call,
        and the post-edge snapshots of the run land in *preallocated* logs
        via one :meth:`~repro.features.base.OnlineFeatureStore.features_of`
        gather — no per-event ``on_edge`` calls, no ``.copy()`` appends.
        Endpoint-disjointness makes a node's post-edge state equal its
        post-run state, and the log layout (per edge: dst snapshot first,
        then src, in stream order) is precomputed from the static mask, so
        ``snap_idx`` and the log contents are bit-for-bit those of the
        per-event reference.
        """
        snap_idx = np.full(num_incidences, -1, dtype=np.int64)
        names = self._store_names
        empty_logs = {name: np.zeros((0, self.stores[name].dim)) for name in names}
        if not names or not len(src):
            return snap_idx, empty_logs
        pure = static_all[src] & static_all[dst]
        rows = np.nonzero(~pure)[0]
        if not len(rows):
            return snap_idx, empty_logs
        b_src = src[rows]
        b_dst = dst[rows]
        b_times = times[rows]
        b_weights = weights[rows]
        b_idx = edge_idx[rows]
        features = self._edge_feature_table
        b_feat = features[b_idx] if features is not None else None

        # Interleaved log plan: entry 2r is edge r's dst snapshot (incidence
        # position 2e), entry 2r+1 its src snapshot (2e+1); static endpoints
        # produce no entry.  Log rows are the running count of kept entries.
        count = len(rows)
        kept = np.empty(2 * count, dtype=bool)
        kept[0::2] = ~static_all[b_dst]
        kept[1::2] = ~static_all[b_src]
        log_rows = np.cumsum(kept) - 1
        positions = np.empty(2 * count, dtype=np.int64)
        positions[0::2] = 2 * rows
        positions[1::2] = 2 * rows + 1
        snap_idx[positions[kept]] = log_rows[kept]
        log_nodes = np.empty(2 * count, dtype=np.int64)
        log_nodes[0::2] = b_dst
        log_nodes[1::2] = b_src

        total = int(kept.sum())
        logs = {name: np.empty((total, self.stores[name].dim)) for name in names}
        stores = self.stores

        # Plan over *writable* endpoints only: an all-static endpoint is
        # read-only for every store (its feature never changes during
        # replay), so two edges may share it without creating a
        # dependency.  Substituting unique sentinels for static endpoints
        # before planning lengthens runs considerably on streams where
        # unseen nodes mostly attach to the seen graph.
        arange = np.arange(1, count + 1, dtype=np.int64)
        plan_src = np.where(static_all[b_src], -arange, b_src)
        plan_dst = np.where(static_all[b_dst], -count - arange, b_dst)
        bounds = plan_update_blocks(plan_src, plan_dst)

        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo < _MIN_VECTOR_RUN:
                # Vectorisation overhead beats its gain on tiny runs (dense
                # conflict regions around hub nodes): take the per-event
                # path, writing into the same preallocated logs.
                for r in range(lo, hi):
                    s, d = int(b_src[r]), int(b_dst[r])
                    time = float(b_times[r])
                    weight = float(b_weights[r])
                    index = int(b_idx[r])
                    feature = b_feat[r] if b_feat is not None else None
                    for name in names:
                        stores[name].on_edge(index, s, d, time, feature, weight)
                    for endpoint, entry in ((d, 2 * r), (s, 2 * r + 1)):
                        if kept[entry]:
                            target = log_rows[entry]
                            for name in names:
                                logs[name][target] = stores[name].feature_of(endpoint)
                continue
            run_feat = b_feat[lo:hi] if b_feat is not None else None
            for name in names:
                stores[name].on_edge_block(
                    b_idx[lo:hi],
                    b_src[lo:hi],
                    b_dst[lo:hi],
                    b_times[lo:hi],
                    run_feat,
                    b_weights[lo:hi],
                )
            entries = slice(2 * lo, 2 * hi)
            run_kept = kept[entries]
            if run_kept.any():
                nodes = log_nodes[entries][run_kept]
                targets = log_rows[entries][run_kept]
                for name in names:
                    logs[name][targets] = stores[name].features_of(nodes)
        return snap_idx, logs

    def _sequential_store_pass(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        weights: np.ndarray,
        edge_idx: np.ndarray,
        static_all: np.ndarray,
        num_incidences: int,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Run the store updates and densify the snapshot logs.

        Dispatches on the collector's ``propagation`` knob: ``"blocked"``
        (the production path) scatter-updates maximal endpoint-disjoint
        runs and writes snapshots into preallocated logs,
        ``"event"`` is the per-event reference.  Both produce identical
        ``(snap_idx, logs)`` — same log order, same indices, same bits.
        """
        if self.propagation == "blocked":
            return self._run_store_updates_blocked(
                src, dst, times, weights, edge_idx, static_all, num_incidences
            )
        snap_idx, raw_logs = self._run_store_updates(
            src, dst, times, weights, edge_idx, static_all, num_incidences
        )
        snap_logs = {
            name: (
                np.asarray(raw_logs[name])
                if raw_logs[name]
                else np.zeros((0, self.stores[name].dim))
            )
            for name in self._store_names
        }
        return snap_idx, snap_logs

    def _combined_static_mask(self) -> np.ndarray:
        """Static-node mask shared by all stores: an edge between two
        all-static endpoints cannot change any store's state."""
        static_all = np.ones(self.num_nodes, dtype=bool)
        for name in self._store_names:
            static_all &= self._padded_mask(self.stores[name].static_node_mask())
        return static_all

    # -- assembly ------------------------------------------------------
    def finalize(self) -> None:
        """Materialise all recorded queries from the incidence logs."""
        src, dst, times_e, weights_e, edge_idx = self._concat_edges()
        num_edges = len(src)
        num_inc = 2 * num_edges

        # Interleaved incidence log: position 2e is src's view of edge e
        # (neighbour = dst), position 2e+1 is dst's view.  Concatenation
        # order equals stream order, so positions are a time axis.
        owner = np.empty(num_inc, dtype=np.int64)
        nbr = np.empty(num_inc, dtype=np.int64)
        owner[0::2], owner[1::2] = src, dst
        nbr[0::2], nbr[1::2] = dst, src
        inc_time = np.repeat(times_e, 2)
        inc_weight = np.repeat(weights_e, 2)
        inc_edge = np.repeat(edge_idx, 2)

        # Owner-sorted view of the log (stable ⇒ ascending position within
        # each owner).  ``incl[p]`` = #incidences of owner[p] at positions
        # ≤ p, i.e. the owner's degree right after its p-th event.
        order = np.argsort(owner, kind="stable")
        incl = np.empty(num_inc, dtype=np.int64)
        if num_inc:
            incl[order] = grouped_running_count(owner[order])

        # deg of the *neighbour* at edge time (Eq. 2, inclusive of this
        # edge): the neighbour's own incidence is the partner position
        # p ^ 1, except for a self-loop's dst-side view where the last
        # occurrence is position p itself.
        if num_inc:
            partner = np.arange(num_inc) ^ 1
            nbr_deg = incl[partner]
            odd = np.arange(num_inc) % 2 == 1
            selfloop = owner == nbr
            nbr_deg[selfloop & odd] = incl[selfloop & odd]
        else:
            nbr_deg = np.zeros(0, dtype=np.int64)

        static_all = self._combined_static_mask()
        snap_idx, snap_logs = self._sequential_store_pass(
            src, dst, times_e, weights_e, edge_idx, static_all, num_inc
        )

        # Queries, concatenated in stream order (a prefix when stop_time
        # truncated the replay).
        if not self._query_blocks:
            return
        q_nodes = np.concatenate([b[0] for b in self._query_blocks])
        q_times = np.concatenate([b[1] for b in self._query_blocks])
        q_cut = np.repeat(
            np.array([b[2] for b in self._query_blocks], dtype=np.int64),
            np.array([len(b[0]) for b in self._query_blocks]),
        )
        num_q = len(q_nodes)
        if num_q == 0:
            return

        k = self.k
        node_valid = (q_nodes >= 0) & (q_nodes < self.num_nodes)
        q_safe = np.where(node_valid, q_nodes, 0)

        # Segmented searchsorted via a combined (owner, position) key; the
        # key is strictly increasing in the owner-sorted log.
        stride = num_inc + 1
        if self.num_nodes and self.num_nodes > (2**62) // stride:
            raise OverflowError(
                "stream too large for the batched context engine; "
                "use build_context_bundle(..., engine='event')"
            )
        key_sorted = (
            owner[order] * stride + order if num_inc else np.zeros(0, dtype=np.int64)
        )
        pos = np.searchsorted(key_sorted, q_safe * stride + q_cut, side="left")
        base = np.searchsorted(key_sorted, q_safe * stride, side="left")
        degrees = np.where(node_valid, pos - base, 0)
        self.target_degrees[:num_q] = degrees

        counts = np.minimum(degrees, k)
        has_any = counts > 0
        slots = np.arange(k)[None, :]
        valid = slots < counts[:, None]
        take = np.where(valid, (pos - counts)[:, None] + slots, 0)
        last = np.where(has_any, pos - 1, 0)
        if num_inc:
            inc = order[take]  # (Q, k) incidence positions, oldest → newest
            last_inc = order[last]
        else:
            inc = np.zeros((num_q, k), dtype=np.int64)
            last_inc = np.zeros(num_q, dtype=np.int64)

        self.mask[:num_q] = valid
        if num_inc:
            self.neighbor_nodes[:num_q] = np.where(valid, nbr[inc], -1)
            self.neighbor_times[:num_q] = np.where(valid, inc_time[inc], 0.0)
            self.neighbor_degrees[:num_q] = np.where(valid, nbr_deg[inc], 0)
            self.edge_weights[:num_q] = np.where(valid, inc_weight[inc], 0.0)
            if self._edge_feature_table is not None and self.edge_features.shape[2]:
                # Gather straight into the output block: fancy indexing would
                # materialise (and fault in) an extra (Q, k, d_e) temporary.
                out = self.edge_features[:num_q]
                np.take(
                    self._edge_feature_table,
                    np.where(valid, inc_edge[inc], 0),
                    axis=0,
                    out=out,
                )
                out[~valid] = 0.0
            self.target_last_times[:num_q] = np.where(
                has_any, inc_time[last_inc], q_times
            )
        else:
            self.target_last_times[:num_q] = q_times

        if self.seen_mask is not None:
            in_range = (q_nodes >= 0) & (q_nodes < len(self.seen_mask))
            seen = np.zeros(num_q, dtype=bool)
            seen[in_range] = self.seen_mask[q_nodes[in_range]]
            self.target_seen[:num_q] = seen

        # Feature snapshots: static table gathers overridden by the
        # evolving-vector log where the node was non-static.
        slot_snap = (
            np.where(valid, snap_idx[inc], -1)
            if num_inc
            else np.full((num_q, k), -1)
        )
        dynamic_slot = slot_snap >= 0
        if num_inc:
            # The owner's own post-edge snapshot lives on the partner
            # incidence of the same edge.
            target_snap = np.where(has_any, snap_idx[last_inc ^ 1], -1)
        else:
            target_snap = np.full(num_q, -1, dtype=np.int64)

        any_dynamic = dynamic_slot.any()
        for name in self._store_names:
            store = self.stores[name]
            table = store.snapshot_table()
            log = snap_logs[name]
            own_static = self._padded_mask(store.static_node_mask())

            gathered = self.neighbor_features[name][:num_q]
            if table is not None and len(table) and num_inc:
                safe_nbr = np.clip(np.where(valid, nbr[inc], 0), 0, len(table) - 1)
                np.take(table, safe_nbr, axis=0, out=gathered)
                gathered[~valid] = 0.0
            if any_dynamic:
                gathered[dynamic_slot] = log[slot_snap[dynamic_slot]]

            target = self.target_features[name][:num_q]
            static_rows = node_valid & own_static[q_safe]
            if table is not None and len(table) and static_rows.any():
                target[static_rows] = table[
                    np.clip(q_nodes[static_rows], 0, len(table) - 1)
                ]
            evolving = ~static_rows & (target_snap >= 0)
            if evolving.any():
                target[evolving] = log[target_snap[evolving]]


@dataclass
class _ShardPayload:
    """Read-only inputs every shard worker needs (fork-shared or pickled once)."""

    src: np.ndarray
    dst: np.ndarray
    times: np.ndarray
    weights: np.ndarray
    cuts: np.ndarray  # interleave_cuts over the full stream
    query_nodes: np.ndarray
    k: int
    num_nodes: int
    edge_features: Optional[np.ndarray]
    # (name, static-mask over the id space, snapshot table or None, dim),
    # ordered like _store_names.
    stores_meta: List[Tuple[str, np.ndarray, Optional[np.ndarray], int]]
    shards: List[Tuple[int, int, int, int]]
    # Fork-shared zero-initialised output scratch (see _anon_shared_array):
    # present only when workers can write their query-slices directly,
    # sparing the large gathered arrays a trip through the result pipe.
    shared: Optional[Dict[str, np.ndarray]] = None


def _anon_shared_array(shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Zero-initialised array backed by an anonymous MAP_SHARED mapping.

    Forked worker processes inherit the mapping, so their writes are
    visible to the parent without any serialisation; the mapping is freed
    with the last referencing array.  Only meaningful under the ``fork``
    start method.
    """
    import mmap

    count = int(np.prod(shape, dtype=np.int64))
    nbytes = count * np.dtype(dtype).itemsize
    if nbytes == 0:
        return np.zeros(shape, dtype=dtype)
    buffer = mmap.mmap(-1, nbytes)
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


# Module-level slot read by forked workers: set in the parent immediately
# before the pool is created, so fork children inherit the arrays without
# any pickling.  Non-fork start methods receive the payload through the
# pool initializer instead.
_SHARD_PAYLOAD: Optional[_ShardPayload] = None

# True only inside pool worker processes (set by the pool initializer):
# guards the worker-only telemetry hand-off so the parent's in-process
# fallback never serialises-and-resets its own registry.
_IN_SHARD_WORKER = False


def _set_shard_payload(payload: _ShardPayload) -> None:
    global _SHARD_PAYLOAD
    _SHARD_PAYLOAD = payload


def _shard_worker_init(
    payload: Optional[_ShardPayload], obs_mode: str
) -> None:
    """Pool-worker bootstrap: shard payload plus fresh worker telemetry.

    Fork children inherit the parent's payload through the module global
    (``payload`` is ``None``); other start methods receive it here.
    Either way the worker's observability is re-initialised from scratch
    (cleared registry, no trace writer) so the metrics it ships home with
    each shard result are pure worker-side deltas.
    """
    global _IN_SHARD_WORKER
    _IN_SHARD_WORKER = True
    if payload is not None:
        _set_shard_payload(payload)
    obs._fork_reinit(obs_mode)


def _collect_shard_entry(shard_index: int) -> Dict[str, object]:
    if _SHARD_PAYLOAD is None:
        raise RuntimeError("shard worker started without a payload")
    result = _collect_shard(_SHARD_PAYLOAD, shard_index)
    if _IN_SHARD_WORKER and obs.enabled():
        # Ship this task's metrics home and reset, so a worker that runs
        # several shards reports each shard's delta exactly once.
        registry = obs.get_registry()
        result["obs"] = registry.to_payload()
        registry.reset()
    return result


def _collect_shard(payload: _ShardPayload, shard_index: int) -> Dict[str, object]:
    """Batched-style collection restricted to one contiguous shard.

    Pure function of the payload: builds the shard's incidence log, answers
    its queries from that log alone (left-aligned slots, shard-local
    degrees), gathers static feature tables for the slots it filled, and
    exports the per-node tail (last ≤ k incidences) plus incidence counts
    that the merge pass carries across the shard boundary.  All positions
    in the result are *global* (``2 * edge_index + side``), so the merge
    pass can index the sequential snapshot log directly.

    Instrumented identically in-process and in pool workers: one
    ``replay.sharded.collect`` span plus ``replay.shard.*`` counters, so
    pooled worker registries and a serial run expose the same vocabulary.
    """
    e_lo, e_hi, q_lo, q_hi = payload.shards[shard_index]
    with obs.span("replay.sharded.collect", shard=shard_index):
        result = _collect_shard_impl(payload, shard_index)
    obs.inc("replay.shard.events", e_hi - e_lo)
    obs.inc("replay.shard.queries", q_hi - q_lo)
    return result


def _collect_shard_impl(
    payload: _ShardPayload, shard_index: int
) -> Dict[str, object]:
    e_lo, e_hi, q_lo, q_hi = payload.shards[shard_index]
    k = payload.k
    num_nodes = payload.num_nodes
    src = payload.src[e_lo:e_hi]
    dst = payload.dst[e_lo:e_hi]
    times_e = payload.times[e_lo:e_hi]
    weights_e = payload.weights[e_lo:e_hi]
    q_nodes = payload.query_nodes[q_lo:q_hi]
    # Incidences of this shard preceding each query, in local positions.
    cut_local = 2 * (payload.cuts[q_lo:q_hi] - e_lo)

    num_edges = e_hi - e_lo
    num_inc = 2 * num_edges
    num_q = q_hi - q_lo
    slots = np.arange(k)[None, :]

    # Shard-local interleaved incidence log (same layout as finalize()).
    owner = np.empty(num_inc, dtype=np.int64)
    nbr = np.empty(num_inc, dtype=np.int64)
    owner[0::2], owner[1::2] = src, dst
    nbr[0::2], nbr[1::2] = dst, src
    inc_time = np.repeat(times_e, 2)
    inc_weight = np.repeat(weights_e, 2)
    inc_edge = np.repeat(np.arange(e_lo, e_hi, dtype=np.int64), 2)

    order = np.argsort(owner, kind="stable")
    incl = np.empty(num_inc, dtype=np.int64)
    if num_inc:
        # The tail export below also needs the run boundaries, so they are
        # recomputed here (cheap) alongside the segment pass.
        sorted_owner = owner[order]
        run_start = np.empty(num_inc, dtype=bool)
        run_start[0] = True
        run_start[1:] = sorted_owner[1:] != sorted_owner[:-1]
        group_first = np.nonzero(run_start)[0]
        incl[order] = grouped_running_count(sorted_owner)
        partner = np.arange(num_inc) ^ 1
        nbr_deg = incl[partner]
        odd = np.arange(num_inc) % 2 == 1
        selfloop = owner == nbr
        nbr_deg[selfloop & odd] = incl[selfloop & odd]
    else:
        nbr_deg = np.zeros(0, dtype=np.int64)

    node_valid = (q_nodes >= 0) & (q_nodes < num_nodes)
    q_safe = np.where(node_valid, q_nodes, 0)
    stride = num_inc + 1
    if num_nodes and num_nodes > (2**62) // stride:
        raise OverflowError(
            "stream too large for the sharded context engine; "
            "use build_context_bundle(..., engine='event')"
        )
    key_sorted = (
        owner[order] * stride + order if num_inc else np.zeros(0, dtype=np.int64)
    )
    pos = np.searchsorted(key_sorted, q_safe * stride + cut_local, side="left")
    base = np.searchsorted(key_sorted, q_safe * stride, side="left")
    local_degree = np.where(node_valid, pos - base, 0)

    counts = np.minimum(local_degree, k)
    valid = slots < counts[:, None]
    has_any = counts > 0
    if num_inc:
        take = np.where(valid, (pos - counts)[:, None] + slots, 0)
        inc = order[take]
        last_inc = order[np.where(has_any, pos - 1, 0)]
        neighbor_nodes = np.where(valid, nbr[inc], -1)
        neighbor_times = np.where(valid, inc_time[inc], 0.0)
        neighbor_deg_local = np.where(valid, nbr_deg[inc], 0)
        edge_weights = np.where(valid, inc_weight[inc], 0.0)
        slot_edge = np.where(valid, inc_edge[inc], 0)
        slot_pos = np.where(valid, inc + 2 * e_lo, -1)
        last_time_local = np.where(has_any, inc_time[last_inc], 0.0)
        last_pos_local = np.where(has_any, last_inc + 2 * e_lo, -1)
    else:
        neighbor_nodes = np.full((num_q, k), -1, dtype=np.int64)
        neighbor_times = np.zeros((num_q, k))
        neighbor_deg_local = np.zeros((num_q, k), dtype=np.int64)
        edge_weights = np.zeros((num_q, k))
        slot_edge = np.zeros((num_q, k), dtype=np.int64)
        slot_pos = np.full((num_q, k), -1, dtype=np.int64)
        last_time_local = np.zeros(num_q)
        last_pos_local = np.full(num_q, -1, dtype=np.int64)

    # Static feature gathers — the bulk of the engine's work, fanned out
    # here so it runs inside the worker.  Dynamic (evolving) slots are
    # overridden later by the merge pass, exactly as finalize() overrides
    # its own table gathers.  With a shared scratch the gathers land
    # straight in the parent-visible mapping (zero-initialised, so the
    # no-table cases need no explicit clearing).
    shared = payload.shared if num_q else None
    qs = slice(q_lo, q_hi)

    def _out3(key: str, dim: int) -> np.ndarray:
        if shared is not None:
            return shared[key][qs]
        return np.zeros((num_q, k, dim))

    edge_feature_block: Optional[np.ndarray] = None
    table = payload.edge_features
    if table is not None and table.shape[1]:
        edge_feature_block = _out3("edge_features", table.shape[1])
        if num_inc:
            np.take(table, slot_edge, axis=0, out=edge_feature_block)
            edge_feature_block[~valid] = 0.0

    neighbor_features: Dict[str, np.ndarray] = {}
    target_features: Dict[str, np.ndarray] = {}
    for name, own_static, feat_table, dim in payload.stores_meta:
        gathered = _out3(f"nbr::{name}", dim)
        if feat_table is not None and len(feat_table) and num_inc:
            safe_nbr = np.clip(np.maximum(neighbor_nodes, 0), 0, len(feat_table) - 1)
            np.take(feat_table, safe_nbr, axis=0, out=gathered)
            gathered[~valid] = 0.0
        neighbor_features[name] = gathered
        target = (
            shared[f"tgt::{name}"][qs]
            if shared is not None
            else np.zeros((num_q, dim))
        )
        static_rows = node_valid & own_static[q_safe]
        if feat_table is not None and len(feat_table) and static_rows.any():
            target[static_rows] = feat_table[
                np.clip(q_nodes[static_rows], 0, len(feat_table) - 1)
            ]
        target_features[name] = target

    # Per-node exports for the merge pass: full incidence counts (degree
    # offsets) and the last ≤ k incidences (tails), oldest → newest.
    if num_inc:
        group_sizes = np.diff(np.append(group_first, num_inc))
        tail_nodes = sorted_owner[group_first]
        tail_len = np.minimum(group_sizes, k)
        tvalid = slots < tail_len[:, None]
        group_end = group_first + group_sizes
        tpos = np.where(tvalid, (group_end - tail_len)[:, None] + slots, 0)
        tinc = order[tpos]
        tail = {
            "nodes": tail_nodes,
            "len": tail_len,
            "counts": group_sizes.astype(np.int64),
            "nbr": np.where(tvalid, nbr[tinc], -1),
            "time": np.where(tvalid, inc_time[tinc], 0.0),
            "weight": np.where(tvalid, inc_weight[tinc], 0.0),
            "edge": np.where(tvalid, inc_edge[tinc], 0),
            "deg_local": np.where(tvalid, nbr_deg[tinc], 0),
            "pos": np.where(tvalid, tinc + 2 * e_lo, -1),
        }
    else:
        tail = None

    result = {
        "shard": shard_index,
        "node_valid": node_valid,
        "local_degree": local_degree,
        "last_time_local": last_time_local,
        "last_pos_local": last_pos_local,
        "tail": tail,
    }
    if shared is not None:
        # Slot arrays travel through the shared mapping as well; only the
        # small per-query vectors and the tail ride the result pipe.
        shared["neighbor_nodes"][qs] = neighbor_nodes
        shared["neighbor_times"][qs] = neighbor_times
        shared["neighbor_deg"][qs] = neighbor_deg_local
        shared["edge_weights"][qs] = edge_weights
        shared["slot_edge"][qs] = slot_edge
        shared["slot_pos"][qs] = slot_pos
    else:
        result.update(
            neighbor_nodes=neighbor_nodes,
            neighbor_times=neighbor_times,
            neighbor_deg_local=neighbor_deg_local,
            edge_weights=edge_weights,
            slot_edge=slot_edge,
            slot_pos=slot_pos,
            edge_feature_block=edge_feature_block,
            neighbor_features=neighbor_features,
            target_features=target_features,
        )
    return result


class _ShardedBundleCollector(_BatchedBundleCollector):
    """Shard-parallel variant of the batched collector.

    The interleave is partitioned with :func:`plan_shards`; shards are
    collected independently (worker processes when ``num_workers > 1``,
    in-process otherwise) while the parent runs the sequential store
    updates, and a merge pass stitches the per-shard results back into the
    bundle arrays, carrying degree offsets, k-recent tails, and the
    snapshot log across shard boundaries.  Output is bit-for-bit equal to
    the other engines.
    """

    def collect(
        self,
        ctdg: CTDG,
        queries: QuerySet,
        num_workers: int,
        num_shards: Optional[int] = None,
        clamp_workers: bool = True,
    ) -> None:
        # A pool wider than the CPUs this process may run on is pure
        # scheduling overhead (fork + context switches, no parallelism),
        # so the requested worker count is clamped to the visible CPU
        # budget — on a 1-CPU box every request degrades to the serial
        # in-process path.  Tests disable the clamp to exercise the pool
        # path regardless of the machine they run on.
        if clamp_workers:
            if hasattr(os, "sched_getaffinity"):
                cpu_budget = len(os.sched_getaffinity(0))
            else:  # pragma: no cover - non-Linux fallback
                cpu_budget = os.cpu_count() or 1
            num_workers = min(num_workers, cpu_budget)
        if num_shards is None:
            # Serial runs still shard (the merge path is identical either
            # way and must stay exercised); parallel runs get one shard
            # per worker.
            num_shards = num_workers if num_workers > 1 else 4
        cuts, _, _ = interleave_cuts(ctdg.times, queries.times)
        shards = plan_shards(cuts, ctdg.num_edges, num_shards)
        static_all = self._combined_static_mask()
        stores_meta = [
            (
                name,
                self._padded_mask(self.stores[name].static_node_mask()),
                self.stores[name].snapshot_table(),
                self.stores[name].dim,
            )
            for name in self._store_names
        ]
        payload = _ShardPayload(
            src=ctdg.src,
            dst=ctdg.dst,
            times=ctdg.times,
            weights=ctdg.weights,
            cuts=cuts,
            query_nodes=queries.nodes,
            k=self.k,
            num_nodes=self.num_nodes,
            edge_features=self._edge_feature_table,
            stores_meta=stores_meta,
            shards=shards,
        )

        # Route the large gathered arrays through a zero-initialised output
        # scratch that *becomes* the bundle storage: shard collection
        # writes its query-slices in place, so nothing big is copied at
        # merge time (or, under a pool, crosses the result pipe).  Shards
        # partition the query range, so every row is written exactly once.
        # In-process collection uses ordinary arrays; a worker pool needs
        # an anonymous MAP_SHARED mapping, which only fork start methods
        # inherit — without fork the pool falls back to pickled results.
        num_q = len(queries)
        use_pool = num_workers > 1 and len(shards) > 1
        fork_shared = "fork" in multiprocessing.get_all_start_methods()
        if num_q and (not use_pool or fork_shared):
            def alloc(shape, dtype=np.float64):
                if use_pool:
                    return _anon_shared_array(shape, dtype)
                return np.zeros(shape, dtype=dtype)

            k = self.k
            scratch: Dict[str, np.ndarray] = {
                "neighbor_nodes": alloc((num_q, k), np.int64),
                "neighbor_times": alloc((num_q, k)),
                "neighbor_deg": alloc((num_q, k), np.int64),
                "edge_weights": alloc((num_q, k)),
                "slot_edge": alloc((num_q, k), np.int64),
                "slot_pos": alloc((num_q, k), np.int64),
            }
            if self._edge_feature_table is not None and self.edge_features.shape[2]:
                scratch["edge_features"] = alloc(
                    (num_q, k, self.edge_features.shape[2])
                )
            for name in self._store_names:
                dim = self.stores[name].dim
                scratch[f"nbr::{name}"] = alloc((num_q, k, dim))
                scratch[f"tgt::{name}"] = alloc((num_q, dim))
            payload.shared = scratch
            self.neighbor_nodes = scratch["neighbor_nodes"]
            self.neighbor_times = scratch["neighbor_times"]
            self.neighbor_degrees = scratch["neighbor_deg"]
            self.edge_weights = scratch["edge_weights"]
            if "edge_features" in scratch:
                self.edge_features = scratch["edge_features"]
            for name in self._store_names:
                self.neighbor_features[name] = scratch[f"nbr::{name}"]
                self.target_features[name] = scratch[f"tgt::{name}"]
        edge_idx = np.arange(ctdg.num_edges, dtype=np.int64)
        store_args = (
            ctdg.src,
            ctdg.dst,
            ctdg.times,
            ctdg.weights,
            edge_idx,
            static_all,
            2 * ctdg.num_edges,
        )

        results = None
        if num_workers > 1 and len(shards) > 1:
            try:
                with obs.span(
                    "replay.sharded.fanout",
                    shards=len(shards),
                    workers=num_workers,
                ):
                    results, snap_idx, snap_logs = self._collect_parallel(
                        payload, num_workers, store_args
                    )
            except OSError as error:
                # Pool creation/submit failed before the store pass started;
                # a serial run from scratch is still safe.
                warnings.warn(
                    f"sharded context engine: worker pool unavailable ({error}); "
                    "falling back to in-process shard collection",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if results is None:
            with obs.span("replay.sharded.scatter", edges=ctdg.num_edges):
                snap_idx, snap_logs = self._sequential_store_pass(*store_args)
            results = [_collect_shard(payload, s) for s in range(len(shards))]

        # Pool worker registries: every shard collected in a worker
        # process carries its metrics delta, folded here under a `proc`
        # label so the parent's render_prometheus() covers the whole
        # process tree while per-worker series stay distinguishable.
        registry = obs.get_registry()
        for result in results:
            worker_metrics = result.pop("obs", None)
            if worker_metrics is not None:
                registry.merge_payload(
                    worker_metrics,
                    extra_labels={"proc": f"shard{result['shard']}"},
                )

        with obs.span("replay.sharded.merge", shards=len(shards)):
            self._merge_shards(payload, results, snap_idx, snap_logs, queries)

    # ------------------------------------------------------------------
    def _collect_parallel(self, payload, num_workers, store_args):
        """Fan shards out to worker processes, store updates in the parent.

        The sequential store pass runs *between* submit and result
        collection, so its wall-clock overlaps the workers'.
        """
        import concurrent.futures as cf

        global _SHARD_PAYLOAD
        worker_obs_mode = "metrics" if obs.enabled() else "off"
        try:
            ctx = multiprocessing.get_context("fork")
            initializer, initargs = _shard_worker_init, (None, worker_obs_mode)
        except ValueError:  # platform without fork: ship the payload once per worker
            ctx = multiprocessing.get_context()
            initializer, initargs = _shard_worker_init, (payload, worker_obs_mode)
        from concurrent.futures.process import BrokenProcessPool

        _SHARD_PAYLOAD = payload
        try:
            # Pool creation and submits may raise OSError; both happen
            # before the store pass, so the caller's from-scratch serial
            # fallback is still safe for them.
            pool = cf.ProcessPoolExecutor(
                max_workers=min(num_workers, len(payload.shards)),
                mp_context=ctx,
                initializer=initializer,
                initargs=initargs,
            )
            try:
                futures = [
                    pool.submit(_collect_shard_entry, s)
                    for s in range(len(payload.shards))
                ]
                with obs.span(
                    "replay.sharded.scatter", edges=len(store_args[0])
                ):
                    snap_idx, snap_logs = self._sequential_store_pass(
                        *store_args
                    )
                # From here on the stores have been advanced, so no
                # exception that the caller would answer with a second
                # store pass may escape: pool/worker failures are handled
                # by redoing only the (pure, stateless) shard collection.
                try:
                    results = [f.result() for f in futures]
                except (BrokenProcessPool, OSError) as error:
                    warnings.warn(
                        f"sharded context engine: worker pool died ({error}); "
                        "recomputing shards in-process",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    results = [
                        _collect_shard(payload, s)
                        for s in range(len(payload.shards))
                    ]
            finally:
                try:
                    pool.shutdown(wait=True, cancel_futures=True)
                except Exception:
                    pass  # results are in hand; reaping failures are moot
        finally:
            _SHARD_PAYLOAD = None
        return results, snap_idx, snap_logs

    # ------------------------------------------------------------------
    def _merge_shards(self, payload, results, snap_idx, snap_logs, queries) -> None:
        """Stitch per-shard collections into the global bundle arrays.

        Sequential over shards.  Carried state: ``deg_off`` (per-node
        incidence counts from earlier shards), and per-node tail arrays
        holding each node's last ≤ k incidences with *globalised* values
        (neighbour degree, snapshot position).  Query slots a shard could
        not fill locally are spliced from the tail; evolving feature
        vectors are spliced from the sequential snapshot log.
        """
        k = self.k
        num_nodes = self.num_nodes
        slots = np.arange(k)[None, :]
        deg_off = np.zeros(num_nodes, dtype=np.int64)
        t_len = np.zeros(num_nodes, dtype=np.int64)
        t_nbr = np.full((num_nodes, k), -1, dtype=np.int64)
        t_time = np.zeros((num_nodes, k))
        t_weight = np.zeros((num_nodes, k))
        t_edge = np.zeros((num_nodes, k), dtype=np.int64)
        t_deg = np.zeros((num_nodes, k), dtype=np.int64)
        t_pos = np.full((num_nodes, k), -1, dtype=np.int64)

        feature_table = self._edge_feature_table
        store_meta = {meta[0]: meta for meta in payload.stores_meta}
        shared = payload.shared

        for result in results:
            shard = result["shard"]
            e_lo, e_hi, q_lo, q_hi = payload.shards[shard]
            num_q = q_hi - q_lo
            if num_q:
                qs = slice(q_lo, q_hi)
                q_nodes_s = queries.nodes[qs]
                q_times_s = queries.times[qs]
                node_valid = result["node_valid"]
                q_safe = np.where(node_valid, q_nodes_s, 0)
                off_q = np.where(node_valid, deg_off[q_safe], 0)
                local_degree = result["local_degree"]
                degrees = local_degree + off_q
                counts = np.minimum(degrees, k)
                local_counts = np.minimum(local_degree, k)
                need = counts - local_counts
                final_valid = slots < counts[:, None]

                # Views over the output arrays; workers already filled the
                # shard's rows when a shared scratch was in use, otherwise
                # the pickled per-shard arrays are copied in here.
                nbr_nodes = self.neighbor_nodes[qs]
                nbr_times = self.neighbor_times[qs]
                nbr_deg = self.neighbor_degrees[qs]
                weights = self.edge_weights[qs]
                if shared is not None:
                    slot_edge = shared["slot_edge"][qs]
                    slot_pos = shared["slot_pos"][qs]
                else:
                    nbr_nodes[:] = result["neighbor_nodes"]
                    nbr_times[:] = result["neighbor_times"]
                    nbr_deg[:] = result["neighbor_deg_local"]
                    weights[:] = result["edge_weights"]
                    slot_edge = result["slot_edge"]
                    slot_pos = result["slot_pos"]
                # Globalise the shard-local neighbour degrees (a locally
                # valid slot always has a positive local count).
                nbr_deg += np.where(
                    nbr_deg > 0, deg_off[np.maximum(nbr_nodes, 0)], 0
                )

                shift_rows = np.nonzero(need > 0)[0]
                if len(shift_rows):
                    n_r = need[shift_rows][:, None]
                    lc_r = local_counts[shift_rows][:, None]
                    src_slot = slots - n_r
                    from_local = (src_slot >= 0) & (src_slot < lc_r)
                    take_local = np.where(from_local, src_slot, 0)
                    nodes_r = q_safe[shift_rows]
                    tlen_r = t_len[nodes_r][:, None]
                    from_tail = slots < n_r
                    take_tail = np.clip(tlen_r - n_r + slots, 0, k - 1)

                    def splice(local_arr, tail_arr, fill):
                        loc = np.take_along_axis(
                            local_arr[shift_rows], take_local, axis=1
                        )
                        tl = tail_arr[nodes_r[:, None], take_tail]
                        return np.where(
                            from_local, loc, np.where(from_tail, tl, fill)
                        )

                    nbr_nodes[shift_rows] = splice(nbr_nodes, t_nbr, -1)
                    nbr_times[shift_rows] = splice(nbr_times, t_time, 0.0)
                    nbr_deg[shift_rows] = splice(nbr_deg, t_deg, 0)
                    weights[shift_rows] = splice(weights, t_weight, 0.0)
                    slot_edge[shift_rows] = splice(slot_edge, t_edge, 0)
                    slot_pos[shift_rows] = splice(slot_pos, t_pos, -1)

                self.target_degrees[qs] = degrees
                self.mask[qs] = final_valid

                # Edge features: worker gathered the local slots; rows that
                # received tail entries are re-gathered with the spliced
                # edge ids (same table, same values — still bit-for-bit).
                if feature_table is not None and self.edge_features.shape[2]:
                    block = self.edge_features[qs]
                    if shared is None and result["edge_feature_block"] is not None:
                        block[:] = result["edge_feature_block"]
                    if len(shift_rows):
                        patched = feature_table[slot_edge[shift_rows]]
                        patched[~final_valid[shift_rows]] = 0.0
                        block[shift_rows] = patched

                # Target chronology: newest local incidence, else the
                # carried tail's newest, else the query time itself.
                has_local = local_degree > 0
                tlen_q = np.where(node_valid, t_len[q_safe], 0)
                tail_last = np.maximum(tlen_q - 1, 0)
                last_pos = np.where(
                    has_local,
                    result["last_pos_local"],
                    np.where(tlen_q > 0, t_pos[q_safe, tail_last], -1),
                )
                self.target_last_times[qs] = np.where(
                    has_local,
                    result["last_time_local"],
                    np.where(tlen_q > 0, t_time[q_safe, tail_last], q_times_s),
                )

                if len(snap_idx):
                    snap_slot = np.where(
                        final_valid & (slot_pos >= 0),
                        snap_idx[np.maximum(slot_pos, 0)],
                        -1,
                    )
                    target_snap = np.where(
                        last_pos >= 0, snap_idx[np.maximum(last_pos, 0) ^ 1], -1
                    )
                else:
                    snap_slot = np.full((num_q, k), -1, dtype=np.int64)
                    target_snap = np.full(num_q, -1, dtype=np.int64)
                dynamic_slot = snap_slot >= 0

                for name in self._store_names:
                    _, own_static, feat_table, _ = store_meta[name]
                    log = snap_logs[name]
                    gathered = self.neighbor_features[name][qs]
                    if shared is None:
                        gathered[:] = result["neighbor_features"][name]
                    if len(shift_rows):
                        # Re-gather spliced rows from the static table with
                        # the final neighbour ids (identical values).
                        if feat_table is not None and len(feat_table):
                            safe = np.clip(
                                np.maximum(nbr_nodes[shift_rows], 0),
                                0,
                                len(feat_table) - 1,
                            )
                            patched = feat_table[safe]
                            patched[~final_valid[shift_rows]] = 0.0
                        else:
                            patched = np.zeros_like(gathered[shift_rows])
                        gathered[shift_rows] = patched
                    if dynamic_slot.any():
                        gathered[dynamic_slot] = log[snap_slot[dynamic_slot]]

                    target = self.target_features[name][qs]
                    if shared is None:
                        target[:] = result["target_features"][name]
                    static_rows = node_valid & own_static[q_safe]
                    evolving = ~static_rows & (target_snap >= 0)
                    if evolving.any():
                        target[evolving] = log[target_snap[evolving]]

            # Advance the carried state past this shard's incidences.
            tail = result["tail"]
            if tail is not None:
                nodes = tail["nodes"]
                a = t_len[nodes]
                b = tail["len"]
                new_len = np.minimum(a + b, k)
                deg_fix = tail["deg_local"] + np.where(
                    tail["deg_local"] > 0, deg_off[np.maximum(tail["nbr"], 0)], 0
                )
                logical = (a + b)[:, None] - new_len[:, None] + slots
                col = np.where(logical < a[:, None], logical, k + logical - a[:, None])
                col = np.clip(col, 0, 2 * k - 1)
                keep = slots < new_len[:, None]

                def roll(tail_arr, local_arr, fill):
                    cat = np.concatenate([tail_arr[nodes], local_arr], axis=1)
                    merged = np.take_along_axis(cat, col, axis=1)
                    return np.where(keep, merged, fill)

                t_nbr[nodes] = roll(t_nbr, tail["nbr"], -1)
                t_time[nodes] = roll(t_time, tail["time"], 0.0)
                t_weight[nodes] = roll(t_weight, tail["weight"], 0.0)
                t_edge[nodes] = roll(t_edge, tail["edge"], 0)
                t_deg[nodes] = roll(t_deg, deg_fix, 0)
                t_pos[nodes] = roll(t_pos, tail["pos"], -1)
                t_len[nodes] = new_len
                deg_off[nodes] += tail["counts"]

        # Seen-at-training flags, vectorised over the whole query set.
        if self.seen_mask is not None and len(queries):
            q_nodes = queries.nodes
            in_range = (q_nodes >= 0) & (q_nodes < len(self.seen_mask))
            seen = np.zeros(len(q_nodes), dtype=bool)
            seen[in_range] = self.seen_mask[q_nodes[in_range]]
            self.target_seen[:] = seen


def partition_processes(
    processes: Sequence[FeatureProcess],
) -> Tuple[
    Dict[str, OnlineFeatureStore],
    Dict[str, float],
    Dict[str, np.ndarray],
    Optional[np.ndarray],
]:
    """Split fitted processes into the bundle's four feature mechanisms.

    Returns ``(stores, structural_params, static_tables, seen_mask)``:
    online stores that must be replayed event-by-event, lazily-encoded
    structural parameters, static per-node tables gathered at access time,
    and the last process's seen-node mask.  Shared by
    :func:`build_context_bundle` and the serving layer's
    :class:`repro.serving.IncrementalContextStore`, so both classify a
    process the same way.
    """
    stores: Dict[str, OnlineFeatureStore] = {}
    structural_params: Dict[str, float] = {}
    static_tables: Dict[str, np.ndarray] = {}
    seen_mask: Optional[np.ndarray] = None
    for process in processes:
        if not process.is_fitted():
            raise RuntimeError(f"feature process {process.name!r} is not fitted")
        seen_mask = process.seen_mask
        if isinstance(process, StructuralFeatureProcess):
            structural_params = {"dim": float(process.dim), "alpha": process.alpha}
            continue
        store = process.make_store()
        if isinstance(store, StaticStore):
            # Static features never change, so x_j(t(l)) == table[j]; gather
            # lazily from the table instead of storing (Q, k, d_v) snapshots.
            static_tables[process.name] = store.table
            continue
        stores[process.name] = store
    return stores, structural_params, static_tables, seen_mask


def build_context_bundle(
    ctdg: CTDG,
    queries: QuerySet,
    k: int,
    processes: Sequence[FeatureProcess] = (),
    *,
    engine: str = "batched",
    num_workers: int = 0,
    num_shards: Optional[int] = None,
    clamp_workers: bool = True,
    propagation: str = "blocked",
) -> ContextBundle:
    """Replay ``ctdg`` once and materialise contexts for every query.

    ``processes`` must already be fitted (their seen-node features learned on
    the training prefix).  Structural processes are handled lazily — only
    degrees are stored, and φ_d is applied on access — because their features
    are a pure function of degree.

    ``engine`` selects the replay implementation: ``"batched"`` (default)
    uses the vectorised block engine, ``"event"`` the per-event reference,
    and ``"sharded"`` partitions the interleave into contiguous shards
    collected in parallel worker processes (``num_workers`` ≥ 2; ``0``/``1``
    run the shards serially in-process) and merged back together.
    ``num_shards`` overrides the partition granularity (defaults to the
    worker count, or 4 for serial runs so the merge path stays exercised).
    The worker count is clamped to the CPUs available to this process
    (``clamp_workers=False`` disables that, for tests that must exercise
    the pool on any machine).

    ``propagation`` selects how the batched and sharded engines run the
    sequential store pass (the one stream-length-proportional loop left on
    the context path): ``"blocked"`` (default) scatter-updates maximal
    endpoint-disjoint runs planned by
    :func:`repro.streams.replay.plan_update_blocks`, ``"event"`` is the
    per-event reference.  Both are bit-for-bit identical; the ``"event"``
    *engine* ignores the knob (it is the per-event reference in full).
    All engines produce bit-identical bundles for every store honouring the
    :meth:`~repro.features.base.OnlineFeatureStore.static_node_mask`
    contract (including its zero-start assumption for untouched non-static
    nodes — all in-repo stores qualify); a store outside that contract
    must be materialised with ``engine="event"``, which also serves as the
    oracle for equivalence tests.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if engine not in ("batched", "event", "sharded"):
        raise ValueError(
            f"unknown context engine {engine!r}; use 'batched', 'event' or 'sharded'"
        )
    if num_workers < 0:
        raise ValueError(f"num_workers must be non-negative, got {num_workers}")
    if propagation not in ("blocked", "event"):
        raise ValueError(
            f"unknown propagation mode {propagation!r}; use 'blocked' or 'event'"
        )
    stores, structural_params, static_tables, seen_mask = partition_processes(
        processes
    )

    with obs.span(
        "replay.build_bundle",
        engine=engine,
        edges=ctdg.num_edges,
        queries=len(queries),
    ):
        if engine == "sharded":
            collector = _ShardedBundleCollector(
                num_queries=len(queries),
                k=k,
                edge_feature_dim=ctdg.edge_feature_dim,
                stores=stores,
                seen_mask=seen_mask,
                num_nodes=ctdg.num_nodes,
                edge_features=ctdg.edge_features,
                propagation=propagation,
            )
            collector.collect(
                ctdg,
                queries,
                num_workers=num_workers,
                num_shards=num_shards,
                clamp_workers=clamp_workers,
            )
        elif engine == "batched":
            collector = _BatchedBundleCollector(
                num_queries=len(queries),
                k=k,
                edge_feature_dim=ctdg.edge_feature_dim,
                stores=stores,
                seen_mask=seen_mask,
                num_nodes=ctdg.num_nodes,
                edge_features=ctdg.edge_features,
                propagation=propagation,
            )
            replay_batched(ctdg, queries.nodes, queries.times, [collector])
            collector.finalize()
        else:
            collector = _BundleCollector(
                num_queries=len(queries),
                k=k,
                edge_feature_dim=ctdg.edge_feature_dim,
                stores=stores,
                seen_mask=seen_mask,
            )
            replay(ctdg, queries.nodes, queries.times, [collector])
    obs.inc("replay.events", ctdg.num_edges, engine=engine)
    obs.inc("replay.queries", len(queries), engine=engine)
    return ContextBundle(
        ctdg=ctdg,
        queries=queries,
        k=k,
        neighbor_nodes=collector.neighbor_nodes,
        neighbor_times=collector.neighbor_times,
        neighbor_degrees=collector.neighbor_degrees,
        edge_features=collector.edge_features,
        edge_weights=collector.edge_weights,
        mask=collector.mask,
        target_degrees=collector.target_degrees,
        target_last_times=collector.target_last_times,
        target_seen=collector.target_seen,
        target_features=collector.target_features,
        neighbor_features=collector.neighbor_features,
        structural_params=structural_params,
        static_tables=static_tables,
    )
