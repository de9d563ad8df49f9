"""Feature propagation for unseen nodes — paper Eqs. (4)–(5).

Seen nodes keep their fitted (random or positional) features forever.  An
unseen node starts from the zero vector; whenever a new edge touches it, the
other endpoint's *pre-edge* feature is folded in by degree-weighted linear
interpolation:

    x_i(t_n) = (deg_i(t_{n-1}) · x_i(t_{n-1}) + x_j(t_{n-1})) / (deg_i(t_{n-1}) + 1)

which is a running mean of the neighbour features seen so far.  The update
is O(d_v) per edge, independent of graph size.

State is held *densely*: one ``(num_nodes, d_v)`` working table whose seen
rows carry the fitted features and whose unseen rows evolve in place from
zero, plus an int64 propagation-degree vector.  Current features of any
node set are then a single numpy gather (:meth:`PropagatedFeatureStore.features_of`),
and a whole endpoint-disjoint run of edges
(:func:`repro.streams.replay.plan_update_blocks`) updates in one gather +
scatter (:meth:`PropagatedFeatureStore.on_edge_block`).  Node ids outside the fitted id space (possible only through the serving
layer's raw ingest) spill into a dict and take the per-event path.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.features.base import OnlineFeatureStore


class PropagatedFeatureStore(OnlineFeatureStore):
    """Static seen-node table + incremental propagation to unseen nodes."""

    def __init__(self, base_table: np.ndarray, seen_mask: np.ndarray) -> None:
        base_table = np.asarray(base_table, dtype=np.float64)
        seen_mask = np.asarray(seen_mask, dtype=bool)
        if base_table.ndim != 2:
            raise ValueError(f"base_table must be 2-D, got {base_table.shape}")
        if seen_mask.shape != (base_table.shape[0],):
            raise ValueError(
                f"seen_mask shape {seen_mask.shape} must be ({base_table.shape[0]},)"
            )
        self._base = base_table
        self._seen = seen_mask
        self.dim = int(base_table.shape[1])
        # Dense working state, allocated on the first unseen touch: seen
        # rows are the fitted features (never written), unseen rows evolve
        # from the zero vector (Eqs. 4-5).
        self._current: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None
        # Ids beyond the fitted table (raw serving ingest only).
        self._overflow_feat: Dict[int, np.ndarray] = {}
        self._overflow_deg: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def table(self) -> np.ndarray:
        """The fitted seen-node feature table (read-only by convention)."""
        return self._base

    def static_node_mask(self) -> np.ndarray:
        # Seen nodes keep their fitted features forever and edges between
        # two seen nodes early-return in on_edge, which is exactly the
        # static contract of OnlineFeatureStore.
        return self._seen

    def snapshot_table(self) -> np.ndarray:
        return self._base

    def is_seen(self, node: int) -> bool:
        return bool(0 <= node < len(self._seen) and self._seen[node])

    def _ensure_dense(self) -> None:
        if self._current is None:
            current = self._base.copy()
            current[~self._seen] = 0.0
            self._current = current
            self._degrees = np.zeros(len(self._seen), dtype=np.int64)

    def feature_of(self, node: int) -> np.ndarray:
        """Current x_node(t).  May be a view of internal state — callers
        that need a stable snapshot must copy (they all do)."""
        if 0 <= node < len(self._seen):
            if self._current is not None:
                return self._current[node]
            if self._seen[node]:
                return self._base[node]
            return np.zeros(self.dim)
        stored = self._overflow_feat.get(node)
        if stored is None:
            return np.zeros(self.dim)
        return stored

    def features_of(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        in_range = (nodes >= 0) & (nodes < len(self._seen))
        if in_range.all():
            self._ensure_dense()
            return np.take(self._current, nodes, axis=0)
        out = np.zeros((len(nodes), self.dim))
        if in_range.any():
            self._ensure_dense()
            out[in_range] = np.take(self._current, nodes[in_range], axis=0)
        if self._overflow_feat:
            for row in np.nonzero(~in_range)[0]:
                stored = self._overflow_feat.get(int(nodes[row]))
                if stored is not None:
                    out[row] = stored
        return out

    # ------------------------------------------------------------------
    def on_edge(
        self,
        index: int,
        src: int,
        dst: int,
        time: float,
        feature: Optional[np.ndarray],
        weight: float,
    ) -> None:
        src_unseen = not self.is_seen(src)
        dst_unseen = not self.is_seen(dst)
        if not (src_unseen or dst_unseen):
            return
        # Both updates use pre-edge features (t_{n-1} in Eqs. 4-5), so
        # snapshot both endpoints before writing either — copies, because
        # the dense rows below are updated in place.
        src_feature = self.feature_of(src).copy()
        dst_feature = self.feature_of(dst).copy()
        if src_unseen:
            self._propagate_into(src, dst_feature, pre_feature=src_feature)
        if dst_unseen:
            self._propagate_into(dst, src_feature, pre_feature=dst_feature)

    def on_edge_block(
        self,
        indices: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        features: Optional[np.ndarray],
        weights: np.ndarray,
    ) -> None:
        """Vectorised Eqs. 4-5 over one endpoint-disjoint run.

        The run invariant (:func:`repro.streams.replay.plan_update_blocks`)
        guarantees no two distinct edges share a node this store could
        *write* — seen nodes are read-only, so runs may share them freely.
        Every update therefore reads pre-run state: one gather of both
        endpoint blocks followed by one scatter per endpoint side
        reproduces the per-event results bit for bit.  A self-loop is the
        one two-touch case: :meth:`on_edge` applies two interpolation
        steps whose *reads* are both pre-edge, which collapses to the
        closed form ``((d+1)·x + x) / (d+2)``.
        """
        num = len(self._seen)
        in_range = (src >= 0) & (src < num) & (dst >= 0) & (dst < num)
        all_in = in_range.all()
        if all_in:
            src_unseen = ~self._seen[src]
            dst_unseen = ~self._seen[dst]
        else:
            src_unseen = in_range.copy()
            dst_unseen = in_range.copy()
            src_unseen[in_range] = ~self._seen[src[in_range]]
            dst_unseen[in_range] = ~self._seen[dst[in_range]]
        if src_unseen.any() or dst_unseen.any():
            self._ensure_dense()
            current = self._current
            degrees = self._degrees
            # Gather with overflow ids clamped to row 0: such rows are
            # excluded from every update mask below (their whole edge takes
            # the per-event path), the placeholder value is never read.
            src_ids = src if all_in else np.where(in_range, src, 0)
            dst_ids = dst if all_in else np.where(in_range, dst, 0)
            pre_src = np.take(current, src_ids, axis=0)
            pre_dst = np.take(current, dst_ids, axis=0)
            selfloop = src == dst
            into_src = src_unseen & ~selfloop
            into_dst = dst_unseen & ~selfloop
            # The run invariant makes each ``nodes`` vector duplicate-free,
            # so each row scatter below writes every row once.
            if into_src.any():
                nodes = src[into_src]
                degree = degrees[nodes]
                current[nodes] = (
                    degree[:, None] * pre_src[into_src] + pre_dst[into_src]
                ) / (degree + 1)[:, None]
                degrees[nodes] = degree + 1
            if into_dst.any():
                nodes = dst[into_dst]
                degree = degrees[nodes]
                current[nodes] = (
                    degree[:, None] * pre_dst[into_dst] + pre_src[into_dst]
                ) / (degree + 1)[:, None]
                degrees[nodes] = degree + 1
            loops = selfloop & src_unseen
            if loops.any():
                nodes = src[loops]
                degree = degrees[nodes]
                pre = pre_src[loops]
                current[nodes] = ((degree + 1)[:, None] * pre + pre) / (
                    degree + 2
                )[:, None]
                degrees[nodes] = degree + 2
        if not all_in:
            # Overflow ids (raw serving ingest): per-event path.  Safe in
            # any order relative to the scatter above — the run is
            # endpoint-disjoint, so these edges touch none of its
            # writable nodes.
            for offset in np.nonzero(~in_range)[0]:
                feature = features[offset] if features is not None else None
                self.on_edge(
                    int(indices[offset]),
                    int(src[offset]),
                    int(dst[offset]),
                    float(times[offset]),
                    feature,
                    float(weights[offset]),
                )

    def _propagate_into(
        self, node: int, incoming: np.ndarray, pre_feature: np.ndarray
    ) -> None:
        if 0 <= node < len(self._seen):
            self._ensure_dense()
            degree = int(self._degrees[node])
            self._current[node] = (degree * pre_feature + incoming) / (degree + 1)
            self._degrees[node] = degree + 1
        else:
            degree = self._overflow_deg.get(node, 0)
            self._overflow_feat[node] = (degree * pre_feature + incoming) / (
                degree + 1
            )
            self._overflow_deg[node] = degree + 1

    # ------------------------------------------------------------------
    # Persistence (serving snapshots, repro.serving.persistence)
    # ------------------------------------------------------------------
    def export_runtime_state(self) -> Dict[str, np.ndarray]:
        """Dense working table + propagation degrees + overflow spill.

        The dense blocks are returned as-is (no copy): they are already
        contiguous, so persisting a snapshot is a straight ``np.save`` of
        each — the near-free snapshot the warm-restart design relies on.
        ``current`` is absent while the store is still in its pre-first-
        unseen-touch state (the fitted table alone describes it).
        """
        state: Dict[str, np.ndarray] = {}
        if self._current is not None:
            state["current"] = self._current
            state["prop_degrees"] = self._degrees
        if self._overflow_feat:
            nodes = sorted(self._overflow_feat)
            state["overflow_nodes"] = np.array(nodes, dtype=np.int64)
            state["overflow_features"] = np.stack(
                [self._overflow_feat[node] for node in nodes]
            )
            state["overflow_degrees"] = np.array(
                [self._overflow_deg.get(node, 0) for node in nodes],
                dtype=np.int64,
            )
        return state

    def restore_runtime_state(self, arrays: Dict[str, np.ndarray]) -> None:
        current = arrays.get("current")
        if current is not None:
            if current.shape != self._base.shape:
                raise ValueError(
                    f"snapshot working table has shape {current.shape}, the "
                    f"fitted table is {self._base.shape}"
                )
            # Memory-mapped (copy-on-write) arrays are accepted unchanged:
            # in-place propagation writes then touch only the pages an edge
            # actually dirties, which is what makes restart zero-copy.
            self._current = current
            self._degrees = np.asarray(arrays["prop_degrees"], dtype=np.int64)
        else:
            self._current = None
            self._degrees = None
        self._overflow_feat = {}
        self._overflow_deg = {}
        if "overflow_nodes" in arrays:
            nodes = np.asarray(arrays["overflow_nodes"], dtype=np.int64)
            feats = np.asarray(arrays["overflow_features"], dtype=np.float64)
            degs = np.asarray(arrays["overflow_degrees"], dtype=np.int64)
            for row, node in enumerate(nodes.tolist()):
                self._overflow_feat[node] = np.array(feats[row])
                self._overflow_deg[node] = int(degs[row])

    def propagation_degree(self, node: int) -> int:
        """Number of propagation updates applied to an unseen ``node``."""
        if 0 <= node < len(self._seen):
            if self._degrees is None:
                return 0
            return int(self._degrees[node])
        return self._overflow_deg.get(node, 0)

    def num_unseen_tracked(self) -> int:
        dense = 0
        if self._degrees is not None:
            dense = int(np.count_nonzero(self._degrees))
        return dense + len(self._overflow_feat)
