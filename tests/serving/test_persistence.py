"""Zero-copy persistence: segment log, snapshots, manifest, warm restart.

The contract under test is the serving invariant extended across process
death: a resumed store must materialise **bit-for-bit** what a
never-restarted store holding the same durable prefix would — snapshots
and tail replay are an implementation detail the outputs must not betray.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets import email_eu_like
from repro.models import ModelConfig
from repro.pipeline import Splash, SplashConfig
from repro.serving import (
    EventLog,
    PredictionService,
    SegmentReader,
    ServingConfig,
    SegmentWriter,
    load_snapshot,
    write_snapshot,
)
from repro.serving.persistence import (
    DEFAULT_SNAPSHOT_EVERY,
    MANIFEST_FILE,
    PersistenceManager,
    SNAPSHOTS_DIR,
)
from repro.serving.store import IncrementalContextStore

from tests.conftest import (
    assert_bundles_identical,
    fitted_context_processes,
    random_tied_stream,
)

FAST_MODEL = ModelConfig(
    hidden_dim=16, epochs=4, batch_size=64, patience=3, time_dim=8, seed=0
)


@pytest.fixture(scope="module")
def dataset():
    return email_eu_like(seed=1, num_edges=900)


@pytest.fixture(scope="module")
def fitted(dataset):
    config = SplashConfig(feature_dim=10, k=6, model=FAST_MODEL, seed=0)
    splash = Splash(config)
    splash.fit(dataset)
    return splash


def make_service(splash, dataset, **config):
    return PredictionService.from_splash(
        splash,
        num_nodes=dataset.ctdg.num_nodes,
        edge_feature_dim=dataset.ctdg.edge_feature_dim,
        config=ServingConfig(**config),
        task=dataset.task,
    )


def ingest_stream(service, ctdg, batch=100, stop=None, start=None):
    stop = ctdg.num_edges if stop is None else stop
    start = service.store.edges_ingested if start is None else start
    has_features = ctdg.edge_features is not None
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        service._ingest_arrays(
            ctdg.src[lo:hi],
            ctdg.dst[lo:hi],
            ctdg.times[lo:hi],
            ctdg.edge_features[lo:hi] if has_features else None,
            ctdg.weights[lo:hi],
        )


def probe_queries(ctdg, count=64):
    nodes = np.arange(count, dtype=np.int64) % ctdg.num_nodes
    times = np.full(count, float(ctdg.times[-1]) + 1.0)
    return nodes, times


# ======================================================================
# Segment log
# ======================================================================
def _stream_columns(seed=3, num_edges=200, d_e=3):
    g, _ = random_tied_stream(
        seed, num_nodes=40, num_edges=num_edges, num_queries=1, d_e=d_e
    )
    return g.src, g.dst, g.times, g.edge_features, g.weights


class TestSegmentLog:
    def test_writer_reader_round_trip(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        writer = SegmentWriter(str(tmp_path), 0, 3)
        writer.append(src[:120], dst[:120], times[:120], features[:120], weights[:120])
        writer.append(src[120:], dst[120:], times[120:], features[120:], weights[120:])
        writer.close()

        reader = SegmentReader(str(tmp_path), 0, verify=True)
        assert reader.count == 200
        r_src, r_dst, r_times, r_features, r_weights = reader.read(0, 200)
        np.testing.assert_array_equal(r_src, src)
        np.testing.assert_array_equal(r_dst, dst)
        np.testing.assert_array_equal(r_times, times)
        np.testing.assert_array_equal(r_features, features)
        np.testing.assert_array_equal(r_weights, weights)

    def test_featureless_round_trip(self, tmp_path):
        src, dst, times, features, weights = _stream_columns(d_e=0)
        assert features is None
        writer = SegmentWriter(str(tmp_path), 0, 0)
        writer.append(src, dst, times, None, weights)
        writer.close()
        r_src, _, _, r_features, _ = SegmentReader(str(tmp_path), 0).read(0, 200)
        np.testing.assert_array_equal(r_src, src)
        assert r_features is None

    def test_reader_sees_only_flushed_records(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        writer = SegmentWriter(str(tmp_path), 0, 3)
        writer.append(src[:50], dst[:50], times[:50], features[:50], weights[:50])
        writer.flush()
        writer.append(src[50:], dst[50:], times[50:], features[50:], weights[50:])
        writer._handle.flush()  # bytes reach the OS, footer does not move
        assert writer.count == 200
        assert writer.durable_count == 50
        assert SegmentReader(str(tmp_path), 0, verify=True).count == 50

    def test_log_rolls_segments_and_reads_back(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        for lo in range(0, 200, 37):  # batch size not aligned to segments
            hi = min(lo + 37, 200)
            log.append(
                src[lo:hi], dst[lo:hi], times[lo:hi], features[lo:hi], weights[lo:hi]
            )
        log.flush()
        assert log.durable_events == 200
        index = log.segment_index()
        assert [entry["start"] for entry in index] == [0, 64, 128, 192]
        assert sum(entry["count"] for entry in index) == 200

        blocks = list(log.read_range(0, 200))
        np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), src)
        np.testing.assert_array_equal(np.concatenate([b[2] for b in blocks]), times)
        np.testing.assert_array_equal(np.concatenate([b[3] for b in blocks]), features)
        log.close()

    def test_read_range_spans_segment_boundaries(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        log.append(src, dst, times, features, weights)
        log.flush()
        blocks = list(log.read_range(40, 150))
        np.testing.assert_array_equal(
            np.concatenate([b[0] for b in blocks]), src[40:150]
        )
        np.testing.assert_array_equal(
            np.concatenate([b[4] for b in blocks]), weights[40:150]
        )
        log.close()

    def test_read_beyond_durable_raises(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3)
        log.append(src, dst, times, features, weights)
        log.flush()
        with pytest.raises(IndexError):
            list(log.read_range(0, 201))
        log.close()

    def test_reopen_resumes_crc_chain(self, tmp_path):
        src, dst, times, features, weights = _stream_columns()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        log.append(src[:100], dst[:100], times[:100], features[:100], weights[:100])
        log.close()
        log = EventLog(str(tmp_path), 3, segment_events=64)
        assert log.durable_events == 100
        log.append(src[100:], dst[100:], times[100:], features[100:], weights[100:])
        log.flush()
        # verify=True recomputes every CRC: the chain written across two
        # writer lifetimes must validate end to end.
        blocks = list(EventLog(str(tmp_path), 3, verify=True).read_range(0, 200))
        np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), src)
        log.close()


# ======================================================================
# Snapshots
# ======================================================================
class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "big::table": rng.normal(size=(600, 256)),  # above mmap threshold
            "small::counts": np.arange(17, dtype=np.int64),
        }
        scalars = {"edges_ingested": 41, "offset": 41, "last_time": 3.5}
        name = write_snapshot(str(tmp_path), arrays, scalars)
        loaded, got_scalars = load_snapshot(os.path.join(str(tmp_path), name))
        assert got_scalars == scalars
        np.testing.assert_array_equal(loaded["big::table"], arrays["big::table"])
        np.testing.assert_array_equal(
            loaded["small::counts"], arrays["small::counts"]
        )
        # The big table comes back memory-mapped copy-on-write: writable,
        # but writes never reach the file.
        assert isinstance(loaded["big::table"], np.memmap)
        loaded["big::table"][0, 0] += 1.0
        again, _ = load_snapshot(os.path.join(str(tmp_path), name))
        np.testing.assert_array_equal(again["big::table"], arrays["big::table"])

    def test_same_offset_twice_gets_distinct_names(self, tmp_path):
        arrays = {"a": np.arange(4)}
        scalars = {"edges_ingested": 7, "offset": 7}
        first = write_snapshot(str(tmp_path), arrays, scalars)
        second = write_snapshot(str(tmp_path), arrays, scalars)
        assert first != second
        for name in (first, second):
            load_snapshot(os.path.join(str(tmp_path), name))


# ======================================================================
# Store runtime state
# ======================================================================
class TestStoreRuntimeState:
    def _fresh_store(self, g, processes, k=5):
        return IncrementalContextStore(
            processes, k, g.num_nodes, g.edge_feature_dim
        )

    def test_mid_stream_round_trip_bit_identical(self):
        g, queries = random_tied_stream(11, num_nodes=30, num_edges=400, d_e=2)
        processes = fitted_context_processes(g, dim=6, seed=4)
        live = self._fresh_store(g, processes)
        live.ingest(g.slice(0, 250))

        arrays, scalars = live.export_runtime_state()
        restored = self._fresh_store(g, processes).restore_runtime_state(
            arrays, scalars
        )
        assert restored.edges_ingested == 250
        assert restored.last_time == live.last_time

        # Both continue ingesting the same suffix; contexts must stay
        # bit-for-bit equal (the restore kept *evolving* state exact, not
        # just a frozen read model).
        live.ingest(g.slice(250, g.num_edges))
        restored.ingest(g.slice(250, g.num_edges))
        times = np.full(len(queries.nodes), float(g.times[-1]) + 1.0)
        assert_bundles_identical(
            live.materialise(queries.nodes, times),
            restored.materialise(queries.nodes, times),
        )

    def test_restore_validates_schema(self):
        g, _ = random_tied_stream(11, num_nodes=30, num_edges=120, d_e=2)
        processes = fitted_context_processes(g, dim=6, seed=4)
        live = self._fresh_store(g, processes)
        live.ingest(g)
        arrays, scalars = live.export_runtime_state()
        wrong_k = self._fresh_store(g, processes, k=7)
        with pytest.raises(ValueError, match="k="):
            wrong_k.restore_runtime_state(arrays, scalars)

    def test_restore_needs_fresh_store(self):
        g, _ = random_tied_stream(11, num_nodes=30, num_edges=120, d_e=2)
        processes = fitted_context_processes(g, dim=6, seed=4)
        live = self._fresh_store(g, processes)
        live.ingest(g)
        arrays, scalars = live.export_runtime_state()
        with pytest.raises(RuntimeError, match="fresh store"):
            live.restore_runtime_state(arrays, scalars)


# ======================================================================
# Manager + service: warm restart end to end
# ======================================================================
class TestWarmRestart:
    def test_resume_equals_live_bit_for_bit(self, fitted, dataset, tmp_path):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, persist_path=persist, snapshot_every=300
        )
        ingest_stream(service, dataset.ctdg)
        service.persistence.flush()
        nodes, times = probe_queries(dataset.ctdg)
        expected = service.store.materialise(nodes, times)

        resumed = PredictionService.resume(persist, task=dataset.task)
        assert resumed.store.edges_ingested == dataset.ctdg.num_edges
        assert_bundles_identical(
            expected, resumed.store.materialise(nodes, times)
        )
        np.testing.assert_array_equal(
            service.predict(nodes, times), resumed.predict(nodes, times)
        )

    def test_parent_era_backend_keys_still_load(self, fitted, dataset, tmp_path):
        # Older writers recorded an array-backend name in the artifact's
        # meta.json and execution config, the weights archive and the
        # manifest.  Such state must still load, resume and score bit for
        # bit like a fresh one.
        import json

        from repro.serving.artifact import META_FILE, WEIGHTS_FILE

        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, persist_path=persist, snapshot_every=300
        )
        ingest_stream(service, dataset.ctdg)
        service.persistence.flush()
        nodes, times = probe_queries(dataset.ctdg)
        expected = service.predict(nodes, times)

        manifest_path = os.path.join(persist, MANIFEST_FILE)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["artifact"]["backend"] = "numpy"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        artifact = os.path.join(persist, manifest["artifact"]["path"])
        meta_path = os.path.join(artifact, META_FILE)
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["backend"] = "numpy"
        meta["config"]["execution"].update(backend="numpy", num_threads=2)
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        weights_path = os.path.join(artifact, WEIGHTS_FILE + ".npz")
        with np.load(weights_path) as archive:
            weights = {name: archive[name] for name in archive.files}
        np.savez(weights_path, __backend__=np.asarray("numpy"), **weights)

        resumed = PredictionService.resume(persist, task=dataset.task)
        np.testing.assert_array_equal(resumed.predict(nodes, times), expected)
        reloaded = make_service(Splash.load(artifact), dataset)
        ingest_stream(reloaded, dataset.ctdg)
        np.testing.assert_array_equal(reloaded.predict(nodes, times), expected)

    def test_resume_without_snapshot_cold_replays(self, fitted, dataset, tmp_path):
        persist = str(tmp_path / "persist")
        service = make_service(fitted, dataset, persist_path=persist)
        assert service.persistence.snapshot_every == DEFAULT_SNAPSHOT_EVERY
        ingest_stream(service, dataset.ctdg, stop=500)
        service.persistence.flush()
        assert service.persistence.snapshots == []  # never hit the cadence

        resumed = PredictionService.resume(persist, task=dataset.task)
        assert resumed.store.edges_ingested == 500
        nodes, times = probe_queries(dataset.ctdg)
        assert_bundles_identical(
            service.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_unflushed_tail_resumes_at_durable_watermark(
        self, fitted, dataset, tmp_path
    ):
        # A crash loses the un-fsynced suffix; resume must come back at
        # the durable watermark (honest loss), not a torn in-between.
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, persist_path=persist, snapshot_every=10_000
        )
        ingest_stream(service, dataset.ctdg, stop=400)
        service.persistence.flush()
        durable = service.persistence.durable_events
        ingest_stream(service, dataset.ctdg, batch=50, stop=600)
        # No flush for edges 400..600 — simulate the crash by resuming
        # from disk as-is (the OS may or may not have the tail bytes; the
        # footer, the commit point, was never moved).
        assert service.persistence.durable_events == durable == 400

        resumed = PredictionService.resume(persist, task=dataset.task)
        assert resumed.store.edges_ingested == 400

        reference = make_service(fitted, dataset)
        ingest_stream(reference, dataset.ctdg, stop=400)
        nodes = np.arange(64, dtype=np.int64) % dataset.ctdg.num_nodes
        times = np.full(64, float(dataset.ctdg.times[399]) + 0.5)
        assert_bundles_identical(
            reference.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_resumed_service_continues_the_stream(self, fitted, dataset, tmp_path):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, persist_path=persist, snapshot_every=200
        )
        ingest_stream(service, dataset.ctdg, stop=450)
        service.persistence.flush()

        resumed = PredictionService.resume(persist, task=dataset.task)
        ingest_stream(resumed, dataset.ctdg, stop=None)
        # Restored mid-stream + live suffix == one uninterrupted replay.
        reference = make_service(fitted, dataset)
        ingest_stream(reference, dataset.ctdg)
        nodes, times = probe_queries(dataset.ctdg)
        assert_bundles_identical(
            reference.store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )
        # ...and the continuation was journalled: a second restart lands
        # at the full stream.
        resumed.persistence.flush()
        second = PredictionService.resume(persist, task=dataset.task)
        assert second.store.edges_ingested == dataset.ctdg.num_edges

    def test_snapshot_gc_keeps_last_two(self, fitted, dataset, tmp_path):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, persist_path=persist, snapshot_every=100
        )
        ingest_stream(service, dataset.ctdg)
        assert len(service.persistence.snapshots) == 2
        on_disk = [
            name
            for name in os.listdir(os.path.join(persist, SNAPSHOTS_DIR))
            if not name.startswith(".")
        ]
        assert len(on_disk) == 2

    def test_create_rejects_used_store_and_existing_root(
        self, fitted, dataset, tmp_path
    ):
        persist = str(tmp_path / "persist")
        service = make_service(fitted, dataset, persist_path=persist)
        ingest_stream(service, dataset.ctdg, stop=100)
        with pytest.raises(FileExistsError):
            PersistenceManager.create(persist, fitted, service.store)
        with pytest.raises(RuntimeError, match="fresh store"):
            PersistenceManager.create(
                str(tmp_path / "other"), fitted, service.store
            )

    def test_manifest_binds_provenance(self, fitted, dataset, tmp_path):
        import json

        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, persist_path=persist, snapshot_every=300
        )
        ingest_stream(service, dataset.ctdg)
        service.persistence.flush()
        with open(os.path.join(persist, MANIFEST_FILE)) as handle:
            manifest = json.load(handle)
        assert manifest["artifact"]["path"] == "artifact-0001"
        assert manifest["artifact"]["dtype"] == np.dtype(fitted.fit_dtype).name
        assert manifest["store"]["k"] == fitted.config.k
        assert sum(s["count"] for s in manifest["segments"]) == dataset.ctdg.num_edges
        assert manifest["snapshots"] == service.persistence.snapshots


# ======================================================================
# Adaptation re-bind: checkpoints follow hot swaps
# ======================================================================
class TestRebind:
    def test_rebind_then_resume_serves_the_promoted_pair(
        self, fitted, dataset, tmp_path
    ):
        persist = str(tmp_path / "persist")
        service = make_service(
            fitted, dataset, persist_path=persist, snapshot_every=250
        )
        ingest_stream(service, dataset.ctdg)
        service.persistence.flush()

        # A "promoted" store warmed on the stream's trailing window only —
        # the shape AdaptiveService hands rebind after a hot swap.
        window = 300
        g = dataset.ctdg
        candidate_store = IncrementalContextStore(
            fitted.processes, fitted.config.k, g.num_nodes, g.edge_feature_dim
        )
        candidate_store.ingest(g.slice(g.num_edges - window, g.num_edges))
        service.hot_swap(fitted.model, store=candidate_store)
        service.persistence.rebind(fitted, candidate_store, note="test swap")

        assert service.persistence.base_offset == g.num_edges - window
        assert os.path.isdir(os.path.join(persist, "artifact-0002"))

        resumed = PredictionService.resume(persist, task=dataset.task)
        assert resumed.store.edges_ingested == window
        nodes, times = probe_queries(g)
        assert_bundles_identical(
            candidate_store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )

    def test_adaptive_service_checkpoints_through_manifest(self, tmp_path):
        from repro.adapt import AdaptationConfig, AdaptiveService
        from repro.datasets import scheduled_shift_stream

        dataset = scheduled_shift_stream(
            shift_at=0.5, intensity=85, seed=0, num_edges=2600
        )
        config = SplashConfig(
            feature_dim=12,
            k=8,
            model=ModelConfig(
                hidden_dim=24, epochs=6, patience=3, batch_size=128,
                lr=3e-3, seed=0,
            ),
            split_fractions=[0.5, 0.7],
            seed=0,
        )
        splash = Splash(config)
        splash.fit(dataset)
        persist = str(tmp_path / "persist")
        adaptive = AdaptiveService(
            splash,
            dataset.ctdg.num_nodes,
            config=AdaptationConfig(
                window_edges=900,
                window_queries=700,
                check_every=150,
                threshold=0.12,
                min_window_queries=80,
                background=False,
            ),
            persist_path=persist,
            snapshot_every=500,
        )
        adaptive.serve_labeled_stream(
            dataset.ctdg,
            dataset.queries.nodes,
            dataset.queries.times,
            dataset.task.labels,
            ingest_batch=200,
        )
        assert adaptive.summary()["promotions"] >= 1
        manager = adaptive.service.persistence
        assert manager.store is adaptive.service.store  # followed the swap
        assert manager.base_offset > 0
        manager.flush()

        resumed = PredictionService.resume(persist, task=dataset.task)
        live_store = adaptive.service.store
        assert resumed.store.edges_ingested == live_store.edges_ingested
        assert resumed.model.feature_name == adaptive.splash.model.feature_name
        nodes = np.arange(64, dtype=np.int64) % dataset.ctdg.num_nodes
        times = np.full(64, float(dataset.ctdg.times[-1]) + 1.0)
        assert_bundles_identical(
            live_store.materialise(nodes, times),
            resumed.store.materialise(nodes, times),
        )
