"""ServingConfig: validation, the constructor contracts, resume rules.

Deployment knobs reach ``from_splash``/``resume`` only through
``config=ServingConfig(...)``; any other keyword is a ``TypeError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import email_eu_like
from repro.models import ModelConfig
from repro.pipeline import Splash, SplashConfig
from repro.serving import PredictionService, ServingConfig

FAST_MODEL = ModelConfig(
    hidden_dim=16, epochs=3, batch_size=64, patience=3, time_dim=8, seed=0
)


@pytest.fixture(scope="module")
def dataset():
    return email_eu_like(seed=4, num_edges=600)


@pytest.fixture(scope="module")
def fitted(dataset):
    splash = Splash(SplashConfig(feature_dim=8, k=5, model=FAST_MODEL, seed=0))
    splash.fit(dataset)
    return splash


class TestServingConfigValidation:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.num_shards == 0
        assert config.persist_path is None
        assert config.telemetry_port is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"micro_batch_size": 0}, "micro_batch_size"),
            ({"micro_batch_size": True}, "micro_batch_size"),
            ({"micro_batch_size": 2.5}, "micro_batch_size"),
            ({"dtype": "float16"}, "dtype"),
            ({"num_shards": -1}, "num_shards"),
            ({"num_shards": 2.0}, "num_shards"),
            ({"snapshot_every": 0}, "snapshot_every"),
            ({"telemetry_port": 70000}, "telemetry_port"),
            ({"slo_interval": 0.0}, "slo_interval"),
            ({"catchup_ring": -1}, "catchup_ring"),
            ({"snapshot_every": 2.5}, "snapshot_every"),
            ({"snapshot_every": True}, "snapshot_every"),
            ({"catchup_ring": True}, "catchup_ring"),
            ({"telemetry_port": 80.7}, "telemetry_port"),
            ({"slo_interval": float("nan")}, "slo_interval"),
        ],
    )
    def test_invalid_values_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServingConfig(**kwargs)


class TestServiceConstructorContracts:
    def test_from_splash_rejects_unknown_kwarg(self, fitted, dataset, tmp_path):
        # Deployment knobs go through config=ServingConfig(...) only.
        with pytest.raises(TypeError, match="persist_path"):
            PredictionService.from_splash(
                fitted, dataset.ctdg.num_nodes, persist_path=str(tmp_path)
            )
        with pytest.raises(TypeError, match="dtype"):
            PredictionService.resume(str(tmp_path), dtype="float64")

    def test_non_config_object_rejected(self, fitted, dataset):
        with pytest.raises(ValueError, match="ServingConfig"):
            PredictionService.from_splash(
                fitted, dataset.ctdg.num_nodes, config={"micro_batch_size": 4}
            )

    def test_snapshot_cadence_without_root_warns(self, fitted, dataset):
        with pytest.warns(UserWarning, match="persist_path"):
            PredictionService.from_splash(
                fitted,
                dataset.ctdg.num_nodes,
                config=ServingConfig(snapshot_every=100),
            )

    def test_resume_rejects_persist_path_in_config(self, fitted, tmp_path):
        with pytest.raises(ValueError, match="positional"):
            PredictionService.resume(
                str(tmp_path), config=ServingConfig(persist_path=str(tmp_path))
            )

    def test_resume_roundtrip_with_config(self, fitted, dataset, tmp_path):
        g = dataset.ctdg
        root = str(tmp_path / "svc")
        service = PredictionService.from_splash(
            fitted,
            g.num_nodes,
            config=ServingConfig(persist_path=root, snapshot_every=100),
            task=dataset.task,
        )
        service._ingest_arrays(
            g.src[:300], g.dst[:300], g.times[:300],
            g.edge_features[:300] if g.edge_features is not None else None,
            g.weights[:300],
        )
        nodes = np.arange(g.num_nodes)
        at = float(g.times[299])
        expected = service.predict(nodes, at)
        service.persistence.flush()
        service.persistence.close()
        service.store.close()
        resumed = PredictionService.resume(
            root, config=ServingConfig(snapshot_every=100), task=dataset.task
        )
        assert resumed.store.edges_ingested == 300
        assert np.array_equal(resumed.predict(nodes, at), expected)
