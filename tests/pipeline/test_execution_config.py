"""ExecutionConfig, the one spelling of the pipeline's execution knobs.

Every execution knob lives under ``SplashConfig.execution``.  These tests
pin the config's defaults, that the retired flat and positional spellings
are rejected with a ``TypeError`` naming them, and that stored version-1
and version-2 artifacts still load.
"""

import json
import os
import warnings

import pytest

from repro.datasets import email_eu_like
from repro.models import ModelConfig
from repro.models.context import build_context_bundle
from repro.pipeline import ExecutionConfig, Splash, SplashConfig, prepare_experiment

FAST_MODEL = ModelConfig(hidden_dim=12, epochs=2, batch_size=64, seed=0)


@pytest.fixture(scope="module")
def tiny_dataset():
    return email_eu_like(seed=0, num_edges=300)


class TestExecutionConfig:
    def test_defaults(self):
        execution = ExecutionConfig()
        assert execution.dtype is None
        assert execution.engine == "batched"
        assert execution.num_workers == 0
        assert execution.propagation == "blocked"
        assert execution.prefetch is False

    def test_splash_config_rejects_non_execution(self):
        with pytest.raises(ValueError, match="ExecutionConfig"):
            SplashConfig(execution={"engine": "batched"})


class TestRetiredSpellings:
    def test_unknown_kwarg_rejected(self, tiny_dataset):
        with pytest.raises(TypeError, match="context_engine"):
            SplashConfig(context_engine="sharded")
        with pytest.raises(TypeError, match="num_workers"):
            prepare_experiment(tiny_dataset, k=4, feature_dim=8, num_workers=2)

    def test_too_many_positional_arguments(self, tiny_dataset):
        # The execution knobs are keyword-only.
        with pytest.raises(TypeError, match="positional"):
            build_context_bundle(
                tiny_dataset.ctdg, tiny_dataset.queries, 4, (), "event"
            )


class TestFlatFieldShims:
    """The flat shims are gone; the nested spelling must stay warning-free."""

    def test_new_api_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SplashConfig(
                execution=ExecutionConfig(engine="sharded", dtype="float32")
            )
            assert config.execution.engine == "sharded"
            Splash(config)


class TestPrepareExperimentShim:
    """``prepare_experiment`` takes its knobs only through ``execution=``."""

    def test_execution_api_is_warning_free(self, tiny_dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prepared = prepare_experiment(
                tiny_dataset,
                k=4,
                feature_dim=8,
                seed=0,
                execution=ExecutionConfig(engine="event"),
            )
        assert prepared.execution.engine == "event"


class TestVersion1ArtifactLoad:
    def test_v1_flat_config_loads_silently(self, tiny_dataset, tmp_path):
        config = SplashConfig(feature_dim=8, k=4, model=FAST_MODEL, seed=0)
        splash = Splash(config)
        splash.fit(tiny_dataset)
        path = splash.save(str(tmp_path / "artifact"))

        # Rewrite meta.json the way a version-1 artifact stored it: flat
        # execution keys directly on the config dict.
        meta_path = os.path.join(path, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        execution = meta["config"].pop("execution")
        meta["version"] = 1
        meta["config"]["context_engine"] = execution["engine"]
        meta["config"]["num_workers"] = execution["num_workers"]
        meta["config"]["propagation"] = execution["propagation"]
        meta["config"]["dtype"] = execution["dtype"]
        meta["config"]["prefetch"] = execution["prefetch"]
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent: artifacts are not caller code
            loaded = Splash.load(path)
        assert loaded.config.execution.engine == "batched"
        assert loaded.selected_process == splash.selected_process

    def test_v2_round_trip(self, tiny_dataset, tmp_path):
        config = SplashConfig(feature_dim=8, k=4, model=FAST_MODEL, seed=0)
        splash = Splash(config)
        splash.fit(tiny_dataset)
        path = splash.save(str(tmp_path / "artifact-v2"))
        with open(os.path.join(path, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta["version"] == 2
        assert "backend" not in meta
        assert meta["config"]["execution"]["engine"] == "batched"
        loaded = Splash.load(path)
        assert isinstance(loaded.config.execution, ExecutionConfig)
