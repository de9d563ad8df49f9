"""The curated top-level API surface.

``repro.__all__`` is the stability contract: the golden list below must be
changed *deliberately* (reviewers see the diff here, not just in
``__init__.py``).  Everything else lives behind subpackage imports with no
stability promise.
"""

import repro

# Keep sorted; additions/removals are API decisions, not refactors.
GOLDEN_ALL = [
    "ExecutionConfig",
    "PredictionService",
    "ServingConfig",
    "Splash",
    "SplashConfig",
    "__version__",
    "prepare_experiment",
    "serve",
]


class TestPublicAPI:
    def test_all_matches_golden_list(self):
        assert sorted(repro.__all__) == GOLDEN_ALL

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_reexports_are_the_canonical_objects(self):
        from repro.pipeline import splash as splash_mod
        from repro.serving.config import ServingConfig
        from repro.serving.fleet import serve
        from repro.serving.service import PredictionService

        assert repro.Splash is splash_mod.Splash
        assert repro.SplashConfig is splash_mod.SplashConfig
        assert repro.ExecutionConfig is splash_mod.ExecutionConfig
        assert repro.PredictionService is PredictionService
        assert repro.ServingConfig is ServingConfig
        assert repro.serve is serve
