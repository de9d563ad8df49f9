"""SPLASH reproduction — node property prediction on edge streams under
distribution shifts (Lee, Kwon, Moon & Shin, ICDE 2025).

Subpackages
-----------
``repro.nn``         numpy autograd + neural-network substrate
``repro.streams``    CTDG edge streams, snapshots, replay, splitting
``repro.features``   R/P/S feature augmentation, propagation, node2vec
``repro.selection``  automatic feature selection via linear risks
``repro.models``     SLIM and all baseline TGNNs
``repro.tasks``      classification / anomaly / affinity tasks
``repro.datasets``   synthetic dataset generators (see DESIGN.md)
``repro.pipeline``   end-to-end SPLASH and the experiment harness
``repro.metrics``    AUC, F1, NDCG@k, silhouette
``repro.analysis``   t-SNE, drift diagnostics, efficiency accounting
``repro.serving``    online serving: incremental store, prediction service
``repro.adapt``      drift-aware continual adaptation of the serving loop

Public API
----------
The blessed entry points are re-exported here (and pinned by
``tests/test_public_api.py``): the pipeline front door (:class:`Splash`,
:class:`SplashConfig`, :class:`ExecutionConfig`, :func:`prepare_experiment`),
and the serving front door (:func:`serve` + :class:`ServingConfig`, plus
:class:`PredictionService` for direct use).  Everything else is reachable
through the subpackages but carries no stability promise.

Quickstart
----------
>>> from repro.datasets import email_eu_like
>>> from repro.pipeline import Splash, SplashConfig
>>> splash = Splash(SplashConfig())
>>> splash.fit(email_eu_like(seed=0))        # doctest: +SKIP
>>> splash.evaluate()                        # doctest: +SKIP
"""

from repro.pipeline import (
    ExecutionConfig,
    Splash,
    SplashConfig,
    prepare_experiment,
)
from repro.serving import PredictionService, ServingConfig, serve

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # pipeline front door
    "ExecutionConfig",
    "Splash",
    "SplashConfig",
    "prepare_experiment",
    # serving front door
    "PredictionService",
    "ServingConfig",
    "serve",
]
