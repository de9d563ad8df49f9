"""The end-to-end SPLASH method (paper §IV, Fig. 5).

Training phase: (1) fit the three augmentation processes on the training
stream, (2) materialise query contexts in one replay, (3) select the best
process via linear empirical risks on multiple chronological splits, and
(4) train SLIM on the selected features.  Test phase: features for unseen
nodes are produced by propagation/degree-encoding inside the same replay,
and the trained SLIM scores any query subset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.features import default_processes
from repro.features.base import FeatureProcess
from repro.models.base import FitHistory, ModelConfig, evaluate_model
from repro.models.context import ContextBundle, build_context_bundle
from repro.models.slim import SLIM
from repro.nn.tensor import default_dtype, get_default_dtype
from repro.selection.linear_model import LinearFitConfig
from repro.selection.selector import FeatureSelector, SelectionResult
from repro.datasets.base import StreamDataset
from repro.streams.split import ChronoSplit
from repro.utils.logging import get_logger
from repro.utils.timer import Timer
from repro.utils.validation import check_finite_positive, check_int

logger = get_logger("splash")


@dataclass
class ExecutionConfig:
    """*How* the pipeline runs — never *what* it computes.

    Every knob here changes wall-clock behaviour only: all combinations
    produce bit-identical results at a given ``dtype`` (the
    engine-equivalence guarantees of ``models/context.py``).  ``dtype`` is
    the one exception — it selects the numeric precision itself.
    """

    dtype: Optional[str] = None  # None → ambient default; "float32" = fast path
    engine: str = "batched"  # replay engine for context materialisation
    # Worker processes for the "sharded" engine.  0 and 1 both mean "no
    # worker pool" (shards are still collected, serially, in-process); ≥ 2
    # fans shard collection out to that many processes.  Ignored by the
    # other engines.
    num_workers: int = 0
    # How the batched/sharded engines run the sequential store pass:
    # "blocked" (default) scatter-updates endpoint-disjoint runs of
    # unseen-node edges in one numpy operation per run, "event" is the
    # per-event reference.  Bit-for-bit identical outputs either way.
    propagation: str = "blocked"
    # Multi-dataset sweeps only (repro.pipeline.evaluator.iter_prepared):
    # materialise dataset N+1's context bundle in a background thread while
    # SLIM trains on dataset N.  Results are identical with the flag on or
    # off — prefetch changes when bundles are built, never their contents.
    prefetch: bool = False
    # Telemetry (repro.obs): None → leave the ambient recorder alone
    # (whatever REPRO_OBS or an earlier configure() set up); "off",
    # "metrics" or "trace" reconfigure the process-global recorder when
    # fit() starts.  Pure observability — never changes what is computed.
    obs: Optional[str] = None
    # JSONL span-log path for obs="trace" (None → ./repro-obs-trace.jsonl).
    obs_trace_path: Optional[str] = None
    # Background flush period (seconds) for the trace writer; None → flush
    # only on buffer pressure and shutdown.
    obs_flush_interval: Optional[float] = None
    # Telemetry HTTP exposition port (/metrics, /healthz, /statusz): an
    # integer starts the process-global obs.http.TelemetryServer when
    # fit() runs (0 binds an ephemeral port); None leaves whatever
    # REPRO_OBS_HTTP / an earlier start_http_server() set up.
    obs_http_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ("batched", "event", "sharded"):
            raise ValueError(
                "execution engine (formerly context_engine) must be "
                f"'batched', 'event' or 'sharded', got {self.engine!r}"
            )
        # 0 and 1 are the documented serial settings; only negatives (and
        # non-integers) are nonsense.
        check_int("num_workers", self.num_workers)
        if self.propagation not in ("blocked", "event"):
            raise ValueError(
                "propagation must be 'blocked' or 'event', "
                f"got {self.propagation!r}"
            )
        if self.dtype is not None and self.dtype not in ("float32", "float64"):
            # Fail at construction, not minutes later inside fit().
            raise ValueError(
                f"dtype must be 'float32', 'float64' or None, got {self.dtype!r}"
            )
        if self.obs is not None and self.obs not in ("off", "metrics", "trace"):
            raise ValueError(
                "obs must be 'off', 'metrics', 'trace' or None, "
                f"got {self.obs!r}"
            )
        if self.obs_trace_path is not None and self.obs not in (None, "trace"):
            warnings.warn(
                f"obs_trace_path has no effect with obs={self.obs!r}; "
                "only 'trace' mode writes a span log",
                UserWarning,
                stacklevel=2,
            )
        if self.obs_flush_interval is not None:
            check_finite_positive("obs_flush_interval", self.obs_flush_interval)
        if self.obs_http_port is not None:
            check_int("obs_http_port", self.obs_http_port, high=65535)
        if self.num_workers >= 2 and self.engine != "sharded":
            # Not an error — the config is valid and fit() runs fine — but
            # silently ignoring the setting hides that no pool will exist.
            warnings.warn(
                f"num_workers={self.num_workers} has no effect with "
                f"engine={self.engine!r}; only the 'sharded' "
                "engine collects context in worker processes",
                UserWarning,
                stacklevel=2,
            )


@dataclass
class SplashConfig:
    """Hyperparameters of the full SPLASH pipeline.

    *What* is computed lives in the flat fields (feature/model/selection
    hyperparameters); *how* it runs lives in ``execution``
    (:class:`ExecutionConfig`: precision, replay engine, workers,
    propagation mode, prefetch, telemetry).
    """

    feature_dim: int = 32
    k: int = 10
    model: ModelConfig = field(default_factory=ModelConfig)
    linear: LinearFitConfig = field(default_factory=LinearFitConfig)
    split_fractions: Optional[List[float]] = None  # None → paper's five splits
    force_process: Optional[str] = None  # ablations: "random"/"positional"/...
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.feature_dim <= 0 or self.k <= 0:
            raise ValueError("feature_dim and k must be positive")
        if not isinstance(self.execution, ExecutionConfig):
            raise ValueError(
                f"execution must be an ExecutionConfig, got {self.execution!r}"
            )


class Splash:
    """SPLASH: augment → select → SLIM.

    Typical use::

        splash = Splash(SplashConfig())
        result = splash.fit(dataset)                  # 10/10/80 split
        test_metric = splash.evaluate(splash.split.test_idx)
    """

    def __init__(self, config: Optional[SplashConfig] = None) -> None:
        self.config = config or SplashConfig()
        self.processes: List[FeatureProcess] = []
        self.bundle: Optional[ContextBundle] = None
        self.selection: Optional[SelectionResult] = None
        self.model: Optional[SLIM] = None
        self.split: Optional[ChronoSplit] = None
        self.timer = Timer()
        self._dataset: Optional[StreamDataset] = None
        self._fit_dtype = None

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: StreamDataset,
        split: Optional[ChronoSplit] = None,
        processes: Optional[Sequence[FeatureProcess]] = None,
        bundle: Optional[ContextBundle] = None,
    ) -> FitHistory:
        """Run the full training phase on ``dataset``.

        ``split`` defaults to the paper's chronological 10/10/80 over
        queries; ``processes`` defaults to {R, P, S} at ``feature_dim``.
        Pass a prebuilt ``bundle`` (containing the SPLASH candidates) to
        reuse a shared context replay across methods in experiments.
        """
        cfg = self.config
        exe = cfg.execution
        if exe.obs is not None:
            # Observability is process-global (like the default dtype):
            # an explicit setting here rebinds the recorder for the whole
            # process; obs=None leaves REPRO_OBS / prior configure() alone.
            obs.configure(
                exe.obs,
                trace_path=exe.obs_trace_path,
                flush_interval=exe.obs_flush_interval,
            )
        if exe.obs_http_port is not None:
            # Idempotent while a server is already listening on the port.
            obs.start_http_server(int(exe.obs_http_port))
        self._dataset = dataset
        self.split = split or dataset.split()
        # Freeze the training precision now: with execution.dtype=None the
        # model must keep the dtype that was ambient at *fit* time even if
        # the ambient default changes before evaluate()/predict_scores().
        self._fit_dtype = exe.dtype if exe.dtype is not None else get_default_dtype()

        if bundle is not None:
            missing = {"random", "positional", "structural"} - set(
                bundle.feature_names
            )
            if missing:
                raise ValueError(
                    f"prebuilt bundle lacks SPLASH candidates: {sorted(missing)}"
                )
            self.bundle = bundle
        else:
            train_stream = dataset.train_stream(self.split)
            with self.timer.section("feature_fit"):
                self.processes = list(
                    processes
                    if processes is not None
                    else default_processes(cfg.feature_dim, seed=cfg.seed)
                )
                for process in self.processes:
                    process.fit(train_stream, dataset.ctdg.num_nodes)
            with self.timer.section("context_build"):
                self.bundle = build_context_bundle(
                    dataset.ctdg,
                    dataset.queries,
                    cfg.k,
                    self.processes,
                    engine=exe.engine,
                    num_workers=exe.num_workers,
                    propagation=exe.propagation,
                )

        if cfg.force_process is None:
            # Selection trains linear probes on the nn backend, so it must
            # run at the same precision as the final SLIM training.
            with self.timer.section("selection"), self._execution_context():
                selector = FeatureSelector(
                    split_fractions=cfg.split_fractions,
                    linear_config=cfg.linear,
                    rng=cfg.seed,
                )
                available = np.concatenate(
                    [self.split.train_idx, self.split.val_idx]
                )
                self.selection = selector.select(
                    self.bundle,
                    dataset.task,
                    available,
                    process_names=self.bundle.splash_candidates,
                )
                selected = self.selection.selected
        else:
            selected = cfg.force_process
            self.selection = None

        logger.info("SPLASH on %s: using process %r", dataset.name, selected)
        with self.timer.section("train"), self._execution_context():
            self.model = SLIM(
                feature_name=selected,
                feature_dim=self.bundle.feature_dim(selected),
                edge_feature_dim=self.bundle.edge_feature_dim,
                config=cfg.model,
            )
            history = self.model.fit(
                self.bundle,
                dataset.task,
                self.split.train_idx,
                self.split.val_idx,
            )
        return history

    # ------------------------------------------------------------------
    @property
    def selected_process(self) -> str:
        if self.model is None:
            raise RuntimeError("fit() has not been called")
        return self.model.feature_name

    @property
    def fit_dtype(self) -> Optional[str]:
        """The precision the pipeline trained at (None before fit/load)."""
        return self._fit_dtype

    # ------------------------------------------------------------------
    # Persistence (see repro.serving.artifact for the on-disk format)
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Persist the fitted pipeline as a servable artifact directory.

        Captures the selected process, every fitted feature process, the
        SLIM weights at their trained precision, and the config — enough
        to :meth:`load` and serve without the training data.
        """
        from repro.serving.artifact import save_artifact

        return save_artifact(self, path)

    def serve(self, config=None, *, num_nodes: int, edge_feature_dim=None, task=None):
        """Serve this fitted pipeline — see :func:`repro.serving.serve`.

        ``config`` is a :class:`repro.serving.ServingConfig`;
        ``num_shards`` there selects between one in-process service and a
        sharded fleet, behind the same client protocol.
        """
        from repro.serving import serve

        return serve(
            self,
            config,
            num_nodes=num_nodes,
            edge_feature_dim=edge_feature_dim,
            task=task,
        )

    @classmethod
    def load(cls, path: str) -> "Splash":
        """Reconstruct a pipeline saved with :meth:`save`.

        The result scores immediately through
        :class:`repro.serving.PredictionService`; for offline evaluation
        against a dataset, call :meth:`attach` first.
        """
        from repro.serving.artifact import load_artifact

        return load_artifact(path)

    def attach(
        self, dataset: StreamDataset, split: Optional[ChronoSplit] = None
    ) -> "Splash":
        """Bind a loaded pipeline to a dataset without refitting anything.

        Rebuilds the context bundle from the already-fitted processes
        (identical to the one the original training session saw, since
        process state round-trips exactly) and binds the dataset's task
        for score conversion, after which :meth:`evaluate` and
        :meth:`predict_scores` work as if ``fit`` had run here.
        """
        if self.model is None or not self.processes:
            raise RuntimeError("attach() needs a fitted or loaded pipeline")
        cfg = self.config
        exe = cfg.execution
        self._dataset = dataset
        self.split = split or dataset.split()
        with self.timer.section("context_build"):
            self.bundle = build_context_bundle(
                dataset.ctdg,
                dataset.queries,
                cfg.k,
                self.processes,
                engine=exe.engine,
                num_workers=exe.num_workers,
                propagation=exe.propagation,
            )
        self.model.bind_task(dataset.task)
        return self

    def _execution_context(self):
        """Inference must run at the precision the model was trained under."""
        return default_dtype(
            self._fit_dtype if self._fit_dtype is not None else get_default_dtype()
        )

    def predict_scores(self, idx: np.ndarray) -> np.ndarray:
        if self.model is None or self.bundle is None:
            raise RuntimeError("fit() has not been called")
        with self._execution_context():
            return self.model.predict_scores(self.bundle, idx)

    def evaluate(self, idx: Optional[np.ndarray] = None) -> float:
        """Task metric on ``idx`` (default: the held-out test queries)."""
        if self.model is None or self.bundle is None or self._dataset is None:
            raise RuntimeError("fit() has not been called")
        if idx is None:
            assert self.split is not None
            idx = self.split.test_idx
        with self.timer.section("inference"), self._execution_context():
            return evaluate_model(self.model, self.bundle, self._dataset.task, idx)

    def num_parameters(self) -> int:
        if self.model is None:
            raise RuntimeError("fit() has not been called")
        return self.model.num_parameters()


def fit_window(
    config: SplashConfig,
    ctdg,
    queries,
    task,
    *,
    train_frac: float = 0.5,
    val_frac: float = 0.2,
    name: str = "refit-window",
):
    """Run the full SPLASH training phase on a sliding stream window.

    The windowed re-fit entrypoint of the adaptation loop
    (:class:`repro.adapt.AdaptiveService`): ``ctdg``/``queries``/``task``
    describe the recent window (e.g. the arrays a
    :class:`repro.adapt.stats.StreamWindow` buffered), and the whole
    pipeline — process fitting, context materialisation (through
    ``config.execution.engine``, so a sharded config parallelises the
    replay), selection, SLIM training — runs on it from scratch.

    The chronological split inside the window defaults to 50/20/30 rather
    than the paper's 10/10/80: a re-fit wants to *learn from* most of the
    window, and the trailing 30% is exactly the held-out recent slice the
    shadow-evaluation gate scores candidates on.

    Returns ``(splash, dataset, split)`` — the fitted pipeline, the window
    wrapped as a :class:`~repro.datasets.base.StreamDataset`, and the
    split whose ``test_idx`` is the shadow hold-out.
    """
    dataset = StreamDataset(name=name, ctdg=ctdg, queries=queries, task=task)
    split = dataset.split(train_frac, val_frac)
    splash = Splash(config)
    splash.fit(dataset, split=split)
    return splash, dataset, split
