"""Experiment runner: one bundle, many methods, comparable results.

Prepares a dataset once (fit feature processes, materialise contexts) and
then runs any subset of the paper's methods against it, recording the task
metric, wall-clock training/inference time, and parameter counts — the raw
material for Tables III/IV and Figures 9-12.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.datasets.base import StreamDataset
from repro.features import default_processes
from repro.features.random_feat import FreshRandomFeatureProcess, ZeroFeatureProcess
from repro.models import ModelConfig, create_model
from repro.models.context import ContextBundle, build_context_bundle
from repro.nn.tensor import default_dtype, get_default_dtype
from repro.pipeline.splash import ExecutionConfig, Splash, SplashConfig
from repro.streams.split import ChronoSplit
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_rngs

logger = get_logger("evaluator")


@dataclass
class MethodResult:
    """Outcome of one (method, dataset) run."""

    method: str
    dataset: str
    metric_name: str
    test_metric: float
    train_seconds: float
    inference_seconds: float
    num_parameters: int
    selected_process: Optional[str] = None
    val_metric: Optional[float] = None
    dtype: str = "float64"
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class PreparedExperiment:
    """A dataset with its fitted features, contexts, and split."""

    dataset: StreamDataset
    bundle: ContextBundle
    split: ChronoSplit
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    feature_fit_seconds: float = 0.0
    context_seconds: float = 0.0

    # Plain (non-warning) records of how the bundle was built — kept so
    # existing result-inspection code keeps reading the old names.
    @property
    def context_engine(self) -> str:
        return self.execution.engine

    @property
    def num_workers(self) -> int:
        return self.execution.num_workers

    @property
    def propagation(self) -> str:
        return self.execution.propagation


def prepare_experiment(
    dataset: StreamDataset,
    k: int = 10,
    feature_dim: int = 32,
    seed: int = 0,
    split: Optional[ChronoSplit] = None,
    execution: Optional[ExecutionConfig] = None,
) -> PreparedExperiment:
    """Fit all feature processes on the training stream and build the shared
    context bundle (one replay serving every method).

    ``execution`` supplies the replay knobs (:class:`ExecutionConfig`):
    ``engine`` selects the replay implementation for the materialisation
    step — ``"batched"`` (the vectorised default), ``"event"`` (the
    per-event reference), or ``"sharded"`` (contiguous interleave shards
    collected in ``num_workers`` worker processes and merged;
    ``num_workers <= 1`` collects the shards serially in-process) — and
    ``propagation`` selects how the batched/sharded engines run the
    sequential store pass (``"blocked"`` scatter-updates endpoint-disjoint
    runs, ``"event"`` is the per-event reference; identical outputs).
    All engines produce identical bundles.  Preparation never touches the
    process-global default dtype, so it is safe to call from
    :func:`iter_prepared`'s prefetch thread.  Wall-clock of the feature fit
    and the context replay is recorded on the result so benchmarks can
    track the materialisation cost over time.
    """
    if execution is None:
        execution = ExecutionConfig()
    split = split or dataset.split()
    train_stream = dataset.train_stream(split)
    rng_fresh, _ = spawn_rngs(seed + 1, 2)
    processes = default_processes(feature_dim, seed=seed) + [
        FreshRandomFeatureProcess(feature_dim, rng=rng_fresh),
        ZeroFeatureProcess(feature_dim),
    ]
    start = time.perf_counter()
    for process in processes:
        process.fit(train_stream, dataset.ctdg.num_nodes)
    fit_seconds = time.perf_counter() - start
    start = time.perf_counter()
    bundle = build_context_bundle(
        dataset.ctdg,
        dataset.queries,
        k,
        processes,
        engine=execution.engine,
        num_workers=execution.num_workers,
        propagation=execution.propagation,
    )
    context_seconds = time.perf_counter() - start
    return PreparedExperiment(
        dataset=dataset,
        bundle=bundle,
        split=split,
        execution=execution,
        feature_fit_seconds=fit_seconds,
        context_seconds=context_seconds,
    )


def iter_prepared(
    datasets: Iterable[StreamDataset],
    splash_config: SplashConfig,
    seed: int = 0,
) -> Iterator[PreparedExperiment]:
    """Yield :func:`prepare_experiment` results for a dataset sweep.

    With ``splash_config.execution.prefetch`` set, dataset N+1's feature
    fit and context materialisation run on a background thread while the
    caller trains on dataset N — the training half of the ROADMAP's
    async-prefetch item (the serving half landed with
    ``PredictionService.serve_stream(background=True)``).  Preparation
    never touches the nn backend's process-global dtype (see
    :func:`prepare_experiment`), so overlapping it with training changes
    *when* bundles are built, never their contents: results are identical
    with the flag on or off
    (``tests/pipeline/test_prefetch.py``).

    The prefetch depth is one — bundles are large, so materialising the
    whole sweep ahead would trade the win for memory.
    """
    execution = splash_config.execution

    def prepare(dataset: StreamDataset) -> PreparedExperiment:
        return prepare_experiment(
            dataset,
            k=splash_config.k,
            feature_dim=splash_config.feature_dim,
            seed=seed,
            execution=execution,
        )

    iterator = iter(datasets)
    if not execution.prefetch:
        for dataset in iterator:
            yield prepare(dataset)
        return

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="prefetch") as pool:
        pending = None
        for dataset in iterator:
            future = pool.submit(prepare, dataset)
            if pending is not None:
                yield pending.result()
            pending = future
        if pending is not None:
            yield pending.result()


def run_method(
    method: str,
    prepared: PreparedExperiment,
    config: Optional[ModelConfig] = None,
    splash_config: Optional[SplashConfig] = None,
    dtype: Optional[str] = None,
) -> MethodResult:
    """Train and evaluate one method on a prepared experiment.

    ``dtype`` (``"float32"``/``"float64"``) selects the tensor backend's
    working precision for this run; ``None`` keeps the ambient default.
    The precision actually used and the shared context-materialisation
    wall-clock are recorded on the result.
    """
    dataset, bundle, split = prepared.dataset, prepared.bundle, prepared.split
    task = dataset.task
    config = config or ModelConfig()
    run_dtype = dtype if dtype is not None else get_default_dtype().name
    timings = {
        "context_seconds": prepared.context_seconds,
        "feature_fit_seconds": prepared.feature_fit_seconds,
    }

    if method.lower() == "splash":
        sp_config = splash_config or SplashConfig(
            feature_dim=bundle.feature_dim("random"), k=bundle.k, model=config
        )
        if sp_config.execution.dtype is not None:
            # A dtype on the SplashConfig wins inside Splash.fit; record
            # the precision actually used, not the ambient one.
            run_dtype = sp_config.execution.dtype
        splash = Splash(sp_config)
        with default_dtype(run_dtype):
            start = time.perf_counter()
            splash.fit(dataset, split=split, bundle=bundle)
            train_seconds = time.perf_counter() - start
            start = time.perf_counter()
            test_metric = splash.evaluate(split.test_idx)
            inference_seconds = time.perf_counter() - start
        return MethodResult(
            method="SPLASH",
            dataset=dataset.name,
            metric_name=task.metric_name,
            test_metric=test_metric,
            train_seconds=train_seconds,
            inference_seconds=inference_seconds,
            num_parameters=splash.num_parameters(),
            selected_process=splash.selected_process,
            dtype=run_dtype,
            extra=dict(timings),
        )

    with default_dtype(run_dtype):
        model = create_model(method, bundle, config)
        start = time.perf_counter()
        history = model.fit(bundle, task, split.train_idx, split.val_idx)
        train_seconds = time.perf_counter() - start
        start = time.perf_counter()
        scores = model.predict_scores(bundle, split.test_idx)
        inference_seconds = time.perf_counter() - start
    try:
        test_metric = task.evaluate(scores, split.test_idx)
    except ValueError:
        test_metric = float("nan")
    logger.info(
        "%s on %s: %s=%.4f (train %.1fs, %s)",
        method,
        dataset.name,
        task.metric_name,
        test_metric,
        train_seconds,
        run_dtype,
    )
    return MethodResult(
        method=method,
        dataset=dataset.name,
        metric_name=task.metric_name,
        test_metric=test_metric,
        train_seconds=train_seconds,
        inference_seconds=inference_seconds,
        num_parameters=model.num_parameters(),
        val_metric=history.best_val_score if history.val_scores else None,
        dtype=run_dtype,
        extra=dict(timings),
    )


def run_methods(
    methods: Sequence[str],
    prepared: PreparedExperiment,
    config: Optional[ModelConfig] = None,
    dtype: Optional[str] = None,
) -> List[MethodResult]:
    return [run_method(method, prepared, config, dtype=dtype) for method in methods]


def format_results_table(results: Sequence[MethodResult]) -> str:
    """Render results as an aligned text table (Table III style)."""
    if not results:
        return "(no results)"
    headers = ["method", "dataset", "metric", "value", "train_s", "infer_s", "params"]
    rows = [
        [
            r.method,
            r.dataset,
            r.metric_name,
            f"{100 * r.test_metric:.1f}" if np.isfinite(r.test_metric) else "n/a",
            f"{r.train_seconds:.1f}",
            f"{r.inference_seconds:.2f}",
            str(r.num_parameters),
        ]
        for r in results
    ]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(headers[c].ljust(widths[c]) for c in range(len(headers))),
        "  ".join("-" * widths[c] for c in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in range(len(headers))))
    return "\n".join(lines)
