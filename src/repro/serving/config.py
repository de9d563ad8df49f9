"""Serving configuration: one nested dataclass instead of kwargs sprawl.

:class:`ServingConfig` collects every *deployment* knob of the serving
plane — micro-batch size, precision override, persistence root and
snapshot cadence, telemetry exposition, drift-monitor attachment, and the
fleet shard count — mirroring how :class:`repro.pipeline.ExecutionConfig`
collects the offline pipeline's execution knobs.  *What* is served (model,
feature processes, k) always comes from the :class:`~repro.pipeline.Splash`
artifact; *how* it is served lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.utils.validation import check_finite_positive, check_int


@dataclass
class ServingConfig:
    """*How* a trained pipeline is served — never *what* it predicts.

    Passed to :func:`repro.serving.serve` (the front door),
    ``PredictionService.from_splash`` and ``PredictionService.resume``.
    With ``num_shards`` ≤ 1 the same config describes a single in-process
    service; with ``num_shards`` ≥ 2 it describes a
    :class:`~repro.serving.fleet.FleetRouter` over that many worker
    processes — every other knob applies per worker (each shard gets its
    own persistence root under ``persist_path`` and its own registry,
    pooled under ``proc=shardN`` labels at the router's ``/metrics``).
    """

    # Queries per materialise/forward round trip.  None → the model's
    # training batch_size.  Also the router's merge granularity: the fleet
    # scores the same micro-batch boundaries as a single service, which is
    # what makes fleet scores bit-identical, not merely close.
    micro_batch_size: Optional[int] = None
    # Scoring precision ("float32"/"float64").  None → the pipeline's fit
    # dtype (artifacts record it), keeping inference at training precision.
    dtype: Optional[str] = None
    # Horizontal fan-out: ≤ 1 serves in-process, ≥ 2 starts that many
    # worker processes partitioned by endpoint hash
    # (:func:`repro.streams.replay.endpoint_shard`).
    num_shards: int = 0
    # Durable serving state (repro.serving.persistence).  None → no
    # persistence.  For a fleet this is the *parent* directory: shard i
    # persists under ``<persist_path>/shard<i>`` and warm-restarts from
    # there instead of replaying its history.
    persist_path: Optional[str] = None
    # Snapshot cadence in ingested edges (None → the persistence manager's
    # default).  Meaningful with ``persist_path``, or with ``resume()``
    # where the root arrives positionally.
    snapshot_every: Optional[int] = None
    # Telemetry HTTP exposition (/metrics, /healthz, /statusz).  None → no
    # server; an integer starts one (0 binds an ephemeral port — read it
    # back from the service/router).  A fleet exposes ONE server at the
    # router, serving every shard's registry pooled under ``proc`` labels.
    telemetry_port: Optional[int] = None
    telemetry_host: str = "127.0.0.1"
    # SLO rules for /healthz (None → repro.obs.slo.default_serving_rules).
    slo_rules: Optional[Sequence[Any]] = None
    slo_interval: float = 2.0
    # Drift monitor attached to the store's ingest path (anything with the
    # repro.adapt.DriftMonitor.observe_edges signature).  In a fleet the
    # monitor must be picklable; each worker observes the full stream, so
    # drift statistics match the single-process deployment.
    drift_monitor: Optional[Any] = None
    # Fleet catch-up ring: how many recent ingest micro-batches the router
    # retains so a restarted worker can replay what its durable state
    # missed without a full-history replay.
    catchup_ring: int = 256

    def __post_init__(self) -> None:
        if self.micro_batch_size is not None:
            check_int("micro_batch_size", self.micro_batch_size, low=1)
        if self.dtype is not None and self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype must be 'float32', 'float64' or None, got {self.dtype!r}"
            )
        check_int("num_shards", self.num_shards)
        if self.snapshot_every is not None:
            # persist_path is not required here: resume() takes the root
            # positionally and pairs it with a config carrying only the
            # cadence.  from_splash warns when the cadence has no root.
            check_int("snapshot_every", self.snapshot_every, low=1)
        if self.telemetry_port is not None:
            check_int("telemetry_port", self.telemetry_port, high=65535)
        check_finite_positive("slo_interval", self.slo_interval)
        check_int("catchup_ring", self.catchup_ring)


def ensure_serving_config(config: Optional[ServingConfig]) -> ServingConfig:
    """``config`` itself, or the all-default config for ``None``."""
    if config is None:
        return ServingConfig()
    if not isinstance(config, ServingConfig):
        raise ValueError(f"config must be a ServingConfig, got {config!r}")
    return config
