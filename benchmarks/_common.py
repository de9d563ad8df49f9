"""Shared configuration for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper at a scale
controlled by ``REPRO_BENCH_SCALE`` (default 1.0; raise it for closer-to-
paper statistics, lower it for smoke runs).  Each benchmark prints its
rows/series and also writes them under ``benchmarks/results/`` so the
artifacts survive pytest's output capture.

Knobs (environment variables, so pytest-driven runs can set them):

* ``REPRO_BENCH_SCALE`` — edge-count multiplier (default 1.0);
* ``REPRO_BENCH_FULL``  — ``1`` runs the paper's full method roster;
* ``REPRO_BENCH_DTYPE`` — ``float32``/``float64`` working precision for
  model training (applied process-wide at import; float32 is the fast
  path, float64 the bit-exact reproduction default).

Performance artifacts: machine-readable benchmark records are written as
``BENCH_*.json`` via :func:`bench_json` — see ``benchmarks/README.md`` for
how to compare them against committed baselines.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import numpy as np

from repro.models import ModelConfig
from repro.nn import set_default_dtype

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
DTYPE = os.environ.get("REPRO_BENCH_DTYPE", "float64")

# Apply the requested precision process-wide so every entry point (models,
# SPLASH, baselines) trains on the same fast path.
set_default_dtype(DTYPE)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def edges(base: int) -> int:
    """Scaled edge count (minimum 600 so splits stay meaningful)."""
    return max(600, int(base * SCALE))


def model_config(seed: int = 0) -> ModelConfig:
    return ModelConfig(
        hidden_dim=48,
        epochs=max(6, int(25 * min(SCALE, 2.0))),
        batch_size=128,
        patience=6,
        time_dim=8,
        lr=3e-3,
        seed=seed,
    )


# Methods used by the comparison benches.  The paper's full roster runs with
# REPRO_BENCH_FULL=1; the default keeps one representative per family plus
# every +RF variant that matters for the feature-augmentation claim.
DEFAULT_METHODS = [
    "jodie",
    "jodie+rf",
    "tgat",
    "tgat+rf",
    "graphmixer+rf",
    "dygformer+rf",
    "slim+rf",
    "splash",
]
FULL_METHODS = [
    "jodie",
    "dysat",
    "tgat",
    "tgn",
    "graphmixer",
    "dygformer",
    "freedyg",
    "jodie+rf",
    "dysat+rf",
    "tgat+rf",
    "tgn+rf",
    "graphmixer+rf",
    "dygformer+rf",
    "freedyg+rf",
    "slim+rf",
    "splash",
]


def comparison_methods() -> list:
    return FULL_METHODS if FULL else DEFAULT_METHODS


def save_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def emit(name: str, text: str) -> None:
    """Print the artifact and persist it under benchmarks/results/."""
    print(f"\n===== {name} =====")
    print(text)
    path = save_result(name, text)
    print(f"[saved to {path}]")


def bench_environment() -> dict:
    """Provenance stamped into every BENCH_*.json record."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        # Parallel-engine records are only comparable at similar core
        # counts (a 1-CPU box shows the sharded engine's serial gains but
        # no pool scaling).
        "cpu_count": os.cpu_count(),
        "scale": SCALE,
        "dtype": DTYPE,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def bench_json(name: str, payload: dict, path: str | None = None) -> str:
    """Write a machine-readable benchmark record (``BENCH_*.json``).

    ``payload`` is augmented with :func:`bench_environment` provenance.
    ``path`` overrides the destination (default: ``benchmarks/results/``);
    CI's smoke job uses that to emit ``BENCH_pr.json`` at the repo root
    for artifact upload.
    """
    record = {"name": name, "environment": bench_environment(), **payload}
    if path is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        json_name = name if name.endswith(".json") else name + ".json"
        path = os.path.join(RESULTS_DIR, json_name)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"[bench json saved to {path}]")
    return path
