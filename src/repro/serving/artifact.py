"""Persistent SPLASH artifacts: train once, serve anywhere.

An artifact is a directory capturing everything a trained pipeline needs
to score queries — and nothing tied to the training session:

```
<path>/
  meta.json        format/version, dtype, selected process, dims, config,
                   selection risks, parameter count
  slim_weights.npz SLIM parameters via repro.nn.serialize (trained dtype)
  processes.npz    fitted feature-process state (tables + seen masks),
                   keyed "<process>::<array>"
```

``Splash.save(path)`` / ``Splash.load(path)`` round-trip through this
module.  Restoration is exact: arrays survive ``.npz`` bit-for-bit, the
model is rebuilt at the recorded precision, and a loaded pipeline attached
to the same dataset reproduces the original's metric *exactly*
(``tests/serving/test_artifact.py``).  Loaded artifacts plug straight into
:class:`repro.serving.PredictionService` (``from_splash``) and can be
hot-swapped into a running service.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from typing import Dict

import numpy as np

from repro.features.positional import PositionalFeatureProcess
from repro.features.random_feat import (
    FreshRandomFeatureProcess,
    RandomFeatureProcess,
    ZeroFeatureProcess,
)
from repro.features.structural import StructuralFeatureProcess
from repro.models.slim import SLIM
from repro.nn.serialize import load_state_dict as load_weights
from repro.nn.serialize import save_state_dict
from repro.nn.tensor import default_dtype
from repro.selection.linear_model import LinearFitConfig
from repro.selection.selector import SelectionResult
from repro.models.base import ModelConfig

ARTIFACT_FORMAT = "splash-artifact"
# Version history:
#   1 — flat SplashConfig (context_engine/num_workers/... at top level)
#   2 — SplashConfig.execution sub-config (ExecutionConfig); version-1
#       artifacts still load (their flat keys are mapped onto
#       ExecutionConfig silently, no deprecation warnings).  Older version-2
#       writers also stored an array-backend name ("backend" in meta.json,
#       execution.backend / execution.num_threads); readers ignore those.
ARTIFACT_VERSION = 2

# ExecutionConfig fields older writers stored that no longer exist.
_RETIRED_EXECUTION_KEYS = ("backend", "num_threads")

META_FILE = "meta.json"
WEIGHTS_FILE = "slim_weights"
PROCESSES_FILE = "processes.npz"

# Process name -> constructor; init_params() supplies the kwargs, so new
# process types only need an entry here plus export/restore_state support.
_PROCESS_TYPES = {
    RandomFeatureProcess.name: RandomFeatureProcess,
    PositionalFeatureProcess.name: PositionalFeatureProcess,
    StructuralFeatureProcess.name: StructuralFeatureProcess,
    FreshRandomFeatureProcess.name: FreshRandomFeatureProcess,
    ZeroFeatureProcess.name: ZeroFeatureProcess,
}


def save_artifact(splash, path: str) -> str:
    """Persist a fitted :class:`~repro.pipeline.Splash` under ``path``.

    ``path`` is created as a directory.  The write is atomic: every file
    lands in a temp sibling directory first, which is renamed into place
    only once complete — a crash mid-save leaves either the previous
    artifact or none, never a directory missing ``processes.npz``/
    ``meta.json`` that :func:`load_artifact` would reject (or worse, a
    stale-weights/new-meta mix it would load silently wrong).  Returns
    ``path``.
    """
    if splash.model is None:
        raise RuntimeError("cannot save before fit(): the pipeline has no model")
    if not splash.processes:
        raise RuntimeError(
            "cannot save a pipeline fitted from a prebuilt bundle: the "
            "feature processes it was materialised with are not attached"
        )
    for process in splash.processes:
        if type(process).name not in _PROCESS_TYPES:
            raise ValueError(
                f"process {process.name!r} ({type(process).__name__}) has no "
                "artifact support; register it in repro.serving.artifact"
            )
    path = path.rstrip(os.sep)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp_dir = os.path.join(parent, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)
    try:
        _write_artifact_files(splash, tmp_dir)
        if os.path.isdir(path):
            # os.replace cannot atomically swap non-empty directories, so
            # overwrite = rename the old artifact aside, rename the new one
            # in (the only non-crash-safe instant is between the two
            # renames, which leaves the complete old artifact under a
            # recognisable name rather than a torn mix).
            old_dir = os.path.join(
                parent, f".{os.path.basename(path)}.old-{os.getpid()}"
            )
            if os.path.exists(old_dir):
                shutil.rmtree(old_dir)
            os.rename(path, old_dir)
            os.rename(tmp_dir, path)
            shutil.rmtree(old_dir, ignore_errors=True)
        else:
            os.rename(tmp_dir, path)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return path


def _write_artifact_files(splash, path: str) -> None:
    save_state_dict(splash.model, os.path.join(path, WEIGHTS_FILE))

    arrays: Dict[str, np.ndarray] = {}
    process_meta = []
    for process in splash.processes:
        for key, value in process.export_state().items():
            arrays[f"{process.name}::{key}"] = value
        process_meta.append({"name": process.name, "params": process.init_params()})
    np.savez(os.path.join(path, PROCESSES_FILE), **arrays)

    selection = None
    if splash.selection is not None:
        selection = {
            "selected": splash.selection.selected,
            "total_risks": {
                name: float(value)
                for name, value in splash.selection.total_risks.items()
            },
            "per_split_risks": {
                name: [float(v) for v in values]
                for name, values in splash.selection.per_split_risks.items()
            },
            "split_fractions": [float(f) for f in splash.selection.split_fractions],
        }
    meta = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        # fit_dtype is a string when the config pinned it, else the numpy
        # dtype that was ambient at fit time; store the canonical name.
        "dtype": np.dtype(splash.fit_dtype).name,
        "selected": splash.model.feature_name,
        "feature_dim": int(splash.model.feature_dim),
        "edge_feature_dim": int(splash.model.edge_feature_dim),
        "output_dim": int(splash.model.decoder.dims[-1]),
        "config": dataclasses.asdict(splash.config),
        "processes": process_meta,
        "selection": selection,
        "num_parameters": int(splash.model.num_parameters()),
    }
    with open(os.path.join(path, META_FILE), "w") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())


def load_artifact(path: str):
    """Reconstruct a servable :class:`~repro.pipeline.Splash` from ``path``.

    The result has fitted processes, the trained model at its recorded
    precision, and the persisted selection — but no dataset or bundle;
    call :meth:`Splash.attach` to evaluate offline, or hand it to
    :meth:`PredictionService.from_splash` to serve.
    """
    from repro.pipeline.splash import ExecutionConfig, Splash, SplashConfig

    meta_path = os.path.join(path, META_FILE)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no SPLASH artifact at {path!r} (missing meta.json)")
    with open(meta_path) as handle:
        meta = json.load(handle)
    if meta.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"not a SPLASH artifact: format={meta.get('format')!r}")
    if int(meta.get("version", -1)) > ARTIFACT_VERSION:
        raise ValueError(
            f"artifact version {meta['version']} is newer than this "
            f"reader ({ARTIFACT_VERSION})"
        )

    raw_config = dict(meta["config"])
    raw_config["model"] = ModelConfig(**raw_config["model"])
    raw_config["linear"] = LinearFitConfig(**raw_config["linear"])
    if "execution" in raw_config:
        execution = {
            key: value
            for key, value in raw_config["execution"].items()
            if key not in _RETIRED_EXECUTION_KEYS
        }
        raw_config["execution"] = ExecutionConfig(**execution)
    else:
        # Version-1 artifact: execution knobs were flat SplashConfig
        # fields.  Map them silently — a stored artifact is not the
        # caller's code, so it gets no deprecation warning.
        raw_config["execution"] = ExecutionConfig(
            engine=raw_config.pop("context_engine", "batched"),
            num_workers=raw_config.pop("num_workers", 0),
            propagation=raw_config.pop("propagation", "blocked"),
            dtype=raw_config.pop("dtype", None),
            prefetch=raw_config.pop("prefetch", False),
        )
    config = SplashConfig(**raw_config)
    splash = Splash(config)
    splash._fit_dtype = meta["dtype"]

    with np.load(os.path.join(path, PROCESSES_FILE)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    # meta.json and processes.npz are written together but are separate
    # files: a hand-edited or mixed-up artifact can hold arrays for one
    # process set and metadata for another.  Restoring such a mix would
    # either KeyError deep inside restore_state or — worse — silently
    # mark a process fitted from another process's arrays, so the key
    # inventory is validated up front against the declared process list.
    declared = {entry["name"] for entry in meta["processes"]}
    stored = {key.split("::", 1)[0] for key in arrays}
    if declared != stored:
        missing = sorted(declared - stored)
        stale = sorted(stored - declared)
        raise ValueError(
            f"artifact at {path!r} is inconsistent: meta.json declares "
            f"processes {sorted(declared)}, processes.npz stores arrays "
            f"for {sorted(stored)}"
            + (f"; missing from processes.npz: {missing}" if missing else "")
            + (f"; stale in processes.npz: {stale}" if stale else "")
        )
    processes = []
    for entry in meta["processes"]:
        name = entry["name"]
        process_type = _PROCESS_TYPES.get(name)
        if process_type is None:
            raise ValueError(f"artifact references unknown process {name!r}")
        process = process_type(**entry["params"])
        prefix = f"{name}::"
        try:
            process.restore_state(
                {
                    key[len(prefix):]: value
                    for key, value in arrays.items()
                    if key.startswith(prefix)
                }
            )
        except KeyError as error:
            raise ValueError(
                f"artifact at {path!r} is missing array {error.args[0]!r} "
                f"for process {name!r} in processes.npz"
            ) from error
        processes.append(process)
    splash.processes = processes

    # Build the model at the artifact's precision so its parameters carry
    # the trained dtype; load_state_dict then casts the archive onto them.
    with default_dtype(meta["dtype"]):
        model = SLIM(
            feature_name=meta["selected"],
            feature_dim=int(meta["feature_dim"]),
            edge_feature_dim=int(meta["edge_feature_dim"]),
            config=config.model,
        )
        model.decoder = model.build_decoder(int(meta["output_dim"]))
        model.load_state_dict(load_weights(os.path.join(path, WEIGHTS_FILE)))
        model.eval()
    splash.model = model

    if meta.get("selection"):
        splash.selection = SelectionResult(
            selected=meta["selection"]["selected"],
            total_risks=dict(meta["selection"]["total_risks"]),
            per_split_risks={
                name: list(values)
                for name, values in meta["selection"]["per_split_risks"].items()
            },
            split_fractions=list(meta["selection"]["split_fractions"]),
        )
    return splash
