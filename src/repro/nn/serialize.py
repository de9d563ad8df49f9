"""Saving and loading model state dicts as ``.npz`` archives.

Archives keep whatever precision the module trained in; loading can recast
(``dtype=...``) so float64-trained checkpoints restore into float32 modules
and vice versa.  :meth:`Module.load_state_dict` additionally casts each
array to the receiving parameter's dtype, so a checkpoint always adopts the
precision of the module it is loaded into.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.nn.layers import Module

# Metadata key that older archives stored next to the parameters (the name
# of the array backend they were written under).  Nothing writes it any
# more; :func:`load_state_dict` strips it so those archives still load.
_LEGACY_BACKEND_KEY = "__backend__"


def save_state_dict(module: Module, path: str) -> str:
    """Write ``module.state_dict()`` to ``path`` (``.npz`` appended if absent).

    Returns the path actually written (numpy appends the suffix itself),
    so callers embedding the archive in a larger artifact can record it.
    """
    state = dict(module.state_dict())
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)
    return path if path.endswith(".npz") else path + ".npz"


def archive_dtype(path: str) -> Optional[np.dtype]:
    """The floating dtype a state-dict archive was saved in (None if it
    holds no floating arrays) — lets loaders verify an artifact's declared
    precision against its weights without materialising the whole archive."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        for name in archive.files:
            value = archive[name]
            if np.issubdtype(value.dtype, np.floating):
                return value.dtype
    return None


def load_state_dict(path: str, dtype: Optional[object] = None) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state_dict`.

    The ``__backend__`` metadata key of older archives is stripped, so
    the result feeds straight into ``Module.load_state_dict``.  ``dtype`` recasts
    floating arrays on load (e.g. ``np.float32`` to restore a float64
    checkpoint into the fast-path precision).
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        state = {
            name: archive[name]
            for name in archive.files
            if name != _LEGACY_BACKEND_KEY
        }
    if dtype is not None:
        resolved = np.dtype(dtype)
        state = {
            name: value.astype(resolved)
            if np.issubdtype(value.dtype, np.floating)
            else value
            for name, value in state.items()
        }
    return state


def load_into(module: Module, path: str) -> Module:
    """Load parameters from ``path`` into ``module`` and return it."""
    module.load_state_dict(load_state_dict(path))
    return module
