"""Golden-file regression test for the end-to-end SPLASH pipeline.

A small committed fixture stream (``fixtures/golden_stream.npz``) is run
through the full pipeline — feature fitting, context materialisation,
linear-risk selection, SLIM training, evaluation — under both ``float32``
and ``float64``, and the outcome is compared against the committed
expectations in ``fixtures/golden_expected.json``.  This locks in:

* the selection decision (exact): a change in replay, features, or the
  selector that flips the chosen process is a behavioural regression;
* the selection risks and test metric (tolerance-compared): seeds are
  fixed and the nn backend is deterministic on a given machine, but BLAS
  kernels and libm differ across CPUs, and epochs of training amplify
  ULP-level drift — hence tolerances rather than bit equality;
* PR 1's dtype-freezing behaviour: each precision reproduces *its own*
  golden record, and the two precisions agree with each other within the
  float32 tolerance.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/pipeline/test_golden_pipeline.py --regenerate

and commit both fixture files together with the change that explains them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.base import StreamDataset
from repro.models import ModelConfig
from repro.pipeline import ExecutionConfig, Splash, SplashConfig
from repro.streams.ctdg import CTDG
from repro.tasks.base import QuerySet
from repro.tasks.classification import ClassificationTask

FIXTURE_DIR = Path(__file__).parent / "fixtures"
STREAM_FILE = FIXTURE_DIR / "golden_stream.npz"
EXPECTED_FILE = FIXTURE_DIR / "golden_expected.json"

# Tolerances: float64 catches everything beyond cross-machine BLAS/libm
# noise; float32 additionally absorbs the fast path's reduced precision.
RISK_RTOL = {"float64": 1e-4, "float32": 5e-3}
METRIC_ATOL = {"float64": 0.02, "float32": 0.03}

GOLDEN_MODEL = ModelConfig(
    hidden_dim=24, epochs=8, batch_size=128, patience=4, time_dim=8, lr=3e-3, seed=0
)


def load_golden_dataset() -> StreamDataset:
    """Reconstruct the fixture dataset from raw committed arrays.

    The stream is stored as arrays (not regenerated from a generator) so
    generator changes cannot silently invalidate the golden record.
    """
    data = np.load(STREAM_FILE)
    ctdg = CTDG(
        data["src"],
        data["dst"],
        data["times"],
        weights=data["weights"],
        num_nodes=int(data["num_nodes"]),
    )
    queries = QuerySet(data["q_nodes"], data["q_times"])
    task = ClassificationTask(
        labels=data["labels"], num_classes=int(data["num_classes"])
    )
    return StreamDataset(name="golden-email", ctdg=ctdg, queries=queries, task=task)


def run_pipeline(dtype: str, engine: str = "batched") -> dict:
    config = SplashConfig(
        feature_dim=12,
        k=8,
        model=GOLDEN_MODEL,
        execution=ExecutionConfig(engine=engine, dtype=dtype),
        seed=0,
    )
    splash = Splash(config)
    splash.fit(load_golden_dataset())
    assert splash.selection is not None
    return {
        "selected": splash.selected_process,
        "risks": {name: float(v) for name, v in splash.selection.total_risks.items()},
        "test_metric": float(splash.evaluate()),
        "num_parameters": int(splash.num_parameters()),
    }


@pytest.fixture(scope="module")
def expected() -> dict:
    with open(EXPECTED_FILE) as handle:
        return json.load(handle)


class TestGoldenPipeline:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fit_reproduces_golden_record(self, dtype, expected):
        got = run_pipeline(dtype)
        want = expected[dtype]
        assert got["selected"] == want["selected"]
        assert got["num_parameters"] == want["num_parameters"]
        assert set(got["risks"]) == set(want["risks"])
        for name, want_risk in want["risks"].items():
            assert got["risks"][name] == pytest.approx(
                want_risk, rel=RISK_RTOL[dtype]
            ), f"risk[{name}] drifted under {dtype}"
        assert got["test_metric"] == pytest.approx(
            want["test_metric"], abs=METRIC_ATOL[dtype]
        )

    def test_precisions_agree_on_behaviour(self, expected):
        # The dtype-frozen fast path must tell the same qualitative story
        # as the bit-exact default: same selection, metrics within the
        # float32 tolerance of each other.
        f64, f32 = expected["float64"], expected["float32"]
        assert f64["selected"] == f32["selected"]
        assert f64["test_metric"] == pytest.approx(
            f32["test_metric"], abs=METRIC_ATOL["float32"]
        )

    def test_sharded_engine_reproduces_float64_golden(self, expected):
        # The context bundle is engine-invariant, so the whole pipeline
        # outcome must be too (selection consumes only the bundle).
        got = run_pipeline("float64", engine="sharded")
        want = expected["float64"]
        assert got["selected"] == want["selected"]
        assert got["test_metric"] == pytest.approx(
            want["test_metric"], abs=METRIC_ATOL["float64"]
        )


def _regenerate() -> None:
    from repro.datasets import email_eu_like

    FIXTURE_DIR.mkdir(exist_ok=True)
    dataset = email_eu_like(seed=3, num_edges=700)
    np.savez_compressed(
        STREAM_FILE,
        src=dataset.ctdg.src,
        dst=dataset.ctdg.dst,
        times=dataset.ctdg.times,
        weights=dataset.ctdg.weights,
        num_nodes=dataset.ctdg.num_nodes,
        q_nodes=dataset.queries.nodes,
        q_times=dataset.queries.times,
        labels=dataset.task.labels,
        num_classes=dataset.task.num_classes,
    )
    record = {dtype: run_pipeline(dtype) for dtype in ("float64", "float32")}
    with open(EXPECTED_FILE, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {STREAM_FILE} and {EXPECTED_FILE}")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
