"""Quickstart: train SPLASH on a community-labelled edge stream.

Runs the full pipeline of the paper (feature augmentation → automatic
feature selection → SLIM) on the Email-EU-like synthetic dataset and
reports the chronological test F1.

Usage:  python examples/quickstart.py [--edges 3000] [--seed 0]
                                      [--dtype {float32,float64}]
                                      [--engine {batched,event,sharded}]
                                      [--num-workers N]
                                      [--propagation {blocked,event}]

``--dtype float32`` selects the tensor backend's fast path (half the
memory traffic during SLIM training); float64 is the bit-exact default.
``--engine sharded --num-workers 4``
materialises query contexts from contiguous stream shards in parallel
worker processes (all engines produce bit-identical contexts; see
DESIGN.md §3).  All execution knobs ride on one
:class:`~repro.pipeline.ExecutionConfig`.
"""

import argparse

from repro.datasets import email_eu_like
from repro.models import ModelConfig
from repro.nn import set_default_dtype
from repro.pipeline import ExecutionConfig, Splash, SplashConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--edges", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dtype",
        choices=["float32", "float64"],
        default="float64",
        help="tensor backend precision (float32 = fast path)",
    )
    parser.add_argument(
        "--engine",
        choices=["batched", "event", "sharded"],
        default="batched",
        help="context replay engine (all three produce identical bundles)",
    )
    parser.add_argument(
        "--num-workers",
        type=int,
        default=0,
        help="worker processes for --engine sharded (0/1 = serial in-process)",
    )
    parser.add_argument(
        "--propagation",
        choices=["blocked", "event"],
        default="blocked",
        help="sequential store pass: block-scatter runs or per-event reference",
    )
    args = parser.parse_args()

    set_default_dtype(args.dtype)
    dataset = email_eu_like(seed=args.seed, num_edges=args.edges)
    print(f"dataset: {dataset.summary()}")

    config = SplashConfig(
        feature_dim=32,
        k=10,
        model=ModelConfig(
            hidden_dim=64, epochs=50, patience=10, lr=3e-3, seed=args.seed
        ),
        execution=ExecutionConfig(
            engine=args.engine,
            num_workers=args.num_workers,
            propagation=args.propagation,
            dtype=args.dtype,
        ),
        seed=args.seed,
    )
    splash = Splash(config)
    splash.fit(dataset)  # chronological 10/10/80 split, as in the paper

    print(f"selected feature process : {splash.selected_process}")
    if splash.selection is not None:
        risks = {k: round(v, 3) for k, v in splash.selection.total_risks.items()}
        print(f"selection risks (Eq. 13) : {risks}")
    print(f"model parameters         : {splash.num_parameters()}")
    print(f"training precision       : {args.dtype}")
    print(f"context engine           : {args.engine}"
          + (f" ({args.num_workers} workers)" if args.engine == "sharded" else ""))
    print(f"test {dataset.task.metric_name:<19}: {splash.evaluate():.4f}")
    print(f"stage timings (s)        : "
          f"{ {k: round(v, 2) for k, v in splash.timer.as_dict().items()} }")


if __name__ == "__main__":
    main()
