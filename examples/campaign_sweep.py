#!/usr/bin/env python3
"""Multi-system campaign with a content-addressed result store.

The campaign layer in one tour:

1. declare a (systems × workloads × batch-size) sweep — 28 workpackages
   across the LLM and ResNet50 benchmarks,
2. execute it through the process-pool executor with failure isolation
   (one workload axis point is deliberately invalid and is recorded as
   a failed row while every sibling completes),
3. re-run the campaign: every completed workpackage is an exact cache
   hit, so the second pass executes nothing — the timing printout shows
   the difference,
4. resume with ``continue`` semantics (retries the failure), then query
   and aggregate straight from the store.

Usage::

    python examples/campaign_sweep.py [store.jsonl]
"""

# Make the in-repo package importable regardless of the working directory.
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    PoolExecutor,
    WorkloadSpec,
    open_store,
)

SPEC = CampaignSpec(
    name="accelerator-survey",
    systems=("A100", "H100", "GH200", "MI250"),
    workloads=(
        WorkloadSpec.of_kind(
            "llm",
            axes={"global_batch_size": (256, 1024, 4096)},
            fixed={"exit_duration": "15"},
        ),
        WorkloadSpec.of_kind(
            "resnet",
            axes={"global_batch_size": (256, 1024, 2048, "not-a-number")},
        ),
    ),
)


def main() -> None:
    own_store = len(sys.argv) > 1
    tmp = None if own_store else tempfile.TemporaryDirectory()
    store_path = Path(sys.argv[1]) if own_store else Path(tmp.name) / "survey.jsonl"

    store = open_store(store_path)
    with PoolExecutor() as executor:
        runner = CampaignRunner(store, executor)

        print(f"campaign {SPEC.name!r}: {SPEC.size} workpackages planned")

        t0 = time.perf_counter()
        report = runner.run(SPEC)
        cold_s = time.perf_counter() - t0
        print(f"cold run:  {report.describe()}  [{cold_s:.2f}s]")
        for row in report.rows:
            if row.error:
                print(f"  failed (isolated): {row.step} {row.parameters['system']} "
                      f"gbs={row.parameters['global_batch_size']}: {row.error}")

        t0 = time.perf_counter()
        report = runner.run(SPEC)
        warm_s = time.perf_counter() - t0
        print(
            f"warm run:  {report.describe()}  "
            f"[{warm_s:.3f}s, {cold_s / max(warm_s, 1e-9):.0f}x faster]"
        )

        # `campaign continue` semantics: executes only what is missing or
        # failed.  The injected failure is deterministic, so it fails again
        # and stays recorded; everything else remains cached.
        report = runner.continue_run(SPEC)
        print(f"continue:  {report.describe()}")

        print()
        print(runner.status(SPEC).describe())

    print("\npeak throughput per system (from the store):")
    for metric, label in (
        ("tokens_per_s_per_device", "LLM tok/s/dev"),
        ("images_per_s_per_device", "CNN img/s/dev"),
    ):
        best = store.aggregate(metric, by="system", agg="max", campaign=SPEC.name)
        for system, value in best.items():
            print(f"  {label:<14} {system:<8} {value:>10.1f}")

    if tmp is not None:
        tmp.cleanup()
    else:
        print(f"\nstore kept at {store_path}")


if __name__ == "__main__":
    main()
