#!/usr/bin/env python3
"""Figure-2-style batch-size sweep, run as a campaign.

Declares the 800M GPT benchmark over the paper's global batch sizes on
five systems as a :class:`CampaignSpec`, fans the 20 workpackages out
over a process pool, and reads every figure of merit back from the
content-addressed result store — including the CSV export.

Usage::

    python examples/llm_batch_sweep.py [output.csv]
"""

# Make the in-repo package importable regardless of the working directory.
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign import CampaignRunner, CampaignSpec, PoolExecutor, WorkloadSpec, open_store

SYSTEMS = ("A100", "H100", "WAIH100", "GH200", "MI250")
BATCH_SIZES = (64, 256, 1024, 4096)


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "llm_batch_sweep.csv"
    spec = CampaignSpec(
        name="llm-batch-sweep",
        systems=SYSTEMS,
        workloads=(
            WorkloadSpec.of_kind(
                "llm",
                axes={"global_batch_size": BATCH_SIZES},
                fixed={"exit_duration": "15"},
            ),
        ),
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = open_store(Path(tmp) / "sweep.jsonl")
        with PoolExecutor() as executor:
            report = CampaignRunner(store, executor).run(spec)
        print(report.describe())

        header = f"{'system':<8} {'gbs':>5} {'tok/s/dev':>11} {'Wh/dev':>8} {'tok/Wh':>9}"
        print(header)
        print("-" * len(header))
        rows = store.query(campaign=spec.name, status="completed")
        for row in rows:
            print(
                f"{row.parameters['system']:<8} "
                f"{row.parameters['global_batch_size']:>5} "
                f"{row.outputs['tokens_per_s_per_device']:>11} "
                f"{row.outputs['energy_per_device_wh']:>8} "
                f"{row.outputs['efficiency_per_wh']:>9}"
            )

        store.to_csv(
            out_path,
            columns=(
                "system",
                "global_batch_size",
                "tokens_per_s_per_device",
                "energy_per_device_wh",
                "efficiency_per_wh",
            ),
            campaign=spec.name,
            status="completed",
        )
        print(f"\nwrote {out_path}")

        best = store.aggregate(
            "tokens_per_s_per_device", by="system", agg="max", campaign=spec.name
        )
        peak_system = max(best, key=best.get)
        print(
            f"peak: {peak_system} -> {best[peak_system]:.0f} tokens/s/device "
            f"(paper: GH200 up to 47505)"
        )


if __name__ == "__main__":
    main()
