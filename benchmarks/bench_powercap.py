"""Power-cap sweep cost: cold execution vs the exact-cache walk.

The frontier workflow (``caraml powercap frontier``) leans on the
campaign layer's content-addressed cache: the first sweep pays for
real benchmark execution, every re-analysis after it must be a pure
cache walk.  This bench measures both phases for a cap × batch sweep —

* **cold_s**   — full sweep on an empty store,
* **cached_s** — identical sweep against the populated store,

checks the re-run is byte-identical to the first (same keys, same
parameters, same outputs) and that the physics came out right (the
tokens/Wh optimum sits strictly below TDP on every swept system), and
writes the ``powercap`` headline to ``BENCH_powercap.json``.

Run directly::

    python benchmarks/bench_powercap.py            # 2 systems x 2 batches
    python benchmarks/bench_powercap.py --quick    # 1 system x 1 batch (CI)
    python benchmarks/bench_powercap.py --gate BENCH_powercap.json

``--gate`` re-measures the quick sweep and fails when the cached-walk
speedup drops more than 20% below the recorded quick reference (or
when byte-identity / the below-TDP optimum break) — the CI job;
``benchmarks/harness.py`` holds the rule.  The bench exits 0 even when
the headline misses its target.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import harness
from repro.analysis.powercap import (
    PowercapScenario,
    best_per_cap,
    knee_point,
    optimal_point,
    points_from_rows,
    run_powercap_sweep,
)
from repro.campaign.store import JsonlStore
from repro.hardware.systems import get_system

#: The cached walk must beat cold execution by at least this factor —
#: it does no benchmark work, only key hashing and store lookups.
CACHED_TARGET = 5.0
#: Absolute floor for the CI gate at quick size.
QUICK_FLOOR = 2.0

FULL_SCENARIO = PowercapScenario(
    systems=("H100", "GH200"),
    global_batch_sizes=(128, 256),
    cap_fractions=(1.0, 0.85, 0.7, 0.55, 0.45),
    exit_duration_s=15.0,
)
QUICK_SCENARIO = PowercapScenario(
    systems=("H100",),
    global_batch_sizes=(128,),
    cap_fractions=(1.0, 0.7, 0.45),
    exit_duration_s=10.0,
)


def _canonical(rows) -> str:
    return json.dumps(
        sorted(
            [
                {
                    "key": row.key,
                    "parameters": dict(row.parameters),
                    "outputs": dict(row.outputs),
                }
                for row in rows
            ],
            key=lambda r: r["key"],
        ),
        sort_keys=True,
    )


def measure(scenario: PowercapScenario, workdir: Path) -> dict:
    """Cold vs cached sweep timings plus the correctness checks."""
    store = JsonlStore(workdir / "powercap.jsonl")
    t0 = time.perf_counter()
    cold_rows = run_powercap_sweep(scenario, store=store)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cached_rows = run_powercap_sweep(scenario, store=store)
    cached_s = time.perf_counter() - t0

    identical = _canonical(cold_rows) == _canonical(cached_rows)
    points = points_from_rows(cold_rows)
    below_tdp = True
    for system in scenario.systems:
        mine = best_per_cap([p for p in points if p.system == system])
        optimum = optimal_point(mine)
        tdp = get_system(system).device_tdp_watts
        if not 0 < optimum.power_cap_w < tdp:
            below_tdp = False
    knee_ok = all(
        knee_point(best_per_cap([p for p in points if p.system == system]))
        is not None
        for system in scenario.systems
    ) if len(scenario.cap_fractions) >= 3 else True

    return {
        "workpackages": sum(spec.size for spec in scenario.specs()),
        "cold_s": round(cold_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(cold_s / cached_s, 2) if cached_s else float("inf"),
        "byte_identical_rerun": identical,
        "optimum_below_tdp": below_tdp,
        "knee_exists": knee_ok,
    }


def run_bench(quick: bool, workdir: Path) -> dict:
    """The full sweep's headline, with the quick sweep as its reference."""
    quick_dir = workdir / "quick"
    quick_dir.mkdir()
    quick_result = measure(QUICK_SCENARIO, quick_dir)
    full_result = quick_result
    if not quick:
        full_dir = workdir / "full"
        full_dir.mkdir()
        full_result = measure(FULL_SCENARIO, full_dir)
    return {
        "bench": "powercap",
        "description": (
            "power-cap frontier sweep: cold execution vs the exact-cache walk"
        ),
        "headline": {
            "powercap": {
                **full_result,
                "target": CACHED_TARGET,
                "met": GATE.met(full_result, CACHED_TARGET),
                "quick_reference": quick_result,
            },
        },
    }


REPORT = "BENCH_powercap.json"

#: The CI gate: the cached walk of the quick sweep against its cold
#: run, with a byte-identical rerun and the optimum below TDP.
GATE = harness.Gate(
    headline="powercap",
    measure=functools.partial(measure, QUICK_SCENARIO),
    floor=QUICK_FLOOR,
    attempts=3,
    checks=("byte_identical_rerun", "optimum_below_tdp"),
)


def main(argv: list[str] | None = None) -> int:
    args = harness.parse_args(__doc__, REPORT, argv)
    if args.gate:
        return harness.run_gate(GATE, args.gate)
    harness.record(run_bench, args.quick, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
