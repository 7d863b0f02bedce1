"""The one harness of the recorded benches: run, record and gate.

``bench_campaign_scale.py``, ``bench_serve_cluster.py`` and
``bench_powercap.py`` keep only their measurements and a :class:`Gate`.
``--quick`` runs the small CI sizes; a run writes the bench's own
``BENCH_<name>.json`` (``bench``, ``description``, its results,
``headline``, ``quick``, ``provenance``).  ``--gate REPORT`` re-measures
the gated headline at quick size: wall time depends on the machine, the
ratio of two paths timed on one machine does not, so gates compare
speedups.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.provenance import provenance

#: A gate fails when the measured speedup falls more than this fraction
#: below the recorded reference.
GATE_REGRESSION_FRACTION = 0.20

#: Where a headline entry keeps its measured value: a speedup, or the
#: serve bench's worst wall-ms per request and telemetry overhead.
VALUE_KEYS = ("speedup", "worst", "overhead")


@dataclass(frozen=True)
class Gate:
    """The recorded headline a bench's ``--gate`` re-measures.

    ``measure(workdir)`` returns a fresh quick-size entry: a ``speedup``
    and one boolean per name in ``checks``.  The gate demands at least
    ``floor`` whatever the reference.  A quick run lasts seconds, where
    one scheduler hiccup can swing the ratio, so a low speedup is
    measured up to ``attempts`` times in all and the best one counts;
    a false check fails at once.
    """

    headline: str
    measure: Callable[[Path], dict]
    floor: float
    attempts: int = 1
    checks: tuple[str, ...] = ()

    def met(self, measured: dict, target: float) -> bool:
        """Whether ``measured`` reaches ``target`` with every check true."""
        return measured["speedup"] >= target and all(
            measured[name] for name in self.checks
        )


def run_gate(gate: Gate, report_path: str | Path) -> int:
    """Re-measure ``gate`` against a recorded report; the exit code.

    The reference is the recorded entry's ``quick_reference`` when it
    has one, and the entry itself otherwise.
    """
    recorded = json.loads(Path(report_path).read_text())["headline"][gate.headline]
    reference = recorded.get("quick_reference", recorded)["speedup"]
    floor = max(reference * (1.0 - GATE_REGRESSION_FRACTION), gate.floor)
    best = 0.0
    for attempt in range(1, gate.attempts + 1):
        with tempfile.TemporaryDirectory(prefix="bench_gate_") as tmp:
            measured = gate.measure(Path(tmp))
        failed = [name for name in gate.checks if not measured[name]]
        if failed:
            print(f"gate: {gate.headline}: {', '.join(failed)} false [REGRESSED]")
            return 1
        best = max(best, measured["speedup"])
        if best >= floor:
            break
        if attempt < gate.attempts:
            print(
                f"gate: attempt {attempt}/{gate.attempts}: {measured['speedup']}x "
                f"below floor {floor:.2f}x, re-measuring"
            )
    ok = best >= floor
    print(
        f"gate: {gate.headline} speedup {best}x vs recorded {reference}x "
        f"(floor {floor:.2f}x) [{'ok' if ok else 'REGRESSED'}]"
    )
    return 0 if ok else 1


def parse_args(doc: str, report: str, argv: list[str] | None = None):
    """The command line every recorded bench takes."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the small CI sizes")
    parser.add_argument(
        "--out", default=str(ROOT / report), help="where to write the JSON report"
    )
    parser.add_argument(
        "--gate", metavar="REPORT",
        help="re-measure the gated headline at quick size; fail on a >20%% "
        "regression against this recorded report",
    )
    return parser.parse_args(argv)


def record(run: Callable[[bool, Path], dict], quick: bool, out: str | Path) -> dict:
    """Run a bench in a temp directory, stamp and write its report.

    ``run(quick, workdir)`` returns the report without ``quick`` and
    ``provenance``.  Prints each headline against its target.
    """
    with tempfile.TemporaryDirectory(prefix="bench_") as tmp:
        report = run(quick, Path(tmp))
    report["quick"] = quick
    report["provenance"] = provenance(ROOT)
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    for name, item in report["headline"].items():
        key = next(key for key in VALUE_KEYS if key in item)
        status = "ok" if item["met"] else "MISSED TARGET"
        print(f"  {name}: {key} {item[key]} (target {item['target']}) [{status}]")
    return report
