"""Host-time benchmark of the CARAML reproduction.

Runs one workload (``paper``, ``serve`` or ``sweep``, see
``workloads.py``) in this fresh interpreter and prints every metric by
name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Every timing
is host time (what the simulator costs to run), scaled to a reference
host speed measured around each operation (``workloads.speed_kernel``);
simulated statistics are the output check, never metrics.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --workload serve --seed 1 --trace 1
    python3 hostbench/run.py --describe

``--trace 0`` measures the end-to-end metrics: rounds of the workload
run for about ``--seconds`` seconds (at least one round), and set-up is
timed separately in several fresh interpreters.  ``--trace 1`` runs one
round untraced and one round with every layer entry point wrapped
(``layers.py``) and prints the per-layer self-time table; the relative
difference between the two rounds is ``bench.trace_overhead_frac``.

Each run writes its metrics, provenance, layer table and spans to
``.hostbench/results/`` in the checkout.  ``--record-digests`` stores
the digests of the named simulated statistics of this seed in
``digests.json``; later runs of that seed must reproduce them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".hostbench"

#: The seed claims are made on, and one held out that they must also
#: hold on; digests are recorded for both.
DEFAULT_SEED = 1
HELDOUT_SEED = 2

#: Fresh interpreters whose set-up times ``setup_s`` summarises.
SETUP_PROBES = 8

#: End-to-end metrics every workload prints (see BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "sim_items_per_s": "items/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper", "serve", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the harness self-tests' size")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"record this seed's digests (do so for {DEFAULT_SEED} and {HELDOUT_SEED})")
    parser.add_argument("--describe", action="store_true",
                        help="print the per-layer metrics and what each should move")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.describe and args.workload is None:
        parser.error("--workload is required")
    return args


# -- measurement helpers ------------------------------------------------------


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest finished child."""
    scale = 1 / 2**20 if sys.platform == "darwin" else 1 / 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * scale


def _setup_times(args, workdir: Path) -> list[float]:
    """Set-up seconds of fresh interpreters, interpreter start included.

    Each probe prints ``time.monotonic()`` once its inputs are built;
    the monotonic clock is shared by every process of the host.  Like
    every operation, each probe is scaled to the reference host speed.
    """
    from workloads import speed_kernel, speed_scale

    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        before = speed_kernel()
        start = time.monotonic()
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "TMPDIR": str(workdir)},
        )
        seconds = float(done.stdout.split()[-1]) - start
        times.append(seconds * speed_scale(before, speed_kernel()))
    return times


def _run_rounds(workload, seconds: float, phase, check) -> list:
    """Rounds until the next would end after ``seconds`` (and ``min_rounds``).

    Each round is checked (untimed) as soon as it ends, then its
    results are dropped, so memory does not grow with the round count.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(workload.round(phase))
        check(rounds[-1])
        took = time.perf_counter() - began
        if len(rounds) >= workload.min_rounds and time.perf_counter() - start + took > seconds:
            return rounds


class Checker:
    """Output check of every op of a run; fills ``op.problems``.

    An op fails when it raised, when an invariant does not hold, when
    its digest differs from this run's first op of the same kind, or
    when it differs from the digest recorded for this seed.
    """

    def __init__(self, workload, recorded: dict) -> None:
        self.workload = workload
        self.recorded = recorded
        self.first: dict[str, str] = {}

    def __call__(self, ops) -> None:
        from workloads import digest

        for op in ops:
            if op.error is not None:
                op.problems.append(op.error)
                continue
            try:
                stats, problems = self.workload.check(op, ops)
            except Exception as exc:  # noqa: BLE001 -- a failed check
                op.problems.append(f"check raised {type(exc).__name__}: {exc}")
                continue
            op.digest = digest(stats)
            if self.first.setdefault(op.kind, op.digest) != op.digest:
                problems.append("differs from this run's first result of the same operation")
            want = self.recorded.get(op.kind)
            if want is not None and want != op.digest:
                problems.append(f"digest {op.digest} != recorded {want}")
            op.problems += problems
        for op in ops:
            op.result = None


def _recorded(workload: str, seed: int, size: str) -> dict:
    """Digests recorded for this workload and seed (paper: any seed)."""
    if size != "full" or not DIGESTS.exists():
        return {}
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    return {**table.get("any", {}), **table.get(str(seed), {})}


def _record(workload, seed: int, rounds) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {op.kind: op.digest for op in rounds[0] if op.digest is not None}
    key = "any" if workload.name == "paper" else str(seed)
    table.setdefault(workload.name, {})[key] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _provenance(args, argv) -> dict:
    from repro.core.provenance import git_revision

    return {
        # Without a .git directory git would search the parent directories.
        "git_sha": git_revision(ROOT) if (ROOT / ".git").exists() else "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count() or 1,
        "argv": [sys.argv[0], *argv],
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def _print_table(title: str, rows) -> None:
    print(title)
    width = max(len(name) for name, _v, _u in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def _report_failures(rounds) -> tuple[int, int]:
    ops = [op for ops in rounds for op in ops]
    failed = [op for op in ops if op.problems]
    print(
        f"  failed_frac: {len(failed) / len(ops):.6g} ratio "
        f"({len(failed)} failed / {len(ops)} attempted)"
    )
    for op in failed:
        for problem in op.problems:
            print(f"  FAILED {op.kind}: {problem}")
    return len(ops), len(failed)


def _finish(args, argv, payload: dict, attempted: int, failed: int, metrics: dict, units: dict) -> int:
    provenance = _provenance(args, argv)
    print("provenance: " + json.dumps(provenance))
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    path.write_text(json.dumps({"provenance": provenance, **payload}, default=str) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _shared_metrics(workload, rounds) -> tuple[float, float]:
    """``round_s`` and ``sim_items_per_s`` from per-group robust times."""
    from workloads import items_by_group, per_round, seconds_by_group

    seconds = seconds_by_group(rounds)
    items = items_by_group(rounds)
    counts = per_round(rounds)
    round_s = sum(n * seconds[group] for group, n in counts.items())
    sim = [group for group in counts if group.startswith(workload.sim_kinds)]
    sim_s = sum(counts[group] * seconds[group] for group in sim)
    sim_items = sum(counts[group] * items[group] for group in sim)
    return round_s, sim_items / sim_s if sim_s else 0.0


# -- modes ----------------------------------------------------------------------


def _setup_probe(args, workdir: Path) -> int:
    import repro.core.cli  # noqa: F401 -- set-up includes the import
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.size, workdir)
    print(time.monotonic())
    return 0


def _measure(args, argv, workdir: Path) -> int:
    """``--trace 0``: the end-to-end metrics."""
    import repro.core.cli  # noqa: F401 -- set-up includes the import
    from workloads import WORKLOADS, low_quartile

    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    checker = Checker(workload, _recorded(args.workload, args.seed, args.size))
    rounds = _run_rounds(workload, args.seconds, lambda _name: contextlib.nullcontext(), checker)
    peak_rss = _peak_rss_mb()
    if args.record_digests and not any(op.problems for ops in rounds for op in ops):
        _record(workload, args.seed, rounds)
    setups = _setup_times(args, workdir)
    round_s, sim_items_per_s = _shared_metrics(workload, rounds)
    metrics = {
        "setup_s": low_quartile(setups),
        "peak_rss_mb": peak_rss,
        "round_s": round_s,
        "sim_items_per_s": sim_items_per_s,
    }
    named = workload.named_metrics(rounds)
    print(f"hostbench {args.workload}: {len(rounds)} round(s), seed {args.seed}")
    _print_table("end-to-end metrics (host time):", [(k, v, END_TO_END[k]) for k, v in metrics.items()])
    _print_table("named metrics:", [(k, v, workload.named[k]) for k, v in named.items()])
    samples = sum(1 for ops in rounds for op in ops if op.kind == "cached")
    if samples:
        print(f"  cached reruns: {samples} samples")
    attempted, n_failed = _report_failures(rounds)
    payload = {
        "metrics": metrics,
        "named": named,
        "setup_samples_s": setups,
        "ops": [[op.kind, op.host_s, op.scale, op.items, op.digest] for ops in rounds for op in ops],
    }
    return _finish(args, argv, payload, attempted, n_failed, metrics, END_TO_END)


def _traced(args, argv, workdir: Path) -> int:
    """``--trace 1``: the per-layer table of one traced round."""
    from tracer import PHASE, LayerTracer

    tracer = LayerTracer()
    with tracer.span("bench/setup"):
        with tracer.span("import repro.core.cli", "core.import_s"):
            import repro.core.cli  # noqa: F401
        from layers import LAYER_METRICS, instrument, layer_values
        from workloads import WORKLOADS

    instrumentation = instrument(tracer)
    instrumentation.install()
    with tracer.span("bench/setup"):
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    instrumentation.uninstall()

    def untraced(_name):
        return contextlib.nullcontext()

    def traced(name):
        return tracer.span(PHASE + name)

    checker = Checker(workload, _recorded(args.workload, args.seed, args.size))
    reference = workload.round(untraced)
    checker(reference)
    # Phase spans are outermost, so the collections run between timed
    # operations stay out of the traced wall time, as out of the timings.
    instrumentation.install()
    measured = workload.round(traced)
    instrumentation.uninstall()

    checker(measured)
    rounds = [reference, measured]
    reference_s = sum(op.seconds for op in reference)
    measured_s = sum(op.seconds for op in measured)
    values = layer_values(tracer, measured_s / reference_s - 1.0 if reference_s else 0.0)
    units = {m.name: m.unit for m in LAYER_METRICS}
    print(f"hostbench {args.workload} traced: wall {tracer.wall_s:.3f} s, seed {args.seed}")
    rows = sorted(
        ((name, tracer.self_s.get(name, 0.0)) for name in units if units[name] == "s"),
        key=lambda item: -item[1],
    )
    print("self time by layer:")
    for name, seconds in rows:
        if seconds > 0:
            print(f"  {name:<28} {seconds:10.4f} s  {seconds / tracer.wall_s:7.2%}")
    print("counts and ratios:")
    for name, unit in units.items():
        if unit != "s":
            print(f"  {name:<32} {values[name]:.6g}")
    print("jpwr.samples by phase: " + json.dumps(tracer.calls_by_phase("MeasuredScope.sample")))
    steps = {
        name.split("@", 1)[1]: count
        for name, count in tracer.counters.items()
        if name.startswith("serve.decode_steps@") and count
    }
    print("serve.tokens_per_decode_step by phase: " + json.dumps({
        phase: round(tracer.counters[f"serve.generated_tokens@{phase}"] / n, 3)
        for phase, n in steps.items()
    }))
    attempted, n_failed = _report_failures(rounds)
    payload = {
        "metrics": values,
        "reference_round_s": reference_s,
        "traced_round_s": measured_s,
        "samples_by_phase": tracer.calls_by_phase("MeasuredScope.sample"),
        "trace": tracer.to_dict(),
    }
    return _finish(args, argv, payload, attempted, n_failed, values, units)


def _describe() -> int:
    from layers import LAYER_METRICS

    for m in LAYER_METRICS:
        print(f"{m.name:<32} {m.unit:<6} {m.source}  ->  {m.moves}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args.describe:
        return _describe()
    if not (SRC / "repro").is_dir():
        print(f"hostbench: no package at {SRC / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args, Path(tempfile.gettempdir()))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    # Anything the package writes to a temporary file stays in the checkout.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.trace:
            return _traced(args, argv, workdir)
        return _measure(args, argv, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
