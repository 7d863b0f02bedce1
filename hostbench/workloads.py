"""The benchmark's three workloads: ``paper``, ``serve`` and ``sweep``.

Each workload builds its inputs from the seed in its constructor (the
set-up that ``setup_s`` times), then runs *rounds*: one round is one
pass over the workload's user-level operations, each timed in host
seconds.  Simulated results are never metrics; they are the output
check.  :meth:`Workload.check` reduces each operation's result to a
fixed list of named simulated statistics (hashed into a digest) plus
invariant violations.

* ``paper`` -- the paper's Appendix commands through
  ``CaramlSuite.jube_run``, then ``validate_reproduction()`` and
  ``build_report(include_figures=True)``.  The seed only orders the
  commands; their results do not depend on it.
* ``serve`` -- three runs of the fast engine on GH200 / 800M: a
  single-engine run at light load (jpwr-sampled energy), a 4-replica
  least-loaded fleet near capacity, and session traffic routed
  prefix-cache-aware onto a 2-prefill/4-decode fleet.  The seed draws
  the open-loop arrival streams, which the simulators receive already
  generated.
* ``sweep`` -- a campaign run cold through a process pool into a fresh
  SQLite store, fully cached reruns of it, and a pruned search over a
  cluster-serving grid into a fresh JSONL store.  The seed draws the
  arrival-stream seeds of the serving points.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

#: Relative tolerance of the cluster energy-closure check.
ENERGY_CLOSURE_RTOL = 1e-12

#: Seconds :func:`speed_kernel` takes at the reference host speed.
REFERENCE_KERNEL_S = 0.012


class _Particle:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b
        self.c = 0.0

    def step(self, x: float) -> float:
        self.c += x * self.a
        return self.c


def speed_kernel() -> float:
    """Host seconds of a fixed pure-Python workload that uses no package code.

    A shared host can run at speeds far apart for seconds to minutes at
    a time, whatever runs on it (a 2-vCPU VM was seen alternating
    between two about 1.7x apart).  Object attribute access, method
    calls and heap operations slow down about as much as the simulator
    does, so timing this next to an operation measures the host speed
    the operation ran at.
    """
    start = perf_counter()
    objects = [_Particle(i % 17, i) for i in range(3000)]
    heap: list = []
    for r in range(12):
        for obj in objects:
            obj.step(0.5)
            if obj.b % 5 == r % 5:
                heapq.heappush(heap, (obj.c, obj.b))
        while len(heap) > 100:
            heapq.heappop(heap)
    json.dumps([[o.a, o.b, o.c] for o in objects[:500]])
    return perf_counter() - start


def speed_scale(*kernel_s: float) -> float:
    """Factor from host seconds to seconds at the reference speed."""
    return REFERENCE_KERNEL_S / median(kernel_s)


@dataclass
class Op:
    """One timed operation and what it produced.

    ``kind`` identifies the operation for the output check; ``group``
    (default: the kind) pools the host times of operations of the same
    cost, such as one script run under different system tags.
    """

    kind: str
    host_s: float
    items: int = 0
    result: object = None
    error: str | None = None
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    group: str = ""
    #: Host-speed factor measured around the operation (see speed_kernel).
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """Host seconds at the reference speed."""
        return self.host_s * self.scale

    def __post_init__(self) -> None:
        self.group = self.group or self.kind


def _jsonable(value):
    return value.item() if hasattr(value, "item") else str(value)


def digest(stats: dict) -> str:
    """Short content hash of a mapping of named statistics."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fresh_metrics() -> None:
    # Each operation starts from an empty metrics registry, as a fresh
    # CLI invocation would, so registry growth never leaks across ops.
    from repro.obs.metrics import MetricsRegistry, set_metrics

    set_metrics(MetricsRegistry())


def timed(
    kind: str,
    fn: Callable,
    items: Callable | None = None,
    phase=None,
    collect: bool = True,
    group: str = "",
) -> Op:
    """Run ``fn`` as one timed operation; an exception fails the op.

    With ``collect`` (the default) the host speed is measured right
    before and after the operation; operations timed in a block measure
    it around the block instead (:func:`calibrated`).
    """
    _fresh_metrics()
    if collect:
        gc.collect()
        before = speed_kernel()
    with phase if phase is not None else contextlib.nullcontext():
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 -- counted, never fatal
            return Op(kind, perf_counter() - start, error=f"{type(exc).__name__}: {exc}", group=group)
        seconds = perf_counter() - start
    op = Op(kind, seconds, items(result) if items is not None else 0, result, group=group)
    if collect:
        op.scale = speed_scale(before, speed_kernel())
    return op


def calibrated(block: Callable[[], list[Op]]) -> list[Op]:
    """Run a block of short operations, scaled by the host speed around it."""
    gc.collect()
    before = speed_kernel()
    ops = block()
    scale = speed_scale(before, speed_kernel())
    for op in ops:
        op.scale = scale
    return ops


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    values = sorted(values)
    return values[max(0, math.ceil(q / 100 * len(values)) - 1)]


def low_quartile(values) -> float:
    """Median of the fastest quarter of ``values`` (all of one or two).

    Host-speed scaling removes most of a shared host's speed changes;
    the fastest quarter drops the samples a change hit mid-operation.
    """
    values = sorted(values)
    return median(values[: max(1, len(values) // 4)])


def seconds_by_group(rounds: list[list[Op]]) -> dict[str, float]:
    """``low_quartile`` of each operation group's scaled seconds."""
    samples: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            samples.setdefault(op.group, []).append(op.seconds)
    return {group: low_quartile(values) for group, values in samples.items()}


class Workload:
    """Inputs built from a seed, and the rounds run over them."""

    name = ""
    #: Named end-to-end metrics this workload prints (beyond the
    #: shared ones), as ``name -> unit``.
    named: dict[str, str] = {}
    #: Prefixes of the operation kinds whose items ``sim_items_per_s``
    #: counts.
    sim_kinds: tuple[str, ...] = ()
    #: Rounds a ``--trace 0`` run makes at least, however long they take.
    min_rounds = 1

    def round(self, phase: Callable) -> list[Op]:
        """One pass over the workload's operations."""
        raise NotImplementedError

    def check(self, op: Op, round_ops: list[Op]) -> tuple[dict, list[str]]:
        """Named statistics of ``op`` and its invariant violations."""
        raise NotImplementedError

    def named_metrics(self, rounds: list[list[Op]]) -> dict[str, float]:
        """The workload's named end-to-end metrics."""
        raise NotImplementedError


def items_by_group(rounds: list[list[Op]]) -> dict[str, int]:
    """Simulated work items of one operation of each group."""
    items: dict[str, int] = {}
    for ops in rounds:
        for op in ops:
            items[op.group] = max(items.get(op.group, 0), op.items)
    return items


def per_round(rounds: list[list[Op]]) -> dict[str, int]:
    """Operations of each group in one round."""
    counts: dict[str, int] = {}
    for op in rounds[0]:
        counts[op.group] = counts.get(op.group, 0) + 1
    return counts


# -- paper -------------------------------------------------------------------

#: The six GPU tags the Appendix runs the LLM script on.
GPU_TAGS = ("A100", "H100", "WAIH100", "GH200", "JEDI", "MI250")
LLM_SCRIPT = "llm_benchmark_nvidia_amd.yaml"
IPU_SCRIPT = "llm_benchmark_ipu.yaml"
RESNET_SCRIPT = "resnet50_benchmark.xml"


class Paper(Workload):
    """The paper's Appendix commands, then validation and the report."""

    name = "paper"
    named = {"jube_wp_per_s": "workpackages/s", "report_s": "s"}
    sim_kinds = ("jube",)

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        from repro.core.suite import CaramlSuite
        from repro.hardware.systems import SYSTEM_TAGS

        self.suite = CaramlSuite()
        if size == "tiny":
            commands = [(LLM_SCRIPT, ("A100", "synthetic")), (RESNET_SCRIPT, ("A100",))]
        else:
            commands = [(LLM_SCRIPT, (tag,)) for tag in GPU_TAGS]
            commands.append((IPU_SCRIPT, ()))
            commands += [(RESNET_SCRIPT, (tag,)) for tag in SYSTEM_TAGS]
        random.Random(seed).shuffle(commands)
        self.commands = commands
        self.workdir = workdir
        self._rounds = 0

    def round(self, phase: Callable) -> list[Op]:
        from repro.analysis.report import build_report
        from repro.analysis.validate import validate_reproduction

        ops = []
        for script, tags in self.commands:
            ops.append(
                timed(
                    " ".join(("jube", script, *tags)),
                    lambda: self.suite.jube_run(script, list(tags)),
                    lambda run: len(run.workpackages),
                    phase("jube"),
                    group=f"jube {script}",
                )
            )
        figures = self.workdir / f"figures-{self._rounds}"
        self._rounds += 1

        def report():
            items = validate_reproduction()
            return items, build_report(include_figures=True, figure_dir=str(figures)), figures

        ops.append(timed("report", report, phase=phase("report")))
        return ops

    def check(self, op: Op, round_ops: list[Op]) -> tuple[dict, list[str]]:
        if op.kind == "report":
            items, text, figures = op.result
            failed = [item.name for item in items if not item.passed]
            problems = [f"validate: {len(failed)}/{len(items)} checks failed"] if failed else []
            svgs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(figures.glob("*.svg"))}
            if not svgs:
                problems.append("report rendered no figures")
            stats = {
                "validate_passed": len(items) - len(failed),
                "validate_total": len(items),
                "report": hashlib.sha256(text.replace(str(figures), "<figures>").encode()).hexdigest(),
                "figures": svgs,
            }
            return stats, problems
        run = op.result
        tables = {}
        for table in run.script.results:
            tables[table.name] = [
                {col: wp.outputs.get(col, wp.parameters.get(col)) for col in table.columns}
                for wp in run.packages_for(table.step)
            ]
        problems = [] if any(tables.values()) else ["no result-table rows"]
        return {"tables": tables}, problems

    def named_metrics(self, rounds: list[list[Op]]) -> dict[str, float]:
        seconds = seconds_by_group(rounds)
        items = items_by_group(rounds)
        counts = per_round(rounds)
        jube = [group for group in counts if group.startswith("jube")]
        return {
            "jube_wp_per_s": sum(counts[g] * items[g] for g in jube)
            / sum(counts[g] * seconds[g] for g in jube),
            "report_s": seconds["report"],
        }


# -- serve -------------------------------------------------------------------

#: Requests per run, by size: light single engine, fleet near
#: capacity, disaggregated session traffic.
SERVE_REQUESTS = {
    "full": {"engine": 150, "fleet": 6000, "session": 2500},
    "tiny": {"engine": 100, "fleet": 2000, "session": 1000},
}
#: Offered load (requests/s): about one token per decode step on the
#: single engine; about 80% of the 4-replica fleet's capacity.
ENGINE_RATE = 2.0
FLEET_RATE = 380.0
SESSION_RATE = 150.0

SERVE_STATS = (
    "offered_requests", "completed_requests", "rejected_requests", "elapsed_s",
    "generated_tokens", "slo_attained", "energy_wh", "energy_per_request_wh",
    "ttft_p50_s", "ttft_p99_s", "tpot_p50_s", "e2e_p50_s", "e2e_p99_s",
    "queue_delay_p99_s",
)
CLUSTER_STATS = (
    "cluster_busy_energy_wh", "cluster_idle_energy_wh", "cluster_transfer_energy_wh",
    "cluster_prefix_hits", "cluster_transfers", "cluster_load_imbalance",
)


class _Stream:
    """A request stream generated up front, handed to a simulator as is."""

    def __init__(self, requests) -> None:
        self.requests = tuple(requests)

    def generate(self):
        return self.requests


class Serve(Workload):
    """Single engine, fleet and disaggregated session serving runs."""

    name = "serve"
    named = {
        "engine_req_per_s": "requests/s",
        "fleet_req_per_s": "requests/s",
        "session_req_per_s": "requests/s",
    }
    sim_kinds = ("engine", "fleet", "session")

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        from repro.engine.inference import InferenceEngine
        from repro.hardware.systems import get_system
        from repro.models.transformer import get_gpt_preset
        from repro.serve import PoissonArrivals, ServingSimulator, SessionArrivals
        from repro.serve.cluster import ClusterSimulator, DisaggregationSpec

        n = SERVE_REQUESTS[size]
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(3)]
        engine = InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))
        poisson = dict(prompt_tokens=512, generate_tokens=96, length_spread=0.25)
        self.runs = (
            (
                "engine",
                ServingSimulator(engine, batch_cap=16),
                _Stream(PoissonArrivals(rate_per_s=ENGINE_RATE, requests=n["engine"], seed=seeds[0], **poisson).generate()),
            ),
            (
                "fleet",
                ClusterSimulator(engine, replicas=4, router="least-loaded", batch_cap=16, percentile_mode="p2"),
                _Stream(PoissonArrivals(rate_per_s=FLEET_RATE, requests=n["fleet"], seed=seeds[1], **poisson).generate()),
            ),
            (
                "session",
                ClusterSimulator(
                    engine,
                    router="prefix-cache-aware",
                    batch_cap=16,
                    disaggregation=DisaggregationSpec(prefill_replicas=2, decode_replicas=4),
                ),
                _Stream(
                    SessionArrivals(
                        rate_per_s=SESSION_RATE, requests=n["session"], sessions=32,
                        prompt_tokens=512, prefix_tokens=384, generate_tokens=96, seed=seeds[2],
                    ).generate()
                ),
            ),
        )

    def round(self, phase: Callable) -> list[Op]:
        return [
            timed(kind, lambda: sim.run(stream), lambda _r: len(stream.requests), phase(kind))
            for kind, sim, stream in self.runs
        ]

    def check(self, op: Op, round_ops: list[Op]) -> tuple[dict, list[str]]:
        result = op.result
        summary = result.summary
        serve = getattr(summary, "serve", summary)
        values = summary.to_dict()
        stats = {name: values[name] for name in SERVE_STATS}
        stats["decode_steps"] = result.train.iterations
        problems = []
        if serve.completed + serve.rejected != serve.offered:
            problems.append(
                f"conservation: {serve.completed} completed + {serve.rejected} "
                f"rejected != {serve.offered} offered"
            )
        if serve is not summary:
            stats.update({name: values[name] for name in CLUSTER_STATS})
            parts = (
                summary.busy_energy_wh + summary.idle_energy_wh
                + summary.spinup_energy_wh + summary.transfer_energy_wh
            )
            total = summary.energy_wh
            if abs(parts - total) > ENERGY_CLOSURE_RTOL * max(1.0, abs(total)):
                problems.append(f"energy closure: parts {parts!r} != total {total!r}")
        return stats, problems

    def named_metrics(self, rounds: list[list[Op]]) -> dict[str, float]:
        seconds = seconds_by_group(rounds)
        items = items_by_group(rounds)
        return {f"{kind}_req_per_s": items[kind] / seconds[kind] for kind in seconds}


# -- sweep -------------------------------------------------------------------

#: Systems of the campaign; every power cap below is enforceable on all.
SWEEP_SYSTEMS = {"full": ("A100", "H100", "GH200", "MI250"), "tiny": ("A100",)}
SWEEP_BATCHES = {"full": ("16", "64", "256", "1024"), "tiny": ("64",)}
SWEEP_CAPS = ("0", "300", "400")
SWEEP_SERVE_REQUESTS = {"full": "400", "tiny": "100"}
#: Fully cached reruns per round, and rounds a run needs at least:
#: the p90 of the reruns needs at least 100 samples.
CACHED_RERUNS = 25
SWEEP_MIN_ROUNDS = 4
SEARCH_GRID = {
    "full": {"arrival_rate": ("60", "120", "240"), "replicas": ("1", "2", "4"), "router": ("round-robin", "least-loaded")},
    "tiny": {"arrival_rate": ("60", "120"), "replicas": ("1", "2"), "router": ("least-loaded",)},
}
SEARCH_REQUESTS = {"full": "1024", "tiny": "128"}

ROW_STATS = (
    "status", "iterations", "elapsed_s", "energy_per_device_wh",
    "throughput_tokens_per_s", "throughput_images_per_s", "completed_requests",
    "rejected_requests", "energy_per_request_wh", "ttft_p99_s", "e2e_p99_s",
    "slo_attainment",
)


def _row_stats(rows) -> list:
    out = []
    for row in sorted(rows, key=lambda r: r.key):
        outputs = row.outputs
        out.append([row.key, row.status, {k: outputs[k] for k in ROW_STATS if k in outputs}])
    return out


class Sweep(Workload):
    """A cold campaign, its fully cached reruns, and a pruned search."""

    name = "sweep"
    named = {
        "cold_wp_per_s": "workpackages/s",
        "cached_rerun_ms_p50": "ms",
        "cached_rerun_ms_p90": "ms",
        "search_s": "s",
    }
    sim_kinds = ("cold",)
    min_rounds = SWEEP_MIN_ROUNDS

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        from repro.campaign.search import SearchPolicy
        from repro.campaign.spec import CampaignSpec, WorkloadSpec

        rng = random.Random(seed)
        serve_seed, search_seed = (str(rng.randrange(2**31)) for _ in range(2))
        batches = SWEEP_BATCHES[size]
        self.spec = CampaignSpec(
            name="hostbench-sweep",
            systems=SWEEP_SYSTEMS[size],
            workloads=(
                WorkloadSpec.of_kind(
                    "llm", axes={"global_batch_size": batches, "power_cap": SWEEP_CAPS}
                ),
                WorkloadSpec.of_kind(
                    "resnet", axes={"global_batch_size": batches, "power_cap": SWEEP_CAPS}
                ),
                WorkloadSpec.of_kind(
                    "serve_cluster",
                    axes={"router": ("round-robin", "least-loaded"), "replicas": ("2", "4")},
                    fixed={
                        "arrival_rate": "60",
                        "requests": SWEEP_SERVE_REQUESTS[size],
                        "generate_tokens": "64",
                        "arrival_seed": serve_seed,
                    },
                ),
            ),
        )
        self.search_spec = CampaignSpec(
            name="hostbench-search",
            systems=("GH200",),
            workloads=(
                WorkloadSpec.of_kind(
                    "serve_cluster",
                    name="grid",
                    axes=SEARCH_GRID[size],
                    fixed={
                        "requests": SEARCH_REQUESTS[size],
                        "generate_tokens": "64",
                        "slo_ttft_ms": "250",
                        "arrival_seed": search_seed,
                    },
                ),
            ),
        )
        self.policy = SearchPolicy()
        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.workdir = workdir
        self._rounds = 0
        #: Canonical rows and named statistics of the round's cold run.
        self._cold: tuple[list[str], list] | None = None

    def _campaign(self, path: Path):
        from repro.campaign.executor import PoolExecutor
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.store import SqliteStore

        with SqliteStore(path) as store, PoolExecutor(max_workers=self.workers) as pool:
            return CampaignRunner(store, pool).run(self.spec)

    def _search(self, path: Path):
        from repro.campaign.executor import PoolExecutor
        from repro.campaign.search import SearchRunner
        from repro.campaign.store import JsonlStore

        with JsonlStore(path) as store, PoolExecutor(max_workers=self.workers) as pool:
            return SearchRunner(store, pool).search(self.search_spec, self.policy)

    def round(self, phase: Callable) -> list[Op]:
        n = self._rounds
        self._rounds += 1
        db = self.workdir / f"sweep-{n}.sqlite"
        ops = [timed("cold", lambda: self._campaign(db), lambda r: r.executed, phase("cold"))]
        ops += calibrated(lambda: self._cached(db, phase))
        jsonl = self.workdir / f"search-{n}.jsonl"
        ops.append(timed("search", lambda: self._search(jsonl), phase=phase("search")))
        return ops

    def _cached(self, db: Path, phase: Callable) -> list[Op]:
        with phase("cached"):
            return [
                timed("cached", lambda: self._campaign(db), collect=False)
                for _ in range(CACHED_RERUNS)
            ]

    def check(self, op: Op, round_ops: list[Op]) -> tuple[dict, list[str]]:
        report = op.result
        problems = []
        if op.kind == "search":
            if report.failed:
                problems.append(f"search: {report.failed} failed configurations")
            stats = {
                "total": report.total,
                "executed": report.executed,
                "pruned": report.pruned,
                "frontier": report.frontier,
            }
            return stats, problems
        if report.failed:
            problems.append(f"{report.failed} failed workpackages")
        if report.total != self.spec.size:
            problems.append(f"{report.total} workpackages planned, expected {self.spec.size}")
        canonical = [row.canonical() for row in report.rows]
        if op.kind == "cold":
            self._cold = (canonical, _row_stats(report.rows))
            return {"rows": self._cold[1]}, problems
        if report.cached != report.total or report.executed:
            problems.append(f"cache: {report.cached}/{report.total} hits, {report.executed} executed")
        if self._cold is None or round_ops[0].error is not None:
            problems.append("no cold run to compare with")
        elif canonical == self._cold[0]:
            return {"rows": self._cold[1]}, problems
        else:
            problems.append("cached rows differ from the cold rows")
        return {"rows": _row_stats(report.rows)}, problems

    def named_metrics(self, rounds: list[list[Op]]) -> dict[str, float]:
        seconds = seconds_by_group(rounds)
        cached_ms = [o.seconds * 1e3 for ops in rounds for o in ops if o.kind == "cached"]
        return {
            "cold_wp_per_s": items_by_group(rounds)["cold"] / seconds["cold"],
            "cached_rerun_ms_p50": median(cached_ms),
            "cached_rerun_ms_p90": nearest_rank(cached_ms, 90),
            "search_s": seconds["search"],
        }


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Paper, Serve, Sweep)}
