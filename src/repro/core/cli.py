"""The ``caraml`` command-line interface.

Subcommands::

    caraml systems                     # list Table I systems
    caraml run-llm --system A100 --gbs 256 [...]
    caraml run-resnet --system A100 --gbs 256 [...]
    caraml serve --system GH200 --rate 8 [...]   # request-level serving
    caraml jube run <script> [--tag T ...]   # run a JUBE script
    caraml campaign run <spec.yaml>          # sweep with store + pool
    caraml campaign continue <spec.yaml>     # resume (retries failures)
    caraml campaign status <spec.yaml>
    caraml campaign results <spec.yaml> [--format table|csv|jsonl]
    caraml campaign search <spec.yaml>       # pruned Pareto search
    caraml search <spec.yaml>                # shorthand for the above
    caraml powercap frontier [--system S]    # cap sweep -> efficiency frontier
    caraml powercap schedule [--site jsc]    # energy-aware serve-cap schedule
    caraml powercap defer <spec.yaml>        # defer cache misses to green windows
    caraml watch run.timeseries.jsonl        # replay telemetry dashboard
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro.core.config import LLMBenchmarkConfig, ResNetBenchmarkConfig, capped_node
from repro.core.options import LLM_SERVE_CLUSTER, LLM_TRAIN, POWER_CAP, RESNET_TRAIN
from repro.core.suite import SHIPPED_SCRIPTS, CaramlSuite
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.obs.cli import add_trace_subparser, run_trace_command
from repro.obs.telemetry.cli import add_watch_subparser, run_watch_command
from repro.obs.log import (
    add_verbosity_flags,
    configure_logging,
    get_logger,
    run_console_script,
    verbosity_from_args,
)
from repro.simcluster.affinity import BindingPolicy

logger = get_logger(__name__)


def _add_trace_flag(parser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a simulated-time trace (.json for Perfetto, .jsonl "
        "for the event log); open .json files in ui.perfetto.dev",
    )


def _add_faults_flag(parser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="inject faults from this YAML fault plan (chaos mode); see "
        "the fault-injection section of ARCHITECTURE.md",
    )


def _add_option_flags(parser, options, **overrides) -> None:
    """Flags for operation options, declared by the operation's table.

    ``overrides`` maps a flag's destination to argparse keywords that
    replace the table's (the CLI-only defaults and choices); every
    ``--system`` takes one of the Table I tags.
    """
    overrides.setdefault("system", {"choices": SYSTEM_TAGS})
    for option in options:
        kwargs = {"help": option.help}
        if option.type is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs.update(
                type=option.type,
                default=option.default,
                choices=option.choices or None,
                metavar=option.metavar,
            )
        kwargs.update(overrides.get(option.dest, {}))
        # Required by the operation and given no caraml default.
        kwargs["required"] = kwargs.get("default", False) is None
        parser.add_argument(f"--{option.name}", **kwargs)


def _option_values(args, options) -> dict:
    """The parsed flags of ``options``, keyed like the operations key them."""
    return {o.field: getattr(args, o.dest) for o in options if hasattr(args, o.dest)}


def _add_campaign_verb_args(cp, verb: str) -> None:
    """Arguments of one ``caraml campaign <verb>`` subcommand.

    Shared between the ``campaign`` verb family and the top-level
    ``caraml search`` shorthand, so both spell identically.
    """
    cp.add_argument("spec", help="campaign spec YAML file")
    cp.add_argument(
        "--store",
        default=None,
        help="result store path (.jsonl or .sqlite); defaults to the "
        "spec's 'store' entry or <name>.campaign.jsonl",
    )
    if verb in ("run", "continue", "status"):
        _add_faults_flag(cp)
    if verb in ("run", "continue", "search"):
        cp.add_argument(
            "--workers",
            type=int,
            default=None,
            help="process-pool size (default: the CPU count, at most 8)",
        )
        cp.add_argument(
            "--sequential",
            action="store_true",
            help="run in-process instead of through the process pool",
        )
    if verb in ("run", "continue"):
        cp.add_argument(
            "--telemetry",
            default=None,
            metavar="DIR",
            help="serving workpackages sample live telemetry and write "
            "per-workpackage OpenMetrics + timeseries JSONL sidecars "
            "into this directory",
        )
        _add_trace_flag(cp)
    if verb == "run":
        cp.add_argument(
            "--retry-failed",
            action="store_true",
            help="also re-execute workpackages whose stored row is failed",
        )
    if verb == "results":
        cp.add_argument("--csv", default=None, help="export rows to this CSV")
        cp.add_argument("--step", default=None, help="only this workload step")
        cp.add_argument(
            "--format",
            default="table",
            choices=["table", "csv", "jsonl"],
            dest="results_format",
            help="stdout format: flat key=value lines (default), CSV, or "
            "one JSON object per row",
        )
    if verb == "search":
        cp.add_argument(
            "--screen-requests",
            type=int,
            default=None,
            help="first-rung arrival-stream prefix length (overrides the "
            "spec's 'search' section; default: full requests / 64)",
        )
        cp.add_argument(
            "--rungs",
            type=int,
            default=None,
            help="screening rounds before full runs (override)",
        )
        cp.add_argument(
            "--min-keep",
            type=int,
            default=None,
            help="configs always kept through to full execution (override)",
        )
        cp.add_argument(
            "--attainment-goal",
            type=float,
            default=None,
            help="SLO attainment the recommender targets (override)",
        )


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the caraml CLI."""
    parser = argparse.ArgumentParser(
        prog="caraml",
        description="CARAML: assess AI workloads on (simulated) accelerators.",
    )
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list the Table I systems")

    llm = sub.add_parser("run-llm", help="run one LLM benchmark point")
    _add_option_flags(
        llm,
        [option for option in LLM_TRAIN if option.name != "synthetic"],
        gbs={"default": LLMBenchmarkConfig.global_batch_size},
    )
    _add_trace_flag(llm)
    _add_faults_flag(llm)

    cnn = sub.add_parser("run-resnet", help="run one ResNet benchmark point")
    _add_option_flags(
        cnn, RESNET_TRAIN, gbs={"default": ResNetBenchmarkConfig.global_batch_size}
    )
    cnn.add_argument(
        "--binding",
        choices=[p.value for p in BindingPolicy],
        help="CPU binding policy (paper section V-C; default: gpu-affine)",
    )
    _add_trace_flag(cnn)
    _add_faults_flag(cnn)

    infer = sub.add_parser(
        "run-infer", help="run the LLM inference extension benchmark"
    )
    infer.add_argument("--system", required=True, choices=SYSTEM_TAGS)
    infer.add_argument("--model", default="800M")
    infer.add_argument("--batch", type=int, default=8)
    infer.add_argument("--prompt-tokens", type=int, help="prompt length")
    infer.add_argument("--generate-tokens", type=int, help="generated tokens")
    _add_option_flags(infer, (POWER_CAP,))

    from repro.serve.cluster.router import ROUTER_POLICIES

    serve = sub.add_parser(
        "serve", help="request-level serving simulation (continuous batching)"
    )
    # --replicas 1 selects the single engine; more serve on the cluster.
    _add_option_flags(
        serve,
        LLM_SERVE_CLUSTER,
        rate={"default": 8.0},
        replicas={"default": 1},
        router={"choices": sorted(ROUTER_POLICIES)},
    )
    serve.add_argument(
        "--requests-json",
        default=None,
        metavar="FILE",
        help="also dump the per-request latency records to this JSON file",
    )
    serve.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="sample live telemetry and write OpenMetrics + timeseries "
        "JSONL exports into this directory (replay with 'caraml watch')",
    )
    serve.add_argument(
        "--watch",
        action="store_true",
        help="render the live sparkline dashboard while serving",
    )
    _add_trace_flag(serve)
    _add_faults_flag(serve)

    report = sub.add_parser(
        "report", help="write the full evaluation report (all tables/figures)"
    )
    report.add_argument("--out", default="caraml_report.md")
    report.add_argument(
        "--figures", action="store_true", help="also render the SVG figure panels"
    )

    explore = sub.add_parser(
        "explore", help="hyperparameter sweep to find optimal settings"
    )
    explore.add_argument("--system", required=True, choices=SYSTEM_TAGS)
    explore.add_argument("--benchmark", default="llm", choices=["llm", "resnet"])
    explore.add_argument(
        "--objective", default="throughput", choices=["throughput", "efficiency"]
    )

    sub.add_parser(
        "validate",
        help="run every paper-vs-measured check; nonzero exit on failure",
    )

    continuous = sub.add_parser(
        "continuous", help="continuous benchmarking (record/check a baseline)"
    )
    continuous.add_argument("action", choices=["record", "check"])
    continuous.add_argument("--baseline", default="caraml_baseline.json")
    continuous.add_argument(
        "--tolerance",
        type=float,
        help="relative throughput drop that counts as a regression",
    )
    continuous.add_argument(
        "--campaign-store",
        default=None,
        help="source the baseline from a campaign result store instead of "
        "re-measuring (see 'caraml campaign')",
    )

    campaign = sub.add_parser(
        "campaign", help="run benchmark campaigns against a result store"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    for verb, help_text in (
        ("run", "execute the campaign (cache hits are skipped)"),
        ("continue", "resume an interrupted campaign, retrying failures"),
        ("status", "compare the plan against the store"),
        ("results", "print (and optionally export) the stored rows"),
        ("search", "pruned Pareto search: screen, prune, run survivors exactly"),
    ):
        cp = campaign_sub.add_parser(verb, help=help_text)
        _add_campaign_verb_args(cp, verb)

    search = sub.add_parser(
        "search",
        help="shorthand for 'campaign search': pruned Pareto sweep search",
    )
    _add_campaign_verb_args(search, "search")

    powercap = sub.add_parser(
        "powercap",
        help="power-cap frontier sweeps and energy-aware scheduling",
    )
    pc_sub = powercap.add_subparsers(dest="powercap_command", required=True)

    pf = pc_sub.add_parser(
        "frontier",
        help="cap x batch sweep -> throughput vs energy-per-token frontier",
    )
    pf.add_argument(
        "--system",
        action="append",
        choices=SYSTEM_TAGS,
        dest="systems",
        help="system to sweep (repeatable; default: the scenario's systems)",
    )
    pf.add_argument("--model")
    pf.add_argument(
        "--gbs",
        action="append",
        type=int,
        dest="batch_sizes",
        help="global batch size (repeatable; default: the scenario's batches)",
    )
    pf.add_argument(
        "--cap-fraction",
        action="append",
        type=float,
        dest="cap_fractions",
        help="cap as a fraction of TDP (repeatable; 1.0 = uncapped; "
        "default: the scenario's fractions)",
    )
    pf.add_argument("--duration", type=float, help="benchmark seconds per point")
    pf.add_argument(
        "--store",
        default=None,
        help="persistent result store (.jsonl or .sqlite); re-runs become "
        "pure cache walks",
    )

    ps = pc_sub.add_parser(
        "schedule",
        help="energy-aware serve-cap schedule over a diurnal grid curve",
    )
    ps.add_argument("--system", choices=SYSTEM_TAGS)
    ps.add_argument("--model")
    ps.add_argument("--rate", type=float, help="arrival rate (req/s)")
    ps.add_argument("--requests", type=int)
    ps.add_argument("--site", help="site profile (PUE)")
    ps.add_argument(
        "--attainment-goal",
        type=float,
        help="SLO attainment the chosen caps must keep",
    )
    ps.add_argument(
        "--budget",
        type=float,
        default=None,
        help="gCO2/request budget per window (default: 85%% of the "
        "uncapped point's emissions at mean grid intensity)",
    )
    ps.add_argument(
        "--horizon",
        type=float,
        help="schedule horizon in seconds (default: one day)",
    )
    ps.add_argument("--store", default=None, help="persistent result store")

    pd = pc_sub.add_parser(
        "defer",
        help="plan when to execute a campaign's cache misses (green windows)",
    )
    pd.add_argument("spec", help="campaign spec YAML file")
    pd.add_argument(
        "--store",
        default=None,
        help="result store path; defaults like 'caraml campaign'",
    )
    pd.add_argument("--site", help="site profile (PUE)")
    pd.add_argument(
        "--item-duration",
        type=float,
        help="estimated seconds per missing workpackage",
    )
    pd.add_argument(
        "--item-power",
        type=float,
        help="estimated mean device watts per missing workpackage",
    )
    pd.add_argument(
        "--parallel",
        type=int,
        help="workpackages executed concurrently (divides the makespan)",
    )
    pd.add_argument(
        "--horizon",
        type=float,
        help="how far ahead deferral may push execution (seconds; "
        "default: one day)",
    )

    jube = sub.add_parser("jube", help="drive the JUBE workflow engine")
    jube_sub = jube.add_subparsers(dest="jube_command", required=True)
    jr = jube_sub.add_parser("run", help="run a benchmark script")
    jr.add_argument("script", help=f"path or one of: {', '.join(SHIPPED_SCRIPTS)}")
    jr.add_argument("--tag", action="append", default=[], dest="tags")
    jr.add_argument(
        "--skip-continue",
        action="store_true",
        help="do not run the deferred post-processing steps",
    )
    jr.add_argument("--table", default=None, help="result table to print")
    _add_trace_flag(jr)

    add_trace_subparser(sub)
    add_watch_subparser(sub)
    return parser


def _open_tracer(path: str):
    """A tracer recording simulated time into the sink for ``path``."""
    from repro.obs.sinks import sink_for_path
    from repro.obs.trace import Tracer
    from repro.simcluster.clock import VirtualClock

    return Tracer(clock=VirtualClock(), sinks=[sink_for_path(path)])


@contextmanager
def _maybe_traced(trace_path: str | None, out):
    """Activate a tracer for the block when ``--trace`` was given."""
    from repro.obs.trace import activate

    if not trace_path:
        yield None
        return
    tracer = _open_tracer(trace_path)
    with activate(tracer):
        yield tracer
    tracer.close()
    print(f"trace: {trace_path}", file=out)


def _run_campaign(args, out) -> int:
    """The ``caraml campaign`` subcommand family.

    The store is opened as a context manager so every exit path —
    including SQLite-backed chaos/campaign commands — closes the
    backend instead of leaking the connection.
    """
    from repro.campaign import load_campaign_spec, open_store

    if args.campaign_command == "search":
        from repro.campaign.search import load_search_spec

        spec, policy = load_search_spec(args.spec)
        store_path = args.store or spec.store or f"{spec.name}.campaign.jsonl"
        with open_store(store_path) as store:
            return _run_campaign_search(args, out, spec, policy, store)

    spec = load_campaign_spec(args.spec)
    store_path = args.store or spec.store or f"{spec.name}.campaign.jsonl"
    with open_store(store_path) as store:
        return _run_campaign_with_store(args, out, spec, store)


def _run_campaign_search(args, out, spec, policy, store) -> int:
    """The ``caraml [campaign] search`` subcommand body."""
    from dataclasses import replace

    from repro.campaign import IsolatingExecutor, PoolExecutor
    from repro.campaign.search import SearchRunner

    overrides = {
        name: value
        for name, value in (
            ("screen_requests", args.screen_requests),
            ("rungs", args.rungs),
            ("min_keep", args.min_keep),
            ("attainment_goal", args.attainment_goal),
        )
        if value is not None
    }
    if overrides:
        policy = replace(policy, **overrides)
    if args.sequential:
        executor = IsolatingExecutor()
    else:
        executor = PoolExecutor(max_workers=args.workers)
    try:
        report = SearchRunner(store, executor).search(spec, policy)
    finally:
        if hasattr(executor, "close"):
            executor.close()
    print(report.describe(), file=out)
    print(f"store: {store.path}", file=out)
    return 0 if report.failed == 0 else 1


def _run_campaign_with_store(args, out, spec, store) -> int:
    from repro.campaign import CampaignRunner, IsolatingExecutor, PoolExecutor

    faults = None
    if getattr(args, "faults", None):
        from repro.faults import load_fault_plan

        faults = load_fault_plan(args.faults)
        logger.info(
            "chaos mode: fault plan %r (%d faults)", faults.name, len(faults.faults)
        )

    telemetry = None
    if getattr(args, "telemetry", None):
        from repro.obs.telemetry import TelemetryPlan

        telemetry = TelemetryPlan(directory=args.telemetry)
        logger.info("telemetry capture into %s", telemetry.directory)

    if args.campaign_command in ("run", "continue"):
        from repro.obs.trace import NULL_TRACER, activate

        tracer = NULL_TRACER
        if args.trace:
            # Traced campaigns run sequentially so every workpackage
            # records into one shared simulated-time timeline (worker
            # processes cannot reach the parent's tracer), and retry
            # backoff advances the trace clock instead of real-sleeping.
            if not args.sequential:
                logger.info("tracing forces the sequential executor")
            tracer = _open_tracer(args.trace)
            executor = IsolatingExecutor(
                sleep=tracer.virtual_clock.advance,
                fault_plan=faults,
                telemetry=telemetry,
            )
        elif args.sequential:
            executor = IsolatingExecutor(fault_plan=faults, telemetry=telemetry)
        else:
            executor = PoolExecutor(
                max_workers=args.workers, fault_plan=faults, telemetry=telemetry
            )
        runner = CampaignRunner(store, executor, faults=faults)
        try:
            with activate(tracer):
                if args.campaign_command == "continue":
                    report = runner.continue_run(spec)
                else:
                    report = runner.run(
                        spec, retry_failed=getattr(args, "retry_failed", False)
                    )
        finally:
            if hasattr(executor, "close"):
                executor.close()
        tracer.close()
        print(report.describe(), file=out)
        print(f"store: {store.path}", file=out)
        if args.trace:
            print(f"trace: {args.trace}", file=out)
        if telemetry is not None:
            print(f"telemetry: {telemetry.directory}", file=out)
        return 0 if report.failed == 0 else 1

    if args.campaign_command == "status":
        runner = CampaignRunner(store, faults=faults)
        print(runner.status(spec).describe(), file=out)
        # len(store) is O(1) (COUNT(*) / dict size), so this stays cheap
        # even against a multi-thousand-row store.
        print(f"store: {len(store)} rows in {store.path}", file=out)
        return 0

    if args.campaign_command == "results":
        rows = store.query(campaign=spec.name, step=args.step)
        fmt = getattr(args, "results_format", "table")
        if fmt == "jsonl":
            import json

            for row in rows:
                record = {"key": row.key, **row.flat()}
                if row.error:
                    record["error"] = row.error
                print(json.dumps(record, sort_keys=True), file=out)
        elif fmt == "csv":
            import csv

            flats = [row.flat() for row in rows]
            columns: dict[str, None] = {}
            for flat in flats:
                for name in flat:
                    columns.setdefault(name)
            writer = csv.DictWriter(
                out, fieldnames=list(columns), extrasaction="ignore"
            )
            writer.writeheader()
            for flat in flats:
                writer.writerow(flat)
        else:
            for row in rows:
                flat = row.flat()
                if row.error:
                    flat["error"] = row.error
                print(
                    "  " + "  ".join(f"{k}={v}" for k, v in flat.items()), file=out
                )
            print(f"{len(rows)} rows in {store.path}", file=out)
        if args.csv:
            path = store.to_csv(args.csv, campaign=spec.name, step=args.step)
            print(f"wrote {path}", file=out)
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


@contextmanager
def _powercap_store(path: str | None):
    """A persistent store when ``--store`` was given, else ``None``
    (the sweep helpers fall back to a throwaway store)."""
    if not path:
        yield None
        return
    from repro.campaign import open_store

    with open_store(path) as store:
        yield store


#: Flags (by dest) and the library parameter each sets; an omitted flag
#: leaves the library's default in place.
_FRONTIER_FIELDS = {
    "systems": "systems",
    "model": "model_size",
    "batch_sizes": "global_batch_sizes",
    "cap_fractions": "cap_fractions",
    "duration": "exit_duration_s",
}
_SCHEDULE_FIELDS = {
    "system": "system",
    "model": "model_size",
    "rate": "arrival_rate",
    "requests": "requests",
}
_SCHEDULE_ARGS = {
    "site": "site",
    "attainment_goal": "attainment_goal",
    "budget": "budget_gco2_per_request",
    "horizon": "horizon_s",
}
_DEFER_ARGS = {
    "site": "site",
    "item_duration": "est_item_duration_s",
    "item_power": "est_item_power_w",
    "parallel": "parallel_items",
    "horizon": "horizon_s",
}
_INFER_ARGS = {"prompt_tokens": "prompt_tokens", "generate_tokens": "generate_tokens"}


def _given(args, fields: dict[str, str]) -> dict:
    """Library keyword arguments of the flags the user gave."""
    values = {}
    for dest, name in fields.items():
        value = getattr(args, dest)
        if value is not None:
            values[name] = tuple(value) if isinstance(value, list) else value
    return values


def _run_powercap(args, out) -> int:
    """The ``caraml powercap`` subcommand family."""
    if args.powercap_command == "frontier":
        from repro.analysis.powercap import (
            PowercapScenario,
            frontier_table,
            points_from_rows,
            run_powercap_sweep,
        )

        scenario = PowercapScenario(**_given(args, _FRONTIER_FIELDS))
        with _powercap_store(args.store) as store:
            rows = run_powercap_sweep(scenario, store=store)
        table = frontier_table(points_from_rows(rows))
        for row in table:
            print(
                "  " + "  ".join(f"{k}={v}" for k, v in row.items() if v != ""),
                file=out,
            )
        below_tdp = sorted(
            {
                r["system"]
                for r in table
                if "optimal" in r["pick"] and r["power_cap"] != "uncapped"
            }
        )
        if below_tdp:
            print(
                f"tokens/Wh optimum below TDP on: {', '.join(below_tdp)}",
                file=out,
            )
        if args.store:
            print(f"store: {args.store}", file=out)
        return 0

    if args.powercap_command == "schedule":
        from repro.analysis.carbon import IntensityTimeseries
        from repro.analysis.powercap import (
            ServeCapScenario,
            energy_aware_schedule,
            run_serve_cap_sweep,
        )

        scenario = ServeCapScenario(**_given(args, _SCHEDULE_FIELDS))
        with _powercap_store(args.store) as store:
            points = run_serve_cap_sweep(scenario, store=store)
        report = energy_aware_schedule(
            points, IntensityTimeseries.diurnal(), **_given(args, _SCHEDULE_ARGS)
        )
        print(report.describe(), file=out)
        if args.store:
            print(f"store: {args.store}", file=out)
        return 0

    if args.powercap_command == "defer":
        from repro.analysis.carbon import IntensityTimeseries
        from repro.campaign import load_campaign_spec, open_store
        from repro.campaign.energysched import plan_deferral

        spec = load_campaign_spec(args.spec)
        store_path = args.store or spec.store or f"{spec.name}.campaign.jsonl"
        with open_store(store_path) as store:
            plan = plan_deferral(
                spec,
                store,
                IntensityTimeseries.diurnal(),
                **_given(args, _DEFER_ARGS),
            )
        print(plan.describe(), file=out)
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def _print_result_row(result, out) -> None:
    for key, value in result.row().items():
        print(f"  {key}: {value}", file=out)


def _print_serve_telemetry(args, served, sampler, monitor, out) -> None:
    """Report a serve run's telemetry: alerts, exports (``--telemetry``)."""
    for alert in monitor.alerts:
        cleared = (
            f"cleared {alert.cleared_at_s:.2f}s" if not alert.active else "active"
        )
        print(
            f"  alert {alert.rule}: fired {alert.fired_at_s:.2f}s "
            f"(burn {alert.burn_rate_short:.1f}x short / "
            f"{alert.burn_rate_long:.1f}x long, {cleared})",
            file=out,
        )
    print(
        f"  telemetry: {sampler.samples_taken} samples, "
        f"{len(sampler.all_series())} series, "
        f"slo attainment {monitor.attainment:.4f}",
        file=out,
    )
    if not args.telemetry:
        return
    from pathlib import Path

    from repro.obs.metrics import get_metrics
    from repro.obs.telemetry import render_openmetrics, write_timeseries_jsonl

    directory = Path(args.telemetry)
    directory.mkdir(parents=True, exist_ok=True)
    ts_path = write_timeseries_jsonl(sampler, directory / "serve.timeseries.jsonl")
    om_path = directory / "serve.om"
    om_path.write_text(render_openmetrics(get_metrics()))
    print(f"  timeseries: {ts_path}", file=out)
    print(f"  openmetrics: {om_path}", file=out)
    print(f"  (replay with: caraml watch {ts_path})", file=out)


def _fault_scope(args, step: str):
    """Injection scope for a single direct run, or ``None``.

    Direct runs are one implicit workpackage: specs match against the
    step name (``run-llm`` / ``run-resnet``) and a ``system`` parameter.
    """
    if not getattr(args, "faults", None):
        return None
    from repro.faults import FaultInjector, load_fault_plan

    plan = load_fault_plan(args.faults)
    return FaultInjector(plan).scope_for(step, 0, {"system": args.system})


def _print_fired_faults(scope, out) -> None:
    if scope is not None and scope.records:
        print(f"  injected_faults: {scope.describe()}", file=out)


def run(argv: list[str] | None = None, *, stdout=None) -> int:
    """CLI body; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    configure_logging(verbosity_from_args(args))
    suite = CaramlSuite()

    if args.command == "systems":
        for tag in SYSTEM_TAGS:
            print(get_system(tag).describe(), file=out)
            print(file=out)
        return 0

    if args.command in ("run-llm", "run-resnet"):
        from repro.faults import activate_injection

        scope = _fault_scope(args, args.command)
        with _maybe_traced(args.trace, out), activate_injection(scope):
            if args.command == "run-llm":
                result = suite.run_llm(**_option_values(args, LLM_TRAIN))
            else:
                result = suite.run_resnet(
                    **_option_values(args, RESNET_TRAIN),
                    **_given(args, {"binding": "binding"}),
                )
        _print_result_row(result, out)
        _print_fired_faults(scope, out)
        return 0

    if args.command == "run-infer":
        from repro.engine.inference import InferenceEngine, InferenceWorkload
        from repro.models.transformer import get_gpt_preset

        engine = InferenceEngine(
            capped_node(args.system, args.power_cap),
            get_gpt_preset(args.model),
        )
        result = engine.serve(
            InferenceWorkload(batch_size=args.batch, **_given(args, _INFER_ARGS))
        )
        _print_result_row(result, out)
        return 0

    if args.command == "serve":
        from repro.core.registry import build_serving
        from repro.errors import ConfigError
        from repro.faults import activate_injection
        from repro.serve.result import PERCENTILE_MODE_SKETCH

        scope = _fault_scope(args, "serve")
        if args.requests_json and args.percentiles == PERCENTILE_MODE_SKETCH:
            raise ConfigError(
                "--requests-json needs per-request records, which "
                "--percentiles p2 does not store; use --percentiles exact"
            )
        sampler = monitor = dashboard = None
        if args.telemetry or args.watch:
            from repro.obs.metrics import MetricsRegistry, set_metrics
            from repro.obs.telemetry import SLOMonitor, TelemetrySampler
            from repro.obs.telemetry.cli import LiveDashboard

            # Fresh registry per capture: the OpenMetrics export must
            # describe this run only, even when several CLI invocations
            # share one process (tests, notebooks).
            set_metrics(MetricsRegistry())
            sampler = TelemetrySampler()
            monitor = SLOMonitor()
            if args.watch:
                dashboard = LiveDashboard(out)
                sampler.on_sample(dashboard.on_sample)
        simulator, arrivals = build_serving(
            _option_values(args, LLM_SERVE_CLUSTER),
            cluster=(
                args.replicas > 1
                or args.autoscale
                or args.prefill_replicas > 0
                or args.decode_replicas > 0
            ),
            telemetry=sampler,
            slo_monitor=monitor,
        )
        with _maybe_traced(args.trace, out), activate_injection(scope):
            served = simulator.run(arrivals)
        if dashboard is not None:
            dashboard.finish(sampler, served.train.elapsed_s)
        _print_result_row(served.train, out)
        _print_fired_faults(scope, out)
        if sampler is not None:
            _print_serve_telemetry(args, served, sampler, monitor, out)
        if args.requests_json:
            from pathlib import Path

            Path(args.requests_json).write_text(served.records_json())
            print(f"requests: {args.requests_json}", file=out)
        return 0

    if args.command == "report":
        from repro.analysis.report import write_report

        path = write_report(args.out, include_figures=args.figures)
        print(f"wrote {path}", file=out)
        return 0

    if args.command == "explore":
        from repro.analysis.explore import Objective, explore_cnn, explore_llm

        objective = Objective(args.objective)
        if args.benchmark == "llm":
            result = explore_llm(args.system, objective=objective)
        else:
            result = explore_cnn(args.system, objective=objective)
        for row in result.rows():
            print("  " + "  ".join(f"{k}={v}" for k, v in row.items()), file=out)
        best = result.best
        print(
            f"best ({objective.value}): mbs={best.micro_batch_size} "
            f"gbs={best.global_batch_size} -> throughput {best.throughput:.1f}, "
            f"{best.efficiency_per_wh:.1f} per Wh",
            file=out,
        )
        return 0

    if args.command == "continuous":
        from repro.core.continuous import ContinuousBenchmark

        cb = ContinuousBenchmark(suite=suite)
        if args.action == "record":
            path = cb.record_baseline(args.baseline)
            print(f"recorded baseline {path}", file=out)
            return 0
        if args.campaign_store:
            from repro.campaign import open_store

            with open_store(args.campaign_store) as campaign_store:
                baseline = cb.baseline_from_store(campaign_store)
            comparisons = cb.compare_with(baseline)
        else:
            comparisons = cb.compare(args.baseline)
        for comparison in comparisons:
            print(comparison.describe(), file=out)
        tolerance = _given(args, {"tolerance": "tolerance"})
        regressions = [c for c in comparisons if c.regressed(**tolerance)]
        print(f"regressions: {len(regressions)}", file=out)
        return 0 if not regressions else 1

    if args.command == "validate":
        from repro.analysis.validate import validate_reproduction, validation_summary

        items = validate_reproduction()
        print(validation_summary(items), file=out)
        return 0 if all(item.passed for item in items) else 1

    if args.command == "campaign":
        return _run_campaign(args, out)

    if args.command == "search":
        args.campaign_command = "search"
        return _run_campaign(args, out)

    if args.command == "powercap":
        return _run_powercap(args, out)

    if args.command == "trace":
        return run_trace_command(args, out)

    if args.command == "watch":
        return run_watch_command(args, out)

    if args.command == "jube" and args.jube_command == "run":
        script = suite.load_script(args.script)
        if args.table is not None:
            script.result_table(args.table)  # an unknown table fails before the run
        with _maybe_traced(args.trace, out):
            jube_run = suite.runner.run(script, args.tags)
            if not args.skip_continue:
                suite.jube_continue(jube_run)
        print(suite.jube_result(jube_run, args.table), file=out)
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def main() -> None:
    """Console-script entry point."""
    run_console_script("caraml", run, __name__)


if __name__ == "__main__":
    main()
