"""The per-layer metrics, the entry points that feed them, and the
end-to-end metric each one should move.

:data:`LAYER_METRICS` is the single list of per-layer metrics: the
traced run prints exactly these, ``BENCHMARK.json`` lists exactly
these (a self-test checks the two agree), and ``run.py --describe``
prints the table with each metric's entry points and targets.

Targets name a workload's named metrics (``workloads.py``); each is a
part of that workload's ``round_s``, and ``jube_wp_per_s`` /
``cold_wp_per_s`` are the ``sim_items_per_s`` of ``paper`` / ``sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import Entry, Instrumentation, LayerTracer, count_calls, wrap


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric.

    ``source`` names the entry points (or the summary fields) it is
    read from; ``moves`` names the metric(s) and workload(s) a change
    to this layer should move.
    """

    name: str
    unit: str
    source: str
    moves: str


_S, _N, _R = "s", "count", "ratio"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("core.import_s", _S, "import repro.core.cli", "setup_s: all"),
    LayerMetric("core.registry_build_s", _S, "build_operation_registry", "setup_s: paper"),
    LayerMetric("jube.expand_s", _S, "expand_parameter_space", "jube_wp_per_s (sim_items_per_s): paper; cached_rerun_ms_p50 (round_s): sweep"),
    LayerMetric("jube.workpackages", _N, "expand_parameter_space results", "jube_wp_per_s: paper"),
    LayerMetric("jube.self_s", _S, "CaramlSuite.jube_run, JubeRunner.run minus children", "jube_wp_per_s: paper"),
    LayerMetric("jube.dispatch_s", _S, "OperationRegistry.dispatch minus children (operation glue)", "jube_wp_per_s: paper"),
    LayerMetric("data.prepare_s", _S, "the prepare_data operation minus children", "jube_wp_per_s: paper"),
    LayerMetric("data.prepare_calls", _N, "the prepare_data operation", "jube_wp_per_s: paper"),
    LayerMetric("data.prepare_distinct_ratio", _R, "distinct argument sets per JUBE run / calls", "jube_wp_per_s: paper"),
    LayerMetric("data.bpe_train_s", _S, "BPETokenizer.train", "jube_wp_per_s: paper"),
    LayerMetric("data.bpe_encode_s", _S, "BPETokenizer.encode", "jube_wp_per_s: paper"),
    LayerMetric("data.oscar_s", _S, "generate_oscar_subset", "jube_wp_per_s: paper"),
    LayerMetric("engine.setup_s", _S, "run_llm_benchmark, run_resnet_benchmark minus children", "jube_wp_per_s, report_s: paper"),
    LayerMetric("engine.step_model_s", _S, "LLMStepModel.step, CNNStepModel.step", "report_s: paper; cold_wp_per_s: sweep"),
    LayerMetric("engine.step_model_calls", _N, "LLMStepModel.step, CNNStepModel.step", "report_s: paper; cold_wp_per_s: sweep"),
    LayerMetric("engine.measure_run_s", _S, "measure_run minus children (training loop, jpwr scope)", "jube_wp_per_s: paper; engine_req_per_s: serve"),
    LayerMetric("engine.measure_runs", _N, "measure_run", "jube_wp_per_s: paper; engine_req_per_s: serve"),
    LayerMetric("engine.oom_points", _N, "OutOfMemoryError out of run_llm_benchmark, run_resnet_benchmark", "jube_wp_per_s: paper"),
    LayerMetric("jpwr.sample_s", _S, "MeasuredScope.sample", "engine_req_per_s: serve; jube_wp_per_s, report_s: paper"),
    LayerMetric("jpwr.samples", _N, "MeasuredScope.sample", "engine_req_per_s: serve; jube_wp_per_s, report_s: paper"),
    LayerMetric("jpwr.samples_per_request", _R, "jpwr.samples / serve.requests", "engine_req_per_s: serve"),
    LayerMetric("jpwr.energy_s", _S, "MeasuredScope.energy", "engine_req_per_s: serve; jube_wp_per_s, report_s: paper"),
    LayerMetric("serve.arrivals_s", _S, "PoissonArrivals/SessionArrivals/BurstArrivals/TraceArrivals/FixedArrivals.generate", "setup_s: serve; report_s: paper"),
    LayerMetric("serve.requests", _N, "requests generated by the arrival processes", "setup_s: serve"),
    LayerMetric("serve.offer_s", _S, "AdmissionQueue.offer", "fleet_req_per_s: serve"),
    LayerMetric("serve.offers", _N, "AdmissionQueue.offer", "fleet_req_per_s: serve"),
    LayerMetric("serve.shed", _N, "AdmissionQueue.offer returning False", "fleet_req_per_s: serve"),
    LayerMetric("serve.admit_s", _S, "ContinuousBatchScheduler.admit", "fleet_req_per_s: serve"),
    LayerMetric("serve.admits", _N, "ContinuousBatchScheduler.admit", "fleet_req_per_s: serve"),
    LayerMetric("serve.loop_self_s", _S, "ServingSimulator.run (with its measured body), ClusterSimulator.run minus children", "engine_req_per_s, fleet_req_per_s, session_req_per_s: serve"),
    LayerMetric("serve.attribution_s", _S, "attribute_request_energy_wh", "engine_req_per_s: serve"),
    LayerMetric("serve.summary_s", _S, "summarize, StreamingSummarizer.summary", "fleet_req_per_s: serve"),
    LayerMetric("serve.decode_steps", _N, "run summaries (decode steps of every serving run)", "describes the load point of the serving runs"),
    LayerMetric("serve.tokens_per_decode_step", _R, "run summaries: generated tokens / decode steps", "describes the load point of the serving runs"),
    LayerMetric("serve.cluster.route_s", _S, "Router.route", "session_req_per_s, fleet_req_per_s: serve"),
    LayerMetric("serve.cluster.routes", _N, "Router.route", "session_req_per_s, fleet_req_per_s: serve"),
    LayerMetric("serve.cluster.prefix_hit_rate", _R, "ClusterSummary: prefix hits / prefills", "session_req_per_s: serve"),
    LayerMetric("serve.cluster.transfers", _N, "ClusterSummary.transfers", "session_req_per_s: serve"),
    LayerMetric("campaign.compile_s", _S, "CampaignSpec.compile", "cached_rerun_ms_p50: sweep"),
    LayerMetric("campaign.key_s", _S, "ResultKeyer.key", "cached_rerun_ms_p50: sweep"),
    LayerMetric("campaign.keys", _N, "ResultKeyer.key", "cached_rerun_ms_p50: sweep"),
    LayerMetric("campaign.store_open_s", _S, "JsonlStore/SqliteStore construction and close", "cached_rerun_ms_p50, cached_rerun_ms_p90: sweep"),
    LayerMetric("campaign.lookup_s", _S, "JsonlStore/SqliteStore.get_many", "cached_rerun_ms_p50, cached_rerun_ms_p90: sweep"),
    LayerMetric("campaign.hit_ratio", _R, "get_many: keys found / keys looked up", "cached_rerun_ms_p50: sweep"),
    LayerMetric("campaign.flush_s", _S, "JsonlStore/SqliteStore.put_many", "cold_wp_per_s: sweep"),
    LayerMetric("campaign.rows_flushed", _N, "put_many rows", "cold_wp_per_s: sweep"),
    LayerMetric("campaign.dispatch_wait_s", _S, "PoolExecutor/IsolatingExecutor run_items, run_item_batches, PoolExecutor.close", "cold_wp_per_s, search_s: sweep"),
    LayerMetric("campaign.items", _N, "work items handed to an executor", "cold_wp_per_s, search_s: sweep"),
    LayerMetric("campaign.streams_s", _S, "plan_streams", "cold_wp_per_s, search_s: sweep"),
    LayerMetric("campaign.streams", _N, "plan_streams results", "cold_wp_per_s, search_s: sweep"),
    LayerMetric("campaign.runner_self_s", _S, "CampaignRunner.run, SearchRunner.search minus children", "cached_rerun_ms_p50, cold_wp_per_s, search_s: sweep"),
    LayerMetric("campaign.search_pruned", _N, "SearchReport.pruned", "search_s: sweep"),
    LayerMetric("campaign.search_request_savings", _R, "SearchReport.request_savings (mean)", "search_s: sweep"),
    LayerMetric("campaign.pool_workers", _N, "PoolExecutor workers (largest pool)", "describes the run (at most 2)"),
    LayerMetric("analysis.validate_s", _S, "validate_reproduction minus children", "report_s: paper"),
    LayerMetric("analysis.render_s", _S, "render_all minus children", "report_s: paper"),
    LayerMetric("analysis.report_self_s", _S, "build_report minus children", "report_s: paper"),
    LayerMetric("obs.null_span_calls", _N, "NullTracer.span calls (counted, never timed)", "all rates: all"),
    LayerMetric("bench.other_s", _S, "traced wall time no entry point covers", "none (harness)"),
    LayerMetric("bench.layer_coverage", _R, "1 - bench.other_s / traced wall time", "quality gate (>= 0.95)"),
    LayerMetric("bench.trace_overhead_frac", _R, "traced round / untraced round - 1", "quality gate"),
)

# -- observers: counters derived from calls ------------------------------


def _expanded(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.add("jube.workpackages", len(result))


def _oom(tracer, args, kwargs, result, error):
    from repro.errors import OutOfMemoryError

    if isinstance(error, OutOfMemoryError):
        tracer.add("engine.oom_points")


def _generated(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.add("serve.requests", len(result))


def _offered(tracer, args, kwargs, result, error):
    if result is False:
        tracer.add("serve.shed")


def _served(tracer, args, kwargs, result, error):
    if result is None:
        return
    summary = result.summary
    serve = getattr(summary, "serve", summary)
    tracer.add("serve.decode_steps", result.train.iterations)
    tracer.add("serve.generated_tokens", serve.generated_tokens)
    phase = tracer.current_phase()
    tracer.add(f"serve.decode_steps@{phase}", result.train.iterations)
    tracer.add(f"serve.generated_tokens@{phase}", serve.generated_tokens)
    if serve is not summary:
        tracer.add("serve.cluster.prefix_hits", summary.prefix_hits)
        tracer.add("serve.cluster.prefills", sum(r.prefills for r in summary.replicas))
        tracer.add("serve.cluster.transfers", summary.transfers)


def _looked_up(tracer, args, kwargs, result, error):
    if result is None:
        return
    keys = args[1] if len(args) > 1 else kwargs.get("keys", ())
    tracer.add("campaign.lookup_keys", len(keys))
    tracer.add("campaign.lookup_hits", len(result))


def _flushed(tracer, args, kwargs, result, error):
    rows = args[1] if len(args) > 1 else kwargs.get("rows", ())
    tracer.add("campaign.rows_flushed", len(rows))


def _pool_size(tracer, executor):
    workers = getattr(executor, "_workers", 0)
    if workers > tracer.counters.get("campaign.pool_workers", 0):
        tracer.counters["campaign.pool_workers"] = workers


def _items(tracer, args, kwargs, result, error):
    tracer.add("campaign.items", len(args[1]))
    _pool_size(tracer, args[0])


def _batches(tracer, args, kwargs, result, error):
    tracer.add("campaign.items", sum(len(batch) for batch in args[1]))
    _pool_size(tracer, args[0])


def _planned(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.add("campaign.streams", len(result))


def _searched(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.add("campaign.searches")
        tracer.add("campaign.search_pruned", result.pruned)
        tracer.add("campaign.search_request_savings_sum", result.request_savings)


def _entries(on_registry) -> list[Entry]:
    e = Entry
    return [
        e("repro.core.registry", "build_operation_registry", "core.registry_build_s", observe=on_registry),
        e("repro.jube.parameters", "expand_parameter_space", "jube.expand_s", hot=True, observe=_expanded),
        e("repro.core.suite", "CaramlSuite.jube_run", "jube.self_s"),
        e("repro.jube.runner", "JubeRunner.run", "jube.self_s"),
        e("repro.jube.runner", "OperationRegistry.dispatch", "jube.dispatch_s", hot=True),
        e("repro.data.tokenizer", "BPETokenizer.train", "data.bpe_train_s"),
        e("repro.data.tokenizer", "BPETokenizer.encode", "data.bpe_encode_s"),
        e("repro.data.oscar", "generate_oscar_subset", "data.oscar_s"),
        e("repro.core.llm_training", "run_llm_benchmark", "engine.setup_s", observe=_oom),
        e("repro.core.resnet50", "run_resnet_benchmark", "engine.setup_s", observe=_oom),
        e("repro.engine.perf", "LLMStepModel.step", "engine.step_model_s", hot=True, count="engine.step_model_calls"),
        e("repro.engine.perf", "CNNStepModel.step", "engine.step_model_s", hot=True, count="engine.step_model_calls"),
        e("repro.jpwr.ctxmgr", "MeasuredScope.sample", "jpwr.sample_s", hot=True, count="jpwr.samples"),
        e("repro.jpwr.ctxmgr", "MeasuredScope.energy", "jpwr.energy_s", hot=True),
        e("repro.serve.arrivals", "PoissonArrivals.generate", "serve.arrivals_s", observe=_generated),
        e("repro.serve.arrivals", "SessionArrivals.generate", "serve.arrivals_s", observe=_generated),
        e("repro.serve.arrivals", "BurstArrivals.generate", "serve.arrivals_s", observe=_generated),
        e("repro.serve.arrivals", "TraceArrivals.generate", "serve.arrivals_s", observe=_generated),
        e("repro.serve.arrivals", "FixedArrivals.generate", "serve.arrivals_s", observe=_generated),
        e("repro.serve.queue", "AdmissionQueue.offer", "serve.offer_s", hot=True, count="serve.offers", observe=_offered),
        e("repro.serve.scheduler", "ContinuousBatchScheduler.admit", "serve.admit_s", hot=True, count="serve.admits"),
        e("repro.serve.simulator", "ServingSimulator.run", "serve.loop_self_s", observe=_served),
        e("repro.serve.cluster.simulator", "ClusterSimulator.run", "serve.loop_self_s", observe=_served),
        e("repro.serve.soa", "attribute_request_energy_wh", "serve.attribution_s"),
        e("repro.serve.result", "summarize", "serve.summary_s", hot=True),
        e("repro.serve.result", "StreamingSummarizer.summary", "serve.summary_s", hot=True),
        e("repro.serve.cluster.router", "Router.route", "serve.cluster.route_s", hot=True, count="serve.cluster.routes"),
        e("repro.campaign.spec", "CampaignSpec.compile", "campaign.compile_s"),
        e("repro.campaign.hashing", "ResultKeyer.key", "campaign.key_s", hot=True, count="campaign.keys"),
        e("repro.campaign.store", "JsonlStore.__init__", "campaign.store_open_s", hot=True),
        e("repro.campaign.store", "SqliteStore.__init__", "campaign.store_open_s", hot=True),
        e("repro.campaign.store", "JsonlStore.close", "campaign.store_open_s", hot=True),
        e("repro.campaign.store", "SqliteStore.close", "campaign.store_open_s", hot=True),
        e("repro.campaign.store", "JsonlStore.get_many", "campaign.lookup_s", observe=_looked_up),
        e("repro.campaign.store", "SqliteStore.get_many", "campaign.lookup_s", observe=_looked_up),
        e("repro.campaign.store", "JsonlStore.put_many", "campaign.flush_s", observe=_flushed),
        e("repro.campaign.store", "SqliteStore.put_many", "campaign.flush_s", observe=_flushed),
        e("repro.campaign.executor", "PoolExecutor.run_items", "campaign.dispatch_wait_s", observe=_items),
        e("repro.campaign.executor", "PoolExecutor.run_item_batches", "campaign.dispatch_wait_s", observe=_batches),
        e("repro.campaign.executor", "PoolExecutor.close", "campaign.dispatch_wait_s"),
        e("repro.campaign.executor", "IsolatingExecutor.run_items", "campaign.dispatch_wait_s", observe=_items),
        e("repro.campaign.executor", "IsolatingExecutor.run_item_batches", "campaign.dispatch_wait_s", observe=_batches),
        e("repro.campaign.batch", "plan_streams", "campaign.streams_s", observe=_planned),
        e("repro.campaign.runner", "CampaignRunner.run", "campaign.runner_self_s"),
        e("repro.campaign.search", "SearchRunner.search", "campaign.runner_self_s", observe=_searched),
        e("repro.analysis.validate", "validate_reproduction", "analysis.validate_s"),
        e("repro.analysis.render", "render_all", "analysis.render_s"),
        e("repro.analysis.report", "build_report", "analysis.report_self_s"),
    ]


#: Modules whose by-name imports must exist before wrapping.
_PRELOAD = (
    "repro.core.cli",
    "repro.core.suite",
    "repro.analysis.report",
    "repro.campaign.search",
    "repro.serve.fastsim",
    "repro.serve.cluster.fastsim",
)


def instrument(tracer: LayerTracer) -> Instrumentation:
    """The instrumentation of every entry point in :data:`LAYER_METRICS`."""
    import importlib

    for module in _PRELOAD:
        importlib.import_module(module)

    measure = Entry("repro.engine.trainer", "measure_run", "engine.measure_run_s", count="engine.measure_runs")
    body = Entry("", "ServingSimulator.run:body", "serve.loop_self_s")
    prepare = Entry("", "prepare_data", "data.prepare_s", count="data.prepare_calls")
    seen: set = set()

    def measure_run(fn):
        timed = wrap(tracer, measure, fn)

        def measured(node, devices_used, body_fn, **kwargs):
            # The serving simulator runs its whole event loop as the
            # measured body: charge it to the serving loop, not to
            # measure_run.
            if tracer.frames and tracer.parent_name() == "ServingSimulator.run":
                body_fn = wrap(tracer, body, body_fn)
            return timed(node, devices_used, body_fn, **kwargs)

        measured.__wrapped__ = fn
        return measured

    def prepare_data(fn):
        timed = wrap(tracer, prepare, fn)

        def prepared(args, wp):
            if tracer.frames:
                seen.add((tracer.innermost("JubeRunner.run"), tuple(sorted(args.items()))))
                tracer.counters["data.prepare_distinct"] = len(seen)
            return timed(args, wp)

        prepared.__wrapped__ = fn
        return prepared

    registries: list = []

    def wrap_prepare(registry) -> None:
        # Operations are closures held by the registry, so the
        # prepare_data operation is wrapped in each registry built.
        if "prepare_data" in registry._ops:
            instrumentation.patch_item(registry._ops, "prepare_data", prepare_data)

    def built(_tracer, args, kwargs, result, error):
        if result is not None:
            registries.append(result)
            wrap_prepare(result)

    instrumentation = Instrumentation(
        tracer,
        _entries(built),
        extra=(
            ("repro.engine.trainer", "measure_run", measure_run),
            ("repro.obs.trace", "NullTracer.span", lambda fn: count_calls(tracer, "obs.null_span_calls", fn)),
        ),
    )
    instrumentation.on_install.append(lambda: [wrap_prepare(r) for r in registries])
    return instrumentation


def layer_values(tracer: LayerTracer, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric's value from one traced run."""
    c = tracer.counters
    self_s = tracer.self_s
    out: dict[str, float] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for metric in LAYER_METRICS:
        if metric.unit == _S:
            out[metric.name] = self_s.get(metric.name, 0.0)
        elif metric.unit == _N:
            out[metric.name] = float(c.get(metric.name, 0))
    out["bench.other_s"] = self_s.get("other", 0.0)
    out["data.prepare_distinct_ratio"] = ratio(
        c.get("data.prepare_distinct", 0), c.get("data.prepare_calls", 0)
    )
    out["jpwr.samples_per_request"] = ratio(c.get("jpwr.samples", 0), c.get("serve.requests", 0))
    out["serve.tokens_per_decode_step"] = ratio(
        c.get("serve.generated_tokens", 0), c.get("serve.decode_steps", 0)
    )
    out["serve.cluster.prefix_hit_rate"] = ratio(
        c.get("serve.cluster.prefix_hits", 0), c.get("serve.cluster.prefills", 0)
    )
    out["campaign.hit_ratio"] = ratio(c.get("campaign.lookup_hits", 0), c.get("campaign.lookup_keys", 0))
    out["campaign.search_request_savings"] = ratio(
        c.get("campaign.search_request_savings_sum", 0), c.get("campaign.searches", 0)
    )
    out["bench.layer_coverage"] = 1.0 - ratio(self_s.get("other", 0.0), tracer.wall_s)
    out["bench.trace_overhead_frac"] = overhead_frac
    return out
