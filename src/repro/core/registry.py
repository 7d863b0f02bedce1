"""JUBE operation registry for the CARAML benchmarks.

The shipped JUBE scripts invoke these operations from their ``do``
strings.  Operations mirror the real suite's step contents: pulling
containers, preprocessing data, training with jpwr measurement, and
combining per-rank energy files.  Each parses its arguments through its
option table in :mod:`repro.core.options`.
"""

from __future__ import annotations

from repro.core.config import LLMBenchmarkConfig, ResNetBenchmarkConfig, capped_node
from repro.core.llm_training import llm_result_outputs, run_llm_benchmark
from repro.core.options import OPERATION_OPTIONS, parse_options
from repro.core.resnet50 import resnet_result_outputs, run_resnet_benchmark
from repro.data.oscar import prepared_oscar_tokens
from repro.errors import ConfigError, JubeError, OutOfMemoryError
from repro.hardware.accelerator import Vendor
from repro.hardware.systems import get_system
from repro.jube.runner import OperationRegistry
from repro.jube.steps import Workpackage
from repro.simcluster.container import VENDOR_IMAGES, ContainerRuntime

#: Which vendor image each framework/vendor pair starts from.
_IMAGE_BY_VENDOR = {
    (Vendor.NVIDIA, "pytorch"): "nvcr-pytorch",
    (Vendor.AMD, "pytorch"): "rocm-pytorch",
    (Vendor.NVIDIA, "tensorflow"): "nvcr-tensorflow",
    (Vendor.AMD, "tensorflow"): "rocm-tensorflow",
    (Vendor.GRAPHCORE, "pytorch"): "graphcore-poplar",
    (Vendor.GRAPHCORE, "tensorflow"): "graphcore-poplar",
}


def _telemetry_capture():
    """Sampler + monitor when a campaign telemetry plan is active.

    Returns ``(plan, sampler, monitor)`` — all ``None`` when telemetry
    is off, so serving operations pass ``telemetry=None`` through and
    pay nothing.  The plan arrives process-globally (pool initializer →
    :func:`repro.obs.telemetry.get_telemetry`), never as an operation
    parameter: workpackage result keys are content-addressed over the
    operation template and must not change when capture is enabled.

    A fresh metrics registry is installed per capture so the
    OpenMetrics sidecar describes exactly this workpackage — without
    it, earlier in-process runs would leak accumulated counters into
    the export and break byte-determinism.
    """
    from repro.obs.metrics import MetricsRegistry, set_metrics
    from repro.obs.telemetry import SLOMonitor, TelemetrySampler, get_telemetry

    plan = get_telemetry()
    if plan is None:
        return None, None, None
    set_metrics(MetricsRegistry())
    return plan, TelemetrySampler(interval_s=plan.interval_s), SLOMonitor()


def _export_telemetry(plan, sampler, monitor, wp: Workpackage, out: dict) -> None:
    """Write per-workpackage telemetry sidecars; record paths in outputs.

    Only the artifact *paths* and scalar counts land in ``out`` — the
    timeseries themselves stay in the sidecar files so store rows remain
    small and comparable with telemetry off.
    """
    from repro.obs.metrics import get_metrics
    from repro.obs.telemetry import render_openmetrics
    from repro.obs.telemetry.export import write_timeseries_jsonl

    ts_path = write_timeseries_jsonl(
        sampler, plan.path_for(wp.id, ".timeseries.jsonl")
    )
    om_path = plan.path_for(wp.id, ".om")
    om_path.parent.mkdir(parents=True, exist_ok=True)
    om_path.write_text(render_openmetrics(get_metrics()))
    out["telemetry_samples"] = sampler.samples_taken
    out["slo_alerts_fired"] = len(monitor.alerts)
    out["telemetry_timeseries"] = str(ts_path)
    out["telemetry_openmetrics"] = str(om_path)


def serve_arrivals(options: dict):
    """The arrival process of parsed serve options.

    Session traffic with shared prompt prefixes when ``sessions`` > 0
    (``llm_serve`` has no such option), Poisson arrivals when it is 0.
    """
    from repro.serve import PoissonArrivals, SessionArrivals

    names = ("rate_per_s", "requests", "prompt_tokens", "generate_tokens", "seed")
    stream = {name: options[name] for name in names}
    sessions = options.get("sessions", 0)
    if sessions < 0:
        raise ConfigError(
            f"--sessions must be positive, or 0 for Poisson arrivals "
            f"(got {sessions})"
        )
    if sessions > 0:
        return SessionArrivals(
            sessions=sessions, prefix_tokens=options["prefix_tokens"], **stream
        )
    return PoissonArrivals(length_spread=options["length_spread"], **stream)


def build_serving(options: dict, *, cluster: bool, telemetry=None, slo_monitor=None):
    """The simulator and arrival process that parsed serve options describe.

    ``options`` are the fields of the ``llm_serve`` or (with ``cluster``)
    ``llm_serve_cluster`` table.  ``caraml serve`` and both operations
    build their runs here, so each rejects the same out-of-range values.
    """
    from repro.engine.inference import InferenceEngine
    from repro.models.transformer import get_gpt_preset
    from repro.serve import ServingSimulator, SLOPolicy

    replicas = options.get("replicas", 1)
    if replicas < 1:
        raise ConfigError(f"--replicas must be at least 1 (got {replicas})")
    ttft_ms, e2e_ms = options["slo_ttft_ms"], options["slo_e2e_ms"]
    for flag, value in (("--slo-ttft-ms", ttft_ms), ("--slo-e2e-ms", e2e_ms)):
        if value < 0:
            raise ConfigError(
                f"{flag} must be positive, or 0 to disable it (got {value:g})"
            )
    engine = InferenceEngine(
        capped_node(options["system"], options["power_cap_watts"]),
        get_gpt_preset(options["model"]),
    )
    shared = dict(
        batch_cap=options["batch_cap"],
        queue_capacity=options["queue_capacity"],
        slo=SLOPolicy(
            ttft_s=ttft_ms / 1e3 if ttft_ms > 0 else None,
            e2e_s=e2e_ms / 1e3 if e2e_ms > 0 else None,
        ),
        telemetry=telemetry,
        slo_monitor=slo_monitor,
        percentile_mode=options["percentile_mode"],
    )
    if not cluster:
        return ServingSimulator(engine, **shared), serve_arrivals(options)
    from repro.serve.cluster import (
        AutoscalePolicy,
        ClusterSimulator,
        DisaggregationSpec,
    )

    prefill, decode = options["prefill_replicas"], options["decode_replicas"]
    simulator = ClusterSimulator(
        engine,
        replicas=options["replicas"],
        router=options["router"],
        autoscale=(
            AutoscalePolicy(min_replicas=options["min_replicas"])
            if options["autoscale"]
            else None
        ),
        disaggregation=(
            DisaggregationSpec(prefill, decode) if prefill or decode else None
        ),
        **shared,
    )
    return simulator, serve_arrivals(options)


def _rounded(summary: dict) -> dict:
    return {
        k: round(v, 6) if isinstance(v, (int, float)) else v for k, v in summary.items()
    }


def build_operation_registry() -> OperationRegistry:
    """All operations the shipped CARAML scripts use."""
    registry = OperationRegistry()

    def operation(name: str):
        """Register under ``name``, parsing arguments through its option table."""
        options = OPERATION_OPTIONS[name]

        def decorator(fn):
            def parsed(args: dict[str, str], wp: Workpackage):
                return fn(parse_options(name, options, args), wp)

            registry.register(name, parsed)
            return fn

        return decorator

    @operation("pull_container")
    def pull_container(options: dict, wp: Workpackage):
        """Pull the vendor container and build the package overlay."""
        node = get_system(options["system"])
        image_name = _IMAGE_BY_VENDOR[(node.accelerator.vendor, options["framework"])]
        runtime = ContainerRuntime(VENDOR_IMAGES[image_name])
        # The CARAML overlay installs (pip --prefix --no-deps): jpwr and
        # the patched launcher.
        runtime.pip_install("jpwr", "1.0")
        runtime.pip_install("torchrun-jsc", "0.0.13")
        runtime.bind("/data")
        runtime.set_env("MASTER_ADDR_SUFFIX", "i")
        return {"container": image_name, "pythonpath": runtime.pythonpath()}

    @operation("prepare_data")
    def prepare_data(options: dict, wp: Workpackage):
        """Download/tokenize the OSCAR subset (synthetic stand-in), once
        per process."""
        if options["synthetic_data"]:
            return {"dataset": "synthetic", "tokens": 0}
        return {"dataset": "oscar-subset", "tokens": prepared_oscar_tokens()}

    @operation("llm_train")
    def llm_train(options: dict, wp: Workpackage):
        """Train the GPT model and report throughput + energy."""
        try:
            result = run_llm_benchmark(LLMBenchmarkConfig(**options))
        except OutOfMemoryError:
            wp.log("CUDA out of memory")
            return {"status": "OOM", "tokens_per_s": 0.0}
        # Megatron-LM-style log lines; the pattern sets of
        # repro.jube.patterns extract the figures of merit from these.
        step_s = result.extra.get("step_time_s", result.elapsed_s)
        wp.log(
            f" iteration {result.iterations}/{result.iterations} | "
            f"elapsed time per iteration (ms): {step_s * 1e3:.1f} | "
            f"tokens per second: {result.throughput:.1f} | "
            f"lm loss: {result.extra.get('final_loss', 0.0):.6E}"
        )
        out = llm_result_outputs(result)
        out["status"] = "OK"
        return out

    @operation("resnet_train")
    def resnet_train(options: dict, wp: Workpackage):
        """Train the CNN and report throughput + energy."""
        try:
            result = run_resnet_benchmark(ResNetBenchmarkConfig(**options))
        except OutOfMemoryError:
            wp.log("Resource exhausted: OOM when allocating tensor")
            return {"status": "OOM", "images_per_s": 0.0}
        # tf_cnn_benchmarks-style log lines for the pattern sets.
        wp.log(f"total images/sec: {result.throughput:.2f}")
        if "final_top1_error" in result.extra:
            wp.log(f"top-1 error: {result.extra['final_top1_error']:.4f}")
        out = resnet_result_outputs(result)
        out["status"] = "OK"
        return out

    @operation("llm_serve")
    def llm_serve(options: dict, wp: Workpackage):
        """Serve a seeded Poisson request stream; report latency + energy."""
        plan, sampler, monitor = _telemetry_capture()
        simulator, arrivals = build_serving(
            options, cluster=False, telemetry=sampler, slo_monitor=monitor
        )
        try:
            served = simulator.run(arrivals)
        except OutOfMemoryError:
            wp.log("CUDA out of memory")
            return {"status": "OOM", "throughput_tokens_per_s": 0.0}
        summary = served.summary
        wp.log(
            f"served {summary.completed}/{summary.offered} requests | "
            f"ttft p99 (ms): {summary.ttft.p99 * 1e3:.1f} | "
            f"goodput tokens per second: {summary.goodput_tokens_per_s:.1f}"
        )
        out = _rounded(summary.to_dict())
        out["energy_per_device_wh"] = round(served.train.energy_per_device_wh, 6)
        out["mean_power_per_device_w"] = round(
            served.train.mean_power_per_device_w, 4
        )
        if plan is not None:
            _export_telemetry(plan, sampler, monitor, wp, out)
        out["status"] = "OK"
        return out

    @operation("llm_serve_cluster")
    def llm_serve_cluster(options: dict, wp: Workpackage):
        """Serve a request stream on a multi-replica cluster.

        ``--sessions N`` (N > 0) switches the arrival process to
        session traffic with shared prompt prefixes (what the
        prefix-cache-aware router exploits); ``--autoscale true``
        starts at ``--min-replicas`` and scales on queue depth;
        ``--prefill-replicas``/``--decode-replicas`` build a
        disaggregated cluster instead of ``--replicas`` unified ones.
        """
        plan, sampler, monitor = _telemetry_capture()
        simulator, arrivals = build_serving(
            options, cluster=True, telemetry=sampler, slo_monitor=monitor
        )
        served = simulator.run(arrivals)
        summary = served.summary
        wp.log(
            f"cluster served {summary.serve.completed}/{summary.serve.offered} "
            f"requests on {summary.replicas_max} replicas ({summary.router}) | "
            f"goodput tokens per second: "
            f"{summary.serve.goodput_tokens_per_s:.1f} | "
            f"load imbalance: {summary.load_imbalance:.3f}"
        )
        out = _rounded(summary.to_dict())
        out["router"] = summary.router
        out["energy_per_device_wh"] = round(
            served.train.energy_per_device_wh, 6
        )
        out["devices"] = summary.replicas_max
        if plan is not None:
            _export_telemetry(plan, sampler, monitor, wp, out)
        out["status"] = "OK"
        return out

    @operation("analyse")
    def analyse_op(options: dict, wp: Workpackage):
        """Apply named pattern sets to the captured step log.

        This is JUBE's analyser: ``analyse --patterns megatron`` greps
        the training step's stdout with the Megatron pattern set and
        records the extracted values as outputs.
        """
        from repro.jube.patterns import MEGATRON_PATTERNS, TFCNN_PATTERNS, analyse

        known = {"megatron": MEGATRON_PATTERNS, "tf_cnn": TFCNN_PATTERNS}
        names = options["patterns"].split(",")
        try:
            sets = [known[n] for n in names]
        except KeyError as exc:
            raise JubeError(
                f"unknown pattern set {exc.args[0]!r}; known: {sorted(known)}"
            ) from None
        return analyse(wp.stdout, sets)

    @operation("combine_energy")
    def combine_energy(options: dict, wp: Workpackage):
        """Post-processing: summarise the energy columns of the run.

        The real suite concatenates per-rank jpwr CSVs (jube continue);
        the workpackage already carries the per-device energy from the
        training step's outputs.
        """
        energy = wp.outputs.get("energy_per_device_wh")
        if energy is None:
            return {"combined_energy_wh": "-"}
        devices = float(wp.outputs.get("devices", 1))
        return {"combined_energy_wh": round(float(energy) * devices, 4)}

    return registry
