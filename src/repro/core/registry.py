"""JUBE operation registry for the CARAML benchmarks.

The shipped JUBE scripts invoke these operations from their ``do``
strings.  Operations mirror the real suite's step contents: pulling
containers, preprocessing data, training with jpwr measurement, and
combining per-rank energy files.
"""

from __future__ import annotations

from repro.core.config import AMDVariant, LLMBenchmarkConfig, ResNetBenchmarkConfig
from repro.core.llm_training import llm_result_outputs, run_llm_benchmark
from repro.core.resnet50 import resnet_result_outputs, run_resnet_benchmark
from repro.data.oscar import prepared_oscar_tokens
from repro.errors import JubeError, OutOfMemoryError
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


def _require(args: dict[str, str], key: str) -> str:
    try:
        return args[key]
    except KeyError:
        raise JubeError(f"operation missing required --{key}") from None


def _power_cap(args: dict[str, str]) -> float:
    """The ``--power-cap`` watts of an operation (0 = uncapped)."""
    cap = float(args.get("power-cap", "0"))
    if cap < 0:
        raise JubeError(f"--power-cap must be >= 0, got {cap}")
    return cap


def _serve_node(args: dict[str, str]):
    """Node for a serving operation, derated when ``--power-cap`` binds."""
    node = get_system(_require(args, "system"))
    cap = _power_cap(args)
    if cap > 0:
        from repro.power.dvfs import apply_power_cap

        node = apply_power_cap(node, cap)
    return node


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


def build_operation_registry() -> OperationRegistry:
    """All operations the shipped CARAML scripts use."""
    registry = OperationRegistry()

    @registry.register("pull_container")
    def pull_container(args: dict[str, str], wp: Workpackage):
        """Pull the vendor container and build the package overlay."""
        system = _require(args, "system")
        framework = args.get("framework", "pytorch")
        node = get_system(system)
        image_name = _IMAGE_BY_VENDOR[(node.accelerator.vendor, framework)]
        runtime = ContainerRuntime(VENDOR_IMAGES[image_name])
        # The CARAML overlay installs (pip --prefix --no-deps): jpwr and
        # the patched launcher.
        runtime.pip_install("jpwr", "1.0")
        runtime.pip_install("torchrun-jsc", "0.0.13")
        runtime.bind("/data")
        runtime.set_env("MASTER_ADDR_SUFFIX", "i")
        return {"container": image_name, "pythonpath": runtime.pythonpath()}

    @registry.register("prepare_data")
    def prepare_data(args: dict[str, str], wp: Workpackage):
        """Download/tokenize the OSCAR subset (synthetic stand-in), once
        per process."""
        if args.get("synthetic", "false") == "true":
            return {"dataset": "synthetic", "tokens": 0}
        return {"dataset": "oscar-subset", "tokens": prepared_oscar_tokens()}

    @registry.register("llm_train")
    def llm_train(args: dict[str, str], wp: Workpackage):
        """Train the GPT model and report throughput + energy."""
        config = LLMBenchmarkConfig(
            system=_require(args, "system"),
            model_size=args.get("model", "800M"),
            global_batch_size=int(_require(args, "gbs")),
            micro_batch_size=int(args.get("mbs", "4")),
            exit_duration_s=float(args.get("duration", "120")),
            amd_variant=AMDVariant(args.get("amd-variant", "gcd")),
            synthetic_data=args.get("synthetic", "false") == "true",
            power_cap_watts=_power_cap(args),
        )
        try:
            result = run_llm_benchmark(config)
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

    @registry.register("resnet_train")
    def resnet_train(args: dict[str, str], wp: Workpackage):
        """Train the CNN and report throughput + energy."""
        config = ResNetBenchmarkConfig(
            system=_require(args, "system"),
            model=args.get("model", "resnet50"),
            global_batch_size=int(_require(args, "gbs")),
            devices=int(args.get("devices", "1")),
            amd_variant=AMDVariant(args.get("amd-variant", "gcd")),
            synthetic_data=args.get("synthetic", "false") == "true",
            power_cap_watts=_power_cap(args),
        )
        try:
            result = run_resnet_benchmark(config)
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

    @registry.register("llm_serve")
    def llm_serve(args: dict[str, str], wp: Workpackage):
        """Serve a seeded Poisson request stream; report latency + energy."""
        from repro.engine.inference import InferenceEngine
        from repro.models.transformer import get_gpt_preset
        from repro.serve import (
            DEFAULT_BATCH_CAP,
            DEFAULT_QUEUE_CAPACITY,
            PoissonArrivals,
            ServingSimulator,
            SLOPolicy,
        )

        slo_ttft_ms = float(args.get("slo-ttft-ms", "0"))
        slo_e2e_ms = float(args.get("slo-e2e-ms", "0"))
        engine = InferenceEngine(
            _serve_node(args), get_gpt_preset(args.get("model", "800M"))
        )
        plan, sampler, monitor = _telemetry_capture()
        simulator = ServingSimulator(
            engine,
            batch_cap=int(args.get("batch-cap", DEFAULT_BATCH_CAP)),
            queue_capacity=int(args.get("queue-cap", DEFAULT_QUEUE_CAPACITY)),
            slo=SLOPolicy(
                ttft_s=slo_ttft_ms / 1e3 if slo_ttft_ms > 0 else None,
                e2e_s=slo_e2e_ms / 1e3 if slo_e2e_ms > 0 else None,
            ),
            telemetry=sampler,
            slo_monitor=monitor,
            percentile_mode=args.get("percentiles", "exact"),
        )
        arrivals = PoissonArrivals(
            rate_per_s=float(_require(args, "rate")),
            requests=int(args.get("requests", "32")),
            prompt_tokens=int(args.get("prompt-tokens", "512")),
            generate_tokens=int(args.get("generate-tokens", "128")),
            length_spread=float(args.get("spread", "0")),
            seed=int(args.get("seed", "0")),
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
        out = {
            k: round(v, 6) if isinstance(v, (int, float)) else v
            for k, v in summary.to_dict().items()
        }
        out["energy_per_device_wh"] = round(served.train.energy_per_device_wh, 6)
        out["mean_power_per_device_w"] = round(
            served.train.mean_power_per_device_w, 4
        )
        if plan is not None:
            _export_telemetry(plan, sampler, monitor, wp, out)
        out["status"] = "OK"
        return out

    @registry.register("llm_serve_cluster")
    def llm_serve_cluster(args: dict[str, str], wp: Workpackage):
        """Serve a request stream on a multi-replica cluster.

        ``--sessions N`` (N > 0) switches the arrival process to
        session traffic with shared prompt prefixes (what the
        prefix-cache-aware router exploits); ``--autoscale true``
        starts at ``--min-replicas`` and scales on queue depth;
        ``--prefill-replicas``/``--decode-replicas`` build a
        disaggregated cluster instead of ``--replicas`` unified ones.
        """
        from repro.engine.inference import InferenceEngine
        from repro.models.transformer import get_gpt_preset
        from repro.serve import (
            DEFAULT_BATCH_CAP,
            DEFAULT_QUEUE_CAPACITY,
            PoissonArrivals,
            SessionArrivals,
            SLOPolicy,
        )
        from repro.serve.cluster import (
            DEFAULT_ROUTER_POLICY,
            AutoscalePolicy,
            ClusterSimulator,
            DisaggregationSpec,
        )

        slo_ttft_ms = float(args.get("slo-ttft-ms", "0"))
        slo_e2e_ms = float(args.get("slo-e2e-ms", "0"))
        engine = InferenceEngine(
            _serve_node(args), get_gpt_preset(args.get("model", "800M"))
        )
        prefill = int(args.get("prefill-replicas", "0"))
        decode = int(args.get("decode-replicas", "0"))
        disagg = (
            DisaggregationSpec(prefill, decode) if prefill or decode else None
        )
        autoscale = (
            AutoscalePolicy(min_replicas=int(args.get("min-replicas", "1")))
            if args.get("autoscale", "false") == "true"
            else None
        )
        plan, sampler, monitor = _telemetry_capture()
        simulator = ClusterSimulator(
            engine,
            replicas=int(args.get("replicas", "2")),
            router=args.get("router", DEFAULT_ROUTER_POLICY),
            batch_cap=int(args.get("batch-cap", DEFAULT_BATCH_CAP)),
            queue_capacity=int(args.get("queue-cap", DEFAULT_QUEUE_CAPACITY)),
            slo=SLOPolicy(
                ttft_s=slo_ttft_ms / 1e3 if slo_ttft_ms > 0 else None,
                e2e_s=slo_e2e_ms / 1e3 if slo_e2e_ms > 0 else None,
            ),
            autoscale=autoscale,
            disaggregation=disagg,
            telemetry=sampler,
            slo_monitor=monitor,
            percentile_mode=args.get("percentiles", "exact"),
        )
        sessions = int(args.get("sessions", "0"))
        if sessions > 0:
            arrivals = SessionArrivals(
                rate_per_s=float(_require(args, "rate")),
                requests=int(args.get("requests", "32")),
                sessions=sessions,
                prompt_tokens=int(args.get("prompt-tokens", "512")),
                prefix_tokens=int(args.get("prefix-tokens", "384")),
                generate_tokens=int(args.get("generate-tokens", "128")),
                seed=int(args.get("seed", "0")),
            )
        else:
            arrivals = PoissonArrivals(
                rate_per_s=float(_require(args, "rate")),
                requests=int(args.get("requests", "32")),
                prompt_tokens=int(args.get("prompt-tokens", "512")),
                generate_tokens=int(args.get("generate-tokens", "128")),
                length_spread=float(args.get("spread", "0")),
                seed=int(args.get("seed", "0")),
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
        out = {
            k: round(v, 6) if isinstance(v, (int, float)) else v
            for k, v in summary.to_dict().items()
        }
        out["router"] = summary.router
        out["energy_per_device_wh"] = round(
            served.train.energy_per_device_wh, 6
        )
        out["devices"] = summary.replicas_max
        if plan is not None:
            _export_telemetry(plan, sampler, monitor, wp, out)
        out["status"] = "OK"
        return out

    @registry.register("analyse")
    def analyse_op(args: dict[str, str], wp: Workpackage):
        """Apply named pattern sets to the captured step log.

        This is JUBE's analyser: ``analyse --patterns megatron`` greps
        the training step's stdout with the Megatron pattern set and
        records the extracted values as outputs.
        """
        from repro.jube.patterns import MEGATRON_PATTERNS, TFCNN_PATTERNS, analyse

        known = {"megatron": MEGATRON_PATTERNS, "tf_cnn": TFCNN_PATTERNS}
        names = _require(args, "patterns").split(",")
        try:
            sets = [known[n] for n in names]
        except KeyError as exc:
            raise JubeError(
                f"unknown pattern set {exc.args[0]!r}; known: {sorted(known)}"
            ) from None
        return analyse(wp.stdout, sets)

    @registry.register("combine_energy")
    def combine_energy(args: dict[str, str], wp: Workpackage):
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
