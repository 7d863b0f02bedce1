#!/usr/bin/env python3
"""A cluster session: partitions, affinity, containers, batch jobs.

Shows the substrate beneath the benchmarks -- the pieces §V of the
paper spends its "technical challenges" section on:

* building a Slurm scheduler with one partition per Table I system,
* the recommended GPU-affine binding options per node type,
* composing a vendor container with CARAML's overlay packages,
* the MASTER_ADDR choice a naive rendezvous makes and the fixed one,
* submitting an LLM benchmark as a batch job and reading sacct-style
  accounting.
"""

# Make the in-repo package importable regardless of the working directory.
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.config import LLMBenchmarkConfig
from repro.core.llm_training import run_llm_benchmark
from repro.jube.platform import build_scheduler, platform_for
from repro.simcluster.container import VENDOR_IMAGES, ContainerRuntime
from repro.simcluster.network import Interface, ipoib_hostname, resolve_master_addr
from repro.simcluster.slurm import JobSpec


def main() -> None:
    print("Recommended Slurm affinity options (paper §V-C):")
    for tag in ("JEDI", "A100", "MI250"):
        platform = platform_for(tag)
        opts = " ".join(f"{k}={v}" for k, v in platform.slurm_options.items())
        print(f"  {tag}: {opts[:100]}{'...' if len(opts) > 100 else ''}")

    print("\nContainer composition (paper §V-B):")
    runtime = ContainerRuntime(VENDOR_IMAGES["nvcr-pytorch"])
    runtime.pip_install("jpwr", "1.0")
    runtime.pip_install("torchrun-jsc", "0.0.13")
    runtime.bind("/p/project/training-data")
    print(f"  PYTHONPATH: {runtime.pythonpath()}")
    print(f"  flash-attn resolved: {runtime.resolved_version('flash-attn')}")
    env = {"PMIX_SECURITY_MODE": "native"}
    runtime.check_mpi_compat(env)
    print("  PMIx compatibility: OK (PMIX_SECURITY_MODE=native)")

    print("\nIPoIB rendezvous fix (paper §V-C):")
    host = "jwb0097"
    interfaces = [
        Interface("ib0", ipoib_hostname(host), bandwidth=25e9),
        Interface("en0", host, bandwidth=1.25e9),
    ]
    naive = resolve_master_addr(interfaces, prefer_ib=False)
    fixed = resolve_master_addr(interfaces)
    print(f"  naive first interface (en0): MASTER_ADDR = {naive}")
    print(f"  fixed torchrun (ib0):        MASTER_ADDR = {fixed}")

    print("\nSubmitting the LLM benchmark as a batch job:")
    sim = build_scheduler(["WAIH100"])
    platform = platform_for("WAIH100")

    def body(ctx):
        config = LLMBenchmarkConfig(
            system="WAIH100", global_batch_size=512, exit_duration_s=120
        )
        result = run_llm_benchmark(config)
        ctx.clock.advance(result.elapsed_s)
        return result

    job_id = sim.submit(
        JobSpec(
            name="caraml-llm",
            partition=platform.partition,
            ntasks=4,
            gpus_per_task=1,
            cpus_per_task=16,
            env={"PMIX_SECURITY_MODE": "native"},
            run=body,
        )
    )
    record = sim.run_next()
    result = record.result
    print(f"  job {job_id}: {record.state.value}, elapsed {record.elapsed_s:.1f} s")
    print(f"  throughput: {result.throughput:.0f} tokens/s "
          f"({result.throughput_per_device:.0f} per GPU)")
    print(f"  energy: {result.energy_per_device_wh:.3f} Wh/GPU "
          f"@ {result.mean_power_per_device_w:.0f} W")


if __name__ == "__main__":
    main()
