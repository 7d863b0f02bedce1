"""End-to-end integration tests: JUBE -> Slurm -> engines -> jpwr."""

import pytest

from repro.core.suite import CaramlSuite
from repro.data.oscar import prepared_oscar_tokens
from repro.data.tokenizer import BPETokenizer
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.jube.platform import build_scheduler, platform_for
from repro.simcluster.slurm import JobSpec, JobState


@pytest.fixture(scope="module")
def suite():
    return CaramlSuite()


class TestFullLLMWorkflow:
    def test_nvidia_amd_script_single_system(self, suite):
        run = suite.jube_run("llm_benchmark_nvidia_amd.yaml", tags=["A100"])
        table = suite.jube_result(run, "throughput")
        # 5 batch sizes from the script.
        assert table.count("A100") == 5
        assert "OK" in table

    def test_container_tag_pulls_vendor_image(self, suite):
        run = suite.jube_run(
            "llm_benchmark_nvidia_amd.yaml", tags=["MI250", "container"]
        )
        containers = run.packages_for("container")
        assert containers
        assert containers[0].outputs["container"] == "rocm-pytorch"

    def test_run_trains_the_tokenizer_once(self, suite, monkeypatch):
        # One data workpackage per batch size; the OSCAR preparation is
        # shared by all of them.
        calls = []
        train = BPETokenizer.train

        def counting(self, *args, **kwargs):
            calls.append(args)
            return train(self, *args, **kwargs)

        monkeypatch.setattr(BPETokenizer, "train", counting)
        prepared_oscar_tokens.cache_clear()
        run = suite.jube_run("llm_benchmark_nvidia_amd.yaml", tags=["A100"])
        assert len(run.packages_for("data")) == 5
        assert len(calls) == 1

    def test_prepared_data_equals_a_fresh_preparation(self, suite):
        def outputs(run):
            return [wp.outputs for step in ("data", "train") for wp in run.packages_for(step)]

        prepared_oscar_tokens()
        memoized = suite.jube_run("llm_benchmark_nvidia_amd.yaml", tags=["A100"])
        prepared_oscar_tokens.cache_clear()
        fresh = suite.jube_run("llm_benchmark_nvidia_amd.yaml", tags=["A100"])
        assert outputs(memoized) == outputs(fresh)
        assert {wp.outputs["tokens"] for wp in fresh.packages_for("data")} == {4570}

    def test_synthetic_tag_switches_dataset(self, suite):
        run = suite.jube_run(
            "llm_benchmark_nvidia_amd.yaml", tags=["A100", "synthetic"]
        )
        data = run.packages_for("data")
        assert all(wp.outputs["dataset"] == "synthetic" for wp in data)

    def test_postprocess_after_continue(self, suite):
        run = suite.jube_run("llm_benchmark_ipu.yaml", tags=["synthetic"])
        suite.jube_continue(run)
        table = suite.jube_result(run, "throughput")
        assert "496" in table  # tokens/Wh at gbs 16384, Table II


class TestFullResNetWorkflow:
    @pytest.mark.parametrize("tag", ["A100", "MI250", "GC200"])
    def test_each_vendor_runs(self, suite, tag):
        run = suite.jube_run("resnet50_benchmark.xml", tags=[tag])
        table = suite.jube_result(run, "throughput")
        assert tag in table

    def test_oom_appears_in_result_table(self, suite):
        run = suite.jube_run("resnet50_benchmark.xml", tags=["A100"])
        table = suite.jube_result(run, "throughput")
        assert "OOM" in table  # gbs 2048 on one 40 GB A100


class TestSchedulerIntegration:
    def test_build_scheduler_all_partitions(self, drain):
        sim = build_scheduler()
        for tag in SYSTEM_TAGS:
            sim.submit(
                JobSpec(
                    name=tag,
                    partition=f"{tag.lower()}-partition",
                    run=lambda ctx: ctx.node.jube_tag,
                )
            )
        assert [record.result for record in drain(sim)] == list(SYSTEM_TAGS)

    def test_platform_options_flow_into_jobs(self):
        platform = platform_for("JEDI")
        sim = build_scheduler(["JEDI"])
        spec = JobSpec(
            name="llm",
            partition=platform.partition,
            ntasks=int(platform.slurm_options["--ntasks"]),
            cpus_per_task=int(platform.slurm_options["--cpus-per-task"]),
            gpus_per_task=1,
            run=lambda ctx: len(ctx.registry),
        )
        sim.submit(spec)
        record = sim.run_next()
        assert record.state is JobState.COMPLETED
        assert record.result == 4

    def test_benchmark_inside_slurm_job(self):
        # A full benchmark run as a batch job on the simulated cluster.
        from repro.core.config import LLMBenchmarkConfig
        from repro.core.llm_training import run_llm_benchmark

        sim = build_scheduler(["H100"])

        def body(ctx):
            config = LLMBenchmarkConfig(
                system="H100", global_batch_size=64, exit_duration_s=15
            )
            result = run_llm_benchmark(config)
            ctx.clock.advance(result.elapsed_s)
            return result.throughput

        sim.submit(JobSpec(name="llm", partition="h100-partition", run=body))
        record = sim.run_next()
        assert record.state is JobState.COMPLETED
        assert record.result > 0
        assert record.elapsed_s > 0


class TestCrossLayerConsistency:
    def test_jube_throughput_matches_direct_api(self, suite):
        run = suite.jube_run("llm_benchmark_ipu.yaml", tags=["synthetic"])
        wp = [
            p for p in run.packages_for("train")
            if p.parameters["global_batch_size"] == "1024"
        ][0]
        direct = suite.run_llm("GC200", model_size="117M", global_batch_size=1024)
        assert float(wp.outputs["throughput_tokens_per_s"]) == pytest.approx(
            direct.throughput, rel=0.01
        )

    def test_every_gpu_system_trains_both_workloads(self, suite):
        for tag in ("JEDI", "GH200", "H100", "WAIH100", "MI250", "A100"):
            llm = suite.run_llm(tag, global_batch_size=64, exit_duration_s=10)
            cnn = suite.run_resnet(tag, global_batch_size=64)
            assert llm.throughput > 0 and cnn.throughput > 0, tag
