"""Tests for the platform definitions (platform.xml equivalent)."""

import pytest

from repro.errors import SchedulerError, UnknownSystemError
from repro.hardware.systems import SYSTEM_TAGS
from repro.jube.platform import Platform, build_scheduler, platform_for
from repro.simcluster.slurm import JobSpec


def _probe(partition):
    """A job that reports the system tag of the node it lands on."""
    return JobSpec(name="probe", partition=partition, run=lambda ctx: ctx.node.jube_tag)


class TestPlatformFor:
    def test_every_tag_has_a_platform(self):
        for tag in SYSTEM_TAGS:
            platform = platform_for(tag)
            assert platform.tag == tag
            assert platform.partition == f"{tag.lower()}-partition"

    def test_slurm_options_follow_affinity_recommendations(self):
        opts = platform_for("JEDI").slurm_options
        assert opts["--ntasks"] == "4"
        assert opts["--cpus-per-task"] == "72"

    def test_epyc_platforms_carry_masks(self):
        assert "--cpu-bind" in platform_for("A100").slurm_options
        assert "--cpu-bind" not in platform_for("JEDI").slurm_options

    def test_unknown_tag(self):
        with pytest.raises(UnknownSystemError):
            platform_for("FRONTIER")


class TestBuildScheduler:
    def test_default_builds_all_partitions(self):
        sim = build_scheduler()
        for tag in SYSTEM_TAGS:
            sim.submit(_probe(f"{tag.lower()}-partition"))
            assert sim.run_next().result == tag

    def test_subset(self):
        sim = build_scheduler(["A100"])
        sim.submit(_probe("a100-partition"))
        assert sim.run_next().result == "A100"
        with pytest.raises(SchedulerError):
            sim.submit(_probe("h100-partition"))

    def test_partition_node_counts_match_max_nodes(self):
        sim = build_scheduler(["JEDI"])
        # JEDI's 4 nodes can host a 4-node job; 5 cannot exist.
        sim.submit(JobSpec(name="wide", partition="jedi-partition", nodes=4))
        with pytest.raises(SchedulerError):
            sim.submit(JobSpec(name="too-wide", partition="jedi-partition", nodes=5))


class TestCLIRunInfer:
    def test_run_infer_command(self):
        import io

        from repro.core.cli import run

        out = io.StringIO()
        code = run(
            ["run-infer", "--system", "GH200", "--batch", "4"], stdout=out
        )
        assert code == 0
        assert "llm-infer-800M" in out.getvalue()
        assert "tokens_per_wh" in out.getvalue()
