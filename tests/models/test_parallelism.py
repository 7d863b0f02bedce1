"""Tests for parallel layouts and the pipeline bubble."""

import pytest

from repro.errors import ConfigError, OutOfMemoryError
from repro.models.parallelism import (
    ParallelLayout,
    pipeline_bubble_fraction,
    pipeline_stage_times,
    suggest_layout,
)


class TestParallelLayout:
    def test_world_size(self):
        assert ParallelLayout(dp=2, tp=4, pp=2).world_size == 16

    def test_sequence_parallel_requires_tp(self):
        with pytest.raises(ConfigError, match="tensor"):
            ParallelLayout(dp=4, sequence_parallel=True)
        ParallelLayout(dp=2, tp=2, sequence_parallel=True)  # ok

    def test_validate_batch_micro_count(self):
        layout = ParallelLayout(dp=4)
        assert layout.validate_batch(256, 4) == 16

    def test_paper_divisibility_constraint(self):
        # "the global batch size of 16 is not possible since it is not
        # divisible by micro-batch-size times data parallel" (DP 8).
        layout = ParallelLayout(dp=8)
        with pytest.raises(ConfigError, match="divisible"):
            layout.validate_batch(16, 4)

    def test_layers_per_stage_ceil(self):
        assert ParallelLayout(pp=4).layers_per_stage(12) == 3
        assert ParallelLayout(pp=4).layers_per_stage(13) == 4

    def test_pp_cannot_exceed_layers(self):
        with pytest.raises(ConfigError):
            ParallelLayout(pp=16).layers_per_stage(12)

    def test_shard_parameters(self):
        layout = ParallelLayout(dp=2, tp=4, pp=2)
        assert layout.shard_parameters(800) == pytest.approx(100)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ParallelLayout(dp=0)


class TestPipelineBubble:
    def test_no_pipeline_no_bubble(self):
        assert pipeline_bubble_fraction(1, 8) == 0.0

    def test_paper_formula(self):
        # (p-1)/(m+p-1) for the 1F1B schedule.
        assert pipeline_bubble_fraction(4, 4) == pytest.approx(3 / 7)

    def test_bubble_shrinks_with_micro_batches(self):
        fractions = [pipeline_bubble_fraction(4, m) for m in (1, 2, 8, 64)]
        assert fractions == sorted(fractions, reverse=True)

    def test_stage_times(self):
        assert pipeline_stage_times(4, 8, 0.5) == pytest.approx(5.5)

    def test_iteration_time_consistent_with_bubble(self):
        pp, m, t = 4, 16, 0.1
        total = pipeline_stage_times(pp, m, t)
        useful = m * t
        assert 1 - useful / total == pytest.approx(pipeline_bubble_fraction(pp, m))

    def test_validation(self):
        with pytest.raises(ConfigError):
            pipeline_bubble_fraction(0, 4)
        with pytest.raises(ConfigError):
            pipeline_stage_times(4, 4, -1.0)


class TestSuggestLayout:
    def test_small_model_pure_dp(self):
        # 800M params fit on one 40 GB device -> all devices go to DP.
        layout = suggest_layout(800_000_000, 40_000_000_000, devices=4)
        assert layout == ParallelLayout(dp=4)

    def test_13b_on_gh200_needs_model_parallelism(self):
        layout = suggest_layout(13_000_000_000, 96_000_000_000, devices=4)
        assert layout.tp * layout.pp > 1
        assert layout.world_size <= 4

    def test_175b_needs_a_large_3d_layout(self):
        # 175B with a distributed optimizer (~6 B/param resident) still
        # needs tp*pp >= 32 on 94 GB devices; 64 H100s suffice.
        layout = suggest_layout(
            175_000_000_000, 94_000_000_000, devices=64, bytes_per_param=6.0
        )
        assert layout.tp * layout.pp >= 32
        assert layout.sequence_parallel

    def test_175b_does_not_fit_16_devices_unsharded(self):
        with pytest.raises(OutOfMemoryError, match="does not fit"):
            suggest_layout(175_000_000_000, 94_000_000_000, devices=16)

    def test_impossible_fit_raises(self):
        with pytest.raises(OutOfMemoryError, match="does not fit"):
            suggest_layout(175_000_000_000, 40_000_000_000, devices=2)

    def test_needs_a_device(self):
        with pytest.raises(ConfigError):
            suggest_layout(1_000_000, 1_000_000_000, devices=0)
