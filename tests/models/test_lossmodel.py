"""Tests for the scaling-law loss curves."""

import pytest

from repro.errors import ConfigError
from repro.models.lossmodel import GPT_LOSS, RESNET_LOSS, LossCurve


class TestLossCurve:
    def test_monotone_decreasing_in_work(self):
        losses = [GPT_LOSS.loss(t) for t in (0, 1e6, 1e8, 1e10, 1e12)]
        assert losses == sorted(losses, reverse=True)

    def test_approaches_floor(self):
        # The Chinchilla-like exponent decays slowly; 1e18 tokens gets
        # within half a nat of the irreducible floor.
        assert GPT_LOSS.loss(1e18) == pytest.approx(GPT_LOSS.floor, abs=0.5)
        assert GPT_LOSS.loss(1e18) > GPT_LOSS.floor

    def test_initial_loss_near_scale_plus_floor(self):
        assert GPT_LOSS.loss(0) == pytest.approx(GPT_LOSS.floor + GPT_LOSS.scale)

    def test_plausible_gpt_levels(self):
        # ~order of a real GPT-2 run: loss well below init after 1B tokens.
        after_1b = GPT_LOSS.loss(1e9, batch_size=512)
        assert 3.0 < after_1b < 5.0

    def test_plausible_resnet_levels(self):
        one_epoch = RESNET_LOSS.loss(1_281_167, batch_size=256)
        ninety_epochs = RESNET_LOSS.loss(90 * 1_281_167, batch_size=256)
        assert one_epoch > ninety_epochs
        assert 0.2 < ninety_epochs < 0.35

    def test_batch_discount_kicks_in_past_reference(self):
        assert GPT_LOSS.batch_discount(GPT_LOSS.reference_batch) == 1.0
        assert GPT_LOSS.batch_discount(GPT_LOSS.reference_batch * 8) < 1.0

    def test_large_batch_converges_slower(self):
        # The paper's §IV-A caveat: "increased GPU utilization must be
        # balanced against the potential drawback of slower convergence".
        tokens = 1e9
        assert GPT_LOSS.loss(tokens, batch_size=4096) > GPT_LOSS.loss(
            tokens, batch_size=256
        )

    def test_discount_bounded_below(self):
        assert GPT_LOSS.batch_discount(2**30) >= 0.35

    def test_work_to_reach_inverts_loss(self):
        target = 4.0
        work = GPT_LOSS.work_to_reach(target, batch_size=512)
        assert GPT_LOSS.loss(work, batch_size=512) == pytest.approx(target, rel=1e-6)

    def test_work_to_reach_larger_batch_needs_more_tokens(self):
        small = GPT_LOSS.work_to_reach(4.0, batch_size=256)
        large = GPT_LOSS.work_to_reach(4.0, batch_size=4096)
        assert large > small

    def test_unreachable_target(self):
        with pytest.raises(ConfigError, match="floor"):
            GPT_LOSS.work_to_reach(GPT_LOSS.floor)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LossCurve(floor=-1, scale=1, alpha=0.1)
        with pytest.raises(ConfigError):
            LossCurve(floor=1, scale=1, alpha=1.5)
        with pytest.raises(ConfigError):
            GPT_LOSS.loss(-1)
        with pytest.raises(ConfigError):
            GPT_LOSS.batch_discount(0)


class TestEngineIntegration:
    def test_megatron_reports_loss(self):
        from repro.engine.megatron import MegatronEngine
        from repro.hardware.systems import get_system
        from repro.models.parallelism import ParallelLayout
        from repro.models.transformer import get_gpt_preset

        engine = MegatronEngine(
            get_system("A100"), get_gpt_preset("800M"), ParallelLayout(dp=4)
        )
        short = engine.train(256, iterations=2)
        long = engine.train(256, iterations=20)
        assert long.extra["final_loss"] < short.extra["final_loss"]

    def test_tfcnn_reports_top1_error(self):
        from repro.engine.tfcnn import TFCNNEngine
        from repro.hardware.systems import get_system
        from repro.models.resnet import get_cnn_preset

        engine = TFCNNEngine(get_system("H100"), get_cnn_preset("resnet50"))
        result = engine.train(256)
        assert 0 < result.extra["final_top1_error"] < 1
