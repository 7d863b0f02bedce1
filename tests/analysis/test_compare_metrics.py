"""Tests for the claim checks (E7/E8) and derived metrics."""

import pytest

from repro.analysis.compare import llm_claims, resnet_claims
from repro.analysis.metrics import mean_step_power_w
from repro.engine.perf import LLMStepModel
from repro.hardware.systems import get_system
from repro.models.parallelism import ParallelLayout
from repro.models.transformer import get_gpt_preset


class TestClaims:
    def test_all_llm_claims_hold(self):
        failures = [c.describe() for c in llm_claims() if not c.holds]
        assert not failures, "\n".join(failures)

    def test_all_resnet_claims_hold(self):
        failures = [c.describe() for c in resnet_claims() if not c.holds]
        assert not failures, "\n".join(failures)

    def test_describe_format(self):
        checks = llm_claims()
        assert all(c.describe().startswith("[OK ]") for c in checks if c.holds)

    def test_gh200_anchor_value(self):
        anchor = [c for c in llm_claims() if "47505" in c.claim][0]
        assert anchor.measured_value == pytest.approx(47505, rel=0.02)


class TestMetrics:
    def test_mean_step_power_between_idle_and_max(self):
        node = get_system("A100")
        model = LLMStepModel(node, get_gpt_preset("800M"), ParallelLayout(dp=4))
        step = model.step(256)
        from repro.power.sensors import DeviceRegistry

        pm = DeviceRegistry.for_node(node).get(0).model
        p = mean_step_power_w(node, step)
        assert pm.power(0.25) < p <= pm.power(step.utilisation)


class TestClosedFormVsSimulatedRun:
    """The analytic figures and the jpwr-measured engine runs agree."""

    def test_llm_throughput_agreement(self):
        from repro.engine.megatron import MegatronEngine

        node = get_system("A100")
        engine = MegatronEngine(node, get_gpt_preset("800M"), ParallelLayout(dp=4))
        measured = engine.train(256, iterations=3)
        closed = engine.step_model.tokens_per_second(256)
        assert measured.throughput == pytest.approx(closed, rel=1e-9)

    def test_llm_power_agreement(self):
        from repro.engine.megatron import MegatronEngine

        node = get_system("A100")
        engine = MegatronEngine(node, get_gpt_preset("800M"), ParallelLayout(dp=4))
        measured = engine.train(256, iterations=3)
        closed = mean_step_power_w(node, engine.step_model.step(256))
        assert measured.mean_power_per_device_w == pytest.approx(closed, rel=0.001)

    def test_ipu_table2_energy_agreement(self):
        from repro.engine.poplar import PoplarGPTEngine
        from repro.analysis.tables import table2_ipu_gpt

        engine = PoplarGPTEngine(get_system("GC200"))
        measured = engine.train_epoch(1024)
        closed = {r.batch_size: r for r in table2_ipu_gpt((1024,))}[1024]
        assert measured.energy_per_device_wh == pytest.approx(
            closed.energy_wh, rel=0.001
        )
