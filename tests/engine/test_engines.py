"""Tests for the Megatron, TFCNN and Poplar training engines."""

import pytest

from repro.engine.megatron import MegatronEngine
from repro.engine.poplar import PoplarGPTEngine, PoplarResNetEngine
from repro.engine.tfcnn import TFCNNEngine
from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware.systems import get_system
from repro.models.parallelism import ParallelLayout
from repro.models.resnet import get_cnn_preset
from repro.models.transformer import get_gpt_preset


class TestMegatronEngine:
    @pytest.fixture
    def engine(self):
        return MegatronEngine(
            get_system("A100"), get_gpt_preset("800M"), ParallelLayout(dp=4)
        )

    def test_train_by_duration(self, engine):
        result = engine.train(256, exit_duration_s=30.0)
        assert result.system_tag == "A100"
        assert result.benchmark == "llm-800M"
        assert result.devices == 4
        assert result.iterations >= 1
        assert result.throughput > 0
        assert result.energy_per_device_wh > 0

    def test_train_by_iterations(self, engine):
        result = engine.train(256, iterations=3)
        assert result.iterations == 3

    def test_exactly_one_termination_mode(self, engine):
        with pytest.raises(ConfigError):
            engine.train(256)
        with pytest.raises(ConfigError):
            engine.train(256, exit_duration_s=10.0, iterations=3)

    def test_throughput_matches_step_model(self, engine):
        result = engine.train(256, iterations=2)
        expected = engine.step_model.tokens_per_second(256)
        assert result.throughput == pytest.approx(expected, rel=1e-6)

    def test_measured_power_within_model_bounds(self, engine):
        result = engine.train(256, iterations=2)
        model = engine.step_model
        from repro.power.sensors import DeviceRegistry

        pm = DeviceRegistry.for_node(engine.node).get(0).model
        assert pm.idle_watts < result.mean_power_per_device_w <= pm.max_watts

    def test_oom_for_13b_on_a100(self):
        engine = MegatronEngine(
            get_system("A100"), get_gpt_preset("13B"), ParallelLayout(dp=1)
        )
        with pytest.raises(OutOfMemoryError):
            engine.train(64, iterations=1)

    def test_rejects_ipu_system(self):
        with pytest.raises(ConfigError, match="Poplar"):
            MegatronEngine(get_system("GC200"), get_gpt_preset("117M"), ParallelLayout())

    def test_energy_per_hour_helper(self, engine):
        # Fig. 2's Wh per device-hour is the mean device power in W.
        result = engine.train(256, exit_duration_s=60.0)
        assert 100 < result.mean_power_per_device_w < 400  # a few hundred W


class TestTFCNNEngine:
    @pytest.fixture
    def engine(self):
        return TFCNNEngine(get_system("H100"), get_cnn_preset("resnet50"))

    def test_default_100_iterations(self, engine):
        result = engine.train(256)
        assert result.iterations == 100
        assert result.throughput_unit == "images_per_s"

    def test_epoch_energy_derived(self, engine):
        result = engine.train(256)
        epoch_s = result.extra["epoch_time_s"]
        assert epoch_s == pytest.approx(1_281_167 / result.throughput, rel=1e-6)
        assert result.extra["epoch_energy_per_device_wh"] > 0

    def test_oom_raises(self, engine):
        with pytest.raises(OutOfMemoryError):
            TFCNNEngine(get_system("A100"), get_cnn_preset("resnet50")).train(2048)

    def test_multi_device(self):
        engine = TFCNNEngine(
            get_system("A100"), get_cnn_preset("resnet50"), devices=4
        )
        result = engine.train(512)
        assert result.devices == 4
        assert result.throughput > TFCNNEngine(
            get_system("A100"), get_cnn_preset("resnet50")
        ).train(128).throughput

    def test_batch_divisibility(self):
        engine = TFCNNEngine(get_system("A100"), get_cnn_preset("resnet50"), devices=4)
        with pytest.raises(ConfigError, match="divisible"):
            engine.train(130)

    def test_rejects_ipu_system(self):
        with pytest.raises(ConfigError, match="Poplar"):
            TFCNNEngine(get_system("GC200"), get_cnn_preset("resnet50"))


class TestPoplarGPT:
    @pytest.fixture
    def engine(self):
        return PoplarGPTEngine(get_system("GC200"))

    def test_batch_must_divide_micro_batch(self, engine):
        with pytest.raises(ConfigError, match="divisible"):
            engine.iteration_time_s(100)

    def test_throughput_saturates(self, engine):
        rates = [engine.tokens_per_second(b) for b in (64, 512, 4096, 16384)]
        assert rates == sorted(rates)
        assert rates[-1] < 196  # asymptote

    def test_train_epoch_result(self, engine):
        result = engine.train_epoch(1024)
        assert result.devices == 4  # pipeline over the POD4
        assert result.extra["wall_time_s"] > result.elapsed_s  # setup included
        assert result.extra["tokens_per_wh"] > 0

    def test_rejects_gpu_system(self):
        with pytest.raises(ConfigError, match="IPU"):
            PoplarGPTEngine(get_system("A100"))

    def test_117m_fits_sram_800m_does_not(self, engine):
        # The mechanism behind the paper's model choice (§III-A1):
        # "To work around the limited available memory of the
        # Graphcore IPU, we chose a smaller GPT model size (117M)".
        engine.check_memory()
        big = PoplarGPTEngine(get_system("GC200"), get_gpt_preset("800M"))
        with pytest.raises(OutOfMemoryError, match="SRAM"):
            big.check_memory()

    def test_train_epoch_enforces_memory(self):
        big = PoplarGPTEngine(get_system("GC200"), get_gpt_preset("800M"))
        with pytest.raises(OutOfMemoryError):
            big.train_epoch(1024)

    def test_on_device_data_skips_streaming(self):
        from repro.data.synthetic import SyntheticPlacement

        host = PoplarGPTEngine(get_system("GC200"))
        dev = PoplarGPTEngine(
            get_system("GC200"), placement=SyntheticPlacement.DEVICE
        )
        assert dev.host_stream_time_s(4096) == 0.0
        assert host.host_stream_time_s(4096) > 0.0


class TestPoplarResNet:
    @pytest.fixture
    def engine(self):
        return PoplarResNetEngine(get_system("GC200"))

    def test_flat_throughput(self, engine):
        # Table III: performance "does not scale on increasing the
        # global batch size" -- flat within a few percent.
        rates = [engine.images_per_second(b) for b in (16, 256, 4096)]
        assert max(rates) / min(rates) < 1.05

    def test_micro_batch_16_fits_sram_32_does_not(self, engine):
        engine.check_memory(16)
        with pytest.raises(OutOfMemoryError):
            engine.check_memory(32)

    def test_train_epoch_excludes_compilation(self, engine):
        result = engine.train_epoch(512)
        assert result.extra["compile_time_excluded_s"] > 0
        assert result.elapsed_s < 900  # 10-15 min epoch, not ~1 h compile

    def test_replica_validation(self):
        with pytest.raises(ConfigError):
            PoplarResNetEngine(get_system("GC200"), replicas=5)

    def test_batch_replica_divisibility(self, engine):
        two = PoplarResNetEngine(get_system("GC200"), replicas=2)
        with pytest.raises(ConfigError, match="divisible"):
            two.iteration_time_s(17)
