"""Tests for the CNN architecture models."""

import pytest

from repro.errors import ConfigError
from repro.models.resnet import CNN_PRESETS, get_cnn_preset


class TestPresets:
    def test_benchmark_models_present(self):
        # §III-A2: resnet50 default; inception3, vgg16, alexnet
        # selectable; resnet18/34 on Graphcore.
        assert set(CNN_PRESETS) == {
            "resnet50", "resnet18", "resnet34", "inception3", "vgg16", "alexnet"
        }

    def test_resnet50_published_parameter_count(self):
        assert get_cnn_preset("resnet50").parameters == 25_557_032

    def test_published_flops_ordering(self):
        flops = {n: c.flops_per_image_forward for n, c in CNN_PRESETS.items()}
        assert flops["alexnet"] < flops["resnet18"] < flops["resnet34"]
        assert flops["resnet34"] < flops["resnet50"] < flops["inception3"] < flops["vgg16"]

    def test_inception_uses_299px_inputs(self):
        assert get_cnn_preset("inception3").image_pixels == 299 * 299 * 3

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="resnet50"):
            get_cnn_preset("efficientnet")


class TestAccounting:
    def test_train_flops_3x_forward(self):
        cfg = get_cnn_preset("resnet50")
        assert cfg.flops_per_image_train == pytest.approx(3 * 4.1e9)

    def test_weight_bytes_fp16(self):
        cfg = get_cnn_preset("resnet50")
        assert cfg.weight_bytes() == cfg.parameters * 2

    def test_describe(self):
        assert "25.6M" in get_cnn_preset("resnet50").describe()

    def test_resnet50_activation_footprint_calibration(self):
        # 30 MB/image: a 40 GB A100 fits batch 1024 but not 2048
        # (Figure 4g OOM boundary); checked end-to-end in engine tests.
        act = get_cnn_preset("resnet50").activation_bytes_per_image
        assert 1024 * act < 40e9
        assert 2048 * act > 40e9
