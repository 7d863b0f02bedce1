"""Tests for the accelerator catalog (paper Figure 1)."""

import pytest

from repro.errors import HardwareError
from repro.hardware.accelerator import (
    ACCELERATORS,
    AcceleratorKind,
    AcceleratorSpec,
    Vendor,
    get_accelerator,
)
from repro.units import tflops


class TestCatalog:
    def test_all_fig1_accelerators_present(self):
        for name in ["A100-SXM4", "H100-PCIe", "H100-SXM5", "GH200-H100", "MI250", "GC200"]:
            assert name in ACCELERATORS

    def test_fig1_peak_flops(self):
        # The exact peak FP16 numbers of Figure 1 (no sparsity).
        assert get_accelerator("A100-SXM4").peak_fp16_flops == tflops(312)
        assert get_accelerator("H100-PCIe").peak_fp16_flops == tflops(756)
        assert get_accelerator("H100-SXM5").peak_fp16_flops == tflops(990)
        assert get_accelerator("GH200-H100").peak_fp16_flops == tflops(990)
        assert get_accelerator("MI250").peak_fp16_flops == tflops(362.1)
        assert get_accelerator("GC200").peak_fp16_flops == tflops(250)

    def test_fig1_compute_units(self):
        assert get_accelerator("A100-SXM4").compute_units == 108
        assert get_accelerator("H100-PCIe").compute_units == 114
        assert get_accelerator("H100-SXM5").compute_units == 132
        assert get_accelerator("MI250").compute_units == 208  # 2 x 104 CU
        assert get_accelerator("GC200").compute_units == 1472

    def test_fig1_memory(self):
        assert get_accelerator("A100-SXM4").memory_bytes == 40_000_000_000
        assert get_accelerator("H100-PCIe").memory_bytes == 80_000_000_000
        assert get_accelerator("GC200").memory_bytes == 900_000_000

    def test_mi250_is_dual_die(self):
        assert get_accelerator("MI250").logical_devices == 2

    def test_vendors(self):
        assert get_accelerator("A100-SXM4").vendor is Vendor.NVIDIA
        assert get_accelerator("MI250").vendor is Vendor.AMD
        assert get_accelerator("GC200").vendor is Vendor.GRAPHCORE

    def test_ipu_is_mimd_dataflow(self):
        assert get_accelerator("GC200").kind is AcceleratorKind.IPU
        assert get_accelerator("A100-SXM4").kind is AcceleratorKind.GPU

    def test_unknown_name_raises_with_valid_list(self):
        with pytest.raises(HardwareError, match="A100-SXM4"):
            get_accelerator("B200")


class TestDerivedQuantities:
    def test_describe_mentions_key_specs(self):
        text = get_accelerator("A100-SXM4").describe()
        assert "108" in text and "312" in text and "400" in text


class TestValidation:
    def _spec(self, **overrides):
        base = dict(
            name="x",
            vendor=Vendor.NVIDIA,
            kind=AcceleratorKind.GPU,
            compute_units=10,
            cores_per_unit=64,
            matrix_units_per_unit=4,
            peak_fp16_flops=1e12,
            memory_bytes=1_000_000,
            memory_bandwidth=1e9,
            tdp_watts=100.0,
        )
        base.update(overrides)
        return AcceleratorSpec(**base)

    def test_rejects_nonpositive_flops(self):
        with pytest.raises(HardwareError):
            self._spec(peak_fp16_flops=0)

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(HardwareError):
            self._spec(memory_bytes=0)

    def test_rejects_nonpositive_tdp(self):
        with pytest.raises(HardwareError):
            self._spec(tdp_watts=-1)

    def test_rejects_nonpositive_units(self):
        with pytest.raises(HardwareError):
            self._spec(compute_units=0)
