"""Tests for the Table I system registry (experiment E6 of DESIGN.md)."""

import pytest

from repro.errors import UnknownSystemError
from repro.hardware.accelerator import Vendor
from repro.hardware.interconnect import LinkTechnology
from repro.hardware.systems import SYSTEM_TAGS, SYSTEMS, get_system


class TestRegistry:
    def test_all_seven_table1_tags(self):
        assert SYSTEM_TAGS == ("JEDI", "GH200", "H100", "WAIH100", "MI250", "GC200", "A100")

    def test_gpu_tags_exclude_ipu(self):
        gpu_tags = [t for t in SYSTEM_TAGS if not SYSTEMS[t].is_ipu_pod]
        assert "GC200" not in gpu_tags
        assert len(gpu_tags) == 6

    def test_unknown_tag(self):
        with pytest.raises(UnknownSystemError, match="JEDI"):
            get_system("MI300")

    def test_tags_match_registry_keys(self):
        for tag in SYSTEM_TAGS:
            assert SYSTEMS[tag].jube_tag == tag


class TestTable1Rows:
    def test_accelerator_counts(self):
        # Table I "Accelerator" row.
        assert get_system("JEDI").accelerators_per_node == 4
        assert get_system("GH200").accelerators_per_node == 1
        assert get_system("H100").accelerators_per_node == 4
        assert get_system("WAIH100").accelerators_per_node == 4
        assert get_system("MI250").accelerators_per_node == 4
        assert get_system("GC200").accelerators_per_node == 4
        assert get_system("A100").accelerators_per_node == 4

    def test_mi250_node_exposes_8_logical_gpus(self):
        # "From that viewpoint, each node would contain 8 GPUs."
        assert get_system("MI250").logical_devices_per_node == 8

    def test_cpu_accelerator_links(self):
        # Table I "CPU-Acc. Connect" row.
        assert get_system("JEDI").cpu_accel_link.technology is LinkTechnology.NVLINK_C2C
        assert get_system("JEDI").cpu_accel_link.bandwidth == 900e9
        assert get_system("H100").cpu_accel_link.technology is LinkTechnology.PCIE_GEN5
        assert get_system("A100").cpu_accel_link.technology is LinkTechnology.PCIE_GEN4

    def test_accelerator_links(self):
        # Table I "Acc.-Acc. Connect" row.
        assert get_system("JEDI").accel_accel_link.bandwidth == 900e9
        assert get_system("H100").accel_accel_link.bandwidth == 600e9
        assert get_system("WAIH100").accel_accel_link.bandwidth == 900e9
        assert get_system("MI250").accel_accel_link.bandwidth == 500e9
        assert get_system("GC200").accel_accel_link.bandwidth == 256e9
        assert get_system("A100").accel_accel_link.bandwidth == 600e9

    def test_single_superchip_node_has_no_acc_acc_link(self):
        assert get_system("GH200").accel_accel_link.technology is LinkTechnology.NONE

    def test_tdp_per_device(self):
        # Table I "TDP / device" row.
        assert get_system("JEDI").package_tdp_watts == 680
        assert get_system("GH200").package_tdp_watts == 700
        assert get_system("H100").package_tdp_watts == 350
        assert get_system("WAIH100").package_tdp_watts == 700
        assert get_system("MI250").package_tdp_watts == 560
        assert get_system("GC200").package_tdp_watts == 300
        assert get_system("A100").package_tdp_watts == 400

    def test_host_memory(self):
        # Table I "Memory" row (CPU part).
        assert get_system("JEDI").cpu_memory_bytes == 4 * 120_000_000_000
        assert get_system("GH200").cpu_memory_bytes == 480_000_000_000
        assert get_system("A100").cpu_memory_bytes == 512_000_000_000

    def test_jrdc_gh200_has_4x_cpu_memory_per_device_vs_jedi(self):
        # The §IV-B explanation of the JRDC-vs-JEDI ResNet gap.
        ratio = (
            get_system("GH200").cpu_memory_per_device
            / get_system("JEDI").cpu_memory_per_device
        )
        assert ratio == pytest.approx(4.0)

    def test_vendor_per_system(self):
        assert get_system("MI250").accelerator.vendor is Vendor.AMD
        assert get_system("GC200").accelerator.vendor is Vendor.GRAPHCORE
        for tag in ("JEDI", "GH200", "H100", "WAIH100", "A100"):
            assert get_system(tag).accelerator.vendor is Vendor.NVIDIA

    def test_evaluation_platforms_are_single_node(self):
        # JURECA evaluation platform nodes have no inter-node fabric.
        assert get_system("GH200").internode_link.technology is LinkTechnology.NONE
        assert get_system("H100").internode_link.technology is LinkTechnology.NONE
        assert get_system("GC200").internode_link.technology is LinkTechnology.NONE

    def test_multinode_systems_have_infiniband(self):
        assert get_system("JEDI").internode_link.technology is LinkTechnology.IB_NDR200
        assert get_system("A100").internode_link.technology is LinkTechnology.IB_HDR
        assert get_system("JEDI").max_nodes > 1

    def test_jedi_has_4x_ndr(self):
        # 4x IB NDR at 200 Gbit/s each direction x2 = 200 GB/s aggregate.
        assert get_system("JEDI").internode_link.bandwidth == pytest.approx(
            4 * 2 * 200e9 / 8
        )


class TestDerived:
    def test_device_peak_flops_mi250_is_per_gcd(self):
        node = get_system("MI250")
        assert node.device_peak_flops == pytest.approx(362.1e12 / 2)

    def test_device_tdp_mi250_is_per_gcd(self):
        assert get_system("MI250").device_tdp_watts == pytest.approx(280)

    def test_describe_contains_tag(self):
        for tag in SYSTEM_TAGS:
            assert tag in get_system(tag).describe()

    def test_ipu_pod_flag(self):
        assert get_system("GC200").is_ipu_pod
        assert not get_system("A100").is_ipu_pod
