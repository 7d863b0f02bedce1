"""Tests for CPU specs and node composition."""

import pytest

from repro.errors import HardwareError
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cpu import CPUS, CPUSpec, get_cpu
from repro.hardware.interconnect import LinkTechnology, get_link
from repro.hardware.node import NodeSpec
from repro.units import gb


class TestCPUCatalog:
    def test_table1_cpus_present(self):
        for name in ["Grace", "Xeon-8452Y", "Xeon-8462Y", "EPYC-7443", "EPYC-7413", "EPYC-7742"]:
            assert name in CPUS

    def test_grace_has_72_cores_no_smt(self):
        grace = get_cpu("Grace")
        assert grace.cores == 72
        assert grace.smt == 1

    def test_epyc_7742_has_8_numa_domains(self):
        # The §V-C binding complexity comes from these chiplets.
        assert get_cpu("EPYC-7742").numa_domains == 8

    def test_unknown_cpu(self):
        with pytest.raises(HardwareError):
            get_cpu("M1-Max")

    def test_validation(self):
        with pytest.raises(HardwareError):
            CPUSpec(name="bad", cores=0, memory_bandwidth=1e9)
        with pytest.raises(HardwareError):
            CPUSpec(name="bad", cores=4, memory_bandwidth=1e9, numa_domains=0)


class TestNodeValidation:
    def _node(self, **overrides):
        base = dict(
            name="test-node",
            jube_tag="TEST",
            accelerator=get_accelerator("A100-SXM4"),
            accelerators_per_node=4,
            cpu=get_cpu("EPYC-7742"),
            cpu_sockets=2,
            cpu_memory_bytes=gb(512),
            cpu_accel_link=get_link(LinkTechnology.PCIE_GEN4),
            accel_accel_link=get_link(LinkTechnology.NVLINK3),
            internode_link=get_link(LinkTechnology.NONE),
            package_tdp_watts=400.0,
        )
        base.update(overrides)
        return NodeSpec(**base)

    def test_valid_node(self):
        node = self._node()
        assert node.cpu_cores_per_node == 128
        assert node.logical_devices_per_node == 4

    def test_rejects_zero_accelerators(self):
        with pytest.raises(HardwareError):
            self._node(accelerators_per_node=0)

    def test_rejects_zero_memory(self):
        with pytest.raises(HardwareError):
            self._node(cpu_memory_bytes=0)

    def test_multinode_requires_interconnect(self):
        with pytest.raises(HardwareError, match="inter-node"):
            self._node(max_nodes=2)

    def test_total_logical_devices(self):
        node = self._node(
            max_nodes=4, internode_link=get_link(LinkTechnology.IB_HDR)
        )
        assert node.total_logical_devices == 16
