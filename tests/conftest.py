"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.power.sensors import DeviceRegistry
from repro.simcluster.clock import VirtualClock


@pytest.fixture
def a100_node():
    """The JURECA-DC A100 node."""
    return get_system("A100")


@pytest.fixture
def gh200_node():
    """The JURECA evaluation-platform GH200 node (single superchip)."""
    return get_system("GH200")


@pytest.fixture
def mi250_node():
    """The JURECA MI200 node (4 MCMs, 8 GCDs)."""
    return get_system("MI250")


@pytest.fixture
def ipu_node():
    """The IPU-M2000 POD4 node."""
    return get_system("GC200")


@pytest.fixture
def clock():
    """A fresh virtual clock starting at zero."""
    return VirtualClock()


@pytest.fixture
def drain():
    """Run a SlurmSimulator's queue to completion; returns the records."""

    def run(sim):
        records = []
        while (record := sim.run_next()) is not None:
            records.append(record)
        return records

    return run


@pytest.fixture
def a100_registry(a100_node, clock):
    """Device registry of an A100 node on the virtual clock."""
    return DeviceRegistry.for_node(a100_node, clock=clock)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden fixtures under tests/serve/goldens/, "
        "tests/core/goldens/ and tests/analysis/goldens/ with the outputs "
        "of the current code instead of comparing",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """Whether this run should rewrite goldens instead of asserting."""
    return request.config.getoption("--update-goldens")


def pytest_configure(config):
    # Registered in pyproject.toml too; repeated here so the suite stays
    # warning-clean when pytest is invoked without the project config.
    config.addinivalue_line("markers", "slow: long-running integration test")
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection campaign test (runs real workloads under a fault plan)",
    )
    config.addinivalue_line(
        "markers",
        "serve: request-level serving simulator test (measured continuous-batching runs)",
    )
