"""Tests for intra-node NUMA distances and device homes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.hardware.systems import get_system
from repro.hardware.topology import (
    device_home_numa,
    numa_distance_matrix,
    numa_hops,
)


class TestNumaDistances:
    def test_diagonal_zero(self):
        matrix = numa_distance_matrix(get_system("MI250"))
        for i in range(len(matrix)):
            assert matrix[i][i] == 0

    def test_intra_socket_one_hop_cross_socket_two(self):
        # MI250 node: 2 sockets x 4 domains.
        matrix = numa_distance_matrix(get_system("MI250"))
        assert matrix[0][1] == 1  # same socket
        assert matrix[0][4] == 2  # across sockets

    def test_symmetry(self):
        matrix = numa_distance_matrix(get_system("A100"))
        n = len(matrix)
        for a in range(n):
            for b in range(n):
                assert matrix[a][b] == matrix[b][a]

    def test_numa_hops_helper(self):
        node = get_system("MI250")
        assert numa_hops(node, 2, 2) == 0
        assert numa_hops(node, 0, 3) == 1
        assert numa_hops(node, 0, 7) == 2


class TestDeviceHomes:
    def test_round_robin_assignment(self):
        node = get_system("A100")  # 16 domains, 4 devices
        homes = [device_home_numa(node, i) for i in range(4)]
        assert homes == [0, 1, 2, 3]

    def test_out_of_range_device(self):
        with pytest.raises(ValueError):
            device_home_numa(get_system("A100"), 4)


def test_cli_import_loads_neither_networkx_nor_scipy():
    # Hop distances have a closed form; neither package is a dependency.
    code = (
        "import sys, repro.core.cli; "
        "print(sorted({'networkx', 'scipy'} & set(sys.modules)))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
