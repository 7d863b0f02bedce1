"""Host CPU specifications for the Table I nodes.

The CPU matters for CARAML results mostly through its memory capacity
and bandwidth (data loading, §IV-B observes GH200 (JRDC) beating JEDI at
large ResNet batch sizes "likely [due to] 4x as much available CPU
memory per GPU") and through NUMA/affinity effects (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError
from repro.units import gbps


@dataclass(frozen=True)
class CPUSpec:
    """Static description of one CPU socket.

    ``memory_bandwidth`` is the per-socket theoretical memory bandwidth;
    ``numa_domains`` the number of NUMA domains the socket exposes
    (EPYC chiplets expose several, which is why §V-C needs explicit
    ``--cpu-bind`` on the A100 nodes).
    """

    name: str
    cores: int
    memory_bandwidth: float
    numa_domains: int = 1
    smt: int = 2
    tdp_watts: float = 250.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise HardwareError(f"{self.name}: cores must be positive")
        if self.numa_domains <= 0:
            raise HardwareError(f"{self.name}: NUMA domains must be positive")


def _make_catalog() -> dict[str, CPUSpec]:
    specs = [
        # NVIDIA Grace: 72 Neoverse-V2 cores, LPDDR5X up to 512 GB/s.
        CPUSpec(
            name="Grace",
            cores=72,
            memory_bandwidth=gbps(512),
            numa_domains=1,
            smt=1,
            tdp_watts=250.0,
        ),
        # JURECA H100 PCIe node: 2x Intel Xeon Platinum 8452Y (36c each in
        # hardware; Table I lists 72c per socket total presentation).
        CPUSpec(
            name="Xeon-8452Y",
            cores=36,
            memory_bandwidth=gbps(307),  # 8ch DDR5-4800
            numa_domains=1,
            smt=2,
            tdp_watts=300.0,
        ),
        # WestAI H100 SXM node: 2x Intel Xeon Platinum 8462Y+ (32c).
        CPUSpec(
            name="Xeon-8462Y",
            cores=32,
            memory_bandwidth=gbps(307),
            numa_domains=1,
            smt=2,
            tdp_watts=300.0,
        ),
        # AMD MI250 node: 2x EPYC 7443 (24c, 4 chiplets).
        CPUSpec(
            name="EPYC-7443",
            cores=24,
            memory_bandwidth=gbps(204),  # 8ch DDR4-3200
            numa_domains=4,
            smt=2,
            tdp_watts=200.0,
        ),
        # Graphcore host: 2x EPYC 7413 (24c).
        CPUSpec(
            name="EPYC-7413",
            cores=24,
            memory_bandwidth=gbps(204),
            numa_domains=4,
            smt=2,
            tdp_watts=180.0,
        ),
        # A100 node: 2x EPYC 7742 (64c, 8 chiplets) -- not all chiplets
        # have GPU affinity (paper §V-C).
        CPUSpec(
            name="EPYC-7742",
            cores=64,
            memory_bandwidth=gbps(204),
            numa_domains=8,
            smt=2,
            tdp_watts=225.0,
        ),
    ]
    return {s.name: s for s in specs}


CPUS: dict[str, CPUSpec] = _make_catalog()


def get_cpu(name: str) -> CPUSpec:
    """Look up a CPU by catalog name, raising HardwareError if unknown."""
    try:
        return CPUS[name]
    except KeyError:
        valid = ", ".join(sorted(CPUS))
        raise HardwareError(f"unknown CPU {name!r}; valid: {valid}") from None
