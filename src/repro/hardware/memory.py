"""Device memory accounting.

:class:`MemoryPool` is a simple allocator used by the engines to track
how much device memory a configuration needs; :class:`MemoryBudget`
is the read-only summary the OOM checker consumes.  The pool tracks
named allocations so failure messages can say *what* did not fit
(weights, optimizer states, activations, workspace) -- the same
categories Megatron-LM users reason about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError


@dataclass(frozen=True)
class MemoryBudget:
    """Summary of a device-memory footprint against a capacity."""

    capacity_bytes: int
    allocations: tuple[tuple[str, int], ...]

    @property
    def used_bytes(self) -> int:
        """Sum of all allocations."""
        return sum(size for _, size in self.allocations)

    @property
    def fits(self) -> bool:
        """True when the footprint is within capacity."""
        return self.used_bytes <= self.capacity_bytes

    @property
    def utilisation(self) -> float:
        """Fraction of capacity used."""
        return self.used_bytes / self.capacity_bytes

    def breakdown(self) -> dict[str, int]:
        """Allocation sizes keyed by label, summing duplicate labels."""
        out: dict[str, int] = {}
        for label, size in self.allocations:
            out[label] = out.get(label, 0) + size
        return out

    def describe(self) -> str:
        """Multi-line human-readable footprint report."""
        lines = [f"memory budget: {self.used_bytes / 1e9:.2f} / {self.capacity_bytes / 1e9:.2f} GB"]
        for label, size in sorted(self.breakdown().items(), key=lambda kv: -kv[1]):
            lines.append(f"  {label}: {size / 1e9:.2f} GB")
        return "\n".join(lines)


class MemoryPool:
    """Tracks named allocations on one device.

    Parameters
    ----------
    capacity_bytes:
        Device memory capacity.
    strict:
        When True (default) an allocation that exceeds capacity raises
        :class:`~repro.errors.OutOfMemoryError` immediately; when False
        the pool records the oversubscription and the caller inspects
        :meth:`budget` -- used by the Figure 4 heatmap generator, which
        wants OOM as a *result*, not an exception.
    """

    def __init__(self, capacity_bytes: int, *, strict: bool = True) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.strict = strict
        self._allocations: list[tuple[str, int]] = []

    @property
    def used_bytes(self) -> int:
        """Sum of live allocations."""
        return sum(size for _, size in self._allocations)

    def allocate(self, label: str, size_bytes: float) -> None:
        """Record an allocation.

        Sizes are accepted as floats (analytic formulas produce floats)
        and stored rounded up to whole bytes.
        """
        if size_bytes < 0:
            raise ValueError(f"allocation {label!r} has negative size")
        size = int(-(-size_bytes // 1))  # ceil
        self._allocations.append((label, size))
        if self.strict and self.used_bytes > self.capacity_bytes:
            raise OutOfMemoryError(
                f"allocation {label!r} ({size / 1e9:.2f} GB) exceeds device memory: "
                f"{self.used_bytes / 1e9:.2f} GB needed, "
                f"{self.capacity_bytes / 1e9:.2f} GB available",
                required_bytes=self.used_bytes,
                capacity_bytes=self.capacity_bytes,
            )

    def budget(self) -> MemoryBudget:
        """Immutable snapshot of the current footprint."""
        return MemoryBudget(self.capacity_bytes, tuple(self._allocations))
