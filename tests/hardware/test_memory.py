"""Tests for device memory accounting."""

import pytest

from repro.errors import OutOfMemoryError
from repro.hardware.memory import MemoryBudget, MemoryPool


class TestMemoryPool:
    def test_allocate_and_track(self):
        pool = MemoryPool(1000)
        pool.allocate("weights", 400)
        pool.allocate("activations", 300)
        assert pool.used_bytes == 700

    def test_strict_oom_raises_with_sizes(self):
        pool = MemoryPool(1000)
        with pytest.raises(OutOfMemoryError) as exc:
            pool.allocate("activations", 1500)
        assert exc.value.required_bytes == 1500
        assert exc.value.capacity_bytes == 1000

    def test_non_strict_records_oversubscription(self):
        pool = MemoryPool(1000, strict=False)
        pool.allocate("activations", 1500)
        budget = pool.budget()
        assert not budget.fits
        assert budget.used_bytes - budget.capacity_bytes == 500

    def test_float_sizes_round_up(self):
        pool = MemoryPool(1000)
        pool.allocate("x", 0.1)
        assert pool.used_bytes == 1

    def test_rejects_negative_allocation(self):
        with pytest.raises(ValueError):
            MemoryPool(1000).allocate("x", -1)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoryPool(0)


class TestMemoryBudget:
    def _budget(self):
        return MemoryBudget(1000, (("weights", 400), ("weights", 100), ("acts", 300)))

    def test_breakdown_sums_duplicate_labels(self):
        assert self._budget().breakdown() == {"weights": 500, "acts": 300}

    def test_utilisation(self):
        assert self._budget().utilisation == pytest.approx(0.8)

    def test_fits_boundary(self):
        assert MemoryBudget(100, (("x", 100),)).fits
        assert not MemoryBudget(100, (("x", 101),)).fits

    def test_describe_sorted_by_size(self):
        text = self._budget().describe()
        assert text.index("weights") < text.index("acts")
