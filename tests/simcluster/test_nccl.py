"""Tests for the collective communication cost models."""

import pytest

from repro.hardware.interconnect import LinkTechnology, get_link
from repro.simcluster.nccl import (
    CollectiveModel,
    allgather_time,
    allreduce_time,
    reduce_scatter_time,
)

NVLINK = get_link(LinkTechnology.NVLINK4)
IB = get_link(LinkTechnology.IB_HDR)


class TestAllreduce:
    def test_single_rank_is_free(self):
        assert allreduce_time(1e9, 1, NVLINK) == 0.0

    def test_zero_bytes_is_free(self):
        assert allreduce_time(0, 8, NVLINK) == 0.0

    def test_ring_volume_formula(self):
        # 2(p-1)/p * N / (uni bw * eff), plus small latency.
        t = allreduce_time(1e9, 4, NVLINK, efficiency=1.0)
        expected = 2 * 3 / 4 * 1e9 / (450e9)
        assert t == pytest.approx(expected + 6 * NVLINK.latency_s)

    def test_monotone_in_message_size(self):
        sizes = [1e6, 1e7, 1e8, 1e9]
        times = [allreduce_time(s, 4, NVLINK) for s in sizes]
        assert times == sorted(times)

    def test_monotone_in_inverse_bandwidth(self):
        assert allreduce_time(1e9, 4, IB) > allreduce_time(1e9, 4, NVLINK)

    def test_tree_beats_ring_for_small_messages_many_ranks(self):
        small = 1e4
        ring = allreduce_time(small, 64, IB, algorithm="ring")
        tree = allreduce_time(small, 64, IB, algorithm="tree")
        assert tree < ring

    def test_ring_beats_tree_for_large_messages(self):
        large = 1e9
        ring = allreduce_time(large, 8, NVLINK, algorithm="ring")
        tree = allreduce_time(large, 8, NVLINK, algorithm="tree")
        assert ring < tree

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            allreduce_time(1e6, 4, NVLINK, algorithm="butterfly")

    def test_validation(self):
        with pytest.raises(ValueError):
            allreduce_time(-1, 4, NVLINK)
        with pytest.raises(ValueError):
            allreduce_time(1e6, 0, NVLINK)


class TestOtherCollectives:
    def test_reduce_scatter_is_half_an_allreduce(self):
        rs = reduce_scatter_time(1e9, 4, NVLINK, efficiency=1.0)
        ar = allreduce_time(1e9, 4, NVLINK, efficiency=1.0)
        assert rs == pytest.approx(ar / 2, rel=0.01)

    def test_allgather_equals_reduce_scatter(self):
        assert allgather_time(1e8, 8, NVLINK) == reduce_scatter_time(1e8, 8, NVLINK)


class TestCollectiveModel:
    def test_world_size(self):
        m = CollectiveModel(NVLINK, IB, ranks_per_node=4, nodes=3)
        assert m.world_size == 12

    def test_single_rank_free(self):
        m = CollectiveModel(NVLINK, IB, ranks_per_node=1, nodes=1)
        assert m.allreduce(1e9) == 0.0

    def test_intra_node_only(self):
        m = CollectiveModel(NVLINK, IB, ranks_per_node=4, nodes=1)
        assert m.allreduce(1e8) == pytest.approx(allreduce_time(1e8, 4, NVLINK))

    def test_multi_node_slower_than_single_node(self):
        single = CollectiveModel(NVLINK, IB, ranks_per_node=4, nodes=1)
        multi = CollectiveModel(NVLINK, IB, ranks_per_node=4, nodes=4)
        assert multi.allreduce(1e9) > single.allreduce(1e9)

    def test_hierarchical_reduce_scatter_shards_across_nodes(self):
        m = CollectiveModel(NVLINK, IB, ranks_per_node=4, nodes=2)
        assert m.reduce_scatter(1e9) > 0
        assert m.allgather(1e9) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CollectiveModel(NVLINK, IB, ranks_per_node=0)
