"""Shared arrival streams: the per-process memo and the pool boundary."""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.campaign.executor import IsolatingExecutor, PoolExecutor
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import JsonlStore
from repro.serve.arrivals import (
    BurstArrivals,
    FixedArrivals,
    PoissonArrivals,
    SessionArrivals,
)
from repro.serve.streams import (
    StreamCache,
    activate_streams,
    get_stream_cache,
    shared_requests,
    stream_family,
)

pytestmark = pytest.mark.serve


def poisson(requests: int = 64, **overrides) -> PoissonArrivals:
    kwargs = dict(rate_per_s=16.0, requests=requests, seed=7)
    kwargs.update(overrides)
    return PoissonArrivals(**kwargs)


def sessions(requests: int = 64, **overrides) -> SessionArrivals:
    kwargs = dict(rate_per_s=16.0, requests=requests, sessions=4, seed=7)
    kwargs.update(overrides)
    return SessionArrivals(**kwargs)


def served(cache: StreamCache, arrivals) -> tuple:
    return cache.requests(arrivals, stream_family(arrivals))


@pytest.fixture
def generations(monkeypatch) -> list[int]:
    """The request count of every Poisson or session generation."""
    counts: list[int] = []
    for cls in (PoissonArrivals, SessionArrivals):

        def counted(self, original=cls.generate):
            counts.append(self.requests)
            return original(self)

        monkeypatch.setattr(cls, "generate", counted)
    return counts


class TestSpec:
    """A stream's family: its generator minus the request count."""

    def test_family_drops_request_count(self):
        assert stream_family(poisson(64)) == stream_family(poisson(512))
        assert stream_family(sessions(64)) == stream_family(sessions(512))

    def test_family_keeps_every_other_field(self):
        changes = {
            "rate_per_s": 8.0,
            "prompt_tokens": 256,
            "generate_tokens": 64,
            "length_spread": 0.25,
            "seed": 8,
        }
        for name, value in changes.items():
            changed = stream_family(poisson(**{name: value}))
            assert changed != stream_family(poisson()), name
        for name, value in {"sessions": 3, "prefix_tokens": 128}.items():
            changed = stream_family(sessions(**{name: value}))
            assert changed != stream_family(sessions()), name
        # Same shared fields, different generator: different streams.
        assert stream_family(sessions(generate_tokens=256, prefix_tokens=0)) != (
            stream_family(poisson())
        )

    def test_other_generators_have_no_family(self):
        assert stream_family(BurstArrivals(bursts=((0.0, 4),))) is None
        assert stream_family(FixedArrivals(requests=4)) is None
        assert stream_family(None) is None


class TestPrefixStability:
    """The property the memo rests on: generators draw their RNG
    sequentially per request, so a long stream's prefix *is* the short
    stream."""

    def test_poisson_prefix_equals_short_stream(self):
        long = poisson(256, length_spread=0.25).generate()
        assert long[:16] == poisson(16, length_spread=0.25).generate()

    def test_session_prefix_equals_short_stream(self):
        long = sessions(256, prefix_tokens=128, length_spread=0.25).generate()
        short = sessions(16, prefix_tokens=128, length_spread=0.25).generate()
        assert long[:16] == short


class TestStreamCache:
    def test_miss_generates_then_serves_prefixes(self, generations):
        cache = StreamCache()
        full = served(cache, poisson(64))
        prefix = served(cache, poisson(16))
        assert generations == [64]
        assert full == poisson(64).generate()
        assert prefix == full[:16] == poisson(16).generate()

    def test_prefix_reconstructs_requests_exactly(self, generations):
        cache = StreamCache()
        arrivals = poisson(64, length_spread=0.25)
        generated = arrivals.generate()
        assert served(cache, arrivals) == generated
        for count in (1, 8, 63, 64):
            assert served(cache, poisson(count, length_spread=0.25)) == (
                generated[:count]
            )
        assert generations == [64, 64]  # the reference and one cache miss

    def test_session_slices_equal_generation(self, generations):
        cache = StreamCache()
        served(cache, sessions(64, prefix_tokens=128))
        for count in (1, 16, 63, 64):
            assert served(cache, sessions(count, prefix_tokens=128)) == (
                sessions(count, prefix_tokens=128).generate()
            )
        assert generations == [64] + [1, 16, 63, 64]  # only the references

    def test_materialized_tuples_are_memoized(self):
        cache = StreamCache()
        first = served(cache, poisson(16))
        assert served(cache, poisson(16)) is first

    def test_install_keeps_longest_per_family(self, generations):
        cache = StreamCache()
        full = served(cache, poisson(64))
        served(cache, poisson(8))
        assert served(cache, poisson(64)) is full
        assert generations == [64]

    def test_shorter_installed_stream_triggers_regeneration(self, generations):
        cache = StreamCache()
        served(cache, poisson(8))
        full = served(cache, poisson(64))
        served(cache, poisson(8))
        assert generations == [8, 64]
        assert full == poisson(64).generate()

    def test_families_are_held_apart(self, generations):
        cache = StreamCache()
        assert served(cache, poisson(16, seed=1)) != served(cache, poisson(16, seed=2))
        assert generations == [16, 16]


class TestSharedRequests:
    def test_without_cache_degrades_to_generation(self, generations):
        assert get_stream_cache() is None
        assert shared_requests(poisson(16)) == poisson(16).generate()
        assert shared_requests(poisson(16)) == poisson(16).generate()
        assert generations == [16] * 4

    def test_with_cache_is_byte_identical(self, generations):
        with activate_streams(StreamCache()):
            got = shared_requests(poisson(16))
            assert shared_requests(poisson(16)) is got
        assert generations == [16]
        assert got == poisson(16).generate()
        assert get_stream_cache() is None  # scope restored

    def test_nested_scopes_restore_the_outer_cache(self):
        with activate_streams(StreamCache()) as outer:
            with activate_streams(StreamCache()) as inner:
                assert get_stream_cache() is inner
            assert get_stream_cache() is outer
        assert get_stream_cache() is None

    def test_uncacheable_generator_falls_back(self):
        calls = []

        class Custom:
            requests = 0

            def generate(self):
                calls.append(1)
                return iter(())

        with activate_streams(StreamCache()):
            assert shared_requests(Custom()) == ()
            assert shared_requests(Custom()) == ()
        assert len(calls) == 2


def _serve_spec(requests: int = 12) -> CampaignSpec:
    return CampaignSpec(
        name="stream-determinism",
        systems=("A100",),
        workloads=(
            WorkloadSpec.of_kind(
                "serve",
                axes={"batch_cap": (4, 8)},
                fixed={
                    "requests": str(requests),
                    "generate_tokens": "16",
                    "slo_ttft_ms": "500",
                },
            ),
        ),
    )


def _session_cluster_spec(requests: int = 12) -> CampaignSpec:
    return CampaignSpec(
        name="stream-determinism-sessions",
        systems=("A100",),
        workloads=(
            WorkloadSpec.of_kind(
                "serve_cluster",
                axes={
                    "batch_cap": (4, 8),
                    "router": ("round-robin", "prefix-cache-aware"),
                },
                fixed={
                    "requests": str(requests),
                    "generate_tokens": "16",
                    "sessions": "3",
                    "prefix_tokens": "256",
                    "slo_ttft_ms": "500",
                },
            ),
        ),
    )


class TestPoolBoundary:
    """End to end: a campaign's rows are byte-identical whether its
    streams come from one in-process cache or from each pool worker's
    own, and serving never restarts the pool."""

    def test_rows_identical_across_execution_modes(self, tmp_path):
        for spec in (_serve_spec(), _session_cluster_spec()):
            baseline = CampaignRunner(
                JsonlStore(tmp_path / f"{spec.name}-baseline.jsonl"),
                IsolatingExecutor(),
            ).run(spec)
            with PoolExecutor(max_workers=2) as pool:
                pooled = CampaignRunner(
                    JsonlStore(tmp_path / f"{spec.name}-pooled.jsonl"), pool
                ).run(spec)
            assert baseline.failed == 0, spec.name
            assert [r.canonical() for r in baseline.rows] == [
                r.canonical() for r in pooled.rows
            ], spec.name

    def test_campaign_starts_its_pool_once(self, tmp_path, monkeypatch):
        starts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        spec = CampaignSpec(
            name="train-then-serve",
            systems=("A100",),
            workloads=(
                WorkloadSpec.of_kind("resnet", axes={"global_batch_size": (64, 128)}),
                *_session_cluster_spec().workloads,
            ),
        )
        with PoolExecutor(max_workers=2) as pool:
            report = CampaignRunner(JsonlStore(tmp_path / "s.jsonl"), pool).run(spec)
        assert report.failed == 0
        assert [row.step for row in report.rows].count("resnet") == 2
        assert len(starts) == 1
