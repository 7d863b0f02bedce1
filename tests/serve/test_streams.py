"""Shared arrival streams: determinism across the process-pool boundary."""

from __future__ import annotations

import pickle

import pytest

from repro.campaign.batch import plan_streams
from repro.campaign.executor import IsolatingExecutor, PoolExecutor
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, WorkloadSpec
from repro.campaign.store import JsonlStore
from repro.errors import ConfigError
from repro.jube.runner import WorkItem
from repro.serve.arrivals import PoissonArrivals, SessionArrivals
from repro.serve.streams import (
    ArrivalStreamSpec,
    FrozenStream,
    StreamCache,
    activate_streams,
    get_stream_cache,
    shared_requests,
)

pytestmark = pytest.mark.serve


def poisson_spec(requests: int = 64, **overrides) -> ArrivalStreamSpec:
    kwargs = dict(kind="poisson", rate_per_s=16.0, requests=requests, seed=7)
    kwargs.update(overrides)
    return ArrivalStreamSpec(**kwargs)


class TestSpec:
    def test_family_drops_request_count(self):
        a, b = poisson_spec(64), poisson_spec(512)
        assert a.family == b.family
        assert a.key() != b.key()  # full address still distinguishes them

    def test_validation(self):
        with pytest.raises(ConfigError):
            ArrivalStreamSpec(kind="uniform", rate_per_s=1.0, requests=8)
        with pytest.raises(ConfigError):
            poisson_spec(requests=0)
        with pytest.raises(ConfigError):
            ArrivalStreamSpec(kind="session", rate_per_s=1.0, requests=8)

    def test_for_arrivals_round_trips_poisson(self):
        arrivals = PoissonArrivals(
            rate_per_s=8.0, requests=32, prompt_tokens=256,
            generate_tokens=64, length_spread=0.25, seed=3,
        )
        spec = ArrivalStreamSpec.for_arrivals(arrivals)
        assert spec.kind == "poisson"
        assert tuple(spec.generator().generate()) == tuple(arrivals.generate())

    def test_for_arrivals_round_trips_session(self):
        arrivals = SessionArrivals(
            rate_per_s=8.0, requests=32, sessions=4, prompt_tokens=256,
            prefix_tokens=128, generate_tokens=64, seed=3,
        )
        spec = ArrivalStreamSpec.for_arrivals(arrivals)
        assert spec.kind == "session"
        assert tuple(spec.generator().generate()) == tuple(arrivals.generate())

    def test_for_arrivals_unknown_generator_is_none(self):
        assert ArrivalStreamSpec.for_arrivals(object()) is None


class TestPrefixStability:
    """The property the whole fast path rests on: generators draw their
    RNG sequentially per request, so a long stream's prefix *is* the
    short stream."""

    def test_poisson_prefix_equals_short_stream(self):
        long = tuple(poisson_spec(256).generator().generate())
        short = tuple(poisson_spec(16).generator().generate())
        assert long[:16] == short

    def test_session_prefix_equals_short_stream(self):
        def stream(n):
            return tuple(
                ArrivalStreamSpec(
                    kind="session", rate_per_s=16.0, requests=n,
                    sessions=4, seed=7,
                ).generator().generate()
            )

        assert stream(256)[:16] == stream(16)


class TestFrozenStream:
    def test_prefix_reconstructs_requests_exactly(self):
        generated = tuple(poisson_spec(64).generator().generate())
        frozen = FrozenStream(generated)
        assert len(frozen) == 64
        assert frozen.prefix(64) == generated
        assert frozen.prefix(8) == generated[:8]

    def test_session_fields_survive_freezing(self):
        spec = ArrivalStreamSpec(
            kind="session", rate_per_s=16.0, requests=32, sessions=4,
            prefix_tokens=128, seed=7,
        )
        generated = tuple(spec.generator().generate())
        assert FrozenStream(generated).prefix(32) == generated

    def test_empty_and_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            FrozenStream(())
        frozen = FrozenStream(tuple(poisson_spec(8).generator().generate()))
        with pytest.raises(ConfigError):
            frozen.prefix(0)
        with pytest.raises(ConfigError):
            frozen.prefix(9)

    def test_pickle_round_trip_is_byte_identical(self):
        # What actually crosses the pool boundary: the SoA arrays.
        generated = tuple(poisson_spec(64).generator().generate())
        thawed = pickle.loads(pickle.dumps(FrozenStream(generated)))
        assert thawed.prefix(64) == generated


class TestStreamCache:
    def test_miss_generates_then_serves_prefixes(self):
        cache = StreamCache()
        full = cache.requests(poisson_spec(64))
        assert cache.misses == 1 and len(cache) == 1
        prefix = cache.requests(poisson_spec(16))
        assert cache.hits == 1
        assert prefix == full[:16]
        assert prefix == tuple(poisson_spec(16).generator().generate())

    def test_materialized_tuples_are_memoized(self):
        cache = StreamCache()
        first = cache.requests(poisson_spec(16))
        again = cache.requests(poisson_spec(16))
        assert again is first

    def test_install_keeps_longest_per_family(self):
        long = FrozenStream(tuple(poisson_spec(64).generator().generate()))
        short = FrozenStream(tuple(poisson_spec(8).generator().generate()))
        cache = StreamCache()
        cache.install(poisson_spec(64).family, long)
        cache.install(poisson_spec(8).family, short)  # ignored: shorter
        assert len(cache) == 1
        assert len(cache._streams[poisson_spec(64).family]) == 64

    def test_shorter_installed_stream_triggers_regeneration(self):
        short = FrozenStream(tuple(poisson_spec(8).generator().generate()))
        cache = StreamCache({poisson_spec(8).family: short})
        full = cache.requests(poisson_spec(64))
        assert cache.misses == 1
        assert full == tuple(poisson_spec(64).generator().generate())


class TestSharedRequests:
    def test_without_cache_degrades_to_generation(self):
        arrivals = poisson_spec(16).generator()
        assert get_stream_cache() is None
        assert shared_requests(arrivals) == tuple(
            poisson_spec(16).generator().generate()
        )

    def test_with_cache_is_byte_identical(self):
        with activate_streams(StreamCache()) as cache:
            got = shared_requests(poisson_spec(16).generator())
            assert cache.misses == 1
        assert got == tuple(poisson_spec(16).generator().generate())
        assert get_stream_cache() is None  # scope restored

    def test_uncacheable_generator_falls_back(self):
        class Custom:
            def generate(self):
                return iter(())

        with activate_streams(StreamCache()) as cache:
            assert shared_requests(Custom()) == ()
            assert cache.misses == 0


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


class TestPoolBoundary:
    """End to end: a campaign's rows are byte-identical whether streams
    are re-generated in process, served from a shared cache, or shipped
    to pool workers through the initializer pickle."""

    def test_rows_identical_across_execution_modes(self, tmp_path):
        spec = _serve_spec()
        baseline = CampaignRunner(
            JsonlStore(tmp_path / "baseline.jsonl"), IsolatingExecutor()
        ).run(spec)
        with PoolExecutor(max_workers=2) as pool:
            pooled = CampaignRunner(
                JsonlStore(tmp_path / "pooled.jsonl"), pool
            ).run(spec)
        assert [r.canonical() for r in baseline.rows] == [
            r.canonical() for r in pooled.rows
        ]

    def test_planned_streams_survive_pickling(self, tmp_path):
        spec = _serve_spec()
        runner = CampaignRunner(JsonlStore(tmp_path / "s.jsonl"))
        script = spec.compile()
        step = script.steps[0]
        planned = runner._planned_items(script, step, frozenset(), {}, "")
        items = [
            item if item is not None else WorkItem(step=step, parameters=combo, index=i)
            for _, combo, i, item in planned
        ]
        streams = plan_streams(items)
        assert streams  # the serve sweep has exactly one arrival family
        thawed = pickle.loads(pickle.dumps(streams))
        for family, stream in streams.items():
            assert thawed[family].prefix(len(stream)) == stream.prefix(len(stream))
