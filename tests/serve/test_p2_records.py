"""p2 percentile mode must *refuse* per-request records, not fake them.

A ``percentile_mode="p2"`` run streams completions into O(1) sketches
and never materializes records; asking for them is a configuration
contradiction and raises :class:`~repro.errors.ConfigError` — loudly,
instead of silently returning an empty tuple the caller would happily
aggregate into nonsense.  A p2 cluster run folds each record when its
request completes, so it also holds nothing per completed request.
"""

from __future__ import annotations

import io
import tracemalloc

import pytest

from repro.core.cli import run as cli_run
from repro.engine.inference import InferenceEngine
from repro.errors import ConfigError
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.serve import NO_RECORDS_MESSAGE, PoissonArrivals, SessionArrivals
from repro.serve.cluster import ClusterSimulator, DisaggregationSpec
from repro.serve.simulator import ServingSimulator

pytestmark = [pytest.mark.serve]

ARRIVALS = PoissonArrivals(
    rate_per_s=10.0, requests=12, prompt_tokens=128, generate_tokens=16, seed=0
)


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


@pytest.fixture
def engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


def single(engine, mode):
    return ServingSimulator(engine, batch_cap=8, percentile_mode=mode).run(
        ARRIVALS
    )


def cluster(engine, mode):
    return ClusterSimulator(
        engine, replicas=2, batch_cap=8, percentile_mode=mode
    ).run(ARRIVALS)


class TestP2RefusesRecords:
    @pytest.mark.parametrize("runner", [single, cluster], ids=["serve", "cluster"])
    def test_records_raises_config_error(self, engine, runner):
        result = runner(engine, "p2")
        assert not result.has_records
        with pytest.raises(ConfigError, match="percentile_mode='p2'"):
            result.records
        with pytest.raises(ConfigError, match="exact"):
            result.records_json()

    @pytest.mark.parametrize("runner", [single, cluster], ids=["serve", "cluster"])
    def test_exact_mode_still_serves_records(self, engine, runner):
        result = runner(engine, "exact")
        assert result.has_records
        summary = result.summary
        serve = getattr(summary, "serve", summary)
        assert len(result.records) == serve.completed

    def test_message_names_the_remedy(self):
        assert "p2" in NO_RECORDS_MESSAGE
        assert "exact" in NO_RECORDS_MESSAGE


class TestCLIRejectsContradiction:
    def test_requests_json_with_p2_fails_eagerly(self, tmp_path):
        out = io.StringIO()
        args = [
            "serve",
            "--system",
            "GH200",
            "--rate",
            "10",
            "--requests",
            "8",
            "--percentiles",
            "p2",
            "--requests-json",
            str(tmp_path / "records.json"),
        ]
        with pytest.raises(ConfigError, match="--percentiles exact"):
            cli_run(args, stdout=out)
        assert not (tmp_path / "records.json").exists()

    def test_requests_json_with_exact_still_works(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "records.json"
        code = cli_run(
            [
                "serve",
                "--system",
                "GH200",
                "--rate",
                "10",
                "--requests",
                "8",
                "--requests-json",
                str(path),
            ],
            stdout=out,
        )
        assert code == 0
        assert path.exists()


def _fleet(engine, **kwargs):
    """A p2 cluster run that keeps a handle on its event loop."""
    loops = []

    class Watched(ClusterSimulator):
        def _make_loop(self, requests, clock):
            loops.append(super()._make_loop(requests, clock))
            return loops[-1]

    sim = Watched(engine, batch_cap=16, percentile_mode="p2", **kwargs)
    return sim, loops


class _Generated:
    """A stream generated up front, so a traced run allocates none of it."""

    def __init__(self, requests) -> None:
        self.requests = requests

    def generate(self):
        return self.requests


#: The loop's per-request bookkeeping: none may outlive a p2 run.
PER_REQUEST = (
    "finished",
    "admitted_at",
    "prefill_replica",
    "decode_replica",
    "prefix_hit",
    "transfer_s",
    "energy_wh",
    "prefill_wh",
    "cursor_snap",
)


class TestP2FoldsAtCompletion:
    @pytest.mark.parametrize(
        "arrivals,kwargs",
        [
            (ARRIVALS, {"replicas": 2}),
            (
                SessionArrivals(
                    rate_per_s=40.0, requests=60, sessions=4, prompt_tokens=256,
                    prefix_tokens=128, generate_tokens=16, seed=3,
                ),
                {
                    "router": "prefix-cache-aware",
                    "disaggregation": DisaggregationSpec(
                        prefill_replicas=1, decode_replicas=2
                    ),
                },
            ),
        ],
        ids=["unified", "disaggregated-sessions"],
    )
    def test_no_per_request_entry_is_left(self, engine, arrivals, kwargs):
        sim, loops = _fleet(engine, **kwargs)
        summary = sim.run(arrivals).summary
        assert summary.serve.completed == len(arrivals.generate())
        (loop,) = loops
        for name in PER_REQUEST:
            assert not getattr(loop, name), name
        if "disaggregation" in kwargs:
            assert summary.transfers and summary.prefix_hits

    def test_peak_memory_grows_little_with_the_request_count(self, engine):
        # The 4-replica least-loaded fleet near capacity: the traced peak
        # of a p2 run grew by about 2.35 MB from 2,000 to 6,000 requests
        # while the loop kept every completion until the run ended.
        peaks = []
        for requests in (2000, 6000):
            stream = _Generated(
                PoissonArrivals(
                    rate_per_s=380.0, requests=requests, prompt_tokens=512,
                    generate_tokens=96, length_spread=0.25, seed=1,
                ).generate()
            )
            sim = ClusterSimulator(
                engine, replicas=4, router="least-loaded", batch_cap=16,
                percentile_mode="p2",
            )
            tracemalloc.start()
            try:
                sim.run(stream)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2.35e6 / 2
