"""Differential equivalence: the shipped simulators vs the oracle.

The guard rail behind the serve hot path: every observable output of a
run — the summary dict, the per-request record JSON, the rejected set,
trace-sink records, SLO alerts, the OpenMetrics render and the
telemetry timeseries export — must be **byte-identical** between the
shipped simulators ("fast") and the per-step reference loops of
``tests/serve_oracle.py`` ("reference") across the configuration grid
(arrival processes x routers x autoscaling x fault plans x
disaggregation x percentile modes).  Any drift, however small, is a bug
in the shipped loop, never tolerance-worthy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine.inference import InferenceEngine, InferenceWorkload
from repro.faults import FaultInjector, FaultPlan, FaultSpec, activate_injection
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.sinks import InMemorySink
from repro.obs.telemetry import (
    SLOMonitor,
    TelemetrySampler,
    render_openmetrics,
    write_timeseries_jsonl,
)
from repro.obs.trace import Tracer, activate
from repro.serve import (
    BurstArrivals,
    PoissonArrivals,
    SessionArrivals,
    SLOPolicy,
    TraceArrivals,
)
from repro.serve.cluster import AutoscalePolicy, DisaggregationSpec
from repro.simcluster.clock import VirtualClock
from serve_oracle import CLUSTER_SIMULATORS, SERVING_SIMULATORS

ENGINE_REFERENCE, ENGINE_FAST = "reference", "fast"

pytestmark = [pytest.mark.serve]

POISSON = PoissonArrivals(
    rate_per_s=10.0,
    requests=32,
    prompt_tokens=256,
    generate_tokens=32,
    length_spread=0.25,
    seed=0,
)
BURSTS = BurstArrivals(bursts=((0.0, 12), (20.0, 14)), generate_tokens=48)
SESSIONS = SessionArrivals(
    rate_per_s=8.0,
    requests=36,
    sessions=4,
    prompt_tokens=512,
    prefix_tokens=384,
    generate_tokens=48,
    seed=0,
)
FLOOD = PoissonArrivals(
    rate_per_s=500.0,
    requests=48,
    prompt_tokens=256,
    generate_tokens=24,
    seed=3,
)
LONG = BurstArrivals(bursts=((0.0, 6), (30.0, 4)), generate_tokens=300)
#: A first burst that queues long enough on one replica for the
#: autoscaler to start another, and a second burst that the started
#: replica serves once ready.
SCALE_UP = BurstArrivals(bursts=((0.0, 24), (3.5, 24)), generate_tokens=600)
ARRIVALS = {"poisson": POISSON, "bursts": BURSTS, "sessions": SESSIONS}
TRACED = pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])


def with_untraced(values):
    """``(value, traced)`` cases: each value traced, then untraced.

    The traced cases keep the bare value as their id, so they keep the
    ids they had before untraced runs joined them.
    """
    return [pytest.param(v, True, id=str(v)) for v in values] + [
        pytest.param(v, False, id=f"{v}-untraced") for v in values
    ]


def _engine(system="GH200", preset="800M"):
    return InferenceEngine(get_system(system), get_gpt_preset(preset))


def _kv_bound(rate_per_s):
    """A100 / 13B traffic whose KV budget holds three sequences.

    Each request reserves 3,800 tokens of context, so the fourth
    sequence never fits while three are decoding: the queue head waits
    with the batch below its cap of 8.
    """
    return PoissonArrivals(
        rate_per_s=rate_per_s,
        requests=40,
        prompt_tokens=3_600,
        generate_tokens=200,
        seed=5,
    )


def _arrival_on_step_boundary(steps):
    """Two requests; the second arrives exactly at the end of decode step
    ``steps`` of the first, which runs alone from t=0.

    The boundary is the loop's own fold: ``t += prefill``, then
    ``t += step`` once per decode step, starting from zero.
    """
    engine = _engine()
    prompt, generate = 256, 4 * steps
    t = 0.0
    t += engine.prefill_time_s(
        InferenceWorkload(
            prompt_tokens=prompt, generate_tokens=generate, batch_size=1
        )
    )
    step_s = engine.decode_step_time_s(1)
    for _ in range(steps):
        t += step_s
    return TraceArrivals(entries=((0.0, prompt, generate), (t, prompt, generate)))


def _fault_scope(*faults):
    plan = FaultPlan(name="serve-equiv", seed=0, faults=tuple(faults))
    return FaultInjector(plan).scope_for("serve", 0, {"system": "GH200"})


def _payload(result, sink, sampler, tmp_path, mode):
    """Every observable byte a run produced, as comparable strings."""
    out = {
        "summary": json.dumps(result.summary.to_dict(), sort_keys=True),
        "records": result.records_json() if result.has_records else None,
        "rejected": [r.index for r in result.rejected],
        "alerts": json.dumps(result.alerts, sort_keys=True),
        "openmetrics": render_openmetrics(get_metrics()),
        "elapsed_s": result.train.elapsed_s,
    }
    if sink is not None:
        out["trace"] = json.dumps(sink.records, sort_keys=True, default=repr)
    if sampler is not None:
        path = tmp_path / f"{mode}.timeseries.jsonl"
        write_timeseries_jsonl(sampler, path)
        out["timeseries"] = path.read_text()
    return out


def run_single(
    mode,
    tmp_path,
    *,
    arrivals=POISSON,
    percentile_mode="exact",
    queue_capacity=256,
    slo=None,
    faults=(),
    telemetry=False,
    traced=True,
    engine=None,
):
    """One single-engine run; returns its full observable payload."""
    set_metrics(MetricsRegistry())
    sampler = TelemetrySampler() if telemetry else None
    monitor = SLOMonitor() if telemetry else None
    sim = SERVING_SIMULATORS[mode](
        engine or _engine(),
        batch_cap=8,
        queue_capacity=queue_capacity,
        slo=slo or SLOPolicy(),
        telemetry=sampler,
        slo_monitor=monitor,
        percentile_mode=percentile_mode,
    )
    scope = _fault_scope(*faults) if faults else None
    sink = InMemorySink() if traced else None
    if traced:
        with activate(Tracer(clock=VirtualClock(), sinks=[sink])):
            with activate_injection(scope):
                result = sim.run(arrivals)
    else:
        with activate_injection(scope):
            result = sim.run(arrivals)
    return _payload(result, sink, sampler, tmp_path, mode)


def run_cluster(
    mode,
    tmp_path,
    *,
    arrivals=POISSON,
    percentile_mode="exact",
    replicas=2,
    router="round-robin",
    queue_capacity=256,
    autoscale=None,
    disaggregation=None,
    slo=None,
    telemetry=False,
    traced=True,
    engine=None,
):
    """One cluster run; returns its full observable payload."""
    set_metrics(MetricsRegistry())
    sampler = TelemetrySampler() if telemetry else None
    monitor = SLOMonitor() if telemetry else None
    sim = CLUSTER_SIMULATORS[mode](
        engine or _engine(),
        replicas=replicas,
        router=router,
        batch_cap=8,
        queue_capacity=queue_capacity,
        slo=slo or SLOPolicy(),
        autoscale=autoscale,
        disaggregation=disaggregation,
        telemetry=sampler,
        slo_monitor=monitor,
        percentile_mode=percentile_mode,
    )
    sink = InMemorySink() if traced else None
    if traced:
        with activate(Tracer(clock=VirtualClock(), sinks=[sink])):
            result = sim.run(arrivals)
    else:
        result = sim.run(arrivals)
    return _payload(result, sink, sampler, tmp_path, mode)


def assert_identical(ref, fast):
    """Byte-compare every payload entry, naming the first that differs."""
    assert set(ref) == set(fast)
    for key in sorted(ref):
        assert ref[key] == fast[key], f"engines diverge on {key!r}"


class TestSingleEngineEquivalence:
    """ServingSimulator: shipped vs oracle, all observables."""

    @pytest.mark.parametrize("name,traced", with_untraced(sorted(ARRIVALS)))
    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_arrival_grid(self, tmp_path, name, percentiles, traced):
        kw = dict(
            arrivals=ARRIVALS[name], percentile_mode=percentiles, traced=traced
        )
        assert_identical(
            run_single(ENGINE_REFERENCE, tmp_path, **kw),
            run_single(ENGINE_FAST, tmp_path, **kw),
        )

    def test_untraced_run(self, tmp_path):
        # No tracer, no sampler: the shipped loop defers its gauge writes,
        # but the final registry state must still match byte-for-byte.
        assert_identical(
            run_single(ENGINE_REFERENCE, tmp_path, traced=False),
            run_single(ENGINE_FAST, tmp_path, traced=False),
        )

    @pytest.mark.parametrize("percentiles,traced", with_untraced(["exact", "p2"]))
    def test_saturated_queue_rejections(self, tmp_path, percentiles, traced):
        kw = dict(
            arrivals=FLOOD,
            queue_capacity=4,
            percentile_mode=percentiles,
            traced=traced,
        )
        ref = run_single(ENGINE_REFERENCE, tmp_path, **kw)
        assert ref["rejected"], "flood must shed load for this test to bite"
        assert_identical(ref, run_single(ENGINE_FAST, tmp_path, **kw))

    @pytest.mark.parametrize(
        "rate,queue_capacity", [(2.0, 256), (6.0, 256), (20.0, 4)]
    )
    @TRACED
    def test_kv_bound_queue_head_waits(
        self, tmp_path, rate, queue_capacity, traced
    ):
        # The batch stays below its cap while the queue head waits for
        # KV: arrivals then change nothing until the next completion.
        kw = dict(
            arrivals=_kv_bound(rate),
            queue_capacity=queue_capacity,
            engine=_engine("A100", "13B"),
            traced=traced,
        )
        ref = run_single(ENGINE_REFERENCE, tmp_path, **kw)
        records = json.loads(ref["records"])
        assert max(r["admitted_s"] - r["arrival_s"] for r in records) > 1.0
        assert bool(ref["rejected"]) == (queue_capacity == 4)
        assert_identical(ref, run_single(ENGINE_FAST, tmp_path, **kw))

    @TRACED
    def test_arrival_on_a_step_boundary(self, tmp_path, traced):
        # The second request arrives exactly when a decode step ends;
        # per-step stepping ingests it there (arrival <= now) and admits
        # it before the next step.
        kw = dict(arrivals=_arrival_on_step_boundary(5), traced=traced)
        ref = run_single(ENGINE_REFERENCE, tmp_path, **kw)
        (second,) = [r for r in json.loads(ref["records"]) if r["index"] == 1]
        assert second["admitted_s"] == second["arrival_s"]
        assert_identical(ref, run_single(ENGINE_FAST, tmp_path, **kw))

    @pytest.mark.parametrize(
        "faults",
        [
            (FaultSpec(kind="straggler", magnitude=3.0),),
            (FaultSpec(kind="sensor_dropout", at_time_s=0.05, duration_s=0.3),),
            (FaultSpec(kind="sensor_spike", magnitude=-1e9),),
        ],
        ids=["straggler", "sensor-dropout", "zero-power"],
    )
    def test_fault_plans(self, tmp_path, faults):
        kw = dict(faults=faults)
        assert_identical(
            run_single(ENGINE_REFERENCE, tmp_path, **kw),
            run_single(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_telemetry_and_alerts(self, tmp_path, percentiles):
        kw = dict(
            arrivals=BURSTS,
            slo=SLOPolicy(ttft_s=0.02, e2e_s=0.3),
            telemetry=True,
            percentile_mode=percentiles,
        )
        ref = run_single(ENGINE_REFERENCE, tmp_path, **kw)
        assert json.loads(ref["alerts"]), "tight SLO under burst must alert"
        assert_identical(ref, run_single(ENGINE_FAST, tmp_path, **kw))


class TestClusterEquivalence:
    """ClusterSimulator: shipped vs oracle, all observables."""

    @pytest.mark.parametrize(
        "router,name",
        [
            ("round-robin", "poisson"),
            ("least-loaded", "poisson"),
            ("least-loaded", "bursts"),
            ("session-affinity", "sessions"),
        ],
    )
    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_router_grid(self, tmp_path, router, name, percentiles):
        kw = dict(
            arrivals=ARRIVALS[name],
            replicas=3,
            router=router,
            percentile_mode=percentiles,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("pools", [(1, 2), (2, 2)])
    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_disaggregated(self, tmp_path, pools, percentiles):
        prefill, decode = pools
        kw = dict(
            replicas=prefill + decode,
            disaggregation=DisaggregationSpec(
                prefill_replicas=prefill, decode_replicas=decode
            ),
            percentile_mode=percentiles,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("pools", [(1, 2), (2, 2)])
    def test_disaggregated_under_burst(self, tmp_path, pools):
        # Back-to-back prefills keep KV transfers landing while decode
        # replicas run: a transfer delivered into a replica's empty
        # queue with a free batch slot cuts that replica's fused run at
        # the first step boundary at or after the delivery, where
        # per-step stepping admits the transferred request.
        prefill, decode = pools
        kw = dict(
            arrivals=BURSTS,
            replicas=prefill + decode,
            disaggregation=DisaggregationSpec(
                prefill_replicas=prefill, decode_replicas=decode
            ),
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_long_decode_runs(self, tmp_path, percentiles):
        # 300-token generations with no arrival pending: the shipped
        # loop folds runs of hundreds of steps in one scalar loop.
        kw = dict(
            arrivals=LONG,
            replicas=2,
            telemetry=True,
            percentile_mode=percentiles,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("name", ["poisson", "bursts"])
    def test_autoscaled(self, tmp_path, name):
        kw = dict(
            arrivals=ARRIVALS[name],
            replicas=4,
            autoscale=AutoscalePolicy(min_replicas=1),
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    def test_autoscaled_started_replica_serves(self, tmp_path):
        # The oracle checks for ready spin-ups at every event; the
        # shipped loop only when an autoscaler exists.  Here one does,
        # and a replica it starts takes part of the second burst.  The
        # spin-up delay puts the replica's ready time between two
        # autoscaler evaluations, so only its own event reaches it.
        kw = dict(
            arrivals=SCALE_UP,
            replicas=4,
            autoscale=AutoscalePolicy(min_replicas=1, spinup_delay_s=1.5),
            telemetry=True,
        )
        ref = run_cluster(ENGINE_REFERENCE, tmp_path, **kw)
        assert json.loads(ref["summary"])["cluster_spinups"] >= 1
        assert {r["decode_replica"] for r in json.loads(ref["records"])} != {0}
        assert_identical(ref, run_cluster(ENGINE_FAST, tmp_path, **kw))

    def test_autoscaled_zero_spinup_delay(self, tmp_path):
        # A replica started with no delay is ready at the evaluation
        # that starts it: its ready event is due at that same instant.
        kw = dict(
            arrivals=SCALE_UP,
            replicas=4,
            autoscale=AutoscalePolicy(min_replicas=1, spinup_delay_s=0.0),
            telemetry=True,
        )
        ref = run_cluster(ENGINE_REFERENCE, tmp_path, **kw)
        assert json.loads(ref["summary"])["cluster_spinups"] >= 1
        assert_identical(ref, run_cluster(ENGINE_FAST, tmp_path, **kw))

    def test_autoscaled_stall_raises(self):
        # Replicas the autoscaler starts never turn RUNNING, so the work
        # routed to them waits for ever and only evaluations are left.
        # The loop must raise the event-heap underflow instead of
        # re-arming evaluations without end; a subprocess bounds the
        # wall time of a loop that does not.
        script = textwrap.dedent(
            """
            from repro.errors import MeasurementError
            from repro.obs.telemetry import SLOMonitor, TelemetrySampler
            from repro.serve.cluster import AutoscalePolicy, ClusterSimulator
            from repro.serve.cluster.fastsim import _ClusterLoop
            from test_equivalence import SCALE_UP, _engine

            _ClusterLoop._replica_transitions = lambda self, now: None
            sim = ClusterSimulator(
                _engine(),
                replicas=4,
                batch_cap=8,
                autoscale=AutoscalePolicy(min_replicas=1, spinup_delay_s=1.5),
                telemetry=TelemetrySampler(),
                slo_monitor=SLOMonitor(),
            )
            try:
                sim.run(SCALE_UP)
            except MeasurementError as error:
                print(error)
            """
        )
        here = Path(__file__).resolve().parent
        src = here.parents[1] / "src"
        path = os.pathsep.join(str(p) for p in (src, here.parent, here))
        try:
            done = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("the stalled cluster run did not raise within 60 s")
        assert done.returncode == 0, done.stderr
        assert "event-heap underflow" in done.stdout

    @pytest.mark.parametrize("steps", [1, 5])
    @TRACED
    def test_arrival_on_a_step_boundary(self, tmp_path, steps, traced):
        # The second request reaches the only replica exactly when a
        # step of its decode run ends: per-step stepping finishes that
        # step, routes the request and admits it at the same instant.
        kw = dict(
            arrivals=_arrival_on_step_boundary(steps), replicas=1, traced=traced
        )
        ref = run_cluster(ENGINE_REFERENCE, tmp_path, **kw)
        (second,) = [r for r in json.loads(ref["records"]) if r["index"] == 1]
        assert second["admitted_s"] == second["arrival_s"]
        assert_identical(ref, run_cluster(ENGINE_FAST, tmp_path, **kw))

    @pytest.mark.parametrize(
        "rate,queue_capacity", [(2.0, 256), (6.0, 256), (20.0, 4)]
    )
    @pytest.mark.parametrize("replicas", [1, 2])
    @TRACED
    def test_kv_bound_queue_head_waits(
        self, tmp_path, rate, queue_capacity, replicas, traced
    ):
        # A replica's queue head waits for KV with the batch below its
        # cap: requests routed behind it change nothing before the next
        # completion.
        kw = dict(
            arrivals=_kv_bound(rate),
            queue_capacity=queue_capacity,
            engine=_engine("A100", "13B"),
            replicas=replicas,
            router="least-loaded",
            traced=traced,
        )
        ref = run_cluster(ENGINE_REFERENCE, tmp_path, **kw)
        records = json.loads(ref["records"])
        assert max(r["admitted_s"] - r["arrival_s"] for r in records) > 1.0
        assert bool(ref["rejected"]) == (queue_capacity == 4)
        assert_identical(ref, run_cluster(ENGINE_FAST, tmp_path, **kw))

    def test_autoscaled_session_affinity(self, tmp_path):
        # Autoscaling + prefix-heavy session traffic through the
        # affinity router (autoscale and disaggregation are mutually
        # exclusive by configuration).
        kw = dict(
            arrivals=SESSIONS,
            replicas=4,
            router="session-affinity",
            autoscale=AutoscalePolicy(min_replicas=2),
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    def test_disaggregated_sessions(self, tmp_path):
        kw = dict(
            arrivals=SESSIONS,
            replicas=4,
            router="session-affinity",
            disaggregation=DisaggregationSpec(
                prefill_replicas=1, decode_replicas=3
            ),
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    def test_saturated_cluster_sheds_identically(self, tmp_path):
        flood = PoissonArrivals(
            rate_per_s=500.0,
            requests=48,
            prompt_tokens=256,
            generate_tokens=96,
            seed=3,
        )
        kw = dict(arrivals=flood, replicas=2, queue_capacity=1)
        ref = run_cluster(ENGINE_REFERENCE, tmp_path, **kw)
        assert ref["rejected"], "flood must shed load for this test to bite"
        assert_identical(ref, run_cluster(ENGINE_FAST, tmp_path, **kw))

    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_telemetry_and_alerts(self, tmp_path, percentiles):
        kw = dict(
            arrivals=BURSTS,
            replicas=2,
            slo=SLOPolicy(ttft_s=0.02, e2e_s=0.3),
            telemetry=True,
            percentile_mode=percentiles,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )
