"""Hypothesis differential fuzz: shipped serve simulators vs the oracle.

Randomized configurations (arrival seeds/rates, Poisson or session
traffic, token lengths, batch and queue caps, replica counts, routers,
autoscaling, disaggregated pool sizes, percentile modes) must satisfy,
on **both** the shipped simulators and the per-step reference loops of
``tests/serve_oracle.py``:

* byte-identical summary dictionaries (the differential property),
* request conservation — every offered request is either completed or
  shed, nothing in flight after the loop drains,
* energy closure — per-request attributed energy sums back to the
  cluster's busy (prefill+decode) energy to 1e-12 relative error.

The fixed-grid differential suite (``tests/serve/test_equivalence.py``)
pins the interesting corners; this one walks the space between them.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.inference import InferenceEngine
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.serve import PoissonArrivals, SessionArrivals
from repro.serve.cluster import AutoscalePolicy, DisaggregationSpec
from serve_oracle import CLUSTER_SIMULATORS, SERVING_SIMULATORS

pytestmark = [pytest.mark.serve]

ENGINE = InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))

arrival_configs = st.fixed_dictionaries(
    {
        "rate_per_s": st.integers(2, 80).map(float),
        "requests": st.integers(3, 16),
        "prompt_tokens": st.integers(16, 256),
        "generate_tokens": st.integers(1, 24),
        "length_spread": st.sampled_from([0.0, 0.25]),
        "seed": st.integers(0, 2**16),
    }
)
percentile_modes = st.sampled_from(["exact", "p2"])
ROUTERS = ["least-loaded", "prefix-cache-aware", "round-robin", "session-affinity"]


@st.composite
def cluster_arrivals(draw):
    """Poisson traffic, or session traffic whose prefix fits the prompt."""
    config = draw(arrival_configs)
    if draw(st.booleans()):
        return PoissonArrivals(**config)
    return SessionArrivals(
        sessions=draw(st.integers(1, 4)),
        prefix_tokens=draw(st.integers(0, config["prompt_tokens"])),
        **config,
    )


def summary_bytes(result):
    return json.dumps(result.summary.to_dict(), sort_keys=True)


def run_pair(simulators, make_sim, arrivals):
    """Run the same config on both simulators; return (reference, fast)."""
    results = []
    for name in ("reference", "fast"):
        set_metrics(MetricsRegistry())
        results.append(make_sim(simulators[name]).run(arrivals))
    return results


class TestSingleEngineDifferential:
    @given(
        arrivals=arrival_configs,
        batch_cap=st.integers(1, 8),
        queue_capacity=st.integers(1, 8),
        percentiles=percentile_modes,
    )
    @settings(max_examples=30, deadline=None)
    def test_summary_and_conservation(
        self, arrivals, batch_cap, queue_capacity, percentiles
    ):
        ref, fast = run_pair(
            SERVING_SIMULATORS,
            lambda simulator: simulator(
                ENGINE,
                batch_cap=batch_cap,
                queue_capacity=queue_capacity,
                percentile_mode=percentiles,
            ),
            PoissonArrivals(**arrivals),
        )
        assert summary_bytes(ref) == summary_bytes(fast)
        if percentiles == "exact":
            assert ref.records_json() == fast.records_json()
        for result in (ref, fast):
            s = result.summary
            assert s.offered == arrivals["requests"]
            assert s.completed + s.rejected == s.offered  # conservation
            assert len(result.rejected) == s.rejected


class TestClusterDifferential:
    @given(
        arrivals=cluster_arrivals(),
        batch_cap=st.integers(1, 8),
        queue_capacity=st.integers(1, 8),
        replicas=st.integers(1, 3),
        router=st.sampled_from(ROUTERS),
        percentiles=percentile_modes,
        scaling=st.sampled_from(["none", "autoscale", "disaggregate"]),
        pools=st.tuples(st.integers(1, 2), st.integers(1, 4)),
    )
    @settings(max_examples=30, deadline=None)
    def test_summary_conservation_and_energy_closure(
        self,
        arrivals,
        batch_cap,
        queue_capacity,
        replicas,
        router,
        percentiles,
        scaling,
        pools,
    ):
        autoscale = disagg = None
        if scaling == "autoscale":
            autoscale = AutoscalePolicy(min_replicas=1)
        elif scaling == "disaggregate":
            # Prefill and decode pool sizes; (2, 4) is the fleet of
            # hostbench's session run.
            disagg = DisaggregationSpec(
                prefill_replicas=pools[0], decode_replicas=pools[1]
            )
        ref, fast = run_pair(
            CLUSTER_SIMULATORS,
            lambda simulator: simulator(
                ENGINE,
                replicas=replicas,
                router=router,
                batch_cap=batch_cap,
                queue_capacity=queue_capacity,
                autoscale=autoscale,
                disaggregation=disagg,
                percentile_mode=percentiles,
            ),
            arrivals,
        )
        assert summary_bytes(ref) == summary_bytes(fast)
        if percentiles == "exact":
            assert ref.records_json() == fast.records_json()
        for result in (ref, fast):
            s = result.summary.serve
            assert s.offered == arrivals.requests
            assert s.completed + s.rejected == s.offered  # conservation
            assert len(result.rejected) == s.rejected
            if percentiles == "exact" and s.rejected == 0:
                # Energy closure: per-request attribution partitions
                # the fleet's busy energy exactly (idle, spin-up and
                # transfer energy are deliberately unattributed).
                attributed = math.fsum(
                    r.record.energy_wh for r in result.records
                )
                busy = result.summary.busy_energy_wh
                assert math.isclose(
                    attributed, busy, rel_tol=1e-12, abs_tol=1e-12
                )
