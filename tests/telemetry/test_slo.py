"""Burn-rate monitor edges: fire, clear, min-events gating."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.obs.telemetry import BurnRateRule, SLOMonitor

pytestmark = pytest.mark.telemetry

#: A single tight rule so tests control both windows precisely.
RULE = BurnRateRule("test", short_window_s=5.0, long_window_s=20.0, threshold=2.0)


def monitor(min_events: int = 1) -> SLOMonitor:
    return SLOMonitor(objective=0.9, rules=(RULE,), min_events=min_events)


class TestFiring:
    def test_sustained_violations_fire_once(self):
        m = monitor()
        transitions = []
        for i in range(10):
            transitions += m.observe(0.1 * i, ok=False)
        fired = [t for t in transitions if t[0] == "fired"]
        assert len(fired) == 1
        assert fired[0][1].rule == "test"
        # Budget 0.1, violation fraction 1.0 -> burn rate 10x.
        assert fired[0][1].burn_rate_short == pytest.approx(10.0)
        assert [a for a in m.alerts if a.active] == [fired[0][1]]

    def test_healthy_stream_never_fires(self):
        m = monitor()
        for i in range(100):
            assert m.observe(0.05 * i, ok=True) == []
        assert m.alerts == []
        assert m.attainment == 1.0

    def test_fires_only_when_both_windows_burn(self):
        # Long window diluted with old successes: short window burns,
        # long window stays below threshold, no alert.
        m = monitor()
        for i in range(80):
            m.observe(0.2 * i, ok=True)  # 16 s of successes
        t = 16.0
        for i in range(6):
            m.observe(t + 0.1 * i, ok=False)
        # Short window fraction 6/some small count is high, but the long
        # window holds ~80 successes: burn_long < 2.0.
        assert m.alerts == []

    def test_min_events_gates_early_fire(self):
        gated = monitor(min_events=10)
        transitions = []
        for i in range(9):
            transitions += gated.observe(0.1 * i, ok=False)
        assert transitions == []  # nine violations: still below the gate
        transitions = gated.observe(0.9, ok=False)
        assert [kind for kind, _ in transitions] == ["fired"]


class TestClearing:
    def test_alert_clears_when_short_window_recovers(self):
        m = monitor()
        for i in range(10):
            m.observe(0.1 * i, ok=False)
        assert len([a for a in m.alerts if a.active]) == 1
        # Successes push the short-window violation fraction to zero
        # once the violations age past its 5 s span.
        transitions = []
        for i in range(30):
            transitions += m.observe(1.0 + 0.3 * i, ok=True)
        cleared = [t for t in transitions if t[0] == "cleared"]
        assert len(cleared) == 1
        alert = cleared[0][1]
        assert not alert.active
        assert alert.cleared_at_s is not None
        assert not any(a.active for a in m.alerts)

    def test_refire_after_clear_appends_new_alert(self):
        m = monitor()

        def burst(t0: float) -> None:
            for i in range(10):
                m.observe(t0 + 0.1 * i, ok=False)

        def recover(t0: float) -> None:
            for i in range(40):
                m.observe(t0 + 0.3 * i, ok=True)

        burst(0.0)
        recover(1.0)
        burst(60.0)
        assert len(m.alerts) == 2
        assert m.alerts[0].cleared_at_s is not None
        assert m.alerts[1].active

    def test_to_dict_carries_rules_and_alerts(self):
        m = monitor()
        for i in range(10):
            m.observe(0.1 * i, ok=False)
        doc = m.to_dict()
        assert doc["objective"] == 0.9
        assert doc["total"] == 10
        assert doc["violations"] == 10
        assert doc["attainment"] == 0.0
        assert doc["rules"][0]["name"] == "test"
        assert doc["alerts"][0]["cleared_at_s"] is None


class TestValidation:
    def test_objective_domain(self):
        with pytest.raises(ConfigError):
            SLOMonitor(objective=1.0)
        with pytest.raises(ConfigError):
            SLOMonitor(objective=0.0)

    def test_needs_rules(self):
        with pytest.raises(ConfigError):
            SLOMonitor(rules=())

    def test_rule_validation(self):
        with pytest.raises(ConfigError, match="short window exceeds"):
            BurnRateRule("bad", short_window_s=10.0, long_window_s=5.0, threshold=1.0)
        with pytest.raises(ConfigError, match="positive"):
            BurnRateRule("bad", short_window_s=0.0, long_window_s=5.0, threshold=1.0)
        with pytest.raises(ConfigError, match="threshold"):
            BurnRateRule("bad", short_window_s=1.0, long_window_s=5.0, threshold=0.0)
