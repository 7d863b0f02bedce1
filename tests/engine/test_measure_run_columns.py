"""``measure_run`` integrates only the columns its result sums.

The per-device Wh and mean power equal what jpwr's all-column energy
frame gives for the active devices' primary columns, bit for bit, on
every Table I system with one device and with all of them, and when a
fault drops samples.  A single-engine serve run converts each frame
value to numpy once, although its attribution reads the frame before
the scope's closing sample and ``measure_run`` after it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.engine.trainer as trainer
import repro.jpwr.frame as frame_module
from repro.engine.inference import InferenceEngine
from repro.engine.trainer import measure_run, primary_energy_labels
from repro.faults import FaultInjector, FaultPlan, FaultSpec, activate_injection
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.jpwr.energy import TIME_COLUMN, energy_frame
from repro.models.transformer import get_gpt_preset
from repro.serve import PoissonArrivals, ServingSimulator


def _body(scopes):
    """A run with fused cycles, single phases and idle, keeping its scope."""

    def body(runner, clock):
        scopes.append(runner.scope)
        runner.idle(0.3)
        runner.run_phases(((0.15, 0.9), (0.05, 0.25)), 12)
        runner.run_phase(0.4, 0.6)
        runner.run_phases(((0.07, 0.75), (0.0, 0.1), (0.02, 0.3)), 9)
        runner.idle(0.1)

    return body


def _all_column_result(scope, devices_used, elapsed):
    """Per-device Wh and mean power from jpwr's all-column energy frame
    of a copy of the run's frame (which keeps no converted arrays)."""
    edf = energy_frame(scope.df.copy())
    active = [SimpleNamespace(index=i) for i in range(devices_used)]
    labels = primary_energy_labels(edf.columns, active)
    assert len(labels) == devices_used
    wh = sum(edf.row(0)[label] for label in labels) / len(labels)
    return wh, wh * 3600.0 / elapsed


def _measure(tag, devices_used):
    scopes = []
    _, elapsed, wh, power = measure_run(get_system(tag), devices_used, _body(scopes))
    return scopes[0], elapsed, wh, power


@pytest.mark.parametrize("tag", SYSTEM_TAGS)
@pytest.mark.parametrize("all_devices", [False, True], ids=["one", "all"])
def test_per_device_result_equals_all_column_frame(tag, all_devices):
    node = get_system(tag)
    devices_used = node.logical_devices_per_node if all_devices else 1
    scope, elapsed, wh, power = _measure(tag, devices_used)
    assert (wh, power) == _all_column_result(scope, devices_used, elapsed)
    assert wh > 0


@pytest.mark.parametrize("tag", ["A100", "GH200", "MI250", "GC200"])
def test_dropped_samples_keep_the_equality(tag):
    plan = FaultPlan(
        name="dropout",
        seed=0,
        faults=(FaultSpec(kind="sensor_dropout", at_time_s=1.0, duration_s=1.5),),
    )
    injection = FaultInjector(plan).scope_for("llm", 0, {"system": tag})
    with activate_injection(injection):
        scope, elapsed, wh, power = _measure(tag, 1)
    assert scope.dropped_samples > 0
    assert (wh, power) == _all_column_result(scope, 1, elapsed)


class _CountingNumpy:
    """numpy, counting the values ``asarray`` converts."""

    def __init__(self):
        self.converted = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, values, dtype=None):
        self.converted += len(values)
        return np.asarray(values, dtype=dtype)


def test_serve_run_converts_each_frame_value_once(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(frame_module, "np", counting)
    scopes = []
    get_power = trainer.get_power

    def keep_scope(*args, **kwargs):
        manager = get_power(*args, **kwargs)
        scopes.append(manager.scope)
        return manager

    monkeypatch.setattr(trainer, "get_power", keep_scope)
    engine = InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))
    arrivals = PoissonArrivals(
        rate_per_s=10.0, requests=12, prompt_tokens=128, generate_tokens=16, seed=0
    )
    served = ServingSimulator(engine, batch_cap=4).run(arrivals)
    assert served.summary.energy_wh > 0  # the attribution read the frame
    (scope,) = scopes
    df = scope.df
    read = [TIME_COLUMN, *primary_energy_labels(df.columns, [SimpleNamespace(index=0)])]
    assert read == [TIME_COLUMN, "gpu0"]
    assert len(df.columns) > len(read)  # the GH200 module rails stay unread
    # The attribution converts the rows before the closing sample and
    # measure_run only the rows appended since.
    assert counting.converted == len(read) * len(df)
