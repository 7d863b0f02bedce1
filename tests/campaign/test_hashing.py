"""Content-address stability and sensitivity."""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.sensitivity import perturbed_calibration
from repro.campaign import hashing
from repro.campaign.hashing import (
    KEY_LENGTH,
    calibration_fingerprint,
    canonical_json,
    result_key,
    step_fingerprint,
)
from repro.engine.calibration import SystemCalibration
from repro.hardware.custom import temporary_system
from repro.hardware.systems import get_system
from repro.jube.steps import Step


def _step(**kwargs) -> Step:
    defaults = dict(name="train", operations=("emit --value $x",))
    defaults.update(kwargs)
    return Step(**defaults)


class TestFingerprints:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_step_fingerprint_depends_only_on_operations(self):
        base = step_fingerprint(_step())
        assert step_fingerprint(_step(name="other")) == base
        assert step_fingerprint(_step(depends=("prep",))) == base
        assert step_fingerprint(_step(operations=("emit --value $y",))) != base

    def test_calibration_fingerprint_is_stable(self):
        assert calibration_fingerprint() == calibration_fingerprint()
        assert len(calibration_fingerprint()) == KEY_LENGTH

    def test_calibration_fingerprint_memo_follows_the_entries(self):
        def uncached() -> str:
            kept = list(hashing._fingerprint_memo)
            hashing._fingerprint_memo[:] = [None, ""]
            try:
                return calibration_fingerprint()
            finally:
                hashing._fingerprint_memo[:] = kept

        base = calibration_fingerprint()
        assert base == uncached()
        node = replace(get_system("A100"), name="A100-custom", jube_tag="A100X")
        calibration = SystemCalibration(mfu_llm=0.3, mfu_cnn=0.1, cnn_batch_half=4.0)
        with temporary_system(node, calibration):
            registered = calibration_fingerprint()
            assert registered == uncached() != base
        assert calibration_fingerprint() == uncached() == base
        with perturbed_calibration("A100", "mfu_llm", 0.9):
            perturbed = calibration_fingerprint()
            assert perturbed == uncached() not in (base, registered)
        assert calibration_fingerprint() == uncached() == base


class TestResultKey:
    def test_stable_across_calls(self):
        a = result_key(_step(), {"x": "1"})
        b = result_key(_step(), {"x": "1"})
        assert a == b
        assert len(a) == KEY_LENGTH

    def test_accepts_precomputed_fingerprint(self):
        assert result_key(step_fingerprint(_step()), {"x": "1"}) == result_key(
            _step(), {"x": "1"}
        )

    def test_sensitive_to_parameters(self):
        assert result_key(_step(), {"x": "1"}) != result_key(_step(), {"x": "2"})

    def test_sensitive_to_seeded_outputs(self):
        bare = result_key(_step(), {"x": "1"})
        seeded = result_key(_step(), {"x": "1"}, {"tokens": 42})
        assert bare != seeded

    def test_sensitive_to_calibration(self):
        real = result_key(_step(), {"x": "1"})
        other = result_key(_step(), {"x": "1"}, calibration_hash="0" * KEY_LENGTH)
        assert real != other

    def test_parameter_order_is_irrelevant(self):
        assert result_key(_step(), {"a": "1", "b": "2"}) == result_key(
            _step(), {"b": "2", "a": "1"}
        )


class TestResultKeyer:
    """The memoized keyer must be byte-identical to result_key."""

    CASES = [
        ({"a": "1", "b": "2"}, None),
        ({"b": "2", "a": "1"}, None),  # order-insensitive
        ({}, None),
        ({"x": "1"}, {"tokens": "42"}),
        ({"x": "1"}, {}),  # empty seeded == no seeded
        ({"uni": "é — 中文"}, None),  # non-ASCII escapes
        ({"quote": 'he said "hi"\n\t\\'}, None),  # JSON escapes
        ({"n": 5}, None),  # non-string value: canonical_json fallback
        ({"x": "1"}, {"obj": object()}),  # default=str fallback
    ]

    def test_matches_result_key(self):
        from repro.campaign.hashing import ResultKeyer

        cal = "c" * KEY_LENGTH
        for fault_hash in (None, "f" * KEY_LENGTH):
            keyer = ResultKeyer(_step(), cal, fault_hash)
            for params, seeded in self.CASES:
                assert keyer.key(params, seeded) == result_key(
                    _step(), params, seeded, cal, fault_hash=fault_hash
                ), (params, seeded, fault_hash)

    def test_accepts_precomputed_step_hash(self):
        from repro.campaign.hashing import ResultKeyer

        cal = "c" * KEY_LENGTH
        step_hash = step_fingerprint(_step())
        assert ResultKeyer(step_hash, cal).key({"x": "1"}) == ResultKeyer(
            _step(), cal
        ).key({"x": "1"})

    def test_default_calibration_matches(self):
        from repro.campaign.hashing import ResultKeyer

        assert ResultKeyer(_step()).key({"x": "1"}) == result_key(
            _step(), {"x": "1"}
        )
