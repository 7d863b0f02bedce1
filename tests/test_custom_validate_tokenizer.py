"""Tests for custom system registration, the validation gate, and
tokenizer persistence."""

import json
import re

import pytest

from repro.analysis.validate import validate_reproduction, validation_summary
from repro.data.tokenizer import BPETokenizer
from repro.engine.calibration import SystemCalibration, get_calibration
from repro.errors import DataError, HardwareError
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cpu import get_cpu
from repro.hardware.custom import register_system, temporary_system
from repro.hardware.interconnect import LinkTechnology, get_link
from repro.hardware.node import NodeSpec
from repro.hardware.systems import get_system
from repro.units import gb


def make_custom_node(tag="CUSTOM"):
    """A hypothetical 8x H100-SXM node."""
    return NodeSpec(
        name="Custom H100 octo-node",
        jube_tag=tag,
        accelerator=get_accelerator("H100-SXM5"),
        accelerators_per_node=8,
        cpu=get_cpu("EPYC-7742"),
        cpu_sockets=2,
        cpu_memory_bytes=gb(1024),
        cpu_accel_link=get_link(LinkTechnology.PCIE_GEN5),
        accel_accel_link=get_link(LinkTechnology.NVLINK4),
        internode_link=get_link(LinkTechnology.NONE),
        package_tdp_watts=700.0,
    )


CUSTOM_CAL = SystemCalibration(mfu_llm=0.25, mfu_cnn=0.06, cnn_batch_half=8.0)


class TestCustomSystems:
    def test_register_and_use_everywhere(self):
        with temporary_system(make_custom_node(), CUSTOM_CAL):
            node = get_system("CUSTOM")
            assert node.logical_devices_per_node == 8
            assert get_calibration("CUSTOM").mfu_llm == 0.25
            # The whole stack works on the custom system.
            from repro.core.suite import CaramlSuite

            result = CaramlSuite().run_llm(
                "CUSTOM", global_batch_size=64, exit_duration_s=10
            )
            assert result.devices == 8

    def test_cannot_shadow_paper_systems(self):
        node = make_custom_node(tag="A100")
        with pytest.raises(HardwareError, match="already registered"):
            register_system(node, CUSTOM_CAL)

    def test_explicit_replace_allowed_and_restorable(self):
        original = get_system("A100")
        with temporary_system(make_custom_node(tag="A100"), CUSTOM_CAL):
            assert get_system("A100").accelerators_per_node == 8
        assert get_system("A100") is original

    def test_temporary_system_cleans_up_new_tags(self):
        with temporary_system(make_custom_node(), CUSTOM_CAL):
            assert get_system("CUSTOM") is not None
        with pytest.raises(Exception):
            get_system("CUSTOM")


class TestValidationGate:
    @pytest.fixture(scope="class")
    def items(self):
        return validate_reproduction()

    def test_everything_passes(self, items):
        failed = [i.describe() for i in items if not i.passed]
        assert not failed, "\n".join(failed)

    def test_check_count(self, items):
        # 2 checks x 9 rows x 2 tables + 18 claims.
        assert len(items) == 36 + 18

    def test_summary_verdict_line(self, items):
        summary = validation_summary(items)
        assert summary.rstrip().endswith("54/54 checks passed")

    def test_summary_flags_failures(self, items):
        from repro.analysis.validate import ValidationItem

        broken = [*items, ValidationItem("synthetic", False, "injected")]
        assert "FAILED" in validation_summary(broken)

    def test_cli_exit_code(self):
        import io

        from repro.core.cli import run

        assert run(["validate"], stdout=io.StringIO()) == 0


class TestTokenizerPersistence:
    def test_round_trip(self):
        tok = BPETokenizer()
        tok.train("persistence round trip test text " * 30, 300)
        restored = BPETokenizer.from_json(tok.to_json())
        assert restored.merges == tok.merges
        text = "persistence round trip"
        assert restored.encode(text) == tok.encode(text)
        assert restored.decode(restored.encode(text)) == text

    def test_rejects_corrupt_json(self):
        with pytest.raises(DataError, match="corrupt"):
            BPETokenizer.from_json("{nope")
        # Malformed merges: wrong arity, a non-integer, not a list.  The
        # error names the bad entry.
        for merges, named in (
            ([[1, 2]], "merge entry 0 is [1, 2]"),
            ([[97, 98, 256], ["x", 2, 257]], "merge entry 1 is ['x', 2, 257]"),
            (5, "merges is 5"),
        ):
            text = json.dumps({"format": "bpe-lite-v1", "merges": merges})
            with pytest.raises(DataError, match=re.escape(f"corrupt tokenizer file: {named}")):
                BPETokenizer.from_json(text)

    def test_rejects_wrong_format(self):
        with pytest.raises(DataError, match="bpe-lite"):
            BPETokenizer.from_json('{"format": "sentencepiece"}')

    def test_rejects_out_of_order_merges(self):
        tok = BPETokenizer()
        tok.train("ababab ababab", 258)
        data = json.loads(tok.to_json())
        if len(data["merges"]) >= 2:
            data["merges"].reverse()
            # Reversal breaks either the id ordering or a forward
            # reference to a not-yet-built token; both are rejected.
            with pytest.raises(DataError, match="order|unknown"):
                BPETokenizer.from_json(json.dumps(data))

    def test_rejects_unknown_token_reference(self):
        with pytest.raises(DataError, match="unknown tokens"):
            BPETokenizer.from_json(
                '{"format": "bpe-lite-v1", "merges": [[99999, 0, 256]]}'
            )
