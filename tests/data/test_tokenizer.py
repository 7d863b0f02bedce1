"""Tests for the byte-level BPE tokenizer."""

import pytest

from repro.data.tokenizer import BYTE_VOCAB, BPETokenizer
from repro.errors import DataError


@pytest.fixture
def trained():
    tok = BPETokenizer()
    tok.train("the cat sat on the mat, the cat sat on the hat " * 20, 300)
    return tok


class TestTraining:
    def test_untrained_emits_raw_bytes(self):
        tok = BPETokenizer()
        assert tok.encode("abc") == [97, 98, 99]

    def test_training_grows_vocab(self, trained):
        assert BYTE_VOCAB < trained.vocab_size <= 300

    def test_training_is_deterministic(self):
        text = "deterministic corpora yield deterministic merges " * 10
        a, b = BPETokenizer(), BPETokenizer()
        a.train(text, 280)
        b.train(text, 280)
        assert a.merges == b.merges
        assert a.encode(text) == b.encode(text)

    def test_training_stops_when_no_pair_repeats(self):
        tok = BPETokenizer()
        tok.train("abcdefg", 10_000)  # no repeated pairs after a pass
        assert tok.vocab_size < 300

    def test_retraining_replaces_merges(self, trained):
        old = dict(trained.merges)
        trained.train("completely different corpus text " * 20, 280)
        assert trained.merges != old

    def test_rejects_small_vocab(self):
        with pytest.raises(DataError):
            BPETokenizer().train("text", 100)

    def test_rejects_empty_text(self):
        with pytest.raises(DataError):
            BPETokenizer().train("", 300)


class TestRoundTrip:
    def test_exact_round_trip(self, trained):
        text = "the cat sat on the mat"
        assert trained.decode(trained.encode(text)) == text

    def test_round_trip_unseen_text(self, trained):
        # Byte fallback: strings never seen in training still round-trip.
        text = "Zebra! 123 üñî 中文 emoji \U0001f600"
        assert trained.decode(trained.encode(text)) == text

    def test_compression_on_training_distribution(self, trained):
        text = "the cat sat on the mat"
        assert len(text.encode("utf-8")) / len(trained.encode(text)) > 1.5

    def test_decode_unknown_token(self, trained):
        with pytest.raises(DataError):
            trained.decode([10_000_000])

    def test_decode_rejects_ids_ending_inside_a_character(self):
        tok = BPETokenizer()
        with pytest.raises(DataError, match="multi-byte character"):
            tok.decode(tok.encode("ü")[:1])

    def test_merged_tokens_decode_to_multibyte_strings(self, trained):
        multis = [t for t, b in trained.vocab.items() if len(b) > 1]
        assert multis  # training actually produced merges
        sample = multis[0]
        assert trained.decode([sample]) == trained.vocab[sample].decode("utf-8")
