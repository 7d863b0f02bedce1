"""Tests for the synthetic OSCAR corpus and the ImageNet split size."""

import hashlib

import pytest

from repro.data.imagenet import IMAGENET_TRAIN_IMAGES
from repro.data.oscar import OscarSubset, generate_oscar_subset, prepared_oscar_tokens
from repro.data.tokenizer import BPETokenizer
from repro.engine.tfcnn import TFCNNEngine
from repro.errors import DataError
from repro.hardware.systems import get_system
from repro.models.resnet import get_cnn_preset


class TestOscar:
    def test_deterministic_generation(self):
        a = generate_oscar_subset(documents=10, seed=42)
        b = generate_oscar_subset(documents=10, seed=42)
        assert a.documents == b.documents

    def test_seed_changes_content(self):
        a = generate_oscar_subset(documents=10, seed=1)
        b = generate_oscar_subset(documents=10, seed=2)
        assert a.documents != b.documents

    def test_document_count(self):
        assert len(generate_oscar_subset(documents=25).documents) == 25

    def test_documents_have_sentence_structure(self):
        subset = generate_oscar_subset(documents=5)
        assert all("." in d for d in subset.documents)

    def test_validation(self):
        with pytest.raises(DataError):
            generate_oscar_subset(documents=0)
        with pytest.raises(DataError):
            generate_oscar_subset(vocabulary_size=10, languages=3)

    def test_tokenize_uses_the_tokenizer_it_is_given(self):
        subset = generate_oscar_subset(documents=5)
        trained = BPETokenizer()
        trained.train(subset.text(), 400)
        assert len(subset.tokenize(BPETokenizer())) == 2160  # raw bytes
        assert len(subset.tokenize(trained)) == 793
        assert subset.tokenize(trained) == trained.encode(subset.text())


class TestPreparedOscar:
    """The subset the LLM ``data`` step prepares, pinned."""

    def test_golden(self, monkeypatch):
        trained = []
        train = BPETokenizer.train

        def capture(self, *args, **kwargs):
            train(self, *args, **kwargs)
            trained.append(self)

        monkeypatch.setattr(BPETokenizer, "train", capture)
        assert prepared_oscar_tokens.__wrapped__() == 4570
        (tokenizer,) = trained
        assert len(tokenizer.merges) == 256
        assert hashlib.sha256(tokenizer.to_json().encode()).hexdigest() == (
            "016fcda0b6f5a75c5ac2cde320e17b9bb7a79873202d76b1a95fb55158a0eaf9"
        )

    def test_memoized_count_equals_a_fresh_preparation(self):
        memoized = prepared_oscar_tokens()
        prepared_oscar_tokens.cache_clear()
        assert prepared_oscar_tokens() == memoized == prepared_oscar_tokens.__wrapped__()


class TestImageNet:
    def test_default_is_imagenet_train_split(self):
        # An epoch is one pass over the ImageNet train split.
        result = TFCNNEngine(get_system("A100"), get_cnn_preset("resnet50")).train(256)
        assert IMAGENET_TRAIN_IMAGES == 1_281_167
        assert result.extra["epoch_time_s"] == IMAGENET_TRAIN_IMAGES / result.throughput
