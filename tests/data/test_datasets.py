"""Tests for the synthetic OSCAR, ImageNet and synthetic-data modules."""

import hashlib

import numpy as np
import pytest

from repro.data.imagenet import IMAGENET_TRAIN_IMAGES, ImageNetDataset
from repro.data.oscar import OscarSubset, generate_oscar_subset, prepared_oscar_tokens
from repro.data.synthetic import (
    SyntheticPlacement,
    host_transfer_bytes,
    synthetic_image_batch,
    synthetic_token_batches,
)
from repro.data.tokenizer import BPETokenizer
from repro.errors import DataError


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
        assert generate_oscar_subset(documents=25).num_documents == 25

    def test_documents_have_sentence_structure(self):
        subset = generate_oscar_subset(documents=5)
        assert all("." in d for d in subset.documents)

    def test_token_batches_shape(self):
        subset = generate_oscar_subset(documents=30, mean_document_words=80)
        tok = BPETokenizer()
        batches = subset.token_batches(tok, seq_length=64, batch_size=2)
        assert all(b.shape == (2, 64) for b in batches)
        assert batches[0].dtype == np.int32

    def test_token_batches_too_small_corpus(self):
        subset = generate_oscar_subset(documents=2, mean_document_words=5)
        with pytest.raises(DataError, match="too small"):
            subset.token_batches(BPETokenizer(), seq_length=100_000, batch_size=64)

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
        ds = ImageNetDataset()
        assert ds.num_images == IMAGENET_TRAIN_IMAGES == 1_281_167

    def test_decoded_bytes(self):
        assert ImageNetDataset().decoded_bytes_per_image == 224 * 224 * 3

    def test_batches_per_epoch_drops_tail(self):
        ds = ImageNetDataset(num_images=100)
        assert ds.batches_per_epoch(32) == 3

    def test_synthetic_has_no_storage_reads(self):
        assert ImageNetDataset(synthetic=True).stored_bytes_per_image == 0
        assert ImageNetDataset().stored_bytes_per_image > 0

    def test_sample_batch_shapes(self):
        images, labels = ImageNetDataset().sample_batch(4, seed=1)
        assert images.shape == (4, 224, 224, 3)
        assert labels.shape == (4,)
        assert images.dtype == np.uint8

    def test_sample_batch_deterministic(self):
        a, _ = ImageNetDataset().sample_batch(2, seed=5)
        b, _ = ImageNetDataset().sample_batch(2, seed=5)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(DataError):
            ImageNetDataset(num_images=0)
        with pytest.raises(DataError):
            ImageNetDataset().batches_per_epoch(0)
        with pytest.raises(DataError):
            ImageNetDataset().sample_batch(0)


class TestSynthetic:
    def test_token_batches_count_and_shape(self):
        batches = list(
            synthetic_token_batches(
                vocab_size=100, seq_length=8, batch_size=2, num_batches=3
            )
        )
        assert len(batches) == 3
        assert batches[0].shape == (2, 8)
        assert batches[0].max() < 100

    def test_token_batches_validation(self):
        with pytest.raises(DataError):
            list(synthetic_token_batches(vocab_size=0, seq_length=1, batch_size=1, num_batches=1))

    def test_image_batch(self):
        images, labels = synthetic_image_batch(batch_size=2)
        assert images.shape == (2, 224, 224, 3)
        assert labels.max() < 1000

    def test_host_transfer_depends_on_placement(self):
        # IPU option: data generated on host transfers; on device it
        # does not (paper §III-A2).
        assert host_transfer_bytes(8, 1000, SyntheticPlacement.HOST) == 8000
        assert host_transfer_bytes(8, 1000, SyntheticPlacement.DEVICE) == 0

    def test_host_transfer_validation(self):
        with pytest.raises(DataError):
            host_transfer_bytes(0, 1000, SyntheticPlacement.HOST)
