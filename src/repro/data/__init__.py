"""Synthetic data substrates for the benchmarks."""

from repro.data.tokenizer import BPETokenizer
from repro.data.oscar import OscarSubset, generate_oscar_subset, prepared_oscar_tokens
from repro.data.imagenet import ImageNetDataset, IMAGENET_TRAIN_IMAGES
from repro.data.synthetic import synthetic_token_batches, synthetic_image_batch

__all__ = [
    "BPETokenizer",
    "OscarSubset",
    "generate_oscar_subset",
    "prepared_oscar_tokens",
    "ImageNetDataset",
    "IMAGENET_TRAIN_IMAGES",
    "synthetic_token_batches",
    "synthetic_image_batch",
]
