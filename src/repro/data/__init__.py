"""Synthetic data substrates for the benchmarks."""

from repro.data.tokenizer import BPETokenizer
from repro.data.oscar import OscarSubset, generate_oscar_subset, prepared_oscar_tokens
from repro.data.imagenet import IMAGENET_TRAIN_IMAGES

__all__ = [
    "BPETokenizer",
    "OscarSubset",
    "generate_oscar_subset",
    "prepared_oscar_tokens",
    "IMAGENET_TRAIN_IMAGES",
]
