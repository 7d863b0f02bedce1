"""Synthetic OSCAR-like text corpus.

The paper trains on "a subset of the OSCAR data that is preprocessed
using GPT-2 tokenizers".  OSCAR itself is a crawled multilingual corpus
we cannot ship; this module generates a deterministic synthetic
stand-in with the statistical properties that matter to the substrate:
documents of varying length, a Zipfian word distribution over a
synthetic vocabulary, and multiple "languages" (disjoint vocabularies)
-- enough to train the BPE tokenizer the LLM data step prepares.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.data.tokenizer import BPETokenizer
from repro.errors import DataError

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


def _make_word(rng: np.random.Generator, syllables: int) -> str:
    """One pronounceable pseudo-word."""
    parts = []
    for _ in range(syllables):
        parts.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
        parts.append(_VOWELS[int(rng.integers(len(_VOWELS)))])
    return "".join(parts)


def _make_vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """A vocabulary of distinct pseudo-words."""
    words: set[str] = set()
    while len(words) < size:
        words.add(_make_word(rng, int(rng.integers(1, 4))))
    return sorted(words)


@dataclass
class OscarSubset:
    """A generated corpus: its documents and how they were made."""

    documents: list[str]
    languages: int
    seed: int

    def text(self) -> str:
        """All documents joined with double newlines (training text)."""
        return "\n\n".join(self.documents)

    def tokenize(self, tokenizer: BPETokenizer) -> list[int]:
        """Tokenise the whole corpus with ``tokenizer``."""
        return tokenizer.encode(self.text())


def generate_oscar_subset(
    *,
    documents: int = 200,
    mean_document_words: int = 120,
    vocabulary_size: int = 800,
    languages: int = 3,
    seed: int = 20240917,
) -> OscarSubset:
    """Generate a deterministic synthetic OSCAR-like subset.

    Words are drawn Zipf-distributed from per-language vocabularies;
    document lengths are geometric around the requested mean, matching
    the long-tailed document lengths of crawled corpora.
    """
    if documents <= 0 or mean_document_words <= 0:
        raise DataError("documents and words-per-document must be positive")
    if languages <= 0 or vocabulary_size < languages * 10:
        raise DataError("need >= 10 vocabulary words per language")
    rng = np.random.default_rng(seed)
    per_lang = vocabulary_size // languages
    vocabularies = [_make_vocabulary(rng, per_lang) for _ in range(languages)]

    # Zipf ranks: probability ~ 1/rank.
    ranks = np.arange(1, per_lang + 1, dtype=float)
    zipf = (1.0 / ranks) / np.sum(1.0 / ranks)

    docs: list[str] = []
    for _ in range(documents):
        lang = int(rng.integers(languages))
        vocab = vocabularies[lang]
        n_words = max(5, int(rng.geometric(1.0 / mean_document_words)))
        idx = rng.choice(per_lang, size=n_words, p=zipf)
        words = [vocab[i] for i in idx]
        # Sentence structure: capitalise every ~12 words, add periods.
        sentences: list[str] = []
        for start in range(0, len(words), 12):
            chunk = words[start : start + 12]
            sentences.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
        docs.append(" ".join(sentences))
    return OscarSubset(documents=docs, languages=languages, seed=seed)


#: The subset the LLM benchmark's ``data`` step prepares: documents and
#: mean words per document of the corpus, characters the tokenizer is
#: trained on, and the vocabulary it is trained to.
PREPARED_DOCUMENTS = 40
PREPARED_DOCUMENT_WORDS = 60
PREPARED_TRAIN_CHARS = 20_000
PREPARED_VOCAB_SIZE = 512


@functools.cache
def prepared_oscar_tokens() -> int:
    """Token count of the subset the LLM ``data`` step prepares.

    Generates the corpus, trains a BPE tokenizer on its head and
    tokenizes the whole corpus.  The result depends on nothing but the
    constants above, so it is computed on the first call and reused by
    every later one in the process, the way the real suite prepares its
    data directory once for all runs.  Only the count is kept, never the
    tokenizer.
    """
    subset = generate_oscar_subset(
        documents=PREPARED_DOCUMENTS, mean_document_words=PREPARED_DOCUMENT_WORDS
    )
    tokenizer = BPETokenizer()
    tokenizer.train(subset.text()[:PREPARED_TRAIN_CHARS], vocab_size=PREPARED_VOCAB_SIZE)
    return len(subset.tokenize(tokenizer))
