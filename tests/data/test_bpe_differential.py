"""Differential tests: the BPE tokenizer against the greedy oracle.

The oracle is the plain greedy loop: recount every adjacent pair
(overlapping pairs included), pick the most frequent with the smallest
``(a, b)`` among ties, rebuild the id list with that pair replaced left
to right without overlap, and stop at the target vocabulary or when no
pair occurs twice.  ``BPETokenizer.train`` and ``encode`` compute the
same thing incrementally and must agree with it exactly: merges in the
same order, the same vocabulary and the same token ids.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.data.tokenizer import BYTE_VOCAB, BPETokenizer


def _merge(ids: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    """Replace every occurrence of ``pair`` in ``ids`` with ``new_id``."""
    out: list[int] = []
    i = 0
    n = len(ids)
    while i < n:
        if i < n - 1 and ids[i] == pair[0] and ids[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def oracle_train(text: str, vocab_size: int) -> dict[tuple[int, int], int]:
    """Merges the greedy loop learns, in training order."""
    merges: dict[tuple[int, int], int] = {}
    ids = list(text.encode("utf-8"))
    next_id = BYTE_VOCAB
    while next_id < vocab_size:
        pairs = Counter(zip(ids, ids[1:]))
        if not pairs:
            break
        best, count = max(pairs.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
        if count < 2:
            break
        merges[best] = next_id
        ids = _merge(ids, best, next_id)
        next_id += 1
    return merges


def oracle_encode(merges: dict[tuple[int, int], int], text: str) -> list[int]:
    """Token ids of ``text`` with ``merges`` applied in order."""
    ids = list(text.encode("utf-8"))
    for pair, new_id in merges.items():
        if len(ids) < 2:
            break
        ids = _merge(ids, pair, new_id)
    return ids


def oracle_vocab(merges: dict[tuple[int, int], int]) -> dict[int, bytes]:
    vocab = {i: bytes([i]) for i in range(BYTE_VOCAB)}
    for (a, b), new_id in merges.items():
        vocab[new_id] = vocab[a] + vocab[b]
    return vocab


def assert_matches_oracle(text: str, vocab_size: int, unseen: str) -> None:
    tok = BPETokenizer()
    tok.train(text, vocab_size)
    merges = oracle_train(text, vocab_size)
    assert list(tok.merges.items()) == list(merges.items())
    assert tok.vocab == oracle_vocab(merges)
    assert tok.encode(text) == oracle_encode(merges, text)
    assert tok.encode(unseen) == oracle_encode(merges, unseen)


# Few-symbol alphabets repeat pairs often and tie their counts; the
# multi-byte symbols share UTF-8 lead bytes, so pairs overlap across
# characters.
_SMALL = st.text(alphabet="ab", min_size=1, max_size=120)
_MIXED = st.text(alphabet="ab üé中", min_size=1, max_size=120)
_RUNS = st.builds(
    lambda ch, n, tail: ch * n + tail,
    st.sampled_from(["a", "ü", "中"]),
    st.integers(1, 60),
    st.text(alphabet="ab", max_size=5),
)
_ANY = st.text(min_size=1, max_size=150)
_VOCAB = st.integers(BYTE_VOCAB, BYTE_VOCAB + 120)


@given(text=st.one_of(_SMALL, _MIXED, _RUNS, _ANY), vocab_size=_VOCAB, unseen=st.text(max_size=80))
@settings(max_examples=300, deadline=None)
@example(text="a" * 9, vocab_size=300, unseen="a" * 7)  # a == b, odd run
@example(text="aaaa", vocab_size=300, unseen="aaa")  # a == b, overlapping count
@example(text="abcdabcdabcd", vocab_size=300, unseen="dabc")  # tied counts
@example(text="a", vocab_size=300, unseen="a")  # one character
@example(text="ü", vocab_size=300, unseen="üü")  # one multi-byte character
@example(text="the cat sat on the mat " * 5, vocab_size=BYTE_VOCAB, unseen="the")
@example(text="ab" * 40, vocab_size=BYTE_VOCAB + 1, unseen="bab")
def test_train_and_encode_match_the_greedy_oracle(text, vocab_size, unseen):
    assert_matches_oracle(text, vocab_size, unseen)


@given(text=st.one_of(_SMALL, _MIXED, _RUNS), unseen=st.text(max_size=80))
@settings(max_examples=100, deadline=None)
def test_training_to_exhaustion_matches_the_greedy_oracle(text, unseen):
    # A vocabulary nothing can fill: only the no-repeated-pair rule stops.
    assert_matches_oracle(text, 10_000, unseen)


def test_matches_on_a_prose_corpus():
    text = "the quick brown fox jumps over the lazy dog, the lazy cat naps " * 12
    assert_matches_oracle(text, 600, "a quick fox naps over the brown dog")
