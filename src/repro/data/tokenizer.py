"""A byte-level BPE tokenizer (GPT-2 style, trained from scratch).

The LLM benchmark preprocesses its OSCAR subset "using GPT-2
tokenizers" (paper §III-A1).  This is a from-scratch byte-pair-encoding
implementation with the two properties that matter for the benchmark
substrate:

* **losslessness** -- byte-level base vocabulary means any string
  round-trips exactly (property-tested),
* **determinism** -- merges are learned greedily with lexicographic
  tie-breaking, so the same corpus always yields the same vocabulary.

The merge rule is the plain greedy one: count every adjacent pair
(overlapping pairs included), merge the most frequent (the smallest
``(a, b)`` among ties) by replacing its occurrences left to right
without overlap, and stop at the target vocabulary or when no pair
occurs twice.  :meth:`BPETokenizer.train` computes exactly that, but
incrementally: token positions form a linked list, each pair keeps the
positions it occurs at, and a lazy max-heap keyed ``(-count, a, b)``
yields the next merge, so a merge costs time in its own occurrences
rather than in the corpus length.  :meth:`BPETokenizer.encode` holds
token ids as the characters ``chr(id)`` and applies each merge as one
``str.replace``, whose left-to-right, non-overlapping replacement is
the merge rule.  Both must give exactly the merges, vocabulary and ids
of the greedy loop, which the test suite keeps as its differential
oracle.  Token ids are code points, so a vocabulary holds at most
``sys.maxunicode + 1`` tokens.
"""

from __future__ import annotations

import heapq

from repro.errors import DataError

#: Number of base byte tokens.
BYTE_VOCAB = 256


class BPETokenizer:
    """Byte-level BPE tokenizer with greedy merge training."""

    def __init__(self) -> None:
        # merges[(a, b)] = merged-token id, in training order.
        self.merges: dict[tuple[int, int], int] = {}
        # token id -> byte string it decodes to.
        self.vocab: dict[int, bytes] = {i: bytes([i]) for i in range(BYTE_VOCAB)}

    # -- training -----------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        """Current vocabulary size (256 base bytes + learned merges)."""
        return len(self.vocab)

    def train(self, text: str, vocab_size: int) -> None:
        """Learn merges from a corpus until the vocabulary reaches
        ``vocab_size`` (or no pair repeats).

        Training replaces any previously learned merges.
        """
        if vocab_size < BYTE_VOCAB:
            raise DataError(
                f"vocab size must be >= {BYTE_VOCAB} (the byte alphabet), "
                f"got {vocab_size}"
            )
        if not text:
            raise DataError("cannot train a tokenizer on empty text")
        self.merges = {}
        self.vocab = {i: bytes([i]) for i in range(BYTE_VOCAB)}
        tokens = list(text.encode("utf-8"))
        n = len(tokens)
        # Live positions form a doubly linked list (-1 ends it); a
        # merge keeps its left position and unlinks the right one.
        nxt = list(range(1, n + 1))
        nxt[-1] = -1
        prv = list(range(-1, n - 1))
        counts: dict[tuple[int, int], int] = {}
        # Left positions of each pair, ascending: a pair only forms in
        # one left-to-right pass, the initial count or the merge that
        # makes its larger id.  An entry goes stale when a neighbour
        # merges and is checked when used.
        where: dict[tuple[int, int], list[int]] = {}
        for i, pair in enumerate(zip(tokens, tokens[1:])):
            counts[pair] = counts.get(pair, 0) + 1
            where.setdefault(pair, []).append(i)
        # Every pair counted at least twice has an entry with its
        # current count; entries whose count is out of date are stale.
        heap = [(-c, a, b) for (a, b), c in counts.items() if c >= 2]
        heapq.heapify(heap)
        next_id = BYTE_VOCAB
        while next_id < vocab_size:
            while heap:
                neg, a, b = heapq.heappop(heap)
                if counts.get((a, b)) == -neg:
                    break
            else:
                break  # no pair occurs twice
            pair = (a, b)
            new_id = next_id
            self.merges[pair] = new_id
            self.vocab[new_id] = self.vocab[a] + self.vocab[b]
            changed: set[tuple[int, int]] = set()
            for i in where.pop(pair):
                j = nxt[i]
                if tokens[i] != a or j < 0 or tokens[j] != b:
                    continue  # merged away since it was recorded
                p, q = prv[i], nxt[j]
                if p >= 0:
                    left = (tokens[p], a)
                    counts[left] -= 1
                    changed.add(left)
                    left = (tokens[p], new_id)
                    counts[left] = counts.get(left, 0) + 1
                    where.setdefault(left, []).append(p)
                    changed.add(left)
                if q >= 0:
                    right = (b, tokens[q])
                    counts[right] -= 1
                    changed.add(right)
                    right = (new_id, tokens[q])
                    counts[right] = counts.get(right, 0) + 1
                    where.setdefault(right, []).append(i)
                    changed.add(right)
                    prv[q] = i
                tokens[i] = new_id
                tokens[j] = -1
                nxt[i] = q
            # Every occurrence merged: the pair cannot form again.
            del counts[pair]
            changed.discard(pair)
            for key in changed:
                count = counts[key]
                if count >= 2:
                    heapq.heappush(heap, (-count, *key))
            next_id += 1

    # -- encode / decode -------------------------------------------------------

    def encode(self, text: str) -> list[int]:
        """Tokenise a string (works even for untrained tokenizers, which
        emit raw bytes)."""
        # Latin-1 maps each byte to the code point of the same value.
        chars = text.encode("utf-8").decode("latin-1")
        # Apply merges in learned order (lowest new-id first), the same
        # order GPT-2's encoder applies its ranked merges.
        for (a, b), new_id in self.merges.items():
            if len(chars) < 2:
                break
            chars = chars.replace(chr(a) + chr(b), chr(new_id))
        return list(map(ord, chars))

    def decode(self, ids: list[int]) -> str:
        """Reconstruct the exact original string from token ids."""
        try:
            data = b"".join(self.vocab[i] for i in ids)
        except KeyError as exc:
            raise DataError(f"unknown token id {exc.args[0]}") from None
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"token ids are not UTF-8 text ({exc.reason} at byte "
                f"{exc.start} of {len(data)}); they may stop partway "
                f"through a multi-byte character"
            ) from None

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the learned merges (the GPT-2 tokenizer ships as a
        merges file plus a vocabulary; the merges fully determine ours)."""
        import json

        merges = [[a, b, new_id] for (a, b), new_id in self.merges.items()]
        return json.dumps({"format": "bpe-lite-v1", "merges": merges})

    @classmethod
    def from_json(cls, text: str) -> "BPETokenizer":
        """Reconstruct a tokenizer from :meth:`to_json` output."""
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"corrupt tokenizer file: {exc}") from None
        if not isinstance(data, dict) or data.get("format") != "bpe-lite-v1":
            raise DataError("not a bpe-lite-v1 tokenizer file")
        merges = data.get("merges", [])
        if not isinstance(merges, list):
            raise DataError(f"corrupt tokenizer file: merges is {merges!r}, not a list")
        tok = cls()
        for index, entry in enumerate(merges):
            if not (
                isinstance(entry, list)
                and len(entry) == 3
                and all(type(v) is int for v in entry)
            ):
                raise DataError(
                    f"corrupt tokenizer file: merge entry {index} is {entry!r}, "
                    f"not three integers [a, b, new_id]"
                )
            a, b, new_id = entry
            if a not in tok.vocab or b not in tok.vocab:
                raise DataError(f"merge ({a},{b}) references unknown tokens")
            if new_id != BYTE_VOCAB + len(tok.merges):
                raise DataError("merges are not in training order")
            tok.merges[(a, b)] = new_id
            tok.vocab[new_id] = tok.vocab[a] + tok.vocab[b]
        return tok
