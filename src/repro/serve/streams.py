"""Content-addressed shared arrival streams for sweep-scale serving.

A serve campaign sweeps *configurations* (system, batch cap, queue
capacity, ...) far more often than it sweeps *traffic*: a 192-config
sweep typically replays a handful of distinct arrival processes.  Yet
each workpackage historically called ``arrivals.generate()`` itself,
re-drawing the same seeded stream once per configuration.  This module
makes the stream a first-class, shareable artifact:

* :class:`ArrivalStreamSpec` — the content address of a seeded stream:
  generator kind, seed, rate, request count and length parameters.
  Identical specs denote byte-identical streams (the generators are
  seeded and closed-form).
* :class:`FrozenStream` — an immutable structure-of-arrays snapshot of
  a generated stream (NumPy arrays, cheaply picklable), which is what
  ships to pool workers through the executor initializer instead of
  being re-generated in every workpackage.
* :class:`StreamCache` — serves request tuples for any spec whose
  *family* (spec minus the count) it holds, exploiting **prefix
  stability**: the builtin Poisson/session generators draw their RNG
  values request by request, so the first ``P`` requests of an
  ``N``-request stream equal the ``P``-request stream outright.  The
  successive-halving search driver screens configurations on exactly
  the prefix of the stream their full run will see.

The cache is process-global state, activated like fault injection and
telemetry (:func:`activate_streams`): simulators consult it through
:func:`shared_requests` and fall back to ``arrivals.generate()`` when
no cache is active, so sharing never changes a workpackage's
content-addressed identity — only how fast its stream materializes.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.serve.arrivals import PoissonArrivals, Request, SessionArrivals

#: Generator kinds the cache understands (both draw sequentially per
#: request, which is what makes their streams prefix-stable).
KIND_POISSON = "poisson"
KIND_SESSION = "session"
STREAM_KINDS = (KIND_POISSON, KIND_SESSION)


@dataclass(frozen=True)
class ArrivalStreamSpec:
    """Content address of one seeded arrival stream.

    Two specs that compare equal denote byte-identical request tuples;
    :attr:`family` drops the ``requests`` count, grouping every prefix
    of the same underlying stream under one cache entry.
    """

    kind: str
    rate_per_s: float
    requests: int
    prompt_tokens: int = 512
    generate_tokens: int = 128
    length_spread: float = 0.0
    seed: int = 0
    sessions: int = 0
    prefix_tokens: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STREAM_KINDS:
            raise ConfigError(
                f"unknown stream kind {self.kind!r}; known: {STREAM_KINDS}"
            )
        if self.requests < 1:
            raise ConfigError("stream spec needs at least one request")
        if self.kind == KIND_SESSION and self.sessions < 1:
            raise ConfigError("session streams need sessions >= 1")

    @property
    def family(self) -> tuple:
        """The spec minus its request count: one entry per RNG stream."""
        return (
            self.kind,
            self.rate_per_s,
            self.prompt_tokens,
            self.generate_tokens,
            self.length_spread,
            self.seed,
            self.sessions,
            self.prefix_tokens,
        )

    def key(self) -> str:
        """Short stable content hash (for provenance and logs)."""
        payload = repr((self.family, self.requests)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def generator(self):
        """The arrival generator this spec addresses."""
        if self.kind == KIND_SESSION:
            return SessionArrivals(
                rate_per_s=self.rate_per_s,
                requests=self.requests,
                sessions=self.sessions,
                prompt_tokens=self.prompt_tokens,
                prefix_tokens=self.prefix_tokens,
                generate_tokens=self.generate_tokens,
                length_spread=self.length_spread,
                seed=self.seed,
            )
        return PoissonArrivals(
            rate_per_s=self.rate_per_s,
            requests=self.requests,
            prompt_tokens=self.prompt_tokens,
            generate_tokens=self.generate_tokens,
            length_spread=self.length_spread,
            seed=self.seed,
        )

    @classmethod
    def for_arrivals(cls, arrivals) -> "ArrivalStreamSpec | None":
        """The spec of a generator instance, or None if not cacheable.

        Only the open-loop Poisson and session processes are covered:
        they are the sweep workloads, and their sequential per-request
        draws give the prefix stability the cache relies on.
        """
        if isinstance(arrivals, SessionArrivals):
            return cls(
                kind=KIND_SESSION,
                rate_per_s=arrivals.rate_per_s,
                requests=arrivals.requests,
                prompt_tokens=arrivals.prompt_tokens,
                generate_tokens=arrivals.generate_tokens,
                length_spread=arrivals.length_spread,
                seed=arrivals.seed,
                sessions=arrivals.sessions,
                prefix_tokens=arrivals.prefix_tokens,
            )
        if isinstance(arrivals, PoissonArrivals):
            return cls(
                kind=KIND_POISSON,
                rate_per_s=arrivals.rate_per_s,
                requests=arrivals.requests,
                prompt_tokens=arrivals.prompt_tokens,
                generate_tokens=arrivals.generate_tokens,
                length_spread=arrivals.length_spread,
                seed=arrivals.seed,
            )
        return None


class FrozenStream:
    """Immutable structure-of-arrays snapshot of a generated stream.

    Five parallel NumPy arrays hold what a :class:`Request` tuple
    holds; :meth:`prefix` reconstructs the exact request objects.  The
    arrays pickle compactly (one buffer each instead of one object per
    request), which is what makes shipping a 20k-request stream through
    a pool initializer cheaper than re-generating it per workpackage.
    """

    __slots__ = ("arrival_s", "prompt", "generate", "session", "prefix_tokens")

    def __init__(self, requests: tuple[Request, ...]) -> None:
        n = len(requests)
        if n == 0:
            raise ConfigError("cannot freeze an empty stream")
        self.arrival_s = np.fromiter(
            (r.arrival_s for r in requests), dtype=np.float64, count=n
        )
        self.prompt = np.fromiter(
            (r.prompt_tokens for r in requests), dtype=np.int64, count=n
        )
        self.generate = np.fromiter(
            (r.generate_tokens for r in requests), dtype=np.int64, count=n
        )
        self.session = np.fromiter(
            (-1 if r.session is None else r.session for r in requests),
            dtype=np.int64,
            count=n,
        )
        self.prefix_tokens = np.fromiter(
            (r.prefix_tokens for r in requests), dtype=np.int64, count=n
        )

    def __len__(self) -> int:
        return len(self.arrival_s)

    def prefix(self, count: int) -> tuple[Request, ...]:
        """The first ``count`` requests, byte-identical to generation.

        Floats round-trip exactly through the float64 array and the
        integer fields are exact, so the reconstructed tuple compares
        equal to what the generator produced.
        """
        if not 1 <= count <= len(self):
            raise ConfigError(
                f"stream holds {len(self)} requests; cannot serve {count}"
            )
        arrival = self.arrival_s
        prompt = self.prompt
        generate = self.generate
        session = self.session
        prefix = self.prefix_tokens
        return tuple(
            Request(
                index=i,
                arrival_s=float(arrival[i]),
                prompt_tokens=int(prompt[i]),
                generate_tokens=int(generate[i]),
                session=None if session[i] < 0 else int(session[i]),
                prefix_tokens=int(prefix[i]),
            )
            for i in range(count)
        )


class StreamCache:
    """Serves request tuples from frozen streams, generating on miss.

    Holds at most one :class:`FrozenStream` per spec *family* — the
    longest seen — and serves any shorter request count as a prefix
    slice.  Materialized tuples are memoized per ``(family, count)``
    so K configurations sharing one stream in a worker build the
    request objects once, not K times.
    """

    def __init__(self, streams: dict | None = None) -> None:
        self._streams: dict[tuple, FrozenStream] = dict(streams or {})
        self._materialized: dict[tuple, tuple[Request, ...]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._streams)

    def install(self, family: tuple, stream: FrozenStream) -> None:
        """Install a pre-generated stream (longest per family wins)."""
        held = self._streams.get(family)
        if held is None or len(held) < len(stream):
            self._streams[family] = stream

    def requests(self, spec: ArrivalStreamSpec) -> tuple[Request, ...]:
        """The spec's request tuple, from cache or freshly generated."""
        family = spec.family
        memo_key = (family, spec.requests)
        hit = self._materialized.get(memo_key)
        if hit is not None:
            self.hits += 1
            return hit
        stream = self._streams.get(family)
        if stream is None or len(stream) < spec.requests:
            self.misses += 1
            generated = tuple(spec.generator().generate())
            self._streams[family] = FrozenStream(generated)
            self._materialized[memo_key] = generated
            return generated
        self.hits += 1
        out = stream.prefix(spec.requests)
        self._materialized[memo_key] = out
        return out


# -- process-global activation ----------------------------------------------
#
# Exactly the fault-injection / telemetry pattern: the cache is ambient
# state consulted through a seam, never an operation parameter, so
# activating it cannot change any workpackage's content address.

_ACTIVE: StreamCache | None = None


def set_stream_cache(cache: StreamCache | None) -> StreamCache | None:
    """Install the process-global cache; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


def get_stream_cache() -> StreamCache | None:
    """The active process-global stream cache, or None."""
    return _ACTIVE


@contextlib.contextmanager
def activate_streams(cache: StreamCache):
    """Scope with ``cache`` active; restores the previous cache after."""
    previous = set_stream_cache(cache)
    try:
        yield cache
    finally:
        set_stream_cache(previous)


def shared_requests(arrivals) -> tuple[Request, ...]:
    """A generator's request tuple, through the active cache if any.

    The simulators call this instead of ``arrivals.generate()``.  With
    no active cache — or a generator kind the cache does not cover —
    it degrades to plain generation, byte for byte.
    """
    cache = get_stream_cache()
    if cache is None:
        return tuple(arrivals.generate())
    spec = ArrivalStreamSpec.for_arrivals(arrivals)
    if spec is None:
        return tuple(arrivals.generate())
    return cache.requests(spec)
