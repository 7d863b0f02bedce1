"""One per-process memo of arrival streams for sweep-scale serving.

A serve campaign sweeps *configurations* (system, batch cap, queue
capacity, ...) far more often than it sweeps *traffic*: a 192-config
sweep typically replays a handful of distinct arrival processes, and a
search screens every configuration on prefixes of the stream its full
run will see.  :class:`StreamCache` lets those runs share one
generation:

* A stream's **family** (:func:`stream_family`) is its generator type
  plus every field except the ``requests`` count.  Only the builtin
  Poisson and session generators have one: they draw their RNG values
  request by request, so the first ``P`` requests of an ``N``-request
  stream equal the ``P``-request stream outright (**prefix
  stability**).
* The cache keeps the longest request tuple generated per family in
  this process and serves any shorter count as a tuple slice, which is
  byte-identical to generating it.

The cache is process-global state, activated like fault injection and
telemetry (:func:`activate_streams`): simulators consult it through
:func:`shared_requests` and fall back to ``arrivals.generate()`` when
no cache is active, so sharing never changes a workpackage's
content-addressed identity — only how fast its stream materializes.
"""

from __future__ import annotations

import contextlib
from dataclasses import fields

from repro.serve.arrivals import PoissonArrivals, Request, SessionArrivals


def stream_family(arrivals) -> tuple | None:
    """The generator minus its ``requests`` count, or None.

    Streams of one family differ only in length, and each is a prefix
    of every longer one.  Generators that are not prefix-stable have
    no family.
    """
    if not isinstance(arrivals, (PoissonArrivals, SessionArrivals)):
        return None
    return (type(arrivals),) + tuple(
        getattr(arrivals, f.name) for f in fields(arrivals) if f.name != "requests"
    )


class StreamCache:
    """The longest request tuple generated per stream family.

    A shorter count of a held family is a slice of the held tuple; a
    longer one is generated and replaces it.
    """

    def __init__(self) -> None:
        self._longest: dict[tuple, tuple[Request, ...]] = {}

    def requests(self, arrivals, family: tuple) -> tuple[Request, ...]:
        """The request tuple of ``arrivals``, whose family is ``family``."""
        held = self._longest.get(family)
        if held is None or len(held) < arrivals.requests:
            held = self._longest[family] = tuple(arrivals.generate())
        return held[: arrivals.requests]


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
    no active cache — or a generator with no family — it degrades to
    plain generation, byte for byte.
    """
    cache = get_stream_cache()
    family = None if cache is None else stream_family(arrivals)
    if family is None:
        return tuple(arrivals.generate())
    return cache.requests(arrivals, family)
