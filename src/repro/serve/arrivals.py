"""Seeded request-arrival generators for the serving simulator.

A generator produces an immutable, time-ordered tuple of
:class:`Request`\\ s — each with its own arrival time, prompt length and
generation length.  Generation is **seeded and closed-form**: the same
``(seed, parameters)`` always yields byte-identical request streams, so
serving results are content-addressable exactly like the training
campaign rows.

Five processes cover the evaluation regimes:

* :class:`PoissonArrivals` — open-loop Poisson traffic (exponential
  inter-arrival gaps) with optional per-request length jitter, the
  MLPerf-style server scenario,
* :class:`SessionArrivals` — Poisson traffic grouped into sessions
  sharing a prompt prefix, the cluster-router workload (session
  affinity, prefix caching),
* :class:`BurstArrivals` — simultaneous arrival bursts separated by
  lulls, the autoscaling stress pattern,
* :class:`TraceArrivals` — replay an explicit list of
  ``(arrival_s, prompt_tokens, generate_tokens)`` entries (recorded
  traces, adversarial bursts),
* :class:`FixedArrivals` — every request present at ``t=0`` with
  identical lengths: the degenerate case that reduces continuous
  batching to the static lock-step ``InferenceEngine.serve`` batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class Request:
    """One serving request: when it arrives and how much work it is.

    ``session`` and ``prefix_tokens`` exist for the cluster layer:
    requests of the same session share the first ``prefix_tokens`` of
    their prompt (a system prompt, chat history, RAG context), which a
    replica-local prefix cache can skip on a hit.  Both default to the
    session-less single-engine case and do not affect the single-engine
    simulator.
    """

    index: int
    arrival_s: float
    prompt_tokens: int
    generate_tokens: int
    session: int | None = None
    prefix_tokens: int = 0

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigError("arrival time must be non-negative")
        if self.prompt_tokens < 1 or self.generate_tokens < 1:
            raise ConfigError("prompt and generation lengths must be >= 1")
        if self.session is not None and self.session < 0:
            raise ConfigError("session id must be non-negative")
        if not 0 <= self.prefix_tokens <= self.prompt_tokens:
            raise ConfigError(
                "prefix_tokens must be in [0, prompt_tokens]"
            )

    @property
    def context_tokens(self) -> int:
        """Maximum KV-cache footprint of the request, in tokens."""
        return self.prompt_tokens + self.generate_tokens


def shift_arrivals(
    requests: tuple[Request, ...], start_s: float
) -> tuple[Request, ...]:
    """``requests`` served from ``start_s``: each arrives that much later.

    A simulator serves its stream relative to the clock time at which
    its run starts.  Every run after the first in a traced scope starts
    mid-clock, since the scope's runs share one clock.  A run from zero
    gets ``requests`` itself, so its results stay bit-identical.
    """
    if not start_s:
        return requests
    return tuple(replace(r, arrival_s=r.arrival_s + start_s) for r in requests)


def _jittered(rng: random.Random, mean: int, spread: float) -> int:
    """A length drawn uniformly from ``mean * (1 ± spread)``, min 1."""
    if spread <= 0:
        return mean
    lo, hi = mean * (1.0 - spread), mean * (1.0 + spread)
    return max(1, int(round(rng.uniform(lo, hi))))


@dataclass(frozen=True)
class PoissonArrivals:
    """Open-loop Poisson traffic at ``rate_per_s`` requests/second.

    Attributes
    ----------
    rate_per_s:
        Mean arrival rate; inter-arrival gaps are exponential.
    requests:
        Number of requests to generate.
    prompt_tokens / generate_tokens:
        Mean per-request lengths.
    length_spread:
        Fractional uniform jitter on both lengths (0 disables; 0.5
        draws from ``[0.5 * mean, 1.5 * mean]``).
    seed:
        RNG seed; identical seeds yield identical streams.
    """

    rate_per_s: float
    requests: int
    prompt_tokens: int = 512
    generate_tokens: int = 256
    length_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ConfigError("arrival rate must be positive")
        if self.requests < 1:
            raise ConfigError("need at least one request")
        if not 0.0 <= self.length_spread < 1.0:
            raise ConfigError("length_spread must be in [0, 1)")

    def generate(self) -> tuple[Request, ...]:
        """The seeded request stream, ordered by arrival time."""
        rng = random.Random(self.seed)
        out = []
        t = 0.0
        for i in range(self.requests):
            t += rng.expovariate(self.rate_per_s)
            out.append(
                Request(
                    index=i,
                    arrival_s=t,
                    prompt_tokens=_jittered(rng, self.prompt_tokens, self.length_spread),
                    generate_tokens=_jittered(
                        rng, self.generate_tokens, self.length_spread
                    ),
                )
            )
        return tuple(out)


@dataclass(frozen=True)
class TraceArrivals:
    """Replay of explicit ``(arrival_s, prompt, generate)`` entries."""

    entries: tuple[tuple[float, int, int], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError("trace needs at least one entry")
        object.__setattr__(self, "entries", tuple(tuple(e) for e in self.entries))

    def generate(self) -> tuple[Request, ...]:
        """The trace as :class:`Request`\\ s, sorted by arrival time."""
        ordered = sorted(enumerate(self.entries), key=lambda p: (p[1][0], p[0]))
        return tuple(
            Request(
                index=i,
                arrival_s=float(arrival),
                prompt_tokens=int(prompt),
                generate_tokens=int(generate),
            )
            for i, (arrival, prompt, generate) in ordered
        )


@dataclass(frozen=True)
class SessionArrivals:
    """Poisson traffic grouped into sessions with a shared prompt prefix.

    The cluster workload behind session-affinity and prefix-cache-aware
    routing: requests arrive open-loop like :class:`PoissonArrivals`,
    but each is drawn from one of ``sessions`` concurrent sessions and
    carries ``prefix_tokens`` of prompt that every request of the same
    session shares (chat history, system prompt, RAG context).  A
    replica that recently prefilled the same session can skip the
    shared prefix; a replica that never saw it cannot.

    Attributes
    ----------
    rate_per_s / requests:
        Open-loop Poisson arrival process, as in
        :class:`PoissonArrivals`.
    sessions:
        Number of concurrent sessions; each request is assigned one
        uniformly at random (seeded).
    prompt_tokens:
        Total prompt length per request (prefix + per-request suffix).
    prefix_tokens:
        Leading prompt tokens shared within a session; must not exceed
        ``prompt_tokens``.
    generate_tokens / length_spread:
        Mean generation length and its fractional uniform jitter (the
        prompt is *not* jittered so the shared prefix stays exact).
    seed:
        RNG seed; identical seeds yield identical streams.
    """

    rate_per_s: float
    requests: int
    sessions: int = 4
    prompt_tokens: int = 512
    prefix_tokens: int = 384
    generate_tokens: int = 128
    length_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ConfigError("arrival rate must be positive")
        if self.requests < 1:
            raise ConfigError("need at least one request")
        if self.sessions < 1:
            raise ConfigError("need at least one session")
        if not 0 <= self.prefix_tokens <= self.prompt_tokens:
            raise ConfigError("prefix_tokens must be in [0, prompt_tokens]")
        if not 0.0 <= self.length_spread < 1.0:
            raise ConfigError("length_spread must be in [0, 1)")

    def generate(self) -> tuple[Request, ...]:
        """The seeded sessioned request stream, ordered by arrival."""
        rng = random.Random(self.seed)
        out = []
        t = 0.0
        for i in range(self.requests):
            t += rng.expovariate(self.rate_per_s)
            out.append(
                Request(
                    index=i,
                    arrival_s=t,
                    prompt_tokens=self.prompt_tokens,
                    generate_tokens=_jittered(
                        rng, self.generate_tokens, self.length_spread
                    ),
                    session=rng.randrange(self.sessions),
                    prefix_tokens=self.prefix_tokens,
                )
            )
        return tuple(out)


@dataclass(frozen=True)
class BurstArrivals:
    """Bursty traffic: batches of simultaneous arrivals at set times.

    The adversarial pattern behind autoscaling evaluation: ``bursts``
    lists ``(time_s, count)`` pairs, and every request of a burst
    arrives at exactly that time with identical lengths.  The lulls
    between bursts are where a static overprovisioned cluster burns
    idle energy and an autoscaled one spins replicas down.
    """

    bursts: tuple[tuple[float, int], ...]
    prompt_tokens: int = 512
    generate_tokens: int = 128

    def __post_init__(self) -> None:
        if not self.bursts:
            raise ConfigError("need at least one burst")
        object.__setattr__(
            self, "bursts", tuple((float(t), int(n)) for t, n in self.bursts)
        )
        for t, n in self.bursts:
            if t < 0:
                raise ConfigError("burst time must be non-negative")
            if n < 1:
                raise ConfigError("burst count must be >= 1")

    def generate(self) -> tuple[Request, ...]:
        """All bursts expanded to :class:`Request`\\ s, time ordered."""
        out = []
        for t, count in sorted(self.bursts):
            for _ in range(count):
                out.append(
                    Request(
                        index=len(out),
                        arrival_s=t,
                        prompt_tokens=self.prompt_tokens,
                        generate_tokens=self.generate_tokens,
                    )
                )
        return tuple(out)


@dataclass(frozen=True)
class FixedArrivals:
    """All requests present at ``t=0`` with identical lengths.

    With a batch cap equal to the request count this reduces the
    continuous-batching scheduler to one static lock-step batch — the
    regime the original ``InferenceEngine.serve`` models.
    """

    requests: int
    prompt_tokens: int = 512
    generate_tokens: int = 256

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError("need at least one request")

    def generate(self) -> tuple[Request, ...]:
        """``requests`` identical requests, all arriving at zero."""
        return tuple(
            Request(
                index=i,
                arrival_s=0.0,
                prompt_tokens=self.prompt_tokens,
                generate_tokens=self.generate_tokens,
            )
            for i in range(self.requests)
        )
