"""Per-request records, latency percentiles, and the serving summary.

The serving simulator's figures of merit follow the MLPerf-inference
server scenario and the DABench-style per-phase breakdown:

* **TTFT** — time to first token: arrival to the end of the decode step
  that emits the request's first output token (queueing + prefill
  included),
* **TPOT** — time per output token: mean decode interval after the
  first token,
* **E2E** — arrival to last token,

each summarised as p50/p95/p99 (nearest-rank percentiles: exact,
deterministic, no interpolation), plus SLO attainment, goodput, and the
energy side CARAML adds: Wh per request and tokens/Wh.

Both serving simulators end a run the same way:
:func:`summarize_completions` turns the run's completion-order records
into its summary (and, in exact mode, the index-ordered records it
keeps), and :class:`ServeResult` carries the outcome.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple

from repro.engine.trainer import TrainResult
from repro.errors import ConfigError
from repro.obs.telemetry.sketch import StreamingQuantiles, nearest_rank

#: Median rank of every latency summary (the typical request).
MEDIAN_PERCENTILE = 50.0
#: Tail rank the serving SLO literature reports (19 of 20 requests).
P95_PERCENTILE = 95.0
#: Extreme-tail rank bounding the worst 1% of requests.
P99_PERCENTILE = 99.0
#: Percentiles every latency summary reports, in ascending order.
SUMMARY_PERCENTILES = (MEDIAN_PERCENTILE, P95_PERCENTILE, P99_PERCENTILE)

#: Summary percentiles computed by exact nearest-rank over the stored
#: sample (byte-reproducible, O(n log n) at summary time).
PERCENTILE_MODE_EXACT = "exact"
#: Summary percentiles estimated by streaming P² sketches (the summary
#: holds no samples; may differ from exact by up to
#: :data:`repro.obs.telemetry.sketch.P2_RANK_TOLERANCE` percentile
#: ranks on long streams — see that module's accuracy contract).
PERCENTILE_MODE_SKETCH = "p2"
#: Every recognised percentile mode.
PERCENTILE_MODES = (PERCENTILE_MODE_EXACT, PERCENTILE_MODE_SKETCH)

#: Completions a p2 summary buffers before folding them into its P²
#: sketches: large enough to amortise the fold, small enough that the
#: summary's memory does not grow with the run.
_FOLD_CHUNK = 128

#: Error raised when per-request records are requested from a p2 run.
NO_RECORDS_MESSAGE = (
    "per-request records are not stored in percentile_mode='p2' "
    "(O(1) record emission); run with percentile_mode='exact' to keep them"
)


def percentile(values: list[float] | tuple[float, ...], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in (0, 100]).

    Nearest-rank is exact on small samples and fully deterministic,
    which keeps serving summaries byte-reproducible.  Sketch-mode
    summaries (:data:`PERCENTILE_MODE_SKETCH`) estimate the same ranks
    with P² sketches and may differ from this function within the
    documented tolerance.
    """
    if not values:
        raise ConfigError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ConfigError(f"percentile must be in (0, 100], got {q}")
    if len(values) == 1:
        # Single-sample fast path: every rank selects the only element.
        return values[0]
    return nearest_rank(sorted(values), q)


class RequestRecord(NamedTuple):
    """Lifecycle timestamps and energy of one completed request.

    All times are absolute simulated seconds on the run's virtual
    clock; derived latencies are exposed as properties, the one
    definition of TTFT, TPOT, E2E and queue delay both simulators
    summarise.  A named tuple because a run builds one per completion
    even when it keeps none (``percentile_mode="p2"``), and a tuple is
    cheaper to build than a frozen dataclass.
    """

    index: int
    arrival_s: float
    admitted_s: float
    first_token_s: float
    completed_s: float
    prompt_tokens: int
    generate_tokens: int
    energy_wh: float = 0.0

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for admission into the batch."""
        return self.admitted_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token, from arrival."""
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Mean time per output token after the first (0 for 1 token)."""
        if self.generate_tokens <= 1:
            return 0.0
        return (self.completed_s - self.first_token_s) / (self.generate_tokens - 1)

    @property
    def e2e_s(self) -> float:
        """End-to-end latency, arrival to last token."""
        return self.completed_s - self.arrival_s

    def to_dict(self) -> dict:
        """Flat, JSON-ready form (stable key order via sorted dumps)."""
        return {
            "index": self.index,
            "arrival_s": self.arrival_s,
            "admitted_s": self.admitted_s,
            "first_token_s": self.first_token_s,
            "completed_s": self.completed_s,
            "prompt_tokens": self.prompt_tokens,
            "generate_tokens": self.generate_tokens,
            "energy_wh": self.energy_wh,
            "ttft_s": self.ttft_s,
            "tpot_s": self.tpot_s,
            "e2e_s": self.e2e_s,
        }


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99, mean and max of one latency metric."""

    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    @classmethod
    def of(cls, values: list[float] | tuple[float, ...]) -> "LatencySummary":
        """Summary of a non-empty sample."""
        return cls(
            p50=percentile(values, MEDIAN_PERCENTILE),
            p95=percentile(values, P95_PERCENTILE),
            p99=percentile(values, P99_PERCENTILE),
            mean=sum(values) / len(values),
            max=max(values),
        )

    @classmethod
    def zero(cls) -> "LatencySummary":
        """The all-zero summary of an empty sample.

        Used when a run completed no requests at all (every arrival
        shed, or an externally constructed empty
        :class:`ServeResult`): reporting zeros
        keeps downstream tables renderable instead of raising.
        """
        return cls(p50=0.0, p95=0.0, p99=0.0, mean=0.0, max=0.0)

    @classmethod
    def from_streaming(cls, stream: StreamingQuantiles) -> "LatencySummary":
        """Summary from a P² sketch bundle (zero summary when empty)."""
        if stream.count == 0:
            return cls.zero()
        return cls(
            p50=stream.quantile(MEDIAN_PERCENTILE),
            p95=stream.quantile(P95_PERCENTILE),
            p99=stream.quantile(P99_PERCENTILE),
            mean=stream.mean,
            max=stream.max,
        )

    def to_dict(self) -> dict:
        """Plain-mapping form."""
        return {
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean": self.mean,
            "max": self.max,
        }


@dataclass(frozen=True)
class SLOPolicy:
    """Latency service-level objectives a request must meet.

    ``None`` disables a bound; the default policy (no bounds) counts
    every completed request as attained.
    """

    ttft_s: float | None = None
    e2e_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("ttft_s", "e2e_s"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"SLO {name} must be positive")

    def met(self, record: RequestRecord) -> bool:
        """Whether one completed request meets every active bound."""
        return self.met_values(record.ttft_s, record.e2e_s)

    def met_values(self, ttft_s: float, e2e_s: float) -> bool:
        """Attainment check on raw latencies (online SLO monitoring)."""
        if self.ttft_s is not None and ttft_s > self.ttft_s:
            return False
        if self.e2e_s is not None and e2e_s > self.e2e_s:
            return False
        return True


@dataclass(frozen=True)
class ServeSummary:
    """Aggregate outcome of one serving run.

    ``goodput_tokens_per_s`` counts only tokens of SLO-attaining
    requests (the MLPerf Power framing: useful work under a latency
    constraint), while ``throughput_tokens_per_s`` counts every
    generated token.
    """

    offered: int
    completed: int
    rejected: int
    elapsed_s: float
    generated_tokens: int
    ttft: LatencySummary
    tpot: LatencySummary
    e2e: LatencySummary
    queue_delay: LatencySummary
    slo_attained: int
    goodput_tokens_per_s: float
    energy_wh: float
    energy_per_request_wh: float
    tokens_per_wh: float
    percentile_mode: str = PERCENTILE_MODE_EXACT

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated tokens per simulated second (all requests)."""
        return self.generated_tokens / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests meeting the SLO (1.0 if none)."""
        return self.slo_attained / self.completed if self.completed else 1.0

    def to_dict(self) -> dict:
        """Flat mapping (result-store / TrainResult.extra form).

        All values are numeric except ``percentile_mode``, which names
        the mode (:data:`PERCENTILE_MODES`) that produced the latency
        percentiles.
        """
        out = {
            "offered_requests": float(self.offered),
            "completed_requests": float(self.completed),
            "rejected_requests": float(self.rejected),
            "elapsed_s": self.elapsed_s,
            "generated_tokens": float(self.generated_tokens),
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "slo_attained": float(self.slo_attained),
            "slo_attainment": self.slo_attainment,
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "energy_wh": self.energy_wh,
            "energy_per_request_wh": self.energy_per_request_wh,
            "tokens_per_wh": self.tokens_per_wh,
        }
        for name, summary in (
            ("ttft", self.ttft),
            ("tpot", self.tpot),
            ("e2e", self.e2e),
            ("queue_delay", self.queue_delay),
        ):
            for key, value in summary.to_dict().items():
                out[f"{name}_{key}_s"] = value
        out["percentile_mode"] = self.percentile_mode
        return out


def summarize(
    records: list[RequestRecord] | tuple[RequestRecord, ...],
    *,
    offered: int,
    rejected: int,
    elapsed_s: float,
    slo: SLOPolicy | None = None,
) -> ServeSummary:
    """Build the :class:`ServeSummary` of a completed serving run.

    An empty record list yields an all-zero summary (every latency
    percentile, goodput and energy figure 0.0) rather than raising, so
    report tables can render a run that shed its whole offered load.
    """
    if not records:
        zero = LatencySummary.zero()
        return ServeSummary(
            offered=offered,
            completed=0,
            rejected=rejected,
            elapsed_s=elapsed_s,
            generated_tokens=0,
            ttft=zero,
            tpot=zero,
            e2e=zero,
            queue_delay=zero,
            slo_attained=0,
            goodput_tokens_per_s=0.0,
            energy_wh=0.0,
            energy_per_request_wh=0.0,
            tokens_per_wh=0.0,
        )
    slo = slo if slo is not None else SLOPolicy()
    generated = sum(r.generate_tokens for r in records)
    attained = [r for r in records if slo.met(r)]
    good_tokens = sum(r.generate_tokens for r in attained)
    energy = sum(r.energy_wh for r in records)
    return ServeSummary(
        offered=offered,
        completed=len(records),
        rejected=rejected,
        elapsed_s=elapsed_s,
        generated_tokens=generated,
        ttft=LatencySummary.of([r.ttft_s for r in records]),
        tpot=LatencySummary.of([r.tpot_s for r in records]),
        e2e=LatencySummary.of([r.e2e_s for r in records]),
        queue_delay=LatencySummary.of([r.queue_delay_s for r in records]),
        slo_attained=len(attained),
        goodput_tokens_per_s=good_tokens / elapsed_s if elapsed_s > 0 else 0.0,
        energy_wh=energy,
        energy_per_request_wh=energy / len(records),
        tokens_per_wh=generated / energy if energy > 0 else 0.0,
    )


class StreamingSummarizer:
    """Bounded-memory :class:`ServeSummary` builder fed completion records.

    The streaming counterpart of :func:`summarize`: latency percentiles
    come from P² sketches instead of sorting stored samples, so the
    summary of a million-request run holds the sketches and one
    :data:`_FOLD_CHUNK`-record buffer per latency, not the samples.  The
    resulting summary carries ``percentile_mode="p2"`` and its
    percentiles may differ from exact nearest-rank within the sketch
    module's documented tolerance.
    """

    def __init__(self, *, slo: SLOPolicy | None = None) -> None:
        self.slo = slo if slo is not None else SLOPolicy()
        self.completed = 0
        self.generated_tokens = 0
        self.good_tokens = 0
        self.slo_attained = 0
        self.energy_wh = 0.0
        self._ttft = StreamingQuantiles(SUMMARY_PERCENTILES)
        self._tpot = StreamingQuantiles(SUMMARY_PERCENTILES)
        self._e2e = StreamingQuantiles(SUMMARY_PERCENTILES)
        self._queue_delay = StreamingQuantiles(SUMMARY_PERCENTILES)

    def observe_records(self, records: Iterable[RequestRecord]) -> None:
        """Fold completion-order records into the summary.

        One pass in record order updates the counts, tokens, energy and
        SLO attainment and buffers the four latency columns; every
        :data:`_FOLD_CHUNK` records the buffers are folded into the P²
        sketches and emptied, so the summary's memory stays bounded
        however many records stream through.
        """
        met = self.slo.met_values
        sketches = (self._ttft, self._tpot, self._e2e, self._queue_delay)
        columns: tuple[list[float], ...] = ([], [], [], [])
        ttft, tpot, e2e, queue_delay = columns

        def fold() -> None:
            for sketch, column in zip(sketches, columns):
                sketch.observe_many(column)
                column.clear()

        for record in records:
            ttft_s = record.ttft_s
            e2e_s = record.e2e_s
            ttft.append(ttft_s)
            tpot.append(record.tpot_s)
            e2e.append(e2e_s)
            queue_delay.append(record.queue_delay_s)
            self.completed += 1
            self.generated_tokens += record.generate_tokens
            self.energy_wh += record.energy_wh
            if met(ttft_s, e2e_s):
                self.slo_attained += 1
                self.good_tokens += record.generate_tokens
            if len(ttft) == _FOLD_CHUNK:
                fold()
        if ttft:
            fold()

    def summary(
        self, *, offered: int, rejected: int, elapsed_s: float
    ) -> ServeSummary:
        """The sketch-mode summary of everything observed so far."""
        return ServeSummary(
            offered=offered,
            completed=self.completed,
            rejected=rejected,
            elapsed_s=elapsed_s,
            generated_tokens=self.generated_tokens,
            ttft=LatencySummary.from_streaming(self._ttft),
            tpot=LatencySummary.from_streaming(self._tpot),
            e2e=LatencySummary.from_streaming(self._e2e),
            queue_delay=LatencySummary.from_streaming(self._queue_delay),
            slo_attained=self.slo_attained,
            goodput_tokens_per_s=(
                self.good_tokens / elapsed_s if elapsed_s > 0 else 0.0
            ),
            energy_wh=self.energy_wh,
            energy_per_request_wh=(
                self.energy_wh / self.completed if self.completed else 0.0
            ),
            tokens_per_wh=(
                self.generated_tokens / self.energy_wh if self.energy_wh > 0 else 0.0
            ),
            percentile_mode=PERCENTILE_MODE_SKETCH,
        )


def summarize_completions(
    records: Iterable[RequestRecord],
    *,
    percentile_mode: str,
    slo: SLOPolicy,
    offered: int,
    rejected: int,
    elapsed_s: float,
    keep: Callable[[RequestRecord], object] | None = None,
) -> tuple[ServeSummary, tuple | None]:
    """A run's summary, and the records it keeps, from its completions.

    ``records`` yields one record per completed request, in completion
    order.  In ``"p2"`` mode they stream into P² sketches in that order
    and none is kept.  In ``"exact"`` mode each record is passed through
    ``keep`` (identity when ``None``) in completion order, the kept
    values are ordered by request index, and the summary is nearest-rank
    over the records in that order.  Returns ``(summary, kept)`` with
    ``kept`` ``None`` in p2 mode.
    """
    if percentile_mode == PERCENTILE_MODE_SKETCH:
        streamer = StreamingSummarizer(slo=slo)
        streamer.observe_records(records)
        summary = streamer.summary(
            offered=offered, rejected=rejected, elapsed_s=elapsed_s
        )
        return summary, None
    pairs = [(record, record if keep is None else keep(record)) for record in records]
    pairs.sort(key=lambda pair: pair[0].index)
    summary = summarize(
        [record for record, _ in pairs],
        offered=offered,
        rejected=rejected,
        elapsed_s=elapsed_s,
        slo=slo,
    )
    return summary, tuple(kept for _, kept in pairs)


class ServeResult:
    """Everything one serving run produced, on one engine or a fleet.

    ``train`` is the familiar result-table row (the serving summary is
    flattened into its ``extra``).  ``summary`` is a
    :class:`ServeSummary` for a single engine and a
    :class:`~repro.serve.cluster.result.ClusterSummary` for a cluster;
    ``records`` carry the per-request detail the summary was computed
    from (:class:`RequestRecord`, or
    :class:`~repro.serve.cluster.result.ClusterRecord` with routing
    detail) — available in ``percentile_mode="exact"`` only.  In
    ``"p2"`` mode the result stores none and reading ``records`` raises
    :class:`~repro.errors.ConfigError`; the cluster folds each record
    into the summary when its request completes (O(1) record emission),
    while the single engine builds them after the run, for the energy
    it attributes from the measured frame.
    ``alerts`` is the burn-rate monitor's summary when one was attached
    (``None`` otherwise — telemetry off).
    """

    __slots__ = ("train", "summary", "rejected", "alerts", "_records")

    def __init__(
        self,
        *,
        train: TrainResult,
        summary,
        records: tuple | None,
        rejected: tuple,
        alerts: dict | None = None,
    ) -> None:
        self.train = train
        self.summary = summary
        self.rejected = rejected
        self.alerts = alerts
        self._records = records

    @property
    def records(self) -> tuple:
        """The per-request records (exact mode only).

        Raises :class:`~repro.errors.ConfigError` on a
        ``percentile_mode="p2"`` run, which does not store them.
        """
        if self._records is None:
            raise ConfigError(NO_RECORDS_MESSAGE)
        return self._records

    @property
    def has_records(self) -> bool:
        """Whether the run stored per-request records."""
        return self._records is not None

    def records_json(self) -> str:
        """Deterministic JSON of the per-request records.

        Byte-identical across runs with the same seed, configuration
        and fault plan — the serving counterpart of the campaign
        layer's content-addressing guarantee.  Raises
        :class:`~repro.errors.ConfigError` on a p2-mode run.
        """
        return json.dumps(
            [r.to_dict() for r in self.records],
            sort_keys=True,
            separators=(",", ":"),
        )
