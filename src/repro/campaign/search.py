"""Successive-halving Pareto search over serve campaigns.

Exhaustively executing a serve sweep costs (configs × requests) decode
work even though most configurations are nowhere near the SLO-energy
frontier.  :class:`SearchRunner` prunes them early without giving up
exactness:

1. **Screen** every planned configuration on a short shared prefix of
   its arrival stream (``screen_requests``), batched by stream so one
   worker dispatch evaluates many configs against one generated
   stream.
2. **Prune** configurations strictly dominated — beyond slack — on the
   (SLO attainment ↑, energy per request ↓) plane, recording each as a
   durable ``pruned`` row whose outputs carry the screening provenance
   (rung, prefix length, dominating config).
3. **Grow** the prefix by ``growth`` and repeat for ``rungs`` rounds.
4. **Finish** the survivors at full length using the *original*
   work items through the *same* executor — so every reported row is
   byte-identical to what exhaustive grid execution would have stored.

The pruning-safety contract (ARCHITECTURE.md): reported rows are only
ever full exact runs; screening numbers never leak into results; a
configuration that cannot be scored on the prefix (zero completions,
missing metrics, a screening error) is promoted to a full run, never
pruned; and a plain ``campaign run`` over a searched store re-executes
exactly the pruned configurations, converging to the exhaustive grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from repro.campaign.batch import group_stream_batches, stream_spec_for_item
from repro.campaign.hashing import calibration_fingerprint
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_PRUNED,
    CampaignRow,
    ResultStore,
)
from repro.errors import ConfigError
from repro.jube.runner import WorkItem, WorkpackageExecutor, WorkResult
from repro.jube.steps import order_steps
from repro.obs.log import get_logger
from repro.yamlio import safe_load

logger = get_logger(__name__)

#: Smallest screening prefix the default policy will pick.
MIN_SCREEN_REQUESTS = 8

#: Divisor applied to the full request count for the default prefix.
DEFAULT_SCREEN_DIVISOR = 64


@dataclass(frozen=True)
class SearchPolicy:
    """Knobs of the successive-halving search.

    ``screen_requests`` is the first rung's arrival-stream prefix
    length (None → full request count / 64, floored at
    :data:`MIN_SCREEN_REQUESTS`); each further rung multiplies it by
    ``growth``.  ``slack_attainment`` (absolute) and ``slack_energy``
    (relative) make pruning conservative: a config is dropped only when
    another beats it by *more* than the slack on both axes, absorbing
    prefix-vs-full estimation noise.  ``min_keep`` configs always
    survive to full execution, and ``attainment_goal`` feeds the
    recommender.
    """

    screen_requests: int | None = None
    growth: int = 4
    rungs: int = 2
    slack_attainment: float = 0.02
    slack_energy: float = 0.05
    min_keep: int = 4
    attainment_goal: float = 0.99

    def __post_init__(self) -> None:
        if self.screen_requests is not None and self.screen_requests < 1:
            raise ConfigError("screen_requests must be >= 1")
        if self.growth < 2:
            raise ConfigError("growth must be >= 2")
        if self.rungs < 1:
            raise ConfigError("rungs must be >= 1")
        if self.slack_attainment < 0 or self.slack_energy < 0:
            raise ConfigError("slacks must be >= 0")
        if not 0.0 <= self.slack_energy < 1.0:
            raise ConfigError("slack_energy must be in [0, 1)")
        if self.min_keep < 1:
            raise ConfigError("min_keep must be >= 1")
        if not 0.0 < self.attainment_goal <= 1.0:
            raise ConfigError("attainment_goal must be in (0, 1]")

    def first_budget(self, full_requests: int) -> int:
        """The screening prefix length for a ``full_requests``-long run."""
        if self.screen_requests is not None:
            return min(self.screen_requests, full_requests)
        guess = max(MIN_SCREEN_REQUESTS, full_requests // DEFAULT_SCREEN_DIVISOR)
        return min(guess, full_requests)

    @classmethod
    def from_dict(cls, doc: dict | None) -> "SearchPolicy":
        """A policy from a plain mapping (the spec's ``search:`` block)."""
        doc = doc or {}
        if not isinstance(doc, dict):
            raise ConfigError("'search' section must be a mapping")
        known = {
            "screen_requests", "growth", "rungs", "slack_attainment",
            "slack_energy", "min_keep", "attainment_goal",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown search policy keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key in ("screen_requests", "growth", "rungs", "min_keep"):
            if key in doc and doc[key] is not None:
                kwargs[key] = int(doc[key])
        for key in ("slack_attainment", "slack_energy", "attainment_goal"):
            if key in doc and doc[key] is not None:
                kwargs[key] = float(doc[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Plain-mapping form (round-trips through :meth:`from_dict`)."""
        return {
            "screen_requests": self.screen_requests,
            "growth": self.growth,
            "rungs": self.rungs,
            "slack_attainment": self.slack_attainment,
            "slack_energy": self.slack_energy,
            "min_keep": self.min_keep,
            "attainment_goal": self.attainment_goal,
        }


def load_search_spec(path: str | Path) -> tuple[CampaignSpec, SearchPolicy]:
    """Load a campaign spec plus its ``search:`` policy from one YAML.

    The same file drives both ``campaign run`` (which ignores the
    ``search`` section) and ``caraml search`` — so equivalence between
    the two modes can be checked on a single source of truth.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no campaign spec at {p}")
    try:
        doc = safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid campaign YAML: {exc}") from None
    spec = CampaignSpec.from_dict(doc)
    policy = SearchPolicy.from_dict(doc.get("search") if isinstance(doc, dict) else None)
    return spec, policy


@dataclass
class _Candidate:
    """One configuration moving through the search rungs."""

    key: str
    index: int
    item: WorkItem
    full_requests: int | None
    attainment: float | None = None
    energy: float | None = None
    scoreable: bool = False

    def score(self, outputs: dict, error: str | None) -> None:
        """Record screening metrics; unscoreable stays promoted."""
        self.attainment = self.energy = None
        self.scoreable = False
        if error:
            return
        attainment = outputs.get("slo_attainment")
        energy = outputs.get("energy_per_request_wh")
        completed = outputs.get("completed_requests", 0)
        if (
            isinstance(attainment, (int, float))
            and isinstance(energy, (int, float))
            and isinstance(completed, (int, float))
            and completed > 0
        ):
            self.attainment = float(attainment)
            self.energy = float(energy)
            self.scoreable = True


@dataclass
class SearchReport:
    """Outcome of one :meth:`SearchRunner.search` invocation."""

    campaign: str
    policy: SearchPolicy
    total: int = 0
    cached: int = 0
    executed: int = 0
    pruned: int = 0
    failed: int = 0
    screening_requests: int = 0
    full_requests: int = 0
    exhaustive_requests: int = 0
    rung_sizes: list[int] = field(default_factory=list)
    elapsed_s: float = 0.0
    frontier: list[dict] = field(default_factory=list)
    recommendation: object | None = None
    rows: list[CampaignRow] = field(default_factory=list)

    @property
    def evaluated_requests(self) -> int:
        """Requests actually simulated (screening + full survivors)."""
        return self.screening_requests + self.full_requests

    @property
    def request_savings(self) -> float:
        """Fraction of exhaustive request work the search skipped."""
        if self.exhaustive_requests <= 0:
            return 0.0
        return 1.0 - self.evaluated_requests / self.exhaustive_requests

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"search {self.campaign!r}: {self.total} configs — "
            f"{self.cached} cached, {self.executed} run in full, "
            f"{self.pruned} pruned, {self.failed} failed "
            f"({self.elapsed_s:.2f}s)",
            f"  request budget: {self.evaluated_requests} evaluated vs "
            f"{self.exhaustive_requests} exhaustive "
            f"({self.request_savings:.0%} saved)",
            f"  frontier: {len(self.frontier)} exact config(s)",
        ]
        for row in self.frontier:
            lines.append(
                f"    {row['config']}: attainment {row['slo_attainment']:.2%}, "
                f"{row['energy_per_request_wh']:.6f} Wh/request"
            )
        if self.recommendation is not None:
            lines.append(self.recommendation.describe())
        return "\n".join(lines)


class SearchRunner:
    """Pruned Pareto search over a serve campaign's configuration grid.

    Composes a :class:`~repro.campaign.runner.CampaignRunner` for
    planning, keying, and the store/executor seams — survivors run
    through exactly the machinery an exhaustive ``run`` would use.
    The executor must offer ``run_item_batches``, as both campaign
    executors do.
    """

    def __init__(
        self,
        store: ResultStore,
        executor: WorkpackageExecutor | None = None,
    ) -> None:
        self.runner = CampaignRunner(store, executor=executor)
        self.store = store

    # -- screening ----------------------------------------------------------

    @staticmethod
    def _full_requests(item: WorkItem) -> int | None:
        """The config's full request count, or None if unscreenable."""
        arrivals = stream_spec_for_item(item)
        if arrivals is not None:
            return arrivals.requests
        try:
            return int(item.parameters["requests"])
        except (KeyError, TypeError, ValueError):
            return None

    def _screen(self, step, candidates: list[_Candidate], budget_of) -> int:
        """Run one screening rung; returns requests simulated.

        ``budget_of`` maps a candidate's full request count to this
        rung's prefix length.  Results land on the candidates; they are
        never stored.
        """
        budgets = [budget_of(cand.full_requests) for cand in candidates]
        items = [
            WorkItem(
                step=step,
                parameters={**cand.item.parameters, "requests": str(budget)},
                index=cand.index,
            )
            for cand, budget in zip(candidates, budgets)
        ]
        results = self._run_batched(items)
        for cand, item in zip(candidates, items):
            result = results[id(item)]
            cand.score(dict(result.outputs), result.error)
        return sum(budgets)

    def _run_batched(self, items: list[WorkItem]) -> dict[int, WorkResult]:
        """Each item's result, keyed by ``id(item)``.

        Items run in stream-sharing batches through the executor's
        batched seam, so configurations over one arrival stream share
        its generation.
        """
        batches = group_stream_batches(items)
        results = self.runner.executor.run_item_batches(batches)
        return {
            id(item): result
            for batch, batch_results in zip(batches, results)
            for item, result in zip(batch, batch_results)
        }

    @staticmethod
    def _prune(
        policy: SearchPolicy, candidates: list[_Candidate]
    ) -> tuple[list[_Candidate], list[tuple[_Candidate, _Candidate]]]:
        """Split one rung's candidates into survivors and pruned.

        A candidate is pruned only when some other candidate beats it
        by more than the slack on *both* axes; unscoreable candidates
        always survive (pruning-safety).  The attainment target clamps
        at 1.0 so saturated candidates (everyone attains the SLO) can
        still be separated on energy.  If pruning would leave fewer
        than ``min_keep`` survivors, the best pruned candidates are
        reinstated deterministically.
        """
        scoreable = [c for c in candidates if c.scoreable]
        unscoreable = [c for c in candidates if not c.scoreable]
        survivors: list[_Candidate] = []
        pruned: list[tuple[_Candidate, _Candidate]] = []
        for cand in scoreable:
            target = min(cand.attainment + policy.slack_attainment, 1.0)
            dominators = [
                other
                for other in scoreable
                if other is not cand
                and other.attainment >= target
                and other.energy <= cand.energy * (1.0 - policy.slack_energy)
            ]
            if dominators:
                best = min(
                    dominators, key=lambda o: (-o.attainment, o.energy, o.key)
                )
                pruned.append((cand, best))
            else:
                survivors.append(cand)
        deficit = policy.min_keep - (len(survivors) + len(unscoreable))
        if deficit > 0 and pruned:
            pruned.sort(key=lambda pair: (-pair[0].attainment, pair[0].energy, pair[0].index))
            for pair in pruned[:deficit]:
                survivors.append(pair[0])
            pruned = pruned[deficit:]
        return survivors + unscoreable, pruned

    # -- full execution -----------------------------------------------------

    def _finish(self, spec, survivors: list[_Candidate]) -> list[CampaignRow]:
        """Full-length exact runs of the survivors, stored durably.

        The original work items go through the same executor an
        exhaustive run uses, so the stored rows are byte-identical to
        grid execution.
        """
        results = self._run_batched([cand.item for cand in survivors])
        return [
            CampaignRow.from_result(
                cand.key, spec.name, cand.item, results[id(cand.item)]
            )
            for cand in survivors
        ]

    @staticmethod
    def _pruned_row(
        spec, step, cand: _Candidate, dominator: _Candidate, rung: int, budget: int
    ) -> CampaignRow:
        """The durable provenance row of one pruned configuration."""
        return CampaignRow(
            key=cand.key,
            campaign=spec.name,
            step=step.name,
            index=cand.index,
            parameters=dict(cand.item.parameters),
            status=STATUS_PRUNED,
            outputs={
                "pruned": True,
                "rung": rung,
                "screen_requests": budget,
                "screen_slo_attainment": cand.attainment,
                "screen_energy_per_request_wh": cand.energy,
                "dominated_by": dominator.key,
                "dominated_by_index": dominator.index,
            },
        )

    # -- driver -------------------------------------------------------------

    def search(
        self,
        spec: CampaignSpec,
        policy: SearchPolicy | None = None,
    ) -> SearchReport:
        """Run the pruned search; reported rows are exact full runs."""
        policy = policy or SearchPolicy()
        script = spec.compile()
        calibration_hash = calibration_fingerprint()
        start = time.perf_counter()
        report = SearchReport(campaign=spec.name, policy=policy)
        exact_rows: list[CampaignRow] = []
        for step in order_steps(script.steps):
            if step.depends:
                raise ConfigError(
                    f"search supports dependency-free steps only; "
                    f"{step.name!r} depends on {list(step.depends)}"
                )
            planned = self.runner._planned_items(script, step, {}, calibration_hash)
            report.total += len(planned)
            stored = self.store.get_many([p[0] for p in planned])
            candidates: list[_Candidate] = []
            for key, combo, index, item in planned:
                row = stored.get(key)
                if row is not None and row.status in (STATUS_COMPLETED, STATUS_FAILED):
                    # Exact knowledge (or a durable failure): no need
                    # to screen — it participates in the frontier as-is.
                    report.cached += 1
                    if row.status == STATUS_FAILED:
                        report.failed += 1
                    exact_rows.append(row)
                    report.rows.append(row)
                    continue
                if row is not None and row.status == STATUS_PRUNED:
                    # A durable prune decision from an earlier search:
                    # honor it (re-search is idempotent).  A plain
                    # ``campaign run`` — not re-search — is the way to
                    # force the exact row.
                    report.pruned += 1
                    report.rows.append(row)
                    continue
                if item is None:
                    item = WorkItem(step=step, parameters=combo, index=index)
                candidates.append(
                    _Candidate(
                        key=key,
                        index=index,
                        item=item,
                        full_requests=self._full_requests(item),
                    )
                )
            report.exhaustive_requests += sum(
                c.full_requests or 0 for c in candidates
            )
            if not candidates:
                continue
            active = candidates
            pruned_rows: list[CampaignRow] = []
            if len(candidates) > policy.min_keep:
                for rung in range(policy.rungs):
                    screenable = [
                        c
                        for c in active
                        if c.full_requests is not None
                        and self._rung_budget(policy, c.full_requests, rung)
                        < c.full_requests
                    ]
                    if len(screenable) <= policy.min_keep:
                        break
                    budget_of = lambda full, r=rung: self._rung_budget(  # noqa: E731
                        policy, full, r
                    )
                    spent = self._screen(step, screenable, budget_of)
                    report.screening_requests += spent
                    report.rung_sizes.append(len(screenable))
                    survivors, pruned = self._prune(policy, screenable)
                    for cand, dominator in pruned:
                        pruned_rows.append(
                            self._pruned_row(
                                spec, step, cand, dominator, rung,
                                budget_of(cand.full_requests),
                            )
                        )
                    screen_ids = {id(c) for c in screenable}
                    unscreenable = [c for c in active if id(c) not in screen_ids]
                    active = survivors + unscreenable
                    logger.info(
                        "search %s rung %d: %d screened, %d pruned, %d active",
                        step.name, rung, len(screenable), len(pruned), len(active),
                    )
                    if len(active) <= policy.min_keep:
                        break
            full_rows = self._finish(spec, active)
            report.executed += len(full_rows)
            report.full_requests += sum(c.full_requests or 0 for c in active)
            report.failed += sum(1 for r in full_rows if r.error)
            report.pruned += len(pruned_rows)
            self.store.put_many(full_rows + pruned_rows)
            exact_rows.extend(full_rows)
            report.rows.extend(full_rows)
            report.rows.extend(pruned_rows)

        # Imported here, not at module top: repro.analysis pulls in the
        # report (which itself runs a search), so a top-level import
        # would be circular.
        from repro.analysis.frontier import (
            frontier_rows,
            points_from_rows,
            recommend,
        )

        points = points_from_rows(exact_rows)
        report.frontier = frontier_rows(points)
        report.recommendation = recommend(points, policy.attainment_goal)
        report.elapsed_s = time.perf_counter() - start
        logger.info("%s", report.describe().splitlines()[0])
        return report

    @staticmethod
    def _rung_budget(policy: SearchPolicy, full_requests: int, rung: int) -> int:
        """This rung's prefix length for a ``full_requests``-long config."""
        budget = policy.first_budget(full_requests) * (policy.growth ** rung)
        return min(budget, full_requests)
