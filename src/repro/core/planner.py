"""Reporting-season planning under a global budget.

The paper's motivation is the *periodical* nature of Solvency II work:
"companies are required to conduct consistent evaluation and continuous
monitoring of risks", with quarterly and annual reporting peaks.  A
reporting season is therefore a *queue* of simulations, and the natural
management question is not per-run but seasonal: given the whole queue,
the per-run deadline and a dollar budget, what should each run deploy
on?

:class:`ReportingSeasonPlanner` answers it in two steps:

1. **baseline plan** — Algorithm 1's cheapest-feasible choice per run
   (the per-run optimum; no plan can be cheaper while meeting the
   deadlines);
2. **budget-aware acceleration** — any leftover budget is spent
   greedily on the configuration upgrades with the best
   seconds-saved-per-extra-dollar ratio, shrinking the season's total
   wall-clock time within the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.selection import ConfigurationSelector, DeployChoice
from repro.disar.eeb import CharacteristicParameters, SimulationSettings
from repro.proxy.costs import (
    TIERS,
    exact_tier_inner_sims,
    predicted_relative_error,
    proxy_tier_inner_sims,
)

__all__ = [
    "PlannedRun",
    "CampaignPlan",
    "ReportingSeasonPlanner",
    "TierChoice",
    "TierPlanner",
]


@dataclass
class PlannedRun:
    """One queued simulation with its chosen deploy."""

    index: int
    params: CharacteristicParameters
    choice: DeployChoice
    upgraded: bool = False


@dataclass
class CampaignPlan:
    """A full season's deployment plan."""

    runs: list[PlannedRun]
    budget_usd: float
    tmax_seconds: float

    @property
    def total_cost(self) -> float:
        return float(sum(run.choice.predicted_cost_usd for run in self.runs))

    @property
    def total_seconds(self) -> float:
        return float(sum(run.choice.predicted_seconds for run in self.runs))

    @property
    def within_budget(self) -> bool:
        return self.total_cost <= self.budget_usd + 1e-9

    @property
    def all_deadlines_met(self) -> bool:
        return all(run.choice.feasible for run in self.runs)

    @property
    def n_upgraded(self) -> int:
        return sum(run.upgraded for run in self.runs)

    def summary(self) -> str:
        lines = [
            f"Season plan: {len(self.runs)} runs, "
            f"${self.total_cost:.2f} of ${self.budget_usd:.2f} budget, "
            f"{self.total_seconds:,.0f}s total predicted time",
            f"  deadlines met : {self.all_deadlines_met}",
            f"  upgraded runs : {self.n_upgraded}",
        ]
        return "\n".join(lines)


class ReportingSeasonPlanner:
    """Plans a queue of simulations against a seasonal budget."""

    def __init__(self, selector: ConfigurationSelector) -> None:
        self.selector = selector

    def _cheapest_feasible(
        self, params: CharacteristicParameters, tmax_seconds: float
    ) -> DeployChoice:
        choices = self.selector.evaluate_all(params, tmax_seconds)
        feasible = [c for c in choices if c.feasible]
        if feasible:
            return min(feasible, key=lambda c: c.predicted_cost_usd)
        return min(choices, key=lambda c: c.predicted_seconds)

    def plan(
        self,
        workloads: list[CharacteristicParameters],
        tmax_seconds: float,
        budget_usd: float,
        accelerate: bool = True,
    ) -> CampaignPlan:
        """Build the season plan.

        The baseline assigns every run its cheapest feasible
        configuration.  With ``accelerate=True`` the remaining budget is
        spent on greedy upgrades (best seconds-per-dollar first) until
        exhausted; acceleration never breaks the budget and never makes
        a run infeasible.
        """
        if not workloads:
            raise ValueError("no workloads to plan")
        if budget_usd <= 0:
            raise ValueError(f"budget_usd must be positive, got {budget_usd}")
        runs = [
            PlannedRun(
                index=i,
                params=params,
                choice=self._cheapest_feasible(params, tmax_seconds),
            )
            for i, params in enumerate(workloads)
        ]
        plan = CampaignPlan(runs=runs, budget_usd=budget_usd,
                            tmax_seconds=tmax_seconds)
        if accelerate and plan.within_budget:
            self._accelerate(plan)
        return plan

    def _accelerate(self, plan: CampaignPlan) -> None:
        """Spend leftover budget on the best time-per-dollar upgrades."""
        remaining = plan.budget_usd - plan.total_cost
        # Each run's configurations are evaluated once; every greedy
        # step rescans them against the run's current choice.
        options = [
            self.selector.evaluate_all(run.params, plan.tmax_seconds)
            for run in plan.runs
        ]
        while True:
            best_ratio = 0.0
            best: tuple[PlannedRun, DeployChoice] | None = None
            for run, candidates in zip(plan.runs, options):
                current = run.choice
                for candidate in candidates:
                    if not candidate.feasible and current.feasible:
                        continue
                    extra = candidate.predicted_cost_usd - current.predicted_cost_usd
                    saved = current.predicted_seconds - candidate.predicted_seconds
                    if saved <= 0 or extra <= 0 or extra > remaining:
                        continue
                    ratio = saved / extra
                    if ratio > best_ratio:
                        best_ratio = ratio
                        best = (run, candidate)
            if best is None:
                return
            run, candidate = best
            remaining -= (
                candidate.predicted_cost_usd - run.choice.predicted_cost_usd
            )
            run.choice = candidate
            run.upgraded = True


@dataclass(frozen=True)
class TierChoice:
    """One SCR tier priced by the tier planner."""

    tier: str
    predicted_seconds: float
    predicted_error: float
    inner_sims: int
    #: Meets the deadline.
    feasible: bool
    #: Meets the error tolerance.
    accurate: bool


class TierPlanner:
    """Algorithm 1's tier axis: pick how *accurately* to simulate.

    The deploy selector picks *where* a run executes; this planner picks
    *which SCR tier* it runs — ``exact`` or ``proxy`` — by
    predicting both the execution time (via the tier's exact
    inner-simulation count, the unit runtime is proportional to) and the
    relative SCR error of every tier, then choosing the cheapest tier
    that meets the deadline *and* the error tolerance.

    Parameters
    ----------
    seconds_per_inner_sim:
        Measured (or predicted) seconds per exact inner simulation on
        the target configuration — the bridge from the cost model's
        abstract unit to wall-clock.
    overhead_seconds:
        Fixed per-run cost added to every tier (outer stage, fitting,
        reporting).
    gate_tolerance, n_train, n_validation:
        Proxy-tier budget assumed when pricing it.
    """

    def __init__(
        self,
        seconds_per_inner_sim: float,
        overhead_seconds: float = 0.0,
        gate_tolerance: float = 0.02,
        n_train: int = 64,
        n_validation: int = 32,
    ) -> None:
        if seconds_per_inner_sim <= 0.0:
            raise ValueError(
                f"seconds_per_inner_sim must be positive, got "
                f"{seconds_per_inner_sim}"
            )
        if overhead_seconds < 0.0:
            raise ValueError(
                f"overhead_seconds must be >= 0, got {overhead_seconds}"
            )
        self.seconds_per_inner_sim = float(seconds_per_inner_sim)
        self.overhead_seconds = float(overhead_seconds)
        self.gate_tolerance = float(gate_tolerance)
        self.n_train = int(n_train)
        self.n_validation = int(n_validation)

    def _inner_sims(self, tier: str, n_outer: int, n_inner: int) -> int:
        if tier == "exact":
            return exact_tier_inner_sims(n_outer, n_inner)
        return proxy_tier_inner_sims(self.n_train, self.n_validation, n_inner)

    def evaluate_all(
        self,
        n_outer: int,
        n_inner: int,
        tmax_seconds: float,
        error_tolerance: float,
    ) -> list[TierChoice]:
        """Price every tier for one ``(n_outer, n_inner)`` workload."""
        if tmax_seconds <= 0.0 or error_tolerance <= 0.0:
            raise ValueError(
                "tmax_seconds and error_tolerance must be positive"
            )
        choices = []
        for tier in TIERS:
            sims = self._inner_sims(tier, n_outer, n_inner)
            seconds = self.overhead_seconds + sims * self.seconds_per_inner_sim
            error = predicted_relative_error(
                tier,
                n_outer,
                n_inner,
                gate_tolerance=self.gate_tolerance,
            )
            choices.append(
                TierChoice(
                    tier=tier,
                    predicted_seconds=float(seconds),
                    predicted_error=float(error),
                    inner_sims=sims,
                    feasible=bool(seconds <= tmax_seconds),
                    accurate=bool(error <= error_tolerance),
                )
            )
        return choices

    def select(
        self,
        n_outer: int,
        n_inner: int,
        tmax_seconds: float,
        error_tolerance: float,
    ) -> TierChoice:
        """Cheapest tier meeting both the deadline and the tolerance.

        When no tier meets both, accuracy wins over the deadline (a
        wrong SCR is worse than a late one under Solvency II): the
        planner returns the lowest-error tier, fastest first on ties.
        """
        choices = self.evaluate_all(
            n_outer, n_inner, tmax_seconds, error_tolerance
        )
        admissible = [c for c in choices if c.feasible and c.accurate]
        if admissible:
            return min(admissible, key=lambda c: c.predicted_seconds)
        return min(
            choices,
            key=lambda c: (c.predicted_error, c.predicted_seconds),
        )

    def apply(
        self, settings: SimulationSettings, choice: TierChoice
    ) -> SimulationSettings:
        """``settings`` re-targeted at the chosen tier.

        The proxy budget the planner priced is written into the
        settings, so the run executes exactly the configuration that was
        costed.
        """
        if choice.tier == "proxy":
            return replace(
                settings,
                tier="proxy",
                proxy_train=self.n_train,
                proxy_validation=self.n_validation,
                proxy_tolerance=self.gate_tolerance,
            )
        return replace(settings, tier="exact")
