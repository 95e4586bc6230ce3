"""Tests for the reporting-season planner."""

import numpy as np
import pytest

from repro.core.planner import ReportingSeasonPlanner
from repro.core.selection import ConfigurationSelector
from repro.disar.eeb import CharacteristicParameters


@pytest.fixture
def planner(fitted_family):
    selector = ConfigurationSelector(fitted_family, max_nodes=4,
                                     epsilon=0.0, seed=0)
    return ReportingSeasonPlanner(selector)


@pytest.fixture
def workloads():
    rng = np.random.default_rng(0)
    return [
        CharacteristicParameters(
            n_contracts=int(rng.integers(20, 250)),
            max_horizon=int(rng.integers(8, 35)),
            n_fund_assets=int(rng.integers(50, 350)),
            n_risk_factors=int(rng.integers(2, 7)),
        )
        for _ in range(6)
    ]


class TestBaselinePlan:
    def test_baseline_is_per_run_minimum(self, planner, workloads):
        plan = planner.plan(workloads, tmax_seconds=1e9, budget_usd=1e9,
                            accelerate=False)
        for run in plan.runs:
            feasible = [
                c for c in planner.selector.evaluate_all(run.params, 1e9)
                if c.feasible
            ]
            cheapest = min(c.predicted_cost_usd for c in feasible)
            assert run.choice.predicted_cost_usd == pytest.approx(cheapest)
        assert not plan.n_upgraded

    def test_plan_covers_all_workloads_in_order(self, planner, workloads):
        plan = planner.plan(workloads, 1e9, 1e9, accelerate=False)
        assert [run.index for run in plan.runs] == list(range(6))

    def test_budget_flag(self, planner, workloads):
        rich = planner.plan(workloads, 1e9, budget_usd=1e9, accelerate=False)
        poor = planner.plan(workloads, 1e9, budget_usd=1e-6, accelerate=False)
        assert rich.within_budget
        assert not poor.within_budget
        # The baseline cost does not depend on the budget.
        assert rich.total_cost == pytest.approx(poor.total_cost)

    def test_validation(self, planner):
        with pytest.raises(ValueError, match="workloads"):
            planner.plan([], 100.0, 10.0)
        with pytest.raises(ValueError, match="budget"):
            planner.plan([CharacteristicParameters(10, 10, 100, 4)],
                         100.0, 0.0)


class TestAcceleration:
    def test_acceleration_reduces_time_within_budget(self, planner, workloads):
        baseline = planner.plan(workloads, 1e9, budget_usd=1e9,
                                accelerate=False)
        budget = baseline.total_cost * 2.0
        accelerated = planner.plan(workloads, 1e9, budget_usd=budget,
                                   accelerate=True)
        assert accelerated.within_budget
        assert accelerated.total_seconds < baseline.total_seconds
        assert accelerated.n_upgraded >= 1

    def test_no_budget_no_upgrades(self, planner, workloads):
        baseline = planner.plan(workloads, 1e9, budget_usd=1e9,
                                accelerate=False)
        tight = planner.plan(workloads, 1e9,
                             budget_usd=baseline.total_cost * 1.0001,
                             accelerate=True)
        # Essentially no slack: at most negligible upgrades, and the
        # budget still holds.
        assert tight.within_budget

    def test_greedy_prefers_best_ratio(self, planner, workloads):
        baseline = planner.plan(workloads, 1e9, budget_usd=1e9,
                                accelerate=False)
        # Give exactly enough budget for a small upgrade.
        budget = baseline.total_cost * 1.3
        plan = planner.plan(workloads, 1e9, budget_usd=budget)
        assert plan.within_budget
        # Upgrades never make a feasible run infeasible.
        assert plan.all_deadlines_met

    def test_summary(self, planner, workloads):
        plan = planner.plan(workloads, 1e9, budget_usd=1e9)
        text = plan.summary()
        assert "Season plan: 6 runs" in text


class TestTierPlanner:
    """Algorithm 1's tier axis: time AND error, per tier."""

    @pytest.fixture
    def tier_planner(self):
        from repro.core.planner import TierPlanner

        return TierPlanner(
            seconds_per_inner_sim=1e-3,
            overhead_seconds=1.0,
            gate_tolerance=0.02,
            n_train=64,
            n_validation=32,
        )

    def test_prices_every_tier(self, tier_planner):
        choices = tier_planner.evaluate_all(
            4096, 256, tmax_seconds=3600.0, error_tolerance=0.05
        )
        assert [c.tier for c in choices] == ["exact", "proxy"]
        by_tier = {c.tier: c for c in choices}
        assert by_tier["exact"].inner_sims == 4096 * 256
        assert by_tier["proxy"].inner_sims == 96 * 256
        for choice in choices:
            assert choice.predicted_seconds == pytest.approx(
                1.0 + choice.inner_sims * 1e-3
            )
            assert choice.predicted_error > 0.0

    def test_selects_cheapest_admissible_tier(self, tier_planner):
        # Loose tolerance: the proxy tier is both admissible and by far
        # the cheapest, so the planner must pick it.
        choice = tier_planner.select(
            4096, 256, tmax_seconds=3600.0, error_tolerance=0.08
        )
        assert choice.tier == "proxy"
        assert choice.feasible and choice.accurate

    def test_tight_tolerance_forces_the_exact_tier(self, tier_planner):
        # Below the gate tolerance + outer noise, only exact qualifies.
        choice = tier_planner.select(
            4096, 256, tmax_seconds=3600.0, error_tolerance=0.025
        )
        assert choice.tier == "exact"

    def test_accuracy_wins_over_the_deadline(self, tier_planner):
        # No tier fits in one second; the planner refuses to trade
        # accuracy for the deadline and returns the lowest-error tier.
        choice = tier_planner.select(
            4096, 256, tmax_seconds=1.0, error_tolerance=0.025
        )
        assert not choice.feasible
        assert choice.tier == "exact"

    def test_reference_bench_configuration_selects_exact(self):
        from repro.core.planner import TierPlanner

        # The `repro bench proxy` reference configuration: the exact
        # tier measured 3.622 s over 4096 x 256 inner simulations.  A
        # 5% gate plus outer noise misses a 5% tolerance, so exact is
        # the only admissible tier.
        planner = TierPlanner(
            seconds_per_inner_sim=3.622 / 1048576,
            gate_tolerance=0.05,
            n_train=128,
            n_validation=32,
        )
        choice = planner.select(
            4096, 256, tmax_seconds=100, error_tolerance=0.05
        )
        assert choice.tier == "exact"
        assert choice.feasible and choice.accurate

    def test_apply_writes_the_priced_configuration(self, tier_planner):
        from dataclasses import replace

        from repro.disar.eeb import SimulationSettings

        settings = SimulationSettings(n_outer=4096, n_inner=256, use_lsmc=False)
        proxy = tier_planner.select(4096, 256, 3600.0, 0.08)
        applied = tier_planner.apply(settings, proxy)
        assert applied.tier == "proxy"
        assert applied.proxy_train == 64
        assert applied.proxy_validation == 32
        assert applied.proxy_tolerance == 0.02
        exact_choice = replace(proxy, tier="exact")
        assert tier_planner.apply(settings, exact_choice).tier == "exact"

    def test_validation(self, tier_planner):
        from repro.core.planner import TierPlanner

        with pytest.raises(ValueError):
            TierPlanner(seconds_per_inner_sim=0.0)
        with pytest.raises(ValueError):
            TierPlanner(seconds_per_inner_sim=1e-3, overhead_seconds=-1.0)
        with pytest.raises(ValueError):
            tier_planner.evaluate_all(256, 16, tmax_seconds=0.0,
                                      error_tolerance=0.05)
