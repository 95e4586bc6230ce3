"""Integration tests for the deadline-guarded runner.

Everything runs on the provider's virtual clock, so straggler VMs,
breaker cooldowns and elastic rescues are exercised deterministically in
milliseconds of real time.
"""

import numpy as np
import pytest

from repro.cloud.cluster import StarClusterManager
from repro.cloud.instance_types import INSTANCE_CATALOG
from repro.core.deploy import TransparentDeploySystem
from repro.core.selection import DeployChoice
from repro.core.self_optimizing import LoopReport
from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    FaultSchedule,
    LaunchFailure,
    SlowNode,
    SpotTermination,
)
from repro.runtime import DeadlineGuardedRunner


def cheap_choice(n_nodes=2, rank=1):
    """The ``rank``-th cheapest catalog architecture at ``n_nodes``."""
    catalog = sorted(
        INSTANCE_CATALOG.values(), key=lambda t: t.hourly_price_usd
    )
    return DeployChoice(
        instance_type=catalog[rank],
        n_nodes=n_nodes,
        predicted_seconds=float("nan"),
        predicted_cost_usd=float("nan"),
        feasible=True,
    )


@pytest.fixture(scope="module")
def blocks(small_campaign):
    return small_campaign.blocks[:2]


@pytest.fixture(scope="module")
def nominal_seconds(blocks):
    """Fault-free duration of the test campaign on the cheap choice."""
    runner = DeadlineGuardedRunner(StarClusterManager(seed=0))
    return runner.run(cheap_choice(), blocks, tmax_seconds=1e9).execution_seconds


SLOW_FLEET = FaultSchedule(events=(SlowNode(rank=0, multiplier=6.0),))


class TestNominalRun:
    def test_fault_free_run_meets_generous_deadline(self, blocks):
        manager = StarClusterManager(seed=0)
        runner = DeadlineGuardedRunner(manager)
        result = runner.run(cheap_choice(), blocks, tmax_seconds=1e9)
        assert result.deadline_met
        assert result.n_rescues == 0
        assert result.n_faults == 0
        assert not result.degraded
        assert result.wasted_cost_usd == 0.0
        assert result.cost_usd > 0.0
        assert result.final_choice == result.choice
        assert manager.active_clusters() == []
        assert "met" in result.describe()

    def test_validation(self, blocks):
        runner = DeadlineGuardedRunner(StarClusterManager(seed=0))
        with pytest.raises(ValueError, match="no blocks"):
            runner.run(cheap_choice(), [], tmax_seconds=100.0)
        with pytest.raises(ValueError, match="tmax_seconds"):
            runner.run(cheap_choice(), blocks, tmax_seconds=0.0)
        with pytest.raises(ValueError, match="n_segments"):
            DeadlineGuardedRunner(StarClusterManager(seed=0), n_segments=1)
        with pytest.raises(ValueError, match="max_rescues"):
            DeadlineGuardedRunner(StarClusterManager(seed=0), max_rescues=-1)


class TestElasticRescue:
    def test_straggler_triggers_rescue_that_beats_tmax(
        self, blocks, nominal_seconds
    ):
        tmax = 3.0 * nominal_seconds
        # Sanity: unrescued, the 6x straggler would blow the deadline.
        assert 6.0 * nominal_seconds > tmax
        runner = DeadlineGuardedRunner(StarClusterManager(seed=0))
        result = runner.run(
            cheap_choice(), blocks, tmax_seconds=tmax, fault_schedule=SLOW_FLEET
        )
        assert result.n_rescues == 1
        assert result.deadline_met
        assert result.degraded
        assert result.wasted_cost_usd > 0.0
        assert result.cost_usd > result.wasted_cost_usd
        assert result.rescue_choices
        assert result.final_choice == result.rescue_choices[-1]
        assert result.guard is not None and result.guard.n_breaches >= 1
        assert "rescue" in result.describe()

    def test_rescue_replay_is_deterministic(self, blocks, nominal_seconds):
        tmax = 3.0 * nominal_seconds

        def run():
            runner = DeadlineGuardedRunner(StarClusterManager(seed=0))
            return runner.run(
                cheap_choice(),
                blocks,
                tmax_seconds=tmax,
                fault_schedule=SLOW_FLEET,
            )

        first, second = run(), run()
        assert first.execution_seconds == second.execution_seconds
        assert first.cost_usd == second.cost_usd
        assert first.wasted_cost_usd == second.wasted_cost_usd
        assert (
            first.final_choice.instance_type.api_name
            == second.final_choice.instance_type.api_name
        )
        assert first.final_choice.n_nodes == second.final_choice.n_nodes

    def test_rescue_budget_of_zero_disables_rescue(
        self, blocks, nominal_seconds
    ):
        runner = DeadlineGuardedRunner(
            StarClusterManager(seed=0), max_rescues=0
        )
        result = runner.run(
            cheap_choice(),
            blocks,
            tmax_seconds=1.5 * nominal_seconds,
            fault_schedule=SLOW_FLEET,
        )
        assert result.n_rescues == 0
        assert not result.deadline_met  # the straggler runs to the end
        assert result.guard is not None and result.guard.n_breaches >= 1


class TestBreakerFallback:
    def test_breaker_opens_and_run_completes_on_fallback(self, blocks):
        runner = DeadlineGuardedRunner(StarClusterManager(seed=0))
        schedule = FaultSchedule(
            events=(
                LaunchFailure(call_index=1),
                LaunchFailure(call_index=2),
                LaunchFailure(call_index=3),
            )
        )
        result = runner.run(
            cheap_choice(), blocks, tmax_seconds=1e9, fault_schedule=schedule
        )
        assert runner.breaker.n_opens == 1
        assert runner.breaker.n_failures == 3
        assert runner.breaker.n_calls == 4
        assert result.n_fallback_launches == 1
        assert (
            result.final_choice.instance_type.api_name
            != result.choice.instance_type.api_name
        )
        assert result.deadline_met
        assert "fallback" in result.describe()

    def test_transient_launch_failure_retried_in_place(self, blocks):
        runner = DeadlineGuardedRunner(StarClusterManager(seed=0))
        schedule = FaultSchedule(events=(LaunchFailure(call_index=1),))
        result = runner.run(
            cheap_choice(), blocks, tmax_seconds=1e9, fault_schedule=schedule
        )
        # One retry absorbed the failure: same configuration, no fallback.
        assert result.n_fallback_launches == 0
        assert result.final_choice == result.choice
        assert runner.breaker.state == "closed"
        assert runner.breaker.n_failures == 1


class TestSpotEpochs:
    """A spot reclaim consumed against one cluster generation must stay
    dead on the rescue replacement (regression for the injector's
    epoch/consumed-set split)."""

    def test_consumed_spot_event_stays_dead_after_epoch(self):
        schedule = FaultSchedule(
            events=(SpotTermination(node_index=0, at_fraction=0.5),)
        )
        injector = FaultInjector(schedule)
        injector.begin_epoch()
        assert injector.take_spot_termination() is not None
        # The rescue re-provision opens a new epoch; counters reset but
        # the consumed set survives.
        injector.begin_epoch()
        assert injector.take_spot_termination() is None
        assert injector.pending_spot_terminations() == 0
        assert injector.n_fired == 1

    def test_timeline_filter_defers_unreached_events(self):
        schedule = FaultSchedule(
            events=(SpotTermination(node_index=0, at_fraction=0.8),)
        )
        injector = FaultInjector(schedule)
        assert injector.take_spot_termination(at_or_before=0.5) is None
        assert injector.pending_spot_terminations() == 1
        assert injector.take_spot_termination(at_or_before=1.0) is not None

    def test_reclaim_does_not_refire_on_rescue_cluster(
        self, blocks, nominal_seconds
    ):
        schedule = FaultSchedule(
            events=(
                SpotTermination(node_index=1, at_fraction=0.125),
                SlowNode(rank=0, multiplier=6.0),
            )
        )
        runner = DeadlineGuardedRunner(StarClusterManager(seed=0))
        result = runner.run(
            cheap_choice(),
            blocks,
            tmax_seconds=3.0 * nominal_seconds,
            fault_schedule=schedule,
        )
        assert result.n_rescues == 1
        # Exactly one reclaim: the event fired against the first
        # generation is not replayed against the replacement fleet.
        assert result.n_faults == 1


class TestGuardedResults:
    def test_spot_reclaimed_guarded_run_is_bit_identical(self, blocks):
        clean = DeadlineGuardedRunner(StarClusterManager(seed=3)).run(
            cheap_choice(), blocks, tmax_seconds=1e9, compute_results=True
        )
        schedule = FaultSchedule(
            events=(SpotTermination(node_index=0, at_fraction=0.3),)
        )
        chaotic = DeadlineGuardedRunner(StarClusterManager(seed=3)).run(
            cheap_choice(),
            blocks,
            tmax_seconds=1e9,
            compute_results=True,
            fault_schedule=schedule,
        )
        assert chaotic.n_faults == 1
        assert chaotic.degraded
        assert not clean.degraded
        assert clean.report is not None and chaotic.report is not None
        for eeb_id, result in clean.report.alm_results.items():
            other = chaotic.report.alm_results[eeb_id]
            assert np.array_equal(result.outer_values, other.outer_values)
            assert result.scr_report.scr == other.scr_report.scr


class TestDeployIntegration:
    def test_use_guard_records_rescue_on_outcome(self, blocks):
        choice = cheap_choice()
        clean_system = TransparentDeploySystem(seed=0)
        clean = clean_system.run_simulation(
            blocks, tmax_seconds=1e9, force=choice, use_guard=True
        )
        assert clean.n_rescues == 0
        assert clean.wasted_cost_usd == 0.0

        system = TransparentDeploySystem(seed=0)
        tmax = 3.0 * clean.measured_seconds
        outcome = system.run_simulation(
            blocks,
            tmax_seconds=tmax,
            force=choice,
            fault_schedule=SLOW_FLEET,
            use_guard=True,
        )
        assert outcome.n_rescues == 1
        assert outcome.wasted_cost_usd > 0.0
        assert outcome.measured_seconds <= tmax
        assert outcome.degraded
        assert "rescue" in outcome.describe()
        assert system.knowledge_base.records()[-1].degraded

        report = LoopReport(outcomes=[clean, outcome])
        assert report.n_rescued == 1
        assert report.wasted_cost_usd() == pytest.approx(
            outcome.wasted_cost_usd
        )
        assert "elastic rescues" in report.summary()
