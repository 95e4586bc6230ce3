"""Algorithm 1's configuration table: batched, and scored once per campaign.

``ConfigurationSelector.evaluate_all`` scores all ``M x N`` rows with
one ``predict_matrix`` call and keeps the table for the campaign's later
questions (the runner's fallback ranking and rescue re-plan).  These
tests hold it to the per-row path it replaced, check that a refit or a
new predictor always rescores, and that the planner and the runner make
the same decisions as when every call re-evaluated from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cluster import StarClusterManager
from repro.cloud.provider import SimulatedEC2
from repro.cloud.spot import SpotMarketModel
from repro.core.knowledge_base import KnowledgeBase, RunRecord, encode_features
from repro.core.planner import ReportingSeasonPlanner
from repro.core.predictor import PredictorFamily
from repro.core.selection import ConfigurationSelector, DeployChoice
from repro.disar.eeb import CharacteristicParameters
from repro.ml import RandomTree
from repro.runtime import DeadlineGuardedRunner

#: Members whose prediction involves no matrix product: exact at any
#: batch size.
EXACT_MEMBERS = ("RT", "RF", "DT")


def per_row_choices(selector, params, tmax_seconds):
    """``evaluate_all`` the way it used to work: every configuration
    scored on its own, one single-row prediction per member."""
    choices = []
    boot = selector.boot_overhead_seconds
    for instance_type, n_nodes in selector.configurations():
        row = encode_features(params, instance_type, n_nodes)[np.newaxis, :]
        per_model = selector.predictor.predict_matrix(row)
        values = np.array([float(v[0]) for v in per_model.values()])
        seconds, std = float(values.mean()), float(values.std())
        choices.append(
            DeployChoice(
                instance_type=instance_type,
                n_nodes=n_nodes,
                predicted_seconds=seconds,
                predicted_cost_usd=n_nodes
                * instance_type.hourly_price_usd
                * (seconds + boot)
                / 3600.0,
                feasible=seconds + boot + selector.risk_aversion * std
                <= tmax_seconds,
                predicted_std_seconds=std,
            )
        )
    return choices


class PerRowSelector(ConfigurationSelector):
    """A selector that re-evaluates row by row on every call."""

    def evaluate_all(self, params, tmax_seconds):
        return per_row_choices(self, params, tmax_seconds)


def between_predictions(choices):
    """A deadline halfway between the two middle predictions, so no
    configuration sits on the feasibility boundary."""
    times = sorted(c.predicted_seconds for c in choices)
    middle = len(times) // 2
    return 0.5 * (times[middle - 1] + times[middle])


def assert_same_choices(batched, reference):
    assert [
        (c.instance_type.api_name, c.n_nodes, c.feasible, c.market)
        for c in batched
    ] == [
        (c.instance_type.api_name, c.n_nodes, c.feasible, c.market)
        for c in reference
    ]
    for field in (
        "predicted_seconds",
        "predicted_std_seconds",
        "predicted_cost_usd",
    ):
        np.testing.assert_allclose(
            [getattr(c, field) for c in batched],
            [getattr(c, field) for c in reference],
            rtol=1e-12,
            atol=0.0,
        )


def count_matrix_calls(family):
    """Wrap ``family.predict_matrix``; returns the list of batch sizes."""
    calls = []
    original = family.predict_matrix

    def counted(features):
        calls.append(len(features))
        return original(features)

    family.predict_matrix = counted
    return calls


@pytest.fixture
def family(populated_kb):
    """A private family: tests here refit it."""
    return PredictorFamily(seed=1).fit(populated_kb)


WORKLOADS = [
    CharacteristicParameters(120, 25, 200, 5),
    CharacteristicParameters(10, 8, 60, 3),
    CharacteristicParameters(280, 38, 380, 6),
]


class TestBatchedEvaluation:
    @pytest.mark.parametrize("params", WORKLOADS)
    def test_matches_per_row_path(self, fitted_family, params):
        selector = ConfigurationSelector(fitted_family, boot_overhead_seconds=90.0)
        reference = per_row_choices(selector, params, 1e9)
        tmax = between_predictions(reference)
        assert_same_choices(
            selector.evaluate_all(params, tmax),
            per_row_choices(selector, params, tmax),
        )

    def test_member_predictions_match_single_rows(
        self, fitted_family, sample_params
    ):
        selector = ConfigurationSelector(fitted_family)
        features = np.vstack(
            [
                encode_features(sample_params, instance_type, n_nodes)
                for instance_type, n_nodes in selector.configurations()
            ]
        )
        batch = fitted_family.predict_matrix(features)
        for i, row in enumerate(features):
            single = fitted_family.predict_matrix(row[np.newaxis, :])
            for name, values in single.items():
                if name in EXACT_MEMBERS:
                    assert batch[name][i] == values[0]
                else:
                    assert batch[name][i] == pytest.approx(values[0], rel=3e-15)

    @pytest.mark.parametrize("n_members", [6, 9])
    def test_evaluate_reduces_each_row_on_its_own(
        self, populated_kb, sample_params, n_members
    ):
        """A batch row's mean and std are the very floats of that row's
        member predictions reduced alone, as ``predict`` reduces them.
        (From eight members on, numpy reduces a column of a stacked
        matrix in a different order than a row.)"""
        fitted_family = PredictorFamily(
            models={
                f"RT{i}": RandomTree(seed=i)
                for i in range(n_members)
            }
        ).fit(populated_kb)
        selector = ConfigurationSelector(fitted_family)
        configurations = selector.configurations()
        features = np.vstack(
            [
                encode_features(sample_params, instance_type, n_nodes)
                for instance_type, n_nodes in configurations
            ]
        )
        evaluation = fitted_family.evaluate(features)
        for i, (instance_type, n_nodes) in enumerate(configurations):
            values = np.array([v[i] for v in evaluation.per_model.values()])
            assert evaluation.mean[i] == values.mean()
            assert evaluation.std[i] == values.std()
            single = np.array(
                list(
                    fitted_family.predict_per_model(
                        sample_params, instance_type, n_nodes
                    ).values()
                )
            )
            assert fitted_family.predict(
                sample_params, instance_type, n_nodes
            ) == single.mean()


class TestCampaignTable:
    def test_one_batch_per_campaign(self, family, sample_params):
        calls = count_matrix_calls(family)
        selector = ConfigurationSelector(family, epsilon=0.0)
        selector.select(sample_params, 5000.0)
        selector.evaluate_all(sample_params, 5000.0)
        selector.evaluate_all(sample_params, float("inf"))
        assert calls == [len(selector.configurations())]
        selector.evaluate_all(WORKLOADS[1], 5000.0)
        assert len(calls) == 2

    def test_refit_rescores(self, family, populated_kb, sample_params):
        selector = ConfigurationSelector(family)
        before = selector.evaluate_all(sample_params, 1e9)
        features, targets = populated_kb.training_matrices()
        family.fit_arrays(features, targets * 2.0)
        after = selector.evaluate_all(sample_params, 1e9)
        assert [c.predicted_seconds for c in after] != [
            c.predicted_seconds for c in before
        ]
        assert_same_choices(after, per_row_choices(selector, sample_params, 1e9))

    def test_refit_on_same_data_still_rescores(
        self, family, populated_kb, sample_params
    ):
        calls = count_matrix_calls(family)
        selector = ConfigurationSelector(family)
        selector.evaluate_all(sample_params, 1e9)
        count = family.fit_count
        family.fit_arrays(*populated_kb.training_matrices())
        assert family.fit_count == count + 1
        selector.evaluate_all(sample_params, 1e9)
        assert len(calls) == 2

    def test_new_predictor_rescores(self, family, populated_kb, sample_params):
        selector = ConfigurationSelector(family)
        selector.evaluate_all(sample_params, 1e9)
        other = PredictorFamily(members=["IBk"], seed=1).fit(populated_kb)
        assert other.fit_count == family.fit_count
        selector.predictor = other
        assert_same_choices(
            selector.evaluate_all(sample_params, 1e9),
            per_row_choices(selector, sample_params, 1e9),
        )


class TestCampaignDecisions:
    def test_season_plan_matches_reevaluating_planner(
        self, fitted_family
    ):
        class ReevaluatingPlanner(ReportingSeasonPlanner):
            """The greedy upgrade loop re-evaluating every run per step."""

            def _accelerate(self, plan):
                remaining = plan.budget_usd - plan.total_cost
                while True:
                    best_ratio = 0.0
                    best = None
                    for run in plan.runs:
                        current = run.choice
                        for candidate in self.selector.evaluate_all(
                            run.params, plan.tmax_seconds
                        ):
                            if not candidate.feasible and current.feasible:
                                continue
                            extra = (
                                candidate.predicted_cost_usd
                                - current.predicted_cost_usd
                            )
                            saved = (
                                current.predicted_seconds
                                - candidate.predicted_seconds
                            )
                            if saved <= 0 or extra <= 0 or extra > remaining:
                                continue
                            if saved / extra > best_ratio:
                                best_ratio = saved / extra
                                best = (run, candidate)
                    if best is None:
                        return
                    run, candidate = best
                    remaining -= (
                        candidate.predicted_cost_usd - run.choice.predicted_cost_usd
                    )
                    run.choice = candidate
                    run.upgraded = True

        rng = np.random.default_rng(0)
        workloads = [
            CharacteristicParameters(
                n_contracts=int(rng.integers(20, 250)),
                max_horizon=int(rng.integers(8, 35)),
                n_fund_assets=int(rng.integers(50, 350)),
                n_risk_factors=int(rng.integers(2, 7)),
            )
            for _ in range(6)
        ]

        def plan(planner_cls, budget):
            selector = ConfigurationSelector(
                fitted_family, max_nodes=4, epsilon=0.0, seed=0
            )
            return planner_cls(selector).plan(workloads, 1e9, budget_usd=budget)

        baseline = plan(ReportingSeasonPlanner, 1e9)
        for factor in (1.05, 1.3, 2.0):
            budget = baseline.total_cost * factor
            fast = plan(ReportingSeasonPlanner, budget)
            reference = plan(ReevaluatingPlanner, budget)
            assert [
                (r.choice.instance_type.api_name, r.choice.n_nodes, r.upgraded)
                for r in fast.runs
            ] == [
                (r.choice.instance_type.api_name, r.choice.n_nodes, r.upgraded)
                for r in reference.runs
            ]
            assert fast.total_cost == reference.total_cost
            assert fast.total_seconds == reference.total_seconds
        assert fast.n_upgraded >= 1

    @pytest.mark.parametrize("tmax", [800.0, 3000.0, 20000.0])
    def test_runner_fallbacks_and_replan_unchanged(
        self, fitted_family, sample_params, tmax
    ):
        def runner(selector_cls):
            market = SpotMarketModel(seed=11, base_hazard_per_hour=0.5)
            manager = StarClusterManager(
                provider=SimulatedEC2(seed=11, spot_market=market), seed=11
            )
            selector = selector_cls(fitted_family, epsilon=0.0, seed=0)
            return DeadlineGuardedRunner(manager, selector=selector)

        cached, reference = runner(ConfigurationSelector), runner(PerRowSelector)
        choice = cached.selector.select(sample_params, tmax)
        assert_same_choices(
            [choice], [reference.selector.select(sample_params, tmax)]
        )
        for market in ("on_demand", "spot"):
            spot_choice = DeployChoice(
                instance_type=choice.instance_type,
                n_nodes=choice.n_nodes,
                predicted_seconds=choice.predicted_seconds,
                predicted_cost_usd=choice.predicted_cost_usd,
                feasible=choice.feasible,
                market=market,
            )
            assert_same_choices(
                cached._fallback_candidates(spot_choice, sample_params, tmax),
                reference._fallback_candidates(spot_choice, sample_params, tmax),
            )
            for fraction, budget in ((0.75, 0.5 * tmax), (0.25, 0.1 * tmax)):
                assert_same_choices(
                    [cached._replan(spot_choice, sample_params, fraction, budget)],
                    [reference._replan(spot_choice, sample_params, fraction, budget)],
                )


class TestReclaimStats:
    def test_same_float_as_record_sum(self):
        rng = np.random.default_rng(5)
        kb = KnowledgeBase()
        params = CharacteristicParameters(50, 10, 100, 3)
        for i in range(40):
            kb.add(
                RunRecord(
                    params=params,
                    instance_type="c3.4xlarge",
                    n_nodes=int(rng.integers(1, 9)),
                    execution_seconds=float(rng.uniform(10.0, 5000.0)),
                    market="spot" if i % 3 else "on_demand",
                    n_reclaims=int(rng.integers(0, 4)),
                )
            )
            if i % 7 == 0:
                kb.add_encoded(np.ones(7), 123.0)
        reclaims, exposure = 0, 0.0
        for record in kb.records():
            if record.market == "spot":
                reclaims += record.n_reclaims
                exposure += record.execution_seconds * record.n_nodes
        assert kb.reclaim_stats() == (reclaims, exposure)
        assert reclaims > 0
