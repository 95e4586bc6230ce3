"""The deadline MDP: value iteration, interpolation, validation."""

import pytest

from repro.cloud.instance_types import INSTANCE_CATALOG
from repro.cloud.performance import PerformanceModel
from repro.cloud.spot import SpotMarketModel
from repro.spot.mdp import ACTIONS, DeadlineMdp

TYPE = sorted(INSTANCE_CATALOG.values(), key=lambda t: t.hourly_price_usd)[1]
PERFORMANCE = PerformanceModel()


def mdp(hazard=1.5, tmax_factor=1.5, n_nodes=4, work=20_000_000.0, **kwargs):
    market = SpotMarketModel(seed=0, base_hazard_per_hour=hazard)
    expected = PERFORMANCE.expected_seconds(work, TYPE, n_nodes)
    return DeadlineMdp(
        performance=PERFORMANCE,
        market=market,
        instance_type=TYPE,
        n_nodes=n_nodes,
        work_units=work,
        tmax_seconds=tmax_factor * expected,
        **kwargs,
    )


class TestSolve:
    def test_benign_market_certifies_with_slack(self):
        sol = mdp(hazard=0.01, tmax_factor=2.0).solve()
        assert sol.p_deadline == pytest.approx(1.0, abs=1e-6)
        assert sol.p_no_rescue == pytest.approx(1.0, abs=0.05)

    def test_probabilities_are_probabilities(self):
        sol = mdp(hazard=3.0, tmax_factor=1.1).solve()
        assert 0.0 <= sol.p_no_rescue <= sol.p_deadline <= 1.0
        assert sol.initial_action in ACTIONS

    def test_hostile_market_hurts(self):
        calm = mdp(hazard=0.05, tmax_factor=1.2).solve()
        hostile = mdp(hazard=5.0, tmax_factor=1.2).solve()
        assert hostile.p_no_rescue < calm.p_no_rescue

    def test_more_slack_helps(self):
        tight = mdp(hazard=2.0, tmax_factor=1.05).solve()
        loose = mdp(hazard=2.0, tmax_factor=1.6).solve()
        assert tight.p_deadline <= loose.p_deadline
        assert loose.p_deadline > 0.9

    def test_interpolation_sees_fleet_speed(self):
        """Sub-bucket progress differences must not be quantised away:
        a bigger fleet must certify strictly better odds when the
        deadline is tight (the ceil-rounding regression)."""
        small = mdp(hazard=1.5, tmax_factor=1.15, n_nodes=2).solve()
        large = mdp(hazard=1.5, tmax_factor=1.15, n_nodes=6).solve()
        assert large.p_deadline != small.p_deadline

    def test_on_demand_plan_is_deterministic(self):
        sol = mdp(spot=False, tmax_factor=1.5).solve()
        assert sol.p_deadline in (0.0, 1.0)
        assert sol.p_deadline == sol.p_no_rescue
        assert sol.initial_action == "continue"

    def test_impossible_deadline_is_zero(self):
        sol = mdp(spot=False, tmax_factor=0.01).solve()
        assert sol.p_deadline == pytest.approx(0.0, abs=1e-9)

    def test_describe_mentions_the_numbers(self):
        sol = mdp(hazard=1.0).solve()
        text = sol.describe()
        assert "P(deadline)" in text
        assert str(sol.n_states) in text


class TestValidation:
    def test_spot_plan_needs_a_market(self):
        with pytest.raises(ValueError, match="SpotMarketModel"):
            DeadlineMdp(
                performance=PERFORMANCE,
                market=None,
                instance_type=TYPE,
                n_nodes=2,
                work_units=1000.0,
                tmax_seconds=100.0,
                spot=True,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_nodes", 0),
            ("work_units", 0.0),
            ("tmax_seconds", -1.0),
            ("t0_seconds", -1.0),
            ("n_time_steps", 0),
            ("n_work_buckets", 0),
        ],
    )
    def test_rejects_degenerate_geometry(self, field, value):
        kwargs = dict(
            performance=PERFORMANCE,
            market=SpotMarketModel(seed=0),
            instance_type=TYPE,
            n_nodes=2,
            work_units=1000.0,
            tmax_seconds=100.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            DeadlineMdp(**kwargs)
