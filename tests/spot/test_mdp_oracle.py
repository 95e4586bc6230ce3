"""``DeadlineMdp.solve`` against the scalar backward induction, bitwise.

The array solver must return the very floats and the very first action
of the state-by-state recursion in ``mdp_oracle.py``: the certificate
gate compares ``p_deadline`` against its target, so one ulp can flip a
verdict.  Cases span 1-8 node fleets, deadlines from hopeless to loose,
calm to hostile reclaim hazards, market positions, spot and on-demand
plans, and coarse and fine grids.  A calm market only ever continues,
so the hostile cases are what test the rescue branches and their tie
order; :class:`TestRescueCoverage` checks that they really are taken.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import INSTANCE_CATALOG
from repro.cloud.performance import PerformanceModel
from repro.cloud.spot import SpotMarketModel
from repro.spot.mdp import DeadlineMdp

from tests.spot.mdp_oracle import scalar_solve

PERFORMANCE = PerformanceModel()
WORK = 20_000_000.0


def build(type_name, n_nodes, hazard, tightness, t0, seed, spot=True,
          grid=(24, 24)):
    instance_type = INSTANCE_CATALOG[type_name]
    expected = PERFORMANCE.expected_seconds(WORK, instance_type, n_nodes)
    return DeadlineMdp(
        performance=PERFORMANCE,
        market=SpotMarketModel(seed=seed, base_hazard_per_hour=hazard),
        instance_type=instance_type,
        n_nodes=n_nodes,
        work_units=WORK,
        tmax_seconds=tightness * expected,
        t0_seconds=t0,
        n_time_steps=grid[0],
        n_work_buckets=grid[1],
        spot=spot,
    )


def assert_matches_oracle(mdp):
    expected, actions = scalar_solve(mdp)
    assert mdp.solve() == expected
    return actions


class TestSolveMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        type_name=st.sampled_from(sorted(INSTANCE_CATALOG)),
        n_nodes=st.integers(1, 8),
        # Calm (0.01/h) through hostile (hundreds of reclaims an hour).
        hazard=st.floats(0.01, 500.0),
        tightness=st.floats(0.3, 3.0),
        t0=st.sampled_from([0.0, 1234.5, 7200.0]),
        seed=st.integers(0, 2**16),
        spot=st.booleans(),
        grid=st.sampled_from([(24, 24), (6, 10), (13, 7), (1, 1)]),
    )
    @example("c3.4xlarge", 4, 200.0, 1.3, 0.0, 0, True, (24, 24))
    @example("c4.8xlarge", 8, 50.0, 2.0, 0.0, 3, True, (24, 24))
    def test_bitwise_equal(
        self, type_name, n_nodes, hazard, tightness, t0, seed, spot, grid
    ):
        assert_matches_oracle(
            build(type_name, n_nodes, hazard, tightness, t0, seed, spot, grid)
        )


class TestRescueCoverage:
    def test_hostile_grid_takes_every_action(self):
        """Over a fixed hostile grid the oracle's optimal policy takes
        ``rescue_spot`` and ``rescue_ondemand`` somewhere, and the array
        solver still agrees on every case."""
        taken = set()
        first_actions = set()
        for n_nodes, hazard, tightness in itertools.product(
            (2, 4, 8), (5.0, 50.0, 500.0), (1.1, 1.5, 2.5)
        ):
            mdp = build("c3.4xlarge", n_nodes, hazard, tightness, 0.0, 1)
            taken |= assert_matches_oracle(mdp)
            first_actions.add(mdp.solve().initial_action)
        assert {"continue", "rescue_spot", "rescue_ondemand"} <= taken
        assert len(first_actions) > 1

    def test_calm_market_starts_by_continuing(self):
        """Why the hostile cases are needed: on a calm market every plan's
        first action is ``continue``."""
        first_actions = set()
        for n_nodes, tightness in itertools.product((2, 4, 8), (1.1, 1.5, 2.5)):
            mdp = build("c3.4xlarge", n_nodes, 0.01, tightness, 0.0, 0)
            assert_matches_oracle(mdp)
            first_actions.add(mdp.solve().initial_action)
        assert first_actions == {"continue"}
