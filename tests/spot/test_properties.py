"""Property tests of the deadline MDP over random spot plans.

Each example draws a plan — instance type, 1-8 nodes, base reclaim
hazard 0.01-5/h, ``Tmax`` 0.9-2.0x the fleet's expected duration and a
market seed — and checks the certificate's basic contracts:

- ``0 <= p_no_rescue <= p_deadline <= 1``;
- ``p_deadline`` does not rise as the base hazard rises;
- ``p_deadline`` does not fall as ``Tmax`` or the fleet grows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import INSTANCE_CATALOG
from repro.cloud.performance import PerformanceModel
from repro.cloud.spot import SpotMarketModel
from repro.spot.mdp import DeadlineMdp

PERFORMANCE = PerformanceModel()
WORK = 20_000_000.0
#: Slack for float rounding in the value recursion.
EPS = 1e-12

types = st.sampled_from(sorted(INSTANCE_CATALOG))
nodes = st.integers(1, 8)
hazards = st.floats(0.01, 5.0)
tmax_factors = st.floats(0.9, 2.0)
seeds = st.integers(0, 2**16)


def solve(type_name, n_nodes, hazard, tmax_seconds, seed):
    return DeadlineMdp(
        performance=PERFORMANCE,
        market=SpotMarketModel(seed=seed, base_hazard_per_hour=hazard),
        instance_type=INSTANCE_CATALOG[type_name],
        n_nodes=n_nodes,
        work_units=WORK,
        tmax_seconds=tmax_seconds,
    ).solve()


def expected(type_name, n_nodes):
    return PERFORMANCE.expected_seconds(
        WORK, INSTANCE_CATALOG[type_name], n_nodes
    )


class TestCertificateProperties:
    @settings(max_examples=40, deadline=None)
    @given(types, nodes, hazards, tmax_factors, seeds)
    def test_probabilities_are_ordered(
        self, type_name, n_nodes, hazard, factor, seed
    ):
        sol = solve(
            type_name, n_nodes, hazard, factor * expected(type_name, n_nodes),
            seed,
        )
        assert 0.0 <= sol.p_no_rescue <= sol.p_deadline + EPS
        assert sol.p_deadline <= 1.0 + EPS

    @settings(max_examples=40, deadline=None)
    @given(types, nodes, hazards, hazards, tmax_factors, seeds)
    def test_higher_hazard_never_helps(
        self, type_name, n_nodes, hazard_a, hazard_b, factor, seed
    ):
        low, high = sorted((hazard_a, hazard_b))
        tmax = factor * expected(type_name, n_nodes)
        calm = solve(type_name, n_nodes, low, tmax, seed)
        hostile = solve(type_name, n_nodes, high, tmax, seed)
        assert hostile.p_deadline <= calm.p_deadline + EPS

    @settings(max_examples=40, deadline=None)
    @given(types, nodes, hazards, tmax_factors, tmax_factors, seeds)
    def test_more_time_never_hurts(
        self, type_name, n_nodes, hazard, factor_a, factor_b, seed
    ):
        short, long = sorted((factor_a, factor_b))
        base = expected(type_name, n_nodes)
        tight = solve(type_name, n_nodes, hazard, short * base, seed)
        loose = solve(type_name, n_nodes, hazard, long * base, seed)
        assert tight.p_deadline <= loose.p_deadline + EPS

    @settings(max_examples=40, deadline=None)
    @given(types, nodes, nodes, hazards, tmax_factors, seeds)
    def test_bigger_fleet_never_hurts(
        self, type_name, nodes_a, nodes_b, hazard, factor, seed
    ):
        small, large = sorted((nodes_a, nodes_b))
        # One absolute deadline for both fleets, set by the smaller one.
        tmax = factor * expected(type_name, small)
        few = solve(type_name, small, hazard, tmax, seed)
        many = solve(type_name, large, hazard, tmax, seed)
        assert few.p_deadline <= many.p_deadline + EPS
