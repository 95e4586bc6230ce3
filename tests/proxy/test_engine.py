"""Proxy-tier engine tests: budget split, determinism, CRN, fallback."""

import numpy as np
import pytest

from repro.montecarlo.scr import SCRCalculator
from repro.proxy.engine import ProxySCREngine, budget_indices

from tests.proxy.conftest import ConstantValuator

N_OUTER = 96
N_INNER = 8
STEPS = 2
SEED = 11


class TestBudgetIndices:
    def test_split_is_disjoint_and_sized(self):
        train, val = budget_indices(100, 16, 8)
        assert len(train) == 16
        assert len(val) == 8
        assert not np.intersect1d(train, val).size

    def test_budget_spans_the_outer_range(self):
        train, val = budget_indices(100, 16, 8)
        budget = np.union1d(train, val)
        assert budget[0] == 0
        assert budget[-1] == 99

    def test_pure_function_of_sizes(self):
        assert all(
            np.array_equal(a, b)
            for a, b in zip(budget_indices(64, 12, 6), budget_indices(64, 12, 6))
        )

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError):
            budget_indices(100, 0, 8)
        with pytest.raises(ValueError):
            budget_indices(100, 16, 0)

    def test_rejects_budget_exceeding_outer(self):
        with pytest.raises(ValueError, match="exceeds n_outer"):
            budget_indices(10, 8, 4)


def _make_proxy(make_engine, backend=None):
    # tail_z/tail_floor_multiple above the defaults: at these tiny
    # sizes the 99.5% quantile is the top scenario, so the refinement
    # must cover the whole plausible tail for the hybrid quantile to
    # pin to the exact tier's.
    return ProxySCREngine(
        make_engine(backend),
        n_train=24,
        n_validation=12,
        tolerance=0.5,
        tail_z=6.0,
        tail_floor_multiple=8.0,
    )


@pytest.fixture(scope="module")
def proxy_result(make_engine):
    return _make_proxy(make_engine).run(
        N_OUTER, N_INNER, rng=SEED, steps_per_year=STEPS
    )


@pytest.fixture(scope="module")
def exact_result(make_engine):
    return make_engine().run(
        N_OUTER, N_INNER, rng=SEED, steps_per_year=STEPS
    )


class TestProxyDeterminism:
    @pytest.mark.tier2
    def test_bitwise_identical_across_backends(self, make_engine, proxy_result):
        for backend in ("serial", "process:2"):
            other = _make_proxy(make_engine, backend).run(
                N_OUTER, N_INNER, rng=SEED, steps_per_year=STEPS
            )
            assert np.array_equal(
                other.nested.outer_values, proxy_result.nested.outer_values
            )
            assert other.nested.base_value == proxy_result.nested.base_value
            assert other.gate.relative_error == proxy_result.gate.relative_error
            assert np.array_equal(
                other.refined_indices, proxy_result.refined_indices
            )

    def test_repeat_run_is_bitwise_identical(self, make_engine, proxy_result):
        again = _make_proxy(make_engine).run(
            N_OUTER, N_INNER, rng=SEED, steps_per_year=STEPS
        )
        assert np.array_equal(
            again.nested.outer_values, proxy_result.nested.outer_values
        )


class TestCommonRandomNumbers:
    """The proxy tier's exact scenarios ARE the exact tier's, bit for bit."""

    def test_outer_stage_matches_exact_tier(self, proxy_result, exact_result):
        assert proxy_result.nested.base_value == exact_result.base_value
        assert np.array_equal(
            proxy_result.nested.outer_assets, exact_result.outer_assets
        )
        assert np.array_equal(
            proxy_result.nested.outer_discount, exact_result.outer_discount
        )

    def test_budget_values_match_exact_tier(self, proxy_result, exact_result):
        for idx in (proxy_result.train_indices, proxy_result.validation_indices):
            assert np.array_equal(
                proxy_result.nested.outer_values[idx],
                exact_result.outer_values[idx],
            )

    def test_refined_tail_matches_exact_tier(self, proxy_result, exact_result):
        assert not proxy_result.fell_back
        idx = proxy_result.refined_indices
        assert len(idx) > 0  # the tail floor guarantees a non-empty set
        assert np.array_equal(
            proxy_result.nested.outer_values[idx], exact_result.outer_values[idx]
        )

    def test_hybrid_scr_tracks_exact_tier(self, proxy_result, exact_result):
        calc = SCRCalculator()
        scr_proxy = calc.from_nested(proxy_result.nested).scr
        scr_exact = calc.from_nested(exact_result).scr
        assert scr_proxy == pytest.approx(scr_exact, rel=0.05)


class TestSavingsAccounting:
    def test_exact_budget_accounting(self, proxy_result):
        expected = (
            len(proxy_result.train_indices)
            + len(proxy_result.validation_indices)
            + len(proxy_result.refined_indices)
        )
        assert proxy_result.n_exact_scenarios == expected
        assert proxy_result.n_exact_inner_sims == expected * N_INNER
        assert proxy_result.n_full_inner_sims == N_OUTER * N_INNER

    def test_savings_factor_exceeds_one(self, proxy_result):
        assert proxy_result.savings_factor > 1.0
        assert proxy_result.savings_factor == pytest.approx(
            proxy_result.n_full_inner_sims / proxy_result.n_exact_inner_sims
        )

    def test_result_conveniences(self, proxy_result):
        from dataclasses import replace

        assert proxy_result.n_outer == N_OUTER
        assert proxy_result.own_funds_change().shape == (N_OUTER,)
        free = replace(proxy_result, n_exact_inner_sims=0)
        assert free.savings_factor == float("inf")


class TestGateFallback:
    def test_underfit_proxy_falls_back_to_exact(self, make_engine, exact_result):
        proxy = ProxySCREngine(
            make_engine(),
            valuator=ConstantValuator(),
            n_train=24,
            n_validation=12,
            tolerance=0.005,
        )
        result = proxy.run(N_OUTER, N_INNER, rng=SEED, steps_per_year=STEPS)
        assert result.gate.breached
        assert result.fell_back
        assert result.n_exact_scenarios == N_OUTER
        assert result.savings_factor == 1.0
        # Fallback means the full result is the exact tier's, bitwise.
        assert np.array_equal(
            result.nested.outer_values, exact_result.outer_values
        )


class TestValidation:
    def test_rejects_negative_tail_parameters(self, make_engine):
        with pytest.raises(ValueError):
            ProxySCREngine(make_engine(), tail_z=-1.0)
        with pytest.raises(ValueError):
            ProxySCREngine(make_engine(), tail_floor_multiple=-0.5)

    def test_rejects_non_positive_sizes(self, make_engine):
        proxy = ProxySCREngine(make_engine(), n_train=8, n_validation=4)
        with pytest.raises(ValueError):
            proxy.run(0, N_INNER)
        with pytest.raises(ValueError):
            proxy.run(N_OUTER, 0)
