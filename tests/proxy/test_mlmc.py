"""MLMC tier tests: level anchoring, determinism, cost accounting."""

import numpy as np
import pytest

from repro.proxy.mlmc import MIN_LEVEL_OUTER, MLMCEngine

N_OUTER = 64
STEPS = 2
SEED = 3


@pytest.fixture(scope="module")
def mlmc_result(make_engine):
    mlmc = MLMCEngine(make_engine(), n_levels=2, base_inner=4)
    return mlmc.run(N_OUTER, rng=SEED, steps_per_year=STEPS)


class TestMLMCDeterminism:
    @pytest.mark.tier2
    def test_bitwise_identical_across_backends(self, make_engine, mlmc_result):
        for backend in ("serial", "process:2"):
            other = MLMCEngine(
                make_engine(backend), n_levels=2, base_inner=4
            ).run(N_OUTER, rng=SEED, steps_per_year=STEPS)
            assert other.scr == mlmc_result.scr
            assert other.raw_quantile == mlmc_result.raw_quantile
            assert np.array_equal(other.level0_values, mlmc_result.level0_values)
            assert [lvl.correction for lvl in other.levels] == [
                lvl.correction for lvl in mlmc_result.levels
            ]

    def test_repeat_run_is_bitwise_identical(self, make_engine, mlmc_result):
        again = MLMCEngine(make_engine(), n_levels=2, base_inner=4).run(
            N_OUTER, rng=SEED, steps_per_year=STEPS
        )
        assert again.scr == mlmc_result.scr
        assert np.array_equal(again.level0_losses, mlmc_result.level0_losses)


class TestLevelZeroAnchor:
    def test_level0_is_bitwise_an_exact_run_at_base_inner(self, make_engine):
        """The decomposition is anchored to the exact tier: level 0
        consumes the exact tier's spawned streams, so its fine values
        are bitwise an exact run at ``n_inner = base_inner``."""
        engine = make_engine()
        mlmc = MLMCEngine(engine, n_levels=1, base_inner=4).run(
            N_OUTER, rng=SEED, steps_per_year=STEPS, n_inner_reference=4
        )
        exact = engine.run(N_OUTER, 4, rng=SEED, steps_per_year=STEPS)
        assert mlmc.base_value == exact.base_value
        assert np.array_equal(mlmc.level0_values, exact.outer_values)
        assert np.array_equal(mlmc.level0_losses, exact.own_funds_change())


class TestLevelGeometry:
    def test_levels_shrink_outer_and_double_inner(self, mlmc_result):
        assert [lvl.n_outer for lvl in mlmc_result.levels] == [64, 32, 16]
        assert [lvl.n_inner_fine for lvl in mlmc_result.levels] == [4, 8, 16]
        assert [lvl.n_inner_coarse for lvl in mlmc_result.levels] == [0, 4, 8]

    def test_outer_floor_is_enforced(self, make_engine):
        result = MLMCEngine(make_engine(), n_levels=2, base_inner=2).run(
            16, rng=SEED, steps_per_year=STEPS
        )
        assert result.levels[-1].n_outer == MIN_LEVEL_OUTER

    def test_telescoped_estimate_sums_corrections(self, mlmc_result):
        total = sum(lvl.correction for lvl in mlmc_result.levels)
        assert mlmc_result.raw_quantile == pytest.approx(total)
        assert mlmc_result.scr == max(mlmc_result.raw_quantile, 0.0)

    def test_finest_inner_property(self, make_engine):
        assert MLMCEngine(make_engine(), n_levels=3, base_inner=4).finest_inner == 32


class TestCostAccounting:
    def test_savings_quoted_against_reference(self, make_engine):
        result = MLMCEngine(make_engine(), n_levels=2, base_inner=4).run(
            N_OUTER, rng=SEED, steps_per_year=STEPS, n_inner_reference=256
        )
        assert result.n_full_inner_sims == N_OUTER * 256
        assert result.n_exact_inner_sims == sum(
            lvl.n_inner_sims for lvl in result.levels
        )
        assert result.savings_factor > 1.0

    def test_result_conveniences(self, mlmc_result):
        from dataclasses import replace

        assert mlmc_result.n_outer == N_OUTER
        free = replace(mlmc_result, n_exact_inner_sims=0)
        assert free.savings_factor == float("inf")

    def test_to_scr_report_shape(self, mlmc_result):
        report = mlmc_result.to_scr_report()
        assert report.scr == mlmc_result.scr
        assert report.n_outer == N_OUTER
        assert report.n_inner == mlmc_result.levels[-1].n_inner_fine
        assert np.isnan(report.mean_inner_std_error)
        assert report.loss_ci_low <= report.loss_ci_high


class TestValidation:
    def test_rejects_bad_construction(self, make_engine):
        with pytest.raises(ValueError):
            MLMCEngine(make_engine(), n_levels=0)
        with pytest.raises(ValueError):
            MLMCEngine(make_engine(), base_inner=1)
        with pytest.raises(ValueError):
            MLMCEngine(make_engine(), outer_decay=1)

    def test_rejects_non_positive_outer(self, make_engine):
        with pytest.raises(ValueError):
            MLMCEngine(make_engine()).run(0)
