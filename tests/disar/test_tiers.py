"""Tier axis tests: settings validation, ALM dispatch, campaign surfacing."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.comm import run_spmd
from repro.disar.alm_engine import ALMEngine
from repro.disar.eeb import EEBType, ElementaryElaborationBlock, SimulationSettings
from repro.disar.master import ElaborationReport


@pytest.fixture(scope="module")
def alm_block(small_campaign):
    return small_campaign.alm_blocks()[0]


def _tier_block(alm_block, **overrides):
    return ElementaryElaborationBlock(
        eeb_id=alm_block.eeb_id + "/tier",
        eeb_type=EEBType.ALM,
        contracts=alm_block.contracts,
        fund=alm_block.fund,
        spec=alm_block.spec,
        settings=replace(alm_block.settings, **overrides),
    )


class TestSettingsValidation:
    def test_rejects_unknown_tier(self):
        for tier in ("warp", "mlmc"):
            with pytest.raises(ValueError, match="tier"):
                SimulationSettings(tier=tier)

    def test_rejects_unknown_proxy_kind(self):
        with pytest.raises(ValueError, match="proxy_kind"):
            SimulationSettings(proxy_kind="forest")

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError):
            SimulationSettings(proxy_train=0)
        with pytest.raises(ValueError):
            SimulationSettings(proxy_validation=0)

    def test_rejects_budget_exceeding_outer_on_proxy_tier(self):
        with pytest.raises(ValueError, match="budget"):
            SimulationSettings(
                tier="proxy", n_outer=32, proxy_train=30, proxy_validation=10
            )

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SimulationSettings(proxy_tolerance=0.0)

    def test_complexity_orders_the_tiers(self, alm_block):
        exact = _tier_block(alm_block, use_lsmc=False)
        proxy = _tier_block(
            alm_block, tier="proxy", use_lsmc=False,
            proxy_train=16, proxy_validation=8,
        )
        assert proxy.complexity() < exact.complexity()


class TestALMTierDispatch:
    def test_proxy_tier_result(self, alm_block):
        block = _tier_block(
            alm_block,
            tier="proxy",
            use_lsmc=False,
            proxy_train=16,
            proxy_validation=8,
            proxy_tolerance=0.5,
        )
        result = ALMEngine().process(block)
        assert result.tier == "proxy"
        assert result.gate is not None
        assert result.fell_back == result.gate.breached
        assert np.isfinite(result.scr_report.scr)
        assert result.n_outer == block.settings.n_outer

    def test_proxy_tier_breach_flags_fallback(self, alm_block):
        block = _tier_block(
            alm_block,
            tier="proxy",
            use_lsmc=False,
            proxy_train=16,
            proxy_validation=8,
            proxy_tolerance=1e-9,
        )
        result = ALMEngine().process(block)
        assert result.fell_back
        assert result.gate.breached

    def test_exact_tier_is_the_default(self, alm_block):
        result = ALMEngine().process(alm_block)
        assert result.tier == "exact"
        assert result.gate is None

    def test_distributed_proxy_runs_on_rank_zero(self, alm_block):
        block = _tier_block(
            alm_block,
            tier="proxy",
            use_lsmc=False,
            proxy_train=16,
            proxy_validation=8,
            proxy_tolerance=0.5,
        )
        engine = ALMEngine()
        sequential = engine.process(block)
        results = run_spmd(
            2, lambda comm: engine.process_distributed(comm, block)
        )
        assert results[1] is None
        assert results[0].n_ranks == 2
        assert np.array_equal(results[0].outer_values, sequential.outer_values)
        assert results[0].scr_report.scr == sequential.scr_report.scr


class TestCampaignFallbackSurfacing:
    def _report(self, alm_results):
        return ElaborationReport(
            actuarial_results={},
            alm_results=alm_results,
            schedule={0: list(alm_results)},
            elapsed_seconds=0.1,
            n_units=1,
        )

    def test_counts_fallen_back_blocks(self, alm_block):
        ok = ALMEngine().process(alm_block)
        tripped = ALMEngine().process(
            _tier_block(
                alm_block,
                tier="proxy",
                use_lsmc=False,
                proxy_train=16,
                proxy_validation=8,
                proxy_tolerance=1e-9,
            )
        )
        report = self._report({"a": ok, "b": tripped})
        assert report.n_proxy_fallbacks == 1
        assert "fell back to exact valuation" in report.summary()

    def test_clean_campaign_reports_zero(self, alm_block):
        report = self._report({"a": ALMEngine().process(alm_block)})
        assert report.n_proxy_fallbacks == 0
