"""The verification gate: escalation ladder, strictness, calibration."""

import math

import pytest

from repro.cloud.cluster import StarClusterManager
from repro.cloud.instance_types import INSTANCE_CATALOG
from repro.cloud.provider import SimulatedEC2
from repro.cloud.spot import SpotMarketModel
from repro.core.knowledge_base import KnowledgeBase, RunRecord
from repro.core.selection import DeployChoice
from repro.disar.eeb import CharacteristicParameters
from repro.spot.verify import CertificationError, SpotPlanVerifier

TYPE = sorted(INSTANCE_CATALOG.values(), key=lambda t: t.hourly_price_usd)[1]


@pytest.fixture(scope="module")
def blocks():
    from repro.disar import SimulationSettings
    from repro.workload import CampaignGenerator

    settings = SimulationSettings(
        n_outer=20_000, n_inner=100, lsmc_outer_calibration=100
    )
    campaign = CampaignGenerator(seed=0).paper_campaign(
        n_portfolios=2, n_eebs=3, settings=settings
    )
    return campaign.blocks


def manager(hazard: float, seed: int = 0) -> StarClusterManager:
    provider = SimulatedEC2(
        spot_market=SpotMarketModel(seed=seed, base_hazard_per_hour=hazard)
    )
    return StarClusterManager(provider=provider, seed=seed)


def spot_plan(manager_, blocks_, n_nodes=4):
    work = manager_.performance.campaign_units(blocks_)
    expected = manager_.performance.expected_seconds(work, TYPE, n_nodes)
    return (
        DeployChoice(
            instance_type=TYPE,
            n_nodes=n_nodes,
            predicted_seconds=expected,
            predicted_cost_usd=math.nan,
            feasible=True,
            market="spot",
        ),
        expected,
    )


class TestEscalation:
    def test_calm_market_stays_on_spot(self, blocks):
        m = manager(hazard=0.02)
        choice, expected = spot_plan(m, blocks)
        plan = SpotPlanVerifier(m, target_probability=0.9).verify(
            choice, blocks, 1.5 * expected
        )
        assert plan.certificate.escalation == "spot"
        assert plan.certificate.certified
        assert not plan.escalated
        assert plan.choice.market == "spot"

    def test_demanding_target_escalates(self, blocks):
        m = manager(hazard=2.0)
        choice, expected = spot_plan(m, blocks)
        lax = SpotPlanVerifier(m, target_probability=0.5).verify(
            choice, blocks, 1.25 * expected
        )
        strict = SpotPlanVerifier(m, target_probability=0.999).verify(
            choice, blocks, 1.25 * expected
        )
        rungs = ["spot", "on_demand"]
        assert rungs.index(strict.certificate.escalation) >= rungs.index(
            lax.certificate.escalation
        )
        assert strict.certificate.p_deadline >= lax.certificate.p_deadline

    def test_on_demand_rung_demotes_the_choice(self, blocks):
        m = manager(hazard=30.0)
        choice, expected = spot_plan(m, blocks)
        plan = SpotPlanVerifier(m, target_probability=0.9999).verify(
            choice, blocks, 1.1 * expected
        )
        if plan.certificate.escalation == "on_demand":
            assert plan.choice.market == "on_demand"
            assert plan.escalated
        # Whatever rung won, the full audit trail is present in order.
        names = [name for name, _ in plan.certificate.ladder]
        assert names == ["spot", "on_demand"][: len(names)]

    def test_non_spot_plan_skips_the_ladder(self, blocks):
        m = manager(hazard=2.0)
        choice, expected = spot_plan(m, blocks)
        od = DeployChoice(
            instance_type=choice.instance_type,
            n_nodes=choice.n_nodes,
            predicted_seconds=choice.predicted_seconds,
            predicted_cost_usd=math.nan,
            feasible=True,
            market="on_demand",
        )
        plan = SpotPlanVerifier(m, target_probability=0.9).verify(
            od, blocks, 1.5 * expected
        )
        assert plan.certificate.escalation == "on_demand"
        assert [name for name, _ in plan.certificate.ladder] == ["on_demand"]
        assert plan.certificate.certified

    def test_strict_mode_refuses_doomed_plans(self, blocks):
        m = manager(hazard=2.0)
        choice, expected = spot_plan(m, blocks)
        verifier = SpotPlanVerifier(m, target_probability=0.99, strict=True)
        with pytest.raises(CertificationError) as excinfo:
            verifier.verify(choice, blocks, 0.05 * expected)
        # The refusal carries the whole ladder as its audit trail.
        assert "spot=" in str(excinfo.value)
        assert "on_demand=" in str(excinfo.value)

    def test_certificate_describe(self, blocks):
        m = manager(hazard=1.0)
        choice, expected = spot_plan(m, blocks)
        plan = SpotPlanVerifier(m, target_probability=0.5).verify(
            choice, blocks, 1.5 * expected
        )
        text = plan.certificate.describe()
        assert "P(deadline)" in text
        assert plan.certificate.escalation in text


class TestCalibration:
    def kb_with_spot_history(self, n_reclaims, execution_seconds, n_nodes=4):
        kb = KnowledgeBase()
        params = CharacteristicParameters(
            n_contracts=100,
            max_horizon=20,
            n_fund_assets=100,
            n_risk_factors=4,
        )
        kb.add(
            RunRecord(
                params=params,
                instance_type=TYPE.api_name,
                n_nodes=n_nodes,
                execution_seconds=execution_seconds,
                market="spot",
                n_reclaims=n_reclaims,
            )
        )
        return kb

    def test_experience_overrides_the_configured_hazard(self):
        m = manager(hazard=0.05)
        # 40 observed reclaims over ~111 instance-hours: the measured
        # rate (~0.36/h) dwarfs the configured 0.05/h.
        kb = self.kb_with_spot_history(40, 100_000.0)
        verifier = SpotPlanVerifier(m, knowledge_base=kb)
        market = verifier.calibrated_market()
        assert market is not None
        assert market.base_hazard_per_hour > 0.3

    def test_no_experience_keeps_the_prior(self):
        m = manager(hazard=0.05)
        verifier = SpotPlanVerifier(m, knowledge_base=KnowledgeBase())
        market = verifier.calibrated_market()
        assert market is not None
        assert market.base_hazard_per_hour == pytest.approx(0.05)

    def test_calibration_feeds_the_certificate(self, blocks):
        m = manager(hazard=0.05)
        kb = self.kb_with_spot_history(40, 100_000.0)
        choice, expected = spot_plan(m, blocks)
        calibrated = SpotPlanVerifier(
            m, target_probability=0.5, knowledge_base=kb
        ).verify(choice, blocks, 1.5 * expected)
        uncalibrated = SpotPlanVerifier(m, target_probability=0.5).verify(
            choice, blocks, 1.5 * expected
        )
        assert (
            calibrated.certificate.base_hazard_per_hour
            > uncalibrated.certificate.base_hazard_per_hour
        )


class TestValidation:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            SpotPlanVerifier(manager(hazard=1.0), target_probability=0.0)
        with pytest.raises(ValueError):
            SpotPlanVerifier(manager(hazard=1.0), target_probability=1.5)

    def test_rejects_empty_blocks_and_bad_tmax(self, blocks):
        m = manager(hazard=1.0)
        verifier = SpotPlanVerifier(m)
        choice, expected = spot_plan(m, blocks)
        with pytest.raises(ValueError):
            verifier.verify(choice, [], 100.0)
        with pytest.raises(ValueError):
            verifier.verify(choice, blocks, 0.0)
