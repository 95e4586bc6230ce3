"""Tier cost/error model tests (the planner's pricing arithmetic)."""

import pytest

from repro.proxy.costs import (
    INNER_BIAS_COEFF,
    OUTER_NOISE_COEFF,
    TIERS,
    exact_tier_inner_sims,
    predicted_relative_error,
    proxy_tier_inner_sims,
)


class TestInnerSimCounts:
    def test_exact_tier_is_the_full_product(self):
        assert exact_tier_inner_sims(4096, 256) == 4096 * 256

    def test_proxy_tier_charges_only_the_budget(self):
        assert proxy_tier_inner_sims(128, 32, 256) == 160 * 256

    def test_proxy_tier_is_cheaper_than_exact_at_scale(self):
        exact = exact_tier_inner_sims(4096, 256)
        proxy = proxy_tier_inner_sims(128, 32, 256)
        assert exact / proxy >= 10.0


class TestPredictedError:
    def test_exact_error_decays_with_both_sizes(self):
        coarse = predicted_relative_error("exact", 256, 16)
        fine = predicted_relative_error("exact", 4096, 256)
        assert fine < coarse
        assert fine == pytest.approx(
            INNER_BIAS_COEFF / 256 + OUTER_NOISE_COEFF / 4096**0.5
        )

    def test_proxy_error_is_the_gate_tolerance_plus_outer_noise(self):
        error = predicted_relative_error("proxy", 4096, 256, gate_tolerance=0.02)
        assert error == pytest.approx(0.02 + OUTER_NOISE_COEFF / 4096**0.5)

    def test_rejects_unknown_tier(self):
        for tier in ("quantum", "mlmc"):
            with pytest.raises(ValueError, match="unknown tier"):
                predicted_relative_error(tier, 256, 16)

    def test_tier_axis_is_closed(self):
        assert TIERS == ("exact", "proxy")
        for tier in TIERS:
            assert predicted_relative_error(tier, 1024, 64) > 0.0
