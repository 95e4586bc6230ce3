"""Smoke tests for the proxy benchmark harness behind ``repro bench proxy``."""

import pytest

from repro.proxy.bench import reference_portfolio, run_proxy_bench


class TestReferencePortfolio:
    def test_reference_portfolio_shape(self):
        spec, fund, contracts = reference_portfolio()
        assert "equity_1" in spec.driver_names
        assert fund is not None
        assert len(contracts) == 2


@pytest.mark.tier2
class TestRunProxyBench:
    def test_tiny_bench_produces_a_complete_report(self):
        report = run_proxy_bench(
            n_outer=96,
            n_inner=8,
            n_train=24,
            n_validation=12,
            tolerance=0.5,
            steps_per_year=2,
            seed=0,
        )
        config = report.config
        for key in (
            "scr_exact",
            "scr_proxy",
            "proxy_rel_error",
            "proxy_savings_factor",
            "proxy_gate",
            "proxy_fell_back",
            "proxy_refined",
        ):
            assert key in config, f"missing bench config key {key!r}"
        assert config["scr_exact"] > 0.0
        assert config["proxy_savings_factor"] > 1.0
        assert set(report.kernels()) == {"scr_exact", "scr_proxy"}
        for timing in report.timings:
            assert timing.wall_seconds > 0.0
            assert timing.work_units > 0

    def test_smoke_flag_shrinks_the_problem(self):
        report = run_proxy_bench(smoke=True, seed=0)
        assert report.config["n_outer"] <= 512
        assert report.config["smoke"] is True
