"""The spot frontier bench: structure, determinism, validation."""

import pytest

from repro.spot.bench import DEFAULT_TARGETS, frontier_text, run_spot_bench


@pytest.fixture(scope="module")
def smoke_report():
    return run_spot_bench(seed=0, n_runs=3, targets=(0.5, 0.9), smoke=True)


class TestStructure:
    def test_smoke_shrinks_the_sweep(self, smoke_report):
        cfg = smoke_report.config
        assert cfg["smoke"] is True
        assert cfg["n_runs"] == 3
        assert cfg["targets"] == [0.5]
        assert len(cfg["frontier"]) == 1

    def test_frontier_rows_are_well_formed(self, smoke_report):
        for row in smoke_report.config["frontier"]:
            assert 0.0 < row["target"] < 1.0
            assert 0.0 <= row["certified_compliance"] <= 1.0
            assert 0.0 <= row["point_compliance"] <= 1.0
            assert 0.0 <= row["certified_mean_p"] <= 1.0
            assert row["certified_mean_cost_usd"] > 0.0
            assert row["point_mean_cost_usd"] > 0.0
            assert sum(row["committed_rungs"].values()) == 3
            assert set(row["committed_rungs"]) <= {"spot", "on_demand"}

    def test_timings_carry_the_trajectory_kernels(self, smoke_report):
        kernels = {t.kernel for t in smoke_report.timings}
        assert kernels == {"spot_point", "spot_certified_p50"}
        for timing in smoke_report.timings:
            assert timing.backend == "sim"
            assert timing.work_units == 3
            # The gate compares compliance via the checksum channel.
            assert 0.0 <= timing.checksum <= 1.0

    def test_config_records_the_market_settings(self, smoke_report):
        cfg = smoke_report.config
        assert cfg["seed"] == 0
        assert cfg["base_hazard_per_hour"] == 1.5
        assert cfg["tmax_seconds"] == pytest.approx(
            cfg["tmax_factor"] * cfg["expected_seconds"]
        )


class TestDeterminism:
    def test_same_seed_same_frontier(self, smoke_report):
        again = run_spot_bench(seed=0, n_runs=3, targets=(0.5, 0.9), smoke=True)
        first_rows = smoke_report.config["frontier"]
        again_rows = again.config["frontier"]
        for a, b in zip(first_rows, again_rows):
            assert a["certified_compliance"] == b["certified_compliance"]
            assert a["certified_mean_cost_usd"] == b["certified_mean_cost_usd"]
            assert a["point_compliance"] == b["point_compliance"]
            assert a["committed_rungs"] == b["committed_rungs"]


class TestFrontierText:
    def test_table_mentions_every_target(self, smoke_report):
        text = frontier_text(smoke_report)
        assert "frontier" in text
        assert "0.50" in text
        assert "rungs" in text


class TestValidation:
    def test_rejects_degenerate_sweeps(self):
        with pytest.raises(ValueError):
            run_spot_bench(n_runs=0)
        with pytest.raises(ValueError):
            run_spot_bench(targets=())
        with pytest.raises(ValueError):
            run_spot_bench(tmax_factor=0.0)

    def test_default_targets_are_ordered_probabilities(self):
        assert DEFAULT_TARGETS == tuple(sorted(DEFAULT_TARGETS))
        assert all(0.0 < t < 1.0 for t in DEFAULT_TARGETS)
