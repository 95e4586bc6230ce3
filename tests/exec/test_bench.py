"""Tests for the perf-regression harness (``repro bench``, nested target)."""

import json

import pytest

from repro.exec.bench import (
    BenchReport,
    KernelTiming,
    compare_against,
    history_entry_from,
    run_nested_bench,
)


class TestKernelTiming:
    def test_paths_per_second(self):
        timing = KernelTiming(
            kernel="nested",
            backend="serial",
            backend_detail="serial(chunk_size=64)",
            wall_seconds=2.0,
            work_units=100,
            checksum=1.5,
        )
        assert timing.paths_per_second == 50.0
        assert timing.to_dict()["speedup_vs_serial"] is None


class TestBenchReport:
    def _report(self):
        report = BenchReport(config={"n_outer": 4})
        report.timings.append(
            KernelTiming("nested", "serial", "serial", 2.0, 8, checksum=1.25)
        )
        report.timings.append(
            KernelTiming(
                "nested", "batched", "batched", 0.5, 8,
                checksum=1.25, speedup_vs_serial=4.0,
            )
        )
        return report

    def test_kernels_and_best_speedup(self):
        report = self._report()
        assert report.kernels() == ["nested"]
        assert report.best_speedup("nested") == 4.0
        assert report.identical_across_backends("nested")

    def test_checksum_mismatch_detected(self):
        report = self._report()
        report.timings.append(
            KernelTiming("nested", "process", "process", 1.0, 8, checksum=9.9)
        )
        assert not report.identical_across_backends("nested")

    def test_json_round_trip(self):
        payload = json.loads(self._report().to_json())
        assert payload["config"] == {"n_outer": 4}
        assert payload["identical_across_backends"] == {"nested": True}
        assert payload["best_speedup"] == {"nested": 4.0}

    def test_to_text_mentions_verdict(self):
        text = self._report().to_text()
        assert "bit-identical" in text
        assert "speedup" in text


class TestRunNestedBench:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        return run_nested_bench(backends=("serial", "batched"), smoke=True)

    def test_times_every_kernel_on_every_backend(self, smoke_report):
        assert smoke_report.kernels() == ["nested", "lsmc", "valuation"]
        for kernel in smoke_report.kernels():
            assert [t.backend for t in smoke_report.of_kernel(kernel)] == [
                "serial", "batched",
            ]

    def test_backends_bit_identical(self, smoke_report):
        for kernel in smoke_report.kernels():
            assert smoke_report.identical_across_backends(kernel)

    def test_speedups_relative_to_serial(self, smoke_report):
        for kernel in smoke_report.kernels():
            serial, batched = smoke_report.of_kernel(kernel)
            assert serial.speedup_vs_serial is None
            assert batched.speedup_vs_serial is not None
            assert batched.speedup_vs_serial > 0.0

    def test_write_json(self, smoke_report, tmp_path):
        path = tmp_path / "BENCH_nested.json"
        smoke_report.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["config"]["smoke"] is True
        assert len(payload["timings"]) == 6

    def test_write_json_appends_history(self, smoke_report, tmp_path):
        path = tmp_path / "BENCH_nested.json"
        smoke_report.write_json(str(path))
        first = json.loads(path.read_text())
        assert len(first["history"]) == 1
        assert first["history"][0]["timestamp"] == first["timestamp"]
        smoke_report.write_json(str(path))
        second = json.loads(path.read_text())
        # The trajectory grows; the latest-run shape stays at top level.
        assert len(second["history"]) == 2
        assert second["history"][0] == first["history"][0]
        assert len(second["timings"]) == 6
        entry = second["history"][-1]
        assert set(entry["kernels"]) == {"nested", "lsmc", "valuation"}
        for backends in entry["kernels"].values():
            for metrics in backends.values():
                assert set(metrics) == {
                    "wall_seconds",
                    "paths_per_second",
                    "speedup_vs_serial",
                    "checksum",
                }

    def test_write_json_folds_legacy_file_into_history(
        self, smoke_report, tmp_path
    ):
        path = tmp_path / "BENCH_nested.json"
        # A pre-trajectory file: timings at top level, no history list.
        legacy = smoke_report.to_dict()
        path.write_text(json.dumps(legacy))
        smoke_report.write_json(str(path))
        payload = json.loads(path.read_text())
        assert len(payload["history"]) == 2
        # The folded legacy entry has no timestamp but full kernel data.
        assert payload["history"][0]["timestamp"] is None
        assert payload["history"][0]["kernels"] == history_entry_from(legacy)[
            "kernels"
        ]

    def test_calibration_must_fit_outer(self):
        with pytest.raises(ValueError):
            run_nested_bench(n_outer=8, lsmc_calibration=16)


class TestCompareAgainst:
    def _payload(self, rate, backends=("batched",)):
        report = BenchReport(config={"n_outer": 4})
        for backend in backends:
            report.timings.append(
                KernelTiming(
                    "nested", backend, backend, 8.0 / rate, 8, checksum=1.0
                )
            )
        return report.to_dict()

    def test_no_regression_within_tolerance(self):
        current, baseline = self._payload(90.0), self._payload(100.0)
        assert compare_against(current, baseline, tolerance=0.25) == []

    def test_regression_beyond_tolerance_reported(self):
        current, baseline = self._payload(50.0), self._payload(100.0)
        regressions = compare_against(current, baseline, tolerance=0.25)
        assert len(regressions) == 1
        entry = regressions[0]
        assert entry["kernel"] == "nested"
        assert entry["backend"] == "batched"
        assert entry["drop"] == pytest.approx(0.5)

    def test_compares_against_last_history_entry(self):
        baseline = self._payload(50.0)
        # History carries a newer, faster entry: that is the reference.
        baseline["history"] = [
            history_entry_from(self._payload(50.0)),
            history_entry_from(self._payload(200.0)),
        ]
        regressions = compare_against(
            self._payload(100.0), baseline, tolerance=0.25
        )
        assert len(regressions) == 1
        assert regressions[0]["drop"] == pytest.approx(0.5)

    def test_missing_pairs_are_skipped(self):
        baseline = self._payload(100.0)
        # One shared pair plus a backend the baseline never measured.
        current = self._payload(100.0, backends=("batched", "process:2"))
        assert compare_against(current, baseline) == []
        # ... but a baseline sharing no pair at all must not pass.
        for disjoint in (
            BenchReport(config={}).to_dict(),
            self._payload(100.0, backends=("chunked",)),
        ):
            with pytest.raises(ValueError, match="shares no"):
                compare_against(disjoint, baseline)

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            compare_against(self._payload(1.0), self._payload(1.0), tolerance=1.5)
