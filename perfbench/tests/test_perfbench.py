"""Tests of the benchmark itself, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_program()

import seasons  # noqa: E402
from reference import NOMINAL_S, HostReference  # noqa: E402
from tracing import Tracer  # noqa: E402
from repro.cloud.provider import SimulatedEC2  # noqa: E402
from repro.disar.master import DisarMasterService  # noqa: E402
from repro.spot.verify import SpotPlanVerifier  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name: str, **changes) -> seasons.Workload:
    """The workload shrunk to one short season on a small warm base."""
    workload = seasons.WORKLOADS[name]
    small = dict(season_len=6, min_seasons=1, bootstrap_runs=min(workload.bootstrap_runs, 3))
    if workload.warm_rows:
        small["warm_rows"] = 30
    small.update(changes)
    return replace(workload, **small)


def assert_reports(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        reported = metrics[m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert math.isfinite(reported["value"]), m["name"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(seasons.WORKLOADS)


@pytest.mark.parametrize("name", list(seasons.WORKLOADS))
def test_workload_reports_every_end_to_end_metric(name):
    result, _ = run.run(smoke(name), seed=3, seconds=0.0, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 6
    assert_reports(result["metrics"], SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(seasons.WORKLOADS))
def test_workload_reports_every_per_layer_metric(name):
    result, lines = run.run(smoke(name), seed=3, seconds=0.0, trace=True)
    assert result["correct"], lines
    assert_reports(result["metrics"], SPEC["per_layer"])
    trace_file = run.OUT_DIR / f"trace-{name}-seed3.jsonl"
    header, *spans = trace_file.read_text().splitlines()
    assert json.loads(header)["seed"] == 3
    assert {json.loads(s)["name"] for s in spans} >= {"core.deploy.run_simulation"}


def test_layer_self_times_account_for_the_traced_season():
    season = seasons.setup_season(smoke("spot-certified"), seed=4, season=0)
    verify = SpotPlanVerifier.verify
    tracer = Tracer()
    tracer.instrument(season.system)
    with tracer.class_layers():
        results = seasons.run_season(season)
    assert SpotPlanVerifier.verify is verify
    times = tracer.layer_times()
    self_total = sum(self_s for _, _, self_s in times.values())
    wall = sum(r.wall_s for r in results)
    assert 0.95 * wall <= self_total <= wall
    assert times["spot.verify.verify"][0] == len(results)
    assert times["core.predictor.fit"][0] == 0


def test_run_length_is_a_fixed_amount_of_work():
    workload = seasons.WORKLOADS["spot-certified"]
    assert workload.seasons_for(0.0) == workload.min_seasons
    assert workload.seasons_for(100 * workload.season_s) == 100


def test_host_seconds_falls_back_to_wall_time():
    assert seasons.host_seconds(1.0, 0.7) == 0.7  # core taken away
    assert seasons.host_seconds(1.0, 1.9) == 1.0  # two busy threads
    assert seasons.host_seconds(1.0, 0.2, in_process=False) == 1.0


def test_reference_scales_by_the_bracketing_kernel_times():
    reference = HostReference()
    reference.samples = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S]
    assert reference.scaled(1.5, 0) == 1.0
    assert reference.scaled(3.0, 1) == 1.0
    assert reference.sample() > 0.0 and len(reference.samples) == 4


def test_decision_metrics_repeat_at_a_fixed_seed():
    workload = smoke("season-cold")
    first, _ = run.run(workload, seed=5, seconds=0.0, trace=False)
    second, _ = run.run(workload, seed=5, seconds=0.0, trace=False)
    for name in ("deadline_miss_rate", "usd_per_campaign", "prediction_mape"):
        assert first["metrics"][name] == second["metrics"][name]


def test_perturbed_scr_is_caught(monkeypatch):
    original = DisarMasterService.execute

    def perturbing(self, blocks, *args, **kwargs):
        report = original(self, blocks, *args, **kwargs)
        if kwargs.get("backend") is None:  # the deploy path, not the recheck
            for result in report.alm_results.values():
                result.scr_report.scr = math.nextafter(result.scr_report.scr, math.inf)
        return report

    monkeypatch.setattr(DisarMasterService, "execute", perturbing)
    workload = smoke("valuation", scr_samples=2)
    result, lines = run.run(workload, seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 2
    assert any("SCR bytes differ" in line for line in lines)


def test_dropped_ledger_record_is_caught(monkeypatch):
    original = SimulatedEC2.terminate

    def dropping(self, instances):
        record = original(self, instances)
        self._ledger.pop()
        return record

    monkeypatch.setattr(SimulatedEC2, "terminate", dropping)
    result, lines = run.run(smoke("season-cold"), seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("billing not conserved" in line for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "valuation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
