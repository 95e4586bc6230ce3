"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scr_defaults(self):
        args = build_parser().parse_args(["scr"])
        assert args.command == "scr"
        assert args.outer == 150

    def test_bench_targets(self):
        for target in ("table1", "table2", "fig2", "fig3", "fig4", "tradeoff"):
            args = build_parser().parse_args(["bench", target])
            assert args.target == target

    def test_unknown_bench_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])


class TestCommands:
    def test_scr_command(self, capsys):
        code = main(["scr", "--contracts", "5", "--outer", "15",
                     "--inner", "8", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCR @ 99.5%" in out

    def test_deploy_command(self, capsys):
        code = main(["deploy", "--runs", "6", "--bootstrap", "4",
                     "--max-nodes", "2", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Self-optimizing loop: 6 runs" in out

    def test_bench_fig4(self, capsys):
        code = main(["bench", "fig4"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_bench_table1_small(self, capsys):
        code = main(["bench", "table1", "--runs", "120", "--seed", "3"])
        assert code == 0
        assert "delta-bar" in capsys.readouterr().out

    def test_kb_command_with_outputs(self, capsys, tmp_path):
        json_path = tmp_path / "kb.json"
        arff_path = tmp_path / "kb.arff"
        code = main([
            "kb", "--runs", "20",
            "--json", str(json_path),
            "--arff", str(arff_path),
        ])
        assert code == 0
        assert json_path.exists()
        assert arff_path.exists()
        out = capsys.readouterr().out
        assert "20 rows" in out
        assert "20 ARFF instances" in out

    def test_kb_command_without_outputs(self, capsys):
        code = main(["kb", "--runs", "5"])
        assert code == 0
        assert "persist" in capsys.readouterr().out

    def test_bench_output_file(self, capsys, tmp_path):
        path = tmp_path / "fig4.txt"
        code = main(["bench", "fig4", "--output", str(path)])
        assert code == 0
        assert path.exists()
        assert "speedup" in path.read_text()


class TestBenchNested:
    def test_parser_defaults_to_nested_target(self):
        args = build_parser().parse_args(["bench"])
        assert args.target == "nested"
        assert args.backends == "serial,batched,process"
        assert args.against is None
        assert args.tolerance == 0.25
        assert args.chunk_size == 8
        assert args.value_chunk_size == 64
        # Size and JSON-path defaults are per-target (nested vs proxy),
        # so the parser leaves them unset.
        assert args.outer is None
        assert args.json_out is None
        assert not args.smoke

    def test_smoke_run_writes_json_report(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "bench.json"
        code = main([
            "bench", "nested", "--smoke",
            "--backends", "serial,batched",
            "--json-out", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        payload = json.loads(json_path.read_text())
        assert payload["identical_across_backends"] == {
            "nested": True, "lsmc": True, "valuation": True,
        }

    def test_empty_backend_list_rejected(self, capsys):
        code = main(["bench", "nested", "--smoke", "--backends", " , "])
        assert code == 2

    def test_baseline_sharing_no_pair_exits_2(self, capsys, tmp_path):
        from repro.exec.bench import BenchReport, KernelTiming

        baseline = BenchReport(config={})
        baseline.timings.append(
            KernelTiming("nested", "chunked", "chunked", 1.0, 8, checksum=1.0)
        )
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline.to_dict()))
        code = main([
            "bench", "nested", "--smoke", "--backends", "serial",
            "--json-out", str(tmp_path / "bench.json"),
            "--against", str(baseline_path),
        ])
        assert code == 2
        assert "shares no (kernel, backend) pair" in capsys.readouterr().err


class TestChaos:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.seed == 7
        assert args.units == 3
        assert not args.quick

    def test_too_few_units_rejected(self, capsys):
        code = main(["chaos", "--units", "1"])
        assert code == 2
        assert "units" in capsys.readouterr().err

    def test_quick_run_recovers_bit_identically(self, capsys):
        code = main(["chaos", "--quick", "--seed", "7", "--blocks", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK:" in out
        assert "bit-identical" in out
        # The three checksum lines must agree (fault-free, faulted,
        # replayed) — that IS the recovery contract.
        checksums = [
            line.split("checksum")[1].split()[0]
            for line in out.splitlines()
            if line.startswith(("fault-free", "faulted", "replayed"))
        ]
        assert len(checksums) == 3
        assert len(set(checksums)) == 1


class TestChaosRescue:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--rescue", "--tmax-factor", "2.5"]
        )
        assert args.rescue
        assert args.tmax_factor == 2.5
        assert args.corpus is None

    def test_rescue_meets_deadline_bit_identically(self, capsys):
        import re

        code = main(["chaos", "--rescue", "--quick", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rescue(s)" in out
        assert "chunk(s) resumed" in out
        assert "rescue met Tmax" in out
        # Fault-free, rescued and replayed checksums must all agree.
        checksums = re.findall(r"checksum (\w+)", out)
        assert len(checksums) == 3
        assert len(set(checksums)) == 1


class TestChaosSpotStorm:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--spot-storm", "--market-hazard", "1500"]
        )
        assert args.spot_storm
        assert args.market_hazard == 1500.0

    def test_storm_recovers_bit_identically(self, capsys):
        import re

        code = main(["chaos", "--spot-storm", "--quick", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reclaim storm" in out
        assert "inside Tmax" in out
        assert "bit-identical" in out
        checksums = re.findall(r"checksum (\w+)", out)
        assert len(checksums) == 3
        assert len(set(checksums)) == 1


class TestBenchSpot:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "spot"])
        assert args.target == "spot"
        assert args.spot_runs == 20
        assert args.targets == "0.5,0.9,0.99"
        assert args.tmax_factor == 1.25
        assert args.nodes == 4
        assert args.hazard == 1.5

    def test_smoke_run_writes_frontier_json(self, capsys, tmp_path):
        json_path = tmp_path / "spot.json"
        code = main([
            "bench", "spot", "--smoke", "--spot-runs", "3",
            "--targets", "0.5", "--json-out", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "frontier" in out
        payload = json.loads(json_path.read_text())
        assert payload["config"]["smoke"] is True
        assert len(payload["config"]["frontier"]) == 1

    def test_bad_target_list_rejected(self, capsys):
        code = main(["bench", "spot", "--smoke", "--targets", "0.5,nope"])
        assert code == 2


class TestChaosCorpus:
    CORPUS = Path(__file__).parent / "faults" / "corpus"

    def test_empty_corpus_dir_rejected(self, capsys, tmp_path):
        code = main(["chaos", "--corpus", str(tmp_path)])
        assert code == 2
        assert "no *.json" in capsys.readouterr().err

    def test_shipped_corpus_deserializes(self):
        from repro.faults import FaultSchedule
        from repro.faults.schedule import LaunchFailure

        entries = sorted(self.CORPUS.glob("*.json"))
        assert len(entries) >= 4
        schedules = {}
        for path in entries:
            entry = json.loads(path.read_text())
            schedule = FaultSchedule.from_dict(entry["schedule"])
            # Market-driven entries stage no scheduled events: their
            # faults come from the spot market's reclaim hazard.
            assert schedule.events or entry.get("market") == "spot", path.name
            assert entry["name"] == path.stem
            schedules[path.stem] = schedule
        # The corpus must exercise the provider-failure path too.
        assert any(
            isinstance(event, LaunchFailure)
            for schedule in schedules.values()
            for event in schedule.events
        )

    def test_single_entry_corpus_replays(self, capsys, tmp_path):
        source = json.loads(
            (self.CORPUS / "rank_crash_resume.json").read_text()
        )
        source["blocks"] = 2
        (tmp_path / "rank_crash_resume.json").write_text(json.dumps(source))
        code = main(["chaos", "--corpus", str(tmp_path), "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 corpus schedule(s) replayed bit-identically" in out
        assert "chunk(s) resumed" in out
