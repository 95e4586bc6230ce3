"""Command-line interface.

Installs as the ``repro`` console command with four subcommands:

- ``repro scr`` — value a synthetic portfolio and print the SCR report;
- ``repro deploy`` — run simulation campaigns through the self-optimizing
  elastic deploy loop;
- ``repro bench`` — time the Monte Carlo kernels across execution
  backends (default target ``nested``, writes ``BENCH_nested.json``) or
  regenerate one of the paper's tables/figures;
- ``repro kb`` — build an experiment knowledge base and save it (JSON
  and/or Weka ARFF);
- ``repro lint`` — run the AST-based determinism & consistency linter
  (:mod:`repro.analysis`) over source trees;
- ``repro chaos`` — replay a seeded fault schedule against a campaign
  and assert the recovered SCR is bit-identical to the fault-free run;
  ``--rescue`` runs the deadline-guard scenario (straggler VM + rank
  crash -> checkpointed elastic rescue that still meets ``Tmax``), and
  ``--corpus DIR`` replays every schedule file in a corpus directory.

Every simulation subcommand is deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.exec.bench import BenchReport

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.exec.bench import DEFAULT_BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "ML-based elastic cloud provisioning for Solvency II "
            "(ICDCS 2016 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scr = sub.add_parser("scr", help="value a synthetic portfolio (SCR)")
    scr.add_argument("--contracts", type=int, default=30,
                     help="representative contracts (default 30)")
    scr.add_argument("--outer", type=int, default=150,
                     help="outer real-world scenarios n_P (default 150)")
    scr.add_argument("--inner", type=int, default=40,
                     help="inner risk-neutral scenarios n_Q (default 40)")
    scr.add_argument("--seed", type=int, default=0)

    deploy = sub.add_parser(
        "deploy", help="run campaigns through the elastic deploy loop"
    )
    deploy.add_argument("--runs", type=int, default=25,
                        help="number of campaigns (default 25)")
    deploy.add_argument("--tmax", type=float, default=900.0,
                        help="Solvency II deadline per campaign, seconds")
    deploy.add_argument("--epsilon", type=float, default=0.05,
                        help="exploration probability (default 0.05)")
    deploy.add_argument("--bootstrap", type=int, default=10,
                        help="bootstrap runs before ML selection")
    deploy.add_argument("--max-nodes", type=int, default=8)
    deploy.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="benchmark the execution backends or regenerate a paper "
             "table/figure",
    )
    bench.add_argument(
        "target",
        nargs="?",
        default="nested",
        choices=["nested", "proxy", "spot", "table1", "table2", "fig2",
                 "fig3", "fig4", "tradeoff", "all"],
        help="'nested' (default) times the Monte Carlo kernels across "
             "execution backends; 'proxy' compares the exact/proxy "
             "SCR tiers; 'spot' traces the certified-vs-point "
             "cost-vs-P(deadline) frontier over seeded spot markets; "
             "the other targets regenerate paper tables/figures",
    )
    bench.add_argument("--runs", type=int, default=1500,
                       help="knowledge-base size (default 1500)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", default=None,
                       help="also write the output to this file")
    bench.add_argument("--smoke", action="store_true",
                       help="nested target: tiny sample sizes (CI wiring "
                            "check, not a measurement)")
    bench.add_argument("--backends",
                       default=",".join(DEFAULT_BACKENDS),
                       help="nested target: comma-separated backend specs "
                            f"(default {','.join(DEFAULT_BACKENDS)})")
    bench.add_argument("--outer", type=int, default=None,
                       help="outer scenarios (default 256 for nested, "
                            "4096 for proxy)")
    bench.add_argument("--inner", type=int, default=None,
                       help="inner paths (default 40 for nested, 256 for "
                            "proxy)")
    bench.add_argument("--json-out", default=None,
                       help="JSON report path (default BENCH_nested.json / "
                            "BENCH_proxy.json per target)")
    bench.add_argument("--against", default=None, metavar="FILE",
                       help="nested/proxy targets: regression gate — "
                            "compare paths/sec vs the last history entry of "
                            "this bench JSON and exit non-zero on a drop "
                            "beyond the tolerance")
    bench.add_argument("--tolerance", type=float, default=0.25,
                       help="nested/proxy targets: fractional paths/sec "
                            "drop tolerated by --against (default 0.25)")
    bench.add_argument("--chunk-size", type=int, default=8,
                       help="nested target: outer-scenario chunk size "
                            "applied uniformly to every backend (default 8 "
                            "— the fine, checkpoint-granularity operating "
                            "point)")
    bench.add_argument("--value-chunk-size", type=int, default=64,
                       help="nested target: inner-path chunk size for the "
                            "valuation kernel (default 64)")
    bench.add_argument("--train", type=int, default=128,
                       help="proxy target: exact scenarios the proxy "
                            "trains on (default 128)")
    bench.add_argument("--validation", type=int, default=32,
                       help="proxy target: held-out exact scenarios the "
                            "validation gate checks (default 32)")
    bench.add_argument("--gate-tolerance", type=float, default=0.05,
                       help="proxy target: validation-gate tolerance "
                            "(default 0.05)")
    bench.add_argument("--proxy-degree", type=int, default=2,
                       help="proxy target: polynomial degree of the LSMC "
                            "proxy (default 2)")
    bench.add_argument("--backend", default=None,
                       help="proxy target: execution backend spec "
                            "(default: the program default, batched)")
    bench.add_argument("--spot-runs", type=int, default=20,
                       help="spot target: seeded markets per frontier "
                            "row (default 20)")
    bench.add_argument("--targets", default="0.5,0.9,0.99",
                       help="spot target: comma-separated certification "
                            "targets (default 0.5,0.9,0.99)")
    bench.add_argument("--tmax-factor", type=float, default=1.25,
                       help="spot target: Tmax as a multiple of the "
                            "fleet's expected duration (default 1.25)")
    bench.add_argument("--nodes", type=int, default=4,
                       help="spot target: fleet size (default 4)")
    bench.add_argument("--hazard", type=float, default=1.5,
                       help="spot target: base reclaim hazard, events "
                            "per hour (default 1.5)")

    kb = sub.add_parser("kb", help="build and save a knowledge base")
    kb.add_argument("--runs", type=int, default=500)
    kb.add_argument("--json", dest="json_path", default=None,
                    help="write the knowledge base as JSON")
    kb.add_argument("--arff", dest="arff_path", default=None,
                    help="export the training matrices as Weka ARFF")
    kb.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="run the determinism & consistency linter over source trees",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule id and exit",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="demote findings recorded in FILE to warnings (exit 0); "
             "only new findings fail",
    )
    lint.add_argument(
        "--update-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings to FILE as the new baseline "
             "and exit 0",
    )
    lint.add_argument(
        "--cache",
        default=None,
        metavar="FILE",
        help="incremental cache file keyed by content hashes "
             "(default: .repro-lint-cache.json next to the first path; "
             "--no-cache disables)",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="always analyse from scratch",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="thread-parallel file analysis; output is byte-identical "
             "to the serial run (default: 1)",
    )
    lint.add_argument(
        "--changed",
        default=None,
        metavar="BASE",
        help="only report findings in files changed vs the git ref "
             "BASE (plus untracked files); the analysis itself still "
             "covers the whole tree so cross-module rules stay exact",
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="delete/narrow unused '# repro: noqa' suppressions "
             "(SUP001) in place",
    )
    lint.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix: print the unified diff instead of writing; "
             "exit 1 if fixes are pending",
    )

    chaos = sub.add_parser(
        "chaos",
        help="inject a seeded fault schedule and assert bit-identical "
             "SCR recovery",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="schedule + campaign seed (default 7)")
    chaos.add_argument("--units", type=int, default=3,
                       help="computing units / SPMD ranks (default 3)")
    chaos.add_argument("--blocks", type=int, default=4,
                       help="type-B EEBs in the campaign (default 4)")
    chaos.add_argument("--quick", action="store_true",
                       help="tiny Monte Carlo sizes (CI smoke run)")
    chaos.add_argument("--max-retries", type=int, default=3,
                       help="retry rounds per failed dispatch (default 3)")
    chaos.add_argument("--spmd-timeout", type=float, default=5.0,
                       help="per-dispatch timeout, seconds (default 5)")
    chaos.add_argument("--rescue", action="store_true",
                       help="deadline-guard scenario: straggler + rank "
                            "crash, rescued mid-run from the checkpoint, "
                            "asserted to meet Tmax with bit-identical SCR")
    chaos.add_argument("--tmax-factor", type=float, default=3.0,
                       help="--rescue: Tmax as a multiple of the "
                            "fault-free duration (default 3.0)")
    chaos.add_argument("--corpus", default=None, metavar="DIR",
                       help="replay every *.json fault-schedule file in "
                            "DIR through the guarded runtime and assert "
                            "bit-identical SCRs")
    chaos.add_argument("--spot-storm", action="store_true",
                       help="spot-market scenario: a hostile reclaim "
                            "hazard strips a spot fleet (>= 3 reclaims), "
                            "the storm breaker trips, the rescue falls "
                            "back to on-demand, and the SCR is asserted "
                            "bit-identical to the fault-free run")
    chaos.add_argument("--market-hazard", type=float, default=2000.0,
                       help="--spot-storm: base reclaim hazard, events "
                            "per hour (default 2000 — hostile by "
                            "design: the campaign only runs for virtual "
                            "minutes, so the storm must land within the "
                            "first work segment)")
    return parser


def _cmd_scr(args: argparse.Namespace) -> int:
    from repro.montecarlo import NestedMonteCarloEngine, SCRCalculator
    from repro.workload import PortfolioGenerator

    portfolio = PortfolioGenerator(
        n_contracts_range=(args.contracts, args.contracts + 1),
        seed=args.seed,
    ).generate("cli")
    print(portfolio.describe())
    engine = NestedMonteCarloEngine(
        portfolio.spec, portfolio.fund, portfolio.contracts
    )
    result = engine.run(n_outer=args.outer, n_inner=args.inner, rng=args.seed)
    print()
    print(SCRCalculator().from_nested(result).summary())
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.core import SelfOptimizingLoop, TransparentDeploySystem
    from repro.disar import SimulationSettings
    from repro.workload import CampaignGenerator

    settings = SimulationSettings(n_outer=1000, n_inner=50)
    generator = CampaignGenerator(seed=args.seed)
    workloads = [[generator.random_block(settings)] for _ in range(args.runs)]
    system = TransparentDeploySystem(
        bootstrap_runs=args.bootstrap,
        epsilon=args.epsilon,
        max_nodes=args.max_nodes,
        seed=args.seed,
    )
    report = SelfOptimizingLoop(system).run(workloads, tmax_seconds=args.tmax)
    print(report.summary())
    print(f"last run: {report.outcomes[-1].describe()}")
    return 0


def _gate_against(
    report: BenchReport,
    baseline: dict[str, Any] | None,
    args: argparse.Namespace,
) -> int:
    """Exit status of the ``--against`` throughput gate.

    0 when no baseline was given or nothing regressed, 1 on a
    regression, 2 when the baseline shares no (kernel, backend) pair
    with ``report`` — a gate that compares nothing must not pass.
    """
    from repro.exec.bench import compare_against

    if baseline is None:
        return 0
    try:
        regressions = compare_against(
            report.to_dict(), baseline, tolerance=args.tolerance
        )
    except ValueError as error:
        print(f"repro bench: cannot gate against {args.against}: {error}",
              file=sys.stderr)
        return 2
    for regression in regressions:
        print(
            "REGRESSION: {kernel}/{backend} fell to "
            "{current_paths_per_second:.0f} paths/s from "
            "{baseline_paths_per_second:.0f} "
            "({drop:.0%} > {tolerance:.0%} tolerance)".format(**regression),
            file=sys.stderr,
        )
    if not regressions:
        print(f"(no throughput regression vs {args.against} "
              f"at {args.tolerance:.0%} tolerance)")
    return 1 if regressions else 0


def _cmd_bench_nested(args: argparse.Namespace) -> int:
    import json

    from repro.exec.bench import run_nested_bench

    backends = [spec.strip() for spec in args.backends.split(",") if spec.strip()]
    if not backends:
        print("repro bench: --backends must name at least one backend",
              file=sys.stderr)
        return 2
    # Load the regression baseline before write_json: --against may name
    # the very file this run is about to append to.
    baseline = None
    if args.against:
        try:
            with open(args.against, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"repro bench: cannot read baseline {args.against}: {error}",
                  file=sys.stderr)
            return 2
    report = run_nested_bench(
        n_outer=args.outer if args.outer is not None else 256,
        n_inner=args.inner if args.inner is not None else 40,
        backends=backends,
        seed=args.seed,
        smoke=args.smoke,
        chunk_size=args.chunk_size,
        value_chunk_size=args.value_chunk_size,
    )
    text = report.to_text()
    print(text)
    json_out = args.json_out if args.json_out is not None else "BENCH_nested.json"
    if json_out:
        report.write_json(json_out)
        print(f"(JSON report written to {json_out})")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"(written to {args.output})")
    mismatched = [
        kernel
        for kernel in report.kernels()
        if not report.identical_across_backends(kernel)
    ]
    return _gate_against(report, baseline, args) or (1 if mismatched else 0)


def _cmd_bench_proxy(args: argparse.Namespace) -> int:
    import json

    from repro.proxy.bench import run_proxy_bench

    # Load the regression baseline before write_json: --against may name
    # the very file this run is about to append to.
    baseline = None
    if args.against:
        try:
            with open(args.against, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"repro bench: cannot read baseline {args.against}: {error}",
                  file=sys.stderr)
            return 2
    report = run_proxy_bench(
        n_outer=args.outer if args.outer is not None else 4096,
        n_inner=args.inner if args.inner is not None else 256,
        n_train=args.train,
        n_validation=args.validation,
        tolerance=args.gate_tolerance,
        proxy_degree=args.proxy_degree,
        seed=args.seed,
        smoke=args.smoke,
        backend=args.backend,
    )
    print(report.to_text())
    cfg = report.config
    print(
        f"SCR exact {cfg['scr_exact']:,.0f} | "
        f"proxy {cfg['scr_proxy']:,.0f} "
        f"(rel err {cfg['proxy_rel_error']:.4%}, "
        f"{cfg['proxy_savings_factor']:.1f}x fewer exact inner sims, "
        f"{cfg['proxy_refined']} tail scenario(s) refined)"
    )
    print(cfg["proxy_gate"])
    if cfg["proxy_fell_back"]:
        print("note: the validation gate breached; the proxy tier fell "
              "back to exact valuation")
    json_out = args.json_out if args.json_out is not None else "BENCH_proxy.json"
    if json_out:
        report.write_json(json_out)
        print(f"(JSON report written to {json_out})")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(report.to_text() + "\n")
        print(f"(written to {args.output})")
    return _gate_against(report, baseline, args)


def _cmd_bench_spot(args: argparse.Namespace) -> int:
    import json

    from repro.spot.bench import frontier_text, run_spot_bench

    try:
        targets = tuple(
            float(part) for part in args.targets.split(",") if part.strip()
        )
    except ValueError:
        print(f"repro bench: invalid --targets {args.targets!r}",
              file=sys.stderr)
        return 2
    # Load the regression baseline before write_json: --against may name
    # the very file this run is about to append to.
    baseline = None
    if args.against:
        try:
            with open(args.against, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"repro bench: cannot read baseline {args.against}: {error}",
                  file=sys.stderr)
            return 2
    report = run_spot_bench(
        seed=args.seed,
        n_runs=args.spot_runs,
        targets=targets,
        tmax_factor=args.tmax_factor,
        n_nodes=args.nodes,
        base_hazard_per_hour=args.hazard,
        smoke=args.smoke,
    )
    text = frontier_text(report)
    print(text)
    shortfalls = [
        row for row in report.config["frontier"]
        if row["certified_compliance"] < row["target"]
    ]
    for row in shortfalls:
        print(
            f"SHORTFALL: target {row['target']:.2f} measured only "
            f"{row['certified_compliance']:.2%} compliance",
            file=sys.stderr,
        )
    json_out = args.json_out if args.json_out is not None else "BENCH_spot.json"
    if json_out:
        report.write_json(json_out)
        print(f"(JSON report written to {json_out})")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"(written to {args.output})")
    return _gate_against(report, baseline, args) or (1 if shortfalls else 0)


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.target == "nested":
        return _cmd_bench_nested(args)
    if args.target == "proxy":
        return _cmd_bench_proxy(args)
    if args.target == "spot":
        return _cmd_bench_spot(args)

    from repro.benchlib import (
        build_dataset,
        run_fig2,
        run_fig3,
        run_fig4,
        run_table1,
        run_table2,
        run_tradeoff,
    )

    if args.target == "all":
        from repro.benchlib.report import generate_report

        text = generate_report(n_runs=args.runs, seed=args.seed)
    elif args.target == "table2":
        text = run_table2(seed=args.seed).to_text()
    elif args.target == "fig4":
        text = run_fig4(seed=args.seed).to_text()
    else:
        dataset = build_dataset(n_runs=args.runs, seed=args.seed)
        if args.target == "table1":
            text = run_table1(dataset, seed=args.seed + 1).to_text()
        elif args.target == "fig2":
            text = run_fig2(dataset, seed=args.seed + 1).to_text()
        elif args.target == "fig3":
            text = run_fig3(dataset, seed=args.seed + 1).to_text()
        else:  # tradeoff
            text = run_tradeoff(dataset, seed=args.seed + 1).to_text()
    print(text)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"(written to {args.output})")
    return 0


def _cmd_kb(args: argparse.Namespace) -> int:
    from repro.benchlib import build_dataset
    from repro.core.persistence import export_arff, save_knowledge_base

    dataset = build_dataset(n_runs=args.runs, seed=args.seed)
    print(
        f"built knowledge base: {dataset.n_runs} runs, "
        f"${dataset.total_cost():.2f} simulated outlay"
    )
    if args.json_path:
        count = save_knowledge_base(dataset.knowledge_base, args.json_path)
        print(f"wrote {count} rows to {args.json_path}")
    if args.arff_path:
        count = export_arff(dataset.knowledge_base, args.arff_path)
        print(f"exported {count} ARFF instances to {args.arff_path}")
    if not args.json_path and not args.arff_path:
        print("(pass --json and/or --arff to persist it)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import AnalysisEngine, render_json, render_text
    from repro.analysis.baseline import Baseline, partition_findings
    from repro.analysis.cache import DEFAULT_CACHE_FILENAME, LintCache
    from repro.analysis.engine import UNUSED_SUPPRESSION_ID
    from repro.analysis.sarif import render_sarif

    engine = AnalysisEngine(jobs=args.jobs)
    if args.list_rules:
        for rule in engine.rules:
            print(f"{rule.rule_id}  {rule.description}")
        print(
            f"{UNUSED_SUPPRESSION_ID}  a '# repro: noqa' whose rule no "
            "longer fires on its line (engine built-in audit)"
        )
        return 0
    for path in args.paths:
        if not Path(path).exists():
            print(f"repro lint: no such path: {path}", file=sys.stderr)
            return 2
    cache = None
    if not args.no_cache:
        cache = LintCache(args.cache or DEFAULT_CACHE_FILENAME, engine)
    findings = []
    for path in args.paths:
        if cache is not None:
            findings.extend(cache.run_path(path))
        else:
            findings.extend(engine.run_path(path))
    if cache is not None:
        cache.save()
    findings.sort()

    if args.changed is not None:
        try:
            changed = _git_changed_files(args.changed)
        except RuntimeError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        findings = [
            finding
            for finding in findings
            if any(
                path.endswith(finding.path) or finding.path.endswith(path)
                for path in changed
            )
        ]

    if args.fix:
        return _lint_fix(args, findings)

    if args.update_baseline:
        count = Baseline(frozenset()).write(args.update_baseline, findings)
        print(f"wrote {count} baselined findings to {args.update_baseline}")
        return 0

    baselined: list = []
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        findings, baselined = partition_findings(findings, baseline)

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        known = frozenset(
            finding.fingerprint for finding in baselined if finding.fingerprint
        )
        print(
            render_sarif(
                [*findings, *baselined], engine.rules, baselined=known
            )
        )
    else:
        for finding in baselined:
            print(f"{finding.format()}  [baselined]")
        print(render_text(findings))
    return 1 if findings else 0


def _git_changed_files(base: str) -> list[str]:
    """Paths changed vs ``base`` plus untracked files, git-relative.

    Raises :class:`RuntimeError` when git is unavailable or the ref
    does not resolve, so the CLI can exit 2 with a clear message.
    """
    import subprocess

    changed: list[str] = []
    for command in (
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, check=False
            )
        except OSError as exc:
            raise RuntimeError(f"cannot run git: {exc}") from exc
        if result.returncode != 0:
            detail = result.stderr.strip() or f"git exited {result.returncode}"
            raise RuntimeError(f"--changed {base}: {detail}")
        changed.extend(
            line.strip()
            for line in result.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    return changed


def _lint_locate_map(paths) -> dict:
    """Report-path -> on-disk path for every analysed file.

    Mirrors how the engine derives report paths: directory trees are
    addressed as ``<root.name>/<relative>``, standalone files exactly
    as given.
    """
    from pathlib import Path

    locate: dict = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file_path in sorted(path.rglob("*.py")):
                report = str(Path(path.name) / file_path.relative_to(path))
                locate[report] = file_path
        else:
            locate[str(path)] = path
    return locate


def _lint_fix(args: argparse.Namespace, findings) -> int:
    """Apply (or preview) SUP001 suppression autofixes."""
    from repro.analysis.engine import UNUSED_SUPPRESSION_ID
    from repro.analysis.fix import plan_suppression_fixes, render_diff

    plans = plan_suppression_fixes(findings, _lint_locate_map(args.paths))
    removed = sum(plan.removed for plan in plans)
    narrowed = sum(plan.narrowed for plan in plans)
    if args.dry_run:
        diff = render_diff(plans)
        if diff:
            print(diff, end="")
        print(
            f"would remove {removed} and narrow {narrowed} "
            f"suppression(s) across {len(plans)} file(s)"
        )
        return 1 if plans else 0
    for plan in plans:
        plan.path.write_text(plan.fixed)
    print(
        f"removed {removed} and narrowed {narrowed} suppression(s) "
        f"across {len(plans)} file(s)"
    )
    fixed_paths = {plan.display_path for plan in plans}
    remaining = [
        finding
        for finding in findings
        if not (
            finding.rule_id == UNUSED_SUPPRESSION_ID
            and finding.path in fixed_paths
        )
    ]
    if remaining:
        from repro.analysis import render_text

        print(render_text(remaining))
    return 1 if remaining else 0


def _report_checksum(report) -> str:
    """SHA-256 over every numeric output of an elaboration report.

    Hashes the raw float64 bytes (not a repr), so two runs match only
    when they are bit-identical.
    """
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    for eeb_id in sorted(report.alm_results):
        result = report.alm_results[eeb_id]
        digest.update(eeb_id.encode())
        digest.update(np.float64(result.base_value).tobytes())
        digest.update(np.float64(result.scr_report.scr).tobytes())
        digest.update(np.ascontiguousarray(result.outer_values).tobytes())
    for eeb_id in sorted(report.actuarial_results):
        digest.update(eeb_id.encode())
    return digest.hexdigest()[:16]


def _chaos_blocks(seed: int, n_blocks: int, quick: bool):
    """The seeded campaign every chaos mode runs against."""
    from repro.disar import SimulationSettings
    from repro.workload import CampaignGenerator

    if quick:
        settings = SimulationSettings(
            n_outer=40, n_inner=8, lsmc_outer_calibration=15, steps_per_year=2
        )
    else:
        settings = SimulationSettings(
            n_outer=120, n_inner=16, lsmc_outer_calibration=40
        )
    campaign = CampaignGenerator(seed=seed).paper_campaign(
        n_portfolios=2, n_eebs=n_blocks, settings=settings
    )
    return campaign.blocks


def _guard_choice(nodes=2, market="on_demand"):
    """Deliberately small initial fleet: ``nodes`` nodes of the
    second-cheapest type, so an injected straggler genuinely threatens
    the deadline and a rescue has room to scale out.  ``market="spot"``
    buys the fleet on the simulated spot market instead."""
    import math

    from repro.cloud.instance_types import INSTANCE_CATALOG
    from repro.core.selection import DeployChoice

    catalog = sorted(
        INSTANCE_CATALOG.values(), key=lambda t: t.hourly_price_usd
    )
    return DeployChoice(
        instance_type=catalog[1],
        n_nodes=nodes,
        predicted_seconds=math.nan,
        predicted_cost_usd=math.nan,
        feasible=True,
        market=market,
    )


def _guarded_run(blocks, seed, schedule, tmax_seconds, max_retries,
                 spmd_timeout, nodes=2, market="on_demand",
                 market_hazard=None):
    """One deadline-guarded campaign on a fresh manager/checkpoint.

    A fresh seeded manager per run keeps the virtual clock and the
    provider ledger independent across the clean/faulted/replayed runs,
    which is what makes their checksums comparable.  ``market_hazard``
    (events/hour) equips the provider with a seeded spot market, so
    ``market="spot"`` fleets face real price paths and reclaims.
    """
    from repro.cloud.cluster import StarClusterManager
    from repro.runtime import DeadlineGuardedRunner, RunCheckpoint

    if market_hazard is not None:
        from repro.cloud.provider import SimulatedEC2
        from repro.cloud.spot import SpotMarketModel

        manager = StarClusterManager(
            provider=SimulatedEC2(
                spot_market=SpotMarketModel(
                    seed=seed, base_hazard_per_hour=market_hazard
                )
            ),
            seed=seed,
        )
    else:
        manager = StarClusterManager(seed=seed)
    runner = DeadlineGuardedRunner(manager, checkpoint=RunCheckpoint())
    result = runner.run(
        _guard_choice(nodes, market),
        blocks,
        tmax_seconds=tmax_seconds,
        compute_results=True,
        fault_schedule=schedule,
        max_retries=max_retries,
        spmd_timeout=spmd_timeout,
    )
    return runner, result


def _cmd_chaos_rescue(args: argparse.Namespace) -> int:
    """The deadline-guard acceptance scenario.

    A straggler VM plus a mid-campaign rank crash threaten ``Tmax``; the
    guard must rescue onto a larger fleet, resume from the chunk
    checkpoint, finish within the deadline, and still produce an SCR
    bit-identical to the fault-free run.
    """
    from repro.faults import FaultSchedule
    from repro.faults.schedule import RankCrash, SlowNode

    blocks = _chaos_blocks(args.seed, args.blocks, args.quick)
    choice = _guard_choice()
    print(f"campaign: {len(blocks)} blocks, seed {args.seed}; initial "
          f"fleet {choice.n_nodes} x {choice.instance_type.api_name}")

    _, clean = _guarded_run(
        blocks, args.seed, None, 1e9, 0, args.spmd_timeout
    )
    checksum_base = _report_checksum(clean.report)
    nominal = clean.execution_seconds
    print(f"fault-free : {nominal:,.0f}s, cost ${clean.cost_usd:.3f}, "
          f"SCR {clean.report.total_scr:,.2f}  checksum {checksum_base}")

    tmax = args.tmax_factor * nominal
    schedule = FaultSchedule(events=(
        SlowNode(rank=0, multiplier=6.0),
        RankCrash(rank=1, at_op=4),
    ))
    print(f"\n{schedule.describe()}")
    print(f"Tmax = {args.tmax_factor:g} x nominal = {tmax:,.0f}s\n")

    _, rescued = _guarded_run(
        blocks, args.seed, schedule, tmax, args.max_retries,
        args.spmd_timeout
    )
    checksum_rescue = _report_checksum(rescued.report)
    print(f"rescued    : {rescued.describe()}")
    print(f"             SCR {rescued.report.total_scr:,.2f}  "
          f"checksum {checksum_rescue}")

    _, replayed = _guarded_run(
        blocks, args.seed, schedule, tmax, args.max_retries,
        args.spmd_timeout
    )
    checksum_replay = _report_checksum(replayed.report)
    print(f"replayed   : SCR {replayed.report.total_scr:,.2f}  "
          f"checksum {checksum_replay}")

    failures = []
    if rescued.n_rescues < 1:
        failures.append("no elastic rescue fired — guard never breached")
    if not rescued.deadline_met:
        failures.append("rescued run missed its deadline")
    if rescued.n_faults < 1:
        failures.append("no fault fired — schedule never matched the run")
    if rescued.n_resumed_chunks < 1:
        failures.append("no chunks resumed from the checkpoint")
    if checksum_rescue != checksum_base:
        failures.append("rescued run is NOT bit-identical to fault-free")
    if checksum_replay != checksum_rescue:
        failures.append("replay is NOT bit-identical to the rescued run")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: rescue met Tmax with {rescued.n_resumed_chunks} "
          f"checkpointed chunk(s) resumed, ${rescued.wasted_cost_usd:.3f} "
          f"wasted on the abandoned fleet; SCR bit-identical to the "
          f"fault-free run and across replays.")
    return 0


def _cmd_chaos_spot_storm(args: argparse.Namespace) -> int:
    """The spot-market acceptance scenario.

    A 5-node spot fleet runs the campaign under a deliberately hostile
    reclaim hazard.  The market must strip at least three nodes, the
    reclaim-storm breaker must trip, the guard must rescue onto
    reclaim-free capacity, and the recovered SCR must be bit-identical
    to the fault-free on-demand run — on the first run and on a replay.
    """
    blocks = _chaos_blocks(args.seed, args.blocks, args.quick)
    nodes = 5
    choice = _guard_choice(nodes, "spot")
    print(f"campaign: {len(blocks)} blocks, seed {args.seed}; spot "
          f"fleet {nodes} x {choice.instance_type.api_name}, hazard "
          f"{args.market_hazard:g}/h")

    _, clean = _guarded_run(
        blocks, args.seed, None, 1e9, 0, args.spmd_timeout
    )
    checksum_base = _report_checksum(clean.report)
    nominal = clean.execution_seconds
    print(f"fault-free : {nominal:,.0f}s on-demand, cost "
          f"${clean.cost_usd:.3f}, SCR {clean.report.total_scr:,.2f}  "
          f"checksum {checksum_base}")

    tmax = args.tmax_factor * nominal
    print(f"Tmax = {args.tmax_factor:g} x nominal = {tmax:,.0f}s\n")

    runner, stormy = _guarded_run(
        blocks, args.seed, None, tmax, args.max_retries,
        args.spmd_timeout, nodes=nodes, market="spot",
        market_hazard=args.market_hazard,
    )
    checksum_storm = _report_checksum(stormy.report)
    print(f"spot storm : {stormy.describe()}")
    print(f"             SCR {stormy.report.total_scr:,.2f}  "
          f"checksum {checksum_storm}")

    _, replayed = _guarded_run(
        blocks, args.seed, None, tmax, args.max_retries,
        args.spmd_timeout, nodes=nodes, market="spot",
        market_hazard=args.market_hazard,
    )
    checksum_replay = _report_checksum(replayed.report)
    print(f"replayed   : SCR {replayed.report.total_scr:,.2f}  "
          f"checksum {checksum_replay}")

    failures = []
    if stormy.n_reclaims < 3:
        failures.append(
            f"only {stormy.n_reclaims} reclaim(s) fired — the storm "
            f"never materialised (raise --market-hazard)"
        )
    if stormy.n_storms < 1:
        failures.append("the reclaim-storm breaker never tripped")
    if stormy.n_rescues < 1:
        failures.append("no rescue fired — the fleet was never replaced")
    if not stormy.deadline_met:
        failures.append("stormy run missed its deadline")
    if checksum_storm != checksum_base:
        failures.append("stormy run is NOT bit-identical to fault-free")
    if checksum_replay != checksum_storm:
        failures.append("replay is NOT bit-identical to the stormy run")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    rescued_to = ", ".join(
        f"{c.n_nodes}x{c.instance_type.api_name}[{c.market}]"
        for c in stormy.rescue_choices
    )
    print(f"\nOK: {stormy.n_reclaims} spot reclaim(s) tripped "
          f"{stormy.n_storms} storm(s); rescued to {rescued_to} inside "
          f"Tmax; SCR bit-identical to the fault-free run and across "
          f"replays.")
    return 0


def _cmd_chaos_corpus(args: argparse.Namespace) -> int:
    """Replay every fault-schedule file in a corpus directory.

    Each ``*.json`` entry carries a serialized
    :class:`~repro.faults.schedule.FaultSchedule` plus the campaign
    parameters to replay it against.  Optional ``nodes``, ``market``
    and ``market_hazard`` keys size the fleet, buy it on the spot
    market and set the market's reclaim hazard (events/hour) — spot
    entries face market reclaims on top of the scheduled faults.
    Every entry must (a) observably perturb the run and (b) end with an
    SCR bit-identical to its fault-free baseline — on the original run
    and on a replay.
    """
    import json
    from pathlib import Path

    from repro.faults import FaultSchedule

    corpus_dir = Path(args.corpus)
    entries = sorted(corpus_dir.glob("*.json"))
    if not entries:
        print(f"repro chaos: no *.json schedules in {corpus_dir}",
              file=sys.stderr)
        return 2

    baselines: dict[tuple[int, int], tuple[float, str]] = {}
    n_failed = 0
    for path in entries:
        entry = json.loads(path.read_text())
        seed = int(entry.get("seed", args.seed))
        n_blocks = int(entry.get("blocks", args.blocks))
        tmax_factor = entry.get("tmax_factor")
        nodes = int(entry.get("nodes", 2))
        market = entry.get("market", "on_demand")
        market_hazard = entry.get("market_hazard")
        schedule = FaultSchedule.from_dict(entry["schedule"])
        blocks = _chaos_blocks(seed, n_blocks, args.quick)

        # The fault-free baseline always runs on-demand without a
        # market: the reclaim-free reference the recovered SCR must
        # match bit-for-bit.
        key = (seed, n_blocks)
        if key not in baselines:
            _, clean = _guarded_run(
                blocks, seed, None, 1e9, 0, args.spmd_timeout
            )
            baselines[key] = (
                clean.execution_seconds, _report_checksum(clean.report)
            )
        nominal, checksum_base = baselines[key]
        tmax = (
            float(tmax_factor) * nominal if tmax_factor is not None else 1e9
        )

        runner, faulted = _guarded_run(
            blocks, seed, schedule, tmax, args.max_retries,
            args.spmd_timeout, nodes=nodes, market=market,
            market_hazard=market_hazard,
        )
        _, replayed = _guarded_run(
            blocks, seed, schedule, tmax, args.max_retries,
            args.spmd_timeout, nodes=nodes, market=market,
            market_hazard=market_hazard,
        )
        checksum_fault = _report_checksum(faulted.report)
        checksum_replay = _report_checksum(replayed.report)

        observed = (
            faulted.n_faults + faulted.n_rescues
            + faulted.n_fallback_launches + runner.breaker.n_failures
            + faulted.n_reclaims
        )
        failures = []
        if observed == 0:
            failures.append("schedule had no observable effect")
        min_reclaims = int(entry.get("min_reclaims", 0))
        if faulted.n_reclaims < min_reclaims:
            failures.append(
                f"only {faulted.n_reclaims} spot reclaim(s) fired, "
                f"entry demands >= {min_reclaims}"
            )
        if not faulted.deadline_met:
            failures.append("faulted run missed its deadline")
        if checksum_fault != checksum_base:
            failures.append("SCR not bit-identical to fault-free baseline")
        if checksum_replay != checksum_fault:
            failures.append("replay not bit-identical to first faulted run")

        status = "ok  " if not failures else "FAIL"
        print(f"{status} {path.stem:<28} {faulted.describe()}")
        for failure in failures:
            print(f"     FAIL: {failure}", file=sys.stderr)
        n_failed += bool(failures)

    print(f"\n{len(entries) - n_failed}/{len(entries)} corpus "
          f"schedule(s) replayed bit-identically")
    return 1 if n_failed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.disar.master import DisarMasterService
    from repro.faults import FaultInjector, FaultSchedule

    if args.corpus is not None:
        return _cmd_chaos_corpus(args)
    if args.spot_storm:
        return _cmd_chaos_spot_storm(args)
    if args.rescue:
        return _cmd_chaos_rescue(args)
    if args.units < 2:
        print("repro chaos: --units must be >= 2 (SPMD needs peers)",
              file=sys.stderr)
        return 2
    blocks = _chaos_blocks(args.seed, args.blocks, args.quick)

    def run(schedule: FaultSchedule | None):
        injector = FaultInjector(schedule) if schedule is not None else None
        report = DisarMasterService().execute(
            blocks,
            n_units=args.units,
            distribute_alm=True,
            max_retries=args.max_retries if schedule is not None else 0,
            spmd_timeout=args.spmd_timeout,
            injector=injector,
        )
        return report, injector

    print(f"campaign: {len(blocks)} blocks on {args.units} units, "
          f"seed {args.seed}")
    baseline, _ = run(None)
    checksum_base = _report_checksum(baseline)
    print(f"fault-free : SCR {baseline.total_scr:,.2f}  "
          f"checksum {checksum_base}")

    schedule = FaultSchedule.generate(args.seed, size=args.units)
    print(f"\n{schedule.describe()}")
    print(f"schedule checksum: {schedule.checksum()}\n")

    faulted, injector = run(schedule)
    checksum_fault = _report_checksum(faulted)
    assert injector is not None
    print(f"faulted    : SCR {faulted.total_scr:,.2f}  "
          f"checksum {checksum_fault}  ({injector.summary()})")

    replayed, _ = run(schedule)
    checksum_replay = _report_checksum(replayed)
    print(f"replayed   : SCR {replayed.total_scr:,.2f}  "
          f"checksum {checksum_replay}")

    failures = []
    if checksum_fault != checksum_base:
        failures.append("recovered run is NOT bit-identical to fault-free")
    if checksum_replay != checksum_fault:
        failures.append("replay is NOT bit-identical to the first faulted run")
    if injector.n_fired == 0:
        failures.append("no fault fired — schedule never matched the run")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: {injector.n_fired} fault(s) injected, "
          f"{faulted.recovered_failures} dispatch(es) recovered over "
          f"{faulted.rounds} round(s); SCR bit-identical to fault-free run "
          f"and across replays.")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro`` console command."""
    args = build_parser().parse_args(argv)
    handlers = {
        "scr": _cmd_scr,
        "deploy": _cmd_deploy,
        "bench": _cmd_bench,
        "kb": _cmd_kb,
        "lint": _cmd_lint,
        "chaos": _cmd_chaos,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
