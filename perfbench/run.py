"""The repository benchmark: the paper's control plane, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload season-cold --seed 1 --seconds 25 --trace 0

One closed-loop client hands seasons of campaigns to
``TransparentDeploySystem.run_simulation`` (see ``seasons.py``).  With
``--trace 0`` the run measures the end-to-end metrics with tracing off:
after a short untimed warm-up it plays the workload's fixed seasons and
then as many more as take ``--seconds`` at the reference speed -- a count
fixed by ``--seconds`` alone, so every run does the same work.  Times are
host seconds of this process (``seasons.host_seconds``) scaled to a
reference host speed by a kernel timed around every campaign
(``reference.py``); the unscaled wall-clock figures are printed as a
comment.  With ``--trace 1`` it plays the fixed seasons untraced, then
again with every layer wrapped (``tracing.py``), and reports the
per-layer split in unscaled wall-clock seconds; ``--seconds`` does not
apply.  Every campaign's outputs are checked; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) and the exit status is non-zero when any check failed.
Spans of a traced run are written to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# One BLAS thread: the closed loop is a single client, and on a small
# shared box a second BLAS thread only adds scheduling noise to the tiny
# matrix products of the control plane.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_program() -> None:
    """Put the repository's ``src`` first on the path; fail loudly when
    the program is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"program sources not found under {src}")
    sys.path.insert(0, str(src))


def context(workload, seed: int) -> dict:
    """What a result depends on besides the code."""
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": workload.settings.backend,
        "REPRO_EXEC_WORKERS": os.environ.get("REPRO_EXEC_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Play ``workload``; returns ``(result, report lines)``."""
    from reference import NOMINAL_S, HostReference
    from seasons import decision_metrics, recheck_scr, run_season, setup_season, warm_up
    from tracing import Tracer

    # End-to-end times are scaled to the reference host speed; the traced
    # run reports raw span times and runs no reference kernel.
    reference = None if trace else HostReference()
    warm_up(workload, seed)
    setups: list[float] = []
    latencies: list[float] = []
    decided: list = []
    played: list = []

    def play(index: int, before=None) -> list:
        mark = len(reference.samples) if reference is not None else 0
        season = setup_season(workload, seed, index, reference)
        if before is not None:
            before(season)
        results = run_season(season, first_index=len(played))
        played.extend(results)
        if reference is not None:
            # Samples: before the set-up, before each campaign, after the last.
            setups.append(reference.scaled(season.setup_seconds, mark))
            latencies.extend(
                reference.scaled(r.latency_s, mark + 1 + offset)
                for offset, r in enumerate(results)
            )
        return results

    for index in range(workload.min_seasons):
        decided.extend(play(index))
    lines = []
    rechecked = recheck_scr(decided, seed, workload.scr_samples)
    if rechecked:
        lines.append(f"# SCR bytes of {rechecked} sampled campaigns recomputed serially")
    metrics: dict[str, dict] = {}
    if trace:
        untraced_s = sum(r.wall_s for r in decided)
        tracer = Tracer()

        def instrument(season) -> None:
            tracer.instrument(season.system)
            first = len(played)

            def mark(offset: int) -> None:
                tracer.campaign = first + offset

            season.before_campaign = mark

        replayed: list = []
        with tracer.class_layers():
            for index in range(workload.min_seasons):
                replayed.extend(play(index, instrument))
        for original, again in zip(decided, replayed):
            if original.outcome is None or again.outcome is None:
                continue
            if (original.outcome.measured_seconds, original.outcome.cost_usd) != (
                again.outcome.measured_seconds,
                again.outcome.cost_usd,
            ):
                again.failures.append("traced replay diverged from the untraced run")
        metrics = tracer.metrics(len(replayed), untraced_s)
        times = tracer.layer_times()
        self_total = sum(s for _, _, s in times.values())
        traced_wall = sum(r.wall_s for r in replayed)
        lines.append(
            f"# traced {len(replayed)} campaigns: layer self times sum to "
            f"{self_total:.4f}s of {traced_wall:.4f}s traced wall "
            f"({self_total / traced_wall:.2%})"
        )
        tracer.write_jsonl(
            OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl",
            context(workload, seed),
        )
    else:
        for index in range(workload.min_seasons, workload.seasons_for(seconds)):
            play(index)
        latencies_ms = [1000.0 * s for s in latencies]
        quality = decision_metrics(played)

        def put(name: str, value: float, unit: str) -> None:
            metrics[name] = {"value": value, "unit": unit}

        put("campaigns_per_s", len(latencies) / sum(latencies), "1/s")
        put("campaign_ms_p50", statistics.median(latencies_ms), "ms")
        put("campaign_ms_p90", statistics.quantiles(latencies_ms, n=10)[8], "ms")
        put("setup_s", statistics.median(setups), "s")
        put(
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
        put("deadline_miss_rate", quality["deadline_miss_rate"], "fraction")
        put("usd_per_campaign", quality["usd_per_campaign"], "USD")
        put("prediction_mape", quality["prediction_mape"], "fraction")
        wall_s = sum(r.wall_s for r in played)
        lines.append(
            f"# unscaled: {len(played) / wall_s:.4f} campaigns/s, p50 "
            f"{1000.0 * statistics.median(r.wall_s for r in played):.3f} ms by "
            f"wall clock; CPU/wall {sum(r.cpu_s for r in played) / wall_s:.4f}; "
            f"reference kernel median "
            f"{1000.0 * statistics.median(reference.samples):.4f} ms "
            f"(nominal {1000.0 * NOMINAL_S:g} ms)"
        )
        lines.append(
            f"# {len(played)} campaigns timed over {len(setups)} seasons "
            f"({len(latencies_ms) // 10} beyond p90), decision metrics over "
            f"all of them"
        )

    failed = [r for r in played if r.failed]
    for result in failed[:10]:
        lines.append(f"# FAILED campaign {result.index}: {'; '.join(result.failures)}")
    lines.append(
        f"# failed_fraction = {len(failed) / len(played):.4f} "
        f"({len(failed)} of {len(played)} campaigns raised or failed a check)"
    )
    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(played),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend of every block (default: the program's)",
    )
    args = parser.parse_args(argv)
    try:
        _import_program()
        from seasons import WORKLOADS, with_backend
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    if args.backend is not None:
        workload = with_backend(workload, args.backend)
    result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps({"context": context(workload, args.seed)}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
