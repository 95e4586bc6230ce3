"""``repro bench spot`` — the cost-vs-``P(deadline)`` frontier.

A seeded sweep pits two provisioning strategies against the same
stochastic spot markets:

- **point** — the paper's implicit strategy: trust the point runtime
  prediction, commit the spot fleet, never look back (no guard, no
  certification);
- **certified** — the plan goes through
  :class:`~repro.spot.verify.SpotPlanVerifier` first (demoted to
  on-demand unless the guarded spot run certifies
  ``P(deadline met) >= p``) and then runs under the deadline-guard
  runtime.

Each sweep run draws a fresh market seed, so the reclaim schedules vary
while the workload and deadline stay fixed; compliance is the fraction
of runs finishing within ``Tmax``.  The frontier table reports, per
target ``p``, the certified strategy's measured compliance and mean
cost next to the point strategy's — the quantitative form of the
robustness claim: certified plans meet the deadline at least as often
as promised, point-prediction plans measurably do not.

Timings reuse the :class:`~repro.exec.bench.BenchReport` trajectory
machinery, so CI can gate on sweep-throughput drops with ``--against``
exactly like the kernel benchmarks do.  Each sweep is timed as the
median of repeated runs (:func:`~repro.exec.bench.median_wall`); every
repetition replays the same seeded markets, so the results repeat
exactly and only the timing is summarised.
"""

from __future__ import annotations

import math
from typing import Any

from repro.cloud.cluster import StarClusterManager
from repro.cloud.instance_types import INSTANCE_CATALOG, InstanceType
from repro.cloud.provider import SimulatedEC2
from repro.cloud.spot import SpotMarketModel
from repro.core.selection import DeployChoice
from repro.disar.eeb import ElementaryElaborationBlock
from repro.exec.bench import BenchReport, KernelTiming, median_wall
from repro.runtime import DeadlineGuardedRunner, RunCheckpoint
from repro.spot.verify import SpotPlanVerifier

__all__ = ["run_spot_bench", "sweep_workload"]

#: Default certification targets the frontier is traced at.
DEFAULT_TARGETS = (0.5, 0.9, 0.99)


def sweep_workload(
    seed: int, scale: float = 1.0
) -> list[ElementaryElaborationBlock]:
    """The fixed campaign every sweep run executes.

    Sized so a mid-catalog fleet runs for simulated *hours* — long
    enough for realistic reclaim hazards to matter (timing-only runs
    cost milliseconds of host time regardless of virtual duration).
    """
    from repro.disar import SimulationSettings
    from repro.workload import CampaignGenerator

    settings = SimulationSettings(
        n_outer=max(1, int(20_000 * scale)),
        n_inner=100,
        lsmc_outer_calibration=100,
    )
    campaign = CampaignGenerator(seed=seed).paper_campaign(
        n_portfolios=2, n_eebs=3, settings=settings
    )
    return campaign.blocks


def _sweep_instance_type() -> InstanceType:
    """Second-cheapest catalog type — same convention as ``repro chaos``."""
    catalog = sorted(
        INSTANCE_CATALOG.values(), key=lambda t: t.hourly_price_usd
    )
    return catalog[1]


def _market(
    seed: int, run: int, base_hazard_per_hour: float
) -> SpotMarketModel:
    """Per-run market: a fresh price path and reclaim draw each run."""
    return SpotMarketModel(
        seed=seed * 100_003 + run,
        base_hazard_per_hour=base_hazard_per_hour,
    )


def _fresh_manager(
    seed: int, run: int, base_hazard_per_hour: float
) -> StarClusterManager:
    """Fresh provider + clock per run, so billing and reclaim streams
    never leak between sweep runs or strategies."""
    provider = SimulatedEC2(
        spot_market=_market(seed, run, base_hazard_per_hour)
    )
    return StarClusterManager(provider=provider, seed=seed + run)


def run_spot_bench(
    seed: int = 0,
    n_runs: int = 20,
    targets: tuple[float, ...] = DEFAULT_TARGETS,
    tmax_factor: float = 1.25,
    n_nodes: int = 4,
    base_hazard_per_hour: float = 1.5,
    smoke: bool = False,
) -> BenchReport:
    """Trace the certified-vs-point frontier over seeded spot markets.

    ``smoke=True`` shrinks the sweep to a handful of runs and one
    target — a CI wiring check, not a measurement.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if not targets:
        raise ValueError("at least one certification target is required")
    if tmax_factor <= 0:
        raise ValueError(f"tmax_factor must be positive, got {tmax_factor}")
    if smoke:
        n_runs = min(n_runs, 6)
        targets = targets[:1]

    blocks = sweep_workload(seed)
    instance_type = _sweep_instance_type()
    reference = StarClusterManager(seed=seed)
    work = reference.performance.campaign_units(blocks)
    expected = reference.performance.expected_seconds(
        work, instance_type, n_nodes
    )
    tmax = tmax_factor * expected

    def plan() -> DeployChoice:
        return DeployChoice(
            instance_type=instance_type,
            n_nodes=n_nodes,
            predicted_seconds=expected,
            predicted_cost_usd=math.nan,
            feasible=True,
            market="spot",
        )

    # -- point-prediction strategy (target-independent) ---------------------
    def point_sweep() -> tuple[list[bool], list[float], int]:
        met: list[bool] = []
        cost: list[float] = []
        reclaims = 0
        for run in range(n_runs):
            manager = _fresh_manager(seed, run, base_hazard_per_hour)
            result = manager.run_campaign(
                instance_type, n_nodes, blocks, market="spot"
            )
            met.append(result.execution_seconds <= tmax)
            cost.append(result.cost_usd)
            reclaims += result.n_reclaims
        return met, cost, reclaims

    wall_point, (point_met, point_cost, point_reclaims) = median_wall(
        point_sweep
    )

    rows: list[dict[str, Any]] = []
    timings: list[tuple[str, float, float]] = [
        ("spot_point", wall_point, _mean(point_met)),
    ]

    # -- certified strategy, one frontier row per target --------------------
    def certified_sweep(target: float) -> dict[str, Any]:
        met: list[bool] = []
        cost: list[float] = []
        certified_p: list[float] = []
        committed: dict[str, int] = {}
        reclaims = 0
        for run in range(n_runs):
            manager = _fresh_manager(seed, run, base_hazard_per_hour)
            verifier = SpotPlanVerifier(manager, target_probability=target)
            verified = verifier.verify(plan(), blocks, tmax)
            runner = DeadlineGuardedRunner(
                manager, checkpoint=RunCheckpoint()
            )
            result = runner.run(verified.choice, blocks, tmax_seconds=tmax)
            met.append(result.deadline_met)
            cost.append(result.cost_usd)
            certified_p.append(verified.certificate.p_deadline)
            rung = verified.certificate.escalation
            committed[rung] = committed.get(rung, 0) + 1
            reclaims += result.n_reclaims
        return {
            "target": target,
            "certified_compliance": _mean(met),
            "certified_mean_cost_usd": _mean(cost),
            "certified_mean_p": _mean(certified_p),
            "committed_rungs": committed,
            "certified_reclaims": reclaims,
            "point_compliance": _mean(point_met),
            "point_mean_cost_usd": _mean(point_cost),
        }

    for target in targets:
        wall, row = median_wall(lambda: certified_sweep(target))
        rows.append(row)
        timings.append(
            (
                f"spot_certified_p{int(round(target * 100))}",
                wall,
                row["certified_compliance"],
            )
        )

    report = BenchReport(
        config={
            "seed": seed,
            "n_runs": n_runs,
            "targets": list(targets),
            "tmax_factor": tmax_factor,
            "tmax_seconds": tmax,
            "expected_seconds": expected,
            "instance_type": instance_type.api_name,
            "n_nodes": n_nodes,
            "base_hazard_per_hour": base_hazard_per_hour,
            "smoke": smoke,
            "work_units": work,
            "point_reclaims": point_reclaims,
            "frontier": rows,
        }
    )
    for kernel, wall, compliance in timings:
        report.timings.append(
            KernelTiming(
                kernel=kernel,
                backend="sim",
                backend_detail=(
                    f"{n_runs} seeded market(s), "
                    f"hazard {base_hazard_per_hour}/h"
                ),
                wall_seconds=wall,
                work_units=n_runs,
                checksum=compliance,
            )
        )
    return report


def frontier_text(report: BenchReport) -> str:
    """Human-readable frontier table for one bench report."""
    cfg = report.config
    lines = [
        "Spot cost-vs-P(deadline) frontier "
        f"({cfg['n_runs']} seeded markets, Tmax = {cfg['tmax_factor']:g} x "
        f"expected, hazard {cfg['base_hazard_per_hour']:g}/h)",
        f"{'target':>7} {'certified':>10} {'cost [$]':>9} "
        f"{'cert. P':>8} {'point':>6} {'cost [$]':>9}  rungs",
    ]
    for row in cfg["frontier"]:
        rungs = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(row["committed_rungs"].items())
        )
        lines.append(
            f"{row['target']:>7.2f} {row['certified_compliance']:>10.2%} "
            f"{row['certified_mean_cost_usd']:>9.2f} "
            f"{row['certified_mean_p']:>8.4f} "
            f"{row['point_compliance']:>6.2%} "
            f"{row['point_mean_cost_usd']:>9.2f}  {rungs}"
        )
    return "\n".join(lines)


def _mean(values: list) -> float:
    if not values:
        return float("nan")
    return float(sum(values)) / len(values)
