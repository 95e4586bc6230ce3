"""Seasons of campaigns driven through ``TransparentDeploySystem.run_simulation``.

A *season* is one deploy system, freshly set up, handed a fixed list of
campaigns by a single closed-loop client: the next campaign is submitted
only after ``run_simulation`` returned the previous one.  Everything a
season consumes -- the blocks, their deadlines, the warm knowledge base,
the spot market -- is generated here from the workload seed; the program
only ever sees the generated blocks.

Campaign inputs are Latin-hypercube stratified over the block size
parameters (contracts, horizon, fund positions) and over the deadline
tightness, so every season covers the same ranges evenly and the seed
only jitters values inside their strata and shuffles the order.  That
keeps the decision-quality metrics (miss rate, cost, prediction error)
comparable from seed to seed while each one still repeats exactly at a
fixed seed.

Timed regions report *host seconds* (see :func:`host_seconds`): the CPU
time of this process, which on a virtual machine leaves out the time the
hypervisor gave the core to someone else.  The program runs in this one
process and thread, does no I/O and never waits (its cloud is simulated),
so on an idle core its CPU time is its wall time.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.benchlib.kb_builder import build_dataset
from repro.cloud.cluster import StarClusterManager
from repro.cloud.instance_types import INSTANCE_CATALOG
from repro.cloud.performance import PerformanceModel
from repro.cloud.provider import SimulatedEC2
from repro.cloud.spot import SpotMarketModel
from repro.core.deploy import DeployOutcome, TransparentDeploySystem
from repro.core.predictor import PredictorFamily
from repro.disar.eeb import ElementaryElaborationBlock, SimulationSettings
from repro.disar.master import DisarMasterService, ElaborationReport
from repro.exec.backends import ProcessPoolBackend, backend_from
from repro.workload.portfolio_gen import PortfolioGenerator

from reference import HostReference

__all__ = [
    "WORKLOADS",
    "CampaignResult",
    "Season",
    "Workload",
    "decision_metrics",
    "host_seconds",
    "recheck_scr",
    "run_season",
    "scr_bytes",
    "setup_season",
    "warm_up",
    "with_backend",
]

#: Reference deploy a campaign's deadline is scaled from: four nodes of
#: the median-priced catalog type.
_REFERENCE_NODES = 4
_REFERENCE_TYPE = sorted(
    INSTANCE_CATALOG.values(), key=lambda t: t.hourly_price_usd
)[len(INSTANCE_CATALOG) // 2]

#: Seed of the deploy system's own state: its randomness (bootstrap
#: picks, exploration, model initialisation) and the history in its warm
#: knowledge base.  It is configuration, not input: the workload seed
#: varies only the campaigns the program is handed and the simulated
#: cloud (market, noise) they run on.
PROGRAM_SEED = 0

#: Block-size strata (inclusive ranges): the middle of the ranges
#: ``CampaignGenerator.random_block`` draws from.  Narrower than those,
#: so the mean cost of a season is not set by its few largest blocks.
_CONTRACTS = (50, 200)
_HORIZON = (15, 25)
_FUND_POSITIONS = (100, 300)


@dataclass(frozen=True)
class Workload:
    """One named season shape."""

    name: str
    #: Campaigns per season.
    season_len: int
    #: Seasons every run plays; a traced run replays exactly these.  An
    #: untraced run plays further ones (:meth:`seasons_for`), a number
    #: fixed by its ``--seconds``, so its decision-quality metrics still
    #: repeat exactly at a fixed seed.
    min_seasons: int
    #: Seconds one season (set-up and campaigns) takes at the reference
    #: speed of ``reference.py``, measured; turns a run's time budget
    #: into a fixed number of seasons.
    season_s: float
    #: Deadline = factor x nominal seconds on the reference deploy, with
    #: the factor stratified over this range.
    tightness: tuple[float, float]
    #: Monte Carlo sizes of every block.
    settings: SimulationSettings
    #: Rows of the paper-style knowledge base fitted during setup (0: the
    #: season starts from an empty knowledge base).
    warm_rows: int = 0
    bootstrap_runs: int = 12
    #: Retrain after every campaign (False) or never within a season,
    #: keeping the models frozen at their set-up fit (True).
    frozen: bool = False
    market: str = "on_demand"
    verify_deadline_p: float | None = None
    #: Per-node reclaim hazard (events/hour) of the seeded spot market.
    spot_hazard_per_hour: float = 0.0
    compute_results: bool = False
    #: Campaigns per run whose SCR bytes are recomputed serially.
    scr_samples: int = 0

    def seasons_for(self, seconds: float) -> int:
        """Seasons a run of ``seconds`` plays: as many as take that long
        at the reference speed, at least :attr:`min_seasons`.  The count
        depends on nothing measured, so every run at a given ``seconds``
        does the same work."""
        return max(self.min_seasons, round(seconds / self.season_s))

    @property
    def in_process(self) -> bool:
        """Whether every block runs in this process (no worker pool)."""
        return not isinstance(backend_from(self.settings.backend), ProcessPoolBackend)


class Stopwatch:
    """Wall and CPU time since construction."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def read(self) -> tuple[float, float]:
        """``(wall seconds, CPU seconds)`` elapsed."""
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


def host_seconds(wall_s: float, cpu_s: float, in_process: bool = True) -> float:
    """Seconds a timed region kept the host busy.

    The process's CPU time, which leaves out the time a shared host took
    the virtual core away.  The wall time instead when the process kept
    more than one core busy (CPU time above 1.2 x wall time; the two
    clocks differ by a few percent on one thread), or when worker
    processes, whose CPU time is not this process's, did the work.
    """
    if in_process and cpu_s <= 1.2 * wall_s:
        return cpu_s
    return wall_s


_TIMING_SETTINGS = SimulationSettings(n_outer=1000, n_inner=50)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's self-optimizing loop from nothing: every campaign
        # refits the six learners on a knowledge base that grows by one row.
        Workload(
            name="season-cold",
            season_len=30,
            min_seasons=6,
            season_s=2.9,
            tightness=(0.6, 1.6),
            settings=_TIMING_SETTINGS,
        ),
        # n_outer=5000 makes runs last tens of virtual minutes, so boot is
        # a small share; deadlines of 1-2.5x nominal make certification
        # escalate and the guard fire.
        Workload(
            name="spot-certified",
            season_len=50,
            min_seasons=3,
            season_s=5.2,
            tightness=(1.0, 2.5),
            settings=SimulationSettings(n_outer=5000, n_inner=50),
            warm_rows=200,
            bootstrap_runs=0,
            frozen=True,
            market="spot",
            verify_deadline_p=0.9,
            spot_hazard_per_hour=1.5,
        ),
        # Monte Carlo sizes small enough for 180 real valuations in a run.
        Workload(
            name="valuation",
            season_len=45,
            min_seasons=4,
            season_s=4.7,
            tightness=(0.6, 1.6),
            settings=SimulationSettings(
                n_outer=160, n_inner=20, lsmc_outer_calibration=40
            ),
            warm_rows=150,
            bootstrap_runs=0,
            frozen=True,
            compute_results=True,
            scr_samples=2,
        ),
    )
}


@dataclass
class Season:
    """A set-up deploy system and the campaigns it will be handed."""

    workload: Workload
    system: TransparentDeploySystem
    campaigns: list[tuple[list[ElementaryElaborationBlock], float]]
    #: Host seconds of the set-up (:func:`host_seconds`).
    setup_seconds: float
    #: Called with each campaign's offset in the season just before it
    #: is submitted (the tracer tags spans with it).
    before_campaign: Callable[[int], None] | None = None
    #: Sampled before every campaign and after the last, when given
    #: (``reference.py``).
    reference: HostReference | None = None


@dataclass
class CampaignResult:
    """One closed-loop request and what the output checks made of it."""

    index: int
    #: Wall and CPU seconds of the ``run_simulation`` call.
    wall_s: float
    cpu_s: float
    #: Host seconds of the call (:func:`host_seconds`): the latency metrics.
    latency_s: float
    outcome: DeployOutcome | None
    blocks: list[ElementaryElaborationBlock]
    tmax_seconds: float
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def missed(self) -> bool:
        """Deadline missed; a failed campaign counts as a miss."""
        return self.failed or self.outcome is None or bool(
            self.outcome.measured_seconds > self.tmax_seconds
        )


def _strata(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    """One value per stratum of ``[low, high]``, jittered and shuffled."""
    cells = (rng.permutation(n) + rng.random(n)) / n
    return low + cells * (high - low)


def _campaign_blocks(
    rng: np.random.Generator, n: int, settings: SimulationSettings
) -> list[ElementaryElaborationBlock]:
    """``n`` random single-block campaigns, stratified by block size."""
    contracts = _strata(rng, n, _CONTRACTS[0], _CONTRACTS[1] + 1)
    horizon = _strata(rng, n, _HORIZON[0], _HORIZON[1] + 1)
    positions = _strata(rng, n, _FUND_POSITIONS[0], _FUND_POSITIONS[1] + 1)
    blocks = []
    for i in range(n):
        c, h, p = int(contracts[i]), int(horizon[i]), int(positions[i])
        generator = PortfolioGenerator(
            n_contracts_range=(c, c + 1),
            horizon_range=(h, h + 1),
            fund_positions_range=(p, p + 1),
            seed=int(rng.integers(0, 2**63)),
        )
        portfolio = generator.generate(f"bench-{i:04d}")
        blocks.append(portfolio.split_into_eebs(1, settings=settings)[0])
    return blocks


def setup_season(
    workload: Workload,
    seed: int,
    season: int,
    reference: HostReference | None = None,
) -> Season:
    """Generate one season's inputs and build its deploy system (timed;
    ``reference``, when given, is sampled right before)."""
    if reference is not None:
        reference.sample()
    watch = Stopwatch()
    rng = np.random.default_rng([seed, season])
    sub_seed = int(rng.integers(0, 2**31))
    blocks = _campaign_blocks(rng, workload.season_len, workload.settings)
    nominal = PerformanceModel()
    factors = _strata(rng, workload.season_len, *workload.tightness)
    campaigns = [
        (
            [block],
            float(factor)
            * nominal.expected_seconds(
                nominal.campaign_units([block]),
                _REFERENCE_TYPE,
                _REFERENCE_NODES,
            ),
        )
        for block, factor in zip(blocks, factors)
    ]

    knowledge_base = None
    predictor = None
    if workload.warm_rows:
        dataset = build_dataset(
            n_runs=workload.warm_rows,
            seed=PROGRAM_SEED,
            settings=workload.settings,
        )
        knowledge_base = dataset.knowledge_base
        predictor = PredictorFamily(seed=PROGRAM_SEED).fit(knowledge_base)

    market = None
    if workload.spot_hazard_per_hour > 0.0:
        market = SpotMarketModel(
            seed=sub_seed, base_hazard_per_hour=workload.spot_hazard_per_hour
        )
    manager = StarClusterManager(
        provider=SimulatedEC2(seed=sub_seed, spot_market=market), seed=sub_seed
    )
    system = TransparentDeploySystem(
        cluster_manager=manager,
        knowledge_base=knowledge_base,
        predictor=predictor,
        bootstrap_runs=workload.bootstrap_runs,
        retrain_every=workload.season_len + 1 if workload.frozen else 1,
        seed=PROGRAM_SEED,
    )
    return Season(
        workload=workload,
        system=system,
        campaigns=campaigns,
        setup_seconds=host_seconds(*watch.read(), workload.in_process),
        reference=reference,
    )


def warm_up(workload: Workload, seed: int, campaigns: int = 5) -> None:
    """Play the first campaigns of the first season once, untimed, so the
    timed seasons do not pay for first calls (imports, caches)."""
    season = setup_season(workload, seed, 0)
    season.campaigns = season.campaigns[:campaigns]
    run_season(season)


def run_season(season: Season, first_index: int = 0) -> list[CampaignResult]:
    """Hand the season's campaigns to ``run_simulation``, one at a time.

    Only the ``run_simulation`` call is timed; the output checks run
    between calls, outside the timed region.
    """
    workload = season.workload
    system = season.system
    provider = system.manager.provider
    results = []
    for offset, (blocks, tmax) in enumerate(season.campaigns):
        rows_before = len(system.knowledge_base)
        ledger_mark = len(provider.ledger())
        result = CampaignResult(
            index=first_index + offset,
            wall_s=0.0,
            cpu_s=0.0,
            latency_s=0.0,
            outcome=None,
            blocks=blocks,
            tmax_seconds=tmax,
        )
        if season.before_campaign is not None:
            season.before_campaign(offset)
        if season.reference is not None:
            season.reference.sample()
        watch = Stopwatch()
        try:
            result.outcome = system.run_simulation(
                blocks,
                tmax,
                compute_results=workload.compute_results,
                market=workload.market,
                verify_deadline_p=workload.verify_deadline_p,
            )
        except Exception as exc:  # a raising campaign is a counted failure
            _stop(result, watch, workload)
            result.failures.append(f"raised {type(exc).__name__}: {exc}")
            results.append(result)
            continue
        _stop(result, watch, workload)
        result.failures.extend(
            _check_campaign(
                result.outcome,
                workload,
                rows_before,
                len(system.knowledge_base),
                provider.ledger()[ledger_mark:],
            )
        )
        results.append(result)
    if season.reference is not None:
        season.reference.sample()  # closes the last campaign's bracket
    billed = sum(r.outcome.cost_usd for r in results if r.outcome is not None)
    if not math.isclose(billed, provider.total_cost(), rel_tol=1e-9, abs_tol=1e-12):
        for result in results:
            result.failures.append(
                f"season billing not conserved: outcomes ${billed!r} vs "
                f"provider ${provider.total_cost()!r}"
            )
    return results


def _stop(result: CampaignResult, watch: Stopwatch, workload: Workload) -> None:
    result.wall_s, result.cpu_s = watch.read()
    result.latency_s = host_seconds(result.wall_s, result.cpu_s, workload.in_process)


def _check_campaign(
    outcome: DeployOutcome,
    workload: Workload,
    rows_before: int,
    rows_after: int,
    ledger: list,
) -> list[str]:
    failures = []
    if rows_after != rows_before + 1 or outcome.knowledge_base_size != rows_after:
        failures.append(
            f"knowledge base grew {rows_before} -> {rows_after} "
            f"(outcome says {outcome.knowledge_base_size}), expected +1"
        )
    billed = sum(record.cost_usd for record in ledger)
    if not math.isclose(billed, outcome.cost_usd, rel_tol=1e-9, abs_tol=1e-12):
        failures.append(
            f"billing not conserved: ledger ${billed!r} vs outcome "
            f"${outcome.cost_usd!r}"
        )
    target = workload.verify_deadline_p
    if target is not None:
        p = outcome.certified_p_deadline
        if not (p >= target or outcome.choice.market == "on_demand"):
            failures.append(
                f"certificate P(deadline)={p!r} below target {target} on a "
                f"{outcome.choice.market} plan"
            )
    return failures


def scr_bytes(report: ElaborationReport) -> dict[str, bytes]:
    """Raw float64 bytes of each ALM block's base value and SCR."""
    return {
        eeb_id: np.float64(result.base_value).tobytes()
        + np.float64(result.scr_report.scr).tobytes()
        for eeb_id, result in sorted(report.alm_results.items())
    }


def recheck_scr(
    results: list[CampaignResult], seed: int, samples: int
) -> int:
    """Recompute a seeded sample of campaigns serially on one unit and
    require byte-identical SCRs; returns the number of campaigns checked."""
    candidates = [r for r in results if r.outcome is not None]
    if not candidates or samples <= 0:
        return 0
    rng = np.random.default_rng([seed, 0x5C2])
    picks = rng.choice(len(candidates), size=min(samples, len(candidates)), replace=False)
    for pick in sorted(int(i) for i in picks):
        result = candidates[pick]
        report = result.outcome.report
        if report is None:
            result.failures.append("valuation campaign returned no report")
            continue
        reference = DisarMasterService().execute(
            result.blocks, n_units=1, backend="serial"
        )
        if scr_bytes(report) != scr_bytes(reference):
            result.failures.append(
                "SCR bytes differ from the serial single-unit recompute"
            )
    return len(picks)


def decision_metrics(results: list[CampaignResult]) -> dict[str, float]:
    """Decision quality of a set of campaigns (exact at a fixed seed)."""
    ok = [r for r in results if r.outcome is not None]
    errors = [
        abs(r.outcome.choice.predicted_seconds - r.outcome.measured_seconds)
        / r.outcome.measured_seconds
        for r in ok
        if not r.outcome.bootstrap
        and math.isfinite(r.outcome.choice.predicted_seconds)
    ]
    return {
        "deadline_miss_rate": sum(r.missed for r in results) / len(results),
        "usd_per_campaign": (
            sum(r.outcome.cost_usd for r in ok) / len(ok) if ok else math.nan
        ),
        "prediction_mape": statistics.fmean(errors) if errors else math.nan,
    }


def with_backend(workload: Workload, backend: str) -> Workload:
    """``workload`` with every block on the execution backend ``backend``."""
    return replace(workload, settings=replace(workload.settings, backend=backend))
