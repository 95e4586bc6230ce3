"""DiMaS — the DISAR master service.

"DiMaS divides all the input data in EEBs, thus it acts as the
orchestrator of the system.  It defines as well the elementary
elaboration blocks, estimates the complexity of the elaborations,
establishes the elaboration schedule, distributes the elementary
requests to the processing units and monitors the process" (paper,
Section II).

The master performs four steps:

1. **decompose** — split each portfolio into type-A and type-B EEBs;
2. **schedule** — longest-processing-time-first assignment of blocks to
   computing units, balancing the complexity estimates;
3. **execute** — run the schedule: each computing unit is a rank of the
   simulated-MPI runtime (type-A first, since the ALM stage consumes the
   probabilized flows);
4. **monitor** — progress and timing are recorded in the database.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.comm import (
    Communicator,
    FaultHooks,
    MessagePassingError,
    run_spmd,
)
from repro.disar.actuarial_engine import ActuarialResult
from repro.disar.alm_engine import ALMResult
from repro.disar.database import DisarDatabase
from repro.disar.eeb import EEBType, ElementaryElaborationBlock, SimulationSettings
from repro.disar.engine import DisarEngineService
from repro.disar.monitoring import ProgressMonitor
from repro.disar.portfolio import Portfolio

if TYPE_CHECKING:  # avoid the repro.runtime -> repro.disar import cycle
    from repro.runtime.checkpoint import ChunkStore, RunCheckpoint

__all__ = ["DisarMasterService", "ElaborationReport"]


@dataclass
class ElaborationReport:
    """Outcome of one full elaboration campaign."""

    actuarial_results: dict[str, ActuarialResult]
    alm_results: dict[str, ALMResult]
    schedule: dict[int, list[str]]
    elapsed_seconds: float
    n_units: int
    #: Dispatch rounds the campaign needed (1 on the happy path).
    rounds: int = 1
    #: Block dispatches lost to a failure and re-queued for another round.
    recovered_failures: int = 0

    @property
    def degraded(self) -> bool:
        """True when the campaign needed fault recovery to complete."""
        return self.recovered_failures > 0

    @property
    def n_proxy_fallbacks(self) -> int:
        """Blocks whose proxy tier breached its validation gate.

        Each such block silently degraded to exact valuation — correct
        figures, lost speedup — so the count is surfaced campaign-wide,
        like ``recovered_failures`` is for fault recovery.
        """
        return sum(
            1 for result in self.alm_results.values() if result.fell_back
        )

    @property
    def total_scr(self) -> float:
        """Aggregate SCR across blocks (no inter-fund diversification)."""
        return float(
            sum(result.scr_report.scr for result in self.alm_results.values())
        )

    @property
    def total_base_value(self) -> float:
        return float(sum(result.base_value for result in self.alm_results.values()))

    def summary(self) -> str:
        lines = [
            f"Elaboration campaign on {self.n_units} computing unit(s) "
            f"in {self.elapsed_seconds:.2f}s",
            f"  type-A blocks: {len(self.actuarial_results)}",
            f"  type-B blocks: {len(self.alm_results)}",
            f"  total V0     : {self.total_base_value:,.0f}",
            f"  total SCR    : {self.total_scr:,.0f}",
        ]
        if self.degraded:
            lines.append(
                f"  degraded     : {self.recovered_failures} dispatch(es) "
                f"recovered over {self.rounds} round(s)"
            )
        if self.n_proxy_fallbacks:
            lines.append(
                f"  proxy gate   : {self.n_proxy_fallbacks} block(s) "
                f"fell back to exact valuation"
            )
        return "\n".join(lines)


class DisarMasterService:
    """Splits, schedules, executes and monitors DISAR elaborations."""

    def __init__(self, database: DisarDatabase | None = None) -> None:
        self.database = database if database is not None else DisarDatabase()
        self.database.create_table("eebs")
        self.database.create_table("elaborations")

    # -- decomposition ---------------------------------------------------------

    def decompose(
        self,
        portfolios: list[Portfolio],
        blocks_per_portfolio: int = 5,
        settings: SimulationSettings | None = None,
    ) -> list[ElementaryElaborationBlock]:
        """Split ``portfolios`` into paired type-A and type-B EEBs.

        Every group of contracts yields one actuarial block and one ALM
        block over the same contracts, mirroring DISAR's two-stage
        pipeline.
        """
        if not portfolios:
            raise ValueError("need at least one portfolio")
        blocks: list[ElementaryElaborationBlock] = []
        for portfolio in portfolios:
            alm_blocks = portfolio.split_into_eebs(
                blocks_per_portfolio, settings=settings, eeb_type=EEBType.ALM
            )
            for alm in alm_blocks:
                blocks.append(
                    ElementaryElaborationBlock(
                        eeb_id=alm.eeb_id + "/act",
                        eeb_type=EEBType.ACTUARIAL,
                        contracts=alm.contracts,
                        fund=alm.fund,
                        spec=alm.spec,
                        settings=alm.settings,
                    )
                )
                blocks.append(alm)
        for block in blocks:
            self.database.insert(
                "eebs",
                {
                    "eeb_id": block.eeb_id,
                    "type": block.eeb_type.value,
                    "complexity": block.complexity(),
                    **block.characteristic_parameters.__dict__,
                },
            )
        return blocks

    # -- scheduling --------------------------------------------------------------

    @staticmethod
    def schedule(
        blocks: list[ElementaryElaborationBlock],
        n_units: int,
        policy: str = "lpt",
    ) -> dict[int, list[ElementaryElaborationBlock]]:
        """Assign blocks to ``n_units`` computing units.

        Policies:

        - ``"lpt"`` (default, what DiMaS uses) — longest-processing-time
          first: sort blocks by decreasing complexity estimate and
          repeatedly hand the next block to the least-loaded unit;
        - ``"round_robin"`` — complexity-blind cyclic assignment, the
          naive baseline whose stragglers create exactly the idle-node
          waste the paper warns about.
        """
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        if policy not in ("lpt", "round_robin"):
            raise ValueError(
                f"policy must be 'lpt' or 'round_robin', got {policy!r}"
            )
        assignment: dict[int, list[ElementaryElaborationBlock]] = {
            unit: [] for unit in range(n_units)
        }
        if policy == "round_robin":
            for index, block in enumerate(blocks):
                assignment[index % n_units].append(block)
            return assignment
        loads = np.zeros(n_units)
        for block in sorted(blocks, key=lambda b: -b.complexity()):
            unit = int(np.argmin(loads))
            assignment[unit].append(block)
            loads[unit] += block.complexity()
        return assignment

    @staticmethod
    def makespan(
        assignment: dict[int, list[ElementaryElaborationBlock]]
    ) -> float:
        """Complexity-estimate makespan of a schedule (max unit load)."""
        if not assignment:
            return 0.0
        return max(
            sum(block.complexity() for block in unit_blocks)
            for unit_blocks in assignment.values()
        )

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        blocks: list[ElementaryElaborationBlock],
        n_units: int = 1,
        distribute_alm: bool = False,
        monitor: "ProgressMonitor | None" = None,
        max_retries: int = 0,
        retry_backoff_seconds: float = 0.0,
        spmd_timeout: float = 60.0,
        injector: FaultHooks | None = None,
        checkpoint: "RunCheckpoint | None" = None,
        backend: str | None = None,
    ) -> ElaborationReport:
        """Run an elaboration campaign on ``n_units`` computing units.

        Two parallelisation regimes are supported, matching DISAR:

        - ``distribute_alm=False`` — blocks are scheduled LPT across the
          units; every block runs sequentially on its unit (the original
          grid-of-workstations regime);
        - ``distribute_alm=True`` — each type-B block is itself spread
          over *all* units via the message-passing runtime (the regime
          used on the cloud, where every VM runs part of the Monte Carlo
          of the same block).

        ``max_retries > 0`` turns on fault tolerance: a failing block —
        or a whole dispatch round lost to a rank crash, dropped message
        or timeout — does not abort the campaign.  In the grid regime
        the master re-schedules every unfinished block (straggler
        re-dispatch) for up to ``max_retries`` extra rounds; in the
        distributed regime each type-B block gets up to ``max_retries``
        fresh SPMD attempts.  ``retry_backoff_seconds`` adds a linear
        backoff between attempts, and ``spmd_timeout`` bounds each
        dispatch (per round in the grid regime, per EEB in the
        distributed one), so hung ranks convert to retriable failures.
        Blocks that keep failing are reported missing from the results
        rather than raised (grid) or re-raise the last error
        (distributed).

        ``injector`` threads a fault-injection schedule into every SPMD
        dispatch; because injected events fire at most once, a retried
        attempt runs clean and the recovered campaign is bit-identical
        to a fault-free one.

        ``checkpoint`` threads a chunk-level
        :class:`~repro.runtime.checkpoint.RunCheckpoint` into the ALM
        engines: completed conditional-stage chunks are cached per EEB,
        so a retry — or a fresh campaign on a rescued cluster — resumes
        from the last completed chunk instead of recomputing the block,
        with bit-identical results.

        ``backend`` overrides each block's execution-backend spec (e.g.
        ``"process:4"`` or ``"serial"``) for this campaign only — the
        caller's blocks are not mutated.  Because every backend is
        bit-identical at fixed seed and chunk size, the override changes
        wall-clock only, never results (chunk size comes from the spec's
        default on all named specs, so checkpoints stay compatible).
        """
        start = time.perf_counter()
        if backend is not None:
            blocks = [
                replace(
                    block,
                    settings=replace(block.settings, backend=backend),
                )
                for block in blocks
            ]
        type_a = [b for b in blocks if b.eeb_type is EEBType.ACTUARIAL]
        type_b = [b for b in blocks if b.eeb_type is EEBType.ALM]
        if monitor is not None:
            monitor.total_blocks = len(blocks)

        actuarial_results: dict[str, ActuarialResult] = {}
        alm_results: dict[str, ALMResult] = {}
        schedule_view: dict[int, list[str]] = {}
        rounds = 1
        recovered = 0

        if distribute_alm and n_units > 1:
            # Type-A blocks are cheap: run them on the master.
            service = DisarEngineService(node_name="master")
            for block in type_a:
                actuarial_results[block.eeb_id] = service.process(block)
                if monitor is not None:
                    monitor.record(0, block.eeb_id, "completed",
                                   service.timing_log()[-1][2])
            schedule_view = {unit: [] for unit in range(n_units)}
            for block in type_b:
                attempt = 0
                while True:
                    try:
                        results = run_spmd(
                            n_units,
                            self._distributed_worker,
                            block,
                            None
                            if checkpoint is None
                            else checkpoint.store_for(block.eeb_id),
                            timeout=spmd_timeout,
                            injector=injector,
                        )
                        break
                    except MessagePassingError:
                        attempt += 1
                        if attempt > max_retries:
                            raise
                        recovered += 1
                        if monitor is not None:
                            monitor.record(-1, block.eeb_id, "requeued")
                        if retry_backoff_seconds > 0.0:
                            time.sleep(retry_backoff_seconds * attempt)
                rounds = max(rounds, attempt + 1)
                alm_results[block.eeb_id] = results[0]
                if monitor is not None:
                    monitor.record(0, block.eeb_id, "completed",
                                   results[0].elapsed_seconds)
                for unit in range(n_units):
                    schedule_view[unit].append(block.eeb_id)
        else:
            pending = list(blocks)
            fail_soft = max_retries > 0
            dispatches = 0
            schedule_view = {}
            while pending and dispatches <= max_retries:
                if dispatches > 0 and retry_backoff_seconds > 0.0:
                    time.sleep(retry_backoff_seconds * dispatches)
                assignment = self.schedule(pending, n_units)
                if dispatches == 0:
                    schedule_view = {
                        unit: [b.eeb_id for b in unit_blocks]
                        for unit, unit_blocks in assignment.items()
                    }
                try:
                    per_unit = run_spmd(
                        n_units,
                        self._unit_worker,
                        assignment,
                        monitor,
                        fail_soft,
                        checkpoint,
                        timeout=spmd_timeout,
                        injector=injector,
                    )
                except MessagePassingError:
                    # The whole round is lost (rank crash, dropped
                    # message, or timeout); every pending block becomes
                    # a straggler to re-dispatch.
                    if not fail_soft:
                        raise
                    dispatches += 1
                    if dispatches > max_retries:
                        break
                    recovered += len(pending)
                    if monitor is not None:
                        for block in pending:
                            monitor.record(-1, block.eeb_id, "requeued")
                    continue
                done: set[str] = set()
                for unit_results in per_unit:
                    for eeb_id, result in unit_results.items():
                        done.add(eeb_id)
                        if isinstance(result, ActuarialResult):
                            actuarial_results[eeb_id] = result
                        else:
                            alm_results[eeb_id] = result
                survivors = [b for b in pending if b.eeb_id not in done]
                dispatches += 1
                if not fail_soft:
                    pending = survivors
                    break
                if survivors and dispatches <= max_retries:
                    recovered += len(survivors)
                    if monitor is not None:
                        for block in survivors:
                            monitor.record(-1, block.eeb_id, "requeued")
                pending = survivors
            rounds = max(dispatches, 1)

        elapsed = time.perf_counter() - start
        self.database.insert(
            "elaborations",
            {
                "n_units": n_units,
                "n_blocks": len(blocks),
                "distribute_alm": distribute_alm,
                "elapsed_seconds": elapsed,
                "rounds": rounds,
                "recovered_failures": recovered,
            },
        )
        return ElaborationReport(
            actuarial_results=actuarial_results,
            alm_results=alm_results,
            schedule=schedule_view,
            elapsed_seconds=elapsed,
            n_units=n_units,
            rounds=rounds,
            recovered_failures=recovered,
        )

    @staticmethod
    def _unit_worker(
        comm: Communicator,
        assignment: dict[int, list[ElementaryElaborationBlock]],
        monitor: "ProgressMonitor | None" = None,
        fail_soft: bool = False,
        checkpoint: "RunCheckpoint | None" = None,
    ) -> dict[str, ActuarialResult | ALMResult]:
        """Per-unit worker: process the unit's own blocks sequentially.

        Type-A blocks are run before type-B blocks, since the ALM stage
        logically consumes the probabilized flows.  With ``fail_soft``
        a block failure is recorded and skipped instead of aborting the
        whole campaign; the master reschedules the survivors.
        """
        service = DisarEngineService(node_name=f"unit-{comm.rank}")
        my_blocks = assignment.get(comm.rank, [])
        ordered = sorted(my_blocks, key=lambda b: b.eeb_type.value)
        results: dict[str, ActuarialResult | ALMResult] = {}
        for block in ordered:
            # Deterministic fault-injection point at the block boundary;
            # also fails fast when a peer already died.
            comm.checkpoint()
            if monitor is not None:
                monitor.record(comm.rank, block.eeb_id, "started")
            store = (
                None
                if checkpoint is None
                else checkpoint.store_for(block.eeb_id)
            )
            try:
                results[block.eeb_id] = service.process(block, chunk_store=store)
            except Exception:
                if monitor is not None:
                    monitor.record(comm.rank, block.eeb_id, "failed")
                if not fail_soft:
                    raise
                continue
            if monitor is not None:
                monitor.record(
                    comm.rank, block.eeb_id, "completed",
                    service.timing_log()[-1][2],
                )
        comm.barrier()
        return results

    @staticmethod
    def _distributed_worker(
        comm: Communicator,
        block: ElementaryElaborationBlock,
        store: "ChunkStore | None" = None,
    ) -> ALMResult | None:
        """All ranks cooperate on one type-B block."""
        service = DisarEngineService(node_name=f"vm-{comm.rank}")
        comm.checkpoint()
        result = service.process(block, comm=comm, chunk_store=store)
        comm.barrier()
        return result
