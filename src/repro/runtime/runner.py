"""The deadline-guarded run: checkpoint + guard + breaker, tied together.

:class:`DeadlineGuardedRunner` replaces the fire-and-forget
``StarClusterManager.run_campaign`` lifecycle with an *enforced* SLA:

1. the cluster is provisioned through the :class:`CircuitBreaker`; if
   the provider keeps failing launches the breaker opens and the runner
   falls back to the next-cheapest feasible configuration;
2. the campaign's timeline is simulated segment by segment on the
   virtual clock (spot reclaims and straggler VMs degrade it), and the
   :class:`DeadlineGuard` projects the run's ETA at every segment
   boundary;
3. when the guard projects a deadline breach, the runner performs the
   **elastic rescue**: terminate the limping cluster (its bill becomes
   ``wasted_cost_usd``), re-run Algorithm 1 over the *remaining* work,
   provision the rescue configuration mid-run and continue — numbers
   resume from the :class:`~repro.runtime.checkpoint.RunCheckpoint`, so
   the rescued SCR is bit-identical to the fault-free one.

A straggler VM slows the *whole* cluster while its generation is alive —
the Monte Carlo ranks advance in lockstep, so the slowest node sets the
pace — and the penalty disappears once a rescue replaces the fleet.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from repro.cloud.cluster import ClusterHandle, StarClusterManager
from repro.cloud.instance_types import INSTANCE_CATALOG
from repro.cloud.pricing import BillingRecord
from repro.cloud.provider import ProviderError, SimulatedInstance
from repro.cloud.spot import NodeReclaim
from repro.core.deploy import TransparentDeploySystem
from repro.core.selection import ConfigurationSelector, DeployChoice
from repro.disar.eeb import CharacteristicParameters, ElementaryElaborationBlock
from repro.disar.master import DisarMasterService, ElaborationReport
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.runtime.breaker import (
    CircuitBreaker,
    CircuitOpenError,
    ReclaimStormDetector,
)
from repro.runtime.checkpoint import RunCheckpoint
from repro.runtime.guard import DeadlineGuard

__all__ = ["GuardedRunResult", "DeadlineGuardedRunner"]

#: The spot-rescue policy's safety bar for *heuristic* re-plans (no
#: fitted predictor): a rescue of a spot fleet buys replacement spot
#: capacity only when each node's probability of surviving the
#: remaining deadline budget is at least this value; otherwise the
#: rescue falls back to on-demand — a breached deadline is no time to
#: gamble on the same market again.  (Predictor-backed re-plans price
#: the risk instead, via the survival premium in
#: :meth:`DeadlineGuardedRunner._spot_priced`.)
SPOT_RESCUE_SURVIVAL = 0.7


@dataclass
class GuardedRunResult:
    """Outcome of one deadline-guarded cloud campaign."""

    choice: DeployChoice
    final_choice: DeployChoice
    execution_seconds: float
    tmax_seconds: float
    billing: list[BillingRecord]
    report: ElaborationReport | None = None
    n_faults: int = 0
    n_rescues: int = 0
    #: Chunks served from the checkpoint instead of recomputed.
    n_resumed_chunks: int = 0
    #: Bills of clusters abandoned by an elastic rescue.
    wasted_cost_usd: float = 0.0
    #: Launches that succeeded only on a fallback configuration.
    n_fallback_launches: int = 0
    rescue_choices: list[DeployChoice] = field(default_factory=list)
    guard: DeadlineGuard | None = None
    #: Spot VMs reclaimed mid-run (scheduled events + market-driven).
    n_reclaims: int = 0
    #: Reclaim storms that tripped during the run (per-market bursts).
    n_storms: int = 0

    @property
    def cost_usd(self) -> float:
        """Total bill of the run, wasted clusters included."""
        return float(sum(record.cost_usd for record in self.billing))

    @property
    def deadline_met(self) -> bool:
        return self.execution_seconds <= self.tmax_seconds

    @property
    def degraded(self) -> bool:
        if self.n_faults > 0 or self.n_rescues > 0:
            return True
        return self.report is not None and self.report.degraded

    def describe(self) -> str:
        status = "met" if self.deadline_met else "VIOLATED"
        text = (
            f"guarded run: {self.execution_seconds:,.0f}s vs Tmax "
            f"{self.tmax_seconds:,.0f}s ({status}), cost ${self.cost_usd:.3f}"
        )
        if self.n_rescues:
            text += (
                f", {self.n_rescues} rescue(s) to "
                f"{self.final_choice.n_nodes} x "
                f"{self.final_choice.instance_type.api_name}, wasted "
                f"${self.wasted_cost_usd:.3f}"
            )
        if self.n_resumed_chunks:
            text += f", {self.n_resumed_chunks} chunk(s) resumed"
        if self.n_fallback_launches:
            text += f", {self.n_fallback_launches} fallback launch(es)"
        if self.n_reclaims:
            text += f", {self.n_reclaims} spot reclaim(s)"
        if self.n_storms:
            text += f", {self.n_storms} reclaim storm(s)"
        return text


class DeadlineGuardedRunner:
    """Runs campaigns under an enforced deadline SLA.

    Parameters
    ----------
    manager:
        The cluster manager (owns the provider, its clock and the
        performance model).
    selector:
        The Algorithm 1 selector; used for rescue re-planning and
        fallback ranking when its predictor is fitted.  ``None`` (or an
        unfitted predictor) falls back to catalog heuristics: scale out
        first, upgrade the instance type when already at the node cap.
    checkpoint:
        Chunk checkpoint shared across attempts/rescues; a fresh one is
        created when omitted.  Pass the checkpoint of a crashed run to
        resume it.
    breaker:
        Circuit breaker guarding provider calls; a default one on the
        manager's clock is created when omitted.
    headroom:
        Deadline-guard headroom (see :class:`DeadlineGuard`).
    n_segments:
        Timing granularity of the simulated run: progress is observed
        (and the guard consulted) at this many equal-work boundaries.
    max_rescues:
        Elastic rescues allowed per run (1 keeps the accounting simple
        and matches the paper's single-deadline setting).
    storm:
        Per-market reclaim-storm detector; a default one on the
        manager's clock is created when omitted.  A storm in a spot
        fleet's family triggers a rescue even before the deadline guard
        projects a breach, and bars the rescue re-plan from buying
        replacement capacity in that family while the storm cooldown
        holds.
    """

    def __init__(
        self,
        manager: StarClusterManager,
        selector: ConfigurationSelector | None = None,
        checkpoint: RunCheckpoint | None = None,
        breaker: CircuitBreaker | None = None,
        headroom: float = 0.9,
        min_fraction: float = 0.05,
        n_segments: int = 8,
        max_rescues: int = 1,
        storm: ReclaimStormDetector | None = None,
    ) -> None:
        if n_segments < 2:
            raise ValueError(f"n_segments must be >= 2, got {n_segments}")
        if max_rescues < 0:
            raise ValueError(f"max_rescues must be >= 0, got {max_rescues}")
        self.manager = manager
        self.selector = selector
        self.checkpoint = checkpoint if checkpoint is not None else RunCheckpoint()
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(manager.provider.clock)
        )
        self.storm = (
            storm
            if storm is not None
            else ReclaimStormDetector(manager.provider.clock)
        )
        self.headroom = float(headroom)
        self.min_fraction = float(min_fraction)
        self.n_segments = int(n_segments)
        self.max_rescues = int(max_rescues)

    # -- configuration ranking -----------------------------------------------

    def _catalog(self) -> list:
        if self.selector is not None:
            return sorted(
                self.selector.catalog.values(),
                key=lambda t: t.hourly_price_usd,
            )
        return sorted(
            INSTANCE_CATALOG.values(), key=lambda t: t.hourly_price_usd
        )

    def _max_nodes(self, current: int) -> int:
        if self.selector is not None:
            return max(self.selector.max_nodes, current)
        return max(8, current)

    def _predictor_ready(self) -> bool:
        return (
            self.selector is not None and self.selector.predictor.is_fitted
        )

    def _spot_allowed(self, family: str) -> bool:
        """Can a spot fleet of ``family`` be bought right now?  Requires
        a quoting market and no active reclaim storm in the family."""
        return (
            self.manager.provider.spot_market is not None
            and self.storm.allow_spot(family)
        )

    def _in_market(self, candidate: DeployChoice, market: str) -> DeployChoice:
        """``candidate`` purchased in ``market``, demoted to on-demand
        when spot capacity in its family is unavailable or stormy."""
        if market == "spot" and not self._spot_allowed(
            candidate.instance_type.family
        ):
            market = "on_demand"
        if candidate.market == market:
            return candidate
        return replace(candidate, market=market)

    def _rescue_market(
        self, current: DeployChoice, family: str, horizon_seconds: float
    ) -> str:
        """Market a heuristic (predictor-less) rescue should buy into.

        A non-spot fleet is rescued in its own market.  A spot fleet is
        re-bought on the spot market only when each replacement node's
        probability of surviving the remaining deadline budget clears
        :data:`SPOT_RESCUE_SURVIVAL`; a hostile quote (or a storm, or no
        market at all) demotes the rescue to on-demand.  This on-demand
        rescue is the action the certification MDP's ``spot`` rung
        counts on when the market is the reason the fleet needed
        rescuing.
        """
        if current.market != "spot":
            return current.market
        market_model = self.manager.provider.spot_market
        if market_model is None or not self._spot_allowed(family):
            return "on_demand"
        survival = market_model.survival_probability(
            family,
            self.manager.provider.clock.now,
            max(horizon_seconds, 0.0),
        )
        if survival >= SPOT_RESCUE_SURVIVAL:
            return "spot"
        return "on_demand"

    def _fallback_candidates(
        self,
        choice: DeployChoice,
        params: CharacteristicParameters,
        tmax_seconds: float,
    ) -> list[DeployChoice]:
        """Next-cheapest feasible configurations after ``choice``.

        With a fitted predictor the ranking is Algorithm 1's (feasible
        under the deadline, cheapest first); otherwise the catalog is
        walked by hourly price at the chosen node count.  Candidates
        inherit the market of ``choice`` where spot capacity is
        available and storm-free.
        """
        if self._predictor_ready():
            assert self.selector is not None
            evaluated = self.selector.evaluate_all(params, tmax_seconds)
            feasible = [c for c in evaluated if c.feasible]
            pool = feasible if feasible else evaluated
            ranked = sorted(pool, key=lambda c: c.predicted_cost_usd)
        else:
            ranked = [
                DeployChoice(
                    instance_type=instance_type,
                    n_nodes=choice.n_nodes,
                    predicted_seconds=float("nan"),
                    predicted_cost_usd=float("nan"),
                    feasible=True,
                )
                for instance_type in self._catalog()
            ]
        return [
            self._in_market(c, choice.market)
            for c in ranked
            if (c.instance_type.api_name, c.n_nodes)
            != (choice.instance_type.api_name, choice.n_nodes)
        ]

    def _replan(
        self,
        current: DeployChoice,
        params: CharacteristicParameters,
        remaining_fraction: float,
        remaining_budget_seconds: float,
    ) -> DeployChoice:
        """Algorithm 1 over the *remaining* work: the rescue choice.

        Each configuration's full-campaign prediction is scaled by the
        remaining work fraction and checked against the remaining
        deadline budget (with guard headroom); the cheapest feasible
        rescue wins, the fastest one is the fallback when nothing fits.
        With a spot market configured the re-plan **prices both
        markets**: every configuration is also offered at the current
        spot quote, with a survival premium (expected rework makes a
        high-hazard family effectively dearer) — families inside a
        reclaim-storm cooldown are not offered at all.  Without a
        fitted predictor: scale out (double the nodes, capped), then
        upgrade to the next-faster architecture, staying in the current
        market when it is still buyable.
        """
        if self._predictor_ready():
            assert self.selector is not None
            evaluated = self.selector.evaluate_all(params, float("inf"))
            budget = remaining_budget_seconds * self.headroom
            candidates = []
            for c in evaluated:
                scaled = c.predicted_seconds * remaining_fraction
                cost = (
                    c.n_nodes
                    * c.instance_type.hourly_price_usd
                    * scaled
                    / 3600.0
                )
                rescue = DeployChoice(
                    instance_type=c.instance_type,
                    n_nodes=c.n_nodes,
                    predicted_seconds=scaled,
                    predicted_cost_usd=cost,
                    feasible=scaled <= budget,
                    predicted_std_seconds=c.predicted_std_seconds
                    * remaining_fraction,
                )
                candidates.append(rescue)
                spot = self._spot_priced(rescue)
                if spot is not None:
                    candidates.append(spot)
            feasible = [c for c in candidates if c.feasible]
            if feasible:
                return min(feasible, key=lambda c: c.predicted_cost_usd)
            return min(candidates, key=lambda c: c.predicted_seconds)
        cap = self._max_nodes(current.n_nodes)
        if current.n_nodes < cap:
            return self._in_market(
                DeployChoice(
                    instance_type=current.instance_type,
                    n_nodes=min(current.n_nodes * 2, cap),
                    predicted_seconds=float("nan"),
                    predicted_cost_usd=float("nan"),
                    feasible=True,
                ),
                self._rescue_market(
                    current,
                    current.instance_type.family,
                    remaining_budget_seconds,
                ),
            )
        faster = [
            t
            for t in self._catalog()
            if t.vcpus * t.relative_core_speed
            > current.instance_type.vcpus
            * current.instance_type.relative_core_speed
        ]
        upgrade = faster[0] if faster else current.instance_type
        return self._in_market(
            DeployChoice(
                instance_type=upgrade,
                n_nodes=current.n_nodes,
                predicted_seconds=float("nan"),
                predicted_cost_usd=float("nan"),
                feasible=True,
            ),
            self._rescue_market(
                current, upgrade.family, remaining_budget_seconds
            ),
        )

    def _spot_priced(self, rescue: DeployChoice) -> DeployChoice | None:
        """``rescue`` offered at the current spot quote, or ``None``
        when its family's spot capacity is unavailable or stormy.

        The quoted cost carries a survival premium: dividing by the
        fleet's probability of surviving the predicted duration prices
        in the expected rework after a reclaim, so a cheap but hostile
        market does not win the re-plan on sticker price.
        """
        market_model = self.manager.provider.spot_market
        family = rescue.instance_type.family
        if market_model is None or not self._spot_allowed(family):
            return None
        now = self.manager.provider.clock.now
        ratio = market_model.price_ratio(family, now)
        survival = market_model.survival_probability(
            family, now, max(rescue.predicted_seconds, 0.0)
        )
        premium = 1.0 / max(survival, 0.05)
        return replace(
            rescue,
            predicted_cost_usd=rescue.predicted_cost_usd * ratio * premium,
            market="spot",
        )

    # -- provisioning through the breaker ------------------------------------

    def _provision(
        self,
        choice: DeployChoice,
        fallbacks: list[DeployChoice],
        injector: FaultInjector | None,
    ) -> tuple[DeployChoice, ClusterHandle, int]:
        """Launch ``choice`` (or the first fallback that the provider
        accepts); returns ``(choice_used, handle, n_fallbacks_used)``.

        Every candidate goes through the circuit breaker.  When the
        breaker is open, the remaining cooldown is waited out on the
        virtual clock before the half-open trial — the run cannot
        proceed without a cluster, so waiting is the only move.
        """
        if injector is not None:
            injector.begin_epoch()
        last_error: Exception | None = None
        for position, candidate in enumerate([choice, *fallbacks]):
            wait = self.breaker.seconds_until_half_open()
            if wait > 0.0:
                self.manager.provider.clock.advance(wait)
            try:
                handle = self.breaker.call(
                    self.manager.start_cluster,
                    candidate.instance_type,
                    candidate.n_nodes,
                    market=candidate.market,
                    label=(
                        f"launch {candidate.n_nodes} x "
                        f"{candidate.instance_type.api_name} "
                        f"({candidate.market})"
                    ),
                )
            except (CircuitOpenError, ProviderError) as error:
                # Open breaker, or exhausted retries on this candidate:
                # move to the next-cheapest one rather than giving up.
                last_error = error
                continue
            return candidate, handle, position
        raise RuntimeError(
            f"no configuration could be provisioned: {last_error}"
        ) from last_error

    def _pending_market_reclaims(
        self,
        handle: ClusterHandle,
        current: DeployChoice,
        remaining_work: float,
    ) -> list[NodeReclaim]:
        """The reclaims the spot market has in store for this fleet,
        sampled once at provision time (empty for on-demand fleets)."""
        if handle.market != "spot":
            return []
        horizon = 16.0 * self.manager.performance.expected_seconds(
            max(remaining_work, 1e-9), current.instance_type, handle.n_nodes
        )
        return list(self.manager.sample_market_reclaims(handle, horizon))

    def _reclaimed_nodes(
        self,
        handle: ClusterHandle,
        injector: FaultInjector | None,
        fraction: float,
        market_reclaims: list[NodeReclaim],
    ) -> Iterator[SimulatedInstance]:
        """Nodes of ``handle`` lost at or before this segment boundary:
        first the fault schedule's spot terminations staged at or before
        ``fraction``, then the market reclaims that landed inside the
        segment (consumed from ``market_reclaims``).  The fleet's last
        running node is never taken.  Each node must be terminated
        before the next one is drawn."""
        while injector is not None:
            alive = [i for i in handle.instances if i.is_running]
            if len(alive) <= 1:
                return
            spot = injector.take_spot_termination(at_or_before=fraction)
            if spot is None:
                break
            yield alive[spot.node_index % len(alive)]
        clock = self.manager.provider.clock
        while market_reclaims:
            if sum(i.is_running for i in handle.instances) <= 1:
                return
            if market_reclaims[0].at_seconds > clock.now:
                break
            victim = handle.instances[market_reclaims.pop(0).node_index]
            if victim.is_running:
                yield victim

    # -- the guarded run -----------------------------------------------------

    def run(
        self,
        choice: DeployChoice,
        blocks: list[ElementaryElaborationBlock],
        tmax_seconds: float,
        compute_results: bool = False,
        fault_schedule: FaultSchedule | None = None,
        max_retries: int = 3,
        spmd_timeout: float = 5.0,
    ) -> GuardedRunResult:
        """Run ``blocks`` on ``choice`` under the deadline ``tmax_seconds``."""
        if not blocks:
            raise ValueError("no blocks to run")
        if tmax_seconds <= 0:
            raise ValueError(f"tmax_seconds must be positive, got {tmax_seconds}")
        provider = self.manager.provider
        performance = self.manager.performance
        params = TransparentDeploySystem.aggregate_parameters(blocks)
        guard = DeadlineGuard(
            tmax_seconds, headroom=self.headroom, min_fraction=self.min_fraction
        )
        injector = (
            FaultInjector(fault_schedule) if fault_schedule is not None else None
        )
        # The straggler penalty: ranks advance in lockstep, so one slow
        # VM sets the whole generation's pace.  Fresh VMs after a rescue
        # run at nominal speed.
        slow_penalty = 1.0
        if fault_schedule is not None and fault_schedule.slow_nodes():
            slow_penalty = max(
                event.multiplier for event in fault_schedule.slow_nodes()
            )
        previous_hook = provider.launch_hook
        if injector is not None:
            provider.launch_hook = injector.on_launch
        ledger_mark = len(provider.ledger())
        started_at = provider.clock.now
        self.checkpoint.reset_counters()
        n_faults = 0
        n_rescues = 0
        n_fallbacks = 0
        n_reclaims = 0
        storms_before = self.storm.n_storms
        wasted_cost = 0.0
        rescue_choices: list[DeployChoice] = []
        handle: ClusterHandle | None = None
        try:
            choice = self._in_market(choice, choice.market)
            fallbacks = self._fallback_candidates(choice, params, tmax_seconds)
            current, handle, used = self._provision(choice, fallbacks, injector)
            n_fallbacks += used
            work = performance.campaign_units(blocks)
            seg_work = work / self.n_segments
            # Seconds-per-work-unit of the current generation; re-drawn
            # whenever the fleet changes (reclaim or rescue).
            rate = (
                performance.measured_seconds(
                    work, current.instance_type, handle.n_nodes, self.manager._rng
                )
                / work
            )
            # The market's verdict on this spot fleet: reclaim times are
            # fixed (per-fleet seeded) the moment the fleet launches.
            market_reclaims = self._pending_market_reclaims(
                handle, current, work
            )
            storm_rescue = False
            segment = 0
            while segment < self.n_segments:
                provider.clock.advance(seg_work * rate * slow_penalty)
                segment += 1
                fraction = segment / self.n_segments
                remaining_work = work - segment * seg_work
                if remaining_work <= 0.0:
                    break
                for victim in self._reclaimed_nodes(
                    handle, injector, fraction, market_reclaims
                ):
                    provider.terminate([victim])
                    n_faults += 1
                    n_reclaims += 1
                    tripped = self.storm.record_reclaim(
                        current.instance_type.family
                    )
                    # A storm calls for a rescue only on a spot fleet
                    # (the market reclaims nothing else).
                    storm_rescue |= tripped and handle.market == "spot"
                    rate = (
                        performance.measured_seconds(
                            remaining_work,
                            current.instance_type,
                            sum(i.is_running for i in handle.instances),
                            self.manager._rng,
                        )
                        / remaining_work
                    )
                decision = guard.evaluate(
                    provider.clock.now - started_at, fraction
                )
                if (
                    decision.breached or storm_rescue
                ) and n_rescues < self.max_rescues:
                    n_rescues += 1
                    bill = self.manager.terminate_cluster(handle)
                    wasted_cost += bill.cost_usd
                    rescue = self._replan(
                        current,
                        params,
                        remaining_fraction=remaining_work / work,
                        remaining_budget_seconds=max(
                            tmax_seconds - decision.elapsed_seconds, 1.0
                        ),
                    )
                    rescue_fallbacks = self._fallback_candidates(
                        rescue, params, tmax_seconds
                    )
                    current, handle, used = self._provision(
                        rescue, rescue_fallbacks, injector
                    )
                    n_fallbacks += used
                    rescue_choices.append(current)
                    slow_penalty = 1.0
                    storm_rescue = False
                    rate = (
                        performance.measured_seconds(
                            remaining_work,
                            current.instance_type,
                            handle.n_nodes,
                            self.manager._rng,
                        )
                        / remaining_work
                    )
                    market_reclaims = self._pending_market_reclaims(
                        handle, current, remaining_work
                    )
            report = None
            if compute_results:
                alive_n = len([i for i in handle.instances if i.is_running])
                report = DisarMasterService().execute(
                    blocks,
                    n_units=min(alive_n, 8),
                    distribute_alm=handle.n_nodes > 1,
                    max_retries=max_retries,
                    spmd_timeout=spmd_timeout,
                    injector=injector,
                    checkpoint=self.checkpoint,
                )
                n_faults += report.recovered_failures
        finally:
            provider.launch_hook = previous_hook
            if handle is not None and handle.name in {
                h.name for h in self.manager.active_clusters()
            }:
                self.manager.terminate_cluster(handle)
        execution_seconds = provider.clock.now - started_at
        billing = provider.ledger()[ledger_mark:]
        return GuardedRunResult(
            choice=choice,
            final_choice=current,
            execution_seconds=execution_seconds,
            tmax_seconds=tmax_seconds,
            billing=billing,
            report=report,
            n_faults=n_faults,
            n_rescues=n_rescues,
            n_resumed_chunks=self.checkpoint.hits,
            wasted_cost_usd=wasted_cost,
            n_fallback_launches=n_fallbacks,
            rescue_choices=rescue_choices,
            guard=guard,
            n_reclaims=n_reclaims,
            n_storms=self.storm.n_storms - storms_before,
        )
