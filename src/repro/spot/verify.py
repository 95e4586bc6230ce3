"""The verification gate: refuse fleets that cannot certify the deadline.

:class:`SpotPlanVerifier` sits between Algorithm 1's choice and the
provisioning call.  Before a spot fleet is committed it model-checks the
guarded run (:class:`repro.spot.mdp.DeadlineMdp`) and walks the
escalation ladder until a rung certifies ``P(deadline met) >= p``:

1. **spot** — the plan as chosen: a spot fleet whose policy has every
   action the deadline-guarded runner has, i.e. mid-run rescue onto a
   fresh spot fleet or onto on-demand capacity (cheapest; exposed to
   the market until a rescue);
2. **on_demand** — the plan demoted to pure on-demand: deterministic,
   reclaim-free, and the most expensive rung.

The certificate thus describes the run that actually executes: a spot
plan always runs under the guard, which can always rescue onto
on-demand capacity.

The hazard the MDP certifies against is *calibrated from experience*
when a knowledge base is supplied: observed ``(reclaims, exposure)``
from past spot runs (:meth:`repro.core.knowledge_base.KnowledgeBase.reclaim_stats`)
shrink the market's configured base hazard toward the measured rate via
:meth:`repro.cloud.spot.SpotMarketModel.calibrated_base_hazard` — the
self-optimizing loop applied to risk, not just runtime.

Every verdict is returned as a :class:`DeadlineCertificate`; with
``strict=True`` a plan that fails even the on-demand rung raises
:class:`CertificationError` instead of committing a doomed fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cloud.cluster import StarClusterManager
from repro.cloud.spot import SpotMarketModel
from repro.core.knowledge_base import KnowledgeBase
from repro.core.selection import DeployChoice
from repro.disar.eeb import ElementaryElaborationBlock
from repro.spot.mdp import DeadlineMdp

__all__ = [
    "CertificationError",
    "DeadlineCertificate",
    "SpotPlanVerifier",
    "VerifiedPlan",
]


class CertificationError(RuntimeError):
    """No rung of the escalation ladder could certify the target."""


@dataclass(frozen=True)
class DeadlineCertificate:
    """The gate's verdict on one plan."""

    #: Certified ``P(deadline met)`` of the committed rung — a lower
    #: bound under the MDP's conservative discretisation.
    p_deadline: float
    #: ``P(deadline met)`` of the *point-prediction* strategy (commit
    #: the original fleet, never rescue) — the baseline the paper's
    #: Algorithm 1 implicitly bets on.
    p_no_rescue: float
    #: The probability the caller demanded.
    target: float
    #: Rung the ladder stopped at: ``"spot"`` or ``"on_demand"``.
    escalation: str
    #: Every rung evaluated, in order, as ``(rung, p_deadline)`` —
    #: the audit trail of the refusals.
    ladder: tuple[tuple[str, float], ...]
    #: Base hazard (events/hour) the certification used; differs from
    #: the market's configured one when knowledge-base calibration
    #: kicked in.
    base_hazard_per_hour: float
    #: State count of the MDP behind ``p_deadline``.
    n_states: int

    @property
    def certified(self) -> bool:
        """Whether the committed rung actually meets the target."""
        return self.p_deadline >= self.target

    def describe(self) -> str:
        rungs = ", ".join(f"{name}={p:.4f}" for name, p in self.ladder)
        status = "certified" if self.certified else "NOT CERTIFIED"
        return (
            f"{status}: P(deadline)={self.p_deadline:.4f} >= "
            f"{self.target:.4f} on rung {self.escalation!r} "
            f"(ladder: {rungs}; hazard "
            f"{self.base_hazard_per_hour:.4f}/h, {self.n_states} states)"
        )


@dataclass(frozen=True)
class VerifiedPlan:
    """A plan the gate is willing to commit."""

    choice: DeployChoice
    certificate: DeadlineCertificate
    #: Market of the plan as originally chosen, before any demotion.
    requested_market: str = "spot"

    @property
    def escalated(self) -> bool:
        """Whether the gate changed the plan's market."""
        return self.choice.market != self.requested_market


class SpotPlanVerifier:
    """Model-checks deploy plans against a deadline probability target.

    Parameters
    ----------
    manager:
        The cluster manager about to run the plan; supplies the
        performance model, the provider's spot market and the virtual
        clock position (which anchors the certification window on the
        price path).
    target_probability:
        The ``p`` in ``P(deadline met) >= p``.
    knowledge_base:
        Optional experience store; when given, past spot runs calibrate
        the reclaim hazard the MDP certifies against.
    n_time_steps / n_work_buckets:
        MDP resolution (finer is tighter but slower; the default solves
        in well under a millisecond for an 8-node fleet).
    strict:
        Raise :class:`CertificationError` when even the on-demand rung
        misses the target, instead of returning the best effort.
    """

    def __init__(
        self,
        manager: StarClusterManager,
        target_probability: float = 0.95,
        knowledge_base: KnowledgeBase | None = None,
        n_time_steps: int = 24,
        n_work_buckets: int = 24,
        strict: bool = False,
    ) -> None:
        if not 0.0 < target_probability <= 1.0:
            raise ValueError(
                f"target_probability must be in (0, 1], got "
                f"{target_probability}"
            )
        self.manager = manager
        self.target_probability = float(target_probability)
        self.knowledge_base = knowledge_base
        self.n_time_steps = int(n_time_steps)
        self.n_work_buckets = int(n_work_buckets)
        self.strict = bool(strict)

    # -- hazard calibration ----------------------------------------------------

    def calibrated_market(self) -> SpotMarketModel | None:
        """The provider's market with its base hazard re-estimated from
        knowledge-base experience (unchanged without exposure data)."""
        market = self.manager.provider.spot_market
        if market is None or self.knowledge_base is None:
            return market
        reclaims, exposure = self.knowledge_base.reclaim_stats()
        if exposure <= 0.0:
            return market
        hazard = SpotMarketModel.calibrated_base_hazard(
            reclaims, exposure, prior_per_hour=market.base_hazard_per_hour
        )
        return replace(market, base_hazard_per_hour=hazard)

    # -- the gate --------------------------------------------------------------

    def _mdp(
        self,
        market: SpotMarketModel | None,
        choice: DeployChoice,
        work_units: float,
        tmax_seconds: float,
        spot: bool,
    ) -> DeadlineMdp:
        return DeadlineMdp(
            performance=self.manager.performance,
            market=market,
            instance_type=choice.instance_type,
            n_nodes=choice.n_nodes,
            work_units=work_units,
            tmax_seconds=tmax_seconds,
            t0_seconds=self.manager.provider.clock.now,
            n_time_steps=self.n_time_steps,
            n_work_buckets=self.n_work_buckets,
            spot=spot,
        )

    def verify(
        self,
        choice: DeployChoice,
        blocks: list[ElementaryElaborationBlock],
        tmax_seconds: float,
    ) -> VerifiedPlan:
        """Certify ``choice`` for ``blocks`` under ``tmax_seconds``,
        escalating until a rung meets the target."""
        if not blocks:
            raise ValueError("no blocks to certify against")
        if tmax_seconds <= 0:
            raise ValueError(
                f"tmax_seconds must be positive, got {tmax_seconds}"
            )
        work = self.manager.performance.campaign_units(blocks)
        market = self.calibrated_market()
        target = self.target_probability
        hazard = (
            market.base_hazard_per_hour if market is not None else 0.0
        )
        requested = choice.market

        ladder: list[tuple[str, float]] = []
        rung = "on_demand"
        if choice.market == "spot" and market is not None:
            solution = self._mdp(
                market, choice, work, tmax_seconds, spot=True
            ).solve()
            ladder.append(("spot", solution.p_deadline))
            p_no_rescue = solution.p_no_rescue
            if solution.p_deadline >= target:
                rung = "spot"
            else:
                choice = replace(choice, market="on_demand")
        if rung == "on_demand":
            solution = self._mdp(
                market, choice, work, tmax_seconds, spot=False
            ).solve()
            if not ladder:
                # The plan never was a spot plan: its own (deterministic)
                # value doubles as the no-rescue figure.
                p_no_rescue = solution.p_no_rescue
            ladder.append(("on_demand", solution.p_deadline))
            if self.strict and solution.p_deadline < target:
                raise CertificationError(
                    f"no rung certifies P(deadline met) >= {target}: "
                    + ", ".join(f"{name}={p:.4f}" for name, p in ladder)
                )
        return VerifiedPlan(
            choice=choice,
            certificate=DeadlineCertificate(
                p_deadline=solution.p_deadline,
                p_no_rescue=p_no_rescue,
                target=target,
                escalation=rung,
                ladder=tuple(ladder),
                base_hazard_per_hour=hazard,
                n_states=solution.n_states,
            ),
            requested_market=requested,
        )
