"""The deadline-guarded spot run as a finite Markov decision process.

The model answers one question exactly: *under the best possible rescue
policy, what is the probability that the remaining work finishes before
``Tmax``?*  It is the certification core of
:class:`repro.spot.verify.SpotPlanVerifier`.

**States** are ``(time bucket, work bucket, fleet)``: the deadline is
split into ``n_time_steps`` equal steps, the campaign work into
``n_work_buckets`` equal buckets, and the fleet is either the on-demand
cluster (never reclaimed) or a spot cluster with ``k`` of its nodes
still alive.

**Transitions** come from the two calibrated models the planner already
trusts.  The :class:`~repro.cloud.performance.PerformanceModel` gives
each fleet's work rate, so one time step burns a known number of work
buckets; the :class:`~repro.cloud.spot.SpotMarketModel`'s
price-correlated hazard gives each spot node's per-step survival
probability ``s_t`` (time-dependent: the certification window walks the
actual price path), so the survivors of a ``k``-node spot fleet are
``Binomial(k, s_t)`` — with the zero-survivor mass folded into one
survivor, because the simulated provider never reclaims a fleet's last
node.

**Actions** mirror the guard's options at every step boundary:
``continue`` on the current fleet, ``rescue_spot`` (replace the fleet
with a fresh full-size spot fleet) or ``rescue_ondemand`` (fall back to
on-demand, after which nothing is ever reclaimed).  A rescue consumes
one full time step without progress — the model's stand-in for
terminate + re-plan + boot, deliberately pessimistic versus the virtual
clock.

Remaining work is continuous inside the recursion: a step's progress
lands between two bucket gridpoints and the next-step value is linearly
interpolated between them (the standard continuous-state DP treatment —
equivalent to unbiased stochastic rounding of the burned buckets).  The
conservative knobs are elsewhere: a step's progress is earned at the
end-of-step survivor count (as if reclaims landed at the step start)
and a rescue forfeits a whole step, so the certified probability errs
toward refusing marginal plans rather than approving them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cloud.instance_types import InstanceType
from repro.cloud.performance import PerformanceModel
from repro.cloud.spot import SpotMarketModel

__all__ = ["ACTIONS", "DeadlineMdp", "MdpSolution"]

#: Every action the policy may take at a step boundary — the same
#: options the deadline-guarded runner has.  On-demand plans never
#: rescue, so only spot plans use them.
ACTIONS: tuple[str, ...] = ("continue", "rescue_spot", "rescue_ondemand")

#: Fleet-state index of the on-demand cluster; spot fleets with ``k``
#: alive nodes live at index ``k``.
_ON_DEMAND = 0


@dataclass(frozen=True)
class MdpSolution:
    """Exact value-iteration output for one plan."""

    #: ``P(deadline met)`` under the optimal policy over
    #: :data:`ACTIONS` — the figure a certificate quotes.
    p_deadline: float
    #: ``P(deadline met)`` when the policy may only ``continue`` — the
    #: point-prediction strategy that commits the fleet and hopes.
    p_no_rescue: float
    #: Optimal first action at the initial state.
    initial_action: str
    n_time_steps: int
    n_work_buckets: int
    #: Reachable state count, for certificate bookkeeping.
    n_states: int
    step_seconds: float

    def describe(self) -> str:
        return (
            f"P(deadline)={self.p_deadline:.4f} under the optimal policy "
            f"(no-rescue {self.p_no_rescue:.4f}, first action "
            f"{self.initial_action!r}; {self.n_time_steps} x "
            f"{self.step_seconds:,.0f}s steps, {self.n_states} states)"
        )


class DeadlineMdp:
    """Finite-horizon MDP for one ``(instance type, n_nodes)`` plan.

    Parameters
    ----------
    performance:
        The calibrated work-rate model (noise-free rates are used; the
        discretisation pessimism dominates the lognormal noise).
    market:
        The spot market whose price path and reclaim hazard drive the
        transition probabilities.  May be ``None`` only for pure
        on-demand plans (``spot=False``).
    instance_type, n_nodes:
        The plan under certification; rescues re-provision the same
        configuration (the guard's re-plan may do better — pessimism
        again works in the certificate's favour).
    work_units:
        Total campaign work (``PerformanceModel.campaign_units``).
    tmax_seconds:
        The Solvency II deadline, measured from ``t0_seconds``.
    t0_seconds:
        Virtual-clock time the fleet launches at; positions the
        certification window on the market's price path.
    spot:
        Whether the initial fleet is bought on the spot market.  A spot
        plan's policy may take every one of :data:`ACTIONS`.
    """

    def __init__(
        self,
        performance: PerformanceModel,
        market: SpotMarketModel | None,
        instance_type: InstanceType,
        n_nodes: int,
        work_units: float,
        tmax_seconds: float,
        t0_seconds: float = 0.0,
        n_time_steps: int = 24,
        n_work_buckets: int = 24,
        spot: bool = True,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if work_units <= 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        if tmax_seconds <= 0:
            raise ValueError(
                f"tmax_seconds must be positive, got {tmax_seconds}"
            )
        if t0_seconds < 0:
            raise ValueError(f"t0_seconds must be >= 0, got {t0_seconds}")
        if n_time_steps < 1:
            raise ValueError(f"n_time_steps must be >= 1, got {n_time_steps}")
        if n_work_buckets < 1:
            raise ValueError(
                f"n_work_buckets must be >= 1, got {n_work_buckets}"
            )
        if spot and market is None:
            raise ValueError("a spot plan needs a SpotMarketModel to certify")
        self.performance = performance
        self.market = market
        self.instance_type = instance_type
        self.n_nodes = int(n_nodes)
        self.work_units = float(work_units)
        self.tmax_seconds = float(tmax_seconds)
        self.t0_seconds = float(t0_seconds)
        self.n_time_steps = int(n_time_steps)
        self.n_work_buckets = int(n_work_buckets)
        self.spot = bool(spot)
        self.step_seconds = self.tmax_seconds / self.n_time_steps
        self._bucket_work = self.work_units / self.n_work_buckets

    # -- model ingredients -----------------------------------------------------

    def _progress_buckets(self, n_alive: int) -> float:
        """Work buckets one time step burns on an ``n_alive``-node fleet."""
        seconds = self.performance.expected_seconds(
            self.work_units, self.instance_type, n_alive
        )
        rate = self.work_units / seconds  # units per second
        return rate * self.step_seconds / self._bucket_work

    def _step_survival(self, step: int) -> float:
        """Per-node survival probability over time step ``step``."""
        assert self.market is not None
        return self.market.survival_probability(
            self.instance_type.family,
            self.t0_seconds + step * self.step_seconds,
            self.step_seconds,
        )

    @staticmethod
    def _survivor_pmf(n_alive: int, survival: float) -> list[float]:
        """``P(j survivors | n_alive, survival)`` with the zero-survivor
        mass folded into one survivor (the provider spares the last
        node)."""
        pmf = [
            math.comb(n_alive, j)
            * survival**j
            * (1.0 - survival) ** (n_alive - j)
            for j in range(n_alive + 1)
        ]
        pmf[1] += pmf[0]
        pmf[0] = 0.0
        return pmf

    # -- value iteration -------------------------------------------------------

    def solve(self) -> MdpSolution:
        """Backward induction over the full state space.

        Each time step is one array sweep over every (work bucket,
        fleet) state, for the optimal and the continue-only policy side
        by side.  The interpolated next values ``I[j, w]`` depend only
        on the fleet ``j`` the step ends on and the bucket ``w`` it
        starts from, so each step computes them once.  A spot fleet of
        ``k`` nodes continues onto ``j <= k`` survivors; its expected
        value adds the survivor terms in ``j`` order, and the ``j > k``
        terms carry probability zero and add exactly ``+0.0``.  Ties
        keep ``continue`` over ``rescue_spot`` over ``rescue_ondemand``.
        """
        n_steps = self.n_time_steps
        n_work = self.n_work_buckets
        # Fleet states: index 0 = on-demand (full size), index k = spot
        # fleet with k alive nodes.  On-demand-only plans still carry
        # the full indexing — the spot rows are simply unreachable.
        n_fleets = self.n_nodes + 1
        progress = np.array(
            [self._progress_buckets(max(1, k)) for k in range(n_fleets)]
        )
        progress[_ON_DEMAND] = self._progress_buckets(self.n_nodes)
        survival = (
            [self._step_survival(step) for step in range(n_steps)]
            if self.spot
            else []
        )
        # A step from work bucket w = 1..n_work on fleet f leaves
        # remaining[f, w - 1] buckets.  That lands between gridpoints
        # lower and lower + 1 with weights 1 - frac and frac; no work
        # left is worth 1, and more than the grid holds is clamped to
        # its top.  An exact gridpoint gets 1 * lower + 0 * upper, which
        # is lower exactly because every value is a finite probability.
        remaining = (
            np.arange(1, n_work + 1, dtype=float)[np.newaxis, :]
            - progress[:, np.newaxis]
        )
        lower = np.clip(np.floor(remaining), 0, n_work - 1).astype(np.intp)
        frac = (remaining - lower)[..., np.newaxis]
        fleet = np.arange(n_fleets)[:, np.newaxis]
        done = (remaining <= 0.0)[..., np.newaxis]
        beyond = (remaining >= n_work)[..., np.newaxis]

        # value[w, f, policy] at the *next* time step, swept backward;
        # policy 0 is the optimal one, policy 1 continue-only.  Work
        # bucket 0 is the met deadline.
        value = np.zeros((n_work + 1, n_fleets, 2))
        value[0] = 1.0
        first_action = 0
        for step in reversed(range(n_steps)):
            nxt = value
            # interp[j, w - 1, policy]: the value after a step that
            # starts at bucket w and ends on fleet j.
            between = (1.0 - frac) * nxt[lower, fleet] + frac * nxt[
                lower + 1, fleet
            ]
            top = nxt[n_work][:, np.newaxis, :]
            interp = np.where(done, 1.0, np.where(beyond, top, between))
            value = np.zeros_like(nxt)
            value[0] = 1.0
            # On-demand: deterministic progress, no reclaims.
            value[1:, _ON_DEMAND] = interp[_ON_DEMAND]
            if not self.spot:
                continue
            # pmf[j, k - 1] = P(j survivors | k alive), spot fleets k >= 1.
            pmf = np.zeros((n_fleets, n_fleets - 1, 1))
            for k in range(1, n_fleets):
                pmf[: k + 1, k - 1, 0] = self._survivor_pmf(k, survival[step])
            cont = np.zeros((n_work, n_fleets - 1, 2))
            for j in range(1, n_fleets):
                cont = cont + pmf[j] * interp[j][:, np.newaxis, :]
            # A rescue loses one step, then runs on a fresh full spot
            # fleet or on on-demand capacity.
            best = cont[..., 0]
            action = np.zeros(best.shape, dtype=np.intp)
            for code, target in ((1, self.n_nodes), (2, _ON_DEMAND)):
                rescue = nxt[1:, target, 0][:, np.newaxis]
                better = rescue > best
                best = np.where(better, rescue, best)
                action = np.where(better, code, action)
            value[1:, 1:, 0] = best
            value[1:, 1:, 1] = cont[..., 1]
            if step == 0:
                first_action = int(action[n_work - 1, self.n_nodes - 1])
        f0 = self.n_nodes if self.spot else _ON_DEMAND
        return MdpSolution(
            p_deadline=float(value[n_work, f0, 0]),
            p_no_rescue=float(value[n_work, f0, 1]),
            initial_action=ACTIONS[first_action] if self.spot else "continue",
            n_time_steps=n_steps,
            n_work_buckets=n_work,
            n_states=(n_steps + 1) * (n_work + 1) * n_fleets,
            step_seconds=self.step_seconds,
        )

