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

    def _interp(
        self, row: list[list[float]], remaining: float, fleet: int
    ) -> float:
        """Next-step value at a fractional remaining-work position,
        linearly interpolated between the bucket gridpoints."""
        if remaining <= 0.0:
            return 1.0
        if remaining >= self.n_work_buckets:
            return row[self.n_work_buckets][fleet]
        lower = int(remaining)
        frac = remaining - lower
        if frac == 0.0:
            return row[lower][fleet]
        return (1.0 - frac) * row[lower][fleet] + frac * row[lower + 1][fleet]

    # -- value iteration -------------------------------------------------------

    def solve(self) -> MdpSolution:
        """Backward induction over the full state space."""
        n_steps = self.n_time_steps
        n_work = self.n_work_buckets
        # Fleet states: index 0 = on-demand (full size), index k = spot
        # fleet with k alive nodes.  On-demand-only plans still carry
        # the full indexing — the spot rows are simply unreachable.
        n_fleets = self.n_nodes + 1
        progress = [self._progress_buckets(max(1, k)) for k in range(n_fleets)]
        progress[_ON_DEMAND] = self._progress_buckets(self.n_nodes)
        survival = (
            [self._step_survival(step) for step in range(n_steps)]
            if self.spot
            else []
        )
        pmf_cache: dict[tuple[int, int], list[float]] = {}

        def survivors(step: int, k: int) -> list[float]:
            key = (step, k)
            if key not in pmf_cache:
                pmf_cache[key] = self._survivor_pmf(k, survival[step])
            return pmf_cache[key]

        def terminal(bucket: int) -> float:
            return 1.0 if bucket == 0 else 0.0

        # value[w][f] at the *next* time step; swept backward.
        value = [
            [terminal(w)] * n_fleets for w in range(n_work + 1)
        ]
        value_nr = [row[:] for row in value]  # continue-only policy
        first_action = "continue"
        for step in reversed(range(n_steps)):
            nxt, nxt_nr = value, value_nr
            value = [[0.0] * n_fleets for _ in range(n_work + 1)]
            value_nr = [[0.0] * n_fleets for _ in range(n_work + 1)]
            for w in range(n_work + 1):
                if w == 0:
                    for f in range(n_fleets):
                        value[w][f] = 1.0
                        value_nr[w][f] = 1.0
                    continue
                # On-demand: deterministic progress, no reclaims.
                r_od = w - progress[_ON_DEMAND]
                value[w][_ON_DEMAND] = self._interp(nxt, r_od, _ON_DEMAND)
                value_nr[w][_ON_DEMAND] = self._interp(
                    nxt_nr, r_od, _ON_DEMAND
                )
                # Spot fleets with k alive nodes.
                for k in range(1, n_fleets):
                    if not self.spot:
                        continue
                    pmf = survivors(step, k)
                    cont = 0.0
                    cont_nr = 0.0
                    for j in range(1, k + 1):
                        r_j = w - progress[j]
                        cont += pmf[j] * self._interp(nxt, r_j, j)
                        cont_nr += pmf[j] * self._interp(nxt_nr, r_j, j)
                    best = cont
                    best_action = "continue"
                    # A rescue loses one step, then runs on a fresh full
                    # spot fleet or on on-demand capacity.
                    rescue = nxt[w][self.n_nodes]
                    if rescue > best:
                        best, best_action = rescue, "rescue_spot"
                    rescue = nxt[w][_ON_DEMAND]
                    if rescue > best:
                        best, best_action = rescue, "rescue_ondemand"
                    value[w][k] = best
                    value_nr[w][k] = cont_nr
                    if (
                        step == 0
                        and w == n_work
                        and k == self.n_nodes
                    ):
                        first_action = best_action
        f0 = self.n_nodes if self.spot else _ON_DEMAND
        return MdpSolution(
            p_deadline=value[n_work][f0],
            p_no_rescue=value_nr[n_work][f0],
            initial_action=first_action if self.spot else "continue",
            n_time_steps=n_steps,
            n_work_buckets=n_work,
            n_states=(n_steps + 1) * (n_work + 1) * n_fleets,
            step_seconds=self.step_seconds,
        )
