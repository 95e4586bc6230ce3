"""Deadline guard: runtime ETA projection against ``Tmax``.

Algorithm 1 filters configurations by *predicted* time, but nothing in
the planner reacts when the actual run drifts — a straggler VM can
blow the Solvency II deadline with no reaction.  The
:class:`DeadlineGuard` closes that loop: at every progress boundary of
a run it takes the elapsed time and the completed fraction, projects
the total duration linearly, and flags a **breach** as soon as the
projection exceeds ``tmax_seconds x headroom`` — early enough for an
elastic rescue to re-provision and still finish in time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GuardDecision", "DeadlineGuard"]


@dataclass(frozen=True)
class GuardDecision:
    """One guard evaluation."""

    breached: bool
    elapsed_seconds: float
    completed_fraction: float
    projected_seconds: float
    budget_seconds: float

    def describe(self) -> str:
        status = "BREACH" if self.breached else "on track"
        return (
            f"{status}: {self.completed_fraction:.0%} done in "
            f"{self.elapsed_seconds:,.0f}s, projecting "
            f"{self.projected_seconds:,.0f}s against a "
            f"{self.budget_seconds:,.0f}s budget"
        )


class DeadlineGuard:
    """Projects run ETA and decides when an elastic rescue is needed.

    Parameters
    ----------
    tmax_seconds:
        The Solvency II deadline of the run.
    headroom:
        Fraction of ``Tmax`` the projection may use before the guard
        trips.  ``0.9`` means "react when the ETA passes 90% of the
        deadline" — the remaining 10% absorbs the rescue's own
        re-provisioning latency.
    min_fraction:
        Completed fraction below which no projection is attempted; a
        linear extrapolation from the first percent of a run is noise.
    """

    def __init__(
        self,
        tmax_seconds: float,
        headroom: float = 0.9,
        min_fraction: float = 0.05,
    ) -> None:
        if tmax_seconds <= 0:
            raise ValueError(f"tmax_seconds must be positive, got {tmax_seconds}")
        if not 0.0 < headroom <= 1.0:
            raise ValueError(f"headroom must be in (0, 1], got {headroom}")
        if not 0.0 < min_fraction < 1.0:
            raise ValueError(
                f"min_fraction must be in (0, 1), got {min_fraction}"
            )
        self.tmax_seconds = float(tmax_seconds)
        self.headroom = float(headroom)
        self.min_fraction = float(min_fraction)
        self.decisions: list[GuardDecision] = []

    @property
    def budget_seconds(self) -> float:
        """The projection budget ``Tmax x headroom``."""
        return self.tmax_seconds * self.headroom

    def project(self, elapsed_seconds: float, fraction: float) -> float:
        """Linear ETA: total duration extrapolated from progress so far."""
        if fraction <= 0.0:
            return float("inf")
        return elapsed_seconds / min(fraction, 1.0)

    def evaluate(
        self, elapsed_seconds: float, fraction: float
    ) -> GuardDecision:
        """Evaluate the deadline at an explicit ``(elapsed, fraction)``."""
        if elapsed_seconds < 0.0:
            raise ValueError(
                f"elapsed_seconds must be non-negative, got {elapsed_seconds}"
            )
        projected = self.project(elapsed_seconds, fraction)
        breached = (
            fraction >= self.min_fraction
            and fraction < 1.0
            and projected > self.budget_seconds
        )
        decision = GuardDecision(
            breached=breached,
            elapsed_seconds=float(elapsed_seconds),
            completed_fraction=float(fraction),
            projected_seconds=projected,
            budget_seconds=self.budget_seconds,
        )
        self.decisions.append(decision)
        return decision

    @property
    def n_breaches(self) -> int:
        return sum(decision.breached for decision in self.decisions)
