"""Elaboration progress monitoring.

DiMaS "monitors the process" and DiInt "monitors the progress of the
elaborations" (paper, Section II).  A :class:`ProgressMonitor` collects
thread-safe events from the computing units while a campaign runs and
derives the views both components need: completion counts, per-unit
busy time and — the quantity the paper's cost argument revolves around —
the *idle fraction* of each unit while the slowest one finishes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["ProgressEvent", "ProgressMonitor"]


@dataclass(frozen=True)
class ProgressEvent:
    """One monitoring event from a computing unit."""

    timestamp: float
    unit: int
    eeb_id: str
    #: "started" | "completed" | "failed" | "requeued"
    status: str
    elapsed_seconds: float = 0.0


@dataclass
class ProgressMonitor:
    """Thread-safe collector of elaboration progress."""

    total_blocks: int = 0
    _events: list[ProgressEvent] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(
        self,
        unit: int,
        eeb_id: str,
        status: str,
        elapsed_seconds: float = 0.0,
    ) -> None:
        """Append one event (called from worker threads)."""
        if status not in ("started", "completed", "failed", "requeued"):
            raise ValueError(f"unknown status {status!r}")
        event = ProgressEvent(
            timestamp=time.perf_counter(),
            unit=unit,
            eeb_id=eeb_id,
            status=status,
            elapsed_seconds=elapsed_seconds,
        )
        with self._lock:
            self._events.append(event)

    # -- views -------------------------------------------------------------------

    def events(self) -> list[ProgressEvent]:
        with self._lock:
            return list(self._events)

    def completed_count(self) -> int:
        return sum(e.status == "completed" for e in self.events())

    def failed_count(self) -> int:
        return sum(e.status == "failed" for e in self.events())

    def requeued_count(self) -> int:
        """Blocks the master re-dispatched after a failed/lost round."""
        return sum(e.status == "requeued" for e in self.events())

    def completion_fraction(self) -> float:
        """Share of blocks finished, in ``[0, 1]`` (``nan`` if unknown)."""
        if self.total_blocks <= 0:
            return float("nan")
        return min(self.completed_count() / self.total_blocks, 1.0)

    def busy_seconds_per_unit(self) -> dict[int, float]:
        """Total elaboration time recorded by each unit."""
        busy: dict[int, float] = {}
        for event in self.events():
            if event.status == "completed":
                busy[event.unit] = busy.get(event.unit, 0.0) + event.elapsed_seconds
        return busy

    def idle_fractions(self) -> dict[int, float]:
        """Idle share of each unit relative to the busiest one.

        This is the paper's cost-waste signal: "the nodes which have
        already completed their tasks would be idle until the slowest
        one completes".
        """
        busy = self.busy_seconds_per_unit()
        if not busy:
            return {}
        makespan = max(busy.values())
        if makespan <= 0:
            return {unit: 0.0 for unit in busy}
        return {
            unit: 1.0 - seconds / makespan for unit, seconds in busy.items()
        }

    def summary(self) -> str:
        """Monitoring view for DiInt."""
        fraction = self.completion_fraction()
        progress = (
            f"{fraction:.0%}" if fraction == fraction else "unknown"
        )
        lines = [
            f"Progress: {self.completed_count()}/{self.total_blocks} blocks "
            f"({progress}), {self.failed_count()} failed, "
            f"{self.requeued_count()} requeued",
        ]
        idle = self.idle_fractions()
        for unit in sorted(idle):
            lines.append(f"  unit {unit}: idle {idle[unit]:.0%}")
        return "\n".join(lines)
