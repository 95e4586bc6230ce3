"""Deadline-guard runtime: the layer between the master and the cloud.

The planner (Algorithm 1) makes the Solvency II deadline a *plan-time*
filter; this package makes it an *enforced runtime SLA*:

- :mod:`repro.runtime.checkpoint` — chunk-level checkpointing.  A
  :class:`~repro.runtime.checkpoint.RunCheckpoint` collects completed
  conditional-stage chunk results; a crashed or spot-reclaimed run
  resumes on a fresh cluster from the last checkpoint, bit-identical to
  a fault-free run thanks to the chunk-index-keyed seeding contract of
  :mod:`repro.exec`.
- :mod:`repro.runtime.guard` — a
  :class:`~repro.runtime.guard.DeadlineGuard` that reads the run's
  elapsed time and completed fraction, projects its ETA and flags a
  breach when the projection drifts past ``Tmax x headroom``.
- :mod:`repro.runtime.breaker` — a
  :class:`~repro.runtime.breaker.CircuitBreaker` with bounded retry,
  exponential backoff and seeded jitter around the provider's control
  plane, opening after N consecutive failures; plus a
  :class:`~repro.runtime.breaker.ReclaimStormDetector` that trips a
  per-market condition when spot reclaims arrive in bursts, steering
  rescue purchases away from the hostile family.
- :mod:`repro.runtime.runner` — the
  :class:`~repro.runtime.runner.DeadlineGuardedRunner` tying the three
  together: it provisions through the breaker, simulates the run on the
  virtual clock, and performs the *elastic rescue* (re-plan the
  remaining work, re-provision mid-run, resume from checkpoint) when
  the guard trips.
"""

from repro.runtime.breaker import (
    CircuitBreaker,
    CircuitOpenError,
    ReclaimStormDetector,
    RetryPolicy,
)
from repro.runtime.checkpoint import ChunkStore, RunCheckpoint
from repro.runtime.guard import DeadlineGuard, GuardDecision
from repro.runtime.runner import DeadlineGuardedRunner, GuardedRunResult

__all__ = [
    "ChunkStore",
    "RunCheckpoint",
    "DeadlineGuard",
    "GuardDecision",
    "CircuitBreaker",
    "CircuitOpenError",
    "ReclaimStormDetector",
    "RetryPolicy",
    "DeadlineGuardedRunner",
    "GuardedRunResult",
]
