"""Unit tests for the deadline guard's ETA projection."""

import pytest

from repro.runtime import DeadlineGuard


class TestValidation:
    def test_tmax_must_be_positive(self):
        with pytest.raises(ValueError, match="tmax_seconds"):
            DeadlineGuard(0.0)

    def test_headroom_range(self):
        with pytest.raises(ValueError, match="headroom"):
            DeadlineGuard(100.0, headroom=0.0)
        with pytest.raises(ValueError, match="headroom"):
            DeadlineGuard(100.0, headroom=1.5)

    def test_min_fraction_range(self):
        with pytest.raises(ValueError, match="min_fraction"):
            DeadlineGuard(100.0, min_fraction=0.0)
        with pytest.raises(ValueError, match="min_fraction"):
            DeadlineGuard(100.0, min_fraction=1.0)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError, match="elapsed_seconds"):
            DeadlineGuard(100.0).evaluate(-1.0, 0.5)


class TestProjection:
    def test_zero_fraction_projects_infinity(self):
        assert DeadlineGuard(100.0).project(10.0, 0.0) == float("inf")

    def test_linear_extrapolation(self):
        assert DeadlineGuard(100.0).project(50.0, 0.5) == 100.0
        assert DeadlineGuard(100.0).project(30.0, 0.25) == 120.0

    def test_fraction_clamped_at_one(self):
        assert DeadlineGuard(100.0).project(80.0, 2.0) == 80.0


class TestEvaluate:
    def test_on_track_run_does_not_breach(self):
        guard = DeadlineGuard(1000.0, headroom=0.9)
        decision = guard.evaluate(200.0, 0.5)  # projecting 400s vs 900s
        assert not decision.breached
        assert decision.projected_seconds == 400.0
        assert decision.budget_seconds == 900.0
        assert "on track" in decision.describe()

    def test_drifting_run_breaches_headroom(self):
        guard = DeadlineGuard(1000.0, headroom=0.9)
        decision = guard.evaluate(500.0, 0.5)  # projecting 1000s vs 900s
        assert decision.breached
        assert "BREACH" in decision.describe()

    def test_no_projection_below_min_fraction(self):
        guard = DeadlineGuard(1000.0, min_fraction=0.05)
        # 1% done and already over budget pro rata — still too noisy to act.
        assert not guard.evaluate(100.0, 0.01).breached
        assert guard.evaluate(100.0, 0.05).breached

    def test_completed_run_never_breaches(self):
        guard = DeadlineGuard(1000.0)
        # Finishing late is a deadline violation, not a rescue trigger.
        assert not guard.evaluate(5000.0, 1.0).breached

    def test_breach_count_accumulates(self):
        guard = DeadlineGuard(1000.0, headroom=0.9)
        guard.evaluate(200.0, 0.5)
        guard.evaluate(500.0, 0.5)
        guard.evaluate(600.0, 0.5)
        assert guard.n_breaches == 2
        assert len(guard.decisions) == 3

