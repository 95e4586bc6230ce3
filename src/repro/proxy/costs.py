"""Tier cost and error models for Algorithm 1's tier axis.

Pure arithmetic over plain sizes — no imports from the configuration
layer — so the planner (:mod:`repro.core.planner`) can price tiers
without creating an import cycle.  Costs are quoted in *exact inner
simulations*, the unit the whole pipeline's runtime is proportional to;
errors are heuristic relative-SCR-error predictions whose coefficients
can be recalibrated from measured runs.
"""

from __future__ import annotations

__all__ = [
    "TIERS",
    "exact_tier_inner_sims",
    "predicted_relative_error",
    "proxy_tier_inner_sims",
]

#: The tier axis: every SCR computation runs as exactly one of these.
TIERS = ("exact", "proxy")

#: Heuristic inner-bias coefficient: the relative SCR bias of a nested
#: estimator decays like ``c / n_inner`` (Gordy & Juneja); this is the
#: ``c`` observed on the reference portfolio.
INNER_BIAS_COEFF = 0.35

#: Heuristic outer-noise coefficient: the relative statistical error of
#: the 99.5% loss quantile decays like ``c / sqrt(n_outer)``.
OUTER_NOISE_COEFF = 1.5


def exact_tier_inner_sims(n_outer: int, n_inner: int) -> int:
    """Inner simulations of a full nested run."""
    return int(n_outer) * int(n_inner)


def proxy_tier_inner_sims(n_train: int, n_validation: int, n_inner: int) -> int:
    """Inner simulations of the proxy tier's exact budget (gate pass)."""
    return (int(n_train) + int(n_validation)) * int(n_inner)


def predicted_relative_error(
    tier: str,
    n_outer: int,
    n_inner: int,
    gate_tolerance: float = 0.01,
    inner_bias_coeff: float = INNER_BIAS_COEFF,
    outer_noise_coeff: float = OUTER_NOISE_COEFF,
) -> float:
    """Predicted relative SCR error of a tier.

    - ``exact``: inner bias ``c_b / n_inner`` plus outer noise
      ``c_o / sqrt(n_outer)``;
    - ``proxy``: the gate tolerance (the gate *enforces* it against the
      exact tier on the same outer set, falling back on breach) plus
      the shared outer noise.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
    outer_noise = outer_noise_coeff / float(n_outer) ** 0.5
    if tier == "exact":
        return inner_bias_coeff / float(n_inner) + outer_noise
    return float(gate_tolerance) + outer_noise
