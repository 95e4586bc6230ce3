"""Algorithm 1 extended to heterogeneous deploys (the paper's future work).

The selection algorithm stays the same — enumerate, predict with the
model family, filter by the deadline, take the cheapest, explore with
probability epsilon — but the configuration space now contains mixed
clusters: every homogeneous ``(m, n)`` pair plus every two-type split
``n1 x m1 + n2 x m2`` with ``n1 + n2 <= max_nodes``.

Mixed configurations are encoded for the predictors with the same
seven-feature layout as homogeneous ones — the four characteristic
parameters, the (node-mean) vCPU count, the (vCPU-weighted) core speed
and the total node count — so one knowledge base serves both spaces and
a family trained on homogeneous history can immediately score mixed
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.cloud.heterogeneous import MixedClusterSpec
from repro.cloud.instance_types import INSTANCE_CATALOG, InstanceType
from repro.core.predictor import PredictorFamily
from repro.disar.eeb import CharacteristicParameters
from repro.ml.base import FloatArray
from repro.stochastic.rng import generator_from

__all__ = ["MixedDeployChoice", "HeterogeneousSelector", "encode_mixed_features"]


def encode_mixed_features(
    params: CharacteristicParameters, spec: MixedClusterSpec
) -> FloatArray:
    """Feature vector of a (possibly mixed) deploy configuration.

    For a homogeneous spec this reproduces
    :func:`repro.core.knowledge_base.encode_features` exactly.
    """
    return np.concatenate(
        [
            params.as_features(),
            [
                spec.total_vcpus() / spec.n_nodes,
                spec.mean_core_speed(),
                float(spec.n_nodes),
            ],
        ]
    )


@dataclass(frozen=True)
class MixedDeployChoice:
    """One evaluated (possibly mixed) configuration."""

    spec: MixedClusterSpec
    predicted_seconds: float
    predicted_cost_usd: float
    feasible: bool
    explored: bool = False

    def describe(self) -> str:
        flag = " (exploration)" if self.explored else ""
        status = "" if self.feasible else " [DEADLINE AT RISK]"
        return (
            f"{self.spec.describe()}: ~{self.predicted_seconds:,.0f}s, "
            f"~${self.predicted_cost_usd:.3f}{flag}{status}"
        )


class HeterogeneousSelector:
    """Algorithm 1 over homogeneous plus two-type mixed deploys."""

    def __init__(
        self,
        predictor: PredictorFamily,
        catalog: dict[str, InstanceType] | None = None,
        max_nodes: int = 8,
        epsilon: float = 0.05,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.predictor = predictor
        self.catalog = dict(catalog) if catalog is not None else dict(INSTANCE_CATALOG)
        if not self.catalog:
            raise ValueError("instance catalog is empty")
        self.max_nodes = int(max_nodes)
        self.epsilon = float(epsilon)
        self._rng = generator_from(seed)

    # -- configuration space ------------------------------------------------

    def configuration_space(self) -> list[MixedClusterSpec]:
        """All homogeneous and two-type mixed specs up to ``max_nodes``."""
        specs: list[MixedClusterSpec] = []
        types = [self.catalog[name] for name in sorted(self.catalog)]
        for instance_type in types:
            for n_nodes in range(1, self.max_nodes + 1):
                specs.append(MixedClusterSpec.homogeneous(instance_type, n_nodes))
        for first, second in combinations(types, 2):
            for n_first in range(1, self.max_nodes):
                for n_second in range(1, self.max_nodes - n_first + 1):
                    specs.append(
                        MixedClusterSpec(
                            groups=((first, n_first), (second, n_second))
                        )
                    )
        return specs

    # -- evaluation --------------------------------------------------------------

    def evaluate_all(
        self, params: CharacteristicParameters, tmax_seconds: float
    ) -> list[MixedDeployChoice]:
        """Predict time and cost for every configuration in the space."""
        if tmax_seconds <= 0:
            raise ValueError(f"tmax_seconds must be positive, got {tmax_seconds}")
        specs = self.configuration_space()
        features = np.vstack(
            [encode_mixed_features(params, spec) for spec in specs]
        )
        seconds = self.predictor.evaluate(features).mean
        choices: list[MixedDeployChoice] = []
        for spec, predicted in zip(specs, seconds):
            cost = spec.hourly_price() * float(predicted) / 3600.0
            choices.append(
                MixedDeployChoice(
                    spec=spec,
                    predicted_seconds=float(predicted),
                    predicted_cost_usd=cost,
                    feasible=float(predicted) <= tmax_seconds,
                )
            )
        return choices

    def select(
        self, params: CharacteristicParameters, tmax_seconds: float
    ) -> MixedDeployChoice:
        """Algorithm 1 over the extended space."""
        choices = self.evaluate_all(params, tmax_seconds)
        feasible = [choice for choice in choices if choice.feasible]
        if not feasible:
            return min(choices, key=lambda c: c.predicted_seconds)
        if self._rng.random() < self.epsilon:
            chosen = feasible[int(self._rng.integers(0, len(feasible)))]
            return MixedDeployChoice(
                spec=chosen.spec,
                predicted_seconds=chosen.predicted_seconds,
                predicted_cost_usd=chosen.predicted_cost_usd,
                feasible=True,
                explored=True,
            )
        return min(feasible, key=lambda c: c.predicted_cost_usd)

    def select_homogeneous_only(
        self, params: CharacteristicParameters, tmax_seconds: float
    ) -> MixedDeployChoice:
        """The paper's original policy, for like-for-like comparisons."""
        choices = [
            choice
            for choice in self.evaluate_all(params, tmax_seconds)
            if choice.spec.is_homogeneous
        ]
        feasible = [choice for choice in choices if choice.feasible]
        if not feasible:
            return min(choices, key=lambda c: c.predicted_seconds)
        return min(feasible, key=lambda c: c.predicted_cost_usd)
