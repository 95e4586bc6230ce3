"""Algorithm 1: selection of the best-suited deploy configuration.

Pseudo-code from the paper::

    C = {}                                  # feasible deploys
    for n in [1, max]:
        for m in M:
            time = mean_x p_x(m, n, f)      # ensemble average
            if time <= Tmax:
                cost = hour_cost * time
                C = C + <m, n, cost>
    if RAND() < epsilon: return random element of C
    else:                return argmin_cost C

The cost of a deploy is the *cluster* hour cost (n instances) times the
predicted duration.  When no configuration satisfies the deadline, the
selector falls back to the fastest predicted configuration and flags the
violation — the Solvency II run must happen regardless, and DiInt can
alert the user that the deadline is at risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.instance_types import INSTANCE_CATALOG, InstanceType
from repro.core.knowledge_base import encode_features
from repro.core.predictor import EnsembleEvaluation, PredictorFamily
from repro.disar.eeb import CharacteristicParameters
from repro.stochastic.rng import generator_from

__all__ = ["DeployChoice", "ConfigurationSelector"]


@dataclass(frozen=True)
class DeployChoice:
    """One evaluated configuration ``<m, n, cost>``.

    ``predicted_std_seconds`` is the disagreement (standard deviation)
    across the family's members — the uncertainty signal a risk-averse
    selector adds to the time estimate before checking the deadline.
    """

    instance_type: InstanceType
    n_nodes: int
    predicted_seconds: float
    predicted_cost_usd: float
    feasible: bool
    explored: bool = False
    predicted_std_seconds: float = 0.0
    #: Purchasing market the fleet is bought in (``"on_demand"`` at
    #: catalog rates, ``"spot"`` at the reclaimable-capacity quote).
    market: str = "on_demand"

    def describe(self) -> str:
        flag = " (exploration)" if self.explored else ""
        status = "" if self.feasible else " [DEADLINE AT RISK]"
        tag = "" if self.market == "on_demand" else f" [{self.market}]"
        return (
            f"{self.n_nodes} x {self.instance_type.api_name}{tag}: "
            f"~{self.predicted_seconds:,.0f}s, "
            f"~${self.predicted_cost_usd:.3f}{flag}{status}"
        )


class ConfigurationSelector:
    """Implements the paper's Algorithm 1.

    Parameters
    ----------
    predictor:
        The fitted :class:`PredictorFamily` (the ``p_x`` family).
    catalog:
        The available virtualized architectures ``M``; defaults to the
        paper's six EC2 types.
    max_nodes:
        The user-specified upper bound of the node range ``N = [1, max]``.
    epsilon:
        Exploration probability; with probability ``epsilon`` a random
        *feasible* configuration is selected instead of the cheapest,
        enlarging the knowledge base.
    risk_aversion:
        Safety coefficient ``k`` on the ensemble disagreement: a
        configuration is feasible only when
        ``mean + k * std <= Tmax``.  The paper's Algorithm 1 is
        ``k = 0``; positive ``k`` trades extra cost for fewer deadline
        violations, countering the underestimation risk the paper flags
        ("an underestimation might violate the timing constraints").
    boot_overhead_seconds:
        Per-deploy VM boot latency folded into both the deadline check
        and the cost estimate.  The paper's Algorithm 1 prices a deploy
        as ``hour_cost * time`` only, which systematically undercounts
        real bills (every instance is billed from launch, not from the
        first MPI message); setting this to the provider's typical boot
        time (~90 s for 2016 EC2) closes that gap.
    exploration_headroom:
        Guard-aware ε-greedy bound in ``(0, 1]``: an exploration pick
        must satisfy the deadline check against
        ``tmax * exploration_headroom`` — the same margin the
        :class:`~repro.runtime.guard.DeadlineGuard` will enforce
        mid-run — so exploration never commits a configuration the
        guard already projects to breach Tmax (it would be rescued
        immediately, wasting the boot and poisoning the knowledge base
        with a doomed sample).  ``1.0`` recovers the paper's behaviour:
        any feasible configuration may be explored.
    """

    def __init__(
        self,
        predictor: PredictorFamily,
        catalog: dict[str, InstanceType] | None = None,
        max_nodes: int = 8,
        epsilon: float = 0.05,
        risk_aversion: float = 0.0,
        boot_overhead_seconds: float = 0.0,
        exploration_headroom: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if risk_aversion < 0.0:
            raise ValueError(
                f"risk_aversion must be non-negative, got {risk_aversion}"
            )
        if boot_overhead_seconds < 0.0:
            raise ValueError(
                f"boot_overhead_seconds must be non-negative, got "
                f"{boot_overhead_seconds}"
            )
        if not 0.0 < exploration_headroom <= 1.0:
            raise ValueError(
                f"exploration_headroom must be in (0, 1], got "
                f"{exploration_headroom}"
            )
        self.predictor = predictor
        self.catalog = dict(catalog) if catalog is not None else dict(INSTANCE_CATALOG)
        if not self.catalog:
            raise ValueError("instance catalog is empty")
        self.max_nodes = int(max_nodes)
        self.epsilon = float(epsilon)
        self.risk_aversion = float(risk_aversion)
        self.boot_overhead_seconds = float(boot_overhead_seconds)
        self.exploration_headroom = float(exploration_headroom)
        self._rng = generator_from(seed)
        #: The last campaign table, as ``(params, predictor, fit count,
        #: table)``.
        self._table: (
            tuple[CharacteristicParameters, PredictorFamily, int, EnsembleEvaluation]
            | None
        ) = None

    # -- enumeration -------------------------------------------------------------

    def configurations(self) -> list[tuple[InstanceType, int]]:
        """Every ``(m, n)`` in ``M x N``, in Algorithm 1's order."""
        return [
            (instance_type, n_nodes)
            for n_nodes in range(1, self.max_nodes + 1)
            for instance_type in self.catalog.values()
        ]

    def _campaign_table(
        self, params: CharacteristicParameters
    ) -> EnsembleEvaluation:
        """The ensemble's verdict on every configuration for ``params``.

        One campaign asks for it several times (the selection, the
        runner's fallback ranking and its rescue re-plan), so the last
        table is kept.  It is reused only for the same parameters on the
        same predictor at the same fit count: a refit always rescores.
        """
        predictor = self.predictor
        cached = self._table
        if (
            cached is not None
            and cached[0] == params
            and cached[1] is predictor
            and cached[2] == predictor.fit_count
        ):
            return cached[3]
        features = np.vstack(
            [
                encode_features(params, instance_type, n_nodes)
                for instance_type, n_nodes in self.configurations()
            ]
        )
        table = predictor.evaluate(features)
        self._table = (params, predictor, predictor.fit_count, table)
        return table

    def evaluate_all(
        self, params: CharacteristicParameters, tmax_seconds: float
    ) -> list[DeployChoice]:
        """Predict time and cost for every ``(m, n)`` configuration."""
        if tmax_seconds <= 0:
            raise ValueError(f"tmax_seconds must be positive, got {tmax_seconds}")
        table = self._campaign_table(params)
        boot = self.boot_overhead_seconds
        choices: list[DeployChoice] = []
        for (instance_type, n_nodes), seconds, std in zip(
            self.configurations(), table.mean.tolist(), table.std.tolist()
        ):
            cost = (
                n_nodes * instance_type.hourly_price_usd * (seconds + boot) / 3600.0
            )
            choices.append(
                DeployChoice(
                    instance_type=instance_type,
                    n_nodes=n_nodes,
                    predicted_seconds=seconds,
                    predicted_cost_usd=cost,
                    feasible=(
                        seconds + boot + self.risk_aversion * std <= tmax_seconds
                    ),
                    predicted_std_seconds=std,
                )
            )
        return choices

    # -- Algorithm 1 ----------------------------------------------------------------

    def select(
        self, params: CharacteristicParameters, tmax_seconds: float
    ) -> DeployChoice:
        """Pick the deploy configuration for a simulation with features
        ``params`` under the deadline ``tmax_seconds``."""
        choices = self.evaluate_all(params, tmax_seconds)
        feasible = [choice for choice in choices if choice.feasible]
        if not feasible:
            # Deadline unattainable per the models: run on the fastest
            # predicted configuration and let DiInt warn the user.
            fallback = min(choices, key=lambda c: c.predicted_seconds)
            return fallback
        if self._rng.random() < self.epsilon:
            # Guard-aware exploration: only configurations the deadline
            # guard would also accept mid-run (projection under
            # tmax * exploration_headroom) may be tried.  An empty pool
            # falls back to exploitation rather than picking a doomed
            # configuration.
            explorable = [
                c
                for c in feasible
                if c.predicted_seconds
                + self.boot_overhead_seconds
                + self.risk_aversion * c.predicted_std_seconds
                <= tmax_seconds * self.exploration_headroom
            ]
            if explorable:
                index = int(self._rng.integers(0, len(explorable)))
                chosen = explorable[index]
                return DeployChoice(
                    instance_type=chosen.instance_type,
                    n_nodes=chosen.n_nodes,
                    predicted_seconds=chosen.predicted_seconds,
                    predicted_cost_usd=chosen.predicted_cost_usd,
                    feasible=True,
                    explored=True,
                    predicted_std_seconds=chosen.predicted_std_seconds,
                )
        return min(feasible, key=lambda c: c.predicted_cost_usd)

    def select_fastest(
        self, params: CharacteristicParameters
    ) -> DeployChoice:
        """The configuration with the minimum predicted time (used for
        the paper's closing comparison against a pure-speed policy)."""
        choices = self.evaluate_all(params, tmax_seconds=float("inf"))
        return min(choices, key=lambda c: c.predicted_seconds)
