"""Elementary Elaboration Blocks (EEBs).

DISAR parallelises its work through EEBs: "a set of elaborations
identified by common characteristics that make them identical from the
point of view of risks" (paper, Section II).  Two kinds exist:

- **type A** (actuarial valuation): compute the actuarial-expected cash
  flows of the contracts — the *probabilized flows*;
- **type B** (ALM valuation): market-consistent valuation, the
  Monte Carlo heavy part that the paper offloads to the cloud.

The *characteristic parameters* of an EEB are exactly the four features
the paper feeds its ML models: the number of representative contracts,
the maximum time horizon of the policies, the segregated-fund asset
number and the number of financial risk factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.exec.backends import backend_from
from repro.financial.contracts import PolicyContract
from repro.proxy.costs import proxy_tier_inner_sims
from repro.financial.segregated_fund import SegregatedFund
from repro.stochastic.scenario import RiskDriverSpec

__all__ = [
    "EEBType",
    "CharacteristicParameters",
    "SimulationSettings",
    "ElementaryElaborationBlock",
    "estimate_complexity",
]


def estimate_complexity(
    params: "CharacteristicParameters",
    settings: "SimulationSettings",
    eeb_type: "EEBType",
) -> float:
    """Complexity estimate of an elaboration, in abstract work units.

    The dominant cost of a type-B block is the ``n_outer x n_inner``
    trajectory grid, each trajectory simulating every risk factor over
    the horizon and valuing every representative contract; LSMC replaces
    the full inner stage with a fixed calibration share, and the proxy
    tier (:mod:`repro.proxy`) shrinks the exact inner budget to its
    training and validation scenarios.  Type-A blocks only sweep the
    decrement tables.
    """
    if eeb_type is EEBType.ACTUARIAL:
        return float(params.n_contracts * params.max_horizon)
    if settings.tier == "proxy":
        inner_cost = proxy_tier_inner_sims(
            settings.proxy_train, settings.proxy_validation, settings.n_inner
        ) / settings.n_outer
    elif settings.use_lsmc:
        inner_cost = (
            settings.n_inner * settings.lsmc_outer_calibration / settings.n_outer
        )
    else:
        inner_cost = settings.n_inner
    per_trajectory = params.max_horizon * (
        params.n_risk_factors + 0.05 * params.n_fund_assets
    )
    per_scenario = per_trajectory * (1.0 + inner_cost) + params.n_contracts * (
        0.25 * params.max_horizon
    )
    return float(settings.n_outer * per_scenario)


class EEBType(enum.Enum):
    """The two elaboration kinds of DISAR."""

    #: Actuarial valuation: probabilized cash flows (DiActEng).
    ACTUARIAL = "A"
    #: Asset-Liability Management valuation: market-consistent values
    #: via Monte Carlo (DiAlmEng).
    ALM = "B"


@dataclass(frozen=True)
class CharacteristicParameters:
    """The ML feature vector of an EEB (paper, Section III).

    These are the parameters "that induce the highest variability in the
    execution time of the simulation".
    """

    #: Number of representative contracts (policies with equal insurance
    #: parameters collapsed together).
    n_contracts: int
    #: Maximum time horizon of the policies, in years.
    max_horizon: int
    #: Number of asset positions in the segregated fund.
    n_fund_assets: int
    #: Number of financial risk factors simulated.
    n_risk_factors: int

    def __post_init__(self) -> None:
        for name in ("n_contracts", "max_horizon", "n_fund_assets", "n_risk_factors"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def as_features(self) -> np.ndarray:
        """Feature vector in the canonical order."""
        return np.array(
            [
                float(self.n_contracts),
                float(self.max_horizon),
                float(self.n_fund_assets),
                float(self.n_risk_factors),
            ]
        )

    @staticmethod
    def feature_names() -> list[str]:
        return ["n_contracts", "max_horizon", "n_fund_assets", "n_risk_factors"]


@dataclass(frozen=True)
class SimulationSettings:
    """Monte Carlo sample sizes for one elaboration campaign.

    The paper's experiments use ``n_inner = 50`` risk-neutral iterations
    (acceptable within LSMC) and ``n_outer = 1000`` natural iterations.
    """

    n_outer: int = 1000
    n_inner: int = 50
    use_lsmc: bool = True
    lsmc_outer_calibration: int = 100
    lsmc_degree: int = 2
    steps_per_year: int = 4
    seed: int = 0
    #: SCR tier (Algorithm 1's tier axis): ``"exact"`` runs the full
    #: nested / LSMC valuation per ``use_lsmc``; ``"proxy"`` trains an
    #: inner-loop replacement on a small exact budget behind a
    #: validation gate (:mod:`repro.proxy`).  Both tiers are
    #: deterministic at a fixed ``(seed, budget, tier)``.
    tier: str = "exact"
    #: Proxy valuator kind: ``"lsmc"`` (polynomial regression) or
    #: ``"mlp"`` (neural network).
    proxy_kind: str = "lsmc"
    #: Exact-budget scenarios used to train the proxy.
    proxy_train: int = 64
    #: Held-out exact scenarios the validation gate checks the proxy on.
    proxy_validation: int = 32
    #: Gate tolerance: maximum relative error of the held-out loss
    #: quantile before the tier falls back to exact valuation.
    proxy_tolerance: float = 0.02
    #: Execution backend spec for the Monte Carlo engine — see
    #: :func:`repro.exec.backends.backend_from` (``"serial"``,
    #: ``"batched"``, ``"process[:N]"``; ``None`` is the batched
    #: default).  All specs are bit-identical at a fixed seed and chunk
    #: size, so the choice is purely an execution-cost knob.
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.n_outer <= 0 or self.n_inner <= 0:
            raise ValueError("n_outer and n_inner must be positive")
        if self.lsmc_outer_calibration <= 0:
            raise ValueError("lsmc_outer_calibration must be positive")
        if self.lsmc_degree < 1:
            raise ValueError("lsmc_degree must be >= 1")
        if self.steps_per_year < 1:
            raise ValueError("steps_per_year must be >= 1")
        if self.tier not in ("exact", "proxy"):
            raise ValueError(
                f"tier must be 'exact' or 'proxy', got {self.tier!r}"
            )
        if self.proxy_kind not in ("lsmc", "mlp"):
            raise ValueError(
                f"proxy_kind must be 'lsmc' or 'mlp', got {self.proxy_kind!r}"
            )
        if self.proxy_train <= 0 or self.proxy_validation <= 0:
            raise ValueError("proxy_train and proxy_validation must be positive")
        if self.tier == "proxy" and (
            self.proxy_train + self.proxy_validation > self.n_outer
        ):
            raise ValueError(
                f"proxy budget {self.proxy_train + self.proxy_validation} "
                f"exceeds n_outer={self.n_outer}"
            )
        if self.proxy_tolerance <= 0.0:
            raise ValueError("proxy_tolerance must be positive")
        # Fail fast on unknown backend specs (raises ValueError).
        backend_from(self.backend)


@dataclass
class ElementaryElaborationBlock:
    """One schedulable unit of DISAR work."""

    eeb_id: str
    eeb_type: EEBType
    contracts: list[PolicyContract]
    fund: SegregatedFund
    spec: RiskDriverSpec
    settings: SimulationSettings = field(default_factory=SimulationSettings)

    def __post_init__(self) -> None:
        if not self.contracts:
            raise ValueError(f"EEB {self.eeb_id!r} has no contracts")

    @property
    def characteristic_parameters(self) -> CharacteristicParameters:
        """The four ML features of this block."""
        return CharacteristicParameters(
            n_contracts=len(self.contracts),
            max_horizon=max(contract.term for contract in self.contracts),
            n_fund_assets=self.fund.mix.n_positions,
            n_risk_factors=self.spec.n_financial_drivers,
        )

    def complexity(self) -> float:
        """A-priori complexity estimate in abstract work units.

        DiMaS "estimates the complexity of the elaborations" to build the
        schedule.  Delegates to :func:`estimate_complexity`, which is the
        single source of truth shared with the benchmark harness.
        """
        return estimate_complexity(
            self.characteristic_parameters, self.settings, self.eeb_type
        )

    def describe(self) -> str:
        """One-line summary used by DiInt and the logs."""
        params = self.characteristic_parameters
        return (
            f"EEB {self.eeb_id} [type {self.eeb_type.value}] "
            f"contracts={params.n_contracts} horizon={params.max_horizon}y "
            f"assets={params.n_fund_assets} risk_factors={params.n_risk_factors} "
            f"complexity={self.complexity():,.0f}"
        )
