"""Shared fixtures for the proxy-tier tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.financial.contracts import ContractKind, PolicyContract
from repro.financial.segregated_fund import SegregatedFund
from repro.montecarlo.nested import NestedMonteCarloEngine
from repro.stochastic.scenario import RiskDriverSpec


@pytest.fixture(scope="package")
def proxy_portfolio() -> tuple[RiskDriverSpec, SegregatedFund, list[PolicyContract]]:
    contracts = [
        PolicyContract(
            ContractKind.PURE_ENDOWMENT, age=45, gender="M", term=10,
            insured_sum=100_000.0, multiplicity=20,
        ),
        PolicyContract(
            ContractKind.ENDOWMENT, age=50, gender="F", term=8,
            insured_sum=75_000.0, multiplicity=10,
        ),
    ]
    return RiskDriverSpec.standard(n_equities=2), SegregatedFund(), contracts


@pytest.fixture(scope="package")
def make_engine(proxy_portfolio):
    spec, fund, contracts = proxy_portfolio

    def factory(backend: str | None = None) -> NestedMonteCarloEngine:
        return NestedMonteCarloEngine(spec, fund, contracts, backend=backend)

    return factory


class ConstantValuator:
    """A deliberately underfit proxy: predicts the training mean everywhere.

    Implements the :class:`~repro.proxy.base.ProxyValuator` protocol but
    carries no state-dependence at all, so the validation gate must
    trip on any portfolio whose conditional values actually vary.
    """

    name = "constant"

    def __init__(self) -> None:
        self._mean: float | None = None

    def fit(self, features: np.ndarray, values: np.ndarray) -> "ConstantValuator":
        del features
        self._mean = float(np.mean(values))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._mean is None:
            raise RuntimeError("not fitted")
        return np.full(np.asarray(features).shape[0], self._mean)
