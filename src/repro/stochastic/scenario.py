"""Joint scenario generation under the real-world and risk-neutral measures.

This module ties the individual risk drivers together.  A
:class:`RiskDriverSpec` declares which models drive a valuation (one
short-rate model, one or more equity indices, optionally currency and
credit) plus their correlation; a :class:`ScenarioGenerator` simulates all
of them jointly on a regular grid, returning a :class:`ScenarioSet`.

The nested Monte Carlo procedure of the paper uses this twice:

1. *outer* simulations from ``t = 0`` to ``t = 1`` under ``P``;
2. for each outer path, *inner* simulations from ``t = 1`` to ``t = T``
   under ``Q``, started from the outer path's terminal state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stochastic.correlation import CorrelationMatrix
from repro.stochastic.credit import CreditModel
from repro.stochastic.currency import CurrencyModel
from repro.stochastic.equity import EquityModel
from repro.stochastic.lapse import LapseModel
from repro.stochastic.mortality import GompertzMakeham, MortalityModel
from repro.stochastic.short_rate import ShortRateModel, VasicekModel

__all__ = ["RiskDriverSpec", "MarketScenario", "ScenarioSet", "ScenarioGenerator"]


@dataclass
class MarketScenario:
    """The state of every financial driver at a single point in time.

    Used to hand the terminal state of an outer path to the inner
    generator.
    """

    short_rate: float
    equity: np.ndarray
    fx: float | None = None
    credit_intensity: float | None = None

    def as_features(self) -> np.ndarray:
        """Flatten the state into a regression feature vector (for LSMC)."""
        parts = [np.atleast_1d(self.short_rate), np.atleast_1d(self.equity)]
        if self.fx is not None:
            parts.append(np.atleast_1d(self.fx))
        if self.credit_intensity is not None:
            parts.append(np.atleast_1d(self.credit_intensity))
        return np.concatenate(parts)


class RiskDriverSpec:
    """Declarative description of the drivers behind a valuation.

    Parameters
    ----------
    short_rate:
        The short-rate model (defaults to a Vasicek model).
    equities:
        One :class:`EquityModel` per risky fund asset class.
    currency:
        Optional FX driver (``None`` disables currency risk).
    credit:
        Optional credit driver (``None`` disables credit risk).
    correlation:
        Correlation across the *financial* shocks, ordered as
        ``[rate, equity_0, ..., equity_k, fx?, credit?]``.  ``None`` means
        independent drivers.
    mortality, lapse:
        Actuarial models; independent of the financial block by the
        paper's assumption.
    """

    def __init__(
        self,
        short_rate: ShortRateModel | None = None,
        equities: list[EquityModel] | None = None,
        currency: CurrencyModel | None = None,
        credit: CreditModel | None = None,
        correlation: CorrelationMatrix | None = None,
        mortality: MortalityModel | None = None,
        lapse: LapseModel | None = None,
    ) -> None:
        self.short_rate = short_rate if short_rate is not None else VasicekModel()
        self.equities = list(equities) if equities is not None else [EquityModel()]
        if not self.equities:
            raise ValueError("at least one equity driver is required")
        self.currency = currency
        self.credit = credit
        self.mortality = mortality if mortality is not None else GompertzMakeham()
        self.lapse = lapse if lapse is not None else LapseModel()

        names = ["rate"] + [f"equity_{i}" for i in range(len(self.equities))]
        if self.currency is not None:
            names.append("fx")
        if self.credit is not None:
            names.append("credit")
        if correlation is None:
            correlation = CorrelationMatrix.identity(names)
        if correlation.size != len(names):
            raise ValueError(
                f"correlation has {correlation.size} drivers, spec needs "
                f"{len(names)} ({names})"
            )
        self.correlation = correlation
        self._names = names

    @property
    def n_financial_drivers(self) -> int:
        """Number of correlated financial shocks per step."""
        return len(self._names)

    @property
    def driver_names(self) -> list[str]:
        return list(self._names)

    @classmethod
    def standard(
        cls,
        n_equities: int = 2,
        with_currency: bool = True,
        with_credit: bool = True,
        rho: float = 0.25,
        seed_params: int = 0,
    ) -> "RiskDriverSpec":
        """A ready-made spec with ``n_equities`` indices and mild correlation.

        Equity volatilities are staggered deterministically from
        ``seed_params`` so that multi-asset funds have heterogeneous
        behaviour without requiring a random source.
        """
        if n_equities < 1:
            raise ValueError(f"n_equities must be >= 1, got {n_equities}")
        equities = [
            EquityModel(
                spot=100.0,
                volatility=0.14 + 0.03 * ((i + seed_params) % 4),
                risk_premium=0.03 + 0.005 * (i % 3),
            )
            for i in range(n_equities)
        ]
        currency = CurrencyModel() if with_currency else None
        credit = CreditModel() if with_credit else None
        names = ["rate"] + [f"equity_{i}" for i in range(n_equities)]
        if with_currency:
            names.append("fx")
        if with_credit:
            names.append("credit")
        correlation = CorrelationMatrix.exchangeable(names, rho)
        return cls(
            short_rate=VasicekModel(),
            equities=equities,
            currency=currency,
            credit=credit,
            correlation=correlation,
        )


@dataclass
class ScenarioSet:
    """Simulated joint paths for every financial driver.

    All path arrays have shape ``(n_paths, n_steps + 1)`` and share the
    same time grid; column 0 is the initial state.
    """

    measure: str
    times: np.ndarray
    short_rate: np.ndarray
    equity: list[np.ndarray]
    fx: np.ndarray | None = None
    credit_intensity: np.ndarray | None = None
    spec: RiskDriverSpec | None = field(default=None, repr=False)

    @property
    def n_paths(self) -> int:
        return self.short_rate.shape[0]

    @property
    def n_steps(self) -> int:
        return self.short_rate.shape[1] - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def discount_factors(self) -> np.ndarray:
        """Pathwise money-market discount factors ``exp(-∫ r ds)``.

        Shape ``(n_paths, n_steps + 1)``; column ``k`` discounts a cash
        flow at ``times[k]`` back to ``times[0]`` along each path, using
        the left-point rule on the grid.
        """
        increments = self.short_rate[:, :-1] * self.dt
        integral = np.concatenate(
            [np.zeros((self.n_paths, 1)), np.cumsum(increments, axis=1)], axis=1
        )
        return np.exp(-integral)

    def state_at(self, path: int, step: int) -> MarketScenario:
        """The full market state of ``path`` at grid index ``step``."""
        return MarketScenario(
            short_rate=float(self.short_rate[path, step]),
            equity=np.array([eq[path, step] for eq in self.equity]),
            fx=None if self.fx is None else float(self.fx[path, step]),
            credit_intensity=(
                None
                if self.credit_intensity is None
                else float(self.credit_intensity[path, step])
            ),
        )

    def features_at(self, step: int) -> np.ndarray:
        """Feature matrix ``(n_paths, k)`` of every path at grid ``step``.

        Columns follow :meth:`MarketScenario.as_features` order:
        ``[rate, equity_0, ..., equity_k, fx?, credit?]``.
        """
        columns = [self.short_rate[:, step]]
        columns.extend(eq[:, step] for eq in self.equity)
        if self.fx is not None:
            columns.append(self.fx[:, step])
        if self.credit_intensity is not None:
            columns.append(self.credit_intensity[:, step])
        return np.column_stack(columns)

    def terminal_features(self) -> np.ndarray:
        """Array-backed terminal states, shape ``(n_paths, k)``.

        This is the batch accessor the hot paths use (nested inner
        stage, LSMC regression features); :meth:`terminal_states` remains
        as a per-path object view for compatibility.
        """
        return self.features_at(self.n_steps)

    def terminal_states(self) -> list[MarketScenario]:
        """Market state of every path at the final grid point.

        Thin compatibility wrapper over :meth:`terminal_features`; prefer
        the array accessor in performance-sensitive code.
        """
        return [self.state_at(i, self.n_steps) for i in range(self.n_paths)]


class ScenarioGenerator:
    """Simulates every driver of a :class:`RiskDriverSpec` jointly."""

    def __init__(self, spec: RiskDriverSpec) -> None:
        self.spec = spec

    def generate(
        self,
        n_paths: int,
        horizon: float,
        rng: np.random.Generator | None,
        steps_per_year: int = 1,
        measure: str = "Q",
        start: MarketScenario | None = None,
        t0: float = 0.0,
        antithetic: bool = False,
        start_features: np.ndarray | None = None,
        shocks: np.ndarray | None = None,
    ) -> ScenarioSet:
        """Simulate ``n_paths`` joint paths over ``horizon`` years.

        ``start`` overrides the initial state (used for inner simulations
        that continue an outer path); ``t0`` shifts the time grid labels.

        With ``antithetic=True`` (``n_paths`` must be even) the second
        half of the paths uses the negated shocks of the first half — a
        classic variance-reduction device for the near-monotone payoffs
        of guaranteed business.  The Gaussian copula commutes with
        negation, so the correlation structure is preserved exactly.

        Batched execution hooks (used by the batched and process backends):

        - ``start_features`` — a ``(n_paths, k)`` matrix of *per-path*
          initial states in :meth:`ScenarioSet.terminal_features` column
          order, so many inner simulations continuing different outer
          paths can share one call;
        - ``shocks`` — pre-drawn correlated shocks of shape
          ``(n_steps, n_paths, n_drivers)`` that replace the internal
          sampling (``rng`` may then be ``None``).  The caller is
          responsible for drawing them in the same per-scenario order the
          serial path would, which is what keeps backends bit-identical.
        """
        if measure not in ("P", "Q"):
            raise ValueError(f"measure must be 'P' or 'Q', got {measure!r}")
        if n_paths <= 0:
            raise ValueError(f"n_paths must be positive, got {n_paths}")
        if antithetic and n_paths % 2 != 0:
            raise ValueError(
                f"antithetic sampling needs an even n_paths, got {n_paths}"
            )
        if start is not None and start_features is not None:
            raise ValueError("pass either start or start_features, not both")
        if antithetic and shocks is not None:
            raise ValueError(
                "pre-drawn shocks must already encode any antithetic "
                "mirroring; antithetic=True is not allowed with shocks"
            )
        if rng is None and shocks is None:
            raise ValueError("rng may only be None when shocks are pre-drawn")
        spec = self.spec
        n_steps = max(1, int(round(horizon * steps_per_year)))
        dt = horizon / n_steps
        times = t0 + dt * np.arange(n_steps + 1)

        if shocks is not None:
            shocks = np.asarray(shocks, dtype=float)
            expected = (n_steps, n_paths, spec.n_financial_drivers)
            if shocks.shape != expected:
                raise ValueError(
                    f"pre-drawn shocks must have shape {expected}, got "
                    f"{shocks.shape}"
                )
        if start_features is not None:
            start_features = np.asarray(start_features, dtype=float)
            expected_cols = spec.n_financial_drivers
            if start_features.shape != (n_paths, expected_cols):
                raise ValueError(
                    f"start_features must have shape ({n_paths}, "
                    f"{expected_cols}), got {start_features.shape}"
                )

        rate = np.empty((n_paths, n_steps + 1))
        equity = [np.empty((n_paths, n_steps + 1)) for _ in spec.equities]
        fx = np.empty((n_paths, n_steps + 1)) if spec.currency is not None else None
        credit = (
            np.empty((n_paths, n_steps + 1)) if spec.credit is not None else None
        )

        if start_features is not None:
            col = 0
            rate[:, 0] = start_features[:, col]
            col += 1
            for i in range(len(spec.equities)):
                equity[i][:, 0] = start_features[:, col]
                col += 1
            if fx is not None:
                fx[:, 0] = start_features[:, col]
                col += 1
            if credit is not None:
                credit[:, 0] = start_features[:, col]
                col += 1
        else:
            rate[:, 0] = spec.short_rate.r0 if start is None else start.short_rate
            for i, model in enumerate(spec.equities):
                equity[i][:, 0] = model.spot if start is None else start.equity[i]
            if fx is not None:
                fx[:, 0] = (
                    spec.currency.spot
                    if start is None or start.fx is None
                    else start.fx
                )
            if credit is not None:
                credit[:, 0] = (
                    spec.credit.intensity0
                    if start is None or start.credit_intensity is None
                    else start.credit_intensity
                )

        for k in range(n_steps):
            if shocks is not None:
                step_shocks = shocks[k]
            elif antithetic:
                half = spec.correlation.sample(n_paths // 2, rng)
                step_shocks = np.vstack([half, -half])
            else:
                step_shocks = spec.correlation.sample(n_paths, rng)
            col = 0
            rate[:, k + 1] = spec.short_rate.step(
                rate[:, k], dt, step_shocks[:, col], measure=measure,
                t=float(times[k]),
            )
            col += 1
            for i, model in enumerate(spec.equities):
                equity[i][:, k + 1] = model.step(
                    equity[i][:, k], rate[:, k], dt, step_shocks[:, col],
                    measure=measure
                )
                col += 1
            if fx is not None:
                fx[:, k + 1] = spec.currency.step(
                    fx[:, k], rate[:, k], dt, step_shocks[:, col], measure=measure
                )
                col += 1
            if credit is not None:
                credit[:, k + 1] = spec.credit.step(
                    credit[:, k], dt, step_shocks[:, col], measure=measure
                )
                col += 1

        return ScenarioSet(
            measure=measure,
            times=times,
            short_rate=rate,
            equity=equity,
            fx=fx,
            credit_intensity=credit,
            spec=spec,
        )
