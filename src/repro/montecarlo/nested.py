"""Nested Monte Carlo valuation (outer ``P`` x inner ``Q``).

The engine values a portfolio of profit-sharing contracts backed by a
segregated fund:

- :meth:`NestedMonteCarloEngine.value_at_zero` — plain risk-neutral value
  ``V_0`` of the liabilities (single-stage inner simulation from ``t=0``);
- :meth:`NestedMonteCarloEngine.run` — the full two-stage procedure,
  returning the conditional values ``V_1`` on every outer path together
  with the evolved asset values, from which the SCR is derived.

Actuarial level uncertainty enters the outer stage by shocking the
mortality (longevity improvement) and lapse (level shock) models per
outer scenario, keeping actuarial and financial risks independent as the
paper prescribes.

Execution is delegated to a :mod:`repro.exec` backend.  The workload is
partitioned into fixed chunks of outer scenarios (or inner paths, for
``value_at_zero``); every chunk draws from random streams keyed by its
position in the workload, never by the worker that happens to run it, so
the serial loop, the batched cross-chunk kernel and the process pool
produce bit-identical results at a fixed ``chunk_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.exec.backends import (
    DEFAULT_MAX_FUSED,
    BatchedVectorBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    backend_from,
    chunk_seed_sequences,
    partition,
)
from repro.financial.contracts import PolicyContract
from repro.financial.segregated_fund import SegregatedFund
from repro.financial.valuation import (
    DecrementTable,
    DecrementTableCache,
    LiabilityValuator,
    batched_decrement_table,
)
from repro.stochastic.lapse import LapseModel
from repro.stochastic.mortality import GompertzMakeham, MortalityModel
from repro.stochastic.rng import generator_from, spawn_generators
from repro.stochastic.scenario import MarketScenario, RiskDriverSpec, ScenarioGenerator

if TYPE_CHECKING:  # avoid the repro.runtime -> repro.disar import cycle
    from repro.cluster.comm import Communicator
    from repro.runtime.checkpoint import ChunkStore
    from repro.stochastic.scenario import ScenarioSet

__all__ = [
    "NestedMonteCarloEngine",
    "NestedResult",
    "OuterStage",
    "scenario_from_features",
]


@dataclass
class OuterStage:
    """Deterministic outer-stage state of a nested simulation.

    Everything the inner stage (and any inner-loop *replacement* — see
    :mod:`repro.proxy`) needs about the outer scenarios: the terminal
    feature matrix, per-scenario shocked actuarial models and the
    scenario-index-keyed inner seed streams.  Built by
    :meth:`NestedMonteCarloEngine.outer_stage` from the same generator
    streams :meth:`NestedMonteCarloEngine.run` uses, so two callers with
    the same seed see bit-identical outer state regardless of what they
    do with it afterwards.
    """

    scenarios: "ScenarioSet"
    features: np.ndarray
    outer_discount: np.ndarray
    market_returns: np.ndarray
    credited_y1: np.ndarray
    mortalities: list[MortalityModel]
    lapses: list[LapseModel]
    seeds: list[np.random.SeedSequence]

    @property
    def n_outer(self) -> int:
        return int(self.features.shape[0])


@dataclass
class NestedResult:
    """Output of a full two-stage nested simulation.

    Attributes
    ----------
    base_value:
        ``V_0``, the time-0 risk-neutral value of the liabilities.
    outer_values:
        ``V_1`` per outer path — the conditional risk-neutral value of
        the liabilities at ``t=1`` (length ``n_outer``).
    outer_assets:
        Market value of the backing assets at ``t=1`` per outer path.
    outer_discount:
        One-year pathwise discount factor of each outer path.
    outer_states:
        Terminal market state of each outer path (compatibility object
        view; hot paths use :attr:`outer_features`).
    year_one_flows:
        Liability cash flows paid during year 1 on each outer path.
    outer_features:
        Array-backed terminal states, shape ``(n_outer, k)`` in
        :meth:`~repro.stochastic.scenario.ScenarioSet.terminal_features`
        column order — the LSMC regression consumes this directly.
    """

    base_value: float
    base_assets: float
    outer_values: np.ndarray
    outer_assets: np.ndarray
    outer_discount: np.ndarray
    outer_states: list[MarketScenario]
    year_one_flows: np.ndarray
    n_inner: int
    inner_std_error: np.ndarray = field(default=None)
    outer_features: np.ndarray | None = None

    @property
    def n_outer(self) -> int:
        return int(self.outer_values.shape[0])

    def own_funds_change(self) -> np.ndarray:
        """Discounted change in basic own funds per outer scenario.

        ``BOF_0 = A_0 - V_0``; at ``t=1`` the own funds are
        ``A_1 - V_1`` plus any liability flows already paid out of the
        assets during year 1 (they reduce both sides equally, so they
        cancel; we track them for reporting).  The per-scenario *loss* is
        ``BOF_0 - df_1 * BOF_1`` — positive values are losses.
        """
        bof0 = self.base_assets - self.base_value
        bof1 = self.outer_assets - self.outer_values
        return bof0 - self.outer_discount * bof1


def scenario_from_features(spec: RiskDriverSpec, row: np.ndarray) -> MarketScenario:
    """Rebuild a :class:`MarketScenario` from one feature-matrix row."""
    n_equities = len(spec.equities)
    col = 1 + n_equities
    fx = None
    if spec.currency is not None:
        fx = float(row[col])
        col += 1
    credit = None
    if spec.credit is not None:
        credit = float(row[col])
    return MarketScenario(
        short_rate=float(row[0]),
        equity=np.asarray(row[1 : 1 + n_equities], dtype=float),
        fx=fx,
        credit_intensity=credit,
    )


# -- chunk task functions -----------------------------------------------------
#
# Module-level so the process-pool backends can pickle them.  Each takes
# the engine as a *context* argument plus a small per-chunk payload tuple
# (see :meth:`~repro.exec.backends.ExecutionBackend.map_tasks`): pool
# backends ship the engine once per worker instead of once per chunk.


def _value_chunk_task(
    engine: "NestedMonteCarloEngine",
    payload: tuple[int, np.random.SeedSequence, float, bool],
) -> np.ndarray:
    """Pathwise time-0 values for one chunk of inner paths."""
    n_paths, seed, horizon, antithetic = payload
    rng = np.random.default_rng(seed)
    scenario = engine._generator.generate(
        n_paths, horizon, rng, steps_per_year=1, measure="Q", antithetic=antithetic
    )
    credited = engine.fund.credited_returns(scenario)
    discount = scenario.discount_factors()
    return engine._portfolio_value(
        credited, discount, engine.mortality, engine.lapse
    )


def _conditional_chunk_serial(
    engine: "NestedMonteCarloEngine",
    payload: tuple[
        np.ndarray,
        Sequence[np.random.SeedSequence],
        Sequence[MortalityModel],
        Sequence[LapseModel],
        int,
    ],
) -> tuple[np.ndarray, np.ndarray]:
    """Reference chunk kernel: one inner simulation per outer scenario."""
    features, seeds, mortalities, lapses, n_inner = payload
    n_scenarios = features.shape[0]
    values = np.empty(n_scenarios)
    std_errors = np.empty(n_scenarios)
    for j in range(n_scenarios):
        state = scenario_from_features(engine.spec, features[j])
        values[j], std_errors[j] = engine.conditional_value(
            state,
            n_inner,
            np.random.default_rng(seeds[j]),
            mortality=mortalities[j],
            lapse=lapses[j],
        )
    return values, std_errors


def _conditional_chunk_vector(
    engine: "NestedMonteCarloEngine",
    payload: tuple[
        np.ndarray,
        Sequence[np.random.SeedSequence],
        Sequence[MortalityModel],
        Sequence[LapseModel],
        int,
    ],
) -> tuple[np.ndarray, np.ndarray]:
    """Batched chunk kernel: all the chunk's inner paths in one call."""
    features, seeds, mortalities, lapses, n_inner = payload
    return engine._conditional_values_batch(
        features, seeds, mortalities, lapses, n_inner
    )


class NestedMonteCarloEngine:
    """Two-stage nested Monte Carlo for a segregated-fund portfolio."""

    def __init__(
        self,
        spec: RiskDriverSpec,
        fund: SegregatedFund,
        contracts: list[PolicyContract],
        mortality: MortalityModel | None = None,
        lapse: LapseModel | None = None,
        longevity_shock_scale: float = 0.05,
        lapse_shock_scale: float = 0.15,
        dynamic_lapses: bool = False,
        backend: ExecutionBackend | str | None = None,
    ) -> None:
        if not contracts:
            raise ValueError("portfolio must contain at least one contract")
        self.spec = spec
        self.fund = fund
        self.contracts = list(contracts)
        self.mortality = mortality if mortality is not None else spec.mortality
        self.lapse = lapse if lapse is not None else spec.lapse
        self.longevity_shock_scale = float(longevity_shock_scale)
        self.lapse_shock_scale = float(lapse_shock_scale)
        #: Use path-dependent dynamic lapse behaviour in the valuations
        #: (policyholders react to the credited return of their path).
        self.dynamic_lapses = bool(dynamic_lapses)
        #: Execution backend (``None`` selects the batched default);
        #: see :mod:`repro.exec`.
        self.backend = backend_from(backend)
        self._generator = ScenarioGenerator(spec)
        #: Decrement tables shared across scenarios and stages — outer
        #: scenarios with identical actuarial shocks reuse one table.
        self._table_cache = DecrementTableCache()

    def __getstate__(self) -> dict:
        # Worker processes rebuild decrement tables on demand; shipping a
        # warm cache inside every chunk payload would dominate the IPC
        # cost of ProcessPoolBackend.
        state = self.__dict__.copy()
        state["_table_cache"] = DecrementTableCache(
            max_entries=self._table_cache.max_entries
        )
        return state

    @property
    def horizon(self) -> int:
        """Projection horizon: the longest remaining contract term."""
        return max(contract.term for contract in self.contracts)

    def _aged_contract(
        self, contract: PolicyContract, age_shift: int
    ) -> PolicyContract | None:
        """The contract as seen ``age_shift`` years later (or ``None``
        when it has already matured)."""
        term = contract.term - age_shift
        if term <= 0:
            return None
        if age_shift == 0:
            return contract
        return PolicyContract(
            kind=contract.kind,
            age=contract.age + age_shift,
            gender=contract.gender,
            term=term,
            insured_sum=contract.insured_sum,
            participation=contract.participation,
            technical_rate=contract.technical_rate,
            multiplicity=contract.multiplicity,
            surrender_charge=contract.surrender_charge,
        )

    def _portfolio_value(
        self,
        credited: np.ndarray,
        discount: np.ndarray,
        mortality: MortalityModel,
        lapse: LapseModel,
        age_shift: int = 0,
    ) -> np.ndarray:
        """Pathwise PV of every contract, summed over the portfolio."""
        valuator = LiabilityValuator(mortality, lapse, cache=self._table_cache)
        total = np.zeros(credited.shape[0])
        for contract in self.contracts:
            aged = self._aged_contract(contract, age_shift)
            if aged is None:
                continue
            total += valuator.value(
                aged, credited, discount, dynamic_lapses=self.dynamic_lapses
            )
        return total

    def _portfolio_value_batch(
        self,
        credited: np.ndarray,
        discount: np.ndarray,
        mortalities: Sequence[MortalityModel],
        lapses: Sequence[LapseModel],
        n_inner: int,
        age_shift: int = 0,
    ) -> np.ndarray:
        """Pathwise PV of many stacked scenarios, one call per contract.

        Rows ``[j * n_inner, (j + 1) * n_inner)`` of ``credited`` /
        ``discount`` belong to scenario ``j``, which carries its own
        shocked actuarial models.  The per-scenario decrement vectors are
        stacked into per-path matrices so that the whole chunk is valued
        with one :meth:`~repro.financial.valuation.LiabilityValuator.value`
        call per contract — the arithmetic per row is exactly the serial
        per-scenario computation, so results are bit-identical.
        """
        n_rows = credited.shape[0]
        if self.dynamic_lapses:
            # Dynamic lapses couple each path's lapse rate to its own
            # scenario's shocked model; value scenario blocks on views
            # (the scenario generation is still batched).
            total = np.empty(n_rows)
            for j, (mortality, lapse) in enumerate(zip(mortalities, lapses)):
                rows = slice(j * n_inner, (j + 1) * n_inner)
                total[rows] = self._portfolio_value(
                    credited[rows], discount[rows], mortality, lapse, age_shift
                )
            return total
        mortalities = list(mortalities)
        lapses = list(lapses)
        shared = LiabilityValuator(self.mortality, self.lapse)
        total = np.zeros(n_rows)
        for contract in self.contracts:
            aged = self._aged_contract(contract, age_shift)
            if aged is None:
                continue
            tables = batched_decrement_table(
                aged, mortalities, lapses, cache=self._table_cache
            )
            batched = DecrementTable(
                in_force=np.repeat(tables.in_force, n_inner, axis=0),
                death=np.repeat(tables.death, n_inner, axis=0),
                lapse=np.repeat(tables.lapse, n_inner, axis=0),
            )
            total += shared.value(aged, credited, discount, decrements=batched)
        return total

    def value_at_zero(
        self,
        n_inner: int,
        rng: np.random.Generator | int | None = 0,
        horizon: int | None = None,
        antithetic: bool = False,
    ) -> float:
        """Plain risk-neutral value ``V_0`` with ``n_inner`` paths.

        ``antithetic=True`` mirrors the second half of each chunk's inner
        shocks, reducing the Monte Carlo variance of the value estimate
        for the near-monotone payoffs of guaranteed business.

        The inner paths are cut into deterministic chunks executed by the
        engine's backend; chunk ``j`` always consumes the ``j``-th child
        stream of ``rng``, so the value depends only on the seed and the
        chunk size, not on the backend or worker count.
        """
        rng = generator_from(rng)
        horizon = self.horizon if horizon is None else horizon
        # Antithetic pairs must never straddle a chunk boundary.
        chunks = partition(
            n_inner, self.backend.chunk_size, granularity=2 if antithetic else 1
        )
        seeds = chunk_seed_sequences(rng, len(chunks))
        payloads = [
            (chunk.size, seeds[chunk.index], float(horizon), antithetic)
            for chunk in chunks
        ]
        values = self.backend.map_tasks(_value_chunk_task, self, payloads)
        return float(np.concatenate(values).mean())

    def conditional_value(
        self,
        state: MarketScenario,
        n_inner: int,
        rng: np.random.Generator,
        mortality: MortalityModel | None = None,
        lapse: LapseModel | None = None,
    ) -> tuple[float, float]:
        """Risk-neutral value ``V_1`` given an outer terminal ``state``.

        Returns ``(value, standard_error)``.
        """
        mortality = mortality if mortality is not None else self.mortality
        lapse = lapse if lapse is not None else self.lapse
        horizon = max(self.horizon - 1, 1)
        scenario = self._generator.generate(
            n_inner,
            float(horizon),
            rng,
            steps_per_year=1,
            measure="Q",
            start=state,
            t0=1.0,
        )
        credited = self.fund.credited_returns(scenario)
        discount = scenario.discount_factors()
        values = self._portfolio_value(
            credited, discount, mortality, lapse, age_shift=1
        )
        std_error = float(values.std(ddof=1) / np.sqrt(n_inner)) if n_inner > 1 else 0.0
        return float(values.mean()), std_error

    def _conditional_values_batch(
        self,
        features: np.ndarray,
        seeds: Sequence[np.random.SeedSequence],
        mortalities: Sequence[MortalityModel],
        lapses: Sequence[LapseModel],
        n_inner: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`conditional_value` over a chunk of scenarios.

        All the chunk's inner simulations run as a single
        :meth:`~repro.stochastic.scenario.ScenarioGenerator.generate`
        call.  Bit-identity with the serial kernel rests on two points:

        - the correlated shocks are pre-drawn *per scenario, per step* in
          exactly the order (and with exactly the call shape) the serial
          per-scenario loop uses;
        - every downstream operation (driver steps, credited returns,
          discounting, valuation, per-scenario mean/std) is elementwise
          or row-wise, so batching more rows does not change any row.
        """
        spec = self.spec
        n_scenarios = features.shape[0]
        # Matches conditional_value: annual grid over the residual term.
        horizon = max(self.horizon - 1, 1)
        n_steps = horizon
        shocks = np.empty(
            (n_steps, n_scenarios * n_inner, spec.n_financial_drivers)
        )
        for j in range(n_scenarios):
            inner_rng = np.random.default_rng(seeds[j])
            rows = slice(j * n_inner, (j + 1) * n_inner)
            for k in range(n_steps):
                shocks[k, rows, :] = spec.correlation.sample(n_inner, inner_rng)
        start_features = np.repeat(features, n_inner, axis=0)
        scenario = self._generator.generate(
            n_scenarios * n_inner,
            float(horizon),
            None,
            steps_per_year=1,
            measure="Q",
            t0=1.0,
            start_features=start_features,
            shocks=shocks,
        )
        credited = self.fund.credited_returns(scenario)
        discount = scenario.discount_factors()
        values = self._portfolio_value_batch(
            credited, discount, mortalities, lapses, n_inner, age_shift=1
        )
        blocks = values.reshape(n_scenarios, n_inner)
        means = blocks.mean(axis=1)
        if n_inner > 1:
            std_errors = blocks.std(axis=1, ddof=1) / np.sqrt(n_inner)
        else:
            std_errors = np.zeros(n_scenarios)
        return means, std_errors

    def _actuarial_shocks(
        self, n_outer: int, rng: np.random.Generator
    ) -> tuple[list[MortalityModel], list[LapseModel]]:
        """Per-outer-scenario shocked actuarial models (independent of
        the financial shocks)."""
        longevity = np.clip(
            rng.normal(0.0, self.longevity_shock_scale, n_outer), -0.5, 0.5
        )
        lapse_mult = np.exp(rng.normal(0.0, self.lapse_shock_scale, n_outer))
        mortalities: list[MortalityModel] = []
        lapses: list[LapseModel] = []
        base_mortality = self.mortality
        for k in range(n_outer):
            if isinstance(base_mortality, GompertzMakeham):
                mortalities.append(base_mortality.shocked(float(longevity[k])))
            else:
                mortalities.append(base_mortality)
            lapses.append(self.lapse.shocked(float(lapse_mult[k])))
        return mortalities, lapses

    def outer_stage(
        self,
        n_outer: int,
        outer_rng: np.random.Generator,
        shock_rng: np.random.Generator,
        inner_master: np.random.Generator,
        steps_per_year: int = 4,
    ) -> OuterStage:
        """Generate the deterministic outer-stage state.

        The three generators are consumed exactly as :meth:`run` consumes
        them (``outer_rng`` for the outer paths, ``shock_rng`` for the
        actuarial shocks, ``inner_master`` for the scenario-index-keyed
        inner seed streams), so any caller spawning the same streams from
        the same seed — the exact tier and the proxy tier — observes
        bit-identical outer state.
        """
        outer = self._generator.generate(
            n_outer, 1.0, outer_rng, steps_per_year=steps_per_year, measure="P"
        )
        outer_discount = outer.discount_factors()[:, -1]
        # Year-1 asset growth: the fund's market return over the outer year
        # (the fund helpers subsample any grid that divides years evenly).
        market_returns = self.fund.market_returns(outer)[:, 0]
        features = outer.terminal_features()
        # Year-1 liability flows (paid at end of year 1): use the credited
        # return realised on the outer paths.
        credited_y1 = self.fund.credited_returns(outer)
        mortalities, lapses = self._actuarial_shocks(n_outer, shock_rng)
        # One child stream per outer scenario, keyed by scenario index.
        seeds = chunk_seed_sequences(inner_master, n_outer)
        return OuterStage(
            scenarios=outer,
            features=features,
            outer_discount=outer_discount,
            market_returns=market_returns,
            credited_y1=credited_y1,
            mortalities=mortalities,
            lapses=lapses,
            seeds=seeds,
        )

    def outer_asset_values(
        self, stage: OuterStage, base_assets: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(outer_assets, year_one_flows)`` at ``t=1`` for a stage."""
        year_one_flows = self._year_one_flows(
            stage.credited_y1, stage.mortalities, stage.lapses
        )
        outer_assets = base_assets * (1.0 + stage.market_returns) - year_one_flows
        return outer_assets, year_one_flows

    def conditional_values(
        self,
        features: np.ndarray,
        seeds: Sequence[np.random.SeedSequence],
        mortalities: Sequence[MortalityModel],
        lapses: Sequence[LapseModel],
        n_inner: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Conditional values for an arbitrary subset of outer scenarios.

        The subset (typically gathered from an :class:`OuterStage` by
        index — the proxy tier's exact training/validation budget) is
        chunked and dispatched through the engine's backend exactly like
        the full workload in :meth:`run`.  Because each scenario's inner
        stream is keyed by its own seed — not by its position in the
        workload — the values returned here are bitwise equal to the
        same scenarios' values inside a full :meth:`run`.

        Returns ``(values, std_errors)`` in subset order.
        """
        chunks = partition(len(seeds), self.backend.chunk_size)
        results = self._conditional_stage(
            np.asarray(features, dtype=float),
            list(seeds),
            list(mortalities),
            list(lapses),
            n_inner,
            chunks,
        )
        values = np.concatenate([v for v, _ in results])
        std_errors = np.concatenate([s for _, s in results])
        return values, std_errors

    def run(
        self,
        n_outer: int,
        n_inner: int,
        rng: np.random.Generator | int | None = 0,
        steps_per_year: int = 4,
        initial_assets: float | None = None,
        chunk_store: "ChunkStore | None" = None,
    ) -> NestedResult:
        """Full two-stage nested simulation.

        Parameters
        ----------
        n_outer, n_inner:
            Outer (``P``) and inner (``Q``) sample sizes, ``n_P``/``n_Q``
            in the paper.
        steps_per_year:
            Grid refinement for the one-year outer stage (the fine grid
            the paper mentions).
        initial_assets:
            Market value of the backing assets at ``t=0``; defaults to
            105% of ``V_0``.

        The inner stage is partitioned into chunks of outer scenarios and
        dispatched through the engine's backend.  Scenario ``k`` always
        consumes the ``k``-th child stream of the inner master generator
        — independent of the chunk layout and worker count — so all
        backends produce bit-identical results.

        ``chunk_store`` checkpoints completed conditional-stage chunks:
        cached chunks are served instead of recomputed (resume after a
        crash or rescue) and fresh ones are stored — bit-identity makes
        the cache safe across backends, rank counts and clusters.
        """
        if n_outer <= 0 or n_inner <= 0:
            raise ValueError("n_outer and n_inner must be positive")
        rng = generator_from(rng)
        outer_rng, inner_master, shock_rng, base_rng = spawn_generators(rng, 4)

        base_value = self.value_at_zero(n_inner, rng=base_rng)
        base_assets = 1.05 * base_value if initial_assets is None else initial_assets

        stage = self.outer_stage(
            n_outer, outer_rng, shock_rng, inner_master,
            steps_per_year=steps_per_year,
        )
        chunks = partition(n_outer, self.backend.chunk_size)
        results = self._conditional_stage(
            stage.features, stage.seeds, stage.mortalities, stage.lapses,
            n_inner, chunks, chunk_store=chunk_store,
        )
        outer_values = np.concatenate([values for values, _ in results])
        inner_std = np.concatenate([std for _, std in results])

        outer_assets, year_one_flows = self.outer_asset_values(
            stage, base_assets
        )
        return NestedResult(
            base_value=base_value,
            base_assets=base_assets,
            outer_values=outer_values,
            outer_assets=outer_assets,
            outer_discount=stage.outer_discount,
            outer_states=stage.scenarios.terminal_states(),
            year_one_flows=year_one_flows,
            n_inner=n_inner,
            inner_std_error=inner_std,
            outer_features=stage.features,
        )

    def _conditional_stage(
        self,
        features: np.ndarray,
        seeds: Sequence[np.random.SeedSequence],
        mortalities: Sequence[MortalityModel],
        lapses: Sequence[LapseModel],
        n_inner: int,
        chunks: Sequence,
        chunk_store: "ChunkStore | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Run the inner stage for ``chunks`` through the backend.

        Chunk payloads are sliced from the *full* workload arrays by each
        chunk's own ``[start, stop)`` range, so running a subset of the
        chunks (e.g. only the ones owned by one rank) produces exactly
        the per-chunk results of a full run.

        With a ``chunk_store``, chunks already checkpointed are served
        from the cache (never dispatched) and freshly computed ones are
        stored; the returned list is in input-chunk order either way.
        Because each chunk is a pure function of ``(seed, chunk index)``,
        mixing cached and computed chunks preserves bit-identity.

        On the batched backend the pending chunks are fused into groups
        of up to ``DEFAULT_MAX_FUSED`` scenarios and each group runs as a
        *single* batched kernel call; the fused result is split back
        along the chunk boundaries, so checkpointing, resume and rank
        routing keep their per-chunk granularity (and bit-identity —
        scenario streams are keyed by scenario index, and the batched
        kernel is row-wise).  The process pool runs the batched kernel
        once per chunk; the serial backend runs the reference
        per-scenario loop.
        """
        results: list[tuple[np.ndarray, np.ndarray] | None] = []
        pending: list[tuple[int, Any]] = []
        for position, chunk in enumerate(chunks):
            cached = (
                chunk_store.get(chunk.index)
                if chunk_store is not None
                else None
            )
            results.append(cached)
            if cached is None:
                pending.append((position, chunk))

        def record(done: Sequence[tuple[int, Any]], parts: Any) -> None:
            for (position, chunk), (values, std) in zip(done, parts):
                if chunk_store is not None:
                    chunk_store.put(chunk.index, values, std)
                results[position] = (values, std)

        if isinstance(self.backend, BatchedVectorBackend):
            for group in self._fusion_groups(pending):
                group_chunks = [chunk for _, chunk in group]
                values, std = self._conditional_values_batch(
                    np.concatenate(
                        [features[chunk.indices] for chunk in group_chunks]
                    ),
                    [s for chunk in group_chunks for s in seeds[chunk.indices]],
                    [m for chunk in group_chunks
                     for m in mortalities[chunk.indices]],
                    [l for chunk in group_chunks for l in lapses[chunk.indices]],
                    n_inner,
                )
                # Checkpoint each group as it completes, not after all.
                bounds = np.cumsum([chunk.size for chunk in group_chunks])[:-1]
                record(group, zip(np.split(values, bounds), np.split(std, bounds)))
        else:
            task = (
                _conditional_chunk_vector
                if isinstance(self.backend, ProcessPoolBackend)
                else _conditional_chunk_serial
            )
            payloads = [
                (
                    features[chunk.indices],
                    seeds[chunk.indices],
                    mortalities[chunk.indices],
                    lapses[chunk.indices],
                    n_inner,
                )
                for _, chunk in pending
            ]
            record(pending, self.backend.map_tasks(task, self, payloads))
        return [entry for entry in results if entry is not None]

    def _fusion_groups(
        self, pending: Sequence[tuple[int, Any]]
    ) -> list[list[tuple[int, Any]]]:
        """Greedy grouping of pending chunks for cross-chunk fusion.

        Groups are filled in chunk order up to ``DEFAULT_MAX_FUSED``
        scenarios (always at least one chunk per group, so oversized
        chunks still run).
        """
        groups: list[list[tuple[int, Any]]] = []
        current: list[tuple[int, Any]] = []
        current_size = 0
        for position, chunk in pending:
            if current and current_size + chunk.size > DEFAULT_MAX_FUSED:
                groups.append(current)
                current, current_size = [], 0
            current.append((position, chunk))
            current_size += chunk.size
        if current:
            groups.append(current)
        return groups

    def _year_one_flows(
        self,
        credited_y1: np.ndarray,
        mortalities: Sequence[MortalityModel],
        lapses: Sequence[LapseModel],
    ) -> np.ndarray:
        """Year-1 liability flows, vectorized over the outer scenarios:
        one batched decrement table per contract instead of an
        ``n_outer x n_contracts`` Python loop."""
        year_one_flows = np.zeros(credited_y1.shape[0])
        credited_first = credited_y1[:, 0]
        for contract in self.contracts:
            table = batched_decrement_table(
                contract, mortalities, lapses, cache=self._table_cache
            )
            # Expected year-1 flow: death + lapse + (maturity if term==1).
            sums = contract.insured_sum * (
                1.0
                + np.maximum(
                    contract.participation * credited_first
                    - contract.technical_rate,
                    0.0,
                )
                / (1.0 + contract.technical_rate)
            )
            flow = sums * table.death[:, 0]
            flow += sums * (1.0 - contract.surrender_charge) * table.lapse[:, 0]
            if contract.term == 1 and contract.pays_on_survival():
                flow += sums * table.in_force[:, 0]
            year_one_flows += flow * contract.multiplicity
        return year_one_flows

    def run_distributed(
        self,
        comm: "Communicator",
        n_outer: int,
        n_inner: int,
        rng: np.random.Generator | int | None = 0,
        steps_per_year: int = 4,
        initial_assets: float | None = None,
        chunk_store: "ChunkStore | None" = None,
    ) -> NestedResult | None:
        """SPMD variant of :meth:`run` across the ranks of ``comm``.

        Every rank derives the *identical* outer-stage state from the
        shared seed (outer scenarios, actuarial shocks and the
        per-scenario inner seed streams are all deterministic in ``rng``),
        then executes only the inner-stage chunks whose index maps to it
        (round-robin by ``chunk.index % comm.size``) through its own
        :mod:`repro.exec` backend.  Rank 0 computes ``V_0`` and
        broadcasts it, gathers the per-chunk results and reassembles them
        in chunk order — the same concatenation :meth:`run` performs — so
        the distributed result is **bitwise equal** to the sequential one
        at the same seed and chunk size, for any rank count.

        ``rng`` must be seed-like (an ``int`` or ``SeedSequence``), not a
        shared ``Generator``: each rank builds its own identical streams
        from it.  Call on a rank-local engine instance (engines hold a
        mutable decrement-table cache).  Returns the
        :class:`NestedResult` on rank 0 and ``None`` elsewhere.
        """
        if n_outer <= 0 or n_inner <= 0:
            raise ValueError("n_outer and n_inner must be positive")
        rng = generator_from(rng)
        outer_rng, inner_master, shock_rng, base_rng = spawn_generators(rng, 4)

        base_value = None
        if comm.rank == 0:
            base_value = self.value_at_zero(n_inner, rng=base_rng)
        base_value = comm.bcast(base_value, root=0)
        base_assets = 1.05 * base_value if initial_assets is None else initial_assets

        stage = self.outer_stage(
            n_outer, outer_rng, shock_rng, inner_master,
            steps_per_year=steps_per_year,
        )
        chunks = partition(n_outer, self.backend.chunk_size)
        mine = [
            chunk for chunk in chunks if chunk.index % comm.size == comm.rank
        ]
        results = self._conditional_stage(
            stage.features, stage.seeds, stage.mortalities, stage.lapses,
            n_inner, mine, chunk_store=chunk_store,
        )
        local = [
            (chunk.index, values, std)
            for chunk, (values, std) in zip(mine, results)
        ]
        gathered = comm.gather(local, root=0)
        if comm.rank != 0:
            return None

        by_index = sorted(
            (item for rank_items in gathered for item in rank_items),
            key=lambda item: item[0],
        )
        if len(by_index) != len(chunks):
            raise RuntimeError(
                f"distributed run lost chunks: expected {len(chunks)}, "
                f"gathered {len(by_index)}"
            )
        outer_values = np.concatenate([values for _, values, _ in by_index])
        inner_std = np.concatenate([std for _, _, std in by_index])

        outer_assets, year_one_flows = self.outer_asset_values(
            stage, base_assets
        )
        return NestedResult(
            base_value=base_value,
            base_assets=base_assets,
            outer_values=outer_values,
            outer_assets=outer_assets,
            outer_discount=stage.outer_discount,
            outer_states=stage.scenarios.terminal_states(),
            year_one_flows=year_one_flows,
            n_inner=n_inner,
            inner_std_error=inner_std,
            outer_features=stage.features,
        )
