"""Multilevel Monte Carlo SCR estimator.

Following the multilevel nested-simulation line of Alfonsi et al., the
SCR loss quantile is telescoped over inner-sample resolutions: a cheap
base estimate on the full outer set at ``base_inner`` inner paths, plus
level corrections on geometrically *shrinking* outer sets at
geometrically *growing* inner counts,

``Q_MLMC = Q_0(N_0, n_0) + sum_l [Q_l(N_l, n_l) - Q_l(N_l, n_{l-1})]``

with ``n_l = n_0 * 2**l`` and ``N_l = N_0 / 2**l``.  The coarse member
of each correction pair averages the *first half of the same inner
paths* as its fine partner — the strong coupling that makes the
corrections small — so a level's pair differs only in how many paths it
averages, never in which paths it draws.

Determinism rides the same contracts as everything else: each level
owns spawned generator streams keyed by its level index, each scenario
an inner seed keyed by its index within the level, and the per-level
workload is chunked through the engine's :mod:`repro.exec` backend with
a module-level (hence picklable) chunk task.  Level 0 consumes the
*same* streams :meth:`~repro.montecarlo.nested.NestedMonteCarloEngine.run`
would, so its fine values are bitwise equal to an exact run at
``n_inner = base_inner`` — the level decomposition is anchored to the
exact tier, not merely internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exec.backends import partition
from repro.montecarlo.nested import (
    NestedMonteCarloEngine,
    OuterStage,
    scenario_from_features,
)
from repro.montecarlo.quantile import empirical_quantile
from repro.montecarlo.scr import SCRReport
from repro.stochastic.rng import generator_from, spawn_generators

__all__ = ["MLMCEngine", "MLMCLevel", "MLMCResult"]

#: Smallest outer set a correction level may shrink to — below this the
#: level quantile is pure noise.
MIN_LEVEL_OUTER = 8


def _mlmc_chunk_task(
    engine: NestedMonteCarloEngine,
    payload: tuple[
        np.ndarray,
        Sequence[np.random.SeedSequence],
        Sequence[object],
        Sequence[object],
        int,
        int,
    ],
) -> tuple[np.ndarray, np.ndarray]:
    """Coupled fine/coarse conditional values for one chunk of scenarios.

    Module-level so process-pool backends can pickle it.  The coarse
    value averages the first ``n_coarse`` of the *same* pathwise values
    the fine estimator averages — the level coupling.
    """
    features, seeds, mortalities, lapses, n_fine, n_coarse = payload
    n_scenarios = features.shape[0]
    fine = np.empty(n_scenarios)
    coarse = np.empty(n_scenarios)
    for j in range(n_scenarios):
        state = scenario_from_features(engine.spec, features[j])
        values = engine.conditional_pathwise(
            state,
            n_fine,
            np.random.default_rng(seeds[j]),
            mortality=mortalities[j],
            lapse=lapses[j],
        )
        fine[j] = values.mean()
        coarse[j] = values[:n_coarse].mean() if n_coarse > 0 else np.nan
    return fine, coarse


@dataclass(frozen=True)
class MLMCLevel:
    """Diagnostics of one telescoping level."""

    level: int
    n_outer: int
    n_inner_fine: int
    n_inner_coarse: int
    quantile_fine: float
    quantile_coarse: float
    correction: float
    n_inner_sims: int


@dataclass
class MLMCResult:
    """Output of a multilevel SCR run."""

    scr: float
    raw_quantile: float
    level: float
    base_value: float
    base_assets: float
    levels: list[MLMCLevel]
    level0_losses: np.ndarray
    level0_values: np.ndarray
    n_exact_inner_sims: int
    n_full_inner_sims: int

    @property
    def n_outer(self) -> int:
        return int(self.level0_losses.shape[0])

    @property
    def savings_factor(self) -> float:
        """How many times fewer inner simulations than the exact tier
        at the finest level's inner resolution."""
        if self.n_exact_inner_sims <= 0:
            return float("inf")
        return self.n_full_inner_sims / self.n_exact_inner_sims

    def to_scr_report(self) -> SCRReport:
        """The telescoped estimate in the standard report shape.

        Loss diagnostics (mean, CI) come from the level-0 sample — the
        only level evaluated on the full outer set.
        """
        from repro.montecarlo.quantile import quantile_confidence_interval

        ci_low, ci_high = quantile_confidence_interval(
            self.level0_losses, self.level, 0.95
        )
        finest = self.levels[-1].n_inner_fine if self.levels else 0
        return SCRReport(
            scr=self.scr,
            raw_quantile=self.raw_quantile,
            level=self.level,
            base_value=self.base_value,
            base_own_funds=self.base_assets - self.base_value,
            mean_loss=float(self.level0_losses.mean()),
            loss_ci_low=ci_low,
            loss_ci_high=ci_high,
            mean_inner_std_error=float("nan"),
            n_outer=self.n_outer,
            n_inner=finest,
        )


class MLMCEngine:
    """Multilevel tier around a :class:`~repro.montecarlo.nested.NestedMonteCarloEngine`.

    Parameters
    ----------
    engine:
        The nested engine; its backend executes every level's chunks.
    n_levels:
        Number of correction levels on top of level 0.
    base_inner:
        Inner paths of level 0 (``n_0``); the finest resolution is
        ``n_0 * 2**n_levels``.
    outer_decay:
        Geometric shrink factor of the correction levels' outer sets.
    level:
        Quantile level of the SCR (99.5% per Solvency II).
    """

    def __init__(
        self,
        engine: NestedMonteCarloEngine,
        n_levels: int = 2,
        base_inner: int = 4,
        outer_decay: int = 2,
        level: float = 0.995,
    ) -> None:
        if n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {n_levels}")
        if base_inner < 2:
            raise ValueError(f"base_inner must be >= 2, got {base_inner}")
        if outer_decay < 2:
            raise ValueError(f"outer_decay must be >= 2, got {outer_decay}")
        self.engine = engine
        self.n_levels = int(n_levels)
        self.base_inner = int(base_inner)
        self.outer_decay = int(outer_decay)
        self.level = float(level)

    @property
    def finest_inner(self) -> int:
        """Inner-path resolution of the last correction level."""
        return self.base_inner * 2**self.n_levels

    def run(
        self,
        n_outer: int,
        rng: np.random.Generator | int | None = 0,
        steps_per_year: int = 4,
        initial_assets: float | None = None,
        n_inner_reference: int | None = None,
    ) -> MLMCResult:
        """Multilevel SCR simulation.

        ``n_inner_reference`` is the exact-tier inner count the savings
        factor is quoted against (default: the finest level's
        resolution, which is the accuracy the telescoped estimator
        targets); it also sizes the ``V_0`` valuation.
        """
        if n_outer <= 0:
            raise ValueError("n_outer must be positive")
        reference = (
            self.finest_inner if n_inner_reference is None else int(n_inner_reference)
        )
        rng = generator_from(rng)
        # First four streams match the exact tier's spawn order, so
        # level 0 reproduces its outer stage bitwise; the fifth parents
        # the per-level streams of the correction levels.
        outer_rng, inner_master, shock_rng, base_rng, level_master = (
            spawn_generators(rng, 5)
        )
        base_value = self.engine.value_at_zero(reference, rng=base_rng)
        base_assets = (
            1.05 * base_value if initial_assets is None else initial_assets
        )
        bof0 = base_assets - base_value

        levels: list[MLMCLevel] = []
        total_sims = 0

        # Level 0: full outer set, base resolution, exact-tier streams.
        stage0 = self.engine.outer_stage(
            n_outer, outer_rng, shock_rng, inner_master,
            steps_per_year=steps_per_year,
        )
        fine0, _ = self._level_values(stage0, self.base_inner, 0)
        losses0 = self._stage_losses(stage0, fine0, bof0, base_assets)
        q0 = empirical_quantile(losses0, self.level)
        total_sims += n_outer * self.base_inner
        levels.append(
            MLMCLevel(
                level=0,
                n_outer=n_outer,
                n_inner_fine=self.base_inner,
                n_inner_coarse=0,
                quantile_fine=float(q0),
                quantile_coarse=float("nan"),
                correction=float(q0),
                n_inner_sims=n_outer * self.base_inner,
            )
        )

        estimate = float(q0)
        level_parents = spawn_generators(level_master, self.n_levels)
        for ell in range(1, self.n_levels + 1):
            n_level_outer = max(n_outer // self.outer_decay**ell, MIN_LEVEL_OUTER)
            n_fine = self.base_inner * 2**ell
            n_coarse = self.base_inner * 2 ** (ell - 1)
            lvl_outer, lvl_inner, lvl_shock = spawn_generators(
                level_parents[ell - 1], 3
            )
            stage = self.engine.outer_stage(
                n_level_outer, lvl_outer, lvl_shock, lvl_inner,
                steps_per_year=steps_per_year,
            )
            fine, coarse = self._level_values(stage, n_fine, n_coarse)
            q_fine = empirical_quantile(
                self._stage_losses(stage, fine, bof0, base_assets), self.level
            )
            q_coarse = empirical_quantile(
                self._stage_losses(stage, coarse, bof0, base_assets), self.level
            )
            correction = float(q_fine - q_coarse)
            estimate += correction
            total_sims += n_level_outer * n_fine
            levels.append(
                MLMCLevel(
                    level=ell,
                    n_outer=n_level_outer,
                    n_inner_fine=n_fine,
                    n_inner_coarse=n_coarse,
                    quantile_fine=float(q_fine),
                    quantile_coarse=float(q_coarse),
                    correction=correction,
                    n_inner_sims=n_level_outer * n_fine,
                )
            )

        return MLMCResult(
            scr=max(estimate, 0.0),
            raw_quantile=estimate,
            level=self.level,
            base_value=base_value,
            base_assets=base_assets,
            levels=levels,
            level0_losses=losses0,
            level0_values=fine0,
            n_exact_inner_sims=total_sims,
            n_full_inner_sims=n_outer * reference,
        )

    def _level_values(
        self, stage: OuterStage, n_fine: int, n_coarse: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coupled fine/coarse values of a level, chunked via the backend."""
        chunks = partition(stage.n_outer, self.engine.backend.chunk_size)
        payloads = [
            (
                stage.features[chunk.indices],
                stage.seeds[chunk.indices],
                stage.mortalities[chunk.indices],
                stage.lapses[chunk.indices],
                n_fine,
                n_coarse,
            )
            for chunk in chunks
        ]
        results = self.engine.backend.map_tasks(
            _mlmc_chunk_task, self.engine, payloads
        )
        fine = np.concatenate([f for f, _ in results])
        coarse = np.concatenate([c for _, c in results])
        return fine, coarse

    def _stage_losses(
        self,
        stage: OuterStage,
        values: np.ndarray,
        bof0: float,
        base_assets: float,
    ) -> np.ndarray:
        """Own-funds losses of a level's outer set given its ``V_1``."""
        outer_assets, _ = self.engine.outer_asset_values(stage, base_assets)
        return bof0 - stage.outer_discount * (outer_assets - values)
