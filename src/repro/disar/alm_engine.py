"""DiAlmEng — the Asset-Liability Management engine (type-B elaborations).

Type-B blocks are the Monte Carlo heavy part of DISAR and the part the
paper deploys on the cloud.  The engine supports two execution modes:

- **sequential** (:meth:`ALMEngine.process`): the full nested / LSMC
  valuation in the calling thread;
- **distributed** (:meth:`ALMEngine.process_distributed`): the inner
  Monte Carlo work is partitioned into the same deterministic chunks
  the :mod:`repro.exec` backends use, the chunks are spread round-robin
  across the ranks of a :class:`repro.cluster.Communicator`, and each
  rank executes its share through its own backend (the batched
  kernel by default).  Only per-chunk values travel back to rank 0,
  which reassembles them in chunk order — so the distributed result is
  **bit-identical** to the sequential one at the same seed, for any
  rank count.  This is the paper's data-separation scheme: the database
  never leaves the master, the worker nodes only ever see anonymised
  simulation inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.comm import Communicator
from repro.disar.eeb import EEBType, ElementaryElaborationBlock
from repro.montecarlo.lsmc import LSMCEngine
from repro.montecarlo.nested import NestedMonteCarloEngine
from repro.montecarlo.scr import SCRCalculator, SCRReport
from repro.proxy.engine import ProxySCREngine
from repro.proxy.gate import GateReport, ValidationGate

if TYPE_CHECKING:  # avoid the repro.runtime -> repro.disar import cycle
    from repro.runtime.checkpoint import ChunkStore

__all__ = ["ALMEngine", "ALMResult"]


@dataclass
class ALMResult:
    """Market-consistent valuation output of one type-B EEB."""

    eeb_id: str
    base_value: float
    outer_values: np.ndarray
    scr_report: SCRReport
    elapsed_seconds: float
    n_ranks: int = 1
    #: SCR tier that produced the figures (``settings.tier``).
    tier: str = "exact"
    #: Validation-gate outcome of a proxy-tier run (``None`` otherwise).
    gate: GateReport | None = None
    #: True when the proxy tier breached its gate and recomputed the
    #: block exactly — the result is then bitwise the exact tier's.
    fell_back: bool = False

    @property
    def n_outer(self) -> int:
        return int(self.outer_values.shape[0])


class ALMEngine:
    """Runs the market-consistent valuation of type-B blocks."""

    name = "DiAlmEng"

    def __init__(self, scr_level: float = 0.995) -> None:
        self._scr = SCRCalculator(level=scr_level)

    def _build_engine(self, eeb: ElementaryElaborationBlock) -> NestedMonteCarloEngine:
        return NestedMonteCarloEngine(
            eeb.spec, eeb.fund, eeb.contracts, backend=eeb.settings.backend
        )

    def _check_type(self, eeb: ElementaryElaborationBlock) -> None:
        if eeb.eeb_type is not EEBType.ALM:
            raise ValueError(
                f"DiAlmEng received a type-{eeb.eeb_type.value} block "
                f"({eeb.eeb_id}); only type B is supported"
            )

    def process(
        self,
        eeb: ElementaryElaborationBlock,
        chunk_store: "ChunkStore | None" = None,
    ) -> ALMResult:
        """Sequential valuation of ``eeb``.

        ``chunk_store`` resumes the block's conditional-stage chunks from
        a :class:`~repro.runtime.checkpoint.RunCheckpoint` and stores the
        freshly computed ones.  The proxy tier ignores ``chunk_store``:
        its exact budget is an index-keyed subset, so caching it under
        exact-tier chunk ids would collide with a full run's cache.
        """
        self._check_type(eeb)
        start = time.perf_counter()
        settings = eeb.settings
        engine = self._build_engine(eeb)
        if settings.tier == "proxy":
            return self._process_proxy(eeb, engine, start)
        if settings.use_lsmc:
            lsmc = LSMCEngine(engine, degree=settings.lsmc_degree)
            result = lsmc.run(
                n_outer=settings.n_outer,
                n_outer_cal=settings.lsmc_outer_calibration,
                n_inner_cal=settings.n_inner,
                rng=settings.seed,
                steps_per_year=settings.steps_per_year,
                chunk_store=chunk_store,
            )
            base_value = result.calibration.base_value
            outer_values = result.outer_values
            # Liability-side loss: discounted conditional value V1 in
            # excess of the time-0 value V0.
            losses = outer_values * float(
                np.mean(result.calibration.outer_discount)
            ) - base_value
            report = self._scr.from_losses(
                losses,
                base_value=base_value,
                base_own_funds=result.calibration.base_assets - base_value,
                n_inner=settings.n_inner,
            )
        else:
            nested = engine.run(
                n_outer=settings.n_outer,
                n_inner=settings.n_inner,
                rng=settings.seed,
                steps_per_year=settings.steps_per_year,
                chunk_store=chunk_store,
            )
            base_value = nested.base_value
            outer_values = nested.outer_values
            report = self._scr.from_nested(nested)
        return ALMResult(
            eeb_id=eeb.eeb_id,
            base_value=base_value,
            outer_values=outer_values,
            scr_report=report,
            elapsed_seconds=time.perf_counter() - start,
        )

    # -- proxy tier -----------------------------------------------------------

    def _process_proxy(
        self,
        eeb: ElementaryElaborationBlock,
        engine: NestedMonteCarloEngine,
        start: float,
    ) -> ALMResult:
        settings = eeb.settings
        proxy = ProxySCREngine(
            engine,
            valuator=settings.proxy_kind,
            n_train=settings.proxy_train,
            n_validation=settings.proxy_validation,
            gate=ValidationGate(
                tolerance=settings.proxy_tolerance, level=self._scr.level
            ),
            proxy_seed=settings.seed,
        )
        result = proxy.run(
            n_outer=settings.n_outer,
            n_inner=settings.n_inner,
            rng=settings.seed,
            steps_per_year=settings.steps_per_year,
        )
        return ALMResult(
            eeb_id=eeb.eeb_id,
            base_value=result.nested.base_value,
            outer_values=result.nested.outer_values,
            scr_report=self._scr.from_nested(result.nested),
            elapsed_seconds=time.perf_counter() - start,
            tier="proxy",
            gate=result.gate,
            fell_back=result.fell_back,
        )

    # -- distributed execution ------------------------------------------------

    def process_distributed(
        self,
        comm: Communicator,
        eeb: ElementaryElaborationBlock,
        chunk_store: "ChunkStore | None" = None,
    ) -> ALMResult | None:
        """Distributed valuation across the ranks of ``comm``.

        Each rank builds its own engine, runs the block's Monte Carlo
        through
        :meth:`~repro.montecarlo.lsmc.LSMCEngine.run_distributed` /
        :meth:`~repro.montecarlo.nested.NestedMonteCarloEngine.run_distributed`
        (round-robin chunk ownership, per-rank :mod:`repro.exec`
        backends) and rank 0 derives the SCR figures from the
        reassembled result.  Because the distributed runs are bit-equal
        to their sequential counterparts at the block's seed, the
        :class:`ALMResult` this returns on rank 0 is **bit-identical**
        to :meth:`process` for any rank count.  Returns ``None`` on the
        other ranks.

        The proxy tier spends so few exact inner simulations that
        spreading them over ranks is not worth the coordination:
        rank 0 computes the block sequentially (bit-equal to
        :meth:`process` by construction) and the other ranks return
        ``None`` immediately.
        """
        self._check_type(eeb)
        start = time.perf_counter()
        settings = eeb.settings
        if settings.tier != "exact":
            if comm.rank != 0:
                return None
            result = self.process(eeb)
            result.n_ranks = comm.size
            return result
        engine = self._build_engine(eeb)
        if settings.use_lsmc:
            lsmc = LSMCEngine(engine, degree=settings.lsmc_degree)
            result = lsmc.run_distributed(
                comm,
                n_outer=settings.n_outer,
                n_outer_cal=settings.lsmc_outer_calibration,
                n_inner_cal=settings.n_inner,
                rng=settings.seed,
                steps_per_year=settings.steps_per_year,
                chunk_store=chunk_store,
            )
            if comm.rank != 0 or result is None:
                return None
            base_value = result.calibration.base_value
            outer_values = result.outer_values
            # Liability-side loss: discounted conditional value V1 in
            # excess of the time-0 value V0 (same formula as process()).
            losses = outer_values * float(
                np.mean(result.calibration.outer_discount)
            ) - base_value
            report = self._scr.from_losses(
                losses,
                base_value=base_value,
                base_own_funds=result.calibration.base_assets - base_value,
                n_inner=settings.n_inner,
            )
        else:
            nested = engine.run_distributed(
                comm,
                n_outer=settings.n_outer,
                n_inner=settings.n_inner,
                rng=settings.seed,
                steps_per_year=settings.steps_per_year,
                chunk_store=chunk_store,
            )
            if comm.rank != 0 or nested is None:
                return None
            base_value = nested.base_value
            outer_values = nested.outer_values
            report = self._scr.from_nested(nested)
        return ALMResult(
            eeb_id=eeb.eeb_id,
            base_value=base_value,
            outer_values=outer_values,
            scr_report=report,
            elapsed_seconds=time.perf_counter() - start,
            n_ranks=comm.size,
        )
