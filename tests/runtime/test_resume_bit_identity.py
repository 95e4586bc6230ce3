"""Checkpoint/resume bit-identity across ranks, backends and restarts.

The contract: a completed conditional-stage chunk is a pure function of
``(block seed, chunk index)``, so a campaign resumed from a checkpoint —
on a different rank count, a different backend, or a freshly loaded
process — reassembles the **bit-identical** SCR figures of an
uninterrupted run.
"""

import numpy as np
import pytest

from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.disar.master import DisarMasterService
from repro.exec import (
    BatchedVectorBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule, RankCrash
from repro.montecarlo.nested import NestedMonteCarloEngine
from repro.runtime import RunCheckpoint


@pytest.fixture(scope="module")
def blocks(small_campaign):
    return small_campaign.blocks[:2]


@pytest.fixture(scope="module")
def baseline(blocks):
    return execute(blocks)


def execute(blocks, n_units=2, checkpoint=None, injector=None, max_retries=0):
    return DisarMasterService().execute(
        blocks,
        n_units=n_units,
        distribute_alm=True,
        max_retries=max_retries,
        injector=injector,
        checkpoint=checkpoint,
    )


def assert_reports_bit_identical(a, b):
    assert sorted(a.alm_results) == sorted(b.alm_results)
    for eeb_id, result in a.alm_results.items():
        other = b.alm_results[eeb_id]
        assert np.array_equal(result.outer_values, other.outer_values)
        assert result.base_value == other.base_value
        assert result.scr_report.scr == other.scr_report.scr


class TestResumeAcrossRanks:
    @pytest.mark.parametrize("n_units", [2, 3, 4, 5])
    def test_warm_checkpoint_resumes_bit_identically(
        self, blocks, baseline, n_units
    ):
        checkpoint = RunCheckpoint()
        execute(blocks, n_units=2, checkpoint=checkpoint)
        total = checkpoint.n_chunks()
        assert total > 0
        checkpoint.reset_counters()
        report = execute(blocks, n_units=n_units, checkpoint=checkpoint)
        # Every chunk was served from the checkpoint, none recomputed —
        # regardless of the rank count of the resuming cluster.
        assert checkpoint.hits == total
        assert checkpoint.misses == 0
        assert_reports_bit_identical(report, baseline)

    def test_crash_at_block_k_then_resume(self, blocks, baseline):
        # Simulate a campaign that died after finishing only its first
        # EEB: the survivor's chunks resume, the rest recompute.
        full = RunCheckpoint()
        execute(blocks, checkpoint=full)
        payload = full.to_dict()
        survivor = sorted(payload["blocks"])[0]
        partial = RunCheckpoint.from_dict(
            {"blocks": {survivor: payload["blocks"][survivor]}}
        )
        kept = partial.n_chunks()
        assert 0 < kept < full.n_chunks()
        report = execute(blocks, checkpoint=partial)
        assert partial.hits == kept
        assert partial.misses == full.n_chunks() - kept
        assert partial.n_chunks() == full.n_chunks()
        assert_reports_bit_identical(report, baseline)

    def test_injected_crash_recovers_through_checkpoint(self, blocks, baseline):
        checkpoint = RunCheckpoint()
        injector = FaultInjector(
            FaultSchedule(events=(RankCrash(rank=1, at_op=2),))
        )
        report = execute(
            blocks, checkpoint=checkpoint, injector=injector, max_retries=2
        )
        assert injector.n_fired == 1
        assert report.recovered_failures >= 1
        assert_reports_bit_identical(report, baseline)


class TestResumeAcrossRestarts:
    def test_saved_checkpoint_resumes_bit_identically(
        self, tmp_path, blocks, baseline
    ):
        checkpoint = RunCheckpoint()
        execute(blocks, checkpoint=checkpoint)
        path = tmp_path / "campaign.ckpt.json"
        assert save_checkpoint(checkpoint, path) == checkpoint.n_chunks()
        reloaded = load_checkpoint(path)
        report = execute(blocks, checkpoint=reloaded)
        assert reloaded.misses == 0
        assert reloaded.hits == checkpoint.n_chunks()
        assert_reports_bit_identical(report, baseline)


class TestResumeAcrossBackends:
    """Engine-level: a checkpoint written by one backend is valid for all
    others sharing the chunk size."""

    N_OUTER, N_INNER, SEED = 24, 8, 5

    def run(self, engine_factory, backend, chunk_store=None):
        engine = engine_factory(backend)
        return engine.run(
            self.N_OUTER, self.N_INNER, rng=self.SEED, chunk_store=chunk_store
        )

    @pytest.fixture()
    def engine_factory(self, spec, fund, small_portfolio):
        def build(backend):
            return NestedMonteCarloEngine(
                spec, fund, small_portfolio, backend=backend
            )

        return build

    @pytest.mark.parametrize(
        "backend",
        [
            SerialBackend(chunk_size=8),
            BatchedVectorBackend(chunk_size=8),
            ProcessPoolBackend(max_workers=2, chunk_size=8),
        ],
        ids=["serial", "batched", "process"],
    )
    def test_serial_checkpoint_resumes_on_any_backend(
        self, engine_factory, backend
    ):
        baseline = self.run(engine_factory, SerialBackend(chunk_size=8))
        checkpoint = RunCheckpoint()
        store = checkpoint.store_for("engine-test")
        self.run(engine_factory, SerialBackend(chunk_size=8), chunk_store=store)
        written = checkpoint.n_chunks()
        assert written == 3  # 24 outer scenarios in chunks of 8
        checkpoint.reset_counters()
        resumed = self.run(engine_factory, backend, chunk_store=store)
        assert checkpoint.hits == written
        assert checkpoint.misses == 0
        assert resumed.base_value == baseline.base_value
        assert np.array_equal(resumed.outer_values, baseline.outer_values)
