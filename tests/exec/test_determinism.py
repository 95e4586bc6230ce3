"""Cross-backend bit-identity of the nested Monte Carlo engine.

The determinism contract of :mod:`repro.exec`: at a fixed seed and chunk
size, every backend (serial loop, batched cross-chunk kernel, process
pool) produces bit-identical results — parallelism, vectorization and
cross-chunk fusion change wall-clock time only, never a single bit of
the SCR inputs.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.comm import run_spmd
from repro.exec.backends import (
    BatchedVectorBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.montecarlo import nested
from repro.montecarlo.lsmc import LSMCEngine
from repro.montecarlo.nested import NestedMonteCarloEngine
from repro.runtime import RunCheckpoint
from repro.workload.portfolio_gen import PortfolioGenerator

CHUNK = 4  # several chunks even at the tiny test sizes


@pytest.fixture(scope="module")
def portfolio():
    return PortfolioGenerator(
        n_contracts_range=(6, 7),
        horizon_range=(4, 9),
        n_equities_range=(2, 2),
        seed=3,
    ).generate("exec-tests")


def make_engine(portfolio, backend, **overrides):
    return NestedMonteCarloEngine(
        portfolio.spec,
        portfolio.fund,
        portfolio.contracts,
        backend=backend,
        **overrides,
    )


def backends():
    return [
        SerialBackend(chunk_size=CHUNK),
        BatchedVectorBackend(chunk_size=CHUNK),
        ProcessPoolBackend(max_workers=2, chunk_size=CHUNK),
    ]


def on_every_backend(run, monkeypatch):
    """``run(backend)`` on every backend, then once more on the batched
    backend with a fusion budget of 6 scenarios: at the tests'
    8-10-scenario outer stages that forces several fusion groups, and
    group splitting must not move a single bit either."""
    results = [run(backend) for backend in backends()]
    monkeypatch.setattr(nested, "DEFAULT_MAX_FUSED", 6)
    results.append(run(BatchedVectorBackend(chunk_size=CHUNK)))
    return results


class TestRunBitIdentity:
    def test_all_backends_identical(self, portfolio, monkeypatch):
        results = on_every_backend(
            lambda backend: make_engine(portfolio, backend).run(10, 6, rng=7),
            monkeypatch,
        )
        reference = results[0]
        for result in results[1:]:
            assert np.array_equal(reference.outer_values, result.outer_values)
            assert np.array_equal(reference.outer_assets, result.outer_assets)
            assert np.array_equal(
                reference.year_one_flows, result.year_one_flows
            )
            assert np.array_equal(
                reference.inner_std_error, result.inner_std_error
            )
            assert reference.base_value == result.base_value

    def test_dynamic_lapses_identical(self, portfolio):
        serial = make_engine(
            portfolio, SerialBackend(chunk_size=CHUNK), dynamic_lapses=True
        ).run(8, 5, rng=5)
        batched = make_engine(
            portfolio, BatchedVectorBackend(chunk_size=CHUNK), dynamic_lapses=True
        ).run(8, 5, rng=5)
        assert np.array_equal(serial.outer_values, batched.outer_values)

    def test_same_seed_same_result_on_one_backend(self, portfolio):
        engine = make_engine(portfolio, BatchedVectorBackend(chunk_size=CHUNK))
        a = engine.run(10, 6, rng=13)
        b = engine.run(10, 6, rng=13)
        assert np.array_equal(a.outer_values, b.outer_values)


def assert_nested_equal(reference, result):
    assert np.array_equal(reference.outer_values, result.outer_values)
    assert np.array_equal(reference.outer_assets, result.outer_assets)
    assert np.array_equal(reference.year_one_flows, result.year_one_flows)
    assert np.array_equal(reference.inner_std_error, result.inner_std_error)
    assert reference.base_value == result.base_value


class TestFineGridBitIdentity:
    """The ``steps_per_year > 1`` fine grid across every backend."""

    @pytest.mark.parametrize("steps", [2, 3])
    def test_all_backends_identical(self, portfolio, steps, monkeypatch):
        results = on_every_backend(
            lambda backend: make_engine(portfolio, backend).run(
                8, 5, rng=7, steps_per_year=steps
            ),
            monkeypatch,
        )
        for result in results[1:]:
            assert_nested_equal(results[0], result)

    def test_fine_grid_differs_from_annual(self, portfolio):
        backend = BatchedVectorBackend(chunk_size=CHUNK)
        annual = make_engine(portfolio, backend).run(8, 5, rng=7,
                                                     steps_per_year=1)
        fine = make_engine(portfolio, backend).run(8, 5, rng=7,
                                                   steps_per_year=3)
        assert not np.array_equal(annual.outer_values, fine.outer_values)


class TestRankRoutedBitIdentity:
    """The distributed path: chunks spread round-robin over SPMD ranks,
    executed by each rank's backend — bit-equal to the sequential run
    for any rank count and backend."""

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_run_distributed_equals_run(self, portfolio, size):
        backend = BatchedVectorBackend(chunk_size=CHUNK)
        sequential = make_engine(portfolio, backend).run(
            10, 6, rng=7, steps_per_year=2
        )
        results = run_spmd(
            size,
            lambda comm: make_engine(portfolio, backend).run_distributed(
                comm, 10, 6, rng=7, steps_per_year=2
            ),
        )
        assert all(result is None for result in results[1:])
        assert_nested_equal(sequential, results[0])

    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: SerialBackend(chunk_size=CHUNK),
            lambda: BatchedVectorBackend(chunk_size=CHUNK),
        ],
        ids=["serial", "batched"],
    )
    def test_distributed_identical_across_backends(
        self, portfolio, backend_factory
    ):
        reference = make_engine(
            portfolio, BatchedVectorBackend(chunk_size=CHUNK)
        ).run(10, 6, rng=11)
        results = run_spmd(
            2,
            lambda comm: make_engine(
                portfolio, backend_factory()
            ).run_distributed(comm, 10, 6, rng=11),
        )
        assert_nested_equal(reference, results[0])

    def test_run_distributed_with_process_pool_backend(self, portfolio):
        # Each rank drives its own process pool: nested parallelism.
        # The worker count is pinned, so the determinism assertion holds
        # on any host (CI additionally sets REPRO_EXEC_WORKERS=2 so
        # env-defaulted pools exercise real spread on 1-core runners).
        reference = make_engine(
            portfolio, BatchedVectorBackend(chunk_size=CHUNK)
        ).run(10, 6, rng=11)
        results = run_spmd(
            2,
            lambda comm: make_engine(
                portfolio,
                ProcessPoolBackend(max_workers=2, chunk_size=CHUNK),
            ).run_distributed(comm, 10, 6, rng=11),
        )
        assert_nested_equal(reference, results[0])

    def test_master_rank_routed_path_equals_sequential(self, small_campaign):
        from repro.disar.alm_engine import ALMEngine
        from repro.disar.master import DisarMasterService

        blocks = small_campaign.blocks[:2]
        sequential = {
            block.eeb_id: ALMEngine().process(block) for block in blocks
        }
        report = DisarMasterService().execute(
            blocks, n_units=3, distribute_alm=True
        )
        assert sorted(report.alm_results) == sorted(sequential)
        for eeb_id, result in report.alm_results.items():
            expected = sequential[eeb_id]
            assert np.array_equal(result.outer_values, expected.outer_values)
            assert result.base_value == expected.base_value
            assert result.scr_report.scr == expected.scr_report.scr
            assert result.n_ranks == 3


class TestValueAtZeroBitIdentity:
    def test_plain_and_antithetic(self, portfolio):
        values = {
            backend.describe(): (
                make_engine(portfolio, backend).value_at_zero(50, rng=11),
                make_engine(portfolio, backend).value_at_zero(
                    48, rng=11, antithetic=True
                ),
            )
            for backend in backends()
        }
        assert len(values) == len(backends())
        reference = next(iter(values.values()))
        for pair in values.values():
            assert pair == reference


class TestLSMCBitIdentity:
    """The LSMC calibration sample runs through the engine's backend; the
    fitted proxy — and with it the full LSMC valuation — must be
    bit-identical across every backend, including the fused one."""

    def test_all_backends_identical(self, portfolio, monkeypatch):
        results = on_every_backend(
            lambda backend: LSMCEngine(make_engine(portfolio, backend)).run(
                40, 20, 6, rng=5
            ),
            monkeypatch,
        )
        reference = results[0]
        for result in results[1:]:
            assert np.array_equal(reference.outer_values, result.outer_values)
            assert np.array_equal(reference.coefficients, result.coefficients)
            assert np.array_equal(
                reference.calibration.outer_values,
                result.calibration.outer_values,
            )
            assert reference.in_sample_r2 == result.in_sample_r2


class TestResumeWithZeroCopyBackends:
    """Chunk checkpoints written by the serial backend — even ones folded
    into segments after every put — must resume bit-identically on the
    batched and process-pool backends."""

    def _run(self, portfolio, backend, chunk_store=None):
        return make_engine(portfolio, backend).run(
            10, 6, rng=7, chunk_store=chunk_store
        )

    @pytest.mark.parametrize(
        "resume_backend",
        [
            lambda: BatchedVectorBackend(chunk_size=CHUNK),
            lambda: ProcessPoolBackend(max_workers=2, chunk_size=CHUNK),
        ],
        ids=["batched", "process"],
    )
    def test_compacted_serial_checkpoint_resumes(
        self, portfolio, resume_backend
    ):
        baseline = self._run(portfolio, SerialBackend(chunk_size=CHUNK))
        checkpoint = RunCheckpoint(compaction_threshold=1)
        store = checkpoint.store_for("exec-tests")
        self._run(portfolio, SerialBackend(chunk_size=CHUNK), chunk_store=store)
        written = checkpoint.n_chunks()
        assert written == 3  # 10 outer scenarios in chunks of 4
        # threshold=1 folds the contiguous prefix after every put:
        # nothing stays loose, every resume below is served from segments.
        assert checkpoint.n_loose_chunks() == 0
        checkpoint.reset_counters()
        resumed = self._run(portfolio, resume_backend(), chunk_store=store)
        assert checkpoint.hits == written
        assert checkpoint.misses == 0
        assert_nested_equal(baseline, resumed)

    def test_partial_checkpoint_mixes_cached_and_fused_chunks(self, portfolio):
        baseline = self._run(portfolio, SerialBackend(chunk_size=CHUNK))
        full = RunCheckpoint()
        self._run(
            portfolio,
            SerialBackend(chunk_size=CHUNK),
            chunk_store=full.store_for("exec-tests"),
        )
        payload = full.to_dict()
        # Keep only the middle chunk: the batched backend must fuse the
        # two pending chunks *around* the cached one and still split the
        # fused result back onto the right scenario rows.
        partial = RunCheckpoint.from_dict(
            {
                "blocks": {
                    "exec-tests": {
                        "1": payload["blocks"]["exec-tests"]["1"]
                    }
                }
            }
        )
        store = partial.store_for("exec-tests")
        resumed = self._run(
            portfolio, BatchedVectorBackend(chunk_size=CHUNK), chunk_store=store
        )
        assert partial.hits == 1
        assert partial.misses == 2
        assert partial.n_chunks() == 3
        assert_nested_equal(baseline, resumed)


_ENGINE_PICKLES = {"count": 0}


class _CountingEngine(NestedMonteCarloEngine):
    """Engine that counts its parent-side serializations."""

    def __getstate__(self):
        _ENGINE_PICKLES["count"] += 1
        return super().__getstate__()


class TestEngineShippedOncePerDispatch:
    def test_engine_pickled_per_pool_dispatch_not_per_chunk(self, portfolio):
        _ENGINE_PICKLES["count"] = 0
        engine = _CountingEngine(
            portfolio.spec,
            portfolio.fund,
            portfolio.contracts,
            backend=ProcessPoolBackend(max_workers=2, chunk_size=CHUNK),
        )
        engine.run(10, 6, rng=7)
        # run() opens two pools (value_at_zero: 2 chunks of inner paths;
        # conditional stage: 3 chunks of outer scenarios) and the engine
        # ships once per pool via the worker initializer — not once per
        # chunk (5 here) as the old per-payload dispatch did.
        assert _ENGINE_PICKLES["count"] == 2


class TestFaultCorpusBackendOverride:
    """A campaign perturbed by a corpus fault schedule and executed with
    the other backends (via the master's per-campaign override) must
    recover to the bit-identical figures of a clean default-backend run."""

    CORPUS = Path(__file__).resolve().parents[1] / "faults" / "corpus"

    @pytest.fixture(scope="class")
    def clean_report(self, small_campaign):
        from repro.disar.master import DisarMasterService

        return DisarMasterService().execute(
            small_campaign.blocks, n_units=3, distribute_alm=True
        )

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_recovered_campaign_matches_clean_run(
        self, small_campaign, clean_report, backend
    ):
        from repro.disar.master import DisarMasterService
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import FaultSchedule

        entry = json.loads(
            (self.CORPUS / "rank_crash_resume.json").read_text()
        )
        schedule = FaultSchedule.from_dict(entry["schedule"])
        injector = FaultInjector(schedule)
        chaotic = DisarMasterService().execute(
            small_campaign.blocks,
            n_units=3,
            distribute_alm=True,
            max_retries=2,
            injector=injector,
            backend=backend,
        )
        assert injector.n_fired == 1
        assert chaotic.recovered_failures >= 1
        assert sorted(chaotic.alm_results) == sorted(clean_report.alm_results)
        for eeb_id, result in chaotic.alm_results.items():
            other = clean_report.alm_results[eeb_id]
            assert np.array_equal(result.outer_values, other.outer_values)
            assert result.base_value == other.base_value
            assert result.scr_report.scr == other.scr_report.scr


class TestDecrementTableCache:
    def test_cache_hit_across_identically_shocked_scenarios(self, portfolio):
        # Zero shock scales collapse every outer scenario onto the same
        # actuarial models, so the serial per-scenario path must reuse
        # cached decrement tables instead of rebuilding them.
        engine = make_engine(
            portfolio,
            SerialBackend(chunk_size=CHUNK),
            longevity_shock_scale=0.0,
            lapse_shock_scale=0.0,
        )
        engine.run(10, 6, rng=7)
        cache = engine._table_cache
        assert cache.hits > 0
        assert cache.misses > 0
        assert cache.hits > cache.misses
        assert len(cache) == cache.misses

    def test_cache_reused_across_value_at_zero_chunks(self, portfolio):
        engine = make_engine(portfolio, BatchedVectorBackend(chunk_size=8))
        engine.value_at_zero(32, rng=1)
        cache = engine._table_cache
        # 4 chunks share one table per contract: 1 miss + 3 hits each.
        assert cache.hits > 0
        assert len(cache) == cache.misses

    def test_pickled_engine_sheds_cache_contents(self, portfolio):
        import pickle

        engine = make_engine(portfolio, SerialBackend(chunk_size=CHUNK))
        engine.run(6, 4, rng=2)
        assert len(engine._table_cache) > 0
        clone = pickle.loads(pickle.dumps(engine))
        assert len(clone._table_cache) == 0
        assert (
            clone._table_cache.max_entries == engine._table_cache.max_entries
        )
