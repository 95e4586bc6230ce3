"""Tests for the execution-backend primitives (partitioning, seeding,
backend construction)."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.exec.backends import (
    DEFAULT_CHUNK_SIZE,
    BatchedVectorBackend,
    ProcessPoolBackend,
    SerialBackend,
    WorkChunk,
    backend_from,
    chunk_seed_sequences,
    partition,
)


class TestWorkChunk:
    def test_size_and_indices(self):
        chunk = WorkChunk(index=2, start=10, stop=14)
        assert chunk.size == 4
        assert list(range(20))[chunk.indices] == [10, 11, 12, 13]

    def test_rejects_empty_or_inverted_ranges(self):
        with pytest.raises(ValueError):
            WorkChunk(index=0, start=5, stop=5)
        with pytest.raises(ValueError):
            WorkChunk(index=-1, start=0, stop=1)


class TestPartition:
    def test_covers_range_without_overlap(self):
        chunks = partition(103, chunk_size=16)
        assert chunks[0].start == 0
        assert chunks[-1].stop == 103
        for left, right in zip(chunks, chunks[1:]):
            assert left.stop == right.start
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_depends_only_on_items_and_chunk_size(self):
        assert partition(100, 16) == partition(100, 16)

    def test_single_chunk_when_workload_fits(self):
        chunks = partition(10, chunk_size=64)
        assert len(chunks) == 1
        assert (chunks[0].start, chunks[0].stop) == (0, 10)

    def test_granularity_keeps_pairs_together(self):
        # Antithetic pairs (granularity 2) must never straddle a boundary.
        for chunk in partition(48, chunk_size=7, granularity=2):
            assert chunk.start % 2 == 0
            assert chunk.size % 2 == 0 or chunk.stop == 48

    def test_granularity_must_divide_items(self):
        with pytest.raises(ValueError):
            partition(9, chunk_size=4, granularity=2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partition(0)
        with pytest.raises(ValueError):
            partition(10, chunk_size=0)
        with pytest.raises(ValueError):
            partition(10, granularity=0)


class TestChunkSeedSequences:
    def test_keyed_by_chunk_index(self):
        seeds_a = chunk_seed_sequences(np.random.SeedSequence(7), 5)
        seeds_b = chunk_seed_sequences(np.random.SeedSequence(7), 5)
        for a, b in zip(seeds_a, seeds_b):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()

    def test_prefix_stable_under_chunk_count(self):
        # Spawning more chunks must not change the earlier streams.
        short = chunk_seed_sequences(np.random.SeedSequence(3), 2)
        long = chunk_seed_sequences(np.random.SeedSequence(3), 6)
        for a, b in zip(short, long):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()

    def test_accepts_generators_and_ints(self):
        from_gen = chunk_seed_sequences(np.random.default_rng(11), 3)
        from_int = chunk_seed_sequences(11, 3)
        for a, b in zip(from_gen, from_int):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()


class TestBackendFrom:
    def test_none_selects_batched_default(self):
        backend = backend_from(None)
        assert isinstance(backend, BatchedVectorBackend)
        assert backend.chunk_size == DEFAULT_CHUNK_SIZE

    def test_instances_pass_through(self):
        backend = SerialBackend(chunk_size=8)
        assert backend_from(backend) is backend

    def test_spec_strings(self):
        assert isinstance(backend_from("serial"), SerialBackend)
        assert isinstance(backend_from("batched"), BatchedVectorBackend)
        assert backend_from("serial:32").chunk_size == 32
        process = backend_from("process:3")
        assert isinstance(process, ProcessPoolBackend)
        assert process.effective_workers == 3

    def test_new_backend_spec_strings(self):
        batched = backend_from("batched:16")
        assert isinstance(batched, BatchedVectorBackend)
        assert batched.chunk_size == 16
        process = backend_from("process")
        assert isinstance(process, ProcessPoolBackend)
        assert process.max_workers is None
        assert process.chunk_size == DEFAULT_CHUNK_SIZE

    def test_rejects_unknown_specs(self):
        for spec in (
            "gpu", "chunked", "thread", "shm", "vector", "chunked-vector",
            "serial:many", "thread:zero", "serial:0", "batched:0",
            "process:0", "batched:-8",
        ):
            with pytest.raises(ValueError):
                backend_from(spec)

    def test_map_preserves_payload_order(self):
        payloads = list(range(10))
        for backend in (SerialBackend(), BatchedVectorBackend()):
            assert backend.map_tasks(
                lambda ctx, x: ctx * x, 3, payloads
            ) == [3 * p for p in payloads]

    def test_process_backend_single_payload_runs_inline(self):
        # A lambda is not picklable: this only passes because one-payload
        # maps skip the pool entirely.
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.map_tasks(lambda ctx, x: ctx + x, 1, [41]) == [42]


def _barrier_pid(context, barrier):
    """Rendezvous with the other worker, then report this process's pid."""
    del context
    barrier.wait()
    return os.getpid()


# -- module-level task helpers (picklable by the pool backends) ---------------


def _scale_array(context, payload):
    return np.asarray(payload, dtype=float) * context


_CONTEXT_PICKLES = {"count": 0}


class _CountingContext:
    """Context object that counts how often it is serialized."""

    def __init__(self, scale):
        self.scale = scale

    def __getstate__(self):
        _CONTEXT_PICKLES["count"] += 1
        return {"scale": self.scale}


class TestMapTasks:
    """The context/payload split of the zero-copy dispatch API."""

    def test_in_process_backends_share_live_context(self):
        context = {"offset": 10}  # not picklable across processes? it is,
        # but identity is what in-process dispatch must preserve.
        seen = []
        for backend in (SerialBackend(), BatchedVectorBackend()):
            result = backend.map_tasks(
                lambda ctx, p: (id(ctx), ctx["offset"] + p), context, [1, 2, 3]
            )
            seen.append(result)
            assert [value for _, value in result] == [11, 12, 13]
        for result in seen:
            assert all(ctx_id == id(context) for ctx_id, _ in result)

    def test_process_backend_preserves_order(self):
        backend = ProcessPoolBackend(max_workers=2)
        payloads = [np.arange(3) + i for i in range(5)]
        results = backend.map_tasks(_scale_array, 2.0, payloads)
        for payload, result in zip(payloads, results):
            assert np.array_equal(result, payload * 2.0)

    def test_context_pickled_once_per_map_not_per_payload(self):
        _CONTEXT_PICKLES["count"] = 0
        backend = ProcessPoolBackend(max_workers=2)
        results = backend.map_tasks(
            _scale_and_offset, _CountingContext(3.0), list(range(8))
        )
        assert results == [i * 3.0 for i in range(8)]
        # One serialization per map call — not one per payload (8) and
        # not one per worker either: the blob ships via initargs.
        assert _CONTEXT_PICKLES["count"] == 1

    def test_single_payload_runs_inline_without_pickling(self):
        _CONTEXT_PICKLES["count"] = 0
        backend = ProcessPoolBackend(max_workers=2)
        result = backend.map_tasks(
            lambda ctx, p: ctx.scale * p, _CountingContext(2.0), [21]
        )
        assert result == [42.0]
        assert _CONTEXT_PICKLES["count"] == 0


def _scale_and_offset(context, payload):
    return context.scale * payload


class TestProcessPoolWorkers:
    """Worker-count-sensitive behaviour of the process pool.

    The spread assertion rendezvouses both tasks on a barrier, so it is
    deterministic even on a single-core host: the map can only finish
    when two worker processes are alive at the same time.  The
    ``REPRO_EXEC_WORKERS`` override makes the *default* worker count
    testable regardless of the host's core count (CI pins it to 2).
    """

    def test_default_worker_count_tracks_host_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        assert ProcessPoolBackend().effective_workers == (os.cpu_count() or 1)

    def test_env_override_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        assert ProcessPoolBackend().effective_workers == 3

    def test_explicit_max_workers_beats_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "5")
        assert ProcessPoolBackend(max_workers=2).effective_workers == 2

    def test_env_override_rejects_non_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "0")
        with pytest.raises(ValueError):
            ProcessPoolBackend().effective_workers

    def test_map_spreads_across_worker_processes(self):
        with multiprocessing.Manager() as manager:
            barrier = manager.Barrier(2, timeout=60)
            pids = ProcessPoolBackend(max_workers=2).map_tasks(
                _barrier_pid, None, [barrier, barrier]
            )
        assert len(set(pids)) == 2

    def test_env_override_drives_default_pool_spread(self, monkeypatch):
        # Same barrier rendezvous, but the worker count comes from the
        # environment override instead of an explicit max_workers.
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        with multiprocessing.Manager() as manager:
            barrier = manager.Barrier(2, timeout=60)
            pids = ProcessPoolBackend().map_tasks(
                _barrier_pid, None, [barrier, barrier]
            )
        assert len(set(pids)) == 2
