"""Parallel & vectorized execution backends for the Monte Carlo hot paths.

The paper's premise is that the type-B ALM valuation blocks are
embarrassingly parallel across scenarios — that is exactly what DISAR
farms out to EC2 nodes.  This package makes the reproduction's own hot
paths live up to that claim:

- :mod:`repro.exec.backends` — the execution-backend abstraction.
  Work is partitioned into deterministic :class:`WorkChunk` slices and
  every chunk receives a ``numpy`` generator spawned *keyed by chunk
  index*, so results are bit-identical regardless of worker count or
  backend.  Three backends ship:

  * :class:`SerialBackend` — the reference per-scenario loop;
  * :class:`BatchedVectorBackend` — the default: many chunks fused into
    one NumPy kernel call, in-process;
  * :class:`ProcessPoolBackend` — one batched kernel call per chunk on a
    ``concurrent.futures`` process pool; the engine is serialized once
    per map call and shipped to each worker through the pool
    initializer, never per chunk;

- :mod:`repro.exec.bench` — the ``repro bench`` perf-regression
  harness: times the nested / LSMC / valuation kernels across backends,
  writes machine-readable ``BENCH_nested.json`` numbers with a
  timestamped ``history`` trajectory, and gates throughput regressions
  via :func:`compare_against`.
"""

from repro.exec.backends import (
    BatchedVectorBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    WorkChunk,
    backend_from,
    chunk_seed_sequences,
    partition,
)
from repro.exec.bench import (
    BenchReport,
    KernelTiming,
    compare_against,
    history_entry_from,
    run_nested_bench,
)

__all__ = [
    "WorkChunk",
    "partition",
    "chunk_seed_sequences",
    "ExecutionBackend",
    "SerialBackend",
    "BatchedVectorBackend",
    "ProcessPoolBackend",
    "backend_from",
    "BenchReport",
    "KernelTiming",
    "run_nested_bench",
    "history_entry_from",
    "compare_against",
]
