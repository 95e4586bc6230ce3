"""Execution backends with deterministic work partitioning.

The contract every backend honours:

1. a workload of ``n_items`` independent scenario valuations is cut into
   :class:`WorkChunk` slices of at most ``chunk_size`` items by
   :func:`partition` — the decomposition depends only on
   ``(n_items, chunk_size)``, never on the number of workers;
2. chunk ``j`` receives the ``j``-th child of the master
   :class:`numpy.random.SeedSequence` (:func:`chunk_seed_sequences`),
   i.e. its random stream is *keyed by chunk index*;
3. backends only decide *where* and *how* a chunk function runs
   (in-process loop, fused NumPy kernel, process pool) — never *what*
   it computes.

Together these make results bit-identical across backends and across
worker counts: the arithmetic per scenario and the random numbers it
consumes are the same everywhere, only the wall-clock time changes.
``chunk_size`` *is* part of the random-stream layout, so comparisons
across backends must hold it fixed (all backends default to
``DEFAULT_CHUNK_SIZE``).

Three backends ship: :class:`SerialBackend` (the reference
per-scenario loop), :class:`BatchedVectorBackend` (the default: many
chunks fused into one NumPy kernel call, in-process) and
:class:`ProcessPoolBackend` (one batched kernel call per chunk, spread
over worker processes).

:meth:`ExecutionBackend.map_tasks` separates the *context* (the engine —
large, identical for every chunk) from the per-chunk *payload* (small).
The process pool serializes the context exactly once per map call and
ships it to each worker through the pool initializer; the in-process
backends share the live object without any serialization at all.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MAX_FUSED",
    "WorkChunk",
    "partition",
    "chunk_seed_sequences",
    "ExecutionBackend",
    "SerialBackend",
    "BatchedVectorBackend",
    "ProcessPoolBackend",
    "backend_from",
]

#: Default scenarios per chunk.  Part of the determinism contract: the
#: same workload with the same chunk size produces the same numbers on
#: every backend.
DEFAULT_CHUNK_SIZE = 64

#: Cap on how many scenarios :class:`BatchedVectorBackend` fuses into one
#: kernel call — bounds the transient memory of the fused shock/path
#: arrays, not the result.
DEFAULT_MAX_FUSED = 4096


@dataclass(frozen=True)
class WorkChunk:
    """A contiguous slice ``[start, stop)`` of an item range."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"chunk index must be non-negative, got {self.index}")
        if not 0 <= self.start < self.stop:
            raise ValueError(
                f"need 0 <= start < stop, got [{self.start}, {self.stop})"
            )

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def indices(self) -> slice:
        """The slice selecting this chunk's items from a workload array."""
        return slice(self.start, self.stop)


def partition(
    n_items: int, chunk_size: int = DEFAULT_CHUNK_SIZE, granularity: int = 1
) -> list[WorkChunk]:
    """Cut ``n_items`` into deterministic chunks of at most ``chunk_size``.

    ``granularity`` forces every chunk boundary onto a multiple of the
    given stride — antithetic path pairs, for example, must never be
    split across chunks (``granularity=2``).  ``n_items`` itself must be
    a multiple of ``granularity``.
    """
    if n_items <= 0:
        raise ValueError(f"n_items must be positive, got {n_items}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    if n_items % granularity != 0:
        raise ValueError(
            f"n_items={n_items} is not a multiple of granularity={granularity}"
        )
    stride = max(chunk_size // granularity, 1) * granularity
    chunks = []
    for index, start in enumerate(range(0, n_items, stride)):
        chunks.append(WorkChunk(index, start, min(start + stride, n_items)))
    return chunks


def _seed_sequence_of(
    parent: np.random.Generator | np.random.SeedSequence | int | None,
) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` behind ``parent``."""
    if isinstance(parent, np.random.SeedSequence):
        return parent
    if isinstance(parent, np.random.Generator):
        seq = parent.bit_generator.seed_seq  # type: ignore[attr-defined]
        if seq is None:  # pragma: no cover - legacy bit generators
            seq = np.random.SeedSequence(int(parent.integers(0, 2**63)))
        return seq
    return np.random.SeedSequence(parent)


def chunk_seed_sequences(
    parent: np.random.Generator | np.random.SeedSequence | int | None,
    n_chunks: int,
) -> list[np.random.SeedSequence]:
    """One child seed sequence per chunk, keyed by chunk index.

    Chunk ``j`` always receives child ``j`` of the parent sequence, so
    the mapping is independent of how many workers execute the chunks
    (or of which backend runs them).
    """
    if n_chunks < 0:
        raise ValueError(f"n_chunks must be non-negative, got {n_chunks}")
    return list(_seed_sequence_of(parent).spawn(n_chunks))


# -- worker-side state of the process pool ------------------------------------
#
# The pool initializer installs the (unpickled-once) context into this
# module global; every task the worker executes then reads it instead of
# carrying the context in its own payload.

_WORKER_CONTEXT: Any = None


def _install_worker_context(blob: bytes) -> None:
    """Pool initializer: unpickle the shared context once per worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = pickle.loads(blob)


def _run_context_task(task: tuple[Callable[[Any, Any], Any], Any]) -> Any:
    """Execute one ``fn(context, payload)`` task against the worker context."""
    fn, payload = task
    return fn(_WORKER_CONTEXT, payload)


class ExecutionBackend:
    """Executes independent chunk tasks and preserves chunk order."""

    name: str = "abstract"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = int(chunk_size)

    def map_tasks(
        self,
        fn: Callable[[Any, Any], Any],
        context: Any,
        payloads: Sequence[Any],
    ) -> list[Any]:
        """Apply ``fn(context, payload)`` to every payload, in order.

        ``context`` is the shared, typically large object (the engine);
        payloads carry only per-chunk data.  In-process backends pass the
        live context through; the process pool ships it once per worker.
        """
        return [fn(context, payload) for payload in payloads]

    def describe(self) -> str:
        return f"{self.name}(chunk_size={self.chunk_size})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(chunk_size={self.chunk_size})"


class SerialBackend(ExecutionBackend):
    """Reference backend: one inner simulation per scenario, in-process."""

    name = "serial"


class BatchedVectorBackend(ExecutionBackend):
    """Cross-chunk fusion: many chunks' scenarios in one NumPy call.

    The Monte Carlo engines concatenate all pending chunks' inputs (up to
    :data:`DEFAULT_MAX_FUSED` scenarios) and run one fused kernel call
    instead of one call per chunk, then split the result back along the
    chunk boundaries (checkpointing and rank routing keep working per
    chunk).  The per-scenario random streams are still keyed by scenario
    index and drawn with the same call shapes, so fusion changes Python
    overhead only — never a bit of the result.
    """

    name = "batched"


def _default_pool_workers() -> int:
    """Worker count when the pool backend doesn't pin one explicitly.

    The ``REPRO_EXEC_WORKERS`` environment variable overrides the CPU
    autodetect, so worker-count-sensitive tests (and CI) can exercise
    real pool spread on single-core containers.  An explicit
    ``max_workers`` on the backend always wins over the environment.
    """
    env = os.environ.get("REPRO_EXEC_WORKERS")
    if env:
        workers = int(env)
        if workers < 1:
            raise ValueError(f"REPRO_EXEC_WORKERS must be >= 1, got {env!r}")
        return workers
    return os.cpu_count() or 1


class ProcessPoolBackend(ExecutionBackend):
    """Chunks run as tasks of a :class:`concurrent.futures` process pool.

    The nested engine hands it the batched chunk kernel, one call per
    chunk.  The pool is created per map call and torn down afterwards,
    so the backend object itself stays a picklable bag of settings.
    Chunk functions and payloads must be picklable (module-level
    functions plus plain dataclasses/arrays — the Monte Carlo engines
    satisfy this).

    :meth:`map_tasks` serializes the shared context exactly **once** per
    call and installs it in each worker through the pool initializer;
    per-chunk tasks then carry only their own small payload.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        super().__init__(chunk_size)
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers

    @property
    def effective_workers(self) -> int:
        return self.max_workers if self.max_workers else _default_pool_workers()

    def map_tasks(
        self,
        fn: Callable[[Any, Any], Any],
        context: Any,
        payloads: Sequence[Any],
    ) -> list[Any]:
        payloads = list(payloads)
        if len(payloads) <= 1:
            # One chunk gains nothing from a pool; skip the fork cost.
            return [fn(context, payload) for payload in payloads]
        workers = min(self.effective_workers, len(payloads))
        # Serialized once here; each worker unpickles it once in its
        # initializer.  Chunk tasks never carry the context again.
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_install_worker_context,
            initargs=(blob,),
        ) as pool:
            return list(
                pool.map(_run_context_task, [(fn, p) for p in payloads])
            )

    def describe(self) -> str:
        return (
            f"{self.name}(workers={self.effective_workers}, "
            f"chunk_size={self.chunk_size})"
        )


def backend_from(
    spec: "ExecutionBackend | str | None",
) -> ExecutionBackend:
    """Coerce a backend instance, a spec string, or ``None`` to a backend.

    Spec strings: ``"serial"``, ``"batched"`` and ``"process"``, each
    optionally suffixed with a positive ``:N`` — the chunk size for the
    in-process backends (``"serial:32"``, ``"batched:16"``), the worker
    count for the pool (``"process:4"``).  ``None`` selects the default
    :class:`BatchedVectorBackend`.
    """
    if spec is None:
        return BatchedVectorBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    name, _, arg = str(spec).partition(":")
    name = name.strip().lower()
    number: int | None = None
    if arg:
        try:
            number = int(arg)
        except ValueError:
            raise ValueError(f"non-integer backend argument in {spec!r}") from None
        # A silent fallback would change the chunk size, and with it the
        # random-stream layout the caller asked for.
        if number <= 0:
            raise ValueError(f"backend argument must be positive in {spec!r}")
    if name == "serial":
        return SerialBackend(number or DEFAULT_CHUNK_SIZE)
    if name == "batched":
        return BatchedVectorBackend(number or DEFAULT_CHUNK_SIZE)
    if name == "process":
        return ProcessPoolBackend(max_workers=number)
    raise ValueError(
        f"unknown execution backend {spec!r}; expected serial[:N], "
        "batched[:N] or process[:N]"
    )
