"""Performance-regression harness for the Monte Carlo hot paths.

``repro bench`` (default target ``nested``) times the three kernels the
execution backends accelerate —

- ``nested`` — the full two-stage nested simulation
  (:meth:`~repro.montecarlo.nested.NestedMonteCarloEngine.run`);
- ``lsmc`` — the LSMC proxy valuation (calibration nested sample plus
  regression evaluation);
- ``valuation`` — the single-stage time-0 valuation
  (:meth:`~repro.montecarlo.nested.NestedMonteCarloEngine.value_at_zero`)

— once per execution backend, and reports wall time, throughput
(inner paths per second), speedup versus the serial reference and a
result checksum per backend.  Identical checksums across backends are
the determinism contract of :mod:`repro.exec.backends` made visible in
the benchmark output; a mismatch is a correctness bug, not noise.

The JSON report (``BENCH_nested.json`` by default) is machine-readable
so CI can smoke-run the harness and later sessions can diff numbers.
Each :meth:`BenchReport.write_json` additionally *appends* a timestamped
entry to the file's ``history`` list (keeping the latest-run shape at
the top level), turning the file into a throughput trajectory;
:func:`compare_against` turns that trajectory into a regression gate —
``repro bench --against`` exits non-zero when paths/sec drops beyond a
tolerance versus the baseline's last entry.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.exec.backends import backend_from

__all__ = [
    "KernelTiming",
    "BenchReport",
    "run_nested_bench",
    "history_entry_from",
    "compare_against",
    "median_wall",
]

#: Backends every bench run compares by default.  All of them use the
#: same chunk size, which the determinism contract requires for
#: bit-identical results.
DEFAULT_BACKENDS = ("serial", "batched", "process")

#: Outer-scenario chunk size the bench applies uniformly to every
#: backend on the nested and LSMC kernels.  Production campaigns pick
#: fine-grained chunks for checkpoint/rescue granularity (a
#: deadline-guard rescue resumes per completed chunk), so that is the
#: operating point worth measuring — and the one where the batched
#: backend's cross-chunk fusion actually has per-call overhead to fuse
#: away.
DEFAULT_BENCH_CHUNK = 8

#: Chunk size for the ``valuation`` kernel, which chunks *inner paths*
#: rather than outer scenarios — checkpoint granularity does not apply
#: there, so it keeps the coarse default.
DEFAULT_VALUE_CHUNK = 64

#: Default fractional paths/sec drop tolerated by the regression gate.
DEFAULT_REGRESSION_TOLERANCE = 0.25

#: Timed runs per kernel for :func:`median_wall`.
TIMING_REPEATS = 3

_T = TypeVar("_T")


@dataclass
class KernelTiming:
    """Wall-clock measurement of one kernel on one backend."""

    kernel: str
    backend: str
    backend_detail: str
    wall_seconds: float
    work_units: int
    checksum: float
    speedup_vs_serial: float | None = None

    @property
    def paths_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.work_units / self.wall_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "backend": self.backend,
            "backend_detail": self.backend_detail,
            "wall_seconds": self.wall_seconds,
            "work_units": self.work_units,
            "paths_per_second": self.paths_per_second,
            "speedup_vs_serial": self.speedup_vs_serial,
            "checksum": self.checksum,
        }


@dataclass
class BenchReport:
    """All timings of one ``repro bench`` invocation."""

    config: dict[str, Any]
    timings: list[KernelTiming] = field(default_factory=list)

    def kernels(self) -> list[str]:
        seen: list[str] = []
        for timing in self.timings:
            if timing.kernel not in seen:
                seen.append(timing.kernel)
        return seen

    def of_kernel(self, kernel: str) -> list[KernelTiming]:
        return [t for t in self.timings if t.kernel == kernel]

    def identical_across_backends(self, kernel: str) -> bool:
        """Whether every backend produced the same checksum bit for bit."""
        checksums = {t.checksum for t in self.of_kernel(kernel)}
        return len(checksums) <= 1

    def best_speedup(self, kernel: str) -> float | None:
        speedups = [
            t.speedup_vs_serial
            for t in self.of_kernel(kernel)
            if t.speedup_vs_serial is not None
        ]
        return max(speedups) if speedups else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "timings": [t.to_dict() for t in self.timings],
            "identical_across_backends": {
                kernel: self.identical_across_backends(kernel)
                for kernel in self.kernels()
            },
            "best_speedup": {
                kernel: self.best_speedup(kernel) for kernel in self.kernels()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write_json(self, path: str, history: bool = True) -> None:
        """Write the report, appending this run to the file's trajectory.

        The latest run keeps the flat top-level shape (``config`` /
        ``timings`` / ...) for compatibility; ``history`` accumulates one
        compact timestamped entry per run, carried over from whatever the
        file held before.  A pre-trajectory file (timings but no
        ``history``) is folded in as the first entry, so upgrading never
        loses the previous measurement.
        """
        payload = self.to_dict()
        payload["timestamp"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        if history:
            prior: list[dict[str, Any]] = []
            if os.path.exists(path):
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        previous = json.load(handle)
                except (OSError, json.JSONDecodeError):
                    previous = {}
                prior = list(previous.get("history", []))
                if not prior and previous.get("timings"):
                    prior = [history_entry_from(previous)]
            payload["history"] = prior + [history_entry_from(payload)]
        # Atomic write: the bench history is the regression gate's input,
        # so a crash mid-write must never leave a torn file behind.
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp_path, path)

    def to_text(self) -> str:
        lines = ["Execution-backend benchmark (nested Monte Carlo hot paths)"]
        lines.append(
            "config: "
            + ", ".join(f"{key}={value}" for key, value in self.config.items())
        )
        header = (
            f"{'kernel':<10} {'backend':<10} {'wall [s]':>9} "
            f"{'paths/s':>12} {'speedup':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for timing in self.timings:
            speedup = (
                f"{timing.speedup_vs_serial:7.2f}x"
                if timing.speedup_vs_serial is not None
                else "     ref"
            )
            lines.append(
                f"{timing.kernel:<10} {timing.backend:<10} "
                f"{timing.wall_seconds:9.3f} {timing.paths_per_second:12.0f} "
                f"{speedup}"
            )
        for kernel in self.kernels():
            status = (
                "bit-identical"
                if self.identical_across_backends(kernel)
                else "MISMATCH (determinism bug!)"
            )
            lines.append(f"{kernel}: results across backends are {status}")
        return "\n".join(lines)


def history_entry_from(payload: dict[str, Any]) -> dict[str, Any]:
    """Compact trajectory entry for one report payload.

    ``{"timestamp", "config", "kernels": {kernel: {backend: metrics}}}``
    — the shape :func:`compare_against` consumes.  Works on both current
    payloads and pre-trajectory files (whose ``timestamp`` is absent).
    """
    kernels: dict[str, dict[str, Any]] = {}
    for timing in payload.get("timings", []):
        kernels.setdefault(timing["kernel"], {})[timing["backend"]] = {
            "wall_seconds": timing["wall_seconds"],
            "paths_per_second": timing["paths_per_second"],
            "speedup_vs_serial": timing["speedup_vs_serial"],
            "checksum": timing["checksum"],
        }
    return {
        "timestamp": payload.get("timestamp"),
        "config": payload.get("config", {}),
        "kernels": kernels,
    }


def compare_against(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_REGRESSION_TOLERANCE,
) -> list[dict[str, Any]]:
    """Throughput regressions of ``current`` versus a baseline payload.

    The baseline's most recent trajectory entry (or its top-level
    timings, for pre-trajectory files) is compared kernel-by-kernel and
    backend-by-backend; a pair regresses when its paths/sec dropped by
    more than ``tolerance`` (fractional).  Pairs missing on either side
    are skipped — adding or removing a backend is not a regression — but
    a baseline sharing no pair at all raises :class:`ValueError`: a gate
    that compares nothing must not pass.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    history = baseline.get("history") or []
    reference = history[-1] if history else history_entry_from(baseline)
    measured = history_entry_from(current)
    regressions: list[dict[str, Any]] = []
    shared = 0
    for kernel, backends in measured["kernels"].items():
        for backend, metrics in backends.items():
            before = reference["kernels"].get(kernel, {}).get(backend)
            if before is None:
                continue
            shared += 1
            old_rate = float(before["paths_per_second"])
            new_rate = float(metrics["paths_per_second"])
            if old_rate <= 0.0:
                continue
            drop = 1.0 - new_rate / old_rate
            if drop > tolerance:
                regressions.append(
                    {
                        "kernel": kernel,
                        "backend": backend,
                        "baseline_paths_per_second": old_rate,
                        "current_paths_per_second": new_rate,
                        "drop": drop,
                        "tolerance": tolerance,
                    }
                )
    if shared == 0:
        raise ValueError(
            "the baseline shares no (kernel, backend) pair with this run"
        )
    return regressions


def median_wall(run: Callable[[], _T]) -> tuple[float, _T]:
    """``(median wall seconds, result)`` over :data:`TIMING_REPEATS` runs.

    The gate then compares typical runs rather than one noisy sample.
    Every caller's kernel is deterministic at a fixed seed, so each
    repetition returns the same result; the last one is kept.
    """
    walls = []
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls), result


def _time_kernel(fn: Callable[[], float]) -> tuple[float, float]:
    """Run ``fn`` once; return ``(wall_seconds, checksum)``."""
    start = time.perf_counter()
    checksum = fn()
    return time.perf_counter() - start, checksum


def run_nested_bench(
    n_outer: int = 256,
    n_inner: int = 40,
    value_paths: int = 4096,
    lsmc_calibration: int = 64,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    seed: int = 0,
    smoke: bool = False,
    chunk_size: int = DEFAULT_BENCH_CHUNK,
    value_chunk_size: int = DEFAULT_VALUE_CHUNK,
) -> BenchReport:
    """Time the nested / LSMC / valuation kernels across backends.

    ``smoke=True`` shrinks every sample size so the whole sweep finishes
    in seconds — the CI smoke job uses it to catch wiring regressions,
    not to measure speedups.

    ``chunk_size`` applies to *every* backend: the determinism contract
    makes results a function of ``(seed, chunk_size)``, so a uniform
    chunk size is what keeps the cross-backend checksums comparable.
    The nested and LSMC kernels chunk outer scenarios and use
    ``chunk_size``; the valuation kernel chunks inner paths and uses the
    coarser ``value_chunk_size`` (fine chunks are a checkpoint-rescue
    concession that single-stage valuation does not need).
    """
    # Imported lazily: the engines import repro.exec.backends, so a
    # module-level import here would be circular.
    from repro.montecarlo.lsmc import LSMCEngine
    from repro.montecarlo.nested import NestedMonteCarloEngine
    from repro.workload.portfolio_gen import PortfolioGenerator

    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if value_chunk_size <= 0:
        raise ValueError(
            f"value_chunk_size must be positive, got {value_chunk_size}"
        )
    if smoke:
        n_outer, n_inner = min(n_outer, 32), min(n_inner, 8)
        value_paths = min(value_paths, 256)
        lsmc_calibration = min(lsmc_calibration, 16)
    if lsmc_calibration > n_outer:
        raise ValueError(
            f"lsmc_calibration={lsmc_calibration} exceeds n_outer={n_outer}"
        )

    # A mid-size synthetic workload: heterogeneous contracts, two risky
    # asset classes, full driver set (rate/equities/fx/credit).
    portfolio = PortfolioGenerator(
        n_contracts_range=(16, 17),
        horizon_range=(12, 20),
        fund_positions_range=(40, 41),
        n_equities_range=(2, 2),
        seed=seed,
    ).generate("bench")

    report = BenchReport(
        config={
            "n_outer": n_outer,
            "n_inner": n_inner,
            "value_paths": value_paths,
            "lsmc_calibration": lsmc_calibration,
            "seed": seed,
            "smoke": smoke,
            "chunk_size": chunk_size,
            "value_chunk_size": value_chunk_size,
            "n_contracts": len(portfolio.contracts),
            "horizon": max(c.term for c in portfolio.contracts),
            "n_risk_factors": portfolio.spec.n_financial_drivers,
        }
    )

    serial_walls: dict[str, float] = {}
    for backend_spec in backends:
        backend = backend_from(backend_spec)
        # Uniform chunking across the sweep (specs like "process:2" keep
        # their worker count; only the chunk size is normalised).
        backend.chunk_size = chunk_size
        engine = NestedMonteCarloEngine(
            portfolio.spec, portfolio.fund, portfolio.contracts, backend=backend
        )
        value_backend = backend_from(backend_spec)
        value_backend.chunk_size = value_chunk_size
        value_engine = NestedMonteCarloEngine(
            portfolio.spec,
            portfolio.fund,
            portfolio.contracts,
            backend=value_backend,
        )

        def run_nested() -> float:
            result = engine.run(n_outer, n_inner, rng=seed)
            return float(np.sum(result.outer_values))

        def run_lsmc() -> float:
            result = LSMCEngine(engine).run(
                n_outer=n_outer,
                n_outer_cal=lsmc_calibration,
                n_inner_cal=n_inner,
                rng=seed,
            )
            return float(np.sum(result.outer_values))

        def run_valuation() -> float:
            return value_engine.value_at_zero(value_paths, rng=seed)

        kernel_work = {
            "nested": (run_nested, n_outer * n_inner),
            "lsmc": (run_lsmc, lsmc_calibration * n_inner),
            "valuation": (run_valuation, value_paths),
        }
        for kernel, (fn, work) in kernel_work.items():
            wall, checksum = _time_kernel(fn)
            speedup: float | None = None
            if backend.name == "serial":
                serial_walls[kernel] = wall
            elif kernel in serial_walls and wall > 0.0:
                speedup = serial_walls[kernel] / wall
            report.timings.append(
                KernelTiming(
                    kernel=kernel,
                    backend=backend.name,
                    backend_detail=backend.describe(),
                    wall_seconds=wall,
                    work_units=work,
                    checksum=checksum,
                    speedup_vs_serial=speedup,
                )
            )
    return report
