"""Per-layer tracing from outside the program.

The benchmark wraps each layer's public functions -- nothing inside
``src/`` records spans.  Instance methods are wrapped on the objects the
benchmark builds; the classes ``run_simulation`` instantiates on its own
(the spot verifier, the guarded runner, the DISAR master) are wrapped at
class level and restored when the traced run ends.

Spans live in memory as ``[layer, start, end, parent, campaign]`` and
are written out as JSONL at the end.  A layer's self time is its span
time minus the time of its direct child spans, so the self times of all
layers add up to the traced ``run_simulation`` time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.deploy import TransparentDeploySystem
from repro.disar.eeb import EEBType
from repro.disar.master import DisarMasterService
from repro.runtime.runner import DeadlineGuardedRunner
from repro.spot.verify import SpotPlanVerifier

__all__ = ["LAYERS", "Tracer", "block_paths"]

DEPLOY = "core.deploy.run_simulation"
FIT = "core.predictor.fit"
PREDICT = "core.predictor.predict"
SELECT = "core.selection.select"
KB_ADD = "core.knowledge_base.add"
VERIFY = "spot.verify.verify"
RUNNER = "runtime.runner.run"
START = "cloud.cluster.start_cluster"
CAMPAIGN = "cloud.cluster.run_campaign"
EXECUTE = "disar.master.execute"

LAYERS = (DEPLOY, FIT, PREDICT, SELECT, KB_ADD, VERIFY, RUNNER, START, CAMPAIGN, EXECUTE)

#: Layer-specific counters, in report order (unit, per metric).
_COUNTERS: dict[str, tuple[tuple[str, str], ...]] = {
    FIT: (("rows", "count"), ("rows_per_new_row", "ratio")),
    PREDICT: (("rows", "count"),),
    SELECT: (("ms_p50", "ms"), ("explored_fraction", "fraction")),
    VERIFY: (("mdp_states", "count"), ("escalated_fraction", "fraction")),
    RUNNER: (
        ("rescues", "count"),
        ("rescues_without_fault_fraction", "fraction"),
        ("wasted_usd", "USD"),
    ),
    START: (("nodes", "count"),),
    CAMPAIGN: (("virtual_s", "s"),),
    EXECUTE: (
        ("blocks", "count"),
        ("paths", "paths_computed"),
        ("paths_per_s", "paths_computed/s"),
    ),
}


def block_paths(block: Any) -> int:
    """Monte Carlo paths a type-B block simulates, computed from its
    settings: outer paths plus the inner paths of the nested stage (the
    LSMC calibration sample when LSMC is on)."""
    if block.eeb_type is not EEBType.ALM:
        return 0
    s = block.settings
    if s.use_lsmc:
        return s.n_outer + s.lsmc_outer_calibration * (1 + s.n_inner)
    return s.n_outer * (1 + s.n_inner)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.campaign = -1
        self._stack: list[int] = []

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        count: Callable[[dict[str, float], tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call into ``layer``.  A call made
        while the same layer is already the innermost open span (e.g.
        ``predict`` delegating to ``predict_per_model``) is part of that
        span, not a new one."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._stack and self.spans[self._stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [layer, time.perf_counter(), None, parent, self.campaign]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -- instrumentation ---------------------------------------------------

    def instrument(self, system: TransparentDeploySystem) -> None:
        """Wrap the layers of one benchmark-built deploy system."""
        predictor = system.predictor
        system.run_simulation = self.wrap(DEPLOY, system.run_simulation)
        predictor.fit = self.wrap(FIT, predictor.fit, _count_fit)
        predictor.predict_per_model = self.wrap(
            PREDICT, predictor.predict_per_model, _count_one_row
        )
        predictor.predict = self.wrap(PREDICT, predictor.predict, _count_one_row)
        predictor.predict_matrix = self.wrap(
            PREDICT, predictor.predict_matrix, _count_matrix_rows
        )
        system.selector.select = self.wrap(SELECT, system.selector.select, _count_select)
        system.knowledge_base.add = self.wrap(KB_ADD, system.knowledge_base.add)
        manager = system.manager
        manager.start_cluster = self.wrap(START, manager.start_cluster, _count_nodes)
        manager.run_campaign = self.wrap(CAMPAIGN, manager.run_campaign, _count_virtual)

    @contextmanager
    def class_layers(self) -> Iterator[None]:
        """Wrap the classes ``run_simulation`` builds itself; restore them
        on exit."""
        patches = (
            (SpotPlanVerifier, "verify", VERIFY, _count_verify),
            (DeadlineGuardedRunner, "run", RUNNER, _count_runner),
            (DisarMasterService, "execute", EXECUTE, _count_execute),
        )
        originals = [(cls, name, cls.__dict__[name]) for cls, name, _, _ in patches]
        try:
            for cls, name, layer, count in patches:
                setattr(cls, name, self.wrap(layer, getattr(cls, name), count))
            yield
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)

    # -- results -----------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """``layer -> (calls, busy_s, self_s)``."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            entry = totals[layer]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
        return {layer: (c, b, s) for layer, (c, b, s) in totals.items()}

    def metrics(self, campaigns: int, untraced_s: float) -> dict[str, dict[str, Any]]:
        """Every per-layer metric, ``name -> {"value", "unit"}``.

        ``campaigns`` is the number of traced campaigns, each of which adds
        one knowledge-base row; ``untraced_s`` is the ``run_simulation``
        time of the same campaigns with tracing off.
        """
        times = self.layer_times()
        out: dict[str, dict[str, Any]] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = {"value": value, "unit": unit}

        counts = self.counts
        select_ms = [
            1000.0 * (end - start)
            for layer, start, end, _, _ in self.spans
            if layer == SELECT
        ]
        derived = {
            (FIT, "rows_per_new_row"): _ratio(counts[f"{FIT}.rows"], campaigns),
            (SELECT, "ms_p50"): statistics.median(select_ms) if select_ms else 0.0,
            (SELECT, "explored_fraction"): _ratio(
                counts[f"{SELECT}.explored"], times[SELECT][0]
            ),
            (VERIFY, "escalated_fraction"): _ratio(
                counts[f"{VERIFY}.escalated"], times[VERIFY][0]
            ),
            (RUNNER, "rescues_without_fault_fraction"): _ratio(
                counts[f"{RUNNER}.rescues_without_fault"],
                counts[f"{RUNNER}.rescues"],
            ),
            (EXECUTE, "paths_per_s"): _ratio(
                counts[f"{EXECUTE}.paths"], times[EXECUTE][1]
            ),
        }
        for layer in LAYERS:
            calls, busy, self_s = times[layer]
            if layer != DEPLOY:
                put(f"{layer}.calls", calls, "count")
                put(f"{layer}.busy_s", busy, "s")
            put(f"{layer}.self_s", self_s, "s")
            for counter, unit in _COUNTERS.get(layer, ()):
                key = f"{layer}.{counter}"
                value = derived.get((layer, counter), counts[key])
                put(key, value, unit)
        traced_s = times[DEPLOY][1]
        put("trace.overhead_fraction", _ratio(traced_s, untraced_s) - 1.0, "fraction")
        return out

    def write_jsonl(self, path: Path, header: dict[str, Any]) -> None:
        """Header line, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as handle:
            handle.write(json.dumps(header) + "\n")
            for i, (layer, start, end, parent, campaign) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": layer,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "campaign": campaign,
                        }
                    )
                    + "\n"
                )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _count_fit(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"{FIT}.rows"] += result.training_size


def _count_one_row(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"{PREDICT}.rows"] += 1


def _count_matrix_rows(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    features = args[0] if args else kwargs["features"]
    counts[f"{PREDICT}.rows"] += len(features)


def _count_select(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"{SELECT}.explored"] += bool(result.explored)


def _count_verify(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"{VERIFY}.mdp_states"] += result.certificate.n_states
    counts[f"{VERIFY}.escalated"] += bool(result.escalated)


def _count_runner(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"{RUNNER}.rescues"] += result.n_rescues
    if result.n_reclaims == 0 and result.n_faults == 0:
        counts[f"{RUNNER}.rescues_without_fault"] += result.n_rescues
    counts[f"{RUNNER}.wasted_usd"] += result.wasted_cost_usd


def _count_nodes(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"{START}.nodes"] += result.n_nodes


def _count_virtual(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"{CAMPAIGN}.virtual_s"] += result.execution_seconds


def _count_execute(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    # Class-level wrapper: args[0] is the DisarMasterService instance.
    blocks = args[1] if len(args) > 1 else kwargs["blocks"]
    counts[f"{EXECUTE}.blocks"] += len(blocks)
    counts[f"{EXECUTE}.paths"] += sum(block_paths(b) for b in blocks)
