"""The knowledge base of past simulation runs.

"Whenever a simulation is executed on the cloud, the total execution
time is stored into the database along with the values for the above
parameters" (paper, Section III).  Each :class:`RunRecord` couples the
EEB characteristic parameters with the deploy configuration and the
measured wall-clock time; the knowledge base turns the records into the
feature/target matrices the prediction models train on.

The instance type is encoded through its *numeric* attributes (vCPUs and
relative core speed) rather than one-hot, so the models can generalise
across architectures that they have seen few samples for — important at
the beginning of the system's lifetime, when the paper notes higher
errors for "configurations with a small number of samples in the
training dataset".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cloud.instance_types import InstanceType, get_instance_type
from repro.disar.database import DisarDatabase
from repro.disar.eeb import CharacteristicParameters
from repro.ml.base import FloatArray

__all__ = ["RunRecord", "KnowledgeBase"]

_TABLE = "knowledge_base"


@dataclass(frozen=True)
class RunRecord:
    """One completed cloud run."""

    params: CharacteristicParameters
    instance_type: str
    n_nodes: int
    execution_seconds: float
    cost_usd: float = float("nan")
    predicted_seconds: float = float("nan")
    virtual_timestamp: float = 0.0
    #: The run survived faults (spot reclaim, retried dispatches); its
    #: timing is *not* a clean sample of the configuration's speed, and
    #: the planner can weight or filter such rows when training.
    degraded: bool = False
    #: At least one block's proxy tier breached its validation gate and
    #: fell back to exact valuation: the figures are correct, but the
    #: timing reflects exact-tier cost, not the proxy speedup the tier
    #: planner priced.
    proxy_fallback: bool = False
    #: Purchasing market of the fleet (``"on_demand"`` or ``"spot"``).
    market: str = "on_demand"
    #: Spot VMs reclaimed mid-run; exposure data the spot verifier uses
    #: to calibrate the reclaim hazard (see :meth:`KnowledgeBase.reclaim_stats`).
    n_reclaims: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.execution_seconds <= 0:
            raise ValueError(
                f"execution_seconds must be positive, got {self.execution_seconds}"
            )
        # Validate the instance type exists in the catalog.
        get_instance_type(self.instance_type)


def encode_features(
    params: CharacteristicParameters, instance_type: InstanceType, n_nodes: int
) -> FloatArray:
    """Feature vector of one (f, m, n) combination.

    Order: the four characteristic parameters, then vCPUs and relative
    core speed of the architecture, then the node count.
    """
    return np.concatenate(
        [
            params.as_features(),
            [
                float(instance_type.vcpus),
                float(instance_type.relative_core_speed),
                float(n_nodes),
            ],
        ]
    )


FEATURE_NAMES: list[str] = CharacteristicParameters.feature_names() + [
    "vcpus",
    "core_speed",
    "n_nodes",
]


class KnowledgeBase:
    """Stores run records and exposes training matrices."""

    def __init__(self, database: DisarDatabase | None = None) -> None:
        self.database = database if database is not None else DisarDatabase()
        self.database.create_table(_TABLE)

    def add(self, record: RunRecord) -> int:
        """Store one run; returns the database row id."""
        return self.database.insert(
            _TABLE,
            {
                "n_contracts": record.params.n_contracts,
                "max_horizon": record.params.max_horizon,
                "n_fund_assets": record.params.n_fund_assets,
                "n_risk_factors": record.params.n_risk_factors,
                "instance_type": record.instance_type,
                "n_nodes": record.n_nodes,
                "execution_seconds": record.execution_seconds,
                "cost_usd": record.cost_usd,
                "predicted_seconds": record.predicted_seconds,
                "virtual_timestamp": record.virtual_timestamp,
                "degraded": record.degraded,
                "proxy_fallback": record.proxy_fallback,
                "market": record.market,
                "n_reclaims": record.n_reclaims,
            },
        )

    def add_encoded(
        self,
        features: FloatArray,
        execution_seconds: float,
        label: str = "mixed",
    ) -> int:
        """Store a run by its raw feature encoding.

        Used for configurations the structured :class:`RunRecord` cannot
        express — notably heterogeneous deploys, whose mixed clusters
        are encoded with
        :func:`repro.core.hetero_selection.encode_mixed_features`.  The
        feature vector must follow :data:`FEATURE_NAMES`.
        """
        features = np.asarray(features, dtype=float)
        if features.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} features, got shape "
                f"{features.shape}"
            )
        if execution_seconds <= 0:
            raise ValueError(
                f"execution_seconds must be positive, got {execution_seconds}"
            )
        return self.database.insert(
            _TABLE,
            {
                "encoded": [float(v) for v in features],
                "execution_seconds": float(execution_seconds),
                "label": label,
            },
        )

    def __len__(self) -> int:
        return self.database.count(_TABLE)

    def records(self, instance_type: str | None = None) -> list[RunRecord]:
        """All *structured* runs, optionally filtered by instance type.

        Encoded rows (heterogeneous deploys) are not representable as
        :class:`RunRecord` and are excluded here; they still count in
        ``len()`` and in :meth:`training_matrices`.
        """
        rows = (
            self.database.query(_TABLE, instance_type=instance_type)
            if instance_type is not None
            else self.database.all(_TABLE)
        )
        return [
            self._row_to_record(row) for row in rows if "encoded" not in row
        ]

    @staticmethod
    def _row_to_record(row: dict[str, Any]) -> RunRecord:
        return RunRecord(
            params=CharacteristicParameters(
                n_contracts=row["n_contracts"],
                max_horizon=row["max_horizon"],
                n_fund_assets=row["n_fund_assets"],
                n_risk_factors=row["n_risk_factors"],
            ),
            instance_type=row["instance_type"],
            n_nodes=row["n_nodes"],
            execution_seconds=row["execution_seconds"],
            cost_usd=row.get("cost_usd", float("nan")),
            predicted_seconds=row.get("predicted_seconds", float("nan")),
            virtual_timestamp=row.get("virtual_timestamp", 0.0),
            degraded=bool(row.get("degraded", False)),
            proxy_fallback=bool(row.get("proxy_fallback", False)),
            market=str(row.get("market", "on_demand")),
            n_reclaims=int(row.get("n_reclaims", 0)),
        )

    def training_matrices(self) -> tuple[FloatArray, FloatArray]:
        """``(features, execution_seconds)`` over the whole base.

        Features follow :data:`FEATURE_NAMES`; structured and encoded
        (heterogeneous) rows train together.
        """
        rows = self.database.all(_TABLE)
        if not rows:
            raise ValueError("knowledge base is empty")
        features = np.empty((len(rows), len(FEATURE_NAMES)))
        targets = np.empty(len(rows))
        for i, row in enumerate(rows):
            if "encoded" in row:
                features[i] = row["encoded"]
            else:
                record = self._row_to_record(row)
                features[i] = encode_features(
                    record.params,
                    get_instance_type(record.instance_type),
                    record.n_nodes,
                )
            targets[i] = row["execution_seconds"]
        return features, targets

    def sample_weights(self, degraded_weight: float = 0.5) -> FloatArray:
        """Per-row training weights, aligned with :meth:`training_matrices`.

        Rows flagged ``degraded`` — runs that survived faults, whose
        timing includes retry/recovery overhead and therefore overstates
        the configuration's clean execution time — get ``degraded_weight``;
        clean rows (and encoded heterogeneous rows, which carry no flag)
        get ``1.0``.
        """
        if not 0.0 <= degraded_weight <= 1.0:
            raise ValueError(
                f"degraded_weight must be in [0, 1], got {degraded_weight}"
            )
        rows = self.database.all(_TABLE)
        if not rows:
            raise ValueError("knowledge base is empty")
        return np.array(
            [
                degraded_weight if row.get("degraded", False) else 1.0
                for row in rows
            ]
        )

    def degraded_count(self) -> int:
        """Structured runs flagged as degraded by fault recovery."""
        return sum(record.degraded for record in self.records())

    def proxy_fallback_count(self) -> int:
        """Structured runs whose proxy tier fell back to exact valuation."""
        return sum(record.proxy_fallback for record in self.records())

    def reclaim_stats(self) -> tuple[int, float]:
        """``(total reclaims, spot instance-seconds of exposure)`` over
        the structured spot runs.

        Exposure approximates each run's spot fleet-time as
        ``execution_seconds * n_nodes``; together with the reclaim count
        this is the sufficient statistic for the hazard-rate calibration
        in :meth:`repro.cloud.spot.SpotMarketModel.calibrated_base_hazard`.
        """
        reclaims = 0
        exposure = 0.0
        # Summed over the raw spot rows in record order, so the verifier
        # can call this per campaign without building a RunRecord per row.
        for row in self.database.query(_TABLE, market="spot"):
            reclaims += int(row.get("n_reclaims", 0))
            exposure += row["execution_seconds"] * row["n_nodes"]
        return reclaims, exposure

    def per_instance_counts(self) -> dict[str, int]:
        """Sample counts per instance type (coverage diagnostics)."""
        counts: dict[str, int] = {}
        for record in self.records():
            counts[record.instance_type] = counts.get(record.instance_type, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnowledgeBase(n_runs={len(self)})"
