"""The prediction-model family ``P`` of the paper.

One prediction model ``p_x : M x N x F -> R+`` per ML algorithm
``x in {MLP, RT, RF, IBk, KStar, DT}``, all trained on the same
knowledge base.  The deploy-time estimate for a configuration is the
*average* of all the models' predictions, which "allows to reduce the
impact of prediction errors by some of the models, a situation which is
expected only at the beginning of the system's lifetime" (Section III).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.cloud.instance_types import InstanceType
from repro.core.knowledge_base import KnowledgeBase, encode_features
from repro.disar.eeb import CharacteristicParameters
from repro.ml import default_model_family
from repro.ml.base import FloatArray, Regressor

__all__ = ["EnsembleEvaluation", "PredictorFamily"]


class EnsembleEvaluation(NamedTuple):
    """The family's verdict on a batch of feature rows."""

    #: ``p_x`` per member ``x``, one entry per row.
    per_model: dict[str, FloatArray]
    #: Ensemble average per row: the time estimate of Algorithm 1.
    mean: FloatArray
    #: Disagreement (standard deviation) across the members per row.
    std: FloatArray


class PredictorFamily:
    """The six per-algorithm execution-time predictors, plus the ensemble.

    Parameters
    ----------
    models:
        Mapping from algorithm name to an (unfitted) regressor; ``None``
        builds the paper's default six-member family.
    members:
        Optional subset of model names to use (ablation studies restrict
        the family to single members).
    degraded_weight:
        Training weight of knowledge-base rows flagged ``degraded``
        (runs that survived faults and therefore overstate the clean
        execution time of their configuration).  ``1.0`` disables the
        down-weighting; ``0.0`` drops degraded rows entirely.
    """

    def __init__(
        self,
        models: dict[str, Regressor] | None = None,
        members: list[str] | None = None,
        seed: int = 0,
        degraded_weight: float = 0.5,
    ) -> None:
        models = models if models is not None else default_model_family(seed=seed)
        if members is not None:
            unknown = set(members) - set(models)
            if unknown:
                raise ValueError(f"unknown model names: {sorted(unknown)}")
            models = {name: models[name] for name in members}
        if not models:
            raise ValueError("predictor family needs at least one model")
        if not 0.0 <= degraded_weight <= 1.0:
            raise ValueError(
                f"degraded_weight must be in [0, 1], got {degraded_weight}"
            )
        self._models = dict(models)
        self._fitted = False
        self._train_size = 0
        self._fit_count = 0
        self.degraded_weight = float(degraded_weight)

    @property
    def model_names(self) -> list[str]:
        return list(self._models)

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def training_size(self) -> int:
        """Number of knowledge-base samples at the last (re)training."""
        return self._train_size

    @property
    def fit_count(self) -> int:
        """Number of (re)trainings so far; predictions cached under one
        count are stale under any other."""
        return self._fit_count

    # -- training ---------------------------------------------------------------

    def fit(self, knowledge_base: KnowledgeBase) -> "PredictorFamily":
        """(Re)train every member on the full knowledge base.

        Called after every completed simulation — the paper's
        self-optimizing re-training step.  Rows flagged degraded are
        down-weighted by :attr:`degraded_weight`.
        """
        features, targets = knowledge_base.training_matrices()
        weights = knowledge_base.sample_weights(self.degraded_weight)
        return self.fit_arrays(features, targets, weights=weights)

    def fit_arrays(
        self,
        features: FloatArray,
        targets: FloatArray,
        weights: FloatArray | None = None,
    ) -> "PredictorFamily":
        """(Re)train on explicit matrices (used by the benchmarks).

        ``weights`` applies per-sample training weights by deterministic
        integer replication (each row is repeated proportionally to its
        weight, scaled so the smallest positive weight maps to one copy;
        zero-weight rows are dropped).  Replication keeps the member
        models' plain ``fit(X, y)`` interface — none of them accept a
        sample-weight argument — and is skipped entirely when the
        weights are uniform, so unweighted training is bit-identical to
        the pre-weighting behaviour.
        """
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(targets),):
                raise ValueError(
                    f"weights must have shape ({len(targets)},), got "
                    f"{weights.shape}"
                )
            if np.any(weights < 0.0):
                raise ValueError("weights must be non-negative")
            positive = weights[weights > 0.0]
            if positive.size == 0:
                raise ValueError("at least one weight must be positive")
            if not np.all(weights == weights[0]):
                counts = np.rint(weights / positive.min()).astype(int)
                features = np.repeat(
                    np.asarray(features, dtype=float), counts, axis=0
                )
                targets = np.repeat(np.asarray(targets, dtype=float), counts)
        fresh = {name: model.clone() for name, model in self._models.items()}
        for model in fresh.values():
            model.fit(features, targets)
        self._models = fresh
        self._fitted = True
        self._train_size = len(targets)
        self._fit_count += 1
        return self

    # -- prediction ---------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("predictor family must be fitted first")

    def evaluate(self, features: FloatArray) -> EnsembleEvaluation:
        """Per-member, mean and std predictions for every feature row,
        one :meth:`predict_matrix` call for the whole batch.

        The members' predictions are stacked one column per member, so
        each row's mean and std reduce exactly as they would on that
        row's predictions alone.
        """
        per_model = self.predict_matrix(features)
        values = np.column_stack(list(per_model.values()))
        return EnsembleEvaluation(
            per_model, values.mean(axis=1), values.std(axis=1)
        )

    def predict_per_model(
        self,
        params: CharacteristicParameters,
        instance_type: InstanceType,
        n_nodes: int,
    ) -> dict[str, float]:
        """``p_x(m, n, f)`` for every member ``x``."""
        features = encode_features(params, instance_type, n_nodes)
        per_model = self.evaluate(features[np.newaxis, :]).per_model
        return {name: float(values[0]) for name, values in per_model.items()}

    def predict(
        self,
        params: CharacteristicParameters,
        instance_type: InstanceType,
        n_nodes: int,
    ) -> float:
        """The ensemble-average time estimate used by Algorithm 1."""
        features = encode_features(params, instance_type, n_nodes)
        return float(self.evaluate(features[np.newaxis, :]).mean[0])

    def predict_matrix(self, features: FloatArray) -> dict[str, FloatArray]:
        """Batch per-model predictions on raw feature rows.

        Predictions are floored at a small positive value: execution
        times are positive by construction.
        """
        self._require_fitted()
        features = np.asarray(features, dtype=float)
        return {
            name: np.clip(model.predict(features), 1.0, None)
            for name, model in self._models.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"fitted on {self._train_size}" if self._fitted else "unfitted"
        return f"PredictorFamily({self.model_names}, {state})"
