"""Tests for the predictor family."""

import numpy as np
import pytest

from repro.cloud.instance_types import get_instance_type
from repro.core.knowledge_base import KnowledgeBase, encode_features
from repro.core.predictor import PredictorFamily


class TestConstruction:
    def test_default_six_members(self):
        family = PredictorFamily()
        assert set(family.model_names) == {"MLP", "RT", "RF", "IBk", "KStar", "DT"}

    def test_member_subset(self):
        family = PredictorFamily(members=["RF", "IBk"])
        assert family.model_names == ["RF", "IBk"]

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            PredictorFamily(members=["SVM"])

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PredictorFamily(models={})


class TestPrediction:
    def test_unfitted_rejected(self, sample_params):
        family = PredictorFamily()
        with pytest.raises(RuntimeError, match="fitted"):
            family.predict(sample_params, get_instance_type("c3.4"), 1)

    def test_per_model_keys(self, fitted_family, sample_params):
        per_model = fitted_family.predict_per_model(
            sample_params, get_instance_type("c3.4"), 2
        )
        assert set(per_model) == set(fitted_family.model_names)
        assert all(v >= 1.0 for v in per_model.values())

    def test_ensemble_is_mean_of_members(self, fitted_family, sample_params):
        it = get_instance_type("c4.8")
        per_model = fitted_family.predict_per_model(sample_params, it, 3)
        ensemble = fitted_family.predict(sample_params, it, 3)
        assert ensemble == pytest.approx(np.mean(list(per_model.values())))

    def test_predictions_positive(self, fitted_family, sample_params):
        for short in ("m4.4", "m4.10", "c3.4", "c3.8", "c4.4", "c4.8"):
            for n in (1, 4, 8):
                t = fitted_family.predict(
                    sample_params, get_instance_type(short), n
                )
                assert t >= 1.0

    def test_learns_node_scaling(self, fitted_family, sample_params):
        # A well-trained family must predict that 8 nodes are faster
        # than 1 node for a big workload.
        it = get_instance_type("m4.4")
        t1 = fitted_family.predict(sample_params, it, 1)
        t8 = fitted_family.predict(sample_params, it, 8)
        assert t8 < t1

    def test_learns_workload_scaling(self, fitted_family):
        from repro.disar.eeb import CharacteristicParameters

        it = get_instance_type("c3.4")
        small = CharacteristicParameters(10, 8, 60, 3)
        large = CharacteristicParameters(280, 38, 380, 6)
        assert fitted_family.predict(large, it, 2) > fitted_family.predict(
            small, it, 2
        )

    def test_matrix_api_consistent(self, fitted_family, sample_params):
        it = get_instance_type("c3.8")
        features = encode_features(sample_params, it, 2)[np.newaxis, :]
        matrix = fitted_family.evaluate(features).mean
        scalar = fitted_family.predict(sample_params, it, 2)
        assert matrix[0] == scalar

    def test_training_size_tracked(self, fitted_family, populated_kb):
        assert fitted_family.training_size == len(populated_kb)

    def test_refit_replaces_models(self, populated_kb, sample_params):
        family = PredictorFamily(members=["IBk"], seed=0)
        family.fit(populated_kb)
        first = family.predict(sample_params, get_instance_type("c3.4"), 1)
        # Refit on a shifted subset: predictions must change.
        features, targets = populated_kb.training_matrices()
        family.fit_arrays(features[:50], targets[:50] * 2.0)
        second = family.predict(sample_params, get_instance_type("c3.4"), 1)
        assert first != second
