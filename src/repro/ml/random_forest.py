"""Random Forest regressor (Breiman 2001; Weka ``RandomForest`` equivalent).

Bagged :class:`repro.ml.random_tree.RandomTree` learners: each tree is
grown on a bootstrap resample of the training data with random per-node
feature subsets, and predictions are averaged.  The fitted trees' node
arrays are concatenated into one table, so a prediction walks every
tree for every row in one pass.  Weka 3.6/3.7 (the version
contemporary with the paper) defaulted to 10 trees; we default to a more
robust 30 while keeping the parameter exposed.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.random_tree import RandomTree, TreeArrays, walk_trees

__all__ = ["RandomForest"]


class RandomForest(Regressor):
    """Bootstrap-aggregated random trees."""

    name = "RF"

    def __init__(
        self,
        n_trees: int = 30,
        k_features: int | None = None,
        min_leaf: int = 1,
        max_depth: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.k_features = k_features
        self.min_leaf = int(min_leaf)
        self.max_depth = max_depth

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForest":
        features, targets = self._validate_fit_args(features, targets)
        rng = np.random.default_rng(self.seed)
        n = len(features)
        self._trees: list[RandomTree] = []
        self._oob_error: float | None = None
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n, dtype=int)
        for t in range(self.n_trees):
            sample = rng.integers(0, n, n)
            tree = RandomTree(
                k_features=self.k_features,
                min_leaf=self.min_leaf,
                max_depth=self.max_depth,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(features[sample], targets[sample])
            self._trees.append(tree)
            out_of_bag = np.setdiff1d(np.arange(n), sample, assume_unique=False)
            if out_of_bag.size:
                oob_sum[out_of_bag] += tree.predict(features[out_of_bag])
                oob_count[out_of_bag] += 1
        covered = oob_count > 0
        if covered.any():
            oob_pred = oob_sum[covered] / oob_count[covered]
            self._oob_error = float(
                np.sqrt(np.mean((oob_pred - targets[covered]) ** 2))
            )
        self._arrays = TreeArrays.concatenate([tree.arrays for tree in self._trees])
        self._fitted = True
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = self._validate_predict_args(features)
        # All trees walk at once; their outputs are then added up in
        # tree order, so the mean is the same float as tree-by-tree.
        predictions = np.zeros(len(features))
        for tree_values in walk_trees(self._arrays, features):
            predictions += tree_values
        return predictions / len(self._trees)

    @property
    def oob_rmse(self) -> float | None:
        """Out-of-bag RMSE estimated during fit (``None`` if unavailable)."""
        if not self._fitted:
            raise RuntimeError("forest must be fitted first")
        return self._oob_error
