"""Scalar reference implementations of the tree kernels.

:class:`RecursiveRandomTree` grows linked node objects and walks them
one row at a time; :class:`RecursiveRandomForest` bags those trees and
adds their predictions tree by tree.  They are the straightforward
form of :class:`repro.ml.random_tree.RandomTree` and
:class:`repro.ml.random_forest.RandomForest`, which grow flat node
arrays and walk every tree for every row at once.  The properties in
``test_tree_kernels.py`` hold the array kernels to these oracles
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.random_forest import RandomForest
from repro.ml.random_tree import RandomTree


@dataclass
class Node:
    """A tree node; leaves carry a prediction, internal nodes a split."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RecursiveRandomTree(RandomTree):
    """The random tree as linked nodes, walked row by row.

    Split search is the production ``_best_split``, so both trees draw
    the same random attribute subsets in the same order.
    """

    def fit(self, features, targets):
        features, targets = self._validate_fit_args(features, targets)
        self._rng = np.random.default_rng(self.seed)
        d = features.shape[1]
        self._k = self.k_features or max(1, int(np.log2(d)) + 1)
        self._k = min(self._k, d)
        self._root = self._grow_node(features, targets, depth=0)
        self._fitted = True
        return self

    def _grow_node(self, features, targets, depth):
        prediction = float(targets.mean())
        if (
            len(targets) < 2 * self.min_leaf
            or np.ptp(targets) < 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return Node(prediction=prediction)
        split = self._best_split(features, targets)
        if split is None:
            return Node(prediction=prediction)
        feature, threshold, _ = split
        mask = features[:, feature] <= threshold
        if not mask.any() or mask.all():
            return Node(prediction=prediction)
        return Node(
            prediction=prediction,
            feature=feature,
            threshold=threshold,
            left=self._grow_node(features[mask], targets[mask], depth + 1),
            right=self._grow_node(features[~mask], targets[~mask], depth + 1),
        )

    def predict(self, features):
        features = self._validate_predict_args(features)
        out = np.empty(len(features))
        for i, row in enumerate(features):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def depth(self) -> int:
        def _depth(node: Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)

    def n_leaves(self) -> int:
        def _count(node: Node) -> int:
            if node.is_leaf:
                return 1
            return _count(node.left) + _count(node.right)

        return _count(self._root)


class RecursiveRandomForest(RandomForest):
    """The forest over :class:`RecursiveRandomTree`, summed tree by tree."""

    def fit(self, features, targets):
        features, targets = self._validate_fit_args(features, targets)
        rng = np.random.default_rng(self.seed)
        n = len(features)
        self._trees = []
        self._oob_error = None
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n, dtype=int)
        for _ in range(self.n_trees):
            sample = rng.integers(0, n, n)
            tree = RecursiveRandomTree(
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
        self._fitted = True
        return self

    def predict(self, features):
        features = self._validate_predict_args(features)
        predictions = np.zeros(len(features))
        for tree in self._trees:
            predictions += tree.predict(features)
        return predictions / len(self._trees)
