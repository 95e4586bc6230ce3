"""Random regression tree (Weka ``RandomTree`` equivalent).

A CART-style regression tree that, at every node, considers only a random
subset of ``K`` attributes (Weka default ``K = log2(n_features) + 1``) and
splits on the variance-minimising threshold among them.  Trees are grown
without pruning, down to ``min_leaf`` instances — high-variance weak
learners, exactly what :class:`repro.ml.random_forest.RandomForest` bags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import FloatArray, Regressor

__all__ = ["RandomTree", "TreeArrays", "walk_trees"]


@dataclass(frozen=True)
class TreeArrays:
    """Flat node arrays of one or more fitted trees.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]`` and sends a
    row to ``left[i]`` when ``row[feature[i]] <= threshold[i]``, else to
    ``right[i]``.  A leaf has ``feature == -1`` and points at itself on
    both sides, so walking ``depth`` steps from a root parks every row
    on its leaf; ``value`` holds the leaf predictions.  ``roots`` lists
    the root of every tree the arrays hold, and ``depth`` is the
    deepest leaf's depth among them.
    """

    feature: np.ndarray
    threshold: FloatArray
    left: np.ndarray
    right: np.ndarray
    value: FloatArray
    roots: np.ndarray
    depth: int

    @classmethod
    def concatenate(cls, trees: list["TreeArrays"]) -> "TreeArrays":
        """One node table holding ``trees`` side by side, in order."""
        offsets = np.cumsum([0] + [len(t.value) for t in trees[:-1]])
        return cls(
            feature=np.concatenate([t.feature for t in trees]),
            threshold=np.concatenate([t.threshold for t in trees]),
            left=np.concatenate([t.left + o for t, o in zip(trees, offsets)]),
            right=np.concatenate([t.right + o for t, o in zip(trees, offsets)]),
            value=np.concatenate([t.value for t in trees]),
            roots=np.concatenate([t.roots + o for t, o in zip(trees, offsets)]),
            depth=max(t.depth for t in trees),
        )


def walk_trees(arrays: TreeArrays, features: FloatArray) -> FloatArray:
    """Leaf value of every row in every tree, shape ``(n_trees, n_rows)``.

    All trees and rows step together, one level per iteration; a leaf's
    self-loops keep rows that arrived early in place.  The comparison is
    the scalar walk's ``row[feature] <= threshold``, so every row lands
    on the same leaf.
    """
    n_rows = len(features)
    node = np.repeat(arrays.roots, n_rows)
    rows = np.tile(np.arange(n_rows), len(arrays.roots))
    for _ in range(arrays.depth):
        go_left = features[rows, arrays.feature[node]] <= arrays.threshold[node]
        node = np.where(go_left, arrays.left[node], arrays.right[node])
    return arrays.value[node].reshape(len(arrays.roots), n_rows)


class RandomTree(Regressor):
    """Unpruned regression tree with random per-node feature subsets.

    Parameters
    ----------
    k_features:
        Attributes examined per node; ``None`` uses Weka's default
        ``int(log2(d)) + 1``.
    min_leaf:
        Minimum instances per leaf (Weka default 1).
    max_depth:
        Depth cap; ``None`` grows until purity or ``min_leaf``.
    """

    name = "RT"

    def __init__(
        self,
        k_features: int | None = None,
        min_leaf: int = 1,
        max_depth: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        if k_features is not None and k_features < 1:
            raise ValueError(f"k_features must be >= 1, got {k_features}")
        if min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.k_features = k_features
        self.min_leaf = int(min_leaf)
        self.max_depth = max_depth

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomTree":
        features, targets = self._validate_fit_args(features, targets)
        self._rng = np.random.default_rng(self.seed)
        d = features.shape[1]
        self._k = self.k_features or max(1, int(np.log2(d)) + 1)
        self._k = min(self._k, d)
        nodes: list[tuple[int, float, int, int, float]] = []
        depth = self._grow(features, targets, 0, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self._arrays = TreeArrays(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value),
            roots=np.zeros(1, dtype=np.intp),
            depth=depth,
        )
        self._fitted = True
        return self

    def _best_split(
        self, features: np.ndarray, targets: np.ndarray
    ) -> tuple[int, float, float] | None:
        """Best (feature, threshold, score) among K random attributes.

        The score is the total squared error after the split; lower is
        better.  Returns ``None`` when no valid split exists.
        """
        d = features.shape[1]
        candidates = self._rng.choice(d, size=self._k, replace=False)
        best: tuple[int, float, float] | None = None
        for feature in candidates:
            column = features[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_x = column[order]
            sorted_y = targets[order]
            # Candidate thresholds between distinct consecutive values.
            distinct = np.nonzero(np.diff(sorted_x) > 1e-12)[0]
            if distinct.size == 0:
                continue
            # Prefix sums let us evaluate every threshold in O(n).
            csum = np.cumsum(sorted_y)
            csum2 = np.cumsum(sorted_y**2)
            total_sum = csum[-1]
            total_sum2 = csum2[-1]
            n = len(sorted_y)
            left_n = distinct + 1
            right_n = n - left_n
            valid = (left_n >= self.min_leaf) & (right_n >= self.min_leaf)
            if not np.any(valid):
                continue
            left_sum = csum[distinct]
            left_sum2 = csum2[distinct]
            right_sum = total_sum - left_sum
            right_sum2 = total_sum2 - left_sum2
            sse = (
                left_sum2
                - left_sum**2 / left_n
                + right_sum2
                - right_sum**2 / right_n
            )
            sse = np.where(valid, sse, np.inf)
            best_idx = int(np.argmin(sse))
            score = float(sse[best_idx])
            if np.isinf(score):
                continue
            cut = distinct[best_idx]
            threshold = 0.5 * (sorted_x[cut] + sorted_x[cut + 1])
            if best is None or score < best[2]:
                best = (int(feature), float(threshold), score)
        return best

    def _grow(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        depth: int,
        nodes: list[tuple[int, float, int, int, float]],
    ) -> int:
        """Grow the subtree for these rows into ``nodes`` (pre-order:
        a node, then its left subtree, then its right one) and return
        the depth of its deepest leaf."""
        index = len(nodes)
        prediction = float(targets.mean())
        leaf = (-1, 0.0, index, index, prediction)
        nodes.append(leaf)
        if (
            len(targets) < 2 * self.min_leaf
            or np.ptp(targets) < 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return depth
        split = self._best_split(features, targets)
        if split is None:
            return depth
        feature, threshold, _ = split
        mask = features[:, feature] <= threshold
        if not mask.any() or mask.all():
            return depth
        left_depth = self._grow(features[mask], targets[mask], depth + 1, nodes)
        right = len(nodes)
        right_depth = self._grow(
            features[~mask], targets[~mask], depth + 1, nodes
        )
        nodes[index] = (feature, threshold, index + 1, right, prediction)
        return max(left_depth, right_depth)

    @property
    def arrays(self) -> TreeArrays:
        """The fitted tree's flat node arrays."""
        if not self._fitted:
            raise RuntimeError("tree must be fitted first")
        return self._arrays

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = self._validate_predict_args(features)
        return walk_trees(self._arrays, features)[0]

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        return self.arrays.depth

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        return int(np.count_nonzero(self.arrays.feature < 0))
