"""The array tree kernels against their scalar oracles, bitwise.

Random datasets (with repeated feature values, so ties between rows and
thresholds occur) are fitted by the production learners and by the
linked-node oracles of ``tree_oracles.py`` with the same seed.  Every
prediction, every out-of-bag error and the tree shapes must agree to
the last bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.random_forest import RandomForest
from repro.ml.random_tree import RandomTree

from tests.ml.tree_oracles import RecursiveRandomForest, RecursiveRandomTree


@st.composite
def datasets(draw):
    """``(train_x, train_y, query_x)`` with coarse-grained features."""
    seed = draw(st.integers(0, 2**16))
    n_rows = draw(st.integers(1, 60))
    n_features = draw(st.integers(1, 7))
    levels = draw(st.integers(2, 12))
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, (n_rows, n_features)).astype(float)
    y = x @ rng.normal(0.0, 10.0, n_features) + rng.normal(0.0, 1.0, n_rows)
    # Queries mix training rows, grid points and off-grid values.
    query = np.vstack(
        [
            x[: min(n_rows, 8)],
            rng.integers(-1, levels + 1, (8, n_features)).astype(float),
            rng.uniform(-1.0, levels, (8, n_features)),
        ]
    )
    return x, y, query


tree_params = st.fixed_dictionaries(
    {
        "min_leaf": st.integers(1, 4),
        "max_depth": st.none() | st.integers(1, 6),
        "k_features": st.none() | st.integers(1, 3),
        "seed": st.integers(0, 2**16),
    }
)


def clamp_k(params, x):
    k = params["k_features"]
    if k is not None:
        params = dict(params, k_features=min(k, x.shape[1]))
    return params


class TestRandomTreeMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(datasets(), tree_params)
    def test_predictions_are_bitwise_equal(self, data, params):
        x, y, query = data
        params = clamp_k(params, x)
        tree = RandomTree(**params).fit(x, y)
        oracle = RecursiveRandomTree(**params).fit(x, y)
        np.testing.assert_array_equal(tree.predict(query), oracle.predict(query))
        np.testing.assert_array_equal(tree.predict(x), oracle.predict(x))
        assert tree.depth() == oracle.depth()
        assert tree.n_leaves() == oracle.n_leaves()

    def test_single_leaf_tree(self):
        x = np.zeros((5, 2))
        y = np.full(5, 3.0)
        tree = RandomTree().fit(x, y)
        assert (tree.depth(), tree.n_leaves()) == (0, 1)
        np.testing.assert_array_equal(tree.predict(np.ones((3, 2))), [3.0] * 3)

    def test_empty_query(self, linear_data):
        x, y = linear_data
        tree = RandomTree(seed=1).fit(x, y)
        assert tree.predict(np.empty((0, x.shape[1]))).shape == (0,)


class TestRandomForestMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(datasets(), tree_params, st.integers(1, 12))
    def test_predictions_are_bitwise_equal(self, data, params, n_trees):
        x, y, query = data
        params = clamp_k(params, x)
        forest = RandomForest(n_trees=n_trees, **params).fit(x, y)
        oracle = RecursiveRandomForest(n_trees=n_trees, **params).fit(x, y)
        np.testing.assert_array_equal(
            forest.predict(query), oracle.predict(query)
        )
        assert forest.oob_rmse == oracle.oob_rmse

    def test_default_forest_on_regression_data(self, regression_data):
        x, y = regression_data
        forest = RandomForest(seed=5).fit(x[:300], y[:300])
        oracle = RecursiveRandomForest(seed=5).fit(x[:300], y[:300])
        np.testing.assert_array_equal(
            forest.predict(x[300:]), oracle.predict(x[300:])
        )
        assert forest.oob_rmse == oracle.oob_rmse
