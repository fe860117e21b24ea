"""From-scratch GBDT: losses, splits against a brute-force oracle, serialization."""

import gc
import json

import numpy as np
import pytest

from atrisk import gbdt
from atrisk.errors import DegenerateDataError, ModelError
from atrisk.evaluation import auc
from atrisk.gbdt import GBDTConfig, GBDTModel, TreeNode


def random_fixture(seed, n=120, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (rng.random(n) < 0.4).astype(float)
    w = rng.uniform(0.2, 1.0, size=n)
    return X, y, w


@pytest.mark.parametrize("seed", range(20))
def test_training_loss_non_increasing(seed):
    X, y, w = random_fixture(seed)
    model = gbdt.fit(X, y, w, GBDTConfig(n_trees=25, max_depth=3))
    curve = np.array(model.train_loss_curve)
    assert len(curve) == 26
    assert np.all(np.diff(curve) <= 1e-9)


def test_separable_fixture_reaches_auc_one():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(float)
    model = gbdt.fit(X, y, None, GBDTConfig(n_trees=5, max_depth=3))
    assert auc(model.predict_proba(X), y) == 1.0


def test_zero_trees_predicts_positive_fraction():
    X, y, _ = random_fixture(2)
    model = gbdt.fit(X, y, None, GBDTConfig(n_trees=0))
    np.testing.assert_allclose(model.predict_proba(X), np.full(len(y), y.mean()))


def test_weighted_base_score():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 0.0, 0.0])
    w = np.array([3.0, 1.0, 2.0])
    model = gbdt.fit(X, y, w, GBDTConfig(n_trees=0))
    assert model.predict_proba(X)[0] == pytest.approx(0.5)


def test_serialization_round_trip_bit_identical(tmp_path):
    X, y, w = random_fixture(3)
    model = gbdt.fit(X, y, w, GBDTConfig(n_trees=15, max_depth=4))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = GBDTModel.load(path)
    assert loaded.to_json() == model.to_json()
    np.testing.assert_array_equal(loaded.raw_scores(X), model.raw_scores(X))


def test_serialization_rejects_unknown_format():
    with pytest.raises(ModelError):
        GBDTModel.from_json('{"format_version": 99}')


def test_training_is_deterministic():
    X, y, w = random_fixture(4)
    m1 = gbdt.fit(X, y, w, GBDTConfig(n_trees=10))
    m2 = gbdt.fit(X, y, w, GBDTConfig(n_trees=10))
    assert m1.to_json() == m2.to_json()


@pytest.mark.parametrize("seed", range(6))
def test_duplicated_dataset_trains_identical_model(seed):
    X, y, w = random_fixture(seed, n=80)
    cfg = GBDTConfig(n_trees=12, max_depth=3)
    once = gbdt.fit(X, y, w, cfg)
    twice = gbdt.fit(
        np.vstack([X, X]), np.concatenate([y, y]), np.concatenate([w, w]), cfg
    )
    assert once.to_json() == twice.to_json()


def tree_depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def brute_force_best_split(X, g, h, lam, min_child):
    """Enumerate every (feature, midpoint) split and return the best gain."""
    n, d = X.shape
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    best = (-np.inf, None, None)
    for f in range(d):
        for thr in np.unique(X[:, f]):
            left = X[:, f] < thr
            if not left.any() or left.all():
                continue
            hl, hr = h[left].sum(), h[~left].sum()
            if min_child > 0 and (hl < min_child or hr < min_child):
                continue
            gl = g[left].sum()
            gain = 0.5 * (
                gl**2 / (hl + lam) + (G - gl) ** 2 / (hr + lam) - parent
            )
            if gain > best[0] + 1e-12:
                best = (gain, f, thr)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_root_split_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(40, 3)), 1)  # rounded values force ties
    y = (rng.random(40) < 0.5).astype(float)
    cfg = GBDTConfig(n_trees=1, max_depth=1, learning_rate=1.0)
    model = gbdt.fit(X, y, None, cfg)
    root = model.trees[0]

    p0 = y.mean()
    g = np.full(40, p0) - y
    h = np.full(40, p0 * (1 - p0))
    gain, f, _thr = brute_force_best_split(X, g, h, gbdt.L2_LEAF_REG, gbdt.MIN_CHILD_WEIGHT)
    if root.is_leaf:
        assert gain < 1e-9
        return
    assert root.feature == f
    left = X[:, root.feature] < root.threshold
    oracle_left = X[:, f] < _thr
    np.testing.assert_array_equal(left, oracle_left)


def test_thresholds_are_midpoints():
    # eight rows a side, so each side's hessian (8 x 0.25) clears MIN_CHILD_WEIGHT
    X = np.concatenate([np.linspace(1.0, 2.0, 8), np.linspace(5.0, 6.0, 8)])[:, None]
    y = np.repeat([0.0, 1.0], 8)
    model = gbdt.fit(X, y, None, GBDTConfig(n_trees=1, max_depth=1))
    assert model.trees[0].threshold == pytest.approx(3.5)


def test_tie_breaks_toward_lowest_feature_index():
    # identical columns: the split must land on feature 0
    col = np.arange(16.0)[:, None]
    X = np.hstack([col, col])
    y = np.repeat([0.0, 1.0], 8)
    model = gbdt.fit(X, y, None, GBDTConfig(n_trees=1, max_depth=1))
    assert model.trees[0].feature == 0


def test_max_depth_respected():
    X, y, w = random_fixture(5)
    for depth in (1, 2, 3):
        model = gbdt.fit(X, y, w, GBDTConfig(n_trees=8, max_depth=depth))
        assert max(tree_depth(t) for t in model.trees) <= depth


def test_min_child_weight_blocks_small_leaves():
    # Unconstrained, the best split isolates rows 0 and 1, whose hessian of
    # 0.5 is below MIN_CHILD_WEIGHT; the learner must split elsewhere.
    X = np.arange(16.0)[:, None]
    y = np.array([1, 1, 0, 0] + [1, 0] * 6, dtype=float)
    p0 = y.mean()
    g, h = p0 - y, np.full(16, p0 * (1 - p0))
    assert brute_force_best_split(X, g, h, gbdt.L2_LEAF_REG, 0.0)[2] == 2.0
    root = gbdt.fit(X, y, None, GBDTConfig(n_trees=1, max_depth=1)).trees[0]
    assert root.threshold == 4.5
    left = X[:, 0] < root.threshold
    assert min(h[left].sum(), h[~left].sum()) >= gbdt.MIN_CHILD_WEIGHT


def test_single_class_raises():
    X = np.zeros((10, 2))
    with pytest.raises(DegenerateDataError):
        gbdt.fit(X, np.zeros(10), None, GBDTConfig())
    with pytest.raises(DegenerateDataError):
        gbdt.fit(X, np.ones(10), None, GBDTConfig())


def test_non_finite_features_rejected():
    X = np.array([[1.0], [np.inf]])
    with pytest.raises(DegenerateDataError):
        gbdt.fit(X, np.array([0.0, 1.0]), None, GBDTConfig())


def test_config_validation():
    with pytest.raises(ModelError):
        GBDTConfig(n_trees=-1)
    with pytest.raises(ModelError):
        GBDTConfig(max_depth=0)
    with pytest.raises(ModelError):
        GBDTConfig(learning_rate=0.0)


def test_tree_node_round_trip():
    node = TreeNode(
        feature=2,
        threshold=0.25,
        left=TreeNode(value=-0.5),
        right=TreeNode(feature=0, threshold=-1.0,
                       left=TreeNode(value=0.1), right=TreeNode(value=0.9)),
    )
    again = TreeNode.from_dict(node.to_dict())
    assert again.to_dict() == node.to_dict()
    assert tree_depth(again) == 2


def test_prediction_width_validation():
    X, y, _ = random_fixture(6)
    model = gbdt.fit(X, y, None, GBDTConfig(n_trees=2))
    with pytest.raises(Exception):
        model.predict_proba(np.zeros((3, 2)))


# --- exact-greedy oracle ---------------------------------------------------------
# The learner this package shipped before histogram split search: it sorts each
# feature once and cumsums all of a node's rows per feature. Kept here as the
# reference the histogram learner must agree with.


def exact_best_split_for_feature(values, g, h, lam, min_child):
    """Best (gain, threshold) for one feature given node-sorted arrays.

    `values` ascending; g, h in the same order. Returns (-inf, nan) when no
    admissible split exists. Among equal gains the lowest threshold wins.
    """
    n = values.shape[0]
    if n < 2:
        return -np.inf, np.nan
    G, H = g.sum(), h.sum()
    cg = np.cumsum(g)[:-1]
    ch = np.cumsum(h)[:-1]
    splittable = values[:-1] < values[1:]
    if min_child > 0:
        splittable &= (ch >= min_child) & ((H - ch) >= min_child)
    if not splittable.any():
        return -np.inf, np.nan
    parent = G * G / (H + lam)
    gains = np.where(
        splittable,
        0.5 * (cg**2 / (ch + lam) + (G - cg) ** 2 / (H - ch + lam) - parent),
        -np.inf,
    )
    best = int(np.argmax(gains))  # first max -> lowest threshold
    return float(gains[best]), float(0.5 * (values[best] + values[best + 1]))


def exact_build_tree(X, g, h, root_orders, cfg):
    """Grow one depth-limited tree by exhaustive search over sorted rows.

    `root_orders[f]` holds all row indices sorted by feature f. Each split
    partitions these per-feature orderings into the children.
    """
    lam, min_child = gbdt.L2_LEAF_REG, gbdt.MIN_CHILD_WEIGHT
    goes_left = np.empty(X.shape[0], dtype=bool)

    def grow(orders, depth):
        rows = orders[0]
        G, H = g[rows].sum(), h[rows].sum()
        leaf_value = float(-cfg.learning_rate * G / (H + lam))
        if depth >= cfg.max_depth or rows.shape[0] < 2:
            return TreeNode(value=leaf_value)

        best_gain, best_feat, best_thr = gbdt._MIN_GAIN, -1, np.nan
        for f in range(X.shape[1]):
            order = orders[f]
            gain, thr = exact_best_split_for_feature(
                X[order, f], g[order], h[order], lam, min_child
            )
            if gain > best_gain:  # strict: ties keep the lowest feature index
                best_gain, best_feat, best_thr = gain, f, thr
        if best_feat < 0:
            return TreeNode(value=leaf_value)

        goes_left[rows] = X[rows, best_feat] < best_thr
        left_orders = [o[goes_left[o]] for o in orders]
        right_orders = [o[~goes_left[o]] for o in orders]
        node = TreeNode(feature=best_feat, threshold=best_thr)
        node.left = grow(left_orders, depth + 1)
        node.right = grow(right_orders, depth + 1)
        return node

    return grow(root_orders, 0)


def exact_best_gain(x, g, h, cfg):
    """The oracle's best gain over all features on these rows."""
    best = -np.inf
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        gain, _ = exact_best_split_for_feature(
            x[order, f], g[order], h[order], gbdt.L2_LEAF_REG, gbdt.MIN_CHILD_WEIGHT
        )
        if gain > best:
            best = gain
    return best


def split_gain(x, g, h, threshold, lam):
    left = x < threshold
    G, H = g.sum(), h.sum()
    gl, hl = g[left].sum(), h[left].sum()
    return 0.5 * (gl**2 / (hl + lam) + (G - gl) ** 2 / (H - hl + lam) - G * G / (H + lam))


def tied_fixture(seed, n=120, d=5):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 1)  # rounded values force ties
    y = (X[:, 0] + rng.normal(size=n) > 0.3).astype(float)
    w = rng.uniform(0.2, 1.0, size=n)
    return gbdt._canonicalize(X, y, w)


def round_gradients(model, X, y, w, k):
    """Gradients and hessians boosting round k saw (after k trees)."""
    p = GBDTModel(model.base_score, model.trees[:k], model.feature_names,
                  model.config).predict_proba(X)
    return w * (p - y), w * p * (1.0 - p)


@pytest.mark.parametrize("seed", range(6))
def test_every_split_gain_matches_exact_oracle(seed):
    X, y, w = tied_fixture(seed)
    cfg = GBDTConfig(n_trees=8, max_depth=3)
    model = gbdt.fit(X, y, w, cfg)
    checked = 0
    for k, tree in enumerate(model.trees):
        g, h = round_gradients(model, X, y, w, k)
        stack = [(tree, np.arange(X.shape[0]), 0)]
        while stack:
            node, rows, depth = stack.pop()
            oracle = exact_best_gain(X[rows], g[rows], h[rows], cfg)
            if node.is_leaf:
                if depth < cfg.max_depth:
                    assert oracle < 1e-9
                continue
            chosen = split_gain(X[rows, node.feature], g[rows], h[rows],
                                node.threshold, gbdt.L2_LEAF_REG)
            assert chosen == pytest.approx(oracle, rel=1e-9, abs=1e-15)
            checked += 1
            left = X[rows, node.feature] < node.threshold
            stack += [(node.left, rows[left], depth + 1), (node.right, rows[~left], depth + 1)]
    assert checked > 8


@pytest.mark.parametrize("zero_weight_rows", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_first_tree_agrees_with_exact_learner(seed, zero_weight_rows):
    X, y, w = random_fixture(seed)
    cfg = GBDTConfig(n_trees=1, max_depth=4)
    if zero_weight_rows:
        # Zero-hessian rows at the bottom of features 0 and 1: every gain must
        # stay finite (a RuntimeWarning fails the test) and the trees agree.
        w[np.argmin(X[:, 0])] = w[np.argmin(X[:, 1])] = 0.0
    X, y, w = gbdt._canonicalize(X, y, w)
    tree = gbdt.fit(X, y, w, cfg).trees[0]
    g, h = round_gradients(gbdt.fit(X, y, w, GBDTConfig(n_trees=0)), X, y, w, 0)
    orders = [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]
    exact = exact_build_tree(X, g, h, orders, cfg)
    # Near-tied splits may break either way under a different summation
    # order, so compare the partitions the trees make, not their node lists.
    np.testing.assert_allclose(gbdt._tree_predict(tree, X), gbdt._tree_predict(exact, X),
                               rtol=1e-12, atol=1e-15)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if not node.is_leaf:
            values = np.unique(X[rows, node.feature])
            assert node.threshold in 0.5 * (values[:-1] + values[1:])
            left = X[rows, node.feature] < node.threshold
            stack += [(node.left, rows[left]), (node.right, rows[~left])]


def test_boosted_score_is_bit_identical_to_raw_scores(monkeypatch):
    X, y, w = random_fixture(7)
    X = np.vstack([X, X[:10]])  # duplicates exercise the canonical merge
    y, w = np.concatenate([y, y[:10]]), np.concatenate([w, w[:10]])
    log_loss, seen = gbdt._log_loss, []

    def capture(y_, score, w_):  # fit reports its running score once per round
        seen.append(score.copy())
        return log_loss(y_, score, w_)

    monkeypatch.setattr(gbdt, "_log_loss", capture)
    model = gbdt.fit(X, y, w, GBDTConfig(n_trees=20, max_depth=4))
    Xc, yc, wc = gbdt._canonicalize(X, y, w)
    raw = model.raw_scores(Xc)
    assert len(seen) == 21
    assert seen[-1].tobytes() == raw.tobytes()
    assert model.train_loss_curve[-1] == log_loss(yc, raw, wc)


def test_fit_leaves_no_reference_cycles():
    X, y, w = random_fixture(8)
    gc.collect()
    gc.disable()
    try:
        gbdt.fit(X, y, w, GBDTConfig(n_trees=30, max_depth=4))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_constant_features_give_single_leaf_trees():
    X = np.zeros((6, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    model = gbdt.fit(X, y, None, GBDTConfig(n_trees=3))
    assert all(t.is_leaf for t in model.trees)


@pytest.mark.parametrize(
    "weights, error",
    [
        (np.ones(3), ModelError),
        (np.ones((4, 1)), ModelError),
        (np.array([1.0, np.nan, 1.0, 1.0]), DegenerateDataError),
        (np.array([1.0, np.inf, 1.0, 1.0]), DegenerateDataError),
        (np.array([1.0, -0.5, 1.0, 1.0]), DegenerateDataError),
        (np.zeros(4), DegenerateDataError),
    ],
)
def test_sample_weight_validation(weights, error):
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(error):
        gbdt.fit(X, y, weights, GBDTConfig(n_trees=2))


def test_zero_width_features_rejected():
    with pytest.raises(ModelError):
        gbdt.fit(np.zeros((4, 0)), np.array([0.0, 1.0, 0.0, 1.0]), None, GBDTConfig())


def _drop_left(raw):
    del raw["trees"][0]["left"]


def _feature(value):
    def mutate(raw):
        raw["trees"][0]["feature"] = value
    return mutate


def _threshold(value):
    def mutate(raw):
        raw["trees"][0]["threshold"] = value
    return mutate


def _first_leaf(raw):
    node = raw["trees"][0]
    while "value" not in node:
        node = node["left"]
    return node


@pytest.mark.parametrize(
    "mutate",
    [
        _drop_left,
        _feature(2),  # the fixture model is two features wide
        _feature(-1),
        _feature(0.5),
        _feature("0"),
        _threshold(float("nan")),
        _threshold(float("inf")),
        _threshold("0.5"),
        lambda raw: _first_leaf(raw).update(value=float("-inf")),
        lambda raw: _first_leaf(raw).update(value=None),
        lambda raw: raw["trees"].append([1, 2]),
        lambda raw: raw.pop("trees"),
        lambda raw: raw.update(base_score=float("nan")),
        lambda raw: raw["config"].update(depth=3),
    ],
)
def test_from_json_rejects_malformed_trees(mutate):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] > 0).astype(float)
    raw = json.loads(gbdt.fit(X, y, None, GBDTConfig(n_trees=3, max_depth=2)).to_json())
    assert "feature" in raw["trees"][0]
    mutate(raw)
    with pytest.raises(ModelError):
        GBDTModel.from_json(json.dumps(raw))


def test_from_json_rejects_truncated_text():
    X, y, _ = random_fixture(10)
    text = gbdt.fit(X, y, None, GBDTConfig(n_trees=2)).to_json()
    with pytest.raises(ModelError):
        GBDTModel.from_json(text[:-7])
