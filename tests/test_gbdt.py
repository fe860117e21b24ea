"""From-scratch GBDT: losses, splits against a brute-force oracle, serialization."""

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    np.testing.assert_allclose(tree_predict(tree, X), tree_predict(exact, X),
                               rtol=1e-12, atol=1e-15)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if not node.is_leaf:
            values = np.unique(X[rows, node.feature])
            assert node.threshold in 0.5 * (values[:-1] + values[1:])
            left = X[rows, node.feature] < node.threshold
            stack += [(node.left, rows[left]), (node.right, rows[~left])]


# --- node-walk oracle --------------------------------------------------------------
# The predictor this package shipped before flattened trees: it walks each tree
# node by node. `raw_scores` must give the same bytes.


def tree_predict(node, X):
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        mask = X[idx, nd.feature] < nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))
    return out


def oracle_raw_scores(model, X):
    score = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        score += tree_predict(tree, X)
    return score


def random_tree(rng, n_features, depth, p_leaf=0.3):
    """An unbalanced tree of depth at most `depth`; thresholds on a 0.1 grid."""
    if depth == 0 or rng.random() < p_leaf:
        return TreeNode(value=float(rng.normal()))
    return TreeNode(
        feature=int(rng.integers(n_features)),
        threshold=float(np.round(rng.normal(), 1)),
        left=random_tree(rng, n_features, depth - 1, p_leaf),
        right=random_tree(rng, n_features, depth - 1, p_leaf),
    )


def query_rows(rng, n, d):
    """Rows that hit thresholds exactly, and hold NaN and +-inf entries."""
    X = np.round(rng.normal(size=(n, d)), 1)
    X[rng.random((n, d)) < 0.05] = np.nan
    X[rng.random((n, d)) < 0.05] = np.inf
    X[rng.random((n, d)) < 0.05] = -np.inf
    return X


# With 600 trees, a one-row batch summed pairwise (np.sum) differs in the last bit.
@pytest.mark.parametrize("n_trees", [0, 1, 7, 600])
@pytest.mark.parametrize("seed", range(4))
def test_raw_scores_match_node_walk_oracle(seed, n_trees):
    rng = np.random.default_rng(seed)
    d = 4
    trees = [random_tree(rng, d, int(rng.integers(0, 9))) for _ in range(n_trees)]
    if n_trees:
        trees[0] = TreeNode(value=0.25)  # a single-leaf tree
    if n_trees > 1:  # a 40-deep chain: 2^40 slots if laid out as a complete tree
        for _ in range(40):
            trees[1] = TreeNode(feature=int(rng.integers(d)), threshold=float(rng.normal()),
                                left=TreeNode(value=float(rng.normal())), right=trees[1])
    depth = max([1, *map(tree_depth, trees)])  # the chain's, with 40 or more
    fitted = GBDTModel(float(rng.normal()), trees, tuple(f"f{i}" for i in range(d)),
                       GBDTConfig(n_trees=n_trees, max_depth=depth))
    # From JSON, so the deep chain also goes through the loader.
    model = GBDTModel.from_json(fitted.to_json())
    chunk = gbdt._PREDICT_CELLS // max(n_trees, 1)
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        X = query_rows(rng, n, d)
        assert model.raw_scores(X).tobytes() == oracle_raw_scores(model, X).tobytes()


def test_raw_scores_temporaries_stay_small():
    # 200 complete depth-4 trees on 20k rows; the chunked walk keeps its
    # temporaries near 1.5 MB, where one pass over every row takes ~130 MB.
    rng = np.random.default_rng(12)
    trees = [random_tree(rng, 50, 4, p_leaf=0.0) for _ in range(200)]
    model = GBDTModel(0.0, trees, tuple(f"f{i}" for i in range(50)), GBDTConfig())
    X = rng.normal(size=(20_000, 50))
    tracemalloc.start()
    try:
        model.raw_scores(X[:10])
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        model.raw_scores(X)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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


def unique_canonicalize(X, y, w):
    """_canonicalize as written with np.unique(axis=0): the oracle for its
    order, first occurrences, inverse and weight sums."""
    keyed = np.column_stack([X, y])
    _, unique_idx, inverse = np.unique(keyed, axis=0, return_index=True, return_inverse=True)
    w = np.bincount(inverse.ravel(), weights=w, minlength=len(unique_idx))
    return X[unique_idx], y[unique_idx], w / w.mean()


# Few distinct cells, so rows repeat and tie in their leading columns; the
# zeros of both signs are equal but have different bytes.
CELLS = st.sampled_from([-0.0, 0.0, -1.5, 0.25, 2.0, 5e-324, 1e300])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonicalize_matches_np_unique_oracle(data):
    n = data.draw(st.integers(1, 40))
    d = data.draw(st.integers(1, 4))
    pool = data.draw(st.lists(st.lists(CELLS, min_size=d, max_size=d), min_size=1, max_size=6))
    X = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    weight = st.one_of(st.integers(1, 4).map(float),
                       st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False))
    w = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)))
    got, want = gbdt._canonicalize(X, y, w), unique_canonicalize(X, y, w)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_canonicalize_keeps_the_first_of_equal_zeros():
    X = np.array([[1.0, -0.0], [0.0, 2.0], [1.0, 0.0], [-0.0, 2.0]])
    Xc, yc, wc = gbdt._canonicalize(X, np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]))
    assert Xc.tobytes() == np.array([[0.0, 2.0], [1.0, -0.0]]).tobytes()
    assert wc.tolist() == [6 / 5, 4 / 5]


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


def test_from_json_refuses_a_model_that_contradicts_its_config():
    """A file may hold fewer trees than its config's n_trees (a partial
    model, criterion 3), and trees up to max_depth deep; more is refused."""
    X, y, w = random_fixture(3)
    model = gbdt.fit(X, y, w, GBDTConfig(n_trees=40, max_depth=3))
    assert len(model.trees) == 40 and max(map(tree_depth, model.trees)) == 3

    def with_config(trees, n_trees, max_depth):
        return GBDTModel(model.base_score, trees, model.feature_names,
                         GBDTConfig(n_trees, max_depth)).to_json()

    for text in (model.to_json(), with_config(model.trees[:5], 40, 3),
                 with_config(model.trees, 41, 4)):
        assert GBDTModel.from_json(text).to_json() == text
    for n_trees, max_depth, message in ((39, 3, "40 trees, more than n_trees 39"),
                                        (40, 2, "deeper than the config's max_depth"),
                                        (5, 1, "40 trees, more than n_trees 5")):
        with pytest.raises(ModelError, match=message):
            GBDTModel.from_json(with_config(model.trees, n_trees, max_depth))


def test_from_json_rejects_truncated_text():
    X, y, _ = random_fixture(10)
    text = gbdt.fit(X, y, None, GBDTConfig(n_trees=2)).to_json()
    with pytest.raises(ModelError):
        GBDTModel.from_json(text[:-7])


def test_from_json_rejects_deeply_nested_trees():
    depth = 100_000
    node = '{"feature":0,"threshold":0.0,"right":{"value":0.0},"left":'
    tree = node * depth + '{"value":0.0}' + "}" * depth
    text = ('{"base_score":0.0,"config":{},"feature_names":["a"],"format_version":1,'
            f'"trees":[{tree}]}}')
    with pytest.raises(ModelError):
        GBDTModel.from_json(text)


def test_load_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"format_version": 1, "base_score": "\xff"}')
    with pytest.raises(ModelError, match="can't decode"):
        GBDTModel.load(path)


# --- full-table split oracle -------------------------------------------------------
# The split search this package shipped before it pruned: it scores every cell of
# the bin table and masks the cells that leave less than MIN_CHILD_WEIGHT on a
# side. `best_split` must return the same (feature, threshold, cut) on any
# histogram it is given.


def full_table_best_split(bins, hist, G, H):
    prefix = np.empty((2, bins.n_cells))
    for start, n_feats, width in bins.blocks:
        stop = start + n_feats * width
        np.cumsum(
            hist[:2, start:stop].reshape(2, n_feats, width),
            axis=2,
            out=prefix[:, start:stop].reshape(2, n_feats, width),
        )
    cg, ch = prefix
    lam = gbdt.L2_LEAF_REG
    gains = 0.5 * (cg**2 / (ch + lam) + (G - cg) ** 2 / (H - ch + lam) - G * G / (H + lam))
    gains[(ch < gbdt.MIN_CHILD_WEIGHT) | (H - ch < gbdt.MIN_CHILD_WEIGHT)] = -np.inf
    best = int(np.argmax(gains))
    if not gains[best] > gbdt._MIN_GAIN:
        return None
    tied = np.flatnonzero(gains == gains[best])
    cell = int(tied[np.argmin(bins.cell_feature[tied])])
    f = int(bins.cell_feature[cell])
    offset, values = int(bins.offsets[f]), bins.values[f]
    lo = cell - offset
    hi = lo + 1 + int(np.flatnonzero(hist[2, cell + 1 : offset + values.shape[0]])[0])
    threshold = float(0.5 * (values[lo] + values[hi]))
    return f, threshold, offset + int(np.searchsorted(values, threshold))


def confident_fixture(seed=0, n=400, d=6):
    """Nearly separable rows: after a few rounds most of them are predicted
    with p near 0 or 1, so many nodes hold less than 2 of hessian."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 2)
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(float)
    flip = rng.random(n) < 0.05
    y[flip] = 1.0 - y[flip]
    return X, y, rng.uniform(0.5, 1.5, size=n)


SATURATING = GBDTConfig(n_trees=60, max_depth=4, learning_rate=0.5)


def zoo_fixture(seed):
    """A small fit with ties, duplicated and constant columns and zero-weight
    rows; its depth cycles through 1-6."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 300)), int(rng.integers(1, 7))
    X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
    if d > 1 and rng.random() < 0.5:
        X[:, d - 1] = X[:, 0]  # a duplicated column
    if d > 2 and rng.random() < 0.5:
        X[:, 1] = 0.5  # a constant column
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(float)
    y[:2] = 0.0, 1.0
    w = rng.uniform(0.1, 2.0, size=n)
    w[2:][rng.random(n - 2) < 0.15] = 0.0
    cfg = GBDTConfig(
        n_trees=int(rng.integers(1, 30)),
        max_depth=seed % 6 + 1,
        learning_rate=float(rng.choice([0.1, 0.5, 1.0])),
    )
    return X, y, w, cfg


def split_fixture(name):
    """(X, y, w, cfg) of a fit whose every split search the oracle checks."""
    if name == "random":
        X, y, w = random_fixture(0, n=300, d=6)
        return X, y, w, GBDTConfig(n_trees=20, max_depth=4)
    if name == "zero_weight":
        X, y, w = random_fixture(1, n=300, d=6)
        w[np.random.default_rng(1).random(300) < 0.2] = 0.0
        return X, y, w, GBDTConfig(n_trees=20, max_depth=4)
    if name == "saturated":
        return (*confident_fixture(), SATURATING)
    if name == "ties":  # rounded values and a duplicated column
        X, y, w = tied_fixture(2, n=300)
        return np.hstack([X, X[:, :1]]), y, w, GBDTConfig(n_trees=20, max_depth=5)
    raise KeyError(name)


@pytest.mark.parametrize("name", ["random", "zero_weight", "saturated", "ties"])
def test_best_split_matches_full_table_oracle_in_fits(monkeypatch, name):
    X, y, w, cfg = split_fixture(name)
    best_split, subtract = gbdt._Bins.best_split, gbdt._subtract
    subtracted, checked = {}, {"binned": 0, "subtracted": 0}

    def tracking_subtract(parent, child):
        out = subtract(parent, child)
        subtracted[id(out)] = out  # kept alive, so its id stays unique
        return out

    def checked_best_split(bins, hist, G, H):
        got = best_split(bins, hist, G, H)
        assert got == full_table_best_split(bins, hist, G, H)
        checked["subtracted" if id(hist) in subtracted else "binned"] += 1
        return got

    monkeypatch.setattr(gbdt, "_subtract", tracking_subtract)
    monkeypatch.setattr(gbdt._Bins, "best_split", checked_best_split)
    gbdt.fit(X, y, w, cfg)
    assert checked["binned"] > cfg.n_trees and checked["subtracted"] > cfg.n_trees


@pytest.mark.parametrize("seed", range(4))
def test_best_split_matches_full_table_oracle_on_row_subsets(seed):
    """Binned and subtracted histograms of random row subsets, down to a few
    rows; wherever H < 2 the oracle finds no split, the premise of the prune."""
    X, y, w = confident_fixture(seed, n=200)
    w[:10] = 0.0
    X, y, w = gbdt._canonicalize(X, y, w)
    model = gbdt.fit(X, y, w, GBDTConfig(n_trees=12, max_depth=3, learning_rate=0.5))
    g, h = round_gradients(model, X, y, w, 12)
    bins = gbdt._Bins(X)
    rng = np.random.default_rng(seed)
    below_two = 0
    for size in np.geomspace(2, X.shape[0], 40).astype(int):
        rows = np.sort(rng.choice(X.shape[0], size, replace=False))
        inner = np.sort(rng.choice(rows, rng.integers(1, size + 1), replace=False))
        rest = np.setdiff1d(rows, inner)
        inner_hist = bins.histogram(inner, g, h)
        hists = [(inner, inner_hist)]
        if rest.shape[0]:
            hists.append((rest, gbdt._subtract(bins.histogram(rows, g, h), inner_hist)))
        for part, hist in hists:
            G, H = g[part].sum(), h[part].sum()
            expected = full_table_best_split(bins, hist, G, H)
            assert bins.best_split(hist, G, H) == expected
            if H < 2 * gbdt.MIN_CHILD_WEIGHT:
                assert expected is None
                below_two += 1
    assert below_two > 0


def parent_histogram_count(model, n_rows):
    """Histograms the unpruned learner builds: each tree's root, and the
    smaller child of every split whose children may still split."""
    count = 0
    for tree in model.trees:
        count += n_rows >= 2
        stack = [(tree, 0)]
        while stack:
            node, depth = stack.pop()
            if not node.is_leaf:
                count += depth + 1 < model.config.max_depth
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return count


def test_nodes_below_twice_min_child_weight_are_not_searched(monkeypatch):
    X, y, w = confident_fixture()
    histogram, best_split = gbdt._Bins.histogram, gbdt._Bins.best_split
    hessians, n_histograms = [], [0]

    def counting_histogram(bins, rows, g, h):
        n_histograms[0] += 1
        return histogram(bins, rows, g, h)

    def recording_best_split(bins, hist, G, H):
        hessians.append(H)
        return best_split(bins, hist, G, H)

    monkeypatch.setattr(gbdt._Bins, "histogram", counting_histogram)
    monkeypatch.setattr(gbdt._Bins, "best_split", recording_best_split)
    model = gbdt.fit(X, y, w, SATURATING)
    assert min(hessians) >= 2 * gbdt.MIN_CHILD_WEIGHT
    n_rows = gbdt._canonicalize(X, y, w)[0].shape[0]
    assert n_histograms[0] < parent_histogram_count(model, n_rows)


def pinned_digest(name):
    """sha256 over the model.json and raw_scores bytes of a named fit."""
    if name == "cli_default_200x4":
        rng = np.random.default_rng(10)
        X = np.hstack([rng.normal(size=(1000, 6)), rng.integers(0, 5, size=(1000, 4))])
        y = (X[:, 0] + 0.5 * X[:, 6] + rng.normal(size=1000) > 1.0).astype(float)
        fits = [(X, y, rng.uniform(0.5, 2.0, size=1000), GBDTConfig())]
    elif name == "saturated":
        fits = [(*confident_fixture(), SATURATING)]
    elif name == "zoo_150":
        fits = [zoo_fixture(seed) for seed in range(150)]
    else:
        raise KeyError(name)
    digest = hashlib.sha256()
    for X, y, w, cfg in fits:
        model = gbdt.fit(X, y, w, cfg)
        digest.update(model.to_json().encode())
        digest.update(model.raw_scores(X).tobytes())
    return digest.hexdigest()


PINNED_SHA256 = {
    "cli_default_200x4": "5dbb8e22b1b388a39107cf04720b4fc2111f530cd8afa5691efc400c38501ded",
    "saturated": "80a2a1403d2cbf9b6e6b6eb036ef8576b3fec88c9f0ab814c2c8efa633bb8ae3",
    "zoo_150": "3973a20fb1664764d299fb7528504ec633f119f0be7e4672f7d1a5494de48a96",
}


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_models_are_pinned(name):
    """Models and scores are the bytes they were at commit 9520246.

    The hashes were computed at that commit, before split search skipped the
    nodes that cannot split and the cells that cannot win: pruning must leave
    every model and score byte-identical.
    """
    assert pinned_digest(name) == PINNED_SHA256[name]
