import copy
import dataclasses
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeindex import (
    ADULT,
    SAFE,
    Forest,
    Leaf,
    SafeIndexError,
    Split,
    TrainConfig,
    classify,
    count_threshold,
    extract_features,
    forest_score,
    forest_votes,
    load_forest,
    save_forest,
    train_forest,
)
import safeindex.forest
from safeindex.errors import TrainingError
from safeindex.evaluation import attribute_usage
from safeindex.features import ATTRIBUTE_NAMES
from safeindex.forest import (
    _entropies,
    _filter_order,
    best_split,
    entropy,
    forest_from_json,
    forest_to_json,
    format_report,
    format_tree,
    grow_tree,
    leaf_label,
    tree_size,
)

from safeindex.synth import generate_corpus

from helpers import (
    BAD_NUMBER_MODELS,
    bad_number_model,
    count_forest_votes,
    loop_best_split,
    loop_train_forest,
    make_vector,
    oracle_best_split,
    oracle_tree_classify,
    random_tree,
    random_vector,
    threshold_vector,
    tree_thresholds,
    vote_forest,
)


class TestEntropy:
    def test_even_split_is_one_bit(self):
        assert entropy(1.0, 1.0) == pytest.approx(1.0)

    def test_quarter_split(self):
        # -(1/4)log2(1/4) - (3/4)log2(3/4)
        assert entropy(2.0, 6.0) == pytest.approx(0.8112781244591328)

    def test_pure_is_zero(self):
        assert entropy(0.0, 5.0) == 0.0
        assert entropy(5.0, 0.0) == 0.0

    def test_empty_raises(self):
        with pytest.raises(SafeIndexError):
            entropy(0.0, 0.0)

    def test_scale_invariant(self):
        assert entropy(2.0, 6.0) == pytest.approx(entropy(20.0, 60.0))

    def test_array_form_equals_the_scalar_bit_for_bit(self):
        weights = [0.0, 5e-324, 1e-300, 1e-10, 0.1, 1.0 / 3.0, 1.0, 2.0, 20.0, 1e10, 1e300]
        rnd = random.Random(5)
        weights += [rnd.uniform(0.0, 40.0) for _ in range(40)]
        pairs, underflow = [], []
        for a in weights:
            for b in weights:
                if a + b == 0:
                    continue
                # 5e-324 beside 1e300 is a probability of 0, which has no log
                if a and b and 0.0 in (a / (a + b), b / (a + b)):
                    underflow.append((a, b))
                else:
                    pairs.append((a, b))
        adult, safe = np.array(pairs).T
        got = _entropies(adult, safe).tolist()
        assert [x.hex() for x in got] == [entropy(a, b).hex() for a, b in pairs]
        assert underflow
        for a, b in underflow:
            with pytest.raises(ValueError):
                entropy(a, b)
            with pytest.raises(ValueError):
                _entropies(np.array([a]), np.array([b]))


class TestLeafLabel:
    def test_cost_shifts_the_boundary(self):
        assert leaf_label(1.0, 19.0, 20.0) == ADULT
        assert leaf_label(1.0, 21.0, 20.0) == SAFE

    def test_exact_boundary_is_safe(self):
        assert leaf_label(1.0, 20.0, 20.0) == SAFE

    def test_unit_cost_is_majority(self):
        assert leaf_label(3.0, 2.0, 1.0) == ADULT
        assert leaf_label(2.0, 3.0, 1.0) == SAFE


class TestBestSplit:
    def _table(self, rows):
        X = np.array([v for v, _, _ in rows], dtype=float)
        y = np.array([a for _, a, _ in rows], dtype=bool)
        w = np.array([wt for _, _, wt in rows], dtype=float)
        return X, y, w

    def test_obvious_split(self):
        rows = [
            ((0.0, 5.0), True, 1.0),
            ((1.0, 5.0), True, 1.0),
            ((10.0, 5.0), False, 1.0),
            ((11.0, 5.0), False, 1.0),
        ]
        choice = best_split(*self._table(rows), ["a", "b"], 0.5)
        assert choice.attribute == "a"
        assert choice.threshold == pytest.approx(5.5)
        assert choice.gain_ratio == pytest.approx(1.0)

    def test_pure_node_returns_none(self):
        rows = [((0.0,), True, 1.0), ((1.0,), True, 1.0)]
        assert best_split(*self._table(rows), ["a"], 0.5) is None

    def test_min_leaf_weight_blocks_starving_splits(self):
        starving = [((0.0,), True, 1.0)] + [((1.0,), False, 1.0)] * 3
        # the float just below 2.0, less 1.0: 1.0 plus it sums below 2.0
        under_one = math.nextafter(2.0, 0.0) - 1.0
        cases = [  # rows, min_leaf_weight, whether a split is found
            # the only boundary leaves 1.0 on the left, below the floor
            (starving, 2.0, False),
            (starving, 1.0, True),
            # a node of exactly 2 * min_leaf_weight still splits
            ([((0.0,), True, 1.0), ((1.0,), False, 1.0)], 1.0, True),
            # just below 2 * min_leaf_weight: too light to split
            ([((0.0,), True, 1.0), ((1.0,), False, under_one)], 1.0, False),
            ([((0.0,), True, 0.5), ((1.0,), False, under_one / 2)], 0.5, False),
            (
                [((0.0,), True, 0.5), ((1.0,), False, 0.5), ((2.0,), True, under_one)],
                1.0,
                False,
            ),
        ]
        for rows, min_leaf, splits in cases:
            X, y, w = self._table(rows)
            got = best_split(X, y, w, ["a"], min_leaf)
            assert (got is not None) == splits
            assert got == loop_best_split(X, y, w, ["a"], min_leaf)

    def test_constant_attribute_has_no_candidates(self):
        rows = [((3.0,), True, 1.0), ((3.0,), False, 1.0)]
        assert best_split(*self._table(rows), ["a"], 0.5) is None

    def test_matches_oracle_on_random_tables(self):
        rnd = random.Random(7)
        names = ["a", "b", "c", "d"]
        for _ in range(200):
            n = rnd.randint(2, 24)
            rows = [
                (
                    tuple(float(rnd.randint(0, 4)) for _ in names),
                    rnd.random() < 0.5,
                    rnd.uniform(0.1, 3.0),
                )
                for _ in range(n)
            ]
            min_leaf = rnd.choice([0.5, 1.0, 2.0])
            got = best_split(*self._table(rows), names, min_leaf)
            want = oracle_best_split(rows, names, min_leaf)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.gain_ratio == pytest.approx(want[0], abs=1e-9)

    def test_equals_loop_on_tie_heavy_tables(self):
        # small integer values and weights from {0.5, 1, 20} make many
        # equal gains, ratios and mean-gain guard edges
        rnd = random.Random(11)
        light = 0  # mixed nodes lighter than 2 * min_leaf: None before sorting
        for _ in range(2000):
            names = rnd.sample("abcdefgh", rnd.randint(1, 8))
            n = rnd.randint(2, 40)
            X = np.array(
                [[float(rnd.randint(0, 3)) for _ in names] for _ in range(n)]
            )
            y = np.array([rnd.random() < 0.5 for _ in range(n)])
            w = np.array([rnd.choice([0.5, 1.0, 20.0]) for _ in range(n)])
            min_leaf = rnd.choice([0.5, 1.0, 2.0])
            light += y.any() and not y.all() and w.sum() < 2 * min_leaf
            assert best_split(X, y, w, names, min_leaf) == loop_best_split(
                X, y, w, names, min_leaf
            )
        assert light > 0


class TestGrowTree:
    CONFIG = TrainConfig(n_trees=1, fn_cost=1.0, min_leaf_weight=1.0)

    def _data(self, rows):
        """grow_tree's arguments before the config, for a root over `rows`."""
        X = np.array([fv.values for fv, _ in rows], dtype=float)
        y = np.array([label == ADULT for _, label in rows], dtype=bool)
        w = np.ones(len(rows))
        order = np.argsort(X.T, axis=1, kind="stable")
        return X, y, w, np.arange(len(rows)), order, np.empty(len(rows), dtype=bool)

    def test_pure_input_yields_leaf(self):
        rows = [(make_vector(nbr_img=i), ADULT) for i in range(4)]
        tree = grow_tree(*self._data(rows), self.CONFIG)
        assert isinstance(tree, Leaf)
        assert tree.label == ADULT
        assert tree.weights == (4.0, 0.0)

    def test_separable_input_yields_perfect_tree(self):
        rows = [(make_vector(nbr_img=20 + i), ADULT) for i in range(5)]
        rows += [(make_vector(nbr_img=i), SAFE) for i in range(5)]
        args = self._data(rows)
        tree = grow_tree(*args, self.CONFIG)
        for fv, label in rows:
            assert forest_votes((tree,), fv) == (label == ADULT,)
        # the leaves wrote each row's vote: the labels, as the tree is perfect
        assert args[-1].tolist() == [label == ADULT for _, label in rows]

    def test_max_depth_limits_growth(self):
        rnd = random.Random(3)
        rows = [
            (make_vector(nbr_img=rnd.random(), in_url=rnd.random()),
             ADULT if rnd.random() < 0.5 else SAFE)
            for _ in range(40)
        ]
        config = TrainConfig(fn_cost=1.0, min_leaf_weight=1.0, max_depth=2)
        tree = grow_tree(*self._data(rows), config)

        def depth(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree) <= 2

    def test_tree_size(self):
        leaf = Leaf(SAFE)
        assert tree_size(leaf) == 1
        assert tree_size(Split("in_url", 1.0, leaf, Leaf(ADULT))) == 3

    @pytest.mark.parametrize("label", ["Adult", "unsafe", "", None])
    def test_leaf_rejects_a_bad_label(self, label):
        with pytest.raises(ValueError, match="bad leaf label"):
            Leaf(label)

    def test_nan_threshold_and_weight_are_rejected(self):
        with pytest.raises(ValueError, match="NaN split threshold"):
            Split("nbr_img", math.nan, Leaf(SAFE), Leaf(ADULT))
        with pytest.raises(ValueError, match="NaN leaf weight"):
            Leaf(SAFE, (1.0, math.nan))

    def test_split_rejects_an_unknown_attribute(self):
        with pytest.raises(ValueError, match="unknown attribute 'no_such_attr'"):
            Split("no_such_attr", 1.0, Leaf(SAFE), Leaf(ADULT))


@st.composite
def _masked_tables(draw):
    """A table with tie-heavy columns and repeated rows, and two row masks."""
    n_cols = draw(st.integers(1, 5))
    value = st.sampled_from([0.0, 1.0, 1.5, 3.0]) | st.floats(-10.0, 10.0)
    distinct = draw(st.lists(st.tuples(*[value] * n_cols), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    masks = st.lists(st.booleans(), min_size=len(picks), max_size=len(picks))
    return np.array([distinct[i] for i in picks]), np.array(draw(masks)), np.array(draw(masks))


class TestPresort:
    @settings(max_examples=150, deadline=None)
    @given(_masked_tables())
    def test_child_order_is_the_stable_argsort_of_the_child(self, table):
        X, mask, mask2 = table

        def argsorted(rows):  # the rows in a stable argsort of X[rows] alone
            return rows[np.argsort(X[rows], axis=0, kind="stable").T]

        order = np.argsort(X.T, axis=1, kind="stable")
        for side in (mask, ~mask):
            child = _filter_order(order, side[order])
            assert np.array_equal(child, argsorted(np.flatnonzero(side)))
            # and a grandchild, filtered from the child
            for side2 in (mask2, ~mask2):
                grandchild = _filter_order(child, side2[child])
                assert np.array_equal(grandchild, argsorted(np.flatnonzero(side & side2)))

    def test_training_sorts_once_and_walks_no_tree(self, lexicons, monkeypatch):
        pages = generate_corpus(lexicons, 200, 100, seed=0, overlap=0.3)
        vectors = [extract_features(p, lexicons) for p in pages]
        labels = [p.label for p in pages]
        sorted_shapes = []
        argsort = np.argsort

        def counting(a, *args, **kwargs):
            sorted_shapes.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        walks = count_forest_votes(monkeypatch)
        forest, report = train_forest(vectors, labels, TrainConfig(fn_cost=20.0))
        assert sorted_shapes == [(len(ATTRIBUTE_NAMES), len(vectors))]
        assert walks == []
        # many nodes in several distinct trees were grown from that one sort
        assert report.distinct_trees > 1
        assert sum(ts.size for ts in report.per_tree) > 50


class TestTreeClassify:
    """One tree's label and path, read from a one-tree forest_votes walk."""

    def test_descends_by_threshold(self):
        tree = Split(
            "nbr_img", 5.0, Leaf(SAFE), Split("in_url", 0.5, Leaf(SAFE), Leaf(ADULT))
        )
        assert forest_votes((tree,), make_vector(nbr_img=3)) == (False,)
        assert forest_votes((tree,), make_vector(nbr_img=9, in_url=1)) == (True,)
        # boundary value goes left
        assert forest_votes((tree,), make_vector(nbr_img=5, in_url=1)) == (False,)

    def test_reports_only_path_attributes(self):
        tree = Split(
            "nbr_img", 5.0, Leaf(SAFE), Split("in_url", 0.5, Leaf(SAFE), Leaf(ADULT))
        )
        visited = set()
        forest_votes((tree,), make_vector(nbr_img=1), visited)
        assert visited == {"nbr_img"}

    def test_matches_recursive_oracle(self):
        rnd = random.Random(11)
        for _ in range(300):
            tree = random_tree(rnd)
            fv = random_vector(rnd)
            label, names = oracle_tree_classify(tree, fv)
            visited = set()
            assert forest_votes((tree,), fv, visited) == (label == ADULT,)
            assert visited == names


class TestForestVotes:
    """One walk serves votes, score, verdict, usage and one tree's path.

    Vectors take their values from the trees' own thresholds and their
    float neighbours, so `value == threshold` is common on every path.
    """

    @staticmethod
    def _cases(seed, n_forests=40, n_vectors=25):
        rnd = random.Random(seed)
        for _ in range(n_forests):
            trees = tuple(random_tree(rnd, max_depth=5) for _ in range(rnd.randint(1, 12)))
            thresholds = {}
            for tree in trees:
                tree_thresholds(tree, thresholds)
            yield trees, [threshold_vector(rnd, thresholds) for _ in range(n_vectors)]

    def test_cases_hit_thresholds_of_every_attribute(self):
        equal = set()
        for trees, vectors in self._cases(5):
            for tree in trees:
                for name, values in tree_thresholds(tree).items():
                    if any(fv[name] in values for fv in vectors):
                        equal.add(name)
        assert equal == set(ATTRIBUTE_NAMES)

    def test_votes_score_and_verdict_match_oracle(self):
        for trees, vectors in self._cases(5):
            n = len(trees)
            for fv in vectors:
                oracle = [oracle_tree_classify(t, fv) for t in trees]
                expected = tuple(label == ADULT for label, _ in oracle)
                visited = set()
                assert forest_votes(trees, fv) == expected
                assert forest_votes(trees, fv, visited) == expected
                assert visited == set().union(*(names for _, names in oracle))
                score = sum(expected) / n
                assert forest_score(Forest(trees), fv) == score
                for k in {1, (n + 1) // 2, n}:
                    forest = Forest(trees, count_threshold(n, k))
                    assert classify(forest, fv) == (ADULT if sum(expected) >= k else SAFE)
                for tree, (label, names) in zip(trees, oracle):
                    visited = set()
                    assert forest_votes((tree,), fv, visited) == (label == ADULT,)
                    assert visited == names

    def test_attribute_usage_matches_oracle(self):
        for trees, vectors in self._cases(6, n_forests=20):
            usage = attribute_usage(Forest(trees), vectors)
            for name in ATTRIBUTE_NAMES:
                used = sum(
                    any(name in oracle_tree_classify(t, fv)[1] for t in trees)
                    for fv in vectors
                )
                assert usage[name] == used / len(vectors)

    def test_visited_is_left_alone_without_a_split(self):
        visited = {"in_url"}
        assert forest_votes((Leaf(ADULT), Leaf(SAFE)), make_vector(), visited) == (True, False)
        assert visited == {"in_url"}


def _rebuilt(node):
    """The same tree made afresh by the constructors."""
    if isinstance(node, Leaf):
        return Leaf(node.label, node.weights)
    return Split(node.attribute, node.threshold, _rebuilt(node.left), _rebuilt(node.right))


def _shift_attributes(node):
    """Every split moved to the next attribute, by dataclasses.replace."""
    if isinstance(node, Leaf):
        return node
    i = ATTRIBUTE_NAMES.index(node.attribute)
    return dataclasses.replace(
        node,
        attribute=ATTRIBUTE_NAMES[(i + 1) % len(ATTRIBUTE_NAMES)],
        left=_shift_attributes(node.left),
        right=_shift_attributes(node.right),
    )


def _flip_labels(node):
    """Every leaf given the other label, by dataclasses.replace."""
    if isinstance(node, Leaf):
        return dataclasses.replace(node, label=SAFE if node.label == ADULT else ADULT)
    return dataclasses.replace(node, left=_flip_labels(node.left), right=_flip_labels(node.right))


def _one_tree_round_trip(node):
    return forest_from_json(forest_to_json(Forest((node,)))).trees[0]


class TestResolvedFields:
    """A split's column and a leaf's adult flag come with every way a node
    is made, and stay out of equality, hashing, repr and the model JSON."""

    VARIANTS = {
        "built": lambda t: t,
        "json": _one_tree_round_trip,
        "replace attribute": _shift_attributes,
        "replace label": _flip_labels,
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda t: pickle.loads(pickle.dumps(t)),
    }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0))
    def test_every_variant_walks_like_the_oracle(self, seed):
        rnd = random.Random(seed)
        tree = random_tree(rnd, max_depth=5)
        vectors = [random_vector(rnd) for _ in range(5)]
        vectors += [threshold_vector(rnd, tree_thresholds(tree)) for _ in range(5)]
        for name, make in self.VARIANTS.items():
            node = make(tree)
            for fv in vectors:
                label, names = oracle_tree_classify(node, fv)
                visited = set()
                assert forest_votes((node,), fv, visited) == (label == ADULT,), name
                assert visited == names, name
            twin = _rebuilt(node)
            assert node == twin and hash(node) == hash(twin), name
            assert repr(node) == repr(twin), name
            assert forest_to_json(Forest((node,))) == forest_to_json(Forest((twin,))), name
            assert format_tree(node) == format_tree(twin), name
            assert len({node, twin}) == 1, name

    def test_fields_are_outside_repr_and_json(self):
        tree = Split("in_url", 0.5, Leaf(SAFE, (0.0, 2.0)), Leaf(ADULT, (3.0, 0.0)))
        assert (tree.column, tree.left.adult, tree.right.adult) == (0, False, True)
        assert repr(tree) == (
            "Split(attribute='in_url', threshold=0.5, "
            "left=Leaf(label='safe', weights=(0.0, 2.0)), "
            "right=Leaf(label='adult', weights=(3.0, 0.0)))"
        )
        (doc,) = json.loads(forest_to_json(Forest((tree,))))["trees"]
        assert set(doc) == {"attr", "thr", "left", "right"}
        assert set(doc["left"]) == set(doc["right"]) == {"label", "weights"}
        with pytest.raises(TypeError):
            Split("in_url", 0.5, Leaf(SAFE), Leaf(ADULT), 3)


class TestVoting:
    def test_strict_majority_threshold(self):
        fv = make_vector()
        assert classify(vote_forest(6, 10), fv) == ADULT
        assert classify(vote_forest(5, 10), fv) == SAFE

    def test_forest_score(self):
        assert forest_score(vote_forest(3, 10), make_vector()) == pytest.approx(0.3)

    def test_count_threshold(self):
        thr = count_threshold(10, 3)
        fv = make_vector()
        assert classify(vote_forest(3, 10, thr), fv) == ADULT
        assert classify(vote_forest(2, 10, thr), fv) == SAFE

    def test_count_threshold_bounds(self):
        with pytest.raises(ValueError):
            count_threshold(10, 0)
        with pytest.raises(ValueError):
            count_threshold(10, 11)

    def test_raising_threshold_never_flips_safe_to_adult(self):
        rnd = random.Random(23)
        for _ in range(100):
            trees = tuple(random_tree(rnd, max_depth=2) for _ in range(5))
            fv = random_vector(rnd)
            t1, t2 = sorted((rnd.uniform(0.05, 0.95), rnd.uniform(0.05, 0.95)))
            low = classify(Forest(trees, t1), fv)
            high = classify(Forest(trees, t2), fv)
            assert not (low == SAFE and high == ADULT)

    def test_forest_validation(self):
        with pytest.raises(ValueError):
            Forest(())
        with pytest.raises(ValueError):
            Forest((Leaf(SAFE),), vote_threshold=0.0)
        # 0 < True <= 1, yet the model JSON refuses a bool threshold
        with pytest.raises(ValueError, match="got True"):
            Forest((Leaf(SAFE),), vote_threshold=True)


class TestTrainForest:
    def _separable(self, n_adult=10, n_safe=10):
        vectors = [make_vector(nbr_img=20 + i, in_url=2) for i in range(n_adult)]
        vectors += [make_vector(nbr_img=i) for i in range(n_safe)]
        labels = [ADULT] * n_adult + [SAFE] * n_safe
        return vectors, labels

    def test_perfect_on_separable_data(self):
        vectors, labels = self._separable()
        forest, report = train_forest(
            vectors, labels, TrainConfig(rng_seed=1, min_leaf_weight=0.5)
        )
        assert len(forest.trees) == 10
        assert report.global_training_error == 0.0
        for fv, label in zip(vectors, labels):
            assert classify(forest, fv) == label

    def test_deterministic_given_seed(self):
        vectors, labels = self._separable()
        f1, _ = train_forest(vectors, labels, TrainConfig(rng_seed=5, min_leaf_weight=0.5))
        f2, _ = train_forest(vectors, labels, TrainConfig(rng_seed=5, min_leaf_weight=0.5))
        assert forest_to_json(f1) == forest_to_json(f2)

    def test_trains_the_loop_search_models(self, lexicons, monkeypatch):
        pages = generate_corpus(lexicons, 160, 80, seed=4, overlap=0.3)
        vectors = [extract_features(p, lexicons) for p in pages]
        labels = [p.label for p in pages]
        config = TrainConfig(fn_cost=20.0, rng_seed=4)
        arrays, _ = train_forest(vectors, labels, config)
        monkeypatch.setattr(
            safeindex.forest, "best_split",
            lambda X, y, w, names, min_leaf, order: loop_best_split(X, y, w, names, min_leaf),
        )
        loop, _ = train_forest(vectors, labels, config)
        assert forest_to_json(arrays) == forest_to_json(loop)

    def test_restart_draws_come_from_the_seed(self):
        # one value for every row: each tree is one leaf.  The first tree
        # calls all four rows adult; the second sees equal class weights,
        # so its error is 0.5 and the third starts from perturbed weights.
        vectors = [make_vector(nbr_img=1.0)] * 4
        labels = [ADULT, ADULT, SAFE, SAFE]

        def train(seed):
            forest, _ = train_forest(vectors, labels, TrainConfig(fn_cost=20.0, rng_seed=seed))
            return forest

        first, again, other = train(1), train(1), train(2)
        assert forest_to_json(first) == forest_to_json(again)
        assert first.trees[:2] == other.trees[:2]
        assert first.trees[2].weights != other.trees[2].weights
        # the draws are those of a generator seeded with rng_seed
        initial = np.array([20.0, 20.0, 1.0, 1.0])
        initial *= 4 / initial.sum()
        w = initial * np.random.default_rng(1).uniform(0.8, 1.2, 4)
        w *= 4 / w.sum()
        adult = float(w[:2].sum())
        assert first.trees[2].weights == (adult, float(w.sum()) - adult)

    def test_report_counts_restarts_and_distinct_trees(self, monkeypatch):
        # the four identical rows above: every other round has error 0.5
        vectors = [make_vector(nbr_img=1.0)] * 4
        labels = [ADULT, ADULT, SAFE, SAFE]
        forest, report = train_forest(vectors, labels, TrainConfig(fn_cost=20.0, rng_seed=1))
        assert report.restarts >= 1
        assert report.distinct_trees == len(set(forest.trees))

        # separable rows: error 0 from the first round, so the weights never
        # move; the first tree is grown once and fills all ten rounds
        roots = []
        grow = safeindex.forest.grow_tree

        def counting(X, y, w, rows, order, pred, config, depth=0):
            if depth == 0:
                roots.append(len(rows))
            return grow(X, y, w, rows, order, pred, config, depth)

        monkeypatch.setattr(safeindex.forest, "grow_tree", counting)
        vectors, labels = self._separable()
        forest, report = train_forest(vectors, labels, TrainConfig(rng_seed=1, min_leaf_weight=0.5))
        assert report.restarts == 0
        assert report.distinct_trees == 1
        assert len(forest.trees) == 10
        assert len(roots) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_report_errors_match_the_oracle_walk(self, lexicons, seed):
        """The global error is the returned model's, at the threshold the
        config sets and the model saves: the default, --min-votes 3's, 0.75."""
        pages = generate_corpus(lexicons, 200, 100, seed=seed, overlap=0.3)
        vectors = [extract_features(p, lexicons) for p in pages]
        labels = [p.label for p in pages]
        n = len(vectors)
        for threshold in (0.5, count_threshold(10, 3), 0.75):
            config = TrainConfig(fn_cost=20.0, vote_threshold=threshold)
            forest, report = train_forest(vectors, labels, config)
            assert forest.vote_threshold == threshold
            for tree, stats in zip(forest.trees, report.per_tree):
                wrong = sum(oracle_tree_classify(tree, fv)[0] != label
                            for fv, label in zip(vectors, labels))
                assert stats.training_error == wrong / n
            wrong = 0
            for fv, label in zip(vectors, labels):
                votes = sum(oracle_tree_classify(t, fv)[0] == ADULT for t in forest.trees)
                oracle = ADULT if votes / len(forest.trees) > threshold else SAFE
                wrong += oracle != label
            assert report.global_training_error == wrong / n

    def test_equals_the_loop_that_grows_every_round(self):
        rnd = random.Random(17)
        perfect_rounds = restarts = 0
        for case in range(120):
            kind = case % 3
            n = rnd.randint(4, 16)
            if kind == 0:  # separable: a perfect round, often the first
                labels = [ADULT if i < n // 2 else SAFE for i in range(n)]
                vectors = [
                    make_vector(nbr_img=rnd.randint(10, 14) if label == ADULT else rnd.randint(0, 9),
                                in_url=rnd.randint(0, 2))
                    for label in labels
                ]
            elif kind == 1:  # identical rows: every tree is one leaf, and rounds restart
                vectors = [make_vector(nbr_img=1.0)] * n
                labels = [ADULT] * rnd.randint(1, n - 1)
                labels += [SAFE] * (n - len(labels))
            else:  # noisy: labels independent of the values
                labels = [ADULT, SAFE] + [rnd.choice([ADULT, SAFE]) for _ in range(n - 2)]
                vectors = [
                    make_vector(nbr_img=rnd.randint(0, 3), in_url=rnd.randint(0, 2),
                                **{"nb_tags-en": rnd.randint(0, 3)})
                    for _ in labels
                ]
            config = TrainConfig(
                n_trees=rnd.randint(1, 10),
                fn_cost=rnd.choice([1.0, 20.0]),
                min_leaf_weight=rnd.choice([0.5, 1.0, 2.0]),
                rng_seed=rnd.randint(0, 99),
            )
            forest, report = train_forest(vectors, labels, config)
            loop_forest, loop_report = loop_train_forest(vectors, labels, config)
            assert forest_to_json(forest) == forest_to_json(loop_forest)
            assert report == loop_report
            perfect_rounds += any(t.training_error == 0 for t in report.per_tree[:-1])
            restarts += report.restarts > 0
        assert perfect_rounds > 10 and restarts > 10

    def test_bad_labels_raise(self):
        vectors = [make_vector(nbr_img=i) for i in range(6)]
        labels = [ADULT, ADULT, "Adult", None, SAFE, "bogus"]
        with pytest.raises(ValueError, match="bad training label 'Adult'"):
            train_forest(vectors, labels, TrainConfig(n_trees=2))

    def test_degenerate_labels_raise(self):
        vectors, _ = self._separable()
        with pytest.raises(TrainingError, match="degenerate"):
            train_forest(vectors, [ADULT] * len(vectors))

    def test_too_few_rows_raise(self):
        with pytest.raises(TrainingError):
            train_forest([make_vector()], [ADULT])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            train_forest([make_vector()], [ADULT, SAFE])

    def test_report_shape(self):
        vectors, labels = self._separable()
        _, report = train_forest(vectors, labels, TrainConfig(n_trees=3, min_leaf_weight=0.5))
        assert len(report.per_tree) == 3
        assert all(ts.size >= 1 for ts in report.per_tree)
        assert math.isfinite(report.global_training_error)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_trees=0)
        with pytest.raises(ValueError):
            TrainConfig(fn_cost=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_depth=0)
        # neither a fraction nor a bool counts trees or levels; NaN passes >= 1
        for field, value in [("n_trees", 2.5), ("n_trees", 3.0), ("n_trees", True),
                             ("max_depth", math.nan), ("max_depth", 4.0), ("max_depth", True)]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TrainConfig(**{field: value})
        for value in (0.0, 1.5, math.nan, True, "0.5"):
            with pytest.raises(ValueError, match="vote_threshold"):
                TrainConfig(vote_threshold=value)
        assert TrainConfig(vote_threshold=1).vote_threshold == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["fn_cost", "min_leaf_weight"])
    def test_non_finite_cost_raises(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})


class TestSerialization:
    def _forest(self):
        tree = Split(
            "nbr_img",
            5.5,
            Leaf(SAFE, (0.5, 9.5)),
            Split("ratio_tags-en", 0.01, Leaf(SAFE, (0.0, 1.0)), Leaf(ADULT, (8.0, 0.2))),
        )
        return Forest((tree, Leaf(ADULT, (3.0, 1.0))), vote_threshold=0.25)

    def test_round_trip_is_identity(self):
        forest = self._forest()
        assert forest_from_json(forest_to_json(forest)) == forest

    def test_file_round_trip(self, tmp_path):
        forest = self._forest()
        path = tmp_path / "model.json"
        save_forest(forest, path)
        assert load_forest(path) == forest

    def test_bad_version_raises(self):
        with pytest.raises(SafeIndexError, match="version"):
            forest_from_json('{"version": 99, "vote_threshold": 0.5, "trees": []}')

    @pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0")])
    def test_version_must_be_the_integer_1(self, version, shown):
        """True and 1.0 compare equal to 1, but neither is the version."""
        doc = f'{{"version": {version}, "vote_threshold": 0.5, "trees": [{{"label": "safe"}}]}}'
        with pytest.raises(SafeIndexError, match=f"^unsupported model version {shown}$"):
            forest_from_json(doc)

    def test_bad_json_raises(self):
        with pytest.raises(SafeIndexError, match="JSON"):
            forest_from_json("{nope")

    def test_integer_past_the_digit_limit_raises(self):
        """json.loads raises a plain ValueError for an int of over 4300 digits."""
        with pytest.raises(SafeIndexError, match="4300 digits"):
            forest_from_json('{"version": 1, "vote_threshold": ' + "1" * 5000 + "}")

    def test_unknown_attribute_raises(self):
        doc = (
            '{"version": 1, "vote_threshold": 0.5, "trees": ['
            '{"attr": "bogus", "thr": 1.0,'
            ' "left": {"label": "safe", "weights": [0, 1]},'
            ' "right": {"label": "adult", "weights": [1, 0]}}]}'
        )
        with pytest.raises(SafeIndexError, match="attribute"):
            forest_from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"version": 1}',
            '{"version": 1, "trees": [{"label": "safe"}]}',
            '{"version": 1, "vote_threshold": 0.5, "trees": [{"thr": 1.0}]}',
            '{"version": 1, "vote_threshold": 0.5, "trees": [{"attr": "nbr_img"}]}',
            '{"version": 1, "vote_threshold": 0.5, "trees": [{"attr": "nbr_img",'
            ' "thr": "high", "left": {"label": "safe"}, "right": {"label": "safe"}}]}',
            '{"version": 1, "vote_threshold": 0.5, "trees": 7}',
            '{"version": 1, "vote_threshold": 0.5, "trees": []}',
        ],
    )
    def test_malformed_model_raises(self, doc):
        with pytest.raises(SafeIndexError, match="malformed model"):
            forest_from_json(doc)

    @pytest.mark.parametrize("name", BAD_NUMBER_MODELS)
    def test_nan_or_non_number_raises(self, name):
        """A NaN threshold would send every page right (no value is <= NaN);
        float() would read "0.5", true, and "12" as the weights (1.0, 2.0)."""
        with pytest.raises(SafeIndexError, match="malformed model") as info:
            forest_from_json(bad_number_model(name))
        assert BAD_NUMBER_MODELS[name][2] in str(info.value)

    def test_integer_numbers_load(self):
        doc = ('{"version": 1, "vote_threshold": 1, "trees": [{"attr": "nbr_img",'
               ' "thr": 5, "left": {"label": "safe", "weights": [0, 1]},'
               ' "right": {"label": "adult", "weights": [2, 0]}}]}')
        assert forest_from_json(doc) == Forest(
            (Split("nbr_img", 5.0, Leaf(SAFE, (0.0, 1.0)), Leaf(ADULT, (2.0, 0.0))),), 1.0
        )

    def test_deeply_nested_model_raises(self):
        n = 5000
        doc = (
            '{"version": 1, "vote_threshold": 0.5, "trees": ['
            + '{"attr": "nbr_img", "thr": 1.0, "right": {"label": "safe"}, "left": ' * n
            + '{"label": "safe"}' + "}" * n + "]}"
        )
        with pytest.raises(SafeIndexError):
            forest_from_json(doc)

    def test_non_object_model_raises(self):
        with pytest.raises(SafeIndexError, match="version"):
            forest_from_json("[1, 2]")

    def test_non_utf8_model_file_raises(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(SafeIndexError, match="UTF-8"):
            load_forest(path)

    def test_bad_label_raises(self):
        doc = '{"version": 1, "vote_threshold": 0.5, "trees": [{"label": "odd"}]}'
        with pytest.raises(SafeIndexError, match="label"):
            forest_from_json(doc)


class TestFormatting:
    def test_format_tree_shows_splits_and_weights(self):
        tree = Split("nbr_img", 5.5, Leaf(SAFE, (0.0, 4.0)), Leaf(ADULT, (3.0, 1.0)))
        text = format_tree(tree)
        assert "nbr_img > 5.5?" in text
        assert "adult (3.0/1.0)" in text
        assert "safe (0.0/4.0)" in text

    def test_format_report(self):
        vectors = [make_vector(nbr_img=20), make_vector(nbr_img=21),
                   make_vector(nbr_img=1), make_vector(nbr_img=2)]
        labels = [ADULT, ADULT, SAFE, SAFE]
        _, report = train_forest(vectors, labels, TrainConfig(n_trees=2))
        text = format_report(report)
        assert "tree id" in text
        assert "global error:" in text
        assert f"restarts: {report.restarts}" in text
        assert f"distinct trees: {report.distinct_trees}/2" in text
