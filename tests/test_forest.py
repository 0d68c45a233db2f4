import math
import random

import numpy as np
import pytest

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
    tree_classify,
)
import safeindex.forest
from safeindex.errors import TrainingError
from safeindex.evaluation import attribute_usage
from safeindex.features import ATTRIBUTE_NAMES
from safeindex.forest import (
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
    loop_best_split,
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
        rows = [
            ((0.0,), True, 1.0),
            ((1.0,), False, 1.0),
            ((1.0,), False, 1.0),
            ((1.0,), False, 1.0),
        ]
        # the only boundary leaves 1.0 on the left, below the floor
        assert best_split(*self._table(rows), ["a"], 2.0) is None
        assert best_split(*self._table(rows), ["a"], 1.0) is not None

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
        for _ in range(2000):
            names = rnd.sample("abcdefgh", rnd.randint(1, 8))
            n = rnd.randint(2, 40)
            X = np.array(
                [[float(rnd.randint(0, 3)) for _ in names] for _ in range(n)]
            )
            y = np.array([rnd.random() < 0.5 for _ in range(n)])
            w = np.array([rnd.choice([0.5, 1.0, 20.0]) for _ in range(n)])
            min_leaf = rnd.choice([0.5, 1.0, 2.0])
            assert best_split(X, y, w, names, min_leaf) == loop_best_split(
                X, y, w, names, min_leaf
            )


class TestGrowTree:
    CONFIG = TrainConfig(n_trees=1, fn_cost=1.0, min_leaf_weight=1.0)

    def _data(self, rows):
        X = np.array([fv.values for fv, _ in rows], dtype=float)
        y = np.array([label == ADULT for _, label in rows], dtype=bool)
        w = np.ones(len(rows))
        return X, y, w

    def test_pure_input_yields_leaf(self):
        rows = [(make_vector(nbr_img=i), ADULT) for i in range(4)]
        tree = grow_tree(*self._data(rows), self.CONFIG)
        assert isinstance(tree, Leaf)
        assert tree.label == ADULT
        assert tree.weights == (4.0, 0.0)

    def test_separable_input_yields_perfect_tree(self):
        rows = [(make_vector(nbr_img=20 + i), ADULT) for i in range(5)]
        rows += [(make_vector(nbr_img=i), SAFE) for i in range(5)]
        X, y, w = self._data(rows)
        tree = grow_tree(X, y, w, self.CONFIG)
        for fv, label in rows:
            assert tree_classify(tree, fv)[0] == label

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

    def test_split_rejects_an_unknown_attribute(self):
        with pytest.raises(ValueError, match="unknown attribute 'no_such_attr'"):
            Split("no_such_attr", 1.0, Leaf(SAFE), Leaf(ADULT))


class TestTreeClassify:
    def test_descends_by_threshold(self):
        tree = Split(
            "nbr_img", 5.0, Leaf(SAFE), Split("in_url", 0.5, Leaf(SAFE), Leaf(ADULT))
        )
        assert tree_classify(tree, make_vector(nbr_img=3))[0] == SAFE
        assert tree_classify(tree, make_vector(nbr_img=9, in_url=1))[0] == ADULT
        # boundary value goes left
        assert tree_classify(tree, make_vector(nbr_img=5, in_url=1))[0] == SAFE

    def test_reports_only_path_attributes(self):
        tree = Split(
            "nbr_img", 5.0, Leaf(SAFE), Split("in_url", 0.5, Leaf(SAFE), Leaf(ADULT))
        )
        _, visited = tree_classify(tree, make_vector(nbr_img=1))
        assert visited == {"nbr_img"}

    def test_matches_recursive_oracle(self):
        rnd = random.Random(11)
        for _ in range(300):
            tree = random_tree(rnd)
            fv = random_vector(rnd)
            assert tree_classify(tree, fv) == oracle_tree_classify(tree, fv)


class TestForestVotes:
    """One walk serves votes, score, verdict, usage and tree_classify.

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
                for tree, oracle_result in zip(trees, oracle):
                    assert tree_classify(tree, fv) == oracle_result

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
        monkeypatch.setattr(safeindex.forest, "best_split", loop_best_split)
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

    def test_report_counts_restarts_and_distinct_trees(self):
        # the four identical rows above: every other round has error 0.5
        vectors = [make_vector(nbr_img=1.0)] * 4
        labels = [ADULT, ADULT, SAFE, SAFE]
        forest, report = train_forest(vectors, labels, TrainConfig(fn_cost=20.0, rng_seed=1))
        assert report.restarts >= 1
        assert report.distinct_trees == len(set(forest.trees))

        # separable rows: error 0 from the first round, so the weights never
        # move and every round regrows the first tree
        vectors, labels = self._separable()
        forest, report = train_forest(vectors, labels, TrainConfig(rng_seed=1, min_leaf_weight=0.5))
        assert report.restarts == 0
        assert report.distinct_trees == 1
        assert len(forest.trees) == 10

    @pytest.mark.parametrize("seed", range(4))
    def test_report_errors_match_the_oracle_walk(self, lexicons, seed):
        pages = generate_corpus(lexicons, 200, 100, seed=seed, overlap=0.3)
        vectors = [extract_features(p, lexicons) for p in pages]
        labels = [p.label for p in pages]
        forest, report = train_forest(vectors, labels, TrainConfig(fn_cost=20.0))
        n = len(vectors)
        for tree, stats in zip(forest.trees, report.per_tree):
            wrong = sum(oracle_tree_classify(tree, fv)[0] != label
                        for fv, label in zip(vectors, labels))
            assert stats.training_error == wrong / n
        wrong = 0
        for fv, label in zip(vectors, labels):
            votes = sum(oracle_tree_classify(t, fv)[0] == ADULT for t in forest.trees)
            oracle = ADULT if votes / len(forest.trees) > forest.vote_threshold else SAFE
            wrong += oracle != label
        assert report.global_training_error == wrong / n

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

    def test_bad_json_raises(self):
        with pytest.raises(SafeIndexError, match="JSON"):
            forest_from_json("{nope")

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
