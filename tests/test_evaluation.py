import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from safeindex import (
    ADULT,
    SAFE,
    ConfusionMatrix,
    Forest,
    Leaf,
    SafeIndexError,
    Split,
    attribute_usage,
    metrics,
    score_run,
)
from safeindex.evaluation import format_confusion
from safeindex.features import ATTRIBUTE_NAMES

from helpers import (
    make_vector,
    oracle_tree_classify,
    random_tree,
    random_vector,
)

PAIRS = st.lists(
    st.tuples(st.sampled_from([ADULT, SAFE]), st.sampled_from([ADULT, SAFE])),
    max_size=50,
)


class TestScoreRun:
    def test_tally(self):
        cm = score_run(
            [
                (ADULT, ADULT),
                (ADULT, SAFE),
                (SAFE, ADULT),
                (SAFE, SAFE),
                (SAFE, SAFE),
            ]
        )
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 2)
        assert cm.total == 5

    def test_bad_gold_raises(self):
        with pytest.raises(SafeIndexError):
            score_run([("unlabeled", ADULT)])

    @given(PAIRS, st.randoms(use_true_random=False))
    def test_order_invariant(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert score_run(pairs) == score_run(shuffled)

    @given(PAIRS)
    def test_counts_partition_the_run(self, pairs):
        assert score_run(pairs).total == len(pairs)


class TestMetrics:
    def test_reference_run(self):
        scores = metrics(ConfusionMatrix(821, 18, 14, 300))
        assert round(scores["miss_rate"] * 100, 2) == 2.15
        assert round(scores["accuracy"] * 100, 2) == 97.22
        assert round(scores["recall"] * 100, 2) == 97.85
        assert round(scores["precision"] * 100, 2) == 98.32

    def test_perfect_run(self):
        scores = metrics(ConfusionMatrix(10, 0, 0, 10))
        assert scores == {
            "miss_rate": 0.0,
            "accuracy": 1.0,
            "recall": 1.0,
            "precision": 1.0,
        }

    def test_undefined_ratios_are_none(self):
        scores = metrics(ConfusionMatrix(0, 0, 0, 5))
        assert scores["miss_rate"] is None
        assert scores["recall"] is None
        assert scores["precision"] is None
        assert scores["accuracy"] == 1.0

    def test_empty_run(self):
        assert metrics(ConfusionMatrix(0, 0, 0, 0))["accuracy"] is None

    def test_miss_rate_complements_recall(self):
        scores = metrics(ConfusionMatrix(821, 18, 14, 300))
        assert scores["miss_rate"] + scores["recall"] == pytest.approx(1.0)


class TestFormatConfusion:
    def test_layout(self):
        text = format_confusion(ConfusionMatrix(821, 18, 14, 300))
        lines = text.splitlines()
        assert len(lines) == 3
        assert "<- classified as" in lines[0]
        assert "821" in lines[1] and "18" in lines[1] and "class adult" in lines[1]
        assert "14" in lines[2] and "300" in lines[2] and "class safe" in lines[2]


class TestAttributeUsage:
    def test_root_attribute_used_on_every_page(self):
        tree = Split("nbr_img", 5.0, Leaf(SAFE), Leaf(ADULT))
        forest = Forest((tree,))
        vectors = [make_vector(nbr_img=v) for v in (0, 3, 9)]
        usage = attribute_usage(forest, vectors)
        assert usage["nbr_img"] == 1.0
        assert all(usage[n] == 0.0 for n in ATTRIBUTE_NAMES if n != "nbr_img")

    def test_branch_attributes_counted_per_path(self):
        tree = Split(
            "nbr_img", 5.0, Leaf(SAFE), Split("in_url", 0.5, Leaf(SAFE), Leaf(ADULT))
        )
        forest = Forest((tree,))
        vectors = [make_vector(nbr_img=1), make_vector(nbr_img=9)]
        usage = attribute_usage(forest, vectors)
        assert usage["nbr_img"] == 1.0
        assert usage["in_url"] == 0.5

    def test_matches_path_walk_oracle(self):
        rnd = random.Random(17)
        for _ in range(20):
            forest = Forest(tuple(random_tree(rnd, max_depth=3) for _ in range(4)))
            vectors = [random_vector(rnd) for _ in range(15)]
            usage = attribute_usage(forest, vectors)
            assert tuple(usage) == ATTRIBUTE_NAMES
            for name in ATTRIBUTE_NAMES:
                expected = sum(
                    1
                    for fv in vectors
                    if any(
                        name in oracle_tree_classify(t, fv)[1] for t in forest.trees
                    )
                ) / len(vectors)
                assert usage[name] == expected

    def test_empty_vector_list(self):
        forest = Forest((Leaf(SAFE),))
        assert set(attribute_usage(forest, []).values()) == {0.0}
