import ast
import collections
import copy
import dataclasses
import json
import math
import pickle
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    MAX_DEPTH,
    _approximate_scores,
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

from safeindex.pipeline import FilterState
from safeindex.synth import generate_corpus, generate_lexicon_materials

from helpers import (
    BAD_NUMBER_MODELS,
    bad_number_model,
    count_forest_votes,
    loop_best_split,
    loop_split_candidates,
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

    def test_array_form_takes_no_log_of_one(self, monkeypatch):
        logs = []
        log2 = math.log2

        def counting(x):
            logs.append(x)
            return log2(x)

        monkeypatch.setattr(safeindex.forest.math, "log2", counting)
        for adult, safe, calls in [
            (3.0, 0.0, 0),  # a pure pair: its one probability is 1.0
            (0.0, 0.5, 0),
            (1.0, 3.0, 2),  # a mixed pair: one log per side
        ]:
            want = entropy(adult, safe)  # which logs 1.0 too
            logs.clear()
            got = _entropies(np.array([adult]), np.array([safe]))
            assert len(logs) == calls
            assert got.tolist()[0].hex() == want.hex()
        # a probability that underflows to 0 is still logged, and raises
        with pytest.raises(ValueError):
            _entropies(np.array([5e-324]), np.array([1e300]))

    def test_approximate_pass_is_within_its_bound(self, monkeypatch):
        """best_split's one np.log2 pass (_approximate_scores) gives every
        gain and split entropy within beta = 2**-48 * (2 |log2 total| + 4)
        of entropy()'s, a thousandth of _SLACK or less at totals up to 1e6.
        Seeded nodes of 2 to 1000 rows weigh 1e-10 to 1e3 a row, many of
        them mixed across that whole range."""
        rng = np.random.default_rng(38)
        candidates = widest = 0
        for node in range(150):
            n = int(rng.integers(2, 1001)) if node % 3 else int(rng.integers(2, 40))
            w = 10.0 ** rng.uniform(rng.uniform(-10.0, 3.0), 3.0, n)
            y = rng.random(n) < rng.uniform(0.05, 0.95)
            if y.all() or not y.any():
                continue
            total, total_adult = float(w.sum()), float(w[y].sum())
            total_safe = total - total_adult
            parent = entropy(total_adult, total_safe)
            order = rng.permutation(n)
            cw = np.cumsum(w[order])[:-1]  # every boundary of one attribute
            ca = np.cumsum(np.where(y[order], w[order], 0.0))[:-1]
            keep = (cw >= 1e-3) & (total - cw >= 1e-3)
            gains, splits = _approximate_scores(cw[keep], ca[keep], total, total_adult, parent)
            beta = 2.0**-48 * (2 * abs(math.log2(total)) + 4)
            assert beta <= safeindex.forest._SLACK / 1000
            for wl, la, gain, split in zip(cw[keep].tolist(), ca[keep].tolist(), gains, splits):
                wr, ls = total - wl, max(wl - la, 0.0)
                ra, rs = max(total_adult - la, 0.0), max(total_safe - ls, 0.0)
                exact = parent - (wl * entropy(la, ls) + wr * entropy(ra, rs)) / total
                assert abs(gain - exact) <= beta
                assert abs(split - entropy(wl, wr)) <= beta
                candidates += 1
            widest = max(widest, total)
        assert candidates > 20_000 and widest > 1e5
        # a share that underflows to 0 takes the exact search, with no np.log2,
        # and raises as entropy() does: 5e-324 beside 3 is a probability of 0
        calls = []
        monkeypatch.setattr(np, "log2", _off_log2(np.log2, calls))
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([True, False, True, False])
        w = np.array([5e-324, 3.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            entropy(5e-324, 3.0)
        for search in (best_split, loop_best_split):
            with pytest.raises(ValueError):
                search(X, y, w, ["a"], 0.5)
        assert calls == []

    def test_np_log2_is_within_4_ulp_of_math_log2(self):
        """best_split's margin, _SLACK, is about a million times what a gap
        of 1 ULP moves a gain by; a numpy whose log2 strays further fails
        here, before it can change a model."""
        rng = np.random.default_rng(2015)
        x = np.concatenate([
            rng.uniform(0.0, 1.0, 510_000),
            np.exp2(rng.uniform(-1074.0, 0.0, 510_000)),  # every binade, subnormals too
            [5e-324, 2.0**-1022, math.nextafter(2.0**-1022, 0.0), 0.5, 1.0 - 2.0**-53],
        ])
        x = x[(x > 0.0) & (x < 1.0)]
        assert len(x) >= 1_000_000
        exact = np.fromiter(map(math.log2, x.tolist()), float, len(x))
        approx = np.log2(x)
        # both negative, so their gap in ULP is the gap of their bit patterns
        assert (exact < 0.0).all() and (approx < 0.0).all()
        assert np.abs(exact.view(np.int64) - approx.view(np.int64)).max() <= 4


class TestLeafLabel:
    def test_cost_shifts_the_boundary(self):
        assert leaf_label(1.0, 19.0, 20.0) == ADULT
        assert leaf_label(1.0, 21.0, 20.0) == SAFE

    def test_exact_boundary_is_safe(self):
        assert leaf_label(1.0, 20.0, 20.0) == SAFE

    def test_unit_cost_is_majority(self):
        assert leaf_label(3.0, 2.0, 1.0) == ADULT
        assert leaf_label(2.0, 3.0, 1.0) == SAFE


@st.composite
def _near_tie_nodes(draw):
    """(X, y, w, names, min_leaf) of a node whose columns are copies and
    mirrors of a few small-integer columns, or constant, whose rows may
    come back with the other label (zero-gain boundaries), and whose
    weights come from a few values (tied and nearly tied gains)."""
    n = draw(st.integers(2, 24))
    value = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    base = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=3))
    kinds = draw(st.lists(
        st.tuples(st.sampled_from(["copy", "mirror", "constant"]), st.integers(0, len(base) - 1)),
        min_size=1, max_size=6,
    ))
    X = np.array([
        base[j] if kind == "copy" else [3.0 - v for v in base[j]] if kind == "mirror" else [1.0] * n
        for kind, j in kinds
    ]).T
    y = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    weight = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 20.0])
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    twins = draw(st.sampled_from(["none", "all", "some"]))
    if twins != "none":
        picked = np.ones(n, bool) if twins == "all" else np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        X = np.concatenate([X, X[picked]])
        y = np.concatenate([y, ~y[picked]])
        w = np.concatenate([w, w[picked]])
    names = draw(st.permutations("abcdef"))[: X.shape[1]]
    return X, y, w, names, draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))


@st.composite
def _tiny_weight_nodes(draw):
    """(X, y, w, names, min_leaf) of a node whose row weights span
    5e-324 to 1e300, so that shares of a side can underflow to 0."""
    n = draw(st.integers(2, 10))
    value = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    X = np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=3))).T
    y = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    weight = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-10, 1.0, 3.0, 1e300])
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    names = list("abc"[: X.shape[1]])
    return X, y, w, names, draw(st.sampled_from([5e-324, 1e-300, 0.5]))


def _off_log2(log2, calls):
    """np.log2 off by a relative error of up to 1e-11, which turns on the
    low bits of each input, so values 1 ULP apart move apart."""

    def off(x):
        calls.append(len(x))
        bits = np.asarray(x, dtype=float).view(np.int64)
        return log2(x) * (1.0 + 1e-11 * ((bits % 2001 - 1000) / 1000.0))

    return off


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

    @staticmethod
    def _tie_heavy_tables(rnd):
        """(X, y, w, names, min_leaf) of tables with many tied candidates."""
        # small integer values and weights from {0.5, 1, 20} make many
        # equal gains, ratios and mean-gain guard edges
        for _ in range(2000):
            names = rnd.sample("abcdefgh", rnd.randint(1, 8))
            n = rnd.randint(2, 40)
            X = np.array(
                [[float(rnd.randint(0, 3)) for _ in names] for _ in range(n)]
            )
            y = np.array([rnd.random() < 0.5 for _ in range(n)])
            w = np.array([rnd.choice([0.5, 1.0, 20.0]) for _ in range(n)])
            yield X, y, w, names, rnd.choice([0.5, 1.0, 2.0])
        # column b mirrors column a, so each split has a twin with the same
        # ratio; weights that binary floats cannot hold round the twins'
        # sums apart, and now and then only their gains differ
        for _ in range(500):
            a = [float(rnd.randint(0, 3)) for _ in range(rnd.randint(4, 12))]
            X = np.array([[v, 3.0 - v] for v in a])
            y = np.array([rnd.random() < 0.5 for _ in a])
            w = np.array([rnd.choice([0.1, 0.2, 0.3, 0.7]) for _ in a])
            yield X, y, w, ["a", "b"], 0.1

    def test_equals_loop_on_tie_heavy_tables(self, monkeypatch):
        light = 0  # mixed nodes lighter than 2 * min_leaf: None before sorting
        tied = []  # per table whose best gain ratio is shared: the sharers
        decided_by = collections.Counter()  # the tie-break that picked the winner
        lexsorts = []
        lexsort = np.lexsort

        def counting(keys, *args, **kwargs):
            lexsorts.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counting)
        for X, y, w, names, min_leaf in self._tie_heavy_tables(random.Random(11)):
            light += y.any() and not y.all() and w.sum() < 2 * min_leaf
            assert best_split(X, y, w, names, min_leaf) == loop_best_split(
                X, y, w, names, min_leaf
            )
            eligible = loop_split_candidates(X, y, w, names, min_leaf)
            top = [c for c in eligible if c[0] == max(e[0] for e in eligible)]
            if len(top) > 1:
                tied.append(len(top))
                top = [c for c in top if c[1] == max(t[1] for t in top)]
                if len(top) == 1:
                    decided_by["gain"] += 1
                else:
                    top = [c for c in top if c[2] == min(t[2] for t in top)]
                    decided_by["name" if len(top) == 1 else "threshold"] += 1
        assert light > 0
        # only a tied table sorts, and it sorts only the candidates that tie
        assert tied and lexsorts == tied
        assert set(decided_by) == {"gain", "name", "threshold"}

    @settings(max_examples=400, deadline=None)
    @given(_near_tie_nodes())
    # every gain is 0, which the off log moves above 0
    @example((np.array([[0.0], [1.0], [0.0], [1.0]]), np.array([False, False, True, True]),
              np.array([0.1] * 4), ["a"], 0.1))
    # mirrored columns whose best ratios are 1 ULP apart, which the off log swaps
    @example((np.array([[0.0, 3.0], [3.0, 0.0], [0.0, 3.0], [2.0, 1.0], [3.0, 0.0]]),
              np.array([False, True, True, True, True]),
              np.array([0.2, 0.7, 0.3, 0.3, 0.7]), ["a", "b"], 0.1))
    # b's gain on the mean-gain guard's edge, which the off log moves below it
    @example((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]),
              np.array([False, False, True, True, True, False]),
              np.array([1.441878044240356, 2.6747288018478637, 1.465482362432195,
                        2.667081341066402, 1.4962573410717517, 0.7564320642524609]),
              ["a", "b"], 0.1))
    def test_the_approximate_log_never_decides(self, node):
        """np.log2 off by tens of thousands of times its real gap to
        math.log2 still leaves every choice to the exact values."""
        X, y, w, names, min_leaf = node
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "log2", _off_log2(np.log2, calls))
            got = best_split(X, y, w, names, min_leaf)
        assert got == loop_best_split(X, y, w, names, min_leaf)
        if loop_split_candidates(X, y, w, names, min_leaf):
            assert calls

    @settings(max_examples=500, deadline=None)
    @given(_tiny_weight_nodes())
    # 5e-324 beside 3 on the left of the one boundary: a probability of 0
    @example((np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([True, False, True, False]),
              np.array([5e-324, 3.0, 1.0, 1.0]), ["a"], 0.5))
    # only a candidate the mean-gain guard drops has a split entropy that
    # underflows, so neither search takes it (the reference once did)
    @example((np.array([[3, 2], [2, 1], [0, 3], [1, 0], [1, 2], [2, 2], [0, 1], [0, 0]], dtype=float),
              np.array([True, False, False, False, True, True, True, False]),
              np.array([1e-10, 1e-300, 3, 5e-324, 1, 1, 1e-310, 5e-324]), ["a", "b"], 5e-324))
    # one gain the loop takes has a side of 1e-310 adult beside 1e300 safe,
    # whose share underflows; the approximate pass alone returns a split
    @example((np.array([[1, 1], [3, 2], [2, 0], [1, 0], [2, 3], [0, 1], [3, 0]], dtype=float),
              np.array([False, False, False, True, False, True, False]),
              np.array([5e-324, 3, 3, 1e-310, 1e300, 1e300, 1e300]), ["a", "b"], 0.5))
    # subnormal weights, whose x log2 x have too few bits for the pass to
    # rank by: the search takes exact values, and splits where the loop does
    @example((np.array([[3.0], [0.0], [3.0]]), np.array([False, False, True]),
              np.array([1e-322, 5e-324, 1e-322]), ["a"], 5e-324))
    # weights whose x log2 x overflows, which every numpy warning fails on
    @example((np.array([[0.0], [1.0], [2.0]]), np.array([True, False, True]),
              np.array([1e307, 1e307, 1e307]), ["a"], 0.5))
    def test_raises_where_the_loop_raises(self, node):
        """On weights a probability can underflow on, the search raises
        ValueError (the log of 0) exactly where the loop does, and
        otherwise returns its choice, on subnormal and huge weights too."""
        X, y, w, names, min_leaf = node

        def outcome(search):
            try:
                return search(X, y, w, names, min_leaf)
            except ValueError:
                return ValueError

        assert outcome(best_split) == outcome(loop_best_split)


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
        assert _depth(tree) <= 2

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

    @settings(max_examples=150, deadline=None)
    @given(_masked_tables(), st.data())
    def test_search_through_the_order_equals_the_search_on_a_copy(self, table, data):
        """best_split on the whole table, through a child's filtered order
        and its weight sums, chooses what it chooses on the child's rows
        copied out."""
        X, mask, mask2 = table
        n = len(X)
        y = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        w = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
        min_leaf = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        names = ["a", "b", "c", "d", "e"][: X.shape[1]]

        def same_choice(order, side):
            rows = np.flatnonzero(side)
            yn, wn = y[rows], w[rows]  # summed as grow_tree sums them
            got = best_split(X, y, w, names, min_leaf, order=order,
                             totals=(float(wn.sum()), float(wn[yn].sum())))
            assert got == best_split(X[rows], yn, wn, names, min_leaf)

        order = np.argsort(X.T, axis=1, kind="stable")
        for side in (mask, ~mask):
            child = _filter_order(order, side[order])
            same_choice(child, side)
            for side2 in (mask2, ~mask2):
                same_choice(_filter_order(child, side2[child]), side & side2)

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


def _depth(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


@pytest.fixture(scope="module")
def noisy_300(lexicons):
    """Two noisy 300-page corpora as (vectors, labels), made once."""
    corpora = []
    for seed in (0, 1):
        pages = generate_corpus(lexicons, 300, 150, seed=seed, overlap=0.3)
        corpora.append(([extract_features(p, lexicons) for p in pages], [p.label for p in pages]))
    return corpora


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

    @pytest.mark.parametrize("n_trees, min_votes", [
        (10, True), (10, 2.5), (10, 3.0), (10.0, 3), (True, 1),
    ])
    def test_count_threshold_wants_integers(self, n_trees, min_votes):
        """A bool is no count, and 2.5 votes would give 0.2 unseen."""
        with pytest.raises(ValueError, match="must be an integer"):
            count_threshold(n_trees, min_votes)

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

        def loop_on_the_node(X, y, w, names, min_leaf, order, totals):
            # every attribute's order holds exactly the node's rows, and the
            # totals are their weights summed in ascending row order
            rows = np.sort(order[0])
            assert (np.sort(order, axis=1) == rows).all()
            yn, wn = y[rows], w[rows]
            assert totals == (float(wn.sum()), float(wn[yn].sum()))
            return loop_best_split(X[rows], yn, wn, names, min_leaf)

        monkeypatch.setattr(safeindex.forest, "best_split", loop_on_the_node)
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
        config sets and the model saves: the default, at least 3 of 10 trees, 0.75."""
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

    def test_equals_the_loop_on_deep_trees(self, noisy_300):
        """Trees of about 20 to 40 nodes: most nodes are searched through an order
        filtered down several levels from the root."""
        deepest = 0
        for vectors, labels in noisy_300:
            for fn_cost in (1.0, 20.0):
                config = TrainConfig(n_trees=6, fn_cost=fn_cost)
                forest, report = train_forest(vectors, labels, config)
                loop_forest, loop_report = loop_train_forest(vectors, labels, config)
                assert forest_to_json(forest) == forest_to_json(loop_forest)
                assert report == loop_report
                deepest = max(deepest, *map(_depth, forest.trees))
        assert deepest >= 6

    def test_trains_saves_loads_and_prints_at_the_depth_bound(self, tmp_path):
        """Labels that alternate along one attribute grow a chain that peels
        off a row or two per level, down to MAX_DEPTH.  Growing, hashing,
        comparing, saving, loading and printing such a tree all recurse once
        per level, within the default recursion limit."""
        n = 2 * MAX_DEPTH + 20
        vectors = [make_vector(nbr_img=i) for i in range(n)]
        labels = [ADULT if i % 2 else SAFE for i in range(n)]
        config = TrainConfig(n_trees=2, fn_cost=1.0, min_leaf_weight=1e-6, max_depth=MAX_DEPTH)
        forest, report = train_forest(vectors, labels, config)
        assert _depth(forest.trees[0]) == MAX_DEPTH
        path = tmp_path / "deep.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert loaded == forest
        assert len(set(forest.trees + loaded.trees)) == report.distinct_trees
        # a split prints three lines and a leaf one
        text = format_tree(loaded.trees[0])
        assert text.count("\n") == 2 * tree_size(loaded.trees[0]) - 1
        with pytest.raises(ValueError, match=rf"max_depth must be in \[1, {MAX_DEPTH}\]"):
            TrainConfig(max_depth=MAX_DEPTH + 1)

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

    def test_overflowing_fn_cost_raises(self):
        """Adult rows weighed at fn_cost must sum to a finite total; the
        check itself warns of nothing, as every warning fails a test here."""
        vectors, labels = self._separable()
        with pytest.raises(TrainingError, match=r"fn_cost 1e\+308 is too large"):
            train_forest(vectors, labels, TrainConfig(fn_cost=1e308))
        # ten adult rows at 1e307 weigh 1e308 in all, which is finite
        forest, _ = train_forest(vectors, labels, TrainConfig(fn_cost=1e307))
        assert len(forest.trees) == 10

    def test_non_finite_value_raises(self):
        name = ATTRIBUTE_NAMES[0]
        vectors = [make_vector(**{name: -math.inf})] * 5 + [make_vector(**{name: math.inf})] * 5
        labels = [ADULT] * 5 + [SAFE] * 5
        config = TrainConfig(fn_cost=1.0, min_leaf_weight=1.0)
        with pytest.raises(TrainingError, match=f"attribute {name} of training row 0 is -inf"):
            train_forest(vectors, labels, config)
        vectors = [make_vector(**{name: float(i)}) for i in range(10)]
        vectors[7] = make_vector(**{ATTRIBUTE_NAMES[4]: math.nan})
        with pytest.raises(TrainingError, match=f"attribute {ATTRIBUTE_NAMES[4]} of training row 7 is nan"):
            train_forest(vectors, labels, config)

    def test_huge_values_split_at_their_midpoint(self):
        """1e308 + 1.5e308 overflows, so their threshold is the sum of the
        halves; no warning is raised, as every warning fails a test here."""
        name = ATTRIBUTE_NAMES[0]
        vectors = [make_vector(**{name: 1e308})] * 5 + [make_vector(**{name: 1.5e308})] * 5
        labels = [ADULT] * 5 + [SAFE] * 5
        config = TrainConfig(fn_cost=1.0, min_leaf_weight=1.0)
        forest, report = train_forest(vectors, labels, config)
        assert forest.trees[0].threshold == 1.25e308
        assert report.per_tree[0].size == 3
        assert report.global_training_error == 0.0
        # the loop reference takes the same rule, and leaves the others be
        X = np.array([[1e308, 0.1], [1.5e308, 0.2], [-1.5e308, 0.3], [-1e308, 0.7]])
        y = np.array([True, False, True, False])
        for w in ([1.0, 1.0, 1.0, 1.0], [1.0, 3.0, 1.0, 0.5]):
            for column in ([0], [1], [0, 1]):
                args = X[:, column], y, np.array(w), ["ab"[c] for c in column], 0.5
                assert best_split(*args) == loop_best_split(*args)

    @staticmethod
    def _noisy_60():
        """The first 30 adult and 30 safe rows of the bench's training rows."""
        doc = json.loads((Path(__file__).resolve().parents[1] / "bench" / "data"
                          / "train_rows.json").read_text(encoding="utf-8"))
        rows = [i for i, label in enumerate(doc["labels"]) if label == ADULT][:30]
        rows += [i for i, label in enumerate(doc["labels"]) if label == SAFE][:30]
        vectors = [safeindex.FeatureVector(tuple(doc["rows"][i])) for i in rows]
        return vectors, [doc["labels"][i] for i in rows]

    def test_exact_logs_stay_rare(self, monkeypatch):
        """One training on 60 noisy rows took 62,577 math.log2 calls when
        every gain and split entropy took exact logs; with np.log2 ranking
        the candidates, at most 5% of those remain."""
        vectors, labels = self._noisy_60()
        logs = []
        log2 = math.log2

        def counting(x):
            logs.append(x)
            return log2(x)

        monkeypatch.setattr(safeindex.forest.math, "log2", counting)
        _, report = train_forest(vectors, labels, TrainConfig())
        assert sum(ts.size for ts in report.per_tree) > 50  # many nodes searched
        assert 0 < len(logs) <= 0.05 * 62_577

    def test_one_np_log2_call_per_search(self, monkeypatch):
        """best_split scores every candidate in one np.log2 pass: no search
        of a 60-row training calls it twice, and most call it once."""
        vectors, labels = self._noisy_60()
        calls, per_search = [], []
        search = safeindex.forest.best_split

        def counting(*args, **kwargs):
            before = len(calls)
            choice = search(*args, **kwargs)
            per_search.append(len(calls) - before)
            return choice

        monkeypatch.setattr(np, "log2", _off_log2(np.log2, calls))
        monkeypatch.setattr(safeindex.forest, "best_split", counting)
        train_forest(vectors, labels, TrainConfig())
        assert len(per_search) > 40
        assert max(per_search) == 1
        assert sum(per_search) > len(per_search) / 2

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
                             ("max_depth", math.nan), ("max_depth", 4.0), ("max_depth", True),
                             ("rng_seed", "x"), ("rng_seed", 1.5), ("rng_seed", True)]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TrainConfig(**{field: value})
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            TrainConfig(rng_seed=-1)
        for field in ("fn_cost", "min_leaf_weight"):
            for value in (True, "2"):
                with pytest.raises(ValueError, match=f"{field} must be a number"):
                    TrainConfig(**{field: value})
        assert TrainConfig(rng_seed=0, fn_cost=20, min_leaf_weight=2).fn_cost == 20
        for value in (0.0, 1, 1.0, 1.5, math.nan, True, "0.5"):
            with pytest.raises(ValueError, match="vote_threshold"):
                TrainConfig(vote_threshold=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["fn_cost", "min_leaf_weight"])
    def test_non_finite_cost_raises(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})


# every count setting and every number setting, each called with one value
COUNT_SETTINGS = {
    "TrainConfig.n_trees": lambda v, lex: TrainConfig(n_trees=v),
    "TrainConfig.max_depth": lambda v, lex: TrainConfig(max_depth=v),
    "TrainConfig.rng_seed": lambda v, lex: TrainConfig(rng_seed=v),
    "count_threshold n_trees": lambda v, lex: count_threshold(v, 1),
    "count_threshold min_votes": lambda v, lex: count_threshold(10, v),
    "FilterState.blacklist_trigger": lambda v, lex: FilterState(blacklist_trigger=v),
    "generate_corpus n_pages": lambda v, lex: generate_corpus(lex, v, 0, seed=0),
    "generate_corpus n_adult": lambda v, lex: generate_corpus(lex, 3, v, seed=0),
    "generate_corpus seed": lambda v, lex: generate_corpus(lex, 3, 1, seed=v),
    "generate_lexicon_materials seed": lambda v, lex: generate_lexicon_materials(v),
}
NUMBER_SETTINGS = {
    "TrainConfig.fn_cost": lambda v, lex: TrainConfig(fn_cost=v),
    "TrainConfig.min_leaf_weight": lambda v, lex: TrainConfig(min_leaf_weight=v),
    "TrainConfig.vote_threshold": lambda v, lex: TrainConfig(vote_threshold=v),
    "Forest.vote_threshold": lambda v, lex: Forest((Leaf(SAFE),), v),
    "generate_corpus overlap": lambda v, lex: generate_corpus(lex, 3, 1, seed=0, overlap=v),
    "generate_corpus xxx_fraction": lambda v, lex: generate_corpus(lex, 3, 1, seed=0, xxx_fraction=v),
    "generate_corpus disclaimer_fraction":
        lambda v, lex: generate_corpus(lex, 3, 1, seed=0, disclaimer_fraction=v),
}
# type -> an in-range value of it, as a count and as a number (1 lies in a
# fraction's [0, 1]); no int lies in a vote threshold's (0, 1), so its int
# case is the range's to refuse
TYPED_VALUES = {
    "int": (3, 1),
    "float": (3.0, 0.5),
    "bool": (True, True),
    "np.float64": (np.float64(3), np.float64(0.5)),
    "np.int64": (np.int64(3), np.int64(1)),
    "str": ("3", "0.5"),
    "None": (None, None),
}


class TestSettingTypes:
    """One rule for every setting: a count is exactly an int, a number
    exactly an int or a float; a subclass (bool, np.float64) or a numpy
    scalar is refused, so a caller casts it."""

    @pytest.mark.parametrize("type_name", TYPED_VALUES)
    @pytest.mark.parametrize("setting", COUNT_SETTINGS)
    def test_count(self, lexicons, setting, type_name):
        self._check(COUNT_SETTINGS[setting], TYPED_VALUES[type_name][0], type_name == "int", lexicons)

    @pytest.mark.parametrize("type_name", TYPED_VALUES)
    @pytest.mark.parametrize("setting", NUMBER_SETTINGS)
    def test_number(self, lexicons, setting, type_name):
        accepted = type_name == "float" or (type_name == "int" and "vote" not in setting)
        self._check(NUMBER_SETTINGS[setting], TYPED_VALUES[type_name][1], accepted, lexicons)

    @staticmethod
    def _check(call, value, accepted, lexicons):
        if accepted:
            call(value, lexicons)
        else:
            with pytest.raises(ValueError, match=f"got {re.escape(repr(value))}"):
                call(value, lexicons)


def _scoped_nodes(node: ast.AST, function: str = ""):
    """(name of the innermost enclosing function, node) for every node below `node`."""
    for child in ast.iter_child_nodes(node):
        scope = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield scope, child
        yield from _scoped_nodes(child, scope)


def _type_names(node: ast.AST) -> set[str]:
    """The bare names in `node`, or in its elements if it is a tuple, list or set."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {e.id for e in elts if isinstance(e, ast.Name)}


def setting_type_tests(source: str) -> list[str]:
    """The functions in source that test a value's type against a number type
    by hand: a type(...) compared (is, is not, in, not in, ==, !=) with int
    or float, or an isinstance against bool, int or float.  One entry, the
    function's name, per test."""
    found = []
    for function, node in _scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            calls_type = any(isinstance(o, ast.Call) and getattr(o.func, "id", None) == "type"
                             for o in operands)
            if calls_type and any(_type_names(o) & {"int", "float"} for o in operands) and all(
                isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.Eq, ast.NotEq))
                for op in node.ops
            ):
                found.append(function)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and len(node.args) == 2 and _type_names(node.args[1]) & {"bool", "int", "float"}):
            found.append(function)
    return found


def test_only_the_two_checks_test_a_setting_type():
    """The setting rule has one implementation, errors.check_count and
    errors.check_number.  The model version's own test stays: it is a file
    format check, and its message names the version."""
    allowed = {"errors.py": ["check_count", "check_number"], "forest.py": ["forest_from_json"]}
    sources = sorted(Path(safeindex.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for source in sources:
        found = setting_type_tests(source.read_text(encoding="utf-8"))
        assert found == allowed.get(source.name, []), f"{source.name} tests a setting type itself"


@pytest.mark.parametrize("snippet, found", [
    ("type(v) is int", [""]),
    ("type(v) is not int", [""]),
    ("int is type(v)", [""]),
    ("type(v) in (int, float)", [""]),
    ("type(v) not in [float, int]", [""]),
    ("type(v) == float", [""]),
    ("isinstance(v, bool)", [""]),
    ("isinstance(v, (str, int))", [""]),
    ("def f(v):\n    return isinstance(v, float)", ["f"]),
    ("class C:\n    def g(self):\n        return type(self.x) is int", ["g"]),
    ("type(v) is str", []),
    ("type(node) is Split", []),
    ("isinstance(v, str)", []),
    ("isinstance(v, (dict, list))", []),
    ("int(v) is v", []),
])
def test_setting_type_guard_sees_each_test(snippet, found):
    assert setting_type_tests(snippet) == found


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
        # no integer is a vote threshold, which lies in (0, 1)
        doc = ('{"version": 1, "vote_threshold": 0.5, "trees": [{"attr": "nbr_img",'
               ' "thr": 5, "left": {"label": "safe", "weights": [0, 1]},'
               ' "right": {"label": "adult", "weights": [2, 0]}}]}')
        assert forest_from_json(doc) == Forest(
            (Split("nbr_img", 5.0, Leaf(SAFE, (0.0, 1.0)), Leaf(ADULT, (2.0, 0.0))),), 0.5
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
