"""Cost-sensitive boosted forest of binary threshold trees.

Induction follows documented C4.5 conventions (gain ratio, midpoint
thresholds, mean-gain guard) with AdaBoost.M1-style reweighting between
trees.  False negatives (adult classified safe) are penalized through the
initial row weights and through expected-cost leaf labeling; the final
vote is a plain equal-weight majority.

A node resolves what scoring needs once, when it is built: a `Split` holds
the column of its attribute in `FeatureVector.values`, a `Leaf` whether it
votes adult.  Both are derived fields outside equality, hashing, `repr` and
the model JSON, so `forest_votes` reads a value and a vote per node without
a name lookup or a label compare.

Training sorts its rows once.  The rows never change across boosting
rounds, only their weights, so `train_forest` takes one stable argsort per
attribute, and each node hands its children that order filtered by the
split mask (the presorted attribute lists of SLIQ and SPRINT).  No node
copies a row: the split search reads the training's own X, y and w
through the node's order, as SLIQ reads its lists in place.  Each leaf
writes its vote for the rows that reach it, so a round gets its tree's
predictions on the training rows without walking the tree.

The split search scores every candidate in one pass: x log2 x of each
candidate's six weight sums, from one np.log2 call, gives an approximate
gain and split entropy.  np.log2 can differ from math.log2 in the last
bit, so the pass only ranks: entropy() (math.log2) gives the exact values
of the few candidates whose rank the pass's error could change (a
floating-point filter, as in Shewchuk's exact geometric predicates).
Every gain, split entropy and ratio the search decides by or returns
comes from math.log2, so a trained model is bit-identical to the
one-boundary-at-a-time search's.

numpy is imported inside the training functions that use it (`best_split`,
`_approximate_scores`, `_entropies`, `train_forest`), not at module load:
loading, scoring and printing a model never touch it, and importing numpy
would be most of the start-up time of a process that only filters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Union

from .errors import SafeIndexError, TrainingError, check_count, check_number
from .features import _ATTRIBUTE_INDEX, ATTRIBUTE_NAMES, FeatureVector
from .fileio import parse_json, read_input, write_atomic
from .page import ADULT, SAFE

if TYPE_CHECKING:
    import numpy as np

MODEL_VERSION = 1

# The deepest tree TrainConfig allows.  Trees are walked by recursion:
# growing, hashing and comparing them in training, and saving, loading and
# printing them.  Comparing two equal trees, the deepest of these, takes
# three interpreter levels per tree level, so at Python's default
# recursion limit of 1000 this bound leaves room for the caller's stack.
MAX_DEPTH = 200


@dataclass(frozen=True)
class Leaf:
    """A tree's vote.  `adult` (the label is ADULT) is set from the label
    when the leaf is built, and is left out of equality, hashing and repr."""

    label: str
    # (adult weight, safe weight) seen at this node during training
    weights: tuple[float, float] = (0.0, 0.0)
    adult: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.label not in (ADULT, SAFE):
            raise ValueError(f"bad leaf label {self.label!r}")
        if any(math.isnan(w) for w in self.weights):
            raise ValueError(f"NaN leaf weight in {self.weights!r}")
        object.__setattr__(self, "adult", self.label == ADULT)


@dataclass(frozen=True)
class Split:
    """A threshold test.  `column` (the attribute's index in
    `FeatureVector.values`) is set from the attribute when the split is
    built, and is left out of equality, hashing and repr."""

    attribute: str
    threshold: float
    left: "TreeNode"   # taken when value <= threshold
    right: "TreeNode"  # taken when value > threshold
    column: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.attribute not in _ATTRIBUTE_INDEX:
            raise ValueError(f"unknown attribute {self.attribute!r}")
        if math.isnan(self.threshold):
            raise ValueError("NaN split threshold")  # no value is <= NaN
        object.__setattr__(self, "column", _ATTRIBUTE_INDEX[self.attribute])


TreeNode = Union[Leaf, Split]


def check_vote_threshold(value: float) -> float:
    """The value itself if it is a number in (0, 1), else ValueError."""
    if not 0.0 < check_number("vote_threshold", value) < 1.0:
        raise ValueError(f"vote_threshold must be a number in (0, 1), got {value!r}")
    return value


@dataclass(frozen=True)
class Forest:
    trees: tuple[TreeNode, ...]
    vote_threshold: float = 0.5

    def __post_init__(self):
        if not self.trees:
            raise ValueError("forest needs at least one tree")
        check_vote_threshold(self.vote_threshold)

    def label(self, score: float) -> str:
        """Adult iff the vote score strictly exceeds the threshold."""
        return ADULT if score > self.vote_threshold else SAFE


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 10
    fn_cost: float = 20.0
    min_leaf_weight: float = 2.0
    max_depth: int = 12
    rng_seed: int = 0
    vote_threshold: float = 0.5  # the returned forest's

    def __post_init__(self):
        check_count("n_trees", self.n_trees, 1)
        check_count("rng_seed", self.rng_seed, 0)
        costs = [check_number(name, getattr(self, name)) for name in ("fn_cost", "min_leaf_weight")]
        if not all(0 < cost < math.inf for cost in costs):
            raise ValueError("fn_cost and min_leaf_weight must be positive and finite")
        check_count("max_depth", self.max_depth, 1, MAX_DEPTH)  # depth 0 is one constant leaf
        check_vote_threshold(self.vote_threshold)


@dataclass(frozen=True)
class TreeStats:
    size: int
    training_error: float


@dataclass(frozen=True)
class TrainReport:
    per_tree: tuple[TreeStats, ...]
    global_training_error: float
    restarts: int  # rounds with weighted error >= 0.5, which reset the weights
    distinct_trees: int  # trees that differ in a split or a leaf weight


def entropy(adult_weight: float, safe_weight: float) -> float:
    """Shannon entropy in bits of a two-class weight pair; 0*log0 == 0."""
    total = adult_weight + safe_weight
    if total <= 0:
        raise SafeIndexError("entropy of an empty weight distribution")
    result = 0.0
    for w in (adult_weight, safe_weight):
        if w > 0:
            p = w / total
            result -= p * math.log2(p)
    return result


def leaf_label(adult_weight: float, safe_weight: float, fn_cost: float) -> str:
    """Label minimizing expected misclassification cost (FP cost fixed at 1)."""
    return ADULT if adult_weight * fn_cost > safe_weight else SAFE


def tree_size(node: TreeNode) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + tree_size(node.left) + tree_size(node.right)


@dataclass(frozen=True)
class SplitChoice:
    attribute: str
    threshold: float
    gain_ratio: float


# The margin within which best_split does not trust an approximate gain or
# split entropy.  Their error is at most the bound its docstring states,
# below 1e-12 on any node of total weight up to 1e6, a thousandth of this.
_SLACK = 1e-9

# best_split takes exact values only on a node whose lightest row weighs
# less than this share of its total, or less than this at all, or whose
# total is above its inverse: there a share of a side's weight can round
# to 0, whose log raises ValueError in entropy(), and x log2 x of a weight
# can be subnormal, too coarse to rank by, or overflow.
_LIGHTEST = 2.0**-900


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    attr_names: Sequence[str],
    min_leaf_weight: float,
    order: np.ndarray | None = None,
    totals: tuple[float, float] | None = None,
) -> SplitChoice | None:
    """Highest gain-ratio midpoint split passing the C4.5 mean-gain guard.

    Candidates whose information gain is below the mean gain of all
    positive-gain candidates are discarded.  Ties break by higher gain,
    then attribute name, then lower threshold.  Returns None when no
    candidate has positive gain or every split starves a side below
    min_leaf_weight.  A node lighter than 2 * min_leaf_weight returns None
    before anything is read in sorted order: a side of at least
    min_leaf_weight leaves the other, computed exactly (Sterbenz), below it.

    The node's rows are those in `order`, which holds, one row per
    attribute, their indices into X in stable ascending order of that
    attribute's values; `totals` is their (total, adult) weight, each
    summed in ascending row order.  `grow_tree` passes the order it
    filtered down from the root and the sums it has already taken, so a
    trained node sorts nothing and copies no row.  A call without them
    searches every row of X: it sorts X here and sums w.

    Every candidate of every attribute is a flat index into the
    (attribute, position) arrays, so each filter selects one index array.
    The choice is bit-identical to the loop that scores one boundary at a
    time with entropy(): every value that decides or is returned comes
    from entropy() or from _entropies, its exact array form, as in a
    filtered exact geometric predicate (Shewchuk 1997).

    A candidate's left side weighs wl, la of it adult and ls safe; its
    right side wr, ra and rs.  One pass (_approximate_scores) takes
    F(x) = x log2 x, F(0) = 0, of these six sums for every candidate with
    one np.log2 call, and
      g~ = parent - (F(wl) + F(wr) - F(la) - F(ls) - F(ra) - F(rs)) / total
      S~ = log2(total) - (F(wl) + F(wr)) / total
    approximate its gain and split entropy.  Their error is absolute: each
    F is within a few ULP of its own size (np.log2 is within 4 ULP of
    math.log2, a test holds it there), and la + ls and ra + rs are wl and
    wr up to rounding, so g~ and S~ are within a few ULP of
    sum |F| / total, which is at most about 2 |log2 total| + 3.  The bound
    beta = 2**-48 * (2 |log2 total| + 4) holds them (a test checks it on
    nodes of up to 1e6), and is below 1e-12, a thousandth of the margin
    _SLACK = 1e-9 the search allows, on any total up to 1e6; training
    weights sum to the row count.  In its own order, the search:
    - takes the exact gain of each candidate with |g~| <= _SLACK, so the
      sign of every gain is certain;
    - takes every gain exactly, and goes on as without the pass, if a
      positive g~ lies within 2 * _SLACK of the mean-gain guard's edge
      (mean - 1e-12, both from g~);
    - keeps, of the guard's survivors, those that can hold the best exact
      ratio.  With S~ > _SLACK the exact ratio r lies within
      e = _SLACK * (1 + r~) / (S~ - _SLACK) of r~ = g~ / S~, since g and S
      each lie within _SLACK of g~ and S~.  The exact best is at least
      every candidate's lower bound, so at least their highest,
      L = max (g~ - _SLACK) / (S~ + _SLACK); a candidate is kept if
      r~ + e >= L, written g~ + _SLACK >= L * (S~ - _SLACK) so that one
      whose S~ is not above _SLACK is kept too.  The kept set holds the
      exact best and every exact tie of it, and is one or two candidates
      on most nodes; each gets its exact gain and split entropy from three
      entropy() calls.
    A node whose lightest row weighs less than _LIGHTEST of its total or
    less than _LIGHTEST (2**-900) at all, or whose total is above 2**900,
    takes every gain exactly instead, and the split entropy of the guard's
    survivors: there a probability can underflow to 0, and the search
    raises ValueError just where the loop does, or an F can be subnormal,
    with too few bits to rank by, or overflow.  Either way a search takes
    an exact value only where the loop takes one: a gain for every
    candidate, a split entropy for a survivor of the guard.
    The winner is the argmax of the exact ratios; only when several
    candidates share the maximum are those few sorted by the tie-breaks,
    and only then are their attribute names looked up.
    """
    import numpy as np

    if totals is None:
        totals = float(w.sum()), float(w[y].sum())
    total, total_adult = totals
    total_safe = total - total_adult
    if total_adult <= 0 or total_safe <= 0 or total < 2 * min_leaf_weight:
        return None
    parent = entropy(total_adult, total_safe)

    if order is None:
        order = np.argsort(X.T, axis=1, kind="stable")
    n_attr, n = order.shape  # n: the node's rows, positions per attribute
    # xs[a, k] = X[order[a, k], a], read through the flat index of X
    xs = X.take(order * n_attr + np.arange(n_attr)[:, None])
    ws = w[order]
    cw = np.cumsum(ws, axis=1).ravel()
    ca = np.cumsum(np.where(y[order], ws, 0.0), axis=1).ravel()

    def exact_gains(at):
        """The gains of the candidates at flat indices `at`, from _entropies."""
        wl = cw[at]
        la = ca[at]
        ls = np.maximum(wl - la, 0.0)
        ra = np.maximum(total_adult - la, 0.0)
        rs = np.maximum(total_safe - ls, 0.0)
        h = _entropies(np.concatenate([la, ra]), np.concatenate([ls, rs]))
        k = len(at)
        return parent - (wl * h[:k] + (total - wl) * h[k:]) / total

    # boundaries attribute by attribute, each attribute's in sorted order,
    # as flat indices into the (n_attr, n) arrays: the comparison's flat
    # index i, over n - 1 columns, is i + i // (n - 1) over n
    at = np.flatnonzero(xs[:, :-1] < xs[:, 1:])
    at += at // (n - 1)
    wl = cw[at]
    keep = (wl >= min_leaf_weight) & (total - wl >= min_leaf_weight)
    at = at[keep]
    if not len(at):
        return None
    exact = bool(ws[0].min() < max(total, 1.0) * _LIGHTEST or total * _LIGHTEST > 1.0)
    if exact:
        gain = exact_gains(at)
    else:
        gain, split = _approximate_scores(wl[keep], ca[at], total, total_adult, parent)
        near = np.flatnonzero(np.abs(gain) <= _SLACK)
        if len(near):
            gain[near] = exact_gains(at[near])
    positive = gain > 0
    if not positive.any():
        return None
    at, gain = at[positive], gain[positive]

    # gains added left to right in candidate order (np.sum adds pairwise,
    # which can move the mean in the last bit); epsilon keeps the guard
    # from starving on all-equal gains (float noise)
    mean_gain = sum(gain.tolist()) / len(gain)
    if not exact and (np.abs(gain - (mean_gain - 1e-12)) <= 2 * _SLACK).any():
        exact = True  # too close to call: every gain exactly
        gain = exact_gains(at)
        mean_gain = sum(gain.tolist()) / len(gain)
    eligible = gain >= mean_gain - 1e-12
    at, gain = at[eligible], gain[eligible]
    if exact:
        wl = cw[at]
        split = _entropies(wl, total - wl)
    else:
        split = split[positive][eligible]
        lowest = ((gain - _SLACK) / (split + _SLACK)).max()
        at = at[gain + _SLACK >= lowest * (split - _SLACK)]
        scores = []
        for wl, la in zip(cw[at].tolist(), ca[at].tolist()):
            wr = total - wl
            ls = max(wl - la, 0.0)
            ra, rs = max(total_adult - la, 0.0), max(total_safe - ls, 0.0)
            left_right = wl * entropy(la, ls) + wr * entropy(ra, rs)
            scores.append((parent - left_right / total, entropy(wl, wr)))
        gain, split = np.array(scores).T
    gain_ratio = gain / split
    best_ratio = gain_ratio.max()
    top = np.flatnonzero(gain_ratio == best_ratio)
    at, gain = at[top], gain[top]
    xs = xs.ravel()
    threshold = [_midpoint(a, b) for a, b in zip(xs[at].tolist(), xs[at + 1].tolist())]
    best = 0
    if len(top) > 1:  # a tied ratio: higher gain, then name, then threshold
        names = np.asarray(attr_names)[at // n]
        best = np.lexsort((threshold, names, -gain))[0]
    return SplitChoice(attr_names[at[best] // n], threshold[best], float(best_ratio))


def _approximate_scores(
    wl: np.ndarray, la: np.ndarray, total: float, total_adult: float, parent: float
) -> tuple[np.ndarray, np.ndarray]:
    """best_split's approximate gains g~ and split entropies S~ of the
    candidates whose left sides weigh `wl`, `la` of it adult, in a node
    of weight `total`, `total_adult` of it adult, whose entropy is
    `parent`: F(x) = x log2 x of the six weight sums, in one np.log2 call
    over a (6, k) array.  The sums are clamped at 0 as the exact gains'
    are, and a sum of 0 takes the log of the least float, so F(0) == 0."""
    import numpy as np

    x = np.empty((6, len(wl)))
    x[0] = wl
    np.subtract(total, wl, out=x[1])
    x[2] = la
    np.subtract(wl, la, out=x[3])
    np.maximum(x[3], 0.0, out=x[3])
    np.subtract(total_adult, la, out=x[4])
    np.subtract(total - total_adult, x[3], out=x[5])
    np.maximum(x[4:], 0.0, out=x[4:])
    f = x * np.log2(np.maximum(x, 5e-324))
    sides = f[0] + f[1]
    split = math.log2(total) - sides / total
    return parent - (sides - f[2:].sum(axis=0)) / total, split


def _midpoint(a: float, b: float) -> float:
    """The threshold between two adjacent values; a / 2 + b / 2 where
    a + b overflows, so every other threshold is (a + b) / 2 to the bit."""
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


def _entropies(adult: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """entropy() of every weight pair of two 1-D arrays, elementwise and
    bit for bit.

    Each present probability (weight > 0) other than 1.0 gets its log from
    math.log2: np.log2 may use vector code that differs from it in the last
    bit, which can change a chosen split.  A probability of 1.0 gives the
    term 1.0 * 0.0 == 0.0, which the zero fill already holds, so it takes
    no log.  One that underflows to 0.0 is still present, and raises
    ValueError, as entropy() does.  Pairs must have a positive total.
    best_split takes it for near-zero gains and on its two exact paths.
    """
    import numpy as np

    n = len(adult)
    total = adult + safe
    p = np.concatenate([adult / total, safe / total])
    logged = (np.concatenate([adult, safe]) > 0) & (p != 1.0)
    kept = p[logged]
    terms = np.zeros_like(p)
    terms[logged] = kept * np.fromiter(map(math.log2, kept.tolist()), float, len(kept))
    return (0.0 - terms[:n]) - terms[n:]


def _filter_order(order: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The entries of `order` where `keep` is True, attribute by attribute.

    `order` holds a node's rows once per attribute, sorted by its values,
    and `keep` marks the entries of the rows that go to one child, so every
    attribute keeps the same rows.  A stable partition of a stable order is
    the stable order of the part: the child's rows come out as a stable
    argsort of the child alone would order them, with no sort.
    """
    return order[keep].reshape(len(order), -1)


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    pred: np.ndarray,
    config: TrainConfig,
    depth: int = 0,
) -> TreeNode:
    """Recursive induction; stops on purity, no useful split, or max depth.

    X, y and w hold every training row, and no node copies them.  The
    node's rows are `rows`, their indices in ascending order, and `order`
    holds the same indices once per attribute, in stable ascending order
    of that attribute's values.  best_split reads the arrays through that
    order, with the weight sums taken here.  A child's order is the
    parent's filtered by the split mask, so no node sorts.  Each leaf
    writes its vote (True for adult) into `pred` at its rows, so the
    tree's predictions on the training rows come without a walk.
    """
    yn, wn = y[rows], w[rows]
    total = float(wn.sum())
    adult_w = float(wn[yn].sum())
    safe_w = total - adult_w
    choice = None
    if adult_w > 0 and safe_w > 0 and depth < config.max_depth:
        choice = best_split(
            X, y, w, ATTRIBUTE_NAMES, config.min_leaf_weight,
            order=order, totals=(total, adult_w),
        )
    if choice is None:
        leaf = Leaf(leaf_label(adult_w, safe_w, config.fn_cost), (adult_w, safe_w))
        pred[rows] = leaf.adult
        return leaf
    values = X[:, _ATTRIBUTE_INDEX[choice.attribute]]
    mask = values[rows] <= choice.threshold
    left = values[order] <= choice.threshold
    return Split(
        choice.attribute,
        choice.threshold,
        grow_tree(
            X, y, w, rows[mask], _filter_order(order, left), pred, config, depth + 1
        ),
        grow_tree(
            X, y, w, rows[~mask], _filter_order(order, ~left), pred, config, depth + 1
        ),
    )


def forest_votes(
    trees: Sequence[TreeNode], fv: FeatureVector, visited: set[str] | None = None
) -> tuple[bool, ...]:
    """Each tree's vote, True for adult: one root-to-leaf descent per tree.

    Each split reads `fv.values` at its `column` and each leaf gives its
    `adult` flag, both fixed when the node was built.  A caller that passes
    a `visited` set gets the name of every attribute tested on the way
    added to it.
    """
    values = fv.values
    votes = []
    for node in trees:
        while type(node) is Split:
            if visited is not None:
                visited.add(node.attribute)
            node = node.left if values[node.column] <= node.threshold else node.right
        votes.append(node.adult)
    return tuple(votes)


def forest_score(
    forest: Forest, fv: FeatureVector, visited: set[str] | None = None
) -> float:
    """Fraction of trees voting adult.  A `visited` set is passed on to
    `forest_votes`, so one walk gives the score and the tested attributes."""
    votes = forest_votes(forest.trees, fv, visited)
    return sum(votes) / len(votes)


def classify(forest: Forest, fv: FeatureVector) -> str:
    """The forest's verdict on one vector."""
    return forest.label(forest_score(forest, fv))


def count_threshold(n_trees: int, min_votes: int) -> float:
    """Vote threshold such that >= min_votes adult votes classify adult."""
    check_count("n_trees", n_trees, 1)
    check_count("min_votes", min_votes, 1, n_trees)
    return (min_votes - 0.5) / n_trees


def train_forest(
    vectors: Sequence[FeatureVector],
    labels: Sequence[str],
    config: TrainConfig = TrainConfig(),
) -> tuple[Forest, TrainReport]:
    """Boosted induction of config.n_trees trees.

    Adult rows start at fn_cost times the weight of safe rows; each round
    upweights the previous tree's mistakes by (1-e)/e.  A round with
    weighted error >= 0.5 restarts from perturbed initial weights so the
    forest always reaches its full size.  A perfect round (error 0) leaves
    the weights where they are, so every later round would grow the same
    tree again: that tree, its stats and its votes fill the remaining
    rounds, and no further tree is grown.  Weights are kept normalized to
    the row count so min_leaf_weight speaks in "cases".  Every label must
    be ADULT or SAFE, and every attribute value finite.  The forest votes
    at config.vote_threshold, and the report's global error is its error
    at that threshold.  An fn_cost that puts the row weights so far apart
    that a class's share of a node underflows to 0, or that a round's
    error is too small to have a finite boost (1 - e) / e, raises
    TrainingError naming it.
    """
    import numpy as np

    if len(vectors) != len(labels):
        raise ValueError("vectors and labels length mismatch")
    for label in labels:
        if label not in (ADULT, SAFE):
            raise ValueError(f"bad training label {label!r}")
    n = len(vectors)
    if n < 2:
        raise TrainingError("need at least 2 training rows")
    y = np.array([label == ADULT for label in labels], dtype=bool)
    if y.all() or not y.any():
        raise TrainingError("degenerate class distribution")
    X = np.array([fv.values for fv in vectors], dtype=float)
    # a threshold beside inf or NaN is inf or NaN, and sets no row apart
    not_finite = np.argwhere(~np.isfinite(X))
    if len(not_finite):
        row, column = not_finite[0].tolist()
        raise TrainingError(
            f"attribute {ATTRIBUTE_NAMES[column]} of training row {row} "
            f"is {X[row, column]}, not finite"
        )
    # the rows never change, only their weights: sorted once, filtered per node
    order = np.argsort(X.T, axis=1, kind="stable")
    rows = np.arange(n)

    # summed in Python, as numpy would warn on the overflow it reports
    n_adult = int(y.sum())
    if not math.isfinite(config.fn_cost * n_adult + (n - n_adult)):
        raise TrainingError(f"fn_cost {config.fn_cost} is too large: the row weights overflow")
    initial = np.where(y, config.fn_cost, 1.0)
    initial *= n / initial.sum()
    w = initial.copy()
    # made at the first restart: most trainings never need it, and importing
    # numpy.random adds about 6 MB to the peak RSS of a process
    rng = None

    trees: list[TreeNode] = []
    stats: list[TreeStats] = []
    votes = np.zeros(n, dtype=int)
    restarts = 0
    while len(trees) < config.n_trees:
        pred = np.empty(n, dtype=bool)
        try:
            tree = grow_tree(X, y, w, rows, order, pred, config)
        except ValueError as exc:  # the log of a probability that underflowed to 0
            raise TrainingError(
                f"fn_cost {config.fn_cost} puts the row weights too far apart to train: "
                "a class's share of a node's weight underflows to 0"
            ) from exc
        wrong = pred != y
        eps = float(w[wrong].sum() / w.sum())
        # a perfect round's tree stands for itself in every remaining round
        copies = config.n_trees - len(trees) if eps == 0.0 else 1
        trees += [tree] * copies
        stats += [TreeStats(tree_size(tree), float(wrong.mean()))] * copies
        votes += copies * pred

        if eps >= 0.5:
            restarts += 1
            if rng is None:
                rng = np.random.default_rng(config.rng_seed)
            w = initial * rng.uniform(0.8, 1.2, n)
            w *= n / w.sum()
        elif eps > 0.0 and len(trees) < config.n_trees:
            boost = (1.0 - eps) / eps
            if boost == math.inf:  # it would make every weight NaN
                raise TrainingError(
                    f"fn_cost {config.fn_cost} puts the row weights too far apart to train: "
                    f"a round's weighted error of {eps} has no finite boost"
                )
            w[wrong] *= boost
            w *= n / w.sum()
        # eps == 0: the copies above filled the forest; after the last
        # round, no weight is read again

    forest = Forest(tuple(trees), config.vote_threshold)
    scores = (votes / config.n_trees).tolist()
    ensemble_adult = np.array([forest.label(s) == ADULT for s in scores])
    global_error = float((ensemble_adult != y).mean())
    return forest, TrainReport(tuple(stats), global_error, restarts, len(set(trees)))


# ---------------------------------------------------------------------------
# serialization


def _node_to_obj(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"label": node.label, "weights": list(node.weights)}
    return {
        "attr": node.attribute,
        "thr": node.threshold,
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _node_from_obj(obj: dict) -> TreeNode:
    # a string or a list would pass the `in` test below
    if not isinstance(obj, dict):
        raise TypeError(f"a tree node must be a JSON object, got {obj!r}")
    if "label" in obj:
        adult, safe = (float(check_number("weights", w)) for w in obj.get("weights", [0.0, 0.0]))
        return Leaf(obj["label"], (adult, safe))
    return Split(
        obj["attr"],
        float(check_number("thr", obj["thr"])),
        _node_from_obj(obj["left"]),
        _node_from_obj(obj["right"]),
    )


def forest_to_json(forest: Forest) -> str:
    doc = {
        "version": MODEL_VERSION,
        "vote_threshold": forest.vote_threshold,
        "trees": [_node_to_obj(t) for t in forest.trees],
    }
    return json.dumps(doc, indent=2) + "\n"


def forest_from_json(text: str) -> Forest:
    doc = parse_json(text, "model file")
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != MODEL_VERSION:  # True and 1.0 both equal 1
        raise SafeIndexError(f"unsupported model version {version!r}")
    try:
        return Forest(tuple(_node_from_obj(t) for t in doc["trees"]), doc["vote_threshold"])
    except (
        KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError
    ) as exc:
        raise SafeIndexError(
            f"malformed model ({type(exc).__name__}: {exc})"
        ) from exc


def save_forest(forest: Forest, path: str | Path) -> None:
    write_atomic(path, forest_to_json(forest))


def load_forest(path: str | Path) -> Forest:
    return forest_from_json(read_input(path, "model file"))


# ---------------------------------------------------------------------------
# pretty printing


def format_tree(node: TreeNode, indent: str = "") -> str:
    """Indented if/else rendering of one tree."""
    if isinstance(node, Leaf):
        a, s = node.weights
        return f"{indent}{node.label} ({a:.1f}/{s:.1f})\n"
    text = f"{indent}{node.attribute} > {node.threshold:g}?\n"
    text += f"{indent}  yes:\n" + format_tree(node.right, indent + "    ")
    text += f"{indent}  no:\n" + format_tree(node.left, indent + "    ")
    return text


def format_report(report: TrainReport) -> str:
    lines = ["tree id  size  error"]
    for i, ts in enumerate(report.per_tree):
        lines.append(f"{i:<7d}  {ts.size:<4d}  {ts.training_error:.1%}")
    lines.append(f"global error: {report.global_training_error:.1%}")
    lines.append(f"restarts: {report.restarts}")
    lines.append(f"distinct trees: {report.distinct_trees}/{len(report.per_tree)}")
    return "\n".join(lines)
