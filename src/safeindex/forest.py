"""Cost-sensitive boosted forest of binary threshold trees.

Induction follows documented C4.5 conventions (gain ratio, midpoint
thresholds, mean-gain guard) with AdaBoost.M1-style reweighting between
trees.  False negatives (adult classified safe) are penalized through the
initial row weights and through expected-cost leaf labeling; the final
vote is a plain equal-weight majority.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import SafeIndexError, TrainingError
from .features import _ATTRIBUTE_INDEX, ATTRIBUTE_NAMES, FeatureVector
from .fileio import write_atomic
from .page import ADULT, SAFE

MODEL_VERSION = 1


@dataclass(frozen=True)
class Leaf:
    label: str
    # (adult weight, safe weight) seen at this node during training
    weights: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.label not in (ADULT, SAFE):
            raise ValueError(f"bad leaf label {self.label!r}")


@dataclass(frozen=True)
class Split:
    attribute: str
    threshold: float
    left: "TreeNode"   # taken when value <= threshold
    right: "TreeNode"  # taken when value > threshold

    def __post_init__(self):
        if self.attribute not in _ATTRIBUTE_INDEX:
            raise ValueError(f"unknown attribute {self.attribute!r}")


TreeNode = Union[Leaf, Split]


def check_vote_threshold(value: float) -> float:
    """The value itself if it is a valid vote threshold, else ValueError."""
    if not 0.0 < value <= 1.0:
        raise ValueError("vote_threshold must be in (0, 1]")
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

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.fn_cost <= 0 or self.min_leaf_weight <= 0:
            raise ValueError("fn_cost and min_leaf_weight must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")  # depth 0 is one constant leaf


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


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    attr_names: Sequence[str],
    min_leaf_weight: float,
) -> SplitChoice | None:
    """Highest gain-ratio midpoint split passing the C4.5 mean-gain guard.

    Candidates whose information gain is below the mean gain of all
    positive-gain candidates are discarded.  Ties break by higher gain,
    then attribute name, then lower threshold.  Returns None when no
    candidate has positive gain or every split starves a side below
    min_leaf_weight.

    Every candidate of every attribute is scored in one pass over arrays,
    with the same operations in the same order as entropy() applied to one
    boundary at a time, so the choice is bit-identical to that loop.
    """
    total = float(w.sum())
    total_adult = float(w[y].sum())
    total_safe = total - total_adult
    if total_adult <= 0 or total_safe <= 0:
        return None
    parent = entropy(total_adult, total_safe)

    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ws = w[order]
    cw = np.cumsum(ws, axis=0)
    ca = np.cumsum(np.where(y[order], ws, 0.0), axis=0)
    # boundaries attribute by attribute, each attribute's in row order
    col, row = np.nonzero((xs[:-1] < xs[1:]).T)
    wl = cw[row, col]
    wr = total - wl
    keep = (wl >= min_leaf_weight) & (wr >= min_leaf_weight)
    col, row, wl, wr = col[keep], row[keep], wl[keep], wr[keep]
    la = ca[row, col]
    ls = np.maximum(wl - la, 0.0)
    ra = np.maximum(total_adult - la, 0.0)
    rs = np.maximum(total_safe - ls, 0.0)
    h_left, h_right, h_split = _entropies(
        np.stack([la, ra, wl]), np.stack([ls, rs, wr])
    )
    gain = parent - (wl * h_left + wr * h_right) / total
    positive = gain > 0
    if not positive.any():
        return None
    col, row, gain = col[positive], row[positive], gain[positive]
    gain_ratio = gain / h_split[positive]

    # gains added left to right in candidate order (np.sum adds pairwise,
    # which can move the mean in the last bit); epsilon keeps the guard
    # from starving on all-equal gains (float noise)
    mean_gain = sum(gain.tolist()) / len(gain)
    eligible = gain >= mean_gain - 1e-12
    col, row = col[eligible], row[eligible]
    gain, gain_ratio = gain[eligible], gain_ratio[eligible]
    threshold = (xs[row, col] + xs[row + 1, col]) / 2.0
    names = np.asarray(attr_names)[col]
    best = np.lexsort((threshold, names, -gain, -gain_ratio))[0]
    return SplitChoice(
        attr_names[col[best]], float(threshold[best]), float(gain_ratio[best])
    )


def _entropies(adult: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """entropy() of every weight pair, elementwise and bit for bit.

    The logs come from math.log2, once per distinct probability: np.log2
    may use vector code that differs from it in the last bit, which can
    change a chosen split.  Pairs must have a positive total.
    """
    total = adult + safe
    p = np.stack([adult / total, safe / total])
    present = np.stack([adult, safe]) > 0
    distinct, inverse = np.unique(p[present], return_inverse=True)
    logs = np.fromiter(map(math.log2, distinct.tolist()), float, len(distinct))
    terms = np.zeros_like(p)
    terms[present] = p[present] * logs[inverse]
    return (0.0 - terms[0]) - terms[1]


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    config: TrainConfig,
    depth: int = 0,
) -> TreeNode:
    """Recursive induction; stops on purity, no useful split, or max depth."""
    adult_w = float(w[y].sum())
    safe_w = float(w.sum()) - adult_w
    if adult_w <= 0 or safe_w <= 0 or depth >= config.max_depth:
        return Leaf(leaf_label(adult_w, safe_w, config.fn_cost), (adult_w, safe_w))
    choice = best_split(X, y, w, ATTRIBUTE_NAMES, config.min_leaf_weight)
    if choice is None:
        return Leaf(leaf_label(adult_w, safe_w, config.fn_cost), (adult_w, safe_w))
    j = ATTRIBUTE_NAMES.index(choice.attribute)
    mask = X[:, j] <= choice.threshold
    return Split(
        choice.attribute,
        choice.threshold,
        grow_tree(X[mask], y[mask], w[mask], config, depth + 1),
        grow_tree(X[~mask], y[~mask], w[~mask], config, depth + 1),
    )


def forest_votes(
    trees: Sequence[TreeNode], fv: FeatureVector, visited: set[str] | None = None
) -> tuple[bool, ...]:
    """Each tree's vote, True for adult: one root-to-leaf descent per tree.

    Values are read by column from `fv.values`.  A caller that passes a
    `visited` set gets every attribute tested on the way added to it.
    """
    values = fv.values
    column = _ATTRIBUTE_INDEX
    votes = []
    for node in trees:
        while type(node) is Split:
            if visited is not None:
                visited.add(node.attribute)
            node = node.left if values[column[node.attribute]] <= node.threshold else node.right
        votes.append(node.label == ADULT)
    return tuple(votes)


def tree_classify(tree: TreeNode, fv: FeatureVector) -> tuple[str, set[str]]:
    """One tree's label; also reports the attributes tested en route."""
    visited: set[str] = set()
    (adult,) = forest_votes((tree,), fv, visited)
    return (ADULT if adult else SAFE), visited


def forest_score(forest: Forest, fv: FeatureVector) -> float:
    """Fraction of trees voting adult."""
    votes = forest_votes(forest.trees, fv)
    return sum(votes) / len(votes)


def classify(forest: Forest, fv: FeatureVector) -> str:
    """The forest's verdict on one vector."""
    return forest.label(forest_score(forest, fv))


def count_threshold(n_trees: int, min_votes: int) -> float:
    """Vote threshold such that >= min_votes adult votes classify adult."""
    if not 1 <= min_votes <= n_trees:
        raise ValueError("min_votes must be in [1, n_trees]")
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
    forest always reaches its full size.  Weights are kept normalized to
    the row count so min_leaf_weight speaks in "cases".
    """
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels length mismatch")
    n = len(vectors)
    if n < 2:
        raise TrainingError("need at least 2 training rows")
    y = np.array([label == ADULT for label in labels], dtype=bool)
    if y.all() or not y.any():
        raise TrainingError("degenerate class distribution")
    X = np.array([fv.values for fv in vectors], dtype=float)

    initial = np.where(y, config.fn_cost, 1.0)
    initial *= n / initial.sum()
    w = initial.copy()
    rng = None  # made at the first restart: most trainings never need it

    trees: list[TreeNode] = []
    stats: list[TreeStats] = []
    votes = np.zeros(n, dtype=int)
    restarts = 0
    for _ in range(config.n_trees):
        tree = grow_tree(X, y, w, config)
        pred = np.array([forest_votes((tree,), fv)[0] for fv in vectors])
        wrong = pred != y
        trees.append(tree)
        stats.append(TreeStats(tree_size(tree), float(wrong.mean())))
        votes += pred

        eps = float(w[wrong].sum() / w.sum())
        if eps >= 0.5:
            restarts += 1
            if rng is None:
                rng = np.random.default_rng(config.rng_seed)
            w = initial * rng.uniform(0.8, 1.2, n)
            w *= n / w.sum()
        elif eps > 0.0:
            w = w.copy()
            w[wrong] *= (1.0 - eps) / eps
            w *= n / w.sum()
        # eps == 0: nothing to upweight; weights stay put

    forest = Forest(tuple(trees))
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
    if "label" in obj:
        weights = obj.get("weights", [0.0, 0.0])
        return Leaf(obj["label"], (float(weights[0]), float(weights[1])))
    return Split(
        obj["attr"],
        float(obj["thr"]),
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
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SafeIndexError(f"model file is not valid JSON: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MODEL_VERSION:
        raise SafeIndexError(f"unsupported model version {version!r}")
    try:
        return Forest(
            tuple(_node_from_obj(t) for t in doc["trees"]),
            float(doc["vote_threshold"]),
        )
    except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        raise SafeIndexError(
            f"malformed model ({type(exc).__name__}: {exc})"
        ) from exc


def save_forest(forest: Forest, path: str | Path) -> None:
    write_atomic(path, forest_to_json(forest))


def load_forest(path: str | Path) -> Forest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SafeIndexError(f"model file {path} is not valid UTF-8: {exc}") from exc
    return forest_from_json(text)


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
