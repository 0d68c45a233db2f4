"""Scoring helpers: confusion matrix, derived metrics, attribute usage."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SafeIndexError
from .features import ATTRIBUTE_NAMES, FeatureVector
from .forest import Forest, forest_votes
from .page import ADULT, SAFE


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int  # adult classified adult
    fn: int  # adult classified safe
    fp: int  # safe classified adult
    tn: int  # safe classified safe

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def score_run(verdicts: Iterable[tuple[str, str]]) -> ConfusionMatrix:
    """Tally (gold, predicted) label pairs."""
    tp = fn = fp = tn = 0
    for gold, predicted in verdicts:
        if gold not in (ADULT, SAFE):
            raise SafeIndexError(f"unlabeled or bad gold label {gold!r}")
        if gold == ADULT:
            if predicted == ADULT:
                tp += 1
            else:
                fn += 1
        else:
            if predicted == ADULT:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fn, fp, tn)


def metrics(cm: ConfusionMatrix) -> dict[str, float | None]:
    """miss_rate, accuracy, recall, precision; None when undefined."""

    def ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    return {
        "miss_rate": ratio(cm.fn, cm.tp + cm.fn),
        "accuracy": ratio(cm.tp + cm.tn, cm.total),
        "recall": ratio(cm.tp, cm.tp + cm.fn),
        "precision": ratio(cm.tp, cm.tp + cm.fp),
    }


def format_confusion(cm: ConfusionMatrix) -> str:
    """Two-by-two text layout with class annotations."""
    width = max(len(str(v)) for v in (cm.tp, cm.fn, cm.fp, cm.tn))
    return (
        f"{'(a)':>{width + 2}} {'(b)':>{width + 2}}   <- classified as\n"
        f"{cm.tp:>{width + 2}} {cm.fn:>{width + 2}}   (a): class adult\n"
        f"{cm.fp:>{width + 2}} {cm.tn:>{width + 2}}   (b): class safe"
    )


def attribute_usage(
    forest: Forest, vectors: Sequence[FeatureVector]
) -> dict[str, float]:
    """Per attribute: fraction of pages where some tree's path tested it.

    Every name of ATTRIBUTE_NAMES is a key, in that order.  Each page's
    walk fills one `visited` set, which one `Counter.update` tallies.
    """
    counts: Counter[str] = Counter()
    for fv in vectors:
        visited: set[str] = set()
        forest_votes(forest.trees, fv, visited)
        counts.update(visited)
    n = len(vectors)
    return {name: (counts[name] / n if n else 0.0) for name in ATTRIBUTE_NAMES}
