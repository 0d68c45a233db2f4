"""Staged filter over a page stream, producing the safe index.

Stage order, first hit wins: blacklist, disclaimer, .xxx TLD, decision
forest.  Every adult verdict counts toward the per-domain trigger (3 by
default); once a domain hits the trigger it enters the blacklist and its
later pages short-circuit on the URL alone: such a page costs one URL
parse and one set lookup, and adds no strike and no URL.  Verdicts are
counted once per distinct URL.  The blacklist, disclaimer and .xxx
verdicts are shared instances.  Past the blacklist, a page's tokens are
scanned once: `extract_features` gives the 36 values the forest scores
and the disclaimer flag the disclaimer stage reads; a page from
`page_from_html` strips its HTML at that scan, never before.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import check_count
from .features import FeatureVector, extract_features
from .fileio import read_input, write_atomic
from .forest import Forest, forest_score
from .lexicon import LexiconSet, parse_terms
from .page import ADULT, SAFE, Page, PageLoadFailure

REASON_BLACKLIST = "blacklist"
REASON_DISCLAIMER = "disclaimer"
REASON_TLD_XXX = "tld_xxx"
REASON_FOREST = "forest"


@dataclass(frozen=True)
class Verdict:
    """A page's label and the stage that gave it; instances may be shared."""

    label: str
    reason: str
    score: float | None = None  # present iff reason == forest


_BLACKLIST_VERDICT = Verdict(ADULT, REASON_BLACKLIST)
_DISCLAIMER_VERDICT = Verdict(ADULT, REASON_DISCLAIMER)
_TLD_XXX_VERDICT = Verdict(ADULT, REASON_TLD_XXX)


@dataclass
class FilterState:
    blacklist: set[str] = field(default_factory=set)
    unsafe_counts: dict[str, int] = field(default_factory=dict)
    blacklist_trigger: int = 3
    counted_urls: set[str] = field(default_factory=set)

    def __post_init__(self):
        # the CLI checks its options, a library caller may not; int() would truncate 2.7
        check_count("blacklist_trigger", self.blacklist_trigger, 1)


@dataclass
class StageReport:
    blacklist: int = 0
    disclaimer: int = 0
    tld_xxx: int = 0
    forest_adult: int = 0
    forest_safe: int = 0
    skipped: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def tally(self, verdict: Verdict) -> None:
        """Count one verdict under the stage that gave it."""
        if verdict.reason == REASON_FOREST:
            stage = "forest_adult" if verdict.label == ADULT else "forest_safe"
        else:
            stage = verdict.reason  # the short-circuit reasons name their counters
        setattr(self, stage, getattr(self, stage) + 1)


def has_disclaimer(features: FeatureVector) -> bool:
    """True when `extract_features` found a disclaimer phrase in the
    page's tokens as a contiguous run."""
    return features.disclaimer


def filter_page(
    page: Page,
    forest: Forest,
    lexicons: LexiconSet,
    state: FilterState,
    features: FeatureVector | None = None,
    score: float | None = None,
) -> tuple[Verdict, FilterState]:
    """Run the staged filter on one page, updating the blacklist state.

    Pass the page's `features` from `extract_features`, and their
    `score` from `forest_score(forest, features)`, when already held.
    A `FeatureVector(values)` built from stored values has no
    disclaimer flag: the disclaimer stage would pass the page on.
    """
    domain = page.url.registrable_domain
    if domain in state.blacklist:
        # a blacklisted domain's pages are decided already: they count nothing
        return _BLACKLIST_VERDICT, state
    if features is None:
        features = extract_features(page, lexicons)
    if has_disclaimer(features):
        verdict = _DISCLAIMER_VERDICT
    elif page.url.tld == "xxx":
        verdict = _TLD_XXX_VERDICT
    else:
        score = forest_score(forest, features) if score is None else score
        verdict = Verdict(forest.label(score), REASON_FOREST, score)

    if verdict.label == ADULT and page.url.full_url not in state.counted_urls:
        state.counted_urls.add(page.url.full_url)
        state.unsafe_counts[domain] = state.unsafe_counts.get(domain, 0) + 1
        if state.unsafe_counts[domain] >= state.blacklist_trigger:
            state.blacklist.add(domain)
    return verdict, state


def build_safe_index(
    pages: Iterable[Page | PageLoadFailure],
    forest: Forest,
    lexicons: LexiconSet,
    initial_state: FilterState | None = None,
) -> tuple[list[str], StageReport, FilterState]:
    """Filter a page stream; safe pages' URLs become the index, in order."""
    state = initial_state if initial_state is not None else FilterState()
    report = StageReport()
    index: list[str] = []
    for page in pages:
        if isinstance(page, PageLoadFailure):
            report.skipped += 1
            continue
        verdict, state = filter_page(page, forest, lexicons, state)
        report.tally(verdict)
        if verdict.label == SAFE:
            index.append(page.url.full_url)
    return index, report, state


def load_blacklist(path: str | Path) -> set[str]:
    """One registrable domain per line; '#' comments and blanks skipped."""
    return set(parse_terms(read_input(path, "blacklist file")))


def save_blacklist(domains: set[str], path: str | Path) -> None:
    write_atomic(path, "".join(f"{d}\n" for d in sorted(domains)))
