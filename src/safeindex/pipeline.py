"""Staged filter over a page stream, producing the safe index.

Stage order, first hit wins: blacklist, disclaimer, .xxx TLD, decision
forest.  Every adult verdict counts toward the per-domain trigger (3 by
default); once a domain hits the trigger it enters the blacklist and its
later pages short-circuit on the URL alone.  Past the blacklist, a page's
tokens are scanned once: `extract_features` gives the 36 values the
forest scores and the disclaimer flag the disclaimer stage reads.  A page
from `page_from_html` strips its HTML at that scan, so a blacklisted page
is never stripped.
Verdicts are counted once per distinct URL, and only until the domain is
blacklisted: a blacklisted domain's pages add no strike and no URL.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ConfigError
from .features import FeatureVector, extract_features
from .fileio import write_atomic
from .forest import Forest, forest_score
from .lexicon import LexiconSet, parse_terms
from .page import ADULT, SAFE, Page, PageLoadFailure

REASON_BLACKLIST = "blacklist"
REASON_DISCLAIMER = "disclaimer"
REASON_TLD_XXX = "tld_xxx"
REASON_FOREST = "forest"


@dataclass(frozen=True)
class Verdict:
    label: str
    reason: str
    score: float | None = None  # present iff reason == forest


@dataclass
class FilterState:
    blacklist: set[str] = field(default_factory=set)
    unsafe_counts: dict[str, int] = field(default_factory=dict)
    blacklist_trigger: int = 3
    counted_urls: set[str] = field(default_factory=set)

    def __post_init__(self):
        # a config file can give any JSON value; int() would truncate 2.7
        trigger = self.blacklist_trigger
        if not isinstance(trigger, int) or isinstance(trigger, bool):
            raise ConfigError(f"blacklist_trigger must be an integer, got {trigger!r}")
        if trigger < 1:
            raise ConfigError(f"blacklist_trigger must be >= 1, got {trigger}")


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
) -> tuple[Verdict, FilterState]:
    """Run the staged filter on one page, updating the blacklist state.

    A caller that already holds the page's `features` from
    `extract_features` passes them in.  A `FeatureVector(values)` built
    from stored values has no disclaimer flag: the disclaimer stage
    would pass the page on.
    """
    domain = page.url.registrable_domain
    if domain in state.blacklist:
        verdict = Verdict(ADULT, REASON_BLACKLIST)
    else:
        if features is None:
            features = extract_features(page, lexicons)
        if has_disclaimer(features):
            verdict = Verdict(ADULT, REASON_DISCLAIMER)
        elif page.url.tld == "xxx":
            verdict = Verdict(ADULT, REASON_TLD_XXX)
        else:
            score = forest_score(forest, features)
            verdict = Verdict(forest.label(score), REASON_FOREST, score)

    # a blacklisted domain's pages are decided already: they count nothing
    if (
        verdict.label == ADULT
        and verdict.reason != REASON_BLACKLIST
        and page.url.full_url not in state.counted_urls
    ):
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
    try:
        return set(parse_terms(Path(path).read_text(encoding="utf-8")))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"blacklist file {path} is not valid UTF-8: {exc}") from exc


def save_blacklist(domains: set[str], path: str | Path) -> None:
    write_atomic(path, "".join(f"{d}\n" for d in sorted(domains)))
