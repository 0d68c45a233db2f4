"""The 36 numeric attributes computed for every page.

Layout: in_url, in_ndd, nbr_img, then nb_X / ratio_X / prop_X for each of
the eleven content lexicons in canonical order.

URL attributes use raw substring matching (URLs have no token
boundaries).  The content attributes of all eleven lists come from one
pass over the token stream through a single TermMatcher, which indexes
the terms of every list together; multi-word terms match as contiguous
token sequences.  The disclaimer stage of the pipeline runs its own
TermMatcher over the disclaimer phrases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .lexicon import CONTENT_LEXICON_NAMES, Lexicon, LexiconSet
from .page import Page


def _attribute_names() -> tuple[str, ...]:
    names = ["in_url", "in_ndd", "nbr_img"]
    for lex_name in CONTENT_LEXICON_NAMES:
        names += [f"nb_{lex_name}", f"ratio_{lex_name}", f"prop_{lex_name}"]
    return tuple(names)


ATTRIBUTE_NAMES: tuple[str, ...] = _attribute_names()
_ATTRIBUTE_INDEX = {name: i for i, name in enumerate(ATTRIBUTE_NAMES)}

assert len(ATTRIBUTE_NAMES) == 36


@dataclass(frozen=True)
class FeatureVector:
    """Values in ATTRIBUTE_NAMES order; addressable by attribute name."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(ATTRIBUTE_NAMES):
            raise ValueError(
                f"expected {len(ATTRIBUTE_NAMES)} attributes, got {len(self.values)}"
            )

    def __getitem__(self, name: str) -> float:
        return self.values[_ATTRIBUTE_INDEX[name]]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(ATTRIBUTE_NAMES, self.values))


def substring_hits(haystack: str, lexicon: Lexicon) -> int:
    """Distinct lexicon terms occurring as substrings of the haystack."""
    return sum(1 for term in lexicon.terms if term in haystack)


class TermMatcher:
    """One token-level index over any number of term lists.

    The token-level form of an Aho-Corasick goto table (CACM 1975): each
    first token maps to the lengths of the terms that start with it, and
    each term's token tuple maps to the ids of the lists that hold it.  At
    every position the scan makes one slice and one lookup per length, so
    a term shared by two lists costs one lookup and counts in both.
    Matches at distinct start positions count separately, overlaps allowed.
    """

    def __init__(self, term_lists: Sequence[Iterable[str]]):
        self.list_count = len(term_lists)
        self.spans: dict[str, tuple[int, ...]] = {}
        self.list_ids: dict[tuple[str, ...], tuple[int, ...]] = {}
        for list_id, terms in enumerate(term_lists):
            own = (list_id,)
            for term in terms:
                parts = tuple(term.split(" "))
                ids = self.list_ids.setdefault(parts, own)
                if ids[-1] != list_id:  # the term is in an earlier list too
                    self.list_ids[parts] = ids + own
                spans = self.spans.get(parts[0], ())
                if len(parts) not in spans:
                    self.spans[parts[0]] = tuple(sorted(spans + (len(parts),)))

    def scan(self, tokens: Sequence[str]) -> list[tuple[int, int, int]]:
        """(total matches, distinct terms matched, token positions covered)
        for each list, from one pass over the tokens."""
        tokens = tuple(tokens)
        n = len(tokens)
        totals = [0] * self.list_count
        seen: list[set] = [set() for _ in range(self.list_count)]
        covered: list[set[int]] = [set() for _ in range(self.list_count)]
        spans_of, list_ids = self.spans, self.list_ids
        for i, tok in enumerate(tokens):
            if tok not in spans_of:
                continue
            for span in spans_of[tok]:
                if i + span > n:
                    break  # spans ascend; a cut-off slice could equal a shorter term
                parts = tokens[i:i + span]
                for list_id in list_ids.get(parts, ()):
                    totals[list_id] += 1
                    seen[list_id].add(parts)
                    covered[list_id].update(range(i, i + span))
        return [(t, len(s), len(c)) for t, s, c in zip(totals, seen, covered)]


@lru_cache(maxsize=64)
def matcher_for(term_lists: tuple[Iterable[str], ...]) -> TermMatcher:
    """The matcher for a tuple of hashable term lists (a LexiconSet holds a
    dict and cannot key a cache), built once and shared by every page."""
    return TermMatcher(term_lists)


def _scan(tokens: tuple[str, ...], lexicon: Lexicon) -> tuple[int, int, int]:
    return matcher_for((lexicon.terms,)).scan(tokens)[0]


def nb_metric(tokens: tuple[str, ...], lexicon: Lexicon) -> int:
    """Occurrences of lexicon terms in the token stream, with multiplicity."""
    return _scan(tokens, lexicon)[0]


def ratio_metric(tokens: tuple[str, ...], lexicon: Lexicon) -> float:
    """Fraction of the lexicon's terms present at least once."""
    return _scan(tokens, lexicon)[1] / lexicon.term_count


def prop_metric(tokens: tuple[str, ...], lexicon: Lexicon) -> float:
    """Fraction of token positions covered by at least one match."""
    if not tokens:
        return 0.0
    return _scan(tokens, lexicon)[2] / len(tokens)


def extract_features(page: Page, lexicons: LexiconSet) -> FeatureVector:
    """All 36 attributes for one page.  Total: no page content can fail."""
    values = [
        float(substring_hits(page.url.full_url, lexicons.url_terms)),
        float(substring_hits(page.url.registrable_domain, lexicons.url_terms)),
        float(page.image_count),
    ]
    content = [lexicons.content(name) for name in CONTENT_LEXICON_NAMES]
    scans = matcher_for(tuple(lex.terms for lex in content)).scan(page.tokens)
    for lexicon, (total, distinct, covered) in zip(content, scans):
        values.append(float(total))
        values.append(distinct / lexicon.term_count)
        values.append(covered / len(page.tokens) if page.tokens else 0.0)
    return FeatureVector(tuple(values))

