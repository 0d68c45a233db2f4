"""The 36 numeric attributes computed for every page.

Layout: in_url, in_ndd, nbr_img, then nb_X / ratio_X / prop_X for each of
the eleven content lexicons in canonical order.

URL attributes use raw substring matching of the URL terms as written
(URLs have no token boundaries).  The content attributes of all eleven
lists come from one scan of the token stream through the lexicon set's
matcher, which indexes the terms of every list and the disclaimer
phrases together; their terms were split into words by the page's rule
when loaded, and multi-word terms match as contiguous token sequences.
The vector also carries whether that scan found a disclaimer phrase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexicon import CONTENT_LEXICON_NAMES, LexiconSet
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
    """Values in ATTRIBUTE_NAMES order; addressable by attribute name.
    `disclaimer` (the page holds a disclaimer phrase) is no attribute:
    equality, hashing and repr see the values alone."""

    values: tuple[float, ...]
    disclaimer: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.values) != len(ATTRIBUTE_NAMES):
            raise ValueError(
                f"expected {len(ATTRIBUTE_NAMES)} attributes, got {len(self.values)}"
            )

    def __getitem__(self, name: str) -> float:
        return self.values[_ATTRIBUTE_INDEX[name]]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(ATTRIBUTE_NAMES, self.values))


def substring_hits(haystack: str, terms: frozenset[str]) -> int:
    """Distinct terms occurring as substrings of the haystack."""
    return sum(1 for term in terms if term in haystack)


def extract_features(page: Page, lexicons: LexiconSet) -> FeatureVector:
    """All 36 attributes for one page, and whether it holds a disclaimer
    phrase, from one scan of its tokens.  Total: no page content can fail."""
    values = [
        float(substring_hits(page.url.full_url, lexicons.url_terms)),
        float(substring_hits(page.url.registrable_domain, lexicons.url_terms)),
        float(page.image_count),
    ]
    *scans, (disclaimer_hits, _, _) = lexicons.matcher.scan(page.tokens)
    for name, (total, distinct, covered) in zip(CONTENT_LEXICON_NAMES, scans):
        values.append(float(total))
        values.append(distinct / len(lexicons.content[name]))
        values.append(covered / len(page.tokens) if page.tokens else 0.0)
    return FeatureVector(tuple(values), disclaimer_hits > 0)

