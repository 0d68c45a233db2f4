"""The 36 numeric attributes computed for every page.

Layout: in_url, in_ndd, nbr_img, then nb_X / ratio_X / prop_X for each of
the eleven content lexicons in canonical order.

URL attributes use raw substring matching (URLs have no token
boundaries).  The content attributes of all eleven lists come from one
scan of the token stream through the lexicon set's content matcher,
which indexes the terms of every list together; multi-word terms match
as contiguous token sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def extract_features(page: Page, lexicons: LexiconSet) -> FeatureVector:
    """All 36 attributes for one page.  Total: no page content can fail."""
    values = [
        float(substring_hits(page.url.full_url, lexicons.url_terms)),
        float(substring_hits(page.url.registrable_domain, lexicons.url_terms)),
        float(page.image_count),
    ]
    content = [lexicons.content(name) for name in CONTENT_LEXICON_NAMES]
    scans = lexicons.content_matcher.scan(page.tokens)
    for lexicon, (total, distinct, covered) in zip(content, scans):
        values.append(float(total))
        values.append(distinct / lexicon.term_count)
        values.append(covered / len(page.tokens) if page.tokens else 0.0)
    return FeatureVector(tuple(values))

