"""Term lists and the set of lists the feature extractor runs against.

A lexicon file is plain UTF-8 text, one term per line; blank lines and
lines starting with '#' are ignored.  A manifest is a JSON object mapping
list names to file paths (relative to the manifest); the reserved names
``in-url`` and ``disclaimer`` point at the URL term list and the
disclaimer phrase list, and any other name but the eleven content lists
is an error.

Every list is a frozenset of normalized terms.  The eleven content lists
and the disclaimer phrases are matched against a page's tokens, so their
terms are split into words by the page's own rule, page.tokenize; the
URL terms are matched as substrings and keep their spelling.

A LexiconSet owns the one index of its lists: a TermMatcher over the
eleven content lists and, as list 12, the disclaimer phrases, built on
first use and kept for the life of the set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, LexiconError
from .fileio import parse_json, read_input
from .page import tokenize

# The eleven content lists the feature extractor requires, in the fixed
# order used everywhere (feature columns, CSV dumps, model files).
CONTENT_LEXICON_NAMES = (
    "brand-names",
    "categories-en",
    "categories-fr",
    "categories-gen",
    "en-words",
    "french-words",
    "pornstars",
    "queries",
    "small-set",
    "tags-en",
    "tags-fr",
)

URL_LIST_NAME = "in-url"
DISCLAIMER_LIST_NAME = "disclaimer"
# Every name a manifest may hold.
LIST_NAMES = frozenset((*CONTENT_LEXICON_NAMES, URL_LIST_NAME, DISCLAIMER_LIST_NAME))

# Sizes of the reference lists; documentation targets for the synthetic
# stand-ins shipped with the package, not enforced invariants.
REFERENCE_SIZES = {
    "in-url": 27,
    "brand-names": 34,
    "categories-en": 222,
    "categories-fr": 593,
    "categories-gen": 79,
    "en-words": 100,
    "french-words": 163,
    "pornstars": 8825,
    "queries": 716,
    "small-set": 11,
    "tags-en": 2000,
    "tags-fr": 69,
}


def normalize_term(raw: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs.

    Raises LexiconError if nothing is left after normalization.
    """
    term = " ".join(raw.lower().split())
    if not term:
        raise LexiconError("blank term")
    return term


class TermMatcher:
    """One token-level index over any number of term lists.

    `single` maps each one-token term to the ids of the lists that hold
    it.  `multi` maps each first token of a multi-token term to the
    ascending lengths of the terms that start with it, the token-level
    form of an Aho-Corasick goto table (CACM 1975), and `list_ids` maps
    each multi-token term's token tuple to the ids of its lists.  A term
    shared by two lists costs one lookup and counts in both.
    Matches at distinct start positions count separately, overlaps allowed.
    """

    def __init__(self, term_lists: Sequence[Iterable[str]]):
        self.list_count = len(term_lists)
        self.single: dict[str, tuple[int, ...]] = {}
        self.multi: dict[str, tuple[int, ...]] = {}
        self.list_ids: dict[tuple[str, ...], tuple[int, ...]] = {}
        for list_id, terms in enumerate(term_lists):
            own = (list_id,)
            for term in terms:
                parts = tuple(term.split(" "))
                if len(parts) == 1:
                    index, key = self.single, parts[0]
                else:
                    index, key = self.list_ids, parts
                    lengths = self.multi.get(parts[0], ())
                    if len(parts) not in lengths:
                        self.multi[parts[0]] = tuple(sorted(lengths + (len(parts),)))
                ids = index.setdefault(key, own)
                if ids[-1] != list_id:  # the term is in an earlier list too
                    index[key] = ids + own

    def scan(self, tokens: Sequence[str]) -> list[tuple[int, int, int]]:
        """(total matches, distinct terms matched, token positions covered)
        for each list.

        One-token hits are counted in C (`compress` and `Counter`); only
        the positions holding the first token of a multi-token term are
        visited in Python.  A list's covered count is its one-token total
        plus the positions its multi-token matches cover whose token is
        not itself one of its one-token terms.
        """
        tokens = tuple(tokens)
        single, multi = self.single, self.multi
        totals = [0] * self.list_count
        distinct = [0] * self.list_count
        found = Counter(compress(tokens, map(single.__contains__, tokens)))
        for token, hits in found.items():
            for list_id in single[token]:
                totals[list_id] += hits
                distinct[list_id] += 1
        covered = totals.copy()
        if multi.keys().isdisjoint(tokens):
            return list(zip(totals, distinct, covered))

        n = len(tokens)
        seen: list[set] = [set() for _ in range(self.list_count)]
        spanned: list[set[int]] = [set() for _ in range(self.list_count)]
        list_ids = self.list_ids
        for i in compress(count(), map(multi.__contains__, tokens)):
            for length in multi[tokens[i]]:
                if i + length > n:
                    break  # lengths ascend; a cut-off slice could equal a shorter term
                parts = tokens[i:i + length]
                for list_id in list_ids.get(parts, ()):
                    totals[list_id] += 1
                    seen[list_id].add(parts)
                    spanned[list_id].update(range(i, i + length))
        for list_id, positions in enumerate(spanned):
            distinct[list_id] += len(seen[list_id])
            covered[list_id] += sum(
                list_id not in single.get(tokens[j], ()) for j in positions
            )
        return list(zip(totals, distinct, covered))


def parse_terms(source: str) -> frozenset[str]:
    """The normalized terms of line-oriented text.

    Empty lines and '#' comments are skipped; duplicates after
    normalization are merged silently.
    """
    terms = set()
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            terms.add(normalize_term(stripped))
    return frozenset(terms)


def split_as_page(terms: frozenset[str], path: Path) -> frozenset[str]:
    """The terms split into words by the page's own rule, page.tokenize,
    so that a term matches the text it is spelled as.

    A list whose terms are all alphanumeric words (str.isalnum is the
    regex class \\w without '_') is split so already; only a list holding
    another character pays for tokenize.  Raises LexiconError, naming the
    file, for a term that holds no word.
    """
    if "".join(terms).replace(" ", "").isalnum():
        return terms
    split = []
    for term in sorted(terms):  # so the error names the same term every run
        words = tokenize(term)
        if not words:
            raise LexiconError(f"lexicon file {path}: term {term!r} holds no word")
        split.append(" ".join(words))
    return frozenset(split)


@dataclass(frozen=True)
class LexiconSet:
    """All term lists needed for one extraction configuration, each a
    frozenset of normalized terms.

    `content` holds exactly the eleven canonical content lists; each of
    them and `url_terms` holds at least one term, while the disclaimer
    phrases may be empty.  `matcher` indexes the content lists and the
    phrases together.
    """

    content: dict[str, frozenset[str]]
    url_terms: frozenset[str]
    disclaimer_phrases: frozenset[str] = frozenset()

    def __post_init__(self):
        missing = [n for n in CONTENT_LEXICON_NAMES if n not in self.content]
        if missing:
            raise ConfigError(f"missing content lexicons: {', '.join(missing)}")
        extra = [n for n in self.content if n not in CONTENT_LEXICON_NAMES]
        if extra:
            raise ConfigError(f"unknown content lexicons: {', '.join(extra)}")
        for name, terms in (*self.content.items(), (URL_LIST_NAME, self.url_terms)):
            if not terms:
                raise LexiconError(f"empty lexicon: {name!r}")

    @cached_property
    def matcher(self) -> TermMatcher:
        """The content lists in CONTENT_LEXICON_NAMES order, then the
        disclaimer phrases as the last list."""
        content = [self.content[n] for n in CONTENT_LEXICON_NAMES]
        return TermMatcher(content + [self.disclaimer_phrases])


def load_lexicon_set(manifest_path: str | Path) -> LexiconSet:
    """Load every list named by a JSON manifest (paths relative to it)."""
    manifest_path = Path(manifest_path)
    what = f"lexicon manifest {manifest_path}"
    manifest = parse_json(read_input(manifest_path, "lexicon manifest"), what)
    if not isinstance(manifest, dict) or not all(isinstance(v, str) for v in manifest.values()):
        raise ConfigError(f"{what} must be a JSON object mapping name to path")
    for name in manifest:
        if name not in LIST_NAMES:
            raise ConfigError(f"unknown list {name!r} in {what}")

    base = manifest_path.parent

    def load(name: str) -> frozenset[str]:
        if name not in manifest:
            raise ConfigError(f"{what} is missing entry {name!r}")
        path = base / manifest[name]
        terms = parse_terms(read_input(path, "lexicon file"))
        if not terms and name != DISCLAIMER_LIST_NAME:
            raise LexiconError(f"lexicon file {path} holds no term")
        # URL terms are matched as substrings, so they keep their spelling
        return terms if name == URL_LIST_NAME else split_as_page(terms, path)

    content = {name: load(name) for name in CONTENT_LEXICON_NAMES}
    url_terms = load(URL_LIST_NAME)
    if DISCLAIMER_LIST_NAME in manifest:
        return LexiconSet(content, url_terms, load(DISCLAIMER_LIST_NAME))
    return LexiconSet(content, url_terms)


def default_lexicon_set() -> LexiconSet:
    """The synthetic stand-in lists shipped with the package."""
    from importlib.resources import files

    manifest = files("safeindex").joinpath("data/lexicons/manifest.json")
    return load_lexicon_set(Path(str(manifest)))
