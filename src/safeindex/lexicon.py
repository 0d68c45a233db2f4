"""Named term lists and the set of lists the feature extractor runs against.

A lexicon file is plain UTF-8 text, one term per line; blank lines and
lines starting with '#' are ignored.  A manifest is a JSON object mapping
list names to file paths (relative to the manifest); the reserved names
``in-url`` and ``disclaimer`` point at the URL term list and the
disclaimer phrase list, and any other name but the eleven content lists
is an error.

A LexiconSet owns the one index of its lists: a TermMatcher over the
eleven content lists and, as list 12, the disclaimer phrases, built on
first use and kept for the life of the set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, LexiconError
from .fileio import parse_json, read_input

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


@dataclass(frozen=True)
class Lexicon:
    """An immutable named set of normalized terms."""

    name: str
    terms: frozenset[str]

    def __post_init__(self):
        if not self.terms:
            raise LexiconError(f"empty lexicon: {self.name!r}")

    @property
    def term_count(self) -> int:
        return len(self.terms)


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


def parse_terms(source: str) -> tuple[str, ...]:
    """Normalized terms of line-oriented text, in first-seen order.

    Empty lines and '#' comments are skipped; duplicates after
    normalization are merged silently.
    """
    terms = []
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            terms.append(normalize_term(stripped))
    return tuple(dict.fromkeys(terms))


def parse_lexicon(name: str, source: str) -> Lexicon:
    """Build a Lexicon from line-oriented text; see parse_terms()."""
    return Lexicon(name, frozenset(parse_terms(source)))


def load_lexicon(name: str, path: str | Path) -> Lexicon:
    return parse_lexicon(name, read_input(path, "lexicon file"))


@dataclass(frozen=True)
class LexiconSet:
    """All term lists needed for one extraction configuration.

    Exactly the eleven canonical content lexicons must be present; the
    URL term list, which like every Lexicon holds at least one term, and
    the disclaimer phrases, which may be empty, ride along.  `matcher`
    indexes the content lists and the phrases together.
    """

    lexicons: dict[str, Lexicon]
    url_terms: Lexicon
    disclaimer_phrases: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        missing = [n for n in CONTENT_LEXICON_NAMES if n not in self.lexicons]
        if missing:
            raise ConfigError(f"missing content lexicons: {', '.join(missing)}")
        extra = [n for n in self.lexicons if n not in CONTENT_LEXICON_NAMES]
        if extra:
            raise ConfigError(f"unknown content lexicons: {', '.join(extra)}")

    def content(self, name: str) -> Lexicon:
        try:
            return self.lexicons[name]
        except KeyError:
            raise ConfigError(f"missing content lexicon: {name!r}") from None

    @cached_property
    def matcher(self) -> TermMatcher:
        """The content lists in CONTENT_LEXICON_NAMES order, then the
        disclaimer phrases as the last list."""
        content = [self.lexicons[n].terms for n in CONTENT_LEXICON_NAMES]
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

    def resolve(name: str) -> Path:
        try:
            return base / manifest[name]
        except KeyError:
            raise ConfigError(f"{what} is missing entry {name!r}") from None

    lexicons = {
        name: load_lexicon(name, resolve(name)) for name in CONTENT_LEXICON_NAMES
    }
    url_terms = load_lexicon(URL_LIST_NAME, resolve(URL_LIST_NAME))
    if DISCLAIMER_LIST_NAME in manifest:
        disclaimer = parse_terms(read_input(resolve(DISCLAIMER_LIST_NAME), "lexicon file"))
    else:
        disclaimer = ()
    return LexiconSet(lexicons, url_terms, disclaimer)


def default_lexicon_set() -> LexiconSet:
    """The synthetic stand-in lists shipped with the package."""
    from importlib.resources import files

    manifest = files("safeindex").joinpath("data/lexicons/manifest.json")
    return load_lexicon_set(Path(str(manifest)))
