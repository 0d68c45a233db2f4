"""Named term lists and the set of lists the feature extractor runs against.

A lexicon file is plain UTF-8 text, one term per line; blank lines and
lines starting with '#' are ignored.  A manifest is a JSON object mapping
list names to file paths (relative to the manifest); the reserved names
``in-url`` and ``disclaimer`` point at the URL term list and the
disclaimer phrase list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, LexiconError

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

    def serialize(self) -> str:
        """One term per line, sorted; parse_lexicon() reproduces the lexicon."""
        return "\n".join(sorted(self.terms)) + "\n"


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


def _read_terms(path: str | Path) -> tuple[str, ...]:
    """parse_terms() of a UTF-8 file; other encodings raise LexiconError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"lexicon file {path} is not valid UTF-8: {exc}") from exc
    return parse_terms(text)


def parse_lexicon(name: str, source: str) -> Lexicon:
    """Build a Lexicon from line-oriented text; see parse_terms()."""
    return Lexicon(name, frozenset(parse_terms(source)))


def load_lexicon(name: str, path: str | Path) -> Lexicon:
    return Lexicon(name, frozenset(_read_terms(path)))


@dataclass(frozen=True)
class LexiconSet:
    """All term lists needed for one extraction configuration.

    Exactly the eleven canonical content lexicons must be present; the
    URL term list and disclaimer phrases ride along.
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


def load_lexicon_set(manifest_path: str | Path) -> LexiconSet:
    """Load every list named by a JSON manifest (paths relative to it)."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read lexicon manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError("lexicon manifest must be a JSON object mapping name to path")

    base = manifest_path.parent

    def resolve(name: str) -> Path:
        try:
            return base / manifest[name]
        except KeyError:
            raise ConfigError(f"lexicon manifest is missing entry {name!r}") from None

    lexicons = {
        name: load_lexicon(name, resolve(name)) for name in CONTENT_LEXICON_NAMES
    }
    url_terms = load_lexicon(URL_LIST_NAME, resolve(URL_LIST_NAME))
    if DISCLAIMER_LIST_NAME in manifest:
        disclaimer = _read_terms(resolve(DISCLAIMER_LIST_NAME))
    else:
        disclaimer = ()
    return LexiconSet(lexicons, url_terms, disclaimer)


def default_lexicon_set() -> LexiconSet:
    """The synthetic stand-in lists shipped with the package."""
    from importlib.resources import files

    manifest = files("safeindex").joinpath("data/lexicons/manifest.json")
    return load_lexicon_set(Path(str(manifest)))
