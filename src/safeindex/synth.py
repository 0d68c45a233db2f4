"""Synthetic stand-ins for the unpublishable data.

The real term lists and page corpora cannot be distributed, so this
module fabricates pseudo-word lexicons with the reference cardinalities
and labeled page corpora whose adult pages are sampled from those
lexicons.  Everything is deterministic given a seed.

numpy is imported inside the three functions that draw from a generator
(`generate_lexicon_materials`, `_term_units`, `generate_corpus`), not at
module load, so importing this module, or the package, does not load it.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .lexicon import (
    CONTENT_LEXICON_NAMES,
    DISCLAIMER_LIST_NAME,
    REFERENCE_SIZES,
    URL_LIST_NAME,
    LexiconSet,
)
from .page import ADULT, SAFE, Page, parse_url

if TYPE_CHECKING:
    import numpy as np

DEFAULT_LEXICON_SEED = 20160913

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

DISCLAIMER_PHRASES = (
    "you must be 18",
    "you must be 18 years or older to enter",
    "adults only beyond this point",
    "this site contains sexually explicit material",
    "i am of legal age in my jurisdiction",
    "enter only if you are over eighteen",
    "by entering you certify that you are an adult",
)

# Per-lexicon sampling weights used when composing adult page text.
_LEXICON_WEIGHTS = {
    "brand-names": 0.06,
    "categories-en": 0.12,
    "categories-fr": 0.12,
    "categories-gen": 0.08,
    "en-words": 0.08,
    "french-words": 0.08,
    "pornstars": 0.08,
    "queries": 0.10,
    "small-set": 0.12,
    "tags-en": 0.12,
    "tags-fr": 0.04,
}


def _word(rng: np.random.Generator, min_syl: int = 2, max_syl: int = 4) -> str:
    n = int(rng.integers(min_syl, max_syl + 1))
    # n scalar draws yield the values of one sized draw, and skip the
    # sized call's overhead, which costs more than the draws here
    return "".join(_SYLLABLES[rng.integers(0, len(_SYLLABLES))] for _ in range(n))


def _unique_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < n:
        w = _word(rng)
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def generate_lexicon_materials(
    seed: int = DEFAULT_LEXICON_SEED,
) -> dict[str, list[str]]:
    """Term lists (including in-url and disclaimer) keyed by list name."""
    import numpy as np

    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    materials: dict[str, list[str]] = {}

    single_word_lists = [
        URL_LIST_NAME, "brand-names", "categories-en", "categories-fr",
        "categories-gen", "en-words", "french-words", "small-set",
        "tags-en", "tags-fr",
    ]
    for name in single_word_lists:
        materials[name] = _unique_words(rng, REFERENCE_SIZES[name], taken)

    # pornstars: two-word names built from dedicated first/last name pools
    firsts = _unique_words(rng, 150, taken)
    lasts = _unique_words(rng, 400, taken)
    names: set[str] = set()
    while len(names) < REFERENCE_SIZES["pornstars"]:
        names.add(f"{firsts[rng.integers(len(firsts))]} {lasts[rng.integers(len(lasts))]}")
    materials["pornstars"] = sorted(names)

    # queries: two-word phrases over category/tag vocabulary
    query_vocab = materials["categories-en"] + materials["tags-en"] + materials["small-set"]
    queries: set[str] = set()
    while len(queries) < REFERENCE_SIZES["queries"]:
        a = query_vocab[rng.integers(len(query_vocab))]
        b = query_vocab[rng.integers(len(query_vocab))]
        if a != b:
            queries.add(f"{a} {b}")
    materials["queries"] = sorted(queries)

    materials[DISCLAIMER_LIST_NAME] = list(DISCLAIMER_PHRASES)
    return materials


def write_lexicon_files(dest_dir: str | Path, seed: int = DEFAULT_LEXICON_SEED) -> Path:
    """Write one file per list plus manifest.json; returns the manifest path."""
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    materials = generate_lexicon_materials(seed)
    manifest: dict[str, str] = {}
    for name, terms in materials.items():
        filename = f"{name}.txt"
        (dest / filename).write_text(
            "".join(f"{t}\n" for t in sorted(terms)), encoding="utf-8"
        )
        manifest[name] = filename
    manifest_path = dest / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest_path


class _Vocabulary(NamedTuple):
    terms: Mapping[str, tuple[str, ...]]  # content list name -> sorted terms
    forbidden: frozenset[str]  # every word of every content and URL term
    url_terms: tuple[str, ...]  # sorted


@lru_cache(maxsize=8)
def _vocabulary(
    content_term_sets: tuple[frozenset[str], ...], url_terms: frozenset[str]
) -> _Vocabulary:
    """The seed-independent part of a corpus, built once per lexicon
    content: keyed on the term sets (a LexiconSet holds a dict and cannot
    key a cache), so equal lists loaded twice share one entry."""
    forbidden = set(url_terms)
    for terms in content_term_sets:
        for term in terms:
            forbidden.update(term.split(" "))
    return _Vocabulary(
        MappingProxyType({
            name: tuple(sorted(terms))
            for name, terms in zip(CONTENT_LEXICON_NAMES, content_term_sets)
        }),
        frozenset(forbidden),
        tuple(sorted(url_terms)),
    )


def _term_units(
    rng: np.random.Generator,
    terms: Mapping[str, tuple[str, ...]],
    count: int,
) -> list[list[str]]:
    """`count` lexicon terms apportioned across lists by weight (largest
    remainder), so term mass spreads over every list deterministically."""
    import numpy as np

    names = list(_LEXICON_WEIGHTS)
    weights = np.array([_LEXICON_WEIGHTS[n] for n in names])
    ideal = count * weights / weights.sum()
    alloc = np.floor(ideal).astype(int)
    for j in np.argsort(ideal - alloc)[::-1][: count - int(alloc.sum())]:
        alloc[j] += 1
    pools = [terms[name] for name in names]
    owners = np.repeat(np.arange(len(names)), alloc)
    # one draw with an upper bound per term gives the values of one sized
    # draw per list (tests compare against the per-list loop)
    picks = rng.integers(0, np.array([len(pool) for pool in pools])[owners])
    return [pools[j][i].split(" ") for j, i in zip(owners.tolist(), picks.tolist())]


def generate_corpus(
    lexicons: LexiconSet,
    n_pages: int,
    n_adult: int,
    seed: int,
    overlap: float = 0.1,
    xxx_fraction: float = 0.0,
    disclaimer_fraction: float = 0.0,
    url_prefix: str = "",
) -> list[Page]:
    """Labeled pages: n_adult adult pages first, then safe pages.

    Adult pages mix 18-45% lexicon terms into neutral text; safe pages
    carry an `overlap` fraction of lexicon noise.  URLs are unique;
    `url_prefix` namespaces them so corpora from separate calls do not
    collide.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    terms, forbidden, url_terms = _vocabulary(
        tuple(lexicons.content[name] for name in CONTENT_LEXICON_NAMES),
        lexicons.url_terms,
    )
    # the pool depends on the seed, so only its forbidden words are cached;
    # the copy keeps the cached set intact
    neutral = _unique_words(rng, 900, set(forbidden))

    def safe_domain() -> str:
        while True:
            w = neutral[rng.integers(len(neutral))]
            domain = f"{w}.com"
            if not any(t in domain for t in url_terms):
                return domain

    pages: list[Page] = []
    for i in range(n_pages):
        is_adult = i < n_adult
        length = int(rng.integers(150, 400))
        frac = rng.uniform(0.18, 0.45) if is_adult else overlap
        n_terms = max(1, int(length * frac))
        units = _term_units(rng, terms, n_terms)
        n_tokens = sum(len(u) for u in units)
        # one batched draw yields the values of one scalar draw per token,
        # so the pages equal those of a per-token loop (tests check this)
        padding = rng.integers(len(neutral), size=max(length - n_tokens, 0))
        units.extend([neutral[j]] for j in padding.tolist())
        rng.shuffle(units)
        tokens = [tok for unit in units for tok in unit]

        if is_adult and rng.random() < disclaimer_fraction:
            phrase = DISCLAIMER_PHRASES[rng.integers(len(DISCLAIMER_PHRASES))]
            tokens = phrase.split(" ") + tokens

        if is_adult:
            word = neutral[rng.integers(len(neutral))]
            if rng.random() < 0.6:
                term = url_terms[rng.integers(len(url_terms))]
                host = f"{word}{term}"
            else:
                host = word
            tld = "xxx" if rng.random() < xxx_fraction else "com"
            url = f"http://{host}.{tld}/{url_prefix}a{i}"
            image_count = int(rng.poisson(14))
            label = ADULT
        else:
            url = f"http://{safe_domain()}/{url_prefix}s{i}"
            image_count = int(rng.poisson(7))
            label = SAFE
        pages.append(Page(parse_url(url), tuple(tokens), image_count, label))
    return pages


def render_html(page: Page) -> str:
    """HTML that extract_text() round-trips to the page's tokens and images."""
    imgs = "".join(f'<img src="i{k}.png"/>' for k in range(page.image_count))
    body = " ".join(page.tokens)
    return (
        "<html><head><script>var skip = 1;</script></head>"
        f"<body><p>{body}</p>{imgs}</body></html>\n"
    )


def write_corpus(pages: list[Page], dest_dir: str | Path) -> Path:
    """Write pages as HTML files plus a manifest.csv; returns the manifest."""
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    rows = [("path", "url", "label")]
    for i, page in enumerate(pages):
        filename = f"p{i:04d}.html"
        (dest / filename).write_text(render_html(page), encoding="utf-8")
        rows.append((filename, page.url.full_url, page.label or "unlabeled"))
    manifest_path = dest / "manifest.csv"
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return manifest_path
