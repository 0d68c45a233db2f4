"""Synthetic stand-ins for the unpublishable data.

The real term lists and page corpora cannot be distributed, so this
module fabricates pseudo-word lexicons with the reference cardinalities
and labeled page corpora whose adult pages are sampled from those
lexicons.  Everything is deterministic given a seed, and every setting
passes `errors.check_count` or `check_number` before anything is drawn.

numpy is imported inside the functions that make a generator or an array
(`generate_lexicon_materials`, `generate_corpus`, `_unique_words`,
`_vocabulary`, `_term_owners`), not at module load, so importing this
module, or the package, does not load it.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import check_count, check_number
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


def _word(rng: np.random.Generator) -> str:
    # the draw order that _unique_words reproduces in bulk, and its
    # fallback: one length in 2..4, then one syllable draw per syllable
    n = int(rng.integers(2, 5))
    return "".join(_SYLLABLES[rng.integers(0, len(_SYLLABLES))] for _ in range(n))


def _unique_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    """`n` new words, each added to `taken`: the words of a `_word` loop
    that skips taken words, with the generator left where that loop
    leaves it.

    The loop's draws are guessed in bulk. From one saved state a block of
    lengths and a block of syllable indices are drawn, so each position
    holds both readings of the same random value, and the blocks are
    walked as the loop would read them. One draw with each position's
    bound, again from the saved state, then replays the loop's draws
    exactly; where it agrees with the guess, the walk's words are the
    loop's. It disagrees only when numpy's bounded draw rejects a value
    (about once in 10^9 draws), and then one word is taken by `_word`."""
    import numpy as np

    words: list[str] = []
    while len(words) < n:
        need = n - len(words)
        # a word takes at most five draws; the cap bounds the blocks'
        # memory (a whole 900-word pool at once held about 320 KB)
        k = min(5 * need, 1000)
        state = rng.bit_generator.state
        length_block = rng.integers(2, 5, size=k)
        rng.bit_generator.state = state
        syllables = rng.integers(0, len(_SYLLABLES), size=k)
        lengths = length_block.tolist()
        parts = [_SYLLABLES[i] for i in syllables.tolist()]
        fresh: dict[str, None] = {}
        starts: list[int] = []
        pos = 0
        while len(fresh) < need and pos < k:
            end = pos + 1 + lengths[pos]
            if end > k:
                break
            starts.append(pos)
            w = "".join(parts[pos + 1:end])
            if w not in taken and w not in fresh:
                fresh[w] = None
            pos = end
        guess = syllables[:pos]
        guess[starts] = length_block[starts] - 2
        highs = np.full(pos, len(_SYLLABLES))
        highs[starts] = 3
        rng.bit_generator.state = state
        if np.array_equal(rng.integers(0, highs), guess):
            taken.update(fresh)
            words.extend(fresh)
        else:
            rng.bit_generator.state = state
            w = _word(rng)
            if w not in taken:
                taken.add(w)
                words.append(w)
    return words


def generate_lexicon_materials(
    seed: int = DEFAULT_LEXICON_SEED,
) -> dict[str, list[str]]:
    """Term lists (including in-url and disclaimer) keyed by list name."""
    check_count("seed", seed, 0)
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
    # per content list, in _LEXICON_WEIGHTS order: the sorted terms and
    # (read-only) the list sizes
    pools: tuple[tuple[str, ...], ...]
    pool_sizes: np.ndarray
    forbidden: frozenset[str]  # every word of every content and URL term
    url_terms: tuple[str, ...]  # sorted


@lru_cache(maxsize=8)
def _vocabulary(
    content_term_sets: tuple[frozenset[str], ...], url_terms: frozenset[str]
) -> _Vocabulary:
    """The seed-independent part of a corpus, built once per lexicon
    content: keyed on the term sets (a LexiconSet holds a dict and cannot
    key a cache), so equal lists loaded twice share one entry."""
    import numpy as np

    forbidden = set(url_terms)
    for terms in content_term_sets:
        for term in terms:
            forbidden.update(term.split(" "))
    by_name = dict(zip(CONTENT_LEXICON_NAMES, content_term_sets))
    pools = tuple(tuple(sorted(by_name[name])) for name in _LEXICON_WEIGHTS)
    pool_sizes = np.array([len(pool) for pool in pools])
    pool_sizes.setflags(write=False)
    return _Vocabulary(pools, pool_sizes, frozenset(forbidden), tuple(sorted(url_terms)))


@lru_cache(maxsize=512)
def _term_owners(count: int) -> np.ndarray:
    """The list of each of `count` terms (an index into _LEXICON_WEIGHTS):
    `count` apportioned across lists by weight (largest remainder), so
    term mass spreads over every list deterministically.  Read-only, as
    every page with `count` terms shares it."""
    import numpy as np

    weights = np.array(list(_LEXICON_WEIGHTS.values()))
    ideal = count * weights / weights.sum()
    alloc = np.floor(ideal).astype(int)
    for j in np.argsort(ideal - alloc)[::-1][: count - int(alloc.sum())]:
        alloc[j] += 1
    owners = np.repeat(np.arange(len(weights), dtype=np.int8), alloc)
    owners.setflags(write=False)
    return owners


def _term_units(
    rng: np.random.Generator, vocabulary: _Vocabulary, count: int
) -> list[list[str]]:
    """The words of `count` lexicon terms drawn from the lists
    `_term_owners` apportions them to."""
    owners = _term_owners(count)
    # one draw with an upper bound per term gives the values of one sized
    # draw per list (tests compare against the per-list loop)
    picks = rng.integers(0, vocabulary.pool_sizes[owners])
    pools = vocabulary.pools
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
    carry an `overlap` fraction of lexicon noise, and at least one term,
    so `overlap=0` still puts one lexicon term on each safe page.  URLs
    are unique; `url_prefix` namespaces them so corpora from separate
    calls do not collide.  Raises ValueError unless n_pages, n_adult and
    seed are ints with 0 <= n_adult <= n_pages and 0 <= seed, each of
    overlap, xxx_fraction and disclaimer_fraction a number in [0, 1] (NaN
    is not), and url_prefix a str with no line break.
    """
    check_count("n_pages", n_pages)
    if not 0 <= check_count("n_adult", n_adult) <= n_pages:
        raise ValueError(
            f"n_adult must lie in 0..n_pages, got n_adult={n_adult}, n_pages={n_pages}"
        )
    check_count("seed", seed, 0)
    for name, value in (("overlap", overlap), ("xxx_fraction", xxx_fraction),
                        ("disclaimer_fraction", disclaimer_fraction)):
        if not 0 <= check_number(name, value) <= 1:  # False for NaN too
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if type(url_prefix) is not str or url_prefix.splitlines() not in ([], [url_prefix]):
        raise ValueError(f"url_prefix must be a str without a line break, got {url_prefix!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    vocabulary = _vocabulary(
        tuple(lexicons.content[name] for name in CONTENT_LEXICON_NAMES),
        lexicons.url_terms,
    )
    url_terms = vocabulary.url_terms
    # the pool depends on the seed, so only its forbidden words are cached;
    # the copy keeps the cached set intact
    neutral = _unique_words(rng, 900, set(vocabulary.forbidden))

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
        units = _term_units(rng, vocabulary, n_terms)
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
