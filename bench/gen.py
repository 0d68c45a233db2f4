"""Seeded inputs for the benchmark, made without calling the program.

Crawl pages are HTML with realistic markup: nested tags, attributes,
entities, comments and <script>/<style> blocks.  Words hidden in markup
include lexicon terms, so a text extractor that leaks markup changes the
features.  Every page records the visible words it wrote, its image count,
its registrable domain and its TLD, so the reference code in reference.py
can recount what the program computes.

Each workload's make-up is fixed (page counts, length strata, domains,
stage mix); the seed draws the words, the order and which page gets what.
That keeps the work per pass nearly the same from seed to seed, while the
content changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEXICON_MANIFEST = ROOT / "src" / "safeindex" / "data" / "lexicons" / "manifest.json"
DATA_DIR = Path(__file__).resolve().parent / "data"
MODEL_PATH = DATA_DIR / "model.json"
ROWS_PATH = DATA_DIR / "train_rows.json"

CONTENT_LISTS = (
    "brand-names", "categories-en", "categories-fr", "categories-gen",
    "en-words", "french-words", "pornstars", "queries", "small-set",
    "tags-en", "tags-fr",
)

_ONSETS = ("br", "cl", "dr", "fl", "gr", "kr", "pl", "sk", "st", "tr", "v", "y", "x", "sh", "ch")
_NUCLEI = ("a", "e", "i", "o", "u", "y", "ai", "ou", "ea")
_CODAS = ("n", "rt", "sk", "nd", "x", "ck", "lm", "st", "r", "ng")

_ENTITY_SEPARATORS = (" &amp; ", " &mdash; ", "&nbsp;", " &lt;&gt; ", " &quot;", " &#169; ", " &#8211; ")
_TLDS_FRESH = ("com", "net", "org", "fr", "de", "co.uk", "com.au", "info")


@dataclass(frozen=True)
class Lists:
    """The bundled term lists, read straight from their files."""

    content: dict[str, tuple[str, ...]]   # list name -> sorted terms
    url_terms: tuple[str, ...]
    disclaimers: tuple[str, ...]


@dataclass(frozen=True)
class CrawlPage:
    url: str
    html: str
    words: tuple[str, ...]   # visible words, lowercased, in order
    images: int
    domain: str              # registrable domain the generator chose
    tld: str
    adult: bool


def _read_terms(path: Path) -> list[str]:
    terms: dict[str, None] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            terms[" ".join(stripped.lower().split())] = None
    return list(terms)


def read_lists(manifest: Path = LEXICON_MANIFEST) -> Lists:
    """Term lists named by a lexicon manifest, parsed by this module."""
    entries = json.loads(manifest.read_text(encoding="utf-8"))
    base = manifest.parent
    content = {
        name: tuple(sorted(set(_read_terms(base / entries[name]))))
        for name in CONTENT_LISTS
    }
    return Lists(
        content,
        tuple(sorted(set(_read_terms(base / entries["in-url"])))),
        tuple(_read_terms(base / entries["disclaimer"])),
    )


class Vocabulary:
    """Neutral pseudo-words that are no lexicon token and no URL term."""

    def __init__(self, lists: Lists, rng: random.Random, size: int = 1500):
        forbidden = set(lists.url_terms)
        for terms in lists.content.values():
            for term in terms:
                forbidden.update(term.split(" "))
        for phrase in lists.disclaimers:
            forbidden.update(phrase.split(" "))
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                for _ in range(rng.randint(1, 3))
            )
            if word in seen or word in forbidden or any(t in word for t in lists.url_terms):
                continue
            seen.add(word)
            words.append(word)
        self.words = words

    def pick(self, rng: random.Random) -> str:
        return rng.choice(self.words)


def _lexicon_terms(lists: Lists, rng: random.Random, count: int) -> list[list[str]]:
    names = list(CONTENT_LISTS)
    units = []
    for _ in range(count):
        terms = lists.content[rng.choice(names)]
        units.append(rng.choice(terms).split(" "))
    return units


def _visible_units(
    lists: Lists, vocab: Vocabulary, rng: random.Random, length: int, term_share: float
) -> list[list[str]]:
    """Word units (a term stays one unit) adding up to `length` words."""
    units = _lexicon_terms(lists, rng, int(length * term_share))
    total = sum(len(u) for u in units)
    while total < length:
        word = vocab.pick(rng)
        if rng.random() < 0.03:
            word = f"{word}-{vocab.pick(rng)}"   # one token: '-' joins words
        elif rng.random() < 0.03:
            word = str(rng.randint(2, 2099))
        units.append([word])
        total += 1
    rng.shuffle(units)
    return units


def _hidden_words(lists: Lists, vocab: Vocabulary, rng: random.Random, n: int) -> str:
    """Words for markup the extractor must drop; half are lexicon terms."""
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            out.append(rng.choice(lists.content[rng.choice(CONTENT_LISTS)]))
        else:
            out.append(vocab.pick(rng))
    return " ".join(out)


def _render(
    lists: Lists,
    vocab: Vocabulary,
    rng: random.Random,
    units: list[list[str]],
    images: int,
    disclaimer: str | None,
    markup: float,
) -> tuple[str, tuple[str, ...]]:
    """HTML for the units plus the visible words an extractor must return.

    `markup` scales how often inline tags, entities and comments appear
    between the words.
    """
    words: list[str] = []
    out: list[str] = []

    def hidden(n: int) -> str:
        return _hidden_words(lists, vocab, rng, n)

    def text(unit_slice: list[list[str]]) -> str:
        """Inline text: terms keep their words adjacent; separators vary."""
        parts = []
        for k, unit in enumerate(unit_slice):
            shown = []
            for word in unit:
                words.append(word)
                if rng.random() < 0.1 and word.isalpha():
                    shown.append(word.capitalize())
                else:
                    shown.append(word)
            chunk = " ".join(shown)
            r = rng.random() / markup
            if r < 0.08:
                chunk = f'<a href="/{vocab.pick(rng)}?q={vocab.pick(rng)}&amp;p=2" title="{hidden(2)}">{chunk}</a>'
            elif r < 0.14:
                chunk = f"<b>{chunk}</b>"
            elif r < 0.18:
                chunk = f'<span class="{vocab.pick(rng)}" data-x="{hidden(1)}">{chunk}</span>'
            parts.append(chunk)
            if k + 1 < len(unit_slice):
                r = rng.random() / markup
                if r < 0.06:
                    parts.append(rng.choice(_ENTITY_SEPARATORS))
                elif r < 0.12:
                    parts.append(", ")
                elif r < 0.15:
                    parts.append(". ")
                elif r < 0.17:
                    parts.append(f" <!-- {hidden(3)} --> ")
                else:
                    parts.append(" ")
        return "".join(parts)

    title = [[vocab.pick(rng)] for _ in range(rng.randint(2, 5))]
    out.append("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">")
    out.append(f"<title>{text(title)}</title>\n")
    out.append(f"<style>body {{ margin: 0; }} .{vocab.pick(rng)}::after {{ content: \"{hidden(3)}\"; }}</style>\n")
    out.append(
        f"<script type=\"text/javascript\">var t = \"{hidden(4)}\"; "
        f"if (a < b && b > 0) {{ document.write('<p>{hidden(2)}</p>'); }}</script>\n"
    )
    out.append(f"</head>\n<body class=\"{vocab.pick(rng)}\"><!-- {hidden(4)} -->\n<div id=\"main\">")
    if disclaimer is not None:
        out.append(f"<div class=\"gate\"><h2>{text([[w] for w in disclaimer.split(' ')])}</h2></div>\n")

    image_slots = sorted(rng.randint(0, max(len(units) - 1, 0)) for _ in range(images))
    pos = 0
    block = 0
    while pos < len(units):
        size = rng.randint(8, 40)
        chunk = units[pos:pos + size]
        imgs = ""
        while image_slots and image_slots[0] < pos + size:
            image_slots.pop(0)
            alt = hidden(2)
            imgs += (f'<img src="/img/{vocab.pick(rng)}.jpg" alt="{alt}">' if rng.random() < 0.5
                     else f'<img src="/i/{rng.randint(1, 999)}.png" alt="{alt}"/>')
        kind = block % 5
        if kind == 0:
            out.append(f"<h1>{text(chunk)}</h1>{imgs}\n")
        elif kind == 1:
            out.append(f"<ul><li>{text(chunk[: len(chunk) // 2])}</li><li>{text(chunk[len(chunk) // 2:])}</li></ul>{imgs}\n")
        elif kind == 2:
            out.append(f"<table><tr><td>{text(chunk)}</td></tr></table>{imgs}\n")
        elif kind == 3:
            out.append(f"<script>var s{block} = \"{hidden(3)}\";</script><div><p>{text(chunk)}</p>{imgs}</div>\n")
        else:
            out.append(f"<p class=\"c{block}\">{text(chunk)}{imgs}</p>\n")
        pos += size
        block += 1
    out.append(f"</div><footer><p>&#169; {text([[vocab.pick(rng)]])}</p></footer>\n</body></html>\n")
    return "".join(out), tuple(words)


def make_page(
    lists: Lists,
    vocab: Vocabulary,
    rng: random.Random,
    host: str,
    domain: str,
    tld: str,
    path: str,
    length: int,
    adult: bool,
    term_share: float,
    disclaimer: str | None = None,
    images: int | None = None,
    markup: float = 1.0,
) -> CrawlPage:
    units = _visible_units(lists, vocab, rng, length, term_share)
    if images is None:
        images = rng.randint(8, 20) if adult else rng.randint(0, 9)
    html, words = _render(lists, vocab, rng, units, images, disclaimer, markup)
    scheme = "https" if rng.random() < 0.5 else "http"
    url = f"{scheme}://{host}{path}"
    if rng.random() < 0.2:
        url += f"?id={rng.randint(1, 99999)}&ref={vocab.pick(rng)}"
    return CrawlPage(url, html, words, images, domain, tld, adult)


def _name(vocab: Vocabulary, rng: random.Random, lists: Lists, adult: bool, tag: str) -> str:
    """A domain label; most adult ones carry a URL term."""
    word = vocab.pick(rng)
    if adult and rng.random() < 0.6:
        word += rng.choice(lists.url_terms)
    return f"{word}{tag}"


def _path(vocab: Vocabulary, rng: random.Random, k: int) -> str:
    return f"/{vocab.pick(rng)}/{vocab.pick(rng)}-{k}.html"


def _strata(n: int, low: float, high: float) -> list[float]:
    """n evenly spaced values in [low, high): the fixed make-up of a pass."""
    return [low + (high - low) * (i + 0.5) / n for i in range(n)]


SAFE_NOISE = (0.0, 0.02, 0.05, 0.1)


def crawl_fresh(seed: int, n_pages: int = 100) -> list[CrawlPage]:
    """Each page is the first of its own domain; no disclaimer, no .xxx.

    Half the pages are adult.  The pages are text-heavy articles with
    light markup.  One page in five is four times longer, so the 90th
    percentile of page latency measures long pages.
    """
    rng = random.Random(f"crawl-fresh:{seed}")
    lists = read_lists()
    vocab = Vocabulary(lists, rng)
    n_long = n_pages // 5
    lengths = [int(x) for x in _strata(n_pages - n_long, 150, 450)]
    long_lengths = [int(x) for x in _strata(n_long, 600, 1800)]
    rng.shuffle(lengths)
    rng.shuffle(long_lengths)
    shares = _strata(n_pages // 2, 0.15, 0.40)
    pages = []
    for i in range(n_pages):
        adult = i % 2 == 0
        length = long_lengths.pop() if i % 5 == 3 else lengths.pop()
        share = shares[i // 2] if adult else SAFE_NOISE[(i // 2) % len(SAFE_NOISE)]
        tld = _TLDS_FRESH[i % len(_TLDS_FRESH)]
        domain = f"{_name(vocab, rng, lists, adult, str(i))}.{tld}"
        host = rng.choice(("www.", "", "m.")) + domain
        pages.append(make_page(lists, vocab, rng, host, domain, tld.rsplit(".", 1)[-1],
                               _path(vocab, rng, i), length, adult, share, markup=0.25))
    rng.shuffle(pages)
    return pages


def crawl_revisit(seed: int, pages_per_domain: int = 10) -> list[CrawlPage]:
    """An adult-heavy crawl of 24 domains, with age gates, .xxx and revisits.

    18 adult domains (3 on .xxx, 4 with an age-gate disclaimer on their
    first three pages) and 6 safe ones, each with `pages_per_domain`
    short, markup-heavy pages, interleaved; then one page in ten is
    crawled again later.  After three strikes a domain's pages stop at
    the blacklist, so parsing and stage logic are the main cost.
    """
    rng = random.Random(f"crawl-revisit:{seed}")
    lists = read_lists()
    vocab = Vocabulary(lists, rng)
    n_domains = 24
    shares = _strata(pages_per_domain, 0.15, 0.40)
    lengths = [int(x) for x in _strata(pages_per_domain, 80, 250)]
    per_domain = []
    for d in range(n_domains):
        adult = d < 18
        tld = "xxx" if d < 3 else ("co.uk" if d % 7 == 0 else "com")
        domain = f"{_name(vocab, rng, lists, adult, '')}{d}.{tld}"
        gate = rng.choice(lists.disclaimers) if 3 <= d < 7 else None
        rng.shuffle(lengths)
        pages = []
        for k in range(pages_per_domain):
            host = rng.choice(("www.", "", "m.", "cdn.")) + domain
            share = shares[k] if adult else SAFE_NOISE[k % len(SAFE_NOISE)]
            pages.append(make_page(
                lists, vocab, rng, host, domain, tld.rsplit(".", 1)[-1],
                _path(vocab, rng, k), lengths[k], adult, share,
                disclaimer=gate if k < 3 else None,
            ))
        per_domain.append(pages)
    order = [d for d in range(n_domains) for _ in range(pages_per_domain)]
    rng.shuffle(order)
    cursors = [0] * n_domains
    crawl = []
    for d in order:
        crawl.append(per_domain[d][cursors[d]])
        cursors[d] += 1
    for _ in range(len(crawl) // 10):
        at = rng.randrange(len(crawl) // 4, len(crawl) + 1)
        crawl.insert(at, crawl[rng.randrange(at // 2)])
    return crawl


def labelled_pages(seed: int, n_adult: int, n_safe: int, safe_noise: float | None) -> list[CrawlPage]:
    """Pages of distinct domains for training.

    With `safe_noise` None, safe pages draw their lexicon share from
    SAFE_NOISE and are easy to tell apart.  Otherwise every safe page
    carries that share of lexicon terms, and safe pages also take image
    counts and URL terms from the adult range, so the classes overlap.
    """
    rng = random.Random(f"labelled:{seed}")
    lists = read_lists()
    vocab = Vocabulary(lists, rng)
    shares = _strata(n_adult, 0.15, 0.40)
    pages = []
    for i in range(n_adult + n_safe):
        adult = i < n_adult
        noisy = not adult and safe_noise is not None
        if adult:
            share = shares[i]
        else:
            share = SAFE_NOISE[i % len(SAFE_NOISE)] if safe_noise is None else safe_noise
        domain = f"{_name(vocab, rng, lists, adult or noisy, str(i))}.com"
        pages.append(make_page(lists, vocab, rng, "www." + domain, domain, "com",
                               _path(vocab, rng, i), rng.randint(150, 449), adult, share,
                               images=rng.randint(0, 20) if noisy else None))
    return pages
