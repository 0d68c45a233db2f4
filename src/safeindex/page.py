"""Turn raw web pages (URL + HTML or plain text) into normalized input.

HTML is stripped by one regular expression.  On closed markup it gives the
tokens and image count of the standard library's html.parser.  Bad markup
never raises, and the scan stays linear: a start tag's quoted values may
hold '<' and '>', but an unquoted '<' ends the attempt, so "<a b<c>" is
the text "<a b" and the tag "<c>"; end tags, "<!...>" and "<?...>" end at
the next '>' and stop at '<'; an unterminated comment, script or style
block runs to the end of the document.  Comment, script and style bodies
are unrolled loops, so the scan takes a body in one forward pass and
never tries its end mark at every character.

Character references are decoded one at a time by `html.unescape`, but a
decoded character that is blank becomes a space: neither it nor its
lowercase holds a word character, an apostrophe or a hyphen, and it is
neither cased nor case-ignorable, so it acts exactly as a space for
`tokenize`.  The tokens are those of the unescaped text, and a page that
is ASCII but for `&nbsp;`, `&copy;` or `&mdash;` stays ASCII.

`tokenize` splits ASCII text without a Python loop: one `str.translate`
folds case and blanks every character no word holds, two substitutions
blank each apostrophe or hyphen that is not between two alphanumerics,
and `str.split` gives the words.  Other text takes a per-chunk loop.

`page_from_html` parses the URL at once but strips the markup only when a
page's tokens or image count are first read, so the pipeline never strips
a page whose domain is already blacklisted.  `extract_text` is total over
`str`: a parse error would surface in whatever reads the page, far from
where the page was loaded.  `iter_corpus` alone reads a corpus manifest;
it turns each row into a page or a skipped row, so no row ends a run.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from functools import lru_cache
from html import unescape
from pathlib import Path
from typing import Iterator

from .errors import ConfigError, MalformedUrlError
from .fileio import read_input

ADULT = "adult"
SAFE = "safe"
# a manifest label, lowercased, -> the page's label
_LABELS = {ADULT: ADULT, SAFE: SAFE, "unlabeled": None}

# Word = run of alphanumerics, with apostrophes/hyphens kept when they sit
# between alphanumerics ("l'amour", "coming-of-age").  `tokenize` turns '_'
# into a space first, so `\w` here means alphanumeric; the possessive forms
# never give back what they took, which no match needs.  No whitespace
# character is `\w`, an apostrophe or a hyphen, so a word never spans a
# whitespace run: for text that is not ASCII, `tokenize` splits on
# whitespace first, takes a chunk that is all alphanumeric (`str.isalnum`,
# which is `\w` less '_') as one word, and runs this regex over the other
# chunks only.
_WORD_RE = re.compile(r"\w++(?:['’-]\w++)*+")

# The ASCII form of the same rule.  `_ASCII_FOLD`, a `str.translate`
# table indexed by code point, lowercases an ASCII letter, keeps a digit,
# an apostrophe or a hyphen, and makes any other ASCII character a space.
# A separator then stays only with an alphanumeric on both sides: a lone
# one, and the separators right after it (which are lone too), become one
# space.  Each pattern starts with its literal, so the regex engine jumps
# from one separator to the next instead of trying every position.
_ASCII_FOLD = "".join(
    c.lower() if c.isalnum() or c in "'-" else " " for c in map(chr, range(128))
)
_LONE_HYPHEN_RE = re.compile(r"-(?:(?<![a-z0-9]-)|(?![a-z0-9]))[-']*+")
_LONE_APOSTROPHE_RE = re.compile(r"'(?:(?<![a-z0-9]')|(?![a-z0-9]))[-']*+")

# Any markup, matched from its '<'.  Tag names end where html.parser ends
# them, and only ASCII letters fold case in them.  A script or style start
# tag not closed by "/>" takes its body up to the matching end tag.  The
# one capture group holds the name of an <img> start tag.  A tag body has
# one parse only, so its quantifiers are possessive: backtracking into it
# could never produce a match.  Comment, script and style bodies are
# "unrolled loops" (Friedl, Mastering Regular Expressions, ch. 6): a
# possessive run of characters other than the end mark's first ('-' or
# '<'), then, each time that character does not begin the end mark, the
# character and the run after it, then the end mark if the text has one.
# That is the shortest body up to the first end mark, or the rest of the
# text, found in one forward pass.
_TAG_NAME_END = r"(?=[\t\n\r\f />])"
_TAG_BODY = r"""[^<>"']*+(?:(?:"[^"]*+"|'[^']*+')[^<>"']*+)*+"""


def _raw_body(name: str) -> str:
    """A script or style body and its end tag, '</' NAME '>' with blanks
    allowed around NAME."""
    end = rf"/\s*(?ai:{name})\s*>"
    return rf"[^<]*+(?:<(?!{end})[^<]*+)*+(?:<{end})?"


_MARKUP_RE = re.compile(
    rf"""<(?:
        !--[^-]*+(?:-(?!-\s*>)[^-]*+)*+(?:--\s*>)?
      | (?ai:script){_TAG_NAME_END}{_TAG_BODY}(?<!/)>{_raw_body("script")}
      | (?ai:style){_TAG_NAME_END}{_TAG_BODY}(?<!/)>{_raw_body("style")}
      | (?P<img>(?ai:img)){_TAG_NAME_END}{_TAG_BODY}>
      | [a-zA-Z]{_TAG_BODY}>
      | /[^<>]*+>
      | [!?][^<>]*+>
    )""",
    re.VERBOSE,
)

# A character reference, as `html.unescape` finds it (the standard
# library's private `html._charref`; a test checks the two are equal).
_CHARREF_RE = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")
# How many distinct references keep their decoded form
_DECODED_MEMO_SIZE = 4096
_WORDISH_RE = re.compile(r"[\w'’-]")


def _is_blank(char: str) -> bool:
    """Whether `tokenize` treats `char` exactly as a space: no word holds
    it or any of its lowercase, and it is neither cased nor case-ignorable,
    so it cannot change how a neighbouring 'Σ' lowers (Final_Sigma, the
    one context rule of `str.lower`).  `str.lower` itself is the test."""
    return (
        _WORDISH_RE.search(char + char.lower()) is None
        and ("A" + char + "Σ").lower()[-1] == "σ"
        and ("AΣ" + char + "B").lower()[1] == "ς"
    )


@lru_cache(maxsize=_DECODED_MEMO_SIZE)
def _decode_reference(ref: str) -> str:
    """`html.unescape` of one reference, its blank characters made spaces."""
    return "".join(" " if _is_blank(c) else c for c in unescape(ref))


def _decode_match(match: re.Match) -> str:
    return _decode_reference(match[0])


# Two-level public suffixes for which the registrable domain keeps three
# labels instead of two.  Deliberately small.
TWO_LEVEL_SUFFIXES = frozenset({
    "ac.jp", "ac.uk", "co.in", "co.jp", "co.kr", "co.nz", "co.uk", "co.za",
    "com.ar", "com.au", "com.br", "com.cn", "com.mx", "com.sg", "com.tr",
    "com.tw", "edu.au", "gov.au", "gov.uk", "me.uk", "ne.jp", "net.au",
    "net.br", "net.cn", "net.nz", "net.uk", "or.jp", "org.au", "org.br",
    "org.cn", "org.nz", "org.uk",
})


@dataclass(frozen=True)
class UrlParts:
    full_url: str
    registrable_domain: str
    tld: str


@dataclass(frozen=True)
class Page:
    """A page as the filter sees it: URL parts, tokens, <img> count, label.

    A page from `page_from_html` holds its HTML instead of `tokens` and
    `image_count` until one of them is first read; `__getattr__` then
    strips it with `extract_text`, stores both fields and drops the HTML.
    Equality, hashing, repr, `dataclasses.replace`, copying and pickling
    see the same page either way.  This relies on `extract_text` never
    raising.  A page built with its tokens never reaches `__getattr__`.
    """

    url: UrlParts
    tokens: tuple[str, ...]
    image_count: int
    label: str | None = None

    def __getattr__(self, name: str):
        # Only called for an attribute missing from the instance: the
        # fields of a page whose HTML has not been stripped yet.
        state = self.__dict__
        if name not in ("tokens", "image_count") or "_html" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state["tokens"], state["image_count"] = extract_text(state["_html"])
        del state["_html"]
        return state[name]


@dataclass(frozen=True)
class PageLoadFailure:
    """A manifest row that gave no page, and the reason: a row the csv
    module cannot parse (its path and URL are then empty), too few
    fields, a bad label, an unreadable page file or a malformed URL."""

    path: str
    url: str
    error: str


def tokenize(text: str) -> tuple[str, ...]:
    """The words of `text`, lowercased.  A word is a run of alphanumerics,
    with an apostrophe (ASCII or ’) or a hyphen kept where it sits between
    two alphanumerics ("l'amour", "coming-of-age"); every other character,
    '_' among them, separates words.  Both paths below give
    `_WORD_RE.findall` of the lowercased text with '_' made a space.

    ASCII text never reaches a Python loop: `_ASCII_FOLD` lowercases it
    and makes every character but a letter, digit, apostrophe or hyphen a
    space, `_LONE_HYPHEN_RE` and `_LONE_APOSTROPHE_RE` make each separator
    that is not between two alphanumerics a space, and `str.split` gives
    the words.  Other text is split on whitespace, and each chunk that is
    not all alphanumeric goes through `_WORD_RE`."""
    if text.isascii():
        text = _LONE_HYPHEN_RE.sub(" ", text.translate(_ASCII_FOLD))
        return tuple(_LONE_APOSTROPHE_RE.sub(" ", text).split())
    tokens = []
    for chunk in text.lower().replace("_", " ").split():
        if chunk.isalnum():
            tokens.append(chunk)
        else:
            tokens += _WORD_RE.findall(chunk)
    return tuple(tokens)


def extract_text(html: str) -> tuple[tuple[str, ...], int]:
    """(tokens, image_count) for an HTML or plain-text document.

    The tokens are `tokenize(html.unescape(text))` of the text between the
    markup, but a decoded character `tokenize` treats exactly as a space
    (the no-break space, '©', '—', '&', ...) is decoded as one."""
    # split() puts the capture group, None unless the markup is an <img>
    # tag, between the text runs.
    parts = _MARKUP_RE.split(html)
    images = parts[1::2]
    text = _CHARREF_RE.sub(_decode_match, " ".join(parts[::2]))
    return tokenize(text), len(images) - images.count(None)


def parse_url(url: str) -> UrlParts:
    """Split a URL into (full lowercased url, registrable domain, tld).

    The scheme is optional; "host/path" is accepted.  An IP-literal host
    ("[::1]", "192.168.0.1") is its own registrable domain and has the
    empty TLD.  Raises MalformedUrlError when no host can be found, or
    when a line break is left inside the stripped URL or whitespace or a
    non-printable character in the host: one URL per line is what the
    index holds, and one domain per line, as it went in, the blacklist.
    """
    lowered = url.strip().lower()
    if not lowered:
        raise MalformedUrlError("empty URL")
    if lowered.splitlines() != [lowered]:
        raise MalformedUrlError(f"line break in URL {url!r}")

    rest = lowered.partition("://")[2] if "://" in lowered else lowered
    authority = rest.partition("/")[0].partition("?")[0].partition("#")[0]
    # strip userinfo, then the port; an IPv6 literal keeps its colons
    authority = authority.rpartition("@")[2]
    if authority.startswith("["):
        host = authority[1:authority.find("]")] if "]" in authority else ""
    else:
        host = authority.partition(":")[0]
    host = host.strip(".")
    labels = host.split(".")
    if "" in labels:  # also an empty host: "".split(".") is [""]
        raise MalformedUrlError(f"no recognizable host in {url!r}")
    if not host.isprintable() or " " in host:  # isprintable() passes " " only
        raise MalformedUrlError(f"whitespace or non-printable character in host of {url!r}")

    if ":" in host or labels[-1].isdigit():  # an IP literal; no TLD is numeric
        return UrlParts(lowered, host, "")
    tail = ".".join(labels[-2:])
    if len(labels) >= 3 and tail in TWO_LEVEL_SUFFIXES:
        registrable = ".".join(labels[-3:])
    else:
        registrable = tail
    return UrlParts(lowered, registrable, labels[-1])


def page_from_html(url: str, html: str, label: str | None = None) -> Page:
    """A Page whose HTML is stripped on the first read of its tokens or
    image count.  Raises MalformedUrlError at once for a bad URL."""
    page = object.__new__(Page)
    vars(page).update(url=parse_url(url), label=label, _html=html)
    return page


def _fields(record: dict) -> list[str]:
    """Every field of a DictReader record: a short row's missing fields are
    None, and a long row's extra fields sit in a list under the key None."""
    fields = [v for k, v in record.items() if k is not None and v is not None]
    return fields + record.get(None, [])


def iter_corpus(manifest_path: str | Path) -> Iterator[Page | PageLoadFailure]:
    """One Page, or one PageLoadFailure with its reason, per data row of a
    corpus manifest: CSV with header path,url,label, paths relative to it.

    Only an unreadable manifest or a header without those names raises
    ConfigError.  A row fails when the csv module cannot parse it, it has
    a field over the csv module's size limit, fewer than three fields, a
    label other than adult, safe or unlabeled (any case, spaces ignored),
    an unreadable page file or a malformed URL, checked in that order.
    The limit is lifted while a record is parsed and restored after it,
    so a long quoted field that spans lines is one skipped record, and
    the reader resumes after its closing quote.
    """
    manifest_path = Path(manifest_path)
    text = read_input(manifest_path, "corpus manifest")
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        header = reader.fieldnames
    except csv.Error as exc:
        raise ConfigError(f"cannot read corpus manifest {manifest_path}: {exc}") from exc
    if header is None or not {"path", "url", "label"} <= set(header):
        raise ConfigError(f"corpus manifest {manifest_path} needs header path,url,label")
    base = manifest_path.parent
    while True:
        # a record is parsed whole under a limit no field of the text can
        # reach, and the limit in force is back before anything is yielded
        error = None
        limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            error = str(exc)
        finally:
            csv.field_size_limit(limit)
        if error is None and any(len(f) > limit for f in _fields(record)):
            error = f"field larger than field limit ({limit})"
        if error is not None:
            yield PageLoadFailure("", "", f"manifest line {reader.reader.line_num}: {error}")
            continue
        # DictReader gives a field missing from a short row as None
        path, url, label = record["path"], record["url"], record["label"]
        try:
            if None in (path, url, label):
                raise ConfigError("row has fewer than 3 fields")
            key = label.strip().lower()
            if key not in _LABELS:
                raise ConfigError(f"bad label {label!r}")
            page = page_from_html(url, read_input(base / path, "page file"), _LABELS[key])
        except (ConfigError, MalformedUrlError) as exc:
            page = PageLoadFailure(path or "", url or "", str(exc))
        yield page
