"""Turn raw web pages (URL + HTML or plain text) into normalized input.

The HTML handling is a tolerant scanner, not a validating parser: bad
markup never raises, it just degrades to best-effort text extraction.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path

from .errors import ConfigError, MalformedUrlError

ADULT = "adult"
SAFE = "safe"

# Word = run of alphanumerics, with apostrophes/hyphens kept when they sit
# between alphanumerics ("l'amour", "coming-of-age").
_WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")

# Two-level public suffixes for which the registrable domain keeps three
# labels instead of two.  Deliberately small; extensible per call.
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
    url: UrlParts
    tokens: tuple[str, ...]
    image_count: int
    label: str | None = None


@dataclass(frozen=True)
class PageLoadFailure:
    """A corpus entry whose file could not be read or whose URL is malformed."""

    path: str
    url: str
    error: str


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase and split on non-alphanumeric boundaries."""
    return tuple(_WORD_RE.findall(text.lower()))


class _TextExtractor(HTMLParser):
    """Drops script/style content, strips tags, counts img tags."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._skip_depth = 0
        self.chunks: list[str] = []
        self.image_count = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip_depth += 1
        elif tag == "img":
            self.image_count += 1

    def handle_startendtag(self, tag, attrs):
        if tag == "img":
            self.image_count += 1

    def handle_endtag(self, tag):
        if tag in ("script", "style") and self._skip_depth:
            self._skip_depth -= 1

    def handle_data(self, data):
        if not self._skip_depth:
            self.chunks.append(data)


def extract_text(html: str) -> tuple[tuple[str, ...], int]:
    """(tokens, image_count) for an HTML or plain-text document."""
    extractor = _TextExtractor()
    extractor.feed(html)
    extractor.close()
    return tokenize(" ".join(extractor.chunks)), extractor.image_count


def parse_url(url: str, extra_suffixes: frozenset[str] = frozenset()) -> UrlParts:
    """Split a URL into (full lowercased url, registrable domain, tld).

    The scheme is optional; "host/path" is accepted.  Raises
    MalformedUrlError when no host can be found.
    """
    if not url or not url.strip():
        raise MalformedUrlError("empty URL")
    lowered = url.strip().lower()

    rest = lowered.split("://", 1)[1] if "://" in lowered else lowered
    authority = rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
    # strip userinfo and port
    authority = authority.rsplit("@", 1)[-1]
    host = authority.split(":", 1)[0]
    if not host:
        raise MalformedUrlError(f"no recognizable host in {url!r}")
    labels = host.strip(".").split(".")
    if not labels or any(not lbl for lbl in labels):
        raise MalformedUrlError(f"no recognizable host in {url!r}")

    suffixes = TWO_LEVEL_SUFFIXES | extra_suffixes
    if len(labels) >= 3 and ".".join(labels[-2:]) in suffixes:
        registrable = ".".join(labels[-3:])
    else:
        registrable = ".".join(labels[-2:]) if len(labels) >= 2 else labels[0]
    return UrlParts(lowered, registrable, labels[-1])


def page_from_html(url: str, html: str, label: str | None = None) -> Page:
    tokens, image_count = extract_text(html)
    return Page(parse_url(url), tokens, image_count, label)


def read_manifest(manifest_path: str | Path) -> list[tuple[str, str, str | None]]:
    """Parse a corpus manifest CSV into (path, url, label) rows.

    Header must be path,url,label; label is one of adult, safe, unlabeled.
    """
    manifest_path = Path(manifest_path)
    rows = []
    with open(manifest_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"path", "url", "label"} <= set(reader.fieldnames):
            raise ConfigError(
                f"corpus manifest {manifest_path} needs header path,url,label"
            )
        for record in reader:
            label = record["label"].strip().lower()
            if label == "unlabeled":
                label = None
            elif label not in (ADULT, SAFE):
                raise ConfigError(
                    f"bad label {record['label']!r} in {manifest_path}"
                )
            rows.append((record["path"], record["url"], label))
    return rows


def iter_corpus(manifest_path: str | Path):
    """Yield Page objects for a manifest; unreadable files and malformed
    URLs yield PageLoadFailure entries instead of raising."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    for path, url, label in read_manifest(manifest_path):
        try:
            html = (base / path).read_text(encoding="utf-8")
            page = page_from_html(url, html, label)
        except (OSError, UnicodeDecodeError, MalformedUrlError) as exc:
            page = PageLoadFailure(path, url, str(exc))
        yield page


def load_labeled_corpus(manifest_path: str | Path) -> list[Page]:
    """Pages from a manifest that carry a gold label; skips load failures."""
    return [
        page
        for page in iter_corpus(manifest_path)
        if isinstance(page, Page) and page.label is not None
    ]
