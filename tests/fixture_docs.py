"""A 20-document fixture corpus with an independent HTML oracle.

The documents are small but exercise the HTML handling surface: nested
and unclosed tags, script/style skipping, entities, accents, apostrophes,
hyphens, img variants, mixed-case tags, and both URL shapes the filter
cares about (.xxx hosts, URL-term substrings, two-level suffixes).
EDGE_DOCS adds markup where a naive tag stripper goes wrong: '>' inside a
quoted attribute value, img tags inside a comment or a script, '<' and
end tags inside a script, a spaced script end tag, a self-closing script
and a tag whose name only starts with "img".

The oracle is the standard library's event-driven HTML parser, so
agreement with the library's single regular expression is a genuine
cross-check.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

from helpers import make_lexicon_set

FIXTURE_LEXICONS = make_lexicon_set(
    overrides={
        "brand-names": {"videxo", "lustly"},
        "categories-en": {"amateur", "mature", "teen"},
        "categories-fr": {"amatrice", "jeune"},
        "categories-gen": {"anal", "oral"},
        "en-words": {"hot", "naked", "nude"},
        "french-words": {"chaud", "nue"},
        "pornstars": {"mia vex", "lana storm"},
        "queries": {"hot teen", "naked mature video"},
        "small-set": {"xxx", "porn", "sex"},
        "tags-en": {"hardcore", "webcam"},
        "tags-fr": {"brune"},
    },
    url_terms={"porn", "sex", "xxx", "tube"},
    disclaimer=("you must be 18", "adults only"),
)

# (url, html) pairs
DOCS: list[tuple[str, str]] = [
    ("http://one.example.com/empty", ""),
    ("http://two.example.com/plain", "just plain words with no markup at all"),
    ("http://three.example.com/p", "<p>simple paragraph text</p>"),
    (
        "http://four.example.com/nested",
        "<div><div><span>deeply nested</span> content</div><img src='a.png'></div>",
    ),
    (
        "http://five.example.com/selfclose",
        '<p>two pictures here</p><img src="x.jpg"/><img src="y.jpg"/>',
    ),
    (
        "http://six.example.com/case",
        "<P>Mixed CASE Tags</P><IMG SRC='z.gif'>",
    ),
    (
        "http://seven.example.com/script",
        "<p>before</p><script>var hidden = 'not words';</script><p>after</p>",
    ),
    (
        "http://eight.example.com/style",
        "<style>.c { color: red; }</style><p>styled page body</p>",
    ),
    (
        "http://nine.example.com/headful",
        "<html><head><title>title words count</title></head>"
        "<body><p>body words too</p></body></html>",
    ),
    (
        "http://ten.example.com/entities",
        "<p>fish &amp; chips caf&eacute; r&#233;sum&#233;</p>",
    ),
    ("http://eleven.example.fr/accents", "<p>café résumé déjà naïve</p>"),
    (
        "http://twelve.example.fr/apostrophe",
        "<p>l'amour d’été doesn't stop</p>",
    ),
    (
        "http://thirteen.example.com/hyphen",
        "<p>a coming-of-age well-known story</p>",
    ),
    (
        "http://fourteen.example.com/underscore",
        "<p>snake_case splits into words</p>",
    ),
    ("http://fifteen.example.com/digits", "<p>abc123 42 mixed 7seas</p>"),
    (
        "http://sixteen.example.co.uk/unclosed",
        "<p>first paragraph<p>second paragraph</div> stray close",
    ),
    (
        "http://seventeen.hotsextube.com/adult1",
        "<p>hot teen webcam show with mia vex and lana storm</p>"
        '<img src="1.jpg"><img src="2.jpg"><img src="3.jpg">',
    ),
    (
        "http://eighteen.example.xxx/adult2",
        "<p>naked mature video amateur hardcore xxx porn sex</p><img src='a.jpg'/>",
    ),
    (
        "http://nineteen.example.com/mixed-fr",
        "<p>une amatrice jeune et nue brune très chaud videxo</p>",
    ),
    (
        "http://twenty.pornvidexo.com/overlap",
        "<p>hot teen hot teen mature oral anal lustly nude mia vex porn</p>",
    ),
]


EDGE_DOCS: list[tuple[str, str]] = [
    (
        "http://gt.example.com/quoted",
        '<p title="a > b" data-x=\'c>d\'>quoted gt stays markup</p>',
    ),
    (
        "http://comment.example.com/img",
        '<!-- <img src="c.png"> hidden note --><p>seen text</p><img src="v.png">',
    ),
    (
        "http://script.example.com/img",
        "<script>document.write('<img src=\"s.png\">');</script><p>script image</p>",
    ),
    (
        "http://script.example.com/lt",
        '<script>if (a < b) { s = "</p>"; }</script><p>after the script</p>',
    ),
    (
        "http://script.example.com/spaced",
        "<script>var hidden = 1;</ script ><p>closed with spaces</p>",
    ),
    (
        "http://script.example.com/selfclose",
        "<script/><p>text after a self-closing script</p><style/>kept",
    ),
    (
        "http://imgx.example.com/",
        '<imgx src="a.png"><p>not an image</p><IMG/><img\nsrc="b.png">',
    ),
]


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


def oracle_extract(doc: str) -> tuple[tuple[str, ...], int]:
    """(tokens, image count) via html.parser; independent of the library."""
    extractor = _TextExtractor()
    extractor.feed(doc)
    extractor.close()
    text = " ".join(extractor.chunks).lower()
    return tuple(re.findall(r"[^\W_]+(?:['’-][^\W_]+)*", text)), extractor.image_count
