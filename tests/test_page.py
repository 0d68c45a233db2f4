import copy
import dataclasses
import html
import pickle
import re
import time
from html.entities import html5
from string import ascii_letters

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeindex import (
    ADULT,
    SAFE,
    MalformedUrlError,
    Page,
    extract_text,
    iter_corpus,
    page_from_html,
    parse_url,
)
import safeindex.page
from safeindex.page import (
    _CHARREF_RE,
    _DECODED_MEMO_SIZE,
    _WORD_RE,
    PageLoadFailure,
    _decode_reference,
    _is_blank,
    tokenize,
)
from safeindex.errors import ConfigError

from fixture_docs import DOCS, EDGE_DOCS, oracle_extract
from helpers import (
    _PARENT_WORD_RE,
    BAD_ROWS,
    count_extract_text,
    oracle_parse_url,
    parent_extract_text,
)

# Fragments of closed markup for the differential test against the
# html.parser oracle.  Every fragment is complete, so a document built from
# them never ends inside a tag, comment, script or style block.
_WS = st.sampled_from([" ", "  ", "\n", "\t"])
_WORDS = st.sampled_from([
    "hot", "Teen", "café", "l'amour", "coming-of-age", "abc123", "42",
    "snake_case", "naïve", "x", "img", "script",
])
_TEXT = st.lists(
    st.one_of(_WORDS, _WS, st.sampled_from(["a < b", "x > y", "<3", ".", "-", "'", "&"])),
    min_size=1, max_size=6,
).map("".join)
_ENTITY = st.sampled_from(
    ["&amp;", "&eacute;", "&#233;", "&#xE9;", "&lt;", "&gt;", "&nbsp;", "&copy", "&lt;img&gt;"]
)
_VALUE_TEXT = st.lists(
    st.one_of(_WORDS, _WS, st.sampled_from([">", "<", "/", "=", "<img src=x>", "&amp;"])),
    max_size=4,
).map("".join)
_ATTR = st.tuples(
    st.sampled_from(["href", "src", "title", "data-x", "ALT"]),
    st.one_of(
        _VALUE_TEXT.map(lambda v: f'="{v}"'),
        _VALUE_TEXT.map(lambda v: "='" + v.replace("'", "") + "'"),
        st.sampled_from(["=bare", "=a.png", "=/path/x.html", " = spaced", ""]),
    ),
).map("".join)


@st.composite
def _start_tag(draw, names):
    attrs = draw(st.lists(st.tuples(_WS, _ATTR).map("".join), max_size=3))
    head = "<" + draw(names) + "".join(attrs)
    close = draw(st.sampled_from([">", "/>", " />", " >"]))
    if close == "/>" and attrs and not attrs[-1].endswith(("'", '"')):
        close = " />"  # a '/' right after a bare value belongs to the value
    return head + close


_TAG_NAMES = st.sampled_from(["p", "div", "a", "b", "span", "br", "img", "IMG", "Img", "imgx", "i"])
_END_TAG = st.sampled_from(["</p>", "</div>", "</img>", "</ span >", "</>", "</1x>", "</A\n>"])
_RAW_BODY = st.lists(
    st.one_of(_WORDS, _WS, st.sampled_from(
        ["<", "</p>", "<img src=x>", "'<b>'", "<!-- c -->", "&amp;", "a<b", "</scripts>",
         "-", "--", "- ->", "--!>", "a-b", "<-"]
    )),
    max_size=5,
).map("".join)
# Near misses of a raw block's end tag.  '</SCRIPT >' ends a script block
# and '</ STYLE>' a style block, so `_raw_block` puts each only into the
# other kind; the rest end neither.
_NEAR_END_TAGS = ["</ script x>", "</scriptx>", "</SCRIPT >", "</style-x>", "</ STYLE>", "< /script>"]


@st.composite
def _raw_block(draw):
    name = draw(st.sampled_from(["script", "style", "SCRIPT", "Style"]))
    start = draw(_start_tag(st.just(name)))
    if start.endswith("/>"):
        return start  # self-closing: what follows is ordinary markup
    end = draw(st.sampled_from(["</{}>", "</{} >", "</ {}>", "</{}\n>"]))
    near = [t for t in _NEAR_END_TAGS if re.fullmatch(rf"</\s*{name}\s*>", t, re.I) is None]
    body = draw(st.lists(st.one_of(_RAW_BODY, st.sampled_from(near)), max_size=4).map("".join))
    return start + body + end.format(draw(st.sampled_from([name, name.upper()])))


# a comment body holds '-', '--', '- ->' and '--!>', but never its end mark
_COMMENT = st.builds(
    lambda body: f"<!-- {body} -->", _RAW_BODY.filter(lambda b: re.search(r"--\s*>", b) is None)
)
_DECL = st.sampled_from(["<!DOCTYPE html>", "<!doctype html public 'x'>", "<?xml version='1.0'?>"])
_CLOSED_MARKUP_DOCS = st.lists(
    st.one_of(
        _TEXT, _ENTITY, _start_tag(_TAG_NAMES), _END_TAG, _raw_block(), _COMMENT, _DECL,
    ),
    max_size=12,
).map("".join)

# URL-like text: the characters parse_url splits on, among letters of
# both cases, digits, blanks, line breaks and pieces of hosts
_URL_TEXT = st.lists(
    st.one_of(
        st.text("abzABZ019.:/?#@[]- \t\n\r\x85\u2028", max_size=6),
        st.sampled_from(["http://", "co.uk", "xxx", ".co.uk", "www.", "[::1]", ":8080"]),
    ),
    max_size=8,
).map("".join)

# Any text at all: arbitrary characters, lone surrogates, and fragments of
# markup, entities and raw blocks that may be left open.
_ANY_TEXT = st.lists(
    st.one_of(
        st.text(st.characters(categories=["L", "M", "N", "P", "S", "Z", "C"]), max_size=8),
        st.characters(categories=["Cs"]),
        st.sampled_from([
            "<", ">", "</", "<!--", "-->", "<!", "<?", "<img", "<IMG ", "<script", "</script>",
            "<style>", "'", '"', "=", "&", "&#", "&#x", "&#xD800;", "&#0;", "&#99999999;", "&amp",
        ]),
        _CLOSED_MARKUP_DOCS,
    ),
    max_size=10,
).map("".join)

# Documents for the comparison with the backtracking patterns: text where
# the word rule is subtle ('_', '’', combining marks, 'İ', which lowercases
# to two code points, non-Latin scripts, the entity for '_') and markup
# left open or repeated the way hostile pages repeat it.
_WORD_EDGES = [
    "snake_case", "__init__", "a_'b", "a'_b", "x-_y", "_lead", "trail_", "&lowbar;x", "&#95;",
    "l’amour", "’quoted’", "a’-b", "e\u0301te\u0301", "n\u0303", "\u0301x", "İstanbul", "İ",
    "ǅungla", "Straße", "ﬁne", "Привет мир", "Ελληνικά λόγια", "日本語のテキスト", "مرحبا بالعالم",
    "हिन्दी", "١٢٣", "㈠", "x²",
]
_OPEN_MARKUP = [
    '<a title="x ', "<a b ", "<!-- x ", "<!x ", "</x ", "<img src='", '<script src="a>',
    "<style", "<a b<c>", "<p/>", "<script/>", "< p>", "<>", "</", "<img", "<a href='>'",
    # comment, script and style bodies: '<', near-miss end tags, dashes
    "<script>a < b </ script x>", "<script>x</scriptx><", "<style>a</SCRIPT >b<",
    "<SCRIPT>a</ script\n>", "<!-- a - b -- c - -> d --!> ", "<!--->", "<!-- --", "<!-- -- >",
]
_HOSTILE_MARKUP = st.tuples(st.sampled_from(_OPEN_MARKUP), st.integers(1, 40)).map(
    lambda u: u[0] * u[1]
)
_REFERENCE_DOCS = st.lists(
    st.one_of(
        st.sampled_from(_WORD_EDGES), st.sampled_from(_OPEN_MARKUP), _HOSTILE_MARKUP,
        _WS, _ANY_TEXT, _CLOSED_MARKUP_DOCS,
    ),
    max_size=12,
).map("".join)

# Character references the way pages and hostile pages write them: every
# html5 name with and without its ';', and numeric references in decimal
# and hex to any code point, the 0x80-0x9F block html.unescape remaps,
# surrogates, noncharacters and values past U+10FFFF; among the characters
# at the edges of the blank rule: 'Σ' (whose lowercase depends on its
# neighbours), the cased symbols Ⓐ and ⓐ, combining marks (U+0345 is
# cased too), the soft hyphen, U+200B, '·', apostrophes, '-' and '_'.
_NAMED_REFERENCES = st.tuples(st.sampled_from(sorted(html5)), st.sampled_from(["", ";"])).map(
    lambda t: "&" + t[0].rstrip(";") + t[1]
)
_CODE_POINTS = st.one_of(
    st.integers(0, 0x10FFFF),
    st.integers(0x80, 0x9F),
    st.integers(0xD800, 0xDFFF),
    st.integers(0x110000, 10**12),
    st.sampled_from([0, 0x0B, 0x0D, 0x7F, 0xAD, 0x3A3, 0x345, 0x200B, 0x24B6, 0x24D0, 0xFDD0, 0xFFFE,
                     0x1FFFF, 0x10FFFF]),
)
_NUMERIC_REFERENCES = st.tuples(
    _CODE_POINTS, st.sampled_from(["&#{}", "&#{};", "&#000{};", "&#x{:x};", "&#X{:X}", "&#x{:X}"])
).map(lambda t: t[1].format(t[0]))
_DECODE_EDGES = st.sampled_from(
    list("ΣσςⒶⓐ\u0301\u0308\u0345\u00ad\u200b·’'-_&#;xX AaBz9ß")
    + ["İ", "ǅ", "\u00a0", "\u2014", "<b>", "<!-- -->", "&#", "&#x", "&amp", "Σ&", "AΣ"]
)
_DECODE_DOCS = st.lists(
    st.one_of(_NAMED_REFERENCES, _NUMERIC_REFERENCES, _DECODE_EDGES, _DECODE_EDGES),
    max_size=16,
).map("".join)

_URLS = st.builds(
    "{}{}.{}{}".format,
    st.sampled_from(["http://", "https://", "", "HTTP://user@"]),
    st.from_regex(r"[a-z0-9][a-z0-9-]{0,8}(\.[a-z0-9]{1,6}){0,2}", fullmatch=True),
    st.sampled_from(["com", "xxx", "co.uk", "fr", "org"]),
    # a line break inside a URL makes it malformed, so paths hold none
    st.one_of(st.just(""), st.text(max_size=10).filter(lambda t: len(t.splitlines()) < 2)
              .map(lambda t: "/" + t)),
)


# Characters at the edges of the word rule: Unicode spaces (U+0085 and
# U+001C are whitespace to str.split), '_', apostrophes and hyphens, letters
# whose lowercase changes length (İ, ß), a ligature, combining marks,
# non-ASCII digits and numbers, and lone surrogates.
_TOKEN_CHARS = st.sampled_from(
    list(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2003\u2028\u3000")
    + list("_'’-.!aZ9İßﬁ\u0301\u0308٣²½ǅ")
    + ["\ud800", "\udfff"]
) | st.characters()
# ASCII text, which takes tokenize's translate-and-split path: every code
# point below 128, weighted towards separators, both letter cases, digits,
# and the control characters str.split treats as whitespace or not.
_ASCII_TOKEN_CHARS = st.sampled_from(
    list("'-_aAzZ09 \x0b\x0c\x1c\x1d\x1e\x1f\x7f\x00")
) | st.characters(max_codepoint=127)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World!") == ("hello", "world")

    def test_keeps_internal_apostrophes_and_hyphens(self):
        assert tokenize("l'amour coming-of-age d’été") == (
            "l'amour",
            "coming-of-age",
            "d’été",
        )

    def test_strips_leading_trailing_punctuation(self):
        assert tokenize("'quoted' -dash- trail'") == ("quoted", "dash", "trail")

    def test_underscore_is_a_separator(self):
        assert tokenize("snake_case") == ("snake", "case")

    def test_digits_and_accents(self):
        assert tokenize("abc123 café 7seas") == ("abc123", "café", "7seas")

    def test_empty(self):
        assert tokenize("") == ()

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(st.text(_TOKEN_CHARS, max_size=40), st.text(_ASCII_TOKEN_CHARS, max_size=40)))
    def test_equals_the_one_regex_form(self, text):
        # the ASCII path, and the whitespace split and isalnum shortcut,
        # give what one findall over the whole text gives
        assert tokenize(text) == tuple(_WORD_RE.findall(text.lower().replace("_", " ")))

    @pytest.mark.parametrize("text, words", [
        ("a-'b", ("a", "b")),
        ("--a", ("a",)),
        ("a--", ("a",)),
        ("'a'", ("a",)),
        ("a'b-c", ("a'b-c",)),
        ("x-_y", ("x", "y")),
        ("A-B", ("a-b",)),
        ("a - b", ("a", "b")),
        ("l'amour", ("l'amour",)),
    ])
    def test_a_separator_stays_only_between_alphanumerics(self, text, words):
        assert text.isascii()
        assert tokenize(text) == words
        assert tokenize(text) == tuple(_WORD_RE.findall(text.lower().replace("_", " ")))


class TestExtractText:
    def test_matches_oracle_on_fixture_corpus(self):
        for url, doc in DOCS + EDGE_DOCS:
            assert extract_text(doc) == oracle_extract(doc), url

    @settings(max_examples=300, deadline=None)
    @given(_CLOSED_MARKUP_DOCS)
    def test_matches_oracle_on_closed_markup(self, doc):
        assert extract_text(doc) == oracle_extract(doc)

    def test_drops_script_and_style(self):
        tokens, _ = extract_text(
            "<script>var x = 'secret';</script><style>.a{}</style><p>kept</p>"
        )
        assert tokens == ("kept",)

    def test_counts_all_img_forms(self):
        _, images = extract_text('<img src="a"><img src="b"/><IMG src="c">')
        assert images == 3

    def test_plain_text_passthrough(self):
        assert extract_text("no markup here") == (("no", "markup", "here"), 0)

    def test_malformed_markup_degrades_gracefully(self):
        tokens, images = extract_text("<p>open<p>again</div><b>bold")
        assert tokens == ("open", "again", "bold")
        assert images == 0

    @pytest.mark.parametrize(
        "doc",
        [
            "<p>kept</p><!-- dropped <img src=x> to the end",
            "<p>kept</p><script>dropped <img src=x> to the end",
            "<p>kept</p><STYLE type='text/css'>dropped to the end",
        ],
    )
    def test_unterminated_comment_or_raw_block_runs_to_end(self, doc):
        assert extract_text(doc) == (("kept",), 0)

    def test_unquoted_lt_ends_a_tag_attempt(self):
        assert extract_text("<a b<c>") == (("a", "b"), 0)
        assert extract_text("<img src=x<p>y") == (("img", "src", "x", "y"), 0)

    def test_unknown_marked_section_does_not_raise(self):
        assert extract_text("<![if gte mso 9]>one<![endif]><![foo]>two") == (("one", "two"), 0)

    @settings(max_examples=150, deadline=None)
    @given(_ANY_TEXT)
    def test_never_raises(self, doc):
        # pages are stripped when the filter first reads them, so an
        # exception here would escape from filter_page
        tokens, images = extract_text(doc)
        assert all(isinstance(t, str) and t for t in tokens)
        assert images >= 0

    # pages of repeated unclosed markup, on which html.parser is quadratic,
    # and of separator runs, which the ASCII tokenizer path blanks
    @pytest.mark.parametrize(
        "unit",
        ['<a title="x ', "<a b ", "<!-- x ", "<!x ", "</x ", "&amp", "&#1", "&" + ascii_letters[:31],
         "-", "'-", " - ", "a-b "],
    )
    def test_hostile_markup_is_linear(self, unit):
        doc = unit * (48_000 // len(unit))
        start = time.perf_counter()
        extract_text(doc)
        assert time.perf_counter() - start < 0.1


class TestBacktrackingReference:
    """extract_text equals the same patterns without possessive
    quantifiers, with '_' kept out of the word class instead of replaced,
    including on open and hostile markup the html.parser oracle skips."""

    def test_fixture_corpus_and_edges(self):
        for doc in [doc for _, doc in DOCS + EDGE_DOCS] + _WORD_EDGES + _OPEN_MARKUP:
            assert extract_text(doc) == parent_extract_text(doc), doc

    @settings(max_examples=200, deadline=None)
    @given(_REFERENCE_DOCS)
    def test_generated_documents(self, doc):
        assert extract_text(doc) == parent_extract_text(doc)


class TestReferenceDecoding:
    """A reference decodes as html.unescape decodes it, except that a
    character tokenize treats exactly as a space becomes one."""

    @settings(max_examples=600, deadline=None)
    @given(_DECODE_DOCS)
    def test_equals_the_unescape_reference(self, doc):
        assert extract_text(doc) == parent_extract_text(doc)

    def test_every_blank_code_point_acts_as_a_space(self):
        # next to a final sigma and between a word and a hyphen, a blank
        # character splits words exactly as a space does
        blank = [c for c in map(chr, range(0x110000)) if _is_blank(c)]
        text = "".join(f"AΣ{c}B-{c}y " for c in blank)
        assert _PARENT_WORD_RE.findall(text.lower()) == ["aς", "b", "y"] * len(blank)

    def test_typographic_references_keep_ascii_text_ascii(self, monkeypatch):
        texts = []  # what extract_text hands to tokenize
        monkeypatch.setattr(safeindex.page, "tokenize", lambda t: texts.append(t) or tokenize(t))
        doc = "<p>a&nbsp;b &copy; c &mdash; d &#8211; e &#169; R&amp;D &lt;&gt; &quot;q&quot;</p>"
        assert extract_text(doc) == parent_extract_text(doc)
        assert texts[0].isascii()
        assert extract_text("caf&eacute;") == (("café",), 0)

    def test_distinct_references_leave_the_memo_at_its_bound(self):
        doc = " ".join(f"&#{n};" for n in range(50_000))
        assert extract_text(doc) == parent_extract_text(doc)
        info = _decode_reference.cache_info()
        assert info.currsize == info.maxsize == _DECODED_MEMO_SIZE

    def test_reference_pattern_is_the_standard_librarys(self):
        # html.unescape finds references with this private pattern; a
        # Python that changes it fails here rather than drifting silently
        assert _CHARREF_RE.pattern == html._charref.pattern
        assert _CHARREF_RE.flags == html._charref.flags


class TestParseUrl:
    def test_basic(self):
        parts = parse_url("http://www.Example.COM/Path?q=1#frag")
        assert parts.full_url == "http://www.example.com/path?q=1#frag"
        assert parts.registrable_domain == "example.com"
        assert parts.tld == "com"

    def test_scheme_optional(self):
        assert parse_url("example.org/x").registrable_domain == "example.org"

    def test_strips_userinfo_and_port(self):
        parts = parse_url("http://user:pw@deep.sub.example.net:8080/a")
        assert parts.registrable_domain == "example.net"
        assert parts.tld == "net"

    def test_two_level_suffix(self):
        parts = parse_url("http://shop.books.co.uk/x")
        assert parts.registrable_domain == "books.co.uk"
        assert parts.tld == "uk"

    def test_single_label_host(self):
        assert parse_url("localhost/x").registrable_domain == "localhost"

    def test_trailing_dot_host(self):
        parts = parse_url("http://example.com./p")
        assert parts.registrable_domain == "example.com"
        assert parts.tld == "com"

    def test_xxx_tld(self):
        assert parse_url("http://site.xxx/").tld == "xxx"

    def test_ipv4_hosts_keyed_by_full_address(self):
        first, second = parse_url("http://10.0.0.1/a"), parse_url("192.168.0.1:8080/b")
        assert first.registrable_domain == "10.0.0.1"
        assert second.registrable_domain == "192.168.0.1"
        assert first.tld == second.tld == ""

    def test_ipv6_host_with_port(self):
        parts = parse_url("http://user@[::1]:8080/x")
        assert parts.registrable_domain == "::1"
        assert parts.tld == ""
        assert parse_url("http://[2001:DB8::1]/").registrable_domain == "2001:db8::1"

    @pytest.mark.parametrize(
        "bad",
        [
            "", "   ", "http:///path", "http://:80/x", "http://[::1/x", "http://[]:80/",
            "http://a..com/x", "http://./x", "http://ok.com/a\nb", "http://evil\rbar.xxx/",
            "a.com/\u2028b",
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(MalformedUrlError):
            parse_url(bad)

    @settings(max_examples=500, deadline=None)
    @given(_URL_TEXT)
    def test_equals_the_split_chain_form(self, url):
        try:
            expected = oracle_parse_url(url)
        except MalformedUrlError as exc:
            with pytest.raises(MalformedUrlError) as raised:
                parse_url(url)
            assert str(raised.value) == str(exc)
        else:
            assert parse_url(url) == expected


class TestPageFromHtml:
    def test_builds_page(self):
        page = page_from_html(
            "http://a.example.com/x", "<p>one two</p><img src='i'>", ADULT
        )
        assert page.tokens == ("one", "two")
        assert page.image_count == 1
        assert page.label == ADULT


class TestDeferredPage:
    """A page_from_html page equals the page built from its stripped text."""

    @settings(max_examples=100, deadline=None)
    @given(_URLS, st.one_of(_CLOSED_MARKUP_DOCS, _ANY_TEXT), st.sampled_from([ADULT, SAFE, None]))
    def test_equals_the_eager_page(self, url, html, label):
        eager = Page(parse_url(url), *extract_text(html), label)
        assert page_from_html(url, html, label) == eager
        assert eager == page_from_html(url, html, label)
        assert hash(page_from_html(url, html, label)) == hash(eager)
        assert repr(page_from_html(url, html, label)) == repr(eager)
        assert copy.copy(page_from_html(url, html, label)) == eager
        assert pickle.loads(pickle.dumps(page_from_html(url, html, label))) == eager
        relabeled = dataclasses.replace(page_from_html(url, html, label), label=SAFE)
        assert relabeled == dataclasses.replace(eager, label=SAFE)

    def test_strips_once_on_first_read_and_drops_the_html(self, monkeypatch):
        calls = count_extract_text(monkeypatch)
        page = page_from_html("http://a.com/1", "<p>one two</p><img>", ADULT)
        assert page.url.registrable_domain == "a.com"
        assert page.label == ADULT
        assert calls == []
        assert page.image_count == 1
        assert page.tokens == ("one", "two")
        assert calls == ["<p>one two</p><img>"]
        assert "_html" not in vars(page)

    def test_unparsed_copies_keep_their_html(self):
        page = page_from_html("http://a.com/1", "<p>one</p>")
        copied = copy.copy(page)
        restored = pickle.loads(pickle.dumps(page))
        assert "_html" in vars(copied) and "_html" in vars(restored)
        assert copied.tokens == restored.tokens == page.tokens == ("one",)

    def test_unknown_attribute_raises(self):
        page = page_from_html("http://a.com/1", "<p>one</p>")
        with pytest.raises(AttributeError, match="nothing"):
            page.nothing
        assert "_html" in vars(page)

    def test_malformed_url_raises_at_once(self):
        with pytest.raises(MalformedUrlError):
            page_from_html("http:///x", "<p>never read</p>")


class TestCorpusIO:
    def _write(self, tmp_path, rows, bodies, name="manifest.csv"):
        for page_name, body in bodies.items():
            (tmp_path / page_name).write_text(body, encoding="utf-8")
        manifest = tmp_path / name
        manifest.write_text(
            "path,url,label\n" + "".join(f"{r}\n" for r in rows), encoding="utf-8"
        )
        return manifest

    def test_rows_give_labeled_pages(self, tmp_path):
        bodies = {"a.html": "<p>one</p>", "b.html": "<p>two</p>", "c.html": "three"}
        manifest = self._write(
            tmp_path,
            [
                "a.html,http://a.com/1,adult",
                "b.html,http://b.com/1, SAFE ",
                "c.html,http://c.com/1,Unlabeled",
            ],
            bodies,
        )
        assert list(iter_corpus(manifest)) == [
            page_from_html("http://a.com/1", bodies["a.html"], ADULT),
            page_from_html("http://b.com/1", bodies["b.html"], SAFE),
            page_from_html("http://c.com/1", bodies["c.html"], None),
        ]

    def test_bad_label_is_a_skipped_row(self, tmp_path):
        manifest = self._write(tmp_path, ["a.html,http://a.com/1,spam"], {"a.html": "x"})
        assert list(iter_corpus(manifest)) == [
            PageLoadFailure("a.html", "http://a.com/1", "bad label 'spam'")
        ]

    def test_bad_header_raises(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("file,link\na,b\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="header"):
            list(iter_corpus(manifest))

    @pytest.mark.parametrize("kind", BAD_ROWS)
    def test_bad_row_is_one_failure_between_good_rows(self, tmp_path, kind):
        row, reason = BAD_ROWS[kind]
        (tmp_path / "sub").mkdir()
        bodies = {"a.html": "<p>hello</p>", "b.html": "<p>world</p>"}
        good = ["a.html,http://a.com/1,adult", "b.html,http://b.com/1,unlabeled"]
        clean = self._write(tmp_path, good, bodies, "clean.csv")
        dirty = self._write(tmp_path, [good[0], row, good[1]], bodies, "dirty.csv")
        first, failure, last = iter_corpus(dirty)
        assert [first, last] == list(iter_corpus(clean))
        assert isinstance(failure, PageLoadFailure)
        assert [failure.path, failure.url] == row.split(",")[:2]
        assert failure.error.startswith(reason.format(base=tmp_path))

    def test_iter_corpus_yields_pages_and_failures(self, tmp_path):
        manifest = self._write(
            tmp_path,
            [
                "a.html,http://a.com/1,adult",
                "missing.html,http://b.com/1,safe",
                "a.html,http://a..com/,safe",
                "sub,http://c.com/1,safe",
            ],
            {"a.html": "<p>hello</p>"},
        )
        (tmp_path / "sub").mkdir()
        results = list(iter_corpus(manifest))
        assert isinstance(results[0], Page)
        assert results[0].tokens == ("hello",)
        assert isinstance(results[1], PageLoadFailure)
        assert results[1].path == "missing.html"
        # a host with an empty label is a malformed URL, not a lost run
        assert isinstance(results[2], PageLoadFailure)
        assert "no recognizable host" in results[2].error
        # a page path that names a directory is one skipped row too
        assert isinstance(results[3], PageLoadFailure)
        assert f"cannot read page file {tmp_path / 'sub'}" in results[3].error

    def test_field_over_the_csv_limit_is_one_failure(self, tmp_path):
        """A field longer than the csv module's limit (131072 characters)
        is one skipped row; the rows on both sides are still read."""
        long_url = "http://big.com/" + "a" * 140_000
        good = ["a.html,http://a.com/1,adult", "b.html,http://b.com/1,safe"]
        bodies = {"a.html": "<p>hello</p>", "b.html": "<p>world</p>"}
        clean = self._write(tmp_path, good, bodies, "clean.csv")
        dirty = self._write(tmp_path, [good[0], f"a.html,{long_url},safe", good[1]], bodies)
        first, failure, last = iter_corpus(dirty)
        assert [first, last] == list(iter_corpus(clean))
        assert failure == PageLoadFailure(
            "", "", "manifest line 3: field larger than field limit (131072)"
        )

    def test_manifest_of_unparsable_rows_ends(self, tmp_path):
        rows = [f"a{i}.html,http://big.com/{'a' * 140_000},safe" for i in range(3)]
        manifest = self._write(tmp_path, rows, {})
        results = list(iter_corpus(manifest))
        assert [r.error for r in results] == [
            f"manifest line {n}: field larger than field limit (131072)" for n in (2, 3, 4)
        ]

    def test_header_over_the_csv_limit_raises(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"path,url,label{'x' * 140_000}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot read corpus manifest"):
            list(iter_corpus(manifest))
