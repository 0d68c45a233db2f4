import dataclasses
import html
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from safeindex import (
    CONTENT_LEXICON_NAMES,
    ConfigError,
    LexiconError,
    LexiconSet,
    extract_features,
    load_lexicon_set,
    normalize_term,
    page_from_html,
)
from safeindex.lexicon import REFERENCE_SIZES, TermMatcher, parse_terms

from helpers import make_lexicon_set, oracle_scan

# Few words, so terms are shared between lists, one-token terms sit inside
# multi-token ones and matches overlap; "z" is in no term.
_VOCAB = ("a", "b", "c")
_TERMS = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=3).map(" ".join)
_TERM_LISTS = st.lists(st.sets(_TERMS, min_size=1, max_size=6), min_size=1, max_size=4)
_STREAMS = st.lists(st.sampled_from(_VOCAB + ("z",)), max_size=25).map(tuple)
# Words of mixed case and script, and what may stand between them in a term
_WORDS = st.text(st.characters(categories=("Lu", "Ll", "Nd")), min_size=1, max_size=5)
_JOINERS = st.sampled_from([" ", "  ", "+", ", ", "_", ".", "&", "<", "/", "-", "'", " + "])


class TestNormalizeTerm:
    def test_lowercases_and_strips(self):
        assert normalize_term("  Hot  Video ") == "hot video"

    def test_collapses_internal_whitespace(self):
        assert normalize_term("a\t b\n  c") == "a b c"

    def test_blank_raises(self):
        with pytest.raises(LexiconError):
            normalize_term("   \t ")


class TestParseTerms:
    def test_skips_blanks_and_comments(self):
        assert parse_terms("alpha\n\n# comment\nbeta\n  # indented\n") == {"alpha", "beta"}

    def test_merges_duplicates_after_normalization(self):
        assert parse_terms("Alpha\nalpha\nALPHA  \n") == {"alpha"}


class TestLexiconSet:
    def test_requires_all_content_lexicons(self):
        content = {name: frozenset({"t"}) for name in CONTENT_LEXICON_NAMES[:-1]}
        with pytest.raises(ConfigError, match="missing content lexicons"):
            LexiconSet(content, frozenset({"porn"}))

    def test_rejects_unknown_names(self):
        content = {name: frozenset({"t"}) for name in CONTENT_LEXICON_NAMES}
        content["mystery"] = frozenset({"t"})
        with pytest.raises(ConfigError, match="unknown content lexicons"):
            LexiconSet(content, frozenset({"porn"}))

    @pytest.mark.parametrize(
        "name, lists",
        [("tags-fr", {"overrides": {"tags-fr": ()}}), ("in-url", {"url_terms": ()})],
        ids=["tags-fr", "in-url"],
    )
    def test_empty_list_raises(self, name, lists):
        with pytest.raises(LexiconError) as info:
            make_lexicon_set(**lists)
        assert str(info.value) == f"empty lexicon: {name!r}"

    def test_matchers_are_built_once(self):
        lexicons = make_lexicon_set()
        assert lexicons.matcher is lexicons.matcher

    def test_replaced_set_gets_its_own_matchers(self):
        lexicons = make_lexicon_set()
        matcher = lexicons.matcher
        assert dataclasses.replace(lexicons).matcher is not matcher

    @pytest.mark.parametrize("phrases", [(), ("you must be 18",)])
    def test_phrase_word_that_is_a_content_term_counts_in_both(self, phrases):
        lexicons = make_lexicon_set({"en-words": {"you"}}, disclaimer=phrases)
        scans = lexicons.matcher.scan(("you", "must", "be", "18", "you"))
        assert scans[CONTENT_LEXICON_NAMES.index("en-words")] == (2, 1, 2)
        assert scans[len(CONTENT_LEXICON_NAMES)] == ((1, 1, 4) if phrases else (0, 0, 0))


@pytest.fixture(scope="module")
def content_sample(lexicons):
    """The first five terms of each shipped content list, one-token and
    two-token ones."""
    return sorted(
        term
        for name in CONTENT_LEXICON_NAMES
        for term in sorted(lexicons.content[name])[:5]
    )


class TestTermMatcher:
    """A scan over several lists equals a brute-force scan of each list."""

    @pytest.mark.parametrize(
        "term_lists, tokens, expected",
        [
            # a term shared by two lists counts in both
            ([{"a b", "c"}, {"a b"}], ("a", "b", "c"), [(2, 2, 3), (1, 1, 2)]),
            # "b" of list 0 inside "a b c" of list 1 and "a b" of list 0
            ([{"b", "a b"}, {"a b c"}], ("a", "b", "c"), [(2, 2, 2), (1, 1, 3)]),
            # overlapping and repeated matches
            ([{"a a", "a"}], ("a", "a", "a", "a"), [(7, 2, 4)]),
            # the stream ends in the middle of a phrase
            ([{"a b c", "a"}, {"c a b"}], ("c", "a", "b"), [(1, 1, 1), (1, 1, 3)]),
            ([{"a b c"}, {"b"}], (), [(0, 0, 0), (0, 0, 0)]),
        ],
        ids=["shared term", "one-token term inside phrases", "overlaps", "cut-off phrase", "empty"],
    )
    def test_cases(self, term_lists, tokens, expected):
        assert oracle_scan(tokens, term_lists) == expected
        assert TermMatcher(term_lists).scan(tokens) == expected

    @given(_TERM_LISTS, _STREAMS)
    def test_matches_per_list_oracle(self, term_lists, tokens):
        assert TermMatcher(term_lists).scan(tokens) == oracle_scan(tokens, term_lists)

    @given(st.data())
    def test_folded_index_matches_oracle(self, lexicons, content_sample, data):
        phrases = sorted(lexicons.disclaimer_phrases)
        words = sorted({word for phrase in phrases for word in phrase.split(" ")})
        pieces = st.one_of(
            st.sampled_from(phrases),
            st.sampled_from(words + ["z"]),
            st.sampled_from(content_sample),
        )
        tokens = tuple(" ".join(data.draw(st.lists(pieces, max_size=8))).split())
        cut = data.draw(st.integers(0, len(tokens)))
        for stream in (tokens, tokens[:cut]):
            # a term with a word the stream lacks cannot match, so leaving
            # it out changes no count and keeps the oracle fast
            content = [
                {t for t in lexicons.content[name] if set(stream).issuperset(t.split(" "))}
                for name in CONTENT_LEXICON_NAMES
            ]
            *scans, disclaimer = lexicons.matcher.scan(stream)
            assert disclaimer == oracle_scan(stream, [phrases])[0]
            assert scans == oracle_scan(stream, content)


class TestLoadLexiconSet:
    def _write_manifest(self, tmp_path, entries):
        for name, terms in entries.items():
            (tmp_path / f"{name}.txt").write_text(
                "".join(f"{t}\n" for t in terms), encoding="utf-8"
            )
        manifest = {name: f"{name}.txt" for name in entries}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

    def test_loads_all_lists(self, tmp_path):
        entries = {name: ["alpha", "beta"] for name in CONTENT_LEXICON_NAMES}
        entries["in-url"] = ["porn"]
        entries["disclaimer"] = ["you must be 18", "# skip", "adults only"]
        lexicons = load_lexicon_set(self._write_manifest(tmp_path, entries))
        assert lexicons.url_terms == frozenset({"porn"})
        assert lexicons.disclaimer_phrases == frozenset({"you must be 18", "adults only"})
        assert lexicons.content["queries"] == frozenset({"alpha", "beta"})
        # the matcher waits for the first scan
        assert "matcher" not in vars(lexicons)

    def test_disclaimer_optional(self, tmp_path):
        entries = {name: ["alpha"] for name in CONTENT_LEXICON_NAMES}
        entries["in-url"] = ["porn"]
        lexicons = load_lexicon_set(self._write_manifest(tmp_path, entries))
        assert lexicons.disclaimer_phrases == frozenset()

    def test_token_lists_follow_the_page_word_rule(self, tmp_path):
        entries = {name: ["alpha"] for name in CONTENT_LEXICON_NAMES}
        entries["tags-en"] = ["Hot_Babe", "x+y", "18+", "18", "x-rated"]
        entries["in-url"] = ["sex+cam", "Porn"]
        entries["disclaimer"] = ["You must be 18+", "you  must be 18"]
        lexicons = load_lexicon_set(self._write_manifest(tmp_path, entries))
        assert lexicons.content["tags-en"] == frozenset({"hot babe", "x y", "18", "x-rated"})
        # matched as substrings, so kept as written but for case and spaces
        assert lexicons.url_terms == frozenset({"sex+cam", "porn"})
        assert lexicons.disclaimer_phrases == frozenset({"you must be 18"})

    def test_term_with_no_word_raises(self, tmp_path):
        entries = {name: ["alpha"] for name in CONTENT_LEXICON_NAMES}
        entries["in-url"] = ["+++"]
        entries["queries"] = ["alpha", "+++"]
        with pytest.raises(LexiconError) as info:
            load_lexicon_set(self._write_manifest(tmp_path, entries))
        assert str(info.value) == f"lexicon file {tmp_path / 'queries.txt'}: term '+++' holds no word"

    def test_url_term_with_a_space_raises(self, tmp_path):
        # 'sex cam' could match only a URL holding a literal space
        entries = {name: ["alpha"] for name in CONTENT_LEXICON_NAMES}
        entries["in-url"] = ["porn", "Sex \t Cam", "tube 8"]
        with pytest.raises(LexiconError) as info:
            load_lexicon_set(self._write_manifest(tmp_path, entries))
        assert str(info.value) == (
            f"lexicon file {tmp_path / 'in-url.txt'}: in-url term 'sex cam' holds a space, "
            "which no well-formed URL holds"
        )

    def test_disclaimer_file_may_hold_no_phrase(self, tmp_path):
        entries = {name: ["alpha"] for name in CONTENT_LEXICON_NAMES}
        entries["in-url"] = ["porn"]
        entries["disclaimer"] = ["# none yet"]
        lexicons = load_lexicon_set(self._write_manifest(tmp_path, entries))
        assert lexicons.disclaimer_phrases == frozenset()

    @given(
        st.sampled_from(CONTENT_LEXICON_NAMES + ("disclaimer",)),
        st.lists(_WORDS, min_size=1, max_size=4),
        st.data(),
    )
    def test_loaded_term_matches_the_page_it_spells(self, tmp_path_factory, name, words, data):
        """A term loaded from its file is found on a page whose whole text
        is that term, however its words are joined or cased."""
        term = words[0] + "".join(data.draw(_JOINERS) + word for word in words[1:])
        entries = {n: ["alpha"] for n in CONTENT_LEXICON_NAMES}
        entries.update({"in-url": ["porn"], name: [term]})
        manifest = self._write_manifest(tmp_path_factory.mktemp("lists"), entries)
        page = page_from_html("http://a.example.com/", f"<p>{html.escape(term)}</p>")
        fv = extract_features(page, load_lexicon_set(manifest))
        assert fv.disclaimer if name == "disclaimer" else fv[f"nb_{name}"] >= 1

    def test_non_utf8_disclaimer_raises(self, tmp_path):
        entries = {name: ["alpha"] for name in CONTENT_LEXICON_NAMES}
        entries["in-url"] = ["porn"]
        entries["disclaimer"] = ["you must be 18"]
        manifest = self._write_manifest(tmp_path, entries)
        (tmp_path / "disclaimer.txt").write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(ConfigError, match="UTF-8"):
            load_lexicon_set(manifest)

    def test_missing_entry_raises(self, tmp_path):
        entries = {name: ["alpha"] for name in CONTENT_LEXICON_NAMES}
        # no in-url entry
        with pytest.raises(ConfigError, match="in-url"):
            load_lexicon_set(self._write_manifest(tmp_path, entries))

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            load_lexicon_set(tmp_path / "nope.json")

    def test_unknown_list_name_raises_before_reading_lists(self, tmp_path):
        """A misspelled "disclaimer" must not switch the stage off; no list
        file exists, so the error comes before any is read."""
        manifest = {name: f"{name}.txt" for name in CONTENT_LEXICON_NAMES}
        manifest.update({"in-url": "in-url.txt", "disclaimers": "disclaimer.txt"})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_lexicon_set(path)
        assert str(info.value) == f"unknown list 'disclaimers' in lexicon manifest {path}"

    def test_manifest_must_be_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_lexicon_set(path)

    def test_not_an_object_error_names_the_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_lexicon_set(path)
        assert str(info.value) == (
            f"lexicon manifest {path} must be a JSON object mapping name to path"
        )

    def test_missing_entry_error_names_the_manifest(self, tmp_path):
        path = self._write_manifest(tmp_path, {name: ["alpha"] for name in CONTENT_LEXICON_NAMES})
        with pytest.raises(ConfigError) as info:
            load_lexicon_set(path)
        assert str(info.value) == f"lexicon manifest {path} is missing entry 'in-url'"


class TestShippedLexicons:
    def test_cardinalities_match_reference(self, lexicons):
        for name in CONTENT_LEXICON_NAMES:
            assert len(lexicons.content[name]) == REFERENCE_SIZES[name]
        assert len(lexicons.url_terms) == REFERENCE_SIZES["in-url"]

    def test_disclaimer_phrases_present(self, lexicons):
        assert len(lexicons.disclaimer_phrases) >= 1

    def test_pornstars_are_two_word_names(self, lexicons):
        assert all(
            len(t.split(" ")) == 2 for t in lexicons.content["pornstars"]
        )

    def test_queries_are_phrases(self, lexicons):
        assert all(
            len(t.split(" ")) >= 2 for t in lexicons.content["queries"]
        )
