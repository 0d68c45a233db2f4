import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from safeindex import (
    ATTRIBUTE_NAMES,
    CONTENT_LEXICON_NAMES,
    FeatureVector,
    Lexicon,
    Page,
    extract_features,
    load_lexicon_set,
    page_from_html,
    parse_url,
    substring_hits,
)
from safeindex.lexicon import TermMatcher
from safeindex.synth import write_lexicon_files

from fixture_docs import DOCS, FIXTURE_LEXICONS
from helpers import (
    make_lexicon_set,
    oracle_features,
    oracle_nb,
    oracle_prop,
    oracle_ratio,
)

WORDS = st.sampled_from(["hot", "teen", "mia", "vex", "video", "plain", "word"])
TOKEN_STREAMS = st.lists(WORDS, max_size=30).map(tuple)

# Lists that share one index: "hot" and "mia vex" each sit in two lists,
# and multi-word terms start with single-word terms of other lists.
SHARED_LEXICONS = make_lexicon_set(
    overrides={
        "en-words": {"hot", "teen"},
        "tags-en": {"hot", "video"},
        "queries": {"hot teen", "teen hot teen", "mia vex"},
        "pornstars": {"mia vex"},
        "small-set": {"mia"},
    }
)


class TestAttributeLayout:
    def test_count_and_prefix(self):
        assert len(ATTRIBUTE_NAMES) == 36
        assert ATTRIBUTE_NAMES[:3] == ("in_url", "in_ndd", "nbr_img")

    def test_three_metrics_per_lexicon_in_canonical_order(self):
        rest = ATTRIBUTE_NAMES[3:]
        for i, name in enumerate(CONTENT_LEXICON_NAMES):
            assert rest[3 * i : 3 * i + 3] == (
                f"nb_{name}",
                f"ratio_{name}",
                f"prop_{name}",
            )

    def test_vector_indexing(self):
        fv = FeatureVector(tuple(float(i) for i in range(36)))
        assert fv["in_url"] == 0.0
        assert fv["nbr_img"] == 2.0
        assert fv["nb_brand-names"] == 3.0
        assert fv.as_dict()["prop_tags-fr"] == 35.0

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            FeatureVector((1.0, 2.0))


class TestSubstringHits:
    def test_counts_distinct_terms(self):
        lex = Lexicon("in-url", frozenset({"porn", "sex", "tube"}))
        assert substring_hits("http://hotsextube.com/sex", lex) == 2

    def test_no_hits(self):
        lex = Lexicon("in-url", frozenset({"porn"}))
        assert substring_hits("http://example.com/", lex) == 0


def metrics(tokens, lexicon):
    """(nb, ratio, prop) of one list, from a matcher over that list alone."""
    total, distinct, covered = TermMatcher([lexicon.terms]).scan(tokens)[0]
    return total, distinct / lexicon.term_count, covered / len(tokens) if tokens else 0.0


class TestTokenMetrics:
    LEX = Lexicon(
        "x", frozenset({"hot", "teen", "hot teen", "mia vex", "teen hot teen"})
    )

    def test_nb_counts_multiplicity_and_overlaps(self):
        tokens = ("hot", "teen", "hot", "teen")
        # hot x2, teen x2, "hot teen" x2, "teen hot" not a term,
        # "teen hot teen" once (overlapping the singles and the pair)
        assert metrics(tokens, self.LEX)[0] == 7

    def test_ratio_counts_distinct_terms(self):
        tokens = ("hot", "plain", "hot")
        assert metrics(tokens, self.LEX)[1] == pytest.approx(1 / 5)

    def test_prop_counts_covered_positions(self):
        tokens = ("plain", "hot", "word", "mia", "vex")
        assert metrics(tokens, self.LEX)[2] == pytest.approx(3 / 5)

    def test_empty_stream(self):
        assert metrics((), self.LEX) == (0, 0.0, 0.0)

    def test_phrase_must_be_contiguous(self):
        assert metrics(("mia", "plain", "vex"), self.LEX)[0] == 0

    @given(TOKEN_STREAMS)
    def test_metrics_match_oracle(self, tokens):
        nb, ratio, prop = metrics(tokens, self.LEX)
        assert nb == oracle_nb(tokens, self.LEX)
        assert ratio == pytest.approx(oracle_ratio(tokens, self.LEX))
        assert prop == pytest.approx(oracle_prop(tokens, self.LEX))

    @given(TOKEN_STREAMS)
    def test_bounds(self, tokens):
        nb, ratio, prop = metrics(tokens, self.LEX)
        assert 0 <= ratio <= 1
        assert 0 <= prop <= 1
        assert nb >= 0

    @given(st.lists(WORDS, max_size=20), st.randoms(use_true_random=False))
    def test_ratio_is_order_invariant(self, tokens, rnd):
        lex = Lexicon("singles", frozenset({"hot", "teen", "mia"}))
        shuffled = list(tokens)
        rnd.shuffle(shuffled)
        assert metrics(tuple(tokens), lex)[1] == metrics(tuple(shuffled), lex)[1]

    @given(st.lists(WORDS, min_size=1, max_size=20).map(tuple))
    def test_duplication_doubles_nb_for_single_word_terms(self, tokens):
        lex = Lexicon("singles", frozenset({"hot", "teen", "mia"}))
        assert metrics(tokens + tokens, lex)[0] == 2 * metrics(tokens, lex)[0]


class TestExtractFeatures:
    def test_fixture_corpus_matches_oracle(self):
        for url, doc in DOCS:
            page = page_from_html(url, doc)
            fv = extract_features(page, FIXTURE_LEXICONS)
            expected = oracle_features(page, FIXTURE_LEXICONS)
            for name, got, want in zip(ATTRIBUTE_NAMES, fv.values, expected):
                assert got == pytest.approx(want, abs=1e-12), (url, name)

    def test_url_attributes(self):
        page = page_from_html("http://hotsextube.xxx/porn", "<p>x</p>")
        fv = extract_features(page, FIXTURE_LEXICONS)
        # full URL has sex, tube, porn, xxx; domain hotsextube.xxx has sex,
        # tube, and xxx
        assert fv["in_url"] == 4.0
        assert fv["in_ndd"] == 3.0

    @given(TOKEN_STREAMS)
    def test_shared_index_matches_oracle(self, tokens):
        page = Page(parse_url("http://a.example.com/"), tokens, 0)
        got = extract_features(page, SHARED_LEXICONS).values
        assert list(got) == oracle_features(page, SHARED_LEXICONS)

    def test_image_count_attribute(self):
        page = page_from_html("http://a.example.com/", "<img src='a'><img src='b'>")
        assert extract_features(page, FIXTURE_LEXICONS)["nbr_img"] == 2.0

    def test_alternating_sets_each_use_their_own_index(self, lexicons, tmp_path):
        """A stale or shared index would score one set's page with another
        set's lists."""
        other = load_lexicon_set(write_lexicon_files(tmp_path, seed=99))
        tags_fr = Lexicon("tags-fr", frozenset({"chaud", "tres chaud", "plain"}))
        variant = dataclasses.replace(
            lexicons, lexicons={**lexicons.lexicons, "tags-fr": tags_fr}
        )
        sets = (lexicons, other, variant)
        pages = []
        for lex in sets:
            terms = [
                term
                for name in ("tags-fr", "pornstars", "queries")
                for term in sorted(lex.content(name).terms)[:3]
            ]
            tokens = tuple(" ".join(["plain", *terms, "tres", "chaud"]).split(" "))
            pages.append(Page(parse_url("http://a.example.com/"), tokens, 0))
        expected = [[oracle_features(page, lex) for page in pages] for lex in sets]
        for page_expected in zip(*expected):
            assert len({tuple(v) for v in page_expected}) == len(sets)
        for _ in range(2):
            for lex, want in zip(sets, expected):
                got = [list(extract_features(page, lex).values) for page in pages]
                assert got == want
