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
    nb_metric,
    page_from_html,
    parse_url,
    prop_metric,
    ratio_metric,
    substring_hits,
)

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


class TestTokenMetrics:
    LEX = Lexicon(
        "x", frozenset({"hot", "teen", "hot teen", "mia vex", "teen hot teen"})
    )

    def test_nb_counts_multiplicity_and_overlaps(self):
        tokens = ("hot", "teen", "hot", "teen")
        # hot x2, teen x2, "hot teen" x2, "teen hot" not a term,
        # "teen hot teen" once (overlapping the singles and the pair)
        assert nb_metric(tokens, self.LEX) == 7

    def test_ratio_counts_distinct_terms(self):
        tokens = ("hot", "plain", "hot")
        assert ratio_metric(tokens, self.LEX) == pytest.approx(1 / 5)

    def test_prop_counts_covered_positions(self):
        tokens = ("plain", "hot", "word", "mia", "vex")
        assert prop_metric(tokens, self.LEX) == pytest.approx(3 / 5)

    def test_empty_stream(self):
        assert nb_metric((), self.LEX) == 0
        assert ratio_metric((), self.LEX) == 0.0
        assert prop_metric((), self.LEX) == 0.0

    def test_phrase_must_be_contiguous(self):
        assert nb_metric(("mia", "plain", "vex"), self.LEX) == 0

    @given(TOKEN_STREAMS)
    def test_metrics_match_oracle(self, tokens):
        assert nb_metric(tokens, self.LEX) == oracle_nb(tokens, self.LEX)
        assert ratio_metric(tokens, self.LEX) == pytest.approx(
            oracle_ratio(tokens, self.LEX)
        )
        assert prop_metric(tokens, self.LEX) == pytest.approx(
            oracle_prop(tokens, self.LEX)
        )

    @given(TOKEN_STREAMS)
    def test_bounds(self, tokens):
        assert 0 <= ratio_metric(tokens, self.LEX) <= 1
        assert 0 <= prop_metric(tokens, self.LEX) <= 1
        assert nb_metric(tokens, self.LEX) >= 0

    @given(st.lists(WORDS, max_size=20), st.randoms(use_true_random=False))
    def test_ratio_is_order_invariant(self, tokens, rnd):
        lex = Lexicon("singles", frozenset({"hot", "teen", "mia"}))
        shuffled = list(tokens)
        rnd.shuffle(shuffled)
        assert ratio_metric(tuple(tokens), lex) == ratio_metric(tuple(shuffled), lex)

    @given(st.lists(WORDS, min_size=1, max_size=20).map(tuple))
    def test_duplication_doubles_nb_for_single_word_terms(self, tokens):
        lex = Lexicon("singles", frozenset({"hot", "teen", "mia"}))
        assert nb_metric(tokens + tokens, lex) == 2 * nb_metric(tokens, lex)


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
