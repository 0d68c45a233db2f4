import copy
import dataclasses
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safeindex.pipeline

from safeindex import (
    ADULT,
    SAFE,
    FeatureVector,
    FilterState,
    Forest,
    Leaf,
    Page,
    Verdict,
    build_safe_index,
    extract_features,
    filter_page,
    load_blacklist,
    page_from_html,
    parse_url,
    save_blacklist,
    train_forest,
)
from safeindex.errors import MalformedUrlError
from safeindex.lexicon import TermMatcher
from safeindex.page import PageLoadFailure, extract_text
from safeindex.synth import generate_corpus, render_html
from safeindex.pipeline import (
    REASON_BLACKLIST,
    REASON_DISCLAIMER,
    REASON_FOREST,
    REASON_TLD_XXX,
    has_disclaimer,
)

from helpers import count_extract_text, make_lexicon_set

ADULT_FOREST = Forest((Leaf(ADULT),))
SAFE_FOREST = Forest((Leaf(SAFE),))


def page(url, tokens=(), images=0, label=None):
    return Page(parse_url(url), tuple(tokens), images, label)


@pytest.fixture
def tiny_lexicons():
    return make_lexicon_set(
        disclaimer=("you must be 18", "adults only"),
    )


class TestHasDisclaimer:
    LEXICONS = make_lexicon_set(disclaimer=("you must be 18",))

    def flagged(self, tokens, lexicons=LEXICONS):
        return has_disclaimer(extract_features(page("http://site.com/", tokens), lexicons))

    def test_contiguous_match(self):
        assert self.flagged(("warning", "you", "must", "be", "18", "to", "enter"))

    def test_non_contiguous_is_no_match(self):
        assert not self.flagged(("you", "really", "must", "be", "18"))

    def test_empty_phrases_never_give_a_disclaimer_verdict(self):
        lexicons = make_lexicon_set(disclaimer=())
        tokens = ("you", "must", "be", "18")
        assert not self.flagged(tokens, lexicons)
        verdict, _ = filter_page(
            page("http://site.com/", tokens), ADULT_FOREST, lexicons, FilterState()
        )
        assert verdict == Verdict(ADULT, REASON_FOREST, 1.0)

    def test_flag_is_not_an_attribute(self):
        fv = extract_features(page("http://site.com/", ("you", "must", "be", "18")), self.LEXICONS)
        stored = FeatureVector(fv.values)
        assert has_disclaimer(fv) and not has_disclaimer(stored)
        assert fv == stored and hash(fv) == hash(stored) and repr(fv) == repr(stored)

    def test_phrase_word_that_is_a_content_term(self):
        lexicons = make_lexicon_set({"en-words": {"you"}}, disclaimer=("you must be 18",))
        p = page("http://site.com/", ("you", "must", "be", "18", "you"))
        assert extract_features(p, lexicons)["nb_en-words"] == 2.0
        verdict, _ = filter_page(p, SAFE_FOREST, lexicons, FilterState())
        assert verdict == Verdict(ADULT, REASON_DISCLAIMER)


class TestOneScanPerPage:
    """filter_page scans a page's tokens once past the blacklist, never
    before it."""

    @pytest.mark.parametrize(
        "url, tokens, scans, reason",
        [
            ("http://site.com/1", ("harmless", "words"), 1, REASON_FOREST),
            ("http://site.com/1", ("adults", "only"), 1, REASON_DISCLAIMER),
            ("http://site.xxx/1", ("harmless", "words"), 1, REASON_TLD_XXX),
            ("http://banned.com/1", ("adults", "only"), 0, REASON_BLACKLIST),
        ],
    )
    def test_scan_calls(self, tiny_lexicons, monkeypatch, url, tokens, scans, reason):
        calls = []
        real_scan = TermMatcher.scan

        def counting(matcher, stream):
            calls.append(stream)
            return real_scan(matcher, stream)

        monkeypatch.setattr(TermMatcher, "scan", counting)
        state = FilterState(blacklist={"banned.com"})
        verdict, _ = filter_page(page(url, tokens), SAFE_FOREST, tiny_lexicons, state)
        assert verdict.reason == reason
        assert len(calls) == scans


class TestStageOrder:
    def test_blacklist_wins_over_everything(self, tiny_lexicons):
        state = FilterState(blacklist={"bad.xxx"})
        p = page("http://www.bad.xxx/1", ("you", "must", "be", "18"))
        verdict, _ = filter_page(p, SAFE_FOREST, tiny_lexicons, state)
        assert verdict == Verdict(ADULT, REASON_BLACKLIST)

    def test_disclaimer_before_tld(self, tiny_lexicons):
        p = page("http://site.xxx/1", ("adults", "only", "here"))
        verdict, _ = filter_page(p, SAFE_FOREST, tiny_lexicons, FilterState())
        assert verdict.reason == REASON_DISCLAIMER

    def test_tld_before_forest(self, tiny_lexicons):
        p = page("http://site.xxx/1", ("harmless", "words"))
        verdict, _ = filter_page(p, SAFE_FOREST, tiny_lexicons, FilterState())
        assert verdict == Verdict(ADULT, REASON_TLD_XXX)

    def test_forest_is_last_resort(self, tiny_lexicons):
        p = page("http://site.com/1", ("harmless", "words"))
        verdict, _ = filter_page(p, SAFE_FOREST, tiny_lexicons, FilterState())
        assert verdict.label == SAFE
        assert verdict.reason == REASON_FOREST
        assert verdict.score == 0.0

    def test_forest_score_reported(self, tiny_lexicons):
        p = page("http://site.com/1", ("words",))
        verdict, _ = filter_page(p, ADULT_FOREST, tiny_lexicons, FilterState())
        assert verdict == Verdict(ADULT, REASON_FOREST, 1.0)


class TestBlacklistTrigger:
    @pytest.mark.parametrize(
        "trigger, message",
        [(0, "must be >= 1"), (-2, "must be >= 1"), ("three", "must be an integer"),
         (2.7, "must be an integer"), (True, "must be an integer"), (None, "must be an integer")],
    )
    def test_invalid_trigger_is_a_config_error(self, trigger, message):
        with pytest.raises(ValueError, match=f"blacklist_trigger {message}"):
            FilterState(blacklist_trigger=trigger)

    def test_three_strikes_blacklists_the_domain(self, tiny_lexicons):
        state = FilterState(blacklist_trigger=3)
        for i in range(3):
            p = page(f"http://www.bad.com/{i}")
            verdict, state = filter_page(p, ADULT_FOREST, tiny_lexicons, state)
            assert verdict.reason == REASON_FOREST
        assert "bad.com" in state.blacklist

        verdict, state = filter_page(
            page("http://other.bad.com/new"), ADULT_FOREST, tiny_lexicons, state
        )
        assert verdict.reason == REASON_BLACKLIST

    def test_repeated_url_counts_once(self, tiny_lexicons):
        state = FilterState(blacklist_trigger=3)
        for _ in range(5):
            _, state = filter_page(
                page("http://www.bad.com/same"), ADULT_FOREST, tiny_lexicons, state
            )
        assert state.unsafe_counts["bad.com"] == 1
        assert "bad.com" not in state.blacklist

    def test_safe_verdicts_do_not_count(self, tiny_lexicons):
        state = FilterState(blacklist_trigger=1)
        _, state = filter_page(
            page("http://fine.com/1"), SAFE_FOREST, tiny_lexicons, state
        )
        assert state.unsafe_counts == {}
        assert state.blacklist == set()

    def test_blacklisted_domain_stops_counting(self, tiny_lexicons):
        state = FilterState(blacklist_trigger=3)
        for i in range(5):
            _, state = filter_page(
                page(f"http://bad.com/{i}"), ADULT_FOREST, tiny_lexicons, state
            )
        assert state.blacklist == {"bad.com"}
        assert state.unsafe_counts == {"bad.com": 3}
        assert state.counted_urls == {f"http://bad.com/{i}" for i in range(3)}

    def test_preloaded_domain_never_enters_unsafe_counts(self, tiny_lexicons):
        state = FilterState(blacklist={"bad.com"}, blacklist_trigger=3)
        for i in range(3):
            verdict, state = filter_page(
                page(f"http://bad.com/{i}"), ADULT_FOREST, tiny_lexicons, state
            )
            assert verdict.reason == REASON_BLACKLIST
        assert state.unsafe_counts == {}
        assert state.counted_urls == set()


class TestBuildSafeIndex:
    def test_index_keeps_safe_urls_in_order(self, tiny_lexicons):
        pages = [
            page("http://a.com/1"),
            page("http://b.xxx/1"),
            page("http://c.com/1"),
        ]
        index, report, _ = build_safe_index(pages, SAFE_FOREST, tiny_lexicons)
        assert index == ["http://a.com/1", "http://c.com/1"]
        # the CLI's JSON reports keep this key order
        assert list(report.as_dict()) == [
            "blacklist", "disclaimer", "tld_xxx", "forest_adult", "forest_safe", "skipped",
        ]
        assert report.as_dict() == {
            "blacklist": 0,
            "disclaimer": 0,
            "tld_xxx": 1,
            "forest_adult": 0,
            "forest_safe": 2,
            "skipped": 0,
        }

    def test_counts_every_stage(self, tiny_lexicons):
        pages = [
            PageLoadFailure("x.html", "http://x.com/1", "boom"),
            page("http://a.com/1", ("adults", "only")),
            page("http://b.xxx/1"),
            page("http://c.com/1"),
            page("http://d.com/1"),
        ]
        state = FilterState(blacklist={"d.com"})
        index, report, _ = build_safe_index(pages, ADULT_FOREST, tiny_lexicons, state)
        assert index == []
        assert report.as_dict() == {
            "blacklist": 1,
            "disclaimer": 1,
            "tld_xxx": 1,
            "forest_adult": 1,
            "forest_safe": 0,
            "skipped": 1,
        }

    def test_self_updating_blacklist_mid_stream(self, tiny_lexicons):
        pages = [page(f"http://bad.com/{i}") for i in range(5)]
        state = FilterState(blacklist_trigger=3)
        _, report, state = build_safe_index(pages, ADULT_FOREST, tiny_lexicons, state)
        # first three via the forest, the rest short-circuit
        assert report.forest_adult == 3
        assert report.blacklist == 2
        assert "bad.com" in state.blacklist

    def test_replay_is_deterministic(self, tiny_lexicons):
        pages = [
            page(f"http://{host}.com/{i}")
            for host in ("a", "b", "a", "c")
            for i in range(3)
        ]
        run1 = build_safe_index(pages, ADULT_FOREST, tiny_lexicons, FilterState())
        run2 = build_safe_index(pages, ADULT_FOREST, tiny_lexicons, FilterState())
        assert run1[0] == run2[0]
        assert run1[1].as_dict() == run2[1].as_dict()
        assert run1[2].blacklist == run2[2].blacklist


class TestShortCircuitCost:
    """A short-circuit verdict is a shared instance: the blacklist,
    disclaimer and .xxx stages build no Verdict, the forest one per page."""

    def test_only_forest_pages_build_a_verdict(self, tiny_lexicons, monkeypatch):
        made = []

        class CountingVerdict(Verdict):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(safeindex.pipeline, "Verdict", CountingVerdict)
        pages = [
            *(page(f"http://banned.com/{i}", ("harmless",)) for i in range(4)),
            *(page(f"http://gate{i}.com/1", ("adults", "only")) for i in range(3)),
            *(page(f"http://site{i}.xxx/1", ("harmless",)) for i in range(3)),
            page("http://fine.com/1", ("harmless",)),
            page("http://fine.com/2", ("harmless",)),
        ]
        state = FilterState(blacklist={"banned.com"})
        _, report, _ = build_safe_index(pages, SAFE_FOREST, tiny_lexicons, state)
        assert (report.blacklist, report.disclaimer, report.tld_xxx, report.forest_safe) == (4, 3, 3, 2)
        assert made == [(SAFE, REASON_FOREST, 0.0)] * 2

    def test_blacklisted_page_shares_its_verdict_and_changes_no_state(self, tiny_lexicons):
        state = FilterState(blacklist={"banned.com"}, unsafe_counts={"other.com": 1},
                            counted_urls={"http://other.com/1"})
        before = copy.deepcopy(state)
        first, state = filter_page(page("http://banned.com/1"), ADULT_FOREST, tiny_lexicons, state)
        second, state = filter_page(page("http://www.banned.com/2"), ADULT_FOREST, tiny_lexicons, state)
        assert first is second
        assert first == Verdict(ADULT, REASON_BLACKLIST)
        assert state == before


class TestStrippingOnDemand:
    def test_only_pages_past_the_blacklist_are_stripped(self, tiny_lexicons, monkeypatch):
        calls = count_extract_text(monkeypatch)
        stream = (
            # already blacklisted: decided from the URL
            [(f"http://banned.com/{i}", f"<p>anything {i}</p>") for i in range(3)]
            # three disclaimer verdicts blacklist it mid-stream
            + [(f"http://self.com/{i}", f"<p>adults only {i}</p>") for i in range(5)]
            # stops at the .xxx stage, after the page's one scan
            + [(f"http://site.xxx/{i}", f"<p>plain {i}</p>") for i in range(2)]
            + [(f"http://fine.org/{i}", f"<p>plain {i}</p>") for i in range(2)]
        )
        pages = [page_from_html(url, html) for url, html in stream]
        assert calls == []
        state = FilterState(blacklist={"banned.com"})
        index, report, state = build_safe_index(pages, SAFE_FOREST, tiny_lexicons, state)
        assert report.as_dict() == {
            "blacklist": 5, "disclaimer": 3, "tld_xxx": 2,
            "forest_adult": 0, "forest_safe": 2, "skipped": 0,
        }
        assert index == ["http://fine.org/0", "http://fine.org/1"]
        assert "self.com" in state.blacklist
        # one strip per page past the blacklist, none twice
        assert len(calls) == len(pages) - report.blacklist
        parsed = stream[3:6] + stream[8:]  # self.com's first three, then the rest
        assert calls == [html for _, html in parsed]

    def test_deferred_pages_filter_like_eager_pages(self, lexicons):
        train = generate_corpus(lexicons, 60, 30, seed=1)
        forest, _ = train_forest(
            [extract_features(p, lexicons) for p in train], [p.label for p in train]
        )
        corpus = generate_corpus(
            lexicons, 80, 50, seed=2, url_prefix="d",
            xxx_fraction=0.3, disclaimer_fraction=0.3,
        )
        # adult pages share five domains, so some of them get blacklisted
        corpus = [
            dataclasses.replace(
                p, url=parse_url(f"http://host{i % 5}.{p.url.tld}/{i}")
            ) if p.label == ADULT else p
            for i, p in enumerate(corpus)
        ]
        rows = [(p.url.full_url, render_html(p), p.label) for p in corpus]
        eager = [Page(parse_url(u), *extract_text(h), label) for u, h, label in rows]
        deferred = [page_from_html(u, h, label) for u, h, label in rows]

        def run(pages):
            state = FilterState()
            verdicts = []
            for p in pages:
                verdict, state = filter_page(p, forest, lexicons, state)
                verdicts.append(verdict)
            index, report, final = build_safe_index(pages, forest, lexicons)
            assert final == state
            return verdicts, index, report, final

        expected = run(eager)
        assert expected[2].blacklist > 0
        assert expected[2].disclaimer > 0
        assert expected[2].tld_xxx > 0
        assert run(deferred) == expected


class TestBlacklistIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "blacklist.txt"
        save_blacklist({"b.com", "a.com"}, path)
        assert path.read_text(encoding="utf-8") == "a.com\nb.com\n"
        assert load_blacklist(path) == {"a.com", "b.com"}

    @settings(max_examples=300, deadline=None)
    @given(st.text(string.ascii_lowercase[:6] + "XYZ019.-:@[]_éΣİẞ \t\u3000\u200b\ufeff\x85",
                   min_size=1, max_size=12))
    def test_every_parsed_domain_survives_a_round_trip(self, tmp_path_factory, host):
        """A domain that gathers strikes must be the same key after a restart,
        so a host the blacklist file would change is a malformed URL."""
        try:
            domain = parse_url(f"http://{host}/1").registrable_domain
        except MalformedUrlError:
            return
        path = tmp_path_factory.getbasetemp() / "round-trip-blacklist.txt"
        save_blacklist({domain}, path)
        assert load_blacklist(path) == {domain}

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "blacklist.txt"
        path.write_text("# header\n\nBad.COM\n  spaced.net  \n", encoding="utf-8")
        assert load_blacklist(path) == {"bad.com", "spaced.net"}
