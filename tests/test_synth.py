import math
import re
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from helpers import _loop_unique_words, loop_generate_corpus
from safeindex import ADULT, SAFE, Page, extract_features, iter_corpus, load_lexicon_set, parse_url
from safeindex.lexicon import CONTENT_LEXICON_NAMES, REFERENCE_SIZES
from safeindex.pipeline import has_disclaimer
from safeindex.synth import (
    _SYLLABLES,
    _unique_words,
    _vocabulary,
    generate_corpus,
    generate_lexicon_materials,
    write_corpus,
    write_lexicon_files,
)

BUNDLED_LEXICONS = Path(str(files("safeindex").joinpath("data/lexicons")))
# taken beforehand, these reject a third of the words _unique_words builds
TWO_SYLLABLE_WORDS = frozenset(a + b for a in _SYLLABLES for b in _SYLLABLES)


class TestLexiconGeneration:
    def test_write_produces_loadable_set_with_reference_sizes(self, tmp_path):
        manifest = write_lexicon_files(tmp_path, seed=99)
        lexicons = load_lexicon_set(manifest)
        for name in CONTENT_LEXICON_NAMES:
            assert len(lexicons.content[name]) == REFERENCE_SIZES[name]
        assert len(lexicons.url_terms) == REFERENCE_SIZES["in-url"]
        assert lexicons.disclaimer_phrases

    def test_deterministic(self):
        assert generate_lexicon_materials(5) == generate_lexicon_materials(5)

    def test_different_seeds_differ(self):
        a = generate_lexicon_materials(5)
        b = generate_lexicon_materials(6)
        assert a["tags-en"] != b["tags-en"]

    def test_default_seed_reproduces_the_bundled_files(self, tmp_path):
        # pins the order of every draw in the word generator
        write_lexicon_files(tmp_path)
        bundled = sorted(p.name for p in BUNDLED_LEXICONS.iterdir() if p.is_file())
        assert sorted(p.name for p in tmp_path.iterdir()) == bundled
        for name in bundled:
            assert (tmp_path / name).read_bytes() == (BUNDLED_LEXICONS / name).read_bytes()


class TestCorpusGeneration:
    def test_labels_counts_and_unique_urls(self, lexicons):
        pages = generate_corpus(lexicons, 30, 12, seed=4)
        assert len(pages) == 30
        assert sum(1 for p in pages if p.label == ADULT) == 12
        assert all(p.label == ADULT for p in pages[:12])
        assert all(p.label == SAFE for p in pages[12:])
        assert len({p.url.full_url for p in pages}) == 30

    def test_deterministic(self, lexicons):
        assert generate_corpus(lexicons, 10, 5, seed=4) == generate_corpus(
            lexicons, 10, 5, seed=4
        )

    def test_disclaimer_and_xxx_fractions(self, lexicons):
        pages = generate_corpus(
            lexicons, 10, 6, seed=4, xxx_fraction=1.0, disclaimer_fraction=1.0
        )
        for p in pages[:6]:
            assert p.url.tld == "xxx"
            assert has_disclaimer(extract_features(p, lexicons))
        for p in pages[6:]:
            assert p.url.tld == "com"

    def test_url_prefix_namespaces(self, lexicons):
        a = generate_corpus(lexicons, 6, 3, seed=4)
        b = generate_corpus(lexicons, 6, 3, seed=4, url_prefix="t")
        assert {p.url.full_url for p in a}.isdisjoint(p.url.full_url for p in b)

    def test_write_corpus_round_trips(self, lexicons, tmp_path):
        pages = generate_corpus(lexicons, 8, 4, seed=4, disclaimer_fraction=0.5)
        manifest = write_corpus(pages, tmp_path)
        loaded = [p for p in iter_corpus(manifest) if isinstance(p, Page)]
        assert len(loaded) == len(pages)
        for original, read_back in zip(pages, loaded):
            assert read_back.url == original.url
            assert read_back.tokens == original.tokens
            assert read_back.image_count == original.image_count
            assert read_back.label == original.label

    def test_write_corpus_quotes_urls(self, lexicons, tmp_path):
        urls = ["http://a.com/x,y", 'http://b.com/say"hi"', 'http://c.com/a,"b",c']
        pages = [
            replace(page, url=parse_url(url))
            for page, url in zip(generate_corpus(lexicons, 3, 1, seed=4), urls)
        ]
        manifest = write_corpus(pages, tmp_path)
        loaded = list(iter_corpus(manifest))
        assert [p.url for p in loaded] == [p.url for p in pages]
        assert [p.label for p in loaded] == [p.label for p in pages]


class TestCountArguments:
    @pytest.mark.parametrize("n_pages, n_adult", [(5, 6), (5, -1), (-1, 0)])
    def test_impossible_counts_raise(self, lexicons, n_pages, n_adult):
        with pytest.raises(ValueError, match=f"n_adult={n_adult}, n_pages={n_pages}"):
            generate_corpus(lexicons, n_pages, n_adult, seed=0)

    @pytest.mark.parametrize("n_pages, n_adult", [(0, 0), (3, 0), (3, 3)])
    def test_edge_counts_are_kept(self, lexicons, n_pages, n_adult):
        pages = generate_corpus(lexicons, n_pages, n_adult, seed=0)
        assert [p.label for p in pages] == [ADULT] * n_adult + [SAFE] * (n_pages - n_adult)

    @pytest.mark.parametrize("value", [-1, -0.01, 1.01, 3.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["overlap", "xxx_fraction", "disclaimer_fraction"])
    def test_fraction_outside_0_1_raises(self, lexicons, name, value):
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            generate_corpus(lexicons, 4, 2, seed=0, **{name: value})

    @pytest.mark.parametrize("name", ["overlap", "xxx_fraction", "disclaimer_fraction"])
    def test_fraction_bounds_are_kept(self, lexicons, name):
        for value in (0, 1):
            assert len(generate_corpus(lexicons, 4, 2, seed=0, **{name: value})) == 4

    @pytest.mark.parametrize("prefix", [5, None, b"t", "a\nb", "t\r", "a\u2028b"])
    def test_url_prefix_must_be_a_str_without_a_line_break(self, lexicons, prefix, monkeypatch):
        """Refused before any draw: 5 built http://…/5a0, and "a\\nb" was a
        MalformedUrlError from the page loop."""
        monkeypatch.setattr(np.random, "default_rng", None)  # so no generator can be made
        message = f"^url_prefix must be a str without a line break, got {re.escape(repr(prefix))}$"
        with pytest.raises(ValueError, match=message):
            generate_corpus(lexicons, 3, 1, seed=0, url_prefix=prefix)

    def test_overlap_0_puts_one_term_on_each_safe_page(self, lexicons):
        terms = set().union(*lexicons.content.values())
        pages = generate_corpus(lexicons, 6, 0, seed=3, overlap=0)
        assert all(sum(t in terms for t in p.tokens) >= 1 for p in pages)


class CountingGenerator:
    """A numpy Generator that counts its method calls.  With `corrupt` =
    (k, i) it also changes element i of the k-th sized `integers` draw to
    another value in its range, as a rejection inside numpy's bounded
    draw would change a guessed value."""

    def __init__(self, rng, corrupt=None):
        self._rng = rng
        self._corrupt = corrupt
        self.calls = 0
        self.sized = 0
        self.scalar_integers = 0

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def integers(self, low, high=None, size=None):
        out = self._rng.integers(low, high, size=size)
        if size is None:
            self.scalar_integers += np.ndim(high) == 0
        else:
            if self._corrupt and self._corrupt[0] == self.sized:
                i = self._corrupt[1]
                out[i] = low + (out[i] - low + 1) % (high - low)
            self.sized += 1
        self.calls += 1
        return out

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counting(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counting


class TestUniqueWordsEqualLoop:
    """_unique_words draws the loop's words in bulk; the words, the taken
    set and the generator afterwards must equal the loop's."""

    @staticmethod
    def assert_same(rng, ref, got, want, taken, ref_taken):
        assert got == want
        assert taken == ref_taken
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    @pytest.mark.parametrize("seed", range(40))
    def test_fresh_taken(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        taken, ref_taken = {"baba", "kokoko"}, {"baba", "kokoko"}
        got = _unique_words(rng, 900, taken)
        self.assert_same(rng, ref, got, _loop_unique_words(ref, 900, ref_taken), taken, ref_taken)

    @pytest.mark.parametrize("seed", range(4))
    def test_successive_calls_share_taken(self, seed):
        # as generate_lexicon_materials draws its lists; with the
        # two-syllable words taken, blocks run out before the words still
        # needed are built
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for start in (set(), TWO_SYLLABLE_WORDS):
            taken, ref_taken = set(start), set(start)
            for n in (1, 60, 0, 5, 300, 2, 150):
                got = _unique_words(rng, n, taken)
                want = _loop_unique_words(ref, n, ref_taken)
                self.assert_same(rng, ref, got, want, taken, ref_taken)

    @pytest.mark.parametrize("corrupt", [(0, 0), (1, 1), (1, 57), (2, 0)], ids=[
        "first length", "first syllable", "later syllable", "second round length",
    ])
    def test_a_wrong_guess_falls_back_to_one_scalar_word(self, corrupt):
        rng, ref = CountingGenerator(np.random.default_rng(3), corrupt), np.random.default_rng(3)
        taken, ref_taken = set(TWO_SYLLABLE_WORDS), set(TWO_SYLLABLE_WORDS)
        got = _unique_words(rng, 40, taken)
        assert rng.sized > corrupt[0] and rng.scalar_integers > 0
        want = _loop_unique_words(ref, 40, ref_taken)
        self.assert_same(rng, ref, got, want, taken, ref_taken)


class TestCorpusCost:
    @pytest.mark.parametrize("seed, overlap", [(8, 0.3), (9, 0.3), (12, 0.1), (15, 0.1)])
    def test_generator_calls_per_corpus(self, monkeypatch, lexicons, seed, overlap):
        # about ten calls per adult page, six per safe page and three per
        # block of the neutral pool (177-180 in all on these calls); a pool
        # drawn one word at a time costs about 3800 more
        made, default_rng = [], np.random.default_rng

        def counting_rng(seed):
            made.append(CountingGenerator(default_rng(seed)))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        pages = generate_corpus(lexicons, 20, 10, seed=seed, overlap=overlap)
        monkeypatch.undo()
        assert pages == loop_generate_corpus(lexicons, 20, 10, seed=seed, overlap=overlap)
        assert len(made) == 1
        assert made[0].calls <= 200


class TestCorpusEqualsLoopReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_grid(self, lexicons, seed):
        for overlap in (0.0, 0.1, 0.3):
            for extra in ({}, {"xxx_fraction": 0.3, "disclaimer_fraction": 0.5, "url_prefix": "t"}):
                args = (lexicons, 20, 10)
                kwargs = {"seed": seed, "overlap": overlap, **extra}
                assert generate_corpus(*args, **kwargs) == loop_generate_corpus(*args, **kwargs)

    def test_large_corpus(self, lexicons):
        args = (lexicons, 1153, 553)
        kwargs = {"seed": 5, "overlap": 0.3}
        assert generate_corpus(*args, **kwargs) == loop_generate_corpus(*args, **kwargs)


class TestVocabularyCache:
    @staticmethod
    def _key(lexicons):
        return (
            tuple(lexicons.content[name] for name in CONTENT_LEXICON_NAMES),
            lexicons.url_terms,
        )

    def test_alternating_lexicon_sets(self, lexicons, tmp_path):
        other = load_lexicon_set(write_lexicon_files(tmp_path, seed=99))
        # sets that differ from the bundled one in a single list catch a
        # cache keyed on only some of the lists
        one_list = replace(lexicons, content={**lexicons.content, "tags-fr": other.content["tags-fr"]})
        url_only = replace(lexicons, url_terms=other.url_terms)
        for seed, lex in enumerate([lexicons, other, one_list, lexicons, url_only, other, one_list]):
            assert generate_corpus(lex, 12, 6, seed=seed % 2, overlap=0.3) == loop_generate_corpus(
                lex, 12, 6, seed=seed % 2, overlap=0.3
            )

    def test_equal_content_shares_one_entry(self, tmp_path):
        manifest = write_lexicon_files(tmp_path, seed=7)
        first, second = load_lexicon_set(manifest), load_lexicon_set(manifest)
        assert first is not second
        assert generate_corpus(first, 12, 6, seed=3) == generate_corpus(second, 12, 6, seed=3)
        assert _vocabulary(*self._key(first)) is _vocabulary(*self._key(second))

    def test_cached_forbidden_words_are_not_extended(self, lexicons):
        vocabulary = _vocabulary(*self._key(lexicons))
        assert isinstance(vocabulary.forbidden, frozenset)
        size = len(vocabulary.forbidden)
        generate_corpus(lexicons, 6, 3, seed=8)
        assert _vocabulary(*self._key(lexicons)) is vocabulary
        assert len(vocabulary.forbidden) == size
