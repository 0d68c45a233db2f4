from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import pytest

from helpers import loop_generate_corpus
from safeindex import ADULT, SAFE, Page, extract_features, iter_corpus, load_lexicon_set, parse_url
from safeindex.lexicon import CONTENT_LEXICON_NAMES, REFERENCE_SIZES
from safeindex.pipeline import has_disclaimer
from safeindex.synth import (
    _vocabulary,
    generate_corpus,
    generate_lexicon_materials,
    write_corpus,
    write_lexicon_files,
)

BUNDLED_LEXICONS = Path(str(files("safeindex").joinpath("data/lexicons")))


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
