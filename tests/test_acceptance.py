"""End-to-end acceptance checks for the filter.

Each test prints one PASS/FAIL line in the pytest terminal summary via
the hook in conftest.py.
"""

import functools
import hashlib
import random
import time

import numpy as np
import pytest

import conftest
from safeindex import (
    ADULT,
    SAFE,
    ATTRIBUTE_NAMES,
    ConfusionMatrix,
    FilterState,
    Forest,
    Leaf,
    Page,
    TrainConfig,
    Verdict,
    classify,
    count_threshold,
    extract_features,
    filter_page,
    forest_votes,
    metrics,
    page_from_html,
    parse_url,
    score_run,
    train_forest,
)
from safeindex.forest import best_split, forest_from_json, forest_to_json, leaf_label
from safeindex.pipeline import REASON_BLACKLIST, REASON_FOREST
from safeindex.synth import generate_corpus

from fixture_docs import DOCS, FIXTURE_LEXICONS
from helpers import (
    make_lexicon_set,
    oracle_features,
    oracle_split_candidates,
    oracle_tree_classify,
    random_tree,
    random_vector,
    vote_forest,
)


def criterion(num, description):
    """Record one PASS/FAIL summary line per acceptance test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.record_criterion(f"FAIL criterion {num}: {description}")
                raise
            conftest.record_criterion(f"PASS criterion {num}: {description}")

        return wrapper

    return decorate


@criterion(1, "reference confusion matrix reproduces the published rates")
def test_reference_metrics():
    scores = metrics(ConfusionMatrix(tp=821, fn=18, fp=14, tn=300))
    assert round(scores["miss_rate"] * 100, 2) == 2.15
    assert round(scores["accuracy"] * 100, 2) == 97.22
    assert round(scores["recall"] * 100, 2) == 97.85
    assert round(scores["precision"] * 100, 2) == 98.32


@criterion(2, "majority vote is strict and the count threshold shifts it")
def test_vote_thresholds():
    fv = random_vector(random.Random(0))
    # default 0.5 threshold: 6 of 10 is adult, 5 of 10 is not
    assert classify(vote_forest(6, 10), fv) == ADULT
    assert classify(vote_forest(5, 10), fv) == SAFE
    # lowered threshold: 3 votes suffice, 2 do not
    thr = count_threshold(10, 3)
    assert classify(vote_forest(3, 10, thr), fv) == ADULT
    assert classify(vote_forest(2, 10, thr), fv) == SAFE


@criterion(3, "separable synthetic corpora train clean and generalize")
def test_synthetic_separation(lexicons):
    start = time.monotonic()
    seed_passes = 0
    for seed in range(10):
        train_pages = generate_corpus(lexicons, 226, 120, seed=seed)
        test_pages = generate_corpus(
            lexicons, 1153, 839, seed=10_000 + seed, url_prefix="t"
        )
        vectors = [extract_features(p, lexicons) for p in train_pages]
        forest, report = train_forest(
            vectors, [p.label for p in train_pages], TrainConfig(rng_seed=seed)
        )
        predictions = [
            classify(forest, extract_features(p, lexicons)) for p in test_pages
        ]
        cm = score_run([(p.label, pred) for p, pred in zip(test_pages, predictions)])
        fn_rate = cm.fn / (cm.tp + cm.fn)
        fp_rate = cm.fp / (cm.fp + cm.tn)
        accuracy = metrics(cm)["accuracy"]
        if (
            report.global_training_error == 0.0
            and accuracy >= 0.95
            and fn_rate <= fp_rate
        ):
            seed_passes += 1
    elapsed = time.monotonic() - start
    assert seed_passes >= 8, f"only {seed_passes}/10 seeds passed"
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(4, "split search and tree descent match brute-force oracles")
def test_induction_oracles():
    start = time.monotonic()

    rnd = random.Random(42)
    names = ["a", "b", "c", "d"]
    for _ in range(1000):
        n = rnd.randint(2, 32)
        rows = [
            (
                tuple(float(rnd.randint(0, 4)) for _ in names),
                rnd.random() < 0.5,
                rnd.uniform(0.1, 3.0),
            )
            for _ in range(n)
        ]
        min_leaf = rnd.choice([0.5, 1.0, 2.0])
        X = np.array([v for v, _, _ in rows], dtype=float)
        y = np.array([a for _, a, _ in rows], dtype=bool)
        w = np.array([wt for _, _, wt in rows], dtype=float)
        got = best_split(X, y, w, names, min_leaf)
        ranked = oracle_split_candidates(rows, names, min_leaf)
        if not ranked:
            assert got is None
        else:
            assert got is not None
            assert abs(got.gain_ratio - ranked[0][0]) <= 1e-9
            # identical choice whenever the ranking is not a near-tie
            if len(ranked) == 1 or ranked[0][0] - ranked[1][0] > 1e-6:
                assert (got.attribute, got.threshold) == (ranked[0][2], ranked[0][3])

    rnd = random.Random(43)
    for _ in range(1000):
        tree = random_tree(rnd)
        fv = random_vector(rnd)
        label, names = oracle_tree_classify(tree, fv)
        visited = set()
        assert forest_votes((tree,), fv, visited) == (label == ADULT,)
        assert visited == names

    elapsed = time.monotonic() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"


@criterion(5, "third strike blacklists the domain and skips extraction")
def test_blacklist_short_circuit(monkeypatch):
    import safeindex.pipeline as pipeline_module

    lexicons = make_lexicon_set()
    extractions = {"count": 0}
    real_extract = pipeline_module.extract_features

    def counting_extract(page, lex):
        extractions["count"] += 1
        return real_extract(page, lex)

    monkeypatch.setattr(pipeline_module, "extract_features", counting_extract)

    forest = Forest((Leaf(ADULT),))
    state = FilterState(blacklist_trigger=3)
    for i in range(3):
        page = Page(parse_url(f"http://www.bad.com/{i}"), ("words",), 0)
        verdict, state = filter_page(page, forest, lexicons, state)
        assert verdict.label == ADULT
        assert verdict.reason == REASON_FOREST
    assert extractions["count"] == 3
    assert "bad.com" in state.blacklist

    page = Page(parse_url("http://other.bad.com/next"), ("words",), 0)
    verdict, state = filter_page(page, forest, lexicons, state)
    assert verdict == Verdict(ADULT, REASON_BLACKLIST)
    assert extractions["count"] == 3  # no extraction for the blacklisted page


@criterion(6, "all 36 attributes match an independent oracle on fixtures")
def test_feature_extraction_oracle():
    count_attrs = {"in_url", "in_ndd", "nbr_img"} | {
        n for n in ATTRIBUTE_NAMES if n.startswith("nb_")
    }
    assert len(DOCS) == 20
    for url, doc in DOCS:
        page = page_from_html(url, doc)
        fv = extract_features(page, FIXTURE_LEXICONS)
        expected = oracle_features(page, FIXTURE_LEXICONS)
        for name, got, want in zip(ATTRIBUTE_NAMES, fv.values, expected):
            if name in count_attrs:
                assert got == want, (url, name)
            else:
                assert got == pytest.approx(want, abs=1e-12), (url, name)


@criterion(7, "training is seed-deterministic and survives serialization")
def test_determinism_and_round_trip(lexicons):
    train_pages = generate_corpus(lexicons, 120, 60, seed=0)
    vectors = [extract_features(p, lexicons) for p in train_pages]
    labels = [p.label for p in train_pages]
    config = TrainConfig(rng_seed=3)

    first, _ = train_forest(vectors, labels, config)
    second, _ = train_forest(vectors, labels, config)
    digest = hashlib.sha256(forest_to_json(first).encode()).hexdigest()
    assert hashlib.sha256(forest_to_json(second).encode()).hexdigest() == digest

    restored = forest_from_json(forest_to_json(first))
    test_pages = generate_corpus(lexicons, 200, 90, seed=77, url_prefix="t")
    for page in test_pages:
        fv = extract_features(page, lexicons)
        assert classify(restored, fv) == classify(first, fv)


@criterion(8, "20x miss cost moves the leaf boundary to 1/21 adult mass")
def test_cost_sensitive_leaf_boundary():
    boundary = 1.0 / 21.0
    above = boundary + 1e-9
    below = boundary - 1e-9
    assert leaf_label(above, 1.0 - above, 20.0) == ADULT
    assert leaf_label(below, 1.0 - below, 20.0) == SAFE
    # the exact boundary resolves to safe
    assert leaf_label(1.0, 20.0, 20.0) == SAFE
