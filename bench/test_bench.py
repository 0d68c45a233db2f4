"""The benchmark's checks catch wrong outputs.

    python3 -m pytest bench/test_bench.py -q

Each test feeds a crawl run one fault through a wrapper around a program
function, then asserts the run is reported incorrect.  The control test
asserts the unchanged program passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def prog():
    return run.Program()


def run_problems(prog, workload: str = "crawl-fresh") -> list[str]:
    """Check pass, warm-up and MIN_ROUNDS timed rounds; the problems found."""
    problems: list[str] = []
    work = run.prepare(prog, workload, SEED, problems)
    _, _, _, failed = run.measure(work, 0.0, problems)
    assert failed == 0
    return problems


def first_url() -> str:
    """URL of the first crawl-fresh page, the page each fault is fed on."""
    return run.gen.crawl_fresh(SEED)[0].url


@pytest.mark.parametrize("workload", ["crawl-fresh", "crawl-revisit"])
def test_unchanged_program_passes(prog, workload):
    assert run_problems(prog, workload) == []


def test_flipped_verdict_fails(prog, monkeypatch):
    pipeline = prog.pipeline
    real = pipeline.filter_page
    target = first_url()
    flipped = {"adult": "safe", "safe": "adult"}

    def flip_one(page, *args, **kwargs):
        verdict, state = real(page, *args, **kwargs)
        if page.url.full_url == target.lower():
            verdict = pipeline.Verdict(flipped[verdict.label], verdict.reason, verdict.score)
        return verdict, state

    monkeypatch.setattr(pipeline, "filter_page", flip_one)
    problems = run_problems(prog)
    assert any("verdict" in p for p in problems), problems


def test_feature_count_off_by_one_fails(prog, monkeypatch):
    features, pipeline = prog.features, prog.pipeline
    real = features.extract_features
    target = first_url()
    slot = features.ATTRIBUTE_NAMES.index("nb_tags-en")

    def off_by_one(page, lexicons):
        fv = real(page, lexicons)
        if page.url.full_url == target.lower():
            values = list(fv.values)
            values[slot] += 1.0
            fv = features.FeatureVector(tuple(values))
        return fv

    monkeypatch.setattr(features, "extract_features", off_by_one)
    monkeypatch.setattr(pipeline, "extract_features", off_by_one)
    problems = run_problems(prog)
    assert any("nb_tags-en" in p for p in problems), problems


def test_dropped_token_fails(prog, monkeypatch):
    page_mod = prog.page
    real = page_mod.extract_text
    target_html = run.gen.crawl_fresh(SEED)[0].html

    def drop_one(html):
        tokens, images = real(html)
        if html == target_html:
            tokens = tokens[:5] + tokens[6:]
        return tokens, images

    monkeypatch.setattr(page_mod, "extract_text", drop_one)
    problems = run_problems(prog)
    assert any("extract_text words differ" in p for p in problems), problems
