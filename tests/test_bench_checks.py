"""The benchmark's own correctness checks pass on every workload.

bench/run.py checks each workload's outputs (verdicts, stage counts,
trained models and their reported error, generated corpora) against
bench/reference.py before it times anything.  Running those checks here
makes a change that alters any of them fail the test suite, not only a
benchmark run.  The crawl-revisit pass also shows that the pages its
blacklist stops are never stripped of their markup.  Every function a
trace shim wraps must still exist, or a traced run loses that layer.
"""

import sys
from pathlib import Path

import pytest

from helpers import count_extract_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.Program()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_benchmark_checks_pass(prog, workload):
    assert run.make_workload(prog, workload, 1).check() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_trace_shims_find_their_targets(prog, workload):
    tracer = run.Tracer()
    run.make_workload(prog, workload, 1).install(tracer)
    tracer.unpatch()
    assert tracer.missing == []


def test_crawl_revisit_strips_only_pages_past_the_blacklist(prog, monkeypatch):
    workload = run.make_workload(prog, "crawl-revisit", 1)
    calls = count_extract_text(monkeypatch)
    (_, counts, _), _ = workload.batch_pass()
    assert counts["blacklist"] > len(workload.pages) // 3
    assert len(calls) == len(workload.pages) - counts["blacklist"]
