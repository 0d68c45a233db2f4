"""The benchmark's own correctness checks pass on every workload.

bench/run.py checks each workload's outputs (verdicts, stage counts,
trained models and their reported error, generated corpora) against
bench/reference.py before it times anything.  Running those checks here
makes a change that alters any of them fail the test suite, not only a
benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.Program()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_benchmark_checks_pass(prog, workload):
    assert run.make_workload(prog, workload, 1).check() == []
