"""Every demo script runs to completion against the source tree and
prints what its golden file under tests/golden/ holds."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """python3 *args against the source tree."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@functools.cache
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    return run_python(str(demo))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_matches_golden(demo):
    golden = (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert run_demo(demo).stdout == golden


def test_readme_library_snippet_runs():
    """The one Python block under the README's Library heading runs, so a
    renamed or removed export cannot leave it stale."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    result = run_python("-c", blocks[0])
    assert result.returncode == 0, result.stderr
