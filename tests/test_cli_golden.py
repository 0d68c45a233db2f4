"""`train`, `eval` and `filter` print, write and report byte for byte what
their golden files under tests/golden/cli/ hold.  The corpus there is 30
fixed pages with one bad-label row and one unlabeled row; six adult pages
share a domain, so the staged filter of `eval` and `filter` blacklists it.
`eval-trigger-1` runs `eval` with the config corpus/trigger-1.json, where
the first adult verdict on a domain blacklists it: its forest section is
`eval`'s, and its full-pipeline section and stage report differ.

Run this file as a script to rewrite the golden files from the current
code:  PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from importlib.resources import files
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from safeindex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
CORPUS = str(GOLDEN / "corpus" / "manifest.csv")
LEXICONS = str(files("safeindex").joinpath("data/lexicons/manifest.json"))

# run name -> (arguments, the files it writes in its working directory);
# eval and filter read the model that train's golden file holds, and
# filter starts with no blacklist file
MODEL = str(GOLDEN / "train.model.json")
RUNS = {
    "train": (["train", "--corpus", CORPUS, "--model", "model.json", "--seed", "0"],
              ("model.json",)),
    "eval": (["eval", "--corpus", CORPUS, "--model", MODEL, "--report", "report.json"],
             ("report.json",)),
    "eval-trigger-1": (["eval", "--corpus", CORPUS, "--model", MODEL,
                        "--report", "report.json",
                        "--config", str(GOLDEN / "corpus" / "trigger-1.json")],
                       ("report.json",)),
    "filter": (["filter", "--corpus", CORPUS, "--model", MODEL, "--index", "index.txt",
                "--report", "report.json", "--blacklist", "blacklist.txt"],
               ("index.txt", "report.json", "blacklist.txt")),
}


def run(name: str, *flags: str) -> dict[str, str]:
    """Golden file name -> text, for one run, given `flags` besides its
    own, in a fresh directory."""
    argv, written = RUNS[name]
    out, err = io.StringIO(), io.StringIO()
    with TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([*argv, *flags, "--lexicons", LEXICONS]) == 0
        outputs = {f"{name}.{f}": Path(f).read_text(encoding="utf-8") for f in written}
    return {f"{name}.stdout": out.getvalue(), f"{name}.stderr": err.getvalue(), **outputs}


@pytest.mark.parametrize("name", RUNS)
def test_cli_output_matches_golden(name):
    for filename, text in run(name).items():
        assert text == (GOLDEN / filename).read_text(encoding="utf-8"), filename


def test_blacklist_trigger_flag_is_the_config_run():
    """`eval --blacklist-trigger 1` prints and reports what `eval-trigger-1`,
    which sets the trigger in its config file, does."""
    for filename, text in run("eval", "--blacklist-trigger", "1").items():
        golden = filename.replace("eval.", "eval-trigger-1.", 1)
        assert text == (GOLDEN / golden).read_text(encoding="utf-8"), golden


def test_every_golden_file_belongs_to_a_run():
    """A run taken out of RUNS must take its files along: rewriting the
    golden files only writes them."""
    written = {
        f"{name}.{what}"
        for name, (_, outputs) in RUNS.items()
        for what in ("stdout", "stderr", *outputs)
    }
    assert {p.name for p in GOLDEN.iterdir() if p.name != "corpus"} == written


if __name__ == "__main__":
    for name in RUNS:
        for filename, text in run(name).items():
            (GOLDEN / filename).write_text(text, encoding="utf-8")
