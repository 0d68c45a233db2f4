"""A standing property of the command line: whatever value each option
holds, from a config file or from a flag, every command exits 0 or 1,
and no run ends in an internal error.

Each option's value comes from a small pool for its kind.  A value that a
flag's parser cannot read (true, null, 2.7 for a count, "x" for a number)
would stop argparse with its own usage error before any option is
checked, so such a value is given by the config file alone.
"""

import contextlib
import io
import json
import math
import tempfile
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safeindex.cli import OPTIONS, build_parser, main
from safeindex.synth import generate_corpus, write_corpus

LEXICON_MANIFEST = str(files("safeindex").joinpath("data/lexicons/manifest.json"))
COMMANDS = ("train", "filter", "eval", "inspect-model")
ABSENT = object()  # the option is not given at all

# option kind -> its pool; a path's pool is named, as its files are made per run
PATH_POOL = ("", "nul", "missing", "directory", "under missing", "valid")
COUNT_POOL = (-1, 0, 3, 201, True, 2.7, "3", None)
NUMBER_POOL = (0, -1, 0.5, 1, 1e308, math.nan, True, "x")
POOLS = {str: PATH_POOL, int: COUNT_POOL, float: NUMBER_POOL}
MAX_TREES = 12  # a draw of more trees is made this many, to keep runs short


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, lexicons):
    """A tiny labeled corpus and a model trained on it."""
    root = tmp_path_factory.mktemp("cli-options")
    manifest = write_corpus(generate_corpus(lexicons, 8, 4, seed=5), root / "corpus")
    model = root / "model.json"
    assert main(["train", "--lexicons", LEXICON_MANIFEST, "--corpus", str(manifest),
                 "--model", str(model), "--trees", "2"]) == 0
    return {"root": root, "corpus": str(manifest), "model": str(model)}


def _options(command: str) -> list[str]:
    return [name for name in vars(build_parser().parse_args([command])) if name in OPTIONS]


def _flag_spelling(kind: type, value) -> str | None:
    """value as a flag's argument, or None when the flag's parser cannot
    read it."""
    if type(value) not in (str, int, float):
        return None
    text = value if type(value) is str else repr(value)
    try:
        kind(text)
    except ValueError:
        return None
    return text


def _path(name: str, option: str, command: str, inputs: dict, out: Path) -> str:
    """The path `name` of PATH_POOL stands for, as option `option` of `command`."""
    if name == "valid":
        if option in ("lexicons", "corpus") or (option == "model" and command != "train"):
            return LEXICON_MANIFEST if option == "lexicons" else inputs[option]
        return str(out / f"{option}.out")
    return {
        "": "",
        "nul": str(out / "a\0b"),
        "missing": str(out / "missing.json"),
        "directory": str(out),
        "under missing": str(out / "gone" / "x.json"),
    }[name]


def _valid(command: str, **given) -> tuple:
    """A run of `command` with every option absent but its required paths,
    which are valid unless `given` names them otherwise; each option maps
    to (its config-file value, its flag value)."""
    required = build_parser().parse_args([command]).required
    values = {name: (ABSENT, ABSENT) for name in _options(command)}
    values.update({name: (ABSENT, given.get(name, "valid")) for name in required})
    return command, values


@st.composite
def _runs(draw):
    """A valid run in which up to three options draw their config-file
    and flag values from their pools, so most runs get past the option
    checks to the files and the work."""
    command, values = _valid(draw(st.sampled_from(COMMANDS)))
    for name in draw(st.lists(st.sampled_from(list(values)), max_size=3, unique=True)):
        pool = st.sampled_from((ABSENT, *POOLS[OPTIONS[name][0]]))
        values[name] = draw(st.tuples(pool, pool))
    return command, values


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_runs())
@example(_valid("train", model=""))
@example(_valid("filter", index=""))
@example(_valid("eval", lexicons=""))
@example(_valid("train"))
@example(_valid("filter"))
def test_every_run_exits_0_or_1(inputs, run):
    command, values = run
    out = Path(tempfile.mkdtemp(dir=inputs["root"]))
    config, flags = {}, []
    for name, (file_value, flag_value) in values.items():
        kind = OPTIONS[name][0]
        if kind is str:
            file_value, flag_value = (
                v if v is ABSENT else _path(v, name, command, inputs, out)
                for v in (file_value, flag_value)
            )
        elif name == "trees":
            file_value, flag_value = (
                v if type(v) is not int or v <= MAX_TREES else MAX_TREES
                for v in (file_value, flag_value)
            )
        spelling = None if flag_value is ABSENT else _flag_spelling(kind, flag_value)
        if spelling is None and flag_value is not ABSENT:
            file_value = flag_value  # a flag could not carry it
        elif spelling is not None:
            flags += ["--" + name.replace("_", "-"), spelling]
        if file_value is not ABSENT:
            config[name] = file_value
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(config_path), *flags])
    assert code in (0, 1), stderr.getvalue()
    assert "internal error" not in stderr.getvalue()
