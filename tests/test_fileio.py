import ast
import os
from pathlib import Path

import pytest

import safeindex
from safeindex.errors import ConfigError
from safeindex.fileio import parse_json, read_input, write_atomic
from safeindex.forest import save_forest
from safeindex.pipeline import load_blacklist, save_blacklist

from helpers import NOT_JSON, vote_forest


def test_writes_and_replaces(tmp_path):
    target = tmp_path / "out.txt"
    write_atomic(target, "first\n")
    write_atomic(target, "second ü\n")
    assert target.read_bytes() == "second ü\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_reads_utf8_with_line_ends_as_stored(tmp_path):
    source = tmp_path / "in.txt"
    source.write_bytes("a\r\nb\rc\nü".encode("utf-8"))
    assert read_input(source, "test file") == "a\r\nb\rc\nü"


def test_drops_a_leading_bom_only(tmp_path):
    source = tmp_path / "in.txt"
    source.write_bytes("\ufeffbad.com\nx\ufeffy\n".encode("utf-8"))
    assert read_input(source, "test file") == "bad.com\nx\ufeffy\n"
    assert load_blacklist(source) == {"bad.com", "x\ufeffy"}


def test_nul_byte_in_path_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read test file .*: embedded null byte"):
        read_input(tmp_path / "a\0b", "test file")


def test_savers_write_through_a_replace(tmp_path, monkeypatch):
    replaced = []
    real_replace = os.replace

    def recording(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    save_forest(vote_forest(1, 3), tmp_path / "model.json")
    save_blacklist({"b.com", "a.com"}, tmp_path / "blacklist.txt")
    assert replaced == ["model.json", "blacklist.txt"]
    assert load_blacklist(tmp_path / "blacklist.txt") == {"a.com", "b.com"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blacklist.txt", "model.json"]


def test_parse_json_returns_the_value():
    assert parse_json('{"a": [1, 2.5, null, "\\u00fc"]}', "test input") == {"a": [1, 2.5, None, "ü"]}


@pytest.mark.parametrize("text", NOT_JSON.values(), ids=NOT_JSON)
def test_parse_json_refusal_is_a_config_error(text):
    with pytest.raises(ConfigError, match="^test input is not valid JSON: ") as info:
        parse_json(text, "test input")
    assert isinstance(info.value.__cause__, (ValueError, RecursionError))


_MODE_LETTERS = set("rwxabt+")


def _writes_only(call: ast.Call) -> bool:
    """Whether an open( call names a literal mode that writes and cannot read."""
    args = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    modes = [
        a.value for a in args
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
        and a.value and set(a.value) <= _MODE_LETTERS
    ]
    return any(set(m) & set("wxa") and not set(m) & set("r+") for m in modes)


def boundary_calls(source: str) -> list[str]:
    """The calls in source that read or parse an input: json.load or
    json.loads, .read_text, .read_bytes, .decode, and open( in a read mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"json.{a.name}" for a in node.names if a.name in ("load", "loads")]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("load", "loads") and getattr(func.value, "id", None) == "json":
                found.append(f"json.{func.attr}")
            elif func.attr in ("read_text", "read_bytes", "decode"):
                found.append(f".{func.attr}")
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open" and not _writes_only(node):
            found.append("open(")
    return found


def test_only_fileio_reads_or_parses_input():
    """No module but fileio opens a file to read, decodes bytes or parses JSON."""
    sources = sorted(Path(safeindex.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for source in sources:
        calls = boundary_calls(source.read_text(encoding="utf-8"))
        if source.name == "fileio.py":
            assert {"json.loads", ".read_bytes", ".decode"} <= set(calls)
        else:
            assert calls == [], f"{source.name} reads or parses input itself: {calls}"


@pytest.mark.parametrize("snippet, calls", [
    ("json.loads(text)", ["json.loads"]),
    ("json.load(fh)", ["json.load"]),
    ("from json import loads", ["json.loads"]),
    ("path.read_text()", [".read_text"]),
    ("path.read_bytes()", [".read_bytes"]),
    ("data.decode('utf-8')", [".decode"]),
    ("open(path)", ["open("]),
    ("open(path, 'rb')", ["open("]),
    ("open(path, mode='r+')", ["open("]),
    ("open(path, mode)", ["open("]),
    ("path.open()", ["open("]),
    ("path.open(encoding='utf-8')", ["open("]),
    ("open(path, 'w', newline='', encoding='utf-8')", []),
    ("open(path, 'x', encoding='utf-8')", []),
    ("path.open('a')", []),
    ("json.dumps(doc)", []),
    ("read_input(path, 'model file')", []),
])
def test_boundary_guard_sees_each_read(snippet, calls):
    assert boundary_calls(snippet) == calls
