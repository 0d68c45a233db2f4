import os

import pytest

from safeindex.errors import ConfigError
from safeindex.fileio import read_input, write_atomic
from safeindex.forest import save_forest
from safeindex.pipeline import load_blacklist, save_blacklist

from helpers import vote_forest


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
