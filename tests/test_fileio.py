import os

from safeindex.fileio import write_atomic
from safeindex.forest import save_forest
from safeindex.pipeline import load_blacklist, save_blacklist

from helpers import vote_forest


def test_writes_and_replaces(tmp_path):
    target = tmp_path / "out.txt"
    write_atomic(target, "first\n")
    write_atomic(target, "second ü\n")
    assert target.read_bytes() == "second ü\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


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
