import csv
import json
import math
import os
import re
import weakref
from importlib.resources import files
from pathlib import Path

import pytest

import safeindex.cli
import safeindex.pipeline
from safeindex import ADULT, build_safe_index, load_forest
from safeindex.cli import main
from safeindex.features import extract_features
from safeindex.forest import MAX_DEPTH
from safeindex.page import Page, PageLoadFailure, iter_corpus
from safeindex.synth import generate_corpus, write_corpus

from helpers import (
    BAD_NUMBER_MODELS,
    BAD_ROWS,
    NOT_JSON,
    bad_number_model,
    count_extract_text,
    count_forest_votes,
)

LEXICON_MANIFEST = str(files("safeindex").joinpath("data/lexicons/manifest.json"))
# a config under which the first adult verdict on a domain blacklists it
TRIGGER_1 = str(Path(__file__).resolve().parent / "golden" / "cli" / "corpus" / "trigger-1.json")


def must_not_run(*args, **kwargs):
    """Stands in for a function the options must be checked before."""
    raise AssertionError("read or trained before the options were checked")


def bundled_lexicon_entries() -> dict[str, str]:
    """The bundled lexicon manifest with absolute paths, to copy and edit."""
    bundled = files("safeindex").joinpath("data/lexicons")
    entries = json.loads(bundled.joinpath("manifest.json").read_text(encoding="utf-8"))
    return {name: str(bundled.joinpath(path)) for name, path in entries.items()}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, lexicons):
    """Corpora on disk plus a trained model, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    train_pages = generate_corpus(lexicons, 60, 30, seed=1)
    train_manifest = write_corpus(train_pages, root / "train")
    eval_pages = generate_corpus(
        lexicons, 40, 20, seed=2, url_prefix="e",
        xxx_fraction=0.3, disclaimer_fraction=0.3,
    )
    eval_manifest = write_corpus(eval_pages, root / "eval")
    model = root / "model.json"
    code = main(
        [
            "train",
            "--lexicons", LEXICON_MANIFEST,
            "--corpus", str(train_manifest),
            "--model", str(model),
            "--seed", "0",
        ]
    )
    assert code == 0
    return {
        "root": root,
        "train_manifest": train_manifest,
        "eval_manifest": eval_manifest,
        "eval_pages": eval_pages,
        "model": model,
    }


@pytest.fixture(scope="module")
def noisy_manifest(tmp_path_factory, lexicons):
    """A corpus whose classes overlap, so the vote threshold moves the error."""
    pages = generate_corpus(lexicons, 300, 150, seed=1, overlap=0.3)
    return write_corpus(pages, tmp_path_factory.mktemp("noisy"))


PATH_KEYS = ("lexicons", "corpus", "model", "index", "blacklist", "report")
# option -> (subcommand that reads it, its output flag); train otherwise
COMMAND_OF = {"blacklist_trigger": ("filter", "index")}
INTEGER_KEYS = ("trees", "max_depth", "seed", "blacklist_trigger")
NUMBER_KEYS = ("fn_cost", "min_leaf_weight", "vote_threshold")
NON_PATH_KEYS = (*INTEGER_KEYS, *NUMBER_KEYS)
WRONG_TYPES = [
    *((key, value) for key in NON_PATH_KEYS for value in (None, [1], True, "3", "")),
    *((key, 2.7) for key in INTEGER_KEYS),
]


class TestTrain:
    def test_writes_model_and_report(self, workspace, capsys):
        model = workspace["root"] / "again.json"
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["train_manifest"]),
                "--model", str(model),
                "--seed", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert model.exists()
        assert "tree id" in out
        assert "global error:" in out
        # same corpus and seed as the fixture model: bytes must match
        assert model.read_bytes() == workspace["model"].read_bytes()

    @pytest.mark.parametrize("flag", [["--vote-threshold", "0.05"], ["--vote-threshold", "0.25"]])
    def test_reported_error_is_the_saved_models(self, noisy_manifest, tmp_path, capsys, flag):
        model, report = tmp_path / "model.json", tmp_path / "eval.json"
        common = ["--lexicons", LEXICON_MANIFEST, "--corpus", str(noisy_manifest), "--model", str(model)]
        assert main(["train", *common, *flag]) == 0
        out = capsys.readouterr().out
        assert main(["eval", *common, "--report", str(report)]) == 0
        accuracy = json.loads(report.read_text(encoding="utf-8"))["metrics"]["accuracy"]
        assert f"global error: {1 - accuracy:.1%}\n" in out

    def test_trains_and_prints_a_tree_at_the_depth_bound(self, tmp_path, capsys):
        """Page i holds i images and is adult when i is odd, so the tree
        peels off a page or two per level, down to --max-depth."""
        rows = ["path,url,label"]
        for i in range(2 * MAX_DEPTH + 20):
            (tmp_path / f"p{i}.html").write_text("<img src=x.png>" * i, encoding="utf-8")
            rows.append(f"p{i}.html,http://site{i}.example.com/,{'adult' if i % 2 else 'safe'}")
        manifest, model = tmp_path / "manifest.csv", tmp_path / "deep.json"
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(model),
                "--max-depth", str(MAX_DEPTH),
                "--min-leaf-weight", "0.000001",
                "--fn-cost", "1",
                "--trees", "1",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["inspect-model", "--model", str(model)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # each level indents four more spaces past the tree's two
        assert max(len(line) - len(line.lstrip(" ")) for line in lines) == 2 + 4 * MAX_DEPTH

    def test_config_file_supplies_options(self, workspace):
        model = workspace["root"] / "fromconfig.json"
        config = workspace["root"] / "train.json"
        config.write_text(
            json.dumps(
                {
                    "lexicons": LEXICON_MANIFEST,
                    "corpus": str(workspace["train_manifest"]),
                    "model": str(model),
                    "trees": 3,
                    "seed": 7,
                }
            ),
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config)]) == 0
        assert len(load_forest(model).trees) == 3

    def test_single_class_corpus_exits_1(self, workspace, lexicons, capsys):
        pages = generate_corpus(lexicons, 8, 0, seed=3, url_prefix="s")
        manifest = write_corpus(pages, workspace["root"] / "safe_only")
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["root"] / "nope.json"),
            ]
        )
        assert code == 1
        assert "degenerate class distribution" in capsys.readouterr().err

    def test_unlabeled_corpus_exits_1(self, workspace, capsys):
        corpus_dir = workspace["root"] / "unlabeled"
        corpus_dir.mkdir()
        (corpus_dir / "a.html").write_text("<p>x</p>", encoding="utf-8")
        manifest = corpus_dir / "manifest.csv"
        manifest.write_text(
            "path,url,label\na.html,http://a.com/1,unlabeled\n", encoding="utf-8"
        )
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["root"] / "nope.json"),
            ]
        )
        assert code == 1
        assert "no labeled pages" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [
            ["--trees", "0"],
            ["--fn-cost", "0"],
            ["--min-leaf-weight", "-1"],
            ["--max-depth", "0"],
            ["--max-depth", str(MAX_DEPTH + 1)],
            ["--vote-threshold", "1.5"],
            ["--seed", "-1"],
            *([flag, value] for flag in ("--fn-cost", "--min-leaf-weight") for value in ("nan", "inf")),
        ],
        ids=lambda option: " ".join(option),
    )
    def test_out_of_range_option_exits_1(self, workspace, monkeypatch, capsys, option):
        monkeypatch.setattr(safeindex.cli, "load_lexicon_set", must_not_run)
        monkeypatch.setattr(safeindex.cli, "train_forest", must_not_run)
        model = workspace["root"] / "out_of_range.json"
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["train_manifest"]),
                "--model", str(model),
                *option,
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "bad training option" in err
        assert "internal error" not in err
        assert not model.exists()

    @pytest.mark.parametrize("value", ["1", "1.0"])
    def test_vote_threshold_of_one_exits_1(self, workspace, monkeypatch, capsys, value):
        """No share of votes exceeds 1, so such a model would call no page
        adult: the option is refused before any file is read."""
        monkeypatch.setattr(safeindex.cli, "load_lexicon_set", must_not_run)
        monkeypatch.setattr(safeindex.cli, "train_forest", must_not_run)
        model = workspace["root"] / "never_adult.json"
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["train_manifest"]),
                "--model", str(model),
                "--vote-threshold", value,
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "vote_threshold must be a number in (0, 1), got 1.0" in err
        assert not model.exists()

    def test_overflowing_fn_cost_exits_1(self, workspace, capsys):
        """30 adult rows at 1e307 weigh more than a float holds."""
        model = workspace["root"] / "overflow.json"
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["train_manifest"]),
                "--model", str(model),
                "--fn-cost", "1e307",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error: fn_cost 1e+307 is too large" in err
        assert not model.exists()


class TestFilter:
    def test_builds_index_and_updates_blacklist(self, workspace, capsys):
        root = workspace["root"]
        index = root / "index.txt"
        blacklist = root / "blacklist.txt"
        report = root / "filter_report.json"
        code = main(
            [
                "filter",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--index", str(index),
                "--blacklist", str(blacklist),
                "--report", str(report),
            ]
        )
        assert code == 0
        assert "pages indexed" in capsys.readouterr().out

        indexed = index.read_text(encoding="utf-8").splitlines()
        all_urls = {p.url.full_url for p in workspace["eval_pages"]}
        assert indexed
        assert set(indexed) <= all_urls
        assert blacklist.exists()

        stages = json.loads(report.read_text(encoding="utf-8"))
        assert set(stages) == {
            "blacklist", "disclaimer", "tld_xxx",
            "forest_adult", "forest_safe", "skipped",
        }
        assert stages["forest_safe"] == len(indexed)

    def test_preexisting_blacklist_short_circuits(self, workspace, lexicons):
        root = workspace["root"]
        blacklist = root / "seeded_blacklist.txt"
        domains = {
            p.url.registrable_domain
            for p in workspace["eval_pages"]
            if p.label == ADULT
        }
        blacklist.write_text(
            "".join(f"{d}\n" for d in sorted(domains)), encoding="utf-8"
        )
        report = root / "seeded_report.json"
        code = main(
            [
                "filter",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--index", str(root / "seeded_index.txt"),
                "--blacklist", str(blacklist),
                "--report", str(report),
            ]
        )
        assert code == 0
        stages = json.loads(report.read_text(encoding="utf-8"))
        # every adult page hits the blacklist before any later stage
        assert stages["blacklist"] >= 20
        assert stages["disclaimer"] == 0
        assert stages["tld_xxx"] == 0

    def test_blacklisted_pages_are_not_stripped(self, workspace, lexicons, monkeypatch):
        root = workspace["root"]
        pages = generate_corpus(lexicons, 12, 6, seed=6, url_prefix="bl")
        manifest = write_corpus(pages, root / "listed")
        blacklist = root / "listed_blacklist.txt"
        listed = pages[0].url.registrable_domain
        blacklist.write_text(f"{listed}\n", encoding="utf-8")
        calls = count_extract_text(monkeypatch)
        report = root / "listed_report.json"
        code = main(
            [
                "filter",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--index", str(root / "listed_index.txt"),
                "--blacklist", str(blacklist),
                "--report", str(report),
            ]
        )
        assert code == 0
        stages = json.loads(report.read_text(encoding="utf-8"))
        n_listed = sum(p.url.registrable_domain == listed for p in pages)
        assert stages["blacklist"] >= n_listed >= 1
        assert len(calls) == len(pages) - stages["blacklist"]


    def test_malformed_url_row_is_skipped(self, workspace, lexicons, capsys):
        root = workspace["root"]
        pages = generate_corpus(lexicons, 6, 3, seed=4, url_prefix="m")
        manifest = write_corpus(pages, root / "malformed")
        rows = manifest.read_text(encoding="utf-8").splitlines()
        bad_url = pages[2].url.full_url
        rows[3] = rows[3].replace(bad_url, "http:///nohost")
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        index = root / "malformed_index.txt"
        report = root / "malformed_report.json"
        code = main(
            [
                "filter",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--index", str(index),
                "--report", str(report),
            ]
        )
        assert code == 0
        assert '"skipped": 1' in capsys.readouterr().out
        stages = json.loads(report.read_text(encoding="utf-8"))
        assert stages["skipped"] == 1
        assert sum(stages.values()) == 6
        indexed = index.read_text(encoding="utf-8").splitlines()
        others = {p.url.full_url for p in pages} - {bad_url}
        assert set(indexed) <= others
        assert len(indexed) == stages["forest_safe"]

    def test_url_with_a_line_break_is_one_skipped_row(self, workspace, lexicons, capsys):
        """Such a URL would be two index lines, and its domain two
        blacklist lines, the second of which names a domain no page
        struck: each row holding one is skipped instead."""
        root = workspace["root"]
        pages = generate_corpus(lexicons, 6, 3, seed=4, url_prefix="nl")
        manifest = write_corpus(pages, root / "linebreak")
        bad = ['"p0003.html","http://ok.com/a\nb",safe\n',
               *(f'"p0000.html","http://evil\nbar.xxx/{i}",adult\n' for i in range(3))]
        with open(manifest, "a", encoding="utf-8", newline="") as fh:
            fh.write("".join(bad))
        index, blacklist, report = (
            root / f"linebreak_{name}" for name in ("index.txt", "blacklist.txt", "report.json")
        )
        code = main(
            [
                "filter",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--index", str(index),
                "--blacklist", str(blacklist),
                "--report", str(report),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.count("line break in URL") == len(bad)
        stages = json.loads(report.read_text(encoding="utf-8"))
        assert stages["skipped"] == len(bad)
        assert stages["tld_xxx"] == 0
        indexed = index.read_text(encoding="utf-8").splitlines()
        assert f"{len(indexed)} pages indexed" in captured.out
        assert len(indexed) == stages["forest_safe"]
        assert set(indexed) <= {p.url.full_url for p in pages}
        listed = blacklist.read_text(encoding="utf-8").splitlines()
        assert set(listed) <= {p.url.registrable_domain for p in pages}

    def test_non_utf8_disclaimer_exits_1(self, workspace, capsys):
        root = workspace["root"]
        entries = bundled_lexicon_entries()
        bad = root / "bad_disclaimer.txt"
        bad.write_bytes(b"\xff\xfe\x00bad")
        entries["disclaimer"] = str(bad)
        lex_manifest = root / "bad_lexicons.json"
        lex_manifest.write_text(json.dumps(entries), encoding="utf-8")
        code = main(
            [
                "filter",
                "--lexicons", str(lex_manifest),
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--index", str(root / "unused_index.txt"),
            ]
        )
        assert code == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_blacklist_exits_1(self, workspace, capsys):
        root = workspace["root"]
        blacklist = root / "utf16_blacklist.txt"
        blacklist.write_bytes(b"\xff\xfeb\x00a\x00d\x00.\x00c\x00o\x00m\x00")
        code = main(
            [
                "filter",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--index", str(root / "utf16_index.txt"),
                "--blacklist", str(blacklist),
            ]
        )
        assert code == 1
        assert "blacklist" in capsys.readouterr().err

    def test_non_utf8_manifest_exits_1(self, workspace, capsys):
        root = workspace["root"]
        manifest = root / "utf16_manifest.csv"
        manifest.write_bytes("path,url,label\n".encode("utf-16"))
        code = main(
            [
                "filter",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--index", str(root / "utf16_manifest_index.txt"),
            ]
        )
        assert code == 1
        assert "corpus manifest" in capsys.readouterr().err


class TestEval:
    def test_prints_confusion_and_metrics(self, workspace, capsys):
        code = main(
            [
                "eval",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "<- classified as" in out
        assert "miss_rate:" in out
        assert "attribute usage" in out

    def test_staged_filter_section_follows_forest_section(self, workspace, capsys):
        """The staged filter's matrix and stage counts follow the forest's,
        under `full pipeline:`."""
        code = main(
            [
                "eval",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        forest, pipeline = out.split("full pipeline:\n")
        assert "stage report:" not in forest
        assert "<- classified as" in pipeline
        assert "miss_rate:" in pipeline
        assert "stage report:" in pipeline

    def test_report_json(self, workspace):
        report = workspace["root"] / "eval_report.json"
        code = main(
            [
                "eval",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--report", str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        forest_keys = {"confusion", "metrics", "attribute_usage", "skipped"}
        assert set(doc) == forest_keys | {"pipeline", "stages"}
        assert set(doc["pipeline"]) == {"confusion", "metrics"}
        assert sum(doc["confusion"].values()) == sum(doc["pipeline"]["confusion"].values()) == 40
        assert doc["skipped"] == 0

    def test_report_counts_skipped_rows(self, workspace, tmp_path):
        """The stage report's skipped count is the report's own."""
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            workspace["eval_manifest"].read_text(encoding="utf-8")
            + "missing.html,http://gone.com/1,adult\n"
            + "p0000.html,http://a..com/,safe\n",
            encoding="utf-8",
        )
        for page in workspace["eval_manifest"].parent.glob("*.html"):
            (tmp_path / page.name).write_bytes(page.read_bytes())
        report = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--report", str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["skipped"] == doc["stages"]["skipped"] == 2

    def test_extracts_each_page_once(self, workspace, lexicons, monkeypatch):
        root = workspace["root"]
        pages = generate_corpus(
            lexicons, 30, 15, seed=5, url_prefix="once",
            xxx_fraction=0.3, disclaimer_fraction=0.3,
        )
        manifest = write_corpus(pages, root / "once")
        calls = []

        def counting(page, lex):
            calls.append(page.url.full_url)
            return extract_features(page, lex)

        monkeypatch.setattr(safeindex.cli, "extract_features", counting)
        monkeypatch.setattr(safeindex.pipeline, "extract_features", counting)
        report = root / "once_report.json"
        code = main(
            [
                "eval",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--report", str(report),
            ]
        )
        assert code == 0
        assert len(calls) == 30
        monkeypatch.undo()
        # the stages and safe pages are those of the filter that extracts on its own
        labeled = [p for p in iter_corpus(manifest) if isinstance(p, Page) and p.label is not None]
        index, expected, _ = build_safe_index(labeled, load_forest(workspace["model"]), lexicons)
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["stages"] == expected.as_dict()
        cm = doc["pipeline"]["confusion"]
        assert cm["tn"] + cm["fn"] == len(index)

    @staticmethod
    def _eval_gated(workspace, root, capsys, trigger):
        """eval at blacklist_trigger `trigger` on three adult pages of
        gated.com, the first behind an age gate, and one safe page; return
        its stdout and its report."""
        root.mkdir()
        (root / "gate.html").write_text("<p>you must be 18 to enter</p>", encoding="utf-8")
        (root / "plain.html").write_text("<p>garden notes for march</p>", encoding="utf-8")
        manifest = root / "manifest.csv"
        manifest.write_text(
            "path,url,label\n"
            "gate.html,http://gated.com/1,adult\n"
            "plain.html,http://gated.com/2,adult\n"
            "plain.html,http://gated.com/3,adult\n"
            "plain.html,http://garden.org/1,safe\n",
            encoding="utf-8",
        )
        config = root / "config.json"
        config.write_text(json.dumps({"blacklist_trigger": trigger}), encoding="utf-8")
        report = root / "report.json"
        code = main(
            [
                "eval",
                "--config", str(config),
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--report", str(report),
            ]
        )
        assert code == 0
        return capsys.readouterr().out, json.loads(report.read_text(encoding="utf-8"))

    def test_stages_follow_blacklist_trigger(self, workspace, tmp_path, capsys):
        _, doc = self._eval_gated(workspace, tmp_path / "gated", capsys, 1)
        stages, cm = doc["stages"], doc["pipeline"]["confusion"]
        # one strike blacklists gated.com, so its later pages stop there
        assert stages["disclaimer"] == 1
        assert stages["blacklist"] == 2
        adult_stages = ("blacklist", "disclaimer", "tld_xxx", "forest_adult")
        assert sum(stages[s] for s in adult_stages) == cm["tp"] + cm["fp"]
        assert stages["forest_safe"] == cm["tn"] + cm["fn"]

    def test_forest_section_ignores_blacklist_trigger(self, workspace, tmp_path, capsys):
        """The trigger moves the staged filter's verdicts only: the
        forest's confusion, metrics and attribute usage stay."""
        (out_1, doc_1), (out_3, doc_3) = (
            self._eval_gated(workspace, tmp_path / f"trigger{t}", capsys, t) for t in (1, 3)
        )
        forest_keys = ("confusion", "metrics", "attribute_usage")
        assert {k: doc_1[k] for k in forest_keys} == {k: doc_3[k] for k in forest_keys}
        assert out_1.split("full pipeline:")[0] == out_3.split("full pipeline:")[0]
        assert doc_1["stages"] != doc_3["stages"]


class TestStreaming:
    """train and eval read the corpus one row at a time."""

    # "eval --full-pipeline" runs eval with every adult verdict
    # blacklisting its domain, so the staged filter's state grows
    @pytest.mark.parametrize("command, corpus", [
        (["train", "--seed", "0"], "train_manifest"),
        (["eval"], "eval_manifest"),
        (["eval", "--config", TRIGGER_1], "eval_manifest"),
    ], ids=["train", "eval", "eval --full-pipeline"])
    def test_no_page_outlives_its_row(self, workspace, tmp_path, monkeypatch, command, corpus):
        earlier = []
        alive = []  # per extraction, how many earlier pages are still alive

        def watching(page, lex):
            alive.append(sum(ref() is not None for ref in earlier))
            earlier.append(weakref.ref(page))
            return extract_features(page, lex)

        monkeypatch.setattr(safeindex.cli, "extract_features", watching)
        model = tmp_path / "model.json" if command[0] == "train" else workspace["model"]
        assert main([*command, "--lexicons", LEXICON_MANIFEST,
                     "--corpus", str(workspace[corpus]), "--model", str(model)]) == 0
        assert alive == [0] * (60 if command[0] == "train" else 40)

    @pytest.mark.parametrize("command", [
        ["eval"], ["eval", "--config", TRIGGER_1], ["filter"],
    ], ids=["eval", "eval --full-pipeline", "filter"])
    def test_walks_each_scored_page_once(self, workspace, tmp_path, monkeypatch, command):
        """eval walks every labeled page once, for its verdict and its
        attribute usage alike, whichever stage of its staged filter decides
        the page; filter walks only the pages that reach the forest stage."""
        calls = count_forest_votes(monkeypatch)
        report = tmp_path / "report.json"
        index = ["--index", str(tmp_path / "index.txt")] if command[0] == "filter" else []
        assert main([*command, *index, "--lexicons", LEXICON_MANIFEST, "--corpus",
                     str(workspace["eval_manifest"]), "--model", str(workspace["model"]),
                     "--report", str(report)]) == 0
        if command[0] == "filter":
            stages = json.loads(report.read_text(encoding="utf-8"))
            assert len(calls) == stages["forest_adult"] + stages["forest_safe"]
        else:
            assert len(calls) == 40

    def test_train_walks_no_tree(self, workspace, tmp_path, monkeypatch):
        """train_forest's votes give the saved model's global error, at the
        threshold --vote-threshold sets, without a walk over the training pages."""
        calls = count_forest_votes(monkeypatch)
        model = tmp_path / "model.json"
        assert main(["train", "--vote-threshold", "0.25", "--lexicons", LEXICON_MANIFEST,
                     "--corpus", str(workspace["train_manifest"]), "--model", str(model)]) == 0
        assert load_forest(model).vote_threshold == 0.25
        assert calls == []


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["filter", "--blacklist-trigger", "0"], {}, "must be >= 1"),
            (["filter", "--blacklist-trigger", "-2"], {}, "must be >= 1"),
            (["eval", "--blacklist-trigger", "0"], {}, "must be >= 1"),
            (["filter"], {"blacklist_trigger": 0}, "must be >= 1"),
            (["eval"], {"blacklist_trigger": 0}, "must be >= 1"),
            *(
                (args, {"blacklist_trigger": trigger}, "must be an integer")
                for args in (["filter"], ["eval"])
                for trigger in ("three", 2.7, True)
            ),
        ],
        ids=[
            "filter flag 0", "filter flag -2", "eval flag 0", "filter config 0", "eval config 0",
            *(f"{cmd} config {t}" for cmd in ("filter", "eval") for t in ("three", 2.7, True)),
        ],
    )
    def test_blacklist_trigger_below_1_exits_1(
        self, workspace, tmp_path, capsys, args, config, message
    ):
        """Also covers values that are not integers: 2.7 must not truncate to 2."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out.txt"
        code = main(
            [
                *args,
                "--config", str(config_path),
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--index" if args[0] == "filter" else "--report", str(out),
            ]
        )
        assert code == 1
        assert f"blacklist_trigger {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_non_string_path_option_exits_1(self, workspace, tmp_path, capsys, key):
        self._check_bad_path_option(workspace, tmp_path, capsys, key, 5)

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_nul_in_path_option_exits_1(self, workspace, tmp_path, monkeypatch, capsys, key):
        """Rejected with the option's type, before any file is read or written."""
        monkeypatch.setattr(safeindex.cli, "load_lexicon_set", must_not_run)
        self._check_bad_path_option(workspace, tmp_path, capsys, key, str(tmp_path / "a\0b"))

    @staticmethod
    def _check_bad_path_option(workspace, tmp_path, capsys, key, value):
        """`filter` with `value` for the path option `key` in its config
        file exits 1 and writes nothing."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}), encoding="utf-8")
        flags = {
            "lexicons": LEXICON_MANIFEST,
            "corpus": str(workspace["eval_manifest"]),
            "model": str(workspace["model"]),
            "index": str(tmp_path / "index.txt"),
        }
        flags.pop(key, None)  # a flag would override the config value
        args = [arg for name, path in flags.items() for arg in (f"--{name}", path)]
        code = main(["filter", "--config", str(config_path), *args])
        err = capsys.readouterr().err
        assert code == 1
        assert f"option {key} must be a path string" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "key, value", WRONG_TYPES, ids=[f"{key} {json.dumps(value)}" for key, value in WRONG_TYPES]
    )
    def test_wrong_json_type_exits_1(self, workspace, tmp_path, capsys, key, value):
        """A file value must have the flag's type: no null, list, true for a
        count or a number, 2.7 for a count, or string for a switch.  An
        empty string is no count or number either, not an option left out."""
        command, output = COMMAND_OF.get(key, ("train", "model"))
        code = self._run_with_config(workspace, tmp_path, command, output, {key: value})
        err = capsys.readouterr().err
        assert code == 1
        assert f"option {key} must be" in err
        assert "internal error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("key", ["fn_cost", "min_leaf_weight"])
    def test_non_finite_cost_exits_1(self, workspace, tmp_path, capsys, key, value):
        """Python's json reads NaN and Infinity as numbers."""
        code = self._run_with_config(workspace, tmp_path, "train", "model", {key: value})
        err = capsys.readouterr().err
        assert code == 1
        assert "bad training option" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_exits_1(self, workspace, tmp_path, capsys):
        code = self._run_with_config(workspace, tmp_path, "train", "model", {"tree": 3})
        assert code == 1
        assert "unknown option 'tree'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_retired_switch_key_exits_1(self, workspace, tmp_path, capsys):
        """eval always runs the staged filter; the key that once switched
        it on is no option."""
        config = {"full_pipeline": True}
        code = self._run_with_config(workspace, tmp_path, "eval", "report", config)
        assert code == 1
        assert "unknown option 'full_pipeline'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_retired_switch_flag_exits_2(self, workspace, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--lexicons", LEXICON_MANIFEST, "--corpus",
                  str(workspace["eval_manifest"]), "--model", str(workspace["model"]),
                  "--full-pipeline"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --full-pipeline" in capsys.readouterr().err

    # a count of trees is --vote-threshold (k-0.5)/n: no value of the
    # retired key is read, whatever its type
    @pytest.mark.parametrize("value", [3, None, [1], True, "3", 2.7], ids=json.dumps)
    def test_retired_count_key_exits_1(self, workspace, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setattr(safeindex.cli, "load_lexicon_set", must_not_run)
        code = self._run_with_config(workspace, tmp_path, "train", "model", {"min_votes": value})
        assert code == 1
        assert "unknown option 'min_votes'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # "--min" was a prefix of two flags and is of --min-leaf-weight alone now
    @pytest.mark.parametrize("flag", ["--min-votes", "--min"])
    def test_retired_count_flag_exits_2(self, workspace, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--lexicons", LEXICON_MANIFEST, "--corpus",
                  str(workspace["train_manifest"]), "--model", str(tmp_path / "model.json"),
                  flag, "3"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_flag_overrides_bad_config_value(self, workspace, tmp_path):
        code = self._run_with_config(
            workspace, tmp_path, "train", "model", {"trees": None}, "--trees", "3"
        )
        assert code == 0
        assert len(load_forest(tmp_path / "out").trees) == 3

    @staticmethod
    def _run_with_config(workspace, tmp_path, command, output, config, *flags):
        """Run `command` with `config` as its file, writing `output` to tmp_path/out."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        manifest = workspace["train_manifest" if command == "train" else "eval_manifest"]
        args = [command, "--config", str(config_path), "--lexicons", LEXICON_MANIFEST]
        args += ["--corpus", str(manifest), f"--{output}", str(tmp_path / "out")]
        if command != "train":
            args += ["--model", str(workspace["model"])]
        return main([*args, *flags])

    @pytest.mark.parametrize(
        "entries, encoding, config",
        [
            ({}, "utf-16", {}),
            ({"tags-fr": 5}, "utf-8", {}),
            ({}, "utf-8", [1, 2]),
            ({}, "utf-8", 5),
        ],
        ids=["utf-16 lexicon manifest", "non-string manifest entry", "config list", "config number"],
    )
    def test_exits_1(self, workspace, tmp_path, capsys, entries, encoding, config):
        lex_manifest = tmp_path / "lexicons.json"
        lex_manifest.write_bytes(json.dumps({**bundled_lexicon_entries(), **entries}).encode(encoding))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        index = tmp_path / "index.txt"
        code = main(
            [
                "filter",
                "--config", str(config_path),
                "--lexicons", str(lex_manifest),
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--index", str(index),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "internal error" not in err
        assert not index.exists()

    def test_misspelled_list_name_exits_1(self, workspace, tmp_path, capsys):
        """A misspelled list would otherwise switch its stage off unseen."""
        entries = bundled_lexicon_entries()
        entries["disclaimers"] = entries.pop("disclaimer")
        lex_manifest = tmp_path / "lexicons.json"
        lex_manifest.write_text(json.dumps(entries), encoding="utf-8")
        index = tmp_path / "index.txt"
        code = main(["filter", "--lexicons", str(lex_manifest), "--model", str(workspace["model"]),
                     "--corpus", str(workspace["eval_manifest"]), "--index", str(index)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"unknown list 'disclaimers' in lexicon manifest {lex_manifest}" in err
        assert not index.exists()


class TestParser:
    # the flags each subcommand's --help listed before the option table,
    # less inspect-model's --lexicons, which it never read
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--lexicons", "--model", "--corpus", "--trees", "--fn-cost",
                   "--min-leaf-weight", "--max-depth", "--seed", "--vote-threshold"]),
        ("filter", ["--lexicons", "--model", "--corpus", "--index", "--blacklist",
                    "--blacklist-trigger", "--report"]),
        ("eval", ["--lexicons", "--model", "--corpus", "--blacklist-trigger", "--report"]),
        ("inspect-model", ["--model"]),
    ])
    def test_help_lists_the_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        shown = re.findall(r"^  (-h|--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
        assert shown == ["-h", "--config", *flags]

    @pytest.mark.parametrize("command, given, missing", [
        ("train", ["--lexicons", "l.json", "--seed", "0"], "model, corpus"),
        ("filter", ["--report", "r.json"], "lexicons, model, corpus, index"),
        ("eval", ["--corpus", "c.csv"], "lexicons, model"),
        ("inspect-model", [], "model"),
        ("train", ["--lexicons", "l.json", "--corpus", "c.csv", "--model", ""], "model"),
        ("filter", ["--lexicons", "l.json", "--model", "m.json", "--corpus", "c.csv",
                    "--index", ""], "index"),
    ], ids=["train", "filter", "eval", "inspect-model", "train model ''", "filter index ''"])
    def test_missing_options_exit_1(self, monkeypatch, capsys, command, given, missing):
        """Every missing required option is named, in flag order, before
        any file is read; an empty path is no path given."""
        monkeypatch.setattr(safeindex.cli, "load_lexicon_set", must_not_run)
        monkeypatch.setattr(safeindex.cli, "load_forest", must_not_run)
        monkeypatch.setattr(safeindex.cli, "iter_corpus", must_not_run)
        assert main([command, *given]) == 1
        assert capsys.readouterr().err == f"error: missing required options: {missing}\n"

    def test_every_option_is_some_commands_flag(self):
        """A config file can only set an option that some command reads."""
        parser = safeindex.cli.build_parser()
        dests = set()
        for command in ("train", "filter", "eval", "inspect-model"):
            dests.update(vars(parser.parse_args([command])))
        assert set(safeindex.cli.OPTIONS) <= dests

    @pytest.mark.parametrize("name", safeindex.cli.OPTIONS)
    def test_every_option_explains_itself(self, name):
        """Each option's --help line says what it sets; a number's, its range."""
        kind, text = safeindex.cli.OPTIONS[name]
        assert isinstance(text, str) and text.strip()
        if kind is not str:
            assert re.search(r">=? \d|in \(", text), text

    def test_readme_names_only_real_flags(self, capsys):
        """Every flag README's "Command line" section names is some command's."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
        flags = set()
        for command in ("train", "filter", "eval", "inspect-model"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            flags.update(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert set(re.findall(r"--[a-z][a-z-]*", section)) <= flags

    def test_config_file_may_name_lexicons_for_inspect_model(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lexicons": LEXICON_MANIFEST}), encoding="utf-8")
        args = ["inspect-model", "--config", str(config), "--model", str(workspace["model"])]
        assert main(args) == 0

    def test_config_numbers_match_flags(self, workspace, tmp_path):
        """An integer is a valid number: the file's fn_cost 20 and
        vote_threshold 0.75 give the model that --fn-cost 20
        --vote-threshold 0.75 gives."""
        common = ["--lexicons", LEXICON_MANIFEST, "--corpus", str(workspace["train_manifest"])]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fn_cost": 20, "vote_threshold": 0.75}), encoding="utf-8")
        from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
        assert main(["train", *common, "--config", str(config), "--model", str(from_file)]) == 0
        flags = ["--fn-cost", "20", "--vote-threshold", "0.75", "--model", str(from_flags)]
        assert main(["train", *common, *flags]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()


class TestCorpusLoader:
    def test_train_and_eval_skip_bad_rows(self, workspace, lexicons, tmp_path, capsys):
        """train and eval keep the labeled pages iter_corpus yields and say
        how many rows they skipped: a missing file, a malformed URL and an
        unlabeled row."""
        pages = generate_corpus(lexicons, 12, 6, seed=8, url_prefix="skip")
        clean = write_corpus(pages, tmp_path / "corpus")
        dirty = clean.with_name("dirty.csv")
        dirty.write_text(
            clean.read_text(encoding="utf-8")
            + "missing.html,http://gone.com/1,adult\n"
            + "p0000.html,http://a..com/,safe\n"
            + "p0001.html,http://plain.org/1,unlabeled\n",
            encoding="utf-8",
        )
        runs = {}
        for name, manifest in (("clean", clean), ("dirty", dirty)):
            common = ["--lexicons", LEXICON_MANIFEST, "--corpus", str(manifest)]
            model, report = tmp_path / f"{name}.json", tmp_path / f"{name}_report.json"
            assert main(["train", *common, "--model", str(model)]) == 0
            assert main(["eval", *common, "--model", str(model), "--report", str(report)]) == 0
            doc = json.loads(report.read_text(encoding="utf-8"))
            runs[name] = model.read_bytes(), doc, capsys.readouterr().out
        (clean_model, clean_doc, clean_out), (dirty_model, dirty_doc, dirty_out) = runs.values()
        assert "manifest rows" not in clean_out
        assert dirty_out.count("skipped 3 of 15 manifest rows\n") == 2
        assert dirty_model == clean_model
        assert sum(dirty_doc["confusion"].values()) == 12
        assert clean_doc.pop("skipped") == clean_doc["stages"].pop("skipped") == 0
        assert dirty_doc.pop("skipped") == dirty_doc["stages"].pop("skipped") == 3
        assert dirty_doc == clean_doc


    def test_no_row_ends_a_run(self, workspace, lexicons, tmp_path, capsys):
        """Every kind of bad row is one skipped row, with its reason on
        stderr, in filter, train and eval alike; stdout and the outputs
        are those of the corpus without them, less the skipped counts."""
        pages = generate_corpus(lexicons, 12, 6, seed=8, url_prefix="rows")
        clean = write_corpus(pages, tmp_path / "corpus")
        (clean.parent / "a.html").write_text("<p>hello</p>", encoding="utf-8")
        (clean.parent / "sub").mkdir()
        dirty = clean.with_name("dirty.csv")
        rows = "".join(f"{row}\n" for row, _ in BAD_ROWS.values())
        dirty.write_text(clean.read_text(encoding="utf-8") + rows, encoding="utf-8")
        # stderr shows a NUL byte escaped, as repr() does
        reasons = [
            f"skipped {row.split(',')[0]}: {reason.format(base=clean.parent)}".replace("\0", r"\x00")
            for row, reason in BAD_ROWS.values()
        ]
        n_bad = len(reasons)
        outputs = {}
        for name, manifest, want in (("clean", clean, []), ("dirty", dirty, reasons)):
            out = tmp_path / name
            out.mkdir()
            common = ["--lexicons", LEXICON_MANIFEST, "--corpus", str(manifest),
                      "--model", str(out / "model.json")]
            stdout = []
            for args in (
                ["train", *common],
                ["filter", *common, "--index", str(out / "index.txt"),
                 "--report", str(out / "filter.json")],
                ["eval", *common, "--report", str(out / "eval.json")],
            ):
                assert main(args) == 0
                captured = capsys.readouterr()
                lines = captured.err.splitlines()
                assert len(lines) == len(want) and all(map(str.startswith, lines, want))
                stdout.append(captured.out.replace(str(out), "<out>"))
            outputs[name] = stdout, {f.name: f.read_bytes() for f in out.iterdir()}
        (clean_stdout, clean_files), (dirty_stdout, dirty_files) = outputs.values()
        counted = f"skipped {n_bad} of {len(pages) + n_bad} manifest rows\n"
        marked = [out.replace('"skipped": 0', f'"skipped": {n_bad}') for out in clean_stdout]
        assert dirty_stdout == [counted + marked[0], marked[1], counted + marked[2]]
        clean_filter = json.loads(clean_files.pop("filter.json"))
        assert json.loads(dirty_files.pop("filter.json")) == {**clean_filter, "skipped": n_bad}
        clean_eval = json.loads(clean_files.pop("eval.json"))
        stages = {**clean_eval["stages"], "skipped": n_bad}
        expected = {**clean_eval, "skipped": n_bad, "stages": stages}
        assert json.loads(dirty_files.pop("eval.json")) == expected
        assert dirty_files == clean_files

    def test_field_over_the_csv_limit_is_one_skipped_row(self, workspace, lexicons, tmp_path, capsys):
        """A manifest field longer than the csv module's limit skips its
        row; filter and eval keep the rows on both sides and exit 0."""
        pages = generate_corpus(lexicons, 12, 6, seed=8, url_prefix="big")
        clean = write_corpus(pages, tmp_path / "corpus")
        header, *rows = clean.read_text(encoding="utf-8").splitlines(keepends=True)
        dirty = clean.with_name("dirty.csv")
        long_row = f"p0000.html,http://big.com/{'a' * 140_000},safe\n"
        dirty.write_text("".join([header, *rows[:6], long_row, *rows[6:]]), encoding="utf-8")
        reports = {}
        for name, manifest in (("clean", clean), ("dirty", dirty)):
            common = ["--lexicons", LEXICON_MANIFEST, "--corpus", str(manifest),
                      "--model", str(workspace["model"])]
            out = tmp_path / name
            out.mkdir()
            assert main(["filter", *common, "--index", str(out / "index.txt"),
                         "--report", str(out / "filter.json")]) == 0
            assert main(["eval", *common, "--report", str(out / "eval.json")]) == 0
            reports[name] = {f.name: f.read_bytes() for f in out.iterdir()}
        err = capsys.readouterr().err
        assert err == 2 * "skipped : manifest line 8: field larger than field limit (131072)\n"
        assert reports["dirty"].pop("index.txt") == reports["clean"].pop("index.txt")
        for name in ("filter.json", "eval.json"):
            clean_doc = json.loads(reports["clean"][name])
            dirty_doc = json.loads(reports["dirty"][name])
            assert (clean_doc.pop("skipped"), dirty_doc.pop("skipped")) == (0, 1)
            if name == "eval.json":  # its stage counts hold the count too
                skipped = clean_doc["stages"].pop("skipped"), dirty_doc["stages"].pop("skipped")
                assert skipped == (0, 1)
            assert dirty_doc == clean_doc

    @pytest.mark.parametrize("quoted", [False, True], ids=["one line", "spans lines"])
    def test_long_field_is_one_record(self, tmp_path, quoted):
        """A field over the csv limit is parsed whole and skipped, even when
        its closing quote is on a later line: the line after the break is
        no row of its own, and csv.field_size_limit() is left as it was."""
        (tmp_path / "p.html").write_text("hello", encoding="utf-8")
        url = "http://b.com/" + "a" * 140_000
        field = f'"{url}\n"' if quoted else url
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            f"path,url,label\np.html,{field},safe\np.html,http://c.com/x,adult\n",
            encoding="utf-8",
        )
        limit = csv.field_size_limit()
        rows = iter_corpus(manifest)
        failure = next(rows)
        assert csv.field_size_limit() == limit
        line = 3 if quoted else 2
        assert failure == PageLoadFailure(
            "", "", f"manifest line {line}: field larger than field limit ({limit})"
        )
        page, = rows
        assert (page.url.full_url, page.label, page.tokens) == ("http://c.com/x", ADULT, ("hello",))
        assert csv.field_size_limit() == limit

    def test_one_stderr_line_per_skipped_row(self, workspace, lexicons, tmp_path, capsys):
        """A line break, carriage return or NUL in a path or URL is shown
        escaped, so each skipped row prints exactly one stderr line.  A
        URL holding a line break is malformed; one holding a NUL is not."""
        pages = generate_corpus(lexicons, 12, 6, seed=8, url_prefix="esc")
        manifest = write_corpus(pages, tmp_path / "corpus")
        bad = '"gone\nx.html",http://a.com/1,safe\n' \
              '"gone\rx.html",http://a.com/2,adult\n' \
              'gone\0x.html,http://a.com/3,safe\n' \
              '"p0000.html","http://a.com/4\n\0",unlabeled\n' \
              '"p0000.html","http://a.com/5\0",unlabeled\n'
        with open(manifest, "a", encoding="utf-8", newline="") as fh:
            fh.write(bad)
        base = manifest.parent
        failed = [
            rf"skipped gone\nx.html: cannot read page file {base}/gone\nx.html: ",
            rf"skipped gone\rx.html: cannot read page file {base}/gone\rx.html: ",
            rf"skipped gone\x00x.html: cannot read page file {base}/gone\x00x.html: ",
            r"skipped p0000.html: line break in URL 'http://a.com/4\n\x00'",
        ]
        unlabeled = [r"skipped http://a.com/5\x00: unlabeled"]
        common = ["--lexicons", LEXICON_MANIFEST, "--corpus", str(manifest)]
        model = str(tmp_path / "model.json")
        for args, want in (
            (["train", *common, "--model", model], failed + unlabeled),
            (["eval", *common, "--model", model], failed + unlabeled),
            (["filter", *common, "--model", model, "--index", str(tmp_path / "i.txt")], failed),
        ):
            assert main(args) == 0
            captured = capsys.readouterr()
            lines = captured.err.split("\n")
            assert lines.pop() == ""
            assert len(lines) == len(want) and all(map(str.startswith, lines, want))
            if args[0] != "filter":
                assert f"skipped {len(want)} of {len(pages) + len(want)} manifest rows\n" in captured.out


class TestAtomicOutputs:
    """A failed write leaves the old output whole and no temporary file."""

    @pytest.mark.parametrize(
        "command, target, extra",
        [
            ("train", "model", ["--corpus", "train_manifest", "--seed", "0"]),
            ("filter", "index", ["--corpus", "eval_manifest", "--model", "model"]),
            ("eval", "report", ["--corpus", "eval_manifest", "--model", "model"]),
        ],
    )
    def test_failed_replace_keeps_old_file(
        self, workspace, tmp_path, monkeypatch, capsys, command, target, extra
    ):
        out = tmp_path / f"{target}.out"
        out.write_text("old\n", encoding="utf-8")
        args = [command, "--lexicons", LEXICON_MANIFEST, f"--{target}", str(out)]
        args += [str(workspace[v]) if v in workspace else v for v in extra]

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(args) == 1
        assert "disk full" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    @pytest.mark.parametrize(
        "command, target, written",
        [
            ("filter", "blacklist", ["index"]),
            ("filter", "report", ["blacklist", "index"]),
            ("train", "model", []),
        ],
    )
    def test_output_under_a_missing_directory_is_named(
        self, workspace, tmp_path, capsys, command, target, written
    ):
        """The error names the output the user gave, never the temporary
        file; the outputs written before it stay written."""
        outputs = {"index": "i.txt", "blacklist": "b.txt", "report": "r.json", "model": "m.json"}
        paths = {name: tmp_path / file for name, file in outputs.items()}
        paths[target] = tmp_path / "gone" / outputs[target]
        args = [command, "--lexicons", LEXICON_MANIFEST]
        if command == "filter":
            args += ["--corpus", str(workspace["eval_manifest"]), "--model", str(workspace["model"])]
            args += [f"--{name}={paths[name]}" for name in ("index", "blacklist", "report")]
        else:
            args += ["--corpus", str(workspace["train_manifest"]), f"--model={paths['model']}"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {paths[target]}: No such file or directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs[n] for n in written)


class TestInspectModel:
    def test_prints_trees(self, workspace, capsys):
        code = main(["inspect-model", "--model", str(workspace["model"])])
        out = capsys.readouterr().out
        assert code == 0
        assert "vote threshold: 0.5" in out
        assert "tree 0:" in out
        assert "tree 9:" in out

    def test_missing_model_file_exits_1(self, tmp_path, capsys):
        code = main(["inspect-model", "--model", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["inspect-model", "--model", str(bad)]) == 1

    def test_model_without_trees_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bare.json"
        bad.write_text('{"version": 1}', encoding="utf-8")
        assert main(["inspect-model", "--model", str(bad)]) == 1
        assert "malformed model" in capsys.readouterr().err

    @pytest.mark.parametrize("tree, message", [
        ('{"label": "Adult"}', "bad leaf label 'Adult'"),
        ('{"attr": "no_such_attr", "thr": 1, "left": {"label": "safe"},'
         ' "right": {"label": "adult"}}', "unknown attribute 'no_such_attr'"),
        ('"label"', "a tree node must be a JSON object, got 'label'"),
        ('{"attr": "nbr_img", "thr": 1, "left": "label", "right": {"label": "adult"}}',
         "a tree node must be a JSON object, got 'label'"),
    ])
    def test_bad_tree_node_exits_1(self, tmp_path, capsys, tree, message):
        bad = tmp_path / "bad_node.json"
        bad.write_text(f'{{"version": 1, "vote_threshold": 0.5, "trees": [{tree}]}}', encoding="utf-8")
        assert main(["inspect-model", "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "malformed model" in err and message in err

    @pytest.mark.parametrize("name", BAD_NUMBER_MODELS)
    def test_nan_or_non_number_exits_1(self, workspace, tmp_path, capsys, name):
        bad = tmp_path / "bad_number.json"
        bad.write_text(bad_number_model(name), encoding="utf-8")
        index = tmp_path / "index.txt"
        assert main(["inspect-model", "--model", str(bad)]) == 1
        assert main(["filter", "--lexicons", LEXICON_MANIFEST, "--model", str(bad),
                     "--corpus", str(workspace["eval_manifest"]), "--index", str(index)]) == 1
        err = capsys.readouterr().err
        assert err.count("malformed model") == 2 and BAD_NUMBER_MODELS[name][2] in err
        assert not index.exists()

    def test_vote_threshold_of_one_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "never_adult.json"
        bad.write_text('{"version": 1, "vote_threshold": 1.0, "trees": [{"label": "adult"}]}',
                       encoding="utf-8")
        index = tmp_path / "index.txt"
        assert main(["inspect-model", "--model", str(bad)]) == 1
        assert main(["filter", "--lexicons", LEXICON_MANIFEST, "--model", str(bad),
                     "--corpus", str(workspace["eval_manifest"]), "--index", str(index)]) == 1
        err = capsys.readouterr().err
        assert err.count("malformed model") == 2
        assert err.count("vote_threshold must be a number in (0, 1), got 1.0") == 2
        assert not index.exists()

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_version_not_the_integer_1_exits_1(self, tmp_path, capsys, version):
        bad = tmp_path / "version.json"
        bad.write_text(f'{{"version": {version}, "vote_threshold": 0.5, "trees": '
                       '[{"label": "safe"}]}', encoding="utf-8")
        assert main(["inspect-model", "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"unsupported model version {json.loads(version)!r}" in err
        assert "internal error" not in err

    def test_non_utf8_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes('{"version": 1}'.encode("utf-16"))
        assert main(["inspect-model", "--model", str(bad)]) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_utf16_config_exits_1(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(
            json.dumps({"model": str(workspace["model"])}).encode("utf-16")
        )
        assert main(["inspect-model", "--config", str(config)]) == 1
        assert "cannot read config file" in capsys.readouterr().err


# what each input is called in its read error, and the option (or lexicon
# manifest entry) that names it
INPUTS = [
    ("config file", "config"),
    ("lexicon manifest", "lexicons"),
    ("lexicon file", "tags-fr"),
    ("lexicon file", "disclaimer"),
    ("corpus manifest", "corpus"),
    ("model file", "model"),
    ("blacklist file", "blacklist"),
]


class TestInputReader:
    """Every input is read by one reader: an unreadable one is a config error."""

    @pytest.mark.parametrize("broken", ["missing", "utf-16"])
    @pytest.mark.parametrize("what, option", INPUTS, ids=[option for _, option in INPUTS])
    def test_unreadable_input_exits_1(self, workspace, tmp_path, capsys, what, option, broken):
        bad = tmp_path / f"bad_{option}"
        if broken == "utf-16":
            bad.write_bytes('{"a": 1}\n'.encode("utf-16"))
        elif option == "blacklist":  # a missing blacklist starts empty
            bad.mkdir()
        flags = {
            "lexicons": LEXICON_MANIFEST,
            "corpus": str(workspace["eval_manifest"]),
            "model": str(workspace["model"]),
            "index": str(tmp_path / "index.txt"),
        }
        if option in ("tags-fr", "disclaimer"):
            lex_manifest = tmp_path / "lexicons.json"
            lex_manifest.write_text(
                json.dumps({**bundled_lexicon_entries(), option: str(bad)}), encoding="utf-8"
            )
            flags["lexicons"] = str(lex_manifest)
        else:
            flags[option] = str(bad)
        code = main(["filter", *(arg for name, v in flags.items() for arg in (f"--{name}", v))])
        err = capsys.readouterr().err
        assert code == 1
        assert f"cannot read {what} {bad}" in err
        assert "internal error" not in err
        assert {p.name for p in tmp_path.iterdir()} <= {bad.name, "lexicons.json"}

    @pytest.mark.parametrize("text", NOT_JSON.values(), ids=NOT_JSON)
    @pytest.mark.parametrize("option", ["config", "lexicons", "model"])
    def test_malformed_json_exits_1(self, workspace, tmp_path, capsys, option, text):
        """Every JSON input goes through one parser, so a text json.loads
        refuses with a ValueError or a RecursionError is a data error."""
        bad = tmp_path / f"bad_{option}.json"
        bad.write_text(text, encoding="utf-8")
        index = tmp_path / "index.txt"
        flags = {
            "lexicons": LEXICON_MANIFEST,
            "corpus": str(workspace["eval_manifest"]),
            "model": str(workspace["model"]),
            "index": str(index),
            option: str(bad),
        }
        code = main(["filter", *(arg for name, v in flags.items() for arg in (f"--{name}", v))])
        err = capsys.readouterr().err
        what = {"config": f"config file {bad}", "lexicons": f"lexicon manifest {bad}",
                "model": "model file"}[option]
        assert code == 1
        assert f"{what} is not valid JSON" in err
        assert "internal error" not in err
        assert not index.exists()


class TestLexiconLists:
    """A list file is checked against the page's word rule as it is loaded."""

    @staticmethod
    def _filter(tmp_path, lists, html):
        """Run filter on one adult page with the bundled lists, `lists`
        (name -> file text) replacing some of them; return the exit code."""
        entries = bundled_lexicon_entries()
        for name, text in lists.items():
            entries[name] = str(tmp_path / f"{name}.txt")
            Path(entries[name]).write_text(text, encoding="utf-8")
        lex_manifest = tmp_path / "lexicons.json"
        lex_manifest.write_text(json.dumps(entries), encoding="utf-8")
        (tmp_path / "p.html").write_text(html, encoding="utf-8")
        corpus = tmp_path / "manifest.csv"
        corpus.write_text("path,url,label\np.html,http://a.com/x,adult\n", encoding="utf-8")
        model = Path(__file__).resolve().parent / "golden" / "cli" / "train.model.json"
        return main(["filter", "--lexicons", str(lex_manifest), "--corpus", str(corpus),
                     "--model", str(model), "--index", str(tmp_path / "index.txt")])

    @pytest.mark.parametrize("text", ["", "# no term here\n\n"], ids=["empty", "comments"])
    @pytest.mark.parametrize("name", ["tags-fr", "in-url"])
    def test_empty_list_file_names_its_path(self, tmp_path, capsys, name, text):
        code = self._filter(tmp_path, {name: text}, "<p>hello</p>")
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: lexicon file {tmp_path / f'{name}.txt'} holds no term\n"
        assert not (tmp_path / "index.txt").exists()

    def test_url_term_with_a_space_names_its_file(self, tmp_path, capsys):
        code = self._filter(tmp_path, {"in-url": "porn\nsex cam\n"}, "<p>hello</p>")
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            f"error: lexicon file {tmp_path / 'in-url.txt'}: in-url term 'sex cam' "
            "holds a space, which no well-formed URL holds\n"
        )
        assert not (tmp_path / "index.txt").exists()

    def test_disclaimer_phrase_follows_the_word_rule(self, tmp_path, capsys):
        """'18+' is the token '18' on a page, so the phrase must be too."""
        code = self._filter(
            tmp_path, {"disclaimer": "you must be 18+\n"}, "<p>You must be 18+ to enter</p>"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out[: out.rindex("}") + 1])["disclaimer"] == 1
        assert out.endswith("0 pages indexed\n")
        assert (tmp_path / "index.txt").read_text(encoding="utf-8") == ""


def _run_on_written_inputs(workspace, root, encode):
    """Write every input (config file, lexicon manifest and lists, corpus
    manifest and pages, model, blacklist) under root as encode(text), run
    filter and eval on them, and return the outputs."""
    def write(dest, text):
        dest.write_bytes(encode(text))

    eval_dir = workspace["eval_manifest"].parent
    seeded = sorted({p.url.registrable_domain for p in workspace["eval_pages"][:3]})
    (root / "lexicons").mkdir(parents=True)
    entries = {}
    for entry, path in bundled_lexicon_entries().items():
        entries[entry] = str(root / "lexicons" / Path(path).name)
        write(Path(entries[entry]), Path(path).read_text(encoding="utf-8"))
    write(root / "lexicons.json", json.dumps(entries, indent=1) + "\n")
    corpus = root / "corpus"
    corpus.mkdir()
    for page in eval_dir.iterdir():
        # a line end between tags too, not only at the end of the file
        write(corpus / page.name, page.read_text(encoding="utf-8").replace("><", ">\n<"))
    blacklist = root / "blacklist.txt"
    write(blacklist, "".join(f"{d}\n" for d in seeded))
    write(root / "model.json", workspace["model"].read_text(encoding="utf-8"))
    config = root / "config.json"
    write(config, json.dumps({"model": str(root / "model.json")}, indent=1) + "\n")
    common = ["--config", str(config), "--lexicons", str(root / "lexicons.json"),
              "--corpus", str(corpus / "manifest.csv")]
    assert main(["filter", *common, "--index", str(root / "index.txt"),
                 "--blacklist", str(blacklist), "--report", str(root / "filter.json")]) == 0
    assert main(["eval", *common, "--report", str(root / "eval.json")]) == 0
    return [
        (root / out).read_bytes()
        for out in ("index.txt", "blacklist.txt", "filter.json", "eval.json")
    ]


def _utf8(text):
    return text.encode("utf-8")


class TestLineEnds:
    def test_crlf_inputs_give_the_lf_outputs(self, workspace, tmp_path):
        """Every input is read as stored: CRLF files give the index,
        blacklist and reports of LF ones."""
        lf = _run_on_written_inputs(workspace, tmp_path / "lf", _utf8)
        crlf = _run_on_written_inputs(
            workspace, tmp_path / "crlf", lambda text: _utf8(text.replace("\n", "\r\n"))
        )
        assert crlf == lf
        assert json.loads(lf[2])["blacklist"] > 0


class TestByteOrderMark:
    def test_bom_inputs_give_the_plain_outputs(self, workspace, tmp_path):
        """A leading UTF-8 byte order mark is not content: the first term,
        domain, header or JSON value of a file with one reads as without."""
        plain = _run_on_written_inputs(workspace, tmp_path / "plain", _utf8)
        bom = _run_on_written_inputs(
            workspace, tmp_path / "bom", lambda text: _utf8("\ufeff" + text)
        )
        assert bom == plain
        assert json.loads(plain[2])["blacklist"] > 0
