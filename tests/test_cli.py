import json
import os
from importlib.resources import files

import pytest

import safeindex.cli
import safeindex.pipeline
from safeindex import ADULT, build_safe_index, load_forest
from safeindex.cli import main
from safeindex.features import extract_features
from safeindex.page import load_labeled_corpus
from safeindex.synth import generate_corpus, write_corpus

from helpers import count_extract_text

LEXICON_MANIFEST = str(files("safeindex").joinpath("data/lexicons/manifest.json"))


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

    def test_min_votes_sets_vote_threshold(self, workspace):
        model = workspace["root"] / "minvotes.json"
        code = main(
            [
                "train",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["train_manifest"]),
                "--model", str(model),
                "--min-votes", "3",
            ]
        )
        assert code == 0
        assert load_forest(model).vote_threshold == pytest.approx(0.25)

    @pytest.mark.parametrize("flag", [["--min-votes", "1"], ["--vote-threshold", "0.25"]])
    def test_reported_error_is_the_saved_models(self, noisy_manifest, tmp_path, capsys, flag):
        model, report = tmp_path / "model.json", tmp_path / "eval.json"
        common = ["--lexicons", LEXICON_MANIFEST, "--corpus", str(noisy_manifest), "--model", str(model)]
        assert main(["train", *common, *flag]) == 0
        out = capsys.readouterr().out
        assert main(["eval", *common, "--report", str(report)]) == 0
        accuracy = json.loads(report.read_text(encoding="utf-8"))["metrics"]["accuracy"]
        assert f"global error: {1 - accuracy:.1%}\n" in out

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

    def test_missing_options_exit_1(self, capsys):
        assert main(["train", "--model", "x.json"]) == 1
        assert "missing required options" in capsys.readouterr().err

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
            ["--vote-threshold", "1.5"],
            ["--min-votes", "0"],
            ["--min-votes", "11", "--trees", "10"],
        ],
        ids=lambda option: " ".join(option),
    )
    def test_out_of_range_option_exits_1(self, workspace, monkeypatch, capsys, option):
        def refuse(*args, **kwargs):
            raise AssertionError("read or trained before the options were checked")

        monkeypatch.setattr(safeindex.cli, "load_lexicon_set", refuse)
        monkeypatch.setattr(safeindex.cli, "train_forest", refuse)
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
        assert set(doc) == {"confusion", "metrics", "attribute_usage"}
        assert sum(doc["confusion"].values()) == 40

    def test_full_pipeline_adds_stage_report(self, workspace, capsys):
        code = main(
            [
                "eval",
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(workspace["eval_manifest"]),
                "--model", str(workspace["model"]),
                "--full-pipeline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stage report:" in out

    def test_full_pipeline_extracts_each_page_once(self, workspace, lexicons, monkeypatch):
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
                "--full-pipeline",
                "--report", str(report),
            ]
        )
        assert code == 0
        assert len(calls) == 30
        monkeypatch.undo()
        # the stages are those of the filter that extracts on its own
        _, expected, _ = build_safe_index(
            load_labeled_corpus(manifest), load_forest(workspace["model"]), lexicons
        )
        assert json.loads(report.read_text(encoding="utf-8"))["stages"] == expected.as_dict()

    def test_full_pipeline_stages_follow_blacklist_trigger(self, workspace):
        root = workspace["root"]
        corpus = root / "trigger"
        corpus.mkdir()
        (corpus / "gate.html").write_text("<p>you must be 18 to enter</p>", encoding="utf-8")
        (corpus / "plain.html").write_text("<p>garden notes for march</p>", encoding="utf-8")
        manifest = corpus / "manifest.csv"
        manifest.write_text(
            "path,url,label\n"
            "gate.html,http://gated.com/1,adult\n"
            "plain.html,http://gated.com/2,adult\n"
            "plain.html,http://gated.com/3,adult\n"
            "plain.html,http://garden.org/1,safe\n",
            encoding="utf-8",
        )
        config = root / "trigger.json"
        config.write_text(json.dumps({"blacklist_trigger": 1}), encoding="utf-8")
        report = root / "trigger_report.json"
        code = main(
            [
                "eval",
                "--config", str(config),
                "--lexicons", LEXICON_MANIFEST,
                "--corpus", str(manifest),
                "--model", str(workspace["model"]),
                "--full-pipeline",
                "--report", str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        stages, cm = doc["stages"], doc["confusion"]
        # one strike blacklists gated.com, so its later pages stop there
        assert stages["disclaimer"] == 1
        assert stages["blacklist"] == 2
        adult_stages = ("blacklist", "disclaimer", "tld_xxx", "forest_adult")
        assert sum(stages[s] for s in adult_stages) == cm["tp"] + cm["fp"]
        assert stages["forest_safe"] == cm["tn"] + cm["fn"]


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["filter", "--blacklist-trigger", "0"], {}, "must be >= 1"),
            (["filter", "--blacklist-trigger", "-2"], {}, "must be >= 1"),
            (["filter"], {"blacklist_trigger": 0}, "must be >= 1"),
            (["eval", "--full-pipeline"], {"blacklist_trigger": 0}, "must be >= 1"),
            *(
                (args, {"blacklist_trigger": trigger}, "must be an integer")
                for args in (["filter"], ["eval", "--full-pipeline"])
                for trigger in ("three", 2.7, True)
            ),
        ],
        ids=[
            "filter flag 0", "filter flag -2", "filter config 0", "eval config 0",
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

    @pytest.mark.parametrize("key", ["lexicons", "corpus", "model", "index", "blacklist", "report"])
    def test_non_string_path_option_exits_1(self, workspace, tmp_path, capsys, key):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: 5}), encoding="utf-8")
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
        assert not (tmp_path / "index.txt").exists()

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
    ])
    def test_bad_tree_node_exits_1(self, tmp_path, capsys, tree, message):
        bad = tmp_path / "bad_node.json"
        bad.write_text(f'{{"version": 1, "vote_threshold": 0.5, "trees": [{tree}]}}', encoding="utf-8")
        assert main(["inspect-model", "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "malformed model" in err and message in err

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
