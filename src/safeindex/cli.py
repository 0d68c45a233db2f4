"""Command-line surface: train, filter, eval, inspect-model.

A command that reads a corpus streams it, a row at a time: `train` keeps
one feature vector and label per page, `eval` and `filter` keep no page.
Every option is one row of `OPTIONS`.  A JSON config file (--config) may
give any option under its name; the value must have the flag's JSON type,
an unknown key is an error, and explicit flags override file values.
Defaults live in TrainConfig, FilterState and Forest.  Exit codes:
0 success, 1 data/config error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from .errors import ConfigError, SafeIndexError
from .evaluation import format_confusion, metrics, score_run
from .features import ATTRIBUTE_NAMES, extract_features
from .fileio import parse_json, read_input, write_atomic
from .forest import (
    TrainConfig,
    count_threshold,
    forest_score,
    format_report,
    format_tree,
    load_forest,
    save_forest,
    train_forest,
)
from .lexicon import load_lexicon_set
from .page import Page, PageLoadFailure, iter_corpus
from .pipeline import (
    FilterState,
    StageReport,
    build_safe_index,
    filter_page,
    load_blacklist,
    save_blacklist,
)

# name -> (type, help); every str option names a file, bool is an on/off flag
OPTIONS: dict[str, tuple[type, str | None]] = {
    "lexicons": (str, "lexicon manifest (JSON)"),
    "model": (str, "model file (JSON)"),
    "corpus": (str, "corpus manifest (CSV)"),
    "index": (str, "output: one safe URL per line"),
    "blacklist": (str, "blacklist file, read and updated"),
    "report": (str, "output: stage counts (filter) or metrics (eval) as JSON"),
    "trees": (int, None),
    "fn_cost": (float, None),
    "min_leaf_weight": (float, None),
    "max_depth": (int, None),
    "seed": (int, None),
    "vote_threshold": (float, None),
    "min_votes": (int, None),
    "blacklist_trigger": (int, None),
    "full_pipeline": (bool, "include blacklist/disclaimer/TLD stages (default: forest only)"),
}

# type -> (what a value must be, its JSON types); exact, as true is no int
_KINDS = {
    str: ("a path string", (str,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    bool: ("a boolean", (bool,)),
}

# train's options, by the TrainConfig field each one sets
_TRAIN_FIELDS = {
    "trees": "n_trees",
    "fn_cost": "fn_cost",
    "min_leaf_weight": "min_leaf_weight",
    "max_depth": "max_depth",
    "seed": "rng_seed",
    "vote_threshold": "vote_threshold",
}


def _merge_config(args: argparse.Namespace) -> dict:
    """File values first, then every flag the user actually set.  Raises
    ConfigError for a file key that names no option, or for a value of
    the wrong type, a path with a NUL byte included; numbers come back
    as floats."""
    merged: dict = {}
    if args.config:
        text = read_input(args.config, "config file")
        doc = parse_json(text, f"config file {args.config}")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        merged.update(doc)
    merged.update((k, v) for k, v in vars(args).items() if k in OPTIONS and v is not None)
    for key, value in merged.items():
        if key not in OPTIONS:
            raise ConfigError(f"unknown option {key!r} in config file {args.config}")
        kind = OPTIONS[key][0]
        what, json_types = _KINDS[kind]
        if type(value) not in json_types or (kind is str and "\0" in value):
            raise ConfigError(f"option {key} must be {what}, got {value!r}")
        merged[key] = kind(value)
    return merged


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")


def _printable(text: str) -> str:
    """text with each non-printable character escaped as repr() escapes it,
    so a line break or NUL in a manifest field cannot split a stderr line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _corpus_rows(cfg: dict) -> Iterator[Page | PageLoadFailure]:
    """The corpus's rows, printing one line `skipped <path>: <reason>` to
    stderr for each PageLoadFailure."""
    for row in iter_corpus(cfg["corpus"]):
        if isinstance(row, PageLoadFailure):
            print(f"skipped {_printable(row.path)}: {_printable(row.error)}", file=sys.stderr)
        yield row


def _labeled_pages(cfg: dict, report: StageReport) -> Iterator[Page]:
    """The corpus's labeled pages, one at a time; every other row counts in
    `report.skipped`, and an unlabeled page is named on stderr by its URL.
    When the rows run out, prints `skipped N of M manifest rows` if N > 0."""
    rows = 0
    for rows, row in enumerate(_corpus_rows(cfg), 1):
        if isinstance(row, Page) and row.label is not None:
            yield row
            continue
        if isinstance(row, Page):
            print(f"skipped {_printable(row.url.full_url)}: unlabeled", file=sys.stderr)
        report.skipped += 1
    if rows == report.skipped:
        raise ConfigError("no labeled pages")
    if report.skipped:
        print(f"skipped {report.skipped} of {rows} manifest rows")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "lexicons", "corpus", "model")
    if "min_votes" in cfg and "vote_threshold" in cfg:
        raise ConfigError("give vote_threshold or min_votes, not both")
    # TrainConfig and count_threshold reject out-of-range values with
    # ValueError; here those values are the user's options, so they are
    # checked before any file is read.
    try:
        config = TrainConfig(**{f: cfg[k] for k, f in _TRAIN_FIELDS.items() if k in cfg})
        if "min_votes" in cfg:
            threshold = count_threshold(config.n_trees, cfg["min_votes"])
            config = replace(config, vote_threshold=threshold)
    except ValueError as exc:
        raise ConfigError(f"bad training option: {exc}") from exc
    lexicons = load_lexicon_set(cfg["lexicons"])
    rows = [(extract_features(p, lexicons), p.label) for p in _labeled_pages(cfg, StageReport())]
    vectors, labels = zip(*rows)
    forest, report = train_forest(vectors, labels, config)
    save_forest(forest, cfg["model"])
    print(format_report(report))
    print(f"model written to {cfg['model']}")
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "lexicons", "corpus", "model", "index")
    state = FilterState(**{k: v for k, v in cfg.items() if k == "blacklist_trigger"})
    lexicons = load_lexicon_set(cfg["lexicons"])
    forest = load_forest(cfg["model"])
    blacklist_path = cfg.get("blacklist")
    if blacklist_path and Path(blacklist_path).exists():
        state.blacklist = load_blacklist(blacklist_path)
    index, report, state = build_safe_index(
        _corpus_rows(cfg), forest, lexicons, state
    )
    write_atomic(cfg["index"], "".join(f"{url}\n" for url in index))
    if blacklist_path:
        save_blacklist(state.blacklist, blacklist_path)
    if cfg.get("report"):
        write_atomic(cfg["report"], json.dumps(report.as_dict(), indent=2) + "\n")
    print(json.dumps(report.as_dict(), indent=2))
    print(f"{len(index)} pages indexed")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "lexicons", "corpus", "model")
    # built up front so a bad blacklist_trigger fails before any file is read
    state = FilterState(**{k: v for k, v in cfg.items() if k == "blacklist_trigger"})
    lexicons = load_lexicon_set(cfg["lexicons"])
    forest = load_forest(cfg["model"])
    stage_report = StageReport()
    pairs: Counter[tuple[str, str]] = Counter()  # (gold, predicted) -> pages
    visits: Counter[str] = Counter()  # attribute -> pages whose walk tested it
    for page in _labeled_pages(cfg, stage_report):
        fv = extract_features(page, lexicons)
        visited: set[str] = set()
        score = forest_score(forest, fv, visited)
        # the forest stage alone decides, unless --full-pipeline's stages run
        if cfg.get("full_pipeline"):
            verdict, state = filter_page(page, forest, lexicons, state, fv, score)
            stage_report.tally(verdict)
            predicted = verdict.label
        else:
            predicted = forest.label(score)
        pairs[page.label, predicted] += 1
        visits.update(visited)

    cm = score_run(pairs.elements())
    scores = metrics(cm)
    usage = {name: visits[name] / cm.total for name in ATTRIBUTE_NAMES}

    print(format_confusion(cm))
    for name, value in scores.items():
        print(f"{name}: {'n/a' if value is None else f'{value:.4%}'}")
    print("attribute usage (nonzero):")
    for name, freq in sorted(usage.items(), key=lambda kv: -kv[1]):
        if freq > 0:
            print(f"  {freq:6.1%}  {name}")
    if cfg.get("full_pipeline"):
        print("stage report:")
        print(json.dumps(stage_report.as_dict(), indent=2))
    if cfg.get("report"):
        doc = {
            "confusion": {"tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn},
            "metrics": scores,
            "attribute_usage": usage,
            "skipped": stage_report.skipped,
        }
        if cfg.get("full_pipeline"):
            doc["stages"] = stage_report.as_dict()
        write_atomic(cfg["report"], json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_inspect_model(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "model")
    forest = load_forest(cfg["model"])
    print(f"vote threshold: {forest.vote_threshold}")
    for i, tree in enumerate(forest.trees):
        print(f"tree {i}:")
        print(format_tree(tree, "  "), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safeindex")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary, options in (
        ("train", cmd_train, "train a forest on a labeled corpus",
         "lexicons model corpus trees fn_cost min_leaf_weight max_depth seed"
         " vote_threshold min_votes"),
        ("filter", cmd_filter, "build a safe index from a corpus",
         "lexicons model corpus index blacklist blacklist_trigger report"),
        ("eval", cmd_eval, "score the forest on a labeled corpus",
         "lexicons model corpus full_pipeline report"),
        ("inspect-model", cmd_inspect_model, "pretty-print a model's trees", "model"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in options.split():
            kind, text = OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=name, action="store_const", const=True, help=text)
            else:
                p.add_argument(flag, dest=name, type=kind, help=text)
        p.set_defaults(func=func)
    return parser

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SafeIndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
