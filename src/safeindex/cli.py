"""Command-line surface: train, filter, eval, inspect-model.

A command that reads a corpus streams it, a row at a time: `train` keeps
one feature vector and label per page, `eval` and `filter` keep no page.
Every option is one row of `OPTIONS`, and every command one row of the
table in `build_parser`, its required options first.  A JSON config file
(--config) may give any option under its name; the value must pass the
flag's check (`errors.check_count`, `check_number`, a path string), an
unknown key is an error, and explicit flags override file values.  `main`
merges the file and checks the required options before the command runs.
Defaults live in TrainConfig, FilterState and Forest.  Exit codes:
0 success, 1 data/config error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

from .errors import ConfigError, SafeIndexError, check_count, check_number
from .evaluation import format_confusion, metrics, score_run
from .features import ATTRIBUTE_NAMES, extract_features
from .fileio import parse_json, read_input, write_atomic
from .forest import (
    MAX_DEPTH,
    Forest,
    TrainConfig,
    forest_score,
    format_report,
    format_tree,
    load_forest,
    save_forest,
    train_forest,
)
from .lexicon import LexiconSet, load_lexicon_set
from .page import Page, PageLoadFailure, iter_corpus
from .pipeline import (
    FilterState,
    StageReport,
    build_safe_index,
    filter_page,
    load_blacklist,
    save_blacklist,
)

# name -> (type, help); every str option names a file
OPTIONS: dict[str, tuple[type, str]] = {
    "lexicons": (str, "lexicon manifest (JSON)"),
    "model": (str, "model file (JSON)"),
    "corpus": (str, "corpus manifest (CSV)"),
    "index": (str, "output: one safe URL per line"),
    "blacklist": (str, "blacklist file, read and updated"),
    "report": (str, "output: stage counts (filter), or metrics and stage counts (eval), as JSON"),
    "trees": (int, "number of boosted trees, >= 1"),
    "fn_cost": (float, "an adult row's start weight, in safe rows (a miss's cost); > 0, finite"),
    "min_leaf_weight": (float, "least weight, in cases, on each side of a split; > 0, finite"),
    "max_depth": (int, f"depth a tree may grow to, >= 1 and <= {MAX_DEPTH}"),
    "seed": (int, "seed of the weights' perturbation after a boosting round fails, >= 0"),
    "vote_threshold": (float, "a page is adult when more than this share of the trees vote "
                       "adult; in (0, 1); 'at least k of n trees' is (k-0.5)/n"),
    "blacklist_trigger": (int, "adult pages of one domain that blacklist it, >= 1"),
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
    ConfigError for a file key that names no option, or with a check's text
    for a value of the wrong type, a path with a NUL byte included; numbers
    come back as floats, and an option left holding "" is dropped as not given."""
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
        kind, name = OPTIONS[key][0], f"option {key}"
        try:
            if kind is int:
                check_count(name, value)
            elif kind is float:
                merged[key] = float(check_number(name, value))
            elif type(value) is not str or "\0" in value:
                raise ConfigError(f"{name} must be a path string, got {value!r}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return {k: v for k, v in merged.items() if v != ""}  # an empty path is not given


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


def _staged_filter(cfg: dict) -> tuple[FilterState, LexiconSet, Forest]:
    """The staged filter's start state, lexicons and model.  The state is
    built first, so a bad blacklist_trigger is a ConfigError, with the
    ValueError's text, before any file is read."""
    try:
        state = FilterState(**{k: v for k, v in cfg.items() if k == "blacklist_trigger"})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return state, load_lexicon_set(cfg["lexicons"]), load_forest(cfg["model"])


def cmd_train(cfg: dict) -> int:
    # the user's options: TrainConfig's ValueError comes before any file is read
    try:
        config = TrainConfig(**{f: cfg[k] for k, f in _TRAIN_FIELDS.items() if k in cfg})
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


def cmd_filter(cfg: dict) -> int:
    state, lexicons, forest = _staged_filter(cfg)
    blacklist_path = cfg.get("blacklist")
    if blacklist_path and Path(blacklist_path).exists():
        state.blacklist = load_blacklist(blacklist_path)
    index, report, state = build_safe_index(
        _corpus_rows(cfg), forest, lexicons, state
    )
    # The index goes first.  If the blacklist is then lost, the next run
    # only strikes those domains again; if the blacklist were saved and
    # the index lost, this run's safe pages would be dropped.
    write_atomic(cfg["index"], "".join(f"{url}\n" for url in index))
    if blacklist_path:
        save_blacklist(state.blacklist, blacklist_path)
    if cfg.get("report"):
        write_atomic(cfg["report"], json.dumps(report.as_dict(), indent=2) + "\n")
    print(json.dumps(report.as_dict(), indent=2))
    print(f"{len(index)} pages indexed")
    return 0


def _print_scores(pairs: Counter[tuple[str, str]]) -> dict:
    """Print the confusion matrix of (gold, predicted) `pairs` and its four
    metrics; return both as `eval --report` records them."""
    cm = score_run(pairs.elements())
    scores = metrics(cm)
    print(format_confusion(cm))
    for name, value in scores.items():
        print(f"{name}: {'n/a' if value is None else f'{value:.4%}'}")
    return {"confusion": {"tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn}, "metrics": scores}


def cmd_eval(cfg: dict) -> int:
    state, lexicons, forest = _staged_filter(cfg)
    stage_report = StageReport()
    # (gold, predicted) -> pages, as the forest alone and the staged filter decide
    by_forest: Counter[tuple[str, str]] = Counter()
    by_pipeline: Counter[tuple[str, str]] = Counter()
    visits: Counter[str] = Counter()  # attribute -> pages whose walk tested it
    for page in _labeled_pages(cfg, stage_report):
        fv = extract_features(page, lexicons)
        visited: set[str] = set()
        score = forest_score(forest, fv, visited)
        verdict, state = filter_page(page, forest, lexicons, state, fv, score)
        stage_report.tally(verdict)
        by_forest[page.label, forest.label(score)] += 1
        by_pipeline[page.label, verdict.label] += 1
        visits.update(visited)

    doc = _print_scores(by_forest)
    n_pages = sum(by_forest.values())
    usage = {name: visits[name] / n_pages for name in ATTRIBUTE_NAMES}
    print("attribute usage (nonzero):")
    for name, freq in sorted(usage.items(), key=lambda kv: -kv[1]):
        if freq > 0:
            print(f"  {freq:6.1%}  {name}")
    print("full pipeline:")
    pipeline = _print_scores(by_pipeline)
    print("stage report:")
    print(json.dumps(stage_report.as_dict(), indent=2))
    if cfg.get("report"):
        doc.update(attribute_usage=usage, skipped=stage_report.skipped,
                   pipeline=pipeline, stages=stage_report.as_dict())
        write_atomic(cfg["report"], json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_inspect_model(cfg: dict) -> int:
    forest = load_forest(cfg["model"])
    print(f"vote threshold: {forest.vote_threshold}")
    for i, tree in enumerate(forest.trees):
        print(f"tree {i}:")
        print(format_tree(tree, "  "), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safeindex")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary, required, optional in (
        ("train", cmd_train, "train a forest on a labeled corpus", "lexicons model corpus",
         "trees fn_cost min_leaf_weight max_depth seed vote_threshold"),
        ("filter", cmd_filter, "build a safe index from a corpus",
         "lexicons model corpus index", "blacklist blacklist_trigger report"),
        ("eval", cmd_eval, "score the forest and the staged filter on a labeled corpus",
         "lexicons model corpus", "blacklist_trigger report"),
        ("inspect-model", cmd_inspect_model, "pretty-print a model's trees", "model", ""),
    ):
        # flags are exact, as config keys are: a prefix of a flag is no flag
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in f"{required} {optional}".split():
            kind, text = OPTIONS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=text)
        p.set_defaults(func=func, required=required.split())
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        missing = [k for k in args.required if k not in cfg]
        if missing:
            raise ConfigError(f"missing required options: {', '.join(missing)}")
        return args.func(cfg)
    except (SafeIndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
