"""Command-line surface: train, filter, eval, inspect-model.

Options can come from a JSON config file (--config); explicit flags
override file values.  Exit codes: 0 success, 1 data/config error,
2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, SafeIndexError, TrainingError
from .evaluation import attribute_usage, format_confusion, metrics, score_run
from .features import extract_features
from .fileio import write_atomic
from .forest import (
    TrainConfig,
    check_vote_threshold,
    classify,
    count_threshold,
    format_report,
    format_tree,
    load_forest,
    save_forest,
    train_forest,
)
from .lexicon import load_lexicon_set
from .page import Page, iter_corpus, load_labeled_corpus
from .pipeline import (
    FilterState,
    StageReport,
    build_safe_index,
    filter_page,
    load_blacklist,
    save_blacklist,
)


# Options that name a file; a config file could give them any JSON value.
_PATH_OPTIONS = ("lexicons", "corpus", "model", "index", "blacklist", "report")


def _merge_config(args: argparse.Namespace) -> dict:
    """File values first, then every flag the user actually set.  Raises
    ConfigError when a path option is not a string."""
    merged: dict = {}
    if getattr(args, "config", None):
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        merged.update(doc)
    for key, value in vars(args).items():
        if key in ("config", "func") or value is None:
            continue
        merged[key] = value
    bad = [key for key in _PATH_OPTIONS if key in merged and not isinstance(merged[key], str)]
    if bad:
        raise ConfigError(f"option {bad[0]} must be a path string, got {merged[bad[0]]!r}")
    return merged


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")


def _vote_threshold(cfg: dict, n_trees: int) -> float:
    if "min_votes" in cfg:
        return count_threshold(n_trees, int(cfg["min_votes"]))
    return check_vote_threshold(float(cfg.get("vote_threshold", 0.5)))


def _load_labeled(cfg: dict) -> list[Page]:
    pages = load_labeled_corpus(cfg["corpus"])
    if not pages:
        raise ConfigError("no labeled pages")
    return pages


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "lexicons", "corpus", "model")
    # TrainConfig, count_threshold and check_vote_threshold reject
    # out-of-range values with ValueError; here those values are the
    # user's options, so they are checked before any file is read.
    try:
        config = TrainConfig(
            n_trees=int(cfg.get("trees", 10)),
            fn_cost=float(cfg.get("fn_cost", 20.0)),
            min_leaf_weight=float(cfg.get("min_leaf_weight", 2.0)),
            max_depth=int(cfg.get("max_depth", 12)),
            rng_seed=int(cfg.get("seed", 0)),
        )
        vote_threshold = _vote_threshold(cfg, config.n_trees)
    except ValueError as exc:
        raise ConfigError(f"bad training option: {exc}") from exc
    lexicons = load_lexicon_set(cfg["lexicons"])
    pages = _load_labeled(cfg)
    vectors = [extract_features(p, lexicons) for p in pages]
    labels = [p.label for p in pages]
    forest, report = train_forest(vectors, labels, config)
    forest = replace(forest, vote_threshold=vote_threshold)
    # the report's global error is the saved model's, at its threshold
    wrong = sum(classify(forest, fv) != label for fv, label in zip(vectors, labels))
    report = replace(report, global_training_error=wrong / len(vectors))
    save_forest(forest, cfg["model"])
    print(format_report(report))
    print(f"model written to {cfg['model']}")
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    _require(cfg, "lexicons", "corpus", "model", "index")
    state = FilterState(blacklist_trigger=cfg.get("blacklist_trigger", 3))
    lexicons = load_lexicon_set(cfg["lexicons"])
    forest = load_forest(cfg["model"])
    blacklist_path = cfg.get("blacklist")
    if blacklist_path and Path(blacklist_path).exists():
        state.blacklist = load_blacklist(blacklist_path)
    index, report, state = build_safe_index(
        iter_corpus(cfg["corpus"]), forest, lexicons, state
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
    state = FilterState(blacklist_trigger=cfg.get("blacklist_trigger", 3))
    lexicons = load_lexicon_set(cfg["lexicons"])
    forest = load_forest(cfg["model"])
    pages = _load_labeled(cfg)

    vectors = [extract_features(p, lexicons) for p in pages]
    if cfg.get("full_pipeline"):
        stage_report = StageReport()
        predictions = []
        for page, fv in zip(pages, vectors):
            verdict, state = filter_page(page, forest, lexicons, state, fv)
            stage_report.tally(verdict)
            predictions.append(verdict.label)
    else:
        # forest stage only: no blacklist, disclaimer, or TLD shortcuts
        predictions = [classify(forest, fv) for fv in vectors]
        stage_report = None

    cm = score_run([(p.label, pred) for p, pred in zip(pages, predictions)])
    scores = metrics(cm)
    usage = attribute_usage(forest, vectors)

    print(format_confusion(cm))
    for name, value in scores.items():
        print(f"{name}: {'n/a' if value is None else f'{value:.4%}'}")
    print("attribute usage (nonzero):")
    for name, freq in sorted(usage.items(), key=lambda kv: -kv[1]):
        if freq > 0:
            print(f"  {freq:6.1%}  {name}")
    if stage_report is not None:
        print("stage report:")
        print(json.dumps(stage_report.as_dict(), indent=2))
    if cfg.get("report"):
        doc = {
            "confusion": {"tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn},
            "metrics": scores,
            "attribute_usage": usage,
        }
        if stage_report is not None:
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--lexicons", help="lexicon manifest (JSON)")
    parser.add_argument("--model", help="model file (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safeindex")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest on a labeled corpus")
    _add_common(p)
    p.add_argument("--corpus", help="corpus manifest (CSV)")
    p.add_argument("--trees", type=int)
    p.add_argument("--fn-cost", dest="fn_cost", type=float)
    p.add_argument("--min-leaf-weight", dest="min_leaf_weight", type=float)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--vote-threshold", dest="vote_threshold", type=float)
    p.add_argument("--min-votes", dest="min_votes", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("filter", help="build a safe index from a corpus")
    _add_common(p)
    p.add_argument("--corpus", help="corpus manifest (CSV)")
    p.add_argument("--index", help="output: one safe URL per line")
    p.add_argument("--blacklist", help="blacklist file, read and updated")
    p.add_argument("--blacklist-trigger", dest="blacklist_trigger", type=int)
    p.add_argument("--report", help="output: stage counts as JSON")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("eval", help="score the forest on a labeled corpus")
    _add_common(p)
    p.add_argument("--corpus", help="corpus manifest (CSV)")
    p.add_argument(
        "--full-pipeline",
        dest="full_pipeline",
        action="store_const",
        const=True,
        help="include blacklist/disclaimer/TLD stages (default: forest only)",
    )
    p.add_argument("--report", help="output: metrics as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-model", help="pretty-print a model's trees")
    _add_common(p)
    p.set_defaults(func=cmd_inspect_model)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SafeIndexError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
