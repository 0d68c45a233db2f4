#!/usr/bin/env python3
"""Benchmark of the safeindex filter.

    python3 bench/run.py --workload crawl-fresh --seed 1 --seconds 25 --trace 0

Runs the package in src/ of this tree, never an installed copy, in one
single-threaded process.  The workloads are crawl-fresh, crawl-revisit,
train-noisy and synth-corpus (see README.md).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
wraps the program's public functions in timing shims and reports the
per-layer ones.

Timings are taken over many passes of the same fixed input, with each
short item (a page, a row, a corpus call, a training) timed on its own.
The host switches between speed levels up to 1.8x apart that last
seconds, so a run keeps each item's fastest time and reports sums and
percentiles of those: they repeat from run to run, where medians and
whole-pass times do not.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter_ns

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference  # noqa: E402
from trace import Tracer  # noqa: E402

SRC = gen.ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("crawl-fresh", "crawl-revisit", "train-noisy", "synth-corpus")
STAGES = ("blacklist", "disclaimer", "tld_xxx", "forest_adult", "forest_safe")

SETUP_PROBES = 7        # cold set-ups per run, spread over it; setup_s is their median
MIN_ROUNDS = 3          # a run measures at least this many rounds
TRAIN_SUBSETS = 4       # train_forest calls per round, on disjoint rows
TRAIN_ROWS = 30         # per class and subset; one train_forest takes about 0.06 s
HELD_OUT_ROWS = 200     # per class
EVAL_PASSES = 2         # eval passes per train_forest call
CORPUS_PAGES = 20       # per generate_corpus call, half of them adult
CORPUS_SEEDS = 4        # noisy and clean corpora per round; averages out page lengths
FILL_ROUNDS = 4         # traced rounds of a workload that fills in layers

CRAWL_LAYERS = (
    "page.extract_text_us", "page.parse_url_us", "page.tokens",
    "features.extract_us", "features.calls", "forest.score_us",
    "pipeline.has_disclaimer_us", "pipeline.filter_page_us.forest",
    "pipeline.filter_page_us.short", "pipeline.short_circuit_ratio",
    "pipeline.pages_filtered", *(f"pipeline.stage.{s}" for s in STAGES),
    "pipeline.state_entries",
)
TRAIN_LAYERS = (
    "forest.grow_tree_s", "forest.best_split_us", "forest.best_split_calls",
    "forest.entropy_calls", "forest.classify_us", "evaluation.attribute_usage_s",
)
SYNTH_LAYERS = ("synth.generate_corpus_s",)
COMMON_LAYERS = ("lexicon.load_s", "forest.load_s", "forest.tree_nodes", "trace.overhead_pct")
PER_LAYER = CRAWL_LAYERS + TRAIN_LAYERS + SYNTH_LAYERS + COMMON_LAYERS
LAYERS_OF = {
    "crawl-fresh": CRAWL_LAYERS, "crawl-revisit": CRAWL_LAYERS,
    "train-noisy": TRAIN_LAYERS, "synth-corpus": SYNTH_LAYERS,
}
END_TO_END_UNITS = {
    "pages_per_s": "1/s", "page_p50_us": "us", "page_p90_us": "us",
    "batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def latencies(fastest: list[int]) -> tuple[float, float]:
    """Median and 90th percentile, in us, of the items' fastest times (ns).

    Every workload that has them has at least 100 items, so ten or more
    lie beyond the 90th percentile.
    """
    return statistics.median(fastest) / 1e3, statistics.quantiles(fastest, n=10)[8] / 1e3


class ProgramMissing(Exception):
    pass


class Program:
    """The package under test, imported from src/ of this tree."""

    def __init__(self):
        package = SRC / "safeindex"
        if not (package / "__init__.py").is_file():
            raise ProgramMissing(f"no package source at {package}")
        sys.path.insert(0, str(SRC))
        for name in ("page", "lexicon", "features", "forest", "pipeline", "evaluation", "synth"):
            module = importlib.import_module(f"safeindex.{name}")
            if Path(module.__file__).resolve().parent != package.resolve():
                raise ProgramMissing(f"safeindex.{name} imported from {module.__file__}, not {package}")
            setattr(self, name, module)

    def lexicons(self):
        return self.lexicon.load_lexicon_set(gen.LEXICON_MANIFEST)

    def model(self):
        return self.forest.load_forest(gen.MODEL_PATH)


def tree_nodes(model: dict) -> int:
    def size(node):
        return 1 if "label" in node else 1 + size(node["left"]) + size(node["right"])
    return sum(size(t) for t in model["trees"])


def per_call(st: dict, tracer: Tracer, kind: str, name: str, scale: float, inclusive: bool = False):
    """Fastest pass's self (or inclusive) time per call of one span."""
    values = []
    for pass_id in tracer.passes(kind):
        calls, incl, own = st.get((name, pass_id), (0, 0, 0))
        if calls:
            values.append((incl if inclusive else own) / calls)
    return min(values) / scale if values else None


def per_pass(tracer: Tracer, kind: str, value) -> float | None:
    values = [value(p) for p in tracer.passes(kind)]
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# workloads: each runs rounds of passes, checks outputs, gives metrics


class Timings:
    def __init__(self, n_items: int):
        self.usage: list[int] = []     # ns per attribute_usage call (train-noisy)
        self.training: list[list[int]] = [[] for _ in range(TRAIN_SUBSETS)]   # ns per train_forest call
        self.items: list[list[int]] = [[] for _ in range(n_items)]   # ns per item, per pass


class Crawl:
    """(URL, HTML) -> verdict through page_from_html and build_safe_index.

    A round is one pass of the crawl through build_safe_index, from an
    empty FilterState, so every pass does the same work.  The pages reach
    build_safe_index through a generator that notes the clock each time
    the next page is asked for: the time between two asks is one page's
    page_from_html + filter_page, measured without touching the program.
    """

    def __init__(self, prog: Program, name: str, seed: int):
        self.prog = prog
        self.name = name
        self.pages = gen.crawl_fresh(seed) if name == "crawl-fresh" else gen.crawl_revisit(seed)
        self.inputs = [(p.url, p.html) for p in self.pages]
        self.lex = prog.lexicons()
        self.forest = prog.model()
        self.model = json.loads(gen.MODEL_PATH.read_text(encoding="utf-8"))
        self.expected = None
        self.ops_per_round = len(self.pages)
        self.n_items = len(self.pages)

    def batch_pass(self, tracer=None):
        """((index, stage counts, blacklist), per-page ns) of one pass."""
        page, pipeline = self.prog.page, self.prog.pipeline
        asks: list[int] = []

        def feed():
            for url, html in self.inputs:
                asks.append(perf_counter_ns())
                yield page.page_from_html(url, html)

        if tracer is not None:
            pass_id = tracer.begin("batch")
        index, report, state = pipeline.build_safe_index(feed(), self.forest, self.lex)
        asks.append(perf_counter_ns())
        counts = {s: getattr(report, s) for s in STAGES}
        if tracer is not None:
            tracer.facts[pass_id] = dict(counts, state_entries=len(state.blacklist)
                                         + len(state.unsafe_counts) + len(state.counted_urls))
        return (index, counts, set(state.blacklist)), [b - a for a, b in zip(asks, asks[1:])]

    def verdicts(self):
        """(label, reason, score) of every page, through filter_page."""
        page, pipeline = self.prog.page, self.prog.pipeline
        state = pipeline.FilterState()
        out = []
        for url, html in self.inputs:
            verdict, state = pipeline.filter_page(page.page_from_html(url, html), self.forest, self.lex, state)
            out.append((verdict.label, verdict.reason, verdict.score))
        return out

    def check(self) -> list[str]:
        page, features = self.prog.page, self.prog.features
        lists = gen.read_lists()
        problems = reference.check_text(self.pages, [page.extract_text(h) for _, h in self.inputs])
        vectors = [
            tuple(features.extract_features(page.page_from_html(u, h), self.lex).values)
            for u, h in self.inputs
        ]
        problems += reference.check_features(self.pages, vectors, reference.TermSets(lists))
        batch, _ = self.batch_pass()
        problems += reference.check_crawl(self.pages, self.model, vectors, self.verdicts(), *batch, lists)
        self.expected = batch
        return problems

    def round(self, timings: Timings, problems: list[str], tracer=None) -> None:
        batch, times = self.batch_pass(tracer)
        for item, t in zip(timings.items, times):
            item.append(t)
        if batch != self.expected:
            problems.append(f"{self.name}: a pass gave other outputs than the checked one")

    def metrics(self, timings: Timings) -> dict[str, float]:
        fastest = [min(t) for t in timings.items]
        p50, p90 = latencies(fastest)
        return {
            "pages_per_s": len(self.pages) / (sum(fastest) / 1e9),
            "page_p50_us": p50,
            "page_p90_us": p90,
            "batch_s": sum(fastest) / 1e9,
        }

    def install(self, tracer: Tracer) -> None:
        page, pipeline = self.prog.page, self.prog.pipeline
        tracer.patch(page, "extract_text", "page.extract_text",
                     lambda f: tracer.span("page.extract_text", f, count=lambda r: len(r[0])))
        tracer.patch(page, "parse_url", "page.parse_url", lambda f: tracer.span("page.parse_url", f))
        tracer.patch(pipeline, "extract_features", "features.extract_features",
                     lambda f: tracer.span("features.extract", f))
        tracer.patch(pipeline, "forest_score", "forest.forest_score",
                     lambda f: tracer.span("forest.score", f))
        tracer.patch(pipeline, "has_disclaimer", "pipeline.has_disclaimer",
                     lambda f: tracer.span("pipeline.has_disclaimer", f))
        tracer.patch(pipeline, "filter_page", "pipeline.filter_page", lambda f: tracer.span(
            "pipeline.filter_page", f,
            rename=lambda r: "pipeline.filter_page." + ("forest" if r[0].reason == "forest" else "short")))

    def layer_metrics(self, tracer: Tracer) -> dict[str, float | None]:
        if not tracer.passes("batch"):
            return {}
        st = tracer.self_times()

        def calls(name, pass_id):
            return st.get((name, pass_id), (0, 0, 0))[0]

        def short_ratio(p):
            short = calls("pipeline.filter_page.short", p)
            return short / (short + calls("pipeline.filter_page.forest", p))

        out = {
            "page.extract_text_us": per_call(st, tracer, "batch", "page.extract_text", 1e3),
            "page.parse_url_us": per_call(st, tracer, "batch", "page.parse_url", 1e3),
            "page.tokens": per_pass(tracer, "batch", lambda p: tracer.counts[("page.extract_text.n", p)]),
            "features.extract_us": per_call(st, tracer, "batch", "features.extract", 1e3),
            "features.calls": per_pass(tracer, "batch", lambda p: calls("features.extract", p)),
            "forest.score_us": per_call(st, tracer, "batch", "forest.score", 1e3),
            "pipeline.has_disclaimer_us": per_call(st, tracer, "batch", "pipeline.has_disclaimer", 1e3),
            "pipeline.filter_page_us.forest": per_call(
                st, tracer, "batch", "pipeline.filter_page.forest", 1e3, inclusive=True),
            "pipeline.filter_page_us.short": per_call(
                st, tracer, "batch", "pipeline.filter_page.short", 1e3, inclusive=True),
            "pipeline.short_circuit_ratio": per_pass(tracer, "batch", short_ratio),
            "pipeline.pages_filtered": float(len(self.pages)),
            "pipeline.state_entries": per_pass(tracer, "batch", lambda p: tracer.facts[p]["state_entries"]),
            "forest.tree_nodes": float(tree_nodes(self.model)),
        }
        for stage in STAGES:
            out[f"pipeline.stage.{stage}"] = per_pass(tracer, "batch", lambda p: tracer.facts[p][stage])
        return out


class Train:
    """train_forest on fixed overlapping rows, then the work of `eval`.

    The rows are a fixed file (data/train_rows.json); the seed orders
    them.  A round is TRAIN_SUBSETS train_forest calls, each on its own
    rows, then EVAL_PASSES passes that classify every held-out row with
    the first subset's forest and run attribute_usage over them.  Short
    calls are timed on their own: a training batch is the subsets'
    fastest times added, and the eval time is the rows' fastest classify
    times added plus the fastest attribute_usage.
    """

    def __init__(self, prog: Program, seed: int):
        self.prog = prog
        self.name = "train-noisy"
        doc = json.loads(gen.ROWS_PATH.read_text(encoding="utf-8"))
        labels = doc["labels"]
        adult = [i for i, label in enumerate(labels) if label == reference.ADULT]
        safe = [i for i, label in enumerate(labels) if label == reference.SAFE]
        rng = random.Random(f"train-noisy:{seed}")
        fv = prog.features.FeatureVector
        self.subsets = []     # (rows, labels, vectors) per training
        for k in range(TRAIN_SUBSETS):
            take = slice(k * TRAIN_ROWS, (k + 1) * TRAIN_ROWS)
            rows = adult[take] + safe[take]
            rng.shuffle(rows)
            self.subsets.append((
                [tuple(doc["rows"][i]) for i in rows],
                [labels[i] for i in rows],
                [fv(tuple(doc["rows"][i])) for i in rows],
            ))
        used = TRAIN_SUBSETS * TRAIN_ROWS
        held = adult[used:used + HELD_OUT_ROWS] + safe[used:used + HELD_OUT_ROWS]
        rng.shuffle(held)
        self.held_rows = [tuple(doc["rows"][i]) for i in held]
        self.held_vectors = [fv(r) for r in self.held_rows]
        self.config = prog.forest.TrainConfig(fn_cost=float(reference.FN_COST))
        self.expected = None
        self.ops_per_round = TRAIN_SUBSETS + EVAL_PASSES
        self.n_items = len(self.held_rows)

    def train(self, subset: int, tracer=None):
        _, labels, vectors = self.subsets[subset]
        if tracer is not None:
            tracer.begin("train")
        start = perf_counter_ns()
        forest, report = self.prog.forest.train_forest(vectors, labels, self.config)
        elapsed = perf_counter_ns() - start
        if tracer is not None:
            tracer.facts[tracer.pass_id] = {"nodes": sum(s.size for s in report.per_tree)}
        return elapsed, forest, report

    def evaluate(self, forest, tracer=None):
        forest_mod, evaluation = self.prog.forest, self.prog.evaluation
        if tracer is not None:
            tracer.begin("eval")
        times = []
        predicted = []
        for fv in self.held_vectors:
            t = perf_counter_ns()
            predicted.append(forest_mod.classify(forest, fv))
            times.append(perf_counter_ns() - t)
        t = perf_counter_ns()
        usage = evaluation.attribute_usage(forest, self.held_vectors)
        return perf_counter_ns() - t, times, (predicted, usage)

    def check(self) -> list[str]:
        to_json = self.prog.forest.forest_to_json
        problems = []
        texts = []
        for k, (rows, labels, _) in enumerate(self.subsets):
            _, forest, report = self.train(k)
            texts.append(to_json(forest))
            problems += reference.check_training(
                json.loads(texts[k]), rows, labels, report.global_training_error)
            _, again, _ = self.train(k)
            if to_json(again) != texts[k]:
                problems.append("two trainings with the same seed gave different model JSON")
            if k == 0:
                _, _, outputs = self.evaluate(forest)
                problems += reference.check_eval(json.loads(texts[0]), self.held_rows, *outputs)
        self.expected = (texts, outputs)
        return problems

    def round(self, timings: Timings, problems: list[str], tracer=None) -> None:
        for k in range(TRAIN_SUBSETS):
            elapsed, trained, _ = self.train(k, tracer)
            timings.training[k].append(elapsed)
            if self.prog.forest.forest_to_json(trained) != self.expected[0][k]:
                problems.append("train-noisy: a training gave another model than the checked one")
            if k == 0:
                forest = trained
        for _ in range(EVAL_PASSES):
            elapsed, times, outputs = self.evaluate(forest, tracer)
            timings.usage.append(elapsed)
            for item, t in zip(timings.items, times):
                item.append(t)
            if outputs != self.expected[1]:
                problems.append("train-noisy: an eval pass gave other outputs than the checked one")

    def metrics(self, timings: Timings) -> dict[str, float]:
        fastest = [min(t) for t in timings.items]
        p50, p90 = latencies(fastest)
        return {
            "pages_per_s": len(self.held_rows) / ((sum(fastest) + min(timings.usage)) / 1e9),
            "page_p50_us": p50,
            "page_p90_us": p90,
            "batch_s": sum(min(t) for t in timings.training) / 1e9,
        }

    def install(self, tracer: Tracer) -> None:
        forest, evaluation = self.prog.forest, self.prog.evaluation
        tracer.patch(forest, "train_forest", "forest.train_forest",
                     lambda f: tracer.span("forest.train_forest", f))
        tracer.patch(forest, "grow_tree", "forest.grow_tree", lambda f: tracer.span("forest.grow_tree", f))
        tracer.patch(forest, "best_split", "forest.best_split", lambda f: tracer.span("forest.best_split", f))
        tracer.patch(forest, "entropy", "forest.entropy", lambda f: tracer.counter("forest.entropy", f))
        tracer.patch(forest, "classify", "forest.classify", lambda f: tracer.span("forest.classify", f))
        tracer.patch(evaluation, "attribute_usage", "evaluation.attribute_usage",
                     lambda f: tracer.span("evaluation.attribute_usage", f))

    def layer_metrics(self, tracer: Tracer) -> dict[str, float | None]:
        st = tracer.self_times()

        def own(name, pass_id):
            return st.get((name, pass_id), (0, 0, 0))

        return {
            "forest.grow_tree_s": (min([own("forest.grow_tree", p)[2] for p in tracer.passes("train")]) / 1e9
                                   if tracer.passes("train") else None),
            "forest.best_split_us": per_call(st, tracer, "train", "forest.best_split", 1e3),
            "forest.best_split_calls": per_pass(tracer, "train", lambda p: own("forest.best_split", p)[0]),
            "forest.entropy_calls": per_pass(tracer, "train", lambda p: tracer.counts[("forest.entropy", p)]),
            "forest.classify_us": per_call(st, tracer, "eval", "forest.classify", 1e3),
            "evaluation.attribute_usage_s": per_call(st, tracer, "eval", "evaluation.attribute_usage", 1e9),
            "forest.tree_nodes": per_pass(tracer, "train", lambda p: tracer.facts[p]["nodes"]),
        }


class Synth:
    """safeindex.synth.generate_corpus on a noisy and a clean corpus.

    A round makes CORPUS_SEEDS noisy and as many clean corpora, each
    call timed on its own; a batch is the calls' fastest times added.
    generate_corpus draws page lengths from its seed and its padding cost
    grows with the square of the length, so several seeds per round keep
    the work per round close from one --seed to the next.  Pages come out
    of one call, so no page has a time of its own: the latency metrics
    give the batch's time per page.
    """

    def __init__(self, prog: Program, seed: int):
        self.prog = prog
        self.name = "synth-corpus"
        self.calls = [
            (CORPUS_SEEDS * 2 * seed + k, overlap)
            for k, overlap in enumerate([0.3] * CORPUS_SEEDS + [0.1] * CORPUS_SEEDS)
        ]
        self.lex = prog.lexicons()
        self.model = json.loads(gen.MODEL_PATH.read_text(encoding="utf-8"))
        self.expected = None
        self.ops_per_round = len(self.calls)
        self.n_items = len(self.calls)

    def make(self, tracer=None):
        generate = self.prog.synth.generate_corpus
        if tracer is not None:
            tracer.begin("corpus")
        times, corpora = [], []
        for seed, overlap in self.calls:
            start = perf_counter_ns()
            corpora.append(generate(self.lex, CORPUS_PAGES, CORPUS_PAGES // 2, seed=seed, overlap=overlap))
            times.append(perf_counter_ns() - start)
        return times, corpora

    @staticmethod
    def signature(corpora):
        return [
            [(p.url.full_url, p.tokens, p.image_count, p.label) for p in pages]
            for pages in corpora
        ]

    def check(self) -> list[str]:
        _, corpora = self.make()
        problems = []
        for pages in corpora:
            problems += reference.check_corpus(pages, CORPUS_PAGES, CORPUS_PAGES // 2, 150, 399)
        _, again = self.make()
        self.expected = self.signature(corpora)
        if self.signature(again) != self.expected:
            problems.append("the same seed gave another corpus")
        return problems

    def round(self, timings: Timings, problems: list[str], tracer=None) -> None:
        times, corpora = self.make(tracer)
        for item, t in zip(timings.items, times):
            item.append(t)
        if self.signature(corpora) != self.expected:
            problems.append("synth-corpus: a round gave other corpora than the checked one")

    def metrics(self, timings: Timings) -> dict[str, float]:
        batch = sum(min(t) for t in timings.items)
        per_page = batch / (len(self.calls) * CORPUS_PAGES)
        return {
            "pages_per_s": 1e9 / per_page,
            "page_p50_us": per_page / 1e3,
            "page_p90_us": per_page / 1e3,
            "batch_s": batch / 1e9,
        }

    def install(self, tracer: Tracer) -> None:
        tracer.patch(self.prog.synth, "generate_corpus", "synth.generate_corpus",
                     lambda f: tracer.span("synth.generate_corpus", f))

    def layer_metrics(self, tracer: Tracer) -> dict[str, float | None]:
        st = tracer.self_times()
        return {
            "synth.generate_corpus_s": per_call(st, tracer, "corpus", "synth.generate_corpus", 1e9,
                                                inclusive=True),
            "forest.tree_nodes": float(tree_nodes(self.model)),
        }


def make_workload(prog: Program, name: str, seed: int):
    if name in ("crawl-fresh", "crawl-revisit"):
        return Crawl(prog, name, seed)
    if name == "train-noisy":
        return Train(prog, seed)
    return Synth(prog, seed)


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_probe(workload: str) -> float:
    """Cold set-up: import, load_lexicon_set, load_forest, first call.

    The benchmark makes the input before the clock starts; the program is
    imported after it.
    """
    if workload.startswith("crawl"):
        first = gen.crawl_fresh(0, n_pages=2)[0]
    elif workload == "train-noisy":
        doc = json.loads(gen.ROWS_PATH.read_text(encoding="utf-8"))
        picks = [i for i, label in enumerate(doc["labels"]) if label == reference.ADULT][:20]
        picks += [i for i, label in enumerate(doc["labels"]) if label == reference.SAFE][:20]
    start = time.perf_counter()
    prog = Program()
    lexicons = prog.lexicons()
    forest = prog.model()
    if workload.startswith("crawl"):
        prog.pipeline.build_safe_index([prog.page.page_from_html(first.url, first.html)], forest, lexicons)
    elif workload == "train-noisy":
        vectors = [prog.features.FeatureVector(tuple(doc["rows"][i])) for i in picks]
        trained, _ = prog.forest.train_forest(vectors, [doc["labels"][i] for i in picks])
        prog.forest.classify(trained, vectors[0])
    else:
        prog.synth.generate_corpus(lexicons, 4, 2, seed=0, overlap=0.3)
    return time.perf_counter() - start


def probe_setup(workload: str) -> float:
    """One cold set-up in a fresh process, which has ended on return."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# runs


def measure(work, seconds: float, problems: list[str], tracer: Tracer | None = None, between=None):
    """Whole rounds until `seconds` have passed (at least MIN_ROUNDS).

    With a tracer, rounds alternate between untraced and traced, so the
    tracing overhead is measured under the same host conditions.
    `between(elapsed share)` runs before each round.
    Returns (untraced timings, traced timings, rounds, failed operations).
    """
    plain = Timings(work.n_items)
    traced = Timings(work.n_items)
    rounds = failed = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS * (2 if tracer else 1) or time.perf_counter() < start + seconds:
        if between is not None:
            between((time.perf_counter() - start) / seconds if seconds else 1.0)
        with_trace = tracer is not None and rounds % 2 == 1
        if with_trace:
            work.install(tracer)
        try:
            work.round(traced if with_trace else plain, problems, tracer if with_trace else None)
        except Exception as exc:  # an operation that raises counts as failed
            failed += work.ops_per_round
            problems.append(f"{work.name}: {type(exc).__name__}: {exc}")
        finally:
            if with_trace:
                tracer.unpatch()
        rounds += 1
    return plain, traced, rounds, failed


def prepare(prog: Program, name: str, seed: int, problems: list[str]):
    work = make_workload(prog, name, seed)
    problems += work.check()
    work.round(Timings(work.n_items), [])      # warm-up, untimed
    return work


def load_times(prog: Program) -> dict[str, float]:
    """Median of five in-process loads of the lexicon set and the model."""
    lex, model = [], []
    for _ in range(5):
        start = perf_counter_ns()
        prog.lexicons()
        lex.append(perf_counter_ns() - start)
        start = perf_counter_ns()
        prog.model()
        model.append(perf_counter_ns() - start)
    return {"lexicon.load_s": statistics.median(lex) / 1e9, "forest.load_s": statistics.median(model) / 1e9}


def traced_run(prog: Program, args, problems: list[str]):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    metrics = load_times(prog)
    work = prepare(prog, args.workload, args.seed, problems)
    tracer = Tracer()
    plain, traced, rounds, failed = measure(work, args.seconds, problems, tracer)
    untraced_rate = work.metrics(plain)["pages_per_s"]
    traced_rate = work.metrics(traced)["pages_per_s"]
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    print(f"{args.workload}: pages_per_s untraced {untraced_rate:.1f}, traced {traced_rate:.1f}")
    sources = {}
    for key, value in work.layer_metrics(tracer).items():
        if value is not None:
            metrics[key] = value
            sources[key] = args.workload
    tracer.write(spans_path, args.workload)
    missing = set(tracer.missing)

    wanted = CRAWL_LAYERS + TRAIN_LAYERS + SYNTH_LAYERS
    for other in WORKLOADS:
        needed = [k for k in wanted if k not in metrics]
        if other == args.workload or not set(needed) & set(LAYERS_OF[other]):
            continue
        helper = prepare(prog, other, args.seed, problems)
        helper_tracer = Tracer()
        helper.install(helper_tracer)
        try:
            for _ in range(FILL_ROUNDS):
                helper.round(Timings(helper.n_items), problems, helper_tracer)
        finally:
            helper_tracer.unpatch()
        for key, value in helper.layer_metrics(helper_tracer).items():
            if key in needed and value is not None:
                metrics[key] = value
                sources[key] = other
        helper_tracer.write(spans_path, other)
        missing |= set(helper_tracer.missing)

    not_measured = [k for k in PER_LAYER if k not in metrics]
    for key in not_measured:
        metrics[key] = 0.0
    print(f"per-layer sources (other than {args.workload}): "
          + json.dumps({k: v for k, v in sources.items() if v != args.workload}))
    print("shims whose target is missing: " + json.dumps(sorted(missing)))
    print("per-layer metrics not measured: " + json.dumps(not_measured))
    print(f"spans written to {spans_path.relative_to(gen.ROOT)}")
    return metrics, rounds * work.ops_per_round, failed


def plain_run(prog: Program, args, problems: list[str]):
    work = prepare(prog, args.workload, args.seed, problems)
    setups: list[float] = []

    def probe_due(share: float) -> None:
        # set-ups spread over the run see the same host speed levels as it
        while len(setups) < min(SETUP_PROBES, SETUP_PROBES * share):
            setups.append(probe_setup(args.workload))

    plain, _, rounds, failed = measure(work, args.seconds, problems, between=probe_due)
    probe_due(1.0)
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(work.metrics(plain))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload}: {rounds} rounds of {work.ops_per_round} operations")
    return metrics, rounds * work.ops_per_round, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(setup_probe(args.setup_probe))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        prog = Program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems: list[str] = []
    run = traced_run if args.trace else plain_run
    metrics, attempted, failed = run(prog, args, problems)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
