"""Remake the benchmark's fixed inputs: the crawl model and the training rows.

    python3 bench/make_fixtures.py

Both come from pages made by gen.py, passed once through the program's
page_from_html and extract_features.  They are stored, so that a later
change to extract_features or train_forest does not change what the
crawl and training workloads measure.  Remake them only on purpose, in
a change of their own, and measure the baseline again afterwards.
"""

from __future__ import annotations

import json
import sys

import gen

sys.path.insert(0, str(gen.ROOT / "src"))

from safeindex.features import FeatureVector, extract_features  # noqa: E402
from safeindex.forest import TrainConfig, save_forest, train_forest  # noqa: E402
from safeindex.lexicon import load_lexicon_set  # noqa: E402
from safeindex.page import ADULT, SAFE, page_from_html  # noqa: E402

MODEL_SEED = 1      # pages the crawl model is trained on
ROWS_SEED = 2       # pages behind the training rows
ROWS_PER_CLASS = 400
ROWS_SAFE_NOISE = 0.3


def vectors(pages, lexicons):
    return [extract_features(page_from_html(p.url, p.html), lexicons).values for p in pages]


def main() -> None:
    lexicons = load_lexicon_set(gen.LEXICON_MANIFEST)
    gen.DATA_DIR.mkdir(exist_ok=True)

    pages = gen.labelled_pages(MODEL_SEED, 300, 300, safe_noise=None)
    forest, report = train_forest(
        [FeatureVector(v) for v in vectors(pages, lexicons)], [ADULT if p.adult else SAFE for p in pages], TrainConfig()
    )
    save_forest(forest, gen.MODEL_PATH)
    print(f"model: training error {report.global_training_error:.4f} -> {gen.MODEL_PATH}")

    pages = gen.labelled_pages(ROWS_SEED, ROWS_PER_CLASS, ROWS_PER_CLASS, ROWS_SAFE_NOISE)
    doc = {
        "rows": [list(v) for v in vectors(pages, lexicons)],
        "labels": [ADULT if p.adult else SAFE for p in pages],
    }
    gen.ROWS_PATH.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"rows: {len(doc['rows'])} -> {gen.ROWS_PATH}")


if __name__ == "__main__":
    main()
