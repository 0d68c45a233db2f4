"""numpy is loaded by training and the synthetic-data helpers only, and
numpy.random by a training that restarts.

Each case runs a fresh interpreter, because this process already holds
numpy (tests/helpers.py imports it).
"""

import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import safeindex
from safeindex import TrainConfig, extract_features, train_forest
from safeindex.cli import main
from safeindex.forest import forest_to_json
from safeindex.synth import generate_corpus, generate_lexicon_materials, write_corpus

LEXICON_MANIFEST = str(files("safeindex").joinpath("data/lexicons/manifest.json"))
SRC = str(Path(safeindex.__file__).resolve().parents[1])

FILTER_PATH = """
import json, sys
import safeindex, safeindex.cli, safeindex.synth
from safeindex import build_safe_index, load_forest, load_lexicon_set, page_from_html

lexicons_path, corpus, model, out = sys.argv[1:]
lexicons = load_lexicon_set(lexicons_path)
forest = load_forest(model)
pages = [
    page_from_html("http://a.com/1", "<p>hello world</p>"),
    page_from_html("http://b.xxx/1", "<p>you must be 18</p>"),
    page_from_html("http://c.com/1", "<p>hello</p><img src=x>"),
]
index, report, state = build_safe_index(pages, forest, lexicons)
common = ["--lexicons", lexicons_path, "--corpus", corpus, "--model", model]
for args in (
    ["filter", *common, "--index", out + "/index.txt", "--blacklist", out + "/bl.txt"],
    ["eval", *common, "--report", out + "/eval.json"],
    ["inspect-model", "--model", model],
):
    assert safeindex.cli.main(args) == 0, args
print(json.dumps({"index": index, "numpy": "numpy" in sys.modules}))
"""

TRAINING = """
import json, sys
from safeindex import TrainConfig, default_lexicon_set, extract_features, train_forest
from safeindex.forest import forest_to_json
from safeindex.synth import generate_corpus, generate_lexicon_materials

before = "numpy" in sys.modules
lexicons = default_lexicon_set()
pages = generate_corpus(lexicons, 30, 15, seed=5, overlap=0.3)
forest, _ = train_forest(
    [extract_features(p, lexicons) for p in pages],
    [p.label for p in pages],
    TrainConfig(n_trees=3),
)
print(json.dumps({
    "before": before,
    "after": "numpy" in sys.modules,
    "tokens": [list(p.tokens) for p in pages],
    "model": forest_to_json(forest),
    "materials": generate_lexicon_materials(11),
}))
"""

# ten trees on separable rows: the first round is perfect, so none restarts
UNRESTARTED_TRAINING = """
import json, sys
from safeindex import ADULT, SAFE, FeatureVector, train_forest
from safeindex.features import ATTRIBUTE_NAMES

rows = [FeatureVector(tuple(float(i) for _ in ATTRIBUTE_NAMES)) for i in range(20)]
_, report = train_forest(rows, [SAFE] * 10 + [ADULT] * 10)
print(json.dumps({"restarts": report.restarts, "random": "numpy.random" in sys.modules}))
"""


def run_fresh(script: str, *args: str) -> dict:
    """Run script in a new interpreter that imports this tree's package;
    return the JSON document it prints last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory, lexicons):
    root = tmp_path_factory.mktemp("cold")
    manifest = write_corpus(
        generate_corpus(lexicons, 16, 8, seed=4, xxx_fraction=0.3, disclaimer_fraction=0.3),
        root / "corpus",
    )
    model = root / "model.json"
    assert main(["train", "--lexicons", LEXICON_MANIFEST, "--corpus", str(manifest),
                 "--model", str(model), "--trees", "3"]) == 0
    return root, manifest, model


def test_filter_path_never_loads_numpy(tiny_corpus):
    """Importing the package, the CLI and synth, loading lexicons and a
    model, build_safe_index, and the filter, eval and inspect-model
    commands all leave numpy unloaded."""
    root, manifest, model = tiny_corpus
    out = root / "out"
    out.mkdir()
    doc = run_fresh(FILTER_PATH, LEXICON_MANIFEST, str(manifest), str(model), str(out))
    assert doc["index"]
    assert doc["numpy"] is False


def test_training_and_synthesis_load_numpy_on_first_use(lexicons):
    """From a numpy-free start, generate_corpus, train_forest and
    generate_lexicon_materials give what they give in this process."""
    doc = run_fresh(TRAINING)
    assert (doc["before"], doc["after"]) == (False, True)
    pages = generate_corpus(lexicons, 30, 15, seed=5, overlap=0.3)
    forest, _ = train_forest(
        [extract_features(p, lexicons) for p in pages],
        [p.label for p in pages],
        TrainConfig(n_trees=3),
    )
    assert doc["tokens"] == [list(p.tokens) for p in pages]
    assert doc["model"] == forest_to_json(forest)
    assert doc["materials"] == generate_lexicon_materials(11)


def test_training_without_a_restart_leaves_numpy_random_unloaded():
    """The restart generator is made at the first restart: importing
    numpy.random adds about 6 MB to a process's peak RSS."""
    assert run_fresh(UNRESTARTED_TRAINING) == {"restarts": 0, "random": False}
