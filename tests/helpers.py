"""Shared test utilities: tiny lexicon sets and independent oracles.

The oracles here deliberately re-derive results with naive algorithms
(exhaustive scans, recursive descent, per-split recomputation) so the
library code is checked against an independent path.
"""

from __future__ import annotations

import math
import re
import sys
from html import unescape

import numpy as np

import safeindex.forest
import safeindex.page
from safeindex import ADULT, SAFE, FeatureVector, LexiconSet
from safeindex.features import ATTRIBUTE_NAMES
from safeindex.forest import (
    Forest,
    Leaf,
    Split,
    SplitChoice,
    TrainReport,
    TreeStats,
    entropy,
    leaf_label,
    tree_size,
)
from safeindex.lexicon import CONTENT_LEXICON_NAMES
from safeindex.errors import MalformedUrlError
from safeindex.page import TWO_LEVEL_SUFFIXES, Page, UrlParts, parse_url
from safeindex.synth import _LEXICON_WEIGHTS, _SYLLABLES, DISCLAIMER_PHRASES


def make_lexicon_set(
    overrides: dict[str, set[str]] | None = None,
    url_terms: set[str] = frozenset({"porn", "sex", "tube8", "cam4"}),
    disclaimer: tuple[str, ...] = ("you must be 18",),
) -> LexiconSet:
    """A LexiconSet with one placeholder term per list unless overridden."""
    overrides = overrides or {}
    content = {
        name: frozenset(overrides.get(name, {f"placeholder-{name}"}))
        for name in CONTENT_LEXICON_NAMES
    }
    return LexiconSet(content, frozenset(url_terms), frozenset(disclaimer))


def count_extract_text(monkeypatch) -> list[str]:
    """The HTML of every later extract_text call made through safeindex.page."""
    calls = []
    extract_text = safeindex.page.extract_text

    def counting(html):
        calls.append(html)
        return extract_text(html)

    monkeypatch.setattr(safeindex.page, "extract_text", counting)
    return calls


def count_forest_votes(monkeypatch) -> list[FeatureVector]:
    """The vector of every later forest_votes call, through every safeindex
    module that binds the name."""
    forest_votes = safeindex.forest.forest_votes
    calls = []

    def counting(trees, fv, visited=None):
        calls.append(fv)
        return forest_votes(trees, fv, visited)

    binders = [m for name, m in sys.modules.items()
               if name.startswith("safeindex") and getattr(m, "forest_votes", None) is forest_votes]
    assert safeindex.forest in binders
    for module in binders:
        monkeypatch.setattr(module, "forest_votes", counting)
    return calls


# A bad corpus manifest row -> the reason its one PageLoadFailure starts
# with; "{base}" is the manifest's directory.  The rows name a readable
# page file a.html and a directory sub beside the manifest.
BAD_ROWS = {
    "short row": ("p.html,http://x.com/z", "row has fewer than 3 fields"),
    "bad label": ("a.html,http://a.com/2,adlut", "bad label 'adlut'"),
    "empty label": ("a.html,http://a.com/2,", "bad label ''"),
    "NUL in path": (
        "a\0.html,http://a.com/2,safe", "cannot read page file {base}/a\0.html: embedded null byte"
    ),
    "missing file": (
        "gone.html,http://a.com/2,safe", "cannot read page file {base}/gone.html: [Errno 2]"
    ),
    "directory": ("sub,http://a.com/2,safe", "cannot read page file {base}/sub: [Errno 21]"),
    "malformed URL": ("a.html,http://a..com/,safe", "no recognizable host"),
    "empty URL": ("a.html,,safe", "empty URL"),
}

# model JSON with a NaN or a non-number where a number belongs -> the
# message forest_from_json gives; Python's json reads NaN as a float
_SPLIT = '{{"attr": "nbr_img", "thr": {}, "left": {{"label": "safe"}}, "right": {{"label": "adult"}}}}'
BAD_NUMBER_MODELS = {
    "NaN threshold": (_SPLIT.format("NaN"), 0.5, "NaN split threshold"),
    "string threshold": (_SPLIT.format('"0.5"'), 0.5, "thr must be a number, got '0.5'"),
    "bool threshold": (_SPLIT.format("true"), 0.5, "thr must be a number, got True"),
    "huge threshold": (_SPLIT.format("1" + "0" * 400), 0.5, "OverflowError"),
    "string weights": ('{"label": "safe", "weights": "12"}', 0.5, "weights must be a number, got '1'"),
    "bool weight": ('{"label": "safe", "weights": [true, 2]}', 0.5, "weights must be a number, got True"),
    "NaN weight": ('{"label": "safe", "weights": [NaN, 2]}', 0.5, "NaN leaf weight"),
    "three weights": ('{"label": "safe", "weights": [1, 2, 3]}', 0.5, "too many values"),
    "string vote threshold": ('{"label": "safe"}', '"0.5"', "vote_threshold must be a number, got '0.5'"),
}

# texts parse_json refuses: a syntax error, an int past the digit limit
# (both ValueError), nesting past the recursion limit (RecursionError)
# and a key repeated in one object, here a nested one
NOT_JSON = {
    "syntax": "{not json",
    "long-int": '{"x": ' + "1" * 5000 + "}",
    "deep": "[" * 100_000 + "]" * 100_000,
    "repeated-key": '{"x": {"y": 1, "y": 2}}',
}


def bad_number_model(name: str) -> str:
    tree, vote_threshold, _ = BAD_NUMBER_MODELS[name]
    return f'{{"version": 1, "vote_threshold": {vote_threshold}, "trees": [{tree}]}}'


def make_vector(**values: float) -> FeatureVector:
    """FeatureVector with the named attributes set and everything else 0."""
    return FeatureVector(
        tuple(float(values.get(name, 0.0)) for name in ATTRIBUTE_NAMES)
    )


def vote_forest(adult_votes: int, total: int, vote_threshold: float = 0.5) -> Forest:
    """Forest of leaf-only trees casting a fixed number of adult votes."""
    trees = tuple(
        Leaf(ADULT if i < adult_votes else SAFE) for i in range(total)
    )
    return Forest(trees, vote_threshold)


# ---------------------------------------------------------------------------
# oracle: token/phrase matching over a token stream


def oracle_matches(tokens, terms):
    """Every (term, start) match by brute force over all start positions."""
    hits = []
    for term in terms:
        parts = term.split(" ")
        for start in range(len(tokens) - len(parts) + 1):
            if list(tokens[start:start + len(parts)]) == parts:
                hits.append((term, start))
    return hits


def oracle_scan(tokens, term_lists):
    """TermMatcher.scan by brute force, one list at a time: (total
    matches, distinct terms matched, token positions covered) per list.
    An empty list matches nothing."""
    results = []
    for terms in term_lists:
        matches = oracle_matches(tokens, terms)
        covered = {
            position
            for term, start in matches
            for position in range(start, start + len(term.split(" ")))
        }
        results.append((len(matches), len({term for term, _ in matches}), len(covered)))
    return results


def oracle_nb(tokens, terms):
    return len(oracle_matches(tokens, terms))


def oracle_ratio(tokens, terms):
    present = {term for term, _ in oracle_matches(tokens, terms)}
    return len(present) / len(terms)


def oracle_prop(tokens, terms):
    if not tokens:
        return 0.0
    covered = set()
    for term, start in oracle_matches(tokens, terms):
        covered.update(range(start, start + len(term.split(" "))))
    return len(covered) / len(tokens)


def oracle_features(page, lexicons) -> list[float]:
    """All 36 attributes computed with the naive matchers above."""

    def url_hits(haystack):
        return sum(1 for t in lexicons.url_terms if t in haystack)

    values = [
        float(url_hits(page.url.full_url)),
        float(url_hits(page.url.registrable_domain)),
        float(page.image_count),
    ]
    for name in CONTENT_LEXICON_NAMES:
        terms = lexicons.content[name]
        values.append(float(oracle_nb(page.tokens, terms)))
        values.append(oracle_ratio(page.tokens, terms))
        values.append(oracle_prop(page.tokens, terms))
    return values


# ---------------------------------------------------------------------------
# reference: URL parsing with split() chains


def oracle_parse_url(url: str) -> UrlParts:
    """page.parse_url with two strips, split(..., 1) chains and a generator
    over the labels.  Must return equal parts, or raise MalformedUrlError
    with the same message, on every string."""
    if not url or not url.strip():
        raise MalformedUrlError("empty URL")
    lowered = url.strip().lower()
    if "".join(lowered.splitlines()) != lowered:
        raise MalformedUrlError(f"line break in URL {url!r}")

    rest = lowered.split("://", 1)[1] if "://" in lowered else lowered
    authority = rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
    # strip userinfo, then the port; an IPv6 literal keeps its colons
    authority = authority.rsplit("@", 1)[-1]
    if authority.startswith("["):
        host = authority[1:authority.find("]")] if "]" in authority else ""
    else:
        host = authority.split(":", 1)[0]
    if not host:
        raise MalformedUrlError(f"no recognizable host in {url!r}")
    labels = host.strip(".").split(".")
    if not labels or any(not lbl for lbl in labels):
        raise MalformedUrlError(f"no recognizable host in {url!r}")
    if any(not c.isprintable() or c.isspace() for c in host):
        raise MalformedUrlError(f"whitespace or non-printable character in host of {url!r}")

    if ":" in host or labels[-1].isdigit():  # an IP literal; no TLD is numeric
        return UrlParts(lowered, host.strip("."), "")
    tail = ".".join(labels[-2:])
    if len(labels) >= 3 and tail in TWO_LEVEL_SUFFIXES:
        registrable = ".".join(labels[-3:])
    else:
        registrable = tail
    return UrlParts(lowered, registrable, labels[-1])


# ---------------------------------------------------------------------------
# reference: HTML stripping with backtracking quantifiers


_PARENT_TAG_NAME_END = r"(?=[\t\n\r\f />])"
_PARENT_TAG_BODY = r"""(?:[^<>"']|"[^"]*"|'[^']*')*"""
_PARENT_MARKUP_RE = re.compile(
    rf"""<(?:
        !--.*?(?:--\s*>|\Z)
      | (?ai:script){_PARENT_TAG_NAME_END}{_PARENT_TAG_BODY}(?<!/)>.*?(?:</\s*(?ai:script)\s*>|\Z)
      | (?ai:style){_PARENT_TAG_NAME_END}{_PARENT_TAG_BODY}(?<!/)>.*?(?:</\s*(?ai:style)\s*>|\Z)
      | (?P<img>(?ai:img)){_PARENT_TAG_NAME_END}{_PARENT_TAG_BODY}>
      | [a-zA-Z]{_PARENT_TAG_BODY}>
      | /[^<>]*>
      | [!?][^<>]*>
    )""",
    re.DOTALL | re.VERBOSE,
)
_PARENT_WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")


def parent_extract_text(html):
    """page.extract_text with backtracking quantifiers in the markup
    pattern, and '_' left out of the word class instead of replaced by a
    space.  Must return equal (tokens, image count) on every document."""
    parts = _PARENT_MARKUP_RE.split(html)
    images = parts[1::2]
    text = unescape(" ".join(parts[::2]))
    return tuple(_PARENT_WORD_RE.findall(text.lower())), len(images) - images.count(None)


# ---------------------------------------------------------------------------
# oracle: split search by exhaustive midpoint enumeration


def oracle_entropy(adult_w: float, safe_w: float) -> float:
    total = adult_w + safe_w
    acc = 0.0
    for w in (adult_w, safe_w):
        if w > 0:
            acc -= (w / total) * math.log2(w / total)
    return acc


def oracle_split_candidates(rows, attr_names, min_leaf_weight):
    """rows: list of (values, is_adult, weight).  Recomputes every split
    from scratch by filtering rows, then applies the same guard and
    tie-break contract as the library.  Returns the guard survivors as
    (gain_ratio, gain, attribute, threshold) tuples, best first."""
    total = sum(w for _, _, w in rows)
    total_adult = sum(w for _, a, w in rows if a)
    total_safe = total - total_adult
    if total_adult <= 0 or total_safe <= 0:
        return []
    parent = oracle_entropy(total_adult, total_safe)

    candidates = []
    for j, name in enumerate(attr_names):
        values = sorted({v[j] for v, _, _ in rows})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [(v, a, w) for v, a, w in rows if v[j] <= thr]
            right = [(v, a, w) for v, a, w in rows if v[j] > thr]
            wl = sum(w for _, _, w in left)
            wr = sum(w for _, _, w in right)
            if wl < min_leaf_weight or wr < min_leaf_weight:
                continue
            la = sum(w for _, a, w in left if a)
            ra = sum(w for _, a, w in right if a)
            children = (
                wl * oracle_entropy(la, wl - la) + wr * oracle_entropy(ra, wr - ra)
            ) / total
            gain = parent - children
            if gain <= 0:
                continue
            candidates.append((gain / oracle_entropy(wl, wr), gain, name, thr))

    if not candidates:
        return []
    mean_gain = sum(c[1] for c in candidates) / len(candidates)
    eligible = [c for c in candidates if c[1] >= mean_gain - 1e-12]
    return sorted(eligible, key=lambda c: (-c[0], -c[1], c[2], c[3]))


def oracle_best_split(rows, attr_names, min_leaf_weight):
    ranked = oracle_split_candidates(rows, attr_names, min_leaf_weight)
    return ranked[0] if ranked else None


# ---------------------------------------------------------------------------
# reference: the split search as one loop per attribute and boundary


def loop_best_split(X, y, w, attr_names, min_leaf_weight):
    """forest.best_split one boundary at a time, with scalar entropy() calls.

    Same arithmetic in the same order as the array version, so the two
    must return equal SplitChoice values, not merely close ones.
    """
    eligible = loop_split_candidates(X, y, w, attr_names, min_leaf_weight)
    if not eligible:
        return None
    gr, gain, name, threshold = min(
        eligible, key=lambda c: (-c[0], -c[1], c[2], c[3])
    )
    return SplitChoice(name, threshold, gr)


def loop_split_candidates(X, y, w, attr_names, min_leaf_weight):
    """The (gain ratio, gain, attribute, threshold) of every candidate that
    passes the positive-gain filter and the mean-gain guard, in
    loop_best_split's arithmetic; empty when the node has no candidate.
    Only a survivor of the guard gets a split entropy, so only there can
    its log raise ValueError."""
    total = float(w.sum())
    total_adult = float(w[y].sum())
    total_safe = total - total_adult
    if total_adult <= 0 or total_safe <= 0:
        return []
    parent = entropy(total_adult, total_safe)

    candidates = []
    for j, name in enumerate(attr_names):
        order = np.argsort(X[:, j], kind="stable")
        xv = X[order, j]
        wv = w[order]
        adultv = np.where(y[order], wv, 0.0)
        cw = np.cumsum(wv)
        ca = np.cumsum(adultv)
        for i in np.flatnonzero(xv[:-1] < xv[1:]):
            wl = float(cw[i])
            wr = total - wl
            if wl < min_leaf_weight or wr < min_leaf_weight:
                continue
            la = float(ca[i])
            ls = max(wl - la, 0.0)
            ra = max(total_adult - la, 0.0)
            rs = max(total_safe - ls, 0.0)
            children = (wl * entropy(la, ls) + wr * entropy(ra, rs)) / total
            gain = parent - children
            if gain <= 0:
                continue
            lo, hi = float(xv[i]), float(xv[i + 1])
            threshold = (lo + hi) / 2.0
            if math.isinf(threshold):  # lo + hi overflowed
                threshold = lo / 2.0 + hi / 2.0
            candidates.append((gain, name, threshold, wl, wr))

    if not candidates:
        return []
    mean_gain = sum(c[0] for c in candidates) / len(candidates)
    return [
        (gain / entropy(wl, wr), gain, name, threshold)
        for gain, name, threshold, wl, wr in candidates
        if gain >= mean_gain - 1e-12
    ]


# ---------------------------------------------------------------------------
# reference: the boosting rounds, each growing its own tree from unsorted rows


def loop_grow_tree(X, y, w, config, depth=0):
    """forest.grow_tree with loop_best_split on each node's own rows, which
    it sorts itself: no order passed down, no leaf writes a prediction."""
    adult_w = float(w[y].sum())
    safe_w = float(w.sum()) - adult_w
    choice = None
    if adult_w > 0 and safe_w > 0 and depth < config.max_depth:
        choice = loop_best_split(X, y, w, ATTRIBUTE_NAMES, config.min_leaf_weight)
    if choice is None:
        return Leaf(leaf_label(adult_w, safe_w, config.fn_cost), (adult_w, safe_w))
    mask = X[:, ATTRIBUTE_NAMES.index(choice.attribute)] <= choice.threshold
    return Split(
        choice.attribute,
        choice.threshold,
        loop_grow_tree(X[mask], y[mask], w[mask], config, depth + 1),
        loop_grow_tree(X[~mask], y[~mask], w[~mask], config, depth + 1),
    )


def loop_train_forest(vectors, labels, config):
    """forest.train_forest with a tree grown by loop_grow_tree in every
    round, perfect rounds too, and votes and errors read from the recursive
    oracle walk.  Same weight arithmetic, so the two must return equal
    forests and reports."""
    n = len(vectors)
    y = np.array([label == ADULT for label in labels])
    X = np.array([fv.values for fv in vectors], dtype=float)
    initial = np.where(y, config.fn_cost, 1.0)
    initial *= n / initial.sum()
    w = initial.copy()
    rng = None
    trees, stats, restarts = [], [], 0
    for _ in range(config.n_trees):
        tree = loop_grow_tree(X, y, w, config)
        pred = np.array([oracle_tree_classify(tree, fv)[0] == ADULT for fv in vectors])
        wrong = pred != y
        trees.append(tree)
        stats.append(TreeStats(tree_size(tree), int(wrong.sum()) / n))
        eps = float(w[wrong].sum() / w.sum())
        if eps >= 0.5:
            restarts += 1
            if rng is None:
                rng = np.random.default_rng(config.rng_seed)
            w = initial * rng.uniform(0.8, 1.2, n)
            w *= n / w.sum()
        elif eps > 0.0:
            w = w.copy()
            w[wrong] *= (1.0 - eps) / eps
            w *= n / w.sum()

    forest = Forest(tuple(trees))
    errors = 0
    for fv, label in zip(vectors, labels):
        adult_votes = sum(oracle_tree_classify(t, fv)[0] == ADULT for t in trees)
        errors += forest.label(adult_votes / len(trees)) != label
    return forest, TrainReport(tuple(stats), errors / n, restarts, len(set(trees)))


# ---------------------------------------------------------------------------
# reference: corpus generation with per-call vocabulary and one draw per call


def _loop_word(rng):
    n = int(rng.integers(2, 5))
    return "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), n))


def _loop_unique_words(rng, n, taken):
    words = []
    while len(words) < n:
        w = _loop_word(rng)
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _loop_term_units(rng, terms, count):
    """synth._term_units with one sized draw per list."""
    names = list(_LEXICON_WEIGHTS)
    weights = np.array([_LEXICON_WEIGHTS[n] for n in names])
    ideal = count * weights / weights.sum()
    alloc = np.floor(ideal).astype(int)
    for j in np.argsort(ideal - alloc)[::-1][: count - int(alloc.sum())]:
        alloc[j] += 1
    units = []
    for name, k in zip(names, alloc):
        pool = terms[name]
        for term_idx in rng.integers(0, len(pool), int(k)):
            units.append(pool[term_idx].split(" "))
    return units


def loop_generate_corpus(
    lexicons,
    n_pages,
    n_adult,
    seed,
    overlap=0.1,
    xxx_fraction=0.0,
    disclaimer_fraction=0.0,
    url_prefix="",
):
    """synth.generate_corpus with the vocabulary sorted and the forbidden
    words collected on every call, one sized draw per word's syllables and
    per list's terms, and one scalar draw per padding token.  Must return
    equal pages."""
    rng = np.random.default_rng(seed)
    terms = {
        name: sorted(lexicons.content[name]) for name in CONTENT_LEXICON_NAMES
    }
    forbidden = set(lexicons.url_terms)
    for name in CONTENT_LEXICON_NAMES:
        for term in lexicons.content[name]:
            forbidden.update(term.split(" "))
    neutral = _loop_unique_words(rng, 900, set(forbidden))
    url_terms = sorted(lexicons.url_terms)

    def safe_domain():
        while True:
            w = neutral[rng.integers(len(neutral))]
            domain = f"{w}.com"
            if not any(t in domain for t in url_terms):
                return domain

    pages = []
    for i in range(n_pages):
        is_adult = i < n_adult
        length = int(rng.integers(150, 400))
        frac = rng.uniform(0.18, 0.45) if is_adult else overlap
        n_terms = max(1, int(length * frac))
        units = _loop_term_units(rng, terms, n_terms)
        n_tokens = sum(len(u) for u in units)
        while n_tokens < length:
            units.append([neutral[rng.integers(len(neutral))]])
            n_tokens += 1
        rng.shuffle(units)
        tokens = [tok for unit in units for tok in unit]

        if is_adult and rng.random() < disclaimer_fraction:
            phrase = DISCLAIMER_PHRASES[rng.integers(len(DISCLAIMER_PHRASES))]
            tokens = phrase.split(" ") + tokens

        if is_adult:
            word = neutral[rng.integers(len(neutral))]
            if rng.random() < 0.6:
                term = url_terms[rng.integers(len(url_terms))]
                host = f"{word}{term}"
            else:
                host = word
            tld = "xxx" if rng.random() < xxx_fraction else "com"
            url = f"http://{host}.{tld}/{url_prefix}a{i}"
            image_count = int(rng.poisson(14))
            label = ADULT
        else:
            url = f"http://{safe_domain()}/{url_prefix}s{i}"
            image_count = int(rng.poisson(7))
            label = SAFE
        pages.append(Page(parse_url(url), tuple(tokens), image_count, label))
    return pages


# ---------------------------------------------------------------------------
# oracle: recursive tree interpreter


def oracle_tree_classify(node, fv):
    if isinstance(node, Leaf):
        return node.label, set()
    if fv[node.attribute] <= node.threshold:
        label, visited = oracle_tree_classify(node.left, fv)
    else:
        label, visited = oracle_tree_classify(node.right, fv)
    return label, visited | {node.attribute}


def random_tree(rnd, depth=0, max_depth=4):
    """Random TreeNode over the canonical attributes (plain random module)."""
    if depth >= max_depth or rnd.random() < 0.3:
        return Leaf(rnd.choice([ADULT, SAFE]))
    return Split(
        rnd.choice(ATTRIBUTE_NAMES),
        rnd.uniform(0, 10),
        random_tree(rnd, depth + 1, max_depth),
        random_tree(rnd, depth + 1, max_depth),
    )


def random_vector(rnd) -> FeatureVector:
    return FeatureVector(tuple(rnd.uniform(0, 10) for _ in ATTRIBUTE_NAMES))


def tree_thresholds(node, into=None) -> dict[str, list[float]]:
    """Every split threshold of a tree, grouped by attribute."""
    into = {} if into is None else into
    if isinstance(node, Split):
        into.setdefault(node.attribute, []).append(node.threshold)
        tree_thresholds(node.left, into)
        tree_thresholds(node.right, into)
    return into


def threshold_vector(rnd, thresholds: dict[str, list[float]]) -> FeatureVector:
    """A vector whose tested values sit on or next to the trees' thresholds,
    so `value == threshold` happens on many paths."""
    values = []
    for name in ATTRIBUTE_NAMES:
        t = rnd.choice(thresholds[name]) if name in thresholds else rnd.uniform(0, 10)
        values.append(rnd.choice([t, t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]))
    return FeatureVector(tuple(values))
