"""Reference code the benchmark checks the program's outputs against.

Nothing here imports the program.  Each computation takes another route
than the program does: features are recounted by trying every lexicon
term length at every token position, verdicts come from walking the
model's JSON trees as plain dicts, and the staged rules are replayed from
what the generator knows about each page (its domain, TLD and words).

The check_* functions compare program outputs with these references and
return a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

from gen import CONTENT_LISTS, CrawlPage, Lists

ADULT = "adult"
SAFE = "safe"
TRIGGER = 3
FN_COST = 20

ATTRIBUTES: tuple[str, ...] = ("in_url", "in_ndd", "nbr_img") + tuple(
    f"{kind}_{name}" for name in CONTENT_LISTS for kind in ("nb", "ratio", "prop")
)


class TermSets:
    """Each content list as a set of word tuples, with its term lengths."""

    def __init__(self, lists: Lists):
        self.lists = lists
        self.sets = {
            name: {tuple(t.split(" ")) for t in lists.content[name]}
            for name in CONTENT_LISTS
        }
        self.lengths = {name: sorted({len(t) for t in s}) for name, s in self.sets.items()}


def recount_features(page: CrawlPage, terms: TermSets) -> tuple[float, ...]:
    """The 36 attributes, counted by brute force from the generator's record."""
    url = page.url.strip().lower()
    values = [
        float(sum(1 for t in terms.lists.url_terms if t in url)),
        float(sum(1 for t in terms.lists.url_terms if t in page.domain)),
        float(page.images),
    ]
    words = page.words
    n = len(words)
    for name in CONTENT_LISTS:
        term_set = terms.sets[name]
        total = 0
        seen = set()
        covered = set()
        for i in range(n):
            for k in terms.lengths[name]:
                if i + k <= n and tuple(words[i:i + k]) in term_set:
                    total += 1
                    seen.add(words[i:i + k])
                    covered.update(range(i, i + k))
        values += [float(total), len(seen) / len(term_set), len(covered) / n if n else 0.0]
    return tuple(values)


def walk(node: dict, values: dict[str, float], visited: set[str] | None = None) -> str:
    """Leaf label of one JSON tree; `visited` collects tested attributes."""
    while "label" not in node:
        if visited is not None:
            visited.add(node["attr"])
        node = node["left"] if values[node["attr"]] <= node["thr"] else node["right"]
    return node["label"]


def forest_verdict(model: dict, vector: tuple[float, ...]) -> tuple[str, float]:
    """(label, vote score) of a model JSON document for one vector."""
    values = dict(zip(ATTRIBUTES, vector))
    votes = sum(1 for tree in model["trees"] if walk(tree, values) == ADULT)
    score = votes / len(model["trees"])
    return (ADULT if score > model["vote_threshold"] else SAFE), score


def usage(model: dict, vectors: list[tuple[float, ...]]) -> dict[str, float]:
    """Share of vectors whose path in some tree tests each attribute."""
    counts = dict.fromkeys(ATTRIBUTES, 0)
    for vector in vectors:
        values = dict(zip(ATTRIBUTES, vector))
        visited: set[str] = set()
        for tree in model["trees"]:
            walk(tree, values, visited)
        for name in visited:
            counts[name] += 1
    return {name: counts[name] / len(vectors) for name in ATTRIBUTES}


def contains(words: tuple[str, ...], phrase: str) -> bool:
    parts = tuple(phrase.split(" "))
    return any(words[i:i + len(parts)] == parts for i in range(len(words)))


def replay(pages: list[CrawlPage], forest: list[tuple[str, float]], lists: Lists) -> dict:
    """The staged rules over a crawl: blacklist, disclaimer, .xxx, forest.

    First hit wins; an adult verdict strikes its domain once per distinct
    URL, and the third strike blacklists the domain.
    """
    blacklist: set[str] = set()
    strikes: dict[str, int] = {}
    counted: set[str] = set()
    verdicts = []
    index = []
    for page, (label, score) in zip(pages, forest):
        if page.domain in blacklist:
            verdict = (ADULT, "blacklist", None)
        elif any(contains(page.words, p) for p in lists.disclaimers):
            verdict = (ADULT, "disclaimer", None)
        elif page.tld == "xxx":
            verdict = (ADULT, "tld_xxx", None)
        else:
            verdict = (label, "forest", score)
            if label == SAFE:
                index.append(page.url.strip().lower())
        url = page.url.strip().lower()
        if verdict[0] == ADULT and url not in counted:
            counted.add(url)
            strikes[page.domain] = strikes.get(page.domain, 0) + 1
            if strikes[page.domain] >= TRIGGER:
                blacklist.add(page.domain)
        verdicts.append(verdict)
    counts = dict.fromkeys(("blacklist", "disclaimer", "tld_xxx", "forest_adult", "forest_safe"), 0)
    for label, reason, _ in verdicts:
        counts[reason if reason != "forest" else f"forest_{label}"] += 1
    return {"verdicts": verdicts, "index": index, "blacklist": blacklist, "counts": counts}


# ---------------------------------------------------------------------------
# checks: program outputs against the references


def check_text(pages: list[CrawlPage], extracted: list[tuple[tuple[str, ...], int]]) -> list[str]:
    """extract_text must return exactly the visible words and images written."""
    problems = []
    for page, (tokens, images) in zip(pages, extracted):
        if tuple(tokens) != page.words:
            problems.append(f"extract_text words differ on {page.url}")
        if images != page.images:
            problems.append(f"image count {images} != {page.images} on {page.url}")
    if len(extracted) != len(pages):
        problems.append("extract_text missed pages")
    return problems


def check_features(
    pages: list[CrawlPage], vectors: list[tuple[float, ...]], terms: TermSets
) -> list[str]:
    problems = []
    for page, vector in zip(pages, vectors):
        expected = recount_features(page, terms)
        for name, got, want in zip(ATTRIBUTES, vector, expected):
            if got != want:
                problems.append(f"{name} = {got}, recount {want} on {page.url}")
    return problems


def check_crawl(
    pages: list[CrawlPage],
    model: dict,
    vectors: list[tuple[float, ...]],
    verdicts: list[tuple[str, str, float | None]],
    index: list[str],
    counts: dict[str, int],
    blacklist: set[str],
    lists: Lists,
) -> list[str]:
    """Verdicts, stage reasons, index and blacklist against the replay.

    `vectors` are the program's feature vectors for every page; the forest
    verdict of each comes from the JSON walk.  `verdicts` are the
    program's (label, reason, score) per page from filter_page, while
    `index`, `counts` and `blacklist` come from build_safe_index.
    """
    expected = replay(pages, [forest_verdict(model, v) for v in vectors], lists)
    problems = []
    for page, got, want in zip(pages, verdicts, expected["verdicts"]):
        if got != want:
            problems.append(f"verdict {got} != replay {want} on {page.url}")
    if len(verdicts) != len(pages):
        problems.append(f"{len(verdicts)} verdicts for {len(pages)} pages")
    if index != expected["index"]:
        problems.append("safe index differs from the replay")
    if counts != expected["counts"]:
        problems.append(f"stage counts {counts} != replay {expected['counts']}")
    if sum(counts.values()) != len(pages):
        problems.append(f"stage counts sum to {sum(counts.values())}, {len(pages)} pages filtered")
    if blacklist != expected["blacklist"]:
        problems.append("blacklist differs from the replay")
    return problems


def check_training(
    model: dict,
    rows: list[tuple[float, ...]],
    labels: list[str],
    reported_error: float,
) -> list[str]:
    """Reported training error against the walk, and the cost bound."""
    predicted = [forest_verdict(model, r)[0] for r in rows]
    wrong = sum(1 for p, g in zip(predicted, labels) if p != g)
    problems = []
    if reported_error != wrong / len(rows):
        problems.append(f"reported training error {reported_error} != walked {wrong / len(rows)}")
    fn = sum(1 for p, g in zip(predicted, labels) if g == ADULT and p == SAFE)
    fp = sum(1 for p, g in zip(predicted, labels) if g == SAFE and p == ADULT)
    all_adult = sum(1 for g in labels if g == SAFE)
    if FN_COST * fn + fp >= all_adult:
        problems.append(f"cost {FN_COST}*{fn}+{fp} is not below all-adult cost {all_adult}")
    return problems


def check_eval(
    model: dict,
    rows: list[tuple[float, ...]],
    predicted: list[str],
    attribute_usage: dict[str, float],
) -> list[str]:
    problems = []
    walked = [forest_verdict(model, r)[0] for r in rows]
    if predicted != walked:
        problems.append(f"{sum(p != w for p, w in zip(predicted, walked))} classify results differ from the walk")
    if attribute_usage != usage(model, rows):
        problems.append("attribute_usage differs from the path walk")
    return problems


def check_corpus(
    pages: list,
    n_pages: int,
    n_adult: int,
    min_length: int,
    max_length: int,
) -> list[str]:
    """generate_corpus's documented behaviour: n_adult adult pages first,
    then safe ones; unique URLs; base lengths drawn from [150, 400)."""
    problems = []
    labels = [p.label for p in pages]
    if len(pages) != n_pages:
        problems.append(f"{len(pages)} pages, asked for {n_pages}")
    if labels != [ADULT] * n_adult + [SAFE] * (n_pages - n_adult):
        problems.append("labels are not n_adult adult pages followed by safe pages")
    urls = [p.url.full_url for p in pages]
    if len(set(urls)) != len(urls):
        problems.append("URLs are not unique")
    for p in pages:
        if not min_length <= len(p.tokens) <= max_length:
            problems.append(f"page of {len(p.tokens)} tokens outside [{min_length}, {max_length}]")
            break
    return problems
