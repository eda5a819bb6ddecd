from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from itertools import chain, count
from pathlib import Path
from types import SimpleNamespace
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest

import forumpulse
from forumpulse.corpus import Corpus, build_corpus, default_stopwords, vocabulary_digest
from forumpulse.ingest import SENTINEL_AUTHORS, Comments, Dataset, Posts, parse_dump
from forumpulse.interaction import InteractionGraph
from forumpulse.lda import fit
from forumpulse.topics import DominantTopicAssignment

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "synthetic-200"


def child_env(**variables: str) -> dict[str, str]:
    """The environment for a child Python process that imports the
    ``forumpulse`` these tests import, with ``variables`` set."""
    path = os.pathsep.join(filter(None, (str(Path(forumpulse.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **variables}


def csr(vectors) -> dict[str, np.ndarray]:
    """The ``offsets``, ``term_ids`` and ``counts`` arrays of a corpus whose
    documents hold the (term_id, count) pairs of ``vectors``."""
    pairs = [pair for vector in vectors for pair in vector]
    return {"offsets": np.cumsum([0] + [len(vector) for vector in vectors]),
            "term_ids": np.array([t for t, _ in pairs], dtype=np.int64),
            "counts": np.array([n for _, n in pairs], dtype=np.int64)}


def corpus_from_counts(docs: list[dict[str, int]], doc_ids=None) -> Corpus:
    """Corpus built straight from token->count maps, bypassing tokenization."""
    terms: list[str] = []
    for doc in docs:
        for term in doc:
            if term not in terms:
                terms.append(term)
    index = {t: i for i, t in enumerate(terms)}
    if doc_ids is None:
        doc_ids = [f"d{i:03d}" for i in range(len(docs))]
    return Corpus(
        **csr([sorted((index[t], n) for t, n in doc.items()) for doc in docs]),
        doc_ids=tuple(doc_ids),
        terms=tuple(terms),
        excluded_doc_ids=(),
    )


def corpus_from_tokens(docs: list[list[str]]) -> Corpus:
    """Corpus whose documents hold the tokens of ``docs``."""
    return corpus_from_counts([Counter(doc) for doc in docs])


def post_record(pid: str, author: str = "alice", created: int = 1000,
                score: int = 1, title: str = "", selftext: str = "") -> dict:
    return {"id": pid, "author": author, "created_utc": created, "score": score,
            "title": title, "selftext": selftext}


def comment_record(cid: str, parent: str, root: str, author: str = "bob",
                   created: int = 2000, score: int = 1, body: str = "") -> dict:
    """parent is a prefixed reference ("t3_p1" / "t1_c1"), root a bare post id."""
    return {"id": cid, "author": author, "created_utc": created, "score": score,
            "body": body, "parent_id": parent, "link_id": "t3_" + root}


def jsonl(records) -> list[str]:
    return [json.dumps(r) for r in records]


def make_dataset(posts, comments, window=None):
    return parse_dump(jsonl(posts), jsonl(comments), window)


def as_format_1(payload: dict) -> dict:
    """A ``dataset.json`` payload in the layout of format 1: one object per
    record."""
    records = lambda table: [dict(zip(table, row)) for row in zip(*table.values())]
    return {**payload, "format": "forumpulse-dataset-v1",
            "posts": records(payload["posts"]), "comments": records(payload["comments"])}


def dataset_text_one_shot(dataset: Dataset) -> str:
    """The text ``save_dataset`` writes, through one ``json.dumps`` of the
    whole dataset with each column as a list."""
    columns = lambda table: {f.name: getattr(table, f.name).tolist()
                             if f.type == "np.ndarray" else getattr(table, f.name)
                             for f in fields(table)}
    payload = {"format": "forumpulse-dataset-v2", "posts": columns(dataset.posts),
               "comments": columns(dataset.comments), "parse_errors": dataset.parse_errors,
               "duplicate_ids": dataset.duplicate_ids}
    return json.dumps(payload, sort_keys=True, indent=None, ensure_ascii=False) + "\n"


def comment_views(dataset) -> list[SimpleNamespace]:
    """Each comment of ``dataset`` as a record: its ``id`` and ``author``,
    its ``root_post_id`` (None when the root post is not in the dataset) and
    the ``parent_author`` of the record it replies to (None when the
    reference dangles)."""
    posts, comments = dataset.posts, dataset.comments
    authors = posts.author + comments.author
    return [SimpleNamespace(id=cid, author=author,
                            root_post_id=posts.id[root] if root >= 0 else None,
                            parent_author=authors[parent] if parent >= 0 else None)
            for cid, author, root, parent in zip(comments.id, comments.author,
                                                 comments.root.tolist(),
                                                 comments.parent.tolist())]


def assignment_of(dominant_sets, k: int, doc_ids=None) -> DominantTopicAssignment:
    """The assignment whose i-th post, ``doc_ids[i]`` (default ``p<i>``), has
    the dominant topics ``dominant_sets[i]``, with every threshold (0, 0)."""
    mask = np.zeros((len(dominant_sets), k), dtype=bool)
    for row, topics in zip(mask, dominant_sets):
        row[list(topics)] = True
    if doc_ids is None:
        doc_ids = [f"p{i}" for i in range(len(dominant_sets))]
    return DominantTopicAssignment(tuple(doc_ids), ((0.0, 0.0),) * k, mask)


def same_fields(a, b) -> bool:
    """``a`` and ``b`` are of one type and equal field by field, arrays by
    their values and nested dataclasses in turn."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if is_dataclass(a):
        return all(same_fields(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


@pytest.fixture
def two_posts_three_comments():
    """2 posts + 3 comments, one comment replying to another comment."""
    posts = [
        post_record("p1", author="alice", created=100),
        post_record("p2", author="bob", created=200),
    ]
    comments = [
        comment_record("c1", "t3_p1", "p1", author="bob", created=150),
        comment_record("c2", "t1_c1", "p1", author="carol", created=180),
        comment_record("c3", "t3_p2", "p2", author="alice", created=260),
    ]
    return make_dataset(posts, comments)


@pytest.fixture(scope="session")
def fixture_corpus():
    """The shipped fixture's corpus, as its config builds it."""
    with (FIXTURE_DIR / "posts.jsonl").open() as ps, \
            (FIXTURE_DIR / "comments.jsonl").open() as cs:
        dataset = parse_dump(ps, cs)
    return build_corpus(dataset, min_df=3, max_df_fraction=0.6, phrase_min_count=20)


# Oracles that the tests compare the package's array and column code with:
# a tokenizer and phrase pass on strings, and a dump parser that checks one
# line and one record at a time.

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")


def raw_tokens(text: str) -> list[str]:
    """The runs of [a-z0-9] in ``text`` lowercased with URLs removed."""
    return _TOKEN_RE.findall(_URL_RE.sub(" ", text.lower()))


def keeps(token: str) -> bool:
    """Whether a raw token is a token: two characters or more, not a
    stopword and not all digits."""
    return len(token) > 1 and token not in default_stopwords() and not token.isdigit()


def tokenize(text: str) -> list[str]:
    """Normalize one text into unigram tokens (no phrase merging here)."""
    return list(filter(keeps, raw_tokens(text)))


def token_ids(texts) -> tuple[list[str], list[int], list[int]]:
    """What ``corpus._token_ids`` gives for posts of these texts, title and
    body joined by a space: the distinct raw tokens in first-occurrence
    order, and each token's index into them and its post row."""
    terms: dict[str, int] = {}
    ids, posts = [], []
    for row, text in enumerate(texts):
        for token in raw_tokens(text):
            term = terms.setdefault(token, len(terms))
            if keeps(token):
                ids.append(term)
                posts.append(row)
    return list(terms), ids, posts


def merge_phrases(documents, min_count: int) -> list[list[str]]:
    """Merge adjacent pairs occurring at least min_count times corpus-wide,
    greedy left to right, a token in at most one merge."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    pair_counts = Counter(chain.from_iterable(zip(doc, doc[1:]) for doc in documents))
    phrases = {pair for pair, n in pair_counts.items() if n >= min_count}
    merged_docs = []
    for doc in documents:
        merged: list[str] = []
        i = 0
        while i < len(doc):
            if i + 1 < len(doc) and (doc[i], doc[i + 1]) in phrases:
                merged.append(doc[i] + "_" + doc[i + 1])
                i += 2
            else:
                merged.append(doc[i])
                i += 1
        merged_docs.append(merged)
    return merged_docs


_SEPARATOR = re.compile("[,\n\r]")
_SURROGATE = re.compile("[\ud800-\udfff]")
_LAST_SECOND = 253402300799      # 9999-12-31T23:59:59Z


def _coerce_int(value) -> int:
    if isinstance(value, str):
        value = float(value) if "." in value else int(value)
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or not -2**63 <= value <= 2**63 - 1:
        raise ValueError(f"not an int64: {value!r}")
    return value


def _record_fields(record: dict) -> tuple:
    record_id, author = record["id"], record["author"]
    if not isinstance(record_id, str) or not record_id:
        raise ValueError("missing id")
    if not isinstance(author, str) or not author:
        raise ValueError("missing author")
    if _SEPARATOR.search(record_id + author):
        raise ValueError("id or author holds a CSV separator")
    if _SURROGATE.search(record_id + author):
        raise ValueError("id or author holds a lone surrogate")
    created = _coerce_int(record["created_utc"])
    if not 1 <= created <= _LAST_SECOND:
        raise ValueError("created_utc out of range")
    return record_id, author, created, _coerce_int(record["score"])


def _post_fields(record: dict) -> tuple:
    texts = (str(record.get("title") or ""), str(record.get("selftext") or ""))
    if _SURROGATE.search("".join(texts)):
        raise ValueError("title or selftext holds a lone surrogate")
    return _record_fields(record) + texts


def _comment_fields(record: dict) -> tuple:
    parent_id, link_id = record["parent_id"], record["link_id"]
    if not isinstance(parent_id, str) or not parent_id:
        raise ValueError("missing parent_id")
    if not isinstance(link_id, str) or not link_id:
        raise ValueError("missing link_id")
    root = link_id[3:] if link_id.startswith("t3_") else link_id
    return _record_fields(record) + (parent_id, root)


def _read_records(stream, parse, window, tallies: Counter) -> dict[str, tuple]:
    lo, hi = window or (None, None)
    records: dict[str, tuple] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            row = parse(record)
        except (ValueError, KeyError, TypeError, RecursionError):
            tallies["parse_errors"] += 1
            continue
        if (lo is not None and row[2] < lo) or (hi is not None and row[2] > hi):
            continue
        if row[0] in records:
            tallies["duplicate_ids"] += 1
            continue
        records[row[0]] = row
    return records


def parse_dump_per_line(post_stream, comment_stream, window=None) -> Dataset:
    """``parse_dump`` one line and one record at a time: ``json.loads``, a
    check per field, the window, then the first record of each id."""
    tallies: Counter = Counter()
    columns = []
    for stream, parse, table in ((post_stream, _post_fields, Posts),
                                 (comment_stream, _comment_fields, Comments)):
        records = _read_records(stream, parse, window, tallies)
        rows = [records[i] for i in sorted(records)]
        columns.append([list(c) for c in zip(*rows)] if rows
                       else [[] for _ in fields(table)])
    posts, comments = columns
    post_rows = dict(zip(posts[0], count()))
    rows = {"t3_": post_rows, "t1_": dict(zip(comments[0], count(len(post_rows))))}
    comments[4] = [rows.get(ref[:3], {}).get(ref[3:], -1) for ref in comments[4]]
    comments[5] = [post_rows.get(root, -1) for root in comments[5]]
    return Dataset(Posts(*posts), Comments(*comments),
                   tallies["parse_errors"], tallies["duplicate_ids"])


# Oracles for the writers: one Python call per cell, as the writers once
# were. The package's writers fill one template per file and spell each
# distinct float once; their text must equal these.

def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text_per_cell(header, rows, delimiter: str = ",") -> str:
    """The text ``write_csv`` writes, one ``fmt_cell`` call per cell."""
    lines = [delimiter.join(header)]
    for row in rows:
        lines.append(delimiter.join(map(fmt_cell, row)))
    return "\n".join(lines) + "\n"


def graphml_text_per_cell(nodes, edges) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>',
        '  <graph id="interactions" edgedefault="directed">',
    ]
    for node in nodes:
        lines.append(f"    <node id={quoteattr(node)}/>")
    for source, target, weight in edges:
        lines.append(f"    <edge source={quoteattr(source)} target={quoteattr(target)}>"
                     f"<data key=\"weight\">{weight}</data></edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def dot_text_per_cell(nodes, edges) -> str:
    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph interactions {"]
    for node in nodes:
        lines.append(f"  {quote(node)};")
    for source, target, weight in edges:
        lines.append(f"  {quote(source)} -> {quote(target)} [weight={weight}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_text_per_cell(model) -> str:
    """The text ``save_model`` writes, through one ``json.dumps`` of the
    model with theta and phi as nested lists of floats."""
    payload = {
        "format": "forumpulse-model-v3",
        "config": {
            "k": model.config.k,
            "alpha": model.config.alpha,
            "beta": model.config.beta,
            "iterations": model.config.iterations,
            "burn_in": model.config.burn_in,
            "seed": model.config.seed,
        },
        "doc_ids": list(model.doc_ids),
        "terms": list(model.terms),
        "theta": model.theta.tolist(),
        "phi": model.phi.tolist(),
        "vocabulary_sha256": vocabulary_digest(model.terms),
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def skewness_per_vector(dist) -> float | None:
    """Pearson second-coefficient skewness, 3*(mean - median)/sigma, of one
    distribution with numpy's per-vector calls, sigma the population
    standard deviation; None for a constant vector. The oracle that
    ``row_skewness`` is compared with bit for bit."""
    values = np.asarray(dist, dtype=np.float64)
    if bool(np.all(values == values[0])):
        return None
    mean = float(values.mean())
    sigma = float(np.sqrt(np.mean((values - mean) ** 2)))
    if sigma == 0.0:
        return None
    return 3.0 * (mean - float(np.median(values))) / sigma


# Oracles that the tests compare the dominance readers' mask code with: a
# loop over each post's set of dominant topics.

def presence_per_set(sets, k: int) -> tuple[float, ...]:
    """Per topic, the fraction of ``sets`` that hold it."""
    posts = Counter(chain.from_iterable(sets))
    return tuple(posts[t] / len(sets) for t in range(k))


def cooccurrence_per_set(sets, k: int) -> np.ndarray:
    """Pair counts of co-dominant topics; sole-dominant counts on the diagonal."""
    counts = np.zeros((k, k), dtype=np.int64)
    for topics in sets:
        if len(topics) == 1:
            (t,) = topics
            counts[t, t] += 1
            continue
        ordered = sorted(topics)
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                counts[ordered[a], ordered[b]] += 1
                counts[ordered[b], ordered[a]] += 1
    return counts


def topicwise_profile_per_row(projections: np.ndarray, sets, k: int) -> np.ndarray:
    """Per topic, the mean of the projection rows of the posts where it is
    dominant, added one row at a time; NaN where it is dominant in none."""
    totals = np.zeros((k, projections.shape[1]))
    counts = np.zeros(k, dtype=np.int64)
    for row, topics in zip(projections, sets):
        for t in topics:
            totals[t] += row
            counts[t] += 1
    profiles = np.full((k, projections.shape[1]), np.nan)
    defined = counts > 0
    profiles[defined] = totals[defined] / counts[defined, None]
    return profiles


def monthly_tally_per_set(doc_ids, sets, dataset: Dataset) -> dict[tuple[int, str], int]:
    """Posts per (topic, UTC calendar month), a post counted once per topic
    in its set."""
    row = dict(zip(dataset.posts.id, range(len(dataset.posts))))
    created = dataset.posts.created_at[[row[doc_id] for doc_id in doc_ids]].tolist()
    return dict(Counter(
        (t, datetime.fromtimestamp(c, tz=timezone.utc).strftime("%Y-%m"))
        for c, topics in zip(created, sets) for t in topics))


def fit_with_labels(corpus, config, fit=fit):
    """The model ``fit`` gives, the labels the sampler's hook shows after
    the last sweep (one tuple per document, one label per token), and the
    likelihood ``state.likelihood()`` gives after every sweep, as a tuple."""
    seen = {}
    trace = []

    def hook(sweep, state):
        assert not state.z.flags.writeable
        trace.append(state.likelihood())
        if sweep == config.iterations:
            bounds = np.concatenate(([0], np.cumsum(state.doc_totals))).tolist()
            z = state.z.tolist()
            seen["labels"] = tuple(tuple(z[a:b]) for a, b in zip(bounds, bounds[1:]))

    return fit(corpus, config, sweep_hook=hook), seen["labels"], tuple(trace)


# Oracles that the tests compare the graph's index columns with: edges as
# (source, target, weight) tuples of names, degrees as Counters of them, and
# the top influencers' egonet found by a loop over the edges.

def edges_per_comment(dataset: Dataset) -> tuple[tuple[str, str, int], ...]:
    """The sorted (source, target, weight) edges of the replies between
    non-sentinel users, one comment at a time."""
    weights = Counter((c.author, c.parent_author) for c in comment_views(dataset)
                      if c.parent_author is not None and c.author != c.parent_author
                      and not {c.author, c.parent_author} & SENTINEL_AUTHORS)
    return tuple((s, t, w) for (s, t), w in sorted(weights.items()))


def graph_from_edges(edges):
    """The nodes and the out- and in-degrees, by name, of sorted distinct
    ``edges``: the nodes are their endpoints, and a degree counts edges."""
    out_degree = Counter(source for source, _, _ in edges)
    in_degree = Counter(target for _, target, _ in edges)
    nodes = tuple(sorted(out_degree.keys() | in_degree.keys()))
    return (nodes, {n: out_degree[n] for n in nodes}, {n: in_degree[n] for n in nodes})


def subgraph_per_edge(edges, selected):
    """The nodes and edges of the egonet around ``selected``, one edge at a time."""
    anchor = frozenset(selected)
    keep = set(selected)
    for source, target, _ in edges:
        if source in anchor:
            keep.add(target)
        if target in anchor:
            keep.add(source)
    return (tuple(sorted(keep)),
            tuple((s, t, w) for s, t, w in edges if s in keep and t in keep))


def metric_rows(metrics) -> dict[str, SimpleNamespace]:
    """Each commenter's row of the ``UserMetrics`` columns, by name: a
    record of its ``user`` and one Python value per column, tau None where
    it is NaN."""
    columns = {f.name: getattr(metrics, f.name) for f in fields(metrics)
               if f.name != "users"}
    columns = {name: c.tolist() if isinstance(c, np.ndarray) else c
               for name, c in columns.items()}
    rows = {}
    for i, user in enumerate(metrics.users):
        row = SimpleNamespace(user=user, **{name: c[i] for name, c in columns.items()})
        row.tau = None if row.tau != row.tau else row.tau
        rows[user] = row
    return rows


def edge_tuples(graph: InteractionGraph) -> tuple[tuple[str, str, int], ...]:
    """The (source, target, weight) name tuples of ``graph``'s edge columns."""
    return tuple((graph.nodes[s], graph.nodes[t], w) for s, t, w in zip(
        graph.source.tolist(), graph.target.tolist(), graph.weight.tolist()))


def graph_of(nodes, edges) -> InteractionGraph:
    """The graph of ``nodes`` and the name tuples ``edges``."""
    index = {name: i for i, name in enumerate(nodes)}
    return InteractionGraph(tuple(nodes), [index[s] for s, _, _ in edges],
                            [index[t] for _, t, _ in edges], [w for _, _, w in edges])


def same_graph(a: InteractionGraph, b: InteractionGraph) -> bool:
    """``a`` and ``b`` hold the same nodes and the same read-only int64 columns."""
    return a.nodes == b.nodes and all(
        x.dtype == y.dtype == np.int64 and not (x.flags.writeable or y.flags.writeable)
        and np.array_equal(x, y)
        for x, y in ((a.source, b.source), (a.target, b.target), (a.weight, b.weight)))
