from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import fields
from itertools import chain, count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import forumpulse
from forumpulse.corpus import Corpus, Vocabulary, build_corpus, default_stopwords
from forumpulse.ingest import Comments, Dataset, Posts, parse_dump

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
    df = Counter()
    for doc in docs:
        df.update(doc.keys())
    if doc_ids is None:
        doc_ids = [f"d{i:03d}" for i in range(len(docs))]
    return Corpus(
        **csr([sorted((index[t], n) for t, n in doc.items()) for doc in docs]),
        doc_ids=tuple(doc_ids),
        vocabulary=Vocabulary(terms=tuple(terms),
                              document_frequency=tuple(df[t] for t in terms)),
        total_tokens=sum(n for doc in docs for n in doc.values()),
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

def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Normalize one text into unigram tokens (no phrase merging here)."""
    if not text:
        return []
    if stopwords is None:
        stopwords = default_stopwords()
    return [token for token in
            re.findall(r"[a-z0-9]+", re.sub(r"(?:https?://|www\.)\S+", " ", text.lower()))
            if len(token) > 1 and token not in stopwords and not token.isdigit()]


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
    record_id, author = record["id"], str(record["author"])
    if not isinstance(record_id, str) or not record_id:
        raise ValueError("missing id")
    if _SEPARATOR.search(record_id + author):
        raise ValueError("id or author holds a CSV separator")
    created = _coerce_int(record["created_utc"])
    if not 1 <= created <= _LAST_SECOND:
        raise ValueError("created_utc out of range")
    return record_id, author, created, _coerce_int(record["score"])


def _post_fields(record: dict) -> tuple:
    return _record_fields(record) + (str(record.get("title") or ""),
                                     str(record.get("selftext") or ""))


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
