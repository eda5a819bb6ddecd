from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import forumpulse
from forumpulse.corpus import Corpus, Vocabulary, build_corpus
from forumpulse.ingest import parse_dump

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
