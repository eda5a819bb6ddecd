"""Parse Pushshift-style JSONL dumps into a columnar dataset.

Field mapping follows the Pushshift export conventions: posts carry
``id, author, created_utc, score, title, selftext`` and comments carry
``id, author, created_utc, score, parent_id, link_id`` (a comment's
``body`` is not kept: no stage reads it). Parent references are prefixed:
``t3_<id>`` points at a post, ``t1_<id>`` at a comment. Records that cannot
be mapped are skipped and tallied, never fatal; duplicate ids keep the
first record seen.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain, count
from typing import Iterable

import numpy as np

from .errors import DataError
from .fileio import read_json, reading, write_json

SENTINEL_AUTHORS = frozenset({"[deleted]", "[removed]"})
POST_PREFIX = "t3_"
COMMENT_PREFIX = "t1_"

_DATASET_FORMAT = "forumpulse-dataset-v2"
_INT64 = (-2**63, 2**63 - 1)
# write_csv joins cells unquoted, so an id or author holding one of these
# would write rows that cannot be read back.
_CSV_SEPARATOR = re.compile("[,\n\r]")


class AuthorCategory(str, Enum):
    ONLY_POSTING = "OnlyPosting"
    ONLY_COMMENTING = "OnlyCommenting"
    BOTH = "Both"


class _Table:
    """Columns of one length: each ``np.ndarray`` field a read-only int64
    array, each other field a list of str, the authors interned."""

    def __post_init__(self):
        for f in fields(self):
            column = getattr(self, f.name)
            if f.type == "np.ndarray":
                column = np.asarray(column, dtype=np.int64)
                column.setflags(write=False)
            elif f.name == "author":
                column = list(map(sys.intern, column))
            object.__setattr__(self, f.name, column)
        if len({len(getattr(self, f.name)) for f in fields(self)}) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")

    def __len__(self) -> int:
        return len(self.id)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name))
                         for f in fields(self)))

    def columns(self) -> dict[str, list]:
        """Each column as a list, by field name, as ``dataset.json`` holds it."""
        return {f.name: getattr(self, f.name) if f.type != "np.ndarray"
                else getattr(self, f.name).tolist() for f in fields(self)}


@dataclass(frozen=True, eq=False)
class Posts(_Table):
    id: list[str]
    author: list[str]
    created_at: np.ndarray
    score: np.ndarray
    title: list[str]
    body: list[str]


@dataclass(frozen=True, eq=False)
class Comments(_Table):
    """``parent`` is the row of the record a comment replies to in the
    posts followed by the comments (post i is row i, comment j is row
    ``len(posts) + j``), or -1 when the reference does not resolve;
    ``root`` is the post row of its thread's root post, or -1 when that post
    is not in the dataset."""

    id: list[str]
    author: list[str]
    created_at: np.ndarray
    score: np.ndarray
    parent: np.ndarray
    root: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """One dump as columns: row i of ``posts`` is the post with the i-th
    smallest id, and likewise for ``comments``.

    ``parse_errors`` and ``duplicate_ids`` tally records dropped during
    parsing.
    """

    posts: Posts
    comments: Comments
    parse_errors: int
    duplicate_ids: int

    @property
    def dangling_refs(self) -> int:
        """Comments whose parent reference does not resolve to a record in
        the dataset (the comment itself is retained)."""
        return int(np.count_nonzero(self.comments.parent < 0))

    @cached_property
    def authors(self) -> list[str]:
        """The authors but the sentinels, ascending."""
        return sorted(set(self.posts.author).union(self.comments.author)
                      - SENTINEL_AUTHORS)

    def activity(self) -> tuple[np.ndarray, np.ndarray]:
        """The number of posts and the number of comments of each of
        ``authors``."""
        split = len(self.posts)
        return tuple(np.bincount(rows[rows >= 0], minlength=len(self.authors))
                     for rows in (self.author_index[:split], self.author_index[split:]))

    @cached_property
    def author_index(self) -> np.ndarray:
        """The index in ``authors`` of the author of each row of the posts
        followed by the comments (the rows of ``Comments.parent``); -1 for a
        sentinel author."""
        index = dict(zip(self.authors, range(len(self.authors))))
        return np.array([index.get(a, -1) for a in
                         chain(self.posts.author, self.comments.author)], dtype=np.int64)


def _coerce_int(value) -> int:
    """``value`` as an int64: an int, or a float or string of an integral
    value; ValueError for a bool, a fraction, an infinity, a NaN or a value
    outside int64."""
    if isinstance(value, str):
        value = float(value) if "." in value else int(value)
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or not _INT64[0] <= value <= _INT64[1]:
        raise ValueError(f"not an int64: {value!r}")
    return value


def _record_fields(record: dict, kind: str) -> tuple:
    """The id, author, created_at and score of a post or comment record."""
    record_id, author = record["id"], str(record["author"])
    if not isinstance(record_id, str) or not record_id:
        raise ValueError(f"missing {kind} id")
    if _CSV_SEPARATOR.search(record_id + author):
        raise ValueError(f"{kind} id or author holds a CSV separator")
    created = _coerce_int(record["created_utc"])
    if created <= 0:
        raise ValueError("created_utc must be positive")
    return record_id, author, created, _coerce_int(record["score"])


def _post_fields(record: dict) -> tuple:
    """The fields of ``Posts`` in order."""
    return _record_fields(record, "post") + (str(record.get("title") or ""),
                                             str(record.get("selftext") or ""))


def _comment_fields(record: dict) -> tuple:
    """The fields of ``Comments`` in order, with the prefixed parent
    reference and the bare root post id in place of their rows."""
    parent_id = record["parent_id"]
    link_id = record["link_id"]
    if not isinstance(parent_id, str) or not parent_id:
        raise ValueError("missing parent_id")
    if not isinstance(link_id, str) or not link_id:
        raise ValueError("missing link_id")
    root = link_id[len(POST_PREFIX):] if link_id.startswith(POST_PREFIX) else link_id
    return _record_fields(record, "comment") + (parent_id, root)


def _in_window(created: int, window: tuple[int | None, int | None] | None) -> bool:
    lo, hi = window or (None, None)
    return (lo is None or lo <= created) and (hi is None or created <= hi)


def _read_records(stream: Iterable[str], parse, window, tallies: Counter[str]
                  ) -> dict[str, tuple]:
    """The fields ``parse`` takes from each record of ``stream`` created
    inside ``window``, by id, the first record of each id kept; lines that
    fail to parse and repeated ids are counted in ``tallies``."""
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
        except (ValueError, KeyError, TypeError):
            tallies["parse_errors"] += 1
            continue
        if not _in_window(row[2], window):
            continue
        if row[0] in records:
            tallies["duplicate_ids"] += 1
            continue
        records[row[0]] = row
    return records


def _columns(records: dict[str, tuple], width: int) -> list[list]:
    """The fields of ``records`` in ascending id order, one list per field."""
    rows = [records[i] for i in sorted(records)]
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(width)]


def parse_dump(post_stream: Iterable[str], comment_stream: Iterable[str],
               window: tuple[int | None, int | None] | None = None) -> Dataset:
    """Build a Dataset from two line-delimited JSON streams.

    ``window`` is an optional closed interval ``(from_epoch, to_epoch)``;
    records created outside it are dropped. Malformed lines are skipped and
    counted, duplicate ids keep the first occurrence. Sentinel authors
    ("[deleted]", "[removed]") are excluded from ``authors`` but their
    posts and comments are kept as content.
    """
    tallies: Counter[str] = Counter()
    posts = _columns(_read_records(post_stream, _post_fields, window, tallies),
                     len(fields(Posts)))
    comments = _columns(_read_records(comment_stream, _comment_fields, window, tallies),
                        len(fields(Comments)))
    post_rows = dict(zip(posts[0], count()))
    rows = {POST_PREFIX: post_rows,
            COMMENT_PREFIX: dict(zip(comments[0], count(len(post_rows))))}
    # Both prefixes are three characters. An unknown prefix keeps the
    # comment and leaves its reference dangling.
    comments[4] = [rows.get(ref[:3], {}).get(ref[3:], -1) for ref in comments[4]]
    comments[5] = [post_rows.get(root, -1) for root in comments[5]]
    return Dataset(Posts(*posts), Comments(*comments),
                   tallies["parse_errors"], tallies["duplicate_ids"])


@dataclass(frozen=True)
class ActivityRow:
    category: AuthorCategory
    authors: int
    posts: int
    comments: int
    authors_pct: float
    posts_pct: float
    comments_pct: float


def author_activity_table(dataset: Dataset) -> tuple[ActivityRow, ...]:
    """Per-category share of authors, posts and comments.

    Percentages are taken over activity attributed to non-sentinel authors,
    so each column sums to 100 whenever the corresponding denominator is
    non-zero.
    """
    if not dataset.authors:
        raise DataError("dataset has no attributable authors")
    n = len(dataset.authors)
    posts, comments = dataset.activity()
    # Each author's category by its place in AuthorCategory.
    category = np.where(posts > 0, np.where(comments > 0, 2, 0), 1)
    total_posts, total_comments = int(posts.sum()), int(comments.sum())

    def pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    rows = []
    for i, kind in enumerate(AuthorCategory):
        member = category == i
        n_authors = int(member.sum())
        n_posts, n_comments = int(posts[member].sum()), int(comments[member].sum())
        rows.append(ActivityRow(
            category=kind,
            authors=n_authors,
            posts=n_posts,
            comments=n_comments,
            authors_pct=pct(n_authors, n),
            posts_pct=pct(n_posts, total_posts),
            comments_pct=pct(n_comments, total_comments),
        ))
    return tuple(rows)


def response_time_table(dataset: Dataset) -> tuple[list[tuple[str, int, int]], int]:
    """(comment_id, seconds, comment_score) rows plus the anomaly count.

    The seconds run from the parent record to the comment. Rows cover every
    comment with a resolved parent and non-negative lapse; negative lapses
    (clock skew in the dump) are excluded and counted, so rows + anomalies
    equals the number of resolved-parent comments.
    """
    comments = dataset.comments
    created = np.concatenate([dataset.posts.created_at, comments.created_at])
    resolved = np.flatnonzero(comments.parent >= 0)
    lapse = comments.created_at[resolved] - created[comments.parent[resolved]]
    kept = lapse >= 0
    rows = list(zip([comments.id[j] for j in resolved[kept].tolist()], lapse[kept].tolist(),
                    comments.score[resolved[kept]].tolist()))
    return rows, len(resolved) - len(rows)


@dataclass(frozen=True)
class ScoreRelations:
    pairs: tuple[tuple[str, int, int], ...]   # (post_id, post_score, max comment score)
    no_comment_posts: int
    post_score_one_fraction: float
    comment_score_one_fraction: float


def score_relations(dataset: Dataset) -> ScoreRelations:
    """Post score vs. best comment score per thread, plus score-1 shares.

    A comment belongs to the thread of its root post regardless of how deep
    it sits in the reply chain. Posts without any comment are only tallied.
    """
    posts, comments = dataset.posts, dataset.comments
    rooted = comments.root >= 0
    roots, scores = comments.root[rooted], comments.score[rooted]
    best = np.full(len(posts), _INT64[0], dtype=np.int64)
    np.maximum.at(best, roots, scores)
    threads = np.flatnonzero(np.bincount(roots, minlength=len(posts)))

    n_posts, n_comments = len(posts), len(comments)
    return ScoreRelations(
        pairs=tuple(zip([posts.id[i] for i in threads.tolist()],
                        posts.score[threads].tolist(), best[threads].tolist())),
        no_comment_posts=n_posts - len(threads),
        post_score_one_fraction=(
            int(np.count_nonzero(posts.score == 1)) / n_posts if n_posts else 0.0),
        comment_score_one_fraction=(
            int(np.count_nonzero(comments.score == 1)) / n_comments if n_comments else 0.0),
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path`` as one JSON list per column."""
    write_json(path, {
        "format": _DATASET_FORMAT,
        "posts": dataset.posts.columns(),
        "comments": dataset.comments.columns(),
        "parse_errors": dataset.parse_errors,
        "duplicate_ids": dataset.duplicate_ids,
    }, indent=None)


def _table(cls, columns: dict, path, **bounds: tuple[int, int]):
    """A ``cls`` of ``columns``, if each is a list as long as the ids whose
    items are all of its field's type, str or int, and whose ints are within
    its inclusive ``bounds`` (int64 when not given); else DataError."""
    n = len(columns["id"])
    checked = {}
    for f in fields(cls):
        column, kind = columns[f.name], int if f.type == "np.ndarray" else str
        where = f"{path}: {cls.__name__.lower()} column {f.name!r}"
        if type(column) is not list or len(column) != n:
            raise DataError(f"{where} is not a list of {n} values")
        # By exact type, so that a bool is not taken for an int.
        if set(map(type, column)) - {kind}:
            raise DataError(f"{where} holds a value that is not of type {kind.__name__}")
        if kind is int and n:
            lo, hi = bounds.get(f.name, _INT64)
            try:
                column = np.asarray(column, dtype=np.int64)
                inside = lo <= column.min() <= column.max() <= hi
            except OverflowError:      # an int outside int64
                inside = False
            if not inside:
                raise DataError(f"{where} holds a value outside [{lo}, {hi}]")
        checked[f.name] = column
    return cls(**checked)


def load_dataset(path) -> Dataset:
    """The dataset saved at ``path``; DataError when it is not a complete
    dataset file of this format, or a column is of the wrong type, length
    or range."""
    with reading(path, f"{_DATASET_FORMAT} file"):
        payload = read_json(path)
        if payload.get("format") != _DATASET_FORMAT:
            raise DataError(f"{path}: not a {_DATASET_FORMAT} file (rerun ingest)")
        posts = _table(Posts, payload["posts"], path, created_at=(1, _INT64[1]))
        n_records = len(posts) + len(payload["comments"]["id"])
        comments = _table(Comments, payload["comments"], path, created_at=(1, _INT64[1]),
                          parent=(-1, n_records - 1), root=(-1, len(posts) - 1))
        tallies = [payload[key] for key in ("parse_errors", "duplicate_ids")]
        if any(type(n) is not int or n < 0 for n in tallies):
            raise DataError(f"{path}: parse_errors and duplicate_ids must be counts")
        return Dataset(posts, comments, *tallies)
