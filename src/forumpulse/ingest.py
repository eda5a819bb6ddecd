"""Parse Pushshift-style JSONL dumps into a columnar dataset.

Field mapping follows the Pushshift export conventions: posts carry
``id, author, created_utc, score, title, selftext`` and comments carry
``id, author, created_utc, score, parent_id, link_id`` (a comment's
``body`` is not kept: no stage reads it). Parent references are prefixed:
``t3_<id>`` points at a post, ``t1_<id>`` at a comment. Records that cannot
be mapped are skipped and tallied, never fatal; duplicate ids keep the
first valid record seen.

The column rules live in the types, which refuse a column that breaks them;
``parse_dump`` drops and counts the records that break them by the same
column tests, ``_ints`` and ``_cells``, and sorts the records it keeps by id,
the one order the types take.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, lt, ne
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .fileio import StageContext, read_json, reading, write_csv, write_json, write_text

SENTINEL_AUTHORS = frozenset({"[deleted]", "[removed]"})
POST_PREFIX = "t3_"
COMMENT_PREFIX = "t1_"

_DATASET_FORMAT = "forumpulse-dataset-v2"
# Items of a column that save_dataset spells at a time.
_DATASET_BLOCK = 4096
_dump = partial(json.dumps, ensure_ascii=False)
_INT64 = (-2**63, 2**63 - 1)
# A record's created_utc: from one second after the epoch to
# 9999-12-31T23:59:59Z, the last second whose month a datetime can name.
_CREATED_AT = (1, 253402300799)
# write_csv joins cells unquoted, so an id or author holding a comma or a line
# break would write rows that cannot be read back; and UTF-8 cannot encode a
# lone surrogate, which a JSON escape can spell, in any str the dataset keeps.
_NOT_IN_A_CELL, _SURROGATE = re.compile("[,\n\r\ud800-\udfff]"), re.compile("[\ud800-\udfff]")
_SCAN = json.JSONDecoder().scan_once
_RECORD_KEYS = ("id", "author", "created_utc", "score")
# A comment's fields as a record line holds them, in the order of Comments;
# KeyError when one is missing.
_take_comment = itemgetter(*_RECORD_KEYS, "parent_id", "link_id")
_take_record = itemgetter(*_RECORD_KEYS)


# The rows of activity_table.csv, in order: authors with posts only, with
# comments only, and with both.
AUTHOR_CATEGORIES = ("OnlyPosting", "OnlyCommenting", "Both")


class _Table:
    """Columns of one length: each ``np.ndarray`` field a read-only int64
    array, each other field a list of str, the authors interned. ValueError
    for a column that is not a list as long as ``id`` of items of exactly
    its field's type (a bool is not an int), an id or author that is empty
    or holds a CSV separator, a str that holds a lone surrogate, an int
    outside its field's bounds: ``_CREATED_AT`` for ``created_at``, int64
    otherwise, or ids that are not strictly ascending in ``str`` order."""

    def __post_init__(self):
        for f in fields(self):
            column = getattr(self, f.name)
            if not isinstance(column, (list, np.ndarray)) or len(column) != len(self.id):
                valid = False
            elif f.type == "np.ndarray":
                column, valid = _ints(column, *(_CREATED_AT if f.name == "created_at" else _INT64))
                column.setflags(write=False)
            else:
                valid = (_cells(column, csv=True) if f.name in ("id", "author")
                         else not set(map(type, column)) - {str} and _encodable(column).all())
            if not np.all(valid):
                raise ValueError(f"{type(self).__name__.lower()} column {f.name!r} is not a "
                                 "list as long as the ids of values that its field takes")
            if f.name == "id" and not all(map(lt, column, islice(column, 1, None))):
                raise ValueError(f"{type(self).__name__.lower()} column 'id' is not "
                                 "strictly ascending")
            if f.name == "author":
                column = list(map(sys.intern, column))
            object.__setattr__(self, f.name, column)

    def __len__(self) -> int:
        return len(self.id)


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


@dataclass(frozen=True, eq=False)
class Dataset:
    """One dump as columns: row i of ``posts`` is the post with the i-th
    smallest id, and likewise for ``comments``; ``Posts`` and ``Comments``
    refuse ids in any other order, or repeated.

    ``parse_errors`` and ``duplicate_ids`` tally records dropped during
    parsing.
    """

    posts: Posts
    comments: Comments
    parse_errors: int
    duplicate_ids: int

    def __post_init__(self):
        """ValueError unless each ``parent`` is -1 or a record's row, each
        ``root`` -1 or a post's row, and both tallies counts."""
        n_posts = len(self.posts)
        for name, hi in (("parent", n_posts + len(self.comments) - 1), ("root", n_posts - 1)):
            if not _ints(getattr(self.comments, name), -1, hi)[1].all():
                raise ValueError(f"comments column {name!r} holds a value outside [-1, {hi}]")
        if any(type(n) is not int or n < 0 for n in (self.parse_errors, self.duplicate_ids)):
            raise ValueError("parse_errors and duplicate_ids must be counts")

    @property
    def dangling_refs(self) -> int:
        """Comments whose parent reference does not resolve to a record in
        the dataset (the comment itself is retained)."""
        return int(np.count_nonzero(self.comments.parent < 0))

    def post_rows(self, ids: Sequence[str]) -> np.ndarray:
        """The row in ``posts`` of each of ``ids``; DataError naming the
        first that is not a post of the dataset."""
        return _rows(self.posts.id, ids, "post")

    def author_rows(self, names: Sequence[str]) -> np.ndarray:
        """The index in ``authors`` of each of ``names``; DataError naming
        the first that is not an author of the dataset."""
        return _rows(self.authors, names, "author")

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


def _rows(keys: Sequence[str], wanted: Sequence[str], kind: str) -> np.ndarray:
    """The index in ``keys`` of each of ``wanted``; DataError naming the
    first that ``keys`` lacks."""
    row = dict(zip(keys, range(len(keys))))
    try:
        return np.fromiter(map(row.__getitem__, wanted), dtype=np.int64, count=len(wanted))
    except KeyError as exc:
        raise DataError(f"{kind} {exc.args[0]!r} not present in dataset") from None


def _int64(value) -> int | None:
    """``value`` if it is an int64; the int64 a float or a string of an
    integral value stands for; else None (a bool, a fraction, an infinity,
    a NaN, a value outside int64 or any other value)."""
    try:
        if type(value) is str:
            value = float(value) if "." in value else int(value)
        if type(value) is float and value.is_integer():
            value = int(value)
    except ValueError:
        return None
    return value if type(value) is int and _INT64[0] <= value <= _INT64[1] else None


def _ints(column: Sequence, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``column`` as int64, and where its item is an int within [lo, hi]
    (a bool is not an int); an item that is not reads 0. The whole column
    is tested first, item by item only when that fails."""
    items = column.tolist() if isinstance(column, np.ndarray) else column
    if set(map(type, items)) <= {int}:
        try:
            values = np.asarray(column, dtype=np.int64)
            if not len(values) or lo <= values.min() <= values.max() <= hi:
                return values, np.ones(len(values), dtype=bool)
        except OverflowError:       # an int outside int64
            pass
    valid = [type(v) is int and lo <= v <= hi for v in items]
    return (np.array([v if ok else 0 for v, ok in zip(items, valid)], dtype=np.int64),
            np.array(valid, dtype=bool))


def _cells(column: Sequence, csv: bool) -> np.ndarray:
    """Where ``column`` holds a non-empty str, and if ``csv`` one without a
    CSV separator or a lone surrogate. The whole column is tested first,
    item by item only when that fails."""
    if (not set(map(type, column)) - {str} and all(column)
            and not (csv and _NOT_IN_A_CELL.search("".join(column)))):
        return np.ones(len(column), dtype=bool)
    return np.fromiter((type(x) is str and x != "" and not (csv and _NOT_IN_A_CELL.search(x))
                        for x in column), dtype=bool, count=len(column))


def _encodable(column: Sequence[str]) -> np.ndarray:
    """Where a str of ``column`` holds no lone surrogate, tested as ``_cells`` tests."""
    try:
        "".join(column).encode("utf-8")     # a few times faster than a search
    except UnicodeEncodeError:
        return np.fromiter((not _SURROGATE.search(x) for x in column), dtype=bool,
                           count=len(column))
    return np.ones(len(column), dtype=bool)


def _take_post(record: dict) -> tuple:
    """A post's fields as a record line holds them, in the order of Posts:
    the title and selftext as ``str(value or "")``, KeyError for any other."""
    return _take_record(record) + (str(record.get("title") or ""),
                                   str(record.get("selftext") or ""))


def _scan(stream: Iterable[str], take, tallies: Counter[str]) -> list[tuple]:
    """``take`` of each record of ``stream``, one tuple per record; a line
    that is not blank and is not one JSON object of which ``take`` finds
    every key it asks for, or is nested too deep to decode, is counted in
    ``tallies``. A file that is not UTF-8 is a DataError naming it."""
    rows = []
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _SCAN(line, 0)
                if end != len(line) or type(record) is not dict:
                    raise ValueError("not one JSON object")
                rows.append(take(record))
            except (StopIteration, ValueError, KeyError, RecursionError):
                tallies["parse_errors"] += 1
    except UnicodeDecodeError as exc:
        raise DataError(f"{getattr(stream, 'name', 'dump')}: not UTF-8 "
                        f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from exc
    return rows


def _read_records(stream: Iterable[str], take, width: int, n_strings: int,
                  window: tuple[int | None, int | None] | None, tallies: Counter[str]
                  ) -> list:
    """The ``width`` columns that ``take`` gives of the records of
    ``stream`` (``_scan``) that are valid and created inside ``window``,
    the first record of each id kept, in ascending id order: ids, authors,
    ``created_utc`` and ``score`` as int64 arrays, then one list per further
    field.

    A record is valid when its id, author and the ``n_strings`` fields
    after its score are non-empty strs, its id and author hold no CSV
    separator or lone surrogate, no str field after those holds a lone
    surrogate, its score is an int64 and its ``created_utc`` one within
    ``_CREATED_AT``; the others, and repeated ids, are counted in ``tallies``.
    """
    rows = _scan(stream, take, tallies)
    columns = [list(map(itemgetter(j), rows)) for j in range(width)]
    del rows
    ids = columns[0]
    valid = _cells(ids, csv=True) & _cells(columns[1], csv=True)
    for column in columns[4:4 + n_strings]:
        valid &= _cells(column, csv=False)
    for column in columns[4 + n_strings:]:
        valid &= _encodable(column)
    for j, bounds in ((2, _CREATED_AT), (3, _INT64)):
        values, holds = _ints(columns[j], *bounds)
        if not holds.all():     # a column that is not all ints in bounds
            values, holds = _ints(list(map(_int64, columns[j])), *bounds)
        columns[j] = values
        valid &= holds
    tallies["parse_errors"] += len(valid) - int(np.count_nonzero(valid))

    # A valid time lies in _CREATED_AT, so a bound moved to just outside it
    # selects the same records, and fits int64.
    for bound, holds in zip(window or (None, None), (np.greater_equal, np.less_equal)):
        if bound is not None:
            valid &= holds(columns[2], min(max(bound, _CREATED_AT[0] - 1), _CREATED_AT[1] + 1))
    # Sorted by id, the records of an id in the order read (the sort is
    # stable): each but the first of an id is a repeat.
    kept = sorted(np.flatnonzero(valid).tolist(), key=ids.__getitem__)
    sorted_ids = list(map(ids.__getitem__, kept))
    first = [True] + list(map(ne, sorted_ids[1:], sorted_ids))
    tallies["duplicate_ids"] += first.count(False)
    kept = list(compress(kept, first))
    rows = np.array(kept, dtype=np.int64)
    return [column[rows] if j in (2, 3) else list(map(column.__getitem__, kept))
            for j, column in enumerate(columns)]


def parse_dump(post_stream: Iterable[str], comment_stream: Iterable[str],
               window: tuple[int | None, int | None] | None = None) -> Dataset:
    """Build a Dataset from two line-delimited JSON streams.

    ``window`` is an optional closed interval ``(from_epoch, to_epoch)``;
    records created outside it are dropped. Malformed lines are skipped and
    counted, duplicate ids keep the first valid record inside the window.
    Sentinel authors ("[deleted]", "[removed]") are excluded from
    ``authors`` but their posts and comments are kept as content.
    """
    tallies: Counter[str] = Counter()
    posts = _read_records(post_stream, _take_post, len(fields(Posts)), 0, window, tallies)
    comments = _read_records(comment_stream, _take_comment, len(fields(Comments)), 2,
                             window, tallies)
    # The row of each record by its prefixed id. An unknown prefix keeps
    # the comment and leaves its reference dangling.
    refs = dict(zip(map(POST_PREFIX.__add__, posts[0]), count()))
    refs.update(zip(map(COMMENT_PREFIX.__add__, comments[0]), count(len(posts[0]))))
    # A link_id names its root post by the bare id, with or without the
    # post prefix.
    post_rows = dict(zip(posts[0], count()))
    parents, links = comments[4:]
    roots = [link[len(POST_PREFIX):] if link.startswith(POST_PREFIX) else link
             for link in links]
    comments[4:] = (np.fromiter(map(refs.get, parents, repeat(-1)), dtype=np.int64,
                                count=len(parents)),
                    np.fromiter(map(post_rows.get, roots, repeat(-1)), dtype=np.int64,
                                count=len(roots)))
    return Dataset(Posts(*posts), Comments(*comments),
                   tallies["parse_errors"], tallies["duplicate_ids"])


def author_activity_table(dataset: Dataset) -> list[tuple]:
    """The rows of ``activity_table.csv``: per ``AUTHOR_CATEGORIES`` entry,
    its name, then its authors, posts and comments, each followed by its
    percentage.

    Percentages are taken over activity attributed to non-sentinel authors,
    so each column sums to 100 whenever the corresponding denominator is
    non-zero.
    """
    if not dataset.authors:
        raise DataError("dataset has no attributable authors")
    n = len(dataset.authors)
    posts, comments = dataset.activity()
    # Each author's category by its place in AUTHOR_CATEGORIES.
    category = np.where(posts > 0, np.where(comments > 0, 2, 0), 1)
    total_posts, total_comments = int(posts.sum()), int(comments.sum())

    def pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    rows = []
    for i, kind in enumerate(AUTHOR_CATEGORIES):
        member = category == i
        n_authors = int(member.sum())
        n_posts, n_comments = int(posts[member].sum()), int(comments[member].sum())
        rows.append((kind, n_authors, pct(n_authors, n), n_posts,
                     pct(n_posts, total_posts), n_comments,
                     pct(n_comments, total_comments)))
    return rows


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


def score_relations(dataset: Dataset) -> tuple[list[tuple[str, int, int]], dict[str, float]]:
    """(post_id, post_score, max_comment_score) rows, one per post with a
    comment, plus the ``stats_summary.json`` fields
    ``posts_without_comments``, ``post_score_one_fraction`` and
    ``comment_score_one_fraction``.

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
    rows = list(zip([posts.id[i] for i in threads.tolist()],
                    posts.score[threads].tolist(), best[threads].tolist()))
    return rows, {
        "posts_without_comments": n_posts - len(threads),
        "post_score_one_fraction": (
            int(np.count_nonzero(posts.score == 1)) / n_posts if n_posts else 0.0),
        "comment_score_one_fraction": (
            int(np.count_nonzero(comments.score == 1)) / n_comments if n_comments else 0.0),
    }


def _json_blocks(value) -> Iterator[str]:
    """The text of ``json.dumps(value, sort_keys=True, indent=None,
    ensure_ascii=False)`` in pieces, ``value`` a str or an int, a list or an
    int array of them, or a dict of such by str: a list or an array
    ``_DATASET_BLOCK`` items at a time."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else ''}{_dump(key)}: "
            yield from _json_blocks(value[key])
        yield "}"
    elif isinstance(value, (list, np.ndarray)):
        yield "["
        for start in range(0, len(value), _DATASET_BLOCK):
            if start:
                yield ", "
            block = value[start:start + _DATASET_BLOCK]
            yield _dump(block if isinstance(block, list) else block.tolist())[1:-1]
        yield "]"
    else:
        yield _dump(value)


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path`` as one JSON list per column: the text
    of one ``write_json(..., indent=None)`` of it, written a block of a
    column at a time, so that no copy of the dataset as text or as Python
    ints is held."""
    write_text(path, chain(_json_blocks({
        "format": _DATASET_FORMAT,
        "posts": {f.name: getattr(dataset.posts, f.name) for f in fields(Posts)},
        "comments": {f.name: getattr(dataset.comments, f.name) for f in fields(Comments)},
        "parse_errors": dataset.parse_errors,
        "duplicate_ids": dataset.duplicate_ids,
    }), ["\n"]))


def load_dataset(path) -> Dataset:
    """The dataset saved at ``path``; DataError when it is not a complete
    dataset file of this format, or the dataset's types refuse a column."""
    with reading(path, f"{_DATASET_FORMAT} file"):
        payload = read_json(path)
        if payload.get("format") != _DATASET_FORMAT:
            raise DataError(f"{path}: not a {_DATASET_FORMAT} file (rerun ingest)")
        return Dataset(Posts(**payload["posts"]), Comments(**payload["comments"]),
                       payload["parse_errors"], payload["duplicate_ids"])


def ingest_stage(ctx: StageContext) -> Dataset:
    with ctx.path("posts").open("r", encoding="utf-8") as ps, \
            ctx.path("comments").open("r", encoding="utf-8") as cs:
        dataset = parse_dump(ps, cs, (ctx.params["from"], ctx.params["to"]))
    save_dataset(dataset, ctx.path("dataset.json"))
    ctx.parsed["dataset.json"] = dataset
    return dataset


def stats_stage(ctx: StageContext) -> dict:
    dataset = ctx.load("dataset.json", load_dataset)
    write_csv(ctx.path("activity_table.csv"),
              ("category", "authors", "authors_pct", "posts", "posts_pct",
               "comments", "comments_pct"), author_activity_table(dataset))
    pairs, relations = score_relations(dataset)
    write_csv(ctx.path("score_relations.csv"),
              ("post_id", "post_score", "max_comment_score"), pairs)
    lapse_rows, anomalies = response_time_table(dataset)
    write_csv(ctx.path("response_times.csv"),
              ("comment_id", "response_time_s", "comment_score"), lapse_rows)
    summary = {
        "posts": len(dataset.posts),
        "comments": len(dataset.comments),
        "authors": len(dataset.authors),
        "dangling_refs": dataset.dangling_refs,
        "parse_errors": dataset.parse_errors,
        "duplicate_ids": dataset.duplicate_ids,
        **relations,
        "response_time_anomalies": anomalies,
    }
    write_json(ctx.path("stats_summary.json"), summary)
    return summary
