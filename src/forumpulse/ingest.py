"""Parse Pushshift-style JSONL dumps into an immutable dataset.

Field mapping follows the Pushshift export conventions: posts carry
``id, author, created_utc, score, title, selftext`` and comments carry
``id, author, created_utc, score, body, parent_id, link_id``. Parent
references are prefixed: ``t3_<id>`` points at a post, ``t1_<id>`` at a
comment. Records that cannot be mapped are skipped and tallied, never
fatal; duplicate ids keep the first record seen.
"""

from __future__ import annotations

import dataclasses
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import DataError
from .fileio import read_json, reading, write_json

SENTINEL_AUTHORS = frozenset({"[deleted]", "[removed]"})
POST_PREFIX = "t3_"
COMMENT_PREFIX = "t1_"

_DATASET_FORMAT = "forumpulse-dataset-v1"
# write_csv joins cells unquoted, so an id or author holding one of these
# would write rows that cannot be read back.
_CSV_SEPARATOR = re.compile("[,\n\r]")


class AuthorCategory(str, Enum):
    ONLY_POSTING = "OnlyPosting"
    ONLY_COMMENTING = "OnlyCommenting"
    BOTH = "Both"


@dataclass(frozen=True)
class Post:
    id: str
    author: str
    created_at: int
    score: int
    title: str
    body: str


@dataclass(frozen=True)
class Comment:
    id: str
    author: str
    created_at: int
    score: int
    body: str
    parent_id: str      # prefixed reference, e.g. "t3_abc" or "t1_xyz"
    root_post_id: str   # bare post id taken from link_id
    parent_dangling: bool
    root_dangling: bool


@dataclass(frozen=True)
class AuthorRecord:
    author: str
    post_count: int
    comment_count: int
    category: AuthorCategory
    aggregate_comment_score: int


@dataclass(frozen=True)
class Dataset:
    """Immutable view of one dump: posts, comments and derived author records.

    ``dangling_refs`` counts comments whose parent reference does not resolve
    to a record in the dataset (the comment itself is retained).
    ``parse_errors`` and ``duplicate_ids`` tally records dropped during
    parsing.
    """

    posts: tuple[Post, ...]
    comments: tuple[Comment, ...]
    authors: tuple[AuthorRecord, ...]
    dangling_refs: int
    parse_errors: int
    duplicate_ids: int

    @cached_property
    def post_by_id(self) -> Mapping[str, Post]:
        return {p.id: p for p in self.posts}

    @cached_property
    def comment_by_id(self) -> Mapping[str, Comment]:
        return {c.id: c for c in self.comments}

    @cached_property
    def author_by_name(self) -> Mapping[str, AuthorRecord]:
        return {a.author: a for a in self.authors}

    def resolve_parent(self, comment: Comment) -> Post | Comment | None:
        """Return the record the comment replies to, or None when dangling."""
        if comment.parent_dangling:
            return None
        if comment.parent_id.startswith(POST_PREFIX):
            return self.post_by_id[comment.parent_id[len(POST_PREFIX):]]
        return self.comment_by_id[comment.parent_id[len(COMMENT_PREFIX):]]


def _coerce_int(value) -> int:
    if isinstance(value, bool):
        raise ValueError("boolean is not an integer field")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value == int(value):
        return int(value)
    if isinstance(value, str):
        return int(float(value)) if "." in value else int(value)
    raise ValueError(f"not an integer: {value!r}")


def _record_fields(record: dict, kind: str) -> dict:
    """The id, author, created_at and score of a post or comment record."""
    record_id, author = record["id"], str(record["author"])
    if not isinstance(record_id, str) or not record_id:
        raise ValueError(f"missing {kind} id")
    if _CSV_SEPARATOR.search(record_id + author):
        raise ValueError(f"{kind} id or author holds a CSV separator")
    created = _coerce_int(record["created_utc"])
    if created <= 0:
        raise ValueError("created_utc must be positive")
    return dict(id=record_id, author=author, created_at=created,
                score=_coerce_int(record["score"]))


def _post_fields(record: dict) -> dict:
    return dict(_record_fields(record, "post"), title=str(record.get("title") or ""),
                body=str(record.get("selftext") or ""))


def _comment_fields(record: dict) -> dict:
    parent_id = record["parent_id"]
    link_id = record["link_id"]
    if not isinstance(parent_id, str) or not parent_id:
        raise ValueError("missing parent_id")
    if not isinstance(link_id, str) or not link_id:
        raise ValueError("missing link_id")
    root = link_id[len(POST_PREFIX):] if link_id.startswith(POST_PREFIX) else link_id
    return dict(_record_fields(record, "comment"), body=str(record.get("body") or ""),
                parent_id=parent_id, root_post_id=root)


def _in_window(created: int, window: tuple[int | None, int | None] | None) -> bool:
    if window is None:
        return True
    lo, hi = window
    if lo is not None and created < lo:
        return False
    if hi is not None and created > hi:
        return False
    return True


def _read_records(stream: Iterable[str], parse, window, tallies: Counter[str]
                  ) -> dict[str, dict]:
    """The fields ``parse`` takes from each record of ``stream`` created
    inside ``window``, by id, the first record of each id kept; lines that
    fail to parse and repeated ids are counted in ``tallies``."""
    records: dict[str, dict] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            fields = parse(record)
        except (ValueError, KeyError, TypeError):
            tallies["parse_errors"] += 1
            continue
        if not _in_window(fields["created_at"], window):
            continue
        if fields["id"] in records:
            tallies["duplicate_ids"] += 1
            continue
        records[fields["id"]] = fields
    return records


def parse_dump(post_stream: Iterable[str], comment_stream: Iterable[str],
               window: tuple[int | None, int | None] | None = None) -> Dataset:
    """Build a Dataset from two line-delimited JSON streams.

    ``window`` is an optional closed interval ``(from_epoch, to_epoch)``;
    records created outside it are dropped. Malformed lines are skipped and
    counted, duplicate ids keep the first occurrence. Sentinel authors
    ("[deleted]", "[removed]") are excluded from the author table but their
    posts and comments are kept as content.
    """
    tallies: Counter[str] = Counter()
    posts = {post_id: Post(**fields) for post_id, fields in
             _read_records(post_stream, _post_fields, window, tallies).items()}
    raw_comments = _read_records(comment_stream, _comment_fields, window, tallies)

    comments: list[Comment] = []
    dangling = 0
    for fields in raw_comments.values():
        parent_id = fields["parent_id"]
        if parent_id.startswith(POST_PREFIX):
            resolved = parent_id[len(POST_PREFIX):] in posts
        elif parent_id.startswith(COMMENT_PREFIX):
            resolved = parent_id[len(COMMENT_PREFIX):] in raw_comments
        else:
            resolved = False  # unknown prefix: keep the comment, flag the ref
        if not resolved:
            dangling += 1
        comments.append(Comment(
            parent_dangling=not resolved,
            root_dangling=fields["root_post_id"] not in posts,
            **fields,
        ))

    post_counts: dict[str, int] = defaultdict(int)
    comment_counts: dict[str, int] = defaultdict(int)
    comment_scores: dict[str, int] = defaultdict(int)
    for post in posts.values():
        post_counts[post.author] += 1
    for comment in comments:
        comment_counts[comment.author] += 1
        comment_scores[comment.author] += comment.score

    authors = []
    for name in sorted(set(post_counts) | set(comment_counts)):
        if name in SENTINEL_AUTHORS:
            continue
        n_posts, n_comments = post_counts[name], comment_counts[name]
        if n_posts and n_comments:
            category = AuthorCategory.BOTH
        elif n_posts:
            category = AuthorCategory.ONLY_POSTING
        else:
            category = AuthorCategory.ONLY_COMMENTING
        authors.append(AuthorRecord(
            author=name,
            post_count=n_posts,
            comment_count=n_comments,
            category=category,
            aggregate_comment_score=comment_scores[name],
        ))

    return Dataset(
        posts=tuple(sorted(posts.values(), key=lambda p: p.id)),
        comments=tuple(sorted(comments, key=lambda c: c.id)),
        authors=tuple(authors),
        dangling_refs=dangling,
        parse_errors=tallies["parse_errors"],
        duplicate_ids=tallies["duplicate_ids"],
    )


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

    by_cat: dict[AuthorCategory, list[AuthorRecord]] = defaultdict(list)
    for record in dataset.authors:
        by_cat[record.category].append(record)

    total_authors = len(dataset.authors)
    total_posts = sum(a.post_count for a in dataset.authors)
    total_comments = sum(a.comment_count for a in dataset.authors)

    def pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    rows = []
    for category in (AuthorCategory.ONLY_POSTING, AuthorCategory.ONLY_COMMENTING,
                     AuthorCategory.BOTH):
        members = by_cat.get(category, [])
        n_posts = sum(a.post_count for a in members)
        n_comments = sum(a.comment_count for a in members)
        rows.append(ActivityRow(
            category=category,
            authors=len(members),
            posts=n_posts,
            comments=n_comments,
            authors_pct=pct(len(members), total_authors),
            posts_pct=pct(n_posts, total_posts),
            comments_pct=pct(n_comments, total_comments),
        ))
    return tuple(rows)


def response_time(comment: Comment, dataset: Dataset) -> Optional[int]:
    """Seconds between a comment and its parent; None when the parent dangles.

    The raw difference is returned even when negative (clock skew in the
    dump); aggregation via response_time_table excludes and counts those.
    """
    parent = dataset.resolve_parent(comment)
    if parent is None:
        return None
    return comment.created_at - parent.created_at


def response_time_table(dataset: Dataset) -> tuple[list[tuple[str, int, int]], int]:
    """(comment_id, seconds, comment_score) rows plus the anomaly count.

    Rows cover every comment with a resolved parent and non-negative lapse;
    negative lapses are excluded and counted, so rows + anomalies equals the
    number of resolved-parent comments.
    """
    rows: list[tuple[str, int, int]] = []
    anomalies = 0
    for comment in dataset.comments:
        lapse = response_time(comment, dataset)
        if lapse is None:
            continue
        if lapse < 0:
            anomalies += 1
            continue
        rows.append((comment.id, lapse, comment.score))
    return rows, anomalies


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
    best: dict[str, int] = {}
    for comment in dataset.comments:
        if comment.root_dangling:
            continue
        root = comment.root_post_id
        if root not in best or comment.score > best[root]:
            best[root] = comment.score

    pairs = []
    without = 0
    for post in dataset.posts:
        if post.id in best:
            pairs.append((post.id, post.score, best[post.id]))
        else:
            without += 1

    n_posts, n_comments = len(dataset.posts), len(dataset.comments)
    return ScoreRelations(
        pairs=tuple(pairs),
        no_comment_posts=without,
        post_score_one_fraction=(
            sum(1 for p in dataset.posts if p.score == 1) / n_posts if n_posts else 0.0),
        comment_score_one_fraction=(
            sum(1 for c in dataset.comments if c.score == 1) / n_comments if n_comments else 0.0),
    )


def save_dataset(dataset: Dataset, path) -> None:
    payload = {
        "format": _DATASET_FORMAT,
        "posts": [vars(p) for p in dataset.posts],
        "comments": [vars(c) for c in dataset.comments],
        "authors": [{**vars(a), "category": a.category.value} for a in dataset.authors],
        "dangling_refs": dataset.dangling_refs,
        "parse_errors": dataset.parse_errors,
        "duplicate_ids": dataset.duplicate_ids,
    }
    write_json(path, payload, indent=None)


def _typed(cls, rows: list[dict], path) -> list[dict]:
    """``rows``, if each of the str, int and bool fields of ``cls`` has
    exactly that type in every row; else DataError."""
    for f in dataclasses.fields(cls):
        kind = {"str": str, "int": int, "bool": bool}.get(f.type)
        if kind is not None and {type(row[f.name]) for row in rows} - {kind}:
            raise DataError(f"{path}: a {cls.__name__} record's {f.name!r} "
                            f"is not of type {f.type}")
    return rows


def load_dataset(path) -> Dataset:
    """The dataset saved at ``path``; DataError when it is not a complete
    dataset file."""
    with reading(path, f"{_DATASET_FORMAT} file"):
        payload = read_json(path)
        if payload.get("format") != _DATASET_FORMAT:
            raise DataError(f"{path}: not a {_DATASET_FORMAT} file")
        return Dataset(
            posts=tuple(Post(**p) for p in _typed(Post, payload["posts"], path)),
            comments=tuple(Comment(**c) for c in _typed(Comment, payload["comments"], path)),
            authors=tuple(
                AuthorRecord(**{**a, "category": AuthorCategory(a["category"])})
                for a in _typed(AuthorRecord, payload["authors"], path)),
            dangling_refs=payload["dangling_refs"],
            parse_errors=payload["parse_errors"],
            duplicate_ids=payload["duplicate_ids"],
        )
