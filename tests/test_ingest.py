from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumpulse.errors import DataError
from forumpulse.ingest import (AUTHOR_CATEGORIES, Comments, Dataset, Posts,
                               author_activity_table, load_dataset, parse_dump,
                               response_time_table, save_dataset, score_relations)

from conftest import (comment_record, jsonl, make_dataset, parse_dump_per_line, post_record,
                      same_fields)


def test_parse_small_fixture_resolves_chain(two_posts_three_comments):
    d = two_posts_three_comments
    assert len(d.posts) == 2
    assert len(d.comments) == 3
    assert d.dangling_refs == 0
    # Rows: p1, p2, then c1, c2, c3. c2 replies to c1, c1 to p1, c3 to p2.
    assert d.comments.parent.tolist() == [0, 2, 1]
    assert d.comments.root.tolist() == [0, 0, 1]


def test_parse_empty_streams():
    d = parse_dump([], [])
    assert len(d.posts) == len(d.comments) == 0 and d.authors == []
    assert d.parse_errors == 0


def test_dangling_parent_counted_and_comment_retained():
    d = make_dataset(
        [post_record("p1")],
        [comment_record("c1", "t1_missing", "p1")],
    )
    assert d.dangling_refs == 1
    assert len(d.comments) == 1
    assert d.comments.parent.tolist() == [-1]
    assert d.comments.root.tolist() == [0]


def test_link_id_names_the_root_post_with_or_without_the_post_prefix():
    posts = jsonl([post_record("p1"), post_record("p2")])
    comments = jsonl([{**comment_record("c1", "t3_p1", "p1"), "link_id": "p1"},
                      comment_record("c2", "t3_p2", "p2"),
                      {**comment_record("c3", "t3_p2", "p2"), "link_id": "t1_p2"}])
    assert parse_dump(posts, comments).comments.root.tolist() == [0, 1, -1]


def test_malformed_lines_skipped_and_counted():
    # The last line of each is nested deeper than the JSON decoder can follow.
    posts = jsonl([post_record("p1")]) + ["{not json", json.dumps({"id": "p2"}),
                                          "[" * 100_000]
    comments = jsonl([comment_record("c1", "t3_p1", "p1")]) + ['["array"]',
                                                                 '{"a": ' * 100_000]
    d = parse_dump(posts, comments)
    assert d.parse_errors == 5
    assert len(d.posts) == 1 and len(d.comments) == 1


@pytest.mark.parametrize("field, value", [
    ("id", "p,2"), ("author", "ma,lory"), ("author", "ma\nlory"), ("id", "p\r2")])
def test_csv_separator_in_id_or_author_is_a_parse_error(field, value):
    """write_csv joins cells unquoted, so such a record would write rows
    that cannot be read back."""
    posts = jsonl([post_record("p1"), {**post_record("p2"), field: value}])
    comments = jsonl([comment_record("c1", "t3_p1", "p1"),
                      {**comment_record("c2", "t3_p1", "p1"), field: value}])
    d = parse_dump(posts, comments)
    assert d.parse_errors == 2
    assert d.posts.id == ["p1"] and d.comments.id == ["c1"]


@pytest.mark.parametrize("author", [None, "", 7, ["ann"]])
def test_author_that_is_not_a_nonempty_str_is_a_parse_error(author):
    """A null, empty or non-string author would name a user "None", "" or
    "7" in every user table and in edges.csv."""
    posts = jsonl([post_record("p1"), {**post_record("p2"), "author": author}])
    comments = jsonl([comment_record("c1", "t3_p1", "p1"),
                      {**comment_record("c2", "t3_p1", "p1"), "author": author}])
    d = parse_dump(posts, comments)
    assert d.parse_errors == 2
    assert d.posts.id == ["p1"] and d.comments.id == ["c1"]
    assert d.authors == ["alice", "bob"]


def test_duplicate_ids_first_wins():
    posts = jsonl([
        post_record("p1", title="first"),
        post_record("p1", title="second"),
    ])
    d = parse_dump(posts, [])
    assert d.duplicate_ids == 1
    assert d.posts.title == ["first"]


def test_time_window_is_closed_interval():
    posts = [post_record("p1", created=100), post_record("p2", created=200),
             post_record("p3", created=300)]
    d = make_dataset(posts, [], window=(100, 200))
    assert d.posts.id == ["p1", "p2"]


def test_sentinel_authors_excluded_from_author_table_but_content_kept():
    d = make_dataset(
        [post_record("p1", author="[deleted]"), post_record("p2", author="alice")],
        [comment_record("c1", "t3_p1", "p1", author="[removed]")],
    )
    assert len(d.posts) == 2 and len(d.comments) == 1
    assert d.authors == ["alice"]


def test_parse_is_idempotent():
    posts = jsonl([post_record("p2", created=50), post_record("p1", created=99)])
    comments = jsonl([comment_record("c1", "t3_p1", "p1")])
    assert same_fields(parse_dump(posts, comments), parse_dump(posts, comments))


def test_author_categories():
    d = make_dataset(
        [post_record("p1", author="poster"), post_record("p2", author="both1"),
         post_record("p3", author="both2")],
        [comment_record("c1", "t3_p1", "p1", author="commenter"),
         comment_record("c2", "t3_p1", "p1", author="both1"),
         comment_record("c3", "t3_p2", "p2", author="both2")],
    )
    rows = {r[0]: (r[1], r[3], r[5]) for r in author_activity_table(d)}
    assert rows == {
        "OnlyPosting": (1, 1, 0),      # poster
        "OnlyCommenting": (1, 0, 1),   # commenter
        "Both": (2, 2, 2),             # both1, both2
    }
    assert tuple(rows) == AUTHOR_CATEGORIES


def _activity_rows(dataset) -> dict[str, SimpleNamespace]:
    """The rows of ``author_activity_table``, each by its category, as
    records named by the columns of ``activity_table.csv``."""
    names = ("category", "authors", "authors_pct", "posts", "posts_pct", "comments",
             "comments_pct")
    return {row[0]: SimpleNamespace(**dict(zip(names, row)))
            for row in author_activity_table(dataset)}


def test_activity_table_two_pure_authors():
    d = make_dataset(
        [post_record("p1", author="poster")],
        [comment_record("c1", "t3_p1", "p1", author="commenter")],
    )
    rows = _activity_rows(d)
    assert rows["OnlyPosting"].authors_pct == 50.0
    assert rows["OnlyCommenting"].authors_pct == 50.0
    assert rows["OnlyCommenting"].posts_pct == 0.0
    assert rows["OnlyPosting"].comments_pct == 0.0


def test_activity_table_four_authors_hand_counted():
    # 2 authors doing both, 1 posting only, 1 commenting only.
    d = make_dataset(
        [post_record("p1", author="b1"), post_record("p2", author="b2"),
         post_record("p3", author="po")],
        [comment_record("c1", "t3_p1", "p1", author="b1"),
         comment_record("c2", "t3_p1", "p1", author="b2"),
         comment_record("c3", "t3_p2", "p2", author="co")],
    )
    rows = _activity_rows(d)
    assert rows["Both"].authors_pct == 50.0
    assert rows["OnlyPosting"].authors_pct == 25.0
    assert rows["OnlyCommenting"].authors_pct == 25.0
    assert sum(r.authors_pct for r in rows.values()) == pytest.approx(100.0)
    assert sum(r.posts_pct for r in rows.values()) == pytest.approx(100.0)
    assert sum(r.comments_pct for r in rows.values()) == pytest.approx(100.0)


def test_activity_table_empty_dataset_signals():
    with pytest.raises(DataError):
        author_activity_table(parse_dump([], []))


def test_response_time_simple():
    d = make_dataset([post_record("p1", created=900)],
                     [comment_record("c1", "t3_p1", "p1", created=1000)])
    assert response_time_table(d) == ([("c1", 100, 1)], 0)


def test_response_time_dangling_parent_undefined():
    d = make_dataset([post_record("p1")],
                     [comment_record("c1", "t1_gone", "p1", created=1000)])
    assert response_time_table(d) == ([], 0)


def test_response_time_chain():
    d = make_dataset(
        [post_record("p1", created=0)],
        [comment_record("c1", "t3_p1", "p1", created=50),
         comment_record("c2", "t1_c1", "p1", created=60)],
    )
    assert {cid: lapse for cid, lapse, _ in response_time_table(d)[0]}["c2"] == 10


def test_response_time_table_counts_anomalies():
    d = make_dataset(
        [post_record("p1", created=500)],
        [comment_record("c1", "t3_p1", "p1", created=600),
         comment_record("c2", "t3_p1", "p1", created=400),   # clock skew
         comment_record("c3", "t1_gone", "p1", created=700)],  # dangling
    )
    rows, anomalies = response_time_table(d)
    assert [r[0] for r in rows] == ["c1"]
    assert anomalies == 1
    resolved = int((d.comments.parent >= 0).sum())
    assert len(rows) + anomalies == resolved


def test_score_relations_max_comment_score():
    d = make_dataset(
        [post_record("p1", score=3)],
        [comment_record("c1", "t3_p1", "p1", score=1),
         comment_record("c2", "t3_p1", "p1", score=40),
         comment_record("c3", "t1_c1", "p1", score=2)],
    )
    pairs, fields = score_relations(d)
    assert pairs == [("p1", 3, 40)]
    assert fields["posts_without_comments"] == 0


def test_score_relations_no_comment_post_only_tallied():
    d = make_dataset([post_record("p1", score=5)], [])
    pairs, fields = score_relations(d)
    assert pairs == []
    assert fields["posts_without_comments"] == 1


def test_score_one_fractions_hand_counted():
    d = make_dataset(
        [post_record("p1", score=1), post_record("p2", score=1),
         post_record("p3", score=5)],
        [comment_record("c1", "t3_p1", "p1", score=1),
         comment_record("c2", "t3_p2", "p2", score=1),
         comment_record("c3", "t3_p3", "p3", score=1)],
    )
    _, fields = score_relations(d)
    assert fields["post_score_one_fraction"] == pytest.approx(2 / 3)
    assert fields["comment_score_one_fraction"] == 1.0


def test_dataset_roundtrip(tmp_path, two_posts_three_comments):
    path = tmp_path / "dataset.json"
    save_dataset(two_posts_three_comments, path)
    assert same_fields(load_dataset(path), two_posts_three_comments)


@st.composite
def dump_records(draw):
    """Posts and comments with sentinel authors, parents that dangle or
    carry an unknown prefix, roots outside the dump and repeated ids."""
    n_posts = draw(st.integers(1, 6))
    n_comments = draw(st.integers(0, 8))
    authors = ["a", "b", "c", "[deleted]"]
    posts = [post_record(f"p{i}", author=draw(st.sampled_from(authors)),
                         created=draw(st.integers(1, 10_000)),
                         score=draw(st.integers(-5, 50)))
             for i in range(n_posts)]
    comments = []
    for j in range(n_comments):
        root = draw(st.integers(0, n_posts))     # p{n_posts} is not in the dump
        kind = draw(st.sampled_from(["post", "comment", "missing", "unknown"]))
        if kind == "comment" and comments:
            parent = "t1_" + draw(st.sampled_from([c["id"] for c in comments]))
        elif kind == "missing":
            parent = "t1_gone"
        elif kind == "unknown":
            parent = f"t9_p{root}"
        else:
            parent = f"t3_p{root}"
        comments.append(comment_record(
            f"c{j}", parent, f"p{root}", author=draw(st.sampled_from(authors)),
            created=draw(st.integers(1, 10_000)), score=draw(st.integers(-5, 50))))
    # A repeated id: the first record of each id is kept.
    for records in (posts, comments):
        if records and draw(st.booleans()):
            records.append({**draw(st.sampled_from(records)), "score": 99})
    return posts, comments


def _expected_parent_rows(posts, comments) -> list[int]:
    """Each kept comment's parent row, resolved by hand from the records."""
    post_ids = sorted({p["id"] for p in posts})
    comment_ids = sorted({c["id"] for c in comments})
    first = {}
    for c in comments:
        first.setdefault(c["id"], c)
    rows = {"t3_" + i: n for n, i in enumerate(post_ids)}
    rows.update({"t1_" + i: len(post_ids) + n for n, i in enumerate(comment_ids)})
    return [rows.get(first[i]["parent_id"], -1) for i in comment_ids]


@settings(max_examples=30, deadline=None)
@given(dump_records())
def test_every_comment_resolved_xor_dangling_and_parse_idempotent(records):
    posts, comments = records
    d = make_dataset(posts, comments)
    assert d.comments.parent.tolist() == _expected_parent_rows(posts, comments)
    assert d.dangling_refs == sum(1 for row in d.comments.parent.tolist() if row < 0)
    assert same_fields(make_dataset(posts, comments), d)
    if d.authors:
        rows = _activity_rows(d).values()
        assert sum(r.authors for r in rows) == len(d.authors)
        if any(r.posts for r in rows):
            assert sum(r.posts_pct for r in rows) == pytest.approx(100.0, abs=0.01)


@settings(max_examples=40, deadline=None)
@given(dump_records())
def test_stats_tables_match_a_loop_over_the_records(records):
    """Response times and best comment scores, worked out record by record
    from the dump lines, as the per-record code did."""
    posts, comments = records
    d = make_dataset(posts, comments)
    # Built from the last record back, so the first record of an id wins.
    kept_posts = {p["id"]: p for p in reversed(posts)}
    kept_comments = {c["id"]: c for c in reversed(comments)}
    created = {"t3_" + i: p["created_utc"] for i, p in kept_posts.items()}
    created.update({"t1_" + i: c["created_utc"] for i, c in kept_comments.items()})
    rows, anomalies, best = [], 0, {}
    for cid in sorted(kept_comments):
        c = kept_comments[cid]
        if c["parent_id"] in created:
            lapse = c["created_utc"] - created[c["parent_id"]]
            if lapse < 0:
                anomalies += 1
            else:
                rows.append((cid, lapse, c["score"]))
        root = c["link_id"][3:]
        if root in kept_posts:
            best[root] = max(best.get(root, c["score"]), c["score"])
    assert response_time_table(d) == (rows, anomalies)
    assert score_relations(d)[0] == [
        (i, kept_posts[i]["score"], best[i]) for i in sorted(kept_posts) if i in best]


@settings(max_examples=40, deadline=None)
@given(records=dump_records())
def test_save_load_round_trips_the_columns(tmp_path_factory, records):
    """``dataset.json`` loads back to the dataset it was written from."""
    d = make_dataset(*records)
    path = tmp_path_factory.mktemp("dataset") / "dataset.json"
    save_dataset(d, path)
    assert same_fields(load_dataset(path), d)


@pytest.mark.parametrize("value", [
    "Infinity", "-Infinity", "NaN", '"1.5"', "1.5", str(2**63), str(-2**63 - 1),
    '"9223372036854775808"', "1e19", "true"])
def test_a_score_that_is_not_an_int64_is_a_parse_error(value):
    """Non-finite numbers, fractions (as numbers or strings) and values
    outside int64 are counted, never truncated or fatal."""
    line = json.dumps(post_record("p2")).replace('"score": 1', f'"score": {value}')
    d = parse_dump(jsonl([post_record("p1")]) + [line], [])
    assert d.parse_errors == 1 and d.posts.id == ["p1"]


@pytest.mark.parametrize("value, want", [
    ("7", 7), ('"7"', 7), ("7.0", 7), ('"7.0"', 7), (str(2**63 - 1), 2**63 - 1),
    (str(-2**63), -2**63)])
def test_an_integral_score_is_kept(value, want):
    line = json.dumps(post_record("p1")).replace('"score": 1', f'"score": {value}')
    assert parse_dump([line], []).posts.score.tolist() == [want]


@pytest.mark.parametrize("created, kept", [
    (1, True), (253402300799, True), (0, False), (253402300800, False), (10**12, False)])
def test_created_utc_runs_from_one_to_the_end_of_year_9999(created, kept):
    """A time after 9999-12-31T23:59:59Z has no calendar month, so it is
    counted as malformed at ingest."""
    d = parse_dump(jsonl([post_record("p1"), post_record("p2", created=created)]), [])
    assert d.posts.id == (["p1", "p2"] if kept else ["p1"])
    assert d.parse_errors == (0 if kept else 1)


# Values that are not int64 in every field, and values that the per-line
# parser takes or turns to str.
_ODD_VALUES = [True, False, None, [], {}, "", "abc", 1.5, "1.5", float("inf"),
               float("-inf"), float("nan"), 2**63, -2**63 - 1, "9223372036854775808",
               1e19, 0, -3, 7.0, "7", "7.0", " 7", "1_000", 2**63 - 1, -2**63,
               253402300799, 253402300800, 10**12, "a,b", "x\ny", "t3_p0", "t1_c0",
               "t9_p1", "t3_", "p0", "[deleted]"]
_BAD_LINES = ["{not json", '{"id": "p9"', "[1, 2]", '"text"', "42", "null", "NaN",
              '{"id": "x"} trailing', '{"id": "x"}{"id": "y"}', "\ufeff{}", "{}",
              "[" * 100_000]     # nested deeper than the interpreter's recursion limit


@st.composite
def hostile_dump(draw):
    """The lines of ``dump_records`` with records whose fields are odd or
    missing, lines that are not one JSON object, trailing data, blank lines,
    a record repeated before itself with an odd value or outside the
    window, and a window."""
    posts, comments = draw(dump_records())
    bound = st.one_of(st.none(), st.integers(0, 10_001))
    window = draw(st.one_of(st.none(), st.tuples(bound, bound)))
    streams = []
    for records in (posts, comments):
        lines = []
        for record in records:
            key = draw(st.sampled_from(sorted(record)))
            change = draw(st.integers(0, 9))
            if change == 0:        # a first record of the id that is not kept
                lines.append(json.dumps({**record, key: draw(st.sampled_from(_ODD_VALUES))}
                                        if draw(st.booleans())
                                        else {**record, "created_utc": 10_002}))
            if change == 1:
                record = {**record, key: draw(st.sampled_from(_ODD_VALUES))}
            elif change == 2:
                record = {k: v for k, v in record.items() if k != key}
            line = json.dumps(record)
            if change == 3:
                line += draw(st.sampled_from([" x", "]", "{}", ",", " 1"]))
            lines.append(line)
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(_BAD_LINES + ["", "  "])))
        streams.append(lines)
    return streams[0], streams[1], window


@settings(max_examples=300, deadline=None)
@given(hostile_dump())
def test_parse_dump_equals_the_per_line_parser(dump):
    """Checking whole columns gives the dataset and the tallies that
    checking one record at a time gives."""
    posts, comments, window = dump
    assert same_fields(parse_dump(posts, comments, window),
                       parse_dump_per_line(posts, comments, window))


# Two posts and two comments, as the columns of a valid dataset: comment
# c0 replies to post p0, c1 to comment c0, in the thread of p0.
_COLUMNS = {
    "posts": {"id": ["p0", "p1"], "author": ["a", "[deleted]"], "created_at": [1, 2],
              "score": [0, -5], "title": ["t", ""], "body": ["", "b"]},
    "comments": {"id": ["c0", "c1"], "author": ["a", "b"], "created_at": [3, 253402300799],
                 "score": [1, 2**63 - 1], "parent": [0, 2], "root": [0, 0]},
}


def _takes(table: str, column: str, value) -> bool:
    """Whether the dataset's rules take ``value`` as the first item of
    ``column`` of ``table`` in ``_COLUMNS``, in the dataset of two posts and
    four records: a first id must also sort before the second."""
    if column in ("title", "body"):
        return type(value) is str
    if column in ("id", "author"):
        return (type(value) is str and value != "" and not set(value) & set(",\n\r")
                and (column == "author" or value < _COLUMNS[table]["id"][1]))
    lo, hi = {"created_at": (1, 253402300799), "parent": (-1, 3),
              "root": (-1, 1)}.get(column, (-2**63, 2**63 - 1))
    return type(value) is int and lo <= value <= hi


def _build(columns: dict, parse_errors=0, duplicate_ids=0) -> Dataset:
    return Dataset(Posts(**columns["posts"]), Comments(**columns["comments"]),
                   parse_errors, duplicate_ids)


@pytest.mark.parametrize("table, column", [(table, column) for table in _COLUMNS
                                           for column in _COLUMNS[table]])
def test_the_types_refuse_exactly_what_the_column_rules_refuse(table, column):
    """Each odd value, and each row next to the ends of the parent and root
    ranges, put in each column, is a ValueError exactly where the column's
    rule refuses it; a value it takes builds the dataset."""
    for value in _ODD_VALUES + [-2, -1, 1, 2, 3, 4]:
        columns = {t: {c: list(cells) for c, cells in table_columns.items()}
                   for t, table_columns in _COLUMNS.items()}
        columns[table][column][0] = value
        if _takes(table, column, value):
            built = getattr(getattr(_build(columns), table), column)
            assert list(built) == columns[table][column], value
        else:
            with pytest.raises(ValueError):
                _build(columns)


@pytest.mark.parametrize("table, column", [(table, column) for table in _COLUMNS
                                           for column in _COLUMNS[table]])
@pytest.mark.parametrize("cells", [lambda c: c[:1], lambda c: c + c[:1], tuple, lambda c: None,
                                   lambda c: dict.fromkeys(c)],
                         ids=["short", "long", "tuple", "null", "object"])
def test_the_types_refuse_a_column_that_is_not_a_list_as_long_as_the_ids(table, column, cells):
    columns = {**_COLUMNS, table: {**_COLUMNS[table], column: cells(_COLUMNS[table][column])}}
    with pytest.raises(ValueError):
        _build(columns)


@pytest.mark.parametrize("tally", ["parse_errors", "duplicate_ids"])
def test_the_dataset_refuses_a_tally_that_is_not_a_count(tally):
    for value in _ODD_VALUES:
        if type(value) is int and value >= 0:
            assert getattr(_build(_COLUMNS, **{tally: value}), tally) == value
        else:
            with pytest.raises(ValueError):
                _build(_COLUMNS, **{tally: value})
