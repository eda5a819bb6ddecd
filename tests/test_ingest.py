from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumpulse.errors import DataError
from forumpulse.ingest import (AuthorCategory, author_activity_table,
                               load_dataset, parse_dump, response_time,
                               response_time_table, save_dataset,
                               score_relations)

from conftest import comment_record, jsonl, make_dataset, post_record


def test_parse_small_fixture_resolves_chain(two_posts_three_comments):
    d = two_posts_three_comments
    assert len(d.posts) == 2
    assert len(d.comments) == 3
    assert d.dangling_refs == 0
    c2 = d.comment_by_id["c2"]
    assert not c2.parent_dangling
    assert d.resolve_parent(c2).id == "c1"
    assert d.resolve_parent(d.comment_by_id["c1"]).id == "p1"


def test_parse_empty_streams():
    d = parse_dump([], [])
    assert d.posts == () and d.comments == () and d.authors == ()
    assert d.parse_errors == 0


def test_dangling_parent_counted_and_comment_retained():
    d = make_dataset(
        [post_record("p1")],
        [comment_record("c1", "t1_missing", "p1")],
    )
    assert d.dangling_refs == 1
    assert len(d.comments) == 1
    assert d.comments[0].parent_dangling
    assert not d.comments[0].root_dangling


def test_malformed_lines_skipped_and_counted():
    posts = jsonl([post_record("p1")]) + ["{not json", json.dumps({"id": "p2"})]
    comments = jsonl([comment_record("c1", "t3_p1", "p1")]) + ['["array"]']
    d = parse_dump(posts, comments)
    assert d.parse_errors == 3
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
    assert [p.id for p in d.posts] == ["p1"] and [c.id for c in d.comments] == ["c1"]


def test_duplicate_ids_first_wins():
    posts = jsonl([
        post_record("p1", title="first"),
        post_record("p1", title="second"),
    ])
    d = parse_dump(posts, [])
    assert d.duplicate_ids == 1
    assert d.posts[0].title == "first"


def test_time_window_is_closed_interval():
    posts = [post_record("p1", created=100), post_record("p2", created=200),
             post_record("p3", created=300)]
    d = make_dataset(posts, [], window=(100, 200))
    assert [p.id for p in d.posts] == ["p1", "p2"]


def test_sentinel_authors_excluded_from_author_table_but_content_kept():
    d = make_dataset(
        [post_record("p1", author="[deleted]"), post_record("p2", author="alice")],
        [comment_record("c1", "t3_p1", "p1", author="[removed]")],
    )
    assert len(d.posts) == 2 and len(d.comments) == 1
    assert [a.author for a in d.authors] == ["alice"]


def test_parse_is_idempotent():
    posts = jsonl([post_record("p2", created=50), post_record("p1", created=99)])
    comments = jsonl([comment_record("c1", "t3_p1", "p1")])
    assert parse_dump(posts, comments) == parse_dump(posts, comments)


def test_author_categories():
    d = make_dataset(
        [post_record("p1", author="poster"), post_record("p2", author="both1"),
         post_record("p3", author="both2")],
        [comment_record("c1", "t3_p1", "p1", author="commenter"),
         comment_record("c2", "t3_p1", "p1", author="both1"),
         comment_record("c3", "t3_p2", "p2", author="both2")],
    )
    categories = {a.author: a.category for a in d.authors}
    assert categories == {
        "poster": AuthorCategory.ONLY_POSTING,
        "commenter": AuthorCategory.ONLY_COMMENTING,
        "both1": AuthorCategory.BOTH,
        "both2": AuthorCategory.BOTH,
    }


def test_activity_table_two_pure_authors():
    d = make_dataset(
        [post_record("p1", author="poster")],
        [comment_record("c1", "t3_p1", "p1", author="commenter")],
    )
    rows = {r.category: r for r in author_activity_table(d)}
    assert rows[AuthorCategory.ONLY_POSTING].authors_pct == 50.0
    assert rows[AuthorCategory.ONLY_COMMENTING].authors_pct == 50.0
    assert rows[AuthorCategory.ONLY_COMMENTING].posts_pct == 0.0
    assert rows[AuthorCategory.ONLY_POSTING].comments_pct == 0.0


def test_activity_table_four_authors_hand_counted():
    # 2 authors doing both, 1 posting only, 1 commenting only.
    d = make_dataset(
        [post_record("p1", author="b1"), post_record("p2", author="b2"),
         post_record("p3", author="po")],
        [comment_record("c1", "t3_p1", "p1", author="b1"),
         comment_record("c2", "t3_p1", "p1", author="b2"),
         comment_record("c3", "t3_p2", "p2", author="co")],
    )
    rows = {r.category: r for r in author_activity_table(d)}
    assert rows[AuthorCategory.BOTH].authors_pct == 50.0
    assert rows[AuthorCategory.ONLY_POSTING].authors_pct == 25.0
    assert rows[AuthorCategory.ONLY_COMMENTING].authors_pct == 25.0
    assert sum(r.authors_pct for r in rows.values()) == pytest.approx(100.0)
    assert sum(r.posts_pct for r in rows.values()) == pytest.approx(100.0)
    assert sum(r.comments_pct for r in rows.values()) == pytest.approx(100.0)


def test_activity_table_empty_dataset_signals():
    with pytest.raises(DataError):
        author_activity_table(parse_dump([], []))


def test_response_time_simple():
    d = make_dataset([post_record("p1", created=900)],
                     [comment_record("c1", "t3_p1", "p1", created=1000)])
    assert response_time(d.comment_by_id["c1"], d) == 100


def test_response_time_dangling_parent_undefined():
    d = make_dataset([post_record("p1")],
                     [comment_record("c1", "t1_gone", "p1", created=1000)])
    assert response_time(d.comment_by_id["c1"], d) is None


def test_response_time_chain():
    d = make_dataset(
        [post_record("p1", created=0)],
        [comment_record("c1", "t3_p1", "p1", created=50),
         comment_record("c2", "t1_c1", "p1", created=60)],
    )
    assert response_time(d.comment_by_id["c2"], d) == 10


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
    resolved = sum(1 for c in d.comments if not c.parent_dangling)
    assert len(rows) + anomalies == resolved


def test_score_relations_max_comment_score():
    d = make_dataset(
        [post_record("p1", score=3)],
        [comment_record("c1", "t3_p1", "p1", score=1),
         comment_record("c2", "t3_p1", "p1", score=40),
         comment_record("c3", "t1_c1", "p1", score=2)],
    )
    rel = score_relations(d)
    assert rel.pairs == (("p1", 3, 40),)
    assert rel.no_comment_posts == 0


def test_score_relations_no_comment_post_only_tallied():
    d = make_dataset([post_record("p1", score=5)], [])
    rel = score_relations(d)
    assert rel.pairs == ()
    assert rel.no_comment_posts == 1


def test_score_one_fractions_hand_counted():
    d = make_dataset(
        [post_record("p1", score=1), post_record("p2", score=1),
         post_record("p3", score=5)],
        [comment_record("c1", "t3_p1", "p1", score=1),
         comment_record("c2", "t3_p2", "p2", score=1),
         comment_record("c3", "t3_p3", "p3", score=1)],
    )
    rel = score_relations(d)
    assert rel.post_score_one_fraction == pytest.approx(2 / 3)
    assert rel.comment_score_one_fraction == 1.0


def test_dataset_roundtrip(tmp_path, two_posts_three_comments):
    path = tmp_path / "dataset.json"
    save_dataset(two_posts_three_comments, path)
    assert load_dataset(path) == two_posts_three_comments


@st.composite
def dump_records(draw):
    n_posts = draw(st.integers(1, 6))
    n_comments = draw(st.integers(0, 8))
    authors = ["a", "b", "c", "[deleted]"]
    posts = [post_record(f"p{i}", author=draw(st.sampled_from(authors)),
                         created=draw(st.integers(1, 10_000)),
                         score=draw(st.integers(-5, 50)))
             for i in range(n_posts)]
    comments = []
    for j in range(n_comments):
        root = draw(st.integers(0, n_posts - 1))
        if comments and draw(st.booleans()):
            parent = "t1_" + draw(st.sampled_from([c["id"] for c in comments]))
        else:
            parent = f"t3_p{root}"
        comments.append(comment_record(
            f"c{j}", parent, f"p{root}", author=draw(st.sampled_from(authors)),
            created=draw(st.integers(1, 10_000)), score=draw(st.integers(-5, 50))))
    return posts, comments


@settings(max_examples=30, deadline=None)
@given(dump_records())
def test_every_comment_resolved_xor_dangling_and_parse_idempotent(records):
    posts, comments = records
    d = make_dataset(posts, comments)
    for comment in d.comments:
        resolved = d.resolve_parent(comment)
        assert (resolved is None) == comment.parent_dangling
    assert d.dangling_refs == sum(1 for c in d.comments if c.parent_dangling)
    assert make_dataset(posts, comments) == d
    if d.authors:
        rows = author_activity_table(d)
        assert sum(r.authors for r in rows) == len(d.authors)
        if any(r.posts for r in rows):
            assert sum(r.posts_pct for r in rows) == pytest.approx(100.0, abs=0.01)
