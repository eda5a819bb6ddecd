from __future__ import annotations

import dataclasses
import random
from collections import defaultdict
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumpulse import interaction
from forumpulse.errors import DataError
from forumpulse.fileio import StageContext, write_text
from forumpulse.fixture import generate_fixture
from forumpulse.ingest import SENTINEL_AUTHORS, parse_dump
from forumpulse.interaction import (InteractionGraph, build_graph, compute_user_metrics,
                                    dot_text, edges_text, graph_stage, graphml_text,
                                    load_graph, load_user_metrics, metrics_stage,
                                    top_influencers_subgraph, topic_spread, user_classes)

from conftest import (FIXTURE_DIR, assignment_of, comment_record, comment_views,
                      edge_tuples, edges_per_comment, graph_from_edges, graph_of,
                      make_dataset, metric_rows, post_record, same_graph, subgraph_per_edge)


def _assignment(pairs: dict[str, set[int]], k: int):
    ids = sorted(pairs)
    return assignment_of([pairs[i] for i in ids], k, ids)


@pytest.mark.parametrize("users", [40, 1])
def test_load_graph_reads_back_build_graph(tmp_path, users):
    """edges.csv parses back to the graph it was written from, on the
    shipped fixture and on a single-user dump, whose graph has no edge."""
    if users == 40:
        posts, comments = FIXTURE_DIR / "posts.jsonl", FIXTURE_DIR / "comments.jsonl"
    else:
        posts, comments = generate_fixture(seed=3, n_posts=10, n_users=1, k_true=2,
                                           out_dir=tmp_path)
    with posts.open() as ps, comments.open() as cs:
        graph = build_graph(parse_dump(ps, cs))
    assert (len(graph.weight) == 0) == (users == 1)
    write_text(tmp_path / "edges.csv", edges_text(graph))
    assert same_graph(load_graph(tmp_path / "edges.csv"), graph)


def hand_fixture():
    """4 users, 7 comments; the seventh is a self-reply and makes no edge.

    Hand-drawn edges: u2->u1 w2, u3->u1 w1, u3->u2 w1, u1->u3 w1, u4->u1 w1.
    """
    posts = [post_record("p1", author="u1", created=100),
             post_record("p2", author="u2", created=110)]
    comments = [
        comment_record("c1", "t3_p1", "p1", author="u2", created=200),
        comment_record("c2", "t3_p1", "p1", author="u3", created=210),
        comment_record("c3", "t1_c1", "p1", author="u3", created=220),
        comment_record("c4", "t1_c3", "p1", author="u1", created=230),
        comment_record("c5", "t3_p1", "p1", author="u2", created=240),
        comment_record("c6", "t1_c4", "p1", author="u4", created=250),
        comment_record("c7", "t3_p1", "p1", author="u1", created=260),  # self
    ]
    return make_dataset(posts, comments)


def test_hand_fixture_graph_exact():
    graph = build_graph(hand_fixture())
    assert graph.nodes == ("u1", "u2", "u3", "u4")
    assert edge_tuples(graph) == (
        ("u1", "u3", 1), ("u2", "u1", 2), ("u3", "u1", 1),
        ("u3", "u2", 1), ("u4", "u1", 1),
    )
    assert graph.out_degree.tolist() == [1, 1, 2, 1]
    assert graph.in_degree.tolist() == [3, 1, 1, 0]
    # 7 comments, 1 self-reply: total edge weight equals the other 6.
    assert graph.weight.sum() == 6


def test_weight_vs_degree_distinction():
    d = make_dataset(
        [post_record("p1", author="bb")],
        [comment_record("c1", "t3_p1", "p1", author="aa"),
         comment_record("c2", "t3_p1", "p1", author="aa")],
    )
    graph = build_graph(d)
    assert edge_tuples(graph) == (("aa", "bb", 2),)
    assert graph.out_degree.tolist() == [1, 0]


def test_self_reply_makes_no_edge():
    d = make_dataset([post_record("p1", author="aa")],
                     [comment_record("c1", "t3_p1", "p1", author="aa")])
    graph = build_graph(d)
    assert graph.nodes == () and edge_tuples(graph) == ()


def test_dangling_and_sentinel_parents_skipped():
    d = make_dataset(
        [post_record("p1", author="[deleted]"), post_record("p2", author="bb")],
        [comment_record("c1", "t3_p1", "p1", author="aa"),      # sentinel target
         comment_record("c2", "t1_gone", "p2", author="aa"),    # dangling
         comment_record("c3", "t3_p2", "p2", author="[removed]"),  # sentinel source
         comment_record("c4", "t3_p2", "p2", author="aa")],
    )
    graph = build_graph(d)
    assert edge_tuples(graph) == (("aa", "bb", 1),)


def test_user_classes_star():
    d = make_dataset(
        [post_record("p1", author="hub")],
        [comment_record(f"c{i}", "t3_p1", "p1", author=f"s{i}", created=200 + i)
         for i in range(3)],
    )
    classes = user_classes(build_graph(d))
    assert classes["nodes"] == 4
    assert classes["passive"] == 1              # the hub never replies
    assert classes["passive_pct"] == pytest.approx(25.0)
    assert classes["unanswered"] == 3           # spokes get no replies
    assert classes["unanswered_pct"] == pytest.approx(75.0)


def test_user_classes_everyone_active():
    d = make_dataset(
        [post_record("p1", author="aa"), post_record("p2", author="bb")],
        [comment_record("c1", "t3_p1", "p1", author="bb"),
         comment_record("c2", "t3_p2", "p2", author="aa")],
    )
    classes = user_classes(build_graph(d))
    assert classes["passive"] == 0


def _comments_on(posts_by_user: list[str]) -> list:
    return [comment_record(f"c{i}", f"t3_{p}", p, author="me", created=100 + i)
            for i, p in enumerate(posts_by_user)]


def _my_tau(posts_by_user: list[str], pairs: dict[str, set[int]], k: int) -> float:
    """The tau of "me", who comments on ``posts_by_user`` in turn."""
    d = make_dataset([post_record(p) for p in sorted(pairs)], _comments_on(posts_by_user))
    return topic_spread(d, _assignment(pairs, k))[d.authors.index("me")]


def test_topic_spread_single_topic_is_one():
    assert _my_tau(["p1", "p2", "p1"], {"p1": {0}, "p2": {0}}, k=2) == 1.0


def test_topic_spread_even_two_way_split_is_eight():
    assert _my_tau(["p1", "p2", "p1", "p2"], {"p1": {0}, "p2": {1}}, k=2) == 8.0


def test_topic_spread_three_way_split_is_twenty_seven():
    tau = _my_tau(["p1", "p2", "p3"], {"p1": {0}, "p2": {1}, "p3": {2}}, k=3)
    assert tau == pytest.approx(27.0, rel=1e-12)


def test_topic_spread_multi_dominant_fractional_credit():
    # One comment on a post with two dominant topics: each gets credit 1/2.
    assert _my_tau(["p1"], {"p1": {0, 1}}, k=2) == 8.0


def test_topic_spread_undefined_when_no_dominant_roots():
    assignment = _assignment({"p1": set()}, k=2)
    d = make_dataset([post_record("p1")], _comments_on(["p1"]))
    tau = topic_spread(d, assignment)
    assert len(tau) == len(d.authors) and np.isnan(tau).all()


def test_reach_values():
    """R is the distinct users replied to per comment; a user who never
    comments has no row."""
    d = make_dataset(
        [post_record(f"p{i}", author=f"op{i}", created=50 + i) for i in range(5)],
        [comment_record(f"a{i}", f"t3_p{i}", f"p{i}", author="all5") for i in range(5)]
        + [comment_record(f"b{i}", "t3_p0", "p0", author="one") for i in range(4)])
    metrics = compute_user_metrics(d, build_graph(d))
    by_user = metric_rows(metrics)
    assert by_user["all5"].reach == 1.0
    assert by_user["one"].reach == 0.25
    assert metrics.users == ["all5", "one"]


def test_compute_user_metrics_fills_alpha_and_influence():
    d = hand_fixture()
    graph = build_graph(d)
    by_user = metric_rows(compute_user_metrics(d, graph))
    # C: u1=2 (c4 + self-reply c7), u2=2, u3=2, u4=1; max C = 2.
    assert all(m.tau is None for m in by_user.values())    # no assignment: NaN
    assert by_user["u1"].comment_count == 2
    assert by_user["u1"].reach == 0.5
    assert by_user["u1"].alpha == 1.0
    assert by_user["u1"].influence == 0.5
    assert by_user["u3"].reach == 1.0
    assert by_user["u3"].influence == 1.0
    assert by_user["u4"].alpha == 0.5
    assert by_user["u4"].influence == 0.5


def test_no_scorable_commenters_is_a_data_error():
    d = make_dataset([post_record("p1")],
                     [comment_record("c1", "t3_p1", "p1", author="[deleted]")])
    with pytest.raises(DataError, match="no commenters"):
        compute_user_metrics(d, build_graph(d))


def test_half_max_commenter_influence():
    d = make_dataset(
        [post_record(f"p{i}", author=f"op{i}", created=50 + i) for i in range(5)],
        # "big" makes 4 comments to 4 distinct users; "small" 2 comments,
        # but only to 1 distinct user plus a dangling one: R = 0.5.
        [comment_record("c0", "t3_p0", "p0", author="big"),
         comment_record("c1", "t3_p1", "p1", author="big"),
         comment_record("c2", "t3_p2", "p2", author="big"),
         comment_record("c3", "t3_p3", "p3", author="big"),
         comment_record("c4", "t3_p4", "p4", author="small"),
         comment_record("c5", "t1_gone", "p4", author="small")],
    )
    by_user = metric_rows(compute_user_metrics(d, build_graph(d)))
    assert by_user["big"].influence == 1.0
    assert by_user["small"].alpha == 0.5
    assert by_user["small"].reach == 0.5
    assert by_user["small"].influence == 0.25


def test_all_identical_users_all_influence_one():
    d = make_dataset(
        [post_record("p1", author="x1"), post_record("p2", author="x2")],
        [comment_record("c1", "t3_p2", "p2", author="x1"),
         comment_record("c2", "t3_p1", "p1", author="x2")],
    )
    metrics = compute_user_metrics(d, build_graph(d))
    assert all(m.influence == 1.0 for m in metric_rows(metrics).values())


def test_spread_influence_rows_contract(tmp_path):
    """spread_influence.csv has a row per commenter in name order, each
    with its influence and log10 C."""
    d = hand_fixture()
    graph_stage(StageContext({"dominance.csv": None}, {}, tmp_path,
                             parsed={"dataset.json": d}))
    lines = (tmp_path / "spread_influence.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "user,tau,influence,log10_comments,log10_agg_score"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["u1", "u2", "u3", "u4"]
    for _, tau, influence, log_c, log_score in rows:
        assert influence != "" and log_c != ""


def _dataset_with_comment_counts(counts: dict[str, int], factor: int = 1):
    posts = [post_record("p1", author="op")]
    comments = []
    for user, n in counts.items():
        for j in range(n * factor):
            comments.append(comment_record(
                f"c_{user}_{j}", "t3_p1", "p1", author=user, created=200 + j))
    return make_dataset(posts, comments)


def test_alpha_ranking_invariant_under_comment_scaling():
    counts = {"ann": 3, "bob": 7, "cat": 1, "dee": 7, "eve": 2}
    base = compute_user_metrics(
        d := _dataset_with_comment_counts(counts), build_graph(d))
    tripled = compute_user_metrics(
        d3 := _dataset_with_comment_counts(counts, factor=3), build_graph(d3))
    rank = lambda ms: [m.user for m in
                       sorted(metric_rows(ms).values(), key=lambda m: (-m.alpha, m.user))]
    assert rank(base) == rank(tripled)


def _selected(metrics, ranked) -> tuple[str, ...]:
    """The names of the ``ranked`` rows of ``metrics``."""
    assert ranked.dtype == np.int64 and not ranked.flags.writeable
    return tuple(metrics.users[i] for i in ranked.tolist())


def test_top_influencers_star_egonet():
    d = make_dataset(
        [post_record("p1", author="hub")] +
        [post_record(f"q{i}", author=f"s{i}", created=60 + i) for i in range(3)],
        # Hub replies once to every spoke: hub has the top influence.
        [comment_record(f"h{i}", f"t3_q{i}", f"q{i}", author="hub", created=100 + i)
         for i in range(3)] +
        [comment_record("cx", "t3_p1", "p1", author="s0", created=300)],
    )
    graph = build_graph(d)
    metrics = compute_user_metrics(d, graph)
    sub, ranked = top_influencers_subgraph(graph, metrics, 1)
    assert _selected(metrics, ranked) == ("hub",)
    assert set(sub.nodes) == {"hub", "s0", "s1", "s2"}
    assert set(edge_tuples(sub)) == set(edge_tuples(graph))


def test_top_influencers_k_larger_than_population():
    d = hand_fixture()
    graph = build_graph(d)
    metrics = compute_user_metrics(d, graph)
    sub, ranked = top_influencers_subgraph(graph, metrics, 99)
    assert set(_selected(metrics, ranked)) == {"u1", "u2", "u3", "u4"}
    assert edge_tuples(sub) == edge_tuples(graph)


def test_top_influencers_ranking_ties():
    d = hand_fixture()
    graph = build_graph(d)
    metrics = compute_user_metrics(d, graph)
    ranked = top_influencers_subgraph(graph, metrics, 2)[1]
    # I: u3=1.0; u1=u4=0.5 tie broken by C (u1 has 2 > 1), then id.
    assert _selected(metrics, ranked) == ("u3", "u1")


def test_metric_bounds_and_weight_invariant():
    d = hand_fixture()
    graph = build_graph(d)
    metrics = compute_user_metrics(d, graph)
    resolved_non_self = sum(
        1 for c in comment_views(d) if c.parent_author not in (None, c.author))
    edges = edge_tuples(graph)
    assert sum(w for _, _, w in edges) == resolved_non_self
    for m in metric_rows(metrics).values():
        assert 0.0 <= m.reach <= 1.0
        assert 0.0 < m.alpha <= 1.0
        assert 0.0 <= m.influence <= min(m.alpha, m.reach)
        assert m.out_degree <= sum(w for s, _, w in edges if s == m.user)


def brute_force_metrics(dataset, dominant_by_post):
    """Naive reference: direct loops, no shared code with the library."""
    comments = [c for c in comment_views(dataset)
                if c.author not in ("[deleted]", "[removed]")]
    scores = dict(zip(dataset.comments.id, dataset.comments.score.tolist()))
    users = sorted({c.author for c in comments})
    result = {}
    for user in users:
        mine = [c for c in comments if c.author == user]
        c_total = len(mine)
        targets = set()
        for c in mine:
            if c.parent_author is None:
                continue
            if c.parent_author in ("[deleted]", "[removed]") or c.parent_author == user:
                continue
            targets.add(c.parent_author)
        repliers = {c.author for c in comments if c.parent_author == user != c.author}
        counted = [c for c in mine if dominant_by_post.get(c.root_post_id)]
        tau = None
        if counted:
            share = defaultdict(float)
            for c in counted:
                topics = dominant_by_post[c.root_post_id]
                for t in topics:
                    share[t] += 1.0 / len(topics)
            # tau adds the fractions' terms left to right in ascending topic
            # order by definition, one float addition at a time.
            fractions = {t: v / len(counted) for t, v in sorted(share.items())}
            tau = 0.0
            for s in fractions.values():
                if s > 0:
                    tau += 1.0 / (s * s)
        result[user] = {"C": c_total, "out": len(targets), "in": len(repliers), "tau": tau,
                        "score": sum(scores[c.id] for c in mine)}
    max_c = max(v["C"] for v in result.values())
    for v in result.values():
        v["alpha"] = v["C"] / max_c
        v["R"] = v["out"] / v["C"]
        v["I"] = v["alpha"] * v["R"]
    return result


def test_fifty_user_fixture_matches_bruteforce():
    rng = random.Random(2024)
    users = [f"w{i:02d}" for i in range(50)]
    posts = [post_record(f"p{i:02d}", author=rng.choice(users), created=100 + i)
             for i in range(30)]
    comments = []
    for j in range(400):
        target_post = rng.choice(posts)
        if comments and rng.random() < 0.35:
            parent = rng.choice(comments)
            parent_ref, root = "t1_" + parent["id"], parent["link_id"][3:]
        else:
            parent_ref, root = "t3_" + target_post["id"], target_post["id"]
        if rng.random() < 0.03:
            parent_ref = "t1_nope"   # some dangling refs
        comments.append(comment_record(
            f"c{j:03d}", parent_ref, root, author=rng.choice(users),
            created=200 + j, score=rng.randrange(-2, 9)))
    d = make_dataset(posts, comments)

    k = 3
    dominant_by_post = {p: frozenset(
        t for t in range(k) if rng.random() < 0.4) for p in d.posts.id}
    assignment = _assignment(dominant_by_post, k)

    graph = build_graph(d)
    metrics = compute_user_metrics(d, graph, assignment)
    oracle = brute_force_metrics(d, dominant_by_post)

    assert metrics.users == list(oracle)
    for m in metric_rows(metrics).values():
        want = oracle[m.user]
        assert m.comment_count == want["C"]
        assert m.out_degree == want["out"]
        assert m.alpha == want["alpha"]
        assert m.reach == want["R"]
        assert m.influence == want["I"]
        if want["tau"] is None:
            assert m.tau is None
        else:
            assert m.tau == want["tau"]


def test_graphml_and_dot_exports():
    graph = build_graph(hand_fixture())
    gml = graphml_text(graph)
    assert gml.startswith('<?xml version="1.0"')
    assert '<node id="u1"/>' in gml
    assert '<edge source="u2" target="u1"><data key="weight">2</data></edge>' in gml
    dot = dot_text(graph)
    assert dot.splitlines()[0] == "digraph interactions {"
    assert '  "u2" -> "u1" [weight=2];' in dot
    assert dot.rstrip().endswith("}")


@given(st.text(alphabet=st.sampled_from("ab &<>\"'\n\r\t\u00e9;#")) | st.text())
def test_quoteattr_follows_the_standard_library(text):
    assert interaction._quoteattr(text) == quoteattr(text)


def test_dot_escapes_quotes():
    text = dot_text(InteractionGraph(('we"ird',), [0], [0], [1]))
    assert '\\"' in text


# "" too: ingest counts a record whose author is the empty string as a
# parse error.
_USERS = st.sampled_from(["ann", "bob", "cy", "dee", "[deleted]", "[removed]", "é z", ""])


@st.composite
def reply_dumps(draw):
    """A dataset of up to 6 posts and 40 comments by a few users, sentinels
    included, whose comments reply to posts, to earlier or later comments,
    to themselves or to nothing that is there, with scores of either sign."""
    posts = [post_record(f"p{i}", author=draw(_USERS), created=100 + i)
             for i in range(draw(st.integers(1, 6)))]
    n = draw(st.integers(0, 40))
    comments = []
    for j in range(n):
        root = draw(st.sampled_from(posts))["id"]
        parent = draw(st.one_of(st.just(f"t3_{root}"), st.just("t1_gone"),
                                st.integers(0, max(n - 1, 0)).map(lambda i: f"t1_c{i:02d}")))
        comments.append(comment_record(f"c{j:02d}", parent, root, author=draw(_USERS),
                                       created=200 + j, score=draw(st.integers(-3, 9))))
    return make_dataset(posts, comments)


@settings(max_examples=150, deadline=None)
@given(dataset=reply_dumps(), k=st.integers(1, 4), data=st.data())
def test_metric_columns_equal_the_brute_force_oracle(dataset, k, data):
    """Every column of every commenter's row equals ``brute_force_metrics``
    to the bit, tau NaN where the oracle has None, with posts of no, one or
    several dominant topics and a dominance that may leave a post out."""
    sets = st.frozensets(st.integers(0, k - 1))
    dominant_by_post = {p: data.draw(sets) for p in dataset.posts.id
                        if data.draw(st.booleans()) or p == dataset.posts.id[0]}
    try:
        metrics = compute_user_metrics(dataset, build_graph(dataset),
                                       _assignment(dominant_by_post, k))
    except DataError:       # no commenter
        assert all(c.author in SENTINEL_AUTHORS for c in comment_views(dataset))
        return
    oracle = brute_force_metrics(dataset, dominant_by_post)
    assert metrics.users == list(oracle)
    assert [m.tau is None for m in metric_rows(metrics).values()] \
        == np.isnan(metrics.tau).tolist()
    for m in metric_rows(metrics).values():
        want = oracle[m.user]
        assert (m.comment_count, m.out_degree, m.in_degree, m.aggregate_comment_score) \
            == (want["C"], want["out"], want["in"], want["score"])
        assert [repr(x) for x in (m.tau, m.reach, m.alpha, m.influence)] \
            == [repr(want[key]) for key in ("tau", "R", "alpha", "I")]
    for name in ("comment_count", "out_degree", "in_degree", "tau", "reach", "alpha",
                 "influence"):
        assert not getattr(metrics, name).flags.writeable


@settings(max_examples=100, deadline=None)
@given(dataset=reply_dumps(), k=st.integers(1, 4), top_k=st.integers(1, 8), data=st.data())
def test_metrics_stage_ranks_the_graph_stage_files_as_its_objects(tmp_path_factory, dataset,
                                                                   k, top_k, data):
    """The user_metrics.csv and edges.csv that graph_stage writes load back
    to the objects it hands on, column for column and bit for bit, and
    metrics_stage writes the same bytes from the files as from the objects."""
    sets = st.frozensets(st.integers(0, k - 1))
    assignment = _assignment({p: data.draw(sets) for p in dataset.posts.id}, k)
    out = tmp_path_factory.mktemp("stages")
    ctx = StageContext({}, {}, out, parsed={"dataset.json": dataset, "dominance.csv": assignment})
    try:
        graph_stage(ctx)
    except DataError:       # no commenter
        assert all(c.author in SENTINEL_AUTHORS for c in comment_views(dataset))
        return
    metrics = ctx.parsed["user_metrics.csv"]
    loaded = load_user_metrics(out / "user_metrics.csv")
    for f in dataclasses.fields(metrics):
        handed, read = getattr(metrics, f.name), getattr(loaded, f.name)
        if isinstance(handed, np.ndarray):
            assert (read.dtype, read.flags.writeable, read.tobytes()) \
                == (handed.dtype, False, handed.tobytes()), f.name
        else:
            assert type(read) is type(handed) and read == handed, f.name
    assert same_graph(load_graph(out / "edges.csv"), ctx.parsed["edges.csv"])
    files = {name: out / name for name in ("user_metrics.csv", "edges.csv")}
    metrics_stage(StageContext({}, {"graph.top_k": top_k}, out / "objects",
                               parsed={name: ctx.parsed[name] for name in files}))
    metrics_stage(StageContext(files, {"graph.top_k": top_k}, out / "files"))
    for name in ("top_influencers.csv", "influencer_subgraph.graphml"):
        assert (out / "objects" / name).read_bytes() == (out / "files" / name).read_bytes()


@settings(max_examples=120, deadline=None)
@given(dataset=reply_dumps(), top_k=st.integers(1, 8))
def test_graph_columns_equal_the_per_edge_oracles(tmp_path_factory, dataset, top_k):
    """build_graph, its edges.csv read back, the degrees, the user classes
    and the top influencers' subgraph equal the tuple, Counter and per-edge
    loop code they replaced."""
    graph = build_graph(dataset)
    edges = edges_per_comment(dataset)
    nodes, out_degree, in_degree = graph_from_edges(edges)
    assert graph.nodes == nodes and edge_tuples(graph) == edges
    assert dict(zip(nodes, graph.out_degree.tolist())) == out_degree
    assert dict(zip(nodes, graph.in_degree.tolist())) == in_degree
    path = tmp_path_factory.mktemp("graph") / "edges.csv"
    write_text(path, edges_text(graph))
    assert same_graph(load_graph(path), graph)
    classes = user_classes(graph)
    assert (classes["nodes"], classes["passive"], classes["unanswered"]) == (
        len(nodes), sum(1 for n in nodes if out_degree[n] == 0),
        sum(1 for n in nodes if in_degree[n] == 0))
    try:
        metrics = compute_user_metrics(dataset, graph)
    except DataError:       # no commenter
        return
    assert all((m.out_degree, m.in_degree) == (out_degree.get(m.user, 0),
                                               in_degree.get(m.user, 0))
               for m in metric_rows(metrics).values())
    sub, ranked = top_influencers_subgraph(graph, metrics, top_k)
    selected = _selected(metrics, ranked)
    assert (sub.nodes, edge_tuples(sub)) == subgraph_per_edge(edges, selected)
    ranked = sorted(metric_rows(metrics).values(),
                    key=lambda m: (-m.influence, -m.comment_count, m.user))
    assert selected == tuple(m.user for m in ranked[:top_k])


def test_graph_of_another_dataset_is_a_data_error():
    """A graph node that is not an author of the dataset is named."""
    d = hand_fixture()
    stranger = graph_of(("u1", "zed"), [("zed", "u1", 1)])
    with pytest.raises(DataError, match="author 'zed' not present in dataset"):
        compute_user_metrics(d, stranger)


def test_graph_columns_are_read_only():
    graph = build_graph(hand_fixture())
    for column in (graph.source, graph.target, graph.weight):
        assert column.dtype == np.int64 and not column.flags.writeable
