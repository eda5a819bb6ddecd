"""Each benchmark check passes on real artifacts and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench

A small dump is generated and run through `forumpulse run` once per
session; every test then corrupts one artifact in a copy of it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import gen_dump

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


TOP_K = 5


@pytest.fixture(scope="session")
def source(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("bench")
    gen_dump.write_dump(base, seed=11, n_posts=150, n_users=40, k_true=3)
    (base / "config.json").write_text(json.dumps({
        "posts": "posts.jsonl", "comments": "comments.jsonl", "seed": 11,
        "corpus.min_df": 3, "corpus.phrase_min_count": 5,
        "lda.k_min": 2, "lda.k_max": 4, "lda.iterations": 30, "lda.burn_in": 10,
        "graph.top_k": TOP_K,
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "forumpulse.cli", "run",
                    "--config", str(base / "config.json"),
                    "--out-dir", str(base / "artifacts")],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return base


@pytest.fixture
def run(source, tmp_path) -> Path:
    shutil.copytree(source, tmp_path / "run")
    return tmp_path / "run"


def _edit_csv(path: Path, edit) -> None:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def test_all_checks_pass_on_real_artifacts(run):
    art = run / "artifacts"
    w_k = checks.check_run(art, run / "posts.jsonl", run / "comments.jsonl", TOP_K)
    assert w_k == int(next(r["w_k"] for r in checks._rows(art / "skewness_scan.csv")
                           if r["selected"] == "1"))
    checks.check_same_artifacts(checks.artifact_digests(art),
                                checks.artifact_digests(art), "self")


def test_report_digest_rejects_changed_artifact(run):
    edges = run / "artifacts" / "edges.csv"
    edges.write_text(edges.read_text() + "\n")
    with pytest.raises(checks.CheckFailed, match="edges.csv"):
        checks.check_report_digests(run / "artifacts")


def test_model_rows_reject_unnormalised_theta(run):
    model = checks.load_model(run / "artifacts")
    model["theta"][3][0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="theta row 3"):
        checks.check_model_rows(model)


def test_skewness_scan_rejects_wrong_w_k(run):
    art = run / "artifacts"

    def bump(rows):
        for row in rows[1:]:
            if row[2] == "1":
                row[1] = str(int(row[1]) + 1)
    _edit_csv(art / "skewness_scan.csv", bump)
    with pytest.raises(checks.CheckFailed, match="recount from theta"):
        checks.check_skewness_scan(art, checks.load_model(art))


def test_skewness_scan_rejects_non_minimal_selection(run):
    art = run / "artifacts"

    def undercut(rows):
        selected = next(int(row[1]) for row in rows[1:] if row[2] == "1")
        other = next(row for row in rows[1:] if row[2] == "0")
        other[1] = str(selected - 1)   # the selected row and k stay as they are
    _edit_csv(art / "skewness_scan.csv", undercut)
    with pytest.raises(checks.CheckFailed, match="smallest k"):
        checks.check_skewness_scan(art, checks.load_model(art))


def test_dominance_rejects_flipped_topic(run):
    art = run / "artifacts"

    def flip(rows):
        topics = {int(t) for t in rows[1][1].split("|") if t}
        rows[1][1] = "|".join(str(t) for t in sorted(topics ^ {0}))
    _edit_csv(art / "dominance.csv", flip)
    with pytest.raises(checks.CheckFailed, match="dominance.csv"):
        checks.check_dominance(art, checks.load_model(art))


def test_dominance_rejects_last_digit_threshold(run):
    art = run / "artifacts"

    def nudge(rows):
        rows[1][1] = repr(float(np.nextafter(float(rows[1][1]), 1.0)))
    _edit_csv(art / "dominance_thresholds.csv", nudge)
    with pytest.raises(checks.CheckFailed, match="dominance_thresholds.csv"):
        checks.check_dominance(art, checks.load_model(art))


def test_cooccurrence_rejects_changed_count(run):
    art = run / "artifacts"

    def bump(rows):
        rows[1][2] = str(int(rows[1][2]) + 1)
    _edit_csv(art / "cooccurrence.csv", bump)
    with pytest.raises(checks.CheckFailed, match="cooccurrence.csv"):
        checks.check_cooccurrence(art)


@pytest.mark.parametrize("column", ["C", "out_degree", "in_degree"])
def test_user_metrics_reject_changed_count(run, column):
    art = run / "artifacts"

    def bump(rows):
        i = rows[0].index(column)
        rows[5][i] = str(int(rows[5][i]) + 1)
    _edit_csv(art / "user_metrics.csv", bump)
    recount = checks.Interactions(run / "posts.jsonl", run / "comments.jsonl")
    with pytest.raises(checks.CheckFailed, match=f"{column} of"):
        checks.check_user_metrics(art, recount)


def test_edges_reject_changed_weight(run):
    art = run / "artifacts"

    def bump(rows):
        rows[1][2] = str(int(rows[1][2]) + 1)
    _edit_csv(art / "edges.csv", bump)
    recount = checks.Interactions(run / "posts.jsonl", run / "comments.jsonl")
    with pytest.raises(checks.CheckFailed, match="edges.csv"):
        checks.check_edges(art, recount)


def _influence_corruption(run, name: str, edit) -> None:
    art = run / "artifacts"
    _edit_csv(art / name, edit)
    recount = checks.Interactions(run / "posts.jsonl", run / "comments.jsonl")
    with pytest.raises(checks.CheckFailed, match=name.replace(".", r"\.")):
        checks.check_influence(art, recount, TOP_K)


def _bump_float(rows, column: str, row: int = 3) -> None:
    i = rows[0].index(column)
    rows[row][i] = repr(float(np.nextafter(float(rows[row][i]), 10.0)))


@pytest.mark.parametrize("column", ["tau", "R", "alpha", "I"])
def test_influence_rejects_last_digit_user_metric(run, column):
    _influence_corruption(run, "user_metrics.csv", lambda rows: _bump_float(rows, column))


def test_influence_rejects_changed_aggregate_score(run):
    def bump(rows):
        i = rows[0].index("agg_score")
        rows[3][i] = str(int(rows[3][i]) + 1)
    _influence_corruption(run, "user_metrics.csv", bump)


@pytest.mark.parametrize("column", ["tau", "influence", "log10_comments"])
def test_influence_rejects_changed_spread_row(run, column):
    _influence_corruption(run, "spread_influence.csv",
                          lambda rows: _bump_float(rows, column))


def test_influence_rejects_swapped_ranking(run):
    def swap(rows):
        rows[1][1:], rows[2][1:] = rows[2][1:], rows[1][1:]
    _influence_corruption(run, "top_influencers.csv", swap)


def test_influence_rejects_dropped_subgraph_edge(run):
    path = run / "artifacts" / "influencer_subgraph.graphml"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3] + lines[-2:]))   # the last edge line
    recount = checks.Interactions(run / "posts.jsonl", run / "comments.jsonl")
    with pytest.raises(checks.CheckFailed, match="graphml edges"):
        checks.check_influence(run / "artifacts", recount, TOP_K)


def test_influence_rejects_wrong_top_k(run):
    recount = checks.Interactions(run / "posts.jsonl", run / "comments.jsonl")
    with pytest.raises(checks.CheckFailed, match="top_influencers.csv"):
        checks.check_influence(run / "artifacts", recount, TOP_K + 1)


def test_topic_spread_credits_shared_posts():
    dominant = {"p1": frozenset({0}), "p2": frozenset({0, 1}), "p3": frozenset()}
    # fractions 0.75 and 0.25 over the two counted comments; p3 and p9 do not count
    assert checks.topic_spread(["p1", "p2", "p3", "p9"], dominant) == 1 / 0.75 ** 2 + 16.0
    assert checks.topic_spread(["p3", "p9"], dominant) is None


def test_recount_follows_sentinel_self_reply_and_dangling_rules(tmp_path):
    posts = [{"id": "p1", "author": "ann", "title": "a", "selftext": "b"},
             {"id": "p2", "author": "[deleted]", "title": "a", "selftext": "b"}]
    comments = [
        {"id": "c1", "author": "bob", "parent_id": "t3_p1"},      # bob -> ann
        {"id": "c2", "author": "bob", "parent_id": "t1_c1"},      # self-reply
        {"id": "c3", "author": "ann", "parent_id": "t1_c1"},      # ann -> bob
        {"id": "c4", "author": "bob", "parent_id": "t1_gone"},    # dangling
        {"id": "c5", "author": "cid", "parent_id": "t3_p2"},      # to sentinel
        {"id": "c6", "author": "[deleted]", "parent_id": "t3_p1"},
        {"id": "c1", "author": "cid", "parent_id": "t3_p1"},      # duplicate id
    ]
    for c in comments:
        c.update(link_id="t3_p2" if c["id"] == "c5" else "t3_p1", score=2)
    for name, records in (("posts", posts), ("comments", comments)):
        (tmp_path / f"{name}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))
    got = checks.Interactions(tmp_path / "posts.jsonl", tmp_path / "comments.jsonl")
    assert dict(got.comment_count) == {"bob": 3, "ann": 1, "cid": 1}
    assert dict(got.edges) == {("bob", "ann"): 1, ("ann", "bob"): 1}
    assert dict(got.out_degree) == {"bob": 1, "ann": 1}
    assert dict(got.score_total) == {"bob": 6, "ann": 2, "cid": 2}
    assert dict(got.roots) == {"bob": ["p1", "p1", "p1"], "ann": ["p1"], "cid": ["p2"]}


def _pool_case(tmp_path: Path, dominant: list[str]) -> Path:
    words = ["alpha beta", "beta gamma", "delta eps", "eps zeta"]
    (tmp_path / "posts.jsonl").write_text("".join(
        json.dumps({"id": f"p{i}", "title": w, "selftext": ""}) + "\n"
        for i, w in enumerate(words)))
    (tmp_path / "dominance.csv").write_text("post_id,dominant_topics\n" + "".join(
        f"p{i},{d}\n" for i, d in enumerate(dominant)))
    return tmp_path / "posts.jsonl"


def test_pools_accept_consistent_sets(tmp_path):
    posts = _pool_case(tmp_path, ["0", "0", "1|2", ""])
    checks.check_pools_not_split(tmp_path, posts)


def test_pools_reject_split_pool(tmp_path):
    posts = _pool_case(tmp_path, ["0", "1", "2", "2"])
    with pytest.raises(checks.CheckFailed, match="splits pool"):
        checks.check_pools_not_split(tmp_path, posts)


def test_w_k_share_rejects_large_w_k():
    checks.check_selected_w_k_share(10, 200)
    with pytest.raises(checks.CheckFailed):
        checks.check_selected_w_k_share(11, 200)


def test_stages_ran_rejects_extra_stage():
    stdout = ("[ingest] up to date, skipped\n[graph] done: edges.csv\n"
              "[metrics] done: user_metrics.csv\n[report] done: report.json\n")
    with pytest.raises(checks.CheckFailed, match="graph"):
        checks.check_stages_ran(stdout, ["metrics", "report"])
    checks.check_stages_ran(stdout, ["graph", "metrics", "report"])


def test_same_artifacts_rejects_one_changed_digest():
    with pytest.raises(checks.CheckFailed, match="b.csv"):
        checks.check_same_artifacts({"a.csv": "1", "b.csv": "2"},
                                    {"a.csv": "1", "b.csv": "3"}, "rerun")


def test_input_sums_reject_changed_fixture(tmp_path):
    shutil.copytree(ROOT / "fixtures" / "synthetic-200", tmp_path / "fx")
    checks.check_input_sums(tmp_path / "fx")
    with (tmp_path / "fx" / "comments.jsonl").open("a") as fh:
        fh.write("\n")
    with pytest.raises(checks.CheckFailed, match="comments.jsonl"):
        checks.check_input_sums(tmp_path / "fx")


def test_numpy_sum_matches_numpy_bit_for_bit():
    rng = random.Random(5)
    for _ in range(3000):
        values = [rng.random() * 10 ** rng.randrange(-4, 4)
                  for _ in range(rng.randrange(1, 300))]
        assert checks.numpy_sum(values) == float(np.sum(np.asarray(values)))


def test_skew_nonpositive_matches_program_on_symmetric_rows():
    from forumpulse.topics import skewness

    rng = random.Random(9)
    rows = []
    for k in (2, 3, 4, 6, 8, 16):
        for _ in range(300):
            counts = [rng.randrange(4) for _ in range(k)]
            alpha = 50.0 / k
            rows.append([(c + alpha) / (sum(counts) + k * alpha) for c in counts])
    ties = 0
    for row in rows:
        s = skewness(row)
        assert checks.skew_nonpositive(row) == (s is None or s <= 0), row
        ties += s is not None and abs(s) < 1e-12
    assert ties > 100   # the rows exercise the sign of exact ties


# A change to gen_dump.py changes what every dump workload measures; this
# digest makes such a change visible.
PINNED_SMALL_DUMP = "84b797fd1b956e433490e1d3c046ee41ed0da9a6fba5496aa416f4794716ca78"


def test_gen_dump_is_pinned():
    posts, comments = gen_dump.generate(seed=1, n_posts=50, n_users=10, k_true=3)
    blob = "".join(json.dumps(r, sort_keys=True) + "\n" for r in posts + comments)
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_SMALL_DUMP
