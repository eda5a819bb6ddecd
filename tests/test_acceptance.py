"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from forumpulse.corpus import build_corpus
from forumpulse.fileio import read_json, sha256_file
from forumpulse.ingest import parse_dump
from forumpulse.interaction import build_graph, compute_user_metrics
from forumpulse.lda import LdaConfig, fit
from forumpulse.lexicon import pca
from forumpulse.pipeline import run_pipeline, stage_seed
from forumpulse.topics import dominant_topics, select_k, skewness

from conftest import (assignment_of, comment_record, comment_views, corpus_from_counts,
                      edge_tuples, fit_with_labels, make_dataset, metric_rows, post_record)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "synthetic-200"


def _verdict(criterion: int, checks: list[tuple[bool, str]], summary: str) -> None:
    ok = all(flag for flag, _ in checks)
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {summary}")
    failed = [msg for flag, msg in checks if not flag]
    assert ok, f"criterion {criterion} failed: {failed}"


@pytest.fixture(scope="module")
def shipped_fixture():
    """The in-repo 200-post dump pair, verified against its recorded digests."""
    sums = {}
    for line in (FIXTURE_DIR / "sha256sums.txt").read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    for name in ("posts.jsonl", "comments.jsonl", "config.json"):
        assert sha256_file(FIXTURE_DIR / name) == sums[name], \
            f"shipped fixture file {name} does not match its recorded digest"
    with (FIXTURE_DIR / "posts.jsonl").open() as ps, \
            (FIXTURE_DIR / "comments.jsonl").open() as cs:
        dataset = parse_dump(ps, cs)
    return dataset


@pytest.fixture(scope="module")
def fixture_scan(shipped_fixture):
    """select_k over [2, 8] on the shipped corpus, shared by criteria 2 and 4."""
    corpus = build_corpus(shipped_fixture, min_df=3, max_df_fraction=0.6,
                          phrase_min_count=20)
    base = LdaConfig(k=2, iterations=150, burn_in=50,
                     seed=stage_seed(20240704, "lda"))
    started = time.perf_counter()
    model, scan = select_k(corpus, 2, 8, base)
    return corpus, base, model, scan, time.perf_counter() - started


def test_criterion_1_skewness_oracle():
    rng = random.Random(1001)
    checks = []
    started = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        k = 2 + i % 19                       # k cycles over {2..20}
        raw = [rng.random() + 1e-9 for _ in range(k)]
        total = sum(raw)
        dist = [x / total for x in raw]
        ours = skewness(dist)
        mean = statistics.mean(dist)
        sigma = statistics.pstdev(dist)
        naive = None if sigma == 0 else 3 * (mean - statistics.median(dist)) / sigma
        if naive is None:
            checks.append((ours is None, f"vector {i}: expected undefined"))
        else:
            delta = abs(ours - naive)
            worst = max(worst, delta)
            checks.append((delta <= 1e-12, f"vector {i}: |delta|={delta:.2e}"))
    for k in range(2, 21):
        checks.append((skewness([1.0 / k] * k) is None,
                       f"uniform k={k} must be undefined"))
    elapsed = time.perf_counter() - started
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"))
    _verdict(1, checks, f"1000 vectors, max |delta|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_model_selection_recovery(fixture_scan):
    corpus, base, model, scan, elapsed = fixture_scan
    checks = []
    n_docs = len(corpus)
    checks.append((n_docs > 0, "corpus is empty"))
    ws = dict(scan)
    checks.append((sorted(ws) == list(range(2, 9)),
                   f"scan did not cover [2, 8]: {sorted(ws)}"))
    best = min(ws.values())
    checks.append((ws[model.k] == best,
                   f"selected k={model.k} has W={ws[model.k]}, min is {best}"))
    checks.append((model.k == min(k for k, w in ws.items() if w == best),
                   "tie not broken toward the smallest k"))
    checks.append((ws[model.k] <= 0.05 * n_docs,
                   f"W_k*={ws[model.k]} above 5% of {n_docs} posts"))
    # Independent recount of every scanned W_k from the per-document values
    # of a fit at that k alone, which is the scan's model at k.
    for k, w_k in scan:
        theta = fit(corpus, replace(base, k=k)).theta
        recount = sum(1 for row in theta if (s := skewness(row)) is None or s <= 0)
        checks.append((recount == w_k, f"k={k}: W recount {recount} != {w_k}"))
    checks.append((elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"))
    _verdict(2, checks,
             f"k*={model.k}, W={ws[model.k]}/{n_docs}, scan {dict(sorted(ws.items()))}, "
             f"{elapsed:.1f}s")


def test_criterion_3_gibbs_invariants():
    checks = []
    corpora = [
        corpus_from_counts([{"aa": 20, "bb": 20, "cc": 20},
                            {"xx": 20, "yy": 20, "zz": 20}]),
        corpus_from_counts([{f"t{i % 4}w{j}": 2 + (i + j) % 3 for j in range(5)}
                            for i in range(12)]),
    ]
    for ci, corpus in enumerate(corpora):
        conserved, labels = [], []

        def hook(sweep, state, _corpus=corpus, _log=conserved, _labels=labels):
            dt = sum(sum(row) for row in state.doc_topic_counts)
            wt = sum(sum(row) for row in state.word_topic_counts)
            tt = sum(state.topic_totals)
            _log.append(dt == wt == tt == _corpus.total_tokens)
            _labels[:] = state.z.tolist()

        config = LdaConfig(k=3, iterations=30, burn_in=10, seed=77 + ci)
        model = fit(corpus, config, sweep_hook=hook)
        checks.append((len(conserved) == 30 and all(conserved),
                       f"corpus {ci}: count tables leaked tokens"))
        checks.append((bool(np.all(np.abs(model.theta.sum(axis=1) - 1) <= 1e-9)),
                       f"corpus {ci}: theta rows do not sum to 1"))
        checks.append((bool(np.all(np.abs(model.phi.sum(axis=1) - 1) <= 1e-9)),
                       f"corpus {ci}: phi rows do not sum to 1"))
        twin, twin_labels = fit_with_labels(corpus, config)
        checks.append((twin.theta.tobytes() == model.theta.tobytes()
                       and twin.phi.tobytes() == model.phi.tobytes()
                       and [t for row in twin_labels for t in row] == labels,
                       f"corpus {ci}: same seed not bit-identical"))
    _verdict(3, checks, "conservation each sweep, simplex rows, seed determinism")


def test_criterion_4_dominance_rule(fixture_scan):
    _, _, model, _, _ = fixture_scan
    theta = model.theta
    assignment = dominant_topics(model)
    checks = []
    # Independent two-pass recomputation with stdlib statistics.
    for t in range(model.k):
        column = [float(x) for x in theta[:, t]]
        mu = statistics.mean(column)
        sigma = statistics.pstdev(column)
        mu_r, sigma_r = assignment.thresholds[t]
        checks.append((abs(mu - mu_r) <= 1e-12 and abs(sigma - sigma_r) <= 1e-12,
                       f"topic {t}: thresholds diverge"))
        for i, value in enumerate(column):
            expected = value > mu + sigma
            got = bool(assignment.mask[i, t])
            if expected != got:
                checks.append((False, f"doc {i} topic {t}: rule mismatch"))
    checks.append((True, ""))

    # Degenerate case: identical rows give sigma 0 and empty dominant sets.
    flat = replace(model, theta=np.full((6, model.k), 1.0 / model.k))
    degenerate = dominant_topics(flat)
    checks.append((not degenerate.mask.any(),
                   "degenerate all-equal theta must yield empty dominant sets"))
    unassigned = int((~assignment.mask.any(axis=1)).sum())
    _verdict(4, checks,
             f"recomputation exact over {theta.shape[0]} docs x {theta.shape[1]} "
             f"topics; {unassigned} posts with no dominant topic")


def test_criterion_5_metric_oracle_equivalence():
    rng = random.Random(515)
    users = [f"m{i:02d}" for i in range(50)]
    posts = [post_record(f"p{i:02d}", author=rng.choice(users), created=100 + i)
             for i in range(25)]
    comments = []
    for j in range(300):
        target = rng.choice(posts)
        if comments and rng.random() < 0.3:
            parent = rng.choice(comments)
            ref, root = "t1_" + parent["id"], parent["link_id"][3:]
        else:
            ref, root = "t3_" + target["id"], target["id"]
        comments.append(comment_record(f"c{j:03d}", ref, root,
                                       author=rng.choice(users), created=500 + j))
    dataset = make_dataset(posts, comments)
    dominant_by_post = {p: frozenset(t for t in range(3) if rng.random() < 0.5)
                        for p in dataset.posts.id}

    ids = sorted(dominant_by_post)
    assignment = assignment_of([dominant_by_post[i] for i in ids], 3, ids)
    graph = build_graph(dataset)
    metrics = compute_user_metrics(dataset, graph, assignment)

    checks = []
    own = defaultdict(list)
    for c in comment_views(dataset):
        own[c.author].append(c)
    max_c = max(len(v) for v in own.values())
    for m in metric_rows(metrics).values():
        mine = own[m.user]
        targets = set()
        for c in mine:
            if c.parent_author not in (None, m.user):
                targets.add(c.parent_author)
        counted = [c for c in mine if dominant_by_post.get(c.root_post_id)]
        tau = None
        if counted:
            credit = defaultdict(float)
            for c in counted:
                tops = dominant_by_post[c.root_post_id]
                for t in tops:
                    credit[t] += 1.0 / len(tops)
            # tau adds the fractions' terms left to right in ascending topic
            # order by definition, one float addition at a time.
            fractions = [v / len(counted) for _, v in sorted(credit.items())]
            tau = 0.0
            for s in fractions:
                if s > 0:
                    tau += 1.0 / (s * s)
        agree = (m.comment_count == len(mine)
                 and m.out_degree == len(targets)
                 and m.reach == len(targets) / len(mine)
                 and m.alpha == len(mine) / max_c
                 and m.influence == m.alpha * m.reach
                 and ((tau is None and m.tau is None) or m.tau == tau))
        checks.append((agree, f"user {m.user}: library vs brute force diverge"))

    # Spot values from the stated micro-cases.
    spot1 = make_dataset([post_record("p1", author="oo")],
                         [comment_record("c1", "t3_p1", "p1", author="me")])
    a1 = assignment_of([{0}], 1, ["p1"])
    me1 = metric_rows(compute_user_metrics(spot1, build_graph(spot1), a1))["me"]
    checks.append((me1.tau == 1.0, "single-topic commenter must have tau = 1"))

    spot2 = make_dataset(
        [post_record("p1", author="o1"), post_record("p2", author="o2")],
        [comment_record("c1", "t3_p1", "p1", author="me"),
         comment_record("c2", "t3_p2", "p2", author="me", created=2100)])
    a2 = assignment_of([{0}, {1}], 2, ["p1", "p2"])
    me2 = metric_rows(compute_user_metrics(spot2, build_graph(spot2), a2))["me"]
    checks.append((me2.tau == 8.0, "even two-way split must have tau = 8"))
    checks.append((me2.reach == 1.0, "all-unique targets must have R = 1"))

    _verdict(5, checks, f"{len(metrics.users)} commenters match brute force; "
                        "spot values tau=1, tau=8, R=1 hold")


def test_criterion_6_graph_fidelity():
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
    dataset = make_dataset(posts, comments)
    graph = build_graph(dataset)
    edges = edge_tuples(graph)
    checks = [
        (graph.nodes == ("u1", "u2", "u3", "u4"), f"nodes {graph.nodes}"),
        (edges == (("u1", "u3", 1), ("u2", "u1", 2), ("u3", "u1", 1),
                   ("u3", "u2", 1), ("u4", "u1", 1)),
         f"edges {edges}"),
        (graph.out_degree.tolist() == [1, 1, 2, 1], f"out degrees {graph.out_degree}"),
        (graph.in_degree.tolist() == [3, 1, 1, 0], f"in degrees {graph.in_degree}"),
    ]
    resolved_non_self = sum(
        1 for c in comment_views(dataset) if c.parent_author not in (None, c.author))
    checks.append((sum(w for _, _, w in edges) == resolved_non_self == 6,
                   "edge weights must sum to the resolved non-self comment count"))
    checks.append((all(s != t for s, t, _ in edges),
                   "self-reply produced an edge"))
    _verdict(6, checks, "hand-drawn nodes, weights and degrees match exactly")


def test_criterion_7_pca_checks():
    checks = []
    t = np.linspace(-3.0, 3.0, 60)
    collinear = pca(np.stack([t, t], axis=1), 2)
    checks.append((collinear.explained_variance[1] < 1e-10,
                   f"second variance {collinear.explained_variance[1]:.2e}"))
    target = np.array([1.0, 1.0]) / math.sqrt(2)
    checks.append((bool(np.max(np.abs(collinear.components[0] - target)) <= 1e-8),
                   f"first component {collinear.components[0]}"))

    rng = np.random.default_rng(7070)
    rows = rng.random((200, 20))
    result = pca(rows, 20)
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / rows.shape[0]
    worst = 0.0
    for v, lam in zip(result.components, result.explained_variance):
        worst = max(worst, float(np.linalg.norm(cov @ v - lam * v)))
    checks.append((worst <= 1e-8, f"max eigen-residual {worst:.2e}"))

    reconstructed = result.projections @ result.components
    err = float(np.max(np.abs(reconstructed - centered)))
    checks.append((err <= 1e-8, f"reconstruction error {err:.2e}"))
    _verdict(7, checks,
             f"collinear ok, residual {worst:.1e}, reconstruction {err:.1e}")


def test_criterion_8_pipeline_reproducibility(tmp_path):
    checks = []
    started = time.perf_counter()
    a = run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path / "a",
                     echo=lambda *_: None)
    b = run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path / "b",
                     echo=lambda *_: None)
    elapsed = time.perf_counter() - started

    files_a = sorted(p.relative_to(a.out_dir) for p in a.out_dir.rglob("*")
                     if p.is_file())
    files_b = sorted(p.relative_to(b.out_dir) for p in b.out_dir.rglob("*")
                     if p.is_file())
    checks.append((files_a == files_b, "artifact inventories differ"))
    mismatched = [str(rel) for rel in files_a
                  if rel.name != "manifest.json"
                  and (a.out_dir / rel).read_bytes() != (b.out_dir / rel).read_bytes()]
    checks.append((not mismatched, f"byte mismatch in {mismatched}"))
    ma = read_json(a.out_dir / "manifest.json")
    mb = read_json(b.out_dir / "manifest.json")
    checks.append(({s: r["outputs"] for s, r in ma["stages"].items()} ==
                   {s: r["outputs"] for s, r in mb["stages"].items()},
                   "manifest output digests differ"))
    checks.append((elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 min"))
    _verdict(8, checks,
             f"{len(files_a)} files byte-identical, manifests agree, {elapsed:.0f}s")


def test_criterion_9_ingestion_robustness():
    clean_posts = (FIXTURE_DIR / "posts.jsonl").read_text().splitlines()
    clean_comments = (FIXTURE_DIR / "comments.jsonl").read_text().splitlines()
    rng = random.Random(99)

    def inject(lines: list[str]) -> tuple[list[str], int]:
        n_bad = max(1, round(0.05 * len(lines)))
        broken = ["{malformed json", '{"id": "only-an-id"}',
                  '{"id": "", "author": "x", "created_utc": 5, "score": 1}',
                  "[1, 2, 3]"]
        out = list(lines)
        for i in range(n_bad):
            out.insert(rng.randrange(len(out) + 1), broken[i % len(broken)])
        return out, n_bad

    posts, bad_posts = inject(clean_posts)
    comments, bad_comments = inject(clean_comments)
    dataset = parse_dump(posts, comments)
    checks = [
        (dataset.parse_errors == bad_posts + bad_comments,
         f"tally {dataset.parse_errors} != injected {bad_posts + bad_comments}"),
        (len(dataset.posts) == len(clean_posts),
         f"{len(dataset.posts)} posts survived of {len(clean_posts)}"),
        (len(dataset.comments) == len(clean_comments),
         f"{len(dataset.comments)} comments survived of {len(clean_comments)}"),
    ]
    _verdict(9, checks,
             f"{bad_posts + bad_comments} malformed lines tallied, "
             f"all {len(clean_posts)}+{len(clean_comments)} records parsed")
