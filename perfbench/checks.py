"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``forumpulse``: each check re-derives its expectation
from the raw JSONL dumps or from ``model.json`` with the standard library,
or tests a property the method must have. A failed check raises
``CheckFailed`` with a message naming the artifact; no check signals
failure through its return value.

Floating-point recounts repeat the program's order of operations, so that
they agree to the last bit: a row sum is formed in the order numpy's
pairwise summation uses, a column sum row by row. Sign ties in symmetric
rows (mean equal to median) are common at small token counts, and a
looser comparison would let a W_k that is off by a few pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path
from xml.etree import ElementTree

SENTINELS = frozenset({"[deleted]", "[removed]"})
ROW_SUM_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An artifact disagrees with its independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """Digest of every artifact except the manifest, which records times."""
    return {str(p.relative_to(out_dir)): sha256_file(p)
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- inputs -----------------------------------------------------------------

def check_input_sums(directory: Path) -> None:
    """Every file listed in ``sha256sums.txt`` has its recorded digest."""
    lines = (directory / "sha256sums.txt").read_text(encoding="utf-8").splitlines()
    _require(bool(lines), f"{directory}/sha256sums.txt is empty")
    for line in lines:
        want, name = line.split()
        _require(sha256_file(directory / name) == want,
                 f"{directory / name} does not match sha256sums.txt")


# -- report and model -------------------------------------------------------

def check_report_digests(out_dir: Path) -> None:
    artifacts = json.loads((out_dir / "report.json").read_text("utf-8"))["artifacts"]
    _require(bool(artifacts), "report.json lists no artifacts")
    for rel, want in artifacts.items():
        path = out_dir / rel
        _require(path.is_file(), f"report.json names missing artifact {rel}")
        _require(sha256_file(path) == want, f"report.json digest of {rel} is stale")


def load_model(out_dir: Path) -> dict:
    return json.loads((out_dir / "model.json").read_text("utf-8"))


def check_model_rows(model: dict) -> None:
    for name in ("theta", "phi"):
        for i, row in enumerate(model[name]):
            _require(abs(math.fsum(row) - 1.0) <= ROW_SUM_TOLERANCE,
                     f"model.json {name} row {i} sums to {math.fsum(row)!r}")


def numpy_sum(values: list[float]) -> float:
    """Sum in the order of numpy's pairwise summation of a contiguous
    float64 vector: 8 interleaved accumulators per block of up to 128
    values, blocks halved recursively, short vectors summed from 0.0."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n <= 128:
        acc = list(values[:8])
        whole = n - n % 8
        for i in range(8, whole, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + \
            ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for x in values[whole:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return numpy_sum(values[:half]) + numpy_sum(values[half:])


def skew_nonpositive(row: list[float]) -> bool:
    """Whether Pearson's second skewness coefficient, 3(mean - median)/sigma,
    is <= 0 or undefined (a constant row). sigma > 0 otherwise, so only the
    sign of mean - median matters."""
    if all(x == row[0] for x in row):
        return True
    ordered = sorted(row)
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else (ordered[mid - 1] + ordered[mid]) / 2)
    return numpy_sum(row) / len(row) <= median


def check_skewness_scan(out_dir: Path, model: dict) -> int:
    """The selected W_k equals a recount from theta and is the scan minimum;
    returns the selected W_k."""
    rows = [(int(r["k"]), int(r["w_k"]), r["selected"])
            for r in _rows(out_dir / "skewness_scan.csv")]
    selected = [(k, w) for k, w, flag in rows if flag == "1"]
    _require(len(selected) == 1, "skewness_scan.csv must select exactly one k")
    k, w_k = selected[0]
    _require(k == len(model["theta"][0]),
             f"skewness_scan.csv selects k={k} but model.json has another k")
    _require((w_k, k) == min((w, kk) for kk, w, _ in rows),
             "skewness_scan.csv does not select the smallest k of minimal W_k")
    recount = sum(1 for row in model["theta"] if skew_nonpositive(row))
    _require(w_k == recount,
             f"skewness_scan.csv W_{k}={w_k}, recount from theta gives {recount}")
    return w_k


def _column_cutoffs(theta: list[list[float]]) -> list[tuple[float, float]]:
    """Per-topic (mu, sigma) over posts, population sigma, summed row by row."""
    n = len(theta)
    out = []
    for column in zip(*theta):
        total = 0.0
        for x in column:
            total += x
        mu = total / n
        total = 0.0
        for x in column:
            total += (x - mu) * (x - mu)
        out.append((mu, math.sqrt(total / n)))
    return out


def read_dominance(out_dir: Path) -> list[tuple[str, frozenset[int]]]:
    return [(r["post_id"],
             frozenset(int(t) for t in r["dominant_topics"].split("|") if t))
            for r in _rows(out_dir / "dominance.csv")]


def check_dominance(out_dir: Path, model: dict) -> None:
    """Dominant sets equal the mu + sigma rule recomputed from theta."""
    theta = model["theta"]
    cutoffs = _column_cutoffs(theta)
    thresholds = _rows(out_dir / "dominance_thresholds.csv")
    _require(len(thresholds) == len(cutoffs), "dominance_thresholds.csv has wrong k")
    for t, (row, (mu, sigma)) in enumerate(zip(thresholds, cutoffs)):
        _require((float(row["mu"]), float(row["sigma"])) == (mu, sigma),
                 f"dominance_thresholds.csv topic {t} is ({row['mu']}, "
                 f"{row['sigma']}), recount gives ({mu!r}, {sigma!r})")

    dominance = read_dominance(out_dir)
    _require([post for post, _ in dominance] == model["doc_ids"],
             "dominance.csv posts differ from model.json doc_ids")
    for (post, got), probs in zip(dominance, theta):
        want = {t for t, (p, (mu, sigma)) in enumerate(zip(probs, cutoffs))
                if p > mu + sigma}
        _require(got == want,
                 f"dominance.csv {post}: {sorted(got)}, recount gives {sorted(want)}")


def check_cooccurrence(out_dir: Path) -> None:
    """Pair counts, and sole-dominant counts on the diagonal, match dominance.csv."""
    want: dict[tuple[int, int], int] = defaultdict(int)
    for _, topics in read_dominance(out_dir):
        ordered = sorted(topics)
        if len(ordered) == 1:
            want[(ordered[0], ordered[0])] += 1
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                want[(ordered[a], ordered[b])] += 1
    got = {(int(r["topic_i"]), int(r["topic_j"])): int(r["count"])
           for r in _rows(out_dir / "cooccurrence.csv")}
    for pair, count in want.items():
        _require(got.get(pair) == count,
                 f"cooccurrence.csv {pair} is {got.get(pair)}, dominance.csv gives {count}")
    for pair, count in got.items():
        _require(count == want.get(pair, 0),
                 f"cooccurrence.csv {pair} is {count}, dominance.csv gives "
                 f"{want.get(pair, 0)}")


# -- interaction recount from the raw dumps ---------------------------------

def _jsonl(path: Path):
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


class Interactions:
    """Per-user comment totals and reply edges recounted from the dumps.

    Follows the documented rules: sentinel authors are not users, a
    comment counts toward its author's C even when its parent is missing
    or is the author's own, and only replies between two distinct users
    with a resolvable parent make an edge. The first record of a repeated
    id wins. Each user's comments are kept in comment-id order, the order
    in which the program sums their topic credit.
    """

    def __init__(self, posts_path: Path, comments_path: Path):
        post_author: dict[str, str] = {}
        for post in _jsonl(posts_path):
            post_author.setdefault(post["id"], post["author"])
        comments: dict[str, dict] = {}
        for comment in _jsonl(comments_path):
            comments.setdefault(comment["id"], comment)

        self.comment_count: dict[str, int] = defaultdict(int)
        self.score_total: dict[str, int] = defaultdict(int)
        self.roots: dict[str, list[str]] = defaultdict(list)   # in comment-id order
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        for comment_id in sorted(comments):
            comment = comments[comment_id]
            source = comment["author"]
            if source in SENTINELS:
                continue
            self.comment_count[source] += 1
            self.score_total[source] += int(comment["score"])
            link = comment["link_id"]
            self.roots[source].append(link[3:] if link.startswith("t3_") else link)
            ref = comment["parent_id"]
            if ref.startswith("t3_"):
                target = post_author.get(ref[3:])
            elif ref.startswith("t1_") and ref[3:] in comments:
                target = comments[ref[3:]]["author"]
            else:
                target = None
            if target is None or target in SENTINELS or target == source:
                continue
            self.edges[(source, target)] += 1

        self.out_degree: dict[str, int] = defaultdict(int)
        self.in_degree: dict[str, int] = defaultdict(int)
        for source, target in self.edges:
            self.out_degree[source] += 1
            self.in_degree[target] += 1


def check_user_metrics(out_dir: Path, recount: Interactions) -> None:
    rows = _rows(out_dir / "user_metrics.csv")
    _require({r["user"] for r in rows} == set(recount.comment_count),
             "user_metrics.csv users differ from the commenters in the dump")
    for r in rows:
        user = r["user"]
        for column, want in (("C", recount.comment_count[user]),
                             ("out_degree", recount.out_degree.get(user, 0)),
                             ("in_degree", recount.in_degree.get(user, 0))):
            _require(int(r[column]) == want,
                     f"user_metrics.csv {column} of {user} is {r[column]}, "
                     f"recount gives {want}")


def check_edges(out_dir: Path, recount: Interactions) -> None:
    got = {(r["from"], r["to"]): int(r["weight"]) for r in _rows(out_dir / "edges.csv")}
    _require(got == dict(recount.edges),
             f"edges.csv differs from the recount: {len(got)} edges vs "
             f"{len(recount.edges)}, weight total {sum(got.values())} vs "
             f"{sum(recount.edges.values())}")


def _cell(value) -> str:
    """A value as the program's CSV writer renders it."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def topic_spread(roots: list[str], dominant: dict[str, frozenset[int]]) -> float | None:
    """tau = sum of 1/s^2 over the user's topic fractions s, where each
    comment on a post with m dominant topics credits 1/m to each of them;
    None when no comment lands on a post with a dominant topic."""
    credit: dict[int, float] = defaultdict(float)
    counted = 0
    for root in roots:
        topics = dominant.get(root)
        if topics:
            counted += 1
            for t in topics:
                credit[t] += 1.0 / len(topics)
    if not counted:
        return None
    return sum(1.0 / (s * s) for s in (credit[t] / counted for t in sorted(credit))
               if s > 0)


def check_influence(out_dir: Path, recount: Interactions, top_k: int) -> None:
    """tau, R = out_degree/C, alpha = C/max C and I = alpha R in
    user_metrics.csv and spread_influence.csv, the top-k ranking (I
    descending, then C descending, then user id) in top_influencers.csv,
    and the egonet subgraph of the top k, all recounted from the dumps and
    dominance.csv."""
    dominant = dict(read_dominance(out_dir))
    max_c = max(recount.comment_count.values())
    want = {}
    for user, c in recount.comment_count.items():
        reach = recount.out_degree.get(user, 0) / c
        want[user] = {"tau": topic_spread(recount.roots[user], dominant),
                      "R": reach, "alpha": c / max_c, "I": (c / max_c) * reach,
                      "agg_score": recount.score_total[user]}
    for r in _rows(out_dir / "user_metrics.csv"):
        for column, value in want[r["user"]].items():
            _require(r[column] == _cell(value),
                     f"user_metrics.csv {column} of {r['user']} is {r[column]}, "
                     f"recount gives {_cell(value)}")
    spread_rows = _rows(out_dir / "spread_influence.csv")
    _require(sorted(r["user"] for r in spread_rows) == sorted(want),
             "spread_influence.csv users differ from the commenters in the dump")
    for r in spread_rows:
        w = want[r["user"]]
        score = w["agg_score"]
        expect = {"tau": w["tau"], "influence": w["I"],
                  "log10_comments": math.log10(recount.comment_count[r["user"]]),
                  "log10_agg_score": math.log10(score) if score > 0 else None}
        for column, value in expect.items():
            _require(r[column] == _cell(value),
                     f"spread_influence.csv {column} of {r['user']} is "
                     f"{r[column]}, recount gives {_cell(value)}")

    ranked = sorted(want, key=lambda u: (-want[u]["I"], -recount.comment_count[u], u))
    top = ranked[:top_k]
    got = [(r["rank"], r["user"], r["influence"], r["C"])
           for r in _rows(out_dir / "top_influencers.csv")]
    expect_top = [(str(i + 1), u, _cell(want[u]["I"]), str(recount.comment_count[u]))
                  for i, u in enumerate(top)]
    _require(got == expect_top,
             f"top_influencers.csv ranks {[g[1] for g in got]}, recount ranks {top}")

    keep = set(top)
    for source, target in recount.edges:
        if source in top or target in top:
            keep.update((source, target))
    graph = ElementTree.parse(out_dir / "influencer_subgraph.graphml").getroot()
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = [n.get("id") for n in graph.iterfind("g:graph/g:node", ns)]
    edges = [(e.get("source"), e.get("target"), int(e.find("g:data", ns).text))
             for e in graph.iterfind("g:graph/g:edge", ns)]
    _require(nodes == sorted(keep),
             f"influencer_subgraph.graphml has {len(nodes)} nodes, recount gives {len(keep)}")
    _require(edges == [(s, t, w) for (s, t), w in sorted(recount.edges.items())
                       if s in keep and t in keep],
             "influencer_subgraph.graphml edges differ from the recount")


# -- properties of the shipped fixture --------------------------------------

def check_selected_w_k_share(w_k: int, n_posts: int, share: float = 0.05) -> None:
    _require(w_k <= share * n_posts,
             f"selected W_k={w_k} exceeds {share:.0%} of {n_posts} posts")


def word_pools(posts_path: Path) -> dict[str, int]:
    """Post id -> generator pool, found as the connected components of posts
    that share a word (the pools are disjoint, so no post bridges two)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    post_words = {}
    for post in _jsonl(posts_path):
        words = (post["title"] + " " + post["selftext"]).split()
        post_words[post["id"]] = words[0]
        for word in words[1:]:
            parent[find(word)] = find(words[0])
    roots: dict[str, int] = {}
    return {post: roots.setdefault(find(word), len(roots))
            for post, word in post_words.items()}


def check_pools_not_split(out_dir: Path, posts_path: Path) -> None:
    """Posts of one generator pool share one non-empty dominant-topic set."""
    pools = word_pools(posts_path)
    seen: dict[int, frozenset[int]] = {}
    for post, topics in read_dominance(out_dir):
        if not topics:
            continue
        first = seen.setdefault(pools[post], topics)
        _require(first == topics,
                 f"dominance.csv splits pool {pools[post]}: {post} has "
                 f"{sorted(topics)}, another post has {sorted(first)}")


# -- rerun checks -----------------------------------------------------------

def stages_ran(stdout: str) -> list[str]:
    """Stage names that `forumpulse run` reported as recomputed."""
    return [line[1:line.index("]")] for line in stdout.splitlines()
            if line.startswith("[") and "] done:" in line]


def check_stages_ran(stdout: str, expected: list[str]) -> None:
    ran = stages_ran(stdout)
    _require(ran == expected, f"stages ran {ran}, expected only {expected}")


def check_same_artifacts(got: dict[str, str], want: dict[str, str], what: str) -> None:
    differing = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    _require(not differing, f"{what}: artifacts differ: {', '.join(differing)}")


def check_run(out_dir: Path, posts_path: Path, comments_path: Path, top_k: int,
              recount: Interactions | None = None) -> int:
    """Every check that applies to any complete artifacts directory made
    with ``graph.top_k = top_k``; returns the selected W_k."""
    check_report_digests(out_dir)
    model = load_model(out_dir)
    check_model_rows(model)
    w_k = check_skewness_scan(out_dir, model)
    check_dominance(out_dir, model)
    check_cooccurrence(out_dir)
    recount = recount or Interactions(posts_path, comments_path)
    check_user_metrics(out_dir, recount)
    check_edges(out_dir, recount)
    check_influence(out_dir, recount, top_k)
    return w_k
