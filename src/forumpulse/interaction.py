"""Directed user interaction graph and per-user influence metrics.

An edge A -> B with weight w means A replied w times to B's posts or
comments. Self-replies never create edges but still count toward a user's
comment total C. Metrics per commenter:

    topic spread  tau = sum over active topics of 1 / s_i^2
    reach         R   = out_degree / C
    contribution  alpha = C / max(C)
    influence     I   = alpha * R

where s_i is the fraction of the user's dominant-topic comments landing on
posts where topic i is dominant (a post with m dominant topics credits
1/m to each, so the fractions sum to 1). The graph stage writes the graph
and these metrics; the metrics stage ranks the top influencers from the
two files it wrote, so a new number of influencers reads neither the
dataset nor the dominant topics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from math import isnan, log10
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import DataError
from .fileio import (COUNT, FLOAT, NAME, StageContext, float_cells, read_table, reading,
                     write_csv, write_json, write_text)
from .ingest import Dataset, load_dataset
from .topics import DominantTopicAssignment, load_assignment


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Edge i runs from ``nodes[source[i]]`` to ``nodes[target[i]]`` with
    ``weight[i]``; ``nodes`` ascend, and the edges are distinct and ascend
    by (source, target). The columns are read-only int64 arrays. A node's
    degree counts its edges, which is its distinct neighbors."""

    nodes: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name in ("source", "target", "weight"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def out_degree(self) -> np.ndarray:
        return np.bincount(self.source, minlength=len(self.nodes))

    @property
    def in_degree(self) -> np.ndarray:
        return np.bincount(self.target, minlength=len(self.nodes))


def build_graph(dataset: Dataset) -> InteractionGraph:
    """Reply edges between non-sentinel users; dangling parents are skipped."""
    names, author = dataset.authors, dataset.author_index
    parent = dataset.comments.parent
    replied = parent >= 0
    source = author[len(dataset.posts):][replied]
    target = author[parent[replied]]
    edge = (source >= 0) & (target >= 0) & (source != target)
    # An author's index follows name order, so the keys sort as the edges do.
    keys, weights = np.unique(source[edge] * len(names) + target[edge], return_counts=True)
    ends = np.concatenate(np.divmod(keys, max(len(names), 1)))
    used, ends = np.unique(ends, return_inverse=True)
    return InteractionGraph(tuple(map(names.__getitem__, used.tolist())),
                            ends[:len(keys)], ends[len(keys):], weights)


# A count of at least 1: an edge's weight, a commenter's C.
_POSITIVE = "[1-9][0-9]{0,17}"


def load_graph(path: Path) -> InteractionGraph:
    """The graph whose edge list the graph stage wrote to ``path``
    (``edges.csv``); DataError when the file is not complete."""
    with reading(path, "edge list file"):
        *ends, weights = read_table(path, ("from", "to", "weight"), (NAME, NAME, _POSITIVE))
    nodes = tuple(sorted(set(ends[0]).union(ends[1])))
    index = dict(zip(nodes, range(len(nodes))))
    source, target = (np.fromiter(map(index.__getitem__, names), dtype=np.int64,
                                  count=len(names)) for names in ends)
    key = source * len(nodes) + target
    if np.any(source == target) or np.any(key[1:] <= key[:-1]):
        raise DataError(f"{path}: corrupt edge list file (a self-reply, or edges "
                        f"not distinct and in order)")
    return InteractionGraph(nodes, source, target, np.array(weights, dtype=np.int64))


def user_classes(graph: InteractionGraph) -> dict[str, float]:
    """The fields of ``user_classes.json``: the ``nodes``, the ``passive``
    ones (out-degree 0: replied to, never replying) and the ``unanswered``
    ones (in-degree 0: never received an explicit reply), the last two also
    as a percentage of the nodes (``passive_pct``, ``unanswered_pct``)."""
    n = len(graph.nodes)
    classes = {"nodes": n}
    for name, degree in (("passive", graph.out_degree), ("unanswered", graph.in_degree)):
        count = int(np.count_nonzero(degree == 0))
        classes.update({name: count, f"{name}_pct": 100.0 * count / n if n else 0.0})
    return classes


def topic_spread(dataset: Dataset, assignment: DominantTopicAssignment) -> np.ndarray:
    """The tau of each of ``dataset.authors``: NaN for a user without a
    comment that counts.

    Only comments by non-sentinel authors whose root post has at least one
    dominant topic under ``assignment`` count. DataError when
    ``assignment`` names a post that is not in ``dataset``.
    """
    n_posts, k = len(dataset.posts), assignment.k
    # One row per post and a last one, with no topic, for a dangling root (-1).
    dominant = np.zeros((n_posts + 1, k), dtype=bool)
    dominant[dataset.post_rows(assignment.doc_ids)] = assignment.mask
    hits = dominant[dataset.comments.root]
    n_topics = hits.sum(axis=1)
    user = dataset.author_index[n_posts:]
    scored = (user >= 0) & (n_topics > 0)
    user, hits, share = user[scored], hits[scored], 1.0 / n_topics[scored]
    n_users = len(dataset.authors)
    counted = np.bincount(user, minlength=n_users)
    tau = np.where(counted > 0, 0.0, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(k):
            # bincount adds each user's shares in comment order, as a loop
            # over them would; tau adds the topics' terms left to right.
            s = np.bincount(user[hits[:, t]], weights=share[hits[:, t]],
                            minlength=n_users) / counted
            tau += np.where(s > 0, 1.0 / (s * s), 0.0)
    return tau


@dataclass(frozen=True, eq=False)
class UserMetrics:
    """One row per non-sentinel commenter, in name order: ``users``, the
    read-only arrays ``comment_count`` (C), ``out_degree``, ``in_degree``,
    ``tau`` (NaN where undefined), ``reach`` (R), ``alpha`` and
    ``influence`` (I), and ``aggregate_comment_score`` as Python ints."""

    users: list[str]
    comment_count: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray
    tau: np.ndarray
    reach: np.ndarray
    alpha: np.ndarray
    influence: np.ndarray
    aggregate_comment_score: list[int]

    def __post_init__(self):
        for column in vars(self).values():
            if isinstance(column, np.ndarray):
                column.setflags(write=False)


def compute_user_metrics(dataset: Dataset, graph: InteractionGraph,
                         assignment: Optional[DominantTopicAssignment] = None,
                         ) -> UserMetrics:
    """The metrics of every non-sentinel commenter; tau is NaN without
    ``assignment``. DataError when there is no commenter, or when a node of
    ``graph`` is not an author of ``dataset``."""
    _, counts = dataset.activity()
    if not counts.any():
        raise DataError("no commenters to score")
    degree = np.zeros((2, len(dataset.authors)), dtype=np.int64)
    degree[:, dataset.author_rows(graph.nodes)] = graph.out_degree, graph.in_degree
    # Summed as Python ints, which cannot wrap as an int64 sum can.
    scores = [0] * len(dataset.authors)
    for a, score in zip(dataset.author_index[len(dataset.posts):].tolist(),
                        dataset.comments.score.tolist()):
        if a >= 0:
            scores[a] += score
    tau = (topic_spread(dataset, assignment) if assignment is not None
           else np.full(len(dataset.authors), np.nan))
    users = np.flatnonzero(counts)
    count = counts[users]
    alpha, reach = count / count.max(), degree[0, users] / count
    return UserMetrics(list(map(dataset.authors.__getitem__, users.tolist())), count,
                       degree[0, users], degree[1, users], tau[users], reach, alpha,
                       alpha * reach, list(map(scores.__getitem__, users.tolist())))


# user_metrics.csv: its columns, and one line per commenter of a name,
# C >= 1, the two degrees, tau (empty where undefined), R, alpha, I and the
# aggregate comment score.
_METRIC_COLUMNS = ("user", "C", "out_degree", "in_degree", "tau", "R", "alpha", "I",
                   "agg_score")
_METRIC_CELLS = (NAME, _POSITIVE, COUNT, COUNT, f"(?:{FLOAT})?", FLOAT, FLOAT, FLOAT,
                 "-?(?:0|[1-9][0-9]*)")


def load_user_metrics(path: Path) -> UserMetrics:
    """The metrics the graph stage wrote to ``path`` (``user_metrics.csv``);
    DataError when the file is not complete, its users are none or do not
    ascend, or its R, alpha and I are not the ones its C and out-degrees give."""
    with reading(path, "user metrics file"):
        users, *columns = read_table(path, _METRIC_COLUMNS, _METRIC_CELLS)
        if not users or not all(map(str.__lt__, users, islice(users, 1, None))):
            raise ValueError("no users, or users not strictly ascending")
        count, out_degree, in_degree = (np.array(c, dtype=np.int64) for c in columns[:3])
        tau, reach, alpha, influence = (np.array([float(x) if x else np.nan for x in c])
                                        for c in columns[3:7])
        # The operations of compute_user_metrics, so equal values are equal bits.
        if not (np.array_equal(alpha, count / count.max())
                and np.array_equal(reach, out_degree / count)
                and np.array_equal(influence, alpha * reach)):
            raise ValueError("R, alpha or I is not the one C and out_degree give")
    return UserMetrics(users, count, out_degree, in_degree, tau, reach, alpha, influence,
                       list(map(int, columns[7])))


def _degree_mismatch(metrics: UserMetrics, graph: InteractionGraph) -> Optional[str]:
    """The first source of an edge of ``graph`` that ``metrics`` does not
    list, or else the first user of ``metrics`` whose degrees are not its
    degrees in ``graph``, described; None when there is neither."""
    row = dict(zip(metrics.users, range(len(metrics.users))))
    rows = np.array([row.get(name, -1) for name in graph.nodes], dtype=np.int64)
    listed = rows >= 0
    unlisted = np.flatnonzero(~listed & (graph.out_degree > 0))
    if len(unlisted):
        return f"edge source {graph.nodes[unlisted[0]]!r} is not a listed user"
    degree = np.zeros((2, len(metrics.users)), dtype=np.int64)
    degree[:, rows[listed]] = graph.out_degree[listed], graph.in_degree[listed]
    wrong = np.flatnonzero((degree[0] != metrics.out_degree)
                           | (degree[1] != metrics.in_degree))
    if len(wrong):
        i = wrong[0]
        return (f"user {metrics.users[i]!r} has degrees {metrics.out_degree[i]} out and "
                f"{metrics.in_degree[i]} in, the edges {degree[0, i]} and {degree[1, i]}")
    return None


def top_influencers_subgraph(graph: InteractionGraph, metrics: UserMetrics,
                             top_k: int) -> tuple[InteractionGraph, np.ndarray]:
    """Induced subgraph around the top_k users by influence, and the
    read-only rows of ``metrics`` of those users, ranked.

    Ties rank the larger comment count first, then the smaller user id. All
    direct neighbors (either direction) of the selected users are included,
    and the selected users themselves, with or without an edge.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    # A stable sort of rows in name order: ties keep the smaller name first.
    ranked = np.lexsort((-metrics.comment_count, -metrics.influence))[:top_k]
    ranked.setflags(write=False)
    selected = set(map(metrics.users.__getitem__, ranked.tolist()))

    anchor = np.fromiter(map(selected.__contains__, graph.nodes), dtype=bool,
                         count=len(graph.nodes))
    keep = anchor.copy()
    keep[graph.target[anchor[graph.source]]] = True
    keep[graph.source[anchor[graph.target]]] = True
    nodes = tuple(sorted(selected.union(compress(graph.nodes, keep.tolist()))))
    position = dict(zip(nodes, range(len(nodes))))
    renumber = np.array([position.get(name, -1) for name in graph.nodes], dtype=np.int64)
    edge = keep[graph.source] & keep[graph.target]
    return InteractionGraph(nodes, renumber[graph.source[edge]],
                            renumber[graph.target[edge]], graph.weight[edge]), ranked


def _quoteattr(text: str) -> str:
    """``text`` quoted as an XML attribute value by the rules of
    ``xml.sax.saxutils.quoteattr``, whose import pulls in ``urllib.request``,
    ``http.client`` and ``email``: about 40 ms of every start-up on a
    2-vCPU x86-64 host."""
    text = (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _graph_text(head: str, node: str, edge: str, tail: str, quote: Callable[[str], str],
                graph: InteractionGraph) -> str:
    """``head``, a ``node`` line per node (none when ``node`` is empty), an
    ``edge`` line per edge and ``tail``; each name is quoted once, and each
    template filled once."""
    quoted = list(map(quote, graph.nodes))
    cells = [None] * (3 * len(graph.weight))
    cells[0::3] = map(quoted.__getitem__, graph.source.tolist())
    cells[1::3] = map(quoted.__getitem__, graph.target.tolist())
    cells[2::3] = graph.weight.tolist()
    return (head + ((node * len(quoted)) % tuple(quoted) if node else "")
            + (edge * len(graph.weight)) % tuple(cells) + tail)


def edges_text(graph: InteractionGraph) -> str:
    """``edges.csv``, which ``load_graph`` reads."""
    return _graph_text("from,to,weight\n", "", "%s,%s,%s\n", "", str, graph)


def graphml_text(graph: InteractionGraph) -> str:
    return _graph_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n'
        '  <graph id="interactions" edgedefault="directed">\n',
        "    <node id=%s/>\n",
        '    <edge source=%s target=%s><data key="weight">%s</data></edge>\n',
        "  </graph>\n</graphml>\n", _quoteattr, graph)


def dot_text(graph: InteractionGraph) -> str:
    return _graph_text("digraph interactions {\n", "  %s;\n", "  %s -> %s [weight=%s];\n",
                       "}\n", _dot_quote, graph)


def graph_stage(ctx: StageContext
                ) -> tuple[InteractionGraph, dict[str, float], UserMetrics]:
    """The reply graph with its exports and user classes, and every
    commenter's metrics; tau is blank when the ``dominance.csv`` path is
    None."""
    dataset = ctx.load("dataset.json", load_dataset)
    graph = build_graph(dataset)
    classes = user_classes(graph)
    assignment = (ctx.load("dominance.csv", load_assignment)
                  if ctx.path("dominance.csv") is not None else None)
    metrics = compute_user_metrics(dataset, graph, assignment)
    for name, text in (("edges.csv", edges_text), ("graph.graphml", graphml_text),
                       ("graph.dot", dot_text)):
        write_text(ctx.path(name), text(graph))
    write_json(ctx.path("user_classes.json"), classes)
    tau, reach, alpha, influence = float_cells(
        np.stack((metrics.tau, metrics.reach, metrics.alpha, metrics.influence)),
        lambda x: "" if isnan(x) else repr(x)).tolist()
    counts, scores = metrics.comment_count.tolist(), metrics.aggregate_comment_score
    write_csv(ctx.path("user_metrics.csv"), _METRIC_COLUMNS,
              zip(metrics.users, counts, metrics.out_degree.tolist(),
                  metrics.in_degree.tolist(), tau, reach, alpha, influence, scores))
    write_csv(ctx.path("spread_influence.csv"),
              ("user", "tau", "influence", "log10_comments", "log10_agg_score"),
              zip(metrics.users, tau, influence, map(log10, counts),
                  [log10(s) if s > 0 else None for s in scores]))
    ctx.parsed["edges.csv"], ctx.parsed["user_metrics.csv"] = graph, metrics
    return graph, classes, metrics


def metrics_stage(ctx: StageContext) -> tuple[UserMetrics, InteractionGraph, list[int]]:
    """The top influencers and their egonet subgraph, ranked from the
    metrics and the edges the graph stage wrote; DataError when the two
    files are not of one graph."""
    metrics = ctx.load("user_metrics.csv", load_user_metrics)
    graph = ctx.load("edges.csv", load_graph)
    mismatch = _degree_mismatch(metrics, graph)
    if mismatch is not None:
        raise DataError(f"{ctx.path('user_metrics.csv')} and {ctx.path('edges.csv')} "
                        f"are not of one graph: {mismatch}")
    subgraph, ranked = top_influencers_subgraph(graph, metrics, ctx.params["graph.top_k"])
    ranked = ranked.tolist()
    write_csv(ctx.path("top_influencers.csv"), ("rank", "user", "influence", "C"),
              zip(range(1, len(ranked) + 1), map(metrics.users.__getitem__, ranked),
                  metrics.influence[ranked].tolist(),
                  metrics.comment_count[ranked].tolist()))
    write_text(ctx.path("influencer_subgraph.graphml"), graphml_text(subgraph))
    return metrics, subgraph, ranked
