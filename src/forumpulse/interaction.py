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
1/m to each, so the fractions sum to 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import log10
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import DataError
from .fileio import read_csv, reading, write_csv, write_text
from .ingest import Dataset
from .topics import DominantTopicAssignment


@dataclass(frozen=True)
class InteractionGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]   # (source, target, weight), sorted
    out_degree: Mapping[str, int]             # distinct reply targets
    in_degree: Mapping[str, int]              # distinct responders


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
    sources, targets = np.divmod(keys, max(len(names), 1))
    return graph_from_edges(tuple((names[s], names[t], w) for s, t, w in zip(
        sources.tolist(), targets.tolist(), weights.tolist())))


def graph_from_edges(edges: tuple[tuple[str, str, int], ...]) -> InteractionGraph:
    """The graph of sorted, distinct ``edges``: its nodes are their endpoints,
    and a degree counts a node's edges, which is its distinct neighbors."""
    out_degree = Counter(source for source, _, _ in edges)
    in_degree = Counter(target for _, target, _ in edges)
    nodes = tuple(sorted(out_degree.keys() | in_degree.keys()))
    return InteractionGraph(nodes, edges, {n: out_degree[n] for n in nodes},
                            {n: in_degree[n] for n in nodes})


def load_graph(path: Path) -> InteractionGraph:
    """The graph whose edge list the graph stage wrote to ``path``
    (``edges.csv``); DataError when the file is not complete."""
    names: dict[str, str] = {}    # one str per user, not one per edge endpoint
    with reading(path, "edge list file"):
        edges = tuple((names.setdefault(s, s), names.setdefault(t, t), int(w))
                      for s, t, w in read_csv(path, 3))
    return graph_from_edges(edges)


def save_graph(path: Path, fmt: str, nodes: Sequence[str],
               edges: Sequence[tuple[str, str, int]]) -> None:
    """A reply graph as an edge-list CSV (``edges.csv``, which ``load_graph``
    reads), GraphML or DOT file."""
    if fmt == "csv":
        write_csv(path, ("from", "to", "weight"), edges)
    else:
        write_text(path, (graphml_text if fmt == "graphml" else dot_text)(nodes, edges))


@dataclass(frozen=True)
class UserClassCounts:
    passive: int            # out-degree 0: replied to, never replying
    passive_pct: float
    unanswered: int         # in-degree 0: never received an explicit reply
    unanswered_pct: float
    nodes: int


def user_classes(graph: InteractionGraph) -> UserClassCounts:
    n = len(graph.nodes)
    passive = sum(1 for node in graph.nodes if graph.out_degree[node] == 0)
    unanswered = sum(1 for node in graph.nodes if graph.in_degree[node] == 0)
    return UserClassCounts(
        passive=passive,
        passive_pct=100.0 * passive / n if n else 0.0,
        unanswered=unanswered,
        unanswered_pct=100.0 * unanswered / n if n else 0.0,
        nodes=n,
    )


def topic_spread(dataset: Dataset, assignment: DominantTopicAssignment,
                 ) -> dict[str, tuple[float, dict[int, float]]]:
    """(tau, per-topic fractions) of each user, by name.

    Only comments by non-sentinel authors whose root post has at least one
    dominant topic under ``assignment`` count. A user without such a comment
    is absent, which is distinct from any numeric spread value.
    """
    n_posts, k = len(dataset.posts), assignment.k
    row = dict(zip(dataset.posts.id, range(n_posts)))
    # One row per post and a last one, with no topic, for a dangling root (-1).
    dominant = np.zeros((n_posts + 1, k), dtype=bool)
    cells = [(row[doc_id], t)
             for doc_id, topics in zip(assignment.doc_ids, assignment.dominant)
             if doc_id in row for t in topics]
    if cells:
        dominant[tuple(zip(*cells))] = True
    hits = dominant[dataset.comments.root]
    n_topics = hits.sum(axis=1)
    user = dataset.author_index[n_posts:]
    scored = (user >= 0) & (n_topics > 0)
    user, hits, share = user[scored], hits[scored], 1.0 / n_topics[scored]
    n_users = len(dataset.authors)
    # bincount adds each user's shares in comment order, as a loop over them would.
    credit = np.stack([np.bincount(user[hits[:, t]], weights=share[hits[:, t]],
                                   minlength=n_users) for t in range(k)], axis=1)
    counted = np.bincount(user, minlength=n_users)
    spreads = {}
    for u in np.flatnonzero(counted).tolist():
        fractions = {t: c / int(counted[u]) for t, c in enumerate(credit[u].tolist()) if c}
        tau = sum(1.0 / (s * s) for s in fractions.values() if s > 0)
        spreads[dataset.authors[u]] = tau, fractions
    return spreads


def reach(out_degree: int, comment_count: int) -> Optional[float]:
    """Distinct users replied to per comment made; None for non-commenters."""
    if comment_count <= 0:
        return None
    return out_degree / comment_count


@dataclass(frozen=True)
class UserMetrics:
    user: str
    comment_count: int
    out_degree: int
    in_degree: int
    tau: Optional[float]
    topic_fractions: dict[int, float]
    reach: float
    alpha: float
    influence: float
    aggregate_comment_score: int


def compute_user_metrics(dataset: Dataset, graph: InteractionGraph,
                         assignment: Optional[DominantTopicAssignment] = None,
                         ) -> list[UserMetrics]:
    """One complete record per non-sentinel commenter, in user order; tau
    is None without ``assignment``. DataError when there is no commenter."""
    _, counts = dataset.activity()
    if not counts.any():
        raise DataError("no commenters to score")
    max_count = int(counts.max())
    # Summed as Python ints, which cannot wrap as an int64 sum can.
    scores = [0] * len(dataset.authors)
    for a, score in zip(dataset.author_index[len(dataset.posts):].tolist(),
                        dataset.comments.score.tolist()):
        if a >= 0:
            scores[a] += score
    spreads = topic_spread(dataset, assignment) if assignment is not None else {}

    metrics = []
    for u in np.flatnonzero(counts).tolist():
        user, count = dataset.authors[u], int(counts[u])
        out_deg = graph.out_degree.get(user, 0)
        user_reach = reach(out_deg, count)
        spread = spreads.get(user)
        metrics.append(UserMetrics(
            user=user,
            comment_count=count,
            out_degree=out_deg,
            in_degree=graph.in_degree.get(user, 0),
            tau=spread[0] if spread else None,
            topic_fractions=spread[1] if spread else {},
            reach=user_reach,
            alpha=count / max_count,
            influence=(count / max_count) * user_reach,
            aggregate_comment_score=scores[u],
        ))
    return metrics


def spread_influence_rows(metrics: Sequence[UserMetrics]
                          ) -> list[tuple[str, Optional[float], float, float, Optional[float]]]:
    """(user, tau, influence, log10 C, log10 aggregate score) export rows.

    The score logarithm is blank for users whose aggregate comment score is
    not positive.
    """
    rows = []
    for m in metrics:
        log_score = log10(m.aggregate_comment_score) if m.aggregate_comment_score > 0 else None
        rows.append((m.user, m.tau, m.influence, log10(m.comment_count), log_score))
    return rows


@dataclass(frozen=True)
class Subgraph:
    selected: tuple[str, ...]   # the ranked influencers anchoring the egonets
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]


def top_influencers_subgraph(graph: InteractionGraph,
                             metrics: Sequence[UserMetrics],
                             top_k: int) -> Subgraph:
    """Induced subgraph around the top_k users by influence.

    Ties rank the larger comment count first, then the smaller user id. All
    direct neighbors (either direction) of the selected users are included.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ranked = sorted(metrics, key=lambda m: (-m.influence, -m.comment_count, m.user))
    selected = tuple(m.user for m in ranked[:top_k])
    anchor = frozenset(selected)

    keep = set(selected)
    for source, target, _ in graph.edges:
        if source in anchor:
            keep.add(target)
        if target in anchor:
            keep.add(source)
    edges = tuple((s, t, w) for s, t, w in graph.edges if s in keep and t in keep)
    return Subgraph(selected=selected, nodes=tuple(sorted(keep)), edges=edges)


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
                nodes: Sequence[str], edges: Sequence[tuple[str, str, int]]) -> str:
    """``head``, a ``node`` line per node, an ``edge`` line per edge and
    ``tail``; each name is quoted once, and each template filled once."""
    cells = list(chain.from_iterable(edges))
    if len(cells) != 3 * len(edges):
        raise ValueError("an edge is not (source, target, weight)")
    sources, targets = cells[0::3], cells[1::3]
    quoted = {name: quote(name) for name in set(nodes).union(sources, targets)}
    cells[0::3] = map(quoted.__getitem__, sources)
    cells[1::3] = map(quoted.__getitem__, targets)
    return (head + (node * len(nodes)) % tuple(map(quoted.__getitem__, nodes))
            + (edge * len(edges)) % tuple(cells) + tail)


def graphml_text(nodes: Sequence[str], edges: Sequence[tuple[str, str, int]]) -> str:
    return _graph_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>\n'
        '  <graph id="interactions" edgedefault="directed">\n',
        "    <node id=%s/>\n",
        '    <edge source=%s target=%s><data key="weight">%s</data></edge>\n',
        "  </graph>\n</graphml>\n", _quoteattr, nodes, edges)


def dot_text(nodes: Sequence[str], edges: Sequence[tuple[str, str, int]]) -> str:
    return _graph_text("digraph interactions {\n", "  %s;\n", "  %s -> %s [weight=%s];\n",
                       "}\n", _dot_quote, nodes, edges)
