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

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import log10
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DataError
from .fileio import read_csv, reading, write_csv, write_text
from .ingest import SENTINEL_AUTHORS, Comment, Dataset
from .topics import DominantTopicAssignment


@dataclass(frozen=True)
class InteractionGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]   # (source, target, weight), sorted
    out_degree: Mapping[str, int]             # distinct reply targets
    in_degree: Mapping[str, int]              # distinct responders


def build_graph(dataset: Dataset) -> InteractionGraph:
    """Reply edges between non-sentinel users; dangling parents are skipped."""
    weights: dict[tuple[str, str], int] = defaultdict(int)
    for comment in dataset.comments:
        source = comment.author
        if source in SENTINEL_AUTHORS:
            continue
        parent = dataset.resolve_parent(comment)
        if parent is None:
            continue
        target = parent.author
        if target in SENTINEL_AUTHORS or target == source:
            continue
        weights[(source, target)] += 1
    return graph_from_edges(tuple((s, t, weights[(s, t)]) for s, t in sorted(weights)))


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


def topic_spread(comments: Iterable[Comment],
                 dominant_by_post: Mapping[str, frozenset[int]],
                 ) -> Optional[tuple[float, dict[int, float]]]:
    """(tau, per-topic fractions) for one user's comments, or None.

    ``dominant_by_post`` maps a post id to its dominant topics, as
    ``DominantTopicAssignment.by_doc()`` returns. Only comments whose root
    post has at least one dominant topic count. None means the user made no
    such comment, which is distinct from any numeric spread value.
    """
    credit: dict[int, float] = defaultdict(float)
    counted = 0
    for comment in comments:
        topics = dominant_by_post.get(comment.root_post_id)
        if not topics:
            continue
        counted += 1
        share = 1.0 / len(topics)
        for t in topics:
            credit[t] += share
    if counted == 0:
        return None
    fractions = {t: c / counted for t, c in sorted(credit.items())}
    tau = sum(1.0 / (s * s) for s in fractions.values() if s > 0)
    return tau, fractions


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
    comments_by_user: dict[str, list[Comment]] = defaultdict(list)
    for comment in dataset.comments:
        if comment.author not in SENTINEL_AUTHORS:
            comments_by_user[comment.author].append(comment)
    if not comments_by_user:
        raise DataError("no commenters to score")
    max_count = max(len(c) for c in comments_by_user.values())
    dominant_by_post = assignment.by_doc() if assignment is not None else {}

    metrics = []
    for user in sorted(comments_by_user):
        user_comments = comments_by_user[user]
        count = len(user_comments)
        out_deg = graph.out_degree.get(user, 0)
        user_reach = reach(out_deg, count)
        spread = topic_spread(user_comments, dominant_by_post)
        record = dataset.author_by_name.get(user)
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
            aggregate_comment_score=record.aggregate_comment_score if record else 0,
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


def graphml_text(nodes: Sequence[str], edges: Sequence[tuple[str, str, int]]) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>',
        '  <graph id="interactions" edgedefault="directed">',
    ]
    for node in nodes:
        lines.append(f"    <node id={_quoteattr(node)}/>")
    for source, target, weight in edges:
        lines.append(f"    <edge source={_quoteattr(source)} target={_quoteattr(target)}>"
                     f"<data key=\"weight\">{weight}</data></edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def dot_text(nodes: Sequence[str], edges: Sequence[tuple[str, str, int]]) -> str:
    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph interactions {"]
    for node in nodes:
        lines.append(f"  {quote(node)};")
    for source, target, weight in edges:
        lines.append(f"  {quote(source)} -> {quote(target)} [weight={weight}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
