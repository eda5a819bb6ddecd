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

import re
from dataclasses import dataclass
from itertools import compress
from math import log10
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError
from .fileio import reading, write_text
from .ingest import Dataset
from .topics import DominantTopicAssignment


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


# edges.csv: its header, then one line of source, target and weight per edge.
# A name may be empty: ingest keeps a record whose author is "".
_EDGE_LIST = re.compile(r"from,to,weight\n((?:[^,\n\r]*,[^,\n\r]*,[1-9][0-9]{0,17}\n)*)")


def load_graph(path: Path) -> InteractionGraph:
    """The graph whose edge list the graph stage wrote to ``path``
    (``edges.csv``); DataError when the file is not complete."""
    with reading(path, "edge list file"):
        match = _EDGE_LIST.fullmatch(Path(path).read_text(encoding="utf-8"))
        if match is None:
            raise ValueError("not a from,to,weight header and lines of two names and "
                             "a positive integer weight, each ending in a newline")
    cells = match[1].replace("\n", ",").split(",")[:-1]
    nodes = tuple(sorted(set(cells[0::3]).union(cells[1::3])))
    index = dict(zip(nodes, range(len(nodes))))
    source, target = (np.fromiter(map(index.__getitem__, cells[i::3]), dtype=np.int64,
                                  count=len(cells) // 3) for i in (0, 1))
    key = source * len(nodes) + target
    if np.any(source == target) or np.any(key[1:] <= key[:-1]):
        raise DataError(f"{path}: corrupt edge list file (a self-reply, or edges "
                        f"not distinct and in order)")
    return InteractionGraph(nodes, source, target, np.array(cells[2::3], dtype=np.int64))


def save_graph(path: Path, fmt: str, graph: InteractionGraph) -> None:
    """A reply graph as an edge-list CSV (``edges.csv``, which ``load_graph``
    reads), GraphML or DOT file."""
    if fmt == "csv":
        write_text(path, _graph_text("from,to,weight\n", "", "%s,%s,%s\n", "", str, graph))
    else:
        write_text(path, (graphml_text if fmt == "graphml" else dot_text)(graph))


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


def topic_spread(dataset: Dataset, assignment: DominantTopicAssignment,
                 ) -> dict[str, tuple[float, dict[int, float]]]:
    """(tau, per-topic fractions) of each user, by name.

    Only comments by non-sentinel authors whose root post has at least one
    dominant topic under ``assignment`` count. A user without such a comment
    is absent, which is distinct from any numeric spread value. DataError
    when ``assignment`` names a post that is not in ``dataset``.
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
    out_degrees = dict(zip(graph.nodes, graph.out_degree.tolist()))
    in_degrees = dict(zip(graph.nodes, graph.in_degree.tolist()))

    metrics = []
    for u in np.flatnonzero(counts).tolist():
        user, count = dataset.authors[u], int(counts[u])
        out_deg = out_degrees.get(user, 0)
        user_reach = reach(out_deg, count)
        spread = spreads.get(user)
        metrics.append(UserMetrics(
            user=user,
            comment_count=count,
            out_degree=out_deg,
            in_degree=in_degrees.get(user, 0),
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


@dataclass(frozen=True, eq=False)
class Subgraph(InteractionGraph):
    selected: tuple[str, ...] = ()   # the ranked influencers anchoring the egonets


def top_influencers_subgraph(graph: InteractionGraph,
                             metrics: Sequence[UserMetrics],
                             top_k: int) -> Subgraph:
    """Induced subgraph around the top_k users by influence.

    Ties rank the larger comment count first, then the smaller user id. All
    direct neighbors (either direction) of the selected users are included,
    and the selected users themselves, with or without an edge.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ranked = sorted(metrics, key=lambda m: (-m.influence, -m.comment_count, m.user))
    selected = tuple(m.user for m in ranked[:top_k])

    anchor = np.fromiter(map(set(selected).__contains__, graph.nodes), dtype=bool,
                         count=len(graph.nodes))
    keep = anchor.copy()
    keep[graph.target[anchor[graph.source]]] = True
    keep[graph.source[anchor[graph.target]]] = True
    nodes = tuple(sorted(set(selected).union(compress(graph.nodes, keep.tolist()))))
    position = dict(zip(nodes, range(len(nodes))))
    renumber = np.array([position.get(name, -1) for name in graph.nodes], dtype=np.int64)
    edge = keep[graph.source] & keep[graph.target]
    return Subgraph(nodes, renumber[graph.source[edge]], renumber[graph.target[edge]],
                    graph.weight[edge], selected)


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
