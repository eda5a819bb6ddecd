"""Skewness-driven model selection and dominant-topic analytics.

The selection heuristic scores a k-topic model by W_k, the number of
documents whose topic distribution has non-positive or undefined skewness
(Pearson second coefficient, population standard deviation). A positively
skewed distribution means at least one topic clearly dominates the
document; scanning k upward and keeping the k with minimal W_k picks the
coarsest model that leaves the fewest documents topicless.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus
from .errors import DataError
from .fileio import read_csv, reading, write_csv
from .ingest import Dataset
from .lda import LdaConfig, TopicModel, fit

_SUM_TOLERANCE = 1e-6


def skewness(dist: Sequence[float]) -> Optional[float]:
    """Pearson second-coefficient skewness, 3*(mean - median)/sigma.

    ``sigma`` is the population standard deviation. Returns None (undefined)
    for constant distributions, where sigma is zero; callers treat that as
    "no topic stands out".
    """
    values = np.asarray(dist, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("skewness needs a vector of at least 2 entries")
    if abs(float(values.sum()) - 1.0) > _SUM_TOLERANCE:
        raise ValueError("entries must sum to 1")
    # sigma is zero exactly when the vector is constant; testing that
    # directly avoids rounding noise in the mean turning an exactly uniform
    # distribution into a huge spurious skew.
    if bool(np.all(values == values[0])):
        return None
    mean = float(values.mean())
    sigma = float(np.sqrt(np.mean((values - mean) ** 2)))
    if sigma == 0.0:
        return None
    median = float(np.median(values))
    return 3.0 * (mean - median) / sigma


@dataclass(frozen=True)
class SkewnessReport:
    k: int
    per_doc_skewness: tuple[Optional[float], ...]
    w_k: int


def count_nonpositive(model: TopicModel) -> SkewnessReport:
    """W_k: documents whose skewness is <= 0 or undefined.

    Computes ``skewness`` of every row of theta at once, with the same
    operations per row, so each value equals the per-row result."""
    theta = model.theta
    if theta.ndim != 2 or theta.shape[1] < 2:
        raise ValueError("skewness needs a vector of at least 2 entries")
    if bool(np.any(np.abs(theta.sum(axis=1) - 1.0) > _SUM_TOLERANCE)):
        raise ValueError("entries must sum to 1")
    mean = theta.mean(axis=1)
    sigma = np.sqrt(np.mean((theta - mean[:, None]) ** 2, axis=1))
    undefined = np.all(theta == theta[:, :1], axis=1) | (sigma == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        skews = 3.0 * (mean - np.median(theta, axis=1)) / sigma
    per_doc = tuple(None if none else s
                    for none, s in zip(undefined.tolist(), skews.tolist()))
    w_k = sum(1 for s in per_doc if s is None or s <= 0)
    return SkewnessReport(k=model.k, per_doc_skewness=per_doc, w_k=w_k)


@dataclass(frozen=True)
class SelectKResult:
    k: int
    model: TopicModel
    reports: tuple[SkewnessReport, ...]


def select_k(corpus: Corpus, k_min: int, k_max: int, base: LdaConfig,
             patience: Optional[int] = None, progress=None) -> SelectKResult:
    """Scan k in [k_min, k_max], fit a model per k, keep the minimal-W_k one.

    Every fit reuses the seed policy of ``base`` so only k varies. Ties go
    to the smallest k. With ``patience`` set, the scan stops early after
    that many consecutive k values without improvement.
    """
    if k_min < 2:
        raise ValueError("k_min must be >= 2")
    if k_max < k_min:
        raise ValueError("k_max must be >= k_min")
    if patience is not None and patience < 1:
        raise ValueError("patience must be >= 1 when set")

    reports: list[SkewnessReport] = []
    best: tuple[int, TopicModel] | None = None
    best_w = None
    stale = 0
    for k in range(k_min, k_max + 1):
        model = fit(corpus, replace(base, k=k))
        report = count_nonpositive(model)
        reports.append(report)
        if progress is not None:
            progress(k, report.w_k)
        if best_w is None or report.w_k < best_w:
            best_w, best = report.w_k, (k, model)
            stale = 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break

    assert best is not None
    return SelectKResult(k=best[0], model=best[1], reports=tuple(reports))


@dataclass(frozen=True)
class DominantTopicAssignment:
    """Per-post dominant topic sets under the mu + sigma threshold rule.

    Topic i is dominant for a post when its probability strictly exceeds
    mu_i + sigma_i, computed over that topic's probabilities across all
    posts (population sigma). A post may have any number of dominant
    topics, including none.
    """

    doc_ids: tuple[str, ...]
    thresholds: tuple[tuple[float, float], ...]   # per topic (mu, sigma)
    dominant: tuple[frozenset[int], ...]
    topic_presence: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.thresholds)


def dominant_topics(model: TopicModel) -> DominantTopicAssignment:
    theta = model.theta
    mu = theta.mean(axis=0)
    sigma = np.sqrt(np.mean((theta - mu) ** 2, axis=0))
    mask = theta > mu + sigma
    # One set per distinct row of the mask, the rows told apart by their
    # bits packed into bytes.
    packed = np.packbits(mask, axis=1)
    _, first, rows = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                               return_index=True, return_inverse=True)
    sets = [frozenset(np.flatnonzero(mask[i]).tolist()) for i in first.tolist()]
    dominant = tuple(map(sets.__getitem__, rows.tolist()))
    return DominantTopicAssignment(
        doc_ids=model.doc_ids,
        thresholds=tuple((float(m), float(s)) for m, s in zip(mu, sigma)),
        dominant=dominant,
        topic_presence=_presence(dominant, model.k),
    )


def _presence(dominant: Sequence[frozenset[int]], k: int) -> tuple[float, ...]:
    """Per topic, the fraction of posts where it is dominant."""
    posts = Counter(chain.from_iterable(dominant))
    return tuple(posts[t] / len(dominant) for t in range(k))


def _topic_table(path: Path, width: int) -> tuple[tuple[float, ...], ...]:
    """The float cells after the topic column of each row of a per-topic
    CSV; its topics must be numbered 0, 1, ... in order."""
    with reading(path, "per-topic file"):
        rows = list(read_csv(path, width))
        if [int(row[0]) for row in rows] != list(range(len(rows))):
            raise ValueError("topics are not numbered 0, 1, ...")
        return tuple(tuple(float(x) for x in row[1:]) for row in rows)


def save_assignment(path: Path, assignment: DominantTopicAssignment) -> None:
    """Write ``assignment`` to ``path`` (``dominance.csv``) and its thresholds
    and topic presence to ``dominance_thresholds.csv`` and
    ``topic_presence.csv`` beside it, where ``load_assignment`` reads them."""
    path = Path(path)
    # Each distinct topic set spelled once: the posts share a few.
    cells = {topics: "|".join(map(str, sorted(topics))) for topics in set(assignment.dominant)}
    write_csv(path, ("post_id", "dominant_topics"),
              zip(assignment.doc_ids, map(cells.__getitem__, assignment.dominant)))
    write_csv(path.parent / "dominance_thresholds.csv", ("topic", "mu", "sigma"),
              ((t, mu, sigma) for t, (mu, sigma) in enumerate(assignment.thresholds)))
    write_csv(path.parent / "topic_presence.csv", ("topic", "presence_fraction"),
              enumerate(assignment.topic_presence))


def load_assignment(path: Path) -> DominantTopicAssignment:
    """The assignment the dominance stage wrote to ``path`` (``dominance.csv``)
    and to ``dominance_thresholds.csv`` and ``topic_presence.csv`` beside it;
    DataError when a file is not complete or the three do not agree."""
    path = Path(path)
    thresholds = _topic_table(path.parent / "dominance_thresholds.csv", 3)
    with reading(path, "dominance file"):
        doc_ids, cells = zip(*read_csv(path, 2))
        # Each distinct cell parsed once: the posts share a few topic sets.
        sets = {cell: frozenset(int(t) for t in cell.split("|") if t) for cell in set(cells)}
        if any(not 0 <= t < len(thresholds) for s in sets.values() for t in s):
            raise ValueError(f"a topic outside the {len(thresholds)} thresholds")
        dominant = tuple(map(sets.__getitem__, cells))
    presence = _presence(dominant, len(thresholds))
    if presence != tuple(p for (p,) in _topic_table(path.parent / "topic_presence.csv", 2)):
        raise DataError(f"{path}: dominant topics disagree with topic_presence.csv")
    return DominantTopicAssignment(doc_ids, thresholds, dominant, presence)


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Symmetric pair counts; the diagonal holds sole-dominant post counts."""

    counts: np.ndarray

    @property
    def k(self) -> int:
        return self.counts.shape[0]


def cooccurrence(assignment: DominantTopicAssignment) -> CooccurrenceMatrix:
    k = assignment.k
    counts = np.zeros((k, k), dtype=np.int64)
    for topics in assignment.dominant:
        if len(topics) == 1:
            (t,) = topics
            counts[t, t] += 1
            continue
        ordered = sorted(topics)
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                counts[ordered[a], ordered[b]] += 1
                counts[ordered[b], ordered[a]] += 1
    counts.setflags(write=False)
    return CooccurrenceMatrix(counts=counts)


def monthly_distribution(assignment: DominantTopicAssignment,
                         dataset: Dataset) -> dict[tuple[int, str], int]:
    """Posts per (topic, calendar month), UTC; multi-dominant posts count once
    per dominant topic."""
    row = dict(zip(dataset.posts.id, range(len(dataset.posts))))
    missing = next((doc_id for doc_id in assignment.doc_ids if doc_id not in row), None)
    if missing is not None:
        raise DataError(f"post {missing!r} not present in dataset")
    created = dataset.posts.created_at[[row[doc_id] for doc_id in assignment.doc_ids]]
    months = created.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    # Each month named once, from the time of its first post.
    distinct, first = np.unique(months, return_index=True)
    names = {month: datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m")
             for month, t in zip(distinct.tolist(), created[first].tolist())}
    counts = Counter((t, month) for month, topics in zip(months.tolist(), assignment.dominant)
                     for t in topics)
    return {(t, names[month]): n for (t, month), n in counts.items()}
