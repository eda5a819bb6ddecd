"""Skewness-driven model selection and dominant-topic analytics.

The selection heuristic scores a k-topic model by W_k, the number of
documents whose topic distribution has non-positive or undefined skewness
(Pearson second coefficient, population standard deviation). A positively
skewed distribution means at least one topic clearly dominates the
document; scanning k upward and keeping the k with minimal W_k picks the
coarsest model that leaves the fewest documents topicless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, load_corpus
from .errors import DataError
from .fileio import StageContext, read_csv, reading, write_csv
from .ingest import Dataset, load_dataset
from .lda import (LdaConfig, TopicModel, derive_seed, fit, kernel_name, load_model,
                  save_model, top_words)

_SUM_TOLERANCE = 1e-6
# The terms per topic in top_words.csv and report.json.
TOP_WORDS = 10
# The files of an assignment, side by side: the mask, thresholds and presence.
DOMINANCE_FILES = ("dominance.csv", "dominance_thresholds.csv", "topic_presence.csv")


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


def row_skewness(theta: np.ndarray) -> np.ndarray:
    """``skewness`` of every row of ``theta`` at once, NaN where it is
    undefined. Each row takes the same operations as ``skewness``, so each
    value equals the per-row result."""
    if theta.ndim != 2 or theta.shape[1] < 2:
        raise ValueError("skewness needs a vector of at least 2 entries")
    if bool(np.any(np.abs(theta.sum(axis=1) - 1.0) > _SUM_TOLERANCE)):
        raise ValueError("entries must sum to 1")
    mean = theta.mean(axis=1)
    sigma = np.sqrt(np.mean((theta - mean[:, None]) ** 2, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        skews = 3.0 * (mean - np.median(theta, axis=1)) / sigma
    skews[np.all(theta == theta[:, :1], axis=1) | (sigma == 0.0)] = np.nan
    return skews


def count_nonpositive(model: TopicModel) -> int:
    """W_k: documents whose skewness is <= 0 or undefined."""
    return int(np.count_nonzero(~(row_skewness(model.theta) > 0)))


def select_k(corpus: Corpus, k_min: int, k_max: int, base: LdaConfig,
             patience: Optional[int] = None, progress=None
             ) -> tuple[TopicModel, list[tuple[int, int]]]:
    """Scan k in [k_min, k_max], fit a model per k, keep the minimal-W_k one;
    returns it and the (k, W_k) of each k scanned, in k order.

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

    scan: list[tuple[int, int]] = []
    best: Optional[TopicModel] = None
    best_w = None
    stale = 0
    for k in range(k_min, k_max + 1):
        model = fit(corpus, replace(base, k=k))
        w_k = count_nonpositive(model)
        scan.append((k, w_k))
        if progress is not None:
            progress(k, w_k)
        if best_w is None or w_k < best_w:
            best_w, best = w_k, model
            stale = 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break
    return best, scan


@dataclass(frozen=True, eq=False)
class DominantTopicAssignment:
    """Per-post dominant topics under the mu + sigma threshold rule.

    Topic i is dominant for a post when its probability strictly exceeds
    mu_i + sigma_i, computed over that topic's probabilities across all
    posts (population sigma). A post may have any number of dominant
    topics, including none. ``mask`` is a read-only (posts, k) bool array:
    row p, column i is True when topic i is dominant in post ``doc_ids[p]``.
    """

    doc_ids: tuple[str, ...]
    thresholds: tuple[tuple[float, float], ...]   # per topic (mu, sigma)
    mask: np.ndarray

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def k(self) -> int:
        return self.mask.shape[1]

    @property
    def topic_presence(self) -> tuple[float, ...]:
        """Per topic, the fraction of posts where it is dominant."""
        return tuple((self.mask.sum(axis=0) / len(self.mask)).tolist())


def dominant_topics(model: TopicModel) -> DominantTopicAssignment:
    theta = model.theta
    mu = theta.mean(axis=0)
    sigma = np.sqrt(np.mean((theta - mu) ** 2, axis=0))
    return DominantTopicAssignment(
        doc_ids=model.doc_ids,
        thresholds=tuple((float(m), float(s)) for m, s in zip(mu, sigma)),
        mask=theta > mu + sigma,
    )


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
    and topic presence to the other ``DOMINANCE_FILES`` beside it, where
    ``load_assignment`` reads them."""
    path = Path(path)
    thresholds_path, presence_path = (path.parent / name for name in DOMINANCE_FILES[1:])
    # Each distinct row spelled once, the rows told apart by their bits
    # packed into bytes: the posts share a few.
    mask = assignment.mask
    packed = np.packbits(mask, axis=1)
    _, first, rows = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                               return_index=True, return_inverse=True)
    cells = ["|".join(map(str, np.flatnonzero(mask[i]).tolist())) for i in first.tolist()]
    write_csv(path, ("post_id", "dominant_topics"),
              zip(assignment.doc_ids, map(cells.__getitem__, rows.tolist())))
    write_csv(thresholds_path, ("topic", "mu", "sigma"),
              ((t, mu, sigma) for t, (mu, sigma) in enumerate(assignment.thresholds)))
    write_csv(presence_path, ("topic", "presence_fraction"),
              enumerate(assignment.topic_presence))


def load_assignment(path: Path) -> DominantTopicAssignment:
    """The assignment the dominance stage wrote to ``path`` (``dominance.csv``)
    and to the other ``DOMINANCE_FILES`` beside it; DataError when a file is
    not complete or the three do not agree."""
    path = Path(path)
    thresholds_path, presence_path = (path.parent / name for name in DOMINANCE_FILES[1:])
    thresholds = _topic_table(thresholds_path, 3)
    with reading(path, "dominance file"):
        doc_ids, cells = zip(*read_csv(path, 2))
        if len(set(doc_ids)) != len(doc_ids):
            raise ValueError("a post id more than once")
        # Each distinct cell parsed once, into the bytes of its mask row:
        # the posts share a few topic sets.
        rows = {}
        for cell in set(cells):
            topics = [int(t) for t in cell.split("|") if t]
            if any(not 0 <= t < len(thresholds) for t in topics):
                raise ValueError(f"a topic outside the {len(thresholds)} thresholds")
            rows[cell] = np.isin(np.arange(len(thresholds)), topics).tobytes()
    mask = np.frombuffer(b"".join(map(rows.__getitem__, cells)), dtype=bool)
    assignment = DominantTopicAssignment(doc_ids, thresholds,
                                         mask.reshape(len(cells), len(thresholds)))
    if assignment.topic_presence != tuple(p for (p,) in _topic_table(presence_path, 2)):
        raise DataError(f"{path}: dominant topics disagree with topic_presence.csv")
    return assignment


def cooccurrence(assignment: DominantTopicAssignment) -> np.ndarray:
    """The read-only (k, k) int64 counts of posts where both topics are
    dominant; the diagonal instead counts the posts where its topic is the
    only dominant one."""
    mask = assignment.mask
    counts = mask.T.astype(np.int64) @ mask
    np.fill_diagonal(counts, mask[mask.sum(axis=1) == 1].sum(axis=0))
    counts.setflags(write=False)
    return counts


def monthly_distribution(assignment: DominantTopicAssignment,
                         dataset: Dataset) -> dict[tuple[int, str], int]:
    """Posts per (topic, calendar month), UTC; multi-dominant posts count once
    per dominant topic."""
    created = dataset.posts.created_at[dataset.post_rows(assignment.doc_ids)]
    months = created.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    # Each month named once, from the time of its first post.
    _, first, month = np.unique(months, return_index=True, return_inverse=True)
    names = [datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m")
             for t in created[first].tolist()]
    post, topic = np.nonzero(assignment.mask)
    counts = np.bincount(topic * len(names) + month[post],
                         minlength=assignment.k * len(names)).reshape(assignment.k, len(names))
    topics, month = np.nonzero(counts)
    return {(t, names[m]): n for t, m, n in zip(topics.tolist(), month.tolist(),
                                                 counts[topics, month].tolist())}


def topics_stage(ctx: StageContext) -> TopicModel:
    """The W_k-minimal model over [k_min, k_max], and the scan's rows; a
    fixed ``lda.k`` is the scan [k, k]."""
    started = time.perf_counter()
    p = ctx.params
    k_min = p["lda.k"] if p["lda.k"] is not None else p["lda.k_min"]
    k_max = p["lda.k"] if p["lda.k"] is not None else p["lda.k_max"]
    base = LdaConfig(k=k_min, alpha=p["lda.alpha"], beta=p["lda.beta"],
                     iterations=p["lda.iterations"], burn_in=p["lda.burn_in"],
                     seed=derive_seed(p["seed"], "lda"))
    model, scan = select_k(ctx.load("corpus", load_corpus), k_min, k_max, base,
                           patience=p["lda.patience"],
                           progress=lambda k, w: ctx.echo(f"[topics] k={k} W_k={w}"))
    sweeps = len(scan) * p["lda.iterations"]
    ll = model.log_likelihood_trace
    ctx.record.update(
        kernel=kernel_name(),
        sweeps=sweeps,
        sweeps_per_s=sweeps / (time.perf_counter() - started),
        trace_rel_change=(abs(ll[-1] - ll[-2]) / abs(ll[-2])
                          if len(ll) > 1 and ll[-2] != 0 else None))
    save_model(model, ctx.path("model.json"))
    ctx.parsed["model.json"] = model
    write_csv(ctx.path("skewness_scan.csv"), ("k", "w_k", "selected"),
              ((k, w_k, 1 if k == model.k else 0) for k, w_k in scan))
    write_csv(ctx.path("top_words.csv"), ("topic", "rank", "term"),
              ((t, rank, term) for t in range(model.k)
               for rank, term in enumerate(top_words(model, t, TOP_WORDS), 1)))
    return model


def load_selected_w_k(path: Path) -> int:
    """W_k of the k that ``skewness_scan.csv`` marks selected; DataError
    unless exactly one row is."""
    with reading(path, "skewness scan file"):
        selected = [int(w_k) for _, w_k, chosen in read_csv(path, 3) if chosen == "1"]
        if len(selected) != 1:
            raise ValueError(f"{len(selected)} selected rows where one was expected")
    return selected[0]


def load_top_words(path: Path, k: int) -> dict[str, list[str]]:
    """Each of the ``k`` topics' terms in ``top_words.csv``, by rank; DataError
    unless each topic has one term per rank 1 to n, n <= ``TOP_WORDS``."""
    with reading(path, "top words file"):
        rows = list(read_csv(path, 3))
        n = len(rows) // max(k, 1)
        if [(t, r) for t, r, _ in rows] != [(str(t), str(r)) for t in range(k)
                                            for r in range(1, n + 1)] \
                or not 1 <= n <= TOP_WORDS or not all(term for _, _, term in rows):
            raise ValueError(f"not 1 to {TOP_WORDS} ranked terms for each of {k} topics")
    return {str(t): [term for _, _, term in rows[t * n:(t + 1) * n]] for t in range(k)}


def dominance_stage(ctx: StageContext) -> DominantTopicAssignment:
    assignment = dominant_topics(ctx.load("model.json", load_model))
    save_assignment(ctx.path("dominance.csv"), assignment)
    ctx.parsed["dominance.csv"] = assignment
    return assignment


def cooccur_stage(ctx: StageContext) -> None:
    counts = cooccurrence(ctx.load("dominance.csv", load_assignment))
    i, j = np.triu_indices(len(counts))
    write_csv(ctx.path("cooccurrence.csv"), ("topic_i", "topic_j", "count"),
              zip(i.tolist(), j.tolist(), counts[i, j].tolist()))


def timeline_stage(ctx: StageContext) -> None:
    counts = monthly_distribution(ctx.load("dominance.csv", load_assignment),
                                  ctx.load("dataset.json", load_dataset))
    write_csv(ctx.path("monthly_topics.csv"), ("topic", "month", "count"),
              ((t, month, n) for (t, month), n in sorted(counts.items())))
