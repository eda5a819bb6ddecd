"""Lexical category profiling and a small dependency-free PCA.

Category scoring is plain normalized matching: the score of category c for
a post is the fraction of the post's tokens found in c's word set. The
resulting matrix is at most a few hundred columns wide, so the PCA works
on the category-space covariance directly, extracting one eigenpair at a
time by power iteration with deflation.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .errors import DataError
from .fileio import read_json, reading

PCA_RESIDUAL_TOL = 1e-10
PCA_MAX_ITER = 10_000
_PCA_SEED = 20_240_601
_NEGLIGIBLE_VARIANCE = 1e-12


@dataclass(frozen=True)
class Lexicon:
    categories: tuple[str, ...]
    words: tuple[frozenset[str], ...]

    def __len__(self) -> int:
        return len(self.categories)


def load_lexicon(path: Path) -> Lexicon:
    """Load a JSON lexicon mapping category name -> word array.

    Category order follows the file. Duplicate names and empty word lists
    are rejected.
    """
    with reading(path, "lexicon"):
        payload = read_json(path)
    if not isinstance(payload, dict) or not payload:
        raise DataError(f"{path}: lexicon must be a non-empty JSON object")
    categories = []
    words = []
    for name, wordlist in payload.items():
        if name in categories:
            raise DataError(f"{path}: duplicate category {name!r}")
        if not isinstance(wordlist, list) or not wordlist:
            raise DataError(f"{path}: category {name!r} has no words")
        categories.append(name)
        words.append(frozenset(str(w).lower() for w in wordlist))
    return Lexicon(categories=tuple(categories), words=tuple(words))


def demo_lexicon() -> Lexicon:
    """The small general-purpose lexicon shipped with the package."""
    with resources.as_file(
            resources.files("forumpulse").joinpath("data/demo_lexicon.json")) as path:
        return load_lexicon(path)


def categorize(corpus: Corpus, lexicon: Lexicon) -> np.ndarray:
    """The read-only (documents, categories) scores of each document of
    ``corpus`` against every lexicon category, in corpus and lexicon order;
    each entry is in [0, 1].

    A document's hits in a category are an exact integer: the counts of its
    terms that are category words. Its row is those hits times the
    reciprocal of its token total, and zero for a document without tokens.
    """
    if len(lexicon) == 0:
        raise DataError("lexicon has no categories")
    running = np.zeros(len(corpus.counts) + 1, dtype=np.int64)

    def per_document(values: np.ndarray) -> np.ndarray:
        # Per-document sums of per-pair values: running sums at the offsets.
        np.cumsum(values, out=running[1:])
        return np.diff(running[corpus.offsets])

    index = {term: i for i, term in enumerate(corpus.vocabulary.terms)}
    hits = np.zeros((len(corpus), len(lexicon)), dtype=np.int64)
    for j, wordset in enumerate(lexicon.words):
        member = np.zeros(len(index), dtype=bool)
        member[[index[w] for w in wordset if w in index]] = True
        hits[:, j] = per_document(np.where(member[corpus.term_ids], corpus.counts, 0))
    totals = per_document(corpus.counts)
    inv_totals = np.divide(1.0, totals, out=np.zeros(len(totals)), where=totals > 0)
    rows = hits * inv_totals[:, None]
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class PcaResult:
    components: np.ndarray           # (n_comp, n_categories), orthonormal rows
    explained_variance: np.ndarray   # non-negative, non-increasing
    projections: np.ndarray          # (n_docs, n_comp)
    mean: np.ndarray                 # per-category mean of the input rows
    negligible: tuple[int, ...]      # components flagged as beyond-rank noise


def _orthogonalize(vector: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for b in basis:
        vector = vector - (vector @ b) * b
    return vector


def _completion_vector(basis: list[np.ndarray], n: int) -> np.ndarray:
    # Deterministic unit vector orthogonal to the basis, for zero-variance
    # directions: first standard basis vector with a usable residual.
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        e = _orthogonalize(e, basis)
        norm = float(np.linalg.norm(e))
        if norm > 0.5:
            return e / norm
    raise AssertionError("no orthogonal completion found")


def _dominant_eigenpair(cov: np.ndarray, basis: list[np.ndarray],
                        scale: float, rng: np.random.Generator
                        ) -> tuple[np.ndarray, float]:
    # Up to 3 restarts share the PCA_MAX_ITER budget for this component.
    n = cov.shape[0]
    tol = PCA_RESIDUAL_TOL * scale
    budget = PCA_MAX_ITER
    best: tuple[float, np.ndarray, float] | None = None
    for _ in range(3):
        v = _orthogonalize(rng.standard_normal(n), basis)
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            continue
        v /= norm
        while budget > 0:
            budget -= 1
            w = _orthogonalize(cov @ v, basis)
            norm = float(np.linalg.norm(w))
            if norm < tol:
                return _completion_vector(basis, n), 0.0
            v = w / norm
            lam = float(v @ cov @ v)
            residual = float(np.linalg.norm(cov @ v - lam * v))
            if residual <= tol:
                return v, lam
        if best is None or residual < best[0]:
            best = (residual, v, lam)
        if budget <= 0:
            break
    assert best is not None
    return best[1], best[2]


def pca(rows: np.ndarray, n_comp: int) -> PcaResult:
    """Principal components of the (documents, categories) matrix ``rows``.

    Eigenpairs of the population covariance are extracted largest-first by
    power iteration, deflating the matrix after each one; iteration stops
    when the eigen-residual drops below PCA_RESIDUAL_TOL (scaled by total
    variance). The sign of each component is fixed by making its
    largest-magnitude entry positive. Components asked for beyond the rank
    of the data come back with explained variance ~ 0 and are listed in
    ``negligible``.
    """
    n_docs, n_cats = rows.shape
    if not 1 <= n_comp <= min(n_docs, n_cats):
        raise ValueError(
            f"n_comp must be in [1, min(n_docs={n_docs}, n_categories={n_cats})]")

    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / n_docs
    scale = max(float(np.trace(cov)), 1.0)

    rng = np.random.default_rng(_PCA_SEED)
    basis: list[np.ndarray] = []
    eigenvalues: list[float] = []
    deflated = cov.copy()
    for _ in range(n_comp):
        v, lam = _dominant_eigenpair(deflated, basis, scale, rng)
        basis.append(v)
        eigenvalues.append(max(lam, 0.0))
        deflated = deflated - lam * np.outer(v, v)

    # Deflation returns eigenpairs largest-first up to numerics; enforce the
    # ordering, then fix signs.
    order = sorted(range(n_comp), key=lambda i: -eigenvalues[i])
    components = np.vstack([basis[i] for i in order])
    variance = np.asarray([eigenvalues[i] for i in order])
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0

    negligible = tuple(
        int(i) for i in range(n_comp)
        if variance[i] <= _NEGLIGIBLE_VARIANCE * scale)

    projections = centered @ components.T
    components.setflags(write=False)
    variance.setflags(write=False)
    projections.setflags(write=False)
    return PcaResult(components=components, explained_variance=variance,
                     projections=projections, mean=mean, negligible=negligible)


def topicwise_profile(pca_result: PcaResult, assignment) -> np.ndarray:
    """The read-only (k, components) mean component scores over the posts
    where each topic is dominant; a topic dominant in no post has a NaN row.

    Each topic's scores are summed in post order, as a loop over the posts
    would add them."""
    projections = pca_result.projections
    if assignment.mask.shape[0] != projections.shape[0]:
        raise ValueError("projections and dominant assignments are misaligned")
    post, topic = np.nonzero(assignment.mask)
    totals = np.zeros((assignment.k, projections.shape[1]))
    np.add.at(totals, topic, projections[post])
    counts = np.bincount(topic, minlength=assignment.k)
    profiles = np.full_like(totals, np.nan)
    defined = counts > 0
    profiles[defined] = totals[defined] / counts[defined, None]
    profiles.setflags(write=False)
    return profiles
