"""Lexical category profiling and its PCA.

Category scoring is plain normalized matching: the score of category c for
a post is the fraction of the post's tokens found in c's word set. The
resulting matrix is at most a few hundred columns wide, so the PCA works
on the category-space covariance directly: one symmetric eigendecomposition
(``np.linalg.eigh``) gives every component at once.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import Corpus, load_corpus
from .errors import DataError
from .fileio import StageContext, float_cells, reading, write_csv
from .topics import load_assignment

_NEGLIGIBLE_VARIANCE = 1e-12


def load_lexicon(path: Path) -> dict[str, frozenset[str]]:
    """Load a JSON lexicon mapping category name -> word array: each
    category's lowercased words, by name, in file order.

    Duplicate names and empty word lists are rejected.
    """
    # Each JSON object parses to the tuple of its (name, value) pairs in
    # file order, so a repeated name is still there to be rejected.
    with reading(path, "lexicon"), Path(path).open("r", encoding="utf-8") as fh:
        pairs = json.load(fh, object_pairs_hook=tuple)
    if not isinstance(pairs, tuple) or not pairs:
        raise DataError(f"{path}: lexicon must be a non-empty JSON object")
    lexicon = {}
    for name, wordlist in pairs:
        if name in lexicon:
            raise DataError(f"{path}: duplicate category {name!r}")
        if not isinstance(wordlist, list) or not wordlist:
            raise DataError(f"{path}: category {name!r} has no words")
        lexicon[name] = frozenset(str(w).lower() for w in wordlist)
    return lexicon


def demo_lexicon() -> dict[str, frozenset[str]]:
    """The small general-purpose lexicon shipped with the package."""
    return load_lexicon(Path(__file__).with_name("data") / "demo_lexicon.json")


def categorize(corpus: Corpus, lexicon: dict[str, frozenset[str]]) -> np.ndarray:
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
    for j, wordset in enumerate(lexicon.values()):
        member = np.zeros(len(index), dtype=bool)
        member[[index[w] for w in wordset if w in index]] = True
        hits[:, j] = per_document(np.where(member[corpus.term_ids], corpus.counts, 0))
    totals = per_document(corpus.counts)
    inv_totals = np.divide(1.0, totals, out=np.zeros(len(totals)), where=totals > 0)
    rows = hits * inv_totals[:, None]
    rows.setflags(write=False)
    return rows


def pca(rows: np.ndarray, n_comp: int
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Principal components of the (documents, categories) matrix ``rows``:
    the read-only (n_comp, categories) orthonormal components, their
    explained variances (non-negative, non-increasing), the (documents,
    n_comp) projections of the centered rows, and the components flagged as
    beyond-rank noise.

    The components are the eigenvectors of the population covariance with
    the ``n_comp`` largest eigenvalues, from one ``np.linalg.eigh``. The sign
    of each component is fixed by making its largest-magnitude entry
    positive. Components asked for beyond the rank of the data come back
    with explained variance ~ 0 and are listed in the last item.
    """
    n_docs, n_cats = rows.shape
    if not 1 <= n_comp <= min(n_docs, n_cats):
        raise ValueError(
            f"n_comp must be in [1, min(n_docs={n_docs}, n_categories={n_cats})]")

    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / n_docs
    scale = max(float(np.trace(cov)), 1.0)
    # eigh returns the eigenvalues ascending, with the eigenvectors as columns.
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    variance = np.maximum(eigenvalues[::-1][:n_comp], 0.0)
    components = eigenvectors.T[::-1][:n_comp].copy()
    pivots = np.argmax(np.abs(components), axis=1)
    components *= np.sign(components[np.arange(n_comp), pivots])[:, None]
    negligible = tuple(np.flatnonzero(variance <= _NEGLIGIBLE_VARIANCE * scale).tolist())

    projections = centered @ components.T
    components.setflags(write=False)
    variance.setflags(write=False)
    projections.setflags(write=False)
    return components, variance, projections, negligible


def topicwise_profile(projections: np.ndarray, assignment) -> np.ndarray:
    """The read-only (k, components) mean of the PCA ``projections`` over the
    posts where each topic is dominant; a topic dominant in no post has a
    NaN row.

    Each topic's scores are summed in post order, as a loop over the posts
    would add them."""
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


def lexicon_stage(ctx: StageContext) -> np.ndarray:
    """The PCA components; the demo lexicon stands in when ``lexicon.path`` is None."""
    # Both inputs are read before the first output is written, so a bad
    # one fails the stage with nothing written.
    corpus = ctx.load("corpus", load_corpus)
    assignment = ctx.load("dominance.csv", load_assignment)
    if assignment.doc_ids != corpus.doc_ids:    # the profile pairs rows by position
        raise DataError(f"{ctx.path('dominance.csv')}: its posts are not the corpus's "
                        f"documents in corpus order")
    lexicon = (ctx.load("lexicon.path", load_lexicon)
               if ctx.params["lexicon.path"] is not None else demo_lexicon())
    rows = categorize(corpus, lexicon)
    write_csv(ctx.path("category_matrix.csv"), ("post_id", *lexicon),
              zip(corpus.doc_ids, *float_cells(rows).T.tolist()))
    n_comp = min(ctx.params["lexicon.components"], *rows.shape)
    components, variance, projections, negligible = pca(rows, n_comp)
    write_csv(ctx.path("pca_components.csv"), ("component", *lexicon),
              ((i,) + tuple(float(x) for x in row) for i, row in enumerate(components)))
    write_csv(ctx.path("pca_variance.csv"),
              ("component", "explained_variance", "negligible"),
              ((i, float(v), 1 if i in negligible else 0) for i, v in enumerate(variance)))
    profiles = topicwise_profile(projections, assignment)
    write_csv(ctx.path("topic_profiles.csv"),
              ("topic",) + tuple(f"component_{i}" for i in range(n_comp)),
              ((t,) + tuple("" if np.isnan(x) else float(x) for x in row)
               for t, row in enumerate(profiles)))
    return components
