"""Turn post text into a tokenized, vocabulary-indexed corpus.

Only posts are modeled (title + body); comments never enter the corpus.
Tokenization is deliberately simple and fully deterministic: lowercase,
URLs removed, non-alphanumeric characters treated as separators, tokens
shorter than two characters or without any letter dropped, stopwords
removed. A second corpus-level pass merges frequent adjacent pairs into
bigram tokens joined with an underscore ("credit_card").
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence

from .errors import DataError
from .fileio import read_json, write_csv, write_json
from .ingest import Dataset

DEFAULT_MIN_DF = 5
DEFAULT_MAX_DF_FRACTION = 0.5
DEFAULT_PHRASE_MIN_COUNT = 20

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_HAS_LETTER_RE = re.compile(r"[a-z]")

_CORPUS_META_FORMAT = "forumpulse-corpus-v1"


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    text = resources.files("forumpulse").joinpath("data/stopwords.txt").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Normalize one text into unigram tokens (no phrase merging here)."""
    if not text:
        return []
    if stopwords is None:
        stopwords = default_stopwords()
    text = _URL_RE.sub(" ", text.lower())
    out = []
    for token in _TOKEN_RE.findall(text):
        if len(token) < 2 or token in stopwords:
            continue
        if not _HAS_LETTER_RE.search(token):
            continue  # bare numbers are noise; "401k" survives
        out.append(token)
    return out


def merge_phrases(documents: Sequence[Sequence[str]], min_count: int) -> list[list[str]]:
    """Merge adjacent pairs occurring at least min_count times corpus-wide.

    The scan is greedy left to right and a token participates in at most one
    merge, so the pass emits plain bigrams and never recurses into longer
    phrases.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    pair_counts: Counter[tuple[str, str]] = Counter()
    for doc in documents:
        for i in range(len(doc) - 1):
            pair_counts[(doc[i], doc[i + 1])] += 1
    phrases = {pair for pair, n in pair_counts.items() if n >= min_count}

    merged_docs = []
    for doc in documents:
        merged: list[str] = []
        i = 0
        while i < len(doc):
            if i + 1 < len(doc) and (doc[i], doc[i + 1]) in phrases:
                merged.append(doc[i] + "_" + doc[i + 1])
                i += 2
            else:
                merged.append(doc[i])
                i += 1
        merged_docs.append(merged)
    return merged_docs


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]
    document_frequency: tuple[int, ...]

    def __post_init__(self):
        if len(self.terms) != len(set(self.terms)):
            raise ValueError("vocabulary terms must be distinct")

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Corpus:
    """Sparse term-count vectors over a fixed vocabulary.

    ``documents[i]`` is a tuple of (term_id, count) pairs sorted by term id,
    aligned with ``doc_ids[i]``. Posts whose vector came out empty are not
    documents; their ids are kept in ``excluded_doc_ids``.
    """

    documents: tuple[tuple[tuple[int, int], ...], ...]
    doc_ids: tuple[str, ...]
    vocabulary: Vocabulary
    total_tokens: int
    excluded_doc_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.documents)

    def document_tokens(self, i: int) -> list[str]:
        """Token multiset of document i (term-id order, repeats by count)."""
        terms = self.vocabulary.terms
        out: list[str] = []
        for term_id, count in self.documents[i]:
            out.extend([terms[term_id]] * count)
        return out


def tokenize_posts(dataset: Dataset,
                   phrase_min_count: int = DEFAULT_PHRASE_MIN_COUNT,
                   stopwords: frozenset[str] | None = None,
                   ) -> tuple[list[str], list[list[str]]]:
    """Tokenized title+body per post, phrase pass applied, aligned to post ids."""
    doc_ids = [post.id for post in dataset.posts]
    raw = [tokenize(post.title + " " + post.body, stopwords) for post in dataset.posts]
    return doc_ids, merge_phrases(raw, phrase_min_count)


def build_corpus(dataset: Dataset,
                 min_df: int = DEFAULT_MIN_DF,
                 max_df_fraction: float = DEFAULT_MAX_DF_FRACTION,
                 phrase_min_count: int = DEFAULT_PHRASE_MIN_COUNT,
                 stopwords: frozenset[str] | None = None) -> Corpus:
    """Build the corpus from post text.

    A term enters the vocabulary when it appears in at least ``min_df``
    posts and in at most ``max_df_fraction`` of the non-empty posts (both
    bounds inclusive). Term ids follow first occurrence over posts in id
    order, so the same dataset and settings always produce an identical
    corpus.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if not 0 < max_df_fraction <= 1:
        raise ValueError("max_df_fraction must be in (0, 1]")

    doc_ids, token_docs = tokenize_posts(dataset, phrase_min_count, stopwords)

    n_docs = sum(1 for doc in token_docs if doc)
    df: Counter[str] = Counter()
    for doc in token_docs:
        df.update(set(doc))

    max_df = max_df_fraction * n_docs
    keep: dict[str, int] = {}
    freq: list[int] = []
    for doc in token_docs:
        for token in doc:
            if token in keep:
                continue
            if min_df <= df[token] <= max_df:
                keep[token] = len(keep)
                freq.append(df[token])

    if not keep:
        distinct = len(df)
        raise DataError(
            f"empty vocabulary: {distinct} distinct terms over {n_docs} non-empty posts, "
            f"none satisfied min_df={min_df} and max_df={max_df_fraction:g} "
            f"(phrase_min_count={phrase_min_count})")

    vocabulary = Vocabulary(terms=tuple(keep), document_frequency=tuple(freq))

    documents = []
    kept_ids = []
    excluded = []
    total_tokens = 0
    for doc_id, doc in zip(doc_ids, token_docs):
        counts = Counter(keep[t] for t in doc if t in keep)
        if not counts:
            excluded.append(doc_id)
            continue
        vector = tuple(sorted(counts.items()))
        documents.append(vector)
        kept_ids.append(doc_id)
        total_tokens += sum(counts.values())

    return Corpus(
        documents=tuple(documents),
        doc_ids=tuple(kept_ids),
        vocabulary=vocabulary,
        total_tokens=total_tokens,
        excluded_doc_ids=tuple(excluded),
    )


def vocabulary_digest(vocabulary: Vocabulary) -> str:
    """Stable hash of the term list, used to tie models to their corpus."""
    import hashlib
    return hashlib.sha256("\x1f".join(vocabulary.terms).encode("utf-8")).hexdigest()


def save_corpus(corpus: Corpus, directory: Path) -> None:
    """Write the documented on-disk layout.

    vocabulary.tsv holds (id, term, df); documents.csv holds sparse triplets
    (doc_idx, term_id, count); docs.csv maps doc_idx to post id; meta.json
    carries totals and the excluded post ids.
    """
    directory = Path(directory)
    write_csv(directory / "vocabulary.tsv", ("id", "term", "df"),
              ((i, t, d) for i, (t, d) in
               enumerate(zip(corpus.vocabulary.terms, corpus.vocabulary.document_frequency))),
              delimiter="\t")
    write_csv(directory / "documents.csv", ("doc_idx", "term_id", "count"),
              ((i, term_id, count)
               for i, vector in enumerate(corpus.documents)
               for term_id, count in vector))
    write_csv(directory / "docs.csv", ("doc_idx", "post_id"),
              enumerate(corpus.doc_ids))
    write_json(directory / "meta.json", {
        "format": _CORPUS_META_FORMAT,
        "total_tokens": corpus.total_tokens,
        "n_documents": len(corpus.documents),
        "vocabulary_size": len(corpus.vocabulary),
        "excluded_doc_ids": list(corpus.excluded_doc_ids),
        "vocabulary_sha256": vocabulary_digest(corpus.vocabulary),
    })


def load_corpus(directory: Path) -> Corpus:
    directory = Path(directory)
    meta = read_json(directory / "meta.json")
    if meta.get("format") != _CORPUS_META_FORMAT:
        raise DataError(f"{directory}: not a {_CORPUS_META_FORMAT} directory")

    terms: list[str] = []
    freq: list[int] = []
    with (directory / "vocabulary.tsv").open("r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, term, df = line.rstrip("\n").split("\t")
            terms.append(term)
            freq.append(int(df))

    vectors: dict[int, list[tuple[int, int]]] = {}
    with (directory / "documents.csv").open("r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            doc_idx, term_id, count = (int(x) for x in line.rstrip("\n").split(","))
            vectors.setdefault(doc_idx, []).append((term_id, count))

    doc_ids: list[str] = []
    with (directory / "docs.csv").open("r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            idx, post_id = line.rstrip("\n").split(",", 1)
            if int(idx) != len(doc_ids):
                raise DataError(f"{directory / 'docs.csv'}: doc_idx {idx} where "
                                f"{len(doc_ids)} was expected")
            doc_ids.append(post_id)

    documents = tuple(tuple(vectors.get(i, ())) for i in range(len(doc_ids)))
    return Corpus(
        documents=documents,
        doc_ids=tuple(doc_ids),
        vocabulary=Vocabulary(terms=tuple(terms), document_frequency=tuple(freq)),
        total_tokens=meta["total_tokens"],
        excluded_doc_ids=tuple(meta["excluded_doc_ids"]),
    )
