"""Turn post text into a tokenized, vocabulary-indexed corpus.

Only posts are modeled (title + body); comments never enter the corpus.
Tokenization is deliberately simple and fully deterministic: lowercase,
URLs removed, non-alphanumeric characters treated as separators, tokens
shorter than two characters or without any letter dropped, stopwords
removed. A second corpus-level pass merges frequent adjacent pairs into
bigram tokens joined with an underscore ("credit_card").
"""

from __future__ import annotations

import io
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from operator import lt
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError
from .fileio import (COUNT, NAME, StageContext, read_json, read_table, reading, write_csv,
                     write_json, write_text)
from .ingest import Dataset, load_dataset

DEFAULT_MIN_DF = 5
DEFAULT_MAX_DF_FRACTION = 0.5
DEFAULT_PHRASE_MIN_COUNT = 20

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
# Maps each byte but [a-z0-9] to a space. UTF-8 encodes a character that is
# not ASCII in bytes >= 0x80 only, so the runs of [a-z0-9] in a str are the
# runs in its encoding.
_TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789"
_SEPARATORS = bytes(c if c in _TOKEN_BYTES else 32 for c in range(256))
_TRIPLETS_BODY_RE = re.compile(r"[0-9,\-\n]*")

_CORPUS_META_FORMAT = "forumpulse-corpus-v1"
# The files of a corpus directory, as save_corpus writes them.
CORPUS_FILES = ("vocabulary.tsv", "documents.csv", "docs.csv", "meta.json")
_TRIPLETS_HEADER = "doc_idx,term_id,count"
# Rows of documents.csv that save_corpus formats at a time.
_TRIPLETS_BLOCK = 4096


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    text = Path(__file__).with_name("data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(line for line in map(str.strip, text.splitlines())
                     if line and not line.startswith("#"))


_ARRAYS = ("offsets", "term_ids", "counts")


@dataclass(frozen=True, eq=False)
class Corpus:
    """Sparse term-count vectors over the distinct ``terms``, in CSR form.

    Document i, aligned with ``doc_ids[i]``, holds the term ids
    ``term_ids[offsets[i]:offsets[i + 1]]``, ascending, with their counts at
    the same positions of ``counts``. The three arrays are read-only int64.
    Posts whose vector came out empty are not documents; their ids are kept
    in ``excluded_doc_ids``. ValueError for offsets that do not fit the
    arrays, repeated terms, or ``doc_ids`` that are not strictly ascending
    in ``str`` order, the order of a Dataset's posts.
    """

    offsets: np.ndarray      # (n_docs + 1,), offsets[0] == 0
    term_ids: np.ndarray
    counts: np.ndarray
    doc_ids: tuple[str, ...]
    terms: tuple[str, ...]
    excluded_doc_ids: tuple[str, ...]

    def __post_init__(self):
        for name in _ARRAYS:
            array = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if (len(self.offsets) != len(self.doc_ids) + 1 or self.offsets[0] != 0
                or self.offsets[-1] != len(self.term_ids)
                or len(self.counts) != len(self.term_ids)):
            raise ValueError(f"offsets of length {len(self.offsets)} do not fit "
                             f"{len(self.doc_ids)} documents and {len(self.term_ids)} "
                             f"term ids with {len(self.counts)} counts")
        if len(self.terms) != len(set(self.terms)):
            raise ValueError("vocabulary terms must be distinct")
        if not all(map(lt, self.doc_ids, islice(self.doc_ids, 1, None))):
            raise ValueError("doc ids must be strictly ascending")

    def __len__(self) -> int:
        return len(self.doc_ids)

    @property
    def total_tokens(self) -> int:
        return int(self.counts.sum())

    @property
    def documents(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each document's (term_id, count) pairs, as tuples built from the
        arrays on every access."""
        pairs = tuple(zip(self.term_ids.tolist(), self.counts.tolist()))
        bounds = self.offsets.tolist()
        return tuple(pairs[a:b] for a, b in zip(bounds, bounds[1:]))


def _token_ids(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every distinct run of [a-z0-9] in the posts' lowercased titles and
    bodies with URLs removed, in first-occurrence order, and the tokens of
    the posts as int32 indices into them, each with its int32 post row, in
    post and then text order. A run shorter than two characters, a
    stopword or a run of digits is not a token: bare numbers are noise,
    "401k" survives. Lowercasing comes first, as it can make ASCII of a
    character that is not: U+212A KELVIN SIGN becomes "k"."""
    # Each token is numbered as its post is read, so that only one post's
    # token strings are alive at a time, and the numbers go straight into
    # the array, never into a list of them.
    number = defaultdict()
    number.default_factory = number.__len__
    lengths = []

    def numbered():
        for title, body in zip(dataset.posts.title, dataset.posts.body):
            text = _URL_RE.sub(" ", (title + " " + body).lower())
            tokens = text.encode("utf-8").translate(_SEPARATORS).split()
            lengths.append(len(tokens))
            yield map(number.__getitem__, tokens)

    ids = np.fromiter(chain.from_iterable(numbered()), dtype=np.int32)
    terms = [term.decode("ascii") for term in number]
    stopwords = default_stopwords()
    kept = np.fromiter((len(t) > 1 and t not in stopwords and not t.isdigit() for t in terms),
                       dtype=bool, count=len(terms))
    keep = kept[ids]
    posts = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)[keep]
    return terms, ids[keep], posts


def _pair_keys(a: np.ndarray, n: int, b: np.ndarray) -> np.ndarray:
    """The int64 key ``a * n + b`` of each pair of ``a`` and ``b``. numpy
    keeps an int32 array times a Python int in int32, so a key formed from
    int32 columns would wrap silently past 2**31."""
    keys = np.multiply(a, n, dtype=np.int64)
    keys += b
    return keys


def _after(mask: np.ndarray) -> np.ndarray:
    """Where the position before holds in ``mask``."""
    after = np.zeros_like(mask)
    after[1:] = mask[:-1]
    return after


def _merge_phrases(terms: list[str], ids: np.ndarray, posts: np.ndarray, min_count: int
                   ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The terms and the id and post row of each token after adjacent
    pairs within a post that occur at least ``min_count`` times in all
    are merged into one "a_b" term, the terms numbered in first-occurrence
    order.

    The scan is greedy left to right and a token takes part in at most one
    merge, so within a run of frequent pairs starting at position s the
    merges fall at s, s + 2, ...: the pass emits plain bigrams and never
    longer phrases.
    """
    n = len(terms)
    # The pair of tokens i and i + 1, with ids a and b, counts when the two
    # are of one post: it is keyed a * n + b, and its slot is the index of
    # its key among the distinct ones.
    within = posts[1:] == posts[:-1]
    keys = _pair_keys(ids[:-1][within], n, ids[1:][within])
    pairs, counts = np.unique(keys, return_counts=True)
    slots = np.searchsorted(pairs, keys).astype(np.int32)
    frequent = np.zeros(len(ids), dtype=bool)
    frequent[:-1][within] = (counts >= min_count)[slots]
    del keys, counts
    position = np.arange(len(ids), dtype=np.int32)
    starts = frequent & ~_after(frequent)
    run_start = np.maximum.accumulate(np.where(starts, position, 0))
    merged = frequent & ((position - run_start) % 2 == 0)
    del position, starts, run_start, frequent
    # A term's code: a token's id, or n + the slot of a merged pair, in
    # int32 while there are fewer than 2**30 tokens.
    codes = ids.copy()
    codes[:-1][merged[:-1]] = slots[merged[:-1][within]] + n
    del within, slots
    kept = ~_after(merged)
    codes, posts = codes[kept], posts[kept]
    del merged, kept
    # The codes ranked by their first occurrence: the codes at those
    # positions, in order, are the distinct codes in rank order.
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    is_first = np.zeros(len(codes), dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first, dtype=np.int32)[first] - 1
    names = [terms[c] if c < n
             else "_".join(map(terms.__getitem__, divmod(int(pairs[c - n]), n)))
             for c in codes[is_first].tolist()]
    return names, rank[inverse], posts


def _vectors(posts: np.ndarray, tokens: np.ndarray, n_all: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (post, term) pairs of the tokens, sorted by post and
    then by term, and the number of tokens of each: the posts' sparse
    vectors over ``n_all`` terms."""
    keys, counts = np.unique(_pair_keys(posts, n_all, tokens), return_counts=True)
    posts, tokens = np.divmod(keys, n_all)
    return posts, tokens, counts


def build_corpus(dataset: Dataset,
                 min_df: int = DEFAULT_MIN_DF,
                 max_df_fraction: float = DEFAULT_MAX_DF_FRACTION,
                 phrase_min_count: int = DEFAULT_PHRASE_MIN_COUNT) -> Corpus:
    """Build the corpus from post text, the phrase pass applied.

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
    if phrase_min_count < 1:
        raise ValueError("phrase_min_count must be >= 1")

    terms, tokens, posts = _merge_phrases(*_token_ids(dataset), phrase_min_count)
    n_posts = len(dataset.posts)
    n_all = len(terms)
    posts, tokens, counts = _vectors(posts, tokens, n_all)
    n_docs = np.count_nonzero(np.bincount(posts))
    df = np.bincount(tokens, minlength=n_all)
    keep = (min_df <= df) & (df <= max_df_fraction * n_docs)
    if not keep.any():
        raise DataError(
            f"empty vocabulary: {n_all} distinct terms over {n_docs} non-empty posts, "
            f"none satisfied min_df={min_df} and max_df={max_df_fraction:g} "
            f"(phrase_min_count={phrase_min_count})")

    kept = keep[tokens]
    counts = counts[kept]
    per_post = np.bincount(posts[kept], minlength=n_posts)
    nonempty = (per_post > 0).tolist()
    post_ids = dataset.posts.id
    return Corpus(
        offsets=np.concatenate(([0], np.cumsum(per_post[per_post > 0]))),
        term_ids=(np.cumsum(keep) - 1)[tokens[kept]],
        counts=counts,
        doc_ids=_copies([i for i, d in zip(post_ids, nonempty) if d]),
        terms=tuple(t for t, k in zip(terms, keep.tolist()) if k),
        excluded_doc_ids=_copies([i for i, d in zip(post_ids, nonempty) if not d]),
    )


def _copies(ids: list[str]) -> tuple[str, ...]:
    """New str objects equal to ``ids``, post ids, which hold no newline.
    A parsed dataset's ids sit among the parse's freed blocks; a corpus that
    held them would keep those pymalloc arenas alive after the dataset is
    gone."""
    # split copies each cell out of the joined text; a lone id would come
    # back as itself but for the empty cell after it.
    return tuple("\n".join([*ids, ""]).split("\n")[:-1])


def vocabulary_digest(terms: tuple[str, ...]) -> str:
    """Stable hash of the term list, used to tie models to their corpus."""
    import hashlib
    return hashlib.sha256("\x1f".join(terms).encode("utf-8")).hexdigest()


def _triplet_blocks(corpus: Corpus) -> Iterator[str]:
    """The text of documents.csv, a block of rows at a time: one template
    over every triplet would hold three int objects per row at once, and a
    doc_idx column as long as the triplets beside them."""
    yield f"{_TRIPLETS_HEADER}\n"
    n_triplets = len(corpus.term_ids)
    for start in range(0, n_triplets, _TRIPLETS_BLOCK):
        stop = min(start + _TRIPLETS_BLOCK, n_triplets)
        # A triplet's document is the last whose offset is at most its row.
        doc_idx = np.searchsorted(corpus.offsets, np.arange(start, stop), side="right") - 1
        rows = np.column_stack((doc_idx, corpus.term_ids[start:stop], corpus.counts[start:stop]))
        yield "%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())


def save_corpus(corpus: Corpus, directory: Path) -> None:
    """Write the documented on-disk layout.

    vocabulary.tsv holds (id, term, df), df the number of documents that
    hold the term; documents.csv holds sparse triplets
    (doc_idx, term_id, count), in doc_idx and then term id order; docs.csv
    maps doc_idx to post id; meta.json carries totals and the excluded post
    ids.
    """
    vocabulary_path, documents_path, docs_path, meta_path = (
        Path(directory) / name for name in CORPUS_FILES)
    # np.bincount would copy the read-only term ids first; np.add.at does not.
    df = np.zeros(len(corpus.terms), dtype=np.int64)
    np.add.at(df, corpus.term_ids, 1)
    df = df.tolist()
    write_csv(vocabulary_path, ("id", "term", "df"),
              zip(range(len(df)), corpus.terms, df), delimiter="\t")
    write_text(documents_path, _triplet_blocks(corpus))
    write_csv(docs_path, ("doc_idx", "post_id"), enumerate(corpus.doc_ids))
    write_json(meta_path, {
        "format": _CORPUS_META_FORMAT,
        "total_tokens": corpus.total_tokens,
        "n_documents": len(corpus),
        "vocabulary_size": len(corpus.terms),
        "excluded_doc_ids": list(corpus.excluded_doc_ids),
        "vocabulary_sha256": vocabulary_digest(corpus.terms),
    })


def _read_triplets(path: Path, n_documents: int, vocabulary_size: int) -> np.ndarray:
    """The (doc_idx, term_id, count) rows of ``documents.csv``; DataError
    unless every line is three integers, a doc_idx and a term id in range
    and a count >= 1, in doc_idx order with ascending, distinct term ids
    within a document."""
    with reading(path, "document triplets file"):
        text = path.read_text(encoding="utf-8")
        header, _, body = text.partition("\n")
        if header != _TRIPLETS_HEADER or not text.endswith("\n"):
            raise ValueError(f"not a {_TRIPLETS_HEADER!r} header and whole lines")
        # np.loadtxt would parse "1.0" or "1e0" in an int64 column as a
        # truncated float on some NumPy versions.
        if not _TRIPLETS_BODY_RE.fullmatch(body):
            raise ValueError("a cell is not an integer")
        rows = (np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",",
                           comments=None, ndmin=2)
                if body else np.empty((0, 3), dtype=np.int64))
        if rows.shape[1:] != (3,) or len(rows) != body.count("\n"):
            raise ValueError("a line is not three cells")

    doc_idx, term_ids, counts = rows.T
    step = np.diff(doc_idx, prepend=0)
    for what, bad in (
            ("doc_idx, term_id or count out of range",
             (doc_idx < 0) | (doc_idx >= n_documents) | (term_ids < 0)
             | (term_ids >= vocabulary_size) | (counts < 1)),
            ("doc_idx decreases or a term id does not increase",
             (step < 0) | ((step == 0) & (np.diff(term_ids, prepend=-1) <= 0)))):
        if bad.any():
            line = int(np.argmax(bad))
            raise DataError(f"{path}: {what} on line {line + 2}: "
                            f"{','.join(map(str, rows[line]))!r}")
    return rows


def load_corpus(directory: Path) -> Corpus:
    """The corpus saved under ``directory``; DataError when a file is not
    complete, an id of ``vocabulary.tsv`` or ``docs.csv`` is not its row
    number, the files do not agree with ``meta.json`` or each other, or the
    Corpus refuses them."""
    vocabulary_path, documents_path, docs_path, meta_path = (
        Path(directory) / name for name in CORPUS_FILES)
    with reading(meta_path, f"{_CORPUS_META_FORMAT} meta file"):
        meta = read_json(meta_path)
        if meta.get("format") != _CORPUS_META_FORMAT:
            raise DataError(f"{directory}: not a {_CORPUS_META_FORMAT} directory")
        total_tokens = int(meta["total_tokens"])
        n_documents = int(meta["n_documents"])
        vocabulary_size = int(meta["vocabulary_size"])
        excluded = tuple(meta["excluded_doc_ids"])
        digest = meta["vocabulary_sha256"]

    with reading(vocabulary_path, "vocabulary file"):
        ids, terms, freq = read_table(vocabulary_path, ("id", "term", "df"),
                                      (COUNT, "[^\t\n\r]+", COUNT), "\t")
    with reading(docs_path, "document id file"):
        doc_idx, doc_ids = read_table(docs_path, ("doc_idx", "post_id"), (COUNT, NAME))
    for path, name, cells in ((vocabulary_path, "id", ids), (docs_path, "doc_idx", doc_idx)):
        n = next((n for n, cell in enumerate(cells) if cell != str(n)), None)
        if n is not None:
            raise DataError(f"{path}: {name} {cells[n]} where {n} was expected")
    triplets = _read_triplets(documents_path, n_documents, vocabulary_size)

    for path, what, found, recorded in (
            (vocabulary_path, "terms", len(terms), vocabulary_size),
            (docs_path, "documents", len(doc_ids), n_documents),
            (documents_path, "tokens", int(triplets[:, 2].sum()), total_tokens)):
        if found != recorded:
            raise DataError(f"{path}: {found} {what} where meta.json "
                            f"records {recorded}")
    if digest != vocabulary_digest(tuple(terms)):
        raise DataError(f"{meta_path}: vocabulary_sha256 is not the digest of the terms "
                        f"of {vocabulary_path.name}")
    if freq != list(map(str, np.bincount(triplets[:, 1], minlength=vocabulary_size).tolist())):
        raise DataError(f"{vocabulary_path}: a df is not its term's number of documents")
    # ValueError on doc ids out of order or repeated (a repeated term fails
    # the digest check above unless meta.json was written for it).
    with reading(docs_path, "document id file"):
        return Corpus(
            offsets=np.concatenate(
                ([0], np.cumsum(np.bincount(triplets[:, 0], minlength=n_documents)))),
            term_ids=triplets[:, 1],
            counts=triplets[:, 2],
            doc_ids=tuple(doc_ids),
            terms=tuple(terms),
            excluded_doc_ids=excluded,
        )


def corpus_stage(ctx: StageContext) -> Corpus:
    p = ctx.params
    corpus = build_corpus(ctx.load("dataset.json", load_dataset),
                          min_df=p["corpus.min_df"],
                          max_df_fraction=p["corpus.max_df_fraction"],
                          phrase_min_count=p["corpus.phrase_min_count"])
    save_corpus(corpus, ctx.path("corpus"))
    ctx.parsed["corpus"] = corpus
    return corpus
