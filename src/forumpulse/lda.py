"""Latent Dirichlet Allocation fitted by collapsed Gibbs sampling.

The sampler integrates out the document-topic and topic-word distributions
and resamples one token label at a time from

    p(z = t) proportional to (n_dt + alpha) * (n_tw + beta) / (n_t + V*beta)

where the counts exclude the token being resampled. Point estimates use the
same smoothing:

    theta[d][t] = (n_dt + alpha) / (n_d + k*alpha)
    phi[t][w]   = (n_tw + beta)  / (n_t + V*beta)

and are averaged over count snapshots taken every SNAPSHOT_INTERVAL sweeps
after burn-in (the final sweep when no snapshot falls in that range).

Determinism contract: every document owns a private pseudo-random stream, a
Mersenne Twister seeded from SHA-256 of (seed, doc_id), and sweeps always
visit documents in doc-id order. The same corpus and config therefore
produce bit-identical models on any platform, and permuting document order
only permutes the rows of the result. The sweeps run in a compiled kernel
(gibbs.c) when one can be built and loaded, else in Python; both draw the
same numbers in the same order and give bit-identical models.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .corpus import Corpus, vocabulary_digest
from .errors import DataError
from .fileio import read_json, reading, sha256_file, write_text

SNAPSHOT_INTERVAL = 10

DEFAULT_BETA = 0.01
DEFAULT_ITERATIONS = 1000
DEFAULT_BURN_IN = 500


@dataclass(frozen=True)
class LdaConfig:
    """Sampler settings. ``alpha=None`` resolves to the 50/k convention."""

    k: int
    alpha: float | None = None
    beta: float = DEFAULT_BETA
    iterations: int = DEFAULT_ITERATIONS
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")

    @property
    def effective_alpha(self) -> float:
        return 50.0 / self.k if self.alpha is None else self.alpha


@dataclass(frozen=True)
class TopicModel:
    config: LdaConfig
    doc_ids: tuple[str, ...]
    terms: tuple[str, ...]
    theta: np.ndarray                       # (D, k) document-topic estimates
    phi: np.ndarray                         # (k, V) topic-word estimates
    assignments: tuple[tuple[int, ...], ...]  # final-sweep label per token
    log_likelihood_trace: tuple[float, ...]
    vocabulary_sha256: str

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def n_documents(self) -> int:
        return len(self.doc_ids)


class GibbsState:
    """Count tables exposed to the per-sweep hook (read-only use), as int64
    arrays that the sampler updates in place."""

    __slots__ = ("doc_topic_counts", "word_topic_counts", "topic_totals", "doc_totals")

    def __init__(self, doc_topic_counts, word_topic_counts, topic_totals, doc_totals):
        self.doc_topic_counts = doc_topic_counts   # (D, k)
        self.word_topic_counts = word_topic_counts  # (V, k)
        self.topic_totals = topic_totals            # (k,)
        self.doc_totals = doc_totals                # (D,)


def _doc_seed(seed: int, doc_id: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# The compiled sweep: gibbs.c, built on first use into the package's
# __pycache__ under a name keyed by the source and the flags, beside a
# digest of the built library. dlopen of a damaged library can kill the
# process, so a library whose digest does not match is built again.
_KERNEL_SOURCE = Path(__file__).with_name("gibbs.c")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _kernel_path() -> Path:
    key = hashlib.sha256(_KERNEL_SOURCE.read_bytes()
                         + "\0".join((_CC,) + _CFLAGS).encode("utf-8")).hexdigest()
    return _KERNEL_CACHE / f"gibbs-{key[:16]}.so"


def _library_intact(path: Path) -> bool:
    try:
        return path.with_suffix(".sha256").read_text(encoding="utf-8") == sha256_file(path)
    except OSError:
        return False


def _build_kernel(path: Path) -> bool:
    """Compile the kernel to ``path`` through a temp file, one builder at a
    time, unless an intact library is already there; False when it cannot
    be built."""
    import fcntl
    import subprocess

    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        with path.with_suffix(".lock").open("w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not _library_intact(path):
                subprocess.run([_CC, *_CFLAGS, "-o", str(tmp), str(_KERNEL_SOURCE)],
                               check=True, capture_output=True)
                digest = sha256_file(tmp)
                os.replace(tmp, path)
                write_text(path.with_suffix(".sha256"), digest)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True


@cache
def _kernel():
    """The loaded kernel library, or None when it can be neither built nor
    loaded."""
    import ctypes

    path = _kernel_path()
    if not _library_intact(path) and not _build_kernel(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None

    def array(dtype, ndim=1):
        return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags="C_CONTIGUOUS")

    shared = [array(np.int64), array(np.int32), array(np.int32),
              array(np.int64, 2), array(np.int64, 2), array(np.int64),
              array(np.uint32, 2)]
    lib.fp_gibbs_init.argtypes = [ctypes.c_int64, ctypes.c_int64,
                                  array(np.uint64)] + shared
    lib.fp_gibbs_sweep.argtypes = ([ctypes.c_int64, ctypes.c_int64, array(np.int64)]
                                   + shared + [ctypes.c_double] * 3
                                   + [array(np.float64)])
    lib.fp_gibbs_init.restype = lib.fp_gibbs_sweep.restype = None
    return lib


def kernel_name() -> str:
    """"c" when ``fit`` runs the compiled sweep, "python" when it falls back."""
    return "python" if _kernel() is None else "c"


# Sampler state shared by both kernels: sweep order, per-document token
# offsets, word ids and labels (flat), and the three count tables.
_Tables = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                np.ndarray, np.ndarray, np.ndarray]


def _compiled_sampler(lib, seeds: list[int], tables: _Tables, alpha: float,
                      beta: float, vbeta: float) -> Callable[[], None]:
    """Seed the streams and draw the initial labels in C; returns one sweep."""
    order, offsets, words, z, ndt, nwt, nt = tables
    n_docs, k = ndt.shape
    rngs = np.empty((n_docs, 625), dtype=np.uint32)   # MT19937 state + index
    lib.fp_gibbs_init(n_docs, k, np.asarray(seeds, dtype=np.uint64),
                      offsets, words, z, ndt, nwt, nt, rngs)
    return partial(lib.fp_gibbs_sweep, n_docs, k, order, offsets, words, z,
                   ndt, nwt, nt, rngs, alpha, beta, vbeta, np.empty(k))


def _python_sampler(seeds: list[int], tables: _Tables, alpha: float,
                    beta: float, vbeta: float) -> Callable[[], None]:
    """The pure-Python sampler: the fallback when the kernel is unavailable
    and the oracle it is tested against. Works on lists and copies them
    into the tables after the initial draws and after every sweep."""
    order, offsets, words, z, ndt, nwt, nt = tables
    n_docs, k = ndt.shape
    bounds = offsets.tolist()
    tokens = [words[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    rngs = [random.Random(s) for s in seeds]
    zl = [[rng.randrange(k) for _ in doc] for rng, doc in zip(rngs, tokens)]
    ndt_l = [[0] * k for _ in range(n_docs)]
    nwt_l = [[0] * k for _ in range(len(nwt))]
    nt_l = [0] * k
    for d, doc in enumerate(tokens):
        for w, t in zip(doc, zl[d]):
            ndt_l[d][t] += 1
            nwt_l[w][t] += 1
            nt_l[t] += 1

    def publish() -> None:
        ndt[:] = ndt_l
        nwt[:] = nwt_l
        nt[:] = nt_l
        z[:] = [t for zrow in zl for t in zrow]

    rk = range(k)
    cum = [0.0] * k

    def sweep() -> None:
        for d in order.tolist():
            rnd = rngs[d].random
            drow = ndt_l[d]
            zrow = zl[d]
            for j, w in enumerate(tokens[d]):
                t = zrow[j]
                drow[t] -= 1
                wrow = nwt_l[w]
                wrow[t] -= 1
                nt_l[t] -= 1
                total = 0.0
                for tt in rk:
                    total += (drow[tt] + alpha) * (wrow[tt] + beta) / (nt_l[tt] + vbeta)
                    cum[tt] = total
                t = bisect_right(cum, rnd() * total)
                if t >= k:  # guard against u == total after rounding
                    t = k - 1
                zrow[j] = t
                drow[t] += 1
                wrow[t] += 1
                nt_l[t] += 1
        publish()

    publish()
    return sweep


def fit(corpus: Corpus, config: LdaConfig,
        sweep_hook: Optional[Callable[[int, GibbsState], None]] = None) -> TopicModel:
    """Run the collapsed Gibbs sampler and return the fitted model.

    The sweeps run in the compiled kernel when it can be built and loaded,
    else in Python; both give bit-identical models.

    Args:
        corpus: non-empty corpus to fit.
        config: sampler settings; the same (corpus, config) pair always
            yields a bit-identical model.
        sweep_hook: optional callable invoked as hook(sweep_number, state)
            after every sweep (1-based), for diagnostics and testing.
    """
    n_docs = len(corpus.documents)
    if n_docs == 0:
        raise DataError("cannot fit a topic model on an empty corpus")
    k = config.k
    v_size = len(corpus.vocabulary)

    alpha = config.effective_alpha
    beta = config.beta
    vbeta = v_size * beta

    # Sparse (doc, word, count) triplets, for the tokens and the per-sweep
    # likelihood trace.
    d_idx = np.asarray([i for i, vec in enumerate(corpus.documents) for _ in vec],
                       dtype=np.intp)
    w_idx = np.asarray([word_id for vec in corpus.documents for word_id, _ in vec],
                       dtype=np.intp)
    counts = np.asarray([count for vec in corpus.documents for _, count in vec],
                        dtype=np.int64)
    cnt = counts.astype(np.float64)
    if not counts.sum():
        raise DataError("cannot fit a topic model on a corpus without tokens")
    if not (0 <= w_idx.min() and w_idx.max() < v_size):
        raise DataError("corpus holds a term id outside its vocabulary")
    if v_size < k:
        warnings.warn(f"vocabulary size {v_size} is smaller than k={k}",
                      stacklevel=2)

    # Document d's tokens are words[offsets[d]:offsets[d + 1]]: word ids
    # repeated by count, ascending word id.
    words = np.repeat(w_idx, counts).astype(np.int32)
    doc_totals = np.asarray([sum(count for _, count in vec) for vec in corpus.documents],
                            dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(doc_totals)))
    # Sweeps visit documents in doc-id order regardless of presentation order.
    order = np.asarray(sorted(range(n_docs), key=lambda i: corpus.doc_ids[i]),
                       dtype=np.int64)
    z = np.zeros(len(words), dtype=np.int32)
    ndt = np.zeros((n_docs, k), dtype=np.int64)   # document-topic counts
    nwt = np.zeros((v_size, k), dtype=np.int64)   # word-topic counts
    nt = np.zeros(k, dtype=np.int64)              # tokens per topic
    tables = (order, offsets, words, z, ndt, nwt, nt)
    seeds = [_doc_seed(config.seed, doc_id) for doc_id in corpus.doc_ids]
    lib = _kernel()
    if lib is not None:
        sweep_once = _compiled_sampler(lib, seeds, tables, alpha, beta, vbeta)
    else:
        sweep_once = _python_sampler(seeds, tables, alpha, beta, vbeta)

    state = GibbsState(ndt, nwt, nt, doc_totals)

    def estimates() -> tuple[np.ndarray, np.ndarray]:
        ndt_arr = ndt.astype(np.float64)
        theta = (ndt_arr + alpha) / (ndt_arr.sum(axis=1, keepdims=True) + k * alpha)
        nwt_arr = nwt.astype(np.float64).T
        phi = (nwt_arr + beta) / (nwt_arr.sum(axis=1, keepdims=True) + vbeta)
        return theta, phi

    def trace_value(theta: np.ndarray, phi: np.ndarray) -> float:
        p = np.einsum("nk,nk->n", theta[d_idx], phi[:, w_idx].T)
        return float(cnt @ np.log(p))

    snapshot_sweeps = {
        s for s in range(config.burn_in + 1, config.iterations + 1)
        if (s - config.burn_in) % SNAPSHOT_INTERVAL == 0
    } or {config.iterations}

    theta_acc = np.zeros((n_docs, k))
    phi_acc = np.zeros((k, v_size))
    n_snapshots = 0
    trace: list[float] = []

    for sweep in range(1, config.iterations + 1):
        sweep_once()
        theta_now, phi_now = estimates()
        trace.append(trace_value(theta_now, phi_now))
        if sweep in snapshot_sweeps:
            theta_acc += theta_now
            phi_acc += phi_now
            n_snapshots += 1
        if sweep_hook is not None:
            sweep_hook(sweep, state)

    theta = theta_acc / n_snapshots
    phi = phi_acc / n_snapshots
    theta.setflags(write=False)
    phi.setflags(write=False)

    labels = z.tolist()
    bounds = offsets.tolist()
    return TopicModel(
        config=config,
        doc_ids=corpus.doc_ids,
        terms=corpus.vocabulary.terms,
        theta=theta,
        phi=phi,
        assignments=tuple(tuple(labels[a:b]) for a, b in zip(bounds, bounds[1:])),
        log_likelihood_trace=tuple(trace),
        vocabulary_sha256=vocabulary_digest(corpus.vocabulary),
    )


def top_words(model: TopicModel, topic: int, n: int) -> list[str]:
    """The n highest-probability terms of a topic, ties broken by term id."""
    if not 0 <= topic < model.k:
        raise ValueError(f"topic {topic} out of range for k={model.k}")
    row = model.phi[topic]
    ranked = sorted(range(len(model.terms)), key=lambda w: (-row[w], w))
    return [model.terms[w] for w in ranked[:n]]


_MODEL_FORMAT = "forumpulse-model-v1"


def save_model(model: TopicModel, path: Path) -> None:
    payload = {
        "format": _MODEL_FORMAT,
        "config": {
            "k": model.config.k,
            "alpha": model.config.alpha,
            "beta": model.config.beta,
            "iterations": model.config.iterations,
            "burn_in": model.config.burn_in,
            "seed": model.config.seed,
        },
        "doc_ids": list(model.doc_ids),
        "terms": list(model.terms),
        "theta": [[float(x) for x in row] for row in model.theta],
        "phi": [[float(x) for x in row] for row in model.phi],
        "assignments": [list(row) for row in model.assignments],
        "log_likelihood_trace": [float(x) for x in model.log_likelihood_trace],
        "vocabulary_sha256": model.vocabulary_sha256,
    }
    write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_model(path: Path) -> TopicModel:
    """The model saved at ``path``; DataError when it is not a complete,
    consistent model file."""
    with reading(path, f"{_MODEL_FORMAT} file"):
        payload = read_json(path)
        if payload.get("format") != _MODEL_FORMAT:
            raise DataError(f"{path}: not a {_MODEL_FORMAT} file")
        theta = np.asarray(payload["theta"], dtype=np.float64)
        phi = np.asarray(payload["phi"], dtype=np.float64)
        theta.setflags(write=False)
        phi.setflags(write=False)
        model = TopicModel(
            config=LdaConfig(**payload["config"]),
            doc_ids=tuple(payload["doc_ids"]),
            terms=tuple(payload["terms"]),
            theta=theta,
            phi=phi,
            assignments=tuple(tuple(row) for row in payload["assignments"]),
            log_likelihood_trace=tuple(payload["log_likelihood_trace"]),
            vocabulary_sha256=payload["vocabulary_sha256"],
        )
    n_docs, k, v_size = model.n_documents, model.k, len(model.terms)
    if (theta.shape != (n_docs, k) or phi.shape != (k, v_size)
            or len(model.assignments) != n_docs):
        raise DataError(f"{path}: theta {theta.shape}, phi {phi.shape} and "
                        f"{len(model.assignments)} assignment rows do not fit "
                        f"{n_docs} documents, k={k} and {v_size} terms")
    return model
