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
only permutes the rows of the result.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .corpus import Corpus, vocabulary_digest
from .errors import DataError
from .fileio import write_text

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
    """Mutable count tables exposed to the per-sweep hook (read-only use)."""

    __slots__ = ("doc_topic_counts", "word_topic_counts", "topic_totals", "doc_totals")

    def __init__(self, doc_topic_counts, word_topic_counts, topic_totals, doc_totals):
        self.doc_topic_counts = doc_topic_counts   # D lists of k ints
        self.word_topic_counts = word_topic_counts  # V lists of k ints
        self.topic_totals = topic_totals            # k ints
        self.doc_totals = doc_totals                # D ints


def _doc_seed(seed: int, doc_id: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fit(corpus: Corpus, config: LdaConfig,
        sweep_hook: Optional[Callable[[int, GibbsState], None]] = None) -> TopicModel:
    """Run the collapsed Gibbs sampler and return the fitted model.

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
    if v_size < k:
        warnings.warn(f"vocabulary size {v_size} is smaller than k={k}",
                      stacklevel=2)

    alpha = config.effective_alpha
    beta = config.beta
    vbeta = v_size * beta

    # Tokens per document: word ids repeated by count, ascending word id.
    tokens: list[list[int]] = []
    for vector in corpus.documents:
        doc: list[int] = []
        for word_id, count in vector:
            doc.extend([word_id] * count)
        tokens.append(doc)
    doc_totals = [len(doc) for doc in tokens]

    # Sweeps visit documents in doc-id order regardless of presentation order.
    order = sorted(range(n_docs), key=lambda i: corpus.doc_ids[i])
    rngs = [random.Random(_doc_seed(config.seed, corpus.doc_ids[i]))
            for i in range(n_docs)]

    ndt = [[0] * k for _ in range(n_docs)]   # document-topic counts
    nwt = [[0] * k for _ in range(v_size)]   # word-topic counts
    nt = [0] * k                             # tokens per topic
    z: list[list[int]] = [[] for _ in range(n_docs)]
    for d in order:
        rng = rngs[d]
        drow = ndt[d]
        zrow = z[d]
        for w in tokens[d]:
            t = rng.randrange(k)
            zrow.append(t)
            drow[t] += 1
            nwt[w][t] += 1
            nt[t] += 1

    state = GibbsState(ndt, nwt, nt, doc_totals)

    # Sparse (doc, word, count) triplets for the per-sweep likelihood trace.
    d_idx = np.asarray([i for i, vec in enumerate(corpus.documents) for _ in vec],
                       dtype=np.intp)
    w_idx = np.asarray([word_id for vec in corpus.documents for word_id, _ in vec],
                       dtype=np.intp)
    cnt = np.asarray([count for vec in corpus.documents for _, count in vec],
                     dtype=np.float64)

    def estimates() -> tuple[np.ndarray, np.ndarray]:
        ndt_arr = np.asarray(ndt, dtype=np.float64)
        theta = (ndt_arr + alpha) / (ndt_arr.sum(axis=1, keepdims=True) + k * alpha)
        nwt_arr = np.asarray(nwt, dtype=np.float64).T
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

    rk = range(k)
    cum = [0.0] * k
    for sweep in range(1, config.iterations + 1):
        for d in order:
            rnd = rngs[d].random
            drow = ndt[d]
            doc = tokens[d]
            zrow = z[d]
            for j, w in enumerate(doc):
                t = zrow[j]
                drow[t] -= 1
                wrow = nwt[w]
                wrow[t] -= 1
                nt[t] -= 1
                total = 0.0
                for tt in rk:
                    total += (drow[tt] + alpha) * (wrow[tt] + beta) / (nt[tt] + vbeta)
                    cum[tt] = total
                t = bisect_right(cum, rnd() * total)
                if t >= k:  # guard against u == total after rounding
                    t = k - 1
                zrow[j] = t
                drow[t] += 1
                wrow[t] += 1
                nt[t] += 1

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

    return TopicModel(
        config=config,
        doc_ids=corpus.doc_ids,
        terms=corpus.vocabulary.terms,
        theta=theta,
        phi=phi,
        assignments=tuple(tuple(zrow) for zrow in z),
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


def log_likelihood(model: TopicModel, corpus: Corpus) -> float:
    """Log probability of the corpus tokens under the fitted estimates."""
    if model.vocabulary_sha256 != vocabulary_digest(corpus.vocabulary):
        raise ValueError("model was not fitted on this corpus (vocabulary differs)")
    if model.doc_ids != corpus.doc_ids:
        raise ValueError("model was not fitted on this corpus (documents differ)")
    total = 0.0
    for i, vector in enumerate(corpus.documents):
        theta_row = model.theta[i]
        for word_id, count in vector:
            total += count * float(np.log(theta_row @ model.phi[:, word_id]))
    return total


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
    with Path(path).open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != _MODEL_FORMAT:
        raise DataError(f"{path}: not a {_MODEL_FORMAT} file")
    theta = np.asarray(payload["theta"], dtype=np.float64)
    phi = np.asarray(payload["phi"], dtype=np.float64)
    theta.setflags(write=False)
    phi.setflags(write=False)
    return TopicModel(
        config=LdaConfig(**payload["config"]),
        doc_ids=tuple(payload["doc_ids"]),
        terms=tuple(payload["terms"]),
        theta=theta,
        phi=phi,
        assignments=tuple(tuple(row) for row in payload["assignments"]),
        log_likelihood_trace=tuple(payload["log_likelihood_trace"]),
        vocabulary_sha256=payload["vocabulary_sha256"],
    )
