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
Mersenne Twister seeded from SHA-256 of (seed, doc_id), and sweeps visit the
documents as the corpus stores them, in ascending doc-id order, the only
order a Corpus takes. The same corpus and config therefore produce
bit-identical models on any platform. The sweeps run in a compiled kernel
(gibbs.c) when one can be built and loaded, else in Python; both draw the
same numbers in the same order and give bit-identical models.

A sweep hook can ask for the log-likelihood of the current counts'
estimates, ``GibbsState.likelihood()``,

    sum over (d, w) of count(d, w) * log(sum over t of theta[d][t] * phi[t][w])

with theta and phi computed as at a snapshot, summed in one fixed order: p
over the topics in turn, then the terms left to right over the (doc, word)
pairs in corpus order, with the C library's log. The kernel's pair sum and
its Python fallback sum it that way, so it depends on neither BLAS nor the
number of CPUs; ``fit`` itself never computes it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import warnings
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .corpus import Corpus, vocabulary_digest
from .errors import DataError
from .fileio import float_cells, read_json, reading, sha256_file, write_text

SNAPSHOT_INTERVAL = 10
# How far from 1 the sum of a row of theta or phi may be.
SUM_TOLERANCE = 1e-6

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
        try:
            finite = 0 < self.k * self.effective_alpha < math.inf
        except OverflowError:       # a k too large for a float
            finite = False
        if not finite:
            raise ValueError("alpha must be finite and > 0, and so must k * alpha")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and > 0")
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

    @property
    def k(self) -> int:
        return self.config.k


class GibbsState(NamedTuple):
    """Count tables exposed to the per-sweep hook (read-only use), as int64
    arrays that the sampler updates in place, the token labels ``z`` as a
    read-only int32 view: document d's labels follow those of documents
    0..d-1, ``doc_totals[d]`` of them, one per token in ascending word id;
    and ``likelihood``, which computes the current counts' log-likelihood."""

    doc_topic_counts: np.ndarray    # (D, k)
    word_topic_counts: np.ndarray   # (V, k)
    topic_totals: np.ndarray        # (k,)
    doc_totals: np.ndarray          # (D,)
    z: np.ndarray                   # (tokens,)
    likelihood: Callable[[], float]


def derive_seed(seed: int, name: str) -> int:
    """The seed of stage or document ``name`` under ``seed``, from SHA-256."""
    digest = hashlib.sha256(f"{seed}\x1f{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# The compiled kernel: gibbs.c, built on first use into the package's
# __pycache__ under a name keyed by the source and the build command, beside
# a digest of the built library. dlopen of a damaged library can kill the
# process, so a library whose digest does not match is built again.
_KERNEL_SOURCE = Path(__file__).with_name("gibbs.c")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_LDLIBS = ("-lm",)


def _kernel_argv(output: Path, *extra: str) -> list[str]:
    """The command that compiles the kernel to ``output``, with ``extra``
    flags. The libraries follow the source: placed before it, the linker
    drops them and the library resolves ``log`` only through its host."""
    return [_CC, *_CFLAGS, *extra, "-o", str(output), str(_KERNEL_SOURCE), *_LDLIBS]


def _kernel_path() -> Path:
    command = "\0".join((_CC,) + _CFLAGS + _LDLIBS).encode("utf-8")
    key = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + command).hexdigest()
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
                subprocess.run(_kernel_argv(tmp), check=True, capture_output=True)
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
    loaded. Its pointer arguments are raw addresses: ``_address`` checks
    each array once per fit instead of on every call."""
    import ctypes

    path = _kernel_path()
    if not _library_intact(path) and not _build_kernel(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.fp_gibbs_init.argtypes = [i64, i64] + [ptr] * 8
    lib.fp_gibbs_sweep.argtypes = [i64, i64] + [ptr] * 7 + [dbl] * 3 + [ptr]
    lib.fp_log_likelihood.argtypes = [i64, i64] + [ptr] * 5
    lib.fp_gibbs_init.restype = lib.fp_gibbs_sweep.restype = None
    lib.fp_log_likelihood.restype = dbl
    return lib


def kernel_name() -> str:
    """"c" when ``fit`` runs the compiled kernel, "python" when it falls back."""
    return "python" if _kernel() is None else "c"


@dataclass(frozen=True)
class _Tables:
    """Sampler state shared by both kernels. Document d's tokens are
    ``words[offsets[d]:offsets[d + 1]]``, word ids repeated by count in
    ascending word id, with their labels at the same positions of ``z``."""

    offsets: np.ndarray
    words: np.ndarray          # int32
    z: np.ndarray              # int32
    ndt: np.ndarray            # (D, k) document-topic counts
    nwt: np.ndarray            # (V, k) word-topic counts
    nt: np.ndarray             # (k,) tokens per topic


def _estimates(tables: _Tables, alpha: float, beta: float,
               vbeta: float) -> tuple[np.ndarray, np.ndarray]:
    """theta (D, k) and phi (k, V) of the current counts."""
    k = tables.ndt.shape[1]
    ndt_arr = tables.ndt.astype(np.float64)
    theta = (ndt_arr + alpha) / (ndt_arr.sum(axis=1, keepdims=True) + k * alpha)
    nwt_arr = tables.nwt.astype(np.float64).T
    phi = (nwt_arr + beta) / (nwt_arr.sum(axis=1, keepdims=True) + vbeta)
    return theta, phi


def _address(array: np.ndarray, dtype) -> "ctypes.c_void_p":
    """The address of ``array``'s data, as a pointer that keeps the array
    alive, once the array is C-contiguous and of ``dtype``."""
    import ctypes

    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"kernel argument must be a C-contiguous {np.dtype(dtype)} "
                        f"array, got {array.dtype}")
    return array.ctypes.data_as(ctypes.c_void_p)


def _compiled_sampler(lib, seeds: list[int], tables: _Tables, alpha: float,
                      beta: float, vbeta: float) -> Callable[[], None]:
    """Seed the streams and draw the initial labels in C; returns one sweep.
    The sweep runs on the tables and on scratch this call allocates, so
    fits in several threads share no memory."""
    n_docs, k = tables.ndt.shape
    offsets, ndt, nwt, nt = (_address(a, np.int64)
                             for a in (tables.offsets, tables.ndt, tables.nwt, tables.nt))
    words, z = (_address(a, np.int32) for a in (tables.words, tables.z))
    cum = _address(np.empty(k), np.float64)
    rngs = _address(np.empty((n_docs, 625), dtype=np.uint32), np.uint32)  # MT19937 + index
    lib.fp_gibbs_init(n_docs, k, _address(np.asarray(seeds, dtype=np.uint64), np.uint64),
                      offsets, words, z, ndt, nwt, nt, rngs)
    return partial(lib.fp_gibbs_sweep, n_docs, k, offsets, words, z,
                   ndt, nwt, nt, rngs, alpha, beta, vbeta, cum)


def _python_sampler(seeds: list[int], tables: _Tables, alpha: float,
                    beta: float, vbeta: float) -> Callable[[], None]:
    """The pure-Python sampler: the fallback when the kernel is unavailable
    and the oracle it is tested against; returns one sweep. Works on lists
    and copies them into the tables after the initial draws and after every
    sweep."""
    z, ndt, nwt, nt = tables.z, tables.ndt, tables.nwt, tables.nt
    n_docs, k = ndt.shape
    bounds = tables.offsets.tolist()
    tokens = [tables.words[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
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
        for d in range(n_docs):
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


def _log_likelihood(lib, corpus: Corpus, theta: np.ndarray, phi: np.ndarray) -> float:
    """The log-likelihood of ``corpus`` under ``theta`` (D, k) and ``phi``
    (k, V), summed in the order the module docstring gives: by the kernel
    ``lib``, else in Python."""
    if lib is not None:
        return lib.fp_log_likelihood(
            len(theta), theta.shape[1],
            *(_address(a, np.int64) for a in (corpus.offsets, corpus.term_ids, corpus.counts)),
            _address(theta, np.float64), _address(np.ascontiguousarray(phi.T), np.float64))
    # gibbs.c's order: p over the topics in turn, then count * log(p)
    # added left to right; sum() would differ, as it compensates on 3.12.
    docs = np.repeat(np.arange(len(theta)), np.diff(corpus.offsets))
    words = corpus.term_ids
    p = theta[docs, 0] * phi[0, words]
    for t in range(1, theta.shape[1]):
        p += theta[docs, t] * phi[t, words]
    log = math.log
    total = 0.0
    for count, pv in zip(corpus.counts.tolist(), p.tolist()):
        total += count * log(pv)
    return total


def fit(corpus: Corpus, config: LdaConfig,
        sweep_hook: Optional[Callable[[int, GibbsState], None]] = None) -> TopicModel:
    """Run the collapsed Gibbs sampler and return the fitted model.

    Sweeps visit the documents as stored, in the compiled kernel when it can
    be built and loaded, else in Python; both give bit-identical models.
    Only a hook calling ``state.likelihood`` computes a likelihood.

    Args:
        corpus: non-empty corpus to fit.
        config: sampler settings; the same (corpus, config) pair always
            yields a bit-identical model.
        sweep_hook: optional callable invoked as hook(sweep_number, state)
            after every sweep (1-based), for diagnostics and testing.
    """
    n_docs = len(corpus)
    if n_docs == 0:
        raise DataError("cannot fit a topic model on an empty corpus")
    k = config.k
    v_size = len(corpus.terms)

    alpha = config.effective_alpha
    beta = config.beta
    vbeta = v_size * beta

    # The corpus's (doc, word, count) triplets give the tokens.
    w_idx, counts = corpus.term_ids, corpus.counts
    if not counts.sum():
        raise DataError("cannot fit a topic model on a corpus without tokens")
    if not (0 <= w_idx.min() and w_idx.max() < v_size):
        raise DataError("corpus holds a term id outside its vocabulary")
    if v_size < k:
        warnings.warn(f"vocabulary size {v_size} is smaller than k={k}",
                      stacklevel=2)

    words = np.repeat(w_idx, counts).astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(counts)))[corpus.offsets]
    tables = _Tables(
        offsets=offsets,
        words=words,
        z=np.zeros(len(words), dtype=np.int32),
        ndt=np.zeros((n_docs, k), dtype=np.int64),
        nwt=np.zeros((v_size, k), dtype=np.int64),
        nt=np.zeros(k, dtype=np.int64),
    )
    seeds = [derive_seed(config.seed, doc_id) for doc_id in corpus.doc_ids]
    lib = _kernel()
    if lib is not None:
        sweep_once = _compiled_sampler(lib, seeds, tables, alpha, beta, vbeta)
    else:
        sweep_once = _python_sampler(seeds, tables, alpha, beta, vbeta)

    def likelihood() -> float:
        return _log_likelihood(lib, corpus, *_estimates(tables, alpha, beta, vbeta))

    labels = tables.z.view()
    labels.setflags(write=False)
    state = GibbsState(tables.ndt, tables.nwt, tables.nt, np.diff(offsets), labels,
                       likelihood)

    snapshot_sweeps = {
        s for s in range(config.burn_in + 1, config.iterations + 1)
        if (s - config.burn_in) % SNAPSHOT_INTERVAL == 0
    } or {config.iterations}

    theta_acc = np.zeros((n_docs, k))
    phi_acc = np.zeros((k, v_size))
    n_snapshots = 0

    for sweep in range(1, config.iterations + 1):
        sweep_once()
        if sweep in snapshot_sweeps:
            theta_now, phi_now = _estimates(tables, alpha, beta, vbeta)
            theta_acc += theta_now
            phi_acc += phi_now
            n_snapshots += 1
        if sweep_hook is not None:
            sweep_hook(sweep, state)

    theta = theta_acc / n_snapshots
    phi = phi_acc / n_snapshots
    theta.setflags(write=False)
    phi.setflags(write=False)

    return TopicModel(config=config, doc_ids=corpus.doc_ids, terms=corpus.terms,
                      theta=theta, phi=phi)


def top_words(model: TopicModel, topic: int, n: int) -> list[str]:
    """The n highest-probability terms of a topic, ties broken by term id."""
    if not 0 <= topic < model.k:
        raise ValueError(f"topic {topic} out of range for k={model.k}")
    ranked = np.argsort(-model.phi[topic], kind="stable")[:n]
    return list(map(model.terms.__getitem__, ranked.tolist()))


_MODEL_FORMAT = "forumpulse-model-v3"


def save_model(model: TopicModel, path: Path) -> None:
    payload = {
        "format": _MODEL_FORMAT,
        "config": asdict(model.config),
        "doc_ids": list(model.doc_ids),
        "terms": list(model.terms),
        "theta": None,
        "phi": None,
        "vocabulary_sha256": vocabulary_digest(model.terms),
    }
    text = json.dumps(payload, sort_keys=True)
    # theta and phi go in as text in place of their nulls. Each null is the
    # first of its kind: no key sorted before it has its name, and a str
    # value holds no unescaped quote.
    for key, matrix in (("phi", model.phi), ("theta", model.theta)):
        text = text.replace(f'"{key}": null', f'"{key}": {_matrix_json(matrix)}', 1)
    write_text(path, text + "\n")


def _matrix_json(matrix: np.ndarray) -> str:
    """``json.dumps(matrix.tolist())`` of a 2-D float array, each distinct
    float spelled once."""
    n, k = matrix.shape
    row = "[" + ", ".join(["%s"] * k) + "]"
    return ("[" + ", ".join([row] * n) + "]") % tuple(
        float_cells(matrix, json.dumps).reshape(-1).tolist())


def load_model(path: Path) -> TopicModel:
    """The model saved at ``path``; DataError when it is not a complete,
    consistent model file, its vocabulary digest that of its terms and each
    row of theta and phi a probability row: entries in [0, 1] (a tiny
    alpha or beta can round one to 0) summing to 1 within SUM_TOLERANCE."""
    with reading(path, f"{_MODEL_FORMAT} file"):
        payload = read_json(path)
        if payload.get("format") != _MODEL_FORMAT:
            raise DataError(f"{path}: not a {_MODEL_FORMAT} file (rerun topics)")
        theta = np.asarray(payload["theta"], dtype=np.float64)
        phi = np.asarray(payload["phi"], dtype=np.float64)
        theta.setflags(write=False)
        phi.setflags(write=False)
        model = TopicModel(config=LdaConfig(**payload["config"]),
                           doc_ids=tuple(payload["doc_ids"]), terms=tuple(payload["terms"]),
                           theta=theta, phi=phi)
        if payload["vocabulary_sha256"] != vocabulary_digest(model.terms):
            raise ValueError("vocabulary_sha256 is not the digest of its terms")
    n_docs, k, v_size = len(model.doc_ids), model.k, len(model.terms)
    if theta.shape != (n_docs, k) or phi.shape != (k, v_size):
        raise DataError(f"{path}: theta {theta.shape} and phi {phi.shape} do not fit "
                        f"{n_docs} documents, k={k} and {v_size} terms")
    for name, matrix in (("theta", theta), ("phi", phi)):
        if not (np.all((0 <= matrix) & (matrix <= 1))
                and np.all(np.abs(matrix.sum(axis=1) - 1.0) <= SUM_TOLERANCE)):
            raise DataError(f"{path}: a row of {name} is not entries in [0, 1] "
                            f"summing to 1 (rerun topics)")
    return model
