from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumpulse import lda
from forumpulse.corpus import Corpus, vocabulary_digest
from forumpulse.errors import DataError
from forumpulse.lda import LdaConfig, TopicModel, fit, load_model, save_model, top_words
from forumpulse.pipeline import stage_seed

from conftest import child_env, corpus_from_counts, csr, fit_with_labels


def disjoint_corpus(repeats: int = 20) -> Corpus:
    return corpus_from_counts([
        {"aa": repeats, "bb": repeats, "cc": repeats},
        {"xx": repeats, "yy": repeats, "zz": repeats},
    ])


def test_config_validation():
    with pytest.raises(ValueError):
        LdaConfig(k=1)
    with pytest.raises(ValueError):
        LdaConfig(k=2, alpha=0.0)
    with pytest.raises(ValueError):
        LdaConfig(k=2, beta=-1.0)
    with pytest.raises(ValueError):
        LdaConfig(k=2, iterations=10, burn_in=10)
    for field in ("alpha", "beta"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                LdaConfig(k=2, **{field: value})
    with pytest.raises(ValueError, match="k \\* alpha"):      # theta divides by k * alpha
        LdaConfig(k=4, alpha=1e308)
    with pytest.raises(ValueError, match="k \\* alpha"):      # 50 / k overflows a float
        LdaConfig(k=10**400)
    assert LdaConfig(k=4, alpha=1e307).alpha == 1e307
    assert LdaConfig(k=4).effective_alpha == pytest.approx(12.5)


def test_empty_corpus_rejected():
    empty = corpus_from_counts([])
    with pytest.raises(DataError):
        fit(empty, LdaConfig(k=2, iterations=5, burn_in=0))


def test_disjoint_vocabularies_separate():
    model = fit(disjoint_corpus(), LdaConfig(k=2, alpha=0.1, iterations=100,
                                             burn_in=50, seed=7))
    top0 = int(np.argmax(model.theta[0]))
    top1 = int(np.argmax(model.theta[1]))
    assert top0 != top1
    assert model.theta[0, top0] > 0.9
    assert model.theta[1, top1] > 0.9


def test_single_token_theta_matches_count_formula():
    corpus = corpus_from_counts([{"aa": 1}])
    config = LdaConfig(k=2, alpha=0.5, iterations=10, burn_in=0, seed=3)
    with pytest.warns(UserWarning):   # vocabulary smaller than k
        model, labels, _ = fit_with_labels(corpus, config)
    landed = labels[0][0]
    alpha = config.effective_alpha
    expected_hot = (1 + alpha) / (1 + 2 * alpha)
    expected_cold = alpha / (1 + 2 * alpha)
    assert model.theta[0, landed] == pytest.approx(expected_hot, abs=1e-12)
    assert model.theta[0, 1 - landed] == pytest.approx(expected_cold, abs=1e-12)


def test_same_seed_bit_identical():
    corpus = disjoint_corpus(5)
    config = LdaConfig(k=2, iterations=30, burn_in=10, seed=123)
    a, a_labels, a_trace = fit_with_labels(corpus, config)
    b, b_labels, b_trace = fit_with_labels(corpus, config)
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.phi.tobytes() == b.phi.tobytes()
    assert a_labels == b_labels
    assert a_trace == b_trace


def test_different_seeds_differ():
    corpus = disjoint_corpus(5)
    _, a, _ = fit_with_labels(corpus, LdaConfig(k=2, iterations=30, burn_in=10, seed=1))
    _, b, _ = fit_with_labels(corpus, LdaConfig(k=2, iterations=30, burn_in=10, seed=2))
    assert a != b


def test_count_conservation_every_sweep():
    corpus = disjoint_corpus(7)
    seen = []

    def hook(sweep, state):
        total_dt = sum(sum(row) for row in state.doc_topic_counts)
        total_wt = sum(sum(row) for row in state.word_topic_counts)
        assert total_dt == corpus.total_tokens
        assert total_wt == corpus.total_tokens
        assert sum(state.topic_totals) == corpus.total_tokens
        seen.append(sweep)

    fit(corpus, LdaConfig(k=3, iterations=25, burn_in=5, seed=9), sweep_hook=hook)
    assert seen == list(range(1, 26))


def test_theta_phi_are_distributions():
    model = fit(disjoint_corpus(), LdaConfig(k=4, iterations=40, burn_in=20, seed=2))
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
    assert (model.theta > 0).all() and (model.theta < 1).all()
    assert (model.phi > 0).all() and (model.phi < 1).all()


def test_top_words_order_and_ties():
    corpus = corpus_from_counts([{"aa": 3, "bb": 2, "cc": 1}])
    model = fit(corpus, LdaConfig(k=2, iterations=10, burn_in=0, seed=1))
    fake = TopicModel(
        config=model.config,
        doc_ids=model.doc_ids,
        terms=("aa", "bb", "cc"),
        theta=model.theta,
        phi=np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]]),
    )
    assert top_words(fake, 0, 2) == ["aa", "bb"]
    assert top_words(fake, 1, 1) == ["aa"]          # tie: lower term id wins
    assert top_words(fake, 0, 99) == ["aa", "bb", "cc"]
    with pytest.raises(ValueError):
        top_words(fake, 5, 1)


def test_log_likelihood_matches_hand_formula():
    corpus = corpus_from_counts([{"aa": 1, "bb": 0}])
    # Drop the zero-count entry that corpus_from_counts kept.
    corpus = Corpus(
        **csr([[(0, 1)]]),
        doc_ids=corpus.doc_ids,
        terms=corpus.terms,
        excluded_doc_ids=(),
    )
    config = LdaConfig(k=2, alpha=0.3, beta=0.2, iterations=10, burn_in=0, seed=5)
    _, labels, trace = fit_with_labels(corpus, config)
    hot = labels[0][0]
    alpha, beta = 0.3, 0.2
    theta = [alpha / (1 + 2 * alpha)] * 2
    theta[hot] = (1 + alpha) / (1 + 2 * alpha)
    phi_hot = (1 + beta) / (1 + 2 * beta)
    phi_cold = beta / (2 * beta)
    expected = math.log(theta[hot] * phi_hot + theta[1 - hot] * phi_cold)
    assert trace[-1] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_doubling_iterations_never_lowers_trace_max(seed):
    corpus = disjoint_corpus(4)
    *_, short = fit_with_labels(corpus, LdaConfig(k=2, iterations=15, burn_in=5, seed=seed))
    *_, long = fit_with_labels(corpus, LdaConfig(k=2, iterations=30, burn_in=5, seed=seed))
    assert long[:15] == short
    assert max(long) >= max(short)


def test_model_roundtrip_bit_identical(tmp_path):
    model = fit(disjoint_corpus(4), LdaConfig(k=3, iterations=12, burn_in=2, seed=42))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.theta.tobytes() == model.theta.tobytes()
    assert loaded.phi.tobytes() == model.phi.tobytes()
    assert loaded.config == model.config
    assert loaded.terms == model.terms


def test_model_whose_digest_is_not_its_terms_is_a_data_error(tmp_path):
    model = fit(disjoint_corpus(4), LdaConfig(k=3, iterations=12, burn_in=2, seed=42))
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["vocabulary_sha256"] == vocabulary_digest(model.terms)
    path.write_text(json.dumps({**payload, "terms": payload["terms"][::-1]}))
    with pytest.raises(DataError, match="model.json.*vocabulary_sha256"):
        load_model(path)


@pytest.mark.parametrize("older", [
    {"format": "forumpulse-model-v1", "assignments": [[0] * 12, [1] * 12]},
    {"format": "forumpulse-model-v2", "log_likelihood_trace": [-80.5, -79.25]},
], ids=["format-1", "format-2"])
def test_model_of_an_older_format_asks_for_a_topics_rerun(tmp_path, older):
    """A format 1 model.json, which held the per-token labels, and a format
    2 one, which held the per-sweep likelihood trace, are each a DataError
    that says to rerun topics; format 3 holds neither."""
    model = fit(disjoint_corpus(4), LdaConfig(k=3, iterations=12, burn_in=2, seed=42))
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["format"] == "forumpulse-model-v3"
    assert not payload.keys() & {"assignments", "log_likelihood_trace"}
    path.write_text(json.dumps({**payload, **older}))
    with pytest.raises(DataError, match=r"not a forumpulse-model-v3 file \(rerun topics\)"):
        load_model(path)


# --- the compiled kernel against the Python sampler -------------------------

@pytest.fixture(scope="module")
def kernel():
    if lda._kernel() is None:
        pytest.skip("the compiled kernel cannot be built or loaded here")


def python_fit(corpus, config):
    """The model, last labels and likelihoods of the Python sampler
    (``fit_with_labels``)."""
    with mock.patch.object(lda, "_kernel", lambda: None):
        return fit_with_labels(corpus, config)


def assert_bit_equal(a: tuple[TopicModel, tuple, tuple],
                     b: tuple[TopicModel, tuple, tuple]) -> None:
    """Two (model, labels, likelihoods) triples of ``fit_with_labels`` are
    equal bit for bit."""
    (a, a_labels, a_trace), (b, b_labels, b_trace) = a, b
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.phi.tobytes() == b.phi.tobytes()
    assert a_labels == b_labels
    assert np.asarray(a_trace).tobytes() == np.asarray(b_trace).tobytes()


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_kernel_bit_equal_on_fixture(kernel, fixture_corpus, k):
    config = LdaConfig(k=k, iterations=30, burn_in=10,
                       seed=stage_seed(20240704, "lda"))
    assert_bit_equal(fit_with_labels(fixture_corpus, config),
                     python_fit(fixture_corpus, config))


def recounting_hook(corpus: Corpus, config: LdaConfig):
    """A sweep hook that recounts each sweep's trace in pure Python from the
    count tables, in the order that defines it: theta and phi from the
    counts, p summed over the topics in turn, and count * log(p) added left
    to right over the (doc, word) triplets in corpus order."""
    k, alpha, beta = config.k, config.effective_alpha, config.beta
    vbeta = len(corpus.terms) * beta
    recounted: list[float] = []

    def hook(sweep, state):
        ndt = state.doc_topic_counts.tolist()
        nwt = state.word_topic_counts.tolist()
        nt = state.topic_totals.tolist()
        total = 0.0
        for d, vec in enumerate(corpus.documents):
            theta = [(n + alpha) / (sum(ndt[d]) + k * alpha) for n in ndt[d]]
            for w, count in vec:
                p = 0.0
                for t in range(k):
                    p += theta[t] * ((nwt[w][t] + beta) / (nt[t] + vbeta))
                total += count * math.log(p)
        recounted.append(total)

    return hook, recounted


@pytest.mark.parametrize("k", [2, 4, 8, 16])
@pytest.mark.parametrize("python", [False, True], ids=["c", "python"])
def test_trace_equals_a_pure_python_recount(request, fixture_corpus, k, python):
    if not python:
        request.getfixturevalue("kernel")
    config = LdaConfig(k=k, iterations=20, burn_in=5, seed=stage_seed(20240704, "lda"))
    recount, recounted = recounting_hook(fixture_corpus, config)

    def fit_recounting(corpus, config, sweep_hook):
        return fit(corpus, config, sweep_hook=lambda sweep, state: (
            sweep_hook(sweep, state), recount(sweep, state)))

    with mock.patch.object(lda, "_kernel", lambda: None) if python else nullcontext():
        *_, trace = fit_with_labels(fixture_corpus, config, fit=fit_recounting)
    assert list(trace) == recounted


@pytest.mark.parametrize("python", [False, True], ids=["c", "python"])
def test_asking_for_the_likelihood_leaves_the_model_and_labels_alone(request, fixture_corpus,
                                                                    python):
    """A fit whose hook asks for the likelihood after every sweep gives the
    theta, phi and last labels of fits whose hooks never ask for it."""
    if not python:
        request.getfixturevalue("kernel")
    config = LdaConfig(k=4, iterations=20, burn_in=5, seed=stage_seed(20240704, "lda"))
    seen = []

    def labels_only(sweep, state):
        if sweep == config.iterations:
            seen.append(state.z.tobytes())

    with mock.patch.object(lda, "_kernel", lambda: None) if python else nullcontext():
        asked, labels, _ = fit_with_labels(fixture_corpus, config)
        plain = fit(fixture_corpus, config)
        fit(fixture_corpus, config, sweep_hook=labels_only)
    assert asked.theta.tobytes() == plain.theta.tobytes()
    assert asked.phi.tobytes() == plain.phi.tobytes()
    assert seen == [np.array([t for row in labels for t in row], dtype=np.int32).tobytes()]


# Fits a corpus of 50,000 (doc, word, count) triplets, past the length at
# which OpenBLAS splits a dot product across its threads, and prints the
# bytes of the likelihoods after each sweep. Runs in the tests' directory.
_TRACE_CHILD = """
import random, sys
from array import array
from conftest import fit_with_labels
from forumpulse.corpus import Corpus, vocabulary_digest
from forumpulse.lda import LdaConfig
rng = random.Random(5)
n_docs, v_size = 2500, 3000
docs = [sorted((w, rng.randint(1, 3)) for w in rng.sample(range(v_size), 20))
        for _ in range(n_docs)]
corpus = Corpus(offsets=range(0, 20 * n_docs + 1, 20),
                term_ids=[w for doc in docs for w, _ in doc],
                counts=[c for doc in docs for _, c in doc],
                doc_ids=tuple(f"d{i:05d}" for i in range(n_docs)),
                terms=tuple(f"t{w}" for w in range(v_size)), excluded_doc_ids=())
*_, trace = fit_with_labels(corpus, LdaConfig(k=6, iterations=2, burn_in=0, seed=1))
sys.stdout.write(array("d", trace).tobytes().hex())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the process may use fewer than 2 CPUs")
def test_trace_does_not_depend_on_the_blas_thread_count():
    traces = [subprocess.run([sys.executable, "-c", _TRACE_CHILD], capture_output=True,
                             text=True, check=True, cwd=Path(__file__).parent,
                             env=child_env(OPENBLAS_NUM_THREADS=threads)).stdout
              for threads in ("1", "2")]
    assert len(traces[0]) == 2 * 16
    assert traces[0] == traces[1]


_TERMS = st.sampled_from(["aa", "bb", "cc", "dd", "ee"])
_DOCUMENTS = st.one_of(
    st.dictionaries(_TERMS, st.integers(1, 6), max_size=5),
    _TERMS.map(lambda term: {term: 1}),                              # one token
    st.tuples(_TERMS, st.integers(2, 9)).map(lambda p: {p[0]: p[1]}),  # one word
)


# The kernel seeds the streams eight documents at a time: a corpus of 1 or 7
# documents is one short group, 8 one full group, 9 and 17 end in a group of
# one after full ones.
@pytest.mark.parametrize("n_docs", [1, 7, 8, 9, 17])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(2, 9), seed=st.integers(0, 2**64 - 1))
def test_kernel_bit_equal_on_generated_corpora(kernel, n_docs, data, k, seed):
    """Includes k above the vocabulary size, one-token documents, documents
    of one repeated word and documents with no tokens."""
    docs = data.draw(st.lists(_DOCUMENTS, min_size=n_docs, max_size=n_docs).filter(any))
    corpus = corpus_from_counts(docs)
    config = LdaConfig(k=k, iterations=12, burn_in=3, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # vocabulary smaller than k
        assert_bit_equal(fit_with_labels(corpus, config), python_fit(corpus, config))


@pytest.mark.parametrize("short", [range(200), (0, 11, 23)],
                         ids=["every-document", "first-middle-last-slot"])
def test_kernel_bit_equal_with_short_seeds(kernel, fixture_corpus, monkeypatch, short):
    """Seeds below 2**32, 0 included, seed the generator from one word: in
    every document, or in the documents ``short`` names by row, which fall
    at the first, a middle and the last slot of the groups of eight that
    the kernel seeds together."""
    rows = {doc_id: row for row, doc_id in enumerate(fixture_corpus.doc_ids)}
    long_seed = lda.derive_seed
    monkeypatch.setattr(lda, "derive_seed", lambda seed, doc_id: (
        long_seed(seed, doc_id) if rows[doc_id] not in short
        else 0 if rows[doc_id] == 0 else long_seed(seed, doc_id) >> 32))
    config = LdaConfig(k=4, iterations=20, burn_in=5, seed=1)
    assert_bit_equal(fit_with_labels(fixture_corpus, config),
                     python_fit(fixture_corpus, config))


@pytest.fixture
def fresh_kernel(tmp_path, monkeypatch):
    """The kernel loader with nothing loaded, building into ``tmp_path``."""
    monkeypatch.setattr(lda, "_KERNEL_CACHE", tmp_path)
    lda._kernel.cache_clear()
    yield tmp_path
    lda._kernel.cache_clear()


def test_missing_compiler_falls_back_to_python(fresh_kernel, monkeypatch):
    corpus = disjoint_corpus(5)
    config = LdaConfig(k=3, iterations=15, burn_in=5, seed=4)
    expected = python_fit(corpus, config)
    monkeypatch.setattr(lda, "_CC", str(fresh_kernel / "no-such-cc"))
    assert lda.kernel_name() == "python"
    assert_bit_equal(fit_with_labels(corpus, config), expected)
    assert not lda._kernel_path().exists()


def test_truncated_library_is_rebuilt(fresh_kernel):
    if shutil.which(lda._CC) is None:
        pytest.skip("no C compiler")
    path = lda._kernel_path()
    assert lda._build_kernel(path)
    whole = path.stat().st_size
    path.write_bytes(path.read_bytes()[: whole // 2])
    corpus = disjoint_corpus(5)
    config = LdaConfig(k=3, iterations=15, burn_in=5, seed=4)
    expected = python_fit(corpus, config)
    assert lda.kernel_name() == "c"
    assert_bit_equal(fit_with_labels(corpus, config), expected)
    assert path.stat().st_size == whole


def test_concurrent_first_use_builds_once(fresh_kernel, monkeypatch):
    """Threads fitting at once on an empty cache share one build, and each
    gets the model of the Python sampler."""
    if shutil.which(lda._CC) is None:
        pytest.skip("no C compiler")
    corpus = disjoint_corpus(5)
    config = LdaConfig(k=3, iterations=15, burn_in=5, seed=4)
    expected = python_fit(corpus, config)
    builds = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **kw: builds.append(a) or run(*a, **kw))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(fit_with_labels, corpus, config) for _ in range(6)]
            models = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for model in models:
        assert_bit_equal(model, expected)
    assert len(builds) == 1
    assert lda.kernel_name() == "c"


def test_kernel_source_compiles_without_warnings(tmp_path):
    """The command that builds the shipped library, with warnings as errors;
    the library it builds names the math library it calls ``log`` from."""
    if shutil.which(lda._CC) is None:
        pytest.skip("no C compiler")
    library = tmp_path / "gibbs.so"
    result = subprocess.run(lda._kernel_argv(library, "-Wall", "-Wextra", "-Werror"),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if shutil.which("readelf") is not None:
        dynamic = subprocess.run(["readelf", "-d", str(library)], capture_output=True,
                                 text=True, check=True).stdout
        assert "libm.so" in dynamic


def test_corpus_without_tokens_rejected():
    with pytest.raises(DataError):
        fit(corpus_from_counts([{}, {}]), LdaConfig(k=2, iterations=2, burn_in=0))


def test_term_id_outside_vocabulary_rejected():
    corpus = disjoint_corpus(2)
    broken = Corpus(**csr([[(0, 1), (99, 1)]]), doc_ids=("d000",),
                    terms=corpus.terms, excluded_doc_ids=())
    with pytest.raises(DataError):
        fit(broken, LdaConfig(k=2, iterations=2, burn_in=0))
