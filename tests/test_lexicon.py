from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forumpulse.errors import DataError
from forumpulse.lexicon import categorize, demo_lexicon, load_lexicon, pca, topicwise_profile

from conftest import assignment_of, child_env, corpus_from_tokens


def lex(**categories) -> dict[str, frozenset[str]]:
    return {name: frozenset(words) for name, words in categories.items()}


def test_categorize_all_tokens_match():
    rows = categorize(corpus_from_tokens([["pay", "debt", "debt"]]),
                      lex(economics={"pay", "debt"}))
    assert rows[0, 0] == 1.0


def test_categorize_no_match_is_zero():
    rows = categorize(corpus_from_tokens([["car", "lease"]]),
                      lex(economics={"pay", "debt"}))
    assert rows[0, 0] == 0.0


def test_categorize_mixed_hand_tally():
    documents = [
        ["pay", "debt", "car", "loan"],        # economics 3/4, vehicles 1/4
        ["car", "car", "insurance", "pay"],    # economics 1/4, vehicles 3/4
        [],                                    # empty post scores 0
    ]
    rows = categorize(corpus_from_tokens(documents),
                      lex(economics={"pay", "debt", "loan"}, vehicles={"car", "insurance"}))
    assert rows.tolist() == [[0.75, 0.25], [0.25, 0.75], [0.0, 0.0]]
    assert rows.dtype == np.float64 and not rows.flags.writeable


def test_categorize_rows_bounded_by_one():
    rows = categorize(corpus_from_tokens([["pay"] * 7]), lex(a={"pay"}, b={"pay"}))
    assert (rows <= 1.0).all() and (rows >= 0.0).all()


def test_categorize_empty_lexicon_rejected():
    with pytest.raises(DataError):
        categorize(corpus_from_tokens([["pay"]]), {})


def test_load_lexicon_roundtrip_and_validation(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"money": ["Pay", "DEBT"], "cars": ["car"]}),
                    encoding="utf-8")
    loaded = load_lexicon(path)
    assert loaded == {"money": frozenset({"pay", "debt"}), "cars": frozenset({"car"})}
    assert list(loaded) == ["money", "cars"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"money": []}), encoding="utf-8")
    with pytest.raises(DataError):
        load_lexicon(bad)


def test_demo_lexicon_loads():
    demo = demo_lexicon()
    assert len(demo) == 20
    assert all(words for words in demo.values())


def test_pca_collinear_points():
    t = np.linspace(-2.0, 2.0, 41)
    rows = np.stack([t, t], axis=1)          # all points on the line y = x
    components, variance, _, negligible = pca(rows, 2)
    assert variance[1] < 1e-10
    assert np.allclose(components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-8)
    assert negligible == (1,)


def test_pca_isotropic_variances_close():
    rng = np.random.default_rng(99)
    rows = rng.standard_normal((10_000, 2))
    _, ev, _, _ = pca(rows, 2)
    assert abs(ev[0] - ev[1]) / ev[0] < 0.05


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(5)
    rows = rng.random((30, 6))
    components, _, projections, _ = pca(rows, 6)
    centered = rows - rows.mean(axis=0)
    reconstructed = projections @ components
    assert np.max(np.abs(reconstructed - centered)) <= 1e-8


def test_pca_orthonormal_components_and_residuals():
    rng = np.random.default_rng(17)
    rows = rng.random((60, 12))
    components, variance, _, _ = pca(rows, 8)
    gram = components @ components.T
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-8
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / rows.shape[0]
    for v, lam in zip(components, variance):
        assert np.linalg.norm(cov @ v - lam * v) <= 1e-8


def test_pca_variance_sums_to_total_at_full_rank():
    rng = np.random.default_rng(23)
    rows = rng.random((40, 5))
    _, variance, _, _ = pca(rows, 5)
    centered = rows - rows.mean(axis=0)
    total = float(np.trace(centered.T @ centered / rows.shape[0]))
    assert sum(variance) == pytest.approx(total, rel=1e-6)
    assert all(a >= b for a, b in zip(variance, variance[1:]))


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    rows = rng.random((25, 4))
    a = pca(rows, 3)[0]
    b = pca(rows.copy(), 3)[0]
    assert a.tobytes() == b.tobytes()
    for row in a:
        assert row[int(np.argmax(np.abs(row)))] > 0


@settings(max_examples=100, deadline=None)
@given(rows=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 8)),
                   elements=st.floats(0, 1)),
       factor=st.sampled_from([1.0, 1e-3]), data=st.data())
def test_pca_matches_the_svd_of_the_centred_rows(rows, factor, data):
    """Against ``np.linalg.svd`` of the centred rows (singular values s,
    right singular vectors V): the variances are s**2 / n, each component
    whose eigenvalue is apart from every other by more than 1e-4 of the
    trace is a row of V up to sign, and every eigen-residual is within
    1e-12 of the scale."""
    rows = rows * factor
    n_docs, n_cats = rows.shape
    n_comp = data.draw(st.integers(1, min(n_docs, n_cats)))
    components, variance, _, _ = pca(rows, n_comp)
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / n_docs
    trace = float(np.trace(cov))
    scale = max(trace, 1.0)
    _, s, vt = np.linalg.svd(centered)
    eigenvalues = np.zeros(n_cats)
    eigenvalues[:len(s)] = s ** 2 / n_docs
    assert np.max(np.abs(variance - eigenvalues[:n_comp])) <= 1e-12 * scale
    for i in range(n_comp):
        gap = np.min(np.abs(np.delete(eigenvalues, i) - eigenvalues[i]), initial=np.inf)
        if gap > 1e-4 * trace > 0:
            sign = np.sign(components[i] @ vt[i])
            assert np.max(np.abs(components[i] - sign * vt[i])) <= 1e-8
        assert np.linalg.norm(cov @ components[i] - variance[i] * components[i]) \
            <= 1e-12 * scale


_PCA_CHILD = """
import hashlib, sys
import numpy as np
from forumpulse.lexicon import pca
rows = np.random.default_rng(3).random((20_000, 20)) ** 4
digest = hashlib.sha256()
for array in pca(rows, 20)[:3]:
    digest.update(array.tobytes())
sys.stdout.write(digest.hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the process may use fewer than 2 CPUs")
def test_pca_does_not_depend_on_the_blas_thread_count():
    digests = [subprocess.run([sys.executable, "-c", _PCA_CHILD], capture_output=True,
                              text=True, check=True,
                              env=child_env(OPENBLAS_NUM_THREADS=threads)).stdout
               for threads in ("1", "2")]
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_pca_validates_n_comp():
    rows = np.random.default_rng(0).random((4, 6))
    with pytest.raises(ValueError):
        pca(rows, 5)       # n_comp > n_docs
    with pytest.raises(ValueError):
        pca(rows, 0)


def test_topicwise_profile_single_post():
    rows = np.array([[4.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    projections = pca(rows, 2)[2]
    a = assignment_of([{0}, set(), set()], k=1)
    profiles = topicwise_profile(projections, a)
    assert np.allclose(profiles[0], projections[0])


def test_topicwise_profile_mean_of_two():
    profiles = topicwise_profile(np.array([[1.0, 0.0], [3.0, 0.0]]),
                                 assignment_of([{0}, {0}], k=1))
    assert profiles.tolist() == [[2.0, 0.0]]


def test_topicwise_profile_matches_bruteforce_groupby():
    rng = np.random.default_rng(8)
    projections = rng.random((50, 3))
    sets = [set(int(t) for t in rng.choice(4, size=rng.integers(0, 3),
                                           replace=False))
            for _ in range(50)]
    profiles = topicwise_profile(projections, assignment_of(sets, k=4))
    for t in range(4):
        members = [projections[i] for i, s in enumerate(sets) if t in s]
        if not members:
            assert np.isnan(profiles[t]).all()
        else:
            assert np.allclose(profiles[t],
                               np.mean(members, axis=0))


def test_topicwise_profile_alignment_checked():
    with pytest.raises(ValueError):
        topicwise_profile(np.zeros((3, 2)), assignment_of([{0}], k=1))
