from __future__ import annotations

import json

import numpy as np
import pytest

from forumpulse.errors import DataError
from forumpulse.lexicon import (Lexicon, categorize, demo_lexicon,
                                load_lexicon, pca, topicwise_profile)

from conftest import assignment_of, corpus_from_tokens


def lex(**categories) -> Lexicon:
    return Lexicon(categories=tuple(categories),
                   words=tuple(frozenset(v) for v in categories.values()))


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
        categorize(corpus_from_tokens([["pay"]]), Lexicon(categories=(), words=()))


def test_load_lexicon_roundtrip_and_validation(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"money": ["Pay", "DEBT"], "cars": ["car"]}),
                    encoding="utf-8")
    loaded = load_lexicon(path)
    assert loaded.categories == ("money", "cars")
    assert loaded.words[0] == frozenset({"pay", "debt"})

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"money": []}), encoding="utf-8")
    with pytest.raises(DataError):
        load_lexicon(bad)


def test_demo_lexicon_loads():
    demo = demo_lexicon()
    assert len(demo) == 20
    assert all(words for words in demo.words)


def test_pca_collinear_points():
    t = np.linspace(-2.0, 2.0, 41)
    rows = np.stack([t, t], axis=1)          # all points on the line y = x
    result = pca(rows, 2)
    assert result.explained_variance[1] < 1e-10
    first = result.components[0]
    assert np.allclose(first, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-8)
    assert result.negligible == (1,)


def test_pca_isotropic_variances_close():
    rng = np.random.default_rng(99)
    rows = rng.standard_normal((10_000, 2))
    result = pca(rows, 2)
    ev = result.explained_variance
    assert abs(ev[0] - ev[1]) / ev[0] < 0.05


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(5)
    rows = rng.random((30, 6))
    result = pca(rows, 6)
    centered = rows - result.mean
    reconstructed = result.projections @ result.components
    assert np.max(np.abs(reconstructed - centered)) <= 1e-8


def test_pca_orthonormal_components_and_residuals():
    rng = np.random.default_rng(17)
    rows = rng.random((60, 12))
    result = pca(rows, 8)
    gram = result.components @ result.components.T
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-8
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / rows.shape[0]
    for v, lam in zip(result.components, result.explained_variance):
        assert np.linalg.norm(cov @ v - lam * v) <= 1e-8


def test_pca_variance_sums_to_total_at_full_rank():
    rng = np.random.default_rng(23)
    rows = rng.random((40, 5))
    result = pca(rows, 5)
    centered = rows - rows.mean(axis=0)
    total = float(np.trace(centered.T @ centered / rows.shape[0]))
    assert sum(result.explained_variance) == pytest.approx(total, rel=1e-6)
    assert all(a >= b for a, b in zip(result.explained_variance,
                                      result.explained_variance[1:]))


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    rows = rng.random((25, 4))
    a = pca(rows, 3)
    b = pca(rows.copy(), 3)
    assert a.components.tobytes() == b.components.tobytes()
    for row in a.components:
        assert row[int(np.argmax(np.abs(row)))] > 0


def test_pca_validates_n_comp():
    rows = np.random.default_rng(0).random((4, 6))
    with pytest.raises(ValueError):
        pca(rows, 5)       # n_comp > n_docs
    with pytest.raises(ValueError):
        pca(rows, 0)


def test_topicwise_profile_single_post():
    rows = np.array([[4.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    result = pca(rows, 2)
    a = assignment_of([{0}, set(), set()], k=1)
    profiles = topicwise_profile(result, a)
    assert np.allclose(profiles[0], result.projections[0])


def test_topicwise_profile_mean_of_two():
    class Stub:
        projections = np.array([[1.0, 0.0], [3.0, 0.0]])

    profiles = topicwise_profile(Stub(), assignment_of([{0}, {0}], k=1))
    assert profiles.tolist() == [[2.0, 0.0]]


def test_topicwise_profile_matches_bruteforce_groupby():
    rng = np.random.default_rng(8)
    projections = rng.random((50, 3))

    class Stub:
        pass

    stub = Stub()
    stub.projections = projections
    sets = [set(int(t) for t in rng.choice(4, size=rng.integers(0, 3),
                                           replace=False))
            for _ in range(50)]
    profiles = topicwise_profile(stub, assignment_of(sets, k=4))
    for t in range(4):
        members = [projections[i] for i, s in enumerate(sets) if t in s]
        if not members:
            assert np.isnan(profiles[t]).all()
        else:
            assert np.allclose(profiles[t],
                               np.mean(members, axis=0))


def test_topicwise_profile_alignment_checked():
    class Stub:
        projections = np.zeros((3, 2))

    with pytest.raises(ValueError):
        topicwise_profile(Stub(), assignment_of([{0}], k=1))
