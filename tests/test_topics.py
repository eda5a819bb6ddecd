from __future__ import annotations

import math
import statistics
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from forumpulse.errors import DataError
from forumpulse.lda import LdaConfig, fit
from forumpulse.pipeline import StageContext, dominance_stage
from forumpulse.lexicon import topicwise_profile
from forumpulse.topics import (cooccurrence, count_nonpositive, dominant_topics,
                               load_assignment, monthly_distribution, row_skewness,
                               save_assignment, select_k, skewness)

from conftest import (assignment_of, cooccurrence_per_set, corpus_from_counts, make_dataset,
                      monthly_tally_per_set, post_record, presence_per_set, same_fields,
                      topicwise_profile_per_row)


def naive_skewness(values):
    """Oracle on a separate code path: stdlib statistics, no numpy."""
    mean = statistics.mean(values)
    sigma = statistics.pstdev(values)
    if sigma == 0:
        return None
    return 3 * (mean - statistics.median(values)) / sigma


def test_skewness_uniform_undefined():
    assert skewness([0.25, 0.25, 0.25, 0.25]) is None
    assert skewness([0.5, 0.5]) is None


def test_skewness_spiked_hand_value():
    # mean 0.25, median 0.1, population sigma sqrt(0.0675)
    expected = 3 * (0.25 - 0.1) / math.sqrt(0.0675)
    assert skewness([0.7, 0.1, 0.1, 0.1]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.7320508075688772, abs=1e-12)


def test_skewness_symmetric_zero():
    assert skewness([0.1, 0.2, 0.3, 0.4]) == 0.0


def test_skewness_validation():
    with pytest.raises(ValueError):
        skewness([1.0])
    with pytest.raises(ValueError):
        skewness([0.9, 0.3])   # does not sum to 1


def test_two_entry_distributions_are_never_positive():
    # With k=2 the median equals the mean, so skewness is 0 or undefined.
    assert skewness([0.99, 0.01]) == 0.0
    assert skewness([0.5, 0.5]) is None


@st.composite
def probability_vector(draw):
    k = draw(st.integers(2, 20))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    return [x / total for x in raw]


@settings(max_examples=200, deadline=None)
@given(probability_vector())
def test_skewness_matches_naive_oracle(dist):
    ours = skewness(dist)
    oracle = naive_skewness(dist)
    if oracle is None:
        assert ours is None
    else:
        # Agreement at 1e-12 is only meaningful away from the ill-conditioned
        # near-constant regime where 1/sigma amplifies rounding noise.
        assume(statistics.pstdev(dist) > 1e-3)
        assert ours == pytest.approx(oracle, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(probability_vector())
def test_skewness_negated_under_mirroring(dist):
    assume(statistics.pstdev(dist) > 1e-3)
    mean = sum(dist) / len(dist)
    mirrored = [2 * mean - x for x in dist]
    ours = skewness(dist)
    flipped = skewness(mirrored)
    assert ours is not None and flipped is not None
    assert flipped == pytest.approx(-ours, abs=1e-9)


def _model_with_theta(theta_rows):
    corpus = corpus_from_counts([{"aa": 2, "bb": 1} for _ in theta_rows])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # tiny stub vocabulary, k > V is fine
        model = fit(corpus, LdaConfig(k=len(theta_rows[0]), iterations=5,
                                      burn_in=0, seed=0))
    theta = np.asarray(theta_rows, dtype=np.float64)
    return replace(model, theta=theta)


def test_count_nonpositive_mixed_rows():
    model = _model_with_theta([
        [0.9, 0.05, 0.03, 0.02],    # spiked: positive skew
        [0.25, 0.25, 0.25, 0.25],   # uniform: undefined
        [0.1, 0.2, 0.3, 0.4],       # symmetric: zero
    ])
    assert count_nonpositive(model) == 2
    skews = row_skewness(model.theta)
    assert skews[0] > 0
    assert math.isnan(skews[1])
    assert skews[2] == 0.0


def assert_matches_row_oracle(model) -> None:
    """W_k and every per-document value equal ``skewness`` row by row, to
    the bit (repr tells -0.0 from 0.0), NaN where it is None."""
    skews = row_skewness(model.theta)
    oracle = [skewness(row) for row in model.theta]
    assert [repr(None if math.isnan(s) else s) for s in skews.tolist()] \
        == [repr(s) for s in oracle]
    assert skews.dtype == np.float64 and skews.shape == (len(model.theta),)
    assert count_nonpositive(model) == sum(1 for s in oracle if s is None or s <= 0)


def test_count_nonpositive_matches_row_oracle_on_fixture_models(fixture_corpus):
    for k in range(2, 7):
        model = fit(fixture_corpus, LdaConfig(k=k, iterations=30, burn_in=10, seed=k))
        assert_matches_row_oracle(model)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 16])
def test_count_nonpositive_matches_row_oracle_on_ties(k):
    """Symmetric rows (skewness 0 up to rounding, either sign), uniform rows
    and rows of few distinct values."""
    rng = np.random.default_rng(k)
    base = rng.dirichlet(np.ones(k), size=30)
    symmetric = (base + base[:, ::-1]) / 2
    uniform = np.full((3, k), 1.0 / k)
    steps = rng.integers(1, 3, size=(30, k)).astype(np.float64)
    stepped = steps / steps.sum(axis=1, keepdims=True)
    assert_matches_row_oracle(_model_with_theta(
        np.vstack([symmetric, uniform, stepped, base]).tolist()))


def test_count_nonpositive_rejects_rows_not_summing_to_one():
    model = _model_with_theta([[0.5, 0.5], [0.9, 0.3]])
    with pytest.raises(ValueError):
        count_nonpositive(model)


def test_w_k_matches_brute_recount():
    rng = np.random.default_rng(4)
    rows = rng.dirichlet(np.ones(5), size=40).tolist()
    model = _model_with_theta(rows)
    recount = sum(1 for row in rows
                  if (naive_skewness(row) is None or naive_skewness(row) <= 0))
    assert count_nonpositive(model) == recount


def three_topic_corpus():
    pools = (("aa", "bb", "cc"), ("dd", "ee", "ff"), ("gg", "hh", "ii"))
    docs = []
    for i in range(24):
        pool = pools[i % 3]
        docs.append({term: 4 + (i + j) % 3 for j, term in enumerate(pool)})
    return corpus_from_counts(docs)


def test_select_k_returns_scanned_minimum():
    base = LdaConfig(k=2, alpha=0.2, iterations=40, burn_in=20, seed=13)
    model, scan = select_k(three_topic_corpus(), 2, 5, base)
    assert [k for k, _ in scan] == [2, 3, 4, 5]
    best = min(w for _, w in scan)
    assert scan[[w for _, w in scan].index(best)][0] == model.k
    for k, w in scan:
        assert model.k <= k or w > best  # ties break to the smallest k


def test_select_k_single_point_scan():
    base = LdaConfig(k=2, iterations=10, burn_in=0, seed=1)
    model, scan = select_k(three_topic_corpus(), 3, 3, base)
    assert model.k == 3
    assert len(scan) == 1


def test_select_k_scan_invariance_against_reversed_manual_scan():
    corpus = three_topic_corpus()
    base = LdaConfig(k=2, iterations=20, burn_in=5, seed=3)
    selected, scan = select_k(corpus, 2, 4, base)
    by_k = {}
    for k in (4, 3, 2):   # fit in reverse order; same seed policy per k
        model = fit(corpus, replace(base, k=k))
        by_k[k] = count_nonpositive(model)
    assert dict(scan) == by_k
    best = min(by_k.values())
    assert selected.k == min(k for k, w in by_k.items() if w == best)


def test_select_k_patience_stops_early():
    base = LdaConfig(k=2, iterations=10, burn_in=0, seed=5)
    _, full = select_k(three_topic_corpus(), 2, 6, base)
    _, patient = select_k(three_topic_corpus(), 2, 6, base, patience=1)
    assert len(patient) <= len(full)
    # The scan stops one step after the first non-improvement.
    ws = [w for _, w in full]
    best_so_far = ws[0]
    expected_len = 1
    for w in ws[1:]:
        expected_len += 1
        if w < best_so_far:
            best_so_far = w
        else:
            break
    assert len(patient) == expected_len


def test_select_k_reports_progress_in_k_order():
    base = LdaConfig(k=2, alpha=0.2, iterations=20, burn_in=5, seed=7)
    seen = []
    _, scan = select_k(three_topic_corpus(), 2, 4, base,
                       progress=lambda k, w: seen.append((k, w)))
    assert seen == scan
    assert [k for k, _ in seen] == [2, 3, 4]


def test_select_k_validation():
    base = LdaConfig(k=2, iterations=5, burn_in=0)
    with pytest.raises(ValueError):
        select_k(three_topic_corpus(), 1, 4, base)
    with pytest.raises(ValueError):
        select_k(three_topic_corpus(), 4, 2, base)


def test_dominant_topics_hand_column():
    # Column 0: (0.9, 0.1, 0.1, 0.1) -> mu 0.3, sigma sqrt(0.12), cutoff ~0.6464
    theta = [
        [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3],
        [0.1, 0.3, 0.3, 0.3],
        [0.1, 0.3, 0.3, 0.3],
        [0.1, 0.3, 0.3, 0.3],
    ]
    model = _model_with_theta(theta)
    assignment = dominant_topics(model)
    mu0, sigma0 = assignment.thresholds[0]
    assert mu0 == pytest.approx(0.3)
    assert sigma0 == pytest.approx(math.sqrt(0.12), abs=1e-12)
    assert assignment.mask[0, 0]
    assert not assignment.mask[1:, 0].any()


def test_dominant_topics_degenerate_equality_gives_empty_sets():
    model = _model_with_theta([[0.4, 0.6]] * 5)
    assignment = dominant_topics(model)
    assert not assignment.mask.any()
    assert assignment.topic_presence == (0.0, 0.0)


def test_dominant_topics_independent_recomputation():
    rng = np.random.default_rng(12)
    rows = rng.dirichlet(np.ones(6), size=60)
    model = _model_with_theta(rows.tolist())
    assignment = dominant_topics(model)
    for t in range(6):
        column = [float(r[t]) for r in rows]
        mu = statistics.mean(column)
        sigma = statistics.pstdev(column)
        for i, value in enumerate(column):
            assert assignment.mask[i, t] == (value > mu + sigma)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 19), n=st.integers(1, 30), repeats=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_dominant_topics_equal_a_row_at_a_time(k, n, repeats, seed):
    """The mask holds each row's own cut, over k that packs into one byte
    and into several, and its presence is that of the per-post sets."""
    rows = np.random.default_rng(seed).dirichlet(np.ones(k), size=n)
    model = _model_with_theta(np.repeat(rows, repeats, axis=0).tolist())
    theta = model.theta
    mu = theta.mean(axis=0)
    cutoff = mu + np.sqrt(np.mean((theta - mu) ** 2, axis=0))
    assignment = dominant_topics(model)
    assert np.array_equal(assignment.mask, theta > cutoff)
    assert not assignment.mask.flags.writeable
    assert assignment.topic_presence == presence_per_set(
        [np.flatnonzero(row).tolist() for row in theta > cutoff], k)


def test_load_assignment_reads_back_dominant_topics(fixture_corpus, tmp_path):
    """The dominance files parse back to the assignment they were written
    from, at k = 2..6, posts with no dominant topic included."""
    unassigned = 0
    for k in range(2, 7):
        model = fit(fixture_corpus, LdaConfig(k=k, iterations=20, burn_in=5, seed=k))
        written = dominance_stage(StageContext({}, out_dir=tmp_path / str(k),
                                               parsed={"model.json": model}))
        assert same_fields(written, dominant_topics(model))
        assert same_fields(load_assignment(tmp_path / str(k) / "dominance.csv"), written)
        unassigned += int((~written.mask.any(axis=1)).sum())
    assert unassigned > 0


def test_cooccurrence_hand_counts():
    a = assignment_of([{1, 2}, {1}, {2, 3}], k=4)
    counts = cooccurrence(a)
    assert counts[1, 2] == 1 and counts[2, 1] == 1
    assert counts[2, 3] == 1 and counts[3, 2] == 1
    assert counts[1, 1] == 1          # {1} is sole-dominant once
    assert counts[2, 2] == 0 and counts[3, 3] == 0
    assert counts[0].sum() == 0


def test_cooccurrence_singletons_and_empties():
    a = assignment_of([{0}, {1}, set(), {1}], k=3)
    counts = cooccurrence(a)
    off_diagonal = counts - np.diag(np.diag(counts))
    assert not off_diagonal.any()
    assert counts[0, 0] == 1 and counts[1, 1] == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 4)), min_size=1, max_size=30))
def test_cooccurrence_symmetry_and_marginal_bounds(sets):
    a = assignment_of(sets, k=5)
    counts = cooccurrence(a)
    assert (counts == counts.T).all()
    presence = [sum(1 for s in sets if t in s) for t in range(5)]
    for i in range(5):
        for j in range(5):
            if i != j:
                assert counts[i, j] <= min(presence[i], presence[j])


def test_monthly_distribution_hand_tally():
    jan = 1609459200   # 2021-01-01 UTC
    feb = 1612137600   # 2021-02-01 UTC
    d = make_dataset([
        post_record("p0", created=jan),
        post_record("p1", created=jan + 86400),
        post_record("p2", created=feb),
    ], [])
    a = assignment_of([{0}, {0, 1}, set()], k=2)
    counts = monthly_distribution(a, d)
    assert counts == {(0, "2021-01"): 2, (1, "2021-01"): 1}


def test_monthly_distribution_missing_post_rejected():
    d = make_dataset([post_record("p0")], [])
    a = assignment_of([{0}, {1}], k=2)
    with pytest.raises(DataError):
        monthly_distribution(a, d)


@st.composite
def dominance_masks(draw):
    """A (posts, k) mask at k = 2..19, its rows drawn with repeats from a few
    distinct rows, the empty and the all-true row among them."""
    k = draw(st.integers(2, 19))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k), max_size=5))
    rows += [[False] * k, [True] * k]
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))
    return np.array([rows[i] for i in picks], dtype=bool).reshape(len(picks), k)


@settings(max_examples=80, deadline=None)
@given(mask=dominance_masks(), seed=st.integers(0, 2**32 - 1))
def test_mask_readers_equal_the_per_set_oracles(mask, seed):
    """Presence, co-occurrence, the monthly tally and the topic-wise profile
    of a mask equal, bit for bit, the per-post set loops they replaced; the
    mask survives its files."""
    n, k = mask.shape
    rng = np.random.default_rng(seed)
    # Posts listed out of dataset order, created over a few years.
    doc_ids = [f"p{i:02d}" for i in rng.permutation(n)]
    created = rng.integers(1_500_000_000, 1_600_000_000, size=n).tolist()
    dataset = make_dataset([post_record(d, created=c) for d, c in zip(doc_ids, created)], [])
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in mask]
    a = assignment_of(sets, k, doc_ids)
    assert np.array_equal(a.mask, mask)

    assert np.array_equal(np.array(a.topic_presence).view(np.uint64),
                          np.array(presence_per_set(sets, k)).view(np.uint64))
    counts = cooccurrence(a)
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert np.array_equal(counts, cooccurrence_per_set(sets, k))
    assert monthly_distribution(a, dataset) == monthly_tally_per_set(doc_ids, sets, dataset)

    # Scores over sixteen orders of magnitude, so that the order of each sum
    # shows in its last bits.
    projections = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 3))
    profiles = topicwise_profile(SimpleNamespace(projections=projections), a)
    assert not profiles.flags.writeable
    assert np.array_equal(profiles.view(np.uint64),
                          topicwise_profile_per_row(projections, sets, k).view(np.uint64))

    with tempfile.TemporaryDirectory() as tmp:
        save_assignment(Path(tmp) / "dominance.csv", a)
        assert same_fields(load_assignment(Path(tmp) / "dominance.csv"), a)
