from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumpulse.corpus import (build_corpus, default_stopwords, load_corpus,
                               merge_phrases, save_corpus, tokenize)
from forumpulse.errors import DataError

from conftest import make_dataset, post_record


def test_tokenize_normalization():
    assert tokenize("Pay my Credit CARD bill!") == ["pay", "credit", "card", "bill"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_urls_short_tokens_and_numbers():
    text = "Go to https://example.com/offers?q=1 now, I owe $12 at 3.5% APR in 2021"
    assert tokenize(text) == ["owe", "apr"]


def test_phrase_merge_triggers_at_threshold():
    # (credit, card) occurs exactly 6 times across the corpus.
    docs = [["credit", "card", "credit", "card"] for _ in range(3)]
    merged = merge_phrases(docs, min_count=6)
    assert merged == [["credit_card", "credit_card"]] * 3
    not_merged = merge_phrases(docs, min_count=7)
    assert not_merged == docs


def test_phrase_merge_is_non_overlapping():
    # "pay pay pay" has the pair (pay, pay) twice; greedy scan merges once.
    merged = merge_phrases([["pay", "pay", "pay"]] * 10, min_count=20)
    assert merged == [["pay_pay", "pay"]] * 10


def test_phrase_pass_end_to_end_through_build_corpus():
    # "credit card" appears 3 times across posts; the pair merges at
    # phrase_min_count=3 and stays split at 4.
    posts = [
        post_record("p1", title="Credit card question", selftext="my credit card"),
        post_record("p2", title="Another credit card question"),
        post_record("p3", title="card credit"),   # reversed order, no merge
    ]
    d = make_dataset(posts, [])
    merged = build_corpus(d, min_df=1, max_df_fraction=1.0, phrase_min_count=3)
    assert "credit_card" in merged.vocabulary.terms
    assert "credit" in merged.vocabulary.terms    # survives via p3
    split = build_corpus(d, min_df=1, max_df_fraction=1.0, phrase_min_count=4)
    assert "credit_card" not in split.vocabulary.terms


def test_min_df_includes_and_excludes():
    d = make_dataset([
        post_record("p1", title="loan help today"),
        post_record("p2", title="loan balance"),
        post_record("p3", title="loan unique123"),
    ], [])
    corpus = build_corpus(d, min_df=2, max_df_fraction=1.0, phrase_min_count=99)
    assert "loan" in corpus.vocabulary.terms
    assert "unique123" not in corpus.vocabulary.terms


def test_max_df_fraction_excludes_ubiquitous_word():
    d = make_dataset([
        post_record("p1", title="loan alpha"),
        post_record("p2", title="loan beta"),
        post_record("p3", title="loan alpha"),
        post_record("p4", title="loan beta"),
    ], [])
    corpus = build_corpus(d, min_df=1, max_df_fraction=0.5, phrase_min_count=99)
    assert "loan" not in corpus.vocabulary.terms     # df 4 > 0.5 * 4
    assert set(corpus.vocabulary.terms) == {"alpha", "beta"}  # df 2 == 0.5 * 4


def _five_post_dataset():
    return make_dataset([
        post_record("pa", title="Loan advice", selftext="My loan payment for the month."),
        post_record("pb", title="Credit card bill", selftext="Pay the credit card bill!"),
        post_record("pc", title="Refinance my loan",
                    selftext="Loan refinance advice: http://rates.example.com"),
        post_record("pd", title="Budget plan", selftext="Rent payment budget for the month."),
        post_record("pe", title="Pay rent", selftext="Rent advice and a budget plan."),
    ], [])


def test_five_post_fixture_hand_tokenized():
    # Hand tally: 12 distinct terms, ids by first occurrence in post-id order.
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=99)
    assert corpus.vocabulary.terms == (
        "loan", "advice", "payment", "month", "credit", "card", "bill", "pay",
        "refinance", "budget", "plan", "rent")
    assert corpus.vocabulary.document_frequency == (2, 3, 2, 2, 1, 1, 1, 2, 1, 2, 2, 2)
    assert corpus.doc_ids == ("pa", "pb", "pc", "pd", "pe")
    assert corpus.documents == (
        ((0, 2), (1, 1), (2, 1), (3, 1)),
        ((4, 2), (5, 2), (6, 2), (7, 1)),
        ((0, 2), (1, 1), (8, 2)),
        ((2, 1), (3, 1), (9, 2), (10, 1), (11, 1)),
        ((1, 1), (7, 1), (9, 1), (10, 1), (11, 2)),
    )
    assert corpus.total_tokens == 29
    assert corpus.excluded_doc_ids == ()


def test_empty_documents_excluded_and_recorded():
    d = make_dataset([
        post_record("p1", title="loan loan advice"),
        post_record("p2", title="..."),           # no tokens at all
        post_record("p3", title="zzzz"),          # token below min_df
        post_record("p4", title="loan advice"),
    ], [])
    corpus = build_corpus(d, min_df=2, max_df_fraction=1.0, phrase_min_count=99)
    assert corpus.doc_ids == ("p1", "p4")
    assert corpus.excluded_doc_ids == ("p2", "p3")


def test_empty_vocabulary_raises():
    d = make_dataset([post_record("p1", title="solo words here")], [])
    with pytest.raises(DataError):
        build_corpus(d, min_df=5, max_df_fraction=1.0, phrase_min_count=99)


def test_parameter_validation():
    d = _five_post_dataset()
    with pytest.raises(ValueError):
        build_corpus(d, min_df=0)
    with pytest.raises(ValueError):
        build_corpus(d, max_df_fraction=0.0)
    with pytest.raises(ValueError):
        build_corpus(d, max_df_fraction=1.5)


def test_build_corpus_is_deterministic():
    a = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                     phrase_min_count=2)
    b = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                     phrase_min_count=2)
    assert a == b


def test_document_frequency_rebuilds_from_documents():
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=99)
    rebuilt = Counter()
    for vector in corpus.documents:
        for term_id, _ in vector:
            rebuilt[term_id] += 1
    assert tuple(rebuilt[i] for i in range(len(corpus.vocabulary))) == \
        corpus.vocabulary.document_frequency


def test_total_tokens_matches_vectors_and_ids_in_range():
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=2)
    v = len(corpus.vocabulary)
    assert corpus.total_tokens == sum(
        count for vector in corpus.documents for _, count in vector)
    assert all(0 <= term_id < v
               for vector in corpus.documents for term_id, _ in vector)


def test_corpus_roundtrip(tmp_path):
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=2)
    save_corpus(corpus, tmp_path / "corpus")
    assert load_corpus(tmp_path / "corpus") == corpus


def test_load_corpus_rejects_a_gap_in_doc_indices(tmp_path):
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=2)
    save_corpus(corpus, tmp_path / "corpus")
    docs = tmp_path / "corpus" / "docs.csv"
    lines = docs.read_text(encoding="utf-8").splitlines()
    del lines[2]                                   # drops doc_idx 1
    docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="doc_idx 2"):
        load_corpus(tmp_path / "corpus")


def test_document_tokens_roundtrip():
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=99)
    tokens = corpus.document_tokens(0)   # pa: loan x2, advice, payment, month
    assert tokens == ["loan", "loan", "advice", "payment", "month"]


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_tokenize_output_properties(text):
    stop = default_stopwords()
    for token in tokenize(text):
        assert token == token.lower()
        assert len(token) >= 2
        assert token not in stop
        assert any(ch.isalpha() for ch in token)
