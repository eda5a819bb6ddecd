from __future__ import annotations

import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumpulse.corpus import (_TRIPLETS_BLOCK, Corpus, _merge_phrases, _token_ids, _vectors,
                               build_corpus, default_stopwords, load_corpus, save_corpus)
from forumpulse.errors import DataError
from forumpulse.lda import LdaConfig
from forumpulse.lexicon import categorize

from conftest import (corpus_from_counts, csv_text_per_cell, fit_with_labels, make_dataset,
                      merge_phrases, post_record, same_fields, token_ids, tokenize)


def _corpus_of(*titles: str, phrase_min_count: int = 99):
    """The corpus of posts with these titles, every term kept."""
    dataset = make_dataset([post_record(f"p{i}", title=title)
                            for i, title in enumerate(titles)], [])
    return build_corpus(dataset, min_df=1, max_df_fraction=1.0,
                        phrase_min_count=phrase_min_count)


def test_tokenize_normalization():
    corpus = _corpus_of("Pay my Credit CARD bill!")
    assert corpus.terms == ("pay", "credit", "card", "bill")


def test_tokenize_empty():
    """A post without text has no tokens, so it is not a document."""
    assert _corpus_of("", "loan").excluded_doc_ids == ("p0",)


def test_tokenize_strips_urls_short_tokens_and_numbers():
    text = "Go to https://example.com/offers?q=1 now, I owe $12 at 3.5% APR in 2021"
    assert _corpus_of(text).terms == ("owe", "apr")


def test_phrase_merge_triggers_at_threshold():
    # (credit, card) occurs exactly 6 times across the corpus.
    merged = _corpus_of(*["credit card credit card"] * 3, phrase_min_count=6)
    assert merged.terms == ("credit_card",)
    assert merged.documents == (((0, 2),),) * 3
    not_merged = _corpus_of(*["credit card credit card"] * 3, phrase_min_count=7)
    assert not_merged.terms == ("credit", "card")
    assert not_merged.documents == (((0, 2), (1, 2)),) * 3


def test_phrase_merge_is_non_overlapping():
    # "pay pay pay" has the pair (pay, pay) twice; greedy scan merges once.
    merged = _corpus_of(*["pay pay pay"] * 10, phrase_min_count=20)
    assert merged.terms == ("pay_pay", "pay")
    assert merged.documents == (((0, 1), (1, 1)),) * 10


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
    assert "credit_card" in merged.terms
    assert "credit" in merged.terms    # survives via p3
    split = build_corpus(d, min_df=1, max_df_fraction=1.0, phrase_min_count=4)
    assert "credit_card" not in split.terms


def test_min_df_includes_and_excludes():
    d = make_dataset([
        post_record("p1", title="loan help today"),
        post_record("p2", title="loan balance"),
        post_record("p3", title="loan unique123"),
    ], [])
    corpus = build_corpus(d, min_df=2, max_df_fraction=1.0, phrase_min_count=99)
    assert "loan" in corpus.terms
    assert "unique123" not in corpus.terms


def test_max_df_fraction_excludes_ubiquitous_word():
    d = make_dataset([
        post_record("p1", title="loan alpha"),
        post_record("p2", title="loan beta"),
        post_record("p3", title="loan alpha"),
        post_record("p4", title="loan beta"),
    ], [])
    corpus = build_corpus(d, min_df=1, max_df_fraction=0.5, phrase_min_count=99)
    assert "loan" not in corpus.terms     # df 4 > 0.5 * 4
    assert set(corpus.terms) == {"alpha", "beta"}  # df 2 == 0.5 * 4


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
    assert corpus.terms == (
        "loan", "advice", "payment", "month", "credit", "card", "bill", "pay",
        "refinance", "budget", "plan", "rent")
    assert np.bincount(corpus.term_ids).tolist() == [2, 3, 2, 2, 1, 1, 1, 2, 1, 2, 2, 2]
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
    assert same_fields(a, b)


def test_corpus_roundtrip(tmp_path):
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=2)
    save_corpus(corpus, tmp_path / "corpus")
    assert same_fields(load_corpus(tmp_path / "corpus"), corpus)


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


@pytest.mark.parametrize("doc_ids, taken", [
    (("d000", "d001", "d002"), True), (("d001", "d000", "d002"), False),
    (("d000", "d000", "d002"), False), (("d10", "d11", "d9"), True),
    (("d9", "d10", "d11"), False)],
    ids=["ascending", "swapped", "repeated", "str-order", "number-order"])
def test_corpus_refuses_doc_ids_out_of_order_or_repeated(doc_ids, taken):
    """Doc ids must be strictly ascending in str order, the order of a
    dataset's posts, in which "d10" sorts before "d9"."""
    docs = [{"aa": 1}, {"bb": 2}, {"aa": 1, "bb": 1}]
    if taken:
        assert corpus_from_counts(docs, doc_ids).doc_ids == doc_ids
    else:
        with pytest.raises(ValueError, match="doc ids must be strictly ascending"):
            corpus_from_counts(docs, doc_ids)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_tokenize_output_properties(text):
    stop = default_stopwords()
    try:
        terms = _corpus_of(text).terms
    except DataError:       # no token at all
        terms = ()
    assert terms == tuple(dict.fromkeys(tokenize(text)))
    for token in terms:
        assert token == token.lower()
        assert len(token) >= 2
        assert token not in stop
        assert any(ch.isalpha() for ch in token)


def _token_ids_of(texts):
    """``_token_ids`` of posts with these (title, body) pairs, as lists."""
    dataset = make_dataset([post_record(f"p{i:02d}", title=title, selftext=body)
                            for i, (title, body) in enumerate(texts)], [])
    terms, ids, posts = _token_ids(dataset)
    return terms, ids.tolist(), posts.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(), st.text()), min_size=1, max_size=6))
def test_token_ids_equal_the_regex_tokenizer(texts):
    """The bytes tokenizer finds the runs that the regex finds, on any
    Unicode text."""
    assert _token_ids_of(texts) == token_ids(title + " " + body for title, body in texts)


@pytest.mark.parametrize("title, body, terms, tokens", [
    ("\u212aelvin", "", ["kelvin"], ["kelvin"]),            # KELVIN SIGN lowercases to "k"
    ("\u0130stanbul", "", ["i", "stanbul"], ["stanbul"]),   # U+0130 to "i" and U+0307
    ("\uff14\uff10\uff11k loan", "", ["k", "loan"], ["loan"]),   # fullwidth digits split
    ("loan\x00debt", "", ["loan", "debt"], ["loan", "debt"]),
    ("loan", "see https://bank.example/loan?q=1", ["loan", "see"], ["loan"]),
], ids=["kelvin-sign", "dotted-capital-i", "fullwidth-digits", "nul", "url-at-end"])
def test_token_ids_of_characters_that_are_not_ascii(title, body, terms, tokens):
    found, ids, _ = _token_ids_of([(title, body)])
    assert (found, [found[i] for i in ids]) == (terms, tokens)
    assert (found, ids) == token_ids([title + " " + body])[:2]


# 46,340 * 46,341 + 46,339 is 2,147,488,279, past 2**31 - 1: a key of
# the last two ids formed in int32 would wrap.
_N_WIDE = 46_341


def test_phrase_pair_keys_past_int32_do_not_wrap():
    """A pair of two int32 ids whose key ``a * n + b`` exceeds 2**31 - 1
    merges, and no other pair does."""
    terms = [f"t{i}" for i in range(_N_WIDE)]
    a, b = _N_WIDE - 1, _N_WIDE - 2
    ids = np.array([a, b, 0, a, b, 1, a, b, 2], dtype=np.int32)
    posts = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int32)
    names, tokens, rows = _merge_phrases(terms, ids, posts, min_count=3)
    assert names == [f"t{a}_t{b}", "t0", "t1", "t2"]
    assert tokens.tolist() == [0, 1, 0, 2, 0, 3]
    assert rows.tolist() == [0, 0, 1, 1, 2, 2]


def test_post_term_keys_past_int32_do_not_wrap():
    """A (post, term) pair of int32 columns whose key ``post * n_all +
    term`` exceeds 2**31 - 1 keeps its place and its count."""
    posts = np.array([0, _N_WIDE - 1, _N_WIDE - 1], dtype=np.int32)
    tokens = np.array([_N_WIDE - 1, _N_WIDE - 2, _N_WIDE - 2], dtype=np.int32)
    rows, terms, counts = _vectors(posts, tokens, _N_WIDE)
    assert (rows.tolist(), terms.tolist(), counts.tolist()) \
        == ([0, _N_WIDE - 1], [_N_WIDE - 1, _N_WIDE - 2], [1, 2])


@pytest.mark.parametrize("n_triplets", [_TRIPLETS_BLOCK - 1, _TRIPLETS_BLOCK,
                                        _TRIPLETS_BLOCK + 1],
                         ids=["block-less-one", "block", "block-plus-one"])
def test_documents_csv_across_a_block_boundary(tmp_path, n_triplets):
    """``documents.csv``, formatted a block of rows at a time, is the text
    of one template over every triplet."""
    term_ids = np.arange(n_triplets) % 3
    offsets = np.append(np.arange(0, n_triplets, 3), n_triplets)
    corpus = Corpus(offsets=offsets, term_ids=term_ids, counts=np.arange(n_triplets) % 7 + 1,
                    doc_ids=tuple(f"d{i:05d}" for i in range(len(offsets) - 1)),
                    terms=("a", "b", "c"), excluded_doc_ids=())
    save_corpus(corpus, tmp_path)
    doc_idx = np.repeat(np.arange(len(corpus)), np.diff(offsets))
    assert (tmp_path / "documents.csv").read_text(encoding="utf-8") == csv_text_per_cell(
        ("doc_idx", "term_id", "count"),
        zip(doc_idx.tolist(), term_ids.tolist(), corpus.counts.tolist()))


def test_documents_csv_skips_empty_documents(tmp_path):
    """A document without triplets has no row, and each row keeps its own
    document's doc_idx, on both sides of a block boundary."""
    n_triplets = _TRIPLETS_BLOCK + 5
    offsets = np.array([0, 0, 3, 3, _TRIPLETS_BLOCK, _TRIPLETS_BLOCK, n_triplets, n_triplets])
    doc_idx = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    term_ids = np.arange(n_triplets) - offsets[doc_idx]
    corpus = Corpus(offsets=offsets, term_ids=term_ids, counts=np.ones(n_triplets),
                    doc_ids=tuple(f"d{i}" for i in range(len(offsets) - 1)),
                    terms=tuple(f"t{i}" for i in range(n_triplets)), excluded_doc_ids=())
    save_corpus(corpus, tmp_path)
    assert (tmp_path / "documents.csv").read_text(encoding="utf-8") == csv_text_per_cell(
        ("doc_idx", "term_id", "count"),
        zip(doc_idx.tolist(), term_ids.tolist(), [1] * n_triplets))


def test_doc_ids_are_not_the_datasets_strings():
    """The corpus's ids equal its posts' ids but are new objects, so that a
    corpus keeps no string of a parsed dataset alive."""
    dataset = make_dataset([post_record(f"p{i}", title=title)
                            for i, title in enumerate(["", "loan", "debt"])], [])
    corpus = build_corpus(dataset, min_df=1, max_df_fraction=1.0)
    ids = corpus.doc_ids + corpus.excluded_doc_ids
    assert ids == ("p1", "p2", "p0")
    assert not set(map(id, ids)) & set(map(id, dataset.posts.id))


def _reference_vectors(token_docs, min_df, max_df_fraction):
    """The vocabulary and the (term_id, count) vectors of the non-empty
    documents, counted one token at a time."""
    n_docs = sum(1 for doc in token_docs if doc)
    df = Counter()
    for doc in token_docs:
        df.update(set(doc))
    keep: dict[str, int] = {}
    for doc in token_docs:
        for token in doc:
            if token not in keep and min_df <= df[token] <= max_df_fraction * n_docs:
                keep[token] = len(keep)
    vectors = []
    for doc in token_docs:
        counts = Counter(keep[t] for t in doc if t in keep)
        if counts:
            vectors.append(tuple(sorted(counts.items())))
    return tuple(keep), tuple(df[t] for t in keep), tuple(vectors)


_WORDS = st.sampled_from(["loan", "debt", "card", "rent", "pay", "401k", "2021", "tax"])
_POSTS = st.lists(st.lists(_WORDS, max_size=12), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(posts=_POSTS, min_df=st.integers(1, 3), max_df=st.sampled_from([0.5, 0.75, 1.0]),
       phrase_min_count=st.integers(1, 4))
def test_build_save_load_round_trips_the_arrays(posts, min_df, max_df, phrase_min_count):
    """The arrays hold what a token-at-a-time count gives, and
    ``documents.csv`` and its siblings load back to the same arrays."""
    dataset = make_dataset([post_record(f"p{i:02d}", title=" ".join(words))
                            for i, words in enumerate(posts)], [])
    token_docs = merge_phrases([tokenize(title + " " + body) for title, body
                                in zip(dataset.posts.title, dataset.posts.body)],
                               phrase_min_count)
    terms, df, vectors = _reference_vectors(token_docs, min_df, max_df)
    if not terms:
        with pytest.raises(DataError):
            build_corpus(dataset, min_df, max_df, phrase_min_count)
        return
    corpus = build_corpus(dataset, min_df, max_df, phrase_min_count)
    assert (corpus.terms, corpus.documents) == (terms, vectors)
    with tempfile.TemporaryDirectory() as tmp:
        save_corpus(corpus, Path(tmp))
        rows = (Path(tmp) / "vocabulary.tsv").read_text(encoding="utf-8").splitlines()[1:]
        loaded = load_corpus(Path(tmp))
    assert tuple(int(row.split("\t")[2]) for row in rows) == df
    assert same_fields(loaded, corpus)
    for array in (loaded.offsets, loaded.term_ids, loaded.counts):
        assert array.dtype == np.int64 and not array.flags.writeable


# Words the tokenizer keeps, drops or splits: stopwords, numbers, one-letter
# words, URLs, capitals and punctuation, and runs of one repeated pair.
_TEXT = st.lists(st.sampled_from([
    "pay", "Pay", "PAY", "card", "credit", "loan", "the", "and", "my", "a", "x",
    "2021", "12", "401k", "https://bank.example/pay", "www.loan.example", "pay,card",
    "pay-pay", "3.5%", "pay pay pay", "credit card", "card credit"]), max_size=14).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=10),
       min_df=st.integers(1, 3), max_df=st.sampled_from([0.5, 0.75, 1.0]),
       phrase_min_count=st.integers(1, 5))
def test_build_corpus_equals_the_string_oracle(texts, min_df, max_df, phrase_min_count):
    """Tokenizing to ids and merging phrases on ids give the vocabulary,
    the vectors and the documents that the string tokenizer and the string
    phrase pass give."""
    dataset = make_dataset([post_record(f"p{i:02d}", title=title, selftext=body)
                            for i, (title, body) in enumerate(texts)], [])
    token_docs = merge_phrases([tokenize(title + " " + body) for title, body in texts],
                               phrase_min_count)
    terms, _, vectors = _reference_vectors(token_docs, min_df, max_df)
    if not terms:
        with pytest.raises(DataError):
            build_corpus(dataset, min_df, max_df, phrase_min_count)
        return
    corpus = build_corpus(dataset, min_df, max_df, phrase_min_count)
    assert (corpus.terms, corpus.documents) == (terms, vectors)
    assert corpus.doc_ids == tuple(f"p{i:02d}" for i, doc in enumerate(token_docs)
                                   if set(doc) & set(terms))
    assert corpus.total_tokens == sum(n for vector in vectors for _, n in vector)


def _token_tally(corpus, lexicon):
    """Category rows counted over each document's tokens, one at a time."""
    terms = corpus.terms
    rows = np.zeros((len(corpus), len(lexicon)))
    for i, vector in enumerate(corpus.documents):
        doc = [terms[term_id] for term_id, count in vector for _ in range(count)]
        if not doc:
            continue
        inv_total = 1.0 / len(doc)
        for j, wordset in enumerate(lexicon.values()):
            hits = sum(1 for token in doc if token in wordset)
            if hits:
                rows[i, j] = hits * inv_total
    return rows


_TERMS = [f"w{i}" for i in range(12)]


@settings(max_examples=80, deadline=None)
@given(docs=st.lists(st.dictionaries(st.sampled_from(_TERMS), st.integers(1, 9), max_size=8),
                     min_size=1, max_size=10),
       wordsets=st.lists(st.sets(st.sampled_from(_TERMS + ["absent"]), min_size=1),
                         min_size=1, max_size=5))
def test_categorize_equals_the_token_tally(docs, wordsets):
    corpus = corpus_from_counts(docs)
    lexicon = {f"c{j}": frozenset(w) for j, w in enumerate(wordsets)}
    rows = categorize(corpus, lexicon)
    assert rows.tobytes() == _token_tally(corpus, lexicon).tobytes()
    assert rows.shape == (len(corpus.doc_ids), len(lexicon))


@settings(max_examples=15, deadline=None)
@given(posts=_POSTS.filter(lambda posts: sum(map(len, posts)) > 4), k=st.integers(2, 4),
       seed=st.integers(0, 2**32))
def test_fit_on_a_loaded_corpus_equals_fit_on_the_built_one(posts, k, seed):
    dataset = make_dataset([post_record(f"p{i:02d}", title=" ".join(words))
                            for i, words in enumerate(posts)], [])
    try:
        corpus = build_corpus(dataset, min_df=1, max_df_fraction=1.0, phrase_min_count=3)
    except DataError:       # every word a number
        return
    with tempfile.TemporaryDirectory() as tmp:
        save_corpus(corpus, Path(tmp))
        loaded = load_corpus(Path(tmp))
    config = LdaConfig(k=k, iterations=6, burn_in=2, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # vocabulary smaller than k
        (built, built_labels, built_trace), (again, again_labels, again_trace) = (
            fit_with_labels(corpus, config), fit_with_labels(loaded, config))
    assert built.theta.tobytes() == again.theta.tobytes()
    assert built.phi.tobytes() == again.phi.tobytes()
    assert built_labels == again_labels
    assert np.array(built_trace).tobytes() == np.array(again_trace).tobytes()


# documents.csv of the five-post corpus (min_df=1, max_df_fraction=1.0,
# phrase_min_count=99) starts "doc_idx,term_id,count\n0,0,2\n0,1,1\n0,2,1\n0,3,1\n1,4,2".
@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("0,1,1\n0,2,1", "0,2,1\n0,1,1"), "does not increase"),
    (lambda text: text.replace("0,1,1\n", "0,0,1\n"), "does not increase"),
    (lambda text: text.replace("0,3,1\n1,4,2\n", "1,4,2\n0,3,1\n"), "decreases"),
    (lambda text: text.replace("0,1,1\n", "0,1,0\n"), "out of range"),
    (lambda text: text.replace("0,1,1\n", "0,12,1\n"), "out of range"),
    (lambda text: text.replace("0,1,1\n", "5,1,1\n"), "out of range"),
    (lambda text: text.replace("0,1,1\n", "0,1,1\n\n"), "three cells"),
    (lambda text: text.replace("0,1,1\n", "0,1\n"), "corrupt"),
    (lambda text: text.replace("0,1,1\n", "0,1,1,\n"), "corrupt"),
    (lambda text: text.replace("0,1,1\n", "0,1,1.0\n"), "not an integer"),
    (lambda text: text.replace("0,1,1\n", "0,1,1e0\n"), "not an integer"),
    (lambda text: text.replace("0,1,1\n", "0,1, 1\n"), "not an integer"),
    (lambda text: text.replace("doc_idx", "doc"), "header"),
    (lambda text: text[:-1], "whole lines"),
    (lambda text: text.replace("0,1,1\n", "0,1,2\n"), "tokens where meta.json"),
], ids=["swapped-terms", "repeated-term", "swapped-docs", "zero-count", "term-range",
        "doc-range", "blank-line", "short-line", "long-line", "float-count",
        "exponent-count", "space", "header", "no-newline",
        "total"])
def test_load_corpus_rejects_a_damaged_triplets_file(tmp_path, edit, message):
    corpus = build_corpus(_five_post_dataset(), min_df=1, max_df_fraction=1.0,
                          phrase_min_count=99)
    save_corpus(corpus, tmp_path)
    path = tmp_path / "documents.csv"
    text = path.read_text(encoding="utf-8")
    assert text.startswith("doc_idx,term_id,count\n0,0,2\n0,1,1\n0,2,1\n0,3,1\n1,4,2\n")
    path.write_text(edit(text), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_corpus(tmp_path)
