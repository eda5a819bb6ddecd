"""The writers fill one template per file and spell each distinct float
once; their text equals that of the per-cell oracles in conftest.py."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forumpulse.fileio import float_cells, write_csv
from forumpulse.interaction import InteractionGraph, dot_text, edges_text, graphml_text
from forumpulse.lda import LdaConfig, TopicModel, save_model
from forumpulse.topics import save_assignment

from conftest import (assignment_of, csv_text_per_cell, dot_text_per_cell, graph_of,
                      graphml_text_per_cell, model_text_per_cell)

EDGE_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16, 0.1, 1.0)
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
# A few floats, drawn again and again: repeated values, as in theta.
POOLS = st.lists(FLOATS, min_size=1, max_size=5).map(st.sampled_from)
CELLS = st.none() | st.booleans() | st.integers() | st.text() | FLOATS
NAMES = st.text(alphabet=st.sampled_from("ab&<>\"'\\\n\t\r é%"), min_size=1, max_size=6)


def written(path) -> str:
    """The file's text as written, without newline translation."""
    return path.read_bytes().decode("utf-8")


@st.composite
def tables(draw):
    width = draw(st.integers(0, 4))
    header = draw(st.lists(st.text(alphabet="abc_", min_size=1), min_size=width,
                           max_size=width))
    cells = draw(POOLS) | CELLS
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=8))
    return header, rows


@st.composite
def float_arrays(draw, min_dims=1):
    shape = draw(st.lists(st.integers(0, 5), min_size=min_dims, max_size=2))
    return draw(arrays(np.float64, tuple(shape), elements=draw(POOLS)))


@settings(max_examples=150, deadline=None)
@given(table=tables(), delimiter=st.sampled_from([",", "\t"]))
def test_write_csv_writes_the_per_cell_text(tmp_path_factory, table, delimiter):
    header, rows = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    write_csv(path, header, iter(rows), delimiter)
    assert written(path) == csv_text_per_cell(header, rows, delimiter)


def test_write_csv_cells_of_each_kind(tmp_path):
    rows = [(-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16),
            (None, True, False, 0, -2**70, "déjà vu", "%s %%"),
            (0.1, 0.1, 0.1, None, None, "", "€")]
    header = tuple("abcdefg")
    write_csv(tmp_path / "t.csv", header, rows)
    assert written(tmp_path / "t.csv") == csv_text_per_cell(header, rows)
    assert written(tmp_path / "t.csv").splitlines()[1:] == [
        "-0.0,nan,inf,-inf,5e-324,1e-05,1e+16",
        ",True,False,0,-1180591620717411303424,déjà vu,%s %%",
        "0.1,0.1,0.1,,,,€"]


def test_write_csv_of_an_empty_table_writes_its_header(tmp_path):
    write_csv(tmp_path / "t.csv", ("a", "b"), [])
    assert written(tmp_path / "t.csv") == "a,b\n"


@pytest.mark.parametrize("rows", [[(1, 2), (3,)], [(1, 2, 3)], [()], [(1, 2), (3, 4, 5)]])
def test_write_csv_rejects_a_row_of_another_width(tmp_path, rows):
    """A ragged row raises before anything is written: one template would
    shift every later cell into the wrong column."""
    with pytest.raises(ValueError, match="2 cells wide"):
        write_csv(tmp_path / "t.csv", ("a", "b"), rows)
    assert not (tmp_path / "t.csv").exists()


@settings(max_examples=150, deadline=None)
@given(values=float_arrays())
def test_float_cells_spell_each_float(values):
    assert float_cells(values).tolist() == np.vectorize(repr, otypes=[object])(values).tolist()
    spelled = float_cells(values, json.dumps)
    assert spelled.shape == values.shape
    assert spelled.reshape(-1).tolist() == [json.dumps(x) for x in values.reshape(-1).tolist()]


def test_float_cells_spell_each_bit_pattern_once():
    values = np.array([[0.5, -0.0, 0.0], [0.5, math.nan, -0.0]])
    calls = []
    cells = float_cells(values, lambda x: calls.append(x) or repr(x))
    assert cells.tolist() == [["0.5", "-0.0", "0.0"], ["0.5", "nan", "-0.0"]]
    assert len(calls) == 4


def float_cells_by_equality(values: np.ndarray) -> np.ndarray:
    """``float_cells`` with the floats deduplicated by equality, not by bit
    pattern."""
    distinct, index = np.unique(values.reshape(-1), return_inverse=True)
    return np.array([repr(x) for x in distinct.tolist()], dtype=object)[index]


def test_deduplicating_by_equality_would_write_negative_zero_as_zero():
    """Equality puts -0.0 and 0.0 in one class, so one spelling would be
    written for both; ``float_cells`` compares bit patterns."""
    values = np.array([0.0, -0.0, 0.25, -0.0])
    want = ["0.0", "-0.0", "0.25", "-0.0"]
    assert float_cells(values).tolist() == want
    assert float_cells_by_equality(values).tolist() != want


def hand_model(theta: np.ndarray, phi: np.ndarray) -> TopicModel:
    """A model around ``theta`` and ``phi`` whose terms hold the text
    ``save_model`` puts theta and phi in place of."""
    n_docs, k = theta.shape
    return TopicModel(
        config=LdaConfig(k=max(k, 2), iterations=3, burn_in=1, seed=5),
        doc_ids=tuple(f"d{i}é" for i in range(n_docs)),
        terms=tuple(f'"{("phi", "theta")[j % 2]}": null {j}' for j in range(phi.shape[1])),
        theta=theta, phi=phi)


def test_model_with_negative_zero_and_repeated_values(tmp_path):
    theta = np.array([[0.5, 0.5], [-0.0, 1.0], [0.5, 0.5], [1.0, -0.0], [0.0, 1.0]])
    phi = np.array([[0.25, 0.75, -0.0], [0.75, 0.25, 0.0]])
    save_model(hand_model(theta, phi), tmp_path / "model.json")
    text = written(tmp_path / "model.json")
    assert text == model_text_per_cell(hand_model(theta, phi))
    assert '"theta": [[0.5, 0.5], [-0.0, 1.0], [0.5, 0.5], [1.0, -0.0], [0.0, 1.0]]' in text


@settings(max_examples=100, deadline=None)
@given(theta=float_arrays(min_dims=2), phi=float_arrays(min_dims=2))
def test_save_model_writes_the_json_dumps_text(tmp_path_factory, theta, phi):
    """Any theta and phi, non-finite floats included (spelled NaN and
    Infinity, as json.dumps does), empty ones too."""
    path = tmp_path_factory.getbasetemp() / "model.json"
    save_model(hand_model(theta, phi), path)
    assert written(path) == model_text_per_cell(hand_model(theta, phi))


@st.composite
def graphs(draw):
    nodes = sorted(draw(st.sets(NAMES, max_size=6)))
    if not nodes:
        return (), ()
    keys = sorted(draw(st.sets(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                               max_size=10)))
    return tuple(nodes), tuple((s, t, draw(st.integers(1, 10**6))) for s, t in keys)


@settings(max_examples=150, deadline=None)
@given(graph=graphs())
def test_graph_exports_write_the_per_cell_text(graph):
    nodes, edges = graph
    assert graphml_text(graph_of(nodes, edges)) == graphml_text_per_cell(nodes, edges)
    assert dot_text(graph_of(nodes, edges)) == dot_text_per_cell(nodes, edges)
    assert edges_text(graph_of(nodes, edges)) == csv_text_per_cell(("from", "to", "weight"),
                                                                  edges)


def test_empty_graph_exports():
    assert graphml_text(graph_of((), ())) == graphml_text_per_cell((), ())
    assert dot_text(graph_of((), ())) == "digraph interactions {\n}\n"


def test_graph_export_rejects_an_edge_without_a_weight():
    with pytest.raises(ValueError):
        dot_text(InteractionGraph(("a", "b"), [0], [1], []))


def test_save_assignment_writes_the_per_cell_text(tmp_path):
    dominant = (frozenset({2, 0}), frozenset(), frozenset({1}), frozenset({0, 2}),
                frozenset({10, 2}))
    assignment = assignment_of(dominant, 11)
    save_assignment(tmp_path / "dominance.csv", assignment)
    assert written(tmp_path / "dominance.csv") == csv_text_per_cell(
        ("post_id", "dominant_topics"), ((d, "|".join(str(t) for t in sorted(topics)))
                                         for d, topics in zip(assignment.doc_ids, dominant)))
    assert written(tmp_path / "dominance.csv").splitlines()[1:] == [
        "p0,0|2", "p1,", "p2,1", "p3,0|2", "p4,2|10"]
