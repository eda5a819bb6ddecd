from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import forumpulse
import forumpulse.fileio as fileio
import forumpulse.lda as lda
import forumpulse.pipeline as pipeline
import forumpulse.topics as topics
from forumpulse.corpus import load_corpus
from forumpulse.errors import DataError, StageError, UsageError
from forumpulse.fileio import StageContext, read_json, sha256_file, write_json
from forumpulse.fixture import TOPIC_WORD_POOLS, generate_fixture
from forumpulse.ingest import load_dataset
from forumpulse.interaction import load_graph, load_user_metrics
from forumpulse.lda import load_model
from forumpulse.pipeline import (CONFIG_DEFAULTS, CONFIG_SCHEMA, STAGES, check_config,
                                 load_config, run_pipeline, stage_seed)
from forumpulse.topics import load_assignment

from conftest import FIXTURE_DIR, fit_with_labels

EXPECTED_FILES = [
    "manifest.json", "dataset.json", "activity_table.csv", "score_relations.csv",
    "response_times.csv", "stats_summary.json", "corpus/vocabulary.tsv",
    "corpus/documents.csv", "corpus/docs.csv", "corpus/meta.json", "model.json",
    "skewness_scan.csv", "top_words.csv", "dominance.csv", "dominance_thresholds.csv",
    "topic_presence.csv", "cooccurrence.csv", "monthly_topics.csv",
    "category_matrix.csv", "pca_components.csv", "pca_variance.csv",
    "topic_profiles.csv", "edges.csv", "graph.graphml", "graph.dot",
    "user_classes.json", "user_metrics.csv", "spread_influence.csv",
    "top_influencers.csv", "influencer_subgraph.graphml", "report.json",
]


def small_config(tmp_path: Path, **extra) -> Path:
    generate_fixture(seed=5, n_posts=40, n_users=12, k_true=3,
                     out_dir=tmp_path / "dump")
    config = {
        "posts": "dump/posts.jsonl",
        "comments": "dump/comments.jsonl",
        "out_dir": "artifacts",
        "seed": 5,
        "corpus.min_df": 2,
        "corpus.max_df_fraction": 0.9,
        "lda.k": 3,
        "lda.iterations": 40,
        "lda.burn_in": 10,
        "lexicon.components": 6,
        "graph.top_k": 3,
    }
    config.update(extra)
    path = tmp_path / "config.json"
    write_json(path, config)
    return path


def test_topic_word_pools_are_pairwise_disjoint():
    seen: set[str] = set()
    for pool in TOPIC_WORD_POOLS:
        assert not (seen & set(pool))
        seen.update(pool)


@pytest.mark.parametrize("k, k_max, finite", [(4, 100, True), (None, 4, True), (5, 4, False),
                                               (None, 5, False)])
def test_alpha_times_the_largest_k_fitted_must_be_finite(k, k_max, finite):
    """The largest k fitted is lda.k when it is set, else lda.k_max; 4e307
    times 5 overflows a float, times 4 does not."""
    config = {**CONFIG_DEFAULTS, "lda.alpha": 4e307, "lda.k": k, "lda.k_max": k_max}
    if finite:
        assert check_config(config) is config
    else:
        with pytest.raises(UsageError, match="alpha \\* k finite"):
            check_config(config)


@pytest.mark.parametrize("key", ["lda.k", "lda.k_max"])
def test_k_is_at_most_the_ceiling(key):
    """``lda.k`` and ``lda.k_max`` may reach 256 and no further."""
    config = {**CONFIG_DEFAULTS, key: 256}
    assert check_config(config) is config
    for value in (257, 10**9):
        with pytest.raises(UsageError, match=f"{key} <= 256"):
            check_config({**CONFIG_DEFAULTS, key: value})


def test_fixture_is_deterministic(tmp_path):
    generate_fixture(seed=9, n_posts=25, n_users=6, k_true=3,
                     out_dir=tmp_path / "a")
    generate_fixture(seed=9, n_posts=25, n_users=6, k_true=3,
                     out_dir=tmp_path / "b")
    for name in ("posts.jsonl", "comments.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    generate_fixture(seed=10, n_posts=25, n_users=6, k_true=3,
                     out_dir=tmp_path / "c")
    assert (tmp_path / "a" / "posts.jsonl").read_bytes() != \
        (tmp_path / "c" / "posts.jsonl").read_bytes()


def test_single_user_fixture_yields_edgeless_graph(tmp_path):
    from forumpulse.ingest import parse_dump
    from forumpulse.interaction import build_graph
    posts_path, comments_path = generate_fixture(
        seed=3, n_posts=10, n_users=1, k_true=2, out_dir=tmp_path)
    with posts_path.open() as ps, comments_path.open() as cs:
        graph = build_graph(parse_dump(ps, cs))
    assert graph.nodes == () and len(graph.weight) == 0


def test_full_run_writes_every_artifact(tmp_path):
    config = small_config(tmp_path)
    lines: list[str] = []
    status = run_pipeline(config, echo=lines.append)
    assert lines[-1] == f"pipeline complete: {tmp_path / 'artifacts'}"
    for name in EXPECTED_FILES:
        assert (tmp_path / "artifacts" / name).exists(), name
    assert all(s == "ran" for s in status.values())


def test_stage_table_declares_every_artifact():
    assert [s.name for s in STAGES] == [
        "ingest", "stats", "corpus", "topics", "dominance", "cooccur",
        "timeline", "lexicon", "graph", "metrics", "report"]
    declared = [name for stage in STAGES for name in stage.outputs]
    assert sorted(declared + ["manifest.json"]) == sorted(EXPECTED_FILES)


def test_rerun_skips_all_stages(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    lines: list[str] = []
    again = run_pipeline(config, echo=lines.append)
    assert not ran(again)
    assert lines[-1] == f"all stages up to date in {tmp_path / 'artifacts'}"


def test_fixed_k_bypasses_scan_and_stale_stage_reruns(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    scan = (tmp_path / "artifacts" / "skewness_scan.csv").read_text().splitlines()
    assert len(scan) == 2                      # header + the single fixed k
    assert scan[1].startswith("3,")

    # Changing one stage parameter reruns that stage and its dependents only.
    again = run_pipeline(config, overrides={"graph.top_k": "2"},
                         echo=lambda *_: None)
    assert again["metrics"] == "ran"
    assert again["topics"] == "skipped"
    assert again["ingest"] == "skipped"


def ran(statuses) -> list[str]:
    return [name for name, status in statuses.items() if status == "ran"]


def test_interrupted_outputs_recomputed(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    target = tmp_path / "artifacts" / "cooccurrence.csv"
    before = sha256_file(target)
    target.write_text("tampered\n", encoding="utf-8")
    result = run_pipeline(config, echo=lambda *_: None)
    assert result["cooccur"] == "ran"
    assert sha256_file(target) == before

    # A deleted output reruns only its stage; the stage writes the same
    # bytes again, so the report's input digests still match.
    target = tmp_path / "artifacts" / "graph.dot"
    before = sha256_file(target)
    target.unlink()
    result = run_pipeline(config, echo=lambda *_: None)
    assert ran(result) == ["graph"]
    assert sha256_file(target) == before


def test_edited_input_reruns_every_stage(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    posts = tmp_path / "dump" / "posts.jsonl"
    posts.write_text("".join(posts.read_text().splitlines(keepends=True)[:-1]),
                     encoding="utf-8")
    result = run_pipeline(config, echo=lambda *_: None)
    assert ran(result) == [stage.name for stage in STAGES]


def test_each_intermediate_parsed_once_while_stages_read_it(tmp_path, monkeypatch):
    """A fresh run parses only ``dataset.json``, once after the fit (``ingest``
    hands its dataset to ``stats`` and ``corpus``), and its lexicon, once
    for the check before any stage runs, and is handed every other
    intermediate by the stage that writes it; it derives the dominant
    topics and the reply graph once, in the stages that write them. A ``graph.top_k`` rerun
    parses neither the model nor the dataset: only the two files it ranks
    from and the assignment the report reads."""
    calls = Counter()
    for name in ("load_dataset", "load_model", "load_corpus", "load_assignment",
                 "load_graph", "load_user_metrics", "load_lexicon", "dominant_topics",
                 "build_graph", "compute_user_metrics"):
        # Replaced in every module that holds it: a stage looks it up in its own.
        modules = [m for key, m in list(sys.modules.items())
                   if key.split(".")[0] == "forumpulse" and name in vars(m)]

        def counted(*args, call=getattr(modules[0], name), name=name):
            calls[name] += 1
            return call(*args)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
    write_json(tmp_path / "lexicon.json", {"money": ["loan", "debt"], "cars": ["car"]})
    config = small_config(tmp_path, **{"lexicon.path": "lexicon.json"})
    run_pipeline(config, echo=lambda *_: None)
    assert calls == {"load_dataset": 1, "load_lexicon": 1, "dominant_topics": 1,
                     "build_graph": 1, "compute_user_metrics": 1}
    assert (tmp_path / "artifacts" / "pca_components.csv").read_text(
        encoding="utf-8").startswith("component,cars,money\n")

    calls.clear()
    again = run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert calls == {"load_user_metrics": 1, "load_assignment": 1, "load_graph": 1,
                     "load_lexicon": 1}
    assert ran(again) == ["metrics", "report"]


def test_a_new_assignment_reruns_graph_with_the_same_graph_files(tmp_path):
    """``graph`` writes tau from the dominance files, so a rerun whose
    ``dominance.csv`` changed reruns it; the reply graph does not depend on
    them, so its three files keep their bytes."""
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    out = tmp_path / "artifacts"
    graph_files = ("edges.csv", "graph.graphml", "graph.dot")
    before = {name: sha256_file(out / name) for name in graph_files + ("dominance.csv",)}
    again = run_pipeline(config, overrides={"seed": "6"}, echo=lambda *_: None)
    assert sha256_file(out / "dominance.csv") != before.pop("dominance.csv")
    assert again["graph"] == "ran"
    assert read_json(out / "manifest.json")["stages"]["graph"]["reason"] \
        == "ran:input:dominance.csv"
    assert {name: sha256_file(out / name) for name in graph_files} == before


def test_next_run_removes_the_temporary_files_of_a_killed_write(tmp_path):
    """A run killed inside ``write_text`` leaves a temporary file beside the
    output; the next run removes it, and no file the pipeline does not
    write, though every stage is up to date."""
    config = small_config(tmp_path)
    out = tmp_path / "artifacts"
    run_pipeline(config, out_dir=out, echo=lambda *_: None)
    stale = [out / ".activity_table.csv.4242.tmp", out / "corpus" / ".meta.json.17.tmp",
             out / ".manifest.json.99.tmp"]
    for path in stale:
        path.write_text("")
    (out / ".notes.tmp").write_text("not ours")
    assert not ran(run_pipeline(config, out_dir=out, echo=lambda *_: None))
    assert not any(path.exists() for path in stale)
    assert (out / ".notes.tmp").read_text() == "not ours"


@pytest.mark.parametrize("name, removed", [
    (".activity_table.csv.4242.tmp", True),
    ("corpus/.meta.json.17.tmp", True),
    (".manifest.json.99.tmp", True),
    (".report.json..tmp", True),            # the part between may be empty
    (".edges.csv.1.2.tmp", True),           # or hold a dot
    (".notes.tmp", False),                  # no output is named notes
    (".edges.csv.tmp", False),              # no dot-separated part between
    (".edges.csv.1.tmp.old", False),
    ("edges.csv.1.tmp", False),             # not hidden
    (".meta.json.5.tmp", False),            # meta.json lies in corpus/
    ("corpus/.edges.csv.3.tmp", False),     # edges.csv does not
])
def test_a_run_removes_the_temporary_names_of_its_outputs(full_run, tmp_path, name, removed):
    """The next run removes a file named as ``write_text`` names its
    temporary file, ``.<output>.<anything>.tmp`` in the output's own
    directory, and keeps any other, though every stage is up to date."""
    _, run_dir = full_run
    out = tmp_path / "artifacts"
    shutil.copytree(run_dir, out)
    (out / name).write_text("")
    assert not ran(run_pipeline(run_dir.parent / "config.json", out_dir=out,
                                echo=lambda *_: None))
    assert (out / name).exists() is not removed


def test_same_dump_through_another_path_is_up_to_date(tmp_path):
    """Dump and lexicon files are keyed by their config keys, so the same
    files copied to another directory with their config leave every stage
    up to date; a manifest that keys them by path, as older code wrote it,
    reruns ``ingest`` alone, which writes the same dataset.json."""
    write_json(tmp_path / "a" / "lexicon.json", {"money": ["loan", "debt"], "cars": ["car"]})
    config = small_config(tmp_path / "a", **{"lexicon.path": "lexicon.json"})
    run_pipeline(config, out_dir=tmp_path / "artifacts", echo=lambda *_: None)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    lines: list[str] = []
    again = run_pipeline(tmp_path / "b" / "config.json", out_dir=tmp_path / "artifacts",
                         echo=lines.append)
    assert not ran(again)
    assert lines[0] == "[ingest] up to date, skipped"

    manifest_path = tmp_path / "artifacts" / "manifest.json"
    manifest = read_json(manifest_path)
    inputs = manifest["stages"]["ingest"]["inputs"]
    manifest["stages"]["ingest"]["inputs"] = {
        str(tmp_path / "a" / "dump" / f"{key}.jsonl"): digest
        for key, digest in inputs.items()}
    write_json(manifest_path, manifest)
    before = sha256_file(tmp_path / "artifacts" / "dataset.json")
    upgraded = run_pipeline(tmp_path / "b" / "config.json",
                            out_dir=tmp_path / "artifacts", echo=lambda *_: None)
    assert ran(upgraded) == ["ingest"]
    assert sha256_file(tmp_path / "artifacts" / "dataset.json") == before
    assert read_json(manifest_path)["stages"]["ingest"]["inputs"] == inputs


def test_report_is_handed_only_the_assignment(tmp_path, monkeypatch):
    """``report`` is handed only what it reads: on a fresh run the
    assignment its stage wrote, not the model, and after a ``metrics``
    rerun nothing, since ``metrics`` parses neither the assignment nor the
    dataset."""
    handed: list[list[str]] = []

    def report(ctx, run=STAGES[-1].run):
        handed.append(sorted(ctx.parsed))
        return run(ctx)

    assert STAGES[-1].name == "report"
    monkeypatch.setattr(pipeline, "STAGES",
                        STAGES[:-1] + (dataclasses.replace(STAGES[-1], run=report),))
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert handed == [["dominance.csv"], []]


def assert_same(handed, parsed, where: str) -> None:
    """``handed`` equals ``parsed`` field by field, of the same types; arrays
    in dtype, shape, write flag and bytes, floats bit for bit."""
    assert type(handed) is type(parsed), where
    if isinstance(handed, np.ndarray):
        assert (handed.dtype, handed.shape, handed.flags.writeable) \
            == (parsed.dtype, parsed.shape, parsed.flags.writeable), where
        assert handed.tobytes() == parsed.tobytes(), where
    elif dataclasses.is_dataclass(handed):
        for f in dataclasses.fields(handed):
            assert_same(getattr(handed, f.name), getattr(parsed, f.name), f"{where}.{f.name}")
    elif isinstance(handed, (tuple, list)):
        assert len(handed) == len(parsed), where
        for i, (a, b) in enumerate(zip(handed, parsed)):
            assert_same(a, b, f"{where}[{i}]")
    elif isinstance(handed, dict):
        assert list(handed) == list(parsed), where
        for key in handed:
            assert_same(handed[key], parsed[key], f"{where}[{key!r}]")
    elif isinstance(handed, float):
        assert handed.hex() == parsed.hex(), where
    else:
        assert handed == parsed, where


def test_handed_on_objects_equal_their_files(tmp_path, monkeypatch):
    """On a fresh run each stage is handed only files it reads, each held
    from the stage that wrote or parsed it, and every object handed on
    equals what its file parses to; ``topics`` is handed only the corpus."""
    handed: dict[str, dict] = {}

    def recording(stage):
        def run(ctx):
            handed[stage.name] = dict(ctx.parsed)
            return stage.run(ctx)
        return dataclasses.replace(stage, run=run)

    monkeypatch.setattr(pipeline, "STAGES", tuple(map(recording, STAGES)))
    run_pipeline(small_config(tmp_path), echo=lambda *_: None)
    out = tmp_path / "artifacts"
    assert {name: sorted(objects) for name, objects in handed.items()} == {
        "ingest": [], "stats": ["dataset.json"], "corpus": ["dataset.json"], "topics": ["corpus"],
        "dominance": ["model.json"], "cooccur": ["dominance.csv"],
        "timeline": ["dominance.csv"], "lexicon": ["corpus", "dominance.csv"],
        "graph": ["dataset.json", "dominance.csv"], "metrics": ["edges.csv", "user_metrics.csv"],
        "report": ["dominance.csv"]}
    parse = {"dataset.json": load_dataset, "corpus": load_corpus, "model.json": load_model,
             "dominance.csv": load_assignment, "edges.csv": load_graph,
             "user_metrics.csv": load_user_metrics}
    for stage, objects in handed.items():
        for name, value in objects.items():
            assert_same(value, parse[name](out / name), f"{stage}: {name}")


def test_each_file_hashed_once_per_run(tmp_path, monkeypatch):
    """A fresh run and a ``graph.top_k`` rerun hash each file at most once,
    and every stage records for an input the digest its producer recorded
    for it."""
    calls = Counter()

    def counted(path, call=fileio.sha256_file):
        calls[Path(path)] += 1
        return call(path)

    monkeypatch.setattr(fileio, "sha256_file", counted)
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    out = tmp_path / "artifacts"
    assert calls and max(calls.values()) == 1
    calls.clear()
    again = run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert ran(again) == ["metrics", "report"]
    assert calls and max(calls.values()) == 1

    records = read_json(out / "manifest.json")["stages"]
    produced = {name: digest for record in records.values()
                for name, digest in record["outputs"].items()}
    dumps = load_config(config)
    for stage in STAGES:
        for name, digest in records[stage.name]["inputs"].items():
            assert digest == (sha256_file(dumps[name]) if name in CONFIG_DEFAULTS
                              else produced[name]), (stage.name, name)
    assert read_json(out / "report.json")["artifacts"] == {
        name: produced[name] for stage in STAGES[:-1] for name in stage.outputs}


def test_manifest_records_why_each_stage_ran(tmp_path):
    """Each record a run writes names the first part of the skip key that
    changed: no record, a code file, the params, an input or an output."""
    config = small_config(tmp_path)
    manifest_path = tmp_path / "artifacts" / "manifest.json"

    def reasons(result) -> dict[str, str]:
        records = read_json(manifest_path)["stages"]
        return {name: records[name]["reason"] for name in ran(result)}

    result = run_pipeline(config, echo=lambda *_: None)
    assert reasons(result) == {stage.name: "ran:new" for stage in STAGES}
    result = run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert reasons(result) == {"metrics": "ran:params",
                               "report": "ran:input:top_influencers.csv"}
    (tmp_path / "artifacts" / "graph.dot").unlink()
    result = run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert reasons(result) == {"graph": "ran:output:graph.dot"}
    manifest = read_json(manifest_path)
    manifest["stages"]["cooccur"]["code"]["topics.py"] = "0" * 64
    manifest["stages"]["timeline"]["inputs"] = []      # not an object of digests
    write_json(manifest_path, manifest)
    result = run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert reasons(result) == {"cooccur": "ran:code:topics.py",
                               "timeline": "ran:input:dominance.csv"}

    posts = tmp_path / "dump" / "posts.jsonl"
    posts.write_text("".join(posts.read_text().splitlines(keepends=True)[:-1]),
                     encoding="utf-8")
    result = run_pipeline(config, echo=lambda *_: None)
    assert reasons(result)["ingest"] == "ran:input:posts"
    assert reasons(result)["stats"] == "ran:input:dataset.json"


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The config and artifacts directory of one complete small run."""
    base = tmp_path_factory.mktemp("full")
    config = small_config(base)
    run_pipeline(config, echo=lambda *_: None)
    return load_config(config), base / "artifacts"


@pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.name)
def test_stage_reads_only_its_declared_inputs(full_run, tmp_path, stage):
    """Given only its declared inputs, copied into an empty directory, a
    stage writes the bytes the full run wrote, and runs no package module
    that it does not declare among its code files, each a file of the
    package: a stage that read an undeclared file or ran undeclared code
    would escape its skip key."""
    config, run_dir = full_run
    for name in stage.inputs + stage.recorded:
        if name not in CONFIG_DEFAULTS:
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(run_dir / name, tmp_path / name)
    paths = {key: Path(config[key]) for key in stage.inputs
             if key in CONFIG_DEFAULTS and config[key] is not None}
    executed = set()

    def profile(frame, event, _):
        if event == "call":
            executed.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        stage.run(StageContext(paths, {key: config[key] for key in stage.params},
                               tmp_path, echo=lambda *_: None))
    finally:
        sys.setprofile(None)
    for name in stage.outputs:
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name
    package = Path(forumpulse.__file__).resolve().parent
    modules = {path.name for path in map(Path, executed) if path.resolve().parent == package}
    assert modules and modules <= set(stage.code)
    assert all((package / name).is_file() for name in stage.code)


def test_edited_code_file_reruns_the_stages_that_run_it(tmp_path):
    """On a copy of the package: a comment appended to ``lexicon.py``
    reruns exactly ``lexicon``, which writes the same bytes, and ``card``
    appended to the stopwords reruns ``corpus`` and each stage whose inputs
    that changes. After each edit, the next run finds every stage up to
    date."""
    package = tmp_path / "src" / "forumpulse"
    shutil.copytree(Path(forumpulse.__file__).parent, package)
    config = small_config(tmp_path)
    out = tmp_path / "artifacts"

    def run() -> tuple[list[str], str]:
        """The stages the run reports done, and its last line."""
        lines = subprocess.run(
            [sys.executable, "-m", "forumpulse.cli", "run", "--config", str(config)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(package.parent)}).stdout.splitlines()
        return [line[1:line.index("]")] for line in lines if "] done:" in line], lines[-1]

    def inputs() -> dict[str, dict]:
        return {name: record["inputs"]
                for name, record in read_json(out / "manifest.json")["stages"].items()}

    assert len(run()[0]) == len(STAGES)
    with (package / "lexicon.py").open("a", encoding="utf-8") as fh:
        fh.write("# an edit\n")
    assert run()[0] == ["lexicon"]
    assert run() == ([], f"all stages up to date in {out}")

    before = inputs()
    assert "card\t" in (out / "corpus" / "vocabulary.tsv").read_text(encoding="utf-8")
    with (package / "data" / "stopwords.txt").open("a", encoding="utf-8") as fh:
        fh.write("card\n")
    rerun, after = run()[0], inputs()
    assert rerun == [stage.name for stage in STAGES
                     if stage.name == "corpus" or after[stage.name] != before[stage.name]]
    assert "topics" in rerun and "stats" not in rerun
    assert "card\t" not in (out / "corpus" / "vocabulary.tsv").read_text(encoding="utf-8")
    assert run() == ([], f"all stages up to date in {out}")


def test_two_fresh_runs_byte_identical(tmp_path):
    config = small_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        run_pipeline(config, out_dir=out_dir, echo=lambda *_: None)
    names = [n for n in EXPECTED_FILES if n != "manifest.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
    assert {s: r["outputs"] for s, r in ma["stages"].items()} == \
        {s: r["outputs"] for s, r in mb["stages"].items()}


def test_both_kernels_write_the_same_bytes_and_are_named(tmp_path, monkeypatch):
    """A run on the Python sampler writes what a run on the compiled one
    writes, and each run's topics record names its kernel and holds the
    same ``trace_rel_change``; a directory written with one kernel is up to
    date for the other."""
    config = small_config(tmp_path)
    compiled, python = tmp_path / "a", tmp_path / "b"
    run_pipeline(config, out_dir=compiled, echo=lambda *_: None)
    monkeypatch.setattr(lda, "_kernel", lambda: None)
    run_pipeline(config, out_dir=python, echo=lambda *_: None)
    for name in EXPECTED_FILES[1:]:
        assert (compiled / name).read_bytes() == (python / name).read_bytes(), name
    monkeypatch.undo()
    compiled_record, python_record = (read_json(out / "manifest.json")["stages"]["topics"]
                                      for out in (compiled, python))
    assert python_record["kernel"] == "python"
    assert compiled_record["kernel"] == lda.kernel_name()
    assert python_record["trace_rel_change"] == compiled_record["trace_rel_change"]
    assert not ran(run_pipeline(config, out_dir=python, echo=lambda *_: None))


def test_directory_of_older_code_reruns_the_changed_stage(tmp_path, monkeypatch):
    """A directory written when model.json was format 2, which held a
    likelihood trace, whose ``topics`` record holds another digest of
    ``lda.py``, reruns exactly ``topics`` and the stages whose inputs that
    changes, and then holds what a fresh run writes."""
    config = small_config(tmp_path)
    fresh = tmp_path / "fresh"
    run_pipeline(config, out_dir=fresh, echo=lambda *_: None)
    save_model = topics.save_model

    def older_save_model(model, path):
        save_model(model, path)
        write_json(path, {**read_json(path), "format": "forumpulse-model-v2",
                          "log_likelihood_trace": [-80.5, -79.25]}, indent=None)

    monkeypatch.setattr(topics, "save_model", older_save_model)
    run_pipeline(config, out_dir=tmp_path / "old", echo=lambda *_: None)
    monkeypatch.undo()
    manifest_path = tmp_path / "old" / "manifest.json"
    manifest = read_json(manifest_path)
    manifest["stages"]["topics"]["code"]["lda.py"] = "0" * 64
    write_json(manifest_path, manifest)
    assert (tmp_path / "old" / "model.json").read_bytes() \
        != (fresh / "model.json").read_bytes()

    rerun = run_pipeline(config, out_dir=tmp_path / "old", echo=lambda *_: None)
    assert ran(rerun) == ["topics", "dominance", "report"]
    for name in EXPECTED_FILES[1:]:
        assert ((tmp_path / "old" / name).read_bytes()
                == (fresh / name).read_bytes()), name


def test_directory_without_code_records_reruns_every_stage_once(tmp_path):
    """A directory whose records hold no code digests, as older code wrote
    them, reruns every stage once, each for its first code file, to the
    same bytes; the next run skips every stage."""
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    out = tmp_path / "artifacts"
    written = {name: (out / name).read_bytes() for name in EXPECTED_FILES[1:]}
    manifest = read_json(out / "manifest.json")
    for record in manifest["stages"].values():
        del record["code"]
    write_json(out / "manifest.json", manifest)

    assert len(ran(run_pipeline(config, echo=lambda *_: None))) == len(STAGES)
    assert {name: record["reason"] for name, record
            in read_json(out / "manifest.json")["stages"].items()} \
        == {stage.name: f"ran:code:{stage.code[0]}" for stage in STAGES}
    assert {name: (out / name).read_bytes() for name in EXPECTED_FILES[1:]} == written
    assert not ran(run_pipeline(config, echo=lambda *_: None))


def test_manifest_records_code_and_sampler_telemetry(tmp_path):
    """On the shipped fixture, every record names the digest of each of its
    stage's code files and its wall time, CPU time, the RSS at its end and
    the peak RSS so far, and the topics record the sweeps of the whole scan,
    their rate and the relative change of the selected model's likelihood
    over its last sweep."""
    run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path / "fixture",
                 echo=lambda *_: None)
    records = read_json(tmp_path / "fixture" / "manifest.json")["stages"]
    package = Path(forumpulse.__file__).parent
    assert {name: record["code"] for name, record in records.items()} \
        == {stage.name: {name: sha256_file(package / name) for name in stage.code}
            for stage in STAGES}
    peaks = [records[stage.name]["peak_rss_kb"] for stage in STAGES]
    assert peaks == sorted(peaks) and peaks[0] > 0
    for record in records.values():
        assert record["wall_s"] > 0 and record["cpu_s"] >= 0
        assert record["rss_kb"] > 0
    record = records["topics"]
    config = read_json(FIXTURE_DIR / "config.json")
    assert record["sweeps"] == (config["lda.k_max"] - config["lda.k_min"] + 1) \
        * config["lda.iterations"]
    assert math.isfinite(record["sweeps_per_s"]) and record["sweeps_per_s"] > 0
    *_, trace = fit_with_labels(load_corpus(tmp_path / "fixture" / "corpus"),
                                load_model(tmp_path / "fixture" / "model.json").config)
    assert record["trace_rel_change"] == abs(trace[-1] - trace[-2]) / abs(trace[-2])
    assert 0 <= record["trace_rel_change"] < 0.01
    assert record["trace_rel_change"] == 5.0751106177823846e-05   # the fixture's, bit for bit

    one_sweep = small_config(tmp_path, **{"lda.iterations": 1, "lda.burn_in": 0})
    run_pipeline(one_sweep, echo=lambda *_: None)
    record = read_json(tmp_path / "artifacts" / "manifest.json")["stages"]["topics"]
    assert record["sweeps"] == 1 and record["trace_rel_change"] is None


def test_memory_probes_do_nothing_where_the_system_lacks_them(tmp_path, monkeypatch):
    """Without a statm file a record has no ``rss_kb``, and without a C
    library ``malloc_trim`` the run trims nothing."""
    assert pipeline._rss_kb(str(tmp_path / "no-statm")) == {}

    class NoTrim:
        def __init__(self, name):
            pass

    monkeypatch.setattr("ctypes.CDLL", NoTrim)
    pipeline._malloc_trim.cache_clear()
    try:
        assert pipeline._malloc_trim()(0) == 0
        assert ran(run_pipeline(small_config(tmp_path), echo=lambda *_: None)) \
            == [stage.name for stage in STAGES]
    finally:
        pipeline._malloc_trim.cache_clear()


def test_missing_input_fails_with_stage_name(tmp_path):
    config_path = tmp_path / "config.json"
    write_json(config_path, {"posts": "nope.jsonl", "comments": "nada.jsonl"})
    with pytest.raises(StageError) as err:
        run_pipeline(config_path, echo=lambda *_: None)
    assert err.value.stage == "ingest"


def test_prior_artifacts_survive_a_failing_stage(tmp_path):
    config = small_config(tmp_path, **{"corpus.min_df": 50})  # empty vocabulary
    with pytest.raises(StageError) as err:
        run_pipeline(config, echo=lambda *_: None)
    assert err.value.stage == "corpus"
    assert (tmp_path / "artifacts" / "dataset.json").exists()
    assert (tmp_path / "artifacts" / "activity_table.csv").exists()


def test_dump_without_commenters_is_a_data_error(tmp_path):
    """An empty comments dump fails ``ingest`` before any stage runs."""
    config = small_config(tmp_path)
    (tmp_path / "dump" / "comments.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(StageError) as err:
        run_pipeline(config, echo=lambda *_: None)
    assert err.value.stage == "ingest"
    assert isinstance(err.value.cause, DataError)
    assert "comments.jsonl is empty or blank" in str(err.value)
    assert not (tmp_path / "artifacts").exists()


def test_dump_whose_commenters_are_all_deleted_is_a_data_error(tmp_path):
    """Comments that are all by ``[deleted]`` leave no commenter to score:
    ``graph`` fails."""
    config = small_config(tmp_path)
    comments = tmp_path / "dump" / "comments.jsonl"
    records = [json.loads(line) for line in comments.read_text(encoding="utf-8").splitlines()]
    comments.write_text("".join(json.dumps({**record, "author": "[deleted]"}) + "\n"
                                for record in records), encoding="utf-8")
    with pytest.raises(StageError) as err:
        run_pipeline(config, echo=lambda *_: None)
    assert err.value.stage == "graph"
    assert isinstance(err.value.cause, DataError)
    assert "no commenters" in str(err.value)


def test_config_validation(tmp_path):
    missing = tmp_path / "none.json"
    with pytest.raises(Exception):
        load_config(missing)
    bad = tmp_path / "bad.json"
    write_json(bad, {"posts": "a", "comments": "b", "bogus_key": 1})
    with pytest.raises(UsageError):
        load_config(bad)
    incomplete = tmp_path / "incomplete.json"
    write_json(incomplete, {"posts": "a"})
    with pytest.raises(UsageError):
        load_config(incomplete)


def test_config_overrides_and_relative_paths(tmp_path):
    cfg = tmp_path / "sub" / "config.json"
    cfg.parent.mkdir()
    write_json(cfg, {"posts": "p.jsonl", "comments": "c.jsonl", "seed": 1})
    config = load_config(cfg, overrides={"seed": "42", "lda.k": "7"})
    assert config["seed"] == 42
    assert config["lda.k"] == 7
    assert config["posts"] == str((cfg.parent / "p.jsonl").resolve())
    assert set(config) == set(CONFIG_DEFAULTS)


def test_every_config_key_is_read_by_a_stage():
    """A config key no stage reads as a param or an input file would be a
    knob that changes nothing; ``out_dir`` names where the stages write."""
    read = {key for stage in STAGES for key in stage.params + stage.inputs}
    assert set(CONFIG_SCHEMA) - read == {"out_dir"}


def test_stage_seed_is_stable():
    assert stage_seed(20240704, "lda") == stage_seed(20240704, "lda")
    assert stage_seed(20240704, "lda") != stage_seed(20240704, "other")
    assert stage_seed(1, "lda") != stage_seed(2, "lda")


def test_malformed_lines_tallied_through_pipeline(tmp_path):
    config = small_config(tmp_path)
    posts = tmp_path / "dump" / "posts.jsonl"
    lines = posts.read_text().splitlines()
    lines.insert(3, "{broken json")
    lines.insert(10, json.dumps({"id": "px", "author": "a"}))  # missing fields
    posts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run_pipeline(config, echo=lambda *_: None)
    summary = read_json(tmp_path / "artifacts" / "stats_summary.json")
    assert summary["parse_errors"] == 2
    assert summary["posts"] == 40
