from __future__ import annotations

import dataclasses
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import forumpulse.lda as lda
import forumpulse.pipeline as pipeline
import forumpulse.topics as topics
from forumpulse.errors import DataError, StageError, UsageError
from forumpulse.fileio import read_json, sha256_file, write_json
from forumpulse.fixture import TOPIC_WORD_POOLS, generate_fixture
from forumpulse.pipeline import (CONFIG_DEFAULTS, CONFIG_SCHEMA, STAGES, StageContext,
                                 load_config, run_pipeline, stage_seed)

from conftest import FIXTURE_DIR

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
    result = run_pipeline(config, echo=lambda *_: None)
    assert result.out_dir == tmp_path / "artifacts"
    for name in EXPECTED_FILES:
        assert (result.out_dir / name).exists(), name
    assert all(status == "ran" for status in result.stage_status.values())


def test_stage_table_declares_every_artifact():
    assert [s.name for s in STAGES] == [
        "ingest", "stats", "corpus", "topics", "dominance", "cooccur",
        "timeline", "lexicon", "graph", "metrics", "report"]
    declared = [name for stage in STAGES for name in stage.outputs]
    assert sorted(declared + ["manifest.json"]) == sorted(EXPECTED_FILES)


def test_rerun_skips_all_stages(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    again = run_pipeline(config, echo=lambda *_: None)
    assert again.all_skipped


def test_fixed_k_bypasses_scan_and_stale_stage_reruns(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    scan = (tmp_path / "artifacts" / "skewness_scan.csv").read_text().splitlines()
    assert len(scan) == 2                      # header + the single fixed k
    assert scan[1].startswith("3,")

    # Changing one stage parameter reruns that stage and its dependents only.
    again = run_pipeline(config, overrides={"graph.top_k": "2"},
                         echo=lambda *_: None)
    assert again.stage_status["metrics"] == "ran"
    assert again.stage_status["topics"] == "skipped"
    assert again.stage_status["ingest"] == "skipped"


def ran(result) -> list[str]:
    return [name for name, status in result.stage_status.items() if status == "ran"]


def test_interrupted_outputs_recomputed(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    target = tmp_path / "artifacts" / "cooccurrence.csv"
    before = sha256_file(target)
    target.write_text("tampered\n", encoding="utf-8")
    result = run_pipeline(config, echo=lambda *_: None)
    assert result.stage_status["cooccur"] == "ran"
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
    """A fresh run parses only ``dataset.json``, once for ``stats`` and
    ``corpus`` and once after the fit, and is handed every other
    intermediate by the stage that writes it; it derives the dominant
    topics and the reply graph once, in the stages that write them. A
    ``graph.top_k`` rerun parses no model."""
    calls = Counter()
    for name in ("load_dataset", "load_model", "load_corpus", "load_assignment",
                 "load_graph", "dominant_topics", "build_graph"):
        def counted(arg, call=getattr(pipeline, name), name=name):
            calls[name] += 1
            return call(arg)
        monkeypatch.setattr(pipeline, name, counted)
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    assert calls == {"load_dataset": 2, "dominant_topics": 1, "build_graph": 1}

    calls.clear()
    again = run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert calls == {"load_dataset": 1, "load_assignment": 1, "load_graph": 1}
    assert ran(again) == ["metrics", "report"]


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
    assert run_pipeline(config, out_dir=out, echo=lambda *_: None).all_skipped
    assert not any(path.exists() for path in stale)
    assert (out / ".notes.tmp").read_text() == "not ours"


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
    assert again.all_skipped
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
    rerun the assignment ``metrics`` parsed, not its dataset and graph."""
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
    assert handed == [["dominance.csv"], ["dominance.csv"]]


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
    out = run_pipeline(small_config(tmp_path), echo=lambda *_: None).out_dir
    assert {name: sorted(objects) for name, objects in handed.items()} == {
        "ingest": [], "stats": [], "corpus": ["dataset.json"], "topics": ["corpus"],
        "dominance": ["model.json"], "cooccur": ["dominance.csv"],
        "timeline": ["dominance.csv"], "lexicon": ["corpus", "dominance.csv"],
        "graph": ["dataset.json"], "metrics": ["dataset.json", "dominance.csv", "edges.csv"],
        "report": ["dominance.csv"]}
    parse = {"dataset.json": pipeline.load_dataset, "corpus": pipeline.load_corpus,
             "model.json": pipeline.load_model, "dominance.csv": pipeline.load_assignment,
             "edges.csv": pipeline.load_graph}
    for stage, objects in handed.items():
        for name, value in objects.items():
            assert_same(value, parse[name](out / name), f"{stage}: {name}")


def test_each_file_hashed_once_per_run(tmp_path, monkeypatch):
    """A fresh run and a ``graph.top_k`` rerun hash each file at most once,
    and every stage records for an input the digest its producer recorded
    for it."""
    calls = Counter()

    def counted(path, call=pipeline.sha256_file):
        calls[Path(path)] += 1
        return call(path)

    monkeypatch.setattr(pipeline, "sha256_file", counted)
    config = small_config(tmp_path)
    out = run_pipeline(config, echo=lambda *_: None).out_dir
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
    changed: no record, the version, the params, an input or an output."""
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
    manifest["stages"]["cooccur"]["version"] = 0
    manifest["stages"]["timeline"]["inputs"] = []      # not an object of digests
    write_json(manifest_path, manifest)
    result = run_pipeline(config, overrides={"graph.top_k": "2"}, echo=lambda *_: None)
    assert reasons(result) == {"cooccur": "ran:version",
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
    return load_config(config), run_pipeline(config, echo=lambda *_: None).out_dir


@pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.name)
def test_stage_reads_only_its_declared_inputs(full_run, tmp_path, stage):
    """Given only its declared inputs, copied into an empty directory, a
    stage writes the bytes the full run wrote: a stage that read an
    undeclared file would escape its skip key."""
    config, run_dir = full_run
    for name in stage.inputs + stage.recorded:
        if name not in CONFIG_DEFAULTS:
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(run_dir / name, tmp_path / name)
    paths = {key: Path(config[key]) for key in stage.inputs
             if key in CONFIG_DEFAULTS and config[key] is not None}
    stage.run(StageContext(paths, {key: config[key] for key in stage.params},
                           tmp_path, echo=lambda *_: None))
    for name in stage.outputs:
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_two_fresh_runs_byte_identical(tmp_path):
    config = small_config(tmp_path)
    a = run_pipeline(config, out_dir=tmp_path / "a", echo=lambda *_: None)
    b = run_pipeline(config, out_dir=tmp_path / "b", echo=lambda *_: None)
    names = [n for n in EXPECTED_FILES if n != "manifest.json"]
    for name in names:
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name
    ma, mb = read_json(a.out_dir / "manifest.json"), read_json(b.out_dir / "manifest.json")
    assert {s: r["outputs"] for s, r in ma["stages"].items()} == \
        {s: r["outputs"] for s, r in mb["stages"].items()}


def test_both_kernels_write_the_same_bytes_and_are_named(tmp_path, monkeypatch):
    """A run on the Python sampler writes what a run on the compiled one
    writes, and each run's topics record names its kernel; a directory
    written with one kernel is up to date for the other."""
    config = small_config(tmp_path)
    compiled = run_pipeline(config, out_dir=tmp_path / "a", echo=lambda *_: None)
    monkeypatch.setattr(lda, "_kernel", lambda: None)
    python = run_pipeline(config, out_dir=tmp_path / "b", echo=lambda *_: None)
    for name in EXPECTED_FILES[1:]:
        assert ((compiled.out_dir / name).read_bytes()
                == (python.out_dir / name).read_bytes()), name
    assert read_json(python.out_dir / "manifest.json")["stages"]["topics"]["kernel"] \
        == "python"
    monkeypatch.undo()
    assert read_json(compiled.out_dir / "manifest.json")["stages"]["topics"]["kernel"] \
        == lda.kernel_name()
    assert run_pipeline(config, out_dir=tmp_path / "b", echo=lambda *_: None).all_skipped


def test_directory_of_older_code_reruns_the_changed_stage(tmp_path, monkeypatch):
    """A directory written before stages had versions, when the trace was
    summed in another order, reruns exactly ``ingest`` and ``topics``, whose
    versions are above 1, and the stages whose inputs that changes, and
    then holds what a fresh run writes; a record without a version counts
    as version 1."""
    config = small_config(tmp_path)
    fresh = run_pipeline(config, out_dir=tmp_path / "fresh", echo=lambda *_: None)
    fit = topics.fit

    def older_fit(corpus, lda_config):   # the same model, the trace off by one ulp
        model = fit(corpus, lda_config)
        return dataclasses.replace(model, log_likelihood_trace=tuple(
            np.nextafter(model.log_likelihood_trace, 0).tolist()))

    monkeypatch.setattr(topics, "fit", older_fit)
    run_pipeline(config, out_dir=tmp_path / "old", echo=lambda *_: None)
    monkeypatch.undo()
    manifest_path = tmp_path / "old" / "manifest.json"
    manifest = read_json(manifest_path)
    for record in manifest["stages"].values():
        del record["version"]
    write_json(manifest_path, manifest)
    assert (tmp_path / "old" / "model.json").read_bytes() \
        != (fresh.out_dir / "model.json").read_bytes()

    rerun = run_pipeline(config, out_dir=tmp_path / "old", echo=lambda *_: None)
    assert [name for name, status in rerun.stage_status.items() if status == "ran"] \
        == ["ingest", "topics", "dominance", "report"]
    for name in EXPECTED_FILES[1:]:
        assert ((tmp_path / "old" / name).read_bytes()
                == (fresh.out_dir / name).read_bytes()), name


def test_directory_at_ingest_version_2_reruns_only_ingest(tmp_path):
    """A directory whose ingest record is at version 2 or 3 reruns ingest,
    which writes the same ``dataset.json`` from a dump without a time after
    9999 or an author that is not a non-empty str, so every later stage is
    skipped."""
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    manifest_path = tmp_path / "artifacts" / "manifest.json"
    dataset = (tmp_path / "artifacts" / "dataset.json").read_bytes()
    for version in (2, 3):
        manifest = read_json(manifest_path)
        manifest["stages"]["ingest"]["version"] = version
        write_json(manifest_path, manifest)
        rerun = run_pipeline(config, echo=lambda *_: None)
        assert [name for name, status in rerun.stage_status.items() if status == "ran"] \
            == ["ingest"]
        assert (tmp_path / "artifacts" / "dataset.json").read_bytes() == dataset


def test_manifest_records_versions_and_sampler_telemetry(tmp_path):
    """On the shipped fixture, every record names its stage's version and
    its wall time, CPU time and the peak RSS so far, and the topics record
    the sweeps of the whole scan, their rate and the last relative change
    of the selected model's trace."""
    result = run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path / "fixture",
                          echo=lambda *_: None)
    records = read_json(result.out_dir / "manifest.json")["stages"]
    assert {name: record["version"] for name, record in records.items()} \
        == {stage.name: {"ingest": 4, "topics": 3}.get(stage.name, 1) for stage in STAGES}
    peaks = [records[stage.name]["peak_rss_kb"] for stage in STAGES]
    assert peaks == sorted(peaks) and peaks[0] > 0
    for record in records.values():
        assert record["wall_s"] > 0 and record["cpu_s"] >= 0
    record = records["topics"]
    config = read_json(FIXTURE_DIR / "config.json")
    assert record["sweeps"] == (config["lda.k_max"] - config["lda.k_min"] + 1) \
        * config["lda.iterations"]
    assert math.isfinite(record["sweeps_per_s"]) and record["sweeps_per_s"] > 0
    trace = read_json(result.out_dir / "model.json")["log_likelihood_trace"]
    assert record["trace_rel_change"] == abs(trace[-1] - trace[-2]) / abs(trace[-2])
    assert 0 <= record["trace_rel_change"] < 0.01

    one_sweep = small_config(tmp_path, **{"lda.iterations": 1, "lda.burn_in": 0})
    result = run_pipeline(one_sweep, echo=lambda *_: None)
    record = read_json(result.out_dir / "manifest.json")["stages"]["topics"]
    assert record["sweeps"] == 1 and record["trace_rel_change"] is None


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
    config = small_config(tmp_path)
    (tmp_path / "dump" / "comments.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(StageError) as err:
        run_pipeline(config, echo=lambda *_: None)
    assert err.value.stage == "metrics"
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
