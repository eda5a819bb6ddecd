from __future__ import annotations

import json
from pathlib import Path

import pytest

from forumpulse.errors import StageError, UsageError
from forumpulse.fileio import read_json, sha256_file, write_json
from forumpulse.fixture import TOPIC_WORD_POOLS, generate_fixture
from forumpulse.pipeline import (CONFIG_DEFAULTS, STAGES, load_config,
                                 resolve_threads, run_pipeline, stage_seed)

EXPECTED_FILES = [
    "manifest.json", "dataset.json", "activity_table.csv", "score_relations.csv",
    "response_times.csv", "stats_summary.json", "corpus/vocabulary.tsv",
    "corpus/documents.csv", "corpus/docs.csv", "corpus/meta.json", "model.json",
    "skewness_scan.csv", "dominance.csv", "dominance_thresholds.csv",
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
    assert graph.edges == ()


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


def test_interrupted_outputs_recomputed(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config, echo=lambda *_: None)
    target = tmp_path / "artifacts" / "cooccurrence.csv"
    before = sha256_file(target)
    target.write_text("tampered\n", encoding="utf-8")
    result = run_pipeline(config, echo=lambda *_: None)
    assert result.stage_status["cooccur"] == "ran"
    assert sha256_file(target) == before


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


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("FORUM_PULSE_THREADS", raising=False)
    assert resolve_threads() == 1
    monkeypatch.setenv("FORUM_PULSE_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(config_value=2) == 2
    assert resolve_threads(flag=5, config_value=2) == 5
    with pytest.raises(UsageError):
        resolve_threads(flag=0)


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
