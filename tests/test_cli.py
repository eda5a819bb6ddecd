from __future__ import annotations

import json

import pytest

from forumpulse.cli import main
from forumpulse.fileio import sha256_file, write_json
from forumpulse.fixture import generate_fixture
from forumpulse.pipeline import stage_seed


@pytest.fixture
def dump(tmp_path):
    generate_fixture(seed=11, n_posts=30, n_users=8, k_true=3,
                     out_dir=tmp_path / "dump")
    return tmp_path


RUN_CONFIG = {
    "posts": "dump/posts.jsonl",
    "comments": "dump/comments.jsonl",
    "out_dir": "artifacts",
    "seed": 11,
    "corpus.min_df": 2,
    "corpus.max_df_fraction": 0.9,
    "lda.k": 3,
    "lda.iterations": 30,
    "lda.burn_in": 10,
    "lexicon.components": 5,
    "graph.top_k": 3,
}


@pytest.fixture
def config(dump):
    write_json(dump / "config.json", RUN_CONFIG)
    return dump / "config.json"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def artifact_digests(directory):
    return {str(p.relative_to(directory)): sha256_file(p)
            for p in directory.rglob("*") if p.is_file() and p.name != "manifest.json"}


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "forumpulse" in capsys.readouterr().out


def test_usage_error_exits_one(capsys):
    assert run_cli("topics", "fit") == 1          # missing required flags
    assert run_cli("no-such-command") == 1


def test_missing_dump_is_data_error(tmp_path):
    code = run_cli("ingest", "--posts", tmp_path / "x.jsonl",
                   "--comments", tmp_path / "y.jsonl",
                   "--out", tmp_path / "d.json")
    assert code == 2


def test_subcommand_chain(dump, capsys):
    t = dump
    assert run_cli("ingest", "--posts", t / "dump/posts.jsonl",
                   "--comments", t / "dump/comments.jsonl",
                   "--out", t / "dataset.json") == 0
    assert run_cli("stats", "--dataset", t / "dataset.json", "--out", t / "stats") == 0
    assert (t / "stats/activity_table.csv").exists()
    assert (t / "stats/score_relations.csv").exists()

    assert run_cli("corpus", "build", "--dataset", t / "dataset.json",
                   "--min-df", 2, "--max-df-fraction", 0.9,
                   "--out", t / "corpus") == 0

    assert run_cli("topics", "fit", "--corpus", t / "corpus", "--k", 3,
                   "--seed", 4, "--iters", 30, "--burn-in", 10,
                   "--out", t / "model.json") == 0

    assert run_cli("topics", "select-k", "--corpus", t / "corpus",
                   "--kmin", 2, "--kmax", 4, "--seed", 4, "--iters", 25,
                   "--burn-in", 5, "--out", t / "best.json",
                   "--scan-csv", t / "scan.csv") == 0
    scan = (t / "scan.csv").read_text().splitlines()
    assert scan[0] == "k,w_k,selected"
    assert len(scan) == 4

    assert run_cli("topics", "dominance", "--model", t / "model.json",
                   "--out", t / "dom") == 0
    assert (t / "dom/dominance.csv").exists()

    assert run_cli("topics", "cooccur", "--model", t / "model.json",
                   "--out", t / "cooc.csv") == 0
    assert run_cli("topics", "timeline", "--model", t / "model.json",
                   "--dataset", t / "dataset.json",
                   "--out", t / "monthly.csv") == 0

    assert run_cli("lexicon", "profile", "--corpus", t / "corpus",
                   "--model", t / "model.json", "--components", 5,
                   "--out", t / "lex") == 0
    assert (t / "lex/category_matrix.csv").exists()
    assert (t / "lex/topic_profiles.csv").exists()

    assert run_cli("users", "metrics", "--dataset", t / "dataset.json",
                   "--model", t / "model.json", "--out", t / "users") == 0
    header = (t / "users/user_metrics.csv").read_text().splitlines()[0]
    assert header == "user,C,out_degree,in_degree,tau,R,alpha,I,agg_score"

    assert run_cli("users", "top", "--dataset", t / "dataset.json",
                   "--model", t / "model.json", "--k", 3,
                   "--out", t / "top") == 0
    assert (t / "top/top_influencers.csv").exists()
    assert (t / "top/influencer_subgraph.graphml").exists()

    assert run_cli("graph", "build", "--dataset", t / "dataset.json",
                   "--out", t / "edges.csv") == 0
    assert (t / "edges.csv").read_text().splitlines()[0] == "from,to,weight"

    for fmt, name in (("graphml", "g.graphml"), ("dot", "g.dot"),
                      ("csv", "g.csv")):
        assert run_cli("graph", "export", "--dataset", t / "dataset.json",
                       "--format", fmt, "--out", t / name) == 0
        assert (t / name).exists()

    capsys.readouterr()


def test_run_and_report(dump, config, capsys):
    t = dump
    assert run_cli("run", "--config", config) == 0
    assert run_cli("report", "--artifacts", t / "artifacts") == 0
    payload = json.loads(capsys.readouterr().out.split("pipeline complete")[-1]
                         .split("\n", 1)[1])
    assert payload["model"]["k"] == 3
    assert payload["dataset"]["posts"] == 30

    assert run_cli("run", "--config", config) == 0
    assert "up to date" in capsys.readouterr().out


def test_subcommands_write_the_run_artifacts(dump, config, capsys):
    """Each standalone subcommand, fed the run's own inputs, writes the same
    bytes as the matching `run` artifact."""
    t, a, s = dump, dump / "artifacts", dump / "standalone"
    assert run_cli("run", "--config", config) == 0
    dataset, model = a / "dataset.json", a / "model.json"
    commands = [
        ("ingest", "--posts", t / "dump/posts.jsonl",
         "--comments", t / "dump/comments.jsonl", "--out", s / "dataset.json"),
        ("stats", "--dataset", dataset, "--out", s),
        ("corpus", "build", "--dataset", dataset, "--min-df", 2,
         "--max-df-fraction", 0.9, "--out", s / "corpus"),
        ("topics", "fit", "--corpus", a / "corpus", "--k", 3,
         "--seed", stage_seed(RUN_CONFIG["seed"], "lda"), "--iters", 30,
         "--burn-in", 10, "--out", s / "model.json"),
        ("topics", "dominance", "--model", model, "--out", s),
        ("topics", "cooccur", "--model", model, "--out", s / "cooccurrence.csv"),
        ("topics", "timeline", "--model", model, "--dataset", dataset,
         "--out", s / "monthly_topics.csv"),
        ("lexicon", "profile", "--corpus", a / "corpus", "--model", model,
         "--components", 5, "--out", s),
        ("users", "metrics", "--dataset", dataset, "--model", model, "--out", s),
        ("users", "top", "--dataset", dataset, "--model", model, "--k", 3,
         "--out", s),
        ("graph", "build", "--dataset", dataset, "--out", s / "edges.csv"),
        ("graph", "export", "--dataset", dataset, "--format", "graphml",
         "--out", s / "graph.graphml"),
        ("graph", "export", "--dataset", dataset, "--format", "dot",
         "--out", s / "graph.dot"),
    ]
    for argv in commands:
        assert run_cli(*argv) == 0, argv
    written = artifact_digests(s)
    assert len(written) == 26      # the 25 subcommand outputs + stats_summary.json
    assert written == {name: sha256_file(a / name) for name in written}
    capsys.readouterr()


def test_truncated_manifest_reruns_every_stage(dump, config, capsys):
    assert run_cli("run", "--config", config) == 0
    clean = artifact_digests(dump / "artifacts")
    manifest = dump / "artifacts" / "manifest.json"
    text = manifest.read_bytes()
    manifest.write_bytes(text[:len(text) // 2])
    capsys.readouterr()

    assert run_cli("run", "--config", config) == 0
    out = capsys.readouterr().out
    assert "unreadable" in out and "up to date" not in out
    assert artifact_digests(dump / "artifacts") == clean


@pytest.mark.parametrize("override", [
    'lda.iterations="abc"', "lda.iterations=abc", "corpus.min_df=0",
    "lda.beta=0", "lda.alpha=-1", "lda.k=1.5", "seed=true", "posts=3",
    "out_dir=null",
])
def test_bad_config_value_exits_one_before_ingest(dump, config, override):
    assert run_cli("run", "--config", config, "--set", override) == 1
    assert not (dump / "artifacts" / "dataset.json").exists()


def test_run_stage_failure_exit_codes(dump):
    t = dump
    write_json(t / "bad.json", {
        "posts": "dump/posts.jsonl",
        "comments": "dump/comments.jsonl",
        "corpus.min_df": 999,     # guarantees an empty vocabulary
        "lda.k": 3, "lda.iterations": 5, "lda.burn_in": 1,
    })
    assert run_cli("run", "--config", t / "bad.json") == 2
    write_json(t / "usage.json", {"posts": "dump/posts.jsonl"})
    assert run_cli("run", "--config", t / "usage.json") == 1
    assert run_cli("run", "--config", t / "missing.json") == 2


def test_run_set_overrides(dump):
    t = dump
    write_json(t / "config.json", {
        "posts": "dump/posts.jsonl", "comments": "dump/comments.jsonl",
        "out_dir": "a1", "seed": 1,
        "corpus.min_df": 2, "corpus.max_df_fraction": 0.9,
        "lda.k": 3, "lda.iterations": 20, "lda.burn_in": 5,
        "lexicon.components": 4,
    })
    assert run_cli("run", "--config", t / "config.json",
                   "--set", "lda.k=2", "--out-dir", t / "a2") == 0
    scan = (t / "a2" / "skewness_scan.csv").read_text().splitlines()
    assert scan[1].startswith("2,")
    assert run_cli("run", "--config", t / "config.json",
                   "--set", "nonsense=1", "--out-dir", t / "a3") == 1


def test_fixture_command_deterministic(tmp_path):
    assert run_cli("fixture", "--seed", 7, "--posts", 10, "--users", 3,
                   "--k-true", 2, "--out", tmp_path / "f1") == 0
    assert run_cli("fixture", "--seed", 7, "--posts", 10, "--users", 3,
                   "--k-true", 2, "--out", tmp_path / "f2") == 0
    assert (tmp_path / "f1/posts.jsonl").read_bytes() == \
        (tmp_path / "f2/posts.jsonl").read_bytes()


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "forumpulse" in capsys.readouterr().out
