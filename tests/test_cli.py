from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forumpulse.lda as lda
import forumpulse.topics as topics
from forumpulse.cli import _build_parser, main
from forumpulse.fileio import read_json, sha256_file, write_json
from forumpulse.fixture import generate_fixture
from forumpulse.interaction import load_graph, load_user_metrics
from forumpulse.pipeline import CONFIG_SCHEMA, STAGES
from forumpulse.topics import DOMINANCE_FILES

from conftest import as_format_1, child_env


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


def test_import_pulls_in_no_network_modules():
    """Importing the command line loads none of the modules that
    ``xml.sax.saxutils`` pulls in, which slow every start-up."""
    heavy = ("urllib.request", "http.client", "email")
    child = subprocess.run(
        [sys.executable, "-c", "import sys, forumpulse.cli; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True, env=child_env())
    assert child.stdout.strip() == "[]"


def _parsers(parser, prefix=()):
    """Each command path the parser runs, such as ``topics fit``, and the
    parser of its flags."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, prefix + (name,))
            return
    yield " ".join(prefix), parser


def _subcommands(parser):
    """Each command path the parser runs."""
    return (command for command, _ in _parsers(parser))


def test_readme_lists_the_parsers_subcommands():
    """The README's subcommand table names exactly the subcommands the
    parser registers, and each stage but the report in exactly one row."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `forumpulse ([a-z -]+)` \| ([^|]*) \|", readme, re.M)
    assert sorted(name for name, _ in rows) == sorted(_subcommands(_build_parser()))
    stages = [stage.strip("`") for _, stage in rows if stage.startswith("`")]
    assert sorted(stages) == sorted(s.name for s in STAGES if s.name != "report")


def test_stage_subcommands_are_the_stage_table():
    """Each stage but the report is run by exactly one subcommand, whose
    flags are --out, one per input it reads (the corpus files through their
    directory, the dominance files through dominance.csv) and one per
    param, whose dest is its config key and whose type and default are the
    schema's; `graph build --dominance` is the only optional input."""
    runs = {}
    for command, parser in _parsers(_build_parser()):
        func = parser.get_default("func")
        if isinstance(func, functools.partial):
            runs.setdefault(func.args[0].name, []).append((command, parser))
    stages = [stage for stage in STAGES if stage.name != "report"]
    assert sorted(runs) == sorted(stage.name for stage in stages)
    optional = []
    for stage in stages:
        [(command, parser)] = runs[stage.name]
        flags = {action.dest: action for action in parser._actions if action.dest != "help"}
        reads = ({name.split("/")[0] for name in stage.inputs}
                 - set(stage.params) - set(DOMINANCE_FILES[1:]))
        assert set(flags) == {"out"} | reads | set(stage.params), command
        assert flags["out"].required and flags["out"].option_strings == ["--out"]
        for key in stage.params:
            default, kind, _ = CONFIG_SCHEMA[key]
            assert (flags[key].type, flags[key].default, flags[key].required) == (
                kind, default, False), (command, key)
        for name in reads:
            assert flags[name].type is Path and flags[name].default is None
            if not flags[name].required:
                optional.append(f"{command} {flags[name].option_strings[0]}")
    assert optional == ["graph build --dominance"]


def test_usage_error_exits_one(capsys):
    assert run_cli("topics", "fit") == 1          # missing required flags
    assert run_cli("no-such-command") == 1


def test_missing_dump_is_data_error(tmp_path):
    code = run_cli("ingest", "--posts", tmp_path / "x.jsonl",
                   "--comments", tmp_path / "y.jsonl",
                   "--out", tmp_path / "d.json")
    assert code == 2


@pytest.mark.parametrize("command", [
    "run --config {t}/config.json --set lexicon.path={t}/dump",
    "run --config {t}/config.json --set posts={t}/dump",
    "ingest --posts {t}/dump --comments {t}/dump/comments.jsonl "
    "--out {t}/artifacts/dataset.json",
    "lexicon profile --corpus {a}/corpus --dominance {a}/dominance.csv --lexicon= "
    "--out {t}/artifacts",
])
def test_directory_input_is_data_error(intermediates, dump, config, capsys, command):
    """A directory where a dump or lexicon file belongs exits 2, named,
    before anything is written."""
    assert run_cli(*command.format(t=dump, a=intermediates).split()) == 2
    assert "is not a file" in capsys.readouterr().err
    assert not (dump / "artifacts").exists()


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_out_dir_at_or_under_a_file_is_data_error(dump, config, capsys, out_dir):
    """An --out-dir that is a regular file, or lies under one, exits 2,
    named, before any stage runs."""
    (dump / "afile").write_text("x\n", encoding="utf-8")
    assert run_cli("run", "--config", config, "--out-dir", dump / out_dir) == 2
    out, err = capsys.readouterr()
    assert f"{dump / 'afile'} is not a directory" in err and "[ingest]" not in out
    assert (dump / "afile").read_text(encoding="utf-8") == "x\n"


@pytest.mark.parametrize("command", [
    "stats --dataset {a}/dataset.json --out {t}/afile",
    "corpus build --dataset {a}/dataset.json --out {t}/afile",
    "run --config {t}/config.json --out-dir {t}/holder",
])
def test_file_where_an_output_directory_belongs_is_data_error(intermediates, dump, config,
                                                              capsys, command):
    """A regular file where a command writes a directory, the ``--out`` of
    ``stats`` or ``corpus build`` or the ``corpus`` of a run, exits 2 and
    keeps the file."""
    files = (dump / "afile", dump / "holder" / "corpus")
    for path in files:
        path.parent.mkdir(exist_ok=True)
        path.write_text("x\n", encoding="utf-8")
    assert run_cli(*command.format(t=dump, a=intermediates).split()) == 2
    assert "File exists" in capsys.readouterr().err
    assert all(path.read_text(encoding="utf-8") == "x\n" for path in files)


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
                   "--out", t / "fit") == 0
    assert (t / "fit/skewness_scan.csv").read_text().splitlines()[1].startswith("3,")

    assert run_cli("topics", "fit", "--corpus", t / "corpus",
                   "--kmin", 2, "--kmax", 4, "--seed", 4, "--iters", 25,
                   "--burn-in", 5, "--out", t / "best") == 0
    assert (t / "best/model.json").exists()
    scan = (t / "best/skewness_scan.csv").read_text().splitlines()
    assert scan[0] == "k,w_k,selected"
    assert len(scan) == 4

    assert run_cli("topics", "dominance", "--model", t / "fit/model.json",
                   "--out", t / "dom") == 0
    assert (t / "dom/dominance.csv").exists()

    assert run_cli("topics", "cooccur", "--dominance", t / "dom/dominance.csv",
                   "--out", t / "cooc.csv") == 0
    assert run_cli("topics", "timeline", "--dominance", t / "dom/dominance.csv",
                   "--dataset", t / "dataset.json",
                   "--out", t / "monthly.csv") == 0

    assert run_cli("lexicon", "profile", "--corpus", t / "corpus",
                   "--dominance", t / "dom/dominance.csv", "--components", 5,
                   "--out", t / "lex") == 0
    assert (t / "lex/category_matrix.csv").exists()
    assert (t / "lex/topic_profiles.csv").exists()

    assert run_cli("graph", "build", "--dataset", t / "dataset.json",
                   "--dominance", t / "dom/dominance.csv", "--out", t / "graph") == 0
    assert (t / "graph/edges.csv").read_text().splitlines()[0] == "from,to,weight"
    for name in ("graph.graphml", "graph.dot", "user_classes.json", "spread_influence.csv"):
        assert (t / "graph" / name).exists()
    header = (t / "graph/user_metrics.csv").read_text().splitlines()[0]
    assert header == "user,C,out_degree,in_degree,tau,R,alpha,I,agg_score"

    assert run_cli("users", "metrics", "--user-metrics", t / "graph/user_metrics.csv",
                   "--edges", t / "graph/edges.csv", "--k", 3, "--out", t / "top") == 0
    assert len((t / "top/top_influencers.csv").read_text().splitlines()) <= 4
    assert (t / "top/influencer_subgraph.graphml").exists()

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


def test_a_post_after_year_9999_is_a_parse_error(dump, config, capsys):
    """A post created after 9999-12-31T23:59:59Z, which has no calendar
    month for the timeline, is a malformed line: the run exits 0 and
    counts one more parse error."""
    assert run_cli("run", "--config", config) == 0
    summary = json.loads((dump / "artifacts" / "stats_summary.json").read_text())
    posts = dump / "dump" / "posts.jsonl"
    lines = posts.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "created_utc": 10**12}) + "\n"
    posts.write_text("".join(lines), encoding="utf-8")
    assert run_cli("run", "--config", config) == 0
    after = json.loads((dump / "artifacts" / "stats_summary.json").read_text())
    assert after["parse_errors"] == summary["parse_errors"] + 1
    assert after["posts"] == summary["posts"] - 1 == 29
    capsys.readouterr()


def test_subcommands_write_the_run_artifacts(dump, config, capsys):
    """The standalone subcommands, fed the run's own inputs and params, write
    every output of every stage but the report, with the same bytes as
    `run`."""
    t, a, s = dump, dump / "artifacts", dump / "standalone"
    assert run_cli("run", "--config", config) == 0
    dataset, model = a / "dataset.json", a / "model.json"
    dominance, edges = a / "dominance.csv", a / "edges.csv"
    commands = [
        ("ingest", "--posts", t / "dump/posts.jsonl",
         "--comments", t / "dump/comments.jsonl", "--out", s / "dataset.json"),
        ("stats", "--dataset", dataset, "--out", s),
        ("corpus", "build", "--dataset", dataset, "--min-df", 2,
         "--max-df-fraction", 0.9, "--out", s / "corpus"),
        ("topics", "fit", "--corpus", a / "corpus", "--k", 3, "--seed", RUN_CONFIG["seed"],
         "--iters", 30, "--burn-in", 10, "--out", s),
        ("topics", "dominance", "--model", model, "--out", s),
        ("topics", "cooccur", "--dominance", dominance, "--out", s / "cooccurrence.csv"),
        ("topics", "timeline", "--dominance", dominance, "--dataset", dataset,
         "--out", s / "monthly_topics.csv"),
        ("lexicon", "profile", "--corpus", a / "corpus", "--dominance", dominance,
         "--components", 5, "--out", s),
        ("graph", "build", "--dataset", dataset, "--dominance", dominance, "--out", s),
        ("users", "metrics", "--user-metrics", a / "user_metrics.csv", "--edges", edges,
         "--k", 3, "--out", s),
    ]
    for argv in commands:
        assert run_cli(*argv) == 0, argv
    written = artifact_digests(s)
    outputs = {name for stage in STAGES if stage.name != "report" for name in stage.outputs}
    assert set(written) == outputs and len(written) == 29
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


@pytest.mark.parametrize("stages", [[], "x", None, {"stats": "x"}, {"stats": []}],
                         ids=["list", "string", "null", "string-record", "list-record"])
def test_manifest_without_stage_records_reruns_every_stage(dump, config, capsys, stages):
    """A manifest of the right format whose ``stages`` is not an object of
    objects is reported and treated as empty, like a truncated one."""
    assert run_cli("run", "--config", config) == 0
    clean = artifact_digests(dump / "artifacts")
    manifest = dump / "artifacts" / "manifest.json"
    payload = json.loads(manifest.read_text())
    write_json(manifest, {**payload, "stages": stages})
    capsys.readouterr()

    assert run_cli("run", "--config", config) == 0
    out = capsys.readouterr().out
    assert "no object of stage records" in out and "up to date" not in out
    assert artifact_digests(dump / "artifacts") == clean
    assert run_cli("run", "--config", config) == 0
    assert "all stages up to date" in capsys.readouterr().out


def test_records_without_timings_are_up_to_date(dump, config, capsys):
    """The wall time, CPU time, peak RSS and RSS of a stage are not part of
    its skip key: a directory whose records lack them is up to date."""
    assert run_cli("run", "--config", config) == 0
    manifest = dump / "artifacts" / "manifest.json"
    payload = json.loads(manifest.read_text())
    for record in payload["stages"].values():
        for key in ("wall_s", "cpu_s", "peak_rss_kb", "rss_kb"):
            del record[key]
    write_json(manifest, payload)
    capsys.readouterr()
    assert run_cli("run", "--config", config) == 0
    assert "all stages up to date" in capsys.readouterr().out


def test_records_without_reasons_are_up_to_date(dump, config, capsys):
    """Why a stage ran is not part of its skip key: a directory whose
    records lack it, as older code wrote them, is up to date."""
    assert run_cli("run", "--config", config) == 0
    manifest = dump / "artifacts" / "manifest.json"
    payload = json.loads(manifest.read_text())
    for record in payload["stages"].values():
        del record["reason"]
    write_json(manifest, payload)
    capsys.readouterr()
    assert run_cli("run", "--config", config) == 0
    assert "all stages up to date" in capsys.readouterr().out


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"posts": "\xff"}'),
    lambda path: path.write_text('{"posts": "dump/posts.jsonl" "comments"'),
], ids=["directory", "not-utf-8", "truncated-json"])
def test_unreadable_config_file_is_a_data_error(dump, capsys, make):
    """A config path that names a directory, or a file that is not UTF-8 or
    not whole JSON, exits 2 with an error naming the file."""
    make(dump / "bad.json")
    assert run_cli("run", "--config", dump / "bad.json") == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "internal error" not in err


# An int too large for a float.
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("override", [
    'lda.iterations="abc"', "lda.iterations=abc", "corpus.min_df=0",
    "lda.beta=0", "lda.alpha=-1", "lda.k=1.5", "seed=true", "posts=3",
    "out_dir=null", "lda.burn_in=50", "lda.k_min=11", "corpus.max_df_fraction=1.5",
    "from=2000000000 to=1000", "threads=2", "lda.alpha=Infinity", "lda.beta=Infinity",
    "lda.alpha=1e308", "lda.k=4 lda.alpha=1e308",
    *(pytest.param(f"{key}={HUGE_INT}", id=f"{key}=huge-int")
      for key in ("lda.alpha", "lda.beta", "corpus.max_df_fraction")),
    pytest.param(f"lda.k={HUGE_INT} lda.alpha=1", id="lda.k=huge-int lda.alpha=1"),
    # Without lda.alpha, the default alpha 50 / k divides by k.
    pytest.param(f"lda.k={HUGE_INT}", id="lda.k=huge-int"),
    pytest.param(f"lda.k=null lda.k_max={HUGE_INT}", id="lda.k_max=huge-int"),
])
def test_bad_config_value_exits_one_before_ingest(dump, config, override):
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert run_cli("run", "--config", config, *sets) == 1
    assert not (dump / "artifacts").exists()


@pytest.mark.parametrize("override", ["lda.k=1000000000", "lda.k=257",
                                      "lda.k=null lda.k_max=1000000000"])
def test_k_above_the_ceiling_exits_one_before_any_stage(dump, config, monkeypatch, capsys,
                                                        override):
    """A k that converts to a float but lies above the ceiling exits 1 and
    writes no directory. The fit is replaced by one that fails, so a k that
    passed the check would exit 3 rather than allocate its tables."""
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit was started")

    monkeypatch.setattr(topics, "fit", no_fit)
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert run_cli("run", "--config", config, *sets) == 1
    assert " <= 256" in capsys.readouterr().err
    assert not (dump / "artifacts").exists()


def test_huge_int_float_key_in_the_config_file_exits_one(dump, config, capsys):
    """An int too large for a float, given in the file for a float key, is
    a usage error, as it is through ``--set``."""
    write_json(config, {**RUN_CONFIG, "lda.beta": int(HUGE_INT)})
    assert run_cli("run", "--config", config) == 1
    assert "'lda.beta' must be finite" in capsys.readouterr().err
    assert not (dump / "artifacts").exists()


def test_huge_seed_runs(dump, config):
    """``seed`` is only hashed, so any int is a seed."""
    assert run_cli("run", "--config", config, "--set", "seed=" + "9" * 41) == 0


@pytest.mark.parametrize("command, key", [
    ("ingest --posts {a}/posts.jsonl --comments {a}/comments.jsonl "
     "--from 2000000000 --to 1000", "from"),
    ("corpus build --dataset {a}/dataset.json --min-df 0", "corpus.min_df"),
    ("topics fit --corpus {a}/corpus --k 1", "lda.k"),
    ("topics fit --corpus {a}/corpus --k 3 --iters 10 --burn-in 20", "lda.burn_in"),
    ("topics fit --corpus {a}/corpus --kmin 1 --kmax 3", "lda.k_min"),
    ("topics fit --corpus {a}/corpus --k 3 --threads 0", "--threads"),
    ("topics fit --corpus {a}/corpus --k 3 --alpha inf", "lda.alpha"),
    ("topics fit --corpus {a}/corpus --alpha 1e308", "lda.alpha"),
    ("topics fit --corpus {a}/corpus --k 4 --alpha 1e308", "lda.alpha"),
    *(pytest.param(f"topics fit --corpus {{a}}/corpus {flag} {HUGE_INT}", key,
                   id=f"topics fit {flag} huge-int")
      for flag, key in (("--k", "lda.k"), ("--kmax", "lda.k_max"))),
    ("users metrics --user-metrics {a}/user_metrics.csv --edges {a}/edges.csv --k 0",
     "graph.top_k"),
    *(pytest.param(f"topics fit --corpus {{a}}/corpus {flag} 1000000000", key,
                   id=f"topics fit {flag} 10**9")
      for flag, key in (("--k", "lda.k"), ("--kmax", "lda.k_max"))),
    ("lexicon profile --corpus {a}/corpus --dominance {a}/dominance.csv --components 0",
     "lexicon.components"),
])
def test_bad_subcommand_flag_exits_one(tmp_path, capsys, command, key):
    """The flag is rejected before any input is read: the inputs are missing,
    which would exit 2."""
    out = tmp_path / "out"
    argv = command.format(a=tmp_path / "missing").split() + ["--out", out]
    assert run_cli(*argv) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def intermediates(tmp_path_factory):
    """The artifacts of one small run."""
    base = tmp_path_factory.mktemp("run")
    generate_fixture(seed=11, n_posts=30, n_users=8, k_true=3, out_dir=base / "dump")
    write_json(base / "config.json", RUN_CONFIG)
    assert run_cli("run", "--config", base / "config.json") == 0
    return base / "artifacts"


@pytest.mark.parametrize("iterations", [2, 3, 25])
def test_k_scan_computes_two_likelihoods_per_k(intermediates, tmp_path, monkeypatch,
                                               iterations):
    """A ``topics fit`` scan over k = 2..4 computes the likelihood of each
    fit's last two sweeps and of no other, however many sweeps it runs."""
    calls = {}      # per k, its fit's likelihood evaluations

    def counting(likelihood, lib, corpus, theta, phi):
        calls[theta.shape[1]] = calls.get(theta.shape[1], 0) + 1
        return likelihood(lib, corpus, theta, phi)

    monkeypatch.setattr(lda, "_log_likelihood",
                        functools.partial(counting, lda._log_likelihood))
    assert run_cli("topics", "fit", "--corpus", intermediates / "corpus", "--kmin", 2,
                   "--kmax", 4, "--iters", iterations, "--burn-in", 1,
                   "--out", tmp_path / "out") == 0
    assert calls == {2: 2, 3: 2, 4: 2}


# Each subcommand that reads an intermediate, with paths relative to a
# directory holding the intermediates, keyed by case: `topics select-k` is
# the k scan of `topics fit`, `users top` ranks the top influencers of
# `users metrics` at a given `--k`, and `graph export` writes the graph
# files of `graph build` into a nested directory, without tau.
READERS = {
    "stats": "stats --dataset dataset.json --out out",
    "corpus build": "corpus build --dataset dataset.json --out out",
    "topics fit": "topics fit --corpus corpus --k 3 --iters 5 --burn-in 1 --out out",
    "topics select-k": "topics fit --corpus corpus --kmax 3 --iters 5 --burn-in 1 "
                       "--out out",
    "topics dominance": "topics dominance --model model.json --out out",
    "topics cooccur": "topics cooccur --dominance dominance.csv --out out/c.csv",
    "topics timeline": "topics timeline --dominance dominance.csv --dataset dataset.json "
                       "--out out/t.csv",
    "lexicon profile": "lexicon profile --corpus corpus --dominance dominance.csv "
                       "--out out",
    "users metrics": "users metrics --user-metrics user_metrics.csv --edges edges.csv "
                     "--out out",
    "users top": "users metrics --user-metrics user_metrics.csv --edges edges.csv "
                 "--k 3 --out out",
    "graph build": "graph build --dataset dataset.json --dominance dominance.csv --out out",
    "graph export": "graph build --dataset dataset.json --out out/graph",
}
# The flag through which a command reads each intermediate; load_assignment
# reads the two dominance siblings from beside dominance.csv.
READS = {"dataset.json": "--dataset dataset.json", "model.json": "--model model.json",
         "corpus": "--corpus corpus", "edges.csv": "--edges edges.csv",
         "user_metrics.csv": "--user-metrics user_metrics.csv",
         **dict.fromkeys(("dominance.csv", "dominance_thresholds.csv",
                          "topic_presence.csv"), "--dominance dominance.csv")}
INTERMEDIATES = ("dataset.json", "model.json", "corpus", "edges.csv", "user_metrics.csv",
                 "dominance.csv", "dominance_thresholds.csv", "topic_presence.csv")
FORMATS = {"dataset.json": "forumpulse-dataset-v2", "model.json": "forumpulse-model-v3",
           "corpus/meta.json": "forumpulse-corpus-v1"}


def _json_with(data: bytes, name: str, fill) -> bytes:
    payload = json.loads(data)
    payload = {key: value if key == "format" else fill(key, value)
               for key, value in payload.items()}
    return json.dumps(payload).encode()


def _with_post_id(data: bytes, line: int, post_id: bytes) -> bytes:
    """The ``dominance.csv`` bytes ``data`` with the post id of line
    ``line`` (the header is line 0) replaced by ``post_id``."""
    lines = data.split(b"\n")
    lines[line] = post_id + b"," + lines[line].split(b",", 1)[1]
    return b"\n".join(lines)


def _edge_line(change):
    """A corruption that replaces the first edge line of ``edges.csv`` (its
    cells, without the newline) by ``change(line)``."""
    def corrupt(data: bytes, name: str) -> bytes:
        lines = data.split(b"\n")
        lines[1] = change(lines[1])
        return b"\n".join(lines)
    return corrupt


def _dataset_column(table: str, column: str, change):
    """A corruption that replaces a column of dataset.json with
    ``change(cells, n_posts, n_records)``, where the records are the posts
    followed by the comments."""
    def corrupt(data: bytes, name: str) -> bytes:
        payload = json.loads(data)
        n_posts = len(payload["posts"]["id"])
        n_records = n_posts + len(payload["comments"]["id"])
        payload[table][column] = change(payload[table][column], n_posts, n_records)
        return json.dumps(payload).encode()
    return corrupt


def _first_rows(change):
    """A corruption that replaces the first two rows of a TSV or CSV file
    (``vocabulary.tsv``, ``docs.csv``, ``user_metrics.csv``) by
    ``change(first, second)``, each row a list of its cells."""
    def corrupt(data: bytes, name: str) -> bytes:
        lines = data.split(b"\n")
        sep = b"\t" if name.endswith(".tsv") else b","
        lines[1:3] = map(sep.join, change(*(line.split(sep) for line in lines[1:3])))
        return b"\n".join(lines)
    return corrupt


def _theta_cell(cell):
    """A corruption that sets ``theta[0][0]`` of ``model.json`` to ``cell``."""
    return lambda data, name: _json_with(
        data, name, lambda key, value: [[cell, *value[0][1:]], *value[1:]] if key == "theta"
        else value)


def _swapped(cells: list, *_) -> list:
    """A dataset column with its first two cells swapped."""
    return cells[1::-1] + cells[2:]


def _repeated(cells: list, *_) -> list:
    """A dataset column with its second cell replaced by its first."""
    return cells[:1] * 2 + cells[2:]


CORRUPTIONS = {
    "half": lambda data, name: data[:len(data) // 2],
    "empty": lambda data, name: b"",
    "binary": lambda data, name: b"\xff\xfe\x00" + data[3:],
    "types": lambda data, name: (
        _json_with(data, name, lambda key, value: "x") if name in FORMATS
        else bytes(ord("x") if chr(b).isdigit() else b for b in data)),
    "keys": lambda data, name: json.dumps({"format": FORMATS[name]}).encode(),
    "short-theta": lambda data, name: _json_with(
        data, name, lambda key, value: value[:-1] if key == "theta" else value),
    "yesterday": _dataset_column("posts", "created_at",
                                 lambda cells, *_: ["yesterday"] + cells[1:]),
    "short-column": _dataset_column("comments", "score", lambda cells, *_: cells[:-1]),
    "bool-int": _dataset_column("comments", "score", lambda cells, *_: [True] + cells[1:]),
    "parent-range": _dataset_column("comments", "parent",
                                    lambda cells, n_posts, n_records: [n_records] + cells[1:]),
    "root-range": _dataset_column("comments", "root",
                                  lambda cells, n_posts, n_records: [n_posts] + cells[1:]),
    "created-zero": _dataset_column("posts", "created_at", lambda cells, *_: [0] + cells[1:]),
    "created-after-9999": _dataset_column("comments", "created_at",
                                          lambda cells, *_: [253402300800] + cells[1:]),
    "outside-int64": _dataset_column("comments", "score", lambda cells, *_: [2**63] + cells[1:]),
    # The ids and authors that ingest rejects, written as the CSV cells they are.
    "empty-author": _dataset_column("comments", "author", lambda cells, *_: [""] + cells[1:]),
    "comma-author": _dataset_column("comments", "author", lambda cells, *_: ["a,b"] + cells[1:]),
    "line-break-id": _dataset_column("posts", "id", lambda cells, *_: [cells[0] + "\r"]
                                     + cells[1:]),
    "added-column": lambda data, name: _json_with(
        data, name, lambda key, value: {**value, "extra": value["id"]} if key == "posts"
        else value),
    "removed-column": lambda data, name: _json_with(
        data, name, lambda key, value: {k: v for k, v in value.items() if k != "root"}
        if key == "comments" else value),
    "format-1": lambda data, name: json.dumps(as_format_1(json.loads(data))).encode(),
    "repeated-id": lambda data, name: _with_post_id(data, 2, data.split(b"\n")[1].split(b",")[0]),
    "model-v1": lambda data, name: json.dumps({
        **json.loads(data), "format": "forumpulse-model-v1",
        "assignments": [[0] for _ in json.loads(data)["doc_ids"]]}).encode(),
    "model-v2": lambda data, name: json.dumps({
        **json.loads(data), "format": "forumpulse-model-v2",
        "log_likelihood_trace": [-80.5, -79.25]}).encode(),
    "no-last-newline": lambda data, name: data[:-1],
    # A table whose first header cell is renamed.
    "header": lambda data, name: b"renamed" + data[data.index(b"\t" if name.endswith(".tsv")
                                                              else b","):],
    # Lone surrogates, which no UTF-8 file can hold, as JSON escapes spell them.
    "surrogate-title": _dataset_column("posts", "title", lambda cells, *_: ["\ud800"] + cells[1:]),
    "surrogate-author": _dataset_column("comments", "author",
                                        lambda cells, *_: ["\udc80" + cells[0]] + cells[1:]),
    "two-cells": _edge_line(lambda line: line.rsplit(b",", 1)[0]),
    "four-cells": _edge_line(lambda line: line + b",1"),
    "float-weight": _edge_line(lambda line: line + b".5"),
    "empty-weight": _edge_line(lambda line: line.rsplit(b",", 1)[0] + b","),
    "zero-weight": _edge_line(lambda line: line.rsplit(b",", 1)[0] + b",0"),
    "self-reply": _edge_line(lambda line: b",".join(line.split(b",")[i] for i in (0, 0, 2))),
    "edge-order": _edge_line(lambda line: b",".join(line.split(b",")[i] for i in (1, 0, 2))),
    "empty-name": _edge_line(lambda line: b"," + line.split(b",", 1)[1]),
    "repeated-term": _first_rows(lambda first, second: (first, [second[0], first[1],
                                                                second[2]])),
    "df-mismatch": _first_rows(lambda first, second: (
        [first[0], first[1], b"%d" % (int(first[2]) + 1)], second)),
    "wrong-digest": lambda data, name: _json_with(
        data, name, lambda key, value: "0" * 64 if key == "vocabulary_sha256" else value),
    "vocab-id": _first_rows(lambda first, second: ([second[0], *first[1:]],
                                                   [first[0], *second[1:]])),
    # Ids out of order, or repeated, where the types take only ascending ids.
    "swapped-posts-id": _dataset_column("posts", "id", _swapped),
    "repeated-posts-id": _dataset_column("posts", "id", _repeated),
    "swapped-comments-id": _dataset_column("comments", "id", _swapped),
    "repeated-comments-id": _dataset_column("comments", "id", _repeated),
    "swapped-doc-id": _first_rows(lambda first, second: ([first[0], second[1]],
                                                         [second[0], first[1]])),
    "repeated-doc-id": _first_rows(lambda first, second: (first, [second[0], first[1]])),
    # A user_metrics.csv row of cells its writer never writes, users that do
    # not ascend, an I that is not alpha * R, or no row.
    "zero-comments": _first_rows(lambda first, second: ([first[0], b"0", *first[2:]], second)),
    "long-count": _first_rows(lambda first, second: ([first[0], b"1" + b"0" * 18, *first[2:]],
                                                      second)),
    "negative-degree": _first_rows(lambda first, second: ([*first[:2], b"-1", *first[3:]],
                                                           second)),
    "word-tau": _first_rows(lambda first, second: ([*first[:4], b"abc", *first[5:]], second)),
    "blank-alpha": _first_rows(lambda first, second: ([*first[:6], b"", *first[7:]], second)),
    "nan-influence": _first_rows(lambda first, second: ([*first[:7], b"nan", first[8]],
                                                         second)),
    "float-score": _first_rows(lambda first, second: ([*first[:8], b"1.5"], second)),
    "empty-user": _first_rows(lambda first, second: ([b"", *first[1:]], second)),
    "repeated-user": _first_rows(lambda first, second: (first, [first[0], *second[1:]])),
    "swapped-users": _first_rows(lambda first, second: (second, first)),
    "edited-influence": _first_rows(lambda first, second: (
        first[:7] + [repr(float(first[7]) * 2 + 1).encode()] + first[8:], second)),
    "no-rows": lambda data, name: data.split(b"\n", 1)[0] + b"\n",
    # Numbers too large for a float: a 401-digit integer, and 1e400, which
    # parses to infinity.
    "huge-theta": _theta_cell(10**400),
    "huge-total": lambda data, name: re.sub(rb'"total_tokens": [0-9]+',
                                            b'"total_tokens": 1e400', data),
    # A theta row that is not a probability row.
    "nan-theta": _theta_cell(float("nan")),
    "negative-theta": _theta_cell(-0.5),
    "above-one-theta": _theta_cell(7.0),
}
# The CSV and TSV intermediates, each a header line and rows.
TABLES = ("corpus/vocabulary.tsv", "corpus/documents.csv", "corpus/docs.csv", "dominance.csv",
          "dominance_thresholds.csv", "topic_presence.csv", "edges.csv", "user_metrics.csv")
# The files each corruption that does not apply to every file applies to.
ONLY = {"keys": FORMATS, "short-theta": ("model.json",), "model-v1": ("model.json",),
        "model-v2": ("model.json",), "huge-total": ("corpus/meta.json",),
        **dict.fromkeys(("huge-theta", "nan-theta", "negative-theta", "above-one-theta"),
                        ("model.json",)),
        "repeated-id": ("dominance.csv",), "wrong-digest": ("corpus/meta.json",),
        **dict.fromkeys(("repeated-term", "df-mismatch", "vocab-id"),
                        ("corpus/vocabulary.tsv",)),
        **dict.fromkeys(("swapped-doc-id", "repeated-doc-id"), ("corpus/docs.csv",)),
        **dict.fromkeys(("no-last-newline", "header"), TABLES),
        **dict.fromkeys(("two-cells", "four-cells", "float-weight", "empty-weight",
                         "zero-weight", "self-reply", "edge-order", "empty-name"),
                        ("edges.csv",)),
        **dict.fromkeys(("zero-comments", "long-count", "negative-degree", "word-tau",
                         "blank-alpha", "nan-influence", "float-score", "empty-user",
                         "repeated-user", "swapped-users", "edited-influence", "no-rows"),
                        ("user_metrics.csv",)),
        **dict.fromkeys(("yesterday", "short-column", "bool-int", "parent-range", "root-range",
                         "created-zero", "created-after-9999", "outside-int64", "format-1",
                         "empty-author", "comma-author", "line-break-id", "added-column",
                         "removed-column", "swapped-posts-id", "repeated-posts-id",
                         "swapped-comments-id", "repeated-comments-id", "surrogate-title",
                         "surrogate-author"),
                        ("dataset.json",))}
CASES = [
    (name, corruption, command)
    for name in ("dataset.json", "model.json", "corpus/meta.json") + TABLES
    for corruption in CORRUPTIONS
    if name in ONLY.get(corruption, (name,))
    for command in READERS
    if READS[name.split("/")[0]] in READERS[command]
]


@pytest.mark.parametrize("name, corruption, command", CASES)
def test_corrupt_intermediate_is_a_data_error(intermediates, tmp_path, monkeypatch,
                                              capsys, name, corruption, command):
    """A truncated, garbled or incomplete intermediate exits 2 and is named."""
    for part in INTERMEDIATES:
        src = intermediates / part
        if src.is_dir():
            shutil.copytree(src, tmp_path / part)
        else:
            shutil.copy(src, tmp_path / part)
    target = tmp_path / name
    target.write_bytes(CORRUPTIONS[corruption](target.read_bytes(), name))
    monkeypatch.chdir(tmp_path)
    assert run_cli(*READERS[command].split()) == 2
    assert name.split("/")[-1] in capsys.readouterr().err


# Each intermediate file or directory, by the name a reader's flag gives it,
# and each subcommand that reads it.
WRONG_KIND = [(name, command) for name in ("dataset.json", "model.json", "corpus",
                                           "edges.csv", "user_metrics.csv", "dominance.csv")
              for command in READERS if READS[name] in READERS[command]]


@pytest.mark.parametrize("name, command", WRONG_KIND)
def test_intermediate_of_the_wrong_kind_is_a_data_error(intermediates, tmp_path, monkeypatch,
                                                        capsys, name, command):
    """A directory where a subcommand reads a file, or a file where it reads
    the corpus directory, exits 2 naming the path, and writes nothing."""
    for part in INTERMEDIATES:
        src = intermediates / part
        if src.is_dir():
            shutil.copytree(src, tmp_path / part)
        else:
            shutil.copy(src, tmp_path / part)
    target = tmp_path / name
    if target.is_dir():
        shutil.rmtree(target)
        target.write_text("{}\n", encoding="utf-8")
    else:
        target.unlink()
        target.mkdir()
    monkeypatch.chdir(tmp_path)
    assert run_cli(*READERS[command].split()) == 2
    err = capsys.readouterr().err
    assert name in err and "internal error" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["graph build", "topics timeline"])
def test_dominance_of_a_post_not_in_the_dataset_is_a_data_error(
        intermediates, tmp_path, monkeypatch, capsys, command):
    """A dominance file that names a post the dataset lacks exits 2, naming
    the post, in both readers that look posts up in the dataset."""
    for part in INTERMEDIATES:
        if part != "corpus":
            shutil.copy(intermediates / part, tmp_path / part)
    dominance = tmp_path / "dominance.csv"
    dominance.write_bytes(_with_post_id(dominance.read_bytes(), 1, b"nope"))
    monkeypatch.chdir(tmp_path)
    assert run_cli(*READERS[command].split()) == 2
    assert "post 'nope' not present in dataset" in capsys.readouterr().err


def test_graph_build_without_dominance_leaves_only_tau_blank(intermediates, tmp_path):
    """`graph build` without its optional `--dominance` writes the run's
    graph files, and its metrics but with every tau blank."""
    assert run_cli("graph", "build", "--dataset", intermediates / "dataset.json",
                   "--out", tmp_path) == 0
    for name in ("edges.csv", "graph.graphml", "graph.dot", "user_classes.json"):
        assert (tmp_path / name).read_bytes() == (intermediates / name).read_bytes(), name
    for name, tau in (("user_metrics.csv", 4), ("spread_influence.csv", 1)):
        ours, run = ([line.split(",") for line in (d / name).read_text().splitlines()]
                     for d in (tmp_path, intermediates))
        assert any(row[tau] for row in run[1:]) and not any(row[tau] for row in ours[1:])
        assert [row[:tau] + row[tau + 1:] for row in ours] \
            == [row[:tau] + row[tau + 1:] for row in run], name


@pytest.mark.parametrize("foreign", ["edges.csv", "user_metrics.csv"])
def test_metrics_and_edges_of_two_dumps_are_a_data_error(intermediates, tmp_path, capsys,
                                                         foreign):
    """`users metrics` fed a user_metrics.csv and an edges.csv of two
    different dumps, either way round, exits 2 naming both files, and
    writes nothing."""
    other = tmp_path / "other"
    assert run_cli("fixture", "--seed", 12, "--posts", 30, "--users", 20, "--k-true", 3,
                   "--out", other) == 0
    assert run_cli("ingest", "--posts", other / "posts.jsonl", "--comments",
                   other / "comments.jsonl", "--out", other / "dataset.json") == 0
    assert run_cli("graph", "build", "--dataset", other / "dataset.json",
                   "--out", other) == 0
    files = {name: (other if name == foreign else intermediates) / name
             for name in ("user_metrics.csv", "edges.csv")}
    assert load_user_metrics(files["user_metrics.csv"]).users \
        != list(load_graph(files["edges.csv"]).nodes)
    capsys.readouterr()
    assert run_cli("users", "metrics", "--user-metrics", files["user_metrics.csv"],
                   "--edges", files["edges.csv"], "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert (f"{files['user_metrics.csv']} and {files['edges.csv']} are not of one graph"
            in err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, problem", [
    (lambda rows: [rows[0]] + [[r[0], r[1], str(int(r[2]) + 1), *r[3:]] for r in rows[1:2]]
     + rows[2:], "has degrees"),
    (lambda rows: [rows[0], *rows[2:]], "is not a listed user"),
])
def test_metrics_whose_degrees_are_not_the_edges_are_a_data_error(intermediates, tmp_path,
                                                                  capsys, change, problem):
    """A user whose degrees are not its degrees in edges.csv, or an edge
    source that user_metrics.csv does not list, exits 2 naming both files."""
    rows = [line.split(",") for line in
            (intermediates / "user_metrics.csv").read_text(encoding="utf-8").splitlines()]
    assert int(rows[1][2]) > 0          # the first user replied: an edge source
    rows = change(rows)
    # R, alpha and I as the file's C and out_degree give them.
    count = [int(r[1]) for r in rows[1:]]
    for r in rows[1:]:
        alpha, reach = int(r[1]) / max(count), int(r[2]) / int(r[1])
        r[5:8] = map(repr, (reach, alpha, alpha * reach))
    metrics = tmp_path / "user_metrics.csv"
    metrics.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    load_user_metrics(metrics)
    capsys.readouterr()
    assert run_cli("users", "metrics", "--user-metrics", metrics, "--edges",
                   intermediates / "edges.csv", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{metrics} and {intermediates / 'edges.csv'} are not of one graph" in err
    assert problem in err
    assert not (tmp_path / "out").exists()


def test_dominance_of_posts_in_another_order_than_the_corpus_is_a_data_error(
        intermediates, tmp_path, monkeypatch, capsys):
    """`lexicon profile` pairs the corpus's documents with the dominance
    rows by position, so a dominance file whose post ids are rotated by one
    row exits 2, naming it, and writes nothing."""
    shutil.copytree(intermediates / "corpus", tmp_path / "corpus")
    for part in ("dominance.csv", "dominance_thresholds.csv", "topic_presence.csv"):
        shutil.copy(intermediates / part, tmp_path / part)
    header, *lines = (tmp_path / "dominance.csv").read_text().splitlines()
    ids, cells = zip(*(line.split(",") for line in lines))
    ids = ids[1:] + ids[:1]
    (tmp_path / "dominance.csv").write_text(
        "\n".join([header] + [f"{i},{c}" for i, c in zip(ids, cells)]) + "\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(*READERS["lexicon profile"].split()) == 2
    assert "dominance.csv: its posts are not the corpus's documents" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Each damage to a small file that only `report` reads: the file, and the
# change to its text.
REPORT_INPUT_DAMAGE = {
    "no-last-newline": ("top_words.csv", lambda text: text[:-1]),
    "missing-topic": ("top_words.csv", lambda text: "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("2,"))),
    "rank-gap": ("top_words.csv", lambda text: text.replace("\n0,2,", "\n0,3,", 1)),
    "empty-term": ("top_words.csv",
                   lambda text: re.sub(r"\n(0,1,)[^\n]*", r"\n\1", text, count=1)),
    "extra-rank": ("top_words.csv",
                   lambda text: text.replace("\n1,1,", "\n0,11,x\n1,1,", 1)),
    "two-cells": ("top_words.csv",
                  lambda text: text.replace("topic,rank,term", "topic,term", 1)),
    "words-header": ("top_words.csv",
                     lambda text: text.replace("topic,rank,term", "topic,rank,word", 1)),
    "scan-header": ("skewness_scan.csv",
                    lambda text: text.replace("k,w_k,selected", "k,w_k,chosen", 1)),
    "no-selected-row": ("skewness_scan.csv", lambda text: text.replace(",1\n", ",0\n")),
    "w_k-abc": ("skewness_scan.csv",
                lambda text: re.sub(r"(?m)^(\d+),\d+,1$", r"\1,abc,1", text)),
    "summary-truncated": ("stats_summary.json", lambda text: text[:len(text) // 2]),
    "summary-no-authors": ("stats_summary.json", lambda text: json.dumps(
        {key: value for key, value in json.loads(text).items() if key != "authors"})),
    "classes-truncated": ("user_classes.json", lambda text: text[:len(text) // 2]),
}


@pytest.mark.parametrize("damage", REPORT_INPUT_DAMAGE)
def test_damaged_top_words_fails_the_report_with_a_data_error(dump, config, capsys, damage):
    """A small file that only `report` reads (top_words.csv, skewness_scan.csv,
    stats_summary.json or user_classes.json), damaged after its stage
    recorded it (its new digest in the manifest), fails `report` with exit
    2, naming the file."""
    name, change = REPORT_INPUT_DAMAGE[damage]
    assert run_cli("run", "--config", config) == 0
    path = dump / "artifacts" / name
    damaged = change(path.read_text())
    assert damaged != path.read_text()
    path.write_text(damaged)
    producer = next(stage.name for stage in STAGES if name in stage.outputs)
    manifest = read_json(dump / "artifacts" / "manifest.json")
    manifest["stages"][producer]["outputs"][name] = sha256_file(path)
    write_json(dump / "artifacts" / "manifest.json", manifest)
    capsys.readouterr()
    assert run_cli("run", "--config", config) == 2
    err = capsys.readouterr().err
    assert "stage 'report' failed" in err and name in err


def test_directory_another_run_holds_is_a_data_error(dump, config, capsys):
    """`run` on an output directory locked by another process exits 2,
    naming the directory, and leaves its files and manifest as they were;
    once the lock is released the same run goes ahead."""
    assert run_cli("run", "--config", config) == 0
    out = dump / "artifacts"
    files, manifest = artifact_digests(out), (out / "manifest.json").read_bytes()
    fd = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        capsys.readouterr()
        assert run_cli("run", "--config", config, "--set", "graph.top_k=2") == 2
    finally:
        os.close(fd)
    assert f"output directory {out} is in use by another run" in capsys.readouterr().err
    assert artifact_digests(out) == files
    assert (out / "manifest.json").read_bytes() == manifest
    assert run_cli("run", "--config", config, "--set", "graph.top_k=2") == 0
    assert artifact_digests(out) != files


def _garble(path: Path, at_line: int) -> None:
    """Put a line holding a byte that is not UTF-8 before line ``at_line``."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:at_line]) + b'{"id": "x\xff"}\n'
                     + b"".join(lines[at_line:]))


@pytest.mark.parametrize("kind, key", [("posts", "id"), ("posts", "author"), ("posts", "title"),
                                       ("posts", "selftext"), ("comments", "id"),
                                       ("comments", "author")])
def test_lone_surrogate_in_a_kept_field_is_a_parse_error(dump, config, kind, key):
    """A record whose id, author, title or selftext holds a lone surrogate,
    a valid JSON escape that UTF-8 cannot encode, is skipped and counted in
    parse_errors, and `run` exits 0."""
    path = dump / "dump" / f"{kind}.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(first)
    record[key] = (record.get(key) or "") + "\ud800"
    path.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
    assert "\\ud800" in path.read_text(encoding="utf-8")
    assert run_cli("run", "--config", config) == 0
    assert read_json(dump / "artifacts" / "stats_summary.json")["parse_errors"] == 1


def test_dump_that_is_not_utf8_fails_ingest_with_a_data_error(dump, config, capsys):
    """A posts file opening with a UTF-16 byte order mark exits 2 from
    `run`, naming the file, and leaves no dataset.json."""
    posts = dump / "dump" / "posts.jsonl"
    posts.write_bytes(b"\xff\xfe" + posts.read_bytes())
    assert run_cli("run", "--config", config) == 2
    err = capsys.readouterr().err
    assert "stage 'ingest' failed" in err and f"{posts}: not UTF-8" in err
    assert not (dump / "artifacts").exists()


def test_dump_line_that_is_not_utf8_is_a_data_error(dump, capsys):
    """A byte that is not UTF-8 after valid lines exits 2 from `ingest`,
    naming the file, and writes nothing."""
    comments = dump / "dump" / "comments.jsonl"
    _garble(comments, 5)
    assert run_cli("ingest", "--posts", dump / "dump" / "posts.jsonl",
                   "--comments", comments, "--out", dump / "out" / "dataset.json") == 2
    assert f"{comments}: not UTF-8" in capsys.readouterr().err
    assert not (dump / "out").exists()


LEXICONS = {
    "truncated": b'{"a": ["x"',
    "binary": b'\xff\xfe{"a": ["x"]}',
    "not-json": b"money: pay, debt\n",
    "empty": b"",
    "duplicate": b'{"a": ["x"], "a": ["y"]}',
}


@pytest.mark.parametrize("lexicon", LEXICONS)
def test_corrupt_lexicon_is_a_data_error(intermediates, dump, config, tmp_path,
                                         capsys, lexicon):
    """A lexicon file that is not UTF-8 JSON, or that names a category
    twice, exits 2 and is named, from `lexicon profile`, and from `run` for
    its `lexicon` stage before any stage runs."""
    path = tmp_path / "lexicon.json"
    path.write_bytes(LEXICONS[lexicon])
    assert run_cli("lexicon", "profile", "--corpus", intermediates / "corpus",
                   "--dominance", intermediates / "dominance.csv",
                   "--lexicon", path, "--out", tmp_path / "out") == 2
    assert "lexicon.json" in capsys.readouterr().err
    assert run_cli("run", "--config", config, "--set", f"lexicon.path={path}") == 2
    err = capsys.readouterr().err
    assert "stage 'lexicon' failed" in err and "lexicon.json" in err
    assert not (dump / "artifacts" / "dataset.json").exists()


def _unlink_then(make):
    def damage(path: Path, data: bytes, where: float) -> None:
        path.unlink()
        make(path)
    return damage


def _cut(data: bytes, where: float) -> int:
    """An offset strictly inside the text of ``data`` but its trailing
    newline, ``where`` of the way along."""
    return 1 + int(where * (len(data.rstrip()) - 2))


# Each way an input file goes bad: ``damage(path, data, where)`` rewrites
# the file at ``path``, whose bytes are ``data``; ``where`` (0 to 1) places
# the cut or the bad byte. A truncated dump ends inside a character: a dump
# cut between characters ends in a partial line, which ingest tallies as a
# parse error and reads on.
BAD_INPUTS = {
    "missing": lambda path, data, where: path.unlink(),
    "directory": _unlink_then(Path.mkdir),
    "dangling-symlink": _unlink_then(lambda path: path.symlink_to(path.with_name("gone"))),
    "empty": lambda path, data, where: path.write_bytes(b""),
    "blank-lines": lambda path, data, where: path.write_bytes(
        "\n \n\t\r\n\u00a0\n".encode()),
    "truncated": lambda path, data, where: path.write_bytes(
        data[:_cut(data, where)] if path.suffix == ".json"
        else data + '{"id": "\u00e9'.encode()[:-1]),
    "not-utf8": lambda path, data, where: path.write_bytes(
        data[:_cut(data, where)] + b"\xff" + data[_cut(data, where):]),
}
BAD_INPUT_FILES = {"posts": "dump/posts.jsonl", "comments": "dump/comments.jsonl",
                   "lexicon.path": "lexicon.json"}


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from([(key, bad) for key in BAD_INPUT_FILES for bad in BAD_INPUTS]),
       where=st.floats(0, 1))
def test_bad_input_file_fails_the_run_before_it_writes(tmp_path_factory, case, where):
    """A dump or lexicon file that is missing, a directory, a dangling
    symlink, empty, blank lines only, truncated or not UTF-8 makes `run`
    exit 1 or 2, and leaves the output directory as it was: no
    dataset.json. A dangling symlink is named by the path the config gives."""
    key, bad = case
    base = tmp_path_factory.mktemp("bad-input")
    generate_fixture(seed=11, n_posts=30, n_users=8, k_true=3, out_dir=base / "dump")
    write_json(base / "lexicon.json", {"money": ["loan", "debt"], "cars": ["car"]})
    write_json(base / "config.json", {**RUN_CONFIG, "lexicon.path": "lexicon.json"})
    out = base / "artifacts"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    path = base / BAD_INPUT_FILES[key]
    BAD_INPUTS[bad](path, path.read_bytes(), where)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli("run", "--config", base / "config.json") in (1, 2)
    if bad == "dangling-symlink":
        assert f"{path} is not a file" in err.getvalue()
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"


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


@pytest.mark.parametrize("posts, users, k_true", [(0, 5, 2), (10, 0, 2), (10, 5, 0),
                                                   (-3, 5, 2)])
def test_fixture_count_below_one_exits_one(tmp_path, capsys, posts, users, k_true):
    assert run_cli("fixture", "--seed", 1, "--posts", posts, "--users", users,
                   "--k-true", k_true, "--out", tmp_path / "f") == 1
    assert "must be positive" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "forumpulse" in capsys.readouterr().out
