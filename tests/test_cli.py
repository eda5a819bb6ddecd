from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from forumpulse.cli import main
from forumpulse.fileio import sha256_file, write_json
from forumpulse.fixture import generate_fixture
from forumpulse.pipeline import stage_seed

from conftest import child_env


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
                   "--out", t / "edges.csv") == 0
    assert (t / "edges.csv").read_text().splitlines()[0] == "from,to,weight"

    assert run_cli("users", "metrics", "--dataset", t / "dataset.json",
                   "--edges", t / "edges.csv", "--dominance", t / "dom/dominance.csv",
                   "--out", t / "users") == 0
    header = (t / "users/user_metrics.csv").read_text().splitlines()[0]
    assert header == "user,C,out_degree,in_degree,tau,R,alpha,I,agg_score"

    assert run_cli("users", "top", "--dataset", t / "dataset.json",
                   "--edges", t / "edges.csv", "--k", 3, "--out", t / "top") == 0
    assert (t / "top/top_influencers.csv").exists()
    assert (t / "top/influencer_subgraph.graphml").exists()

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
    dominance, edges = a / "dominance.csv", a / "edges.csv"
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
        ("topics", "cooccur", "--dominance", dominance, "--out", s / "cooccurrence.csv"),
        ("topics", "timeline", "--dominance", dominance, "--dataset", dataset,
         "--out", s / "monthly_topics.csv"),
        ("lexicon", "profile", "--corpus", a / "corpus", "--dominance", dominance,
         "--components", 5, "--out", s),
        ("users", "metrics", "--dataset", dataset, "--edges", edges,
         "--dominance", dominance, "--out", s),
        ("users", "top", "--dataset", dataset, "--edges", edges,
         "--dominance", dominance, "--k", 3, "--out", s),
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
    "out_dir=null", "lda.burn_in=50", "lda.k_min=11", "corpus.max_df_fraction=1.5",
    "from=2000000000 to=1000",
])
def test_bad_config_value_exits_one_before_ingest(dump, config, override):
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert run_cli("run", "--config", config, *sets) == 1
    assert not (dump / "artifacts" / "dataset.json").exists()


@pytest.mark.parametrize("command, key", [
    ("ingest --posts {a}/posts.jsonl --comments {a}/comments.jsonl "
     "--from 2000000000 --to 1000", "from"),
    ("corpus build --dataset {a}/dataset.json --min-df 0", "corpus.min_df"),
    ("topics fit --corpus {a}/corpus --k 1", "lda.k"),
    ("topics fit --corpus {a}/corpus --k 3 --iters 10 --burn-in 20", "lda.burn_in"),
    ("topics select-k --corpus {a}/corpus --kmin 1 --kmax 3 --scan-csv {out}.csv",
     "lda.k_min"),
    ("users top --dataset {a}/dataset.json --edges {a}/edges.csv --k 0",
     "graph.top_k"),
    ("lexicon profile --corpus {a}/corpus --dominance {a}/dominance.csv --components 0",
     "lexicon.components"),
])
def test_bad_subcommand_flag_exits_one(tmp_path, capsys, command, key):
    """The flag is rejected before any input is read: the inputs are missing,
    which would exit 2."""
    out = tmp_path / "out"
    argv = command.format(a=tmp_path / "missing", out=out).split() + ["--out", out]
    assert run_cli(*argv) == 1
    assert key in capsys.readouterr().err
    assert not out.exists() and not tmp_path.joinpath("out.csv").exists()


@pytest.fixture(scope="module")
def intermediates(tmp_path_factory):
    """The artifacts of one small run."""
    base = tmp_path_factory.mktemp("run")
    generate_fixture(seed=11, n_posts=30, n_users=8, k_true=3, out_dir=base / "dump")
    write_json(base / "config.json", RUN_CONFIG)
    assert run_cli("run", "--config", base / "config.json") == 0
    return base / "artifacts"


# Each subcommand that reads an intermediate, with paths relative to a
# directory holding the intermediates.
READERS = {
    "stats": "stats --dataset dataset.json --out out",
    "corpus build": "corpus build --dataset dataset.json --out out",
    "topics fit": "topics fit --corpus corpus --k 3 --iters 5 --burn-in 1 "
                  "--out out/model.json",
    "topics select-k": "topics select-k --corpus corpus --kmax 3 --iters 5 "
                       "--burn-in 1 --out out/model.json --scan-csv out/scan.csv",
    "topics dominance": "topics dominance --model model.json --out out",
    "topics cooccur": "topics cooccur --dominance dominance.csv --out out/c.csv",
    "topics timeline": "topics timeline --dominance dominance.csv --dataset dataset.json "
                       "--out out/t.csv",
    "lexicon profile": "lexicon profile --corpus corpus --dominance dominance.csv "
                       "--out out",
    "users metrics": "users metrics --dataset dataset.json --edges edges.csv "
                     "--dominance dominance.csv --out out",
    "users top": "users top --dataset dataset.json --edges edges.csv "
                 "--dominance dominance.csv --out out",
    "graph build": "graph build --dataset dataset.json --out out/e.csv",
    "graph export": "graph export --dataset dataset.json --format dot --out out/g.dot",
}
# The flag through which a command reads each intermediate; load_assignment
# reads the two dominance siblings from beside dominance.csv.
READS = {"dataset.json": "--dataset dataset.json", "model.json": "--model model.json",
         "corpus": "--corpus corpus", "edges.csv": "--edges edges.csv",
         **dict.fromkeys(("dominance.csv", "dominance_thresholds.csv",
                          "topic_presence.csv"), "--dominance dominance.csv")}
INTERMEDIATES = ("dataset.json", "model.json", "corpus", "edges.csv", "dominance.csv",
                 "dominance_thresholds.csv", "topic_presence.csv")
FORMATS = {"dataset.json": "forumpulse-dataset-v1", "model.json": "forumpulse-model-v1",
           "corpus/meta.json": "forumpulse-corpus-v1"}


def _json_with(data: bytes, name: str, fill) -> bytes:
    payload = json.loads(data)
    payload = {key: value if key == "format" else fill(key, value)
               for key, value in payload.items()}
    return json.dumps(payload).encode()


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
    "yesterday": lambda data, name: _json_with(
        data, name, lambda key, value: (
            [{**value[0], "created_at": "yesterday"}] + value[1:] if key == "posts"
            else value)),
}
# The files each corruption that does not apply to every file applies to.
ONLY = {"keys": FORMATS, "short-theta": ("model.json",), "yesterday": ("dataset.json",)}
CASES = [
    (name, corruption, command)
    for name in ("dataset.json", "model.json", "corpus/meta.json",
                 "corpus/vocabulary.tsv", "corpus/documents.csv", "corpus/docs.csv",
                 "dominance.csv", "dominance_thresholds.csv", "topic_presence.csv",
                 "edges.csv")
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
