"""The shipped fixture's artifacts, pinned to the byte, and a run killed
after a random stage that a rerun completes to the same bytes."""

from __future__ import annotations

import hashlib
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forumpulse.lexicon as lexicon
from forumpulse.fileio import read_json, sha256_file, write_json
from forumpulse.lexicon import pca
from forumpulse.pipeline import STAGES, run_pipeline

from conftest import FIXTURE_DIR, as_format_1, child_env

# sha256 of every file `forumpulse run` writes on the shipped fixture, but
# manifest.json, which records times.
FIXTURE_DIGESTS = {
    "activity_table.csv": "8995d996f227c336835d097f6ef8615086082fe09a0e6230601143813c1eeb71",
    "category_matrix.csv": "31ecb92e444c57244f37893c1a25a49e6531287a0a6d1a115f89950b41cece17",
    "cooccurrence.csv": "5320c8a4ef2e2a97bf0d568bea4a61794a516a0dbac636971d57c4eace8dc4f3",
    "corpus/docs.csv": "22b996f169732cffc19e8b0998416b78d2a4ee644959766590d049e883c41ba0",
    "corpus/documents.csv": "dfe1b0bb8d3ed279195ba22e3c50b28d5602aa5f671fefac3541a456c9e98c15",
    "corpus/meta.json": "988b10143cbbdb60bc636e1fb1446a9534a59b1083648053a2386b7e7b290cb3",
    "corpus/vocabulary.tsv": "ff2bd5423da6a630f0d7d8a76d0298659587acb745390c5584a0a33c1586e90c",
    "dataset.json": "938d712b0ec2b4336a8e49ae59e7f4b7784d6fe562841dd018317fc83097e0f1",
    "dominance.csv": "4796c3c9ecde25302ddc9db7d5afc525f2ff7e901313ed04f56ee44893a4f23e",
    "dominance_thresholds.csv":
        "5ef2dc559389bbbc318925bef7999793bc09fabaa7effaf0910a783771ec2f3c",
    "edges.csv": "bd01284bd1031d3375ac0330d9ac6ff4ac91c7b7bc01a2fc215c4322220fc0cc",
    "graph.dot": "33502e927aa630be09700adbd7d584013648995739b7642cfc67643df71d7ab4",
    "graph.graphml": "da7d74b89b80c18b84029af8e981a3cd3894f30d722c7c9fc143a342d5e99c12",
    "influencer_subgraph.graphml":
        "da7d74b89b80c18b84029af8e981a3cd3894f30d722c7c9fc143a342d5e99c12",
    "model.json": "e2e283f5398ddcc53bdf3b66cea763d5a330288f9d7336365b6df9525136edf7",
    "monthly_topics.csv": "1e7599c461d885df0559071a4e0c12b868bbbe5a792bc49b8bba2d7c28053126",
    "pca_components.csv": "45f60fa1be38e1347d1a400cdf3ed2d343e45086590300f372f95b89f738af93",
    "pca_variance.csv": "0009befe1946a2ffe700c6be4efad2987c3d09ed8ccf5a0f75b4ababde50010b",
    "report.json": "286a0b453cdf0ff54a4581e2a19944bcde80bf5a0b701d57e7ae9b7db8484c53",
    "response_times.csv": "4f5de0887aecf754a618e82f5900e6702a84eb88edd8e81b5b0a16ccf3e5977c",
    "score_relations.csv": "86fad629568bc2ee87ca67718d57bfdf0ab15172da499081ab2c2acb5bb436b4",
    "skewness_scan.csv": "d3dfd622e49c7252462724473953c8d76d1e8abc3bf959bb03515ddf7ae53b17",
    "spread_influence.csv": "83f07c96adce9b90f1c663f0353d7806f9a90bc674790cb90814ba9e259c06bf",
    "stats_summary.json": "28d6bf99d062132183b8f874dbaae1282149f2cd28898cf36b0cd7c99fc0efbe",
    "top_influencers.csv": "79f19c4cf5af4cb8ecd49788e2e67e95faabbe99b5ba90b24760e0362e4c0576",
    "topic_presence.csv": "ab9ac23e8e3d7a9e825919b14c72208fb0ef472a89ce170cd138e82c5ddb3bba",
    "topic_profiles.csv": "30d711d9c6d3809ceb5983f149136fc222c40799b1828babfc548ced5b112ec0",
    "top_words.csv": "542a64f6719537070299cc8ca9966bc3766c700e1ebb6406dded6f1a0d951edb",
    "user_classes.json": "ddf3a5d11e6b3b8ae9b5874b837dc98787bc184a7ef2481030f3e9237db0e79c",
    "user_metrics.csv": "5ec783bf5a965bbc8b790c8f1eb62f211850a0452d73fd50fd9cd7033e8e8495",
}
# The listing: sha256 of the `sha256sum` lines of those files, by path.
FIXTURE_LISTING = "929e801ca60e7c851661d717a2389a047fa94cb68acb20db3e8d37b38fb21305"


# sha256 of every file but manifest.json that `forumpulse run` writes on the
# 2,000-post dump of `perfbench/gen_dump.py` at seed 7, with lda.k 6 and 4
# sweeps as the benchmark fits: a short fit leaves theta with few distinct
# values (254 in 12,000 cells), where the fixture's is almost all distinct.
DUMP_2000_DIGESTS = {
    "activity_table.csv":
        "7f7d81dca1a995227233b6db628e3261235c248b25347ce019f411a2481cad88",
    "category_matrix.csv":
        "39f6b42c18e5022634dad15fbed7f88f9278c5ee27288cba1cdb4f683368168a",
    "cooccurrence.csv": "ae971bb84ce7834706c1a7bd5b777c7403d97d1e9201439763706d524a1ec79b",
    "corpus/docs.csv": "3435bbf7e6829474e78b80dec7d33ccd18267f94746e94c0394badc9863d4863",
    "corpus/documents.csv":
        "62fb82f3d69527dc0c28b8e936021132ab4768c111112ef75a232bafdbfec574",
    "corpus/meta.json": "3ab4d22c80ba982e7b71c438693f9581e438d9f6f2260565b14836fa632097b4",
    "corpus/vocabulary.tsv":
        "f4f43398a09eb65babe572e2cc15dd4129370eb1064e818e19e5defc2e466ed9",
    "dataset.json": "f8e04c9c2cd28ce900a7028372850bb7da8ab32417ce8fbc3a15a949af5ce286",
    "dominance.csv": "89e158b071d08fe94043a6c6c620598faf2c2dc238b603da59524aae13ff9aaf",
    "dominance_thresholds.csv":
        "5d34418636897fa2ad6b8b259281d2d039a7441ebf4ecc5ed4ecdbf24b1c4a49",
    "edges.csv": "38014c449ec14f86bdc53ce3d6dd75b9618689145f41cbc04e6935cc88fe6a7c",
    "graph.dot": "1f79fe0a45efd2dba93f369102dfce4638ac2122a1d015ef61a1b9bca50d32a9",
    "graph.graphml": "8cc91ceb331aa2d1c75740e9d0f4dc6f2fbfb1c0ed895065c898da46519deab4",
    "influencer_subgraph.graphml":
        "262f0197aa21ba92fdc31b87f69f9ea945650fb0bdfc587b8012a890f4b24181",
    "model.json": "7bcc03debf2ba146cf6ce9a8226603b383f2712347f18fc27fbc3afb3c064950",
    "monthly_topics.csv":
        "fa101c751e25ed64d6e5975b8843c2139c06da1a980bf8a6d56b8f1fd802c84e",
    "pca_components.csv":
        "3fbf0aa309fa04707625e76562ba044031b09b089eb2ca4c2b67fee608a6b468",
    "pca_variance.csv": "86ad4482d36bc4a3b31fc5b99d7c5aa35074f447e180800f6ec4df08847f904a",
    "report.json": "2178746a30eb10eb258f69025706e254c6cb90d207e62e39113919a99a88ce12",
    "response_times.csv":
        "1a9b92f976c6cb1ea24efbef84df31d83f731e9599f904a1a2bc8c98f9998e21",
    "score_relations.csv":
        "96e24dee2b70a82e04e0c874d3b798021e924b3412b9b59e8df8cd1c5de86747",
    "skewness_scan.csv": "fc08a0028bf70a16ef3d3f60b1287f0dcc240b2a304f59799ff018dd50606042",
    "spread_influence.csv":
        "9fea1a17921d40280dc1640ef6666197001ad6b39976689018b9f1812a38c182",
    "stats_summary.json":
        "9628b310f0e6d007cd43bab6af43257a5108cb2297869ce8feb2c4be46fd8ee7",
    "top_influencers.csv":
        "3ccd06d11c186a101d5db02e80b73cbd90c1b7a2c88a34539208679754d200cc",
    "topic_presence.csv":
        "ecd788f623a57584ccf07023765a6bc2fb3c693eeecd7972056b226f2b603172",
    "topic_profiles.csv":
        "57ac3ecea581289b683d6d975bafbb6719ed24e46dc1b355a88b0f943c5f9080",
    "top_words.csv": "55a93b30b7f95c2166415b287d69ec67918701afd69b920e6f7bda23a1037ee1",
    "user_classes.json": "00617ea634fcebe6c3b176f416a05beecb1bfc1552038234e0f1e0a73814d81b",
    "user_metrics.csv": "85ef0523ad02c0522b4ac5b49b216ebdde40680fbc5ada3d862008a56eb3b0e2",
}


def artifact_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory`` but manifest.json, by path."""
    return {path.relative_to(directory).as_posix(): sha256_file(path)
            for path in sorted(directory.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def test_fixture_run_writes_the_pinned_bytes(tmp_path):
    run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    digests = artifact_digests(tmp_path)
    assert digests == FIXTURE_DIGESTS
    listing = "".join(f"{digest}  ./{name}\n" for name, digest in sorted(digests.items()))
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == FIXTURE_LISTING


def _run_loads_numpy_ma(out_dir: Path, *overrides: str) -> tuple[str, bool]:
    """The stdout of a fixture run into ``out_dir`` in a child process, and
    whether the run loaded ``numpy.ma``; skips where importing numpy alone
    loads it."""
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; "
                           "print('numpy.ma' in sys.modules)"],
                          capture_output=True, text=True, check=True, env=child_env())
    if bare.stdout.split() == ["True"]:
        pytest.skip("importing numpy loads numpy.ma (numpy 1.x)")
    script = ("import sys; from forumpulse.cli import main; "
              f"code = main(['run', '--config', {str(FIXTURE_DIR / 'config.json')!r}, "
              f"'--out-dir', {str(out_dir)!r}, *{overrides!r}]); "
              "print(code, 'numpy.ma' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env=child_env())
    *lines, last = child.stdout.splitlines()
    assert last.split()[0] == "0"
    return "\n".join(lines), last.split()[1] == "True"


def test_fresh_run_does_not_import_numpy_ma(tmp_path):
    """A fresh run of the fixture pipeline loads no ``numpy.ma``, which the
    hash path of ``np.unique`` on an integer array and ``np.median`` import
    on first use."""
    stdout, loaded = _run_loads_numpy_ma(tmp_path)
    assert "[corpus] done" in stdout and "[topics] done" in stdout
    assert not loaded


def test_topics_rerun_does_not_import_numpy_ma(tmp_path):
    """A rerun of the fixture pipeline from ``topics`` on loads no
    ``numpy.ma`` either."""
    run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    stdout, loaded = _run_loads_numpy_ma(tmp_path, "--set", "lda.k=3")
    assert "[corpus] up to date, skipped" in stdout and "[topics] done" in stdout
    assert not loaded


def gen_dump():
    """``perfbench/gen_dump.py`` as a module, executed from its source so
    that nothing is written beside it."""
    path = FIXTURE_DIR.parents[1] / "perfbench" / "gen_dump.py"
    module = types.ModuleType("gen_dump")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_generated_dump_run_writes_the_pinned_bytes(tmp_path):
    gen_dump().write_dump(tmp_path / "dump", seed=7, n_posts=2000, n_users=200, k_true=6)
    write_json(tmp_path / "dump" / "config.json", {
        "posts": "posts.jsonl", "comments": "comments.jsonl",
        "lda.k": 6, "lda.iterations": 4, "lda.burn_in": 2, "graph.top_k": 10})
    run_pipeline(tmp_path / "dump" / "config.json", out_dir=tmp_path / "out",
                 echo=lambda *_: None)
    assert artifact_digests(tmp_path / "out") == DUMP_2000_DIGESTS


def test_directory_of_format_1_reruns_ingest_and_its_readers(tmp_path):
    """A directory whose ``ingest`` record holds another digest of
    ``ingest.py`` and whose dataset.json holds one object per record, as
    format 1 did, reruns ``ingest`` and every stage that reads the dataset,
    and ends with the pinned bytes."""
    run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    write_json(tmp_path / "dataset.json", as_format_1(read_json(tmp_path / "dataset.json")),
               indent=None)
    format_1 = sha256_file(tmp_path / "dataset.json")
    manifest = read_json(tmp_path / "manifest.json")
    for record in manifest["stages"].values():
        for files in (record["inputs"], record["outputs"]):
            if "dataset.json" in files:
                files["dataset.json"] = format_1
    manifest["stages"]["ingest"]["code"]["ingest.py"] = "0" * 64
    write_json(tmp_path / "manifest.json", manifest)

    rerun = run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    assert [name for name, status in rerun.items() if status == "ran"] \
        == ["ingest", "stats", "corpus", "timeline", "graph", "report"]
    assert artifact_digests(tmp_path) == FIXTURE_DIGESTS


def test_directory_of_model_format_1_reruns_topics_dominance_and_report(tmp_path):
    """A directory whose ``topics`` record holds another digest of
    ``lda.py``, with a format 1 model.json holding per-token labels and no
    top_words.csv, as older code wrote it, reruns ``topics``, ``dominance``
    (to the same bytes) and ``report``, and skips every other stage; the
    next run skips them all."""
    run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    model = read_json(tmp_path / "model.json")
    model.update(format="forumpulse-model-v1", assignments=[[0] for _ in model["doc_ids"]])
    write_json(tmp_path / "model.json", model, indent=None)
    (tmp_path / "top_words.csv").unlink()
    format_1 = sha256_file(tmp_path / "model.json")
    manifest = read_json(tmp_path / "manifest.json")
    for record in manifest["stages"].values():
        for files in (record["inputs"], record["outputs"]):
            files.pop("top_words.csv", None)
            if "model.json" in files:
                files["model.json"] = format_1
    manifest["stages"]["topics"]["code"]["lda.py"] = "0" * 64
    write_json(tmp_path / "manifest.json", manifest)

    rerun = run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    assert [name for name, status in rerun.items() if status == "ran"] \
        == ["topics", "dominance", "report"]
    assert artifact_digests(tmp_path) == FIXTURE_DIGESTS
    assert set(run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path,
                            echo=lambda *_: None).values()) == {"skipped"}


def test_directory_of_older_lexicon_code_reruns_lexicon_and_report(tmp_path, monkeypatch):
    """A directory whose ``lexicon`` record holds another digest of
    ``lexicon.py``, with the PCA components an older PCA wrote (here: each
    an ulp off), reruns ``lexicon`` and ``report`` only, and ends with the
    pinned bytes; the next run skips every stage."""
    def older_pca(rows, n_comp):
        components, variance, projections, negligible = pca(rows, n_comp)
        return np.nextafter(components, 0), variance, projections, negligible

    monkeypatch.setattr(lexicon, "pca", older_pca)
    run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    monkeypatch.undo()
    assert sha256_file(tmp_path / "pca_components.csv") \
        != FIXTURE_DIGESTS["pca_components.csv"]
    manifest = read_json(tmp_path / "manifest.json")
    manifest["stages"]["lexicon"]["code"]["lexicon.py"] = "0" * 64
    write_json(tmp_path / "manifest.json", manifest)

    rerun = run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    assert [name for name, status in rerun.items() if status == "ran"] \
        == ["lexicon", "report"]
    assert artifact_digests(tmp_path) == FIXTURE_DIGESTS
    assert set(run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path,
                            echo=lambda *_: None).values()) == {"skipped"}


@settings(max_examples=3, deadline=None)
@given(stage=st.sampled_from([stage.name for stage in STAGES]))
def test_run_killed_after_a_stage_resumes_to_the_same_bytes(tmp_path_factory, stage):
    """``forumpulse run`` killed with SIGKILL once it reports ``stage`` done:
    a rerun finds that stage and every one before it up to date, and ends
    with the bytes of a clean run."""
    out_dir = tmp_path_factory.mktemp("killed")
    child = subprocess.Popen(
        [sys.executable, "-m", "forumpulse.cli", "run", "--config",
         str(FIXTURE_DIR / "config.json"), "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=child_env(PYTHONUNBUFFERED="1"))
    try:
        for line in child.stdout:
            if line.startswith(f"[{stage}] done:"):
                break
        else:
            raise AssertionError(f"the run ended without reporting {stage} done")
    finally:
        child.kill()
        child.stdout.close()
        child.wait(timeout=60)

    rerun = run_pipeline(FIXTURE_DIR / "config.json", out_dir=out_dir, echo=lambda *_: None)
    names = [s.name for s in STAGES]
    assert all(rerun[name] == "skipped"
               for name in names[:names.index(stage) + 1])
    assert artifact_digests(out_dir) == FIXTURE_DIGESTS
