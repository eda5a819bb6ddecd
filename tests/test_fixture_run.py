"""The shipped fixture's artifacts, pinned to the byte, and a run killed
after a random stage that a rerun completes to the same bytes."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from forumpulse.fileio import read_json, sha256_file, write_json
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
    "model.json": "325e5467dccf173b178fdc205a526d7ce9ef754f24db4613e31b766f6ac3061f",
    "monthly_topics.csv": "1e7599c461d885df0559071a4e0c12b868bbbe5a792bc49b8bba2d7c28053126",
    "pca_components.csv": "5601f66473bd5ee86e96d65b9338c85f7e5ccda82b4efa7b89245da036adea99",
    "pca_variance.csv": "4cfd062dec0cf2003cbc3497fefc2d48c8930d10edc24442464d5b39747c7dba",
    "report.json": "4a86ff1dc0bfbebc4dfd3863d5c0a878528a1bd276325bd3ec74b0c74321ee17",
    "response_times.csv": "4f5de0887aecf754a618e82f5900e6702a84eb88edd8e81b5b0a16ccf3e5977c",
    "score_relations.csv": "86fad629568bc2ee87ca67718d57bfdf0ab15172da499081ab2c2acb5bb436b4",
    "skewness_scan.csv": "d3dfd622e49c7252462724473953c8d76d1e8abc3bf959bb03515ddf7ae53b17",
    "spread_influence.csv": "83f07c96adce9b90f1c663f0353d7806f9a90bc674790cb90814ba9e259c06bf",
    "stats_summary.json": "28d6bf99d062132183b8f874dbaae1282149f2cd28898cf36b0cd7c99fc0efbe",
    "top_influencers.csv": "79f19c4cf5af4cb8ecd49788e2e67e95faabbe99b5ba90b24760e0362e4c0576",
    "topic_presence.csv": "ab9ac23e8e3d7a9e825919b14c72208fb0ef472a89ce170cd138e82c5ddb3bba",
    "topic_profiles.csv": "a782a2f36ad416c069a065fb17c254f9c7501713a71ed01b8cedbdce66ee9821",
    "user_classes.json": "ddf3a5d11e6b3b8ae9b5874b837dc98787bc184a7ef2481030f3e9237db0e79c",
    "user_metrics.csv": "5ec783bf5a965bbc8b790c8f1eb62f211850a0452d73fd50fd9cd7033e8e8495",
}
# The listing: sha256 of the `sha256sum` lines of those files, by path.
FIXTURE_LISTING = "d91db0dbcde2ad921f3e1bedd90a6a8a504ac5882ef0a32f47e4b1c53aa41677"


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


def test_directory_of_format_1_reruns_ingest_and_its_readers(tmp_path):
    """A directory whose ``ingest`` record is at version 1 and whose
    dataset.json holds one object per record, as format 1 did, reruns
    ``ingest`` and every stage that reads the dataset, and ends with the
    pinned bytes."""
    run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    write_json(tmp_path / "dataset.json", as_format_1(read_json(tmp_path / "dataset.json")),
               indent=None)
    format_1 = sha256_file(tmp_path / "dataset.json")
    manifest = read_json(tmp_path / "manifest.json")
    for record in manifest["stages"].values():
        for files in (record["inputs"], record["outputs"]):
            if "dataset.json" in files:
                files["dataset.json"] = format_1
    manifest["stages"]["ingest"]["version"] = 1
    write_json(tmp_path / "manifest.json", manifest)

    rerun = run_pipeline(FIXTURE_DIR / "config.json", out_dir=tmp_path, echo=lambda *_: None)
    assert [name for name, status in rerun.stage_status.items() if status == "ran"] \
        == ["ingest", "stats", "corpus", "timeline", "graph", "metrics", "report"]
    assert artifact_digests(tmp_path) == FIXTURE_DIGESTS


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
    assert all(rerun.stage_status[name] == "skipped"
               for name in names[:names.index(stage) + 1])
    assert artifact_digests(out_dir) == FIXTURE_DIGESTS
