"""End-to-end batch pipeline with a reproducible run manifest.

A run is described by one flat JSON config (keys scoped by stage prefix,
e.g. ``corpus.min_df``); command-line overrides win over the file. The
stages are the entries of ``STAGES``, executed in table order. Each reads
only its declared inputs (files written by earlier stages, or dump and
lexicon files named by the config) and only its declared params, and
records the digests of its inputs and outputs in ``manifest.json``. A
stage whose code (the package files it names), parameters, input digests
and recorded outputs all match the manifest is skipped, which makes
interrupted or repeated runs cheap and every artifact reproducible from
the manifest plus the original dumps. A run hands each stage the parsed
files it reads that an earlier stage parsed or wrote, and hashes each file
once. Each stage function lives beside the code it drives; each but the
report also has one standalone subcommand, which runs the stage's
``STAGES`` entry and so writes every output of the stage.

All randomness flows from the top-level ``seed``: the topic-model stage
derives its sampler seed as SHA-256(seed, "lda"), and nothing else draws
random numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from . import __version__
from .corpus import (CORPUS_FILES, DEFAULT_MAX_DF_FRACTION, DEFAULT_MIN_DF,
                     DEFAULT_PHRASE_MIN_COUNT, corpus_stage)
from .errors import DataError, StageError, UsageError
from .fileio import StageContext, locked, read_json, reading, write_json
from .ingest import ingest_stage, stats_stage
from .interaction import graph_stage, metrics_stage
from .lda import DEFAULT_BETA, DEFAULT_BURN_IN, DEFAULT_ITERATIONS, derive_seed as stage_seed
from .lexicon import lexicon_stage, load_lexicon
from .topics import (DOMINANCE_FILES, cooccur_stage, dominance_stage, load_assignment,
                     load_selected_w_k, load_top_words, timeline_stage, topics_stage)

_MANIFEST_FORMAT = "forumpulse-manifest-v1"

# Every config key: its default, the type its value must have, and the
# bound the value must meet (an int >= the bound, a finite float > it). A
# key whose default is None may also be null.
CONFIG_SCHEMA: dict[str, tuple[Any, type, Optional[int]]] = {
    "posts": (None, str, None),
    "comments": (None, str, None),
    "from": (None, int, None),
    "to": (None, int, None),
    "out_dir": ("artifacts", str, None),
    "seed": (0, int, None),
    "corpus.min_df": (DEFAULT_MIN_DF, int, 1),
    "corpus.max_df_fraction": (DEFAULT_MAX_DF_FRACTION, float, 0),
    "corpus.phrase_min_count": (DEFAULT_PHRASE_MIN_COUNT, int, 1),
    "lda.k": (None, int, 2),
    "lda.k_min": (2, int, 2),
    "lda.k_max": (10, int, 2),
    "lda.alpha": (None, float, 0),
    "lda.beta": (DEFAULT_BETA, float, 0),
    "lda.iterations": (DEFAULT_ITERATIONS, int, 1),
    "lda.burn_in": (DEFAULT_BURN_IN, int, 0),
    "lda.patience": (None, int, 1),
    "lexicon.path": (None, str, None),
    "lexicon.components": (15, int, 1),
    "graph.top_k": (10, int, 1),
}
CONFIG_DEFAULTS: dict[str, Any] = {
    key: default for key, (default, _, _) in CONFIG_SCHEMA.items()}
# The largest lda.k or lda.k_max, checked before any stage runs. A fit holds
# a D x k count table and a D x k accumulator, 16 * k bytes per document: at
# most 4 KB at 256, beside the 2.5 KB of sampler stream state each document
# holds at any k, so no k allowed makes a fit hold three times what the
# k = 2 fit holds per document. The default scan is 2..10, the shipped
# fixture's 2..6.
MAX_K = 256
# Rules between keys, and maxima: the keys, a test of their values, the rule.
# A rule holds when its first key is null; a later key may be null.
_CONFIG_RULES = (
    (("lda.k",), lambda k: k <= MAX_K, f"lda.k <= {MAX_K}"),
    (("lda.k_max",), lambda k: k <= MAX_K, f"lda.k_max <= {MAX_K}"),
    (("from", "to"), lambda lo, hi: hi is None or lo <= hi, "from <= to"),
    (("lda.burn_in", "lda.iterations"), lambda b, n: b < n, "burn_in < iterations"),
    (("lda.k_min", "lda.k_max"), lambda lo, hi: lo <= hi, "k_min <= k_max"),
    (("corpus.max_df_fraction",), lambda f: f <= 1, "max_df_fraction <= 1"),
    # Theta divides by k * alpha, at the largest k fitted: lda.k, else lda.k_max;
    # alpha is lda.alpha, else the default 50 / k (LdaConfig.effective_alpha).
    (("lda.k_max", "lda.k", "lda.alpha"),
     lambda k_max, k, alpha: math.isfinite(
         (50.0 / (k or k_max) if alpha is None else alpha) * (k or k_max)),
     "alpha * k finite, k being lda.k, else lda.k_max, and alpha lda.alpha, else 50 / k"),
)


def check_config(config: Mapping[str, Any]) -> Mapping[str, Any]:
    """``config`` itself, if each given key's value has its schema type and
    bound and every rule whose first key is given and not null holds; else
    UsageError."""
    for key, value in config.items():
        default, kind, bound = CONFIG_SCHEMA[key]
        if value is None and default is None:
            continue
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise UsageError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        try:
            finite = kind is not float or math.isfinite(value)
        except OverflowError:       # an int too large for a float
            finite = False
        if not finite:
            raise UsageError(f"config key {key!r} must be finite, got {value!r}")
        if bound is not None and not (value >= bound if kind is int else value > bound):
            raise UsageError(f"config key {key!r} must be "
                             f"{'>=' if kind is int else '>'} {bound}, got {value!r}")
    for keys, holds, rule in _CONFIG_RULES:
        values = [config.get(key) for key in keys]
        try:
            held = values[0] is None or holds(*values)
        except OverflowError:       # a test that overflows a float fails
            held = False
        if not held:
            raise UsageError(f"config must satisfy {rule}, got "
                             + ", ".join(f"{k}={v!r}" for k, v in zip(keys, values)))
    return config


def load_config(path: Path, overrides: Optional[Mapping[str, str]] = None
                ) -> dict[str, Any]:
    """Read a flat config file, apply overrides, check types, and make each
    path absolute, against the config file's directory, without following
    symbolic links."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"config file not found or not a file: {path}")
    with reading(path, "config file"):
        raw = read_json(path)
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: config must be a flat JSON object")

    config = dict(CONFIG_DEFAULTS)
    for key, value in raw.items():
        if key not in CONFIG_DEFAULTS:
            raise UsageError(f"{path}: unknown config key {key!r}")
        config[key] = value
    for key, text in (overrides or {}).items():
        if key not in CONFIG_DEFAULTS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            config[key] = json.loads(text)
        except json.JSONDecodeError:
            config[key] = text

    check_config(config)
    if not config["posts"] or not config["comments"]:
        raise UsageError("config must name 'posts' and 'comments' dump files")

    base = path.parent
    for key in ("posts", "comments", "out_dir", "lexicon.path"):
        if config[key] is not None:
            config[key] = os.path.abspath(base / str(config[key]))
    return config


def _params_digest(params: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True).encode("utf-8")).hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _peak_rss_kb() -> int:
    """The peak resident set size of this process so far, in KiB (Linux)."""
    import resource     # here, so that starting the command line does not load it
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_kb(statm: str = "/proc/self/statm") -> dict[str, int]:
    """``rss_kb``, the resident set size of this process now in KiB, read
    from ``statm`` (Linux); nothing where that file cannot be read."""
    try:
        with open(statm, "rb") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return {}
    return {"rss_kb": pages * os.sysconf("SC_PAGE_SIZE") // 1024}


@cache
def _malloc_trim() -> Callable[[int], int]:
    """glibc's ``malloc_trim``, which hands the heap's free pages back to the
    system; a function that does nothing where the C library has none."""
    import ctypes       # numpy has loaded it already
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is None:
        return lambda pad: 0
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return trim


def _read_manifest(path: Path, echo) -> dict[str, Any]:
    """The manifest at ``path``; an empty one if there is none, or if it
    cannot be read or its ``stages`` is not an object of records, which is
    reported through ``echo``."""
    if path.exists():
        try:
            prior = read_json(path)
        except ValueError as exc:      # truncated or not UTF-8 JSON
            echo(f"warning: unreadable {path} ({exc}); every stage reruns")
        else:
            if not isinstance(prior, dict) or prior.get("format") != _MANIFEST_FORMAT:
                raise DataError(f"{path}: unrecognized manifest format")
            stages = prior.get("stages")
            if isinstance(stages, dict) and all(isinstance(r, dict) for r in stages.values()):
                return prior
            echo(f"warning: {path} holds no object of stage records; every stage reruns")
    return {"format": _MANIFEST_FORMAT, "stages": {}}


def _first_change(recorded: Any, digests: Mapping[str, Optional[str]]) -> Optional[str]:
    """The first file whose digest in ``digests`` is not the one ``recorded``
    holds for it (a file only one of them names included), or None when the
    two are equal."""
    if recorded == digests:
        return None
    if not isinstance(recorded, dict):
        recorded = {}
    return next(name for name in {**digests, **recorded}
                if name not in recorded or name not in digests
                or recorded[name] != digests[name])


def _why_stale(prior: Mapping[str, Any], code: Mapping[str, str], params_digest: str,
               inputs: Mapping[str, str],
               outputs: Callable[[], Mapping[str, Optional[str]]]) -> Optional[str]:
    """Why a stage whose last record is ``prior`` runs: ``ran:new``,
    ``ran:code:<file>``, ``ran:params``, ``ran:input:<file>`` or
    ``ran:output:<file>``, the first part of its skip key that changed; None
    when it is up to date. ``outputs`` gives the digests of the stage's
    outputs (None for a missing file), and is called only when the rest of
    the key matches."""
    if not prior:
        return "ran:new"
    changed = _first_change(prior.get("code"), code)
    if changed is not None:
        return f"ran:code:{changed}"
    if prior.get("params_sha256") != params_digest:
        return "ran:params"
    changed = _first_change(prior.get("inputs"), inputs)
    if changed is not None:
        return f"ran:input:{changed}"
    changed = _first_change(prior.get("outputs"), outputs())
    return None if changed is None else f"ran:output:{changed}"


@dataclass(frozen=True)
class Stage:
    name: str
    params: tuple[str, ...]    # config keys: the stage's params and skip key
    inputs: tuple[str, ...]    # artifact names, or config keys naming a file
    outputs: tuple[str, ...]   # artifact names under the run directory
    run: Callable[[StageContext], Any]
    code: tuple[str, ...]      # package files `run` executes: in the skip key
    # Artifacts whose digests the stage records without parsing them: part of
    # the skip key, but never handed to the stage parsed.
    recorded: tuple[str, ...] = ()
    # The run holds no parsed file that this stage does not read while it runs.
    frees_unread: bool = False


@cache
def _code_digest(name: str) -> str:
    """The SHA-256 of the package file ``name``, read once per process."""
    return hashlib.sha256((Path(__file__).parent / name).read_bytes()).hexdigest()


def report_stage(ctx: StageContext) -> None:
    """report.json from the small files and the dominance assignment; the
    digest of every artifact, the unparsed ``model.json`` included."""
    assignment = ctx.load("dominance.csv", load_assignment)
    path = ctx.path("stats_summary.json")
    with reading(path, "stats summary file"):
        summary = read_json(path)
        dataset = {key: summary[key] for key in ("posts", "comments", "authors")}
    path = ctx.path("user_classes.json")
    with reading(path, "user classes file"):
        classes = read_json(path)
    write_json(ctx.path("report.json"), {
        "dataset": dataset,
        "model": {
            "k": assignment.k,
            "w_k": load_selected_w_k(ctx.path("skewness_scan.csv")),
            "documents": len(assignment.doc_ids),
            "top_words": load_top_words(ctx.path("top_words.csv"), assignment.k),
        },
        "topic_presence": list(assignment.topic_presence),
        "user_classes": classes,
        "artifacts": {name: ctx.digest(name) for name in _ARTIFACTS},
    })


# save_corpus writes these into the directory named "corpus".
_CORPUS = tuple(f"corpus/{n}" for n in CORPUS_FILES)

STAGES: tuple[Stage, ...] = (
    Stage("ingest", ("from", "to"), ("posts", "comments"), ("dataset.json",),
          ingest_stage, ("ingest.py", "fileio.py")),
    Stage("stats", (), ("dataset.json",),
          ("activity_table.csv", "score_relations.csv", "response_times.csv",
           "stats_summary.json"), stats_stage, ("ingest.py", "fileio.py")),
    Stage("corpus",
          ("corpus.min_df", "corpus.max_df_fraction", "corpus.phrase_min_count"),
          ("dataset.json",), _CORPUS, corpus_stage,
          ("corpus.py", "data/stopwords.txt", "ingest.py", "fileio.py")),
    Stage("topics",
          ("lda.k", "lda.k_min", "lda.k_max", "lda.alpha", "lda.beta",
           "lda.iterations", "lda.burn_in", "lda.patience", "seed"),
          _CORPUS, ("model.json", "skewness_scan.csv", "top_words.csv"), topics_stage,
          ("topics.py", "lda.py", "gibbs.c", "corpus.py", "fileio.py"),
          # Holding the dataset across the fit would raise the run's peak.
          frees_unread=True),
    Stage("dominance", (), ("model.json",), DOMINANCE_FILES, dominance_stage,
          ("topics.py", "lda.py", "corpus.py", "fileio.py")),
    Stage("cooccur", (), DOMINANCE_FILES, ("cooccurrence.csv",), cooccur_stage,
          ("topics.py", "fileio.py")),
    Stage("timeline", (), DOMINANCE_FILES + ("dataset.json",), ("monthly_topics.csv",),
          timeline_stage, ("topics.py", "ingest.py", "fileio.py")),
    Stage("lexicon", ("lexicon.path", "lexicon.components"),
          _CORPUS + DOMINANCE_FILES + ("lexicon.path",),
          ("category_matrix.csv", "pca_components.csv", "pca_variance.csv",
           "topic_profiles.csv"), lexicon_stage,
          ("lexicon.py", "data/demo_lexicon.json", "corpus.py", "topics.py", "fileio.py")),
    Stage("graph", (), ("dataset.json",) + DOMINANCE_FILES,
          ("edges.csv", "graph.graphml", "graph.dot", "user_classes.json",
           "user_metrics.csv", "spread_influence.csv"),
          graph_stage, ("interaction.py", "ingest.py", "topics.py", "fileio.py")),
    # Ranks from two files of the graph stage alone, so a new graph.top_k reruns
    # only this stage and the report.
    Stage("metrics", ("graph.top_k",), ("user_metrics.csv", "edges.csv"),
          ("top_influencers.csv", "influencer_subgraph.graphml"), metrics_stage,
          ("interaction.py", "fileio.py")),
)
# The report records the digest of every artifact above.
_ARTIFACTS = tuple(name for stage in STAGES for name in stage.outputs)
STAGES += (Stage("report", (),
                 ("top_words.csv", "skewness_scan.csv", "stats_summary.json",
                  "user_classes.json") + DOMINANCE_FILES,
                 ("report.json",), report_stage, ("pipeline.py", "topics.py", "fileio.py"),
                 recorded=_ARTIFACTS),)


def check_input_files(stage: Stage, config: Mapping[str, Any]) -> dict[str, Any]:
    """The parsed lexicon, by its config key, if ``config`` names one among
    ``stage``'s inputs; DataError unless each dump or lexicon file that
    ``config`` names by a config key among them is a regular file, such a
    lexicon parses, and such a dump has a line that is not blank."""
    parsed = {}
    for key in stage.inputs:
        if key in CONFIG_DEFAULTS and config.get(key) is not None:
            path = Path(config[key])
            if not path.is_file():
                raise DataError(f"config key {key!r}: {path} is not a file")
            if key == "lexicon.path":
                parsed[key] = load_lexicon(path)
                continue
            # Read a dump only up to its first block that is not all
            # whitespace to ``str.strip``, ingest's test of a blank line; a
            # byte that is not UTF-8 is ingest's to report.
            with path.open("r", encoding="utf-8", errors="replace") as fh:
                if not any(map(str.strip, iter(lambda: fh.read(1 << 16), ""))):
                    raise DataError(f"config key {key!r}: {path} is empty or blank")
    return parsed


def run_pipeline(config_path: Path,
                 overrides: Optional[Mapping[str, str]] = None,
                 out_dir: Optional[Path] = None,
                 echo=print) -> dict[str, str]:
    """Execute every stage, and echo ``pipeline complete: <dir>``, or ``all
    stages up to date in <dir>`` when none ran; returns each stage's status,
    "ran" or "skipped".

    Raises StageError (wrapping the cause) when a stage fails; artifacts
    written by earlier stages stay intact. A dump or lexicon file the config
    names that is not a regular file, a dump with no line that is not blank,
    or a lexicon that does not parse, fails its stage before any stage runs.
    The run holds the output directory locked, and is a DataError, writing
    nothing, when another run holds it.
    """
    config = load_config(config_path, overrides)
    checked: dict[str, Any] = {}       # the input files parsed by the check
    for stage in STAGES:
        try:
            checked.update(check_input_files(stage, config))
        except DataError as exc:
            raise StageError(stage.name, exc) from exc
    target = Path(out_dir) if out_dir is not None else Path(config["out_dir"])
    nearest = next(p for p in (target, *target.parents) if p.exists())
    if not nearest.is_dir():
        raise DataError(f"output directory {target}: {nearest} is not a directory")
    with locked(target):
        # A run killed inside write_text leaves its temporary file beside the
        # output, .<name>.<anything>.tmp: one listing of each output directory.
        written: dict[Path, list[str]] = {}
        for name in ("manifest.json",) + tuple(n for stage in STAGES for n in stage.outputs):
            path = target / name
            written.setdefault(path.parent, []).append(f".{path.name}.")
        for directory, prefixes in written.items():
            if directory.is_dir():
                with os.scandir(directory) as entries:
                    for entry in entries:
                        if entry.name.endswith(".tmp") and any(
                                entry.name.startswith(p) and len(entry.name) >= len(p) + 4
                                for p in prefixes):
                            os.unlink(entry.path)

        manifest_path = target / "manifest.json"
        manifest = _read_manifest(manifest_path, echo)
        manifest.update(tool_version=__version__, seed=config["seed"], config=dict(config),
                        config_sha256=_params_digest(config))

        status: dict[str, str] = {}
        # The parsed files each stage reads: an input's name up to its first
        # "/", so the corpus files are the one parsed "corpus".
        reads = [{name.split("/")[0] for name in stage.inputs} for stage in STAGES]
        last_read = {name: i for i, names in enumerate(reads) for name in names}
        held: dict[str, Any] = {}          # parsed files, by name
        digests: dict[Path, str] = {}      # hashed files, by path
        for i, stage in enumerate(STAGES):
            # A config key names an input file; a null one names none.
            paths = {key: Path(config[key]) for key in stage.inputs
                     if key in CONFIG_DEFAULTS and config[key] is not None}
            # Hold a parsed file until the last stage that reads it, and hand a
            # stage only the files it reads.
            held = {name: value for name, value in held.items() if last_read[name] >= i
                    and (name in reads[i] or not stage.frees_unread)}
            ctx = StageContext(paths, {key: config[key] for key in stage.params}, target, echo,
                               {name: value for name, value in {**checked, **held}.items()
                                if name in reads[i]}, digests)
            # An input is keyed by its name: a dump or lexicon file by its config
            # key, so the same bytes reached through another path match.
            input_digests = {name: ctx.digest(name) for name in stage.inputs + stage.recorded
                             if name in paths or name not in CONFIG_DEFAULTS}
            # A param that names an input file is in the skip key by its config
            # key too; the file's bytes are in it through its digest.
            digest = _params_digest({key: key if key in paths else value
                                     for key, value in ctx.params.items()})
            code = {name: _code_digest(name) for name in stage.code}
            reason = _why_stale(
                manifest["stages"].get(stage.name, {}), code, digest, input_digests,
                lambda: {name: ctx.digest(name) if ctx.path(name).exists() else None
                         for name in stage.outputs})
            if reason is None:
                status[stage.name] = "skipped"
                echo(f"[{stage.name}] up to date, skipped")
                continue

            # glibc keeps the pages of what earlier stages freed, and a
            # stage's own blocks would land on top of them: return them first.
            _malloc_trim()(0)
            started = _utcnow()
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                stage.run(ctx)
            except Exception as exc:
                raise StageError(stage.name, exc) from exc
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            held.update(ctx.parsed)
            for name in stage.outputs:      # rewritten: hashed again below
                digests.pop(ctx.path(name), None)
            manifest["stages"][stage.name] = {
                "code": code,
                "reason": reason,
                "params": dict(ctx.params),
                "params_sha256": digest,
                "inputs": input_digests,
                "outputs": {name: ctx.digest(name) for name in stage.outputs},
                "started_at": started,
                "finished_at": _utcnow(),
                "wall_s": wall,
                "cpu_s": cpu,
                "peak_rss_kb": _peak_rss_kb(),
                **_rss_kb(),
                **ctx.record,
            }
            write_json(manifest_path, manifest)
            status[stage.name] = "ran"
            echo(f"[{stage.name}] done: {', '.join(sorted(stage.outputs))}")

        echo(f"pipeline complete: {target}" if "ran" in status.values()
             else f"all stages up to date in {target}")
        return status
