"""End-to-end batch pipeline with a reproducible run manifest.

A run is described by one flat JSON config (keys scoped by stage prefix,
e.g. ``corpus.min_df``); command-line overrides win over the file. The
stages are the entries of ``STAGES``, executed in table order. Each reads
only its declared inputs (files written by earlier stages, or dump and
lexicon files named by the config) and only its declared params, and
records the digests of its inputs and outputs in ``manifest.json``. A
stage whose version, parameters, input digests and recorded outputs all
match the manifest is skipped, which makes interrupted or repeated runs
cheap and every artifact reproducible from the manifest plus the original
dumps. A run hands each stage the parsed files it reads that an earlier
stage parsed or wrote, and hashes each file once. Each stage but the report also has one standalone subcommand,
which runs the stage's function through a ``StageContext`` and so writes
every output of the stage.

All randomness flows from the top-level ``seed``: the topic-model stage
derives its sampler seed as SHA-256(seed, "lda"), and nothing else draws
random numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import isnan, log10
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import numpy as np

from . import __version__
from .corpus import (CORPUS_FILES, DEFAULT_MAX_DF_FRACTION, DEFAULT_MIN_DF,
                     DEFAULT_PHRASE_MIN_COUNT, build_corpus, load_corpus, save_corpus)
from .errors import DataError, StageError, UsageError
from .fileio import (float_cells, read_csv, read_json, reading, sha256_file, write_csv,
                     write_json, write_text)
from .ingest import (author_activity_table, load_dataset, parse_dump,
                     response_time_table, save_dataset, score_relations)
from .interaction import (build_graph, compute_user_metrics, dot_text, edges_text,
                          graphml_text, load_graph, top_influencers_subgraph, user_classes)
from .lda import (DEFAULT_BETA, DEFAULT_BURN_IN, DEFAULT_ITERATIONS, LdaConfig,
                  derive_seed as stage_seed, kernel_name, load_model, save_model, top_words)
from .lexicon import categorize, demo_lexicon, load_lexicon, pca, topicwise_profile
from .topics import (DOMINANCE_FILES, cooccurrence, dominant_topics, load_assignment,
                     monthly_distribution, save_assignment, select_k)

_MANIFEST_FORMAT = "forumpulse-manifest-v1"
# The terms per topic in top_words.csv and report.json.
TOP_WORDS = 10

# Every config key: its default, the type its value must have, and the
# bound the value must meet (an int >= the bound, a float > it). A key whose
# default is None may also be null.
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
# Rules between keys, and maxima: the keys, a test of their values, the rule.
_CONFIG_RULES = (
    (("from", "to"), lambda lo, hi: lo <= hi, "from <= to"),
    (("lda.burn_in", "lda.iterations"), lambda b, n: b < n, "burn_in < iterations"),
    (("lda.k_min", "lda.k_max"), lambda lo, hi: lo <= hi, "k_min <= k_max"),
    (("corpus.max_df_fraction",), lambda f: f <= 1, "max_df_fraction <= 1"),
)


def check_config(config: Mapping[str, Any]) -> Mapping[str, Any]:
    """``config`` itself, if each given key's value has its schema type and
    bound and every rule whose keys are all given and not null holds; else
    UsageError."""
    for key, value in config.items():
        default, kind, bound = CONFIG_SCHEMA[key]
        if value is None and default is None:
            continue
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise UsageError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        if bound is not None and not (value >= bound if kind is int else value > bound):
            raise UsageError(f"config key {key!r} must be "
                             f"{'>=' if kind is int else '>'} {bound}, got {value!r}")
    for keys, holds, rule in _CONFIG_RULES:
        values = [config.get(key) for key in keys]
        if None not in values and not holds(*values):
            raise UsageError(f"config must satisfy {rule}, got "
                             + ", ".join(f"{k}={config[k]!r}" for k in keys))
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


def _why_stale(prior: Mapping[str, Any], version: int, params_digest: str,
               inputs: Mapping[str, str],
               outputs: Callable[[], Mapping[str, Optional[str]]]) -> Optional[str]:
    """Why a stage whose last record is ``prior`` runs: ``ran:new``,
    ``ran:version``, ``ran:params``, ``ran:input:<file>`` or
    ``ran:output:<file>``, the first part of its skip key that changed; None
    when it is up to date. ``outputs`` gives the digests of the stage's
    outputs (None for a missing file), and is called only when the rest of
    the key matches."""
    if not prior:
        return "ran:new"
    if prior.get("version", 1) != version:
        return "ran:version"
    if prior.get("params_sha256") != params_digest:
        return "ran:params"
    changed = _first_change(prior.get("inputs"), inputs)
    if changed is not None:
        return f"ran:input:{changed}"
    changed = _first_change(prior.get("outputs"), outputs())
    return None if changed is None else f"ran:output:{changed}"


@dataclass
class StageContext:
    """What a stage function reads: its files by name, and its params by
    config key. A name missing from ``paths`` is a file under ``out_dir``.
    ``parsed`` holds the files already parsed, by name, and takes the
    objects the stage writes; ``digests`` holds the files already hashed,
    by path; ``record`` takes extra fields for the stage's manifest
    record."""

    paths: Mapping[str, Optional[Path]]
    params: Mapping[str, Any] = field(default_factory=dict)
    out_dir: Optional[Path] = None
    echo: Callable[[str], None] = print
    parsed: dict[str, Any] = field(default_factory=dict)
    digests: dict[Path, str] = field(default_factory=dict)
    record: dict[str, Any] = field(default_factory=dict)

    def path(self, name: str) -> Optional[Path]:
        return self.paths[name] if name in self.paths else self.out_dir / name

    def load(self, name: str) -> Any:
        """The parsed ``dataset.json``, ``corpus``, ``model.json``,
        ``dominance.csv`` (with its two siblings), ``edges.csv`` or
        ``lexicon.path``, read from ``path(name)`` at most once."""
        if name not in self.parsed:
            parse = {"dataset.json": load_dataset, "corpus": load_corpus,
                     "model.json": load_model, "dominance.csv": load_assignment,
                     "edges.csv": load_graph, "lexicon.path": load_lexicon}[name]
            self.parsed[name] = parse(self.path(name))
        return self.parsed[name]

    def digest(self, name: str) -> str:
        """The SHA-256 of ``path(name)``, hashed at most once."""
        path = self.path(name)
        if path not in self.digests:
            self.digests[path] = sha256_file(path)
        return self.digests[path]


@dataclass(frozen=True)
class Stage:
    name: str
    params: tuple[str, ...]    # config keys: the stage's params and skip key
    inputs: tuple[str, ...]    # artifact names, or config keys naming a file
    outputs: tuple[str, ...]   # artifact names under the run directory
    run: Callable[[StageContext], Any]
    # Part of the skip key: raised by hand whenever the stage's outputs change
    # in format or meaning for the same inputs. A record without one is 1.
    version: int = 1
    # Artifacts whose digests the stage records without parsing them: part of
    # the skip key, but never handed to the stage parsed.
    recorded: tuple[str, ...] = ()
    # The run holds no parsed file that this stage does not read while it runs.
    frees_unread: bool = False


def ingest_stage(ctx: StageContext):
    with ctx.path("posts").open("r", encoding="utf-8") as ps, \
            ctx.path("comments").open("r", encoding="utf-8") as cs:
        dataset = parse_dump(ps, cs, (ctx.params["from"], ctx.params["to"]))
    save_dataset(dataset, ctx.path("dataset.json"))
    return dataset


def stats_stage(ctx: StageContext) -> dict[str, Any]:
    dataset = ctx.load("dataset.json")
    write_csv(ctx.path("activity_table.csv"),
              ("category", "authors", "authors_pct", "posts", "posts_pct",
               "comments", "comments_pct"), author_activity_table(dataset))
    pairs, relations = score_relations(dataset)
    write_csv(ctx.path("score_relations.csv"),
              ("post_id", "post_score", "max_comment_score"), pairs)
    lapse_rows, anomalies = response_time_table(dataset)
    write_csv(ctx.path("response_times.csv"),
              ("comment_id", "response_time_s", "comment_score"), lapse_rows)
    summary = {
        "posts": len(dataset.posts),
        "comments": len(dataset.comments),
        "authors": len(dataset.authors),
        "dangling_refs": dataset.dangling_refs,
        "parse_errors": dataset.parse_errors,
        "duplicate_ids": dataset.duplicate_ids,
        **relations,
        "response_time_anomalies": anomalies,
    }
    write_json(ctx.path("stats_summary.json"), summary)
    return summary


def corpus_stage(ctx: StageContext):
    p = ctx.params
    corpus = build_corpus(ctx.load("dataset.json"),
                          min_df=p["corpus.min_df"],
                          max_df_fraction=p["corpus.max_df_fraction"],
                          phrase_min_count=p["corpus.phrase_min_count"])
    save_corpus(corpus, ctx.path("corpus"))
    ctx.parsed["corpus"] = corpus
    return corpus


def topics_stage(ctx: StageContext):
    """The W_k-minimal model over [k_min, k_max], and the scan's rows; a
    fixed ``lda.k`` is the scan [k, k]."""
    started = time.perf_counter()
    p = ctx.params
    k_min = p["lda.k"] if p["lda.k"] is not None else p["lda.k_min"]
    k_max = p["lda.k"] if p["lda.k"] is not None else p["lda.k_max"]
    base = LdaConfig(k=k_min, alpha=p["lda.alpha"], beta=p["lda.beta"],
                     iterations=p["lda.iterations"], burn_in=p["lda.burn_in"],
                     seed=stage_seed(p["seed"], "lda"))
    model, scan = select_k(ctx.load("corpus"), k_min, k_max, base,
                           patience=p["lda.patience"],
                           progress=lambda k, w: ctx.echo(f"[topics] k={k} W_k={w}"))
    sweeps = len(scan) * p["lda.iterations"]
    ll = model.log_likelihood_trace
    ctx.record.update(
        kernel=kernel_name(),
        sweeps=sweeps,
        sweeps_per_s=sweeps / (time.perf_counter() - started),
        trace_rel_change=(abs(ll[-1] - ll[-2]) / abs(ll[-2])
                          if len(ll) > 1 and ll[-2] != 0 else None))
    save_model(model, ctx.path("model.json"))
    ctx.parsed["model.json"] = model
    write_csv(ctx.path("skewness_scan.csv"), ("k", "w_k", "selected"),
              ((k, w_k, 1 if k == model.k else 0) for k, w_k in scan))
    write_csv(ctx.path("top_words.csv"), ("topic", "rank", "term"),
              ((t, rank, term) for t in range(model.k)
               for rank, term in enumerate(top_words(model, t, TOP_WORDS), 1)))
    return model


def dominance_stage(ctx: StageContext):
    assignment = dominant_topics(ctx.load("model.json"))
    save_assignment(ctx.path("dominance.csv"), assignment)
    ctx.parsed["dominance.csv"] = assignment
    return assignment


def cooccur_stage(ctx: StageContext) -> None:
    counts = cooccurrence(ctx.load("dominance.csv"))
    i, j = np.triu_indices(len(counts))
    write_csv(ctx.path("cooccurrence.csv"), ("topic_i", "topic_j", "count"),
              zip(i.tolist(), j.tolist(), counts[i, j].tolist()))


def timeline_stage(ctx: StageContext) -> None:
    counts = monthly_distribution(ctx.load("dominance.csv"), ctx.load("dataset.json"))
    write_csv(ctx.path("monthly_topics.csv"), ("topic", "month", "count"),
              ((t, month, n) for (t, month), n in sorted(counts.items())))


def lexicon_stage(ctx: StageContext) -> np.ndarray:
    """The PCA components; the demo lexicon stands in when ``lexicon.path`` is None."""
    # Both inputs are read before the first output is written, so a bad
    # one fails the stage with nothing written.
    corpus, assignment = ctx.load("corpus"), ctx.load("dominance.csv")
    if assignment.doc_ids != corpus.doc_ids:    # the profile pairs rows by position
        raise DataError(f"{ctx.path('dominance.csv')}: its posts are not the corpus's "
                        f"documents in corpus order")
    lexicon = (ctx.load("lexicon.path") if ctx.params["lexicon.path"] is not None
               else demo_lexicon())
    rows = categorize(corpus, lexicon)
    write_csv(ctx.path("category_matrix.csv"), ("post_id", *lexicon),
              zip(corpus.doc_ids, *float_cells(rows).T.tolist()))
    n_comp = min(ctx.params["lexicon.components"], *rows.shape)
    components, variance, projections, negligible = pca(rows, n_comp)
    write_csv(ctx.path("pca_components.csv"), ("component", *lexicon),
              ((i,) + tuple(float(x) for x in row) for i, row in enumerate(components)))
    write_csv(ctx.path("pca_variance.csv"),
              ("component", "explained_variance", "negligible"),
              ((i, float(v), 1 if i in negligible else 0) for i, v in enumerate(variance)))
    profiles = topicwise_profile(projections, assignment)
    write_csv(ctx.path("topic_profiles.csv"),
              ("topic",) + tuple(f"component_{i}" for i in range(n_comp)),
              ((t,) + tuple("" if np.isnan(x) else float(x) for x in row)
               for t, row in enumerate(profiles)))
    return components


def graph_stage(ctx: StageContext):
    graph = build_graph(ctx.load("dataset.json"))
    for name, text in (("edges.csv", edges_text), ("graph.graphml", graphml_text),
                       ("graph.dot", dot_text)):
        write_text(ctx.path(name), text(graph))
    ctx.parsed["edges.csv"] = graph
    classes = user_classes(graph)
    write_json(ctx.path("user_classes.json"), classes)
    return graph, classes


def metrics_stage(ctx: StageContext):
    """Every commenter's metrics and the top influencers' egonet subgraph;
    tau is blank when the ``dominance.csv`` path is None."""
    dataset, graph = ctx.load("dataset.json"), ctx.load("edges.csv")
    assignment = ctx.load("dominance.csv") if ctx.path("dominance.csv") is not None else None
    metrics = compute_user_metrics(dataset, graph, assignment)
    tau, reach, alpha, influence = float_cells(
        np.stack((metrics.tau, metrics.reach, metrics.alpha, metrics.influence)),
        lambda x: "" if isnan(x) else repr(x)).tolist()
    counts, scores = metrics.comment_count.tolist(), metrics.aggregate_comment_score
    write_csv(ctx.path("user_metrics.csv"),
              ("user", "C", "out_degree", "in_degree", "tau", "R",
               "alpha", "I", "agg_score"),
              zip(metrics.users, counts, metrics.out_degree.tolist(),
                  metrics.in_degree.tolist(), tau, reach, alpha, influence, scores))
    write_csv(ctx.path("spread_influence.csv"),
              ("user", "tau", "influence", "log10_comments", "log10_agg_score"),
              zip(metrics.users, tau, influence, map(log10, counts),
                  [log10(s) if s > 0 else None for s in scores]))
    subgraph, ranked = top_influencers_subgraph(graph, metrics, ctx.params["graph.top_k"])
    ranked = ranked.tolist()
    write_csv(ctx.path("top_influencers.csv"), ("rank", "user", "influence", "C"),
              zip(range(1, len(ranked) + 1), map(metrics.users.__getitem__, ranked),
                  map(influence.__getitem__, ranked), map(counts.__getitem__, ranked)))
    write_text(ctx.path("influencer_subgraph.graphml"), graphml_text(subgraph))
    return metrics, subgraph, ranked


def _top_words_table(path: Path, k: int) -> dict[str, list[str]]:
    """Each of the ``k`` topics' terms in ``top_words.csv``, by rank; DataError
    unless each topic has one term per rank 1 to n, n <= ``TOP_WORDS``."""
    with reading(path, "top words file"):
        rows = list(read_csv(path, 3))
        n = len(rows) // max(k, 1)
        if [(t, r) for t, r, _ in rows] != [(str(t), str(r)) for t in range(k)
                                            for r in range(1, n + 1)] \
                or not 1 <= n <= TOP_WORDS or not all(term for _, _, term in rows):
            raise ValueError(f"not 1 to {TOP_WORDS} ranked terms for each of {k} topics")
    return {str(t): [term for _, _, term in rows[t * n:(t + 1) * n]] for t in range(k)}


def report_stage(ctx: StageContext) -> None:
    """report.json from the small files and the dominance assignment; the
    digest of every artifact, the unparsed ``model.json`` included."""
    assignment = ctx.load("dominance.csv")
    w_k = next(int(w_k) for _, w_k, selected in read_csv(ctx.path("skewness_scan.csv"), 3)
               if selected == "1")
    summary = read_json(ctx.path("stats_summary.json"))
    classes = read_json(ctx.path("user_classes.json"))
    write_json(ctx.path("report.json"), {
        "dataset": {key: summary[key] for key in ("posts", "comments", "authors")},
        "model": {
            "k": assignment.k,
            "w_k": w_k,
            "documents": len(assignment.doc_ids),
            "top_words": _top_words_table(ctx.path("top_words.csv"), assignment.k),
        },
        "topic_presence": list(assignment.topic_presence),
        "user_classes": classes,
        "artifacts": {name: ctx.digest(name) for name in _ARTIFACTS},
    })


# save_corpus writes these into the directory named "corpus".
_CORPUS = tuple(f"corpus/{n}" for n in CORPUS_FILES)

STAGES: tuple[Stage, ...] = (
    # ingest 2: dataset.json holds columns; 3: a created_utc after 9999 is a
    # parse error; 4: so is an author that is not a non-empty str.
    Stage("ingest", ("from", "to"), ("posts", "comments"), ("dataset.json",),
          ingest_stage, version=4),
    Stage("stats", (), ("dataset.json",),
          ("activity_table.csv", "score_relations.csv", "response_times.csv",
           "stats_summary.json"), stats_stage),
    Stage("corpus",
          ("corpus.min_df", "corpus.max_df_fraction", "corpus.phrase_min_count"),
          ("dataset.json",), _CORPUS, corpus_stage),
    Stage("topics",
          ("lda.k", "lda.k_min", "lda.k_max", "lda.alpha", "lda.beta",
           "lda.iterations", "lda.burn_in", "lda.patience", "seed"),
          _CORPUS, ("model.json", "skewness_scan.csv", "top_words.csv"), topics_stage,
          version=3,    # 2: the trace in one fixed order; 3: model v2, top_words.csv
          # Holding the dataset across the fit would raise the run's peak.
          frees_unread=True),
    Stage("dominance", (), ("model.json",), DOMINANCE_FILES, dominance_stage),
    Stage("cooccur", (), DOMINANCE_FILES, ("cooccurrence.csv",), cooccur_stage),
    Stage("timeline", (), DOMINANCE_FILES + ("dataset.json",), ("monthly_topics.csv",),
          timeline_stage),
    Stage("lexicon", ("lexicon.path", "lexicon.components"),
          _CORPUS + DOMINANCE_FILES + ("lexicon.path",),
          ("category_matrix.csv", "pca_components.csv", "pca_variance.csv",
           "topic_profiles.csv"), lexicon_stage,
          version=2),   # 2: the PCA by one eigh, not power iteration
    Stage("graph", (), ("dataset.json",),
          ("edges.csv", "graph.graphml", "graph.dot", "user_classes.json"),
          graph_stage),
    Stage("metrics", ("graph.top_k",), ("dataset.json", "edges.csv") + DOMINANCE_FILES,
          ("user_metrics.csv", "spread_influence.csv", "top_influencers.csv",
           "influencer_subgraph.graphml"), metrics_stage),
)
# The report records the digest of every artifact above.
_ARTIFACTS = tuple(name for stage in STAGES for name in stage.outputs)
STAGES += (Stage("report", (),
                 ("top_words.csv", "skewness_scan.csv", "stats_summary.json",
                  "user_classes.json") + DOMINANCE_FILES,
                 ("report.json",), report_stage, recorded=_ARTIFACTS),)


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
    """
    config = load_config(config_path, overrides)
    checked: dict[str, Any] = {}       # the input files parsed by the check
    for stage in STAGES:
        try:
            checked.update(check_input_files(stage, config))
        except DataError as exc:
            raise StageError(stage.name, exc) from exc
    target = Path(out_dir) if out_dir is not None else Path(config["out_dir"])
    # The first file a stage writes makes the directory.
    nearest = next(p for p in (target, *target.parents) if p.exists())
    if not nearest.is_dir():
        raise DataError(f"output directory {target}: {nearest} is not a directory")
    # A run killed inside write_text leaves its temporary file beside the output.
    for name in ("manifest.json",) + tuple(n for stage in STAGES for n in stage.outputs):
        for stale in (target / name).parent.glob(f".{Path(name).name}.*.tmp"):
            stale.unlink()

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
        reason = _why_stale(
            manifest["stages"].get(stage.name, {}), stage.version, digest, input_digests,
            lambda: {name: ctx.digest(name) if ctx.path(name).exists() else None
                     for name in stage.outputs})
        if reason is None:
            status[stage.name] = "skipped"
            echo(f"[{stage.name}] up to date, skipped")
            continue

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
            "version": stage.version,
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
            **ctx.record,
        }
        write_json(manifest_path, manifest)
        status[stage.name] = "ran"
        echo(f"[{stage.name}] done: {', '.join(sorted(stage.outputs))}")

    echo(f"pipeline complete: {target}" if "ran" in status.values()
         else f"all stages up to date in {target}")
    return status
