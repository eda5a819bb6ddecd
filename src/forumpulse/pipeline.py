"""End-to-end batch pipeline with a reproducible run manifest.

A run is described by one flat JSON config (keys scoped by stage prefix,
e.g. ``corpus.min_df``); command-line overrides win over the file. The
stages are the entries of ``STAGES``, executed in table order. Each reads
only its declared inputs (files written by earlier stages, or dump and
lexicon files named by the config) and only its declared params, and
records the digests of its inputs and outputs in ``manifest.json``. A
stage whose parameters, input digests and recorded outputs all match the
manifest is skipped, which makes interrupted or repeated runs cheap and
every artifact reproducible from the manifest plus the original dumps.
The standalone subcommands call the same stage functions and writers.

All randomness flows from the top-level ``seed``: the topic-model stage
derives its sampler seed as SHA-256(seed, "lda"), and nothing else draws
random numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .corpus import build_corpus, load_corpus, save_corpus
from .errors import DataError, StageError, UsageError
from .fileio import read_json, sha256_file, write_csv, write_json, write_text
from .ingest import (author_activity_table, load_dataset, parse_dump,
                     response_time_table, save_dataset, score_relations)
from .interaction import (build_graph, compute_user_metrics,
                          contribution_and_influence, dot_text, graphml_text,
                          spread_influence_rows, top_influencers_subgraph,
                          user_classes)
from .lda import LdaConfig, fit, load_model, save_model, top_words
from .lexicon import categorize, demo_lexicon, load_lexicon, pca, topicwise_profile
from .topics import (cooccurrence, count_nonpositive, dominant_topics,
                     monthly_distribution, select_k)

_MANIFEST_FORMAT = "forumpulse-manifest-v1"

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
    "threads": (None, int, 1),
    "corpus.min_df": (5, int, 1),
    "corpus.max_df_fraction": (0.5, float, 0),
    "corpus.phrase_min_count": (20, int, 1),
    "lda.k": (None, int, 2),
    "lda.k_min": (2, int, 2),
    "lda.k_max": (10, int, 2),
    "lda.alpha": (None, float, 0),
    "lda.beta": (0.01, float, 0),
    "lda.iterations": (1000, int, 1),
    "lda.burn_in": (500, int, 0),
    "lda.patience": (None, int, 1),
    "lexicon.path": (None, str, None),
    "lexicon.components": (15, int, 1),
    "graph.top_k": (10, int, 1),
}
CONFIG_DEFAULTS: dict[str, Any] = {
    key: default for key, (default, _, _) in CONFIG_SCHEMA.items()}


def resolve_threads(flag: Optional[int] = None,
                    config_value: Optional[int] = None) -> int:
    """Worker cap: CLI flag beats the config file beats FORUM_PULSE_THREADS."""
    for value in (flag, config_value, os.environ.get("FORUM_PULSE_THREADS")):
        if value is not None:
            n = int(value)
            if n < 1:
                raise UsageError("thread count must be >= 1")
            return n
    return 1


def stage_seed(seed: int, stage: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _check_types(config: Mapping[str, Any]) -> None:
    for key, (default, kind, bound) in CONFIG_SCHEMA.items():
        value = config[key]
        if value is None and default is None:
            continue
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise UsageError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        if bound is not None and not (value >= bound if kind is int else value > bound):
            raise UsageError(f"config key {key!r} must be "
                             f"{'>=' if kind is int else '>'} {bound}, got {value!r}")


def load_config(path: Path, overrides: Optional[Mapping[str, str]] = None
                ) -> dict[str, Any]:
    """Read a flat config file, apply overrides, check types, resolve paths."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
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

    _check_types(config)
    if not config["posts"] or not config["comments"]:
        raise UsageError("config must name 'posts' and 'comments' dump files")

    base = path.parent
    for key in ("posts", "comments", "out_dir", "lexicon.path"):
        if config[key] is not None:
            config[key] = str((base / str(config[key])).resolve())
    return config


def _params_digest(params: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True).encode("utf-8")).hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunResult:
    out_dir: Path
    stage_status: dict[str, str]   # stage -> "ran" | "skipped"

    @property
    def all_skipped(self) -> bool:
        return all(s == "skipped" for s in self.stage_status.values())


class _Runner:
    def __init__(self, out_dir: Path, config: Mapping[str, Any], echo):
        self.out_dir = out_dir
        self.echo = echo
        self.manifest_path = out_dir / "manifest.json"
        self.manifest = {"format": _MANIFEST_FORMAT, "stages": {}}
        if self.manifest_path.exists():
            try:
                prior = read_json(self.manifest_path)
            except ValueError as exc:      # truncated or not UTF-8 JSON
                echo(f"warning: unreadable {self.manifest_path} ({exc}); "
                     f"every stage reruns")
            else:
                if not isinstance(prior, dict) or prior.get("format") != _MANIFEST_FORMAT:
                    raise DataError(f"{self.manifest_path}: unrecognized manifest format")
                self.manifest = prior
        self.manifest["tool_version"] = __version__
        self.manifest["seed"] = config["seed"]
        self.manifest["config"] = dict(config)
        self.manifest["config_sha256"] = _params_digest(config)
        self.status: dict[str, str] = {}

    def _rel(self, path: Path) -> str:
        path = Path(path)
        try:
            return str(path.relative_to(self.out_dir))
        except ValueError:
            return str(path)

    def run(self, name: str, params: Mapping[str, Any],
            inputs: Sequence[Path], outputs: Sequence[Path],
            action: Callable[[], None]) -> None:
        for p in inputs:
            if not Path(p).exists():
                raise StageError(name, DataError(f"missing input file: {p}"))
        digest = _params_digest(params)
        input_digests = {self._rel(p): sha256_file(p) for p in inputs}

        prior = self.manifest["stages"].get(name)
        if (prior and prior.get("params_sha256") == digest
                and prior.get("inputs") == input_digests
                and all(Path(self.out_dir / rel).exists()
                        and sha256_file(self.out_dir / rel) == want
                        for rel, want in prior.get("outputs", {}).items())
                and set(prior.get("outputs", {})) == {self._rel(p) for p in outputs}):
            self.status[name] = "skipped"
            self.echo(f"[{name}] up to date, skipped")
            return

        started = _utcnow()
        try:
            action()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

        record = {
            "params": dict(params),
            "params_sha256": digest,
            "inputs": input_digests,
            "outputs": {self._rel(p): sha256_file(p) for p in outputs},
            "started_at": started,
            "finished_at": _utcnow(),
        }
        self.manifest["stages"][name] = record
        write_json(self.manifest_path, self.manifest)
        self.status[name] = "ran"
        self.echo(f"[{name}] done: {', '.join(sorted(record['outputs']))}")


@dataclass
class StageContext:
    """What a stage function reads: its files by name, and its params by
    config key. A name missing from ``paths`` is a file under ``out_dir``."""

    paths: Mapping[str, Optional[Path]]
    params: Mapping[str, Any] = field(default_factory=dict)
    out_dir: Optional[Path] = None
    workers: int = 1
    echo: Callable[[str], None] = print

    def path(self, name: str) -> Optional[Path]:
        return self.paths[name] if name in self.paths else self.out_dir / name


@dataclass(frozen=True)
class Stage:
    name: str
    params: tuple[str, ...]    # config keys: the stage's params and skip key
    inputs: tuple[str, ...]    # artifact names, or config keys naming a file
    outputs: tuple[str, ...]   # artifact names under the run directory
    run: Callable[[StageContext], Any]


def fit_topics(corpus, params: Mapping[str, Any], seed: int, workers: int = 1,
               progress=None) -> tuple[Any, list[tuple[int, int, int]]]:
    """One model at ``lda.k``, or the W_k-minimal one over [k_min, k_max].

    Returns the model and the scan rows (k, W_k, selected)."""
    fixed_k = params["lda.k"]
    base = LdaConfig(
        k=fixed_k if fixed_k is not None else max(params["lda.k_min"], 2),
        alpha=params["lda.alpha"],
        beta=params["lda.beta"],
        iterations=params["lda.iterations"],
        burn_in=params["lda.burn_in"],
        seed=seed,
    )
    if fixed_k is not None:
        model = fit(corpus, base)
        return model, [(base.k, count_nonpositive(model).w_k, 1)]
    result = select_k(corpus, params["lda.k_min"], params["lda.k_max"], base,
                      patience=params["lda.patience"], workers=workers,
                      progress=progress)
    return result.model, [(r.k, r.w_k, 1 if r.k == result.k else 0)
                          for r in result.reports]


def write_scan(path: Path, rows) -> None:
    write_csv(path, ("k", "w_k", "selected"), rows)


def write_graph(path: Path, fmt: str, nodes, edges) -> None:
    """A reply graph as an edge-list CSV, GraphML or DOT file."""
    if fmt == "csv":
        write_csv(path, ("from", "to", "weight"), edges)
    else:
        write_text(path, (graphml_text if fmt == "graphml" else dot_text)(nodes, edges))


def user_metrics(ctx: StageContext):
    """The reply graph and every commenter's metrics; tau is blank when the
    ``model.json`` path is None."""
    dataset = load_dataset(ctx.path("dataset.json"))
    model_file = ctx.path("model.json")
    model = load_model(model_file) if model_file is not None else None
    graph = build_graph(dataset)
    assignment = dominant_topics(model) if model is not None else None
    return graph, contribution_and_influence(
        compute_user_metrics(dataset, graph, assignment))


def write_user_metrics(ctx: StageContext, metrics) -> None:
    write_csv(ctx.path("user_metrics.csv"),
              ("user", "C", "out_degree", "in_degree", "tau", "R",
               "alpha", "I", "agg_score"),
              ((m.user, m.comment_count, m.out_degree, m.in_degree, m.tau,
                m.reach, m.alpha, m.influence, m.aggregate_comment_score)
               for m in metrics))
    write_csv(ctx.path("spread_influence.csv"),
              ("user", "tau", "influence", "log10_comments", "log10_agg_score"),
              spread_influence_rows(metrics))


def write_top_influencers(ctx: StageContext, graph, metrics):
    subgraph = top_influencers_subgraph(graph, metrics, ctx.params["graph.top_k"])
    by_user = {m.user: m for m in metrics}
    write_csv(ctx.path("top_influencers.csv"), ("rank", "user", "influence", "C"),
              ((i + 1, u, by_user[u].influence, by_user[u].comment_count)
               for i, u in enumerate(subgraph.selected)))
    write_graph(ctx.path("influencer_subgraph.graphml"), "graphml",
                subgraph.nodes, subgraph.edges)
    return subgraph


def ingest_stage(ctx: StageContext):
    with ctx.path("posts").open("r", encoding="utf-8") as ps, \
            ctx.path("comments").open("r", encoding="utf-8") as cs:
        dataset = parse_dump(ps, cs, (ctx.params["from"], ctx.params["to"]))
    save_dataset(dataset, ctx.path("dataset.json"))
    return dataset


def stats_stage(ctx: StageContext) -> dict[str, Any]:
    dataset = load_dataset(ctx.path("dataset.json"))
    write_csv(ctx.path("activity_table.csv"),
              ("category", "authors", "authors_pct", "posts", "posts_pct",
               "comments", "comments_pct"),
              ((r.category.value, r.authors, r.authors_pct, r.posts,
                r.posts_pct, r.comments, r.comments_pct)
               for r in author_activity_table(dataset)))
    relations = score_relations(dataset)
    write_csv(ctx.path("score_relations.csv"),
              ("post_id", "post_score", "max_comment_score"), relations.pairs)
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
        "posts_without_comments": relations.no_comment_posts,
        "post_score_one_fraction": relations.post_score_one_fraction,
        "comment_score_one_fraction": relations.comment_score_one_fraction,
        "response_time_anomalies": anomalies,
    }
    write_json(ctx.path("stats_summary.json"), summary)
    return summary


def corpus_stage(ctx: StageContext):
    p = ctx.params
    corpus = build_corpus(load_dataset(ctx.path("dataset.json")),
                          min_df=p["corpus.min_df"],
                          max_df_fraction=p["corpus.max_df_fraction"],
                          phrase_min_count=p["corpus.phrase_min_count"])
    save_corpus(corpus, ctx.path("corpus"))
    return corpus


def topics_stage(ctx: StageContext) -> None:
    model, scan = fit_topics(
        load_corpus(ctx.path("corpus")), ctx.params,
        stage_seed(ctx.params["seed"], "lda"), ctx.workers,
        progress=lambda k, w: ctx.echo(f"[topics] k={k} W_k={w}"))
    save_model(model, ctx.path("model.json"))
    write_scan(ctx.path("skewness_scan.csv"), scan)


def dominance_stage(ctx: StageContext):
    assignment = dominant_topics(load_model(ctx.path("model.json")))
    write_csv(ctx.path("dominance.csv"), ("post_id", "dominant_topics"),
              ((doc_id, "|".join(str(t) for t in sorted(topics)))
               for doc_id, topics in zip(assignment.doc_ids, assignment.dominant)))
    write_csv(ctx.path("dominance_thresholds.csv"), ("topic", "mu", "sigma"),
              ((t, mu, sigma) for t, (mu, sigma) in enumerate(assignment.thresholds)))
    write_csv(ctx.path("topic_presence.csv"), ("topic", "presence_fraction"),
              enumerate(assignment.topic_presence))
    return assignment


def cooccur_stage(ctx: StageContext) -> None:
    matrix = cooccurrence(dominant_topics(load_model(ctx.path("model.json"))))
    write_csv(ctx.path("cooccurrence.csv"), ("topic_i", "topic_j", "count"),
              ((i, j, int(matrix.counts[i, j]))
               for i in range(matrix.k) for j in range(i, matrix.k)))


def timeline_stage(ctx: StageContext) -> None:
    model = load_model(ctx.path("model.json"))
    dataset = load_dataset(ctx.path("dataset.json"))
    counts = monthly_distribution(dominant_topics(model), dataset)
    write_csv(ctx.path("monthly_topics.csv"), ("topic", "month", "count"),
              ((t, month, n) for (t, month), n in sorted(counts.items())))


def lexicon_stage(ctx: StageContext):
    corpus = load_corpus(ctx.path("corpus"))
    model = load_model(ctx.path("model.json"))
    lexicon_path = ctx.params["lexicon.path"]
    lex = load_lexicon(Path(lexicon_path)) if lexicon_path is not None else demo_lexicon()
    docs = [corpus.document_tokens(i) for i in range(len(corpus))]
    matrix = categorize(docs, lex, doc_ids=corpus.doc_ids)
    write_csv(ctx.path("category_matrix.csv"), ("post_id",) + matrix.categories,
              ((doc_id,) + tuple(float(x) for x in row)
               for doc_id, row in zip(matrix.doc_ids, matrix.rows)))
    n_comp = min(ctx.params["lexicon.components"],
                 len(matrix.doc_ids), len(matrix.categories))
    result = pca(matrix, n_comp)
    write_csv(ctx.path("pca_components.csv"), ("component",) + matrix.categories,
              ((i,) + tuple(float(x) for x in row)
               for i, row in enumerate(result.components)))
    write_csv(ctx.path("pca_variance.csv"),
              ("component", "explained_variance", "negligible"),
              ((i, float(v), 1 if i in result.negligible else 0)
               for i, v in enumerate(result.explained_variance)))
    profiles = topicwise_profile(result, dominant_topics(model))
    write_csv(ctx.path("topic_profiles.csv"),
              ("topic",) + tuple(f"component_{i}" for i in range(n_comp)),
              ((t,) + tuple("" if np.isnan(x) else float(x) for x in row)
               for t, row in enumerate(profiles.profiles)))
    return result


def graph_stage(ctx: StageContext) -> None:
    graph = build_graph(load_dataset(ctx.path("dataset.json")))
    for name, fmt in (("edges.csv", "csv"), ("graph.graphml", "graphml"),
                      ("graph.dot", "dot")):
        write_graph(ctx.path(name), fmt, graph.nodes, graph.edges)
    classes = user_classes(graph)
    write_json(ctx.path("user_classes.json"), {
        "nodes": classes.nodes,
        "passive": classes.passive,
        "passive_pct": classes.passive_pct,
        "unanswered": classes.unanswered,
        "unanswered_pct": classes.unanswered_pct,
    })


def metrics_stage(ctx: StageContext) -> None:
    graph, metrics = user_metrics(ctx)
    write_user_metrics(ctx, metrics)
    write_top_influencers(ctx, graph, metrics)


def report_stage(ctx: StageContext) -> None:
    dataset = load_dataset(ctx.path("dataset.json"))
    model = load_model(ctx.path("model.json"))
    assignment = dominant_topics(model)
    report = count_nonpositive(model)
    classes = read_json(ctx.path("user_classes.json"))
    write_json(ctx.path("report.json"), {
        "dataset": {
            "posts": len(dataset.posts),
            "comments": len(dataset.comments),
            "authors": len(dataset.authors),
        },
        "model": {
            "k": model.k,
            "w_k": report.w_k,
            "documents": model.n_documents,
            "top_words": {str(t): top_words(model, t, 10) for t in range(model.k)},
        },
        "topic_presence": list(assignment.topic_presence),
        "user_classes": classes,
        "artifacts": {name: sha256_file(ctx.path(name)) for name in _ARTIFACTS},
    })


# save_corpus writes these into the directory named "corpus".
_CORPUS = tuple(f"corpus/{n}" for n in
                ("vocabulary.tsv", "documents.csv", "docs.csv", "meta.json"))

STAGES: tuple[Stage, ...] = (
    Stage("ingest", ("from", "to"), ("posts", "comments"), ("dataset.json",),
          ingest_stage),
    Stage("stats", (), ("dataset.json",),
          ("activity_table.csv", "score_relations.csv", "response_times.csv",
           "stats_summary.json"), stats_stage),
    Stage("corpus",
          ("corpus.min_df", "corpus.max_df_fraction", "corpus.phrase_min_count"),
          ("dataset.json",), _CORPUS, corpus_stage),
    Stage("topics",
          ("lda.k", "lda.k_min", "lda.k_max", "lda.alpha", "lda.beta",
           "lda.iterations", "lda.burn_in", "lda.patience", "seed"),
          _CORPUS, ("model.json", "skewness_scan.csv"), topics_stage),
    Stage("dominance", (), ("model.json",),
          ("dominance.csv", "dominance_thresholds.csv", "topic_presence.csv"),
          dominance_stage),
    Stage("cooccur", (), ("model.json",), ("cooccurrence.csv",), cooccur_stage),
    Stage("timeline", (), ("model.json", "dataset.json"), ("monthly_topics.csv",),
          timeline_stage),
    Stage("lexicon", ("lexicon.path", "lexicon.components"),
          _CORPUS + ("model.json", "lexicon.path"),
          ("category_matrix.csv", "pca_components.csv", "pca_variance.csv",
           "topic_profiles.csv"), lexicon_stage),
    Stage("graph", (), ("dataset.json",),
          ("edges.csv", "graph.graphml", "graph.dot", "user_classes.json"),
          graph_stage),
    Stage("metrics", ("graph.top_k",), ("dataset.json", "model.json"),
          ("user_metrics.csv", "spread_influence.csv", "top_influencers.csv",
           "influencer_subgraph.graphml"), metrics_stage),
)
# The report consumes, and records the digest of, every artifact above.
_ARTIFACTS = tuple(name for stage in STAGES for name in stage.outputs)
STAGES += (Stage("report", (), _ARTIFACTS, ("report.json",), report_stage),)


def run_pipeline(config_path: Path,
                 overrides: Optional[Mapping[str, str]] = None,
                 out_dir: Optional[Path] = None,
                 threads: Optional[int] = None,
                 echo=print) -> RunResult:
    """Execute every stage; returns the artifacts directory and statuses.

    Raises StageError (wrapping the cause) when a stage fails; artifacts
    written by earlier stages stay intact.
    """
    config = load_config(config_path, overrides)
    target = Path(out_dir) if out_dir is not None else Path(config["out_dir"])
    target.mkdir(parents=True, exist_ok=True)
    workers = resolve_threads(threads, config["threads"])

    runner = _Runner(target, config, echo)
    for stage in STAGES:
        # A config key names an input file; a null one names none.
        paths = {key: Path(config[key]) for key in stage.inputs
                 if key in CONFIG_DEFAULTS and config[key] is not None}
        ctx = StageContext(paths, {key: config[key] for key in stage.params},
                           target, workers, echo)
        inputs = [ctx.path(name) for name in stage.inputs
                  if name in paths or name not in CONFIG_DEFAULTS]
        runner.run(stage.name, ctx.params, inputs,
                   [ctx.path(name) for name in stage.outputs],
                   lambda: stage.run(ctx))

    return RunResult(out_dir=target, stage_status=runner.status)
