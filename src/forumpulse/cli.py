"""Command-line entry point.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error,
3 internal error. Outputs are UTF-8 CSV/JSON files with headers; column
layouts are described in each subcommand's --help text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .corpus import load_corpus
from .errors import DataError, ForumPulseError, StageError, UsageError
from .fixture import generate_fixture
from .ingest import load_dataset
from .interaction import build_graph, user_classes
from .lda import save_model
from .lexicon import DEFAULT_COMPONENTS
from .pipeline import (StageContext, corpus_stage, cooccur_stage, dominance_stage,
                       fit_topics, ingest_stage, lexicon_stage, resolve_threads,
                       run_pipeline, stats_stage, timeline_stage, user_metrics,
                       write_graph, write_scan, write_top_influencers,
                       write_user_metrics)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumpulse",
        description="Batch analytics over Reddit-style discussion dumps.")
    parser.add_argument("--version", action="version",
                        version=f"forumpulse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="Parse post/comment dumps into a dataset file")
    p.add_argument("--posts", required=True, type=Path, help="posts JSONL dump")
    p.add_argument("--comments", required=True, type=Path, help="comments JSONL dump")
    p.add_argument("--from", dest="from_epoch", type=int, default=None,
                   help="drop records created before this epoch second")
    p.add_argument("--to", dest="to_epoch", type=int, default=None,
                   help="drop records created after this epoch second")
    p.add_argument("--out", required=True, type=Path, help="output dataset.json")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="Activity table, score relations, response times")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=_cmd_stats)

    corpus_cmd = sub.add_parser("corpus", help="Corpus construction commands")
    csub = corpus_cmd.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("build", help="Tokenize posts into a corpus directory")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--min-df", type=int, default=5)
    p.add_argument("--max-df-fraction", type=float, default=0.5)
    p.add_argument("--phrase-min-count", type=int, default=20)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=_cmd_corpus_build)

    topics = sub.add_parser("topics", help="Topic modeling commands")
    tsub = topics.add_subparsers(dest="subcommand", required=True)

    p = tsub.add_parser("fit", help="Fit one topic model and write it as JSON")
    p.add_argument("--corpus", required=True, type=Path, help="corpus directory")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--alpha", type=float, default=None, help="default 50/k")
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--out", required=True, type=Path, help="output model.json")
    p.set_defaults(func=_cmd_topics_fit)

    p = tsub.add_parser("select-k",
                        help="Scan k and keep the model minimizing W_k "
                             "(scan CSV columns: k, w_k, selected)")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--kmin", type=int, default=2)
    p.add_argument("--kmax", required=True, type=int)
    p.add_argument("--patience", type=int, default=None,
                   help="stop after this many non-improving k values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--threads", type=int, default=None,
                   help="parallel fits; FORUM_PULSE_THREADS honored")
    p.add_argument("--out", required=True, type=Path, help="output model.json")
    p.add_argument("--scan-csv", required=True, type=Path)
    p.set_defaults(func=_cmd_topics_select)

    p = tsub.add_parser("dominance",
                        help="Dominant topics per post (columns: post_id, "
                             "dominant_topics pipe-joined)")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=_cmd_topics_dominance)

    p = tsub.add_parser("cooccur",
                        help="Dominant-topic co-occurrence counts "
                             "(columns: topic_i, topic_j, count; "
                             "diagonal = sole-dominant posts)")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output CSV")
    p.set_defaults(func=_cmd_topics_cooccur)

    p = tsub.add_parser("timeline",
                        help="Dominant posts per topic per month "
                             "(columns: topic, month, count)")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output CSV")
    p.set_defaults(func=_cmd_topics_timeline)

    lexicon = sub.add_parser("lexicon", help="Lexical category profiling")
    lsub = lexicon.add_subparsers(dest="subcommand", required=True)

    p = lsub.add_parser("profile",
                        help="Category matrix, PCA components and topicwise profile")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--lexicon", type=Path, default=None,
                   help="JSON category->words file; bundled demo lexicon by default")
    p.add_argument("--components", type=int, default=DEFAULT_COMPONENTS)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=_cmd_lexicon_profile)

    users = sub.add_parser("users", help="Per-user interaction metrics")
    usub = users.add_subparsers(dest="subcommand", required=True)

    p = usub.add_parser("metrics",
                        help="Metrics CSV (user, C, out_degree, in_degree, tau, "
                             "R, alpha, I, agg_score) plus spread/influence export")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--model", type=Path, default=None,
                   help="model.json; tau columns are blank without it")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=_cmd_users_metrics)

    p = usub.add_parser("top", help="Top influencers and their egonet subgraph")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=_cmd_users_top)

    graph = sub.add_parser("graph", help="Interaction graph commands")
    gsub = graph.add_subparsers(dest="subcommand", required=True)

    p = gsub.add_parser("build", help="Edge list CSV (from, to, weight)")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output CSV")
    p.set_defaults(func=_cmd_graph_build)

    p = gsub.add_parser("export", help="Export the graph as csv, graphml or dot")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--format", required=True, choices=("csv", "graphml", "dot"))
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=_cmd_graph_export)

    p = sub.add_parser("report", help="Summarize a pipeline artifacts directory")
    p.add_argument("--artifacts", required=True, type=Path)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fixture", help="Generate a deterministic synthetic dump pair")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--posts", type=int, required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--k-true", type=int, required=True)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("run", help="Run the full pipeline from a config file")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--out-dir", type=Path, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def _cmd_ingest(args) -> int:
    for path in (args.posts, args.comments):
        if not path.exists():
            raise DataError(f"missing dump file: {path}")
    dataset = ingest_stage(StageContext(
        {"posts": args.posts, "comments": args.comments, "dataset.json": args.out},
        {"from": args.from_epoch, "to": args.to_epoch}))
    print(f"dataset: {len(dataset.posts)} posts, {len(dataset.comments)} comments, "
          f"{len(dataset.authors)} authors "
          f"(parse errors {dataset.parse_errors}, duplicates {dataset.duplicate_ids}, "
          f"dangling refs {dataset.dangling_refs}) -> {args.out}")
    return 0


def _cmd_stats(args) -> int:
    summary = stats_stage(StageContext({"dataset.json": args.dataset}, out_dir=args.out))
    print(f"stats written to {args.out} "
          f"(response-time anomalies: {summary['response_time_anomalies']})")
    return 0


def _cmd_corpus_build(args) -> int:
    corpus = corpus_stage(StageContext(
        {"dataset.json": args.dataset, "corpus": args.out},
        {"corpus.min_df": args.min_df, "corpus.max_df_fraction": args.max_df_fraction,
         "corpus.phrase_min_count": args.phrase_min_count}))
    print(f"corpus: {len(corpus)} documents, {len(corpus.vocabulary)} terms, "
          f"{corpus.total_tokens} tokens -> {args.out}")
    return 0


def _lda_params(args, **scan) -> dict:
    """The topics stage's params, from the topics subcommands' flags."""
    return {"lda.alpha": args.alpha, "lda.beta": args.beta,
            "lda.iterations": args.iters, "lda.burn_in": args.burn_in,
            **{f"lda.{key}": value for key, value in scan.items()}}


def _cmd_topics_fit(args) -> int:
    corpus = load_corpus(args.corpus)
    model, scan = fit_topics(corpus, _lda_params(args, k=args.k), args.seed)
    save_model(model, args.out)
    print(f"fitted k={args.k}: W_k={scan[0][1]} over {len(corpus)} documents "
          f"-> {args.out}")
    return 0


def _cmd_topics_select(args) -> int:
    params = _lda_params(args, k=None, k_min=args.kmin, k_max=args.kmax,
                         patience=args.patience)
    model, scan = fit_topics(load_corpus(args.corpus), params, args.seed,
                             resolve_threads(args.threads),
                             progress=lambda k, w: print(f"k={k} W_k={w}"))
    save_model(model, args.out)
    write_scan(args.scan_csv, scan)
    print(f"selected k={model.k} -> {args.out}")
    return 0


def _cmd_topics_dominance(args) -> int:
    assignment = dominance_stage(
        StageContext({"model.json": args.model}, out_dir=args.out))
    unassigned = sum(1 for topics in assignment.dominant if not topics)
    print(f"dominance written to {args.out} "
          f"({unassigned} posts with no dominant topic)")
    return 0


def _cmd_topics_cooccur(args) -> int:
    cooccur_stage(StageContext({"model.json": args.model, "cooccurrence.csv": args.out}))
    print(f"co-occurrence counts -> {args.out}")
    return 0


def _cmd_topics_timeline(args) -> int:
    timeline_stage(StageContext({"model.json": args.model, "dataset.json": args.dataset,
                                 "monthly_topics.csv": args.out}))
    print(f"monthly topic counts -> {args.out}")
    return 0


def _cmd_lexicon_profile(args) -> int:
    result = lexicon_stage(StageContext(
        {"corpus": args.corpus, "model.json": args.model},
        {"lexicon.path": args.lexicon, "lexicon.components": args.components}, args.out))
    n_comp, n_cat = result.components.shape
    print(f"lexicon profile ({n_cat} categories, {n_comp} components) -> {args.out}")
    return 0


def _users_context(args, **params) -> StageContext:
    return StageContext({"dataset.json": args.dataset, "model.json": args.model},
                        params, args.out)


def _cmd_users_metrics(args) -> int:
    ctx = _users_context(args)
    _, metrics = user_metrics(ctx)
    write_user_metrics(ctx, metrics)
    print(f"metrics for {len(metrics)} commenters -> {args.out}")
    return 0


def _cmd_users_top(args) -> int:
    ctx = _users_context(args, **{"graph.top_k": args.k})
    subgraph = write_top_influencers(ctx, *user_metrics(ctx))
    print(f"top {len(subgraph.selected)} influencers with "
          f"{len(subgraph.nodes)} egonet users -> {args.out}")
    return 0


def _cmd_graph_build(args) -> int:
    graph = build_graph(load_dataset(args.dataset))
    write_graph(args.out, "csv", graph.nodes, graph.edges)
    classes = user_classes(graph)
    print(f"graph: {classes.nodes} nodes, {len(graph.edges)} edges, "
          f"{classes.passive} passive ({classes.passive_pct:.2f}%), "
          f"{classes.unanswered} with in-degree 0 ({classes.unanswered_pct:.2f}%)")
    return 0


def _cmd_graph_export(args) -> int:
    graph = build_graph(load_dataset(args.dataset))
    write_graph(args.out, args.format, graph.nodes, graph.edges)
    print(f"graph ({args.format}) -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    report_path = args.artifacts / "report.json"
    if not report_path.exists():
        raise DataError(f"no report.json under {args.artifacts}; run the pipeline first")
    print(report_path.read_text(encoding="utf-8"), end="")
    return 0


def _cmd_fixture(args) -> int:
    posts_path, comments_path = generate_fixture(
        seed=args.seed, n_posts=args.posts, n_users=args.users,
        k_true=args.k_true, out_dir=args.out)
    print(f"fixture written: {posts_path}, {comments_path}")
    return 0


def _cmd_run(args) -> int:
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    result = run_pipeline(args.config, overrides=overrides,
                          out_dir=args.out_dir, threads=args.threads)
    if result.all_skipped:
        print(f"all stages up to date in {result.out_dir}")
    else:
        print(f"pipeline complete: {result.out_dir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        code = 2 if isinstance(exc.cause, (DataError, FileNotFoundError)) else 3
        print(f"error: {exc}", file=sys.stderr)
        return code
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ForumPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
