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
from .errors import DataError, ForumPulseError, StageError, UsageError
from .fixture import generate_fixture
from .fileio import StageContext
from .pipeline import CONFIG_SCHEMA, STAGES, check_config, check_input_files, run_pipeline

# Exit 2: bad data, or an input path that is missing or names a file where
# a directory belongs, or the other way round.
_DATA_ERRORS = (DataError, FileExistsError, FileNotFoundError, IsADirectoryError,
                NotADirectoryError)
_DOMINANCE_HELP = "the dominance.csv of `topics dominance`, its two sibling files beside it"
_OUT_FILE, _OUT_DIR = "output file", "output directory"


def _param(p: argparse.ArgumentParser, flag: str, key: str, help=None) -> None:
    """A flag that sets the config key ``key``, with that key's type and default."""
    default, kind, _ = CONFIG_SCHEMA[key]
    p.add_argument(flag, dest=key, type=kind, default=default, help=help)


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
    _param(p, "--from", "from", "drop records created before this epoch second")
    _param(p, "--to", "to", "drop records created after this epoch second")
    p.add_argument("--out", required=True, type=Path, help="output dataset.json")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="Activity table, score relations, response times")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help=_OUT_DIR)
    p.set_defaults(func=_cmd_stats)

    corpus_cmd = sub.add_parser("corpus", help="Corpus construction commands")
    csub = corpus_cmd.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("build", help="Tokenize posts into a corpus directory")
    p.add_argument("--dataset", required=True, type=Path)
    _param(p, "--min-df", "corpus.min_df")
    _param(p, "--max-df-fraction", "corpus.max_df_fraction")
    _param(p, "--phrase-min-count", "corpus.phrase_min_count")
    p.add_argument("--out", required=True, type=Path, help="output corpus directory")
    p.set_defaults(func=_cmd_corpus_build)

    topics = sub.add_parser("topics", help="Topic modeling commands")
    tsub = topics.add_subparsers(dest="subcommand", required=True)

    p = tsub.add_parser("fit",
                        help="Fit the topic model at --k, or keep the one minimizing "
                             "W_k over [--kmin, --kmax] (model.json; "
                             "skewness_scan.csv with columns k, w_k, selected; "
                             "top_words.csv with columns topic, rank, term)")
    p.add_argument("--corpus", required=True, type=Path, help="corpus directory")
    _param(p, "--k", "lda.k", "a fixed k: the scan [k, k]")
    _param(p, "--kmin", "lda.k_min")
    _param(p, "--kmax", "lda.k_max")
    _param(p, "--patience", "lda.patience",
           "stop after this many non-improving k values")
    _param(p, "--seed", "seed", "the run seed; the sampler seed is derived from it")
    _param(p, "--iters", "lda.iterations")
    _param(p, "--burn-in", "lda.burn_in")
    _param(p, "--alpha", "lda.alpha", "default 50/k")
    _param(p, "--beta", "lda.beta")
    p.add_argument("--out", required=True, type=Path, help=_OUT_DIR)
    p.set_defaults(func=_cmd_topics_fit)

    p = tsub.add_parser("dominance",
                        help="Dominant topics per post (columns: post_id, "
                             "dominant_topics pipe-joined)")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help=_OUT_DIR)
    p.set_defaults(func=_cmd_topics_dominance)

    p = tsub.add_parser("cooccur",
                        help="Dominant-topic co-occurrence counts "
                             "(columns: topic_i, topic_j, count; "
                             "diagonal = sole-dominant posts)")
    p.add_argument("--dominance", required=True, type=Path, help=_DOMINANCE_HELP)
    p.add_argument("--out", required=True, type=Path, help=_OUT_FILE)
    p.set_defaults(func=_cmd_topics_cooccur)

    p = tsub.add_parser("timeline",
                        help="Dominant posts per topic per month "
                             "(columns: topic, month, count)")
    p.add_argument("--dominance", required=True, type=Path, help=_DOMINANCE_HELP)
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help=_OUT_FILE)
    p.set_defaults(func=_cmd_topics_timeline)

    lexicon = sub.add_parser("lexicon", help="Lexical category profiling")
    lsub = lexicon.add_subparsers(dest="subcommand", required=True)

    p = lsub.add_parser("profile",
                        help="Category matrix, PCA components and topicwise profile")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--dominance", required=True, type=Path, help=_DOMINANCE_HELP)
    _param(p, "--lexicon", "lexicon.path",
           "JSON category->words file; bundled demo lexicon by default")
    _param(p, "--components", "lexicon.components")
    p.add_argument("--out", required=True, type=Path, help=_OUT_DIR)
    p.set_defaults(func=_cmd_lexicon_profile)

    users = sub.add_parser("users", help="Per-user interaction metrics")
    usub = users.add_subparsers(dest="subcommand", required=True)

    p = usub.add_parser("metrics",
                        help="Metrics CSV (user, C, out_degree, in_degree, tau, "
                             "R, alpha, I, agg_score), spread/influence export, "
                             "top influencers and their egonet subgraph")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--edges", required=True, type=Path,
                   help="the edges.csv that `graph build` wrote")
    p.add_argument("--dominance", type=Path, default=None,
                   help=_DOMINANCE_HELP + "; tau is blank without it")
    _param(p, "--k", "graph.top_k", "top influencers to rank")
    p.add_argument("--out", required=True, type=Path, help=_OUT_DIR)
    p.set_defaults(func=_cmd_users_metrics)

    graph = sub.add_parser("graph", help="Interaction graph commands")
    gsub = graph.add_subparsers(dest="subcommand", required=True)

    p = gsub.add_parser("build", help="Reply graph as edges.csv (from, to, weight), "
                                      "graph.graphml and graph.dot, with user_classes.json")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help=_OUT_DIR)
    p.set_defaults(func=_cmd_graph_build)

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
    p.set_defaults(func=_cmd_run)

    return parser


def _run_stage(args, stage: str, paths):
    """Run the ``STAGES`` entry named ``stage`` and return what it returns:
    its params come from the flags named by their config keys, ``--out`` is
    its output file if it has one, else its output directory, and its dump
    and lexicon files are checked, and a lexicon parsed, as ``run`` does."""
    entry = next(s for s in STAGES if s.name == stage)
    params = check_config({key: getattr(args, key) for key in entry.params})
    parsed = check_input_files(entry, {**paths, **params})
    if len(entry.outputs) == 1:
        paths = {**paths, entry.outputs[0]: args.out}
    return entry.run(StageContext(paths, params, args.out, parsed=parsed))


def _cmd_ingest(args) -> int:
    dataset = _run_stage(args, "ingest", {"posts": args.posts, "comments": args.comments})
    print(f"dataset: {len(dataset.posts)} posts, {len(dataset.comments)} comments, "
          f"{len(dataset.authors)} authors "
          f"(parse errors {dataset.parse_errors}, duplicates {dataset.duplicate_ids}, "
          f"dangling refs {dataset.dangling_refs}) -> {args.out}")
    return 0


def _cmd_stats(args) -> int:
    summary = _run_stage(args, "stats", {"dataset.json": args.dataset})
    print(f"stats written to {args.out} "
          f"(response-time anomalies: {summary['response_time_anomalies']})")
    return 0


def _cmd_corpus_build(args) -> int:
    corpus = _run_stage(args, "corpus", {"dataset.json": args.dataset, "corpus": args.out})
    print(f"corpus: {len(corpus)} documents, {len(corpus.terms)} terms, "
          f"{corpus.total_tokens} tokens -> {args.out}")
    return 0


def _cmd_topics_fit(args) -> int:
    model = _run_stage(args, "topics", {"corpus": args.corpus})
    print(f"selected k={model.k} over {len(model.doc_ids)} documents -> {args.out}")
    return 0


def _cmd_topics_dominance(args) -> int:
    assignment = _run_stage(args, "dominance", {"model.json": args.model})
    unassigned = int((~assignment.mask.any(axis=1)).sum())
    print(f"dominance written to {args.out} "
          f"({unassigned} posts with no dominant topic)")
    return 0


def _cmd_topics_cooccur(args) -> int:
    _run_stage(args, "cooccur", {"dominance.csv": args.dominance})
    print(f"co-occurrence counts -> {args.out}")
    return 0


def _cmd_topics_timeline(args) -> int:
    _run_stage(args, "timeline", {"dominance.csv": args.dominance,
                                   "dataset.json": args.dataset})
    print(f"monthly topic counts -> {args.out}")
    return 0


def _cmd_lexicon_profile(args) -> int:
    components = _run_stage(args, "lexicon", {"corpus": args.corpus,
                                               "dominance.csv": args.dominance})
    n_comp, n_cat = components.shape
    print(f"lexicon profile ({n_cat} categories, {n_comp} components) -> {args.out}")
    return 0


def _cmd_users_metrics(args) -> int:
    metrics, subgraph, ranked = _run_stage(args, "metrics", {
        "dataset.json": args.dataset, "edges.csv": args.edges,
        "dominance.csv": args.dominance})
    print(f"metrics for {len(metrics.users)} commenters; top {len(ranked)} "
          f"influencers with {len(subgraph.nodes)} egonet users -> {args.out}")
    return 0


def _cmd_graph_build(args) -> int:
    graph, classes = _run_stage(args, "graph", {"dataset.json": args.dataset})
    print(f"graph: {classes['nodes']} nodes, {len(graph.weight)} edges "
          f"({int(graph.weight.sum())} replies), "
          f"{classes['passive']} passive ({classes['passive_pct']:.2f}%), "
          f"{classes['unanswered']} with in-degree 0 ({classes['unanswered_pct']:.2f}%) "
          f"-> {args.out}")
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
    run_pipeline(args.config, overrides=overrides, out_dir=args.out_dir)
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
        code = 2 if isinstance(exc.cause, _DATA_ERRORS) else 3
        print(f"error: {exc}", file=sys.stderr)
        return code
    except _DATA_ERRORS as exc:
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
