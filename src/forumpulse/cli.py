"""Command-line entry point.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error,
3 internal error. Outputs are UTF-8 CSV/JSON files with headers; column
layouts are described in each subcommand's --help text.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .errors import DataError, ForumPulseError, StageError, UsageError
from .fixture import generate_fixture
from .fileio import StageContext
from .pipeline import CONFIG_SCHEMA, STAGES, check_config, check_input_files, run_pipeline
from .topics import DOMINANCE_FILES

# Exit 2: bad data, or an input path that is missing or names a file where
# a directory belongs, or the other way round.
_DATA_ERRORS = (DataError, FileExistsError, FileNotFoundError, IsADirectoryError,
                NotADirectoryError)
# The flag through which a subcommand reads each stage input, by the
# input's name up to its first "/" (so the corpus files are "corpus"), with
# its help; a stage input that is also a param is set by its param's flag.
_INPUT_FLAGS = {
    "posts": ("--posts", "posts JSONL dump"),
    "comments": ("--comments", "comments JSONL dump"),
    "dataset.json": ("--dataset", None),
    "corpus": ("--corpus", "corpus directory"),
    "model.json": ("--model", None),
    "edges.csv": ("--edges", "the edges.csv that `graph build` wrote"),
    "user_metrics.csv": ("--user-metrics", "the user_metrics.csv that `graph build` wrote"),
    "dominance.csv": ("--dominance", "the dominance.csv of `topics dominance`, "
                                     "its two sibling files beside it"),
}
# The one input a subcommand may go without, by its stage, with what that costs.
_OPTIONAL_INPUTS = {("graph", "dominance.csv"): "; tau is blank without it"}
# The flag that sets each config key that is a stage param, with its help.
_PARAM_FLAGS = {
    "from": ("--from", "drop records created before this epoch second"),
    "to": ("--to", "drop records created after this epoch second"),
    "corpus.min_df": ("--min-df", None),
    "corpus.max_df_fraction": ("--max-df-fraction", None),
    "corpus.phrase_min_count": ("--phrase-min-count", None),
    "lda.k": ("--k", "a fixed k: the scan [k, k]"),
    "lda.k_min": ("--kmin", None),
    "lda.k_max": ("--kmax", None),
    "lda.alpha": ("--alpha", "default 50/k"),
    "lda.beta": ("--beta", None),
    "lda.iterations": ("--iters", None),
    "lda.burn_in": ("--burn-in", None),
    "lda.patience": ("--patience", "stop after this many non-improving k values"),
    "seed": ("--seed", "the run seed; the sampler seed is derived from it"),
    "lexicon.path": ("--lexicon", "JSON category->words file; bundled demo lexicon by default"),
    "lexicon.components": ("--components", None),
    "graph.top_k": ("--k", "top influencers to rank"),
}
# The help of each command that groups stage subcommands.
_GROUPS = {"corpus": "Corpus construction commands", "topics": "Topic modeling commands",
           "lexicon": "Lexical category profiling", "users": "Per-user interaction metrics",
           "graph": "Interaction graph commands"}
# The subcommand that runs each stage: its help, and the line it prints
# from what the stage returns and its --out.
_SUBCOMMANDS = {
    "ingest": ("ingest", "Parse post/comment dumps into a dataset file",
               lambda d, out: f"dataset: {len(d.posts)} posts, {len(d.comments)} comments, "
               f"{len(d.authors)} authors (parse errors {d.parse_errors}, duplicates "
               f"{d.duplicate_ids}, dangling refs {d.dangling_refs}) -> {out}"),
    "stats": ("stats", "Activity table, score relations, response times",
              lambda summary, out: f"stats written to {out} (response-time anomalies: "
              f"{summary['response_time_anomalies']})"),
    "corpus build": ("corpus", "Tokenize posts into a corpus directory",
                     lambda corpus, out: f"corpus: {len(corpus)} documents, "
                     f"{len(corpus.terms)} terms, {corpus.total_tokens} tokens -> {out}"),
    "topics fit": ("topics", "Fit the topic model at --k, or keep the one minimizing W_k "
                   "over [--kmin, --kmax] (model.json; skewness_scan.csv with columns k, "
                   "w_k, selected; top_words.csv with columns topic, rank, term)",
                   lambda model, out: f"selected k={model.k} over {len(model.doc_ids)} "
                   f"documents -> {out}"),
    "topics dominance": ("dominance", "Dominant topics per post (columns: post_id, "
                         "dominant_topics pipe-joined)",
                         lambda a, out: f"dominance written to {out} "
                         f"({int((~a.mask.any(axis=1)).sum())} posts with no dominant topic)"),
    "topics cooccur": ("cooccur", "Dominant-topic co-occurrence counts (columns: topic_i, "
                       "topic_j, count; diagonal = sole-dominant posts)",
                       lambda _, out: f"co-occurrence counts -> {out}"),
    "topics timeline": ("timeline", "Dominant posts per topic per month "
                        "(columns: topic, month, count)",
                        lambda _, out: f"monthly topic counts -> {out}"),
    "lexicon profile": ("lexicon", "Category matrix, PCA components and topicwise profile",
                        lambda c, out: f"lexicon profile ({c.shape[1]} categories, "
                        f"{c.shape[0]} components) -> {out}"),
    "users metrics": ("metrics", "Top influencers by I, ranked from the user_metrics.csv "
                      "and edges.csv of `graph build` (top_influencers.csv with columns "
                      "rank, user, influence, C), and their egonet subgraph "
                      "(influencer_subgraph.graphml)",
                      lambda r, out: f"top {len(r[2])} of {len(r[0].users)} commenters, "
                      f"with {len(r[1].nodes)} egonet users -> {out}"),
    "graph build": ("graph", "Reply graph as edges.csv (from, to, weight), graph.graphml "
                    "and graph.dot, with user_classes.json, and per-user metrics "
                    "(user_metrics.csv with columns user, C, out_degree, in_degree, tau, "
                    "R, alpha, I, agg_score; spread_influence.csv)",
                    lambda r, out: f"graph: {r[1]['nodes']} nodes, {len(r[0].weight)} edges "
                    f"({int(r[0].weight.sum())} replies), {r[1]['passive']} passive "
                    f"({r[1]['passive_pct']:.2f}%), {r[1]['unanswered']} with in-degree 0 "
                    f"({r[1]['unanswered_pct']:.2f}%); metrics for {len(r[2].users)} "
                    f"commenters -> {out}"),
}


def _add_stage_parser(sub, command: str, entry, help: str, summary) -> None:
    p = sub.add_parser(command, help=help)
    # A flag per input, by its name up to the first "/", but for a param,
    # which has its own flag, and the files read from beside dominance.csv.
    reads = [name for name in dict.fromkeys(n.split("/")[0] for n in entry.inputs)
             if name not in entry.params + DOMINANCE_FILES[1:]]
    for name in reads:
        flag, text = _INPUT_FLAGS[name]
        note = _OPTIONAL_INPUTS.get((entry.name, name))
        p.add_argument(flag, dest=name, required=note is None, type=Path,
                       metavar=flag[2:].upper(), help=text if note is None else text + note)
    for key in entry.params:
        flag, text = _PARAM_FLAGS[key]
        default, kind, _ = CONFIG_SCHEMA[key]
        p.add_argument(flag, dest=key, type=kind, default=default, help=text)
    # --out is the stage's one output, a file or the corpus directory, or
    # else the directory of its outputs.
    written = {n.split("/")[0] for n in entry.outputs}
    out = written.pop() if len(written) == 1 else None
    p.add_argument("--out", required=True, type=Path,
                   metavar="FILE" if out in entry.outputs else "DIR",
                   help=f"output {out}" if out else "output directory")
    p.set_defaults(func=partial(_run_stage, entry, reads, out, summary))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumpulse",
        description="Batch analytics over Reddit-style discussion dumps.")
    parser.add_argument("--version", action="version",
                        version=f"forumpulse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    groups = {}
    for command, (stage, help, summary) in _SUBCOMMANDS.items():
        group, _, name = command.partition(" ")
        if name and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True)
        _add_stage_parser(groups.get(group, sub), name or group,
                          next(s for s in STAGES if s.name == stage), help, summary)

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


def _run_stage(entry, reads: list[str], out, summary, args) -> int:
    """Run the ``STAGES`` entry ``entry`` on the files its flags name, its
    params, dump and lexicon files checked and a lexicon parsed as ``run``
    does, and print ``summary`` of what it returns."""
    flags = vars(args)
    params = check_config({key: flags[key] for key in entry.params})
    parsed = check_input_files(entry, flags)
    paths = {name: flags[name] for name in reads}
    if out is not None:
        paths[out] = args.out
    print(summary(entry.run(StageContext(paths, params, args.out, parsed=parsed)), args.out))
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
    try:
        args = _build_parser().parse_args(argv)
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
