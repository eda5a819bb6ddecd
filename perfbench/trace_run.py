"""Traced run: per-layer spans recorded from outside the program.

Run as a child process of ``perfbench/run.py``, never imported by it:

    python3 perfbench/trace_run.py pipeline --config CFG --out-dir DIR \
        [--set KEY=VALUE ...] --result OUT.json
    python3 perfbench/trace_run.py sampler --config CFG --result OUT.json

``pipeline`` runs ``forumpulse.pipeline.run_pipeline`` in this process with
every public function named in ``SPANS`` replaced, in every ``forumpulse``
module that imported it, by a wrapper that counts calls and seconds inside
the call. Spans are inclusive: ``save_dataset`` time also appears under
``fileio.write_json``. Stage boundaries come from the ``echo`` callback,
which the pipeline calls once when each stage finishes or is skipped; a
stage's wall time runs from the previous boundary (or from the return of
``load_config``) to its own.

``sampler`` times ``lda.fit`` on the corpus the config builds, at
k = 2, 4, 8 and 16 for ``SAMPLER_SWEEPS`` sweeps each, and reports
nanoseconds per token per sweep.

Both write one JSON object to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

SPANS = {
    "lda.fit": ("lda", ("fit",)),
    "lda.save_model": ("lda", ("save_model",)),
    "lda.load_model": ("lda", ("load_model",)),
    "topics.select_k": ("topics", ("select_k",)),
    "topics.count_nonpositive": ("topics", ("count_nonpositive",)),
    "topics.dominant_topics": ("topics", ("dominant_topics",)),
    "topics.cooccurrence": ("topics", ("cooccurrence",)),
    "topics.monthly_distribution": ("topics", ("monthly_distribution",)),
    "interaction.compute_user_metrics": ("interaction", ("compute_user_metrics",)),
    "interaction.topic_spread": ("interaction", ("topic_spread",)),
    "interaction.build_graph": ("interaction", ("build_graph",)),
    "interaction.export_text": ("interaction", ("graphml_text", "dot_text")),
    "interaction.top_influencers_subgraph": ("interaction", ("top_influencers_subgraph",)),
    "ingest.parse_dump": ("ingest", ("parse_dump",)),
    "ingest.save_dataset": ("ingest", ("save_dataset",)),
    "ingest.load_dataset": ("ingest", ("load_dataset",)),
    "ingest.stats_tables": ("ingest", ("author_activity_table", "score_relations",
                                       "response_time_table")),
    "corpus.build_corpus": ("corpus", ("build_corpus",)),
    "corpus.save_corpus": ("corpus", ("save_corpus",)),
    "corpus.load_corpus": ("corpus", ("load_corpus",)),
    "lexicon.categorize": ("lexicon", ("categorize",)),
    "lexicon.pca": ("lexicon", ("pca",)),
    "lexicon.topicwise_profile": ("lexicon", ("topicwise_profile",)),
    "fileio.write_csv": ("fileio", ("write_csv",)),
    "fileio.write_json": ("fileio", ("write_json",)),
    "fileio.sha256_file": ("fileio", ("sha256_file",)),
}

SAMPLER_SWEEPS = 30
_BOUNDARY = re.compile(r"^\[(\w+)\] (done:|up to date)")


def _corpus_tokens(corpus) -> int:
    return sum(count for vector in corpus.documents for _, count in vector)


def _work(span: str, args, result) -> int:
    """Items a call handled, for the spans that report more than calls."""
    if span == "lda.fit":       # token visits: tokens x sweeps
        return _corpus_tokens(args[0]) * args[1].iterations
    if span in ("corpus.build_corpus", "corpus.load_corpus"):
        return result.total_tokens
    if span == "fileio.sha256_file":
        return os.path.getsize(args[0])
    return 0


class Tracer:
    def __init__(self):
        self.spans = {name: {"calls": 0, "seconds": 0.0, "work": 0} for name in SPANS}

    def wrap(self, span: str, func):
        record = self.spans[span]

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record["seconds"] += time.perf_counter() - start
                record["calls"] += 1
            record["work"] += _work(span, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a forumpulse module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "forumpulse" or name.startswith("forumpulse.")]
        for span, (module, names) in SPANS.items():
            for name in names:
                original = getattr(sys.modules[f"forumpulse.{module}"], name)
                wrapper = self.wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def _overrides(items: list[str]) -> dict[str, str]:
    return dict(item.split("=", 1) for item in items)


def trace_pipeline(args) -> dict:
    start = time.perf_counter()
    import forumpulse.cli  # noqa: F401  (the whole program, as `forumpulse run` loads it)
    import forumpulse.pipeline as pipeline
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    marks = {"last": None}
    stages: dict[str, dict] = {}
    ran: list[str] = []

    load_config = pipeline.load_config

    def timed_load_config(*a, **kw):
        config = load_config(*a, **kw)
        marks["last"] = time.perf_counter()
        return config

    def echo(message: str) -> None:
        match = _BOUNDARY.match(message)
        if not match:
            return
        now = time.perf_counter()
        stages[match.group(1)] = {
            "wall_s": now - marks["last"],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        marks["last"] = now
        if match.group(2) == "done:":
            ran.append(match.group(1))

    pipeline.load_config = timed_load_config
    pipeline.run_pipeline(args.config, overrides=_overrides(args.overrides),
                          out_dir=args.out_dir, echo=echo)
    return {
        "import_s": import_s,
        "stages": stages,
        "ran": ran,
        "spans": tracer.spans,
    }


def sampler(args) -> dict:
    from forumpulse.corpus import build_corpus
    from forumpulse.ingest import parse_dump
    from forumpulse.lda import LdaConfig, fit
    from forumpulse.pipeline import load_config, stage_seed

    config = load_config(args.config)
    with open(config["posts"], encoding="utf-8") as ps, \
            open(config["comments"], encoding="utf-8") as cs:
        dataset = parse_dump(ps, cs)
    corpus = build_corpus(dataset, min_df=config["corpus.min_df"],
                          max_df_fraction=config["corpus.max_df_fraction"],
                          phrase_min_count=config["corpus.phrase_min_count"])
    tokens = _corpus_tokens(corpus)
    out = {}
    for k in (2, 4, 8, 16):
        lda = LdaConfig(k=k, iterations=SAMPLER_SWEEPS, burn_in=0,
                        seed=stage_seed(config["seed"], "lda"))
        start = time.perf_counter()
        fit(corpus, lda)
        out[f"ns_per_token_k{k}"] = (time.perf_counter() - start) * 1e9 / (
            tokens * SAMPLER_SWEEPS)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pipeline")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--set", dest="overrides", action="append", default=[])
    p.add_argument("--result", type=Path, required=True)
    p = sub.add_parser("sampler")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = trace_pipeline(args) if args.mode == "pipeline" else sampler(args)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
