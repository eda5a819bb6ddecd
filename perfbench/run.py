"""Benchmark of `forumpulse run` on three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from ``src/`` of
the checkout that holds this file, and all scratch output goes under
``perfbench/.work/`` and is removed on exit.

Workloads (see README.md for why each exists):

- ``fixture-200``: the committed ``fixtures/synthetic-200`` dump and config
  (a 5-fit k-scan); the seed does not change it. Sampler-bound.
- ``dump-20k``: a 20,000-post dump generated from the seed by
  ``gen_dump.py``, one fit at k=6 with 4 sweeps. Bound by the stages
  outside the sampler.
- ``dump-20k-retune``: a complete ``dump-20k`` artifacts directory is
  rerun with only ``graph.top_k`` changed, so every skip check hashes its
  files and only ``metrics`` and ``report`` recompute.

Each timed operation is one fresh ``forumpulse run`` process, timed from
launch to exit, with its peak RSS read from ``wait4``. Operations repeat
until their timed total reaches ``--seconds`` (at least one). Every
operation's artifacts are checked by ``checks.py`` outside the timed
region. ``setup_s`` is the median wall time of processes that only start
the interpreter, import the program and load the config; a few of them run
before each timed operation, so that they sample the same stretch of time.
Both times are scaled to the host's speed while the process ran, as
``HostSpeed`` measures it on the same CPU.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also makes one
traced run (``trace_run.py``) and a sampler microbench, and prints the
per-layer metrics. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen_dump  # noqa: E402

FIXTURE = ROOT / "fixtures" / "synthetic-200"
ALL_STAGES = ["ingest", "stats", "corpus", "topics", "dominance", "cooccur",
              "timeline", "lexicon", "graph", "metrics", "report"]
SETUP_PROBES_PER_OP = 4
SPEED_PERIOD_S = 0.2
# speed_pass's wall time on the reference host (a 2-vCPU VM) while a timed
# process shares its CPU: scaled times read as wall times on that host.
REF_PASS_S = 0.010
DUMP_SHAPE = {"n_posts": 20000, "n_users": 2000, "k_true": 6}
DUMP_CONFIG = {
    "posts": "posts.jsonl",
    "comments": "comments.jsonl",
    "lda.k": 6,
    "lda.iterations": 4,
    "lda.burn_in": 2,
    "graph.top_k": 10,
}
RETUNE_TOP_K = 20

# Run only interpreter start, import and config load, as `forumpulse run` does
# before its first stage.
SETUP_PROBE = ("import json, sys, forumpulse.cli, forumpulse.pipeline as p; "
               "p.load_config(sys.argv[1], json.loads(sys.argv[2]))")


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or inputs)."""


def speed_pass() -> int:
    """A fixed piece of interpreter work whose data fits in the first-level
    cache, so that its time follows the speed the host gives this CPU and
    not the cache pressure of the process that shares the CPU with it."""
    total = 0
    for i in range(60000):
        total += i * i
    return total


class HostSpeed(threading.Thread):
    """Times ``speed_pass`` every ``SPEED_PERIOD_S`` on the CPU the timed
    processes run on.

    A shared host runs the same work up to twice as slowly in some
    stretches as in others, and a stretch can last minutes. Passes taken
    while a process runs measure the speed it ran at; ``scale`` turns its
    wall time into wall time at the reference speed."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.wait(SPEED_PERIOD_S):
            start = time.perf_counter()
            speed_pass()
            self.samples.append((start, time.perf_counter() - start))

    def stop(self) -> None:
        self.halt.set()
        self.join()

    def mean_pass(self, start: float, end: float) -> float:
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            raise BenchError("no host speed sample fell inside a timed process")
        return statistics.fmean(inside)

    def scale(self, start: float, end: float) -> float:
        return REF_PASS_S / self.mean_pass(start, end)


@dataclass
class Plan:
    """What one workload's timed operation runs and what it must produce."""

    config: Path
    posts: Path
    comments: Path
    recount: checks.Interactions         # C, degrees and edges from the dumps
    top_k: int                           # graph.top_k the timed runs use
    overrides: list[str] = field(default_factory=list)
    base: Optional[Path] = None          # copied to the output dir first
    expect_ran: list[str] = field(default_factory=lambda: list(ALL_STAGES))
    reference: Optional[dict[str, str]] = None   # digests a run must equal
    extra_check: Optional[Callable[[Path, int], None]] = None


def spawn(cmd: list[str], log: Path) -> tuple[float, float, int, str]:
    """Run cmd to exit; return (wall s, peak RSS MB, exit code, stdout)."""
    with log.with_suffix(".out").open("w") as out, log.with_suffix(".err").open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=log.parent)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(log.with_suffix(".err").read_text(errors="replace")[-2000:])
    return wall, usage.ru_maxrss / 1024, proc.returncode, log.with_suffix(".out").read_text()


def run_cmd(config: Path, out_dir: Path, overrides: list[str]) -> list[str]:
    return [sys.executable, "-m", "forumpulse.cli", "run",
            "--config", str(config), "--out-dir", str(out_dir),
            *(arg for item in overrides for arg in ("--set", item))]


def untimed_run(plan: Plan, out_dir: Path, top_k: int, expect_ran: list[str]) -> None:
    """Make an artifacts directory at ``graph.top_k = top_k`` during set-up."""
    _, _, code, stdout = spawn(run_cmd(plan.config, out_dir, [f"graph.top_k={top_k}"]),
                               out_dir.with_name(out_dir.name + "-log"))
    if code != 0:
        raise checks.CheckFailed(f"set-up run into {out_dir.name} exited {code}")
    checks.check_stages_ran(stdout, expect_ran)


def write_dump_config(work: Path, seed: int) -> Path:
    gen_dump.write_dump(work / "dump", seed, **DUMP_SHAPE)
    config = work / "dump" / "config.json"
    config.write_text(json.dumps({**DUMP_CONFIG, "seed": seed}, sort_keys=True))
    return config


def plan_fixture(work: Path, seed: int) -> Plan:
    checks.check_input_sums(FIXTURE)
    posts = FIXTURE / "posts.jsonl"
    n_posts = sum(1 for line in posts.open(encoding="utf-8") if line.strip())

    def extra(out_dir: Path, w_k: int) -> None:
        checks.check_selected_w_k_share(w_k, n_posts)
        checks.check_pools_not_split(out_dir, posts)

    comments = FIXTURE / "comments.jsonl"
    config = FIXTURE / "config.json"
    top_k = json.loads(config.read_text(encoding="utf-8"))["graph.top_k"]
    return Plan(config, posts, comments, checks.Interactions(posts, comments),
                top_k, extra_check=extra)


def plan_dump(work: Path, seed: int) -> Plan:
    config = write_dump_config(work, seed)
    posts, comments = config.parent / "posts.jsonl", config.parent / "comments.jsonl"
    return Plan(config, posts, comments, checks.Interactions(posts, comments),
                DUMP_CONFIG["graph.top_k"])


def plan_retune(work: Path, seed: int) -> Plan:
    plan = plan_dump(work, seed)
    # The reference is a fresh run at the retuned top_k; the base directory
    # is that run taken back to the dump-20k top_k, which leaves it byte for
    # byte a complete dump-20k directory at half the set-up cost of a
    # second fresh run.
    reference = work / "reference"
    untimed_run(plan, reference, RETUNE_TOP_K, ALL_STAGES)
    checks.check_run(reference, plan.posts, plan.comments, RETUNE_TOP_K, plan.recount)
    shutil.copytree(reference, work / "base")
    # The base differs from the checked reference only in the files that
    # every timed rerun rewrites and compares with the reference.
    untimed_run(plan, work / "base", plan.top_k, ["metrics", "report"])
    plan.overrides = [f"graph.top_k={RETUNE_TOP_K}"]
    plan.top_k = RETUNE_TOP_K
    plan.base = work / "base"
    plan.expect_ran = ["metrics", "report"]
    plan.reference = checks.artifact_digests(reference)
    return plan


WORKLOADS = {
    "fixture-200": plan_fixture,
    "dump-20k": plan_dump,
    "dump-20k-retune": plan_retune,
}


class Runs:
    """The timed operations of one benchmark invocation and their checks."""

    def __init__(self, plan: Plan, work: Path):
        self.plan = plan
        self.work = work
        self.speed = HostSpeed()
        self.elapsed = 0.0
        self.walls: list[float] = []        # at the reference speed
        self.raw_walls: list[float] = []
        self.passes: list[float] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: Optional[dict[str, str]] = plan.reference
        self.setup_walls: list[float] = []  # at the reference speed
        self.raw_setup_walls: list[float] = []
        overrides = json.dumps(dict(item.split("=", 1) for item in plan.overrides))
        self.probe = [sys.executable, "-c", SETUP_PROBE, str(plan.config), overrides]

    def setup(self) -> float:
        wall, _, code, _ = spawn(self.probe, self.work / "setup")
        if code != 0:
            raise BenchError("the program cannot be imported or its config loaded")
        return wall

    def fresh_dir(self, name: str) -> Path:
        out_dir = self.work / name
        if self.plan.base is not None:
            shutil.copytree(self.plan.base, out_dir)
        return out_dir

    def check(self, out_dir: Path, ran: list[str]) -> None:
        """All output checks for one run; failures are collected, not raised.

        A run whose artifacts are byte-identical to ones already checked
        passes every content check those passed, so only the digests are
        compared."""
        try:
            if ran != self.plan.expect_ran:
                raise checks.CheckFailed(f"stages ran {ran}, expected {self.plan.expect_ran}")
            digests = checks.artifact_digests(out_dir)
            if digests == self.digests:
                return
            w_k = checks.check_run(out_dir, self.plan.posts, self.plan.comments,
                                   self.plan.top_k, self.plan.recount)
            if self.plan.extra_check is not None:
                self.plan.extra_check(out_dir, w_k)
            if self.digests is None:
                self.digests = digests
            checks.check_same_artifacts(digests, self.digests, out_dir.name)
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))

    def one(self) -> None:
        # The probes are too short to scale one by one; the passes taken
        # during all of them scale each.
        start = time.perf_counter()
        walls = [self.setup() for _ in range(SETUP_PROBES_PER_OP)]
        scale = self.speed.scale(start, time.perf_counter())
        self.raw_setup_walls += walls
        self.setup_walls += [wall * scale for wall in walls]

        out_dir = self.fresh_dir(f"run{self.attempted}")
        start = time.perf_counter()
        wall, rss, code, stdout = spawn(run_cmd(self.plan.config, out_dir, self.plan.overrides),
                                        self.work / f"run{self.attempted}-log")
        self.attempted += 1
        self.elapsed += wall
        if code != 0:
            self.failed += 1
        else:
            mean_pass = self.speed.mean_pass(start, start + wall)
            self.raw_walls.append(wall)
            self.walls.append(wall * REF_PASS_S / mean_pass)
            self.passes.append(mean_pass)
            self.rss.append(rss)
            self.check(out_dir, checks.stages_ran(stdout))
        shutil.rmtree(out_dir, ignore_errors=True)   # absent if the run failed early

    def measure(self, seconds: float) -> None:
        self.setup()        # the first probe fills the bytecode caches
        self.speed.start()
        try:
            self.one()
            while self.elapsed < seconds:
                self.one()
        finally:
            self.speed.stop()


def traced(plan: Plan, runs: Runs, work: Path) -> dict[str, float]:
    """One traced pipeline run and the sampler microbench -> per-layer metrics."""
    out_dir = runs.fresh_dir("traced")
    result = work / "traced.json"
    sets = [arg for item in plan.overrides for arg in ("--set", item)]
    cmd = [sys.executable, str(HERE / "trace_run.py"), "pipeline",
           "--config", str(plan.config), "--out-dir", str(out_dir),
           "--result", str(result), *sets]
    speed = HostSpeed()     # the tracing overhead is compared at the reference speed
    speed.start()
    start = time.perf_counter()
    try:
        wall, _, code, _ = spawn(cmd, work / "traced-log")
    finally:
        speed.stop()
    if code != 0:
        raise BenchError("the traced run failed")
    trace = json.loads(result.read_text())
    runs.check(out_dir, trace["ran"])
    shutil.rmtree(out_dir)

    result = work / "sampler.json"
    _, _, code, _ = spawn([sys.executable, str(HERE / "trace_run.py"), "sampler",
                           "--config", str(FIXTURE / "config.json"),
                           "--result", str(result)], work / "sampler-log")
    if code != 0:
        raise BenchError("the sampler microbench failed")
    sampler = json.loads(result.read_text())

    spans = trace["spans"]
    metrics: dict[str, float] = {}
    for stage in ALL_STAGES:
        record = trace["stages"].get(stage, {"wall_s": 0.0, "rss_mb": 0.0})
        metrics[f"pipeline.{stage}.wall_s"] = record["wall_s"]
        metrics[f"pipeline.{stage}.rss_mb"] = record["rss_mb"]
    metrics["pipeline.stages_ran"] = len(trace["ran"])

    def span(name: str, calls: bool = False) -> None:
        metrics[f"{name}_s"] = spans[name]["seconds"]
        if calls:
            metrics[f"{name}_calls"] = spans[name]["calls"]

    fit = spans["lda.fit"]
    span("lda.fit", calls=True)
    metrics["lda.ns_per_token_sweep"] = (fit["seconds"] * 1e9 / fit["work"]
                                         if fit["work"] else 0.0)
    span("lda.save_model")
    span("lda.load_model", calls=True)
    for k in (2, 4, 8, 16):
        metrics[f"lda.ns_per_token_k{k}"] = sampler[f"ns_per_token_k{k}"]
    span("topics.select_k")
    span("topics.count_nonpositive", calls=True)
    span("topics.dominant_topics", calls=True)
    span("topics.cooccurrence")
    span("topics.monthly_distribution")
    span("interaction.compute_user_metrics")
    metrics["interaction.topic_spread_calls"] = spans["interaction.topic_spread"]["calls"]
    span("interaction.build_graph", calls=True)
    span("interaction.export_text")
    span("interaction.top_influencers_subgraph")
    span("ingest.parse_dump")
    span("ingest.save_dataset")
    span("ingest.load_dataset", calls=True)
    span("ingest.stats_tables")
    span("corpus.build_corpus")
    span("corpus.save_corpus")
    span("corpus.load_corpus", calls=True)
    built_or_loaded = [spans[n] for n in ("corpus.build_corpus", "corpus.load_corpus")
                       if spans[n]["calls"]]
    metrics["corpus.tokens"] = (built_or_loaded[0]["work"] / built_or_loaded[0]["calls"]
                                if built_or_loaded else 0)
    span("lexicon.categorize")
    span("lexicon.pca")
    span("lexicon.topicwise_profile")
    span("fileio.write_csv")
    span("fileio.write_json")
    span("fileio.sha256_file", calls=True)
    metrics["fileio.sha256_mb"] = spans["fileio.sha256_file"]["work"] / 1e6
    metrics["cli.import_s"] = trace["import_s"]
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = (wall * speed.scale(start, start + wall)
                                   - statistics.median(runs.walls))
    metrics["trace.unaccounted_s"] = wall - statistics.median(runs.raw_setup_walls) - sum(
        metrics[f"pipeline.{stage}.wall_s"] for stage in ALL_STAGES)
    metrics["host.pass_ms"] = statistics.median(runs.passes) * 1e3
    return metrics


def benchmark(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    plan = WORKLOADS[workload](work, seed)
    runs = Runs(plan, work)
    runs.measure(seconds)
    if not runs.walls:
        raise BenchError("every timed run failed")
    if trace:
        values = traced(plan, runs, work)
    else:
        values = {"run_s": statistics.median(runs.walls),
                  "peak_rss_mb": statistics.median(runs.rss),
                  "setup_s": statistics.median(runs.setup_walls)}
    print(f"run_s samples: {runs.walls} (unscaled {runs.raw_walls})", file=sys.stderr)
    print(f"setup_s samples: {runs.setup_walls}", file=sys.stderr)
    for problem in runs.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {
        "correct": not runs.problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "forumpulse" / "cli.py", FIXTURE / "config.json",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    # Every child runs the checkout's program; fixing the hash seed per
    # benchmark seed removes one source of run-to-run variation in the
    # program's dict and set layouts without touching its outputs.
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["PYTHONHASHSEED"] = str(args.seed % 2**32)
    # One CPU for this process, its speed sampler and every child, so that
    # the sampler measures the CPU the timed processes run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, checks.CheckFailed) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
