"""Benchmark for decolog: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload cex-search --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; the library is taken
from its src/ directory.  The steps of a run:

1. gen.py, in a child process, writes the workload's inputs for the seed
   under .bench_build/work/ (so generation warms nothing the run uses).
2. This process parses the inputs and runs the queries one at a time: an
   untimed pass whose answers are checked, then timed passes until
   --seconds have gone by (at least two).  Answers are compared with the
   recorded ones under perfbench/answers/ (by the exact inputs of each
   query) and with independent oracles; a wrong answer makes "correct"
   false.  A query's time is its fastest timed run.
3. Set-up is timed in fresh child processes, one after each timed pass:
   import decolog and parse the inputs.  setup_s is their median.
4. With --trace 1 one more pass runs with every module's public functions
   wrapped, and the per-module metrics are printed instead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Exit status 2, with no result line, when the run cannot start (no library
in the tree, or a generator or probe child that fails).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

from gen import WORKLOADS
from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
ANSWERS = HERE / "answers"

#: Fewest fresh processes timed for setup_s.
SETUP_SAMPLES = 7
#: Fewest timed passes, so every query's time is the faster of two runs
#: even when one pass outlasts --seconds (the rule sweep's does).
MIN_TIMED_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p90_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class CannotRun(Exception):
    """A step the run depends on failed: no library in the tree, no console
    script, or a child process (generator, probe) that exited non-zero."""


def child_env() -> dict:
    """The pinned environment of every child: the library from src/,
    bytecode cached under .bench_build/pycache, a fixed hash seed, and no
    other PYTHON* or DECOLOG_* setting inherited from the caller."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "DECOLOG_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
               PYTHONHASHSEED="0")
    return env


def cli_code() -> str:
    """Python code that runs the `decolog` console script as pyproject.toml
    declares it."""
    try:
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, func = project["project"]["scripts"]["decolog"].split(":")
    except (OSError, KeyError, ValueError) as error:
        raise CannotRun(f"no decolog console script in pyproject.toml: {error}") from None
    return f"import sys; from {module} import {func}; sys.exit({func}())"


def run_child(argv: list[str], env: dict) -> str:
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise CannotRun(f"{' '.join(argv[1:3])} failed:\n{done.stderr.strip()}")
    return done.stdout


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "decolog").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_recorded(workload: str) -> dict[str, str]:
    path = ANSWERS / f"{workload}.json"
    if not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    return {key: entry["answer"] for key, entry in data["answers"].items()}


def write_recorded(workload: str, seed: int, wl, answers: list[str]) -> None:
    ANSWERS.mkdir(exist_ok=True)
    data = {"workload": workload, "seed": seed,
            "answers": {q.key: {"query": q.label, "answer": a}
                        for q, a in zip(wl.queries, answers)}}
    (ANSWERS / f"{workload}.json").write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


class Run:
    """One benchmark run of one workload."""

    def __init__(self, wl, recorded: dict[str, str]):
        self.wl = wl
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.answers: list[str] | None = None
        self.decided: list[bool | None] = []
        self.matched = 0          # answers equal to a recorded one

    def timed_pass(self) -> tuple[list[float], list]:
        """Each query's time and raw answer."""
        from workloads import run_query
        times, raws = [], []
        for q in self.wl.queries:
            t = time.perf_counter()
            raws.append(run_query(self.wl, q))
            times.append(time.perf_counter() - t)
        return times, raws

    def examine(self, raws: list) -> None:
        """Check a pass's answers: the first pass in full (recorded answers
        and oracles), later passes against the first."""
        from workloads import Crash
        first = self.answers is None
        answers = []
        for i, (q, raw) in enumerate(zip(self.wl.queries, raws)):
            if isinstance(raw, Crash):
                answer, problems = "crash", [raw.text.strip().splitlines()[-1]]
            else:
                answer = self.wl.render(q, raw)
                problems = self.wl.check(q, raw) if first else []
            if first:
                if q.key in self.recorded:
                    if self.recorded[q.key] == answer:
                        self.matched += 1
                    else:
                        problems.append("answer differs from the recorded one")
                self.decided.append(False if isinstance(raw, Crash)
                                    else self.wl.decided(q, raw))
            elif answer != self.answers[i]:
                problems.append("answer differs from the first pass")
            self.tally(q, problems)
            answers.append(answer)
        if first:
            self.answers = answers

    def tally(self, q, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{q.label}: {p}" for p in problems]

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for q, answer in zip(self.wl.queries, self.answers):
            h.update(q.key.encode() + b"\0" + answer.encode() + b"\0")
        return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="decolog benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting timed passes (at least two) until "
                             "this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's checked answers to perfbench/answers/")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return bench(args)
    except CannotRun as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(argv + ["--record"] * args.record).returncode or status
    return status


def bench(args) -> int:
    if not (SRC / "decolog" / "__init__.py").is_file():
        raise CannotRun(f"no decolog package under {SRC}")
    runtime_env = child_env()
    code = cli_code()
    work = BUILD / "work" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)

    run_child([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--corpus", str(SRC / "decolog" / "corpus"),
               "--out", str(work)], runtime_env)
    inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    # compile the library's bytecode once, so no timed process pays for it
    run_child([sys.executable, "-c", "import decolog, decolog.cli"], runtime_env)

    def probe() -> float:
        return float(run_child([sys.executable, str(HERE / "probe.py"), str(work)],
                               runtime_env))

    # This process runs the queries: same bytecode cache as the children,
    # and none of the caller's DECOLOG_* settings.
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    for key in [k for k in os.environ if k.startswith("DECOLOG_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import workloads
    wl = workloads.WORKLOADS[args.workload](inputs, work,
                                            workloads.Runtime(runtime_env, code))
    run = Run(wl, load_recorded(args.workload))

    if wl.warmup:
        run.examine(run.timed_pass()[1])
    # Set-up probes are spread over the run, one after each timed pass, so
    # their median does not hang on one burst of load from other tenants.
    times, setup = [], [probe()]
    started = time.perf_counter()
    while len(times) < MIN_TIMED_PASSES or time.perf_counter() - started < args.seconds:
        per_query, raws = run.timed_pass()
        run.examine(raws)
        times.append(per_query)
        setup.append(probe())
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe())

    if args.record:
        if run.failed:
            print("not recording answers that fail their checks", file=sys.stderr)
            return 1
        write_recorded(args.workload, args.seed, wl, run.answers)

    # A query's time is its fastest timed run: on a shared machine other
    # tenants only ever add time, in bursts shorter than a pass.
    best = [min(per_pass[i] for per_pass in times) for i in range(len(wl.queries))]
    if args.trace:
        metrics = traced_metrics(run, best)
        units = PER_LAYER_UNITS
    else:
        counted = [d for d in run.decided if d is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(best),
            "verdict_p90_ms": 1000 * percentile(best, 0.9),
            "decided_ratio": sum(counted) / len(counted),
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        units = END_TO_END_UNITS

    report(args, run, len(times), best)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def traced_metrics(run: Run, best: list[float]) -> dict:
    """Per-module metrics from one traced pass.  For cli-model-check the
    traced pass runs cli.main in this process on each command, after an
    untraced one that gives start-up time (child minus in-process time)."""
    from tracing import Tracer
    wl = run.wl
    if wl.in_process:
        with Tracer() as tracer:
            times, raws = run.timed_pass()
        run.examine(raws)
        return tracer.metrics(len(wl.queries), sum(times) / sum(best))

    def in_process_pass() -> list[float]:
        elapsed = []
        for q, answer in zip(wl.queries, run.answers):
            seconds, got = wl.run_in_process(q)
            elapsed.append(seconds)
            run.tally(q, [] if got == answer else ["in-process answer differs"])
        return elapsed

    plain = in_process_pass()
    with Tracer() as tracer:
        traced = in_process_pass()
    startup_ms = 1000 * statistics.median(c - p for c, p in zip(best, plain))
    return tracer.metrics(len(wl.queries), sum(traced) / sum(plain), startup_ms)


def report(args, run: Run, passes: int, best: list[float]) -> None:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "children": {"PYTHONPATH": "src", "bytecode": "cached in .bench_build/pycache",
                     "PYTHONHASHSEED": "0"},
        "this_process": {"hash_randomization": sys.flags.hash_randomization,
                         "bytecode": "cached in .bench_build/pycache"},
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    for problem in run.problems[:50]:
        print(f"wrong: {problem}", file=sys.stderr)
    # The median query is not a bounded metric: its figure moved by more
    # than the largest allowed bound between runs on a contended host.
    print(f"{args.workload}: {len(best)} queries, {passes} timed passes, "
          f"verdict p50 {1000 * percentile(best, 0.5):.3f} ms, "
          f"{run.matched} answers match recorded ones, "
          f"wrong_ratio {run.failed / run.attempted:.4f} ({run.failed}/{run.attempted})")
    print(f"digest {args.workload} seed {args.seed} sha256 {run.output_digest()}")


if __name__ == "__main__":
    sys.exit(main())
