"""The four workloads: what one query is, how it runs, and how its answer
is rendered and checked.

Queries run one at a time in this process, through the public API with
its default arguments (including `jobs`), except cli-model-check, whose
queries are `decolog` child processes, also run one at a time.  A query's
answer is rendered to text outside the timed region; `check` applies the
independent oracles, also untimed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import decolog
from decolog import cli
from decolog.files import element_str

from loading import input_texts, parse_inputs


#: Longest a `decolog` child may run before it is killed.
CHILD_TIMEOUT_S = 60


def digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:20]


@dataclass
class Query:
    key: str        # names the query's exact inputs; answers are recorded under it
    label: str
    data: object


@dataclass
class Runtime:
    """How child processes are started: their pinned environment and the
    code that runs the `decolog` console script."""
    env: dict
    cli_code: str


@dataclass
class Crash:
    """A query that raised instead of answering."""
    text: str


class Workload:
    #: Run one untimed pass before timing: it fills lazy caches, and its
    #: answers are the ones checked against records and oracles.
    warmup = True
    #: Queries run inside this process (else in child processes).
    in_process = True

    def __init__(self, inputs: dict, work: Path, runtime: Runtime):
        self.work = work
        self.runtime = runtime
        self.queries: list[Query] = []

    def run(self, q: Query):
        raise NotImplementedError

    def render(self, q: Query, raw) -> str:
        raise NotImplementedError

    def check(self, q: Query, raw) -> list[str]:
        return []

    def decided(self, q: Query, raw) -> bool | None:
        """Whether the query reached a verdict; None when it does not count
        towards decided_ratio."""
        return True

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class RuleSweep(Workload):
    """validate_rules for both effects at the default carrier bound."""
    warmup = False

    def __init__(self, inputs, work, runtime):
        super().__init__(inputs, work, runtime)
        self.queries = [Query(f"rule-sweep/{e}", e, decolog.EffectKind(e))
                        for e in inputs["effects"]]

    def run(self, q):
        return decolog.validate_rules(q.data)

    def render(self, q, report):
        return "\n".join(
            f"{r.rule} | {r.description} | {r.expectation} | checked "
            f"{r.models_checked} | violations {r.violations} | {r.example}"
            for r in report.results)

    def check(self, q, report):
        problems = [f"{r.rule} ({r.description}) expected {r.expectation}, "
                    f"got {r.violations} violations" for r in report.results if not r.ok]
        problems += [f"{r.rule} ({r.description}) checked no model"
                     for r in report.results
                     if r.expectation == "sound" and r.models_checked == 0]
        return problems


class _GoalWorkload(Workload):
    def __init__(self, inputs, work, runtime):
        super().__init__(inputs, work, runtime)
        parsed = parse_inputs(decolog, input_texts(inputs, work))
        for goal, eq in zip(inputs["goals"], parsed["goals"]):
            self.queries.append(Query(
                digest(inputs["theories"][goal["theory"]], goal["goal"]),
                f"{goal['theory']}: {goal['goal']}",
                (parsed["theories"][goal["theory"]], eq, goal)))


class CexSearch(_GoalWorkload):
    """find_counterexample at the default bounds, one goal at a time."""

    def run(self, q):
        theory, eq, _ = q.data
        return decolog.find_counterexample(theory, eq)

    def render(self, q, ce):
        if ce is None:
            return "no countermodel"
        return (f"countermodel\n{decolog.print_model(ce.model)}"
                f"witness {element_str(ce.witness)}: lhs {element_str(ce.lhs_value)}, "
                f"rhs {element_str(ce.rhs_value)}")

    def check(self, q, ce):
        theory, eq, goal = q.data
        if ce is None:
            return []
        if goal["derivable"]:
            return ["countermodel to a goal derivable by construction"]
        try:
            decolog.validate_model(theory, ce.model)
        except decolog.SemanticsError as error:
            return [f"countermodel is not a model: {error}"]
        problems = [f"countermodel violates axiom {ax.name}" for ax in theory.axioms
                    if not decolog.holds(ce.model, theory, ax.equation)]
        lhs = decolog.eval_term(ce.model, theory, eq.lhs).mapping
        rhs = decolog.eval_term(ce.model, theory, eq.rhs).mapping
        if (lhs.get(ce.witness), rhs.get(ce.witness)) != (ce.lhs_value, ce.rhs_value):
            problems.append("reported values differ from the evaluated ones")
        dom = decolog.check_equation_wf(theory, eq).dom
        first = next((x for x in canonical_inputs(ce.model, dom)
                      if disagree(eq.strength, theory.effect, x, lhs[x], rhs[x])), None)
        if first != ce.witness:
            problems.append(f"the first violation is at {element_str(first)}, not at the witness")
        return problems


def elements(model, ty) -> tuple:
    if isinstance(ty, decolog.Prod):
        return tuple(itertools.product(elements(model, ty.left), elements(model, ty.right)))
    if isinstance(ty, decolog.BaseType):
        return model.carriers[ty.name]
    return ("*",)


def canonical_inputs(model, dom) -> list:
    """Rank-2 inputs in the documented order: ok values then exceptions,
    or (value, state) pairs with the value slowest."""
    values = elements(model, dom)
    if model.effect is decolog.EffectKind.EXCEPTIONS:
        return [("ok", a) for a in values] + [("exc", e) for e in model.effect_carrier]
    return [(a, st) for a in values for st in model.effect_carrier]


def disagree(strength, effect, x, lv, rv) -> bool:
    if strength is decolog.Strength.STRONG:
        return lv != rv
    if effect is decolog.EffectKind.EXCEPTIONS:
        return x[0] == "ok" and lv != rv
    return lv[0] != rv[0]


@dataclass
class Proof:
    text: str
    duality: object
    dual: object


def mirror_goal(goal: str) -> str:
    """The goal across the exceptions/states mirror: every composite's
    factors in reverse order (only for goals without pairs)."""
    strength, rest = goal.split(" ", 1)
    op = " == " if " == " in rest else " ~ "
    sides = [" . ".join(reversed(side.split(" . "))) for side in rest.split(op)]
    return f"{strength} {sides[0]}{op}{sides[1]}"


class ProveVerify(_GoalWorkload):
    """prove at the default bounds; then print, parse and check the
    derivation, and dualize and check it where the theory allows."""

    def run(self, q):
        theory, eq, _ = q.data
        try:
            found = decolog.prove(theory, eq)
        except decolog.DepthExhausted:
            return None
        text = decolog.print_derivation(found)
        back = decolog.parse_derivation(text, theory)
        decolog.check_derivation(theory, back, expected=eq)
        try:
            mirror = decolog.duality_map(theory)
            image = decolog.dualize_derivation(mirror, back)
        except decolog.NotDualizable:
            return Proof(text, None, None)
        return Proof(text, mirror, image)

    def render(self, q, proof):
        if proof is None:
            return "not proved"
        dual = ("no dual" if proof.dual is None
                else f"dual\n{decolog.print_derivation(proof.dual)}")
        return f"proof\n{proof.text}\n{dual}"

    def check(self, q, proof):
        if proof is None:
            return []
        theory, _, goal = q.data
        problems = []
        again = decolog.print_derivation(decolog.parse_derivation(proof.text, theory))
        if again != proof.text:
            problems.append("derivation text does not survive a print/parse round trip")
        if proof.dual is not None:
            target = proof.duality.target
            expected = decolog.parse_equation(mirror_goal(goal["goal"]), target)
            try:
                decolog.check_derivation(target, proof.dual, expected=expected)
            except decolog.DeductionError as error:
                problems.append(f"dual derivation fails in the dual theory: {error}")
        return problems

    def decided(self, q, proof):
        return proof is not None if q.data[2]["derivable"] else None


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str


class CliModelCheck(Workload):
    """`decolog` child processes, one at a time, in the working directory
    that holds the corpus and the generated models.  Children fill no cache
    of this process, so the first timed pass is also the checked one."""
    warmup = False
    in_process = False

    def __init__(self, inputs, work, runtime):
        super().__init__(inputs, work, runtime)
        self.maxrss_kb = 0
        for command in inputs["commands"]:
            argv = command["argv"]
            files = [(work / a).read_text(encoding="utf-8") for a in argv
                     if (work / a).is_file()]
            self.queries.append(Query(digest(*argv, *files), " ".join(argv), command))

    def run(self, q):
        argv = [sys.executable, "-c", self.runtime.cli_code, *q.data["argv"]]
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            child = subprocess.Popen(argv, cwd=self.work, env=self.runtime.env,
                                     stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            # a hung child is killed and shows up as a wrong exit code
            killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return ChildResult(child.returncode,
                           (self.work / "stdout.txt").read_text(encoding="utf-8"),
                           (self.work / "stderr.txt").read_text(encoding="utf-8"))

    def run_in_process(self, q) -> tuple[float, str]:
        """cli.main on the same argv in this process: its time and output."""
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = cli.main(list(q.data["argv"]))
                elapsed = time.perf_counter() - start
        finally:
            os.chdir(here)
        return elapsed, self.render(q, ChildResult(code, out.getvalue(), err.getvalue()))

    def render(self, q, result):
        return f"exit {result.code}\n--- stdout\n{result.stdout}--- stderr\n{result.stderr}"

    def check(self, q, result):
        problems = []
        if result.code not in (0, 1, 2, 3):
            problems.append(f"exit code {result.code}")
        if "Traceback" in result.stderr:
            problems.append("traceback on stderr")
        expect = q.data.get("expect")
        if expect is not None:
            try:
                report = json.loads(result.stdout)
            except json.JSONDecodeError:
                return problems + ["stdout is not JSON"]
            got = {key: report.get(key) for key in expect}
            if got != expect or result.code != (0 if expect["holds"] else 1):
                problems.append(f"expected {expect}, got {got} (exit {result.code})")
        return problems

    def decided(self, q, result):
        return result.code in (0, 1)

    def peak_rss_mb(self) -> float:
        return self.maxrss_kb / 1024


WORKLOADS = {
    "rule-sweep": RuleSweep,
    "cex-search": CexSearch,
    "prove-verify": ProveVerify,
    "cli-model-check": CliModelCheck,
}


def run_query(workload: Workload, q: Query):
    """The query's raw answer, or a Crash: a failing query is counted, not
    allowed to stop the run."""
    try:
        return workload.run(q)
    except Exception:  # noqa: BLE001 - every failure is reported as wrong
        return Crash(traceback.format_exc())
