"""Per-module counters and timers for a traced benchmark pass.

Nothing under src/ is instrumented.  The tracer wraps public functions (and
the per-scenario boundary of the rule sweep) from outside, rebinding every
name under which a decolog module holds the function, so calls between
modules and recursive calls inside one module are both seen.  Time is
counted for the outermost call of each function only, so recursion is not
counted twice.  A function that a later version of the library no longer
has is simply not traced, and its metrics read 0.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Every rule-sweep scenario as (effect, rule, expectation), in the order
#: validate_rules reports them.
SWEEP_SCENARIOS = tuple(
    [("exceptions", rule, exp) for rule, exp in (
        ("refl", "sound"), ("sym", "sound"), ("trans_weak", "sound"),
        ("weak_to_strong_lowrank", "sound"),
        ("weak_to_strong_lowrank", "countermodel"), ("subst_strong", "sound"),
        ("pair_proj", "sound"), ("pair_cong_strong", "sound"),
        ("pair_comp_lowrank", "sound"), ("weak_subst", "sound"),
        ("weak_subst", "countermodel"), ("weak_repl", "sound"),
        ("unit_strong_lowrank", "sound"), ("unit_strong_lowrank", "countermodel"),
        ("unit_weak", "sound"), ("unit_weak", "countermodel"))]
    + [("states", rule, exp) for rule, exp in (
        ("refl", "sound"), ("sym", "sound"), ("trans_weak", "sound"),
        ("weak_to_strong_lowrank", "sound"),
        ("weak_to_strong_lowrank", "countermodel"), ("subst_strong", "sound"),
        ("pair_proj", "sound"), ("pair_cong_strong", "sound"),
        ("pair_comp_lowrank", "sound"), ("weak_subst", "sound"),
        ("weak_repl", "sound"), ("weak_repl", "countermodel"),
        ("unit_strong_lowrank", "sound"), ("unit_strong_lowrank", "countermodel"),
        ("unit_weak", "sound"))])

EFFECTS = ("exceptions", "states")


def sweep_metric(effect: str, rule: str, expectation: str) -> str:
    return f"deduction.sweep.{effect}.{rule}.{expectation}_s"


#: Per-layer metrics a traced run prints, with their units.
PER_LAYER_UNITS = {
    "cli.startup_ms": "ms",
    "files.parse_model_ms": "ms",
    "files.parse_model_lines_per_s": "1/s",
    "files.parse_theory_ms": "ms",
    "files.parse_equation_ms": "ms",
    "files.parse_derivation_ms": "ms",
    "files.print_derivation_ms": "ms",
    "calculus.analyze_term_calls": "count",
    "calculus.analyze_term_s": "s",
    **{sweep_metric(*sc): "s" for sc in SWEEP_SCENARIOS},
    **{f"deduction.sweep.{e}.combos": "count" for e in EFFECTS},
    **{f"deduction.sweep.{e}.combos_per_s": "1/s" for e in EFFECTS},
    "deduction.prove_s": "s",
    "deduction.check_derivation_s": "s",
    "semantics.models_visited": "count",
    "semantics.models_admitted": "count",
    "semantics.admit_ratio": "ratio",
    "semantics.eval_term_calls": "count",
    "semantics.models_per_s": "1/s",
    "semantics.holds_ms": "ms",
    "semantics.cells_per_s": "1/s",
    "semantics.validate_model_ms": "ms",
    "duality.dualize_theory_ms": "ms",
    "duality.dualize_derivation_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Install with `with Tracer() as t:`; read t.metrics(...) afterwards."""

    # (module, function, follow every alias in other decolog modules)
    TIMED = (
        ("files", "parse_model", True), ("files", "parse_theory", True),
        ("files", "parse_equation", True), ("files", "parse_derivation", True),
        ("files", "print_derivation", True),
        ("calculus", "analyze_term", True),
        ("deduction", "prove", True), ("deduction", "check_derivation", True),
        ("deduction", "_run_scenario", False),
        ("semantics", "eval_term", True), ("semantics", "holds", True),
        ("semantics", "validate_model", True),
        ("semantics", "find_counterexample", True),
        # called once per axiom-satisfying candidate inside the search
        ("semantics", "violation_witness", False),
        ("duality", "dualize_theory", True), ("duality", "dualize_derivation", True),
    )

    def __init__(self):
        self.calls: Counter = Counter()      # every call, recursive ones too
        self.outer: Counter = Counter()      # calls not made from inside the same function
        self.seconds: Counter = Counter()    # time inside outer calls
        self.depth: Counter = Counter()
        self.lines = 0
        self.cells = 0
        self.visited = 0
        self.scenarios: dict[tuple[str, str, str], tuple[float, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, name, aliases in self.TIMED:
            self._patch(module, name, aliases, self._timed(f"{module}.{name}"))
        self._patch("semantics", "_candidates", False, self._counted)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module: str, name: str, aliases: bool, make) -> None:
        home = sys.modules.get(f"decolog.{module}")
        original = getattr(home, name, None)
        if original is None:
            return
        wrapper = make(original)
        targets = [m for n, m in sorted(sys.modules.items())
                   if n == "decolog" or n.startswith("decolog.")] if aliases else [home]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def _timed(self, key: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[key] += 1
                outer = self.depth[key] == 0
                self.depth[key] += 1
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.depth[key] -= 1
                elapsed = time.perf_counter() - start
                if outer:
                    self.outer[key] += 1
                    self.seconds[key] += elapsed
                self._observe(key, args, result, elapsed)
                return result
            return wrapper
        return make

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.visited += 1
                yield item
        return wrapper

    def _observe(self, key: str, args: tuple, result, elapsed: float) -> None:
        if key == "files.parse_model" and args:
            self.lines += args[0].count("\n") + 1
        elif key == "semantics.eval_term":
            self.cells += len(result.mapping)
        elif key == "deduction._run_scenario":
            name = (result.effect.value, result.rule, result.expectation)
            self.scenarios[name] = (elapsed, result.models_checked)

    def metrics(self, queries: int, overhead_ratio: float,
                startup_ms: float = 0.0) -> dict[str, float]:
        def ms(key: str) -> float:
            return 1000 * self.seconds[key] / self.outer[key] if self.outer[key] else 0.0

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds else 0.0

        admitted = self.calls["semantics.violation_witness"]
        out = {
            "cli.startup_ms": startup_ms,
            "files.parse_model_ms": ms("files.parse_model"),
            "files.parse_model_lines_per_s": rate(self.lines, self.seconds["files.parse_model"]),
            "files.parse_theory_ms": ms("files.parse_theory"),
            "files.parse_equation_ms": ms("files.parse_equation"),
            "files.parse_derivation_ms": ms("files.parse_derivation"),
            "files.print_derivation_ms": ms("files.print_derivation"),
            "calculus.analyze_term_calls": self.calls["calculus.analyze_term"] / queries,
            "calculus.analyze_term_s": self.seconds["calculus.analyze_term"],
        }
        for sc in SWEEP_SCENARIOS:
            out[sweep_metric(*sc)] = self.scenarios.get(sc, (0.0, 0))[0]
        for effect in EFFECTS:
            mine = [v for k, v in self.scenarios.items() if k[0] == effect]
            combos = sum(n for _, n in mine)
            out[f"deduction.sweep.{effect}.combos"] = combos
            out[f"deduction.sweep.{effect}.combos_per_s"] = rate(combos, sum(t for t, _ in mine))
        out.update({
            "deduction.prove_s": self.seconds["deduction.prove"],
            "deduction.check_derivation_s": self.seconds["deduction.check_derivation"],
            "semantics.models_visited": self.visited,
            "semantics.models_admitted": admitted,
            "semantics.admit_ratio": admitted / self.visited if self.visited else 0.0,
            "semantics.eval_term_calls": self.calls["semantics.eval_term"],
            "semantics.models_per_s": rate(self.visited,
                                           self.seconds["semantics.find_counterexample"]),
            "semantics.holds_ms": ms("semantics.holds"),
            "semantics.cells_per_s": rate(self.cells, self.seconds["semantics.eval_term"]),
            "semantics.validate_model_ms": ms("semantics.validate_model"),
            "duality.dualize_theory_ms": ms("duality.dualize_theory"),
            "duality.dualize_derivation_ms": ms("duality.dualize_derivation"),
            "trace.overhead_ratio": overhead_ratio,
        })
        return out
