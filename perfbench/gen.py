"""Seeded workload inputs for the decolog benchmark.

Standard library only, and nothing from decolog: the inputs depend on the
seed and on the shipped corpus files, never on the library's own code, so a
change to the library (or to tests/gen.py) cannot change the workload.

    python3 perfbench/gen.py --workload cex-search --seed 3 \
        --corpus src/decolog/corpus --out DIR

writes DIR/inputs.json and, for cli-model-check, copies of the corpus files
and the generated models the CLI children read.  Terms are kept as lists of
operation names in application order (first applied first);
Renaming.term renders them in the surface syntax, where `f . g` applies g
first.
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
import shutil
from pathlib import Path

WORKLOADS = ("rule-sweep", "cex-search", "prove-verify", "cli-model-check")

#: Carrier bound of the library's default Bounds(); interpretation counts
#: below are taken at this bound.
MAX_CARRIER = 2

CORPUS_FILES = ("bank.dth", "bank_mod4.model", "bank_proof.drv",
                "throwcatch.dth", "throwcatch_mod2.model",
                "throwcatch_proof.drv")

#: Corpus goals with a known derivation (the shipped proofs and their parts).
CORPUS_DERIVABLE = (
    ("bank", "weak f ~ g"),
    ("throwcatch", "weak catchZero . catchZero . throw ~ zero"),
    ("throwcatch", "weak catchZero . throw ~ zero"),
    ("throwcatch", "weak catchZero . zero ~ zero"),
)

#: Corpus goals that are false in some small model.
CORPUS_REFUTABLE = (
    ("bank", "strong f == g"),
    ("bank", "strong balance . deposit == plus . <id(Int), balance . bang(Int)>"),
    ("throwcatch", "strong catchZero == id(Int)"),
    ("throwcatch", "weak catchZero . throw ~ throw"),
)


Equation = tuple  # (strength, lhs, rhs, dom); sides in application order


def equation_text(strength: str, lhs: str, rhs: str) -> str:
    return f"{strength} {lhs} {'==' if strength == 'strong' else '~'} {rhs}"


# ---------------------------------------------------------------------------
# Random theories
# ---------------------------------------------------------------------------

class Signature:
    """A random theory: one effect, base types, ops (name, dom, cod, rank)
    and axioms (strength, lhs, rhs, dom).  Every type is a base type or
    Unit; terms are plain composites of operations."""

    def __init__(self, effect: str, types: list[str], ops: list[tuple]):
        self.effect = effect
        self.types = types
        self.ops = ops
        self.rank = {name: rank for name, _, _, rank in ops}
        self.codomain = {name: cod for name, _, cod, _ in ops}
        self.axioms: list[Equation] = []

    def cod(self, seq: list[str], dom: str) -> str:
        return self.codomain[seq[-1]] if seq else dom

    def chain(self, rng: random.Random, dom: str, length: int) -> list[str]:
        """A random composite out of dom with up to `length` factors."""
        seq: list[str] = []
        at = dom
        for _ in range(length):
            options = [op for op in self.ops if op[1] == at]
            if not options:
                break
            name, _, at, _ = rng.choice(options)
            seq.append(name)
        return seq

    def between(self, rng: random.Random, dom: str, cod: str, length: int,
                tries: int = 60) -> list[str] | None:
        for _ in range(tries):
            seq = self.chain(rng, dom, rng.randint(0, length))
            if self.cod(seq, dom) == cod:
                return seq
        return None

    def random_equation(self, rng: random.Random, max_len: int = 3,
                        min_len: int = 1) -> Equation | None:
        dom = rng.choice([op[1] for op in self.ops])
        lhs = self.chain(rng, dom, rng.randint(min_len, max_len))
        if not lhs:
            return None
        rhs = self.between(rng, dom, self.cod(lhs, dom), max_len)
        if rhs is None or rhs == lhs:
            return None
        return rng.choice(("strong", "weak")), lhs, rhs, dom

    def interpretations(self) -> int:
        """Raw interpretation count at carriers up to MAX_CARRIER, counted
        the way the library's enumeration counts it."""
        sizes = range(1, MAX_CARRIER + 1)
        total = 0
        for base in itertools.product(sizes, repeat=len(self.types)):
            size = dict(zip(self.types, base), Unit=1)
            for e in sizes:
                n = 1
                for _, dom, cod, rank in self.ops:
                    d, c = size[dom], size[cod]
                    if rank == 0:
                        n_in, n_out = d, c
                    elif self.effect == "exceptions":
                        n_in, n_out = (d if rank == 1 else d + e), c + e
                    else:
                        n_in, n_out = d * e, (c if rank == 1 else c * e)
                    n *= n_out ** n_in
                total += n
        return total

    def rewrite_goal(self, rng: random.Random, steps: int,
                     max_start: int = 5) -> Equation | None:
        """A goal derivable by construction: a composite with an axiom side
        inside, rewritten up to `steps` times by axioms in contexts the
        congruence rules allow, never returning to a term already reached.  Weak rewrites need a pure context on the
        side the weak premise says nothing about: the factors applied
        before the window under exceptions, after it under states."""
        if not self.axioms:
            return None
        _, lhs, rhs, dom = rng.choice(self.axioms)
        side = rng.choice([s for s in (lhs, rhs) if s])
        start_dom = rng.choice(sorted({op[1] for op in self.ops}))
        before = self.between(rng, start_dom, dom, 2)
        if before is None:
            start_dom, before = dom, []
        start = before + side
        start += self.chain(rng, self.cod(start, start_dom),
                            rng.randint(0, max(0, max_start - len(start))))
        seq, weak = list(start), False
        seen = {tuple(seq)}
        for _ in range(steps):
            moves = [(nxt, is_weak) for i, j, dst, is_weak in self._moves(seq)
                     if tuple(nxt := seq[:i] + dst + seq[j:]) not in seen]
            if not moves:
                break
            seq, is_weak = rng.choice(moves)
            seen.add(tuple(seq))
            weak = weak or is_weak
        if seq == start:
            return None
        return ("weak" if weak or rng.random() < 0.3 else "strong"), start, seq, start_dom

    def _moves(self, seq: list[str]) -> list[tuple[int, int, list[str], bool]]:
        moves = []
        for strength, lhs, rhs, _ in self.axioms:
            weak = strength == "weak"
            for src, dst in ((lhs, rhs), (rhs, lhs)):
                n = len(src)
                if not n:
                    continue
                for i in range(len(seq) - n + 1):
                    if seq[i:i + n] != src:
                        continue
                    if weak and not self._weak_context_ok(seq[:i], seq[i + n:]):
                        continue
                    moves.append((i, i + n, list(dst), weak))
        return moves

    def _weak_context_ok(self, before: list[str], after: list[str]) -> bool:
        context = before if self.effect == "exceptions" else after
        return all(self.rank[name] == 0 for name in context)


def random_signature(rng: random.Random, types: list[str], n_ops: int,
                     dom_choices: list[str], cod_choices: list[str]) -> Signature:
    effect = rng.choice(("exceptions", "states"))
    ops = [(f"f{i}", rng.choice(dom_choices), rng.choice(cod_choices),
            rng.randint(0, 2)) for i in range(n_ops)]
    return Signature(effect, types, ops)


def add_axioms(rng: random.Random, sig: Signature, count: int) -> None:
    tries = 0
    while len(sig.axioms) < count and tries < 50:
        tries += 1
        eq = sig.random_equation(rng, max_len=2)
        if eq is not None:
            sig.axioms.append(eq)


class Renaming:
    """Fresh names for a signature's operations and base types.  Searches
    in the library follow declaration order, never names, so a renamed
    theory costs exactly what the original does."""

    def __init__(self, rng: random.Random, sig: Signature):
        letters = "abcdeghjkmnqrsuvwxyz"
        ops = rng.sample([a + b for a in letters for b in letters], len(sig.ops))
        types = rng.sample([f"T{a}" for a in letters.upper()], len(sig.types))
        self.names = dict(zip([op[0] for op in sig.ops], ops))
        self.names.update(zip(sig.types, types))

    def term(self, seq: list[str], dom: str) -> str:
        if not seq:
            return f"id({self.names.get(dom, dom)})"
        return " . ".join(self.names[name] for name in reversed(seq))

    def equation(self, eq: Equation, flip: bool = False) -> str:
        strength, lhs, rhs, dom = eq
        sides = (self.term(lhs, dom), self.term(rhs, dom))
        return equation_text(strength, *(sides[::-1] if flip else sides))

    def theory(self, sig: Signature, flips: list[bool]) -> str:
        keywords = (("pure", "propagator", "catcher") if sig.effect == "exceptions"
                    else ("pure", "observer", "modifier"))
        n = self.names
        lines = [f"effect {sig.effect}"]
        lines += [f"type {n[t]}" for t in sig.types]
        lines += [f"op {n[name]} : {n.get(dom, dom)} -> {n.get(cod, cod)} {keywords[rank]}"
                  for name, dom, cod, rank in sig.ops]
        lines += [f"axiom {self.equation(ax, flip)}" for ax, flip in zip(sig.axioms, flips)]
        return "\n".join(lines) + "\n"


def corpus_theories(corpus: Path) -> dict[str, str]:
    return {name: (corpus / f"{name}.dth").read_text(encoding="utf-8")
            for name in ("bank", "throwcatch")}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
#
# A run's figures are compared across seeds, so a seed must not change what
# a run costs.  cex-search and prove-verify therefore draw their theories and
# goals once, from a fixed base seed, and the run seed only renames every
# operation and base type (and, for countermodel search, which side of each
# equation comes first).  The searches follow declaration order, so the
# renamed inputs take the same path as the base ones.

def _base_rng(workload: str) -> random.Random:
    return random.Random(f"{workload}/base")


def gen_cex_search(rng: random.Random, corpus: Path) -> dict:
    """Corpus goals plus random theories with 0-3 axioms and 200-4000 raw
    interpretations.  Random goals mostly meet an early countermodel;
    goals derivable from the axioms are searched to exhaustion."""
    base = _base_rng("cex-search")
    theories = corpus_theories(corpus)
    goals = [{"theory": t, "goal": g, "derivable": True} for t, g in CORPUS_DERIVABLE]
    goals += [{"theory": t, "goal": g, "derivable": False} for t, g in CORPUS_REFUTABLE]
    while len(theories) < 2 + 24:
        types = ["A"] if base.random() < 0.7 else ["A", "B"]
        sig = random_signature(base, types, base.randint(2, 4),
                               types + ["Unit"], types + ["Unit"])
        if not 200 <= sig.interpretations() <= 4000:
            continue
        add_axioms(base, sig, base.randint(0, 3))
        picked = []
        for _ in range(12):
            eq = sig.random_equation(base)
            if eq is not None:
                picked.append((eq, False))
            if len(picked) == 4:
                break
        derived = sig.rewrite_goal(base, base.randint(1, 3))
        if derived is not None:
            picked.append((derived, True))
        if not picked:
            continue
        name = f"t{len(theories)}"
        names = Renaming(rng, sig)
        theories[name] = names.theory(sig, [rng.random() < 0.5 for _ in sig.axioms])
        goals += [{"theory": name, "goal": names.equation(eq, rng.random() < 0.5),
                   "derivable": derivable} for eq, derivable in picked]
    return {"theories": theories, "goals": goals}


def gen_prove_verify(rng: random.Random, corpus: Path) -> dict:
    """Corpus goals, goals derivable only through several rewrites, and
    random pairs that send the prover to its node bound.  Random theories
    avoid Unit and products, so every one of them is dualizable."""
    base = _base_rng("prove-verify")
    theories = corpus_theories(corpus)
    goals = [{"theory": t, "goal": g, "derivable": True} for t, g in CORPUS_DERIVABLE]
    goals.append({"theory": "bank", "goal": "strong f == g", "derivable": False})
    while len(theories) < 2 + 16:
        types = ["A"] if base.random() < 0.6 else ["A", "B"]
        sig = random_signature(base, types, base.randint(3, 4), types, types)
        add_axioms(base, sig, base.randint(3, 5))
        if len(sig.axioms) < 2:
            continue
        picked: list[tuple[Equation, bool]] = []
        for steps, start in ((4, 5), (6, 7), (9, 7), (14, 10), (25, 10)):
            for _ in range(20):
                goal = sig.rewrite_goal(base, steps, max_start=start)
                if goal is not None and (goal, True) not in picked:
                    picked.append((goal, True))
                    break
        for _ in range(20):
            eq = sig.random_equation(base, max_len=5, min_len=3)
            if eq is not None:
                picked.append((eq, False))
            if len(picked) == 6:
                break
        name = f"t{len(theories)}"
        names = Renaming(rng, sig)
        theories[name] = names.theory(sig, [False] * len(sig.axioms))
        goals += [{"theory": name, "goal": names.equation(eq), "derivable": derivable}
                  for eq, derivable in picked]
    return {"theories": theories, "goals": goals}


class BankModel:
    """The bank theory over Z_k: seven is c, plus adds, balance reads the
    state, and deposit adds its argument and a fee d to the state.  Int
    values and states carry seeded labels (permutations of 0..k-1), so the
    table text and the first violation change with the seed while the
    model's size, and so the cost of checking it, does not."""

    def __init__(self, k: int, c: int, value_label: list[int],
                 state_label: list[int], d: int = 0):
        self.k, self.c, self.d = k, c, d
        self.value_label = value_label
        self.state_label = state_label
        self.value_of = {lab: v for v, lab in enumerate(value_label)}
        self.state_of = {lab: s for s, lab in enumerate(state_label)}

    @classmethod
    def drawn(cls, rng: random.Random, k: int) -> "BankModel":
        return cls(k, rng.randint(1, k - 1), rng.sample(range(k), k), rng.sample(range(k), k))

    def label(self, out: tuple) -> tuple:
        value, state = out
        return (value if value == "*" else self.value_label[value],
                self.state_label[state])

    def text(self) -> str:
        k, lab, st = self.k, self.value_label, self.state_label
        labels = range(k)
        elems = ", ".join(str(i) for i in labels)
        lines = [f"effectcarrier = {{{elems}}}", f"carrier Int = {{{elems}}}",
                 "table seven", f"  * -> {lab[self.c]}", "table plus"]
        lines += [f"  ({a}, {b}) -> {lab[(self.value_of[a] + self.value_of[b]) % k]}"
                  for a in labels for b in labels]
        lines.append("table balance")
        lines += [f"  (*, {s}) -> {lab[self.state_of[s]]}" for s in labels]
        lines.append("table deposit")
        lines += [f"  ({a}, {s}) -> (*, "
                  f"{st[(self.value_of[a] + self.state_of[s] + self.d) % k]})"
                  for a in labels for s in labels]
        return "\n".join(lines) + "\n"


def _deposit_then_read(m: BankModel, amount: int, s: int) -> tuple:
    after = (amount + s + m.d) % m.k
    return after, after


# Bank equations checked in the large models: the goal, its domain, and its
# two sides as functions (input, state) -> (value, state) on unlabelled
# elements.  `holds` says which fees make the equation true.
BANK_EQUATIONS = (
    ("weak f ~ g", "Unit",
     lambda x, s, m: _deposit_then_read(m, m.c, s),
     lambda x, s, m: ((m.c + s) % m.k, s)),
    ("strong f == g", "Unit",
     lambda x, s, m: _deposit_then_read(m, m.c, s),
     lambda x, s, m: ((m.c + s) % m.k, s)),
    ("weak balance . deposit ~ plus . <id(Int), balance . bang(Int)>", "Int",
     lambda x, s, m: _deposit_then_read(m, x, s),
     lambda x, s, m: ((x + s) % m.k, s)),
    ("strong balance . deposit == plus . <id(Int), balance . bang(Int)>", "Int",
     lambda x, s, m: _deposit_then_read(m, x, s),
     lambda x, s, m: ((x + s) % m.k, s)),
    ("weak balance . deposit . plus ~ plus . <plus, balance . bang(Int * Int)>",
     "Int * Int",
     lambda x, s, m: _deposit_then_read(m, x[0] + x[1], s),
     lambda x, s, m: ((x[0] + x[1] + s) % m.k, s)),
    ("strong deposit . seven == id(Unit)", "Unit",
     lambda x, s, m: ("*", (m.c + s + m.d) % m.k),
     lambda x, s, m: ("*", s)),
)


def holding_fee(eq_index: int, m: BankModel) -> int | None:
    """The fee that makes the equation hold, or None if none does."""
    if BANK_EQUATIONS[eq_index][0].startswith("weak"):
        return 0
    if eq_index == len(BANK_EQUATIONS) - 1:
        return (m.k - m.c) % m.k
    return None


def element_text(e) -> str:
    if isinstance(e, tuple):
        return "(" + ", ".join(element_text(x) for x in e) + ")"
    return str(e)


def expected_model_check(eq_index: int, m: BankModel) -> dict:
    """Verdict and first violation in the library's canonical order (input
    slowest, then state, each in carrier order), computed straight from the
    model's definition."""
    goal, dom, lhs, rhs = BANK_EQUATIONS[eq_index]
    weak = goal.startswith("weak")
    labels = range(m.k)
    inputs = {"Unit": ["*"], "Int": list(labels),
              "Int * Int": list(itertools.product(labels, repeat=2))}[dom]
    for x_label in inputs:
        x = (x_label if x_label == "*" else
             tuple(m.value_of[a] for a in x_label) if isinstance(x_label, tuple)
             else m.value_of[x_label])
        for s_label in labels:
            s = m.state_of[s_label]
            lv, rv = m.label(lhs(x, s, m)), m.label(rhs(x, s, m))
            if (lv[0] != rv[0]) if weak else (lv != rv):
                return {"holds": False, "witness": element_text((x_label, s_label)),
                        "lhs_value": element_text(lv), "rhs_value": element_text(rv)}
    return {"holds": True}


#: Commands over the shipped corpus, run with the corpus files in the
#: working directory.  validate-rules runs at carrier 1 here; the full
#: sweep is the rule-sweep workload.
CORPUS_COMMANDS = (
    ["check", "bank.dth"],
    ["check", "--json", "throwcatch.dth"],
    ["decorate", "bank.dth", "f"],
    ["decorate", "bank.dth", "g"],
    ["decorate", "--json", "throwcatch.dth", "catchZero . throw"],
    ["verify", "bank.dth", "bank_proof.drv"],
    ["verify", "--json", "throwcatch.dth", "throwcatch_proof.drv"],
    ["prove", "bank.dth", "weak f ~ g"],
    ["prove", "--json", "throwcatch.dth", "weak catchZero . catchZero . throw ~ zero"],
    ["model-check", "bank.dth", "bank_mod4.model", "strong f == g"],
    ["model-check", "bank.dth", "bank_mod4.model", "weak f ~ g"],
    ["model-check", "--json", "throwcatch.dth", "throwcatch_mod2.model",
     "weak catchZero . throw ~ zero"],
    ["find-cex", "bank.dth", "strong f == g"],
    ["find-cex", "bank.dth", "weak f ~ g"],
    ["find-cex", "--json", "throwcatch.dth", "strong catchZero == id(Int)"],
    ["dualize", "throwcatch.dth"],
    ["dualize", "bank.dth"],
    ["validate-rules", "exceptions", "--max-carrier", "1"],
    ["validate-rules", "states", "--max-carrier", "1"],
)


def gen_cli_model_check(rng: random.Random, corpus: Path, out: Path) -> dict:
    """Every command on the shipped corpus, plus model-check on large bank
    models over Z_k with k from 8 to 32.  The base seed fixes each check's
    modulus, equation and verdict; the run seed draws the labels, seven's
    value and the fee that gives that verdict."""
    for name in CORPUS_FILES:
        shutil.copyfile(corpus / name, out / name)
    commands = [{"argv": list(argv)} for argv in CORPUS_COMMANDS]
    base = _base_rng("cli-model-check")
    models = []
    for slot in range(10):
        k = base.randint(8, 32)
        eq_index = base.randrange(len(BANK_EQUATIONS))
        want_holds = base.random() < 0.5
        m = BankModel.drawn(rng, k)
        fee = holding_fee(eq_index, m)
        if want_holds and fee is not None:
            m.d = fee
        else:
            m.d = rng.choice([d for d in range(k) if d != fee])
        name = f"bank_z{k}_{slot}.model"
        (out / name).write_text(m.text(), encoding="utf-8")
        models.append(name)
        commands.append({
            "argv": ["model-check", "--json", "bank.dth", name,
                     BANK_EQUATIONS[eq_index][0]],
            "expect": expected_model_check(eq_index, m)})
    return {"models": models, "commands": commands}


def generate(workload: str, seed: int, corpus: Path, out: Path) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "rule-sweep":
        body = {"effects": ["exceptions", "states"]}
    elif workload == "cex-search":
        body = gen_cex_search(rng, corpus)
    elif workload == "prove-verify":
        body = gen_prove_verify(rng, corpus)
    else:
        body = gen_cli_model_check(rng, corpus, out)
    return {"workload": workload, "seed": seed, **body}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus", type=Path, required=True,
                        help="directory of the shipped corpus files")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, args.corpus, args.out)
    (args.out / "inputs.json").write_text(json.dumps(inputs, indent=1),
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
