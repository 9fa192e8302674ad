"""Acceptance gate: one test per shipped criterion, each printing a single
ACCEPTANCE line so the release checklist can be read off a plain test run.

The criteria pin down end-to-end behavior: rank inference on the banking
example, the shipped proof and its model confirmations, strong/weak
separation, the rule soundness sweep, the low-rank collapse and
strong-implies-weak laws, exception propagation, the duality round-trip,
and the factoring invariant of rank-2 evaluation.
"""
import ast
import json
import random
import time

import gen
from decolog.calculus import EffectKind, rank_name, strong, weak
from decolog.cli import main
from decolog.duality import duality_map, dualize_derivation
from decolog.files import (
    corpus_path,
    parse_equation,
    parse_model,
    parse_term,
    parse_theory,
)
from decolog.semantics import (
    Bounds,
    FactoringInvariantError,
    enumerate_models,
    eval_term,
    holds,
)
from reference import is_ok, weak_equal

BANK = str(corpus_path("bank.dth"))
BANK_MODEL = str(corpus_path("bank_mod4.model"))
BANK_PROOF = str(corpus_path("bank_proof.drv"))

ST = EffectKind.STATES
EX = EffectKind.EXCEPTIONS


def announce(capsys, number, slug, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({slug}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({slug}) failed"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def low_rank_theory(effect, with_rank2=False):
    lines = [f"effect {effect}", "type A",
             "op c : Unit -> A pure",
             f"op u : A -> A {rank_name(effect, 1)}",
             f"op v : A -> A {rank_name(effect, 1)}"]
    if with_rank2:
        lines.append(f"op w : A -> A {rank_name(effect, 2)}")
    return parse_theory("\n".join(lines) + "\n")


class TestAcceptance:
    def test_1_decoration_ranks(self, capsys):
        code, out = run_cli(capsys, "check", BANK, "--json")
        data = json.loads(out)
        ranks = {d["name"]: d["rank"] for d in data["definitions"]}
        announce(capsys, 1, "decoration-ranks",
                 code == 0 and ranks == {"f": 2, "g": 1})

    def test_2_bank_theorem(self, capsys):
        vcode, vout = run_cli(capsys, "verify", BANK, BANK_PROOF)
        verified = (vcode == 0 and vout.strip() ==
                    "weak: balance∘deposit∘seven ≈ plus∘<seven,balance>")
        mcode, mout = run_cli(capsys, "model-check", BANK, BANK_MODEL,
                              "weak f ~ g")
        confirmed = mcode == 0 and mout.startswith("holds:")
        start = time.monotonic()
        ccode, cout = run_cli(capsys, "find-cex", BANK, "weak f ~ g",
                              "--max-carrier", "2")
        elapsed = time.monotonic() - start
        exhausted = (ccode == 1 and "no countermodel" in cout
                     and elapsed < 10.0)
        announce(capsys, 2, "bank-theorem",
                 verified and confirmed and exhausted)

    def test_3_strong_weak_separation(self, capsys):
        code, out = run_cli(capsys, "find-cex", BANK, "strong f == g",
                            "--json")
        data = json.loads(out)
        lhs = ast.literal_eval(data["lhs_value"])
        rhs = ast.literal_eval(data["rhs_value"])
        same_integer = lhs[0] == rhs[0]
        different_state = lhs[1] != rhs[1]
        announce(capsys, 3, "strong-weak-separation",
                 code == 0 and data["found"]
                 and same_integer and different_state)

    def test_4_rule_soundness_sweep(self, capsys):
        ok = True
        for effect, non_rule in ((ST, "weak_repl"), (EX, "weak_subst")):
            code, out = run_cli(capsys, "validate-rules", effect.value,
                                "--max-carrier", "2", "--json")
            data = json.loads(out)
            ok = ok and code == 0 and data["ok"]
            for row in data["results"]:
                if row["expectation"] == "sound":
                    ok = ok and row["violations"] == 0
                else:
                    ok = ok and row["violations"] >= 1
            ok = ok and any(row["rule"] == non_rule
                            and row["expectation"] == "countermodel"
                            and row["ok"]
                            for row in data["results"])
        announce(capsys, 4, "rule-soundness-sweep", ok)

    def test_5_low_rank_collapse(self, capsys):
        checks = 0
        violations = 0
        for effect in (ST, EX):
            theory = low_rank_theory(effect)
            pools = []
            for texts in (("id(A)", "u", "v", "u . u", "u . v",
                           "v . u", "v . v"),
                          ("c", "u . c", "v . c", "u . u . c",
                           "u . v . c", "v . u . c", "v . v . c")):
                pools.append([parse_term(s, theory) for s in texts])
            spot_checked = False
            for model in enumerate_models(theory, Bounds(2, 2)):
                values = [[eval_term(model, theory, t).mapping for t in pool]
                          for pool in pools]
                for pool_values in values:
                    for i, lm in enumerate(pool_values):
                        for rm in pool_values[i:]:
                            strongly = lm == rm
                            weakly = weak_equal(effect, lm, rm)
                            checks += 1
                            if strongly != weakly:
                                violations += 1
                if not spot_checked:
                    for pool in pools:
                        l, r = pool[1], pool[2]
                        assert (holds(model, theory, weak(l, r))
                                == holds(model, theory, strong(l, r)))
                    spot_checked = True
        announce(capsys, 5, "low-rank-collapse",
                 checks > 50000 and violations == 0)

    def test_6_strong_implies_weak(self, capsys):
        rng = random.Random(606)
        cases = 0
        violations = 0
        antecedent_hits = 0
        for effect in (ST, EX):
            theory = low_rank_theory(effect, with_rank2=True)
            pool = []
            while len(pool) < 600:
                dom = gen.declared_type(rng, theory)
                lhs, cod = gen.random_term(rng, theory, dom, depth=3)
                rhs = gen.term_between(rng, theory, dom, cod,
                                       depth=3, tries=8)
                if rhs is not None:
                    pool.append((lhs, rhs))
            for i, model in enumerate(enumerate_models(theory, Bounds(2, 2))):
                lhs, rhs = pool[i % len(pool)]
                cases += 1
                if holds(model, theory, strong(lhs, rhs)):
                    antecedent_hits += 1
                    if not holds(model, theory, weak(lhs, rhs)):
                        violations += 1
        announce(capsys, 6, "strong-implies-weak",
                 cases >= 1000 and antecedent_hits > 0 and violations == 0)

    def test_7_exception_propagation(self, capsys):
        theory = parse_theory("effect exceptions\ntype A\n"
                              "op t : A -> A propagator\n"
                              "op g : A -> A propagator\n")
        law = parse_equation("strong g . t == t", theory)
        raising_models = 0
        violations = 0
        for model in enumerate_models(theory, Bounds(2, 2)):
            always_raises = all(not is_ok(y)
                                for y in model.tables["t"].mapping.values())
            if not always_raises:
                continue
            raising_models += 1
            if not holds(model, theory, law):
                violations += 1
        tc_theory = parse_theory(corpus_path("throwcatch.dth").read_text())
        tc_model = parse_model(
            corpus_path("throwcatch_mod2.model").read_text(), tc_theory)
        catcher_breaks_it = not holds(
            tc_model, tc_theory,
            parse_equation("strong catchZero . throw == throw", tc_theory))
        announce(capsys, 7, "exception-propagation",
                 raising_models == 81 and violations == 0
                 and catcher_breaks_it)

    def test_8_duality_round_trip(self, capsys):
        rng = random.Random(808)
        checked = 0
        for _ in range(100):
            theory = gen.random_theory(rng, ST, products=False, n_axioms=2)
            d = gen.random_derivation(rng, theory, products=False)
            mapping = duality_map(theory)
            assert mapping.target.effect is EX
            image = dualize_derivation(mapping, d)
            back = dualize_derivation(duality_map(mapping.target), image)
            assert back == d
            checked += 1
        announce(capsys, 8, "duality-round-trip", checked >= 100)

    def test_9_factoring_invariant(self, capsys):
        rng = random.Random(909)
        checked = 0
        violations = 0
        for round_ in range(100):
            effect = ST if round_ % 2 == 0 else EX
            theory = gen.random_theory(rng, effect, n_ops=4)
            for _ in range(10):
                model = gen.random_model(rng, theory)
                dom = gen.declared_type(rng, theory)
                term, _ = gen.random_term(rng, theory, dom,
                                          depth=3, max_rank=1)
                checked += 1
                try:
                    table = eval_term(model, theory, term)
                except FactoringInvariantError:
                    violations += 1
                    continue
                for x, y in table.mapping.items():
                    if effect is ST:
                        if y[1] != x[1]:
                            violations += 1
                    elif not is_ok(x) and y != x:
                        violations += 1
        announce(capsys, 9, "factoring-invariant",
                 checked >= 1000 and violations == 0)
