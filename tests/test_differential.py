"""The numbered kernel against the label-dict reference in reference.py.

Every comparison runs both implementations on the same input: eval_term on
each axiom and goal side, first_violation, find_counterexample (model text,
witness and both values) and the full list of enumerate_models.  The inputs
are the shipped corpus and a seeded batch of random theories from gen.py,
all at carrier sizes of at most 2.
"""
import random

import pytest

import gen
import reference
from decolog.calculus import Axiom, DecoratedEquation, EffectKind, Strength, Theory, term_str
from decolog.files import corpus_path, parse_equation, parse_model, parse_theory, print_model
from decolog.semantics import (
    Bounds,
    count_interpretations,
    enumerate_models,
    eval_term,
    find_counterexample,
    first_violation,
)

#: Largest raw interpretation count a generated case may have, so that the
#: reference search keeps the whole module to a few seconds.
CASE_CEILING = 600

CORPUS = {
    "bank": ("bank.dth", "bank_mod4.model", (
        "weak f ~ g",
        "strong f == g",
        "strong balance . deposit == plus . <id(Int), balance . bang(Int)>",
        "weak seven . bang(Int) ~ balance . bang(Int)",
        "strong p1(Int, Int) . <seven, balance> == seven",
        "weak deposit . plus . <balance, seven> ~ deposit . seven",
    )),
    "throwcatch": ("throwcatch.dth", "throwcatch_mod2.model", (
        "strong catchZero . throw == zero",
        "weak catchZero . catchZero ~ id(Int)",
        "strong catchZero == id(Int)",
        "weak throw ~ zero",
        "strong catchZero . zero == zero",
    )),
}


def _report(cex):
    if cex is None:
        return None
    return print_model(cex.model), cex.equation, cex.witness, cex.lhs_value, cex.rhs_value


def _sides(theory, goal):
    for eq in [ax.equation for ax in theory.axioms] + [goal]:
        yield eq.lhs
        yield eq.rhs


def _assert_same_evaluation(model, theory, goal):
    for term in _sides(theory, goal):
        assert (eval_term(model, theory, term).mapping
                == reference.eval_term(model, theory, term).mapping)
    assert first_violation(model, theory, goal) == reference.first_violation(model, theory, goal)


def _assert_same_search(theory, goal, bounds):
    """Both searches agree; returns the models and whether a countermodel
    was found."""
    models = list(enumerate_models(theory, bounds))
    assert models == list(reference.enumerate_models(theory, bounds))
    found = _report(find_counterexample(theory, goal, bounds))
    assert found == _report(reference.find_counterexample(theory, goal, bounds))
    return models, found is not None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus(name):
    theory_file, model_file, goals = CORPUS[name]
    theory = parse_theory(corpus_path(theory_file).read_text())
    shipped = parse_model(corpus_path(model_file).read_text(), theory)
    for text in goals:
        goal = parse_equation(text, theory)
        models, _ = _assert_same_search(theory, goal, Bounds(2, 2))
        for model in [shipped] + models[:40]:
            _assert_same_evaluation(model, theory, goal)


def _equation(rng, theory):
    """A random equation out of some operation's domain whose sides differ
    and call at least one operation (gen.py names them op0, op1, ...), or
    None when the draw misses."""
    dom = rng.choice(theory.operations).dom
    lhs, cod = gen.random_term(rng, theory, dom, depth=3)
    rhs = gen.term_between(rng, theory, dom, cod, depth=3)
    if rhs is None or rhs == lhs or "op" not in term_str(lhs) + term_str(rhs):
        return None
    return DecoratedEquation(rng.choice(list(Strength)), lhs, rhs)


def _random_case(rng, effect):
    """A random theory with one axiom, a goal over it, and the largest
    bounds up to carrier 2 whose raw interpretation count stays under
    CASE_CEILING; None when the draw misses or even carrier 1 is too
    large."""
    theory = gen.random_theory(rng, effect, n_ops=rng.randint(1, 3))
    axiom, goal = _equation(rng, theory), _equation(rng, theory)
    if axiom is None or goal is None:
        return None
    theory = Theory(effect, theory.base_types, theory.operations, (Axiom("ax0", axiom),))
    for base, eff in ((2, 2), (1, 2), (1, 1)):
        bounds = Bounds(base, eff)
        if count_interpretations(theory, bounds) <= CASE_CEILING:
            return theory, goal, bounds
    return None


@pytest.mark.parametrize("effect", list(EffectKind))
def test_random_theories(effect):
    rng = random.Random(2024 if effect is EffectKind.STATES else 4202)
    cases = found = filtered = 0
    while cases < 40:
        case = _random_case(rng, effect)
        if case is None:
            continue
        theory, goal, bounds = case
        models, refuted = _assert_same_search(theory, goal, bounds)
        for model in models[:5]:
            _assert_same_evaluation(model, theory, goal)
        cases += 1
        found += refuted
        filtered += len(models) < count_interpretations(theory, bounds)
    # the batch exercises both outcomes and the axiom filter
    assert 0 < found < cases and filtered > 0
