"""The engines agree with each other on random theories: whatever a valid
derivation concludes has no countermodel, and, without products, whatever
prove derives dualizes to a derivation that checks in the dual theory."""
import random

from decolog.calculus import DecoratedEquation, EffectKind
from decolog.deduction import (
    UNIT_STRONG_LOWRANK,
    UNIT_WEAK,
    DepthExhausted,
    check_derivation,
    prove,
)
from decolog.duality import duality_map, dualize_derivation, dualize_term
from decolog.semantics import Bounds, find_counterexample

from gen import random_derivation, random_theory


def _rules(d):
    yield d.rule
    for premise in d.premises:
        yield from _rules(premise)


def _conclusions(seeds, products):
    """Per seed, a random theory of two operations and one axiom, and the
    conclusions of three random derivations over it that are not x = x."""
    for seed in seeds:
        rng = random.Random(seed)
        try:
            theory = random_theory(rng, rng.choice(list(EffectKind)), n_ops=2,
                                   products=products, n_axioms=1)
        except ValueError:  # no axiom can be drawn over these operations
            continue
        for _ in range(3):
            derivation = random_derivation(rng, theory, steps=12, products=products)
            eq = check_derivation(theory, derivation).equation.normalized()
            if eq.lhs != eq.rhs:
                yield seed, theory, eq


def test_derivable_conclusions_have_no_countermodel_and_their_proofs_dualize():
    conclusions = proofs = duals = 0
    for seed, theory, eq in _conclusions(range(120), products=False):
        conclusions += 1
        assert find_counterexample(theory, eq, Bounds(2, 2)) is None, (seed, eq)
        try:
            proof = prove(theory, eq)
        except DepthExhausted:
            continue
        proofs += 1
        # a unit law's Bang has no dual
        if {UNIT_STRONG_LOWRANK, UNIT_WEAK} & set(_rules(proof)):
            continue
        mirror = duality_map(theory)
        dual = DecoratedEquation(eq.strength, dualize_term(eq.lhs), dualize_term(eq.rhs))
        check_derivation(mirror.target, dualize_derivation(mirror, proof), expected=dual)
        duals += 1
    # not vacuous: these seeds give 37 conclusions, and 35 of them are proved
    # at the default bounds, 32 by proofs without a unit law
    assert conclusions == 37
    assert proofs >= 35 and duals >= 32


def test_derivable_conclusions_with_products_have_no_countermodel():
    conclusions = 0
    for seed, theory, eq in _conclusions(range(60), products=True):
        conclusions += 1
        for bounds in (Bounds(1, 2), Bounds(2, 1), Bounds(2, 2)):
            assert find_counterexample(theory, eq, bounds) is None, (seed, bounds, eq)
    # not vacuous: these seeds give 59 conclusions
    assert conclusions == 59
