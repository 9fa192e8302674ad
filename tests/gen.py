"""Seeded random generators shared by the test modules.

Everything takes an explicit random.Random so each test run is
reproducible from its seed.
"""
from __future__ import annotations

import random
from typing import Optional

from decolog.calculus import (
    PAIR_COMPONENT_RANK_LIMIT,
    Bang,
    BaseType,
    Comp,
    DecoratedTerm,
    EffectKind,
    Id,
    Op,
    OperationSymbol,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Theory,
    TypeExpr,
    Unit,
    analyze_term,
    normalize,
)
from decolog.semantics import FiniteModel, OperationTable
from reference import interpret_type, table_domain, table_outputs

__all__ = [
    "BASE_POOL", "random_type", "random_theory", "random_word_theory",
    "random_term", "term_between",
    "random_wf_terms", "random_derivation", "random_raw_term",
    "declared_type", "random_model",
]

BASE_POOL = ("A", "B", "C")


def random_type(rng: random.Random, depth: int = 2,
                names: tuple[str, ...] = BASE_POOL) -> TypeExpr:
    roll = rng.random()
    if depth > 0 and roll < 0.25:
        return Prod(random_type(rng, depth - 1, names),
                    random_type(rng, depth - 1, names))
    if roll < 0.35:
        return Unit
    return BaseType(rng.choice(names))


def declared_type(rng: random.Random, theory: Theory, depth: int = 1) -> TypeExpr:
    """A random type built from the theory's declared base types."""
    return random_type(rng, depth, theory.base_types)


def random_theory(rng: random.Random, effect: EffectKind, n_ops: int = 5,
                  max_rank: int = 2, products: bool = True,
                  n_axioms: int = 0) -> Theory:
    depth = 1 if products else 0
    ops = []
    for i in range(n_ops):
        dom = random_type(rng, depth)
        cod = random_type(rng, depth)
        ops.append(OperationSymbol(f"op{i}", dom, cod, rng.randint(0, max_rank)))
    theory = Theory(effect=effect, base_types=BASE_POOL, operations=tuple(ops))
    if not n_axioms:
        return theory

    from decolog.calculus import Axiom, DecoratedEquation, Strength

    if not products and not _walks_meet(ops):
        raise ValueError("no two distinct terms share a domain and a codomain, "
                         "so no axiom can be drawn")
    axioms = []
    while len(axioms) < n_axioms:
        dom = random_type(rng, depth)
        lhs, cod = random_term(rng, theory, dom, 3, products=products)
        rhs = term_between(rng, theory, dom, cod, products=products)
        if rhs is None or rhs == lhs:
            continue
        strength = rng.choice((Strength.STRONG, Strength.WEAK))
        axioms.append(Axiom(f"ax{len(axioms)}",
                            DecoratedEquation(strength, lhs, rhs)))
    return Theory(effect=effect, base_types=BASE_POOL,
                  operations=tuple(ops), axioms=tuple(axioms))


def _walks_meet(ops: list[OperationSymbol]) -> bool:
    """Whether two distinct composites of at most three operations (the
    terms random_term draws without products) share a domain and a
    codomain.  With products, p1 . <id, id> and id always do."""
    for dom in (Unit,) + tuple(BaseType(name) for name in BASE_POOL):
        ends: set[TypeExpr] = set()
        frontier = [dom]
        for _ in range(4):
            for cod in frontier:
                if cod in ends:
                    return True
                ends.add(cod)
            frontier = [sym.cod for cod in frontier for sym in ops if sym.dom == cod]
    return False


def random_word_theory(rng: random.Random, effect: EffectKind, n_ops: int = 3,
                       n_axioms: int = 3, max_len: int = 3) -> Theory:
    """Operations A -> A of random ranks, and axioms equating random
    composites of up to max_len of them.  Every composite of operations is
    a term here, so most terms have many rewrites, and proof search
    between random terms often runs to its node bound."""
    from decolog.calculus import Axiom, DecoratedEquation, Strength, compose

    if n_ops < 2 and max_len < 2:
        raise ValueError("one operation and one factor make a single composite")

    A = BaseType("A")
    ops = tuple(OperationSymbol(f"op{i}", A, A, rng.randint(0, 2))
                for i in range(n_ops))

    def word():
        return compose(*(Op(rng.choice(ops).name)
                         for _ in range(rng.randint(1, max_len))))

    axioms = []
    while len(axioms) < n_axioms:
        lhs, rhs = word(), word()
        if lhs != rhs:
            strength = rng.choice((Strength.STRONG, Strength.WEAK))
            axioms.append(Axiom(f"ax{len(axioms)}",
                                DecoratedEquation(strength, lhs, rhs)))
    return Theory(effect=effect, base_types=("A",), operations=ops,
                  axioms=tuple(axioms))


def random_term(rng: random.Random, theory: Theory, dom: TypeExpr,
                depth: int = 4, max_rank: int = 2,
                products: bool = True) -> tuple[DecoratedTerm, TypeExpr]:
    """A well-formed term out of `dom`, built by composing random
    compatible factors.  Returns the term and its codomain."""
    term: DecoratedTerm = Id(dom)
    cod = dom
    for _ in range(rng.randint(0, depth)):
        nxt = _random_factor(rng, theory, cod, depth, max_rank, products)
        if nxt is None:
            break
        factor, cod = nxt
        term = Comp(factor, term)
    return normalize(term), cod


def _random_factor(rng: random.Random, theory: Theory, dom: TypeExpr,
                   depth: int, max_rank: int,
                   products: bool) -> Optional[tuple[DecoratedTerm, TypeExpr]]:
    options = []
    for sym in theory.operations:
        if sym.dom == dom and sym.decoration <= max_rank:
            options.append((Op(sym.name), sym.cod))
    if not products:
        return rng.choice(options) if options else None
    if isinstance(dom, Prod):
        options.append((Proj1(dom.left, dom.right), dom.left))
        options.append((Proj2(dom.left, dom.right), dom.right))
    options.append((Bang(dom), Unit))
    limit = min(max_rank, PAIR_COMPONENT_RANK_LIMIT[theory.effect])
    if depth > 0 and rng.random() < 0.4:
        left, lcod = random_term(rng, theory, dom, depth - 1, limit)
        right, rcod = random_term(rng, theory, dom, depth - 1, limit)
        options.append((Pair(left, right), Prod(lcod, rcod)))
    return rng.choice(options) if options else None


def term_between(rng: random.Random, theory: Theory, dom: TypeExpr,
                 cod: TypeExpr, depth: int = 3, max_rank: int = 2,
                 tries: int = 40,
                 products: bool = True) -> Optional[DecoratedTerm]:
    """A well-formed term dom -> cod, or None when random search misses."""
    for _ in range(tries):
        term, found = random_term(rng, theory, dom, depth, max_rank, products)
        if found == cod:
            return term
    for sym in theory.operations:
        if sym.dom == dom and sym.cod == cod and sym.decoration <= max_rank:
            return Op(sym.name)
    if dom == cod:
        return Id(dom)
    if products and cod == Unit:
        return Bang(dom)
    return None


def random_model(rng: random.Random, theory: Theory,
                 max_size: int = 2) -> FiniteModel:
    """Random carrier sizes up to max_size with uniformly random tables.
    Axioms are ignored, so only pass axiom-free theories when the result
    must be a model of the theory."""
    carriers = {name: tuple(range(rng.randint(1, max_size)))
                for name in theory.base_types}
    eff = tuple(range(rng.randint(1, max_size)))
    probe = FiniteModel(theory.effect, carriers, eff, {})
    tables = {}
    for sym in theory.operations:
        dom = interpret_type(probe, sym.dom)
        cod = interpret_type(probe, sym.cod)
        ins = table_domain(theory.effect, sym.decoration, dom, eff)
        outs = table_outputs(theory.effect, sym.decoration, cod, eff)
        mapping = {x: rng.choice(outs) for x in ins}
        tables[sym.name] = OperationTable(theory.effect, sym.decoration, mapping)
    return FiniteModel(theory.effect, carriers, eff, tables)


def random_wf_terms(rng: random.Random, theory: Theory, count: int,
                    depth: int = 4) -> list[DecoratedTerm]:
    out = []
    while len(out) < count:
        dom = declared_type(rng, theory)
        term, _ = random_term(rng, theory, dom, depth)
        out.append(term)
    return out


def random_derivation(rng: random.Random, theory: Theory, steps: int = 6,
                      products: bool = True):
    """A random valid derivation over the theory, grown by wrapping smaller
    valid derivations in randomly chosen rules.  Only extensions accepted by
    check_derivation survive, so the result always checks.  With
    products=False neither terms nor rules mention pairing or Unit arrows."""
    from decolog import deduction as ded
    from decolog.calculus import Strength

    type_depth = 1 if products else 0
    pool = [ded.deriv(ded.AXIOM, name=ax.name) for ax in theory.axioms]
    for _ in range(3):
        dom = declared_type(rng, theory, type_depth)
        t, _ = random_term(rng, theory, dom, 3, products=products)
        pool.append(ded.deriv(ded.REFL, term=t))

    limit = PAIR_COMPONENT_RANK_LIMIT[theory.effect]

    def conclusion(d):
        return ded.check_derivation(theory, d).equation

    def extend(d):
        eq = conclusion(d)
        edom, ecod, _ = analyze_term(theory, eq.lhs)
        strong_eq = eq.strength is Strength.STRONG
        roll = rng.randrange(8)
        if roll == 0:
            return ded.deriv(ded.SYM, d)
        if roll == 1 and strong_eq:
            return ded.deriv(ded.STRONG_TO_WEAK, d)
        if roll == 2:
            mate = ded.deriv(ded.REFL, term=eq.rhs)
            if strong_eq:
                return ded.deriv(ded.TRANS_STRONG, d, mate)
            return ded.deriv(ded.TRANS_MIXED, d, mate)
        if roll == 3:
            max_rank = 2
            if not strong_eq and theory.effect is EffectKind.EXCEPTIONS:
                max_rank = 0
            g = term_between(rng, theory, declared_type(rng, theory, type_depth),
                             edom, max_rank=max_rank, products=products)
            if g is not None:
                rule = ded.SUBST_STRONG if strong_eq else ded.WEAK_SUBST
                return ded.deriv(rule, d, g=g)
        if roll == 4:
            max_rank = 2
            if not strong_eq and theory.effect is EffectKind.STATES:
                max_rank = 0
            h, _ = random_term(rng, theory, ecod, 2, max_rank=max_rank,
                               products=products)
            rule = ded.REPL_STRONG if strong_eq else ded.WEAK_REPL
            return ded.deriv(rule, d, h=h)
        if roll == 5 and not strong_eq:
            return ded.deriv(ded.WEAK_TO_STRONG_LOWRANK, d)
        if roll == 6 and strong_eq and products:
            mate, _ = random_term(rng, theory, edom, 2, max_rank=limit)
            return ded.deriv(ded.PAIR_CONG_STRONG, d,
                             ded.deriv(ded.REFL, term=mate))
        if roll == 7 and products:
            dom = declared_type(rng, theory, 0)
            f, _ = random_term(rng, theory, dom, 2, max_rank=limit)
            g2, _ = random_term(rng, theory, dom, 2, max_rank=limit)
            return ded.deriv(ded.PAIR_PROJ, f=f, g=g2, side=rng.choice((1, 2)))
        return None

    for _ in range(steps):
        d = rng.choice(pool)
        grown = extend(d)
        if grown is None:
            continue
        try:
            ded.check_derivation(theory, grown)
        except ded.DeductionError:
            continue
        pool.append(grown)
    return rng.choice(pool[len(theory.axioms):] or pool)


def random_raw_term(rng: random.Random, depth: int = 4) -> DecoratedTerm:
    """Arbitrary term syntax, not necessarily well formed."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.randrange(4)
        if leaf == 0:
            return Id(random_type(rng, 1))
        if leaf == 1:
            return Op(rng.choice(("f", "g", "h")))
        if leaf == 2:
            return Bang(random_type(rng, 1))
        return Proj1(random_type(rng, 0), random_type(rng, 0))
    if rng.random() < 0.6:
        return Comp(random_raw_term(rng, depth - 1), random_raw_term(rng, depth - 1))
    return Pair(random_raw_term(rng, depth - 1), random_raw_term(rng, depth - 1))
