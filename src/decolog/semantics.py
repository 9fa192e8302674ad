"""Finite set-theoretic models of decorated theories.

A model assigns a finite carrier to every base type plus one effect carrier
(the exception set or the state set), and a function table to every
operation symbol at its declared rank:

    exceptions   rank 0: A -> B     rank 1: A -> B+E      rank 2: A+E -> B+E
    states       rank 0: A -> B     rank 1: A x S -> B    rank 2: A x S -> B x S

Everything is evaluated at rank 2 after coercing lower-rank tables up
(propagate exceptions / leave the state untouched), so one composition
algorithm serves all ranks.  A strong equation asks for equality of the two
rank-2 tables everywhere; a weak equation compares only through the effect
boundary: on ok-tagged inputs for exceptions, on the value component for
states.

Finite sets are plain tuples of distinct hashable labels.  Product elements
are 2-tuples, the Unit element is "*", and the two injections for the
exceptions shapes are the tagged pairs ("ok", v) and ("exc", e).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

from .calculus import (
    Bang,
    BaseType,
    Comp,
    DecoratedEquation,
    DecoratedTerm,
    EffectKind,
    Id,
    Op,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Strength,
    Theory,
    TypeExpr,
    UnitType,
    analyze_term,
    check_equation_wf,
)

Element = object
UNIT: Element = "*"

OK = "ok"
EXC = "exc"


def ok(v: Element) -> tuple:
    return (OK, v)


def exc(e: Element) -> tuple:
    return (EXC, e)


def is_ok(x: Element) -> bool:
    return isinstance(x, tuple) and len(x) == 2 and x[0] == OK


class SemanticsError(Exception):
    pass


class UnknownBaseType(SemanticsError):
    pass


class RankNotIncreasing(SemanticsError):
    pass


class BoundsTooLarge(SemanticsError):
    pass


class ModelMismatch(SemanticsError):
    pass


class FactoringInvariantError(SemanticsError):
    """A term's rank-2 table failed the conservation law its inferred rank
    promises (state written by a rank<=1 term, or an exception not
    propagated).  Indicates a broken table or a bug, never valid input.
    """


@dataclass(frozen=True)
class OperationTable:
    """Total function table in the shape of one effect/rank combination."""
    effect: EffectKind
    rank: int
    mapping: Mapping[Element, Element]

    def __post_init__(self):
        if self.rank not in (0, 1, 2):
            raise ModelMismatch(f"table rank must be 0, 1 or 2, got {self.rank}")


@dataclass(frozen=True)
class FiniteModel:
    effect: EffectKind
    carriers: Mapping[str, tuple]
    effect_carrier: tuple
    tables: Mapping[str, OperationTable]


def interpret_type(model: FiniteModel, t: TypeExpr) -> tuple:
    """Carrier of a type: Unit is the singleton {*}, products multiply out
    in carrier order (left component varies slowest)."""
    if isinstance(t, UnitType):
        return (UNIT,)
    if isinstance(t, BaseType):
        carrier = model.carriers.get(t.name)
        if carrier is None:
            raise UnknownBaseType(f"no carrier for base type {t.name!r}")
        return carrier
    if isinstance(t, Prod):
        left = interpret_type(model, t.left)
        right = interpret_type(model, t.right)
        return tuple(itertools.product(left, right))
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Rank shapes and coercion
# ---------------------------------------------------------------------------

def rank2_domain(effect: EffectKind, dom_elems: Sequence[Element],
                 eff_elems: Sequence[Element]) -> tuple:
    if effect is EffectKind.EXCEPTIONS:
        return tuple(ok(a) for a in dom_elems) + tuple(exc(e) for e in eff_elems)
    return tuple(itertools.product(dom_elems, eff_elems))


def table_domain(effect: EffectKind, rank: int, dom_elems: Sequence[Element],
                 eff_elems: Sequence[Element]) -> tuple:
    """Input elements a table of the given rank must be total on."""
    if rank == 0:
        return tuple(dom_elems)
    if effect is EffectKind.EXCEPTIONS:
        if rank == 1:
            return tuple(dom_elems)
        return rank2_domain(effect, dom_elems, eff_elems)
    return tuple(itertools.product(dom_elems, eff_elems))


def table_outputs(effect: EffectKind, rank: int, cod_elems: Sequence[Element],
                  eff_elems: Sequence[Element]) -> tuple:
    """Elements a table of the given rank may produce."""
    if rank == 0:
        return tuple(cod_elems)
    if effect is EffectKind.EXCEPTIONS:
        return tuple(ok(b) for b in cod_elems) + tuple(exc(e) for e in eff_elems)
    if rank == 1:
        return tuple(cod_elems)
    return tuple(itertools.product(cod_elems, eff_elems))


def lift_mapping(effect: EffectKind, rank: int, mapping: Mapping,
                 eff_elems: Sequence[Element], to_rank: int = 2) -> dict:
    """A raw rank-`rank` mapping viewed at `to_rank`, one rank step at a
    time.  Exceptions: pure results get ok-tagged, then propagators extend to
    exceptional inputs by propagation.  States: pure results get read access
    to an ignored state, then observers extend to modifiers that write
    nothing."""
    m = dict(mapping)
    for r in range(rank, to_rank):
        if effect is EffectKind.EXCEPTIONS:
            if r == 0:
                m = {a: ok(b) for a, b in m.items()}
            else:
                m = {ok(a): b for a, b in m.items()}
                m.update({exc(e): exc(e) for e in eff_elems})
        elif r == 0:
            m = {(a, s): m[a] for a in m for s in eff_elems}
        else:
            m = {(a, s): (b, s) for (a, s), b in m.items()}
    return m


def coerce(table: OperationTable, from_rank: int, to_rank: int,
           effect: EffectKind, eff_elems: Sequence[Element]) -> OperationTable:
    """View a table at a higher rank.  Composes transitively, so 0 -> 2 is
    one call."""
    if table.rank != from_rank or table.effect is not effect:
        raise ModelMismatch("coerce arguments disagree with the table's own shape")
    if to_rank < from_rank:
        raise RankNotIncreasing(f"cannot coerce rank {from_rank} down to {to_rank}")
    return OperationTable(effect, to_rank,
                          lift_mapping(effect, from_rank, table.mapping, eff_elems, to_rank))


def compose_mappings(after: Mapping, first: Mapping) -> dict:
    """Composition of two rank-2 mappings, first applied first."""
    return {x: after[y] for x, y in first.items()}


def weak_variants(effect: EffectKind, m2: Mapping, eff_elems: Sequence[Element],
                  cod_elems: Sequence[Element]) -> Iterator[dict]:
    """Every rank-2 mapping weakly equal to m2: same on ok inputs for
    exceptions (the exceptional rows run free), same value component for
    states (the state rows run free).  m2 itself is among the variants."""
    if effect is EffectKind.EXCEPTIONS:
        exc_inputs = [x for x in m2 if not is_ok(x)]
        outs = table_outputs(effect, 2, cod_elems, eff_elems)
        for combo in itertools.product(outs, repeat=len(exc_inputs)):
            variant = dict(m2)
            variant.update(zip(exc_inputs, combo))
            yield variant
    else:
        keys = list(m2)
        for combo in itertools.product(eff_elems, repeat=len(keys)):
            yield {k: (m2[k][0], s) for k, s in zip(keys, combo)}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def validate_model(theory: Theory, model: FiniteModel) -> None:
    """Carriers and tables match the theory, or ModelMismatch."""
    if model.effect is not theory.effect:
        raise ModelMismatch(
            f"model is for effect {model.effect}, theory for {theory.effect}")
    for name in theory.base_types:
        carrier = model.carriers.get(name)
        if not carrier:
            raise ModelMismatch(f"missing or empty carrier for base type {name!r}")
        if len(set(carrier)) != len(carrier):
            raise ModelMismatch(f"carrier for {name!r} has duplicate labels")
    if not model.effect_carrier:
        raise ModelMismatch("effect carrier must be non-empty")
    if len(set(model.effect_carrier)) != len(model.effect_carrier):
        raise ModelMismatch("effect carrier has duplicate labels")
    for sym in theory.operations:
        table = model.tables.get(sym.name)
        if table is None:
            raise ModelMismatch(f"no table for operation {sym.name!r}")
        if table.rank != sym.decoration or table.effect is not theory.effect:
            raise ModelMismatch(
                f"table for {sym.name!r} has shape ({table.effect}, rank {table.rank}), "
                f"declared ({theory.effect}, rank {sym.decoration})")
        dom = interpret_type(model, sym.dom)
        cod = interpret_type(model, sym.cod)
        expected = table_domain(theory.effect, sym.decoration, dom, model.effect_carrier)
        if set(table.mapping.keys()) != set(expected):
            raise ModelMismatch(f"table for {sym.name!r} is not total on its domain")
        allowed = set(table_outputs(theory.effect, sym.decoration, cod, model.effect_carrier))
        for value in table.mapping.values():
            if value not in allowed:
                raise ModelMismatch(
                    f"table for {sym.name!r} produces {value!r} outside its codomain")


def _identity_rank2(effect: EffectKind, elems: Sequence[Element],
                    eff_elems: Sequence[Element]) -> dict:
    return {x: x for x in rank2_domain(effect, elems, eff_elems)}


def pair_mappings(effect: EffectKind, left: Mapping, right: Mapping) -> dict:
    """Rank-2 mapping of a pair from its components' rank-2 mappings (the
    components must factor through the pair rank limit)."""
    if effect is EffectKind.EXCEPTIONS:
        # components are pure, so ok inputs land on ok outputs
        return {x: ok((lv[1], right[x][1])) if is_ok(x) else x
                for x, lv in left.items()}
    return {(a, s): ((lv[0], right[(a, s)][0]), s) for (a, s), lv in left.items()}


def _eval(model: FiniteModel, theory: Theory, term: DecoratedTerm) -> dict:
    eff = theory.effect
    st = model.effect_carrier
    if isinstance(term, Id):
        return _identity_rank2(eff, interpret_type(model, term.ty), st)
    if isinstance(term, Op):
        sym = theory.op(term.name)
        table = model.tables[term.name]
        return coerce(table, sym.decoration, 2, eff, st).mapping
    if isinstance(term, Comp):
        first = _eval(model, theory, term.first)
        after = _eval(model, theory, term.after)
        return {x: after[y] for x, y in first.items()}
    if isinstance(term, Pair):
        return pair_mappings(eff, _eval(model, theory, term.left),
                             _eval(model, theory, term.right))
    if isinstance(term, Proj1):
        prod = interpret_type(model, Prod(term.left_ty, term.right_ty))
        return lift_mapping(eff, 0, {p: p[0] for p in prod}, st)
    if isinstance(term, Proj2):
        prod = interpret_type(model, Prod(term.left_ty, term.right_ty))
        return lift_mapping(eff, 0, {p: p[1] for p in prod}, st)
    if isinstance(term, Bang):
        elems = interpret_type(model, term.ty)
        return lift_mapping(eff, 0, {a: UNIT for a in elems}, st)
    raise TypeError(f"not a term: {term!r}")


def check_factoring(effect: EffectKind, rank: int, mapping: Mapping) -> Optional[str]:
    """None if the rank-2 table is consistent with the claimed rank, else a
    description of the violation."""
    if rank >= 2:
        return None
    if effect is EffectKind.EXCEPTIONS:
        for x, y in mapping.items():
            if not is_ok(x) and y != x:
                return f"exceptional input {x!r} mapped to {y!r} instead of itself"
            if rank == 0 and is_ok(x) and not is_ok(y):
                return f"pure term raised on {x!r}"
        return None
    by_value: dict = {}
    for (a, s), (b, s2) in mapping.items():
        if s2 != s:
            return f"state changed at {(a, s)!r}: {s!r} -> {s2!r}"
        if rank == 0:
            if a in by_value and by_value[a] != b:
                return f"pure term reads the state at input {a!r}"
            by_value[a] = b
    return None


def eval_term(model: FiniteModel, theory: Theory, term: DecoratedTerm) -> OperationTable:
    """Rank-2 denotation of a term.  The result is checked to conserve
    whatever the term's inferred rank says it cannot touch."""
    _, _, rank = analyze_term(theory, term)
    mapping = _eval(model, theory, term)
    violation = check_factoring(theory.effect, rank, mapping)
    if violation is not None:
        raise FactoringInvariantError(violation)
    return OperationTable(theory.effect, 2, mapping)


def weak_equal(effect: EffectKind, lhs: Mapping, rhs: Mapping) -> bool:
    """Equality through the effect boundary of two rank-2 mappings."""
    if effect is EffectKind.EXCEPTIONS:
        return all(v == rhs[x] for x, v in lhs.items() if is_ok(x))
    return all(v[0] == rhs[x][0] for x, v in lhs.items())


def holds(model: FiniteModel, theory: Theory, eq: DecoratedEquation) -> bool:
    check_equation_wf(theory, eq)
    lhs = eval_term(model, theory, eq.lhs).mapping
    rhs = eval_term(model, theory, eq.rhs).mapping
    if eq.strength is Strength.STRONG:
        return lhs == rhs
    return weak_equal(theory.effect, lhs, rhs)


def violation_witness(effect: EffectKind, strength: Strength,
                      lhs: Mapping, rhs: Mapping,
                      domain_order: Sequence[Element]) -> Optional[tuple]:
    """First input (in canonical order) where the sides disagree, with both
    outputs; None when the equation holds."""
    for x in domain_order:
        lv, rv = lhs[x], rhs[x]
        if strength is Strength.WEAK:
            if effect is EffectKind.EXCEPTIONS:
                if not is_ok(x):
                    continue
                if lv != rv:
                    return x, lv, rv
            else:
                if lv[0] != rv[0]:
                    return x, lv, rv
        elif lv != rv:
            return x, lv, rv
    return None


# ---------------------------------------------------------------------------
# Model enumeration and counterexample search
# ---------------------------------------------------------------------------

DEFAULT_MAX_INTERPRETATIONS = 10 ** 7


@dataclass(frozen=True)
class Bounds:
    """Carrier size limits: one per base type (a single int applies to all)
    plus the effect carrier's.  Sizes start at 1; empty carriers are not
    searched."""
    base: Union[int, Mapping[str, int]] = 2
    effect: int = 2

    def __post_init__(self):
        limits = [self.base] if isinstance(self.base, int) else list(self.base.values())
        if min(limits + [self.effect]) < 1:
            raise SemanticsError(
                f"carrier bounds must be at least 1, got base {self.base!r}, "
                f"effect {self.effect!r}")

    def base_limit(self, name: str) -> int:
        if isinstance(self.base, int):
            return self.base
        return self.base[name]


def _size_assignments(theory: Theory, bounds: Bounds) -> Iterator[tuple[tuple[int, ...], int]]:
    ranges = [range(1, bounds.base_limit(name) + 1) for name in theory.base_types]
    for base_sizes in itertools.product(*ranges):
        for eff_size in range(1, bounds.effect + 1):
            yield base_sizes, eff_size


def _candidate_count(theory: Theory, base_sizes: Sequence[int], eff_size: int) -> int:
    carriers = {name: tuple(range(n)) for name, n in zip(theory.base_types, base_sizes)}
    eff = tuple(range(eff_size))
    probe = FiniteModel(theory.effect, carriers, eff, {})
    total = 1
    for sym in theory.operations:
        dom = interpret_type(probe, sym.dom)
        cod = interpret_type(probe, sym.cod)
        n_in = len(table_domain(theory.effect, sym.decoration, dom, eff))
        n_out = len(table_outputs(theory.effect, sym.decoration, cod, eff))
        total *= n_out ** n_in
    return total


def count_interpretations(theory: Theory, bounds: Bounds) -> int:
    """Raw interpretation count within bounds, before any axiom filtering."""
    return sum(_candidate_count(theory, bs, es)
               for bs, es in _size_assignments(theory, bounds))


def _candidates(theory: Theory, bounds: Bounds) -> Iterator[tuple[int, FiniteModel]]:
    """Every raw interpretation within bounds, in canonical order, with its
    index.  Carrier sizes sweep base types in declaration order with the
    effect carrier last; each table sweeps its outputs lexicographically over
    inputs in canonical domain order."""
    index = -1
    for base_sizes, eff_size in _size_assignments(theory, bounds):
        carriers = {name: tuple(range(n))
                    for name, n in zip(theory.base_types, base_sizes)}
        eff = tuple(range(eff_size))
        probe = FiniteModel(theory.effect, carriers, eff, {})
        op_inputs = []
        op_output_spaces = []
        for sym in theory.operations:
            dom = interpret_type(probe, sym.dom)
            cod = interpret_type(probe, sym.cod)
            op_inputs.append(table_domain(theory.effect, sym.decoration, dom, eff))
            op_output_spaces.append(table_outputs(theory.effect, sym.decoration, cod, eff))
        spaces = [itertools.product(outs, repeat=len(ins))
                  for ins, outs in zip(op_inputs, op_output_spaces)]
        for assignment in itertools.product(*spaces):
            index += 1
            tables = {
                sym.name: OperationTable(theory.effect, sym.decoration,
                                         dict(zip(ins, outs)))
                for sym, ins, outs in zip(theory.operations, op_inputs, assignment)
            }
            yield index, FiniteModel(theory.effect, carriers, eff, tables)


def _check_ceiling(theory: Theory, bounds: Bounds, max_interpretations: int) -> None:
    total = count_interpretations(theory, bounds)
    if total > max_interpretations:
        raise BoundsTooLarge(
            f"{total} interpretations within bounds, ceiling is {max_interpretations}")


def enumerate_models(theory: Theory, bounds: Bounds = Bounds(), *,
                     max_interpretations: int = DEFAULT_MAX_INTERPRETATIONS
                     ) -> Iterator[FiniteModel]:
    """All axiom-satisfying models within bounds, in a stable canonical
    order.

    Refuses to start when the raw interpretation count exceeds the ceiling.
    """
    _check_ceiling(theory, bounds, max_interpretations)

    def generate() -> Iterator[FiniteModel]:
        for _, model in _candidates(theory, bounds):
            if all(holds(model, theory, ax.equation) for ax in theory.axioms):
                yield model

    return generate()


@dataclass(frozen=True)
class Counterexample:
    model: FiniteModel
    equation: DecoratedEquation
    witness: Element
    lhs_value: Element
    rhs_value: Element


def find_counterexample(theory: Theory, eq: DecoratedEquation,
                        bounds: Bounds = Bounds(), *,
                        max_interpretations: int = DEFAULT_MAX_INTERPRETATIONS
                        ) -> Optional[Counterexample]:
    """First model in canonical order that satisfies every axiom but
    violates the equation, with the first input where the sides disagree.
    None when the bounded search is exhausted.
    """
    _check_ceiling(theory, bounds, max_interpretations)
    report = check_equation_wf(theory, eq)
    for _, model in _candidates(theory, bounds):
        if not all(holds(model, theory, ax.equation) for ax in theory.axioms):
            continue
        lhs = eval_term(model, theory, eq.lhs).mapping
        rhs = eval_term(model, theory, eq.rhs).mapping
        dom = interpret_type(model, report.dom)
        order = rank2_domain(theory.effect, dom, model.effect_carrier)
        found = violation_witness(theory.effect, eq.strength, lhs, rhs, order)
        if found is not None:
            x, lv, rv = found
            return Counterexample(model, eq, x, lv, rv)
    return None
