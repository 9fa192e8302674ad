"""Reference evaluator and countermodel search over label dictionaries.

This is the direct reading of the semantics that the numbered kernel in
decolog.semantics replaced: every table is a dict from labelled inputs to
labelled outputs, lower ranks are coerced up one table at a time, and the
search builds a FiniteModel for every raw interpretation and tests it
axiom by axiom.  It is slow and obviously right, and the differential tests
hold the kernel to it.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional, Sequence

from decolog.calculus import (
    Bang,
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
    analyze_term,
    check_equation_wf,
)
from decolog.semantics import (
    DEFAULT_MAX_INTERPRETATIONS,
    UNIT,
    Bounds,
    Counterexample,
    Element,
    FactoringInvariantError,
    FiniteModel,
    ModelMismatch,
    OperationTable,
    SemanticsError,
    _check_ceiling,
    check_factoring,
    interpret_type,
    is_ok,
    lift_mapping,
    pair_mappings,
    rank2_domain,
    table_domain,
    table_outputs,
    weak_equal,
)


class RankNotIncreasing(SemanticsError):
    pass


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


def _eval(model: FiniteModel, theory: Theory, term: DecoratedTerm) -> dict:
    eff = theory.effect
    st = model.effect_carrier
    if isinstance(term, Id):
        return {x: x for x in rank2_domain(eff, interpret_type(model, term.ty), st)}
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


def eval_term(model: FiniteModel, theory: Theory, term: DecoratedTerm) -> OperationTable:
    _, _, rank = analyze_term(theory, term)
    mapping = _eval(model, theory, term)
    violation = check_factoring(theory.effect, rank, mapping)
    if violation is not None:
        raise FactoringInvariantError(violation)
    return OperationTable(theory.effect, 2, mapping)


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


def first_violation(model: FiniteModel, theory: Theory,
                    eq: DecoratedEquation) -> Optional[tuple]:
    report = check_equation_wf(theory, eq)
    lhs = eval_term(model, theory, eq.lhs).mapping
    rhs = eval_term(model, theory, eq.rhs).mapping
    order = rank2_domain(theory.effect, interpret_type(model, report.dom),
                         model.effect_carrier)
    return violation_witness(theory.effect, eq.strength, lhs, rhs, order)


def _size_assignments(theory: Theory, bounds: Bounds) -> Iterator[tuple[tuple[int, ...], int]]:
    ranges = [range(1, bounds.base_limit(name) + 1) for name in theory.base_types]
    for base_sizes in itertools.product(*ranges):
        for eff_size in range(1, bounds.effect + 1):
            yield base_sizes, eff_size


def candidates(theory: Theory, bounds: Bounds) -> Iterator[FiniteModel]:
    """Every raw interpretation within bounds as a FiniteModel, in
    canonical order."""
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
            tables = {
                sym.name: OperationTable(theory.effect, sym.decoration,
                                         dict(zip(ins, outs)))
                for sym, ins, outs in zip(theory.operations, op_inputs, assignment)
            }
            yield FiniteModel(theory.effect, carriers, eff, tables)


def enumerate_models(theory: Theory, bounds: Bounds = Bounds(), *,
                     max_interpretations: int = DEFAULT_MAX_INTERPRETATIONS
                     ) -> Iterator[FiniteModel]:
    _check_ceiling(theory, bounds, max_interpretations)
    for model in candidates(theory, bounds):
        if all(holds(model, theory, ax.equation) for ax in theory.axioms):
            yield model


def find_counterexample(theory: Theory, eq: DecoratedEquation,
                        bounds: Bounds = Bounds(), *,
                        max_interpretations: int = DEFAULT_MAX_INTERPRETATIONS
                        ) -> Optional[Counterexample]:
    _check_ceiling(theory, bounds, max_interpretations)
    check_equation_wf(theory, eq)
    for model in candidates(theory, bounds):
        if not all(holds(model, theory, ax.equation) for ax in theory.axioms):
            continue
        found = first_violation(model, theory, eq)
        if found is not None:
            return Counterexample(model, eq, *found)
    return None
