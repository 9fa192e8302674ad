"""Reference implementations the differential tests hold the library to.

The evaluator and countermodel search over label dictionaries are the
direct reading of the semantics that the numbered kernel in
decolog.semantics replaced: every table is a dict from labelled inputs to
labelled outputs, lower ranks are coerced up one table at a time, and the
search builds a FiniteModel for every raw interpretation and tests it
axiom by axiom.

The prover is decolog.deduction's bounded search as it was before its hot
loop was tuned: every expansion re-normalizes the axiom sides, rebuilds
every window's context terms and derivation, and re-checks each pair step
from the leaves.  Both are slow and obviously right.
"""
from __future__ import annotations

import itertools
from collections import deque
from typing import Iterator, Mapping, Optional, Sequence

from decolog.calculus import (
    Bang,
    CalculusError,
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
    compose,
    from_spine,
    infer_decoration,
    normalize,
    spine,
    strong,
    weak,
)
from decolog.deduction import (
    AXIOM,
    PAIR_COMP_LOWRANK,
    PAIR_CONG_STRONG,
    PAIR_PROJ,
    REFL,
    REPL_STRONG,
    STRONG_TO_WEAK,
    SUBST_STRONG,
    SYM,
    TRANS_MIXED,
    TRANS_STRONG,
    TRANS_WEAK,
    UNIT_STRONG_LOWRANK,
    UNIT_WEAK,
    WEAK_REPL,
    WEAK_SUBST,
    DeductionError,
    DepthExhausted,
    Derivation,
    _check,
    check_derivation,
    deriv,
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


# ---------------------------------------------------------------------------
# Bounded proof search
# ---------------------------------------------------------------------------

def _atom_types(theory: Theory, atoms: Sequence[DecoratedTerm],
                dom: TypeExpr) -> list[TypeExpr]:
    """Boundary types t[0..n]: t[n] = dom, t[i] = cod of atoms[i]."""
    bounds = [None] * (len(atoms) + 1)
    bounds[len(atoms)] = dom
    for i in range(len(atoms) - 1, -1, -1):
        _, cod, _ = analyze_term(theory, atoms[i])
        bounds[i] = cod
    return bounds


def _wrap_context(theory: Theory, prefix: Sequence[DecoratedTerm],
                  suffix: Sequence[DecoratedTerm], suffix_dom: TypeExpr,
                  middle_cod: TypeExpr, inner: Derivation,
                  inner_eq: DecoratedEquation) -> Optional[Derivation]:
    """Embed a window rewrite into its spine context, picking the
    substitution/replacement rules the strength demands.  None when a weak
    rewrite sits in a context the weak congruences reject."""
    d = inner
    effect = theory.effect
    weak_mode = inner_eq.strength is Strength.WEAK
    if suffix:
        g = from_spine(suffix, suffix_dom)
        if weak_mode:
            if effect is EffectKind.EXCEPTIONS and infer_decoration(theory, g) > 0:
                return None
            d = deriv(WEAK_SUBST, d, g=g)
        else:
            d = deriv(SUBST_STRONG, d, g=g)
    if prefix:
        h = from_spine(prefix, middle_cod)
        if weak_mode:
            if effect is EffectKind.STATES and infer_decoration(theory, h) > 0:
                return None
            d = deriv(WEAK_REPL, d, h=h)
        else:
            d = deriv(REPL_STRONG, d, h=h)
    return d


def _window_rewrites(theory: Theory, term: DecoratedTerm, dom: TypeExpr,
                     allow_weak: bool) -> Iterator[tuple[DecoratedTerm, Derivation, Strength]]:
    """All one-step rewrites of the spine, as (new_term, derivation,
    strength of the step)."""
    atoms = list(spine(term))
    n = len(atoms)
    bounds = _atom_types(theory, atoms, dom)

    axiom_sides = []
    for ax in theory.axioms:
        eq = ax.equation.normalized()
        axiom_sides.append((ax.name, eq, spine(eq.lhs), spine(eq.rhs), False))
        axiom_sides.append((ax.name, eq, spine(eq.rhs), spine(eq.lhs), True))

    for i in range(n):
        for j in range(i + 1, n + 1):
            window = atoms[i:j]
            prefix, suffix = atoms[:i], atoms[j:]

            for name, eq, src, dst, flip in axiom_sides:
                if not src or list(src) != window:
                    continue
                step: Derivation = deriv(AXIOM, name=name)
                step_eq = eq
                if flip:
                    step = deriv(SYM, step)
                    step_eq = eq.flipped()
                if step_eq.strength is Strength.WEAK and not allow_weak:
                    continue
                wrapped = _wrap_context(theory, prefix, suffix, bounds[n],
                                        bounds[i], step, step_eq)
                if wrapped is None:
                    continue
                new_term = from_spine(prefix + list(dst) + suffix, bounds[n])
                if new_term != term:
                    yield new_term, wrapped, step_eq.strength

            if isinstance(bounds[i], UnitType):
                window_term = from_spine(window, bounds[j])
                r = infer_decoration(theory, window_term)
                replacement = normalize(Bang(bounds[j]))
                if window_term != replacement:
                    strong_ok = (r == 0 if theory.effect is EffectKind.EXCEPTIONS
                                 else r <= 1)
                    if strong_ok:
                        step = deriv(UNIT_STRONG_LOWRANK, f=window_term)
                        step_eq = strong(window_term, replacement)
                    elif allow_weak and theory.effect is EffectKind.STATES:
                        step = deriv(UNIT_WEAK, f=window_term)
                        step_eq = weak(window_term, replacement)
                    else:
                        continue
                    wrapped = _wrap_context(theory, prefix, suffix, bounds[n],
                                            bounds[i], step, step_eq)
                    if wrapped is not None:
                        new_term = from_spine(
                            prefix + list(spine(replacement)) + suffix, bounds[n])
                        if new_term != term:
                            yield new_term, wrapped, step_eq.strength


def _pair_rewrites(theory: Theory, term: DecoratedTerm,
                   dom: TypeExpr) -> Iterator[tuple[DecoratedTerm, Derivation, Strength]]:
    """Strong rewrites involving pairs: projection collapse, moving a factor
    in and out of a pair, and congruence steps inside components."""
    atoms = list(spine(term))
    n = len(atoms)
    bounds = _atom_types(theory, atoms, dom)

    def emit(i, j, new_atoms, step):
        # any ill-typed or rank-violating candidate is simply not a move
        try:
            new_term = from_spine(atoms[:i] + new_atoms + atoms[j:], bounds[n])
            if new_term == term:
                return None
            step_eq = _check(theory, step, ())
            wrapped = _wrap_context(theory, atoms[:i], atoms[j:], bounds[n],
                                    bounds[i], step, step_eq)
        except (DeductionError, CalculusError):
            return None
        if wrapped is None:
            return None
        return new_term, wrapped, Strength.STRONG

    for k in range(n):
        a = atoms[k]
        if isinstance(a, (Proj1, Proj2)) and k + 1 < n and isinstance(atoms[k + 1], Pair):
            p = atoms[k + 1]
            side = 1 if isinstance(a, Proj1) else 2
            kept = p.left if side == 1 else p.right
            step = deriv(PAIR_PROJ, f=p.left, g=p.right, side=side)
            got = emit(k, k + 2, list(spine(kept)), step)
            if got:
                yield got

        if isinstance(a, Pair):
            if k + 1 < n:
                w = atoms[k + 1]
                try:
                    new_atom = Pair(compose(a.left, w), compose(a.right, w))
                except CalculusError:
                    new_atom = None
                if new_atom is not None:
                    step = deriv(PAIR_COMP_LOWRANK, f=a.left, g=a.right, w=w)
                    got = emit(k, k + 2, [new_atom], step)
                    if got:
                        yield got
            sl, sr = spine(a.left), spine(a.right)
            if sl and sr and sl[-1] == sr[-1]:
                w = sl[-1]
                _, wcod, _ = analyze_term(theory, w)
                f2 = from_spine(sl[:-1], wcod)
                g2 = from_spine(sr[:-1], wcod)
                step = deriv(SYM, deriv(PAIR_COMP_LOWRANK, f=f2, g=g2, w=w))
                got = emit(k, k + 1, [Pair(f2, g2), w], step)
                if got:
                    yield got
            for side in (0, 1):
                comp = a.left if side == 0 else a.right
                other = a.right if side == 0 else a.left
                for sub_term, sub_drv, _ in _all_moves(theory, comp, bounds[k + 1],
                                                       allow_weak=False):
                    if side == 0:
                        new_atom = Pair(sub_term, other)
                        step = deriv(PAIR_CONG_STRONG, sub_drv,
                                     deriv(REFL, term=other))
                    else:
                        new_atom = Pair(other, sub_term)
                        step = deriv(PAIR_CONG_STRONG,
                                     deriv(REFL, term=other), sub_drv)
                    got = emit(k, k + 1, [new_atom], step)
                    if got:
                        yield got


def _all_moves(theory: Theory, term: DecoratedTerm, dom: TypeExpr,
               allow_weak: bool) -> Iterator[tuple[DecoratedTerm, Derivation, Strength]]:
    for move in _window_rewrites(theory, term, dom, allow_weak):
        yield move
    for move in _pair_rewrites(theory, term, dom):
        yield move


def _chain(base: Optional[Derivation], base_weak: bool,
           step: Derivation, step_strength: Strength) -> tuple[Derivation, bool]:
    step_weak = step_strength is Strength.WEAK
    if base is None:
        return step, step_weak
    if not base_weak and not step_weak:
        return deriv(TRANS_STRONG, base, step), False
    if base_weak and step_weak:
        return deriv(TRANS_WEAK, base, step), True
    return deriv(TRANS_MIXED, base, step), True


def prove(theory: Theory, goal: DecoratedEquation, max_depth: int = 8,
          max_nodes: int = 4000) -> Derivation:
    """Search for a derivation of the goal; DepthExhausted when the bounded
    bidirectional search gives up (which decides nothing).

    The result always passes check_derivation against the goal."""
    eq = goal.normalized()
    check_equation_wf(theory, eq)
    want_weak = eq.strength is Strength.WEAK

    if eq.lhs == eq.rhs:
        found: Derivation = deriv(REFL, term=eq.lhs)
        if want_weak:
            found = deriv(STRONG_TO_WEAK, found)
        check_derivation(theory, found, expected=eq)
        return found

    dom = check_equation_wf(theory, eq).dom
    # reached[side]: term -> (derivation of `start ? term`, is_weak); the
    # seed entry holds None for "no steps yet"
    reached = [
        {eq.lhs: (None, False)},
        {eq.rhs: (None, False)},
    ]
    frontiers = [deque([(eq.lhs, 0)]), deque([(eq.rhs, 0)])]
    nodes = 0

    def meet(term: DecoratedTerm) -> Optional[Derivation]:
        left, right = reached[0].get(term), reached[1].get(term)
        if left is None or right is None:
            return None
        dl, wl = left
        dr, wr = right
        if (wl or wr) and not want_weak:
            return None
        if dl is None:
            dl, wl = deriv(REFL, term=eq.lhs), False
        if dr is None:
            dr, wr = deriv(REFL, term=eq.rhs), False
        back = deriv(SYM, dr)
        if not wl and not wr:
            out = deriv(TRANS_STRONG, dl, back)
            if want_weak:
                out = deriv(STRONG_TO_WEAK, out)
            return out
        if wl and wr:
            return deriv(TRANS_WEAK, dl, back)
        return deriv(TRANS_MIXED, dl, back)

    while any(frontiers) and nodes < max_nodes:
        for side in (0, 1):
            if not frontiers[side]:
                continue
            term, depth = frontiers[side].popleft()
            if depth >= max_depth:
                continue
            base, base_weak = reached[side][term]
            for new_term, step, strength in _all_moves(theory, term, dom, want_weak):
                nodes += 1
                combined, combined_weak = _chain(base, base_weak, step, strength)
                prev = reached[side].get(new_term)
                if prev is not None and (not prev[1] or combined_weak):
                    continue
                reached[side][new_term] = (combined, combined_weak)
                frontiers[side].append((new_term, depth + 1))
                done = meet(new_term)
                if done is not None:
                    check_derivation(theory, done, expected=eq)
                    return done
                if nodes >= max_nodes:
                    break

    raise DepthExhausted(
        f"no derivation found within depth {max_depth} ({nodes} rewrites tried); "
        "the goal may still be derivable")
