"""Reference implementations the differential tests hold the library to.

The evaluator and countermodel search over label dictionaries are the
direct reading of the semantics that the numbered kernel in
decolog.semantics replaced: every table is a dict from labelled inputs to
labelled outputs, lower ranks are coerced up one table at a time, and the
search builds a FiniteModel for every raw interpretation and tests it
axiom by axiom.  The labelled carriers and table shapes (interpret_type,
rank2_domain, table_domain, table_outputs) and the conservation check
(check_factoring) are the reference's own: from decolog.semantics it takes
only the model data types, the error classes and the label constants, so a
layout bug in the library's numbered codec cannot hide in both.

The rule-soundness sweep is decolog.deduction's validate_rules as it was
before it moved onto numbered tables: every combo is a dict of label
dictionaries built by the rank-2 algebra below (lift_mapping,
compose_mappings, weak_variants, pair_mappings, weak_equal), and every
conclusion is tested on them.  Its refl, subst_strong and pair_cong_strong
conclusions compare an expression with itself; it is the reference for the
combos, counts and examples only.

The prover is decolog.deduction's bounded search as it was before its hot
loop was tuned: every expansion re-normalizes the axiom sides, rebuilds
every window's context terms and derivation, and re-checks each pair step
from the leaves.  All of these are slow and obviously right.

The term walks are decolog.calculus' analyze_term and normalize as they
were before one memoized analysis answered both (see "Term analysis"
below).

The term and type walks are calculus' analysis, term_str and type_str,
duality's _term_offenders, files' element_str and _depth, and semantics'
_Layout.size, _Layout.values and _Program._uses, copied as they were
before calculus.walk and plain loops replaced them (_Layout's two in the
class Layout, _uses in the class Uses): each recurses once per level.

The derivation walks are the checker's _check, print_derivation and the
duality's _derivation_offenders and _dual_derivation as they were before
deduction.fold replaced them: each recurses once per level, so each stops
at Python's recursion limit on a deep enough derivation.  The reference
prover checks its pair steps with this _check.

The text front end is decolog.files' parsing as it was before the
one scanner: a character-by-character tokenize that builds one positioned
Token per token, and a _Stream over those tokens.  Its verdicts part from
the library's on three classes of input only: a non-decimal digit such as
`²`, which it reads as an integer (that int() then refuses in a model); an
integer of more than files.MAX_INT_DIGITS digits, which int() refuses; and
a model element nested deeper than MAX_DEPTH, which it parses, or at about
300 levels ends in RecursionError.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from decolog.calculus import (
    PAIR_COMPONENT_RANK_LIMIT,
    Analysis,
    Axiom,
    Bang,
    BaseType,
    CalculusError,
    Comp,
    CompositionTypeMismatch,
    Decoration,
    DecoratedEquation,
    DecoratedTerm,
    EffectKind,
    Id,
    Interned,
    Op,
    OperationSymbol,
    Pair,
    PairDomainMismatch,
    PairRankViolation,
    Prod,
    Proj1,
    Proj2,
    Strength,
    Theory,
    TheoryError,
    TypeExpr,
    UndeclaredSymbol,
    Unit,
    UnitType,
    _check_type_declared,
    check_equation_wf,
    compose,
    infer_decoration,
    keyword_matches_effect,
    pair,
    quoted,
    rank_of_keyword,
    rebuild,
    strong,
    weak,
)
from decolog.deduction import (
    AXIOM,
    EXPECT_COUNTERMODEL,
    EXPECT_SOUND,
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
    WEAK_TO_STRONG_LOWRANK,
    RULES,
    DeductionError,
    DepthExhausted,
    Derivation,
    IllFormedParameter,
    RuleMisapplied,
    ScenarioResult,
    _conclude,
    _param,
    check_derivation,
    deriv,
    path_str,
)
from decolog.duality import DualityMap, NotDualizable, _dual_term
from decolog.files import MAX_DEPTH, ParseError
from decolog.semantics import (
    DEFAULT_MAX_INTERPRETATIONS,
    EXC,
    OK,
    UNIT,
    Bounds,
    BoundsTooLarge,
    Counterexample,
    Element,
    FactoringInvariantError,
    FiniteModel,
    ModelMismatch,
    OperationTable,
    SemanticsError,
    UnknownBaseType,
    exc,
    ok,
)


# ---------------------------------------------------------------------------
# Labelled carriers and table shapes
# ---------------------------------------------------------------------------

def is_ok(x: Element) -> bool:
    return isinstance(x, tuple) and len(x) == 2 and x[0] == OK


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


# ---------------------------------------------------------------------------
# Term analysis: one walk per question
# ---------------------------------------------------------------------------
#
# decolog.calculus answers every question about a term from one memoized
# walk, calculus.analysis.  Below are the separate walks it replaced, as
# they were: analyze_term for types and rank; normalize, _atoms,
# _leftmost_id_type and _spine for the normal form; deduction's
# _normal_spine, which read the spine back off a normal term; and
# duality's _swap under normalize for the mirror term.  operations_used
# gives the operations whose tables the evaluator reads for a term.

def analyze_term(theory: Theory, term: DecoratedTerm) -> tuple[TypeExpr, TypeExpr, Decoration]:
    """Domain, codomain and inferred rank of a term, or a CalculusError."""
    if isinstance(term, Id):
        _check_type_declared(theory, term.ty)
        return term.ty, term.ty, 0
    if isinstance(term, Op):
        sym = theory.op(term.name)
        return sym.dom, sym.cod, sym.decoration
    if isinstance(term, Comp):
        fdom, fcod, frank = analyze_term(theory, term.first)
        gdom, gcod, grank = analyze_term(theory, term.after)
        if fcod != gdom:
            raise CompositionTypeMismatch(fcod, gdom)
        return fdom, gcod, max(frank, grank)
    if isinstance(term, Pair):
        ldom, lcod, lrank = analyze_term(theory, term.left)
        rdom, rcod, rrank = analyze_term(theory, term.right)
        if ldom != rdom:
            raise PairDomainMismatch(
                f"pair components need one domain, got {type_str(ldom)} and {type_str(rdom)}"
            )
        limit = PAIR_COMPONENT_RANK_LIMIT[theory.effect]
        if lrank > limit or rrank > limit:
            raise PairRankViolation(
                f"pair components must have rank <= {limit} under {theory.effect}, "
                f"got ranks ({lrank}, {rrank})"
            )
        return ldom, Prod(lcod, rcod), max(lrank, rrank)
    if isinstance(term, Proj1):
        _check_type_declared(theory, term.left_ty)
        _check_type_declared(theory, term.right_ty)
        return Prod(term.left_ty, term.right_ty), term.left_ty, 0
    if isinstance(term, Proj2):
        _check_type_declared(theory, term.left_ty)
        _check_type_declared(theory, term.right_ty)
        return Prod(term.left_ty, term.right_ty), term.right_ty, 0
    if isinstance(term, Bang):
        _check_type_declared(theory, term.ty)
        return term.ty, Unit, 0
    raise TypeError(f"not a term: {term!r}")


def normalize(term: DecoratedTerm) -> DecoratedTerm:
    """Canonical form: compositions right-associated with identity factors
    dropped, Bang(Unit) collapsed to Id(Unit).  Associativity and identity
    laws are definitional, so equality of normal forms is the term equality
    used everywhere else.
    """
    if isinstance(term, Comp):
        atoms = list(_atoms(term))
        if not atoms:
            return Id(_leftmost_id_type(term))
        return _spine(atoms)
    if isinstance(term, Pair):
        return Pair(normalize(term.left), normalize(term.right))
    if isinstance(term, Bang) and isinstance(term.ty, UnitType):
        return Id(Unit)
    return term


def _atoms(term: DecoratedTerm) -> Iterator[DecoratedTerm]:
    """Non-identity composition factors, outermost (last applied) first."""
    if isinstance(term, Comp):
        yield from _atoms(term.after)
        yield from _atoms(term.first)
    elif isinstance(term, Id):
        return
    else:
        t = normalize(term)
        if not isinstance(t, Id):
            yield t


def _leftmost_id_type(term: DecoratedTerm) -> TypeExpr:
    # Only reached when every factor is an identity; any factor's type works
    # for well-formed input.
    while isinstance(term, Comp):
        term = term.first
    assert isinstance(term, Id) or (
        isinstance(term, Bang) and isinstance(term.ty, UnitType)
    )
    return Unit if isinstance(term, Bang) else term.ty


def _spine(atoms: list[DecoratedTerm]) -> DecoratedTerm:
    return reduce(lambda acc, a: Comp(a, acc), reversed(atoms[:-1]), atoms[-1]) \
        if len(atoms) > 1 else atoms[0]


def normal_spine(term: DecoratedTerm) -> tuple[DecoratedTerm, ...]:
    """The composition factors of a term already in normal form, outermost
    first (none for an identity), read off its right-associated chain."""
    atoms = []
    while isinstance(term, Comp):
        atoms.append(term.after)
        term = term.first
    if not isinstance(term, Id):
        atoms.append(term)
    return tuple(atoms)


def operations_used(theory: Theory, term: DecoratedTerm) -> tuple[int, ...]:
    """Positions in theory.operations of the operations a term names, in
    increasing order: the slots of the evaluator's tables."""
    names = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Op):
            names.add(t.name)
        elif isinstance(t, Comp):
            stack += (t.after, t.first)
        elif isinstance(t, Pair):
            stack += (t.left, t.right)
    return tuple(i for i, sym in enumerate(theory.operations) if sym.name in names)


def _swap(term: DecoratedTerm) -> DecoratedTerm:
    if isinstance(term, Comp):
        return Comp(_swap(term.first), _swap(term.after))
    return term


def dual_term(term: DecoratedTerm) -> DecoratedTerm:
    return normalize(_swap(term))


# ---------------------------------------------------------------------------
# Term and type walks: one recursive function each
# ---------------------------------------------------------------------------
# calculus' analysis, type_str and term_str, duality's _term_offenders,
# files' element_str (and _depth, with the parser below), and
# semantics' _Layout.size, _Layout.values and _Program._uses, as they were
# before calculus.walk and plain loops replaced them: each recurses once
# per level, so each stops at Python's recursion limit on a deep enough
# value.

def analysis(theory: Optional[Theory], term: DecoratedTerm) -> Analysis:
    """The analysis of a term, or the first CalculusError of its walk.  The
    walk takes the term as given, each part before the check that joins
    them: the first factor before the later one, the left component before
    the right.  A theory keeps every success, under the term and under its
    normal form, for as long as it lives, and looks up only interned values.
    Without a theory nothing is checked or kept, and an operation's types are None."""
    if theory is not None and isinstance(term, Interned):
        found = theory._analyses.get(term)
        if found is not None:
            return found
    kind = term.__class__
    if kind is Comp:
        first, after = analysis(theory, term.first), analysis(theory, term.after)
        if theory is not None and first.cod != after.dom:
            raise CompositionTypeMismatch(first.cod, after.dom)
        rank = max(first.rank, after.rank)
        if first.atoms and after.atoms:
            normal = (term if len(after.atoms) == 1 and after.term is term.after
                      and first.term is term.first else rebuild(after.atoms, first.term))
            found = Analysis((first.dom, after.cod, rank, after.atoms + first.atoms, normal, ()))
        else:
            # an identity side drops out, and the normal form is the other's
            kept = after if after.atoms else first
            found = Analysis((first.dom, after.cod, rank, kept.atoms, kept.term, kept.parts))
    elif kind is Op:
        if theory is None:
            found = Analysis((None, None, 0, (term,), term, ()))
        else:
            sym = theory.op(term.name)
            found = Analysis((sym.dom, sym.cod, sym.decoration, (term,), term, ()))
    elif kind is Pair:
        left, right = analysis(theory, term.left), analysis(theory, term.right)
        if theory is not None:
            if left.dom != right.dom:
                raise PairDomainMismatch(f"pair components need one domain, "
                                         f"got {type_str(left.dom)} and {type_str(right.dom)}")
            limit = PAIR_COMPONENT_RANK_LIMIT[theory.effect]
            if left.rank > limit or right.rank > limit:
                raise PairRankViolation(
                    f"pair components must have rank <= {limit} under {theory.effect}, "
                    f"got ranks ({left.rank}, {right.rank})")
        normal = (term if left.term is term.left and right.term is term.right
                  else Pair(left.term, right.term))
        found = Analysis((left.dom, Prod(left.cod, right.cod), max(left.rank, right.rank),
                          (normal,), normal, (left, right)))
    elif kind is Id:
        _check_type_declared(theory, term.ty)
        found = Analysis((term.ty, term.ty, 0, (), term, ()))
    elif kind is Proj1 or kind is Proj2:
        _check_type_declared(theory, term.left_ty)
        _check_type_declared(theory, term.right_ty)
        found = Analysis((Prod(term.left_ty, term.right_ty),
                          term.left_ty if kind is Proj1 else term.right_ty, 0, (term,), term, ()))
    elif kind is Bang:
        _check_type_declared(theory, term.ty)
        found = (Analysis((Unit, Unit, 0, (), Id(Unit), ())) if term.ty == Unit
                 else Analysis((term.ty, Unit, 0, (term,), term, ())))
    else:
        raise TypeError(f"not a term: {quoted(term)}")
    if theory is not None:
        theory._analyses[term] = theory._analyses[found.term] = found
    return found


def type_str(t: TypeExpr) -> str:
    """Render a type; products associate to the left."""
    if isinstance(t, BaseType):
        return t.name
    if isinstance(t, UnitType):
        return "Unit"
    left = type_str(t.left)
    right = type_str(t.right)
    if isinstance(t.right, Prod):
        right = f"({right})"
    return f"{left} * {right}"


def term_str(term: DecoratedTerm) -> str:
    """Render a term in the surface syntax: `f . g` for composition, `<f, g>`
    for pairs, and explicit types on the builtins."""
    if isinstance(term, Comp):
        return term_str(term.after) + " . " + term_str(term.first)
    if isinstance(term, Op):
        return term.name
    if isinstance(term, Id):
        return f"id({type_str(term.ty)})"
    if isinstance(term, Pair):
        return f"<{term_str(term.left)}, {term_str(term.right)}>"
    if isinstance(term, Proj1):
        return f"p1({type_str(term.left_ty)}, {type_str(term.right_ty)})"
    if isinstance(term, Proj2):
        return f"p2({type_str(term.left_ty)}, {type_str(term.right_ty)})"
    if isinstance(term, Bang):
        return f"bang({type_str(term.ty)})"
    raise TypeError(f"not a term: {quoted(term)}")


def _term_offenders(term: DecoratedTerm) -> list[str]:
    if isinstance(term, Comp):
        return _term_offenders(term.after) + _term_offenders(term.first)
    if isinstance(term, Pair):
        return ([f"pair {term_str(term)}"]
                + _term_offenders(term.left) + _term_offenders(term.right))
    if isinstance(term, (Proj1, Proj2)):
        return [f"projection {term_str(term)}"]
    if isinstance(term, Bang):
        return [f"{term_str(term)}"]
    if isinstance(term, Id) and isinstance(term.ty, Prod):
        return [f"product type {type_str(term.ty)}"]
    return []


def element_str(e: Element) -> str:
    if e == UNIT:
        return "*"
    if isinstance(e, tuple):
        if len(e) == 2 and e[0] in (OK, EXC):
            return f"{e[0]}({element_str(e[1])})"
        return "(" + ", ".join(element_str(x) for x in e) + ")"
    return str(e)


class Layout:
    """semantics._Layout's size and values over given carriers."""

    def __init__(self, carriers: Mapping[str, tuple]):
        self.carriers = carriers

    def size(self, ty: TypeExpr) -> int:
        if isinstance(ty, BaseType):
            carrier = self.carriers.get(ty.name)
            if carrier is None:
                raise UnknownBaseType(f"no carrier for base type {quoted(ty.name)}")
            return len(carrier)
        if isinstance(ty, Prod):
            return self.size(ty.left) * self.size(ty.right)
        return 1

    def values(self, ty: TypeExpr) -> tuple:
        """The elements of ty in numbering order: a base type's carrier,
        Unit's one element, a product's pairs with the left component
        varying slowest."""
        if isinstance(ty, BaseType):
            carrier = self.carriers.get(ty.name)
            if carrier is None:
                raise UnknownBaseType(f"no carrier for base type {quoted(ty.name)}")
            return carrier
        if isinstance(ty, Prod):
            return tuple(itertools.product(self.values(ty.left), self.values(ty.right)))
        return (UNIT,)


class Uses:
    """semantics._Program's _uses over one theory, which _Program._compile
    replaced: the operation names and the pairs' parts of a term."""

    def __init__(self, theory: Theory):
        self.theory = theory
        self._parts: dict = {}

    def _uses(self, found: Analysis, names: set) -> Analysis:
        """found, after putting the names of its operations into names and
        the analyses of its pairs' parts into _parts."""
        for atom in found.atoms:
            if atom.__class__ is Op:
                names.add(atom.name)
            elif atom.__class__ is Pair:
                parts = self._parts[atom] = analysis(self.theory, atom).parts
                for part in parts:
                    self._uses(part, names)
        return found


# ---------------------------------------------------------------------------
# Composition spines
# ---------------------------------------------------------------------------

def spine(term: DecoratedTerm) -> tuple[DecoratedTerm, ...]:
    """Composition factors of the normal form, outermost first.

    Empty for identities; callers keep the domain type around for that case.
    """
    term = normalize(term)
    atoms = []
    while isinstance(term, Comp):
        atoms.append(term.after)
        term = term.first
    if not isinstance(term, Id):
        atoms.append(term)
    return tuple(atoms)


def from_spine(atoms: Iterable[DecoratedTerm], dom: TypeExpr) -> DecoratedTerm:
    atoms = list(atoms)
    return compose(*atoms) if atoms else Id(dom)


# ---------------------------------------------------------------------------
# Rank-2 algebra on label dictionaries
# ---------------------------------------------------------------------------

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


def pair_mappings(effect: EffectKind, left: Mapping, right: Mapping) -> dict:
    """Rank-2 mapping of a pair from its components' rank-2 mappings (the
    components must factor through the pair rank limit)."""
    if effect is EffectKind.EXCEPTIONS:
        # components are pure, so ok inputs land on ok outputs
        return {x: ok((lv[1], right[x][1])) if is_ok(x) else x
                for x, lv in left.items()}
    return {(a, s): ((lv[0], right[(a, s)][0]), s) for (a, s), lv in left.items()}


def weak_equal(effect: EffectKind, lhs: Mapping, rhs: Mapping) -> bool:
    """Equality through the effect boundary of two rank-2 mappings."""
    if effect is EffectKind.EXCEPTIONS:
        return all(v == rhs[x] for x, v in lhs.items() if is_ok(x))
    return all(v[0] == rhs[x][0] for x, v in lhs.items())


# ---------------------------------------------------------------------------
# Evaluation and countermodel search on label dictionaries
# ---------------------------------------------------------------------------

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
    for base_sizes in itertools.product(range(1, bounds.base + 1),
                                        repeat=len(theory.base_types)):
        for eff_size in range(1, bounds.effect + 1):
            yield base_sizes, eff_size


def _carrier_shapes(theory: Theory, bounds: Bounds) -> Iterator[tuple[dict, tuple, list, list]]:
    """Per carrier-size assignment in canonical order: the carriers, the
    effect carrier and each operation's table inputs and possible outputs."""
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
        yield carriers, eff, op_inputs, op_output_spaces


def _check_ceiling(theory: Theory, bounds: Bounds, max_interpretations: int) -> None:
    total = 0
    for _, _, op_inputs, op_output_spaces in _carrier_shapes(theory, bounds):
        count = 1
        for ins, outs in zip(op_inputs, op_output_spaces):
            count *= len(outs) ** len(ins)
        total += count
    if total > max_interpretations:
        raise BoundsTooLarge(
            f"{total} interpretations within bounds, ceiling is {max_interpretations}")


def candidates(theory: Theory, bounds: Bounds) -> Iterator[FiniteModel]:
    """Every raw interpretation within bounds as a FiniteModel, in
    canonical order."""
    for carriers, eff, op_inputs, op_output_spaces in _carrier_shapes(theory, bounds):
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


# ---------------------------------------------------------------------------
# Rule-soundness sweep on label dictionaries
# ---------------------------------------------------------------------------

def _maps(effect: EffectKind, rank: int, dom: tuple, cod: tuple,
          eff: tuple) -> Iterator[dict]:
    ins = table_domain(effect, rank, dom, eff)
    outs = table_outputs(effect, rank, cod, eff)
    for combo in itertools.product(outs, repeat=len(ins)):
        yield dict(zip(ins, combo))


def _lifted_maps(effect: EffectKind, rank: int, dom: tuple, cod: tuple,
                 eff: tuple) -> Iterator[dict]:
    for m in _maps(effect, rank, dom, cod, eff):
        yield lift_mapping(effect, rank, m, eff)


def _summary(**named_tables: Mapping) -> str:
    parts = []
    for name, m in named_tables.items():
        inside = ", ".join(f"{k!r}->{v!r}" for k, v in m.items())
        parts.append(f"{name} = {{{inside}}}")
    return "; ".join(parts)


Check = Callable[..., tuple[int, int, Optional[str]]]


@dataclass(frozen=True)
class _Scenario:
    rule: str
    description: str
    expectation: str
    roles: tuple[str, ...]
    run: Check


def _run_check(combos, conclusion, stop) -> tuple[int, int, Optional[str]]:
    """Count conclusion failures over the combos; with stop set, return at
    the first failure (used when one countermodel settles the question)."""
    checked = violations = 0
    example = None
    for named in combos:
        checked += 1
        if not conclusion(named):
            violations += 1
            if example is None:
                example = _summary(**named)
            if stop:
                break
    return checked, violations, example


def _sc_refl(effect, carriers, eff, stop=False):
    A, B = carriers["A"], carriers["B"]
    combos = ({"f": m} for r in (0, 1, 2) for m in _lifted_maps(effect, r, A, B, eff))
    return _run_check(combos, lambda n: n["f"] == n["f"], stop)


def _sc_sym_weak(effect, carriers, eff, stop=False):
    A, B = carriers["A"], carriers["B"]
    combos = ({"f1": f1, "f2": f2}
              for f1 in _lifted_maps(effect, 2, A, B, eff)
              for f2 in weak_variants(effect, f1, eff, B))
    return _run_check(combos, lambda n: weak_equal(effect, n["f2"], n["f1"]), stop)


def _sc_trans_weak(effect, carriers, eff, stop=False):
    A, B = carriers["A"], carriers["B"]
    combos = ({"f1": f1, "f2": f2, "f3": f3}
              for f1 in _lifted_maps(effect, 2, A, B, eff)
              for f2 in weak_variants(effect, f1, eff, B)
              for f3 in weak_variants(effect, f2, eff, B))
    return _run_check(combos, lambda n: weak_equal(effect, n["f1"], n["f3"]), stop)


def _sc_weak_to_strong_lowrank(effect, carriers, eff, stop=False):
    A, B = carriers["A"], carriers["B"]
    def combos():
        for f1 in _lifted_maps(effect, 1, A, B, eff):
            for f2 in weak_variants(effect, f1, eff, B):
                # keep only variants that still factor at rank 1
                if check_factoring(effect, 1, f2) is None:
                    yield {"f1": f1, "f2": f2}
    return _run_check(combos(), lambda n: n["f1"] == n["f2"], stop)


def _sc_weak_to_strong_rank2(effect, carriers, eff, stop=False):
    A, B = carriers["A"], carriers["B"]
    combos = ({"f1": f1, "f2": f2}
              for f1 in _lifted_maps(effect, 2, A, B, eff)
              for f2 in weak_variants(effect, f1, eff, B))
    return _run_check(combos, lambda n: n["f1"] == n["f2"], stop)


def _sc_subst_strong(effect, carriers, eff, stop=False):
    A, B, Z = carriers["A"], carriers["B"], carriers["Z"]
    combos = ({"f": f, "g": g}
              for f in _lifted_maps(effect, 2, A, B, eff)
              for rg in (0, 1, 2)
              for g in _lifted_maps(effect, rg, Z, A, eff))
    return _run_check(combos,
                      lambda n: compose_mappings(n["f"], n["g"])
                      == compose_mappings(n["f"], n["g"]), stop)


def _weak_subst_combos(effect, carriers, eff, g_ranks):
    A, B, Z = carriers["A"], carriers["B"], carriers["Z"]
    for f1 in _lifted_maps(effect, 2, A, B, eff):
        for f2 in weak_variants(effect, f1, eff, B):
            if f1 == f2:
                continue
            for rg in g_ranks:
                for g in _lifted_maps(effect, rg, Z, A, eff):
                    yield {"f1": f1, "f2": f2, "g": g}


def _sc_weak_subst(g_ranks):
    def run(effect, carriers, eff, stop=False):
        return _run_check(
            _weak_subst_combos(effect, carriers, eff, g_ranks),
            lambda n: weak_equal(effect,
                                 compose_mappings(n["f1"], n["g"]),
                                 compose_mappings(n["f2"], n["g"])), stop)
    return run


def _weak_repl_combos(effect, carriers, eff, h_ranks):
    A, B, C = carriers["A"], carriers["B"], carriers["C"]
    for f1 in _lifted_maps(effect, 2, A, B, eff):
        for f2 in weak_variants(effect, f1, eff, B):
            if f1 == f2:
                continue
            for rh in h_ranks:
                for h in _lifted_maps(effect, rh, B, C, eff):
                    yield {"f1": f1, "f2": f2, "h": h}


def _sc_weak_repl(h_ranks):
    def run(effect, carriers, eff, stop=False):
        return _run_check(
            _weak_repl_combos(effect, carriers, eff, h_ranks),
            lambda n: weak_equal(effect,
                                 compose_mappings(n["h"], n["f1"]),
                                 compose_mappings(n["h"], n["f2"])), stop)
    return run


def _component_ranks(effect):
    return tuple(range(PAIR_COMPONENT_RANK_LIMIT[effect] + 1))


def _sc_pair_proj(effect, carriers, eff, stop=False):
    A, B, C = carriers["A"], carriers["B"], carriers["C"]
    ranks = _component_ranks(effect)
    prod = tuple(itertools.product(B, C))
    p1 = lift_mapping(effect, 0, {p: p[0] for p in prod}, eff)
    p2 = lift_mapping(effect, 0, {p: p[1] for p in prod}, eff)
    combos = ({"f": f, "g": g}
              for rf in ranks for f in _lifted_maps(effect, rf, A, B, eff)
              for rg in ranks for g in _lifted_maps(effect, rg, A, C, eff))

    def conclusion(n):
        paired = pair_mappings(effect, n["f"], n["g"])
        return (compose_mappings(p1, paired) == n["f"]
                and compose_mappings(p2, paired) == n["g"])
    return _run_check(combos, conclusion, stop)


def _sc_pair_cong(effect, carriers, eff, stop=False):
    A, B, C = carriers["A"], carriers["B"], carriers["C"]
    ranks = _component_ranks(effect)
    combos = ({"f": f, "g": g}
              for rf in ranks for f in _lifted_maps(effect, rf, A, B, eff)
              for rg in ranks for g in _lifted_maps(effect, rg, A, C, eff))
    return _run_check(combos,
                      lambda n: pair_mappings(effect, n["f"], n["g"])
                      == pair_mappings(effect, n["f"], n["g"]), stop)


def _sc_pair_comp(effect, carriers, eff, stop=False):
    A, B, C, Z = carriers["A"], carriers["B"], carriers["C"], carriers["Z"]
    ranks = _component_ranks(effect)
    combos = ({"f": f, "g": g, "w": w}
              for rf in ranks for f in _lifted_maps(effect, rf, A, B, eff)
              for rg in ranks for g in _lifted_maps(effect, rg, A, C, eff)
              for rw in ranks for w in _lifted_maps(effect, rw, Z, A, eff))

    def conclusion(n):
        lhs = compose_mappings(pair_mappings(effect, n["f"], n["g"]), n["w"])
        rhs = pair_mappings(effect,
                            compose_mappings(n["f"], n["w"]),
                            compose_mappings(n["g"], n["w"]))
        return lhs == rhs
    return _run_check(combos, conclusion, stop)


def _sc_unit(strength, ranks):
    def run(effect, carriers, eff, stop=False):
        A = carriers["A"]
        bang = lift_mapping(effect, 0, {a: UNIT for a in A}, eff)
        combos = ({"f": f}
                  for r in ranks
                  for f in _lifted_maps(effect, r, A, (UNIT,), eff))
        if strength is Strength.STRONG:
            conclusion = lambda n: n["f"] == bang
        else:
            conclusion = lambda n: weak_equal(effect, n["f"], bang)
        return _run_check(combos, conclusion, stop)
    return run


def _scenarios(effect: EffectKind) -> tuple[_Scenario, ...]:
    out = [
        _Scenario(REFL, "a term equals itself", EXPECT_SOUND, ("A", "B"), _sc_refl),
        _Scenario(SYM, "weak equality is symmetric", EXPECT_SOUND, ("A", "B"),
                  _sc_sym_weak),
        _Scenario(TRANS_WEAK, "weak equality chains", EXPECT_SOUND, ("A", "B"),
                  _sc_trans_weak),
        _Scenario(WEAK_TO_STRONG_LOWRANK,
                  "weak agreement at rank <= 1 is already strong",
                  EXPECT_SOUND, ("A", "B"), _sc_weak_to_strong_lowrank),
        _Scenario(WEAK_TO_STRONG_LOWRANK,
                  "at rank 2 weak agreement is strictly weaker",
                  EXPECT_COUNTERMODEL, ("A", "B"), _sc_weak_to_strong_rank2),
        _Scenario(SUBST_STRONG, "strong equality precomposes", EXPECT_SOUND,
                  ("A", "B", "Z"), _sc_subst_strong),
        _Scenario(PAIR_PROJ, "projections undo pairing", EXPECT_SOUND,
                  ("A", "B", "C"), _sc_pair_proj),
        _Scenario(PAIR_CONG_STRONG, "pairing is a congruence", EXPECT_SOUND,
                  ("A", "B", "C"), _sc_pair_cong),
        _Scenario(PAIR_COMP_LOWRANK, "pairing distributes over composition",
                  EXPECT_SOUND, ("A", "B", "C", "Z"), _sc_pair_comp),
    ]
    if effect is EffectKind.STATES:
        out += [
            _Scenario(WEAK_SUBST, "any g precomposes with a weak equation",
                      EXPECT_SOUND, ("A", "B", "Z"), _sc_weak_subst((0, 1, 2))),
            _Scenario(WEAK_REPL, "pure h postcomposes with a weak equation",
                      EXPECT_SOUND, ("A", "B", "C"), _sc_weak_repl((0,))),
            _Scenario(WEAK_REPL, "an impure h distinguishes weakly equal terms",
                      EXPECT_COUNTERMODEL, ("A", "B", "C"), _sc_weak_repl((1, 2))),
            _Scenario(UNIT_STRONG_LOWRANK, "rank <= 1 terms into Unit are canonical",
                      EXPECT_SOUND, ("A",), _sc_unit(Strength.STRONG, (0, 1))),
            _Scenario(UNIT_STRONG_LOWRANK, "a modifier into Unit is not canonical",
                      EXPECT_COUNTERMODEL, ("A",), _sc_unit(Strength.STRONG, (2,))),
            _Scenario(UNIT_WEAK, "every term into Unit is weakly canonical",
                      EXPECT_SOUND, ("A",), _sc_unit(Strength.WEAK, (0, 1, 2))),
        ]
    else:
        out += [
            _Scenario(WEAK_SUBST, "pure g precomposes with a weak equation",
                      EXPECT_SOUND, ("A", "B", "Z"), _sc_weak_subst((0,))),
            _Scenario(WEAK_SUBST, "an impure g distinguishes weakly equal terms",
                      EXPECT_COUNTERMODEL, ("A", "B", "Z"), _sc_weak_subst((1, 2))),
            _Scenario(WEAK_REPL, "any h postcomposes with a weak equation",
                      EXPECT_SOUND, ("A", "B", "C"), _sc_weak_repl((0, 1, 2))),
            _Scenario(UNIT_STRONG_LOWRANK, "pure terms into Unit are canonical",
                      EXPECT_SOUND, ("A",), _sc_unit(Strength.STRONG, (0,))),
            _Scenario(UNIT_STRONG_LOWRANK, "a propagator into Unit may raise",
                      EXPECT_COUNTERMODEL, ("A",), _sc_unit(Strength.STRONG, (1,))),
            _Scenario(UNIT_WEAK, "pure terms into Unit are weakly canonical",
                      EXPECT_SOUND, ("A",), _sc_unit(Strength.WEAK, (0,))),
            _Scenario(UNIT_WEAK, "a propagator into Unit may raise even weakly",
                      EXPECT_COUNTERMODEL, ("A",), _sc_unit(Strength.WEAK, (1, 2))),
        ]
    return tuple(out)


def _run_scenario(effect: EffectKind, sc: _Scenario,
                  max_carrier: int) -> ScenarioResult:
    stop = sc.expectation == EXPECT_COUNTERMODEL
    checked = violations = 0
    example = None
    sizes = range(1, max_carrier + 1)
    for combo in itertools.product(sizes, repeat=len(sc.roles)):
        carriers = {role: tuple(range(n)) for role, n in zip(sc.roles, combo)}
        for eff_size in sizes:
            eff = tuple(range(eff_size))
            c, v, ex_here = sc.run(effect, carriers, eff, stop=stop)
            checked += c
            violations += v
            if example is None and ex_here is not None:
                sizes_str = ", ".join(f"|{r}|={n}" for r, n in zip(sc.roles, combo))
                example = f"{sizes_str}, effect carrier size {eff_size}: {ex_here}"
            if stop and violations:
                return ScenarioResult(sc.rule, effect, sc.description,
                                      sc.expectation, checked, violations, example)
    return ScenarioResult(sc.rule, effect, sc.description, sc.expectation,
                          checked, violations, example)


# ---------------------------------------------------------------------------
# Derivation walks
# ---------------------------------------------------------------------------

def _check(theory: Theory, d: Derivation, path: tuple[int, ...]) -> DecoratedEquation:
    rule = RULES.get(d.rule)
    if rule is None:
        raise RuleMisapplied(path, f"unknown rule {quoted(d.rule)}")
    # a loop, not a comprehension: one stack frame per level keeps a
    # derivation nested files.MAX_DEPTH deep well inside the recursion limit
    premises = []
    for i, p in enumerate(d.premises):
        premises.append(_check(theory, p, path + (i,)))
    if len(premises) != len(rule.premises):
        raise RuleMisapplied(
            path, f"{d.rule} takes {len(rule.premises)} premise(s), got {len(premises)}")
    given = [key for key, _ in d.params]
    for key in given:
        if key not in rule.params:
            raise IllFormedParameter(path, f"{d.rule} takes no parameter {quoted(key)}")
        if given.count(key) > 1:
            raise IllFormedParameter(path, f"parameter {quoted(key)} of {d.rule} given twice")
    params = {key: _param(theory, d, key, path) for key in rule.params}
    for i, (p, want) in enumerate(zip(premises, rule.premises), 1):
        if want is not None and p.strength is not want:
            raise RuleMisapplied(
                path, f"premise {i} of {d.rule} must be {want}, got {p.strength}")
    try:
        eq = _conclude(theory, d, premises, params, path)
        check_equation_wf(theory, eq)
        return eq
    except CalculusError as e:
        raise RuleMisapplied(path, f"{d.rule}: {e}")


def _param_str(value: object) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    return term_str(value)


def print_derivation(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    head = " ".join([d.rule] + [f"{key}={_param_str(v)}" for key, v in d.params])
    if not d.premises:
        return f"{pad}({head})"
    body = "\n".join(print_derivation(p, indent + 1) for p in d.premises)
    return f"{pad}({head}\n{body})"


def _derivation_offenders(d: Derivation, path: tuple[int, ...]) -> list[str]:
    out = []
    if d.rule in RULES and RULES[d.rule].dual is None:
        out.append(f"rule {d.rule} at {path_str(path)}")
    for key, value in d.params:
        if isinstance(value, DecoratedTerm):
            out.extend(f"{o} (parameter {key} at {path_str(path)})"
                       for o in _term_offenders(value))
    for i, premise in enumerate(d.premises):
        out.extend(_derivation_offenders(premise, path + (i,)))
    return out


def _dual_derivation(d: Derivation) -> Derivation:
    rule = RULES[d.rule].dual
    # a rule that trades places trades its parameter too: subst's g is repl's h
    rename = dict(zip(RULES[d.rule].params, RULES[rule].params))
    params = []
    for key, value in d.params:
        if isinstance(value, DecoratedTerm):
            value = _dual_term(value)
        params.append((rename.get(key, key), value))
    return Derivation(rule, tuple(params),
                      tuple(_dual_derivation(p) for p in d.premises))


def dualize_derivation(m: DualityMap, d: Derivation) -> Derivation:
    """duality.dualize_derivation over the walks above."""
    offenders = _derivation_offenders(d, ())
    if offenders:
        raise NotDualizable(offenders)
    _check(m.source, d, ())
    image = _dual_derivation(d)
    _check(m.target, image, ())
    return image


# ---------------------------------------------------------------------------
# Text front end: tokens with positions, then the five parsers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, SYM, NL, EOF
    value: str
    line: int
    col: int


_TWO_CHAR_SYMS = ("->", "==")
_ONE_CHAR_SYMS = frozenset(":=~.*<>,(){}∘≈")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            tokens.append(Token("NL", "\n", line, col))
            line, col, i = line + 1, 1, i + 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] in _TWO_CHAR_SYMS:
            tokens.append(Token("SYM", text[i:i + 2], line, col))
            i, col = i + 2, col + 2
            continue
        if c in _ONE_CHAR_SYMS:
            tokens.append(Token("SYM", c, line, col))
            i, col = i + 1, col + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Stream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value if tok.kind != "EOF" else "end of input"
            raise self.fail(f"expected {want!r}, got {got!r}")
        return self.next()

    def at_sym(self, *values: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.value in values

    def take_sym(self, *values: str) -> bool:
        if self.at_sym(*values):
            self.next()
            return True
        return False

    def skip_newlines(self) -> None:
        while self.peek().kind == "NL":
            self.next()

    def end_line(self) -> None:
        tok = self.peek()
        if tok.kind not in ("NL", "EOF"):
            raise self.fail(f"unexpected {tok.value!r} at end of stanza")
        self.skip_newlines()

    def at_eof(self) -> bool:
        return self.peek().kind == "EOF"


# ---------------------------------------------------------------------------
# Types and terms
# ---------------------------------------------------------------------------

def _too_deep(s: _Stream, what: str) -> ParseError:
    return s.fail(f"{what} nested deeper than {MAX_DEPTH} levels")


def _parse_type_atom(s: _Stream, level: int) -> tuple[TypeExpr, int]:
    if s.take_sym("("):
        if level >= MAX_DEPTH:
            raise _too_deep(s, "type")
        found = _parse_type_depth(s, level + 1)
        s.expect("SYM", ")")
        return found
    tok = s.expect("IDENT")
    return (Unit if tok.value == "Unit" else BaseType(tok.value)), 1


def _parse_type_depth(s: _Stream, level: int) -> tuple[TypeExpr, int]:
    ty, depth = _parse_type_atom(s, level)
    while s.take_sym("*"):
        right, right_depth = _parse_type_atom(s, level)
        ty, depth = Prod(ty, right), 1 + max(depth, right_depth)
        if depth > MAX_DEPTH:
            raise _too_deep(s, "type")
    return ty, depth


def _parse_type(s: _Stream, level: int = 0) -> TypeExpr:
    return _parse_type_depth(s, level)[0]


def _depth(term: DecoratedTerm) -> int:
    """Depth of a term as MAX_DEPTH counts it."""
    if isinstance(term, Comp):
        return _depth(term.after) + _depth(term.first)
    if isinstance(term, Pair):
        return 1 + max(_depth(term.left), _depth(term.right))
    return 1


def _parse_primary(s: _Stream, defs: dict[str, DecoratedTerm],
                   level: int) -> DecoratedTerm:
    if s.at_sym("(", "<") and level >= MAX_DEPTH:
        raise _too_deep(s, "term")
    if s.take_sym("("):
        term = _parse_term(s, defs, level + 1)
        s.expect("SYM", ")")
        return term
    if s.take_sym("<"):
        left = _parse_term(s, defs, level + 1)
        s.expect("SYM", ",")
        right = _parse_term(s, defs, level + 1)
        s.expect("SYM", ">")
        if 1 + max(_depth(left), _depth(right)) > MAX_DEPTH:
            raise _too_deep(s, "term")
        return pair(left, right)
    tok = s.expect("IDENT")
    name = tok.value
    if name == "id":
        s.expect("SYM", "(")
        ty = _parse_type(s, level)
        s.expect("SYM", ")")
        return Id(ty)
    if name == "bang":
        s.expect("SYM", "(")
        ty = _parse_type(s, level)
        s.expect("SYM", ")")
        return Bang(ty)
    if name in ("p1", "p2"):
        s.expect("SYM", "(")
        left = _parse_type(s, level)
        s.expect("SYM", ",")
        right = _parse_type(s, level)
        s.expect("SYM", ")")
        return (Proj1 if name == "p1" else Proj2)(left, right)
    if name in defs:
        return defs[name]
    return Op(name)


def _parse_term(s: _Stream, defs: dict[str, DecoratedTerm],
                level: int = 0) -> DecoratedTerm:
    factors = [_parse_primary(s, defs, level)]
    depth = _depth(factors[0])
    while s.take_sym(".", "∘"):
        factors.append(_parse_primary(s, defs, level))
        depth += _depth(factors[-1])
        if depth > MAX_DEPTH:
            raise _too_deep(s, "term")
    return compose(*factors)


def _parse_equation(s: _Stream, defs: dict[str, DecoratedTerm]) -> DecoratedEquation:
    tok = s.expect("IDENT")
    if tok.value not in ("strong", "weak"):
        raise ParseError(f"expected 'strong' or 'weak', got {tok.value!r}",
                         tok.line, tok.col)
    strength = Strength.STRONG if tok.value == "strong" else Strength.WEAK
    lhs = _parse_term(s, defs)
    op = s.expect("SYM")
    if op.value not in ("==", "~", "≈"):
        raise ParseError(f"expected '==' or '~', got {op.value!r}", op.line, op.col)
    if (op.value == "==") != (strength is Strength.STRONG):
        raise ParseError(f"operator {op.value!r} does not match {tok.value!r}",
                         op.line, op.col)
    rhs = _parse_term(s, defs)
    build = strong if strength is Strength.STRONG else weak
    return build(lhs, rhs)


def parse_equation(text: str, theory: Theory) -> DecoratedEquation:
    """`strong <term> == <term>` or `weak <term> ~ <term>`, with def names
    expanded from the theory."""
    s = _Stream([t for t in tokenize(text) if t.kind != "NL"])
    eq = _parse_equation(s, dict(theory.definitions))
    if not s.at_eof():
        raise s.fail(f"unexpected {s.peek().value!r} after equation")
    return eq


def parse_term(text: str, theory: Theory) -> DecoratedTerm:
    """A single term, with def names expanded from the theory."""
    s = _Stream([t for t in tokenize(text) if t.kind != "NL"])
    term = _parse_term(s, dict(theory.definitions))
    if not s.at_eof():
        raise s.fail(f"unexpected {s.peek().value!r} after term")
    return term


# ---------------------------------------------------------------------------
# Theory files
# ---------------------------------------------------------------------------

def parse_theory(text: str) -> Theory:
    s = _Stream(tokenize(text))
    effect: EffectKind | None = None
    base_types: list[str] = []
    operations: list[OperationSymbol] = []
    axioms: list[Axiom] = []
    definitions: list[tuple[str, DecoratedTerm]] = []
    defs: dict[str, DecoratedTerm] = {}

    s.skip_newlines()
    while not s.at_eof():
        kw = s.expect("IDENT")
        if kw.value == "effect":
            name = s.expect("IDENT")
            try:
                declared = EffectKind(name.value)
            except ValueError:
                raise ParseError(f"unknown effect {name.value!r}",
                                 name.line, name.col) from None
            if effect is not None:
                raise ParseError("duplicate effect stanza", kw.line, kw.col)
            effect = declared
        elif kw.value == "type":
            base_types.append(s.expect("IDENT").value)
        elif kw.value == "op":
            if effect is None:
                raise ParseError("effect must be declared before operations",
                                 kw.line, kw.col)
            name = s.expect("IDENT").value
            s.expect("SYM", ":")
            dom = _parse_type(s)
            s.expect("SYM", "->")
            cod = _parse_type(s)
            word = s.expect("IDENT")
            rank = rank_of_keyword(word.value)
            if rank is None:
                raise ParseError(f"unknown decoration keyword {word.value!r}",
                                 word.line, word.col)
            if not keyword_matches_effect(effect, word.value):
                raise TheoryError(
                    f"line {word.line}: keyword {word.value!r} does not belong "
                    f"to effect {effect}")
            operations.append(OperationSymbol(name, dom, cod, rank))
        elif kw.value == "def":
            name = s.expect("IDENT").value
            s.expect("SYM", "=")
            term = _parse_term(s, defs)
            defs[name] = term
            definitions.append((name, term))
        elif kw.value == "axiom":
            if s.peek().kind == "IDENT" and s.peek(1).kind == "SYM" \
                    and s.peek(1).value == ":":
                name = s.next().value
                s.next()
            else:
                name = f"ax{len(axioms) + 1}"
            axioms.append(Axiom(name, _parse_equation(s, defs)))
        else:
            raise ParseError(f"unknown stanza keyword {kw.value!r}",
                             kw.line, kw.col)
        s.end_line()
    if effect is None:
        raise s.fail("missing effect declaration")
    return Theory(effect=effect, base_types=tuple(base_types),
                  operations=tuple(operations), axioms=tuple(axioms),
                  definitions=tuple(definitions))

# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _parse_element(s: _Stream) -> Element:
    tok = s.peek()
    if tok.kind == "INT":
        return int(s.next().value)
    if s.take_sym("*"):
        return UNIT
    if tok.kind == "IDENT" and tok.value in (OK, EXC):
        tag = s.next().value
        s.expect("SYM", "(")
        inner = _parse_element(s)
        s.expect("SYM", ")")
        return (tag, inner)
    if s.take_sym("("):
        items = [_parse_element(s)]
        while s.take_sym(","):
            items.append(_parse_element(s))
        s.expect("SYM", ")")
        return items[0] if len(items) == 1 else tuple(items)
    raise s.fail(f"expected an element, got {tok.value!r}")

def _parse_int_set(s: _Stream) -> tuple[int, ...]:
    s.expect("SYM", "{")
    items = []
    if not s.at_sym("}"):
        items.append(int(s.expect("INT").value))
        while s.take_sym(","):
            items.append(int(s.expect("INT").value))
    s.expect("SYM", "}")
    return tuple(items)


_MODEL_KEYWORDS = ("carrier", "effectcarrier", "table")


def parse_model(text: str, theory: Theory) -> FiniteModel:
    """A finite model of the theory.  Table ranks come from the theory's
    declarations; shape and totality problems are left to validate_model."""
    s = _Stream(tokenize(text))
    carriers: dict[str, tuple] = {}
    effect_carrier: tuple | None = None
    tables: dict[str, OperationTable] = {}

    s.skip_newlines()
    while not s.at_eof():
        kw = s.expect("IDENT")
        if kw.value == "effectcarrier":
            if effect_carrier is not None:
                raise ParseError("duplicate effectcarrier stanza", kw.line, kw.col)
            s.expect("SYM", "=")
            effect_carrier = _parse_int_set(s)
            s.end_line()
        elif kw.value == "carrier":
            name = s.expect("IDENT").value
            if name in carriers:
                raise ParseError(f"duplicate carrier {name!r}", kw.line, kw.col)
            s.expect("SYM", "=")
            carriers[name] = _parse_int_set(s)
            s.end_line()
        elif kw.value == "table":
            name = s.expect("IDENT").value
            if name in tables:
                raise ParseError(f"duplicate table {name!r}", kw.line, kw.col)
            try:
                sym = theory.op(name)
            except UndeclaredSymbol:
                raise ModelMismatch(
                    f"table for undeclared operation {name!r}") from None
            s.end_line()
            mapping: dict = {}
            while True:
                tok = s.peek()
                if tok.kind == "EOF":
                    break
                if tok.kind == "IDENT" and tok.value in _MODEL_KEYWORDS:
                    break
                key = _parse_element(s)
                s.expect("SYM", "->")
                value = _parse_element(s)
                if key in mapping:
                    raise ParseError(f"duplicate row for {element_str(key)}",
                                     tok.line, tok.col)
                mapping[key] = value
                s.end_line()
            tables[name] = OperationTable(theory.effect, sym.decoration, mapping)
        else:
            raise ParseError(f"unknown stanza keyword {kw.value!r}",
                             kw.line, kw.col)
    if effect_carrier is None:
        raise s.fail("missing effectcarrier declaration")
    return FiniteModel(effect=theory.effect, carriers=carriers,
                       effect_carrier=effect_carrier, tables=tables)

# ---------------------------------------------------------------------------
# Derivation files
# ---------------------------------------------------------------------------

def _parse_deriv_node(s: _Stream, defs: dict[str, DecoratedTerm],
                      level: int = 0) -> Derivation:
    if level >= MAX_DEPTH:
        raise _too_deep(s, "derivation")
    s.expect("SYM", "(")
    rule = s.expect("IDENT").value
    params: list[tuple[str, object]] = []
    premises: list[Derivation] = []
    while not s.take_sym(")"):
        if s.at_sym("("):
            premises.append(_parse_deriv_node(s, defs, level + 1))
        elif s.peek().kind == "IDENT" and s.peek(1).kind == "SYM" \
                and s.peek(1).value == "=":
            key = s.next().value
            s.next()
            if key == "name":
                value: object = s.expect("IDENT").value
            elif key == "side":
                value = int(s.expect("INT").value)
            else:
                value = _parse_term(s, defs)
            params.append((key, value))
        elif s.peek().kind in ("IDENT", "INT") or s.at_sym("<"):
            # bare body: a term, or the spelled-out `lhs == rhs` of refl
            term = _parse_term(s, defs)
            if s.at_sym("=="):
                op = s.next()
                other = _parse_term(s, defs)
                if other != term:
                    raise ParseError("the sides of a refl body must be the "
                                     "same term", op.line, op.col)
            if rule == "axiom" and isinstance(term, Op):
                params.append(("name", term.name))
            else:
                params.append(("term", term))
        else:
            raise s.fail(f"unexpected {s.peek().value!r} in rule body")
    return Derivation(rule, tuple(params), tuple(premises))


def parse_derivation(text: str, theory: Theory) -> Derivation:
    s = _Stream([t for t in tokenize(text) if t.kind != "NL"])
    d = _parse_deriv_node(s, dict(theory.definitions))
    if not s.at_eof():
        raise s.fail(f"unexpected {s.peek().value!r} after derivation")
    return d
