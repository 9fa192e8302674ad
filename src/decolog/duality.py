"""Syntactic duality between the exceptions calculus and the states calculus.

The two effects mirror each other: raising maps to reading, catching to
writing, propagators to observers and catchers to modifiers.  The mirror is
composition reversal.  An operation f: A -> B becomes an operation with the
same name and rank from B to A, a composite g . f becomes f* . g*, and the
substitution rules trade places with the replacement rules.  Everything else
(strengths, axiom names, transitivity, symmetry) carries over unchanged, so a
derivation valid on one side maps to a derivation valid on the other.

Products do not survive the mirror: pairing would have to become copairing,
which the term language does not provide.  The transform therefore refuses
theories and derivations that mention product types, pairs, projections, or
the canonical arrows into Unit.  The Unit type itself is fine; it reads as
the empty product on one side and the empty copairing target on the other.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

from .calculus import (
    Axiom,
    Bang,
    Comp,
    DecoratedEquation,
    DecoratedTerm,
    EffectKind,
    Id,
    OperationSymbol,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Record,
    TERM_CLASSES,
    Theory,
    analysis,
    rank_name,
    rebuild,
    term_str,
    type_str,
    walk,
)
from .deduction import RULES, Derivation, check_derivation, fold, path_str


class NotDualizable(ValueError):
    """The input mentions constructs that have no mirror image."""

    def __init__(self, offenders: list[str]):
        self.offenders = tuple(offenders)
        super().__init__("no dual exists for: " + "; ".join(self.offenders))


DUAL_EFFECT = {
    EffectKind.EXCEPTIONS: EffectKind.STATES,
    EffectKind.STATES: EffectKind.EXCEPTIONS,
}

#: Rules that trade places under the mirror, read off deduction.RULES.  Every
#: other rule with a dual is its own.
DUAL_RULES = {name: rule.dual for name, rule in RULES.items()
              if rule.dual not in (None, name)}


#: How an offender is named, but an identity on a product type.
_OFFENCES = {Pair: "pair ", Proj1: "projection ", Proj2: "projection ", Bang: ""}


def _term_offenders(term: DecoratedTerm) -> list[str]:
    """What term holds that has no mirror, outermost first and in reading
    order, each named once the walk has found them all."""
    found = walk(term, lambda t, a=None, b=None: (
        b + a if t.__class__ is Comp else [t, *a, *b] if a is not None
        else [t] if t.__class__ in _OFFENCES or t.__class__ is Id and t.ty.__class__ is Prod
        else []))
    return [f"product type {type_str(t.ty)}" if t.__class__ is Id
            else _OFFENCES[t.__class__] + term_str(t) for t in found]


def _dual_term(term: DecoratedTerm) -> DecoratedTerm:
    """The term's spine atoms in reverse order, rebuilt: the identity on
    its codomain when there are none."""
    found = analysis(None, term)
    return rebuild(found.atoms[::-1], Id(found.cod))


def dualize_term(term: DecoratedTerm) -> DecoratedTerm:
    """The same atoms composed in the opposite order, in canonical form.
    Identities and operation names are their own duals; product constructs
    have none.  On canonical terms the transform is an exact involution."""
    bad = _term_offenders(term)
    if bad:
        raise NotDualizable(bad)
    return _dual_term(term)


def _dual_equation(eq: DecoratedEquation) -> DecoratedEquation:
    return DecoratedEquation(eq.strength, _dual_term(eq.lhs), _dual_term(eq.rhs))


def dualize_theory(theory: Theory) -> Theory:
    """The mirror theory: effect flipped, every arrow reversed, every name,
    rank, and axiom strength kept.  Applying the transform twice gives back
    the original theory exactly."""
    # an operation's types offend as the identities on them do
    terms = ([Id(ty) for sym in theory.operations for ty in (sym.dom, sym.cod)]
             + [term for _, term in theory.definitions]
             + [side for ax in theory.axioms for side in (ax.equation.lhs, ax.equation.rhs)])
    offenders = [o for term in terms for o in _term_offenders(term)]
    if offenders:
        raise NotDualizable(offenders)
    return Theory(
        effect=DUAL_EFFECT[theory.effect],
        base_types=theory.base_types,
        operations=tuple(
            OperationSymbol(sym.name, sym.cod, sym.dom, sym.decoration)
            for sym in theory.operations),
        axioms=tuple(
            Axiom(ax.name, _dual_equation(ax.equation)) for ax in theory.axioms),
        definitions=tuple(
            (name, _dual_term(term)) for name, term in theory.definitions),
    )


class DualityMap(Record):
    """A theory together with its mirror and the symbol correspondence.

    Built with duality_map().  Operation names are preserved, so the
    correspondence pairs each symbol with its reversed-arrow counterpart in
    declaration order.
    """
    __slots__ = ()
    source: Theory
    target: Theory

    def correspondence(self) -> Iterator[tuple[OperationSymbol, OperationSymbol]]:
        return zip(self.source.operations, self.target.operations)

    def rows(self) -> list[tuple[str, str, str]]:
        """(name, source signature, target signature) for each operation,
        with the rank spelled in each effect's own vocabulary."""
        out = []
        for src, tgt in self.correspondence():
            out.append((
                src.name,
                f"{type_str(src.dom)} -> {type_str(src.cod)} "
                f"[{rank_name(self.source.effect, src.decoration)}]",
                f"{type_str(tgt.dom)} -> {type_str(tgt.cod)} "
                f"[{rank_name(self.target.effect, tgt.decoration)}]",
            ))
        return out


def duality_map(theory: Theory) -> DualityMap:
    return DualityMap(source=theory, target=dualize_theory(theory))


def _derivation_offenders(found: list[str], d: Derivation, path: tuple[int, ...]) -> None:
    if d.rule in RULES and RULES[d.rule].dual is None:
        found.append(f"rule {d.rule} at {path_str(path)}")
    for key, value in d.params:
        if isinstance(value, TERM_CLASSES):
            found.extend(f"{o} (parameter {key} at {path_str(path)})"
                         for o in _term_offenders(value))


def _dual_derivation(d: Derivation, path: tuple[int, ...], duals: list[Derivation]) -> Derivation:
    rule = RULES[d.rule].dual
    # a rule that trades places trades its parameter too: subst's g is repl's h
    rename = dict(zip(RULES[d.rule].params, RULES[rule].params))
    params = []
    for key, value in d.params:
        if isinstance(value, TERM_CLASSES):
            value = _dual_term(value)
        params.append((rename.get(key, key), value))
    return Derivation(rule, tuple(params), tuple(duals))


def dualize_derivation(m: DualityMap, d: Derivation) -> Derivation:
    """The mirror derivation: substitution nodes become replacement nodes
    and vice versa, term parameters are reversed, everything else is kept.

    The input must check under m.source; the image is checked under m.target
    before it is returned, so a returned derivation is always valid.
    """
    offenders: list[str] = []
    fold(d, lambda node, path, below: None, partial(_derivation_offenders, offenders))
    if offenders:
        raise NotDualizable(offenders)
    check_derivation(m.source, d)
    image = fold(d, _dual_derivation)
    check_derivation(m.target, image)
    return image
