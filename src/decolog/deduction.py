"""Derivations in decorated equational logic, and their soundness.

A derivation is a tree: each node names an inference rule, carries the
rule's explicit parameters (terms, an axiom name, a projection side), and
lists its premise subtrees.  fold is the one walk over the tree, with an
explicit stack, so no depth exhausts the recursion limit; check_derivation
folds a derivation into its conclusion, rejecting any node whose side
conditions fail.

The side conditions are where the two effects genuinely differ.  Weak
equations compose on one side only:

    states       f1 ~ f2  entails  f1.g ~ f2.g  for every g,
                 but h.f1 ~ h.f2 only for pure h (an impure h may read
                 the very state cells on which f1 and f2 disagree);
    exceptions   f1 ~ f2  entails  h.f1 ~ h.f2  for every h,
                 but f1.g ~ f2.g only for pure g (an impure g may raise,
                 and catchers f1, f2 are unconstrained on exceptions).

The unit laws are also effect-sensitive.  Any f : A -> Unit that leaves
the state alone is the canonical map (there is only one value to return
and nothing else to observe), so states admit the strong unit law up to
rank 1 and the weak one at every rank.  Under exceptions an impure
f : A -> Unit may raise, which no coercion of the canonical map ever
does, so both unit laws require f pure.

These side conditions, and the rank bound of weak_to_strong_lowrank, are
one table: RANK_LIMITS.  The checker enforces it, the prover's weak and
unit moves obey it, and validate_rules sweeps exactly it, over the rules
it lists, against exhaustively enumerated finite interpretations: the
instances within a limit hold in every model, and those past it have
countermodels.  A weak premise pairs a table with each table of its rank
that semantics' one weak equality, _Layout.weak_view, cannot tell apart.
"""
from __future__ import annotations

import sys
from collections import deque
from functools import partial
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .calculus import (
    Atoms,
    Bang,
    BaseType,
    CalculusError,
    Comp,
    DecoratedEquation,
    DecoratedTerm,
    EffectKind,
    Id,
    Interned,
    Op,
    OperationSymbol,
    PAIR_COMPONENT_RANK_LIMIT,
    Pair,
    Proj1,
    Proj2,
    Record,
    Strength,
    TERM_CLASSES,
    Theory,
    TypeExpr,
    Unit,
    UnitType,
    analysis,
    check_equation_wf,
    quoted,
    rank_name,
    rebuild,
    term_str,
)
from .semantics import Bounds, Table, _composer, _denotation, _Layout, _layouts

# ---------------------------------------------------------------------------
# Rule identifiers
# ---------------------------------------------------------------------------

REFL = "refl"
SYM = "sym"
TRANS_STRONG = "trans_strong"
TRANS_WEAK = "trans_weak"
TRANS_MIXED = "trans_mixed"
STRONG_TO_WEAK = "strong_to_weak"
WEAK_TO_STRONG_LOWRANK = "weak_to_strong_lowrank"
SUBST_STRONG = "subst_strong"
REPL_STRONG = "repl_strong"
WEAK_SUBST = "weak_subst"
WEAK_REPL = "weak_repl"
PAIR_CONG_STRONG = "pair_cong_strong"
PAIR_PROJ = "pair_proj"
PAIR_COMP_LOWRANK = "pair_comp_lowrank"
UNIT_STRONG_LOWRANK = "unit_strong_lowrank"
UNIT_WEAK = "unit_weak"
AXIOM = "axiom"


class Rule(Record):
    """One rule's shape: the strength each premise must have (None for
    either), every parameter it takes in check order (name an axiom name,
    side the int 1 or 2, any other a term) and its mirror under the
    exceptions/states duality (None for the pair and Unit rules)."""
    __slots__ = ()
    premises: tuple[Optional[Strength], ...]
    params: tuple[str, ...]
    dual: Optional[str]


_S, _W = Strength.STRONG, Strength.WEAK

#: The rule catalogue.  The checker reads each node's premise count,
#: parameters and premise strengths from it, in that order, before the
#: rule's own conditions; the duality reads each rule's mirror.
RULES: Mapping[str, Rule] = {
    REFL: Rule((), ("term",), REFL),
    SYM: Rule((None,), (), SYM),
    TRANS_STRONG: Rule((_S, _S), (), TRANS_STRONG),
    TRANS_WEAK: Rule((_W, _W), (), TRANS_WEAK),
    TRANS_MIXED: Rule((None, None), (), TRANS_MIXED),
    STRONG_TO_WEAK: Rule((_S,), (), STRONG_TO_WEAK),
    WEAK_TO_STRONG_LOWRANK: Rule((_W,), (), WEAK_TO_STRONG_LOWRANK),
    SUBST_STRONG: Rule((_S,), ("g",), REPL_STRONG),
    REPL_STRONG: Rule((_S,), ("h",), SUBST_STRONG),
    WEAK_SUBST: Rule((_W,), ("g",), WEAK_REPL),
    WEAK_REPL: Rule((_W,), ("h",), WEAK_SUBST),
    PAIR_CONG_STRONG: Rule((_S, _S), (), None),
    PAIR_PROJ: Rule((), ("f", "g", "side"), None),
    PAIR_COMP_LOWRANK: Rule((), ("f", "g", "w"), None),
    UNIT_STRONG_LOWRANK: Rule((), ("f",), None),
    UNIT_WEAK: Rule((), ("f",), None),
    AXIOM: Rule((), ("name",), AXIOM),
}

ALL_RULES = tuple(RULES)

#: The effect's side conditions: the largest rank of g in weak_subst, of h
#: in weak_repl, of f in the unit laws and of each side of
#: weak_to_strong_lowrank.  Pair components have theirs in
#: calculus.PAIR_COMPONENT_RANK_LIMIT, which term formation enforces.
RANK_LIMITS: Mapping[EffectKind, dict[str, int]] = {
    EffectKind.EXCEPTIONS: {WEAK_SUBST: 0, WEAK_REPL: 2, UNIT_STRONG_LOWRANK: 0,
                            UNIT_WEAK: 0, WEAK_TO_STRONG_LOWRANK: 1},
    EffectKind.STATES: {WEAK_SUBST: 2, WEAK_REPL: 0, UNIT_STRONG_LOWRANK: 1,
                        UNIT_WEAK: 2, WEAK_TO_STRONG_LOWRANK: 1},
}


class DeductionError(Exception):
    pass


class RuleMisapplied(DeductionError):
    def __init__(self, path: tuple[int, ...], message: str):
        self.path = path
        super().__init__(f"at {path_str(path)}: {message}")


class ConclusionMismatch(DeductionError):
    pass


class IllFormedParameter(DeductionError):
    def __init__(self, path: tuple[int, ...], message: str):
        self.path = path
        super().__init__(f"at {path_str(path)}: {message}")


class DepthExhausted(DeductionError):
    """The bounded search gave up.  Says nothing about provability."""


def path_str(path: tuple[int, ...]) -> str:
    return "root" if not path else "premise " + ".".join(map(str, path))


class Derivation(Interned):
    __slots__ = ()
    rule: str
    params: tuple[tuple[str, object], ...] = ()
    premises: tuple["Derivation", ...] = ()

    def param_map(self) -> dict:
        return dict(self.params)


def deriv(rule: str, *premises: Derivation, **params: object) -> Derivation:
    return Derivation(rule, tuple(params.items()), premises)


def fold(d: Derivation, leave: Callable[[Derivation, tuple[int, ...], list], object],
         enter: Optional[Callable[[Derivation, tuple[int, ...]], object]] = None) -> object:
    """The root's leave result, depth first with an explicit stack: enter(node,
    path) runs before the node's premises and leave(node, path, below) after
    them, below holding their leave results; path is premise indices from the root."""
    if enter is not None:
        enter(d, ())
    stack = [(d, (), iter(d.premises), [])]
    while True:
        node, path, todo, below = stack[-1]
        for premise in todo:  # premises not yet walked; a leaf is left at once
            sub = path + (len(below),)
            if enter is not None:
                enter(premise, sub)
            if premise.premises:
                stack.append((premise, sub, iter(premise.premises), []))
                break
            below.append(leave(premise, sub, []))
        else:
            stack.pop()
            if not stack:
                return leave(node, path, below)
            stack[-1][3].append(leave(node, path, below))


class Judgment(Record):
    __slots__ = ()
    equation: DecoratedEquation
    dom: TypeExpr
    cod: TypeExpr


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

def check_derivation(theory: Theory, derivation: Derivation,
                     expected: Optional[DecoratedEquation] = None) -> Judgment:
    """Conclusion of a derivation, or an error naming the offending node.

    When `expected` is given the root conclusion must match it exactly
    (same strength, same sides up to normalization).  The theory's compiled
    state keeps the conclusion of every node that has checked, and no
    failure, so a node is checked once per theory and every error recurs."""
    kept = theory._kept(Derivation)
    eq = kept.get(derivation) or fold(derivation, partial(_check, theory, kept), _known_rule)
    report = check_equation_wf(theory, eq)
    if expected is not None and eq != (expected := expected.normalized()):
        raise ConclusionMismatch(
            f"derivation concludes {_eq_str(eq)}, expected {_eq_str(expected)}")
    return Judgment(eq, report.dom, report.cod)


def _eq_str(eq: DecoratedEquation) -> str:
    middle = "==" if eq.strength is Strength.STRONG else "~"
    return f"{term_str(eq.lhs)} {middle} {term_str(eq.rhs)}"


def _param(theory: Theory, d: Derivation, key: str, path: tuple[int, ...]) -> object:
    """d's parameter key: an axiom name, a projection side or a term's analysis."""
    params = d.param_map()
    value = params.get(key)
    if key == "name" and not isinstance(value, str):
        raise IllFormedParameter(path, "axiom needs a string parameter name")
    if key == "side" and (type(value) is not int or value not in (1, 2)):
        raise IllFormedParameter(path, "pair_proj needs side=1 or side=2")
    if key in ("name", "side"):
        return value
    if key not in params:
        raise IllFormedParameter(path, f"{d.rule} needs parameter {key}")
    if not isinstance(value, TERM_CLASSES):
        raise IllFormedParameter(path, f"parameter {key} of {d.rule} must be a term")
    try:
        return analysis(theory, value)
    except CalculusError as e:
        raise IllFormedParameter(path, f"parameter {key} of {d.rule}: {e}")


def _rank_within(effect: EffectKind, rule: str, param: str, rank: int,
                 path: tuple[int, ...]) -> None:
    limit = RANK_LIMITS[effect][rule]
    if rank > limit:
        raise RuleMisapplied(
            path, f"{rule} under {effect} allows {param} up to rank {limit}, "
                  f"got rank {rank} ({rank_name(effect, rank)})")


def _known_rule(d: Derivation, path: tuple[int, ...]) -> None:
    # fold's enter: an unknown rule is reported before anything in its premises
    if d.rule not in RULES:
        raise RuleMisapplied(path, f"unknown rule {quoted(d.rule)}")


def _check(theory: Theory, kept: dict, d: Derivation, path: tuple[int, ...],
           premises: list[DecoratedEquation]) -> DecoratedEquation:
    if d in kept:
        return kept[d]
    rule = RULES[d.rule]
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
    except CalculusError as e:
        raise RuleMisapplied(path, f"{d.rule}: {e}")
    kept[d] = eq
    return eq


def _conclude(theory: Theory, d: Derivation, premises: list[DecoratedEquation],
              params: dict[str, object], path: tuple[int, ...]) -> DecoratedEquation:
    """The conclusion of a node that has passed the checks RULES sets, or
    the first of the rule's own conditions it fails.  params maps each
    parameter's name to its value, a term parameter's to its analysis."""
    effect = theory.effect
    rule = d.rule

    if rule == REFL:
        t, = params.values()
        return DecoratedEquation(Strength.STRONG, t.term, t.term)

    if rule == AXIOM:
        eq = theory.axiom(params["name"]).equation
        return DecoratedEquation(eq.strength, analysis(theory, eq.lhs).term,
                                 analysis(theory, eq.rhs).term)

    if rule == SYM:
        return premises[0].flipped()

    if rule in (TRANS_STRONG, TRANS_WEAK, TRANS_MIXED):
        p1, p2 = premises
        if rule == TRANS_MIXED and {p1.strength, p2.strength} != {Strength.STRONG, Strength.WEAK}:
            raise RuleMisapplied(path, "trans_mixed takes one strong and one weak premise")
        if p1.rhs != p2.lhs:
            raise RuleMisapplied(
                path, f"middle terms differ: {_eq_str(p1)} then {_eq_str(p2)}")
        out = Strength.STRONG if rule == TRANS_STRONG else Strength.WEAK
        return DecoratedEquation(out, p1.lhs, p2.rhs)

    if rule == STRONG_TO_WEAK:
        return DecoratedEquation(Strength.WEAK, premises[0].lhs, premises[0].rhs)

    if rule == WEAK_TO_STRONG_LOWRANK:
        p = premises[0]
        for param, side in (("lhs", p.lhs), ("rhs", p.rhs)):
            _rank_within(effect, rule, param, analysis(theory, side).rank, path)
        return DecoratedEquation(Strength.STRONG, p.lhs, p.rhs)

    if rule in (SUBST_STRONG, WEAK_SUBST, REPL_STRONG, WEAK_REPL):
        # substitution precomposes g, replacement postcomposes h
        p, ((param, t),) = premises[0], params.items()
        if rule in (WEAK_SUBST, WEAK_REPL):
            _rank_within(effect, rule, param, t.rank, path)
        if rule in (SUBST_STRONG, WEAK_SUBST):
            return DecoratedEquation(p.strength, rebuild(analysis(theory, p.lhs).atoms, t.term),
                                     rebuild(analysis(theory, p.rhs).atoms, t.term))
        return DecoratedEquation(p.strength, rebuild(t.atoms, p.lhs), rebuild(t.atoms, p.rhs))

    if rule == PAIR_CONG_STRONG:
        p1, p2 = premises
        return DecoratedEquation(Strength.STRONG, Pair(p1.lhs, p2.lhs), Pair(p1.rhs, p2.rhs))

    if rule == PAIR_PROJ:
        f, g, side = params.values()
        proj = (Proj1 if side == 1 else Proj2)(f.cod, g.cod)
        return DecoratedEquation(Strength.STRONG, Comp(proj, Pair(f.term, g.term)),
                                 (f if side == 1 else g).term)

    if rule == PAIR_COMP_LOWRANK:
        f, g, w = params.values()
        limit = PAIR_COMPONENT_RANK_LIMIT[effect]
        composed = []
        for label, t in (("f.w", f), ("g.w", g)):
            tw = analysis(theory, Comp(t.term, w.term))
            if tw.rank > limit:
                raise RuleMisapplied(
                    path, f"pair_comp_lowrank: component {label} has rank {tw.rank}, "
                          f"pairs under {effect} allow at most {limit}")
            composed.append(tw.term)
        return DecoratedEquation(Strength.STRONG, rebuild((Pair(f.term, g.term),), w.term),
                                 Pair(*composed))

    # UNIT_STRONG_LOWRANK or UNIT_WEAK: _known_rule has looked the rule up
    (param, f), = params.items()
    if not isinstance(f.cod, UnitType):
        raise RuleMisapplied(path, f"{rule} needs a term into Unit")
    _rank_within(effect, rule, param, f.rank, path)
    out = Strength.STRONG if rule == UNIT_STRONG_LOWRANK else Strength.WEAK
    return DecoratedEquation(out, f.term, analysis(theory, Bang(f.dom)).term)


# ---------------------------------------------------------------------------
# Bounded proof search
# ---------------------------------------------------------------------------
#
# Bidirectional rewriting over normal forms.  Both sides of the goal grow a
# frontier; a proof is found when the frontiers share a term.  Strong moves
# rewrite any window of the composition spine (and descend into pair
# components through the congruence rules); weak moves rewrite only windows
# whose surrounding context the weak congruences can legalize.
#
# Every term the search touches is in normal form, and all terms on one
# side share one domain, so the search holds a term as the word of its
# spine atoms: a str with one character per atom, the code one prove call
# gives an atom when it first meets it, with its type and rank (the empty
# word is the identity).  A str caches its hash, and a window matches an
# axiom source, found by the window's first code, by str.startswith.  A
# rewrite splices words; atoms are decoded only where a derivation or a
# new pair names them.  A move carries its step as plain data, which
# _built turns into a derivation only for the moves on the path where the
# two searches meet, and whether its step is weak.  A search that meets
# more atoms than there are codes gives up as one out of nodes does.

#: The codes of one prove call: one per character a str can hold.
_CODES = sys.maxunicode + 1

Move = tuple[str, object, bool]


class _OutOfCodes(Exception):
    """One prove call met more distinct atoms than there are codes."""


class _Rewriter:
    """What one prove call reuses across expansions: the code of each atom
    met so far, the atoms by code, and each code's codomain, rank and
    whether it is a pair; and the axiom sides by their source's first code,
    shortest source first, as (length, source, sides), each side its step
    (the axiom, or its sym), whether the step is weak and its target.

    Within one source the sides keep declaration order, an axiom's
    left-to-right use before its right-to-left one.  A side whose target
    equals its source never rewrites anything and is left out.  The theory's
    compiled state keeps the axioms' codes and sides: each call copies the codes."""

    def __init__(self, theory: Theory):
        self.theory = theory
        codes, atoms, known, self.by_head = theory._kept(_Rewriter, build=self._index)
        self.codes, self.atoms, self.known = dict(codes), list(atoms), dict(known)

    def _index(self) -> tuple:
        """The theory's axiom index, coded into this rewriter."""
        self.codes, self.atoms, self.known = {}, [], {}
        sides: dict[str, list] = {}
        for ax in self.theory.axioms:
            eq = ax.equation
            weak_step = eq.strength is Strength.WEAK
            lhs, rhs = (self.word(analysis(self.theory, side).atoms) for side in (eq.lhs, eq.rhs))
            axiom = (_rule, AXIOM, (("name", ax.name),))
            for src, dst, step in ((lhs, rhs, axiom), (rhs, lhs, (_rule, SYM, (), axiom))):
                if src and src != dst:
                    sides.setdefault(src, []).append((step, weak_step, dst))
        heads: dict[str, list] = {}
        for src in sorted(sides, key=len):
            heads.setdefault(src[0], []).append((len(src), src, sides[src]))
        return self.codes, self.atoms, self.known, heads

    def code(self, atom: DecoratedTerm) -> str:
        """The atom's code, given the first time the atom is met."""
        found = self.codes.get(atom)
        if found is None:
            if len(self.atoms) >= _CODES:
                raise _OutOfCodes
            a = analysis(self.theory, atom)
            found = self.codes[atom] = chr(len(self.atoms))
            self.atoms.append(atom)
            self.known[found] = (a.cod, a.rank, atom.__class__ is Pair)
        return found

    def word(self, atoms: Atoms) -> str:
        return "".join(map(self.code, atoms))

    def decode(self, word: str) -> Atoms:
        return tuple(map(self.atoms.__getitem__, map(ord, word)))

    def layout(self, word: str, dom: TypeExpr) -> tuple[tuple, tuple, bool]:
        """Boundary types t[0..n] (t[n] = dom, t[i] = cod of the i-th atom),
        the rank of every atom, and whether any atom is a pair."""
        known = self.known
        found = [known[c] for c in word]
        cods, ranks, pairs = zip(*found) if found else ((), (), ())
        return (*cods, dom), ranks, True in pairs


def _built(rw: _Rewriter, step: object) -> Derivation:
    """The derivation of a step kept as plain data: a Derivation as it is,
    (builder, *args) as builder(rw, *args)."""
    return step if step.__class__ is Derivation else step[0](rw, *step[1:])


def _rule(rw: _Rewriter, rule: str, params: tuple, *premises: object) -> Derivation:
    """The rule's node with these (name, value) parameters over the steps."""
    return Derivation(rule, params, tuple(_built(rw, p) for p in premises))


def _spine(atoms: Atoms) -> DecoratedTerm:
    """The normal term of one or more spine atoms."""
    return rebuild(atoms[:-1], atoms[-1])


def _in_context(rw: _Rewriter, step: object, weak_step: bool,
                word: str, i: int, j: int) -> Derivation:
    """Embed a step rewriting word[i:j] into the rest of the spine:
    substitution of the factors applied before the window, replacement by
    the factors applied after it."""
    atoms, step = rw.decode(word), _built(rw, step)
    if j < len(atoms):
        step = deriv(WEAK_SUBST if weak_step else SUBST_STRONG, step,
                     g=_spine(atoms[j:]))
    if i:
        step = deriv(WEAK_REPL if weak_step else REPL_STRONG, step,
                     h=_spine(atoms[:i]))
    return step


def _unit_step(rw: _Rewriter, weak_step: bool, word: str,
               i: int, j: int) -> Derivation:
    rule = UNIT_WEAK if weak_step else UNIT_STRONG_LOWRANK
    return _in_context(rw, deriv(rule, f=_spine(rw.decode(word[i:j]))), weak_step, word, i, j)


def _window_rewrites(rw: _Rewriter, word: str, bounds: tuple, ranks: tuple,
                     allow_weak: bool) -> Iterator[Move]:
    """All one-step rewrites of the spine: windows by start, then end, each
    rewritten by the axiom sides in order, then by the unit law.  Only a
    window into Unit has a unit move, so at any other start the windows
    tried are the lengths of the axiom sources that begin with its atom."""
    n = len(word)
    limits = RANK_LIMITS[rw.theory.effect]
    # largest rank among the factors before position i / from position j on:
    # a weak step's context substitutes the factors from j on and replaces
    # by those before i
    before = list(accumulate(ranks, max, initial=0))
    after = list(accumulate(reversed(ranks), max, initial=0))[::-1]
    subst_limit, repl_limit = limits[WEAK_SUBST], limits[WEAK_REPL]
    by_head = rw.by_head

    for i in range(n):
        heads = by_head.get(word[i], ())
        if bounds[i].__class__ is not UnitType:
            for length, src, found in heads:
                j = i + length
                if j > n:
                    break
                if word.startswith(src, i):
                    weak_ok = allow_weak and after[j] <= subst_limit and before[i] <= repl_limit
                    for step, weak_step, dst in found:
                        if weak_ok or not weak_step:
                            yield (word[:i] + dst + word[j:],
                                   (_in_context, step, weak_step, word, i, j), weak_step)
            continue
        window_rank = 0
        for j in range(i + 1, n + 1):
            window_rank = max(window_rank, ranks[j - 1])
            weak_ok = allow_weak and after[j] <= subst_limit and before[i] <= repl_limit
            for length, src, found in heads:
                if i + length == j and word.startswith(src, i):
                    for step, weak_step, dst in found:
                        if weak_ok or not weak_step:
                            yield (word[:i] + dst + word[j:],
                                   (_in_context, step, weak_step, word, i, j), weak_step)
            replacement = "" if bounds[j].__class__ is UnitType else rw.code(Bang(bounds[j]))
            if word[i:j] == replacement:
                continue
            if window_rank <= limits[UNIT_STRONG_LOWRANK]:
                weak_step = False
            elif weak_ok and window_rank <= limits[UNIT_WEAK]:
                weak_step = True
            else:
                continue
            yield (word[:i] + replacement + word[j:],
                   (_unit_step, weak_step, word, i, j), weak_step)


def _pair_rewrites(rw: _Rewriter, word: str, bounds: tuple,
                   ranks: tuple) -> Iterator[Move]:
    """Strong rewrites involving pairs: projection collapse, moving a factor
    in and out of a pair, and congruence steps inside components.

    The atoms form a well-formed term, so a move can fail only on the rank
    of a pair component it creates: f . w and g . w when w moves into
    <f, g>, and the rewritten component of a congruence step."""
    theory, known = rw.theory, rw.known
    limit = PAIR_COMPONENT_RANK_LIMIT[theory.effect]
    atoms = rw.decode(word)
    n = len(atoms)

    def emit(i, j, new_word, step):
        """The move replacing word[i:j] by new_word, its step in context."""
        return (word[:i] + new_word + word[j:], (_in_context, step, False, word, i, j), False)

    for k in range(n):
        a = atoms[k]
        if isinstance(a, (Proj1, Proj2)) and k + 1 < n and isinstance(atoms[k + 1], Pair):
            p = atoms[k + 1]
            side = 1 if isinstance(a, Proj1) else 2
            kept = analysis(theory, p).parts[side - 1]
            yield emit(k, k + 2, rw.word(kept.atoms),
                       (_rule, PAIR_PROJ, (("f", p.left), ("g", p.right), ("side", side))))

        if isinstance(a, Pair):
            pl, pr = (part.atoms for part in analysis(theory, a).parts)
            sl, sr = rw.word(pl), rw.word(pr)
            if k + 1 < n and ranks[k + 1] <= limit:
                w = atoms[k + 1]
                yield emit(k, k + 2, rw.code(Pair(_spine(pl + (w,)), _spine(pr + (w,)))),
                           (_rule, PAIR_COMP_LOWRANK, (("f", a.left), ("g", a.right), ("w", w))))
            if sl and sr and sl[-1] == sr[-1]:
                w, wcod = pl[-1], known[sl[-1]][0]
                f2, g2 = rebuild(pl[:-1], Id(wcod)), rebuild(pr[:-1], Id(wcod))
                yield emit(k, k + 1, rw.code(Pair(f2, g2)) + sl[-1], (_rule, SYM, (), (
                    _rule, PAIR_COMP_LOWRANK, (("f", f2), ("g", g2), ("w", w)))))
            for side, comp in ((0, sl), (1, sr)):
                other = a.right if side == 0 else a.left
                refl = (_rule, REFL, (("term", other),))
                for sub_word, step, _ in _all_moves(rw, comp, bounds[k + 1], allow_weak=False):
                    if max((known[c][1] for c in sub_word), default=0) > limit:
                        continue
                    sub_term = rebuild(rw.decode(sub_word), Id(bounds[k + 1]))
                    new_atom, steps = ((Pair(sub_term, other), (step, refl)) if side == 0
                                       else (Pair(other, sub_term), (refl, step)))
                    yield emit(k, k + 1, rw.code(new_atom), (_rule, PAIR_CONG_STRONG, (), *steps))


def _all_moves(rw: _Rewriter, word: str, dom: TypeExpr,
               allow_weak: bool) -> Iterator[Move]:
    """Every one-step rewrite of the normal term with this word and domain,
    as (new word, step, step is weak).  Every pair rewrite, a projection's
    included, acts on a pair among the atoms."""
    bounds, ranks, paired = rw.layout(word, dom)
    moves = _window_rewrites(rw, word, bounds, ranks, allow_weak)
    return chain(moves, _pair_rewrites(rw, word, bounds, ranks)) if paired else moves


def _chain(base: Optional[Derivation], base_weak: bool,
           step: Derivation, step_weak: bool) -> Derivation:
    if base is None:
        return step
    return deriv(TRANS_WEAK if base_weak and step_weak else TRANS_MIXED if base_weak or step_weak
                 else TRANS_STRONG, base, step)


# A term prove has reached: (parent node, the step from the parent as plain
# data, step is weak, `start ? term` is weak); the start's node is
# (None, None, False, False).
_Node = tuple


def _derivation(rw: _Rewriter, node: _Node, start: DecoratedTerm) -> Derivation:
    """`start ? term` for the term of this node: the steps on its path from
    the start, built and chained in order.  Loops, since a path can be
    max_depth long."""
    path = []
    while node[0] is not None:
        path.append(node)
        node = node[0]
    if not path:
        return deriv(REFL, term=start)
    found, weak = None, False
    for _, step, step_weak, combined_weak in reversed(path):
        found, weak = _chain(found, weak, _built(rw, step), step_weak), combined_weak
    return found


def prove(theory: Theory, goal: DecoratedEquation, max_depth: int = 8,
          max_nodes: int = 4000) -> Derivation:
    """Search for a derivation of the goal; DepthExhausted when the bounded
    bidirectional search gives up (which decides nothing).  Both bounds must
    be numbers of at least 1.

    The search order, the rewrite count in the DepthExhausted message and
    the derivation found are fixed by the order in which moves are
    generated.  Each reached term keeps a link to the node it was reached
    from, and derivations are built only along the path where the two
    sides meet.  The result always passes check_derivation against the
    goal.  The theory's compiled state keeps each outcome by normalized goal
    and both bounds, the checked derivation or a give-up's rewrite count, so a
    repeat is a lookup; a refusal, or a search out of atom codes, is not kept."""
    try:
        if not (max_depth >= 1 and max_nodes >= 1):  # a NaN bound too
            raise TypeError
    except TypeError:  # below 1, or not a number
        raise DeductionError(f"prove needs max_depth and max_nodes of at least 1, "
                             f"got {quoted(max_depth)} and {quoted(max_nodes)}") from None
    eq = goal.normalized()
    dom = check_equation_wf(theory, eq).dom
    try:
        found = theory._kept((DecoratedEquation, Derivation), (eq, max_depth, max_nodes),
                             partial(_search, theory, eq, dom, max_depth, max_nodes))
    except _OutOfCodes as out:
        found = out.args[0]
    if isinstance(found, int):
        raise DepthExhausted(
            f"no derivation found within depth {max_depth} ({found} rewrites tried); "
            "the goal may still be derivable")
    check_derivation(theory, found, expected=eq)
    return found


def _search(theory: Theory, eq: DecoratedEquation, dom: TypeExpr, max_depth: int,
            max_nodes: int) -> Derivation | int:
    """prove's search for the normalized goal eq: a derivation, or the rewrites
    tried when the bounds cut it (_OutOfCodes carries them if codes run out)."""
    want_weak = eq.strength is Strength.WEAK

    if eq.lhs == eq.rhs:
        refl = deriv(REFL, term=eq.lhs)
        return deriv(STRONG_TO_WEAK, refl) if want_weak else refl

    def meet(word: str) -> Optional[Derivation]:
        """The proof through a word both sides have reached, if its
        strength is the goal's."""
        left, right = reached[0][word], reached[1][word]
        wl, wr = left[3], right[3]
        if (wl or wr) and not want_weak:
            return None
        out = _chain(_derivation(rw, left, eq.lhs), wl,
                     deriv(SYM, _derivation(rw, right, eq.rhs)), wr)
        if want_weak and not (wl or wr):
            out = deriv(STRONG_TO_WEAK, out)
        return out

    nodes = 0
    try:
        rw = _Rewriter(theory)
        starts = tuple(rw.word(analysis(theory, side).atoms) for side in (eq.lhs, eq.rhs))
        # reached[side]: word of a term -> its node.  An upgrade from weak to
        # strong replaces the entry; children already reached keep the node
        # they were reached from.
        reached = [{start: (None, None, False, False)} for start in starts]
        frontiers = [deque([(start, 0)]) for start in starts]
        while any(frontiers) and nodes < max_nodes:
            for side in (0, 1):
                if not frontiers[side]:
                    continue
                word, depth = frontiers[side].popleft()
                if depth >= max_depth:
                    continue
                node = reached[side][word]
                base_weak = node[3]
                for new_word, step, step_weak in _all_moves(rw, word, dom, want_weak):
                    nodes += 1
                    combined_weak = base_weak or step_weak
                    prev = reached[side].get(new_word)
                    if prev is not None and (not prev[3] or combined_weak):
                        continue
                    reached[side][new_word] = (node, step, step_weak, combined_weak)
                    frontiers[side].append((new_word, depth + 1))
                    done = meet(new_word) if new_word in reached[1 - side] else None
                    if done is not None:
                        return done
                    if nodes >= max_nodes:
                        break
    except _OutOfCodes:
        raise _OutOfCodes(nodes) from None
    return nodes


# ---------------------------------------------------------------------------
# Machine validation of the rule catalog
# ---------------------------------------------------------------------------

EXPECT_SOUND = "sound"
EXPECT_COUNTERMODEL = "countermodel"


class ScenarioResult(Record):
    __slots__ = ()
    rule: str
    effect: EffectKind
    description: str
    expectation: str
    models_checked: int
    violations: int
    example: Optional[str]

    @property
    def ok(self) -> bool:
        if self.expectation == EXPECT_SOUND:
            return self.violations == 0
        return self.violations > 0


class ValidationReport(Record):
    __slots__ = ()
    effect: EffectKind
    results: tuple[ScenarioResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


#: The scenarios' base types and the ranks a table may have.  Every carrier
#: assignment is one semantics layout, and every table below is a numbered
#: rank-2 table of it.
A, B, C, Z = (BaseType(role) for role in "ABCZ")
RANKS = (0, 1, 2)


def _lifted(layout: _Layout, rank: int, dom: TypeExpr, cod: TypeExpr) -> list[tuple[Table, Table]]:
    """Every raw table of the given rank from dom to cod, with its rank-2
    table."""
    n, m = layout.size(dom), layout.size(cod)
    lift = layout.lifter(rank, n, m) or (lambda raw: raw)
    return [(raw, lift(raw)) for raw in layout.raw_tables(rank, n, m)]


def _tables(layout: _Layout, ranks: tuple[int, ...], dom: TypeExpr,
            cod: TypeExpr) -> list[Table]:
    """The rank-2 tables of every raw table from dom to cod, rank by rank."""
    return [t for rank in ranks for _, t in _lifted(layout, rank, dom, cod)]


def _weak_view(layout: _Layout, dom: TypeExpr, cod: TypeExpr) -> Callable[[Table], Sequence[int]]:
    """What a weak equation compares of a rank-2 table from dom to cod."""
    return layout.weak_view(layout.size(dom), layout.size(cod)) or (lambda t: t)


def _weak_classes(layout: _Layout, rank: int, dom: TypeExpr, cod: TypeExpr) -> list[tuple]:
    """_tables of the one rank, in raw order, each with its class: those of
    them with its weak view, which no weak equation tells apart, in raw order."""
    view, classes = _weak_view(layout, dom, cod), {}
    found = [(t, classes.setdefault(view(t), [])) for t in _tables(layout, (rank,), dom, cod)]
    for t, same in found:
        same.append(t)
    return found


#: One block of combos: the tables they share, the last table of each and
#: whether the conclusion holds for each.
Block = tuple[tuple, list, list]


class _Scenario(Record):
    __slots__ = ()
    rule: str
    description: str
    expectation: str
    tables: tuple[tuple[str, TypeExpr, TypeExpr], ...]  # name, dom, cod
    blocks: Callable[[_Layout], Iterable[Block]]

    @property
    def roles(self) -> tuple[str, ...]:
        """The base types the carriers are swept for, in order of first use."""
        return tuple(dict.fromkeys(ty.name for _, dom, cod in self.tables
                                   for ty in (dom, cod) if isinstance(ty, BaseType)))

    def run(self, layout: _Layout, stop: bool = False) -> tuple[int, int, Optional[str]]:
        """Models checked, violations and the first violation's tables,
        decoded.  With stop set, return at the first violation (used when
        one countermodel settles the question)."""
        checked = violations = 0
        example = None
        for head, tails, holds in self.blocks(layout):
            if False in holds:
                first = holds.index(False)
                if example is None:
                    example = _summary(layout, self.tables, head + (tails[first],))
                if stop:
                    return checked + first + 1, violations + 1, example
                violations += holds.count(False)
            checked += len(holds)
        return checked, violations, example


def _summary(layout: _Layout, named: tuple, tables: tuple) -> str:
    parts = []
    for (name, dom, cod), t in zip(named, tables):
        inside = ", ".join(f"{k!r}->{v!r}" for k, v in layout.decode(2, dom, cod, t).items())
        parts.append(f"{name} = {{{inside}}}")
    return "; ".join(parts)


def _refl(layout):
    for r in RANKS:
        f_of = _denotation(layout, Op("f"), OperationSymbol("f", A, B, r))
        fs = _lifted(layout, r, A, B)
        yield (), [f for _, f in fs], [f == f_of(raw) for raw, f in fs]


def _sym_weak(layout):
    view = _weak_view(layout, A, B)
    for f1, f2s in _weak_classes(layout, 2, A, B):
        yield (f1,), f2s, [view(f2) == view(f1) for f2 in f2s]


def _trans_weak(layout):
    view = _weak_view(layout, A, B)
    for f1, f2s in _weak_classes(layout, 2, A, B):
        for f2 in f2s:  # f2's class is f1's
            yield (f1, f2), f2s, [view(f1) == view(f3) for f3 in f2s]


def _weak_to_strong(rank, layout):
    for f1, f2s in _weak_classes(layout, rank, A, B):  # the variants that factor at rank
        yield (f1,), f2s, [f1 == f2 for f2 in f2s]


def _subst_strong(layout):
    gs = []
    for rg in RANKS:
        g_tables = _lifted(layout, rg, Z, A)
        gs.append((_denotation(layout, Comp(Op("f"), Op("g")), OperationSymbol("f", A, B, 2),
                               OperationSymbol("g", Z, A, rg)),
                   g_tables, [g for _, g in g_tables], [_composer(g) for _, g in g_tables]))
    for raw_f, f in _lifted(layout, 2, A, B):
        for fg_of, g_tables, tails, g_picks in gs:
            yield (f,), tails, [pick(f) == fg_of(raw_f, raw_g)
                                for (raw_g, _), pick in zip(g_tables, g_picks)]


def _weak_subst(g_ranks, layout):
    view = _weak_view(layout, Z, B)
    gs = _tables(layout, g_ranks, Z, A)
    g_picks = [_composer(g) for g in gs]
    for f1, f2s in _weak_classes(layout, 2, A, B):
        # f1 . g is shared by every weak variant f2
        f1gs = [view(pick(f1)) for pick in g_picks]
        for f2 in f2s:
            if f2 is not f1:
                yield (f1, f2), gs, [view(pick(f2)) == f1g for pick, f1g in zip(g_picks, f1gs)]


def _weak_repl(h_ranks, layout):
    view = _weak_view(layout, A, C)
    hs = _tables(layout, h_ranks, B, C)
    for f1, f2s in _weak_classes(layout, 2, A, B):
        # h . f1 is shared by every weak variant f2
        pick = _composer(f1)
        hf1s = [view(pick(h)) for h in hs]
        for f2 in f2s:
            if f2 is not f1:
                pick = _composer(f2)
                yield (f1, f2), hs, [view(pick(h)) == hf1 for h, hf1 in zip(hs, hf1s)]


def _component_ranks(effect):
    return tuple(range(PAIR_COMPONENT_RANK_LIMIT[effect] + 1))


def _pair_proj(layout):
    ranks = _component_ranks(layout.effect)
    pair = layout.pairer(layout.size(A), layout.size(B), layout.size(C))
    p1, p2 = layout.constant(Proj1(B, C)), layout.constant(Proj2(B, C))
    gs = _tables(layout, ranks, A, C)
    for f in _tables(layout, ranks, A, B):
        picks = [_composer(pair(f, g)) for g in gs]
        yield (f,), gs, [pick(p1) == f and pick(p2) == g for g, pick in zip(gs, picks)]


def _pair_cong(layout):
    ranks = _component_ranks(layout.effect)
    pair = layout.pairer(layout.size(A), layout.size(B), layout.size(C))
    gs = [_lifted(layout, rg, A, C) for rg in ranks]
    for rf in ranks:
        fg_of = [_denotation(layout, Pair(Op("f"), Op("g")), OperationSymbol("f", A, B, rf),
                             OperationSymbol("g", A, C, rg)) for rg in ranks]
        for raw_f, f in _lifted(layout, rf, A, B):
            for g_tables, fg in zip(gs, fg_of):
                yield (f,), [g for _, g in g_tables], [pair(f, g) == fg(raw_f, raw_g)
                                                       for raw_g, g in g_tables]


def _pair_comp(layout):
    ranks = _component_ranks(layout.effect)
    nb, nc = layout.size(B), layout.size(C)
    pair_a = layout.pairer(layout.size(A), nb, nc)
    pair_z = layout.pairer(layout.size(Z), nb, nc)
    gs = _tables(layout, ranks, A, C)
    ws = _tables(layout, ranks, Z, A)
    w_picks = [_composer(w) for w in ws]
    for f in _tables(layout, ranks, A, B):
        fws = [pick(f) for pick in w_picks]
        for g in gs:
            fg = pair_a(f, g)
            yield (f, g), ws, [pick(fg) == pair_z(fw, pick(g)) for pick, fw in zip(w_picks, fws)]


def _unit(strength, ranks, layout):
    view = (lambda t: t) if strength is Strength.STRONG else _weak_view(layout, A, Unit)
    canonical = view(layout.constant(Bang(A)))
    fs = _tables(layout, ranks, A, Unit)
    return [((), fs, [view(f) == canonical for f in fs])]


#: What each side-condition scenario shows, by effect, rule and expectation; {} is the limit.
_SIDE_CLAIMS = {
    EffectKind.EXCEPTIONS: {
        (WEAK_SUBST, EXPECT_SOUND): "{} g precomposes with a weak equation",
        (WEAK_SUBST, EXPECT_COUNTERMODEL): "an impure g distinguishes weakly equal terms",
        (WEAK_REPL, EXPECT_SOUND): "any h postcomposes with a weak equation",
        (UNIT_STRONG_LOWRANK, EXPECT_SOUND): "{} terms into Unit are canonical",
        (UNIT_STRONG_LOWRANK, EXPECT_COUNTERMODEL): "a propagator into Unit may raise",
        (UNIT_WEAK, EXPECT_SOUND): "{} terms into Unit are weakly canonical",
        (UNIT_WEAK, EXPECT_COUNTERMODEL): "a propagator into Unit may raise even weakly",
    },
    EffectKind.STATES: {
        (WEAK_SUBST, EXPECT_SOUND): "any g precomposes with a weak equation",
        (WEAK_REPL, EXPECT_SOUND): "{} h postcomposes with a weak equation",
        (WEAK_REPL, EXPECT_COUNTERMODEL): "an impure h distinguishes weakly equal terms",
        (UNIT_STRONG_LOWRANK, EXPECT_SOUND): "{} terms into Unit are canonical",
        (UNIT_STRONG_LOWRANK, EXPECT_COUNTERMODEL): "a modifier into Unit is not canonical",
        (UNIT_WEAK, EXPECT_SOUND): "every term into Unit is weakly canonical",
    },
}


def _scenarios(effect: EffectKind) -> tuple[_Scenario, ...]:
    # each combo's tables, as its example names them
    f, f1_f2 = (("f", A, B),), (("f1", A, B), ("f2", A, B))
    f_g, w = (("f", A, B), ("g", A, C)), (("w", Z, A),)
    into_unit = (("f", A, Unit),)
    limits, claims = RANK_LIMITS[effect], _SIDE_CLAIMS[effect]
    top = limits[WEAK_TO_STRONG_LOWRANK]
    out = [
        _Scenario(REFL, "a term equals itself", EXPECT_SOUND, f, _refl),
        _Scenario(SYM, "weak equality is symmetric", EXPECT_SOUND, f1_f2, _sym_weak),
        _Scenario(TRANS_WEAK, "weak equality chains", EXPECT_SOUND,
                  f1_f2 + (("f3", A, B),), _trans_weak),
        _Scenario(WEAK_TO_STRONG_LOWRANK, f"weak agreement at rank <= {top} is already strong",
                  EXPECT_SOUND, f1_f2, partial(_weak_to_strong, top)),
        _Scenario(WEAK_TO_STRONG_LOWRANK, f"at rank {top + 1} weak agreement is strictly weaker",
                  EXPECT_COUNTERMODEL, f1_f2, partial(_weak_to_strong, top + 1)),
        _Scenario(SUBST_STRONG, "strong equality precomposes", EXPECT_SOUND,
                  (("f", A, B), ("g", Z, A)), _subst_strong),
        _Scenario(PAIR_PROJ, "projections undo pairing", EXPECT_SOUND, f_g, _pair_proj),
        _Scenario(PAIR_CONG_STRONG, "pairing is a congruence", EXPECT_SOUND, f_g, _pair_cong),
        _Scenario(PAIR_COMP_LOWRANK, "pairing distributes over composition",
                  EXPECT_SOUND, f_g + w, _pair_comp),
    ]
    for rule, tables, blocks in ((WEAK_SUBST, f1_f2 + (("g", Z, A),), _weak_subst),
                                 (WEAK_REPL, f1_f2 + (("h", B, C),), _weak_repl),
                                 (UNIT_STRONG_LOWRANK, into_unit, partial(_unit, Strength.STRONG)),
                                 (UNIT_WEAK, into_unit, partial(_unit, Strength.WEAK))):
        # sound up to the limit; past it, a countermodel while ranks are left
        for expectation, swept in ((EXPECT_SOUND, RANKS[:limits[rule] + 1]),
                                   (EXPECT_COUNTERMODEL, RANKS[limits[rule] + 1:])):
            if swept:
                claim = claims[rule, expectation].format(
                    f"rank <= {limits[rule]}" if limits[rule] else "pure")
                out.append(_Scenario(rule, claim, expectation, tables, partial(blocks, swept)))
    return tuple(out)


#: The largest carrier the sweep accepts.  At 3 the exceptions weak_repl
#: scenario alone has about 4.7e11 combos at the all-3 layout: days of work.
MAX_SWEEP_CARRIER = 2


def _run_scenario(effect: EffectKind, sc: _Scenario,
                  max_carrier: int) -> ScenarioResult:
    stop = sc.expectation == EXPECT_COUNTERMODEL
    checked = violations = 0
    example = None
    for layout in _layouts(effect, sc.roles, Bounds(max_carrier, max_carrier)):
        n, v, ex_here = sc.run(layout, stop)
        checked += n
        violations += v
        if example is None and ex_here is not None:
            sizes = ", ".join(f"|{r}|={len(c)}" for r, c in layout.carriers.items())
            example = f"{sizes}, effect carrier size {layout.k}: {ex_here}"
        if stop and violations:
            break
    return ScenarioResult(sc.rule, effect, sc.description, sc.expectation,
                          checked, violations, example)


def validate_rules(effect: EffectKind, max_carrier: int = 2) -> ValidationReport:
    """Sweep refl, sym (weak premises only), trans_weak, weak_to_strong_lowrank,
    subst_strong, weak_subst, weak_repl, the three pair rules and the two unit
    laws (not trans_strong, trans_mixed, strong_to_weak, repl_strong or axiom)
    over all finite interpretations with carriers up to max_carrier (1 or 2)."""
    if not isinstance(effect, EffectKind):
        raise DeductionError(f"effect must be an EffectKind, got {quoted(effect)}")
    try:
        outside = not 1 <= max_carrier <= MAX_SWEEP_CARRIER
    except TypeError:  # not a number, so refused below as not an int
        outside = False
    if outside or not isinstance(max_carrier, int):
        raise DeductionError(
            f"max_carrier must be between 1 and {MAX_SWEEP_CARRIER}, got {max_carrier}" if outside
            else f"max_carrier must be an integer, got {quoted(max_carrier)}")
    return ValidationReport(effect, tuple(_run_scenario(effect, sc, max_carrier)
                                          for sc in _scenarios(effect)))
