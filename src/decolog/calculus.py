"""Effect-decorated signatures and terms.

A theory fixes one effect (exceptions or states), declares base types and
operation symbols, and states decorated equations over a small categorical
term language: identities, declared operations, composition, pairing,
projections, and the unique map into Unit.

Every operation carries a decoration rank 0/1/2 describing how it interacts
with the effect.  Rank 0 is "pure" for both effects; rank 1 is "propagator"
(may raise) or "observer" (may read the state); rank 2 is "catcher" (may
recover) or "modifier" (may write the state).  No type of exceptions and no
type of states exists anywhere in this syntax: the ranks are the only trace
of the effect.  Types and terms are interned (Interned), so == never walks
them.  The analysis, the printers, the parser's depth count, the duality's
offender scan and the evaluator's type sizes and values are each a callback
of walk, which keeps its own stack, so no depth of a term or a type
exhausts the recursion limit in them.
"""
from __future__ import annotations

import enum
from functools import partial, reduce
from operator import itemgetter
from typing import Callable, Mapping, Optional, Union


#: Most characters of an input that an error message echoes.
ECHO_LIMIT = 40


def cut(text: str) -> str:
    """text cut to its first ECHO_LIMIT characters, "..." marking a cut."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "..."


def quoted(value: object) -> str:
    """value as an error message echoes it: a string in quotes, anything
    else as its repr, either cut by cut(); a value whose repr Python
    refuses (an int past sys.get_int_max_str_digits(), or anything that
    holds one) as its type."""
    if isinstance(value, str):
        return repr(value[:ECHO_LIMIT]) + ("..." if len(value) > ECHO_LIMIT else "")
    try:
        return cut(repr(value))
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


class CalculusError(ValueError):
    """Base class for well-formedness failures."""


class UndeclaredSymbol(CalculusError):
    pass


class CompositionTypeMismatch(CalculusError):
    def __init__(self, inner_cod: "TypeExpr", outer_dom: "TypeExpr"):
        self.inner_cod = inner_cod
        self.outer_dom = outer_dom
        super().__init__(
            f"cannot compose: first factor produces {type_str(inner_cod)} "
            f"but second expects {type_str(outer_dom)}"
        )


class PairDomainMismatch(CalculusError):
    pass


class PairRankViolation(CalculusError):
    pass


class SideTypeMismatch(CalculusError):
    pass


class TheoryError(CalculusError):
    pass


class EffectKind(enum.Enum):
    EXCEPTIONS = "exceptions"
    STATES = "states"

    def __str__(self) -> str:
        return self.value


# Decoration ranks.  Plain ints keep the term machinery light; the names
# depend on the effect and live in RANK_NAMES.
Decoration = int

RANK_NAMES: Mapping[EffectKind, tuple[str, str, str]] = {
    EffectKind.EXCEPTIONS: ("pure", "propagator", "catcher"),
    EffectKind.STATES: ("pure", "observer", "modifier"),
}


def rank_name(effect: EffectKind, rank: Decoration) -> str:
    return RANK_NAMES[effect][rank]


def rank_of_keyword(keyword: str) -> Optional[Decoration]:
    """Decoration rank for a keyword, or None if the keyword is unknown."""
    for names in RANK_NAMES.values():
        if keyword in names:
            return names.index(keyword)
    return None


def keyword_matches_effect(effect: EffectKind, keyword: str) -> bool:
    return keyword in RANK_NAMES[effect]


class Record(tuple):
    """An immutable value stored as the tuple (class, *fields).  Subclasses
    annotate their fields (defaults last), set `__slots__ = ()`, and may
    check each new value in `__post_init__`.  Interned's _table keys a value
    by its fields and their classes, a plain tuple's items' too (1 is not True)."""
    __slots__ = ()
    __post_init__ = None
    _table = None

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            given = {**cls._defaults, **kwargs, **dict(zip(cls._fields, args))}
            if (len(args) > len(cls._fields) or given.keys() != set(cls._fields)
                    or kwargs.keys() & set(cls._fields[:len(args)])):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}")
            args = tuple(map(given.__getitem__, cls._fields))
        key = None
        if cls._table is not None:
            classes, todo = [], list(args)
            for value in todo:  # a plain tuple's items join todo, so they are visited too
                classes.append(value.__class__)
                todo += value if value.__class__ is tuple else ()
            key = (cls, *args, *classes)
            try:
                found = cls._table.get(key)
            except TypeError:  # a field that cannot be hashed: the value is not interned
                found = key = None
            if found is not None:
                return found
        self = tuple.__new__(cls, (cls, *args))
        if cls.__post_init__:
            self.__post_init__()
        return self if key is None else cls._table.setdefault(key, self)

    def __repr__(self) -> str:
        """Built with a stack, as a tuple's repr recurses in C: Records and
        plain tuples inside are taken apart here, anything else is its repr."""
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            record = isinstance(item, Record)
            parts = [f"{type(item).__qualname__}(" if record else "("]
            for i, (name, value) in enumerate(zip(item._fields if record else ("",) * len(item),
                                                  item[1:] if record else item)):
                nested = value.__class__ is tuple or type(value).__repr__ is Record.__repr__
                parts += ", " if i else "", name and f"{name}=", value if nested else repr(value)
            todo += reversed(parts + [",)" if len(item) == 1 and not record else ")"])
        return "".join(out)

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {quoted(name)}")
    __delattr__ = __setattr__


class Interned(Record):
    """A Record whose equal values are one object (hash-consing), compared and
    hashed by identity; one with a field that cannot be hashed is not interned."""
    __slots__ = ()
    _table = {}  # one for every interned class in the process, never emptied
    __hash__, __ne__ = object.__hash__, object.__ne__  # __ne__ inverts __eq__

    def __eq__(self, other: object) -> bool:
        return self is other


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class BaseType(Interned):
    __slots__ = ()
    name: str


class UnitType(Interned):
    __slots__ = ()


class Prod(Interned):
    __slots__ = ()
    left: "TypeExpr"
    right: "TypeExpr"


TypeExpr = Union[BaseType, UnitType, Prod]

Unit = UnitType()


def base_names(t: TypeExpr) -> list[str]:
    """The names of t's base types, left to right, repeats kept."""
    names, todo = [], [t]
    while todo:
        t = todo.pop()
        if t.__class__ is Prod:
            todo += t.right, t.left
        elif t.__class__ is BaseType:
            names.append(t.name)
    return names


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Id(Interned):
    __slots__ = ()
    ty: TypeExpr


class Op(Interned):
    __slots__ = ()
    name: str


class Comp(Interned):
    """after ∘ first: apply `first`, then `after`."""
    __slots__ = ()
    after: "DecoratedTerm"
    first: "DecoratedTerm"


class Pair(Interned):
    __slots__ = ()
    left: "DecoratedTerm"
    right: "DecoratedTerm"


class Proj1(Interned):
    __slots__ = ()
    left_ty: TypeExpr
    right_ty: TypeExpr


class Proj2(Interned):
    __slots__ = ()
    left_ty: TypeExpr
    right_ty: TypeExpr


class Bang(Interned):
    """The unique pure map ty -> Unit."""
    __slots__ = ()
    ty: TypeExpr


#: The term classes, for isinstance: a typing.Union checks one far slower.
TERM_CLASSES = (Id, Op, Comp, Pair, Proj1, Proj2, Bang)
DecoratedTerm = Union[TERM_CLASSES]

#: A normal term's composition factors, outermost first (see Analysis).
Atoms = tuple[DecoratedTerm, ...]


#: Where a walk finds a node's parts, by class: their places in the node's
#: tuple, in visiting order.  TERM_PARTS is analysis' order, a composition's
#: first factor before the later one, and TEXT_PARTS the reading order.
TERM_PARTS = {Comp: (2, 1), Pair: (1, 2)}
TEXT_PARTS = {Comp: (1, 2), Pair: (1, 2)}
TYPE_PARTS = {Prod: (1, 2)}
_PENDING = object()


def walk(root: object, leave: Callable, memo: Optional[Mapping] = None,
         parts: Mapping = TERM_PARTS) -> object:
    """leave's value at root, post-order with an explicit stack: leave(node,
    *below) runs after the parts that parts names, below holding their
    values in visiting order.  A node memo holds is not walked again."""
    stack, node = [], root  # a frame: [node, its second part, its first part's value]
    while True:
        found = None if memo is None else memo.get(node)
        if found is None:
            at = parts.get(node.__class__)
            if at is not None:
                stack.append([node, node[at[1]], _PENDING])
                node = node[at[0]]
                continue
            found = leave(node)
        while stack:  # found is the value of the part a frame waits for
            frame = stack[-1]
            if frame[2] is _PENDING:
                frame[2], node = found, frame[1]
                break
            stack.pop()
            found = leave(frame[0], frame[2], found)
        else:
            return found


#: The text of a node from its parts', or from its types' for a builtin.
_FORMATS = {Pair: "<{}, {}>", Prod: "{} * {}", UnitType: "Unit",
            Id: "id({})", Bang: "bang({})", Proj1: "p1({}, {})", Proj2: "p2({}, {})"}


def _text(kinds: tuple, node: object, a: Optional[str] = None, b: Optional[str] = None) -> str:
    """term_str's and type_str's callback: a node's text from its parts', a and b."""
    kind = node.__class__
    if a is not None:  # a composition, a pair or a product, which only a walk of its kind descends
        if kind is Prod and node.right.__class__ is Prod:  # products associate to the left
            return f"{a} * ({b})"
        return f"{a} . {b}" if kind is Comp else _FORMATS[kind].format(a, b)
    if kind not in kinds:
        if kinds is TERM_CLASSES:
            raise TypeError(f"not a term: {quoted(node)}")
        left, right = type_str(node.left), type_str(node.right)  # a non-type reads as a product
        return f"{left} * ({right})" if isinstance(node.right, Prod) else f"{left} * {right}"
    if kind is Op or kind is BaseType:
        return node.name
    return _FORMATS[kind].format(*map(type_str, node[1:]))  # Unit, or a builtin with its types


_TYPE_TEXT, _TERM_TEXT = partial(_text, (BaseType, UnitType, Prod)), partial(_text, TERM_CLASSES)


def type_str(t: TypeExpr) -> str:
    """Render a type; products associate to the left."""
    return t.name if t.__class__ is BaseType else walk(t, _TYPE_TEXT, parts=TYPE_PARTS)


def term_str(term: DecoratedTerm) -> str:
    """Render a term in the surface syntax: `f . g` for composition, `<f, g>`
    for pairs, and explicit types on the builtins."""
    return walk(term, _TERM_TEXT, parts=TEXT_PARTS)


def normalize(term: DecoratedTerm) -> DecoratedTerm:
    """Canonical form: compositions right-associated with identity factors
    dropped, Bang(Unit) collapsed to Id(Unit).  Associativity and identity
    laws are definitional, so equality of normal forms is the term equality
    used everywhere else.  Read off the term's analysis, without a theory.
    """
    return analysis(None, term).term


def rebuild(atoms: Atoms, inner: DecoratedTerm) -> DecoratedTerm:
    """The normal term of spine atoms (outermost first) composed after the
    normal term inner, which is applied first: inner itself when there are
    no atoms, and an identity inner drops out."""
    for atom in reversed(atoms):
        inner = atom if inner.__class__ is Id else Comp(atom, inner)
    return inner


def compose(*factors: DecoratedTerm) -> DecoratedTerm:
    """compose(f, g, h) is f ∘ g ∘ h (h applied first), built right-nested, then normalized."""
    if not factors:
        raise ValueError("compose() needs at least one factor")
    return normalize(reduce(lambda inner, after: Comp(after, inner), reversed(factors)))


def pair(left: DecoratedTerm, right: DecoratedTerm) -> Pair:
    return Pair(normalize(left), normalize(right))


# ---------------------------------------------------------------------------
# Equations and theories
# ---------------------------------------------------------------------------

class Strength(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"

    def __str__(self) -> str:
        return self.value


class DecoratedEquation(Record):
    __slots__ = ()
    strength: Strength
    lhs: DecoratedTerm
    rhs: DecoratedTerm

    def normalized(self) -> "DecoratedEquation":
        return DecoratedEquation(self.strength, normalize(self.lhs), normalize(self.rhs))

    def flipped(self) -> "DecoratedEquation":
        return DecoratedEquation(self.strength, self.rhs, self.lhs)


def strong(lhs: DecoratedTerm, rhs: DecoratedTerm) -> DecoratedEquation:
    return DecoratedEquation(Strength.STRONG, normalize(lhs), normalize(rhs))


def weak(lhs: DecoratedTerm, rhs: DecoratedTerm) -> DecoratedEquation:
    return DecoratedEquation(Strength.WEAK, normalize(lhs), normalize(rhs))


class OperationSymbol(Record):
    __slots__ = ()
    name: str
    dom: TypeExpr
    cod: TypeExpr
    decoration: Decoration

    def __post_init__(self):
        if self.decoration not in (0, 1, 2):
            raise TheoryError(f"decoration rank must be 0, 1 or 2, got {quoted(self.decoration)}")


class Axiom(Record):
    __slots__ = ()
    name: str
    equation: DecoratedEquation


#: Names reserved for the term-language builtins.
RESERVED_NAMES = frozenset({"id", "p1", "p2", "bang"})


class Theory(Record):
    """An effect, base types, decorated operations, named axioms, and
    optional named term abbreviations (definitions).

    Definitions are transparent: the stored term is fully expanded, so no
    term anywhere refers to a definition by name.
    """
    # No __slots__: the instance __dict__ holds the op index and the term
    # analysis memo, which __post_init__ sets up, and duality_map's mirror;
    # no copy or pickle carries them, and Record.__setattr__ keeps all else out.
    effect: EffectKind
    base_types: tuple[str, ...] = ()
    operations: tuple[OperationSymbol, ...] = ()
    axioms: tuple[Axiom, ...] = ()
    definitions: tuple[tuple[str, DecoratedTerm], ...] = ()

    def __post_init__(self):
        ops = self.__dict__["_op_index"] = {}
        self.__dict__["_analyses"] = {}
        if "Unit" in self.base_types:
            raise TheoryError("base type may not be named Unit")
        if len(set(self.base_types)) != len(self.base_types):
            raise TheoryError("duplicate base type declaration")
        for sym in self.operations:
            if sym.name in RESERVED_NAMES:
                raise TheoryError(f"operation may not shadow builtin {quoted(sym.name)}")
            if sym.name in ops:
                raise TheoryError(f"duplicate operation {quoted(sym.name)}")
            ops[sym.name] = sym
        seen = set(ops)
        for name, _ in self.definitions:
            if name in RESERVED_NAMES:
                raise TheoryError(f"definition may not shadow builtin {quoted(name)}")
            if name in seen:
                raise TheoryError(f"definition {quoted(name)} clashes with another symbol")
            seen.add(name)
        axnames = [ax.name for ax in self.axioms]
        if len(set(axnames)) != len(axnames):
            raise TheoryError("duplicate axiom name")
        self.validate()

    def __getstate__(self) -> None:
        return None

    def _compiled(self) -> dict:
        """The engines' compiled state: a dict in the analysis memo, emptied with it."""
        return self._analyses.setdefault(Theory._compiled, {})

    def op(self, name: str) -> OperationSymbol:
        found = self._op_index.get(name)
        if found is None:
            raise UndeclaredSymbol(f"operation {quoted(name)} is not declared")
        return found

    def axiom(self, name: str) -> Axiom:
        for ax in self.axioms:
            if ax.name == name:
                return ax
        raise UndeclaredSymbol(f"axiom {quoted(name)} is not declared")

    def validate(self) -> None:
        """Check every declaration, definition and axiom for well-formedness."""
        for sym in self.operations:
            _check_type_declared(self, sym.dom)
            _check_type_declared(self, sym.cod)
        for _, term in self.definitions:
            wf_term(self, term)
        for ax in self.axioms:
            check_equation_wf(self, ax.equation)


def _check_type_declared(theory: Optional[Theory], t: TypeExpr) -> None:
    for name in base_names(t) if theory is not None else ():
        if name not in theory.base_types:
            raise UndeclaredSymbol(f"base type {quoted(name)} is not declared")


# ---------------------------------------------------------------------------
# Typing and decoration inference
# ---------------------------------------------------------------------------

#: Largest rank a pair component may have, per effect.  Pairing of rank-2
#: maps would need a sequencing convention for the two effectful components
#: and is deliberately not in the language.
PAIR_COMPONENT_RANK_LIMIT: Mapping[EffectKind, Decoration] = {
    EffectKind.EXCEPTIONS: 0,
    EffectKind.STATES: 1,
}


class Analysis(tuple):
    """What one walk of a term finds: its domain, codomain and rank, and
    its normal form, both as spine atoms, outermost (last applied) first,
    and rebuilt as a term.  An atom is an operation, a projection, a bang
    out of a type other than Unit or a pair of normal terms; an identity
    has none.  When the normal form is a pair, parts holds the analyses of
    its components.  One is made per subterm walked, so it is a plain tuple."""
    __slots__ = ()
    dom, cod, rank, atoms, term, parts = (property(itemgetter(i)) for i in range(6))


def analysis(theory: Optional[Theory], term: DecoratedTerm) -> Analysis:
    """The analysis of a term, or the first CalculusError of its walk, which
    takes each part before the check that joins them: the first factor
    before the later one, the left component before the right.  A theory
    keeps every success, under the term and its normal form, and the walk
    takes a kept part as it is.  Without a theory nothing is checked or
    kept, and an operation's types are None."""
    memo = None if theory is None else theory._analyses
    return memo and memo.get(term) or walk(term, partial(_analysis, theory), memo)


def _analysis(theory: Optional[Theory], term: DecoratedTerm,
              a: Optional[Analysis] = None, b: Optional[Analysis] = None) -> Analysis:
    """analysis' callback: term's analysis from its parts', a and b."""
    kind = term.__class__
    if kind is Comp:
        first, after = a, b
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
        left, right = a, b
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


def analyze_term(theory: Theory, term: DecoratedTerm) -> tuple[TypeExpr, TypeExpr, Decoration]:
    """Domain, codomain and inferred rank of a term, or a CalculusError."""
    found = analysis(theory, term)
    return found.dom, found.cod, found.rank


def wf_term(theory: Theory, term: DecoratedTerm) -> tuple[TypeExpr, TypeExpr]:
    dom, cod, _ = analyze_term(theory, term)
    return dom, cod


def infer_decoration(theory: Theory, term: DecoratedTerm) -> Decoration:
    return analyze_term(theory, term)[2]


class EquationReport(Record):
    __slots__ = ()
    dom: TypeExpr
    cod: TypeExpr
    lhs_rank: Decoration
    rhs_rank: Decoration


def check_equation_wf(theory: Theory, eq: DecoratedEquation) -> EquationReport:
    """Both sides well-formed with one domain and codomain.  The two sides
    may have different ranks; equations compare at the larger one.
    """
    ldom, lcod, lrank = analyze_term(theory, eq.lhs)
    rdom, rcod, rrank = analyze_term(theory, eq.rhs)
    if ldom != rdom or lcod != rcod:
        raise SideTypeMismatch(
            f"equation sides disagree: {type_str(ldom)} -> {type_str(lcod)} "
            f"vs {type_str(rdom)} -> {type_str(rcod)}"
        )
    return EquationReport(ldom, lcod, lrank, rrank)
