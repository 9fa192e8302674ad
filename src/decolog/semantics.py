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

Evaluation runs on numbered tables.  A carrier element is numbered by its
position in its carrier, a product element (a, b) by a*|B| + b, and a rank-2
table is a tuple of codomain numbers indexed by domain numbers, laid out in
the order _Layout.labels lists the inputs:

    exceptions   ok(a) is a and exc(e) is |A| + e (the ok block, then the exc block)
    states       (a, s) is a*|S| + s (row-major)

Composition looks first's entries up in after (itemgetter(*first)(after)),
strong equality is tuple equality, and weak equality compares the ok block
(exceptions) or the value column v // |S| (states).  Each equation is
compiled once per search and specialised once per carrier-size assignment;
labels are decoded only where a caller sees them: eval_term's mapping, the
models enumerate_models yields, a Counterexample and the examples of the
rule-soundness sweep in deduction.py, which runs on the same parts.

_Layout is the one model codec and the one way through the model space.
Only it maps labels to numbers: _Layout.values lists a type's elements,
_Layout.labels the rank-2 elements over a type and _Layout.raw_labels the
inputs and outputs of an operation's raw table.  find_counterexample,
enumerate_models and the sweep take their carrier assignments from _layouts
and their raw tables from _Layout.raw_tables.  A given model is checked by
_Layout.of_model (its carriers) and _Layout.number (its tables), in
validate_model and in every evaluation call alike.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .calculus import (
    Bang,
    BaseType,
    Comp,
    DecoratedEquation,
    DecoratedTerm,
    EffectKind,
    Id,
    Op,
    OperationSymbol,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Strength,
    Theory,
    TypeExpr,
    Unit,
    analyze_term,
    check_equation_wf,
    type_str,
)

Element = object
UNIT: Element = "*"

OK = "ok"
EXC = "exc"


def ok(v: Element) -> tuple:
    return (OK, v)


def exc(e: Element) -> tuple:
    return (EXC, e)


class SemanticsError(Exception):
    pass


class UnknownBaseType(SemanticsError):
    pass


class BoundsTooLarge(SemanticsError):
    pass


class ModelMismatch(SemanticsError):
    pass


class FactoringInvariantError(SemanticsError):
    """A term's rank-2 table failed the conservation law its inferred rank
    promises (state written by a rank<=1 term, or an exception not
    propagated).  Every table is checked and lifted from its declared rank,
    so this signals a bug in the evaluator, never bad input.
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


# ---------------------------------------------------------------------------
# Numbered tables
# ---------------------------------------------------------------------------

#: A numbered table: entry x is the number of the output at input number x.
Table = tuple


def _composer(first: Table) -> Callable[[Table], Table]:
    """The map from a rank-2 table `after` to its composition with first,
    first applied first."""
    if len(first) == 1:
        x, = first
        return lambda after: (after[x],)
    return itemgetter(*first)


def _run(steps: tuple, tables: Sequence[Table]) -> Table:
    """Rank-2 table of specialised steps, first applied first: a step is a
    slot into the candidate's lifted tables, a constant table, or a pair
    step that builds its table from the candidate's."""
    t = None
    for step in steps:
        kind = step.__class__
        if kind is int:
            step = tables[step]
        elif kind is not tuple:
            step = step(tables)
        t = step if t is None else _composer(t)(step)
    return t


class _Layout:
    """The numbering of one carrier assignment: type sizes, the builtins'
    constant tables, the lift of raw tables to rank 2, and the labels that
    decode numbers back for reports."""

    def __init__(self, effect: EffectKind, carriers: Mapping[str, tuple],
                 eff_elems: tuple):
        self.effect = effect
        self.exceptions = effect is EffectKind.EXCEPTIONS
        self.carriers = carriers
        self.eff_elems = eff_elems
        self.k = len(eff_elems)
        self._labels: dict = {}
        self._raw_labels: dict = {}
        self._decoders: Optional[list] = None

    @classmethod
    def of_model(cls, theory: Theory, model: FiniteModel) -> "_Layout":
        """The layout of a given model's carriers, or ModelMismatch when the
        model is for another effect, or a carrier is missing, empty or
        repeats a label."""
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
        return cls(theory.effect, model.carriers, model.effect_carrier)

    def size(self, ty: TypeExpr) -> int:
        if isinstance(ty, BaseType):
            carrier = self.carriers.get(ty.name)
            if carrier is None:
                raise UnknownBaseType(f"no carrier for base type {ty.name!r}")
            return len(carrier)
        if isinstance(ty, Prod):
            return self.size(ty.left) * self.size(ty.right)
        return 1

    def shape(self, sym: OperationSymbol) -> tuple[int, int, int]:
        """sym's rank and its numbers of values in and out."""
        return sym.decoration, self.size(sym.dom), self.size(sym.cod)

    def raw_shape(self, rank: int, n: int, m: int) -> tuple[int, int]:
        """Input and output counts of a raw table of the given rank with n
        values in and m out (the sizes of raw_labels' inputs and outputs)."""
        k = self.k
        if rank == 0:
            return n, m
        if self.exceptions:
            return (n if rank == 1 else n + k), m + k
        return n * k, (m if rank == 1 else m * k)

    def raw_tables(self, rank: int, n: int, m: int) -> Iterator[Table]:
        """Every raw table of the given rank with n values in and m out,
        sweeping its output numbers lexicographically over its inputs in
        canonical domain order."""
        n_in, n_out = self.raw_shape(rank, n, m)
        return itertools.product(range(n_out), repeat=n_in)

    def tail(self, m: int) -> Table:
        """The exc block of a rank-2 codomain over m values."""
        return tuple(range(m, m + self.k))

    def lifter(self, rank: int, n: int, m: int) -> Optional[Callable[[Table], Table]]:
        """The map from a raw table of the given rank (n values in, m out,
        numbered like raw_labels) to its rank-2 table;
        None when the raw table already is one."""
        k = self.k
        if rank == 2:
            return None
        if self.exceptions:
            tail = self.tail(m)
            return lambda raw: raw + tail
        if k == 1:
            return None
        if rank == 1:
            column = tuple(range(k)) * n
            return lambda raw: tuple(map(add, map(k.__mul__, raw), column))
        blocks = tuple(tuple(range(b * k, b * k + k)) for b in range(m))
        return lambda raw: tuple(itertools.chain.from_iterable(map(blocks.__getitem__, raw)))

    def _pure(self, raw: Table, m: int) -> Table:
        lift = self.lifter(0, len(raw), m)
        return raw if lift is None else lift(raw)

    def identity(self, ty: TypeExpr) -> Table:
        n = self.size(ty)
        return tuple(range(n + self.k if self.exceptions else n * self.k))

    def steps(self, factors: tuple, dom: TypeExpr, slots: Mapping[int, int]) -> tuple:
        """Compiled factors specialised to this layout: operations become
        slots, builtins become tables and pairs become pair steps."""
        return (tuple(slots[f[1]] if f[0] == "op" else self._step(f, slots) for f in factors)
                or (self.identity(dom),))

    def _step(self, factor: tuple, slots: Mapping[int, int]):
        if factor[0] != "pair":
            return self.constant(factor)
        _, dom, left, lcod, right, rcod = factor
        lsteps = self.steps(left, dom, slots)
        rsteps = self.steps(right, dom, slots)
        pair = self.pairer(self.size(dom), self.size(lcod), self.size(rcod))
        return lambda tables: pair(_run(lsteps, tables), _run(rsteps, tables))

    def constant(self, factor: tuple) -> Table:
        """The rank-2 table of a builtin factor: ("bang", ty), ("p1", l, r)
        or ("p2", l, r)."""
        if factor[0] == "bang":
            return self._pure((0,) * self.size(factor[1]), 1)
        nl, nr = self.size(factor[1]), self.size(factor[2])
        if factor[0] == "p1":
            return self._pure(tuple(p // nr for p in range(nl * nr)), nl)
        return self._pure(tuple(p % nr for p in range(nl * nr)), nr)

    def pairer(self, n: int, ml: int, mr: int) -> Callable[[Table, Table], Table]:
        """The map from the rank-2 tables of two pair components (n values
        in, ml and mr out) to the rank-2 table of their pair."""
        # Components have rank <= 1, so they leave exceptions and the state
        # alone: only their values are paired.
        if self.exceptions:
            tail = self.tail(ml * mr)
            return lambda lhs, rhs: tuple(map(add, map(mr.__mul__, lhs[:n]), rhs)) + tail
        column = tuple(range(self.k)) * n
        return lambda lhs, rhs: tuple(map(add, map(mr.__mul__, map(sub, lhs, column)), rhs))

    def conservation(self, rank: int, n: int, m: int) -> Optional[Callable[[Table], bool]]:
        """Test that a rank-2 table over n values in and m out leaves alone
        what a term of the given rank may not touch; None when there is
        nothing to test (always at rank 2)."""
        k = self.k
        if rank == 2:
            return None
        if self.exceptions:
            tail = self.tail(m)
            if rank == 1 or n == 0:
                return lambda t: t[n:] == tail
            return lambda t: t[n:] == tail and max(t[:n]) < m
        if k < 2:
            return None
        column = tuple(range(k)) * n
        if rank == 1:
            return lambda t: tuple(map(k.__rmod__, t)) == column
        shifts = range(1, k)
        return lambda t: (tuple(map(k.__rmod__, t)) == column
                          and all(t[s::k] == tuple(map(s.__add__, t[::k])) for s in shifts))

    def weak_view(self, n: int, m: int) -> Optional[Callable[[Table], Sequence[int]]]:
        """The part of a rank-2 table over n values in and m out that a weak
        equation compares: the ok block, or the value column (the table
        composed with the projection (b, s) -> b); None when that is the
        whole table."""
        if self.exceptions:
            return itemgetter(slice(0, n))
        k = self.k
        if k < 2:
            return None
        values = tuple(b for b in range(m) for _ in range(k))
        return lambda t: _composer(t)(values)

    def weak_variants(self, t: Table, m: int) -> Iterator[Table]:
        """Every rank-2 table over m values out whose weak view is t's, t
        among them: the exc rows run free (exceptions), or the state of
        every row does (states)."""
        k = self.k
        if self.exceptions:
            head = t[:len(t) - k]
            return (head + tail for tail in itertools.product(range(m + k), repeat=k))
        values = tuple(v - v % k for v in t)
        return (tuple(map(add, values, states))
                for states in itertools.product(range(k), repeat=len(t)))

    def values(self, ty: TypeExpr) -> tuple:
        """The elements of ty in numbering order: a base type's carrier,
        Unit's one element, a product's pairs with the left component
        varying slowest."""
        if isinstance(ty, BaseType):
            carrier = self.carriers.get(ty.name)
            if carrier is None:
                raise UnknownBaseType(f"no carrier for base type {ty.name!r}")
            return carrier
        if isinstance(ty, Prod):
            return tuple(itertools.product(self.values(ty.left), self.values(ty.right)))
        return (UNIT,)

    def labels(self, ty: TypeExpr) -> tuple:
        """Rank-2 elements over ty in numbering order: ok(a) for every value
        and then exc(e) for every exception, or (a, s) row-major."""
        got = self._labels.get(ty)
        if got is None:
            values = self.values(ty)
            if self.exceptions:
                got = tuple(map(ok, values)) + tuple(map(exc, self.eff_elems))
            else:
                got = tuple(itertools.product(values, self.eff_elems))
            self._labels[ty] = got
        return got

    def decode(self, dom: TypeExpr, cod: TypeExpr, t: Table) -> dict:
        return dict(zip(self.labels(dom), map(self.labels(cod).__getitem__, t)))

    def raw_labels(self, sym: OperationSymbol) -> tuple[tuple, tuple]:
        """The inputs and the outputs of sym's raw table, in numbering order
        (raw_shape counts them)."""
        got = self._raw_labels.get(sym.name)
        if got is None:
            rank, dom, cod = sym.decoration, sym.dom, sym.cod
            if rank == 0:
                got = self.values(dom), self.values(cod)
            elif self.exceptions:
                got = (self.values(dom) if rank == 1 else self.labels(dom)), self.labels(cod)
            else:
                got = self.labels(dom), (self.values(cod) if rank == 1 else self.labels(cod))
            self._raw_labels[sym.name] = got
        return got

    def number(self, sym: OperationSymbol, table: Optional[OperationTable]) -> Table:
        """A model's table for sym in numbered form, or ModelMismatch when
        it is missing, has the wrong shape, misses a row, has a row outside
        its domain or produces a value outside its codomain."""
        if table is None:
            raise ModelMismatch(f"no table for operation {sym.name!r}")
        if table.rank != sym.decoration or table.effect is not self.effect:
            raise ModelMismatch(
                f"table for {sym.name!r} has shape ({table.effect}, rank {table.rank}), "
                f"declared ({self.effect}, rank {sym.decoration})")
        ins, outs = self.raw_labels(sym)
        index = {y: i for i, y in enumerate(outs)}
        raw = []
        for x in ins:
            if x not in table.mapping:
                raise ModelMismatch(f"table for {sym.name!r} has no row for {x!r}")
            y = index.get(table.mapping[x])
            if y is None:
                raise ModelMismatch(f"table for {sym.name!r} produces "
                                    f"{table.mapping[x]!r} outside its codomain")
            raw.append(y)
        if len(table.mapping) != len(raw):
            known = set(ins)
            for x in table.mapping:
                if x not in known:
                    raise ModelMismatch(f"table for {sym.name!r} has a row for {x!r} "
                                        "outside its domain")
        return tuple(raw)

    def model(self, theory: Theory, assignment: Sequence[Table]) -> FiniteModel:
        """The labelled model of one raw table per operation."""
        if self._decoders is None:
            self._decoders = []
            for sym in theory.operations:
                ins, outs = self.raw_labels(sym)
                # outputs labelled 0, 1, ... are their own numbers
                decode = None if outs == tuple(range(len(outs))) else outs.__getitem__
                self._decoders.append((sym.name, sym.decoration, ins, decode))
        effect = self.effect
        tables = {name: OperationTable(effect, rank,
                                       dict(zip(ins, raw if decode is None else map(decode, raw))))
                  for (name, rank, ins, decode), raw in zip(self._decoders, assignment)}
        return FiniteModel(effect, self.carriers, self.eff_elems, tables)


class _Side:
    """One term specialised to one layout."""
    __slots__ = ("layout", "steps", "conserves", "rank", "dom", "cod")

    def __init__(self, layout: _Layout, factors: tuple, dom: TypeExpr,
                 cod: TypeExpr, rank: int, slots: Mapping[int, int]):
        self.layout = layout
        self.steps = layout.steps(factors, dom, slots)
        self.conserves = layout.conservation(rank, layout.size(dom), layout.size(cod))
        self.rank, self.dom, self.cod = rank, dom, cod

    def run(self, tables: Sequence[Table]) -> Table:
        t = _run(self.steps, tables)
        if self.conserves is not None and not self.conserves(t):
            raise FactoringInvariantError(
                f"the rank-2 table of a rank-{self.rank} term {type_str(self.dom)} -> "
                f"{type_str(self.cod)} breaks the conservation law of its rank")
        return t


class _Check:
    """One equation specialised to one layout."""
    __slots__ = ("lhs", "rhs", "view")

    def __init__(self, lhs: _Side, rhs: _Side, view):
        self.lhs, self.rhs, self.view = lhs, rhs, view

    def holds(self, tables: Sequence[Table]) -> bool:
        lhs = self.lhs.run(tables)
        rhs = self.rhs.run(tables)
        view = self.view
        return lhs == rhs if view is None else view(lhs) == view(rhs)

    def witness(self, tables: Sequence[Table]) -> Optional[tuple[Element, Element, Element]]:
        """None when the equation holds, else the first input where its
        sides disagree with both outputs, decoded."""
        lhs = self.lhs.run(tables)
        rhs = self.rhs.run(tables)
        view = self.view
        x = (violation_witness(lhs, rhs) if view is None
             else violation_witness(view(lhs), view(rhs)))
        if x is None:
            return None
        side = self.lhs
        cod = side.layout.labels(side.cod)
        return side.layout.labels(side.dom)[x], cod[lhs[x]], cod[rhs[x]]


def violation_witness(lhs: Sequence[int], rhs: Sequence[int]) -> Optional[int]:
    """Position of the first entry where two numbered tables (or the parts
    a weak equation compares) differ; None when they agree."""
    if lhs == rhs:
        return None
    return next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


class _Program:
    """Equations and terms of one theory compiled once: well-formedness,
    ranks and factor lists, none of which depend on a model.  at() then
    specialises them to one carrier assignment."""

    def __init__(self, theory: Theory, equations: Iterable[DecoratedEquation],
                 terms: Iterable[DecoratedTerm] = ()):
        self.theory = theory
        self._positions = {sym.name: i for i, sym in enumerate(theory.operations)}
        used: set[int] = set()
        self._equations = []
        for eq in equations:
            report = check_equation_wf(theory, eq)
            self._equations.append((
                eq.strength, report,
                self._factors(eq.lhs, report.dom, used),
                self._factors(eq.rhs, report.dom, used)))
        self._terms = []
        for term in terms:
            dom, cod, rank = analyze_term(theory, term)
            self._terms.append((self._factors(term, dom, used), dom, cod, rank))
        self.used = tuple(sorted(used))
        self._slots = {position: slot for slot, position in enumerate(self.used)}

    def _factors(self, term: DecoratedTerm, dom: TypeExpr, used: set) -> tuple:
        out: list = []
        self._flatten(term, dom, out, used)
        return tuple(out)

    def _flatten(self, term: DecoratedTerm, dom: TypeExpr, out: list, used: set) -> TypeExpr:
        """Append term's factors to out, first applied first, and return its
        codomain.  Identities drop out."""
        if isinstance(term, Comp):
            mid = self._flatten(term.first, dom, out, used)
            return self._flatten(term.after, mid, out, used)
        if isinstance(term, Id):
            return dom
        if isinstance(term, Op):
            position = self._positions[term.name]
            used.add(position)
            out.append(("op", position))
            return self.theory.operations[position].cod
        if isinstance(term, Pair):
            left, right = [], []
            lcod = self._flatten(term.left, dom, left, used)
            rcod = self._flatten(term.right, dom, right, used)
            out.append(("pair", dom, tuple(left), lcod, tuple(right), rcod))
            return Prod(lcod, rcod)
        if isinstance(term, Proj1):
            out.append(("p1", term.left_ty, term.right_ty))
            return term.left_ty
        if isinstance(term, Proj2):
            out.append(("p2", term.left_ty, term.right_ty))
            return term.right_ty
        if isinstance(term, Bang):
            out.append(("bang", term.ty))
            return Unit
        raise TypeError(f"not a term: {term!r}")

    def at(self, layout: _Layout) -> tuple[list[_Check], list[_Side],
                                           Callable[[Iterable[Table]], list[Table]]]:
        """The equations and the terms specialised to layout, and the lift
        of the used operations' raw tables to their rank-2 tables."""
        slots = self._slots
        checks = [_Check(_Side(layout, lhs, report.dom, report.cod, report.lhs_rank, slots),
                         _Side(layout, rhs, report.dom, report.cod, report.rhs_rank, slots),
                         layout.weak_view(layout.size(report.dom), layout.size(report.cod))
                         if strength is Strength.WEAK else None)
                  for strength, report, lhs, rhs in self._equations]
        sides = [_Side(layout, factors, dom, cod, rank, slots)
                 for factors, dom, cod, rank in self._terms]
        lifters = [layout.lifter(*layout.shape(self.theory.operations[i])) for i in self.used]

        def lift(raws: Iterable[Table]) -> list[Table]:
            return [raw if f is None else f(raw) for raw, f in zip(raws, lifters)]
        return checks, sides, lift

    def numbered(self, model: FiniteModel) -> tuple[list[_Check], list[_Side], list[Table]]:
        """Check a given model's carriers, specialise to them and number,
        from its labelled tables, the tables the program uses."""
        layout = _Layout.of_model(self.theory, model)
        checks, sides, lift = self.at(layout)
        symbols = [self.theory.operations[i] for i in self.used]
        return checks, sides, lift([layout.number(sym, model.tables.get(sym.name))
                                    for sym in symbols])


# ---------------------------------------------------------------------------
# Evaluation in a given model
# ---------------------------------------------------------------------------

def validate_model(theory: Theory, model: FiniteModel) -> None:
    """Carriers and tables match the theory, or ModelMismatch: the carriers
    are checked by _Layout.of_model and each table by _Layout.number, as
    every evaluation call checks the model it reads."""
    layout = _Layout.of_model(theory, model)
    for sym in theory.operations:
        layout.number(sym, model.tables.get(sym.name))


def eval_term(model: FiniteModel, theory: Theory, term: DecoratedTerm) -> OperationTable:
    """Rank-2 denotation of a term, its inputs in canonical order.  The
    result is checked to conserve whatever the term's inferred rank says it
    cannot touch."""
    _, (side,), tables = _Program(theory, (), (term,)).numbered(model)
    return OperationTable(theory.effect, 2,
                          side.layout.decode(side.dom, side.cod, side.run(tables)))


def holds(model: FiniteModel, theory: Theory, eq: DecoratedEquation) -> bool:
    (check,), _, tables = _Program(theory, (eq,)).numbered(model)
    return check.holds(tables)


def first_violation(model: FiniteModel, theory: Theory,
                    eq: DecoratedEquation) -> Optional[tuple[Element, Element, Element]]:
    """None when the equation holds in the model, else the first input in
    canonical order where its sides disagree, with both outputs."""
    (check,), _, tables = _Program(theory, (eq,)).numbered(model)
    return check.witness(tables)


# ---------------------------------------------------------------------------
# Model enumeration and counterexample search
# ---------------------------------------------------------------------------

DEFAULT_MAX_INTERPRETATIONS = 10 ** 7


@dataclass(frozen=True)
class Bounds:
    """Carrier size limits: base for every base type, effect for the effect
    carrier.  Sizes start at 1; empty carriers are not searched."""
    base: int = 2
    effect: int = 2

    def __post_init__(self):
        if min(self.base, self.effect) < 1:
            raise SemanticsError(
                f"carrier bounds must be at least 1, got base {self.base!r}, "
                f"effect {self.effect!r}")


def _layouts(effect: EffectKind, base_types: Sequence[str], bounds: Bounds) -> Iterator[_Layout]:
    """One layout per carrier-size assignment: base types in the given order
    with the effect carrier last, carriers numbered 0, 1, ..."""
    sizes = range(1, bounds.base + 1)
    for base_sizes in itertools.product(sizes, repeat=len(base_types)):
        carriers = {name: tuple(range(n)) for name, n in zip(base_types, base_sizes)}
        for eff_size in range(1, bounds.effect + 1):
            yield _Layout(effect, carriers, tuple(range(eff_size)))


def _layout_counts(theory: Theory, bounds: Bounds) -> Iterator[int]:
    """Raw interpretation count of each layout, in _layouts' order."""
    for layout in _layouts(theory.effect, theory.base_types, bounds):
        count = 1
        for sym in theory.operations:
            n_in, n_out = layout.raw_shape(*layout.shape(sym))
            count *= n_out ** n_in
        yield count


def count_interpretations(theory: Theory, bounds: Bounds) -> int:
    """Raw interpretation count within bounds, before any axiom filtering."""
    return sum(_layout_counts(theory, bounds))


def _candidates(theory: Theory, bounds: Bounds) -> Iterator[tuple[_Layout, tuple]]:
    """Every raw interpretation within bounds, in canonical order, as its
    layout and one raw table per operation (_Layout.raw_tables' order, the
    first operation's table varying slowest)."""
    for layout in _layouts(theory.effect, theory.base_types, bounds):
        spaces = [layout.raw_tables(*layout.shape(sym)) for sym in theory.operations]
        for assignment in itertools.product(*spaces):
            yield layout, assignment


def _check_ceiling(theory: Theory, bounds: Bounds, max_interpretations: int) -> None:
    """BoundsTooLarge when more raw interpretations than the ceiling lie
    within bounds: each layout holds one at least, so too many layouts need
    no count, and the count stops once its running total passes it."""
    layouts = bounds.base ** len(theory.base_types) * bounds.effect
    totals = itertools.accumulate(_layout_counts(theory, bounds))
    if layouts > max_interpretations or any(t > max_interpretations for t in totals):
        raise BoundsTooLarge(f"more than {max_interpretations} interpretations "
                             f"within bounds, ceiling is {max_interpretations}")


def _admitted(program: _Program, bounds: Bounds
              ) -> Iterator[tuple[_Layout, tuple, list[Table], list[_Check]]]:
    """The one loop over admitted candidates: every candidate within bounds
    that satisfies the theory's axioms, in canonical order, with its
    layout, its raw tables, the rank-2 tables of the operations the program
    uses, and the checks of the program's equations after the axioms (the
    program lists the theory's axioms first)."""
    theory = program.theory
    n_axioms = len(theory.axioms)
    used = program.used
    current = None
    for layout, assignment in _candidates(theory, bounds):
        if layout is not current:
            current = layout
            checks, _, lift = program.at(layout)
            axioms, rest = checks[:n_axioms], checks[n_axioms:]
        tables = lift(map(assignment.__getitem__, used))
        for check in axioms:
            if not check.holds(tables):
                break
        else:
            yield layout, assignment, tables, rest


def enumerate_models(theory: Theory, bounds: Bounds = Bounds(), *,
                     max_interpretations: int = DEFAULT_MAX_INTERPRETATIONS
                     ) -> Iterator[FiniteModel]:
    """All axiom-satisfying models within bounds, in a stable canonical
    order.

    Refuses to start when the raw interpretation count exceeds the ceiling.
    """
    _check_ceiling(theory, bounds, max_interpretations)
    admitted = _admitted(_Program(theory, [ax.equation for ax in theory.axioms]), bounds)
    return (layout.model(theory, assignment) for layout, assignment, _, _ in admitted)


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
    program = _Program(theory, [ax.equation for ax in theory.axioms] + [eq])
    for layout, assignment, tables, (goal,) in _admitted(program, bounds):
        found = goal.witness(tables)
        if found is not None:
            return Counterexample(layout.model(theory, assignment), eq, *found)
    return None
