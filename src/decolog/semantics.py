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
(exceptions) or the value column v // |S| (states).  Each equation side
and term is compiled once per theory (Theory._kept keeps it) into one
flat tuple of atoms (_compile), specialised once per carrier-size
assignment, which _run runs in one loop, so no depth of pairs recurses.
Every evaluation still checks its model's carriers and numbers its tables,
and every table a side computes is checked against the conservation law of
its rank (_Side.run); a side returns its last such table again while the
tables it reads are equal, and never keeps a table that failed.
The rule sweep in deduction.py enters through _denotation, a term's rank-2
table as a function of raw tables.  Tables leave through _Layout.decode,
only where a caller sees labels: eval_term's mapping, the models
enumerate_models yields, a Counterexample and the sweep's examples.

_Layout is the one model codec and the one way through the model space.
Only it maps labels to numbers (values, labels, raw_labels).  The searches
and the sweep take their carrier assignments from _layouts and their raw
tables from _Layout.raw_tables.  A given model is checked by of_model (its
carriers) and number (its tables), in validate_model and every evaluation.

The search is one staged walk, _candidates: depth first over the operation
tables (find_counterexample's goal's part first, else in declaration order),
each in the canonical order itertools.product would give, checking each
equation once the last table it reads is assigned.
find_counterexample walks one labelling per orbit: evaluation commutes with
relabelling carriers (no term names an element), so it skips a subtree
where a relabelling makes the tables so far smaller (lex-leader pruning;
Crawford et al., KR 1996), and keeps at size 1 a base type that nothing it
walks reads.  _check_ceiling bounds the raw interpretations and the cells
of the tables the walk visits (_Program.walked) in the layouts it visits.
"""
from __future__ import annotations

import itertools
import math
from functools import partial
from operator import add, itemgetter, sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .calculus import (
    Analysis,
    Bang,
    BaseType,
    DecoratedEquation,
    DecoratedTerm,
    EffectKind,
    Id,
    Op,
    OperationSymbol,
    Pair,
    Prod,
    Proj1,
    Record,
    Strength,
    TYPE_PARTS,
    Theory,
    TypeExpr,
    analysis,
    base_names,
    check_equation_wf,
    quoted,
    type_str,
    walk,
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


class OperationTable(Record):
    """Total function table in the shape of one effect/rank combination."""
    __slots__ = ()
    effect: EffectKind
    rank: int
    mapping: Mapping[Element, Element]

    def __post_init__(self):
        if not isinstance(self.effect, EffectKind):
            raise ModelMismatch(f"effect must be an EffectKind, got {quoted(self.effect)}")
        if self.rank not in (0, 1, 2):
            raise ModelMismatch(f"table rank must be 0, 1 or 2, got {quoted(self.rank)}")


class FiniteModel(Record):
    __slots__ = ()
    effect: EffectKind
    carriers: Mapping[str, tuple]
    effect_carrier: tuple
    tables: Mapping[str, OperationTable]

    def __post_init__(self):
        if not isinstance(self.effect, EffectKind):
            raise ModelMismatch(f"effect must be an EffectKind, got {quoted(self.effect)}")


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
    """Rank-2 table of specialised steps (_Program._steps), first applied first:
    a pair runs each component from no table, stacking the one before, then pairs."""
    t = stack = None
    for step in steps:
        kind = step.__class__
        if kind is int:
            step = tables[step]
        elif step is None:  # a mark: t waits on a stack of (table, rest) pairs
            stack, t = (t, stack), None
        elif kind is not tuple:
            step, (t, stack) = step(stack[0], t), stack[1]  # left's and right's; t the waiting one
        t = step if t is None else _composer(t)(step)
    return t


class _Layout:
    """The numbering of one carrier assignment, a plain value that keeps only
    its labels (raw_labels): type sizes, the builtins' constant tables, the
    lift of raw tables to rank 2, and the labels that decode numbers back."""

    def __init__(self, effect: EffectKind, carriers: Mapping[str, tuple], eff_elems: tuple):
        self.effect, self.exceptions = effect, effect is EffectKind.EXCEPTIONS
        self.carriers, self.eff_elems, self.k = carriers, eff_elems, len(eff_elems)
        self._raw_labels: dict = {}

    @classmethod
    def of_model(cls, theory: Theory, model: FiniteModel) -> _Layout:
        """The layout of a given model's carriers, or ModelMismatch when the
        model is for another effect, or a carrier is missing, empty or
        repeats a label."""
        if model.effect is not theory.effect:
            raise ModelMismatch(
                f"model is for effect {model.effect}, theory for {theory.effect}")
        for name in theory.base_types:
            carrier = model.carriers.get(name)
            if not carrier:
                raise ModelMismatch(f"missing or empty carrier for base type {quoted(name)}")
            if len(set(carrier)) != len(carrier):
                raise ModelMismatch(f"carrier for {quoted(name)} has duplicate labels")
        if not model.effect_carrier:
            raise ModelMismatch("effect carrier must be non-empty")
        if len(set(model.effect_carrier)) != len(model.effect_carrier):
            raise ModelMismatch("effect carrier has duplicate labels")
        return cls(theory.effect, model.carriers, model.effect_carrier)

    def size(self, ty: TypeExpr) -> int:
        """The number of ty's values; _carrier refuses a base type without one."""
        kind = ty.__class__
        if kind is not Prod:  # a base type or Unit, at once
            return len(self.carriers.get(ty.name) or self._carrier(ty)) if kind is BaseType else 1
        return walk(ty, lambda t, a=1, b=1: len(self._carrier(t)) if t.__class__ is BaseType
                    else a * b, parts=TYPE_PARTS)

    def _carrier(self, ty: BaseType) -> tuple:
        """ty's carrier, or UnknownBaseType."""
        carrier = self.carriers.get(ty.name)
        if carrier is None:
            raise UnknownBaseType(f"no carrier for base type {quoted(ty.name)}")
        return carrier

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

    def relabellings(self, ops: Sequence[OperationSymbol]) -> Iterator["_Layout"]:
        """This layout with its labels permuted, once per permutation other
        than the identity of the carriers that ops' tables read: the base
        types in their signatures, and the effect's if one has rank 1 or 2."""
        names = tuple(dict.fromkeys(n for sym in ops for ty in (sym.dom, sym.cod)
                                    for n in base_names(ty)))
        perms = itertools.product(*map(itertools.permutations, map(self.carriers.get, names)),
                                  itertools.permutations(self.eff_elems)
                                  if any(sym.decoration for sym in ops) else (self.eff_elems,))
        next(perms)
        for *carriers, eff_elems in perms:
            yield _Layout(self.effect, {**self.carriers, **dict(zip(names, carriers))}, eff_elems)

    def relabeller(self, image: "_Layout", sym: OperationSymbol) -> Optional[Callable]:
        """The map from a raw table of sym to its image under the permutation
        that gives image (one of relabellings); None when that is the identity."""
        e = tuple(map(self.eff_elems.index, image.eff_elems))

        def moved(ty: TypeExpr, lift: bool) -> tuple:  # p[x]: the number of x's image
            at = {y: i for i, y in enumerate(self.values(ty))}
            p = tuple(map(at.__getitem__, image.values(ty)))
            return (p if not lift else p + tuple(len(p) + s for s in e) if self.exceptions
                    else tuple(a * self.k + s for a in p for s in e))
        rank = sym.decoration
        ins = moved(sym.dom, rank == 2 or rank == 1 and not self.exceptions)
        outs = moved(sym.cod, rank == 2 or rank == 1 and self.exceptions)
        if ins == tuple(range(len(ins))) and outs == tuple(range(len(outs))):
            return None
        pick = _composer(tuple(sorted(range(len(ins)), key=ins.__getitem__)))
        return lambda raw: tuple(map(outs.__getitem__, pick(raw)))

    def lifter(self, rank: int, n: int, m: int) -> Optional[Callable[[Table], Table]]:
        """The map from a raw table of the given rank (n values in, m out,
        numbered like raw_labels) to its rank-2 table;
        None when the raw table already is one."""
        k = self.k
        if rank == 2:
            return None
        if self.exceptions:  # the exc block of the codomain follows the values
            tail = tuple(range(m, m + k))
            return lambda raw: raw + tail
        if k == 1:
            return None
        if rank == 1:
            column = tuple(range(k)) * n
            return lambda raw: tuple(map(add, map(k.__mul__, raw), column))
        blocks = tuple(tuple(range(b * k, b * k + k)) for b in range(m))
        return lambda raw: tuple(itertools.chain.from_iterable(map(blocks.__getitem__, raw)))

    def constant(self, builtin: DecoratedTerm) -> Table:
        """The rank-2 table of a builtin: an identity, a bang or a
        projection."""
        kind = builtin.__class__
        if kind is Id:
            n = self.size(builtin.ty)
            return tuple(range(n + self.k if self.exceptions else n * self.k))
        if kind is Bang:
            raw, m = (0,) * self.size(builtin.ty), 1
        else:
            nl, nr = self.size(builtin.left_ty), self.size(builtin.right_ty)
            raw, m = ((tuple(p // nr for p in range(nl * nr)), nl) if kind is Proj1
                      else (tuple(p % nr for p in range(nl * nr)), nr))
        lift = self.lifter(0, len(raw), m)
        return raw if lift is None else lift(raw)

    def pairer(self, n: int, ml: int, mr: int) -> Callable[[Table, Table], Table]:
        """The map from the rank-2 tables of two pair components (n values
        in, ml and mr out) to the rank-2 table of their pair."""
        # Components have rank <= 1, so they leave exceptions and the state
        # alone: only their values are paired.
        if self.exceptions:
            tail = tuple(range(ml * mr, ml * mr + self.k))
            return lambda lhs, rhs: tuple(map(add, map(mr.__mul__, lhs[:n]), rhs)) + tail
        column = tuple(range(self.k)) * n
        return lambda lhs, rhs: tuple(map(add, map(mr.__mul__, map(sub, lhs, column)), rhs))

    def conservation(self, rank: int, n: int, m: int) -> Optional[Callable[[Table], bool]]:
        """Test that a rank-2 table over n values in and m out leaves alone
        what a term of the given rank may not touch, the evaluator's check
        of itself (_Side.run); None when there is nothing to test (always
        at rank 2)."""
        k = self.k
        if rank == 2:
            return None
        if self.exceptions:
            tail = tuple(range(m, m + k))
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

    def values(self, ty: TypeExpr) -> tuple:
        """The elements of ty in numbering order: a base type's carrier,
        Unit's one element, a product's pairs with the left component
        varying slowest."""
        return self._carrier(ty) if ty.__class__ is BaseType else walk(
            ty, lambda t, a=None, b=None: self._carrier(t) if t.__class__ is BaseType
            else (UNIT,) if a is None else tuple(itertools.product(a, b)), parts=TYPE_PARTS)

    def labels(self, ty: TypeExpr) -> tuple:
        """Rank-2 elements over ty in numbering order: ok(a) for every value
        and then exc(e) for every exception, or (a, s) row-major."""
        values = self.values(ty)
        if self.exceptions:
            return tuple(map(ok, values)) + tuple(map(exc, self.eff_elems))
        return tuple(itertools.product(values, self.eff_elems))

    def raw_labels(self, rank: int, dom: TypeExpr, cod: TypeExpr) -> tuple[tuple, tuple]:
        """The inputs and the outputs of a raw table of the given rank from
        dom to cod, in numbering order (raw_shape counts them), or
        BoundsTooLarge, before listing, past DEFAULT_MAX_INTERPRETATIONS."""
        key = rank, dom, cod
        got = self._raw_labels.get(key)
        if got is None:
            cap = DEFAULT_MAX_INTERPRETATIONS
            if max(self.raw_shape(rank, self.size(dom), self.size(cod))) > cap:
                raise BoundsTooLarge(f"more than {cap} inputs or outputs in one table, "
                                     f"ceiling is {cap}")
            if rank == 0:
                got = self.values(dom), self.values(cod)
            elif self.exceptions:
                got = (self.values(dom) if rank == 1 else self.labels(dom)), self.labels(cod)
            else:
                got = self.labels(dom), (self.values(cod) if rank == 1 else self.labels(cod))
            self._raw_labels[key] = got
        return got

    def decode(self, rank: int, dom: TypeExpr, cod: TypeExpr, t: Table) -> dict:
        """A numbered table of the given rank from dom to cod (a raw table,
        or at rank 2 any rank-2 table) as a map from labels to labels."""
        ins, outs = self.raw_labels(rank, dom, cod)
        return dict(zip(ins, map(outs.__getitem__, t)))

    def number(self, sym: OperationSymbol, table: Optional[OperationTable]) -> Table:
        """A model's table for sym in numbered form, or ModelMismatch when
        it is missing, has the wrong shape, misses a row, has a row outside
        its domain or produces a value outside its codomain."""
        if table is None:
            raise ModelMismatch(f"no table for operation {quoted(sym.name)}")
        if table.rank != sym.decoration or table.effect is not self.effect:
            raise ModelMismatch(
                f"table for {quoted(sym.name)} has shape ({table.effect}, rank {table.rank}), "
                f"declared ({self.effect}, rank {sym.decoration})")
        ins, outs = self.raw_labels(sym.decoration, sym.dom, sym.cod)
        index = {y: i for i, y in enumerate(outs)}
        raw = []
        for x in ins:
            if x not in table.mapping:
                raise ModelMismatch(f"table for {quoted(sym.name)} has no row for {quoted(x)}")
            y = index.get(table.mapping[x])
            if y is None:
                raise ModelMismatch(f"table for {quoted(sym.name)} produces "
                                    f"{quoted(table.mapping[x])} outside its codomain")
            raw.append(y)
        if len(table.mapping) != len(raw):
            known = set(ins)
            for x in table.mapping:
                if x not in known:
                    raise ModelMismatch(f"table for {quoted(sym.name)} has a row for {quoted(x)} "
                                        "outside its domain")
        return tuple(raw)

    def model(self, theory: Theory, assignment: Sequence[Table]) -> FiniteModel:
        """The labelled model of one raw table per operation."""
        tables = {sym.name: OperationTable(self.effect, sym.decoration,
                                           self.decode(sym.decoration, sym.dom, sym.cod, raw))
                  for sym, raw in zip(theory.operations, assignment)}
        return FiniteModel(self.effect, self.carriers, self.eff_elems, tables)


class _Side:
    """One term specialised to one carrier-size assignment.  last keeps its
    last checked run: the tables it read (reads picks them) and the table
    computed from them, which run returns while the tables read are equal."""
    __slots__ = ("steps", "conserves", "rank", "dom", "cod", "reads", "last")

    def __init__(self, layout: _Layout, steps: tuple, found: Analysis):
        self.steps, self.dom, self.cod, self.rank = steps, found.dom, found.cod, found.rank
        self.conserves = layout.conservation(found.rank, *map(layout.size, (found.dom, found.cod)))
        read = sorted({step for step in steps if step.__class__ is int})
        self.reads, self.last = itemgetter(*read) if read else None, None

    def run(self, tables: Sequence[Table]) -> Table:
        key, last = () if self.reads is None else self.reads(tables), self.last
        if last is not None and key == last[0]:
            return last[1]
        t = _run(self.steps, tables)
        if self.conserves is not None and not self.conserves(t):
            raise FactoringInvariantError(
                f"the rank-2 table of a rank-{self.rank} term {type_str(self.dom)} -> "
                f"{type_str(self.cod)} breaks the conservation law of its rank")
        self.last = key, t
        return t


class _Check:
    """One equation specialised to one carrier-size assignment."""
    __slots__ = ("lhs", "rhs", "view")

    def __init__(self, lhs: _Side, rhs: _Side, view):
        self.lhs, self.rhs, self.view = lhs, rhs, view

    def holds(self, tables: Sequence[Table]) -> bool:
        lhs = self.lhs.run(tables)
        rhs = self.rhs.run(tables)
        view = self.view
        return lhs == rhs if view is None else view(lhs) == view(rhs)

    def witness(self, tables: Sequence[Table], layout: _Layout) -> Optional[tuple]:
        """None when the equation holds, else the first input where its
        sides disagree with both outputs, decoded by layout's labels."""
        lhs = self.lhs.run(tables)
        rhs = self.rhs.run(tables)
        view = self.view
        x = (violation_witness(lhs, rhs) if view is None
             else violation_witness(view(lhs), view(rhs)))
        if x is None:
            return None
        ins, outs = layout.raw_labels(2, self.lhs.dom, self.lhs.cod)
        return ins[x], outs[lhs[x]], outs[rhs[x]]


def violation_witness(lhs: Sequence[int], rhs: Sequence[int]) -> Optional[int]:
    """Position of the first entry where two numbered tables (or the parts
    a weak equation compares) differ; None when they agree."""
    if lhs == rhs:
        return None
    return next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


class _Program:
    """Equations of one theory compiled once: well-formedness, and the
    analysis and flat tuple (_compile) of every side.  at() specialises them
    to carrier sizes.  A program keeps what it reads of its theory (lifters:
    the theory's lifter list per carrier sizes), not the theory, so the
    compiled state that keeps it refers back to nothing."""
    __slots__ = ("effect", "base_types", "ops", "axioms", "lifters",
                 "_equations", "last", "used", "walked", "least", "passed")

    def __init__(self, theory: Theory, equations: Iterable[DecoratedEquation]):
        self.effect, self.base_types, ops = theory.effect, theory.base_types, theory.operations
        self.ops, self.axioms = ops, len(theory.axioms)
        self.lifters = theory._kept(_Layout)
        self._equations = entries = [theory._kept(DecoratedEquation, eq, partial(
            _equation, theory, eq)) for eq in equations]
        self.used = tuple(i for i in range(len(ops)) if any(i in entry[3] for entry in entries))
        #: the operations a search walks, in order: with a goal after the axioms the used ones,
        #: the goal's part first (_candidates), each in declaration order; else all in that order
        self.walked = tuple(range(len(ops)))
        if len(entries) > self.axioms:
            part = set().union(*(entry[3] for entry in entries[self.axioms:]))
            for _ in entries:
                part.update(*(entry[3] for entry in entries if part.intersection(entry[3])))
            self.walked = (*sorted(part), *(i for i in self.used if i not in part))
        #: per equation, the last operation it reads in walk order (-1: none)
        at = {i: depth for depth, i in enumerate(self.walked)}
        self.last = tuple(max(entry[3], key=at.__getitem__, default=-1) for entry in entries)
        #: the base types that no walked table and no equation's domain reads, so no side does
        self.least = tuple(sorted(frozenset(self.base_types).difference(*map(base_names, [
            Prod(ops[i].dom, ops[i].cod) for i in self.walked] + [e[1][0].dom for e in entries]))))
        self.passed = ()  # the (bounds, ceiling, least) that passed _check_ceiling

    def _steps(self, layout: _Layout, flat: tuple) -> tuple:
        """A _compile tuple specialised to layout: an operation's index and a
        mark stay, a builtin is its table and a pair's parts its pairer."""
        sizes, steps = {}, []  # sizes: a pair's cod size by id(parts)
        for atom in flat:
            if atom.__class__ is tuple:  # a part that is a pair has its parts earlier in flat
                ml, mr = (sizes.get(id(part.parts)) or layout.size(part.cod) for part in atom)
                sizes[id(atom)] = ml * mr
            steps.append(atom if atom is None or atom.__class__ is int
                         else layout.pairer(layout.size(atom[0].dom), ml, mr)
                         if atom.__class__ is tuple else layout.constant(atom))
        return tuple(steps)

    def at(self, layout: _Layout) -> tuple[list[_Check], list[Optional[Callable]]]:
        """The equations and the lifters specialised to layout's carrier sizes,
        by which the theory's compiled state keeps each check and lifter list."""
        sizes = (*map(len, map(layout.carriers.get, self.base_types)), layout.k)
        side = lambda found, flat: _Side(layout, self._steps(layout, flat), found)
        checks = [kept.get(sizes) or kept.setdefault(sizes, _Check(side(*lhs), side(*rhs), (
                      layout.weak_view(layout.size(lhs[0].dom), layout.size(lhs[0].cod))
                      if strength is Strength.WEAK else None)))
                  for strength, lhs, rhs, _, kept in self._equations]
        lifters = self.lifters.get(sizes) or self.lifters.setdefault(sizes, [
            layout.lifter(*layout.shape(sym)) for sym in self.ops])
        return checks, lifters

    def numbered(self, theory: Theory, model: FiniteModel) -> tuple[_Layout, list, list]:
        """Check a given model's carriers, specialise to them and number,
        from its labelled tables, the tables the program uses (else None)."""
        layout = _Layout.of_model(theory, model)
        checks, lifters = self.at(layout)
        raws = [layout.number(sym, model.tables.get(sym.name)) if i in self.used else None
                for i, sym in enumerate(self.ops)]
        return layout, checks, _lift(lifters, raws)


def _compile(theory: Theory, found: Analysis, names: set) -> tuple[Analysis, tuple]:
    """found, and its atoms in one flat tuple, first applied first: an
    operation's index, Id of its domain for an identity, and for a pair a
    mark (None), its left component, a mark, its right one and its parts; fills names."""
    flat, todo = [], [found]
    while todo:
        item = todo.pop()
        if item.__class__ is Pair:  # inside a composition; its analysis holds its parts
            item = analysis(theory, item)
        if item.__class__ is Op:
            flat.append(theory.operations.index(theory.op(item.name)))
            names.add(item.name)
        elif item.__class__ is not Analysis:
            flat.append(item)
        elif item.parts:
            todo += (item.parts, item.parts[1], None, item.parts[0], None)
        else:  # its atoms, outermost first, so popped last
            todo += item.atoms or (Id(item.dom),)
    return found, tuple(flat)


def _equation(theory: Theory, eq: DecoratedEquation) -> tuple:
    """eq compiled: its strength, its sides' _compile, the operations they read
    and, empty, its checks by carrier sizes (_Program.at)."""
    check_equation_wf(theory, eq)
    reads: set[str] = set()
    sides = [_compile(theory, analysis(theory, s), reads) for s in (eq.lhs, eq.rhs)]
    return (eq.strength, *sides, tuple(
        i for i, sym in enumerate(theory.operations) if sym.name in reads), {})


def _program(theory: Theory, equations: tuple = (), axioms: bool = False) -> _Program:
    """The program of the theory's axioms (if axioms) and equations, kept in
    the theory's compiled state."""
    return theory._kept(_Program, (axioms, equations), lambda: _Program(
        theory, [ax.equation for ax in theory.axioms if axioms] + list(equations)))


def _lift(lifters: Sequence[Optional[Callable]], raws: Iterable[Optional[Table]]) -> list:
    """Raw tables lifted to rank 2, each by its lifter (None: as it is)."""
    return [raw if f is None or raw is None else f(raw) for raw, f in zip(raws, lifters)]


def _denotation(layout: _Layout, term: DecoratedTerm,
                *ops: OperationSymbol) -> Callable[..., Table]:
    """The map from one raw table per op to the rank-2 table of term at
    layout, as the evaluator computes it over a theory of ops."""
    theory = Theory(layout.effect, tuple(layout.carriers), ops)
    eq = DecoratedEquation(Strength.STRONG, term, term)  # term is its check's left side
    (check,), lifters = _Program(theory, [eq]).at(layout)
    return lambda *raws: check.lhs.run(_lift(lifters, raws))


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
    eq = DecoratedEquation(Strength.STRONG, term, term)  # term is its check's left side
    layout, (check,), tables = _program(theory, (eq,)).numbered(theory, model)
    side = check.lhs
    return OperationTable(theory.effect, 2, layout.decode(2, side.dom, side.cod, side.run(tables)))


def holds(model: FiniteModel, theory: Theory, eq: DecoratedEquation) -> bool:
    _, (check,), tables = _program(theory, (eq,)).numbered(theory, model)
    return check.holds(tables)


def first_violation(model: FiniteModel, theory: Theory,
                    eq: DecoratedEquation) -> Optional[tuple[Element, Element, Element]]:
    """None when the equation holds in the model, else the first input in
    canonical order where its sides disagree, with both outputs."""
    layout, (check,), tables = _program(theory, (eq,)).numbered(theory, model)
    return check.witness(tables, layout)


# ---------------------------------------------------------------------------
# Model enumeration and counterexample search
# ---------------------------------------------------------------------------

DEFAULT_MAX_INTERPRETATIONS = 10 ** 7

#: Most relabellings of one layout that a search prunes by.  Any of them
#: prune exactly, and past a few thousand their maps cost more to build
#: than the walk they save.
MAX_TWINS = 5040


class Bounds(Record):
    """Carrier size limits: base for every base type, effect for the effect
    carrier.  Sizes start at 1; empty carriers are not searched."""
    __slots__ = ()
    base: int = 2
    effect: int = 2

    def __post_init__(self):
        try:
            small = min(self.base, self.effect) < 1
        except TypeError:  # not numbers, so refused below as not ints
            small = False
        if small or not all(isinstance(n, int) for n in (self.base, self.effect)):
            raise SemanticsError(
                f"carrier bounds must be {'at least 1' if small else 'integers'}, got base "
                f"{quoted(self.base)}, effect {quoted(self.effect)}")


def _layouts(effect: EffectKind, base_types: Sequence[str], bounds: Bounds,
             least: Collection[str] = ()) -> Iterator[_Layout]:
    """One layout per carrier-size assignment: base types in the given order,
    the first varying slowest, with the effect carrier last, and carriers
    numbered 0, 1, ...; a type in least keeps size 1.  Sizes are counted out
    one at a time, as a bound may be too large for its range to be listed."""
    carriers = dict.fromkeys(base_types, (0,))
    while True:
        for eff_size in range(1, bounds.effect + 1):
            yield _Layout(effect, carriers, tuple(range(eff_size)))
        carriers = dict(carriers)  # the last carrier below its bound grows, later ones restart
        for name in reversed(base_types):
            n = len(carriers[name])
            if n < (1 if name in least else bounds.base):
                carriers[name] = tuple(range(n + 1))
                break
            carriers[name] = (0,)
        else:
            return


def _shapes(layout: _Layout, ops: Sequence[OperationSymbol]) -> list[tuple[int, int]]:
    """The input and output counts of ops' raw tables at layout."""
    return [layout.raw_shape(*layout.shape(sym)) for sym in ops]


def count_interpretations(theory: Theory, bounds: Bounds) -> int:
    """Raw interpretation count within bounds, before any axiom filtering."""
    return sum(math.prod(n_out ** n_in for n_in, n_out in _shapes(layout, theory.operations))
               for layout in _layouts(theory.effect, theory.base_types, bounds))


def _check_ceiling(program: _Program, bounds: Bounds, cap: int, least: Collection = ()) -> None:
    """BoundsTooLarge when the tables of program.walked (the others keep
    their first) have more raw interpretations than the ceiling cap in the
    layouts searched (least at size 1), or else when one of those layouts'
    tables hold more cells (input rows) than it.  The count starts at the
    number of layouts, each holding one at least, and stops once it passes;
    a table of n_in rows and n_out outputs passes alone, uncounted, if
    2 ** (n_in * (n_out.bit_length() - 1)) does.  The program keeps each pass."""
    if not isinstance(cap, int):
        raise SemanticsError(f"the interpretation ceiling must be an integer, got {quoted(cap)}")
    if (bounds, cap, least) in program.passed:
        return
    total, cells = bounds.base ** (len(program.base_types) - len(least)) * bounds.effect, 0
    for layout in _layouts(program.effect, program.base_types, bounds, least):
        shapes = _shapes(layout, program.ops)
        walked = [shapes[i] for i in program.walked]
        total += math.prod(n_out ** n_in if n_in * (n_out.bit_length() - 1) < cap.bit_length()
                           else max(cap, 0) + 1 for n_in, n_out in walked) - 1
        if total > cap:
            raise BoundsTooLarge(f"more than {quoted(cap)} interpretations within bounds, "
                                 f"ceiling is {quoted(cap)}")
        cells = max(cells, sum(n_in for n_in, _ in shapes))
    if cells > cap:
        raise BoundsTooLarge(f"more than {quoted(cap)} table cells in one carrier assignment "
                             f"within bounds, ceiling is {quoted(cap)}")
    program.passed += (bounds, cap, least),


def _candidates(program: _Program, layout: _Layout, checks: list[_Check],
                lifters: list[Optional[Callable]],
                twins: Iterable[_Layout] = ()) -> Iterator[tuple[tuple, list[Table]]]:
    """The staged walk over one layout: depth first over program.walked in
    its order, each level trying its raw tables in raw_tables' order.  A
    level lifts its table and runs the checks of the equations whose last
    operation in walk order it is (one that reads none runs before the
    walk); a failed check skips the subtree below.  An axiom fails when it
    does not hold, an equation after them (a goal) when it holds.  Every
    operation not walked keeps its first raw table, the least completion.
    Yields each complete assignment that passes: one raw table per
    operation, and the rank-2 tables by index.

    Given twins, relabellings of layout, a level whose checks pass also
    skips its subtree when a twin that fixes the tables above makes its own
    smaller: each completion has a smaller twin the checks treat alike.  The
    twins are listed when first tested, a twin's map of a level when first
    needed, only the first MAX_TWINS twins are tried, and no level tries
    them when every level below it has one table only.

    Walking a goal's part first moves no first yield: no equation reads two
    parts, so the assignments that pass are the product of each part's own,
    whose least is each part's least in any order of the parts that keeps
    each part's own order, and lex-leader pruning never skips a least one."""
    ops, n_axioms = program.ops, program.axioms
    stages: dict[int, list] = {}
    for n, (check, last) in enumerate(zip(checks, program.last)):
        stages.setdefault(last, []).append((check.holds, n < n_axioms))
    tables: list = [None] * len(ops)
    if any(holds(tables) != want for holds, want in stages.get(-1, ())):
        return
    shapes = [layout.shape(sym) for sym in ops]
    levels = [(depth, i, shapes[i], lifters[i], stages.get(i, ()))
              for depth, i in enumerate(program.walked)]
    assignment = [next(layout.raw_tables(*shape)) for shape in shapes]
    tried = max((level[0] for level in levels if layout.raw_shape(*level[2])[1] > 1), default=0)

    if not levels:
        yield tuple(assignment), list(tables)
        return
    # per level walked into: raw tables left, the twins fixing those above (None: unlisted), itself
    stack = [[layout.raw_tables(*levels[0][2]), None, levels[0]]]
    while stack:
        raws, fixing, (depth, i, _, lift, stage) = stack[-1]
        for raw in raws:
            assignment[i] = raw
            tables[i] = raw if lift is None else lift(raw)
            for holds, want in stage:
                if holds(tables) != want:
                    break
            else:
                below = []
                if fixing is None and depth < tried:
                    fixing = stack[0][1] = [(image, [False] * len(levels))
                                            for image in itertools.islice(twins, MAX_TWINS)]
                for image, maps in fixing if depth < tried else ():
                    relabel = maps[depth]
                    if relabel is False:
                        relabel = maps[depth] = layout.relabeller(image, ops[i])
                    twin = raw if relabel is None else relabel(raw)
                    if twin < raw:
                        break
                    if twin == raw:
                        below.append((image, maps))
                else:
                    if depth + 1 < len(levels):
                        level = levels[depth + 1]
                        stack.append((layout.raw_tables(*level[2]), below, level))
                        break
                    yield tuple(assignment), list(tables)
        else:
            stack.pop()


def _admitted(program: _Program, bounds: Bounds, least: Collection[str] = (),
              orbits: bool = False) -> Iterator[tuple[_Layout, tuple, list[Table], list[_Check]]]:
    """The one loop over admitted candidates: in canonical order, every
    candidate within bounds that _candidates lets through (it satisfies the
    theory's axioms, and violates the goal when the program lists one after
    them), with its layout, its raw tables, the rank-2 tables of the
    operations the program uses, and the layout's checks of its equations.
    Types in least keep size 1; orbits prunes by relabellings (_candidates)."""
    walked = [program.ops[i] for i in program.walked]
    for layout in _layouts(program.effect, program.base_types, bounds, least):
        checks, lifters = program.at(layout)
        twins = layout.relabellings(walked) if orbits else ()
        for assignment, tables in _candidates(program, layout, checks, lifters, twins):
            yield layout, assignment, tables, checks


def enumerate_models(theory: Theory, bounds: Bounds = Bounds(), *,
                     max_interpretations: int = DEFAULT_MAX_INTERPRETATIONS
                     ) -> Iterator[FiniteModel]:
    """All axiom-satisfying models within bounds, in a stable canonical
    order; BoundsTooLarge, before any, past the ceiling (_check_ceiling)."""
    program = _program(theory, axioms=True)
    _check_ceiling(program, bounds, max_interpretations)
    admitted = _admitted(program, bounds)
    return (layout.model(theory, assignment) for layout, assignment, _, _ in admitted)


class Counterexample(Record):
    __slots__ = ()
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
    violates the equation, with the first input where the sides disagree;
    None when the bounded search is exhausted."""
    program = _program(theory, (eq,), axioms=True)
    _check_ceiling(program, bounds, max_interpretations, program.least)
    for layout, assignment, tables, checks in _admitted(program, bounds, program.least, True):
        return Counterexample(layout.model(theory, assignment), eq,
                              *checks[-1].witness(tables, layout))
    return None
