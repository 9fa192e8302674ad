"""Plain-text file formats for theories, models, and derivations.

Theory files (.dth) are line stanzas:

    effect states
    type Int
    op deposit : Int -> Unit modifier
    def f = balance . deposit . seven
    axiom weak balance . deposit ~ plus . <id(Int), balance . bang(Int)>

The effect line comes first.  Operation keywords (pure, propagator,
observer, catcher, modifier) must belong to the declared effect.  Terms use
`.` or the ring operator for composition, `<f, g>` for pairs, `id(T)`,
`p1(A, B)`, `p2(A, B)`, `bang(T)` for the builtins, and `A * B` for product
types.  Definitions are expanded where they are used, so a def name is an
abbreviation, not a new symbol.  Axioms are named ax1, ax2, ... in file
order; an explicit `axiom myname : strong lhs == rhs` form overrides the
positional name.  The strength keyword and the operator must agree: strong
with `==`, weak with `~`.

Model files (.model) declare carriers and one table per operation:

    effectcarrier = {0, 1, 2, 3}
    carrier Int = {0, 1, 2, 3}
    table deposit
      (0, 0) -> (*, 0)
      ...

Elements are integers, `*` for the Unit element, `(a, b)` tuples for
products and for the value/state pairings of states tables, and `ok(v)` /
`exc(e)` for the tagged values of exceptions tables.  Each table's rows
must fit the operation's declared rank.

Derivation files (.drv) are nested rule applications in parenthesized
prefix notation:

    (trans_weak
      (weak_repl (axiom ax2) h=catchZero)
      (weak_subst (axiom ax1) g=zero))

Parameters are `key=value`: `name=` takes an axiom name, `side=` an
integer, every other key a term.  `(refl f)` and the spelled-out
`(refl f == f)` are both accepted.

All three formats, and equations and terms, share one scanner: integers
are decimal digits (at most MAX_INT_DIGITS), identifiers a letter or `_`
then letters, digits and `_`, and `#` starts a comment.  The parsers raise
ParseError with a line and column on bad syntax, a bad character first;
semantic problems (unknown symbols, ill-typed axioms, keyword/effect
mismatches) surface as the calculus and semantics error types instead.
Printing then reparsing reproduces the parsed objects exactly.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import NamedTuple

from .calculus import (
    Axiom,
    Bang,
    BaseType,
    CalculusError,
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
    RESERVED_NAMES,
    Strength,
    TERM_PARTS,
    Theory,
    TheoryError,
    TypeExpr,
    UndeclaredSymbol,
    Unit,
    compose,
    keyword_matches_effect,
    quoted,
    rank_name,
    rank_of_keyword,
    term_str,
    type_str,
    walk,
)
from .deduction import Derivation, _eq_str, fold
from .semantics import (
    EXC,
    FiniteModel,
    ModelMismatch,
    OK,
    OperationTable,
    SemanticsError,
    UNIT,
    Element,
)


class ParseError(ValueError):
    """Bad syntax, located by line and column."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


def corpus_path(name: str) -> Path:
    """Path of one of the shipped example files (bank.dth, bank_mod4.model,
    bank_proof.drv, throwcatch.dth, throwcatch_mod2.model,
    throwcatch_proof.drv)."""
    return Path(__file__).parent / "corpus" / name


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

#: Most digits an integer may have: int() refuses longer decimal strings,
#: by default 4,300 digits and fewer when PYTHONINTMAXSTRDIGITS sets a lower
#: limit (0 is none; before Python 3.10.7 int() had no limit).
MAX_INT_DIGITS = min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)

#: The one scanner of every format.  Each match skips blanks and a comment,
#: then captures a token: "->" or "==", an ASCII one-character symbol or a
#: newline (none starts a longer token), an integer, an identifier, any
#: other character (∘, ≈ or an error), or "" at the end.
_SCAN = re.compile(r"[ \t\r]*(?:#[^\n]*)?"
                   r"(->|==|[()=.<>,\n:~*{}]|-?\d+|[^\W\d]\w*|[^ \t\r]|\Z)")
_SYMS = frozenset(("->", "==", *":=~.*<>,(){}∘≈"))


class Token(NamedTuple):
    kind: str  # IDENT, INT, SYM, NL, EOF
    value: str
    line: int
    col: int


def _kind(tok: str) -> str:
    """A token's kind, read from its text.  A character that starts no
    token reads as SYM, which no parser accepts unless it is in _SYMS."""
    first = tok[:1]
    if first.isdecimal() or first == "-" and len(tok) > 1 and tok != "->":
        return "INT"
    if first.isalpha() or first == "_":
        return "IDENT"
    return "NL" if tok == "\n" else "SYM" if tok else "EOF"


def tokenize(text: str) -> list[Token]:
    """The tokens of text with their lines and columns, ending in EOF.  A
    character no token starts with, and an integer of more than
    MAX_INT_DIGITS digits, are ParseErrors.  A newline or the end of input
    right after a comment has the comment's column."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _SCAN.finditer(text):
        value, at = match.group(1), match.start(1)
        comment = text.find("#", match.start(), at)
        col = (at if comment < 0 else comment) - line_start + 1
        kind = _kind(value)
        if kind == "SYM" and value not in _SYMS:
            raise ParseError(f"unexpected character {quoted(value[0])}", line, col)
        if kind == "INT" and len(value.lstrip("-")) > MAX_INT_DIGITS:
            raise ParseError(f"integer longer than {MAX_INT_DIGITS} digits", line, col)
        tokens.append(Token(kind, value, line, col))
        if kind == "EOF":
            return tokens
        if kind == "NL":
            line, line_start = line + 1, at + 1
    raise AssertionError("the scanner always ends with an EOF match")


class _Stream:
    """A text's tokens as the plain strings of one _SCAN.findall, ending in
    "" twice so that one look past the end is safe.  Only an error works
    out positions, by tokenize, so a lexical error anywhere comes first."""

    def __init__(self, text: str, newlines: bool):
        self.text = text
        self.newlines = newlines
        tokens = _SCAN.findall(text)
        self.tokens = tokens if newlines else [t for t in tokens if t != "\n"]
        self.tokens.append("")
        self.pos = 0
        while self.tokens[self.pos] == "\n":
            self.pos += 1

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]

    def position(self, at: int) -> tuple[int, int]:
        """Line and column of token number at."""
        tokens = tokenize(self.text)
        if not self.newlines:
            tokens = [t for t in tokens if t.kind != "NL"]
        return tokens[at].line, tokens[at].col

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token number at, by default the next one."""
        return ParseError(message, *self.position(self.pos if at is None else at))

    def expect(self, want: str) -> str:
        """The next token, which must be the symbol want or of kind want."""
        tok = self.tokens[self.pos]
        found = tok == want if want in _SYMS else _kind(tok) == want
        if not found:
            raise self.fail(f"expected {quoted(want)}, got {quoted(tok or 'end of input')}")
        self.pos += 1
        return tok

    def take_sym(self, *values: str) -> bool:
        if self.tokens[self.pos] in values:
            self.pos += 1
            return True
        return False

    def end_line(self) -> None:
        tok = self.tokens[self.pos]
        if tok and tok != "\n":
            raise self.fail(f"unexpected {quoted(tok)} at end of stanza")
        while self.tokens[self.pos] == "\n":
            self.pos += 1

    def integer(self) -> int:
        """The next token as a number; tokenize reports one too long."""
        tok = self.expect("INT")
        if len(tok) > MAX_INT_DIGITS:
            tokenize(self.text)
        return int(tok)


def _parsed(text: str, what: str, parse, *args):
    """parse(stream, *args) over all of text, one `what`; a newline is a
    blank but in theories and models.  A lexical error anywhere in text
    comes before a semantic error, as before every ParseError."""
    s = _Stream(text, newlines=what in ("theory", "model"))
    try:
        found = parse(s, *args)
    except (CalculusError, SemanticsError):
        tokenize(text)
        raise
    if s.peek():
        raise s.fail(f"unexpected {quoted(s.peek())} after {what}")
    return found


# ---------------------------------------------------------------------------
# Types and terms
# ---------------------------------------------------------------------------

#: Deepest term, type, model element or derivation the parsers accept.  A
#: composition counts its factors' depths added up, a pair or a product one
#: more than its deeper component, and every bracket one level on its own
#: (an element's `ok(` and `exc(` too); a derivation counts one level per rule
#: on its longest path to a leaf, its terms having their own budget.  The
#: parser recurses, as the prover does per level of pairs; calculus.walk,
#: deduction.fold and element_str use a stack, and == on terms is identity.
MAX_DEPTH = 200


def _too_deep(s: _Stream, what: str) -> ParseError:
    return s.fail(f"{what} nested deeper than {MAX_DEPTH} levels")


def _parse_type_atom(s: _Stream, level: int) -> tuple[TypeExpr, int]:
    if s.take_sym("("):
        if level >= MAX_DEPTH:
            raise _too_deep(s, "type")
        found = _parse_type_depth(s, level + 1)
        s.expect(")")
        return found
    name = s.expect("IDENT")
    return (Unit if name == "Unit" else BaseType(name)), 1


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
    return 1 if term.__class__ not in TERM_PARTS else walk(
        term, lambda t, a=0, b=0: a + b if t.__class__ is Comp else 1 + max(a, b))


def _parse_primary(s: _Stream, names: dict[str, DecoratedTerm], level: int) -> DecoratedTerm:
    """A factor other than a declared name, which _parse_term reads itself."""
    if s.peek() in ("(", "<") and level >= MAX_DEPTH:
        raise _too_deep(s, "term")
    if s.take_sym("("):
        term = _parse_term(s, names, level + 1)
        s.expect(")")
        return term
    if s.take_sym("<"):
        left = _parse_term(s, names, level + 1)
        s.expect(",")
        right = _parse_term(s, names, level + 1)
        s.expect(">")
        if 1 + max(_depth(left), _depth(right)) > MAX_DEPTH:
            raise _too_deep(s, "term")
        return Pair(left, right)
    name = s.expect("IDENT")
    if name in ("id", "bang"):
        s.expect("(")
        ty = _parse_type(s, level)
        s.expect(")")
        return (Id if name == "id" else Bang)(ty)
    if name in ("p1", "p2"):
        s.expect("(")
        left = _parse_type(s, level)
        s.expect(",")
        right = _parse_type(s, level)
        s.expect(")")
        return (Proj1 if name == "p1" else Proj2)(left, right)
    return Op(name)


def _parse_term(s: _Stream, names: dict[str, DecoratedTerm], level: int = 0) -> DecoratedTerm:
    """A term, normalized: a term read before is a lookup in normalize's table.
    Its depth is its factors' added up, checked from the second factor on."""
    tokens, factors, depth = s.tokens, [], 0
    while True:
        if (found := names.get(tok := tokens[s.pos])) is not None and tok not in RESERVED_NAMES:
            s.pos += 1  # a declared name, which is an identifier, so no bracket
        else:
            found = _parse_primary(s, names, level)
        factors.append(found)
        if (depth := depth + _depth(found)) > MAX_DEPTH and len(factors) > 1:
            raise _too_deep(s, "term")
        if tokens[s.pos] not in (".", "∘"):
            return compose(*factors)
        s.pos += 1


def _parse_equation(s: _Stream, names: dict[str, DecoratedTerm]) -> DecoratedEquation:
    word = s.expect("IDENT")
    if word not in ("strong", "weak"):
        raise s.fail(f"expected 'strong' or 'weak', got {quoted(word)}", s.pos - 1)
    strength = Strength.STRONG if word == "strong" else Strength.WEAK
    lhs = _parse_term(s, names)
    op = s.expect("SYM")
    if op not in ("==", "~", "≈"):
        raise s.fail(f"expected '==' or '~', got {quoted(op)}", s.pos - 1)
    if (op == "==") != (strength is Strength.STRONG):
        raise s.fail(f"operator {quoted(op)} does not match {quoted(word)}", s.pos - 1)
    rhs = _parse_term(s, names)
    return DecoratedEquation(strength, lhs, rhs)


def parse_equation(text: str, theory: Theory) -> DecoratedEquation:
    """`strong <term> == <term>` or `weak <term> ~ <term>`, with def names
    expanded from the theory."""
    return _parsed(text, "equation", _parse_equation, _names(theory))


def parse_term(text: str, theory: Theory) -> DecoratedTerm:
    """A single term, with def names expanded from the theory."""
    return _parsed(text, "term", _parse_term, _names(theory))


def _names(theory: Theory) -> dict[str, DecoratedTerm]:
    """Each operation's Op and each definition's term by its name, kept in the compiled
    state: only names an identifier token can be, and no operation named by a str subclass."""
    def table() -> dict[str, DecoratedTerm]:
        ops = [(sym.name, Op(sym.name)) for sym in theory.operations if sym.name.__class__ is str]
        return {name: term for name, term in ops + list(theory.definitions)
                if isinstance(name, str) and _kind(name) == "IDENT"}
    return theory._kept(Op, build=table)


# ---------------------------------------------------------------------------
# Theory files
# ---------------------------------------------------------------------------

def parse_theory(text: str) -> Theory:
    return _parsed(text, "theory", _parse_theory)


def _parse_theory(s: _Stream) -> Theory:
    effect: EffectKind | None = None
    base_types: list[str] = []
    operations: list[OperationSymbol] = []
    axioms: list[Axiom] = []
    definitions: list[tuple[str, DecoratedTerm]] = []
    defs: dict[str, DecoratedTerm] = {}

    while s.peek():
        at = s.pos
        kw = s.expect("IDENT")
        if kw == "effect":
            name = s.expect("IDENT")
            try:
                declared = EffectKind(name)
            except ValueError:
                raise s.fail(f"unknown effect {quoted(name)}", at + 1) from None
            if effect is not None:
                raise s.fail("duplicate effect stanza", at)
            effect = declared
        elif kw == "type":
            base_types.append(s.expect("IDENT"))
        elif kw == "op":
            if effect is None:
                raise s.fail("effect must be declared before operations", at)
            name = s.expect("IDENT")
            s.expect(":")
            dom = _parse_type(s)
            s.expect("->")
            cod = _parse_type(s)
            word = s.expect("IDENT")
            rank = rank_of_keyword(word)
            if rank is None:
                raise s.fail(f"unknown decoration keyword {quoted(word)}", s.pos - 1)
            if not keyword_matches_effect(effect, word):
                line, _ = s.position(s.pos - 1)
                raise TheoryError(
                    f"line {line}: keyword {quoted(word)} does not belong "
                    f"to effect {effect}")
            operations.append(OperationSymbol(name, dom, cod, rank))
        elif kw == "def":
            name = s.expect("IDENT")
            s.expect("=")
            term = _parse_term(s, defs)
            defs[name] = term
            definitions.append((name, term))
        elif kw == "axiom":
            if _kind(s.peek()) == "IDENT" and s.peek(1) == ":":
                name = s.expect("IDENT")
                s.expect(":")
            else:
                name = f"ax{len(axioms) + 1}"
            axioms.append(Axiom(name, _parse_equation(s, defs)))
        else:
            raise s.fail(f"unknown stanza keyword {quoted(kw)}", at)
        s.end_line()
    if effect is None:
        raise s.fail("missing effect declaration")
    return Theory(effect=effect, base_types=tuple(base_types),
                  operations=tuple(operations), axioms=tuple(axioms),
                  definitions=tuple(definitions))


def print_theory(theory: Theory) -> str:
    lines = [f"effect {theory.effect}"]
    for name in theory.base_types:
        lines.append(f"type {name}")
    for sym in theory.operations:
        lines.append(f"op {sym.name} : {type_str(sym.dom)} -> "
                     f"{type_str(sym.cod)} {rank_name(theory.effect, sym.decoration)}")
    for name, term in theory.definitions:
        lines.append(f"def {name} = {term_str(term)}")
    for i, ax in enumerate(theory.axioms):
        name = "" if ax.name == f"ax{i + 1}" else f"{ax.name} : "
        lines.append(f"axiom {name}{print_equation(ax.equation)}")
    return "\n".join(lines) + "\n"


def print_equation(eq: DecoratedEquation) -> str:
    return f"{eq.strength.value} {_eq_str(eq)}"


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _parse_element(s: _Stream, level: int = 0) -> Element:
    """One element; each bracket, the tag's included, is one level of
    MAX_DEPTH."""
    tok = s.peek()
    if tok.isdecimal():
        return s.integer()
    if tok == "(" or tok in (OK, EXC):
        if level >= MAX_DEPTH:
            raise _too_deep(s, "element")
        s.pos += 1
        if tok != "(":
            s.expect("(")
            inner = _parse_element(s, level + 1)
            s.expect(")")
            return (tok, inner)
        items = [_parse_element(s, level + 1)]
        while s.take_sym(","):
            items.append(_parse_element(s, level + 1))
        s.expect(")")
        return items[0] if len(items) == 1 else tuple(items)
    if s.take_sym("*"):
        return UNIT
    if _kind(tok) != "INT":
        raise s.fail(f"expected an element, got {quoted(tok)}")
    return s.integer()


def element_str(e: Element) -> str:
    """e in model-file syntax, with a stack of (element, the text after it)."""
    out, todo = [], [(e, "")]
    while todo:
        e, after = todo.pop()
        if e != UNIT and isinstance(e, tuple) and e:
            tagged = len(e) == 2 and e[0] in (OK, EXC)
            out.append(f"{e[0]}(" if tagged else "(")
            todo += [(e[-1], ")" + after)] + [(x, ", ") for x in reversed(e[tagged:-1])]
        else:
            out.append(("*" if e == UNIT else str(e)) + after)
    return "".join(out)


def _parse_int_set(s: _Stream) -> tuple[int, ...]:
    """`= {a, b, ...}` to the end of the stanza."""
    s.expect("=")
    s.expect("{")
    items = []
    if s.peek() != "}":
        items.append(s.integer())
        while s.take_sym(","):
            items.append(s.integer())
    s.expect("}")
    s.end_line()
    return tuple(items)


def parse_model(text: str, theory: Theory) -> FiniteModel:
    """A finite model of the theory.  Table ranks come from the theory's
    declarations; shape and totality problems are left to validate_model."""
    return _parsed(text, "model", _parse_model, theory)


def _parse_model(s: _Stream, theory: Theory) -> FiniteModel:
    carriers: dict[str, tuple] = {}
    effect_carrier: tuple | None = None
    tables: dict[str, OperationTable] = {}

    while s.peek():
        at = s.pos
        kw = s.expect("IDENT")
        if kw == "effectcarrier":
            if effect_carrier is not None:
                raise s.fail("duplicate effectcarrier stanza", at)
            effect_carrier = _parse_int_set(s)
        elif kw == "carrier":
            name = s.expect("IDENT")
            if name in carriers:
                raise s.fail(f"duplicate carrier {quoted(name)}", at)
            carriers[name] = _parse_int_set(s)
        elif kw == "table":
            name = s.expect("IDENT")
            if name in tables:
                raise s.fail(f"duplicate table {quoted(name)}", at)
            try:
                sym = theory.op(name)
            except UndeclaredSymbol:
                raise ModelMismatch(
                    f"table for undeclared operation {quoted(name)}") from None
            s.end_line()
            mapping: dict = {}
            while s.peek() not in ("", "carrier", "effectcarrier", "table"):
                row = s.pos
                key = _parse_element(s)
                s.expect("->")
                value = _parse_element(s)
                if key in mapping:
                    raise s.fail(f"duplicate row for {element_str(key)}", row)
                mapping[key] = value
                s.end_line()
            tables[name] = OperationTable(theory.effect, sym.decoration, mapping)
        else:
            raise s.fail(f"unknown stanza keyword {quoted(kw)}", at)
    if effect_carrier is None:
        raise s.fail("missing effectcarrier declaration")
    return FiniteModel(effect=theory.effect, carriers=carriers,
                       effect_carrier=effect_carrier, tables=tables)


def print_model(model: FiniteModel) -> str:
    def int_set(items: tuple) -> str:
        return "{" + ", ".join(str(x) for x in items) + "}"

    lines = [f"effectcarrier = {int_set(model.effect_carrier)}"]
    for name in sorted(model.carriers):
        lines.append(f"carrier {name} = {int_set(model.carriers[name])}")
    for name in sorted(model.tables):
        lines.append(f"table {name}")
        for key, value in model.tables[name].mapping.items():
            lines.append(f"  {element_str(key)} -> {element_str(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Derivation files
# ---------------------------------------------------------------------------

def _parse_deriv_node(s: _Stream, names: dict[str, DecoratedTerm], level: int = 0) -> Derivation:
    if level >= MAX_DEPTH:
        raise _too_deep(s, "derivation")
    tokens, at = s.tokens, s.pos
    if tokens[at] != "(" or _kind(rule := tokens[at + 1]) != "IDENT":
        s.expect("(")
        s.expect("IDENT")  # one of the two raises its error
    s.pos = at + 2
    params: list[tuple[str, object]] = []
    premises: list[Derivation] = []
    while (tok := tokens[s.pos]) != ")":
        if tok == "(":
            premises.append(_parse_deriv_node(s, names, level + 1))
        elif tokens[s.pos + 1] == "=" and _kind(tok) == "IDENT":
            s.pos += 2
            params.append((tok, s.expect("IDENT") if tok == "name" else s.integer()
                           if tok == "side" else _parse_term(s, names)))
        elif tok == "<" or _kind(tok) in ("IDENT", "INT"):
            # bare body: a term, or the spelled-out `lhs == rhs` of refl
            term = _parse_term(s, names)
            if s.take_sym("=="):
                op = s.pos - 1
                if _parse_term(s, names) is not term:
                    raise s.fail("the sides of a refl body must be the same term", op)
            params.append(("name", term.name) if rule == "axiom" and isinstance(term, Op)
                          else ("term", term))
        else:
            raise s.fail(f"unexpected {quoted(tok)} in rule body")
    s.pos += 1
    return Derivation(rule, tuple(params), tuple(premises))


def parse_derivation(text: str, theory: Theory) -> Derivation:
    return _parsed(text, "derivation", _parse_deriv_node, _names(theory))


def print_derivation(d: Derivation) -> str:
    lines: list[str] = []

    def enter(node: Derivation, path: tuple[int, ...]) -> None:
        head = " ".join([node.rule] + [f"{key}={v if isinstance(v, (str, int)) else term_str(v)}"
                                       for key, v in node.params])
        lines.append("  " * len(path) + "(" + head)

    fold(d, lambda node, path, below: lines.append(lines.pop() + ")"), enter)
    return "\n".join(lines)
