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

All three parsers raise ParseError with a line and column on bad syntax;
semantic problems (unknown symbols, ill-typed axioms, keyword/effect
mismatches) surface as the calculus and semantics error types instead.
Printing then reparsing reproduces the parsed objects exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .calculus import (
    Axiom,
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
    TheoryError,
    TypeExpr,
    UndeclaredSymbol,
    Unit,
    compose,
    keyword_matches_effect,
    pair,
    rank_name,
    rank_of_keyword,
    strong,
    term_str,
    type_str,
    weak,
)
from .deduction import Derivation
from .semantics import (
    EXC,
    FiniteModel,
    ModelMismatch,
    OK,
    OperationTable,
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

#: Deepest term, type or derivation the parsers accept.  A composition
#: counts its factors' depths added up, a pair or a product one more than
#: its deeper component, and every bracket one level on its own; a
#: derivation counts one level per rule on its longest path to a leaf, and
#: the terms inside it have their own budget.  Terms, types and derivations
#: are walked recursively everywhere in the library, so the limit stays far
#: below Python's default recursion limit of 1000.
MAX_DEPTH = 200


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
    word, op = (("strong", "==") if eq.strength is Strength.STRONG
                else ("weak", "~"))
    return f"{word} {term_str(eq.lhs)} {op} {term_str(eq.rhs)}"


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


def element_str(e: Element) -> str:
    if e == UNIT:
        return "*"
    if isinstance(e, tuple):
        if len(e) == 2 and e[0] in (OK, EXC):
            return f"{e[0]}({element_str(e[1])})"
        return "(" + ", ".join(element_str(x) for x in e) + ")"
    return str(e)


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
