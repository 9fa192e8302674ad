"""The library against the slow, direct implementations in reference.py.

Every comparison runs both implementations on the same input.  For the
numbered kernel: eval_term on each axiom and goal side, first_violation,
find_counterexample (model text, witness and both values) and the full
list of enumerate_models, on the shipped corpus and a seeded batch of
random theories from gen.py, all at carrier sizes of at most 2.  For the
rule-soundness sweep: every ScenarioResult of both effects at carriers up
to 1 and 2.  For the prover: the printed derivation, or the DepthExhausted
message with its rewrite count, on the corpus goals, goals with nested
pairs, and the conclusions of random derivations and random goal pairs
over random theories.

The reference and the generators keep their own label layout, so a layout
bug in the library cannot hide in both sides of a comparison; a guard test
holds their imports from decolog.semantics to the shared data.
"""
import ast
import inspect
import random
import re
from collections import Counter

import pytest

import gen
import reference
from decolog.calculus import (
    Axiom,
    CalculusError,
    DecoratedEquation,
    EffectKind,
    Strength,
    Theory,
    term_str,
)
from decolog.deduction import (
    EXPECT_SOUND,
    WEAK_REPL,
    WEAK_SUBST,
    DepthExhausted,
    _run_scenario,
    _scenarios,
    check_derivation,
    prove,
)
from decolog.files import (
    MAX_INT_DIGITS,
    ParseError,
    corpus_path,
    parse_derivation,
    parse_equation,
    parse_model,
    parse_term,
    parse_theory,
    print_derivation,
    print_model,
    print_theory,
    tokenize,
)
from decolog import semantics
from decolog.semantics import (
    Bounds,
    SemanticsError,
    count_interpretations,
    enumerate_models,
    eval_term,
    find_counterexample,
    first_violation,
)

#: Largest raw interpretation count a generated case may have, so that the
#: reference search keeps the whole module to a few seconds.
CASE_CEILING = 600

CORPUS = {
    "bank": ("bank.dth", "bank_mod4.model", (
        "weak f ~ g",
        "strong f == g",
        "strong balance . deposit == plus . <id(Int), balance . bang(Int)>",
        "weak seven . bang(Int) ~ balance . bang(Int)",
        "strong p1(Int, Int) . <seven, balance> == seven",
        "weak deposit . plus . <balance, seven> ~ deposit . seven",
    )),
    "throwcatch": ("throwcatch.dth", "throwcatch_mod2.model", (
        "strong catchZero . throw == zero",
        "weak catchZero . catchZero ~ id(Int)",
        "strong catchZero == id(Int)",
        "weak throw ~ zero",
        "strong catchZero . zero == zero",
    )),
}


def _report(cex):
    if cex is None:
        return None
    return print_model(cex.model), cex.equation, cex.witness, cex.lhs_value, cex.rhs_value


def _sides(theory, goal):
    for eq in [ax.equation for ax in theory.axioms] + [goal]:
        yield eq.lhs
        yield eq.rhs


def _assert_same_evaluation(model, theory, goal):
    for term in _sides(theory, goal):
        assert (eval_term(model, theory, term).mapping
                == reference.eval_term(model, theory, term).mapping)
    assert first_violation(model, theory, goal) == reference.first_violation(model, theory, goal)


def _assert_same_search(theory, goal, bounds):
    """Both searches agree; returns the models and whether a countermodel
    was found."""
    models = list(enumerate_models(theory, bounds))
    assert models == list(reference.enumerate_models(theory, bounds))
    found = _report(find_counterexample(theory, goal, bounds))
    assert found == _report(reference.find_counterexample(theory, goal, bounds))
    return models, found is not None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus(name):
    theory_file, model_file, goals = CORPUS[name]
    theory = parse_theory(corpus_path(theory_file).read_text())
    shipped = parse_model(corpus_path(model_file).read_text(), theory)
    for text in goals:
        goal = parse_equation(text, theory)
        models, _ = _assert_same_search(theory, goal, Bounds(2, 2))
        for model in [shipped] + models[:40]:
            _assert_same_evaluation(model, theory, goal)


def _equation(rng, theory):
    """A random equation out of some operation's domain whose sides differ
    and call at least one operation (gen.py names them op0, op1, ...), or
    None when the draw misses."""
    dom = rng.choice(theory.operations).dom
    lhs, cod = gen.random_term(rng, theory, dom, depth=3)
    rhs = gen.term_between(rng, theory, dom, cod, depth=3)
    if rhs is None or rhs == lhs or "op" not in term_str(lhs) + term_str(rhs):
        return None
    return DecoratedEquation(rng.choice(list(Strength)), lhs, rhs)


def _random_case(rng, effect):
    """A random theory with one axiom, a goal over it, and the largest
    bounds up to carrier 2 whose raw interpretation count stays under
    CASE_CEILING; None when the draw misses or even carrier 1 is too
    large."""
    theory = gen.random_theory(rng, effect, n_ops=rng.randint(1, 3))
    axiom, goal = _equation(rng, theory), _equation(rng, theory)
    if axiom is None or goal is None:
        return None
    theory = Theory(effect, theory.base_types, theory.operations, (Axiom("ax0", axiom),))
    for base, eff in ((2, 2), (1, 2), (1, 1)):
        bounds = Bounds(base, eff)
        if count_interpretations(theory, bounds) <= CASE_CEILING:
            return theory, goal, bounds
    return None


@pytest.mark.parametrize("effect", list(EffectKind))
def test_random_theories(effect):
    rng = random.Random(2024 if effect is EffectKind.STATES else 4202)
    cases = found = filtered = 0
    while cases < 40:
        case = _random_case(rng, effect)
        if case is None:
            continue
        theory, goal, bounds = case
        models, refuted = _assert_same_search(theory, goal, bounds)
        for model in models[:5]:
            _assert_same_evaluation(model, theory, goal)
        cases += 1
        found += refuted
        filtered += len(models) < count_interpretations(theory, bounds)
    # the batch exercises both outcomes and the axiom filter
    assert 0 < found < cases and filtered > 0


# ---------------------------------------------------------------------------
# The rule-soundness sweep
# ---------------------------------------------------------------------------

#: The two scenarios the reference takes longest over at carrier 2 (about
#: 16 s and 9 s), held instead to the models it checked there: no violation,
#: so no example either.
SWEEP_RECORDED = {
    (EffectKind.EXCEPTIONS, WEAK_REPL, EXPECT_SOUND): 1_852_932,
    (EffectKind.STATES, WEAK_SUBST, EXPECT_SOUND): 1_217_280,
}


@pytest.mark.parametrize("max_carrier", [1, 2])
@pytest.mark.parametrize("effect", list(EffectKind))
def test_sweep(effect, max_carrier):
    scenarios = _scenarios(effect)
    expected = reference._scenarios(effect)
    assert ([(sc.rule, sc.description, sc.expectation, sc.roles) for sc in scenarios]
            == [(sc.rule, sc.description, sc.expectation, sc.roles) for sc in expected])
    for sc, ref in zip(scenarios, expected):
        result = _run_scenario(effect, sc, max_carrier)
        recorded = max_carrier == 2 and SWEEP_RECORDED.get((effect, sc.rule, sc.expectation))
        if recorded:
            assert (result.models_checked, result.violations, result.example) == (recorded, 0, None)
        else:
            assert result == reference._run_scenario(effect, ref, max_carrier)


# ---------------------------------------------------------------------------
# The prover
# ---------------------------------------------------------------------------

#: Node bound for the random goal pairs, most of which are not derivable:
#: low enough that the reference reaches it quickly.
PAIR_NODES = 300


def _proof(search, theory, goal, **bounds):
    try:
        return print_derivation(search(theory, goal, **bounds))
    except DepthExhausted as exhausted:
        return f"exhausted: {exhausted}"


def _assert_same_proof(theory, goal, **bounds):
    """Both provers give the same derivation or the same failure; returns
    it."""
    found = _proof(prove, theory, goal, **bounds)
    assert found == _proof(reference.prove, theory, goal, **bounds)
    return found


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_prove_corpus(name):
    theory_file, _, goals = CORPUS[name]
    theory = parse_theory(corpus_path(theory_file).read_text())
    for text in goals:
        _assert_same_proof(theory, parse_equation(text, theory))


@pytest.mark.parametrize("levels", range(2, 7))
def test_prove_nested_pairs(levels):
    """p1 . <p1 . <... seven ..., seven>, seven> == seven: every expansion
    tries the pair moves and the congruence steps inside components."""
    theory = parse_theory(corpus_path("bank.dth").read_text())
    term = "seven"
    for _ in range(levels):
        term = f"p1(Int, Int) . <{term}, seven>"
    for text in (f"strong {term} == seven", f"weak {term} ~ balance"):
        _assert_same_proof(theory, parse_equation(text, theory))


#: Goals at the edges of the side conditions the search must respect:
#: windows into Unit of every rank under both effects, and a pair component
#: whose strong rewrite would break the pair rank limit.
EDGE_CASES = (
    ("bank.dth", (
        "strong bang(Int) . balance == id(Unit)",
        "weak bang(Int) . balance . deposit . seven ~ id(Unit)",
        "strong bang(Int) . balance . deposit . seven == id(Unit)",
        "weak deposit . seven . bang(Int) . balance ~ deposit . seven",
    )),
    ("throwcatch.dth", (
        "strong bang(Int) . zero == id(Unit)",
        "strong bang(Int) . throw == id(Unit)",
        "weak bang(Int) . catchZero . throw ~ id(Unit)",
        "weak zero . bang(Int) . catchZero . zero ~ zero",
    )),
    ("""effect states
type A
op r : A -> A observer
op m : A -> A modifier
axiom strong r . r == m
""", (
        "strong <r . r, r> == <r, r . r>",
        "strong p1(A, A) . <r . r, r> . r == r . r . r . r",
        "strong p2(A, A) . <r, r . r> . r == m . r",
    )),
)


@pytest.mark.parametrize("source, goals", EDGE_CASES)
def test_prove_side_condition_edges(source, goals):
    text = corpus_path(source).read_text() if source.endswith(".dth") else source
    theory = parse_theory(text)
    for goal in goals:
        _assert_same_proof(theory, parse_equation(goal, theory))


def _derived_goal(rng, theory):
    """The conclusion of a random valid derivation whose sides differ, or
    None when ten draws all conclude a reflexivity."""
    for _ in range(10):
        eq = check_derivation(theory, gen.random_derivation(rng, theory, steps=10)).equation
        if eq.lhs != eq.rhs:
            return eq
    return None


@pytest.mark.parametrize("effect", list(EffectKind))
def test_prove_random_theories(effect):
    """Derivable goals over theories with pairs and Unit, and random goal
    pairs over theories of composites, where many searches are cut by the
    node bound."""
    rng = random.Random(77 if effect is EffectKind.STATES else 78)
    proved = cut = 0
    for _ in range(20):
        theory = gen.random_theory(rng, effect, n_ops=rng.randint(2, 4),
                                   n_axioms=rng.randint(1, 3))
        derived = _derived_goal(rng, theory)
        if derived is not None:
            proved += not _assert_same_proof(theory, derived).startswith("exhausted")

        theory = gen.random_word_theory(rng, effect)
        dom = theory.operations[0].dom
        lhs, _ = gen.random_term(rng, theory, dom, depth=6, products=False)
        rhs, _ = gen.random_term(rng, theory, dom, depth=6, products=False)
        goal = DecoratedEquation(rng.choice(list(Strength)), lhs, rhs)
        found = _assert_same_proof(theory, goal, max_nodes=PAIR_NODES)
        tried = re.search(r"\((\d+) rewrites tried\)", found)
        cut += tried is not None and int(tried.group(1)) >= PAIR_NODES
    # the batch exercises found proofs and searches cut by the node bound
    assert proved >= 15 and cut >= 5


# ---------------------------------------------------------------------------
# The text front end
# ---------------------------------------------------------------------------

#: Mutated inputs per parser.
FRONT_END_CASES = 2000

#: Text a mutation may insert: blanks and comments, both spellings of
#: composition and weak equality, negative integers, every symbol, words of
#: every format, non-ASCII letters and decimal digits, a numeric letter and
#: characters no token starts with.  Non-decimal digits and over-long
#: integers are left to test_front_end_changed_classes.
SNIPPETS = (
    " ", "\t", "\r", "\r\n", "\n", "#", "# note ∘ ≈ Ⅷ\n", "∘", "≈", "-", "-7",
    "-0", "->", "==", "~", ".", "*", "<", ">", ",", "(", ")", "{", "}", ":",
    "=", "0", "12", "ok", "exc(", "x", "_y", "é", "٣", "7٣٤", "Ⅷ", "@", "\x0c",
    "\xa0", "strong", "weak", "table", "carrier", "side=", "id(Int)",
    "((((((", "))))))",
)

PARSERS = {
    "theory": (parse_theory, reference.parse_theory),
    "equation": (parse_equation, reference.parse_equation),
    "term": (parse_term, reference.parse_term),
    "model": (parse_model, reference.parse_model),
    "derivation": (parse_derivation, reference.parse_derivation),
}


def _mutate(rng, text):
    """text after one to three character-level mutations."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:i] + rng.choice(SNIPPETS) + text[i:]
        elif kind == 1:
            text = text[:i] + text[j:]
        elif kind == 2:
            text = text[:j] + text[i:j] + text[j:]
        elif kind == 3:
            numbers = list(re.finditer(r"\d+", text)) or [None]
            found = rng.choice(numbers)
            if found is not None:
                text = text[:found.start()] + rng.choice(("-1", "-12", "3")) + text[found.end():]
        else:
            text = text[:i]
    return text


def _outcome(parse, *args):
    """A parse's result, or its ParseError's message, line and column, or
    another error's type and text; a reference crash reads as "crash"."""
    try:
        return "ok", parse(*args)
    except ParseError as error:
        return "parse error", str(error), error.line, error.col
    except (CalculusError, SemanticsError) as error:
        return type(error).__name__, str(error)
    except (ValueError, RecursionError):
        return ("crash",)


def _tokens(scan, text):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in scan(text)]
    except ParseError as error:
        return str(error)


def _bank_zk(k):
    """A bank model over Z_k shaped like the benchmark's: plus adds, balance
    reads the state, deposit adds its argument to it."""
    elems = ", ".join(map(str, range(k)))
    lines = [f"effectcarrier = {{{elems}}}", f"carrier Int = {{{elems}}}",
             "table seven", f"  * -> {7 % k}", "table plus"]
    lines += [f"  ({a}, {b}) -> {(a + b) % k}" for a in range(k) for b in range(k)]
    lines += ["table balance"] + [f"  (*, {s}) -> {s}" for s in range(k)]
    lines += ["table deposit"] + [f"  ({a}, {s}) -> (*, {(a + s) % k})"
                                  for a in range(k) for s in range(k)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def front_end_inputs():
    """Per parser, the (theory, text) pairs its mutations start from; a
    theory parse takes no theory."""
    read = lambda name: corpus_path(name).read_text()
    bank, throwcatch = parse_theory(read("bank.dth")), parse_theory(read("throwcatch.dth"))
    rng = random.Random(31)
    theories = [gen.random_theory(rng, effect, n_ops=3, n_axioms=2) for effect in EffectKind]
    by_name = {"bank": bank, "throwcatch": throwcatch}
    return {
        "theory": [(None, read("bank.dth")), (None, read("throwcatch.dth"))]
                  + [(None, print_theory(t)) for t in theories],
        "equation": [(by_name[name], goal) for name, (_, _, goals) in CORPUS.items()
                     for goal in goals]
                    + [(bank, "weak f≈g # note\n"), (bank, "strong\tf∘g\r\n==\tg")],
        "term": [(bank, "plus . <seven, balance>"), (bank, "balance∘deposit ∘ seven"),
                 (throwcatch, "catchZero . throw"), (bank, "bang(Int) . seven")],
        "model": [(bank, read("bank_mod4.model")), (throwcatch, read("throwcatch_mod2.model")),
                  (bank, _bank_zk(3))]
                 + [(t, print_model(gen.random_model(rng, t))) for t in theories],
        "derivation": [(bank, read("bank_proof.drv")), (throwcatch, read("throwcatch_proof.drv"))]
                      + [(t, print_derivation(gen.random_derivation(rng, t))) for t in theories],
    }


def _args(theory, text):
    return (text,) if theory is None else (text, theory)


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_front_end(name, front_end_inputs):
    """Equal results, or equal ParseErrors, on the inputs and their
    mutations; on every other one tokenize gives the reference's tokens and
    positions."""
    library, ref = PARSERS[name]
    inputs = front_end_inputs[name]
    rng = random.Random(name)
    verdicts = Counter()
    for case in range(FRONT_END_CASES):
        theory, text = inputs[case % len(inputs)]
        if case >= len(inputs):
            text = _mutate(rng, text)
        got, want = _outcome(library, *_args(theory, text)), _outcome(ref, *_args(theory, text))
        if want == ("crash",):
            assert got[0] == "parse error", text
        else:
            assert got == want, text
        if case % 2 == 0:
            assert _tokens(tokenize, text) == _tokens(reference.tokenize, text), text
        verdicts[got[0]] += 1
    # the batch exercises successes and errors of both kinds
    assert verdicts["ok"] > len(inputs) and verdicts["parse error"] > FRONT_END_CASES // 4


@pytest.mark.parametrize("k", [8, 20, 32])
def test_front_end_bank_models(k):
    theory = parse_theory(corpus_path("bank.dth").read_text())
    text = _bank_zk(k)
    assert parse_model(text, theory) == reference.parse_model(text, theory)


#: Where the library parts from the reference on purpose: a non-decimal
#: digit starts no token (the reference read it as an integer, which int()
#: then refused), and an integer of more than MAX_INT_DIGITS digits is a
#: lexical error (int() refused it too).  Each is inserted, with the
#: offset of the character the library reports.
CHANGED_CLASSES = (
    ("²", 0, "unexpected character '²'"),
    ("1²", 1, "unexpected character '²'"),
    ("-①", 0, "unexpected character '-'"),
    ("7" * (MAX_INT_DIGITS + 1), 0, f"integer longer than {MAX_INT_DIGITS} digits"),
    ("-" + "7" * (MAX_INT_DIGITS + 700), 0, f"integer longer than {MAX_INT_DIGITS} digits"),
)


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_front_end_changed_classes(name, front_end_inputs):
    """Inserted before any token of a valid input, each changed class gives
    the library's located ParseError, where the reference gave another
    verdict."""
    library, ref = PARSERS[name]
    rng = random.Random(name)
    for theory, text in front_end_inputs[name]:
        places = [t for t in reference.tokenize(text) if t.kind not in ("NL", "EOF")]
        starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        for snippet, offset, message in CHANGED_CLASSES:
            for tok in rng.sample(places, min(len(places), 6)):
                at = starts[tok.line - 1] + tok.col - 1
                mutated = text[:at] + f" {snippet} " + text[at:]
                got = _outcome(library, *_args(theory, mutated))
                assert got == ("parse error",
                               f"line {tok.line}, col {tok.col + 1 + offset}: {message}",
                               tok.line, tok.col + 1 + offset), mutated
                assert _outcome(ref, *_args(theory, mutated)) != got


#: What the reference and the generators may share with decolog.semantics:
#: the model data types, the error classes and the label constants.
SHARED_WITH_SEMANTICS = {
    "FiniteModel", "OperationTable", "Counterexample", "Bounds", "Element",
    "DEFAULT_MAX_INTERPRETATIONS", "OK", "EXC", "UNIT", "ok", "exc",
} | {name for name, value in vars(semantics).items()
     if isinstance(value, type) and issubclass(value, semantics.SemanticsError)}


@pytest.mark.parametrize("module", [reference, gen], ids=["reference", "gen"])
def test_oracle_shares_no_layout_code_with_semantics(module):
    """An oracle that imported the library's label layout would agree with
    the library on any bug in it."""
    shared = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.module == "decolog.semantics":
            shared |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "decolog":
            shared |= {f"decolog.{alias.name}" for alias in node.names
                       if alias.name == "semantics"}
        elif isinstance(node, ast.Import):
            shared |= {alias.name for alias in node.names
                       if alias.name == "decolog.semantics"}
    assert shared, "the oracle reads no model data from decolog.semantics"
    assert shared <= SHARED_WITH_SEMANTICS, sorted(shared - SHARED_WITH_SEMANTICS)
