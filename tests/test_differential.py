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

import pytest

import gen
import reference
from decolog.calculus import Axiom, DecoratedEquation, EffectKind, Strength, Theory, term_str
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
    corpus_path,
    parse_equation,
    parse_model,
    parse_theory,
    print_derivation,
    print_model,
)
from decolog import semantics
from decolog.semantics import (
    Bounds,
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
