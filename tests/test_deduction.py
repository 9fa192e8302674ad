"""Derivation checking, proof search, and rule validation."""
import random
from itertools import product

import pytest

from decolog import calculus
from decolog.calculus import (
    Bang,
    BaseType,
    Comp,
    DecoratedEquation,
    EffectKind,
    Id,
    Op,
    OperationSymbol,
    Axiom,
    Pair,
    Strength,
    Theory,
    UndeclaredSymbol,
    Unit,
    analyze_term,
    compose,
    pair,
    strong,
    weak,
)
from decolog import deduction
from decolog.deduction import (
    ALL_RULES,
    AXIOM,
    ConclusionMismatch,
    DeductionError,
    DepthExhausted,
    Derivation,
    IllFormedParameter,
    PAIR_COMP_LOWRANK,
    PAIR_CONG_STRONG,
    PAIR_PROJ,
    RANK_LIMITS,
    RANKS,
    REFL,
    REPL_STRONG,
    RuleMisapplied,
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
    _run_scenario,
    _scenarios,
    check_derivation,
    deriv,
    fold,
    prove,
    validate_rules,
)
from decolog.duality import DUAL_EFFECT, DUAL_RULES, dualize_derivation, duality_map
from decolog.files import corpus_path, parse_equation, parse_theory, print_derivation
from decolog.semantics import _Layout, _Program, holds

from gen import random_derivation

Int = BaseType("Int")


@pytest.fixture(scope="session")
def bank_proof(bank):
    theory, f, g = bank
    return deriv(
        TRANS_MIXED,
        deriv(WEAK_SUBST, deriv(AXIOM, name="ax1"), g=Op("seven")),
        deriv(TRANS_STRONG,
              deriv(REPL_STRONG,
                    deriv(PAIR_COMP_LOWRANK, f=Id(Int),
                          g=compose(Op("balance"), Bang(Int)), w=Op("seven")),
                    h=Op("plus")),
              deriv(REPL_STRONG,
                    deriv(PAIR_CONG_STRONG,
                          deriv(REFL, term=Op("seven")),
                          deriv(REPL_STRONG,
                                deriv(UNIT_STRONG_LOWRANK,
                                      f=compose(Bang(Int), Op("seven"))),
                                h=Op("balance"))),
                    h=Op("plus"))))


@pytest.fixture(scope="session")
def throwcatch_proof():
    return deriv(
        TRANS_WEAK,
        deriv(WEAK_REPL, deriv(AXIOM, name="ax2"), h=Op("catchZero")),
        deriv(WEAK_SUBST, deriv(AXIOM, name="ax1"), g=Op("zero")))


class TestChecker:
    def test_bank_proof(self, bank, bank_proof):
        theory, f, g = bank
        j = check_derivation(theory, bank_proof, expected=weak(f, g))
        assert j.equation.strength is Strength.WEAK
        assert (j.dom, j.cod) == (Unit, Int)

    def test_throwcatch_proof(self, throwcatch, throwcatch_proof):
        theory, _ = throwcatch
        goal = weak(compose(Op("catchZero"), Op("catchZero"), Op("throw")),
                    Op("zero"))
        check_derivation(theory, throwcatch_proof, expected=goal)

    def test_refl(self, bank):
        theory, f, _ = bank
        j = check_derivation(theory, deriv(REFL, term=f))
        assert j.equation == strong(f, f)

    def test_axiom_lookup(self, bank):
        theory, _, _ = bank
        j = check_derivation(theory, deriv(AXIOM, name="ax1"))
        assert j.equation == theory.axiom("ax1").equation.normalized()
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, deriv(AXIOM, name="nothere"))

    def test_sym_flips_but_keeps_strength(self, bank):
        theory, _, _ = bank
        j = check_derivation(theory, deriv(SYM, deriv(AXIOM, name="ax1")))
        ax = theory.axiom("ax1").equation.normalized()
        assert j.equation.lhs == ax.rhs and j.equation.rhs == ax.lhs
        assert j.equation.strength is Strength.WEAK

    def test_trans_middle_mismatch(self, bank):
        theory, f, _ = bank
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, deriv(TRANS_STRONG,
                                           deriv(REFL, term=f),
                                           deriv(REFL, term=Op("seven"))))

    def test_trans_strong_rejects_weak_premise(self, bank):
        theory, _, _ = bank
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, deriv(TRANS_STRONG,
                                           deriv(AXIOM, name="ax1"),
                                           deriv(AXIOM, name="ax1")))

    def test_trans_mixed_both_orders(self, throwcatch):
        theory, _ = throwcatch
        ax2 = theory.axiom("ax2").equation.normalized()
        st = deriv(REFL, term=ax2.rhs)
        check_derivation(theory, deriv(TRANS_MIXED, deriv(AXIOM, name="ax2"), st))
        pre = deriv(REFL, term=ax2.lhs)
        check_derivation(theory, deriv(TRANS_MIXED, pre, deriv(AXIOM, name="ax2")))
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, deriv(TRANS_MIXED, st, st))

    def test_strong_to_weak(self, bank):
        theory, f, _ = bank
        j = check_derivation(theory, deriv(STRONG_TO_WEAK, deriv(REFL, term=f)))
        assert j.equation.strength is Strength.WEAK

    def test_weak_to_strong_needs_low_rank(self, bank):
        theory, f, _ = bank
        low = deriv(STRONG_TO_WEAK, deriv(REFL, term=Op("balance")))
        j = check_derivation(theory, deriv(WEAK_TO_STRONG_LOWRANK, low))
        assert j.equation.strength is Strength.STRONG
        high = deriv(STRONG_TO_WEAK, deriv(REFL, term=f))
        with pytest.raises(RuleMisapplied, match=r"weak_to_strong_lowrank under states "
                           r"allows lhs up to rank 1, got rank 2 \(modifier\)"):
            check_derivation(theory, deriv(WEAK_TO_STRONG_LOWRANK, high))

    def test_weak_subst_purity_by_effect(self, bank, throwcatch):
        states, _, _ = bank
        exceptions, _ = throwcatch
        # states: any g may be substituted, even the rank-2 deposit chain
        check_derivation(states, deriv(
            WEAK_SUBST, deriv(AXIOM, name="ax1"),
            g=compose(Op("balance"), Op("deposit"))))
        # exceptions: a throwing g is rejected
        with pytest.raises(RuleMisapplied, match=r"weak_subst under exceptions allows g "
                           r"up to rank 0, got rank 1 \(propagator\)"):
            check_derivation(exceptions, deriv(
                WEAK_SUBST, deriv(AXIOM, name="ax1"), g=Op("throw")))
        check_derivation(exceptions, deriv(
            WEAK_SUBST, deriv(AXIOM, name="ax1"), g=Op("zero")))

    def test_weak_repl_purity_by_effect(self, bank, throwcatch):
        states, _, _ = bank
        exceptions, _ = throwcatch
        with pytest.raises(RuleMisapplied, match=r"weak_repl under states allows h "
                           r"up to rank 0, got rank 1 \(observer\)"):
            check_derivation(states, deriv(
                WEAK_REPL, deriv(AXIOM, name="ax1"), h=Op("balance")))
        # exceptions: even the catcher may wrap a weak equation
        check_derivation(exceptions, deriv(
            WEAK_REPL, deriv(AXIOM, name="ax1"), h=Op("catchZero")))

    def test_pair_cong_needs_matching_domains(self, bank):
        theory, _, _ = bank
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, deriv(
                PAIR_CONG_STRONG,
                deriv(REFL, term=Op("seven")),
                deriv(REFL, term=Id(Int))))

    def test_pair_cong_rank_limit(self, bank):
        theory, f, _ = bank
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, deriv(
                PAIR_CONG_STRONG,
                deriv(REFL, term=f),
                deriv(REFL, term=f)))

    def test_pair_proj_both_sides(self, bank):
        theory, _, _ = bank
        for side in (1, 2):
            j = check_derivation(theory, deriv(
                PAIR_PROJ, f=Op("seven"), g=Op("balance"), side=side))
            assert j.equation.rhs == (Op("seven") if side == 1 else Op("balance"))
        with pytest.raises(IllFormedParameter):
            check_derivation(theory, deriv(
                PAIR_PROJ, f=Op("seven"), g=Op("balance"), side=3))

    def test_pair_comp_rank_limit(self, bank, throwcatch):
        states, _, _ = bank
        check_derivation(states, deriv(
            PAIR_COMP_LOWRANK, f=Id(Int), g=compose(Op("balance"), Bang(Int)),
            w=Op("seven")))
        exceptions, _ = throwcatch
        with pytest.raises(RuleMisapplied):
            check_derivation(exceptions, deriv(
                PAIR_COMP_LOWRANK, f=Id(Int), g=Id(Int), w=Op("throw")))

    def test_unit_rules_by_effect(self, bank, throwcatch):
        states, _, _ = bank
        exceptions, _ = throwcatch
        # states: bang composed with an observer chain stays canonical
        check_derivation(states, deriv(
            UNIT_STRONG_LOWRANK, f=compose(Bang(Int), Op("balance"))))
        # states: a modifier into Unit is only weakly canonical
        with pytest.raises(RuleMisapplied, match=r"unit_strong_lowrank under states "
                           r"allows f up to rank 1, got rank 2 \(modifier\)"):
            check_derivation(states, deriv(UNIT_STRONG_LOWRANK, f=Op("deposit")))
        check_derivation(states, deriv(UNIT_WEAK, f=Op("deposit")))
        # exceptions: anything that may raise is out, strongly and weakly
        raising = compose(Bang(Int), Op("throw"))
        for rule in (UNIT_STRONG_LOWRANK, UNIT_WEAK):
            with pytest.raises(RuleMisapplied, match=rf"{rule} under exceptions allows f "
                               r"up to rank 0, got rank 1 \(propagator\)"):
                check_derivation(exceptions, deriv(rule, f=raising))
        check_derivation(exceptions, deriv(UNIT_WEAK, f=Bang(Int)))

    def test_conclusion_mismatch(self, bank):
        theory, f, g = bank
        with pytest.raises(ConclusionMismatch):
            check_derivation(theory, deriv(REFL, term=f), expected=weak(f, g))

    def test_missing_parameter(self, bank):
        theory, _, _ = bank
        with pytest.raises(IllFormedParameter):
            check_derivation(theory, deriv(REFL))

    def test_wrong_premise_count(self, bank):
        theory, f, _ = bank
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, deriv(SYM))

    def test_unknown_rule(self, bank):
        theory, _, _ = bank
        with pytest.raises(RuleMisapplied):
            check_derivation(theory, Derivation("modus_ponens"))

    def test_error_names_the_failing_premise(self, bank):
        theory, f, _ = bank
        bad = deriv(TRANS_STRONG,
                    deriv(REFL, term=f),
                    deriv(SYM, deriv(AXIOM, name="missing")))
        with pytest.raises(RuleMisapplied) as err:
            check_derivation(theory, bad)
        assert err.value.path == (1, 0)

    def test_ill_typed_parameter(self, bank):
        theory, _, _ = bank
        with pytest.raises(IllFormedParameter):
            check_derivation(theory, deriv(
                SUBST_STRONG, deriv(REFL, term=Op("seven")),
                g=compose(Op("seven"), Op("seven"))))

    def test_no_failure_is_kept(self, bank, bank_proof, throwcatch, throwcatch_proof):
        """A node misapplied over a derivation that has checked fails the
        same way on the theory that checked it, twice, and on a fresh equal
        theory, before and after the memo is emptied, and the derivation
        still checks: one premise where trans_strong takes two, a
        weak_subst past its rank limit, and one whose conclusion is ill typed."""
        cases = [(bank[0], bank_proof, deriv(TRANS_STRONG, bank_proof)),
                 (bank[0], bank_proof, deriv(WEAK_SUBST, bank_proof, g=Op("plus"))),
                 (throwcatch[0], throwcatch_proof,
                  deriv(WEAK_SUBST, throwcatch_proof, g=Op("throw")))]

        def outcome(theory, d):
            try:
                return check_derivation(theory, d)
            except DeductionError as error:
                return type(error), error.path, str(error)

        seen = set()
        for theory, d, bad in cases * 2:
            judgment = check_derivation(theory, d)
            fresh = Theory(*theory[1:])
            failed = outcome(fresh, bad)
            assert failed[0] is RuleMisapplied and failed[1] == ()
            assert outcome(theory, bad) == outcome(theory, bad) == failed
            assert check_derivation(theory, d) == judgment == check_derivation(fresh, d)
            seen.add(failed[2])
            theory._analyses.clear()
        assert seen == {
            "at root: trans_strong takes 2 premise(s), got 1",
            "at root: weak_subst: cannot compose: first factor produces Int but second expects Unit",
            "at root: weak_subst under exceptions allows g up to rank 0, got rank 1 (propagator)"}

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_one_premise_too_many(self, bank, rule):
        theory, _, _ = bank
        strengths, params = SHAPES[rule]
        premises = [PREMISE[Strength.STRONG]] * (len(strengths) + 1)
        with pytest.raises(RuleMisapplied, match=rf"^at root: {rule} takes {len(strengths)} "
                           rf"premise\(s\), got {len(strengths) + 1}$"):
            check_derivation(theory, deriv(rule, *premises, **params))

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_each_fixed_premise_strength(self, bank, rule):
        theory, _, _ = bank
        strengths, params = SHAPES[rule]
        right = [PREMISE[want or Strength.STRONG] for want in strengths]
        for i, want in enumerate(strengths, 1):
            if want is None:
                continue
            got = Strength.WEAK if want is Strength.STRONG else Strength.STRONG
            premises = right[:i - 1] + [PREMISE[got]] + right[i:]
            with pytest.raises(RuleMisapplied, match=rf"^at root: premise {i} of {rule} "
                               rf"must be {want}, got {got}$"):
                check_derivation(theory, deriv(rule, *premises, **params))

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_each_parameter_taken_once(self, bank, rule):
        theory, _, _ = bank
        strengths, params = SHAPES[rule]
        premises = tuple(PREMISE[want or Strength.STRONG] for want in strengths)
        extra = ("zz", Op("seven"))
        with pytest.raises(IllFormedParameter,
                           match=rf"^at root: {rule} takes no parameter 'zz'$"):
            check_derivation(theory, Derivation(rule, (*params.items(), extra), premises))
        if params:
            first = next(iter(params.items()))
            with pytest.raises(IllFormedParameter, match=rf"^at root: parameter "
                               rf"'{first[0]}' of {rule} given twice$"):
                check_derivation(theory, Derivation(rule, (first, *params.items()),
                                                    premises))
        else:
            with pytest.raises(IllFormedParameter,
                               match=rf"^at root: {rule} takes no parameter 'zz'$"):
                check_derivation(theory, Derivation(rule, (extra, extra), premises))
        # True == 1, but a side must be the int itself: side=True would
        # print as a parameter that does not parse back
        message = ("pair_proj needs side=1 or side=2" if rule == PAIR_PROJ
                   else f"{rule} takes no parameter 'side'")
        with pytest.raises(IllFormedParameter, match=rf"^at root: {message}$"):
            check_derivation(theory, deriv(rule, *premises, **{**params, "side": True}))


#: A premise of each strength in the bank theory.
PREMISE = {Strength.STRONG: deriv(REFL, term=Op("seven")),
           Strength.WEAK: deriv(STRONG_TO_WEAK, deriv(REFL, term=Op("seven")))}

#: Each rule's premise strengths (None: either), written out here rather
#: than read from the checker, and parameters it accepts in the bank theory.
SHAPES = {
    REFL: ((), {"term": Op("seven")}),
    SYM: ((None,), {}),
    TRANS_STRONG: ((Strength.STRONG, Strength.STRONG), {}),
    TRANS_WEAK: ((Strength.WEAK, Strength.WEAK), {}),
    TRANS_MIXED: ((None, None), {}),
    STRONG_TO_WEAK: ((Strength.STRONG,), {}),
    WEAK_TO_STRONG_LOWRANK: ((Strength.WEAK,), {}),
    SUBST_STRONG: ((Strength.STRONG,), {"g": Id(Unit)}),
    REPL_STRONG: ((Strength.STRONG,), {"h": Id(Int)}),
    WEAK_SUBST: ((Strength.WEAK,), {"g": Id(Unit)}),
    WEAK_REPL: ((Strength.WEAK,), {"h": Id(Int)}),
    PAIR_CONG_STRONG: ((Strength.STRONG, Strength.STRONG), {}),
    PAIR_PROJ: ((), {"f": Op("seven"), "g": Op("balance"), "side": 1}),
    PAIR_COMP_LOWRANK: ((), {"f": Id(Int), "g": Id(Int), "w": Op("seven")}),
    UNIT_STRONG_LOWRANK: ((), {"f": Bang(Int)}),
    UNIT_WEAK: ((), {"f": Bang(Int)}),
    AXIOM: ((), {"name": "ax1"}),
}


class TestSoundness:
    """Checker-accepted derivations conclude equations that hold in every
    model of the axioms."""

    @pytest.mark.parametrize("seed", range(25))
    def test_bank_derivations_hold_mod4(self, seed, bank, bank_mod4):
        theory, _, _ = bank
        d = random_derivation(random.Random(seed), theory)
        eq = check_derivation(theory, d).equation
        assert holds(bank_mod4, theory, eq)

    @pytest.mark.parametrize("seed", range(25))
    def test_throwcatch_derivations_hold_mod2(self, seed, throwcatch):
        theory, model = throwcatch
        d = random_derivation(random.Random(seed), theory)
        eq = check_derivation(theory, d).equation
        assert holds(model, theory, eq)

    def test_fixture_proofs_hold(self, bank, bank_mod4, throwcatch,
                                 bank_proof, throwcatch_proof):
        theory, _, _ = bank
        eq = check_derivation(theory, bank_proof).equation
        assert holds(bank_mod4, theory, eq)
        tc_theory, tc_model = throwcatch
        eq2 = check_derivation(tc_theory, throwcatch_proof).equation
        assert holds(tc_model, tc_theory, eq2)


@pytest.fixture
def expanded(monkeypatch):
    """A list that grows by one each time prove expands a term."""
    calls = []
    moves = deduction._all_moves
    monkeypatch.setattr(deduction, "_all_moves",
                        lambda *args, **kw: calls.append(1) or moves(*args, **kw))
    return calls


class TestProve:
    def test_bank_weak_goal(self, bank):
        theory, f, g = bank
        d = prove(theory, weak(f, g))
        check_derivation(theory, d, expected=weak(f, g))

    def test_throwcatch_weak_goal(self, throwcatch):
        theory, _ = throwcatch
        goal = weak(compose(Op("catchZero"), Op("catchZero"), Op("throw")),
                    Op("zero"))
        d = prove(theory, goal)
        check_derivation(theory, d, expected=goal)

    def test_trivial_goals(self, bank):
        theory, f, _ = bank
        assert prove(theory, strong(f, f)).rule == REFL
        assert prove(theory, weak(f, f)).rule == STRONG_TO_WEAK

    def test_strong_rewriting(self):
        A = BaseType("A")
        theory = Theory(
            effect=EffectKind.EXCEPTIONS,
            base_types=("A",),
            operations=(OperationSymbol("a", A, A, 0),
                        OperationSymbol("b", A, A, 0)),
            axioms=(Axiom("ab", strong(Op("a"), Op("b"))),),
        )
        goal = strong(compose(Op("a"), Op("a")), compose(Op("b"), Op("b")))
        d = prove(theory, goal)
        check_derivation(theory, d, expected=goal)

    def test_axiom_used_right_to_left(self):
        A = BaseType("A")
        theory = Theory(
            effect=EffectKind.STATES,
            base_types=("A",),
            operations=(OperationSymbol("a", A, A, 0),
                        OperationSymbol("b", A, A, 0)),
            axioms=(Axiom("ab", strong(Op("a"), Op("b"))),),
        )
        goal = strong(Op("b"), Op("a"))
        check_derivation(theory, prove(theory, goal), expected=goal)

    def test_identity_axiom_collapses(self, throwcatch):
        theory, _ = throwcatch
        # catchZero ~ id lets a catcher disappear entirely
        goal = weak(compose(Op("catchZero"), Op("zero")), Op("zero"))
        check_derivation(theory, prove(theory, goal), expected=goal)

    def test_unit_collapse(self, bank):
        theory, _, _ = bank
        goal = strong(compose(Op("seven"), Bang(Int), Op("seven")), Op("seven"))
        check_derivation(theory, prove(theory, goal), expected=goal)

    def test_projection_collapse(self, bank):
        theory, _, _ = bank
        from decolog.calculus import Proj2
        goal = strong(compose(Proj2(Int, Int), pair(Op("seven"), Op("balance"))),
                      Op("balance"))
        check_derivation(theory, prove(theory, goal), expected=goal)

    def test_depth_exhausted(self, bank):
        theory, f, g = bank
        with pytest.raises(DepthExhausted):
            prove(theory, strong(f, g), max_depth=6, max_nodes=3000)

    def test_exhaustion_says_nothing(self, bank):
        theory, f, g = bank
        # provable goal, but not within one step
        with pytest.raises(DepthExhausted):
            prove(theory, weak(f, g), max_depth=1)

    def test_failed_search_builds_no_more_derivations_with_more_nodes(self, monkeypatch):
        """Derivations are built only where the two sides meet, so a search
        cut by the node bound builds as many at 50 nodes as at 2,000.  The
        rewrite counts are pinned: the move order decides how far the last
        expansions overshoot the bound."""
        A = BaseType("A")
        theory = Theory(
            effect=EffectKind.STATES,
            base_types=("A",),
            operations=tuple(OperationSymbol(name, A, A, 0) for name in "abc"),
            axioms=(Axiom("ab", strong(compose(Op("a"), Op("b")),
                                       compose(Op("b"), Op("a")))),
                    Axiom("aa", strong(Op("a"), compose(Op("a"), Op("a"))))),
        )
        built = []
        new = Derivation.__new__
        monkeypatch.setattr(Derivation, "__new__",
                            lambda cls, *args: built.append(1) or new(cls, *args))
        counts = []
        for max_nodes, tried in ((50, 58), (2000, 2010)):
            built.clear()
            with pytest.raises(DepthExhausted) as exhausted:
                prove(theory, strong(compose(Op("a"), Op("b")), Op("c")),
                      max_depth=20, max_nodes=max_nodes)
            assert str(exhausted.value) == (
                f"no derivation found within depth 20 ({tried} rewrites tried); "
                "the goal may still be derivable")
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_search_out_of_codes_gives_up(self, monkeypatch):
        """prove codes each distinct atom it meets as one character of a
        str.  A search that needs more codes than there are characters ends
        in DepthExhausted with its rewrites counted, not in chr's
        ValueError.  Here the limit is lowered to 6 codes: the pair goal's
        congruence moves make a new pair atom each, so the search meets the
        limit after 2 of the 12 rewrites it tries without one."""
        A = BaseType("A")
        theory = Theory(
            effect=EffectKind.STATES,
            base_types=("A",),
            operations=tuple(OperationSymbol(name, A, A, 0) for name in "abc"),
            axioms=(Axiom("ab", strong(compose(Op("a"), Op("a")), Op("b"))),),
        )
        goal = strong(pair(compose(Op("a"), Op("a"), Op("a")), Op("a")), pair(Op("c"), Op("c")))
        monkeypatch.setattr(deduction, "_CODES", 6)
        for tried in (2, 12):
            with pytest.raises(DepthExhausted) as exhausted:
                prove(theory, goal)
            assert str(exhausted.value) == (
                f"no derivation found within depth 8 ({tried} rewrites tried); "
                "the goal may still be derivable")
            monkeypatch.undo()

    def test_a_repeated_goal_is_a_lookup(self, expanded, monkeypatch):
        """A second prove of one goal on one theory with the same bounds
        expands no term and returns the same object, after checking it
        against the goal (a lookup); a fresh equal theory searches again and
        finds the same derivation."""
        theory = parse_theory(corpus_path("throwcatch.dth").read_text())
        goal = parse_equation("weak catchZero . catchZero . throw ~ zero", theory)
        d = prove(theory, goal)
        searched = len(expanded)
        assert searched > 0
        checks = []
        check = deduction.check_derivation
        monkeypatch.setattr(deduction, "check_derivation",
                            lambda *args, **kw: checks.append((args, kw)) or check(*args, **kw))
        assert prove(theory, goal) is d and len(expanded) == searched
        assert checks == [((theory, d), {"expected": goal.normalized()})]
        assert check_derivation(theory, d, expected=goal).equation == goal.normalized()
        fresh = Theory(*theory[1:])
        assert fresh == theory and fresh is not theory
        assert prove(fresh, goal) is d and len(expanded) == 2 * searched

    @pytest.mark.parametrize("order", [(50, 2000), (2000, 50)])
    def test_a_give_up_recurs_with_its_own_text(self, expanded, order):
        """A search the bounds cut gives up again with the same class and
        text, without expanding a term; each node bound is searched on its
        own, in either order, and keeps its own rewrite count."""
        A = BaseType("A")
        theory = Theory(
            effect=EffectKind.STATES,
            base_types=("A",),
            operations=tuple(OperationSymbol(name, A, A, 0) for name in "abc"),
            axioms=(Axiom("ab", strong(compose(Op("a"), Op("b")),
                                       compose(Op("b"), Op("a")))),
                    Axiom("aa", strong(Op("a"), compose(Op("a"), Op("a"))))),
        )
        goal = strong(compose(Op("a"), Op("b")), Op("c"))
        tried, searched = {50: 58, 2000: 2010}, set()
        for max_nodes in order + order:
            before = len(expanded)
            with pytest.raises(DepthExhausted) as exhausted:
                prove(theory, goal, max_depth=20, max_nodes=max_nodes)
            assert type(exhausted.value) is DepthExhausted
            assert str(exhausted.value) == (
                f"no derivation found within depth 20 ({tried[max_nodes]} rewrites tried); "
                "the goal may still be derivable")
            assert (len(expanded) > before) == (max_nodes not in searched)
            searched.add(max_nodes)

    def test_a_kept_give_up_names_the_callers_depth(self, expanded):
        """The give-up kept for max_depth 8 is read back for 8.0, which is
        the same bound, and its message gives the bound as the caller did."""
        A = BaseType("A")
        theory = Theory(
            effect=EffectKind.STATES,
            base_types=("A",),
            operations=tuple(OperationSymbol(name, A, A, 0) for name in "abc"),
            axioms=(Axiom("ab", strong(compose(Op("a"), Op("a")), Op("b"))),),
        )
        goal = strong(pair(compose(Op("a"), Op("a"), Op("a")), Op("a")), pair(Op("c"), Op("c")))
        texts, counts = [], []
        for max_depth in (8, 8.0, 8):
            with pytest.raises(DepthExhausted) as exhausted:
                prove(theory, goal, max_depth=max_depth)
            texts.append(str(exhausted.value))
            counts.append(len(expanded))
        assert texts == [f"no derivation found within depth {depth} (12 rewrites tried); "
                         "the goal may still be derivable" for depth in ("8", "8.0", "8")]
        assert counts[0] > 0 and counts == counts[:1] * 3

    def test_proof_of_a_long_chain_checks(self):
        """An n-term chain takes n - 1 steps, about n / 2 from each side, so
        the proof is nested about n / 2 levels deep: 352 at n=700, 552 at
        n=1100 and 1002 at n=2000.  Checking, printing, dualizing, comparing
        and repr walk it without recursion, whatever its depth."""
        A = BaseType("A")
        for n in (700, 1100, 2000):
            theory = Theory(
                effect=EffectKind.STATES,
                base_types=("A",),
                operations=tuple(OperationSymbol(f"a{i}", A, A, 0) for i in range(n)),
                axioms=tuple(Axiom(f"ax{i}", strong(Op(f"a{i}"), Op(f"a{i + 1}")))
                             for i in range(n - 1)),
            )
            goal = strong(Op("a0"), Op(f"a{n - 1}"))
            d = prove(theory, goal, max_depth=n, max_nodes=10**6)
            assert check_derivation(theory, d, expected=goal).equation == goal
            assert fold(d, lambda node, path, below: 1 + max(below, default=0)) > n // 2
            text = print_derivation(d)
            assert len(text.splitlines()) == fold(d, lambda node, path, below: 1 + sum(below))
            m = duality_map(theory)
            image = dualize_derivation(m, d)
            assert check_derivation(m.target, image).equation == goal
            back = dualize_derivation(duality_map(m.target), image)
            assert back == d and not back != d and hash(back) == hash(d)
            assert back != deriv("refl", term=Op("a0")) and repr(back) == repr(d)

    def test_each_node_is_checked_once_per_theory(self, monkeypatch):
        """prove checks its proof, and the caller's check and dualize's check
        of it read that verdict: _conclude runs once for each distinct node
        in the source theory, and once for each distinct node of the image in
        the mirror."""
        theory = parse_theory(corpus_path("throwcatch.dth").read_text())
        goal = parse_equation("weak catchZero . catchZero . throw ~ zero", theory)
        calls = []
        conclude = deduction._conclude
        monkeypatch.setattr(deduction, "_conclude",
                            lambda t, d, *rest: calls.append((t, d)) or conclude(t, d, *rest))
        d = prove(theory, goal)
        check_derivation(theory, d, expected=goal)
        m = duality_map(theory)
        image = dualize_derivation(m, d)
        check_derivation(m.target, image)

        def nodes(d):
            found = set()
            fold(d, lambda node, path, below: found.add(node))
            return found

        for t, proof in ((theory, d), (m.target, image)):
            checked = [node for on, node in calls if on is t]
            assert len(checked) == len(set(checked)) and set(checked) == nodes(proof)
        assert len(calls) == len(nodes(d)) + len(nodes(image)) == 16

    @pytest.mark.parametrize("bounds", [{"max_depth": 0}, {"max_depth": -1},
                                        {"max_nodes": 0}, {"max_depth": float("nan")},
                                        {"max_nodes": float("nan")}])
    def test_bounds_below_1_are_refused(self, bank, bounds):
        theory, f, _ = bank
        # even a goal that needs no search: a bound below 1 checks nothing
        with pytest.raises(DeductionError, match="at least 1"):
            prove(theory, strong(f, f), **bounds)

    @pytest.mark.parametrize("bounds, given", [({"max_depth": "8"}, "'8' and 4000"),
                                               ({"max_nodes": "9"}, "8 and '9'"),
                                               ({"max_depth": None}, "None and 4000")])
    def test_bounds_that_are_not_numbers_are_refused(self, bounds, given, expanded):
        """A bound that is not a number is refused before the lookup, as one
        below 1 is, and nothing is kept; 8 and 8.0 are still one bound."""
        theory = parse_theory(corpus_path("throwcatch.dth").read_text())
        goal = parse_equation("weak catchZero . catchZero . throw ~ zero", theory)
        with pytest.raises(DeductionError) as refused:
            prove(theory, goal, **bounds)
        assert str(refused.value) == f"prove needs max_depth and max_nodes of at least 1, got {given}"
        assert theory._kept((DecoratedEquation, Derivation)) == {} and not expanded
        d, searched = prove(theory, goal, max_depth=8.0), len(expanded)
        assert prove(theory, goal) is d and len(expanded) == searched > 0


class TestGoalNormalForm:
    """prove and check_derivation(expected=...) normalize a goal with
    calculus.normalize, which keeps each term's normal form for the process,
    so what they return or raise is what they did when they walked it every
    time."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The theory of each calculus._analysis step, None for a theory-less
        walk, with normalize's table empty for the test."""
        theories = []
        step = calculus._analysis
        monkeypatch.setattr(calculus, "_analysis",
                            lambda theory, *args: theories.append(theory) or step(theory, *args))
        monkeypatch.setattr(calculus, "_NORMAL", {})
        return theories

    @staticmethod
    def throwcatch():
        theory = parse_theory(corpus_path("throwcatch.dth").read_text())
        return theory, parse_equation("weak catchZero . catchZero . throw ~ zero", theory)

    def test_a_warm_goal_is_not_walked_again(self, walks):
        theory, goal = self.throwcatch()
        d = prove(theory, goal)
        walks.clear()
        assert prove(theory, goal) is d
        assert check_derivation(theory, d, expected=goal).equation == goal
        assert walks == []

    def test_a_goal_normalized_once_is_not_walked_again(self, walks):
        """Left-nested sides are in no theory's memo: normalize walks them
        without a theory once, and neither prove nor check_derivation walks
        them so again, on this theory or on a fresh equal one."""
        theory, normal = self.throwcatch()
        fresh, _ = self.throwcatch()
        goal = DecoratedEquation(Strength.WEAK, Comp(Comp(Op("catchZero"), Op("catchZero")),
                                                     Op("throw")), Op("zero"))
        walks.clear()
        assert goal != normal and goal.normalized() == normal and None in walks
        for each in (theory, theory, fresh):
            walks.clear()
            d = prove(each, goal)
            assert d is prove(each, normal)
            assert check_derivation(each, d, expected=goal).equation == normal
            assert None not in walks
        walks.clear()
        assert goal.normalized() == normal and walks == []

    def test_an_ill_formed_goal_fails_as_before(self):
        """An undeclared operation fails the goal's check, or the expected
        comparison; an identity over an undeclared type is dropped by
        normalization first, so that goal proves; a side with a field that
        cannot be hashed is no term, and neither is a list."""
        theory, goal = self.throwcatch()
        d = prove(theory, goal)
        for _ in "ab":
            undeclared = strong(Op("nope"), Op("nope"))
            with pytest.raises(UndeclaredSymbol, match="^operation 'nope' is not declared$"):
                prove(theory, undeclared)
            with pytest.raises(ConclusionMismatch) as mismatch:
                check_derivation(theory, d, expected=undeclared)
            assert str(mismatch.value) == ("derivation concludes catchZero . catchZero . throw "
                                           "~ zero, expected nope == nope")
            dropped = Comp(Op("zero"), Id(BaseType("Nope")))
            with pytest.raises(UndeclaredSymbol, match="'Nope' is not declared"):
                analyze_term(theory, dropped)
            refl = prove(theory, DecoratedEquation(Strength.STRONG, dropped, Op("zero")))
            assert refl == deriv(REFL, term=Op("zero"))
            assert check_derivation(theory, refl, expected=DecoratedEquation(
                Strength.STRONG, Op("zero"), dropped)).equation == strong(Op("zero"), Op("zero"))
            for odd, call in product((Pair(Op("zero"), [1]), [1]),
                                     (lambda eq: prove(theory, eq),
                                      lambda eq: check_derivation(theory, d, expected=eq))):
                with pytest.raises(TypeError, match=r"^not a term: \[1\]$"):
                    call(DecoratedEquation(Strength.WEAK, odd, Op("zero")))
                with pytest.raises(TypeError, match=r"^not a term: \[1\]$"):
                    call(DecoratedEquation(Strength.WEAK, Op("zero"), odd))


@pytest.fixture(scope="session")
def rules_exceptions():
    return validate_rules(EffectKind.EXCEPTIONS, max_carrier=2)


@pytest.fixture(scope="session")
def rules_states():
    return validate_rules(EffectKind.STATES, max_carrier=2)


class TestValidateRules:
    def test_exceptions_catalog_validates(self, rules_exceptions):
        assert rules_exceptions.ok
        for r in rules_exceptions.results:
            assert r.ok, f"{r.rule}: {r.description}"

    def test_states_catalog_validates(self, rules_states):
        assert rules_states.ok
        for r in rules_states.results:
            assert r.ok, f"{r.rule}: {r.description}"

    def test_sound_scenarios_have_no_violations(self, rules_exceptions, rules_states):
        for report in (rules_exceptions, rules_states):
            for r in report.results:
                if r.expectation == "sound":
                    assert r.violations == 0
                    assert r.models_checked > 0

    def test_exceptions_reject_impure_subst(self, rules_exceptions):
        found = [r for r in rules_exceptions.results
                 if r.rule == WEAK_SUBST and r.expectation == "countermodel"]
        assert len(found) == 1
        assert found[0].violations > 0
        assert found[0].example is not None

    def test_states_reject_impure_repl(self, rules_states):
        found = [r for r in rules_states.results
                 if r.rule == WEAK_REPL and r.expectation == "countermodel"]
        assert len(found) == 1
        assert found[0].violations > 0
        assert found[0].example is not None

    def test_carrier_bound_below_1_is_rejected(self):
        with pytest.raises(DeductionError):
            validate_rules(EffectKind.STATES, max_carrier=0)

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_swept_and_unswept_rules_are_the_catalogue(self, effect):
        # a rule added to the catalogue with no scenario fails here
        swept = {sc.rule for sc in _scenarios(effect)}
        unswept = {TRANS_STRONG, TRANS_MIXED, STRONG_TO_WEAK, REPL_STRONG, AXIOM}
        assert swept.isdisjoint(unswept) and swept | unswept == set(ALL_RULES)

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_carrier_bound_above_2_is_rejected(self, effect):
        # at 3 the sweep would run for days
        with pytest.raises(DeductionError, match="between 1 and 2"):
            validate_rules(effect, max_carrier=3)

    def test_an_effect_that_is_not_an_effect_kind_is_rejected(self):
        # unrefused, "states" raised a bare KeyError from the scenario catalogue
        for effect in ("states", "exceptions", None):
            with pytest.raises(DeductionError, match="^effect must be an EffectKind, got "):
                validate_rules(effect, max_carrier=1)

    def test_carrier_bound_that_is_not_an_int_is_rejected(self):
        # unrefused, "1" would raise TypeError and 1.5 be swept; an out-of-range text stays
        for bound in ("1", 1.5, None):
            with pytest.raises(DeductionError, match="^max_carrier must be an integer, got "):
                validate_rules(EffectKind.STATES, max_carrier=bound)
        for outside in (0, 0.5, float("nan")):
            with pytest.raises(DeductionError, match=f"^max_carrier must be between 1 and 2, "
                               f"got {outside}$"):
                validate_rules(EffectKind.STATES, max_carrier=outside)


def _at_size_2(effect, rule, stop=False):
    """Models checked, violations and example of rule's sound scenario with
    every carrier of size 2, so that tables composed in the wrong order
    still fit each other.  With stop set, up to the first violation."""
    sc, = (sc for sc in _scenarios(effect) if sc.rule == rule and sc.expectation == "sound")
    return sc.run(_Layout(effect, {role: (0, 1) for role in "ABCZ"}, (0, 1)), stop)


def _ranked_theory(effect):
    """Operations a0, a1, a2 : Int -> Int and u0, u1, u2 : Int -> Unit, the
    digit giving the rank."""
    return Theory(effect, ("Int",), tuple(OperationSymbol(f"{name}{r}", Int, cod, r)
                                          for name, cod in (("a", Int), ("u", Unit)) for r in RANKS))


def _instance(rule, rank):
    """A derivation of _ranked_theory whose one side condition is rule's
    limited parameter at the given rank."""
    weak_refl = deriv(STRONG_TO_WEAK, deriv(REFL, term=Op(f"a{rank}")))
    if rule == WEAK_TO_STRONG_LOWRANK:
        return deriv(rule, weak_refl)
    if rule in (WEAK_SUBST, WEAK_REPL):
        return deriv(rule, deriv(STRONG_TO_WEAK, deriv(REFL, term=Op("a0"))),
                     **{"g" if rule == WEAK_SUBST else "h": Op(f"a{rank}")})
    return deriv(rule, f=Op(f"u{rank}"))


#: Every side condition that excludes some rank, as (effect, rule, limit).
BOUNDED = [(effect, rule, limit) for effect in EffectKind
           for rule, limit in RANK_LIMITS[effect].items() if limit < max(RANKS)]


class TestRankLimits:
    """RANK_LIMITS is the one table of side conditions: the checker and the
    sweep both read it, so a limit set one too loose or one too tight shows
    up in the sweep."""

    @pytest.mark.parametrize("effect,rule,limit", BOUNDED)
    def test_loosened_limit(self, monkeypatch, effect, rule, limit):
        theory = _ranked_theory(effect)
        check_derivation(theory, _instance(rule, limit))
        with pytest.raises(RuleMisapplied, match=f"{rule} under {effect}"):
            check_derivation(theory, _instance(rule, limit + 1))
        monkeypatch.setitem(RANK_LIMITS[effect], rule, limit + 1)
        check_derivation(theory, _instance(rule, limit + 1))
        assert _at_size_2(effect, rule, stop=True)[1] > 0
        # the sound scenario's description names the raised limit
        sc, = (sc for sc in _scenarios(effect) if sc.rule == rule and sc.expectation == "sound")
        assert f"rank <= {limit + 1}" in sc.description

    @pytest.mark.parametrize("effect,rule,limit", BOUNDED)
    def test_first_excluded_rank_alone_has_a_countermodel(self, monkeypatch, effect, rule, limit):
        # the countermodel scenario pools ranks limit+1 and up; with no rank
        # past limit+1 it must still find one
        monkeypatch.setattr(deduction, "RANKS", RANKS[:limit + 2])
        sc, = (sc for sc in _scenarios(effect)
               if sc.rule == rule and sc.expectation == "countermodel")
        assert _run_scenario(effect, sc, 2).violations > 0

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_weak_congruence_limits_mirror(self, effect):
        for rule in (WEAK_SUBST, WEAK_REPL):
            assert RANK_LIMITS[effect][rule] == RANK_LIMITS[DUAL_EFFECT[effect]][DUAL_RULES[rule]]


class TestSweepChecksTheEvaluator:
    """subst_strong and pair_cong_strong hold the sweep's construction to
    the evaluator's denotation of f . g and <f, g>, so a broken evaluator
    step shows up as violations."""

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_factors_applied_in_reverse_order(self, monkeypatch, effect):
        steps = _Program._steps
        monkeypatch.setattr(_Program, "_steps", lambda self, *args: steps(self, *args)[::-1])
        assert _at_size_2(effect, SUBST_STRONG)[1] > 0

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_pair_components_swapped(self, monkeypatch, effect):
        # every pair step of the compiled form joins its right component's
        # table to its left's (a slot, a constant table or a mark is kept)
        steps = _Program._steps
        swap = lambda step: (step if step is None or step.__class__ in (int, tuple)
                             else lambda left, right: step(right, left))
        monkeypatch.setattr(_Program, "_steps",
                            lambda self, *args: tuple(map(swap, steps(self, *args))))
        assert _at_size_2(effect, PAIR_CONG_STRONG)[1] > 0

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_sound_without_the_break(self, effect):
        for rule in (REFL, SUBST_STRONG, PAIR_CONG_STRONG):
            checked, violations, _ = _at_size_2(effect, rule)
            assert checked > 0 and violations == 0
