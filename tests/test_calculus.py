"""Terms, types, decorations, theories."""
import copy
import gc
import pickle
import random
from collections import Counter

import pytest

from decolog.calculus import (
    Axiom,
    Bang,
    BaseType,
    Comp,
    CompositionTypeMismatch,
    DecoratedEquation,
    EffectKind,
    Id,
    Op,
    OperationSymbol,
    Pair,
    PairDomainMismatch,
    PairRankViolation,
    Prod,
    Proj1,
    Proj2,
    Record,
    SideTypeMismatch,
    Strength,
    TheoryError,
    Theory,
    UndeclaredSymbol,
    Unit,
    analysis,
    analyze_term,
    check_equation_wf,
    compose,
    infer_decoration,
    normalize,
    pair,
    strong,
    type_str,
    weak,
    wf_term,
)
from decolog import deduction, semantics
from decolog.deduction import Derivation, prove
from decolog.semantics import (Bounds, BoundsTooLarge, ModelMismatch, OperationTable,
                               SemanticsError, find_counterexample, holds)

from gen import random_raw_term, random_theory, random_wf_terms

Int = BaseType("Int")


@pytest.fixture
def bank():
    return Theory(
        effect=EffectKind.STATES,
        base_types=("Int",),
        operations=(
            OperationSymbol("seven", Unit, Int, 0),
            OperationSymbol("plus", Prod(Int, Int), Int, 0),
            OperationSymbol("balance", Unit, Int, 1),
            OperationSymbol("deposit", Int, Unit, 2),
        ),
    )


@pytest.fixture
def throwcatch():
    return Theory(
        effect=EffectKind.EXCEPTIONS,
        base_types=("Int",),
        operations=(
            OperationSymbol("zero", Unit, Int, 0),
            OperationSymbol("throw", Unit, Int, 1),
            OperationSymbol("catchZero", Int, Int, 2),
        ),
    )


class TestTypes:
    def test_type_str(self):
        assert type_str(Prod(Int, BaseType("B"))) == "Int * B"
        assert type_str(Prod(Prod(Int, Int), Int)) == "Int * Int * Int"
        assert type_str(Prod(Int, Prod(Int, Int))) == "Int * (Int * Int)"
        assert type_str(Unit) == "Unit"

    def test_unit_is_not_a_base_type(self):
        with pytest.raises(TheoryError):
            Theory(effect=EffectKind.STATES, base_types=("Unit",), operations=())


class TestNormalization:
    def test_drops_identities(self):
        t = Comp(Id(Int), Comp(Op("f"), Id(Int)))
        assert normalize(t) == Op("f")

    def test_right_associates(self):
        t = Comp(Comp(Op("f"), Op("g")), Op("h"))
        assert normalize(t) == Comp(Op("f"), Comp(Op("g"), Op("h")))

    def test_bang_unit_is_id(self):
        assert normalize(Bang(Unit)) == Id(Unit)

    def test_pure_identity_survives_alone(self):
        assert normalize(Comp(Id(Int), Id(Int))) == Id(Int)

    def test_normalizes_under_pairs(self):
        t = Pair(Comp(Id(Int), Op("f")), Op("g"))
        assert normalize(t) == Pair(Op("f"), Op("g"))

    @pytest.mark.parametrize("seed", range(60))
    def test_idempotent_on_raw_terms(self, seed):
        t = random_raw_term(random.Random(seed))
        assert normalize(normalize(t)) == normalize(t)

    @pytest.mark.parametrize("seed", range(60))
    def test_preserves_typing(self, seed):
        rng = random.Random(seed)
        theory = random_theory(rng, rng.choice(list(EffectKind)))
        for t in random_wf_terms(rng, theory, 5):
            assert wf_term(theory, t) == wf_term(theory, normalize(t))

    @pytest.mark.parametrize("seed", range(60))
    def test_preserves_rank(self, seed):
        rng = random.Random(seed)
        theory = random_theory(rng, rng.choice(list(EffectKind)))
        for t in random_wf_terms(rng, theory, 5):
            assert infer_decoration(theory, t) == infer_decoration(theory, normalize(t))

    def test_compose_builds_normal_form(self):
        t = compose(Op("f"), Op("g"), Op("h"))
        assert t == Comp(Op("f"), Comp(Op("g"), Op("h")))
        assert analysis(None, t).atoms == (Op("f"), Op("g"), Op("h"))


class TestAnalyzeTerm:
    def test_bank_composite(self, bank):
        f = compose(Op("balance"), Op("deposit"), Op("seven"))
        assert analyze_term(bank, f) == (Unit, Int, 2)

    def test_bank_pair_side(self, bank):
        g = compose(Op("plus"), pair(Op("seven"), Op("balance")))
        assert analyze_term(bank, g) == (Unit, Int, 1)

    def test_identity_is_pure(self, bank):
        assert analyze_term(bank, Id(Int)) == (Int, Int, 0)

    def test_projections_are_pure(self, bank):
        assert analyze_term(bank, Proj1(Int, Int)) == (Prod(Int, Int), Int, 0)
        assert analyze_term(bank, Proj2(Int, Unit)) == (Prod(Int, Unit), Unit, 0)

    def test_bang_is_pure(self, bank):
        assert analyze_term(bank, Bang(Int)) == (Int, Unit, 0)

    def test_rank_is_max_over_composition(self, bank):
        assert infer_decoration(bank, compose(Op("balance"), Bang(Int))) == 1
        assert infer_decoration(bank, compose(Bang(Int), Op("seven"))) == 0

    def test_undeclared_symbol(self, bank):
        with pytest.raises(UndeclaredSymbol):
            analyze_term(bank, Op("withdraw"))

    def test_composition_mismatch(self, bank):
        with pytest.raises(CompositionTypeMismatch):
            analyze_term(bank, Comp(Op("deposit"), Op("deposit")))

    def test_pair_domain_mismatch(self, bank):
        with pytest.raises(PairDomainMismatch):
            analyze_term(bank, Pair(Op("deposit"), Op("seven")))

    def test_pair_rank_limit_states(self, bank):
        # observers may sit in a pair, modifiers may not
        analyze_term(bank, Pair(Op("balance"), Op("seven")))
        with pytest.raises(PairRankViolation):
            analyze_term(bank, Pair(compose(Op("balance"), Op("deposit")),
                                    compose(Op("balance"), Op("deposit"))))

    def test_pair_rank_limit_exceptions(self, throwcatch):
        analyze_term(throwcatch, Pair(Op("zero"), Op("zero")))
        with pytest.raises(PairRankViolation):
            analyze_term(throwcatch, Pair(Op("throw"), Op("zero")))

    @pytest.mark.parametrize("seed", range(40))
    def test_rank_monotone_under_composition(self, seed):
        rng = random.Random(seed)
        theory = random_theory(rng, rng.choice(list(EffectKind)))
        for t in random_wf_terms(rng, theory, 4):
            r = infer_decoration(theory, t)
            if isinstance(t, Comp):
                assert r >= infer_decoration(theory, t.after)
                assert r >= infer_decoration(theory, t.first)


def _subterms(term):
    yield term
    for part in term[1:]:
        if isinstance(part, (Id, Op, Comp, Pair, Proj1, Proj2, Bang)):
            yield from _subterms(part)


class TestAnalysisMemo:
    """A theory memoizes its term analyses: a success is walked once, a
    failure every time, and nothing else about the theory changes."""

    def test_each_distinct_subterm_is_walked_at_most_once(self, monkeypatch):
        # the walk's callback runs once per term walked, never on a kept one
        import decolog.calculus as calculus
        walked = []
        original = calculus._analysis

        def counted(theory, term, *below):
            if theory is not None:
                walked.append(term)
            return original(theory, term, *below)
        monkeypatch.setattr(calculus, "_analysis", counted)
        f, g = Op("f"), Op("g")
        fg = Comp(f, Comp(g, Id(Int)))
        theory = Theory(EffectKind.STATES, ("Int",), (
            OperationSymbol("f", Int, Int, 1), OperationSymbol("g", Int, Int, 0)), (
            Axiom("a", strong(Comp(Comp(f, g), Id(Int)), fg)),
            Axiom("b", DecoratedEquation(Strength.WEAK, Comp(fg, fg), Comp(Id(Int), fg)))))
        goal = DecoratedEquation(Strength.STRONG, Pair(fg, Comp(g, fg)), Pair(fg, fg))
        for _ in range(2):
            for ax in theory.axioms:
                check_equation_wf(theory, ax.equation)
            check_equation_wf(theory, goal)
        sides = [side for eq in [ax.equation for ax in theory.axioms] + [goal]
                 for side in (eq.lhs, eq.rhs)]
        subterms = {sub for side in sides for sub in _subterms(side)}
        assert set(walked) <= subterms
        assert len(walked) == len(set(walked)) > 0
        assert goal.lhs in walked and Comp(g, fg) in walked
        # a success is kept under the term's normal form too
        walked.clear()
        for side in sides:
            assert analyze_term(theory, normalize(side)) == analyze_term(theory, side)
        assert walked == []

    def test_failures_are_not_kept(self, bank):
        bad = Pair(Op("balance"), Comp(Op("deposit"), Op("deposit")))
        for _ in range(2):
            with pytest.raises(CompositionTypeMismatch):
                analyze_term(bank, bad)
        assert bad not in bank.__dict__["_analyses"]
        assert Op("balance") in bank.__dict__["_analyses"]

    def test_memo_is_invisible(self, bank):
        fresh = Theory(bank.effect, bank.base_types, bank.operations)
        term = compose(Op("balance"), Op("deposit"), Op("seven"))
        analyze_term(bank, term)
        assert term in bank.__dict__["_analyses"]
        assert (bank, hash(bank), repr(bank)) == (fresh, hash(fresh), repr(fresh))
        assert pickle.dumps(bank) == pickle.dumps(fresh)
        for twin in (copy.copy(bank), copy.deepcopy(bank), pickle.loads(pickle.dumps(bank))):
            assert twin == bank and twin.__dict__["_analyses"] == {}
            assert analyze_term(twin, term) == (Unit, Int, 2)

    @staticmethod
    def with_axiom(bank):
        """bank with the axiom tying deposit to addition, built anew."""
        return Theory(bank.effect, bank.base_types, bank.operations, (Axiom("ax1", weak(
            compose(Op("balance"), Op("deposit")),
            compose(Op("plus"), pair(Id(Int), compose(Op("balance"), Bang(Int)))))),))

    def test_compiled_state_is_invisible_and_keeps_no_failure(self, bank, bank_mod4):
        """What the engines compile from a theory (Theory._compiled) is no
        more seen than the memo it is kept in, and no failure is kept: an
        ill-typed equation and a search past the ceiling are refused on
        every call."""
        theory, fresh = self.with_axiom(bank), self.with_axiom(bank)
        f = compose(Op("balance"), Op("deposit"), Op("seven"))
        g = compose(Op("plus"), pair(Op("seven"), Op("balance")))
        assert find_counterexample(theory, strong(f, g)) is not None
        assert holds(bank_mod4, theory, weak(f, g))
        assert prove(theory, weak(f, g)).rule
        assert Theory._compiled in theory.__dict__["_analyses"]
        assert (theory, hash(theory), repr(theory)) == (fresh, hash(fresh), repr(fresh))
        assert pickle.dumps(theory) == pickle.dumps(fresh)
        for twin in (copy.copy(theory), copy.deepcopy(theory), pickle.loads(pickle.dumps(theory))):
            assert twin == theory and Theory._compiled not in twin.__dict__["_analyses"]
        kept = dict(theory._compiled())
        bad = strong(f, Op("plus"))
        for call in (lambda: holds(bank_mod4, theory, bad), lambda: prove(theory, bad),
                     lambda: find_counterexample(theory, bad)):
            refusals = []
            for _ in range(2):
                with pytest.raises(SideTypeMismatch) as refused:
                    call()
                refusals.append(str(refused.value))
            assert refusals[0] == refusals[1]
        assert theory._compiled() == kept
        for _ in range(2):
            with pytest.raises(BoundsTooLarge, match="ceiling is 100$"):
                find_counterexample(theory, weak(f, g), Bounds(3, 3), max_interpretations=100)

    def test_a_dropped_theory_is_freed_at_once(self, bank):
        """The compiled state refers back to no theory (a _Program keeps
        what it reads of its theory, not the theory), so dropping a theory
        frees its state by reference counting and leaves the cycle
        collector nothing."""
        theory = self.with_axiom(bank)
        goal = strong(compose(Op("balance"), Op("deposit"), Op("seven")),
                      compose(Op("plus"), pair(Op("seven"), Op("balance"))))
        gc.collect()
        gc.disable()
        try:
            assert find_counterexample(theory, goal) is not None
            assert semantics._program(theory, (goal,), axioms=True).memo is not None
            del theory, goal
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_compiled_state_is_reused(self, bank, bank_mod4, monkeypatch):
        """Equal equations built apart share one program, and the prove
        calls on one theory one axiom index: a state keyed by identity
        would never be reused."""
        built = Counter()
        for cls, name in ((semantics._Program, "__init__"), (deduction._Rewriter, "_index")):
            monkeypatch.setattr(cls, name, lambda self, *args, name=name, original=getattr(
                cls, name): built.update([name]) or original(self, *args))
        theory = self.with_axiom(bank)
        goals = [weak(compose(Op("balance"), Op("deposit"), Op("seven")),
                      compose(Op("plus"), pair(Op("seven"), Op("balance")))) for _ in range(2)]
        assert goals[0] == goals[1] and goals[0] is not goals[1]
        assert [holds(bank_mod4, theory, goal) for goal in goals] == [True, True]
        assert prove(theory, goals[0]) == prove(theory, goals[1])
        assert built == {"__init__": 1, "_index": 1}


class TestEquations:
    def test_bank_weak_equation_ranks(self, bank):
        f = compose(Op("balance"), Op("deposit"), Op("seven"))
        g = compose(Op("plus"), pair(Op("seven"), Op("balance")))
        report = check_equation_wf(bank, weak(f, g))
        assert (report.dom, report.cod) == (Unit, Int)
        assert (report.lhs_rank, report.rhs_rank) == (2, 1)

    def test_side_type_mismatch(self, bank):
        with pytest.raises(SideTypeMismatch):
            check_equation_wf(bank, strong(Op("seven"), Op("deposit")))
        with pytest.raises(SideTypeMismatch):
            check_equation_wf(bank, strong(Op("seven"), Id(Int)))

    def test_flipped_and_normalized(self, bank):
        e = weak(Comp(Id(Int), Op("deposit")), Op("deposit"))
        assert e.normalized().lhs == Op("deposit")
        assert e.flipped().rhs == normalize(e.lhs)
        assert e.flipped().strength is Strength.WEAK


class TestTheory:
    def test_reserved_names_rejected(self):
        with pytest.raises(TheoryError):
            Theory(effect=EffectKind.STATES, base_types=("A",),
                   operations=(OperationSymbol("p1", BaseType("A"), BaseType("A"), 0),))

    def test_duplicate_operation_rejected(self):
        sym = OperationSymbol("f", BaseType("A"), BaseType("A"), 0)
        with pytest.raises(TheoryError):
            Theory(effect=EffectKind.STATES, base_types=("A",), operations=(sym, sym))

    def test_undeclared_type_in_signature(self):
        with pytest.raises(UndeclaredSymbol):
            Theory(effect=EffectKind.STATES, base_types=("A",),
                   operations=(OperationSymbol("f", BaseType("A"), BaseType("X"), 0),))

    def test_axiom_sides_must_typecheck(self):
        with pytest.raises(SideTypeMismatch):
            Theory(effect=EffectKind.STATES, base_types=("A",),
                   operations=(OperationSymbol("f", BaseType("A"), BaseType("A"), 0),
                               OperationSymbol("u", Unit, BaseType("A"), 0)),
                   axioms=(Axiom("ax1", strong(Op("f"), Op("u"))),))

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            OperationSymbol("f", Unit, Unit, 3)

    def test_op_lookup(self, bank):
        assert bank.op("balance").decoration == 1
        with pytest.raises(UndeclaredSymbol):
            bank.op("overdraft")


class TestLongNames:
    @pytest.mark.parametrize("lookup, what", [
        (Theory.op, "operation"), (Theory.axiom, "axiom"),
    ], ids=["op", "axiom"])
    def test_undeclared_name_is_cut(self, bank, lookup, what):
        with pytest.raises(UndeclaredSymbol) as error:
            lookup(bank, "q" * 1200)
        assert str(error.value) == f"{what} '" + "q" * 40 + "'... is not declared"
        with pytest.raises(UndeclaredSymbol, match=f"^{what} '" + "q" * 40 + "' is not"):
            lookup(bank, "q" * 40)


class TestRecord:
    """Every value class is a tuple-backed Record: (class, *fields)."""

    VALUES = (
        Comp(Op("f"), Id(Int)),
        Unit,
        Bounds(),
        strong(Op("f"), Proj1(Int, Unit)),
        Derivation("refl", (("term", Op("f")),)),
        OperationTable(EffectKind.STATES, 1, {0: 1}),
    )

    def test_classes_with_equal_fields_are_unequal(self):
        assert Id(Unit) != Bang(Unit)
        assert Proj1(Int, Int) != Proj2(Int, Int)
        assert hash(Proj1(Int, Int)) != hash(Proj2(Int, Int))

    def test_equal_values_have_equal_hashes(self):
        a = Comp(Op("f"), Pair(Id(Int), Op("g")))
        b = Comp(Op("f"), Pair(Id(Int), Op("g")))
        assert a == b and a is b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_interning_is_exact_about_classes(self):
        """Equal values are one object only when their fields are of one
        class too: 1 == True, but Op(1) is not Op(True), and a derivation's
        side=True stays True, which the checker refuses, after an equal
        side=1 derivation was built."""
        assert Op(1) is Op(1) and Op(1) is not Op(True) and Op(1) != Op(True)
        assert Op(True).name is True and Op(1.0) is not Op(1)
        f = Op("f")
        args = dict(f=f, g=f, side=1)
        ok = deduction.deriv(deduction.PAIR_PROJ, **args)
        bad = deduction.deriv(deduction.PAIR_PROJ, **{**args, "side": True})
        assert bad is not ok and bad != ok and bad.param_map()["side"] is True
        assert deduction.deriv(deduction.PAIR_PROJ, **args) is ok
        theory = Theory(EffectKind.STATES, ("Int",), (OperationSymbol("f", Int, Int, 0),))
        assert deduction.check_derivation(theory, ok).equation.rhs is f
        with pytest.raises(deduction.IllFormedParameter, match="side=1 or side=2"):
            deduction.check_derivation(theory, bad)
        nested = Derivation("sym", (("x", (1, (True,))),))
        assert nested is not Derivation("sym", (("x", (1, (1,))),))
        assert nested is Derivation("sym", (("x", (1, (True,))),))

    def test_a_value_with_an_unhashable_field_is_not_interned(self):
        """Pair(f, [1]) is built and equals only itself; analysis refuses it
        as before: as no term, or, with a theory, when its memo hashes [1]."""
        odd = Pair(Op("f"), [1])
        assert odd == odd and odd != Pair(Op("f"), [1]) and odd[1:] == (Op("f"), [1])
        with pytest.raises(TypeError, match="not a term"):
            analysis(None, odd)
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            analysis(Theory(EffectKind.STATES, ("Int",), (OperationSymbol("f", Int, Int, 0),)),
                     odd)

    def test_a_value_is_no_plain_tuple(self):
        assert Op("f") != (Op, "f") and (Op, "f") != Op("f")
        assert not Op("f") == (Op, "f") and tuple(Op("f")) == (Op, "f")

    def test_fields_and_new_attributes_cannot_be_assigned(self, bank):
        for value, name in ((Op("f"), "name"), (Op("f"), "other"),
                            (bank, "effect"), (bank, "other"), (Bounds(), "base")):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert Op("f").name == "f"

    def test_only_theory_has_an_instance_dict(self):
        classes, todo = [], [Record]
        while todo:  # the interned classes are Record's grandchildren
            below = todo.pop().__subclasses__()
            classes += below
            todo += below
        assert len(classes) >= 25
        assert [c.__name__ for c in classes if "__slots__" not in vars(c)] == ["Theory"]
        assert not hasattr(Op("f"), "__dict__")

    def test_defaults_fill_in(self):
        assert Bounds() == Bounds(2, 2)
        assert (Bounds(effect=3).base, Bounds(effect=3).effect) == (2, 3)
        d = Derivation("refl")
        assert (d.rule, d.params, d.premises) == ("refl", (), ())
        assert Theory(EffectKind.STATES).operations == ()

    def test_keywords_and_positions_agree(self):
        assert Op(name="f") == Op("f")
        assert Bounds(3, effect=1) == Bounds(base=3, effect=1) == Bounds(3, 1)

    @pytest.mark.parametrize("make", [
        lambda: Op(nam="f"),
        lambda: Op("f", name="g"),
        lambda: Op(),
        lambda: Comp(Op("f")),
        lambda: Op("f", "g"),
        lambda: Bounds(1, 2, 3),
        lambda: Derivation(),
    ], ids=["unknown", "repeated", "missing", "missing-second", "one-too-many",
            "too-many-with-defaults", "missing-with-defaults"])
    def test_bad_arguments_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_repr_is_the_dataclass_text(self):
        assert [repr(v) for v in self.VALUES] == [
            "Comp(after=Op(name='f'), first=Id(ty=BaseType(name='Int')))",
            "UnitType()",
            "Bounds(base=2, effect=2)",
            "DecoratedEquation(strength=<Strength.STRONG: 'strong'>, lhs=Op(name='f'), "
            "rhs=Proj1(left_ty=BaseType(name='Int'), right_ty=UnitType()))",
            "Derivation(rule='refl', params=(('term', Op(name='f')),), premises=())",
            "OperationTable(effect=<EffectKind.STATES: 'states'>, rank=1, mapping={0: 1})",
        ]

    def test_repr_of_a_deep_value(self):
        """repr walks with a stack, so a term nested deeper than the
        recursion limit prints, and nested tuples keep Python's own text."""
        comp, pair = Op("f"), Op("f")
        for _ in range(5000):
            comp = Comp(Op("g"), comp)
        for _ in range(3000):
            pair = Pair(pair, Id(Int))
        assert repr(comp) == "Comp(after=Op(name='g'), first=" * 5000 + "Op(name='f')" + ")" * 5000
        assert repr(pair).startswith("Pair(left=Pair(left=") and repr(pair).count("Id(ty=") == 3000
        leaf = Derivation("refl", (("term", Op("f")),))
        assert repr(Derivation("sym", (), (leaf,))) == (
            "Derivation(rule='sym', params=(), premises=(Derivation(rule='refl', "
            "params=(('term', Op(name='f')),), premises=()),))")

    def test_derivation_equality_is_by_structure(self):
        leaf = Derivation("refl", (("term", Op("f")),))
        other = Derivation("refl", (("term", Op("g")),))
        sym = Derivation("sym", (), (leaf,))
        assert sym == Derivation("sym", (), (Derivation("refl", (("term", Op("f")),)),))
        assert hash(sym) == hash(Derivation("sym", (), (leaf,)))
        assert sym != Derivation("sym", (), (other,))
        assert not sym == Derivation("sym", (), (other,))
        assert sym != Derivation("sym", (), (leaf, leaf)) and sym != leaf
        assert (Derivation("trans", (), (leaf, sym)) != Derivation("trans", (), (sym, leaf)))
        assert sym != Op("f") and sym != "sym"

    def test_copy_and_pickle_round_trip(self, bank):
        for value in self.VALUES + (bank,):
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert twin == value and type(twin) is type(value)
        twin = pickle.loads(pickle.dumps(bank))
        assert twin.op("balance") == bank.op("balance")

    def test_checks_still_raise(self):
        with pytest.raises(TheoryError, match="decoration rank must be 0, 1 or 2, got 3"):
            OperationSymbol("f", Unit, Unit, 3)
        with pytest.raises(ModelMismatch, match="table rank must be 0, 1 or 2, got 5"):
            OperationTable(EffectKind.STATES, 5, {})
        with pytest.raises(SemanticsError, match="carrier bounds must be at least 1"):
            Bounds(0)
        ax = Axiom("a", strong(Id(Unit), Id(Unit)))
        with pytest.raises(TheoryError, match="duplicate axiom name"):
            Theory(EffectKind.STATES, axioms=(ax, ax))

    @pytest.mark.parametrize("make,error", [
        (lambda huge: Bounds(-huge, 1), SemanticsError),
        (lambda huge: OperationTable(EffectKind.STATES, huge, {}), ModelMismatch),
        (lambda huge: OperationSymbol("f", Unit, Unit, huge), TheoryError),
    ], ids=["Bounds", "OperationTable", "OperationSymbol"])
    def test_check_rejects_a_huge_integer(self, make, error):
        # repr refuses an int of more than 4,300 digits
        with pytest.raises(error, match="<int too large to print>"):
            make(10 ** 5000)
