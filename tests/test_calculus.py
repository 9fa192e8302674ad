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
    CalculusError,
    Comp,
    CompositionTypeMismatch,
    DecoratedEquation,
    EffectKind,
    EquationReport,
    Id,
    Interned,
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
    UnitType,
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
from decolog.deduction import DepthExhausted, Derivation, check_derivation, prove
from decolog.duality import DualityMap, dualize_derivation, duality_map
from decolog.files import (corpus_path, parse_derivation, parse_equation, parse_model,
                           parse_theory, print_derivation)
from decolog.semantics import (Bounds, BoundsTooLarge, ModelMismatch, OperationTable,
                               SemanticsError, enumerate_models, eval_term,
                               find_counterexample, first_violation, holds)

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
        """What the engines compile from a theory (Theory._kept), prove's
        kept outcomes among it, is no more seen than the memo it is kept in.
        prove keeps a proof and a bounded give-up, but no refusal is kept:
        an ill-typed equation and a search past the ceiling are refused on
        every call, and an ill-typed prove leaves the kept outcomes as they
        were."""
        theory, fresh = self.with_axiom(bank), self.with_axiom(bank)
        f = compose(Op("balance"), Op("deposit"), Op("seven"))
        g = compose(Op("plus"), pair(Op("seven"), Op("balance")))
        assert find_counterexample(theory, strong(f, g)) is not None
        assert holds(bank_mod4, theory, weak(f, g))
        assert prove(theory, weak(f, g)).rule
        with pytest.raises(DepthExhausted):
            prove(theory, weak(f, g), max_depth=1)
        proofs = theory._kept((DecoratedEquation, Derivation))
        assert set(proofs) == {(weak(f, g).normalized(), depth, 4000) for depth in (8, 1)}
        assert Theory._kept in theory.__dict__["_analyses"]
        assert (theory, hash(theory), repr(theory)) == (fresh, hash(fresh), repr(fresh))
        assert pickle.dumps(theory) == pickle.dumps(fresh)
        for twin in (copy.copy(theory), copy.deepcopy(theory), pickle.loads(pickle.dumps(theory))):
            assert twin == theory and Theory._kept not in twin.__dict__["_analyses"]
        state = lambda: {kind: dict(table) for kind, table in
                         theory.__dict__["_analyses"][Theory._kept].items()}
        kept, kept_proofs = state(), dict(proofs)
        bad = strong(f, Op("plus"))
        for call in (lambda: holds(bank_mod4, theory, bad), lambda: prove(theory, bad),
                     lambda: find_counterexample(theory, bad)):
            refusals = []
            for _ in range(2):
                with pytest.raises(SideTypeMismatch) as refused:
                    call()
                refusals.append(str(refused.value))
            assert refusals[0] == refusals[1]
        assert state() == kept and proofs == kept_proofs
        for _ in range(2):
            with pytest.raises(BoundsTooLarge, match="ceiling is 100$"):
                find_counterexample(theory, weak(f, g), Bounds(3, 3), max_interpretations=100)

    def test_a_dropped_theory_is_freed_at_once(self, bank):
        """The compiled state refers back to no theory (a _Program keeps
        what it reads of its theory, not the theory, and neither the mirror
        nor its images refer to the source), so dropping theories that every
        engine has read, all nine kinds kept, frees their state by reference
        counting and leaves the cycle collector nothing."""
        theory = self.with_axiom(bank)
        goal = strong(compose(Op("balance"), Op("deposit"), Op("seven")),
                      compose(Op("plus"), pair(Op("seven"), Op("balance"))))
        texts = [corpus_path(name).read_text() for name in ("throwcatch.dth",
                                                            "throwcatch_mod2.model")]
        gc.collect()
        gc.disable()
        try:
            assert find_counterexample(theory, goal) is not None
            assert semantics._program(theory, (goal,), axioms=True).lifters
            tc = parse_theory(texts[0])
            eq = parse_equation("weak catchZero . catchZero . throw ~ zero", tc)
            proof = parse_derivation(print_derivation(prove(tc, eq)), tc)
            assert check_derivation(tc, proof, expected=eq).equation == eq.normalized()
            m = duality_map(tc)
            assert dualize_derivation(m, proof).rule
            model = parse_model(texts[1], tc)
            assert holds(model, tc, eq) and first_violation(model, tc, eq) is None
            assert eval_term(model, tc, eq.lhs)
            assert find_counterexample(tc, strong(Op("catchZero"), Id(Int))) is not None
            assert list(enumerate_models(tc, Bounds(1, 1)))
            kinds = {kind for t in (theory, tc, m.target)
                     for kind, table in t.__dict__["_analyses"][Theory._kept].items() if table}
            assert kinds == {Op, DecoratedEquation, semantics._Program, semantics._Layout,
                             deduction._Rewriter, Derivation, (DecoratedEquation, Derivation),
                             DualityMap, (DualityMap, Derivation)}
            del theory, goal, tc, eq, proof, m, model, kinds
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_kept_keeps_every_value_and_no_failure(self, bank):
        """Theory._kept's one rule: a build that raises leaves the table as
        it was and runs again on the next call; any value it returns, a
        falsy one (a give-up after 0 rewrites) too, is kept and read back;
        and two kinds never share an entry, not even under keys a
        DecoratedEquation and the plain tuple of its fields, which are equal."""
        theory, built = copy.copy(bank), []

        def build(value):
            built.append(value)
            if isinstance(value, Exception):
                raise value
            return value
        for _ in range(2):
            with pytest.raises(ValueError, match="^no$"):
                theory._kept(DecoratedEquation, "key", lambda: build(ValueError("no")))
            assert theory._kept(DecoratedEquation) == {}
        assert len(built) == 2
        assert [theory._kept(Derivation, "key", lambda: build(0)) for _ in range(2)] == [0, 0]
        assert theory._kept(Derivation) == {"key": 0} and built[2:] == [0]
        assert theory._kept(Op, build=lambda: build("names")) == "names"
        assert theory._kept(Op) == {None: "names"} and theory._kept(Op) is theory._kept(Op)
        eq = strong(Op("seven"), Op("seven"))
        assert eq == tuple(eq) and type(tuple(eq)) is tuple
        for kind, key in ((DecoratedEquation, eq), ((DecoratedEquation, Derivation), tuple(eq)),
                          (semantics._Program, tuple(eq))):
            assert theory._kept(kind, key, lambda: build(kind)) is kind
            assert theory._kept(kind, eq, lambda: build(None)) is kind
        assert built[4:] == [DecoratedEquation, (DecoratedEquation, Derivation),
                             semantics._Program]

    def test_a_dropped_dualized_theory_is_freed_at_once(self, throwcatch):
        """The mirror and the images it keeps refer back to no theory, so a
        theory that has dualized a proof leaves the cycle collector nothing."""
        theory = Theory(throwcatch.effect, throwcatch.base_types, throwcatch.operations, (
            Axiom("ax1", weak(Op("catchZero"), Id(Int))),
            Axiom("ax2", weak(compose(Op("catchZero"), Op("throw")), Op("zero")))))
        goal = weak(compose(Op("catchZero"), Op("catchZero"), Op("throw")), Op("zero"))
        gc.collect()
        gc.disable()
        try:
            m = duality_map(theory)
            image = dualize_derivation(m, prove(theory, goal))
            assert m.target._kept((DualityMap, Derivation)) and image.rule
            del theory, goal, m, image
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

    def test_a_strength_that_is_not_a_strength_is_rejected(self, bank, bank_mod4):
        """Unrefused, bank's weak f ~ g built with "weak" failed holds in the
        mod-4 model, could not be proved and was accepted as an axiom."""
        f = compose(Op("balance"), Op("deposit"), Op("seven"))
        g = compose(Op("plus"), pair(Op("seven"), Op("balance")))
        for strength, shown in (("weak", "'weak'"), ("strong", "'strong'"), (None, "None")):
            with pytest.raises(TheoryError, match=f"^strength must be a Strength, got {shown}$"):
                DecoratedEquation(strength, f, g)
        assert holds(bank_mod4, bank, DecoratedEquation(Strength.WEAK, f, g))

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

    def test_an_effect_that_is_not_an_effect_kind_is_rejected(self):
        """Unrefused, a str read as states: an "exceptions" theory found no
        countermodel to weak c ~ id(A) for a catcher c."""
        A = BaseType("A")
        ops = (OperationSymbol("c", A, A, 2),)
        for effect, shown in (("exceptions", "'exceptions'"), ("states", "'states'"),
                              (None, "None")):
            with pytest.raises(TheoryError, match=f"^effect must be an EffectKind, got {shown}$"):
                Theory(effect, ("A",), ops)
        theory = Theory(EffectKind.EXCEPTIONS, ("A",), ops)
        assert find_counterexample(theory, weak(Op("c"), Id(A)), Bounds(1, 1)) is not None

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            OperationSymbol("f", Unit, Unit, 3)

    def test_op_lookup(self, bank):
        assert bank.op("balance").decoration == 1
        with pytest.raises(UndeclaredSymbol):
            bank.op("overdraft")


def _record_classes() -> list[type]:
    """Every subclass of Record, at any depth, in a stable order."""
    classes, todo = [], [Record]
    while todo:
        below = todo.pop().__subclasses__()
        classes += below
        todo += below
    return sorted(classes, key=lambda c: (c.__module__, c.__qualname__))


class _Counted(Interned):
    """An interned class with a check, which counts its runs."""
    __slots__ = ()
    runs = []
    value: object = 0

    def __post_init__(self):
        _Counted.runs.append(self)


def _samples() -> dict[type, tuple]:
    """One valid value of each Record class, as its fields by position."""
    eq = strong(Op("f"), Op("f"))
    theory = Theory(EffectKind.STATES, ("Int",), (OperationSymbol("f", Int, Int, 0),))
    model = semantics.FiniteModel(EffectKind.STATES, {"Int": (0,)}, (0,), {})
    return {
        BaseType: ("Int",), UnitType: (), Prod: (Int, Int), Id: (Int,),
        Op: ("f",), Comp: (Op("f"), Op("g")), Pair: (Op("f"), Op("g")), Proj1: (Int, Unit),
        Proj2: (Int, Unit), Bang: (Int,), Interned: (), _Counted: (0,),
        DecoratedEquation: (Strength.STRONG, Op("f"), Op("f")),
        OperationSymbol: ("f", Int, Int, 0), Axiom: ("ax", eq),
        Theory: (EffectKind.STATES, ("Int",), (OperationSymbol("f", Int, Int, 0),), (), ()),
        EquationReport: (Int, Int, 0, 1),
        deduction.Rule: ((None,), ("g",), "sym"),
        Derivation: ("refl", (("term", Op("f")),), ()),
        deduction.Judgment: (eq, Int, Int),
        deduction.ScenarioResult: ("refl", EffectKind.STATES, "d", "sound", 3, 0, None),
        deduction.ValidationReport: (EffectKind.STATES, ()),
        deduction._Scenario: ("refl", "d", "sound", (), len),
        DualityMap: (theory, theory),
        OperationTable: (EffectKind.STATES, 1, {0: 1}),
        semantics.FiniteModel: (EffectKind.STATES, {"Int": (0,)}, (0,), {}),
        Bounds: (2, 2),
        semantics.Counterexample: (model, eq, 0, 0, 1),
    }


SAMPLES = _samples()
RECORD_CLASSES = _record_classes()


def _probed(cls: type, probes: tuple) -> list[tuple]:
    """cls's sample with one field replaced by each probe in turn, at the
    first field where every probe builds: [] when cls checks each field."""
    sample = SAMPLES[cls]
    for i in range(len(sample)):
        made = [sample[:i] + (probe,) + sample[i + 1:] for probe in probes]
        try:
            for args in made:
                cls(*args)
        except (TypeError, ValueError, AttributeError, CalculusError, SemanticsError):
            continue
        return made
    return []


class TestRecordContract:
    """The construction contract, on every Record class: the values, the
    interning, the errors and the copies a call gives.  The cases are
    generated from Record's subclasses, so a new class is covered at once."""

    def test_every_class_has_a_sample(self):
        assert len(RECORD_CLASSES) >= 28
        assert [c.__qualname__ for c in RECORD_CLASSES if c not in SAMPLES] == []

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
    def test_positions_keywords_and_defaults_agree(self, cls):
        args = SAMPLES[cls]
        fields, defaults = cls._fields, cls._defaults
        given = [cls(*args), cls(**dict(zip(fields, args))),
                 cls(*args[:1], **dict(zip(fields[1:], args[1:])))]
        required = [a for f, a in zip(fields, args) if f not in defaults]
        full = cls(*required, *[defaults[f] for f in fields if f in defaults])
        assert all(value == given[0] for value in given)
        assert cls(*required) == full and type(full) is cls
        assert full[1:] == (*required, *[defaults[f] for f in fields if f in defaults])
        if issubclass(cls, Interned):
            assert all(value is given[0] for value in given) and cls(*required) is full
        else:
            assert given[0] is not given[1]

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
    def test_a_wrong_call_names_the_fields(self, cls):
        args, fields = SAMPLES[cls], cls._fields
        text = f"{cls.__name__}() takes the fields {', '.join(fields)}"
        calls = [lambda: cls(*args, None), lambda: cls(*args, unknown=1)]
        if fields:
            calls += [lambda: cls(*args, **{fields[0]: args[0]})]
        if len(fields) > len(cls._defaults):
            calls += [lambda: cls()]
        for call in calls:
            with pytest.raises(TypeError) as error:
                call()
            assert str(error.value) == text

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
    def test_one_is_not_true_at_any_depth(self, cls):
        """1 == True, but a field, an item of a plain tuple field and an item
        two tuples deep each keep the class they were given, and an interned
        class keeps the two apart.  The classes without fields, and Theory,
        which checks each of its own, take no probe; Bounds takes only ints."""
        for probes in ((1, True), ((1,), (True,)), (("x", (1,)), ("x", (True,)))):
            made = _probed(cls, probes)
            if not made:
                assert cls in (Interned, Theory, UnitType) or cls is Bounds and probes[0] != 1
                continue
            ones, trues = cls(*made[0]), cls(*made[1])
            assert ones is not trues and "True" in repr(trues) and "True" not in repr(ones)
            if issubclass(cls, Interned):
                assert ones != trues and cls(*made[1]) is trues and cls(*made[0]) is ones

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
    def test_an_unhashable_field_is_built_not_interned(self, cls):
        made = _probed(cls, ([1], ("x", [2])))
        assert made or cls in (Interned, Theory, UnitType, Bounds)
        for args in made:
            first, second = cls(*args), cls(*args)
            assert first is not second and first[1:] == second[1:] == args
            if issubclass(cls, Interned):
                assert first != second

    def test_a_check_runs_on_each_miss_and_on_each_unkept_build(self):
        _Counted.runs.clear()
        kept = _Counted(("fresh", 41))
        assert _Counted(("fresh", 41)) is kept and _Counted(value=("fresh", 41)) is kept
        assert _Counted.runs == [kept]
        odd = [_Counted(["fresh"]), _Counted(value=["fresh"])]
        assert _Counted.runs == [kept, *odd] and odd[0] is not odd[1]
        with pytest.raises(TheoryError):
            OperationSymbol(["f"], Int, Int, 3)

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
    def test_copies_hand_back_the_interned_value(self, cls):
        value = cls(*SAMPLES[cls])
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value
            if issubclass(cls, Interned):
                assert twin is value


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

    def test_interning_keeps_each_fields_class_in_its_place(self):
        """A str subclass equal to a str is a class of its own, and so is
        each place: two records that swap a plain value and an equal
        subclass value between their fields, or 1 and True between a
        derivation's params, are two values, which a key holding the
        classes without their places would make one."""
        class S(str):
            pass
        assert Op(S("f")) is Op(S("f")) and Op(S("f")) is not Op("f")
        assert Op(S("f")).name.__class__ is S and Op("f").name.__class__ is str
        left, right = Proj1("a", S("b")), Proj1(S("a"), "b")
        assert left is not right and left != right
        assert left is Proj1("a", S("b")) and right is Proj1(S("a"), "b")
        assert [p.left_ty.__class__ for p in (left, right)] == [str, S]
        first = Derivation("sym", (("x", 1), ("y", True)))
        second = Derivation("sym", (("x", True), ("y", 1)))
        assert first is not second and first != second
        assert first is Derivation("sym", (("x", 1), ("y", True)))
        assert [value.__class__ for _, value in second.params] == [bool, int]

    def test_a_value_with_an_unhashable_field_is_not_interned(self):
        """Pair(f, [1]) is built and equals only itself; analysis refuses it
        as no term, with a theory or without, and the theory's memo is never
        asked for [1]."""
        odd = Pair(Op("f"), [1])
        assert odd == odd and odd != Pair(Op("f"), [1]) and odd[1:] == (Op("f"), [1])
        theory = Theory(EffectKind.STATES, ("Int",), (OperationSymbol("f", Int, Int, 0),))
        for value, text in ((odd, "[1]"), ([1], "[1]"), (Pair(Op("f"), (1, [2])), "(1, [2])")):
            for given in (None, theory, theory):
                with pytest.raises(TypeError) as error:
                    analysis(given, value)
                assert str(error.value) == f"not a term: {text}"

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

    @pytest.mark.parametrize("dom, cod, bad", [
        ("A", "A", "'A'"), (BaseType("A"), 1, "1"), (Prod(BaseType("A"), "A"), Unit, "'A'"),
        (Unit, Prod(Prod(Unit, None), Unit), "None")], ids=["str", "int", "in-product", "deep"])
    def test_an_operation_takes_types(self, dom, cod, bad):
        """A symbol whose domain or codomain is no type is refused where it is
        built, naming the operation: before, Theory took it, and the search
        or the equation check then raised a raw AttributeError."""
        A = BaseType("A")
        goal = strong(Op("f"), Id(A))
        for use in (lambda theory: find_counterexample(theory, goal),
                    lambda theory: check_equation_wf(theory, goal)):
            with pytest.raises(TheoryError) as error:
                use(Theory(EffectKind.STATES, ("A",), (OperationSymbol("f", dom, cod, 0),)))
            assert str(error.value) == f"operation 'f' takes types, got {bad}"

    @pytest.mark.parametrize("make,error", [
        (lambda huge: Bounds(-huge, 1), SemanticsError),
        (lambda huge: OperationTable(EffectKind.STATES, huge, {}), ModelMismatch),
        (lambda huge: OperationSymbol("f", Unit, Unit, huge), TheoryError),
    ], ids=["Bounds", "OperationTable", "OperationSymbol"])
    def test_check_rejects_a_huge_integer(self, make, error):
        # repr refuses an int of more than 4,300 digits
        with pytest.raises(error, match="<int too large to print>"):
            make(10 ** 5000)
