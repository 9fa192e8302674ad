"""Finite models: evaluation, satisfaction, enumeration, countermodels."""
import itertools
import math
import random
import re
import time

import pytest

from decolog.calculus import (
    Axiom,
    BaseType,
    Comp,
    EffectKind,
    Id,
    Op,
    OperationSymbol,
    Prod,
    Proj1,
    SideTypeMismatch,
    Theory,
    UndeclaredSymbol,
    Unit,
    analysis,
    compose,
    pair,
    quoted,
    strong,
    weak,
)
from decolog.semantics import (
    Bounds,
    BoundsTooLarge,
    FactoringInvariantError,
    FiniteModel,
    ModelMismatch,
    OperationTable,
    SemanticsError,
    UNIT,
    UnknownBaseType,
    _Layout,
    _layouts,
    count_interpretations,
    enumerate_models,
    eval_term,
    exc,
    find_counterexample,
    first_violation,
    holds,
    ok,
    validate_model,
)

from decolog import semantics
from decolog.files import corpus_path, parse_equation, parse_theory
from gen import random_theory
import reference
from reference import RankNotIncreasing, coerce, weak_equal

Int = BaseType("Int")
EX = EffectKind.EXCEPTIONS
ST = EffectKind.STATES

Z4 = tuple(range(4))
Z2 = tuple(range(2))


class TestInterpretType:
    """_Layout.values: the elements of a type in numbering order."""

    def test_unit_singleton(self, bank_mod4):
        layout = _Layout(ST, bank_mod4.carriers, bank_mod4.effect_carrier)
        assert layout.values(Unit) == (UNIT,)

    def test_product_order(self):
        layout = _Layout(ST, {"A": (0, 1), "B": ("x", "y")}, (0,))
        got = layout.values(Prod(BaseType("A"), BaseType("B")))
        assert got == ((0, "x"), (0, "y"), (1, "x"), (1, "y"))

    def test_unknown_base(self, bank_mod4):
        layout = _Layout(ST, bank_mod4.carriers, bank_mod4.effect_carrier)
        with pytest.raises(UnknownBaseType):
            layout.values(BaseType("Bool"))


class TestCoerce:
    def test_exceptions_pure_up(self):
        t = OperationTable(EX, 0, {0: 1, 1: 0})
        up = coerce(t, 0, 2, EX, ("e",))
        assert up.mapping == {ok(0): ok(1), ok(1): ok(0), exc("e"): exc("e")}

    def test_states_pure_up(self):
        t = OperationTable(ST, 0, {0: 1})
        up = coerce(t, 0, 2, ST, ("s", "t"))
        assert up.mapping == {(0, "s"): (1, "s"), (0, "t"): (1, "t")}

    def test_states_observer_up(self):
        t = OperationTable(ST, 1, {(UNIT, 0): 0, (UNIT, 1): 1})
        up = coerce(t, 1, 2, ST, (0, 1))
        assert up.mapping == {(UNIT, 0): (0, 0), (UNIT, 1): (1, 1)}

    def test_rank_not_increasing(self):
        t = OperationTable(EX, 1, {0: ok(0)})
        with pytest.raises(RankNotIncreasing):
            coerce(t, 1, 0, EX, (0,))

    def test_identity_coercion(self):
        t = OperationTable(EX, 1, {0: ok(0)})
        assert coerce(t, 1, 1, EX, (0,)).mapping == t.mapping

    def test_shape_mismatch_rejected(self):
        t = OperationTable(EX, 1, {0: ok(0)})
        with pytest.raises(ModelMismatch):
            coerce(t, 0, 2, EX, (0,))


class TestEvalStates:
    def test_bank_f_writes_then_reads(self, bank, bank_mod4):
        theory, f, _ = bank
        fm = eval_term(bank_mod4, theory, f).mapping
        # deposit 7 from state 1: new state (1+3)%4 = 0, balance reads 0
        assert fm[(UNIT, 1)] == (0, 0)
        assert all(fm[(UNIT, s)] == ((s + 3) % 4, (s + 3) % 4) for s in Z4)

    def test_bank_g_reads_then_adds(self, bank, bank_mod4):
        theory, _, g = bank
        gm = eval_term(bank_mod4, theory, g).mapping
        # 7 + balance without any write: state survives
        assert gm[(UNIT, 1)] == (0, 1)
        assert all(gm[(UNIT, s)] == ((s + 3) % 4, s) for s in Z4)

    def test_weak_holds_strong_fails(self, bank, bank_mod4):
        theory, f, g = bank
        assert holds(bank_mod4, theory, weak(f, g))
        assert not holds(bank_mod4, theory, strong(f, g))

    def test_axiom_holds(self, bank, bank_mod4):
        theory, _, _ = bank
        assert holds(bank_mod4, theory, theory.axiom("ax1").equation)

    def test_projections_and_pairs(self, bank, bank_mod4):
        theory, _, _ = bank
        t = compose(Proj1(Int, Int), pair(Op("seven"), Op("seven")))
        m = eval_term(bank_mod4, theory, t).mapping
        assert all(m[(UNIT, s)] == (3, s) for s in Z4)

    def test_a_term_evaluated_again_is_not_run_again(self, bank, bank_mod4, monkeypatch):
        """eval_term's term is the left side of the kept check of strong
        t == t, so, as an equation side does, it reruns only when a table it
        reads has changed: three calls on one model run its steps once."""
        theory = bank[0]
        fresh = Theory(theory.effect, theory.base_types, theory.operations, theory.axioms)
        runs = []
        run = semantics._run
        monkeypatch.setattr(semantics, "_run", lambda *args: runs.append(args) or run(*args))
        tables = [eval_term(bank_mod4, fresh, Op("plus")) for _ in "abc"]
        assert len(runs) == 1 and tables[0] == tables[1] == tables[2]
        assert tables[0].mapping[((1, 2), 3)] == (3, 3)

    def test_a_term_is_checked_as_given(self, bank, bank_mod4):
        """eval_term checks the term it is given, not its normal form: an
        identity over an undeclared type is refused though normalization
        would drop it."""
        theory = bank[0]
        with pytest.raises(UndeclaredSymbol, match="^base type 'Nope' is not declared$"):
            eval_term(bank_mod4, theory, Comp(Op("balance"), Id(BaseType("Nope"))))


class TestEvalExceptions:
    def test_throw_raises(self, throwcatch):
        theory, model = throwcatch
        m = eval_term(model, theory, Op("throw")).mapping
        assert m[ok(UNIT)] == exc(0)
        assert m[exc(0)] == exc(0)

    def test_catch_recovers(self, throwcatch):
        theory, model = throwcatch
        t = compose(Op("catchZero"), Op("throw"))
        m = eval_term(model, theory, t).mapping
        assert m[ok(UNIT)] == ok(0)
        # incoming exceptions are caught before throw ever runs? no:
        # throw is a propagator, so an incoming exception passes through it
        # and is then recovered by the catcher
        assert m[exc(0)] == ok(0)

    def test_axioms_hold(self, throwcatch):
        theory, model = throwcatch
        for ax in theory.axioms:
            assert holds(model, theory, ax.equation)

    def test_ax2_is_not_strong(self, throwcatch):
        theory, model = throwcatch
        ax2 = theory.axiom("ax2").equation
        assert not holds(model, theory, strong(ax2.lhs, ax2.rhs))

    def test_double_catch_equals_zero_weakly(self, throwcatch):
        theory, model = throwcatch
        t = compose(Op("catchZero"), Op("catchZero"), Op("throw"))
        assert holds(model, theory, weak(t, Op("zero")))

    def test_out_of_codomain_value_is_a_mismatch(self, throwcatch):
        theory, model = throwcatch
        tables = dict(model.tables, zero=OperationTable(EX, 0, {UNIT: 7}))
        broken = FiniteModel(EX, model.carriers, model.effect_carrier, tables)
        eq = weak(compose(Op("catchZero"), Op("zero")), Op("zero"))
        with pytest.raises(ModelMismatch, match="outside its codomain"):
            holds(broken, theory, eq)
        with pytest.raises(ModelMismatch, match="outside its codomain"):
            eval_term(broken, theory, Op("zero"))

    def test_missing_row_or_table_is_a_mismatch(self, throwcatch):
        theory, model = throwcatch
        partial = dict(model.tables, catchZero=OperationTable(EX, 2, {ok(0): ok(0)}))
        with pytest.raises(ModelMismatch, match="no row"):
            eval_term(FiniteModel(EX, model.carriers, (0,), partial), theory, Op("catchZero"))
        missing = {k: v for k, v in model.tables.items() if k != "throw"}
        with pytest.raises(ModelMismatch, match="no table"):
            eval_term(FiniteModel(EX, model.carriers, (0,), missing), theory, Op("throw"))

    def test_row_outside_the_domain_is_a_mismatch(self, throwcatch, bank, bank_mod4):
        # every evaluation call rejects what validate_model rejects: a row
        # outside the domain, and the carrier checks
        theory, model = throwcatch
        rows = dict(model.tables["catchZero"].mapping, **{"extra": ok(0)})
        tables = dict(model.tables, catchZero=OperationTable(EX, 2, rows))
        broken = FiniteModel(EX, model.carriers, model.effect_carrier, tables)
        cases = [(theory, broken, Op("catchZero"), weak(Op("catchZero"), Id(Int)),
                  "row for 'extra' outside its domain")]
        bank_theory = bank[0]
        plus = Op("plus")
        cases += [
            (bank_theory, FiniteModel(ST, {"Int": (0, 0, 1, 2, 3)}, Z4, bank_mod4.tables),
             plus, strong(plus, plus), "carrier for 'Int' has duplicate labels"),
            (bank_theory, FiniteModel(EX, bank_mod4.carriers, Z4, bank_mod4.tables),
             plus, strong(plus, plus), "model is for effect exceptions"),
            (bank_theory, FiniteModel(ST, {}, Z4, bank_mod4.tables),
             plus, strong(plus, plus), "missing or empty carrier for base type 'Int'"),
        ]
        A = BaseType("A")
        tiny = Theory(effect=ST, base_types=("A",),
                      operations=(OperationSymbol("f", A, A, 0),))
        ff = compose(Op("f"), Op("f"))
        cases += [
            (tiny, FiniteModel(ST, {"A": ()}, (0,), {"f": OperationTable(ST, 0, {})}),
             ff, strong(ff, Op("f")), "missing or empty carrier for base type 'A'"),
            (tiny, FiniteModel(ST, {"A": (0,)}, (), {"f": OperationTable(ST, 0, {0: 0})}),
             ff, strong(ff, Op("f")), "effect carrier must be non-empty"),
        ]
        for theory, broken, term, eq, message in cases:
            for call in (lambda: eval_term(broken, theory, term),
                         lambda: holds(broken, theory, eq),
                         lambda: first_violation(broken, theory, eq),
                         lambda: validate_model(theory, broken)):
                with pytest.raises(ModelMismatch, match=message):
                    call()


def conserves(effect, rank, mapping):
    """Whether _Layout.conservation at the rank passes a rank-2 table from
    A = {0} to B = {0, 1}, given by its labels (states {0, 1}, or the one
    exception 0)."""
    layout = _Layout(effect, {"A": (0,), "B": (0, 1)}, (0, 1) if effect is ST else (0,))
    ins, outs = layout.labels(BaseType("A")), layout.labels(BaseType("B"))
    test = layout.conservation(rank, 1, 2)
    return test is None or test(tuple(outs.index(mapping[x]) for x in ins))


class TestFactoring:
    def test_state_write_detected(self):
        bad = {(0, 0): (0, 1), (0, 1): (0, 1)}
        assert not conserves(ST, 1, bad)
        assert conserves(ST, 2, bad)

    def test_state_read_detected_for_pure(self):
        reads = {(0, 0): (0, 0), (0, 1): (1, 1)}
        assert not conserves(ST, 0, reads)
        assert conserves(ST, 1, reads)

    def test_unpropagated_exception_detected(self):
        bad = {ok(0): ok(0), exc(0): ok(0)}
        assert not conserves(EX, 1, bad)
        assert conserves(EX, 2, bad)

    def test_raise_detected_for_pure(self):
        raises = {ok(0): exc(0), exc(0): exc(0)}
        assert not conserves(EX, 0, raises)
        assert conserves(EX, 1, raises)

    def test_clean_tables_pass(self):
        assert conserves(ST, 0, {(0, 0): (1, 0), (0, 1): (1, 1)})
        assert conserves(EX, 0, {ok(0): ok(1), exc(0): exc(0)})

    def test_a_failed_table_is_never_kept(self):
        # a side keeps its last value only once it passes the check: a pure
        # f whose rank-2 table raises on ok(0) fails on every run
        theory = Theory(EX, ("Int",), (OperationSymbol("f", Int, Int, 0),))
        side = semantics._Side(_Layout(EX, {"Int": Z2}, (0,)), (0,), analysis(theory, Op("f")))
        raises, swaps = [(2, 0, 2)], [(1, 0, 2)]
        texts = []
        for _ in range(2):
            with pytest.raises(FactoringInvariantError) as error:
                side.run(raises)
            texts.append(str(error.value))
        assert texts[0] == texts[1] and "rank-0 term Int -> Int" in texts[0]
        assert side.run(swaps) == (1, 0, 2) == side.run([(1, 0, 2)])
        with pytest.raises(FactoringInvariantError):
            side.run(raises)


class TestWeakEqual:
    def test_exceptions_ignores_exc_inputs(self):
        a = {ok(0): ok(1), exc(0): exc(0)}
        b = {ok(0): ok(1), exc(0): ok(5)}
        assert weak_equal(EX, a, b)
        b[ok(0)] = ok(2)
        assert not weak_equal(EX, a, b)

    def test_states_compares_values_only(self):
        a = {(0, 0): (1, 0), (0, 1): (1, 1)}
        b = {(0, 0): (1, 7), (0, 1): (1, 9)}
        assert weak_equal(ST, a, b)
        b[(0, 0)] = (2, 0)
        assert not weak_equal(ST, a, b)

    def test_numbered_exceptions_ignores_exc_inputs(self):
        # one value in, six out, one exception: ok(b) is b and exc(0) is 6
        view = _Layout(EX, {}, (0,)).weak_view(1, 6)
        a, b = (1, 6), (1, 5)
        assert view(a) == view(b)
        assert view(a) != view((2, 5))

    def test_numbered_states_compares_values_only(self):
        # one value in, three out, two states: (b, s) is b*2 + s
        view = _Layout(ST, {}, (0, 1)).weak_view(1, 3)
        a, b = (2, 3), (3, 2)
        assert view(a) == view(b)
        assert view(a) != view((4, 2))


class TestValidateModel:
    def test_accepts_good_models(self, bank, bank_mod4, throwcatch):
        theory, _, _ = bank
        validate_model(theory, bank_mod4)
        validate_model(throwcatch[0], throwcatch[1])

    def test_missing_table(self, bank, bank_mod4):
        theory, _, _ = bank
        tables = dict(bank_mod4.tables)
        del tables["plus"]
        with pytest.raises(ModelMismatch):
            validate_model(theory, FiniteModel(ST, bank_mod4.carriers, Z4, tables))

    def test_wrong_rank(self, bank, bank_mod4):
        theory, _, _ = bank
        tables = dict(bank_mod4.tables)
        tables["seven"] = OperationTable(ST, 1, {(UNIT, s): 3 for s in Z4})
        with pytest.raises(ModelMismatch):
            validate_model(theory, FiniteModel(ST, bank_mod4.carriers, Z4, tables))

    def test_not_total(self, bank, bank_mod4):
        theory, _, _ = bank
        tables = dict(bank_mod4.tables)
        tables["balance"] = OperationTable(ST, 1, {(UNIT, 0): 0})
        with pytest.raises(ModelMismatch):
            validate_model(theory, FiniteModel(ST, bank_mod4.carriers, Z4, tables))

    def test_out_of_codomain(self, bank, bank_mod4):
        theory, _, _ = bank
        tables = dict(bank_mod4.tables)
        tables["seven"] = OperationTable(ST, 0, {UNIT: 9})
        with pytest.raises(ModelMismatch):
            validate_model(theory, FiniteModel(ST, bank_mod4.carriers, Z4, tables))

    def test_effect_mismatch(self, bank, bank_mod4):
        theory, _, _ = bank
        wrong = FiniteModel(EX, bank_mod4.carriers, Z4, bank_mod4.tables)
        with pytest.raises(ModelMismatch):
            validate_model(theory, wrong)

    def test_row_outside_the_domain(self, bank, bank_mod4):
        theory, _, _ = bank
        tables = dict(bank_mod4.tables)
        tables["seven"] = OperationTable(ST, 0, {UNIT: 3, 5: 3})
        with pytest.raises(ModelMismatch, match="row for 5 outside its domain"):
            validate_model(theory, FiniteModel(ST, bank_mod4.carriers, Z4, tables))

    def test_duplicate_labels(self, bank, bank_mod4):
        theory, _, _ = bank
        with pytest.raises(ModelMismatch):
            validate_model(theory, FiniteModel(ST, {"Int": (0, 0, 1, 2)}, Z4,
                                               bank_mod4.tables))

    @pytest.mark.parametrize("call", [
        lambda theory, model, f, g: validate_model(theory, model),
        lambda theory, model, f, g: holds(model, theory, weak(f, g)),
        lambda theory, model, f, g: eval_term(model, theory, g),
        lambda theory, model, f, g: first_violation(model, theory, weak(f, g)),
    ], ids=["validate_model", "holds", "eval_term", "first_violation"])
    @pytest.mark.parametrize("where", ["table", "carrier"])
    def test_huge_integer_echo(self, bank, bank_mod4, call, where):
        # repr refuses an int of more than 4,300 digits, alone or in a tuple
        theory, f, g = bank
        huge = 10 ** 5000
        if where == "table":
            tables = {**bank_mod4.tables, "seven": OperationTable(ST, 0, {UNIT: huge})}
            model = FiniteModel(ST, bank_mod4.carriers, Z4, tables)
        else:
            model = FiniteModel(ST, {"Int": (huge, 1, 2, 3)}, Z4, bank_mod4.tables)
        with pytest.raises(ModelMismatch, match="too large to print") as err:
            call(theory, model, f, g)
        message = str(err.value)
        assert "\n" not in message and len(message) < 200


TINY = Theory(effect=ST, base_types=("B",),
              operations=(OperationSymbol("u", BaseType("B"), BaseType("B"), 0),))
TINY_ID = Theory(effect=ST, base_types=("B",),
                 operations=(OperationSymbol("u", BaseType("B"), BaseType("B"), 0),),
                 axioms=(Axiom("ax1", strong(Op("u"), Id(BaseType("B")))),))


class TestEnumeration:
    def test_count_interpretations(self):
        # |B|=1: 1 table; |B|=2: 2^2 tables; St size is irrelevant to a pure op
        assert count_interpretations(TINY, Bounds(base=2, effect=1)) == 5
        assert count_interpretations(TINY, Bounds(base=2, effect=2)) == 10

    def test_enumerates_all_without_axioms(self):
        assert len(list(enumerate_models(TINY, Bounds(base=2, effect=1)))) == 5

    def test_axiom_filter(self):
        models = list(enumerate_models(TINY_ID, Bounds(base=2, effect=1)))
        assert len(models) == 2
        for m in models:
            assert holds(m, TINY_ID, TINY_ID.axioms[0].equation)

    def test_order_is_stable(self):
        a = list(enumerate_models(TINY, Bounds(base=2, effect=2)))
        b = list(enumerate_models(TINY, Bounds(base=2, effect=2)))
        assert a == b

    @pytest.mark.parametrize("bounds", [
        dict(base=0), dict(effect=0), dict(base=3, effect=-1), dict(base=-1, effect=-1),
        dict(base=float("nan")), dict(base=2.5), dict(base="2", effect=2), dict(effect=None),
    ])
    def test_bounds_below_1_are_rejected(self, bounds):
        with pytest.raises(SemanticsError):
            list(enumerate_models(TINY, Bounds(**bounds)))

    def test_bounds_that_are_not_ints_are_rejected(self):
        # unrefused, a NaN bound would search nothing and answer None, and 2.5 size 3
        goal = strong(Op("u"), Id(BaseType("B")))
        assert find_counterexample(TINY, goal, Bounds(2, 1)) is not None
        for base, effect in ((float("nan"), 1), (2.5, 1), ("2", 2), (2, 2.5), (2, None)):
            with pytest.raises(SemanticsError, match="^carrier bounds must be integers, got "
                               f"base {re.escape(quoted(base))}, effect {quoted(effect)}$"):
                find_counterexample(TINY, goal, Bounds(base, effect))
        for base, effect in ((0, 1), (0.5, 2), (2, float("-inf"))):
            with pytest.raises(SemanticsError, match="^carrier bounds must be at least 1, got "
                               f"base {quoted(base)}, effect {quoted(effect)}$"):
                Bounds(base, effect)
        assert Bounds(True, True) == Bounds(1, 1)

    @pytest.mark.parametrize("cap", [2.5, float("nan"), "1000", None])
    def test_a_ceiling_that_is_not_an_int_is_rejected(self, cap):
        goal = strong(Op("u"), Id(BaseType("B")))
        for search in (lambda: list(enumerate_models(TINY, max_interpretations=cap)),
                       lambda: find_counterexample(TINY, goal, max_interpretations=cap)):
            with pytest.raises(SemanticsError, match="^the interpretation ceiling must be an "
                               f"integer, got {re.escape(quoted(cap))}$"):
                search()
        with pytest.raises(BoundsTooLarge, match="ceiling is True$"):  # bool is an int
            find_counterexample(TINY, goal, max_interpretations=True)

    def test_bounds_too_large(self, bank):
        theory, _, _ = bank
        with pytest.raises(BoundsTooLarge):
            list(enumerate_models(theory, Bounds(base=4, effect=4),
                                  max_interpretations=1000))

    def test_bank_interpretation_count(self, bank):
        # |Int|=1: st=1 gives 1, st=2 gives 4; |Int|=2: st=1 gives
        # 2*16*2*1=64, st=2 gives 2*16*4*16=2048; total 2117
        theory, _, _ = bank
        assert count_interpretations(theory, Bounds(base=2, effect=2)) == 2117

    def test_many_base_types(self):
        # 1,200 base types: the carrier sizes are counted out with a loop
        a, t, g = BaseType("A"), Op("t"), Op("g")
        theory = Theory(EffectKind.EXCEPTIONS, ("A", *(f"U{i}" for i in range(1200))),
                        (OperationSymbol("t", a, a, 1), OperationSymbol("g", a, a, 1)),
                        (Axiom("ax1", strong(compose(g, t), t)),))
        assert count_interpretations(theory, Bounds(1, 1)) == 4
        assert len(list(enumerate_models(theory, Bounds(1, 1)))) == 3

    def test_layouts_in_canonical_order(self):
        # the first base type varies slowest, the effect carrier fastest
        layouts = _layouts(ST, ("A", "B", "C"), Bounds(3, 2), least={"B"})
        sizes = [tuple(map(len, layout.carriers.values())) + (layout.k,) for layout in layouts]
        assert sizes == list(itertools.product(range(1, 4), [1], range(1, 4), range(1, 3)))

    def test_enumerated_models_validate(self):
        rng = random.Random(7)
        for _ in range(3):
            theory = random_theory(rng, ST, n_ops=1, max_rank=1)
            try:
                models = list(enumerate_models(theory, Bounds(base=1, effect=1),
                                               max_interpretations=2000))
            except BoundsTooLarge:
                continue
            for m in models[:20]:
                validate_model(theory, m)


class TestCounterexample:
    def test_first_in_canonical_order(self):
        cex = find_counterexample(TINY, strong(Op("u"), Id(BaseType("B"))),
                                  Bounds(base=2, effect=1))
        assert cex is not None
        # the constant-0 table on |B|=2 is the first violator
        assert cex.model.tables["u"].mapping == {0: 0, 1: 0}
        assert cex.witness == (1, 0)
        assert cex.lhs_value == (0, 0)
        assert cex.rhs_value == (1, 0)

    def test_respects_axioms(self):
        cex = find_counterexample(TINY_ID, strong(Op("u"), Id(BaseType("B"))),
                                  Bounds(base=2, effect=2))
        assert cex is None

    def test_none_when_valid(self, bank):
        theory, f, _ = bank
        assert find_counterexample(theory, weak(f, f), Bounds(base=2, effect=1)) is None

    def test_bounds_below_1_are_rejected(self, bank):
        theory, f, g = bank
        with pytest.raises(SemanticsError):
            find_counterexample(theory, strong(f, g), Bounds(base=0, effect=0))

    def test_weak_witness_is_ok_input(self, throwcatch):
        theory, _ = throwcatch
        eq = weak(Op("throw"), compose(Op("throw"), Id(Unit)))
        assert find_counterexample(theory, eq, Bounds(base=2, effect=2)) is None

    def test_bank_strong_fails_weak_survives(self, bank):
        theory, f, g = bank
        assert find_counterexample(theory, strong(f, g), Bounds(base=2, effect=2)) is not None
        assert find_counterexample(theory, weak(f, g), Bounds(base=2, effect=2)) is None

    def test_analysis_does_not_grow_with_candidates(self, bank, monkeypatch):
        # every equation is analysed once per search, never once per model,
        # and each of its parts is walked once, from a cold memo each time
        import decolog.calculus
        import decolog.semantics
        theory, f, g = bank
        calls, walked = [], []
        original, callback = decolog.calculus.analysis, decolog.calculus._analysis

        def counted(*args):
            calls.append(args)
            return original(*args)

        def counted_walk(*args):
            walked.append(args[1])
            return callback(*args)

        for module in (decolog.calculus, decolog.semantics):
            monkeypatch.setattr(module, "analysis", counted)
        monkeypatch.setattr(decolog.calculus, "_analysis", counted_walk)
        counts = []
        for bound in (1, 2):
            theory.__dict__["_analyses"].clear()
            calls.clear()
            walked.clear()
            assert find_counterexample(theory, weak(f, g), Bounds(bound, bound)) is None
            counts.append((len(calls), len(walked)))
        assert count_interpretations(theory, Bounds(2, 2)) == 2117
        assert 0 < counts[0][0] == counts[1][0] and 0 < counts[0][1] == counts[1][1]

    def test_ceiling_guard(self, bank):
        theory, f, g = bank
        with pytest.raises(BoundsTooLarge):
            find_counterexample(theory, weak(f, g), Bounds(base=3, effect=3),
                                max_interpretations=100)

    def test_ill_formed_goal_is_reported_before_the_ceiling(self, bank):
        theory, f, _ = bank
        with pytest.raises(SideTypeMismatch):
            find_counterexample(theory, strong(f, Op("plus")), Bounds(10 ** 9, 10 ** 9),
                                max_interpretations=1)

    def test_a_wide_table_is_refused_at_once(self):
        # w's table at |A| = 2 has 2 ** 23 rows of 4 outputs: a count of
        # 4 ** (2 ** 23) takes seconds to build, and passes the ceiling
        theory = parse_theory(f"effect exceptions\ntype A\nop w : {wide(23)} -> A propagator\n")
        started = time.perf_counter()
        with pytest.raises(BoundsTooLarge) as error:
            find_counterexample(theory, parse_equation("strong w == w", theory), Bounds(2, 2))
        assert time.perf_counter() - started < 1
        assert str(error.value) == ("more than 10000000 interpretations within bounds, "
                                    "ceiling is 10000000")

    def test_the_ceiling_bounds_the_cells_a_search_builds(self):
        # the goal never reads w, but the search builds w's first table,
        # 2 ** factors rows at |A| = 2, and a found model decodes it
        def search(factors, ceiling):
            theory = parse_theory(f"effect states\ntype A\nop u : A -> A pure\n"
                                  f"op w : {wide(factors)} -> A pure\n")
            return find_counterexample(theory, parse_equation("strong u . u == u", theory),
                                       Bounds(2, 1), max_interpretations=ceiling)

        with pytest.raises(BoundsTooLarge) as error:
            search(18, 10 ** 5)
        assert str(error.value) == ("more than 100000 table cells in one carrier assignment "
                                    "within bounds, ceiling is 100000")
        found = search(16, semantics.DEFAULT_MAX_INTERPRETATIONS)
        assert (found.witness, found.lhs_value, found.rhs_value) == ((0, 0), (0, 0), (1, 0))
        assert found.model.tables["u"].mapping == {0: 1, 1: 0}
        w = found.model.tables["w"].mapping
        assert len(w) == 2 ** 16 and set(w.values()) == {0}


def wide(factors: int, name: str = "A") -> str:
    """The product type of factors copies of name."""
    return " * ".join([name] * factors)


#: The shape of a generated benchmark theory: an axiom over va, declared
#: first, then two over sa.
STAGED = """effect exceptions
type TC
type TZ
op va : TC -> TC pure
{extra}op sa : TZ -> TZ catcher
axiom weak va . va ~ va
axiom strong sa == sa . sa
axiom weak id(TZ) ~ sa . sa
"""


class TestStagedSearch:
    """The search checks each axiom once the tables it reads are assigned
    and skips the subtree below one that fails."""

    @staticmethod
    def holds_calls(monkeypatch, search) -> int:
        calls = []
        original = semantics._Check.holds

        def counted(self, tables):
            calls.append(1)
            return original(self, tables)

        with monkeypatch.context() as patch:
            patch.setattr(semantics._Check, "holds", counted)
            search()
        return len(calls)

    def test_a_failed_axiom_skips_its_subtree(self, monkeypatch):
        theory = parse_theory(STAGED.format(extra=""))
        goal = parse_equation("strong va . va == va", theory)
        total = count_interpretations(theory, Bounds())
        # every candidate costs at least one check when each is tested whole;
        # here the va axiom runs once per va table, and the goal skips every
        # sa table
        for search in (lambda: list(enumerate_models(theory)),
                       lambda: find_counterexample(theory, goal)):
            assert 0 < self.holds_calls(monkeypatch, search) < total

    @pytest.mark.parametrize("goal, refuted", [
        ("strong sa . sa == sa", False), ("strong va . va == va", False),
        ("strong sa == id(TZ)", True), ("strong va == id(TC)", True)])
    def test_an_unused_operation_costs_the_search_nothing(self, monkeypatch, goal, refuted):
        counts, found = [], []
        for extra in ("", "op un : TC -> TZ propagator\n"):
            theory = parse_theory(STAGED.format(extra=extra))
            eq = parse_equation(goal, theory)
            counts.append(self.holds_calls(
                monkeypatch, lambda: found.append(find_counterexample(theory, eq))))
        assert counts[0] == counts[1] > 0
        plain, extended = found
        assert (plain is not None, extended is not None) == (refuted, refuted)
        if refuted:
            # the unused table is the least one; the rest is the same model
            tables = dict(extended.model.tables)
            assert tables.pop("un").mapping == {x: ("ok", 0) for x in tables["va"].mapping}
            assert tables == plain.model.tables
            assert extended.witness == plain.witness and extended.lhs_value == plain.lhs_value

    def test_the_ceiling_counts_only_the_walked_tables(self):
        # the plain theory has 1,570 raw interpretations, and un raises the
        # count to 19,586; a goal's search never walks un, so the plain
        # theory's count is the ceiling it needs
        ceiling = count_interpretations(parse_theory(STAGED.format(extra="")), Bounds())
        theory = parse_theory(STAGED.format(extra="op un : TC -> TZ propagator\n"))
        assert (ceiling, count_interpretations(theory, Bounds())) == (1570, 19586)
        refuted = find_counterexample(theory, parse_equation("strong sa == id(TZ)", theory),
                                      max_interpretations=ceiling)
        assert refuted is not None and refuted.witness == ("exc", 0)
        assert find_counterexample(theory, parse_equation("strong sa . sa == sa", theory),
                                   max_interpretations=ceiling) is None
        # enumerate_models walks every table, un's among them
        with pytest.raises(BoundsTooLarge):
            enumerate_models(theory, max_interpretations=ceiling)

    def test_the_goal_part_is_walked_first(self, monkeypatch):
        # sa shares no equation with va, declared first: a search on sa
        # walks sa first, and where sa's goal holds it never assigns va
        theory = parse_theory(STAGED.format(extra=""))
        goal = parse_equation("strong sa . sa == sa . sa . sa . sa", theory)
        program = semantics._program(theory, (goal,), axioms=True)
        assert program.walked == (1, 0)
        ran = []
        original = semantics._Check.holds
        monkeypatch.setattr(semantics._Check, "holds",
                            lambda self, tables: ran.append(self) or original(self, tables))
        assert find_counterexample(theory, goal) is None
        # the va axiom's checks, which its compiled entry keeps per carrier sizes
        va_checks = set(program._equations[0][4].values())
        assert va_checks and ran and va_checks.isdisjoint(ran)

    def test_a_refuted_goal_part_meets_the_first_countermodel(self):
        theory = parse_theory(STAGED.format(extra=""))
        goal = parse_equation("strong sa == id(TZ)", theory)
        assert semantics._program(theory, (goal,), axioms=True).walked == (1, 0)
        found, want = find_counterexample(theory, goal), reference.find_counterexample(theory, goal)
        assert found is not None
        assert (found.model, found.witness, found.lhs_value, found.rhs_value) == (
            want.model, want.witness, want.lhs_value, want.rhs_value)

    @pytest.mark.parametrize("name", sorted(p.name for p in corpus_path("").glob("*.dth")))
    def test_a_search_without_a_goal_walks_in_declaration_order(self, name):
        theory = parse_theory(corpus_path(name).read_text())
        walked = semantics._program(theory, axioms=True).walked
        assert walked == tuple(range(len(theory.operations)))


class TestKeptSides:
    """A compiled side keeps its last value: the search runs a side again
    only when a table it reads has changed."""

    def test_a_side_is_run_again_only_for_new_tables(self, monkeypatch):
        theory = parse_theory(corpus_path("throwcatch.dth").read_text())
        goal = parse_equation("weak catchZero . catchZero ~ id(Int)", theory)
        runs, layouts, sides = [], [], []
        run, at, side_run = semantics._run, semantics._Program.at, semantics._Side.run

        def counted(steps, tables):
            runs.append(steps)
            return run(steps, tables)
        monkeypatch.setattr(semantics, "_run", counted)
        monkeypatch.setattr(semantics._Program, "at",
                            lambda self, layout: layouts.append(layout) or at(self, layout))
        monkeypatch.setattr(semantics._Side, "run",
                            lambda self, tables: sides.append(1) or side_run(self, tables))
        assert find_counterexample(theory, goal) is None
        # id(Int) in the first axiom and in the goal reads no operation: each
        # runs once per carrier-size assignment, and the sides together run
        # less often than they are asked for
        reading_none = [id(steps) for steps in runs if not any(s.__class__ is int for s in steps)]
        assert len(layouts) == 4
        assert len(reading_none) == len(set(reading_none)) == 2 * len(layouts)
        assert len(runs) < len(sides)

    def test_a_warm_search_builds_nothing_from_sizes(self, bank, bank_mod4, monkeypatch):
        """A layout builds its lifters, pairers, conservation tests and weak
        views only when a check, a side or a lifter list is first specialised
        to carrier sizes, which the theory keeps: so a second search and a
        second holds on the same theory build none, and no layout needs to
        keep them."""
        theory, f, g = bank
        theory = Theory(theory.effect, theory.base_types, theory.operations, theory.axioms)
        built = []
        for name in ("lifter", "pairer", "conservation", "weak_view"):
            def counted(layout, *sizes, name=name, method=getattr(_Layout, name)):
                built.append(name)
                return method(layout, *sizes)
            monkeypatch.setattr(_Layout, name, counted)
        for want in ({"lifter", "pairer", "conservation", "weak_view"}, set()):
            built.clear()
            assert find_counterexample(theory, strong(f, g)) is not None
            assert holds(bank_mod4, theory, weak(f, g))
            assert set(built) == want


#: An exhausted search at Bounds(3, 3) with room for types that nothing
#: reads, declared before and after A.
UNREAD = """effect exceptions
{before}type A
{after}op t : A -> A propagator
op g : A -> A propagator
axiom strong g . t == t
"""


class TestOrbitSearch:
    """find_counterexample walks one labelling per orbit: it skips a subtree
    when a relabelling of the carriers maps the walked tables so far to
    smaller ones, and gives each base type that nothing reads its least
    carrier.  tests/test_differential.py holds its answers to the
    exhaustive search."""

    @staticmethod
    def search(theory, goal, bounds=Bounds(3, 3), **ceiling):
        return find_counterexample(theory, parse_equation(goal, theory), bounds, **ceiling)

    def test_an_unread_type_costs_the_search_nothing(self, monkeypatch):
        layouts, found, models = [], [], []
        original = semantics._Program.at
        for before, after in (("", ""), ("type U\n", ""),
                              ("type U\n", "type V\nop w : V * V -> U pure\n")):
            theory = parse_theory(UNREAD.format(before=before, after=after))
            with monkeypatch.context() as patch:
                patch.setattr(semantics._Program, "at",
                              lambda self, layout: layouts.append(layout) or original(self, layout))
                found.append(self.search(theory, "strong g . g . t == t"))
            models.append(self.search(theory, "strong g . t == g"))
        # one layout per size of A and of the effect carrier, each time
        assert found == [None] * 3 and len(layouts) == 27
        assert {tuple(layout.carriers.get("U", ())) for layout in layouts} == {(), (0,)}
        # the countermodel is the plain one with the least carriers and tables added
        plain, unread, both = models
        assert (unread.witness, unread.lhs_value, unread.rhs_value) == (
            plain.witness, plain.lhs_value, plain.rhs_value)
        assert dict(both.model.carriers) == {**plain.model.carriers, "U": (0,), "V": (0,)}
        assert both.model.tables["w"].mapping == {(0, 0): 0}
        assert {name: both.model.tables[name] for name in "tg"} == dict(plain.model.tables)

    def test_relabelled_twins_are_skipped(self, bank, monkeypatch):
        theory, f, g = bank
        program = semantics._Program(theory, [ax.equation for ax in theory.axioms] + [weak(f, g)])
        calls = []
        original = semantics._Check.holds
        monkeypatch.setattr(semantics._Check, "holds",
                            lambda self, tables: calls.append(1) or original(self, tables))
        assert find_counterexample(theory, weak(f, g)) is None
        pruned, calls[:] = len(calls), []
        # the same walk, every labelling of it
        assert list(semantics._admitted(program, Bounds())) == []
        assert (pruned, len(calls)) == (962, 2458)

    def test_the_ceiling_counts_only_the_layouts_walked(self):
        # U's carrier stays at size 1, so a search needs the plain theory's
        # ceiling; w, over U alone, has a 3 ** 9-row table at |U| = 3
        plain = parse_theory(UNREAD.format(before="", after=""))
        theory = parse_theory(UNREAD.format(before="type U\n",
                                            after=f"op w : {wide(9, 'U')} -> U pure\n"))
        ceiling = count_interpretations(plain, Bounds(3, 3))
        assert count_interpretations(theory, Bounds(3, 3)) > 3 * ceiling
        assert self.search(theory, "strong g . g . t == t", max_interpretations=ceiling) is None
        with pytest.raises(BoundsTooLarge):
            self.search(theory, "strong g . g . t == t", max_interpretations=ceiling - 1)
        with pytest.raises(BoundsTooLarge):
            enumerate_models(theory, Bounds(3, 3), max_interpretations=10 ** 7)

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_a_twin_is_the_relabelled_table(self, effect):
        # a raw table decoded in a twin (each label at a number replaced by
        # its image) and numbered back is the relabeller's image of it
        rng = random.Random(len(effect.value))
        A, B = BaseType("A"), BaseType("B")
        for _ in range(60):
            layout = _Layout(effect, {"A": tuple(range(rng.randint(1, 3))),
                                      "B": tuple(range(rng.randint(1, 2)))},
                             tuple(range(rng.randint(1, 3))))
            sym = OperationSymbol("f", rng.choice((A, B, Prod(A, B), Unit)),
                                  rng.choice((A, B, Prod(B, A), Unit)), rng.randint(0, 2))
            ins, outs = layout.raw_shape(*layout.shape(sym))
            # a rank-2 operation over both types, so every carrier is permuted
            twins = list(layout.relabellings([sym, OperationSymbol("h", A, B, 2)]))
            sizes = [len(c) for c in layout.carriers.values()] + [layout.k]
            assert len(twins) == math.prod(map(math.factorial, sizes)) - 1
            pure = list(layout.relabellings([OperationSymbol("u", A, A, 0)]))
            assert len(pure) == math.factorial(len(layout.carriers["A"])) - 1
            for twin in twins[:12]:
                relabel = layout.relabeller(twin, sym)
                raw = tuple(rng.randrange(outs) for _ in range(ins))
                image = layout.number(sym, OperationTable(
                    effect, sym.decoration, twin.decode(sym.decoration, sym.dom, sym.cod, raw)))
                assert (raw if relabel is None else relabel(raw)) == image


@pytest.mark.parametrize("name, admitted", [("bank.dth", 341), ("throwcatch.dth", 74)])
def test_found_models_renumber_to_their_raw_tables(name, admitted):
    # _Layout.model decodes and _Layout.number encodes through one table,
    # raw_labels, so every admitted model renumbers to the assignment found
    theory = parse_theory(corpus_path(name).read_text())
    program = semantics._Program(theory, [ax.equation for ax in theory.axioms])
    models = 0
    for layout, assignment, _, _ in semantics._admitted(program, Bounds(2, 2)):
        model = layout.model(theory, assignment)
        renumbered = _Layout.of_model(theory, model)
        assert tuple(renumbered.number(sym, model.tables[sym.name])
                     for sym in theory.operations) == assignment
        models += 1
    assert models == admitted
