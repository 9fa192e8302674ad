"""The exceptions/states mirror on theories and derivations."""
import copy
import pickle
import random
from collections import Counter

import pytest

from decolog.calculus import (
    Bang,
    BaseType,
    EffectKind,
    Id,
    Op,
    Strength,
    Theory,
    Unit,
    compose,
)
from decolog import duality
from decolog.deduction import (
    AXIOM,
    PAIR_PROJ,
    REFL,
    SUBST_STRONG,
    TRANS_WEAK,
    UNIT_WEAK,
    WEAK_REPL,
    WEAK_SUBST,
    DeductionError,
    Derivation,
    check_derivation,
    deriv,
)
from decolog.duality import (
    DualityMap,
    NotDualizable,
    duality_map,
    dualize_derivation,
    dualize_term,
    dualize_theory,
)
from decolog.files import parse_derivation, print_derivation

from gen import random_derivation, random_theory

Int = BaseType("Int")


class TestDualizeTheory:
    def test_throwcatch_flips(self, throwcatch):
        theory, _ = throwcatch
        dual = dualize_theory(theory)
        assert dual.effect is EffectKind.STATES
        assert dual.base_types == theory.base_types
        throw = dual.op("throw")
        assert (throw.dom, throw.cod) == (Int, Unit)
        assert throw.decoration == 1
        catch = dual.op("catchZero")
        assert (catch.dom, catch.cod) == (Int, Int)
        assert catch.decoration == 2

    def test_axioms_reverse_composition(self, throwcatch):
        theory, _ = throwcatch
        dual = dualize_theory(theory)
        ax2 = dual.axiom("ax2").equation
        assert ax2.strength is Strength.WEAK
        assert ax2.lhs == compose(Op("throw"), Op("catchZero"))
        assert ax2.rhs == Op("zero")
        ax1 = dual.axiom("ax1").equation
        assert ax1.lhs == Op("catchZero")
        assert ax1.rhs == Id(Int)

    def test_involution_is_exact(self, throwcatch):
        theory, _ = throwcatch
        assert dualize_theory(dualize_theory(theory)) == theory

    def test_bank_is_not_dualizable(self, bank):
        theory, _, _ = bank
        with pytest.raises(NotDualizable) as err:
            dualize_theory(theory)
        assert any("pair" in o for o in err.value.offenders)

    def test_rank_preserved_across_random_theories(self):
        for seed in range(10):
            rng = random.Random(seed)
            theory = random_theory(rng, EffectKind.STATES, products=False)
            dual = dualize_theory(theory)
            for src, tgt in zip(theory.operations, dual.operations):
                assert src.name == tgt.name
                assert src.decoration == tgt.decoration
                assert (src.dom, src.cod) == (tgt.cod, tgt.dom)


class TestDualizeTerm:
    def test_reverses_spines(self):
        t = compose(Op("a"), Op("b"), Op("c"))
        d = dualize_term(t)
        assert d == compose(Op("c"), Op("b"), Op("a"))
        assert dualize_term(d) == t

    def test_atoms_self_dual(self):
        assert dualize_term(Op("f")) == Op("f")
        assert dualize_term(Id(Int)) == Id(Int)

    def test_bang_rejected(self):
        with pytest.raises(NotDualizable):
            dualize_term(Bang(Int))


class TestDualityMap:
    def test_effects_differ_and_names_match(self, throwcatch):
        theory, _ = throwcatch
        m = duality_map(theory)
        assert m.source.effect is not m.target.effect
        for src, tgt in m.correspondence():
            assert src.name == tgt.name

    def test_rows_spell_ranks_in_each_vocabulary(self, throwcatch):
        theory, _ = throwcatch
        rows = duality_map(theory).rows()
        by_name = {name: (s, t) for name, s, t in rows}
        assert "propagator" in by_name["throw"][0]
        assert "observer" in by_name["throw"][1]
        assert "catcher" in by_name["catchZero"][0]
        assert "modifier" in by_name["catchZero"][1]

    def test_mirror_is_kept_with_the_theory(self, throwcatch):
        """duality_map builds a theory's mirror once and keeps it in the
        theory's compiled state, so it is no part of the theory's value:
        ==, hash, repr, copy and pickle ignore it, and a copy builds its own."""
        theory, _ = throwcatch
        m = duality_map(theory)
        assert duality_map(theory).target is m.target
        assert m.target == dualize_theory(theory)
        assert duality_map(m.target).target == theory
        fresh = Theory(theory.effect, theory.base_types, theory.operations, theory.axioms,
                       theory.definitions)
        assert theory._kept(DualityMap) == {None: m.target} and fresh._kept(DualityMap) == {}
        assert (theory, hash(theory), repr(theory)) == (fresh, hash(fresh), repr(fresh))
        assert pickle.dumps(theory) == pickle.dumps(fresh)
        for twin in (copy.copy(theory), copy.deepcopy(theory), pickle.loads(pickle.dumps(theory))):
            assert twin == theory and twin._kept(DualityMap) == {}
            assert duality_map(twin).target == m.target

    def test_theory_without_a_mirror_is_refused_on_every_call(self, bank):
        theory, _, _ = bank
        refusals = []
        for _ in range(2):
            with pytest.raises(NotDualizable) as err:
                duality_map(theory)
            refusals.append((str(err.value), err.value.offenders))
        assert refusals[0] == refusals[1] and theory._kept(DualityMap) == {}


class TestDualizeDerivation:
    def test_corpus_proof_dualizes(self, throwcatch):
        theory, _ = throwcatch
        m = duality_map(theory)
        proof = deriv(
            TRANS_WEAK,
            deriv(WEAK_REPL, deriv(AXIOM, name="ax2"), h=Op("catchZero")),
            deriv(WEAK_SUBST, deriv(AXIOM, name="ax1"), g=Op("zero")))
        image = dualize_derivation(m, proof)
        assert image.rule == TRANS_WEAK
        assert image.premises[0].rule == WEAK_SUBST
        assert image.premises[0].param_map()["g"] == Op("catchZero")
        assert image.premises[1].rule == WEAK_REPL
        assert image.premises[1].param_map()["h"] == Op("zero")
        j = check_derivation(m.target, image)
        assert j.equation.strength is Strength.WEAK

    def test_refl_self_dual(self, throwcatch):
        theory, _ = throwcatch
        m = duality_map(theory)
        d = deriv(REFL, term=Op("zero"))
        assert dualize_derivation(m, d) == d

    def test_term_params_reverse(self, throwcatch):
        theory, _ = throwcatch
        m = duality_map(theory)
        d = deriv(SUBST_STRONG, deriv(REFL, term=Op("catchZero")),
                  g=compose(Op("catchZero"), Op("zero")))
        image = dualize_derivation(m, d)
        assert image.param_map()["h"] == compose(Op("zero"), Op("catchZero"))

    def test_pair_rule_rejected(self, throwcatch):
        theory, _ = throwcatch
        m = duality_map(theory)
        bad = deriv(PAIR_PROJ, f=Op("zero"), g=Op("zero"), side=1)
        with pytest.raises(NotDualizable) as err:
            dualize_derivation(m, bad)
        assert any(PAIR_PROJ in o for o in err.value.offenders)

    def test_unit_rule_rejected(self, throwcatch):
        theory, _ = throwcatch
        m = duality_map(theory)
        bad = deriv(UNIT_WEAK, f=Bang(Int))
        with pytest.raises(NotDualizable):
            dualize_derivation(m, bad)

    def test_offenders_name_the_failing_premise(self, throwcatch):
        theory, _ = throwcatch
        m = duality_map(theory)
        bad = deriv(TRANS_WEAK,
                    deriv(WEAK_REPL, deriv(AXIOM, name="ax2"), h=Op("catchZero")),
                    deriv(UNIT_WEAK, f=Bang(Int)))
        with pytest.raises(NotDualizable) as err:
            dualize_derivation(m, bad)
        assert any("premise 1" in o for o in err.value.offenders)


class TestKeptImages:
    """The mirror theory keeps each image dualize_derivation has checked,
    keyed by the interned source derivation, and nothing that failed."""

    @staticmethod
    def counted(monkeypatch) -> Counter:
        calls = Counter()
        original = duality._dual_derivation
        monkeypatch.setattr(duality, "_dual_derivation", lambda *args: (
            calls.update(["node"]) or original(*args)))
        return calls

    @staticmethod
    def proof():
        return deriv(TRANS_WEAK,
                     deriv(WEAK_REPL, deriv(AXIOM, name="ax2"), h=Op("catchZero")),
                     deriv(WEAK_SUBST, deriv(AXIOM, name="ax1"), g=Op("zero")))

    def test_a_repeat_is_read_back(self, throwcatch, monkeypatch):
        """An equal derivation built apart is dualized without a fold, to
        the same object; emptying the mirror's memo builds it again."""
        m = duality_map(copy.copy(throwcatch[0]))
        calls = self.counted(monkeypatch)
        image = dualize_derivation(m, self.proof())
        assert calls["node"] == 5
        apart = parse_derivation(print_derivation(self.proof()), m.source)
        assert apart == self.proof() and dualize_derivation(m, apart) is image
        assert calls["node"] == 5
        m.target._analyses.clear()
        assert duality_map(m.source).target is m.target
        assert dualize_derivation(m, apart) == image and calls["node"] == 10

    def test_a_refusal_is_never_kept(self, throwcatch, monkeypatch):
        m = duality_map(copy.copy(throwcatch[0]))
        calls = self.counted(monkeypatch)
        bad = deriv(TRANS_WEAK, self.proof(), deriv(UNIT_WEAK, f=Bang(Int)))
        refusals = []
        for _ in range(2):
            with pytest.raises(NotDualizable) as err:
                dualize_derivation(m, bad)
            refusals.append((str(err.value), err.value.offenders))
        assert refusals[0] == refusals[1] and calls["node"] == 0
        assert m.target._kept((DualityMap, Derivation)) == {}

    def test_a_kept_image_does_not_skip_the_source_check(self, throwcatch):
        """A map whose source does not derive the input refuses it on every
        call, also once the real map has kept the input's image."""
        theory = copy.copy(throwcatch[0])
        m = duality_map(theory)
        other = DualityMap(source=Theory(theory.effect, theory.base_types, theory.operations),
                           target=m.target)
        refusals = []
        for real in (False, True, True):
            if real:
                image = dualize_derivation(m, self.proof())
            with pytest.raises(DeductionError) as err:
                dualize_derivation(other, self.proof())
            refusals.append((type(err.value), err.value.path, str(err.value)))
        assert refusals == [refusals[0]] * 3 and "ax2" in refusals[0][2]
        assert m.target._kept((DualityMap, Derivation)) == {self.proof(): image}


class TestValidityPreservation:
    @pytest.mark.parametrize("seed", range(30))
    def test_states_derivations_dualize_and_round_trip(self, seed):
        rng = random.Random(seed)
        theory = random_theory(rng, EffectKind.STATES, products=False,
                               n_axioms=2)
        d = random_derivation(rng, theory, products=False)
        check_derivation(theory, d)
        m = duality_map(theory)
        image = dualize_derivation(m, d)
        check_derivation(m.target, image)
        back = dualize_derivation(duality_map(m.target), image)
        assert back == d

    @pytest.mark.parametrize("seed", range(10))
    def test_exceptions_derivations_dualize_too(self, seed):
        rng = random.Random(seed)
        theory = random_theory(rng, EffectKind.EXCEPTIONS, products=False,
                               n_axioms=2)
        d = random_derivation(rng, theory, products=False)
        m = duality_map(theory)
        check_derivation(m.target, dualize_derivation(m, d))
