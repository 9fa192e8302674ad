"""Text formats: tokenizer, parsers, printers, round-trips."""
import random

import pytest

from decolog.calculus import (
    BaseType,
    EffectKind,
    Op,
    OperationSymbol,
    Prod,
    Strength,
    Theory,
    TheoryError,
    compose,
)
from decolog import calculus
from decolog.deduction import check_derivation, deriv, REFL, AXIOM
from decolog.duality import dualize_derivation, duality_map
from decolog.files import (
    MAX_DEPTH,
    MAX_INT_DIGITS,
    ParseError,
    corpus_path,
    element_str,
    parse_derivation,
    parse_equation,
    parse_model,
    parse_term,
    parse_theory,
    print_derivation,
    print_equation,
    print_model,
    print_theory,
    tokenize,
)
from decolog.semantics import ModelMismatch, exc, ok, validate_model

from gen import random_theory

Int = BaseType("Int")

CORPUS = ("bank.dth", "bank_mod4.model", "bank_proof.drv",
          "throwcatch.dth", "throwcatch_mod2.model", "throwcatch_proof.drv")


@pytest.fixture(scope="session")
def bank_file():
    return parse_theory(corpus_path("bank.dth").read_text())


@pytest.fixture(scope="session")
def throwcatch_file():
    return parse_theory(corpus_path("throwcatch.dth").read_text())


class TestTokenizer:
    def test_kinds_and_positions(self):
        toks = tokenize("op f : A -> B pure\n")
        kinds = [(t.kind, t.value) for t in toks]
        assert kinds == [("IDENT", "op"), ("IDENT", "f"), ("SYM", ":"),
                         ("IDENT", "A"), ("SYM", "->"), ("IDENT", "B"),
                         ("IDENT", "pure"), ("NL", "\n"), ("EOF", "")]
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[4].line, toks[4].col) == (1, 10)

    def test_comments_vanish(self):
        toks = tokenize("a # the rest is ignored ∘∘∘\nb")
        assert [t.value for t in toks if t.kind == "IDENT"] == ["a", "b"]

    def test_two_char_symbols_win(self):
        toks = tokenize("a->b==c")
        assert [t.value for t in toks[:5]] == ["a", "->", "b", "==", "c"]

    def test_negative_int(self):
        toks = tokenize("-12")
        assert toks[0].kind == "INT" and toks[0].value == "-12"

    def test_unknown_character_located(self):
        with pytest.raises(ParseError) as err:
            tokenize("ab\ncd @")
        assert err.value.line == 2 and err.value.col == 4

    def test_ring_operator(self):
        toks = tokenize("f∘g")
        assert [t.value for t in toks[:3]] == ["f", "∘", "g"]


class TestLexicalLimits:
    def test_integers_are_decimal_digits(self):
        assert [t.value for t in tokenize("12 ٣ -7")[:3]] == ["12", "٣", "-7"]
        for text, col in (("²", 1), ("1²", 2), ("-①", 1), ("x Ⅷ", 3)):
            with pytest.raises(ParseError, match="unexpected character") as err:
                tokenize(text)
            assert err.value.col == col

    def test_non_decimal_digits_continue_identifiers(self):
        assert [t.value for t in tokenize("x² _Ⅷ")[:2]] == ["x²", "_Ⅷ"]

    def test_integer_length_limit(self):
        longest = "9" * MAX_INT_DIGITS
        assert tokenize(longest)[0].value == longest
        assert tokenize("-" + longest)[0].value == "-" + longest
        with pytest.raises(ParseError, match=f"longer than {MAX_INT_DIGITS} digits") as err:
            tokenize("a\n  " + longest + "9")
        assert (err.value.line, err.value.col) == (2, 3)

    def test_comment_column_quirk(self):
        toks = tokenize("a  # note\nb # end")
        assert [(t.kind, t.col) for t in toks] == [
            ("IDENT", 1), ("NL", 4), ("IDENT", 1), ("EOF", 3)]

    def test_lexical_error_comes_before_parse_errors(self, bank_file):
        with pytest.raises(ParseError, match="unexpected character '@'"):
            parse_theory("effect chaos\n@")
        with pytest.raises(ParseError, match="unexpected character '@'"):
            parse_model("table withdraw\n@", bank_file)


class TestTheoryFiles:
    def test_corpus_bank_matches_fixture(self, bank, bank_file):
        theory, f, g = bank
        assert bank_file.effect is EffectKind.STATES
        assert bank_file.operations == theory.operations
        assert bank_file.axioms == theory.axioms
        assert dict(bank_file.definitions) == {"f": f, "g": g}

    def test_corpus_throwcatch_matches_fixture(self, throwcatch, throwcatch_file):
        theory, _ = throwcatch
        assert throwcatch_file.operations == theory.operations
        assert throwcatch_file.axioms == theory.axioms

    def test_a_definition_named_by_a_builtin_does_not_shadow_it(self):
        """The file reads on with id(T) as the builtin, and the theory then
        refuses the definition's name."""
        text = ("effect states\ntype Int\nop g : Int -> Int pure\ndef id = g\n"
                "axiom strong id(Int) == id(Int)\n")
        with pytest.raises(TheoryError, match="^definition may not shadow builtin 'id'$"):
            parse_theory(text)

    def test_axioms_autonamed_in_order(self, throwcatch_file):
        assert [ax.name for ax in throwcatch_file.axioms] == ["ax1", "ax2"]

    def test_explicit_axiom_name(self):
        t = parse_theory("effect states\ntype A\n"
                         "op u : A -> A pure\n"
                         "axiom idem : strong u . u == u\n")
        assert t.axioms[0].name == "idem"

    def test_definitions_expand(self, bank_file):
        term = parse_term("f", bank_file)
        assert term == compose(Op("balance"), Op("deposit"), Op("seven"))

    def test_keyword_must_match_effect(self):
        text = "effect exceptions\ntype A\nop r : A -> A observer\n"
        with pytest.raises(TheoryError):
            parse_theory(text)

    def test_unknown_keyword_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_theory("effect states\ntype A\nop r : A -> A reader\n")

    def test_effect_required_first(self):
        with pytest.raises(ParseError):
            parse_theory("type A\nop r : A -> A pure\neffect states\n")
        with pytest.raises(ParseError):
            parse_theory("type A\n")

    def test_duplicate_effect(self):
        with pytest.raises(ParseError):
            parse_theory("effect states\neffect exceptions\n")

    def test_unknown_effect(self):
        with pytest.raises(ParseError):
            parse_theory("effect chaos\n")

    def test_strength_and_operator_must_agree(self):
        with pytest.raises(ParseError):
            parse_theory("effect states\ntype A\nop u : A -> A pure\n"
                         "axiom strong u ~ u\n")

    def test_unbalanced_pair_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_theory("effect states\ntype A\nop u : A -> A pure\n"
                         "axiom strong <u, u == u\n")

    def test_stanza_must_end_at_line_end(self):
        with pytest.raises(ParseError):
            parse_theory("effect states extra\n")

    def test_product_types_parse_left_associated(self):
        t = parse_theory("effect states\ntype A\nop m : A * A * A -> A pure\n")
        A = BaseType("A")
        assert t.op("m").dom == Prod(Prod(A, A), A)

    def test_ring_composition_accepted(self, bank_file):
        assert parse_term("balance ∘ deposit", bank_file) == \
            parse_term("balance . deposit", bank_file)

    def test_corpus_round_trip(self, bank_file, throwcatch_file):
        for t in (bank_file, throwcatch_file):
            assert parse_theory(print_theory(t)) == t

    @pytest.mark.parametrize("seed", range(15))
    def test_random_theory_round_trip(self, seed):
        rng = random.Random(seed)
        effect = rng.choice(list(EffectKind))
        t = random_theory(rng, effect, n_axioms=rng.randrange(3))
        assert parse_theory(print_theory(t)) == t


class TestEquationStrings:
    def test_weak_goal(self, bank_file):
        eq = parse_equation("weak f ~ g", bank_file)
        assert eq.strength is Strength.WEAK
        assert eq.lhs == compose(Op("balance"), Op("deposit"), Op("seven"))

    def test_strong_goal(self, bank_file):
        eq = parse_equation("strong f == f", bank_file)
        assert eq.strength is Strength.STRONG

    def test_operator_mismatch(self, bank_file):
        with pytest.raises(ParseError):
            parse_equation("strong f ~ g", bank_file)

    def test_trailing_junk(self, bank_file):
        with pytest.raises(ParseError):
            parse_equation("weak f ~ g g", bank_file)

    def test_print_round_trip(self, bank_file):
        eq = parse_equation("weak f ~ g", bank_file)
        assert parse_equation(print_equation(eq), bank_file) == eq

    def test_a_name_reads_as_its_declaration(self):
        """A declared operation's name reads as its Op and a definition's as
        its term, after the builtins; a token no declaration spells (an
        undeclared name, an operation named by a str subclass, a definition
        named by a bracket) reads as it would without it."""
        class S(str):
            pass
        theory = Theory(EffectKind.STATES, ("Int",),
                        (OperationSymbol(S("f"), Int, Int, 0), OperationSymbol("g", Int, Int, 0)),
                        definitions=(("(", Op("g")), ("h", compose(Op("g"), Op("g")))))
        assert parse_term("g . h", theory) == compose(Op("g"), Op("g"), Op("g"))
        assert parse_term("(g)", theory) is Op("g") and parse_term("k", theory) is Op("k")
        found = parse_term("f", theory)
        assert found is Op("f") and found.name.__class__ is str
        d = parse_derivation("(trans_strong (refl h) (axiom ax1) side=2 t=id(Int) . f)", theory)
        assert d.params == (("side", 2), ("t", Op("f")))
        assert [p.params for p in d.premises] == [(("term", compose(Op("g"), Op("g"))),),
                                                  (("name", "ax1"),)]


class TestModelFiles:
    def test_corpus_bank_model_matches_fixture(self, bank_file, bank_mod4):
        model = parse_model(corpus_path("bank_mod4.model").read_text(), bank_file)
        assert model == bank_mod4
        validate_model(bank_file, model)

    def test_corpus_throwcatch_model_matches_fixture(self, throwcatch,
                                                     throwcatch_file):
        _, fixture_model = throwcatch
        model = parse_model(corpus_path("throwcatch_mod2.model").read_text(),
                            throwcatch_file)
        assert model == fixture_model

    def test_round_trip(self, bank_file, bank_mod4):
        assert parse_model(print_model(bank_mod4), bank_file) == bank_mod4

    def test_tagged_elements(self, throwcatch_file):
        model = parse_model(corpus_path("throwcatch_mod2.model").read_text(),
                            throwcatch_file)
        table = model.tables["catchZero"].mapping
        assert table[exc(0)] == ok(0)
        assert table[ok(1)] == ok(1)

    def test_element_rendering(self):
        assert element_str(ok((0, 1))) == "ok((0, 1))"
        assert element_str(("*", 3)) == "(*, 3)"
        assert element_str(((0, 1), 2)) == "((0, 1), 2)"

    def test_nested_tuple_elements_parse(self, bank_file):
        text = ("effectcarrier = {0}\ncarrier Int = {0}\n"
                "table plus\n  ((0, 0), 0) -> 0\n")
        model = parse_model(text, bank_file)
        assert ((0, 0), 0) in model.tables["plus"].mapping

    def test_undeclared_table_is_mismatch(self, bank_file):
        with pytest.raises(ModelMismatch):
            parse_model("effectcarrier = {0}\ntable withdraw\n  * -> 0\n",
                        bank_file)

    def test_duplicate_row(self, bank_file):
        with pytest.raises(ParseError):
            parse_model("effectcarrier = {0}\ncarrier Int = {0}\n"
                        "table seven\n  * -> 0\n  * -> 0\n", bank_file)

    def test_duplicate_carrier(self, bank_file):
        with pytest.raises(ParseError):
            parse_model("effectcarrier = {0}\ncarrier Int = {0}\n"
                        "carrier Int = {0}\n", bank_file)

    def test_missing_effectcarrier(self, bank_file):
        with pytest.raises(ParseError):
            parse_model("carrier Int = {0}\n", bank_file)

    def test_element_depth_limit(self, bank_file):
        def model(levels):
            element = "(" * levels + "0" + ")" * levels
            return f"effectcarrier = {{0}}\ncarrier Int = {{0}}\ntable seven\n  * -> {element}\n"
        assert parse_model(model(MAX_DEPTH), bank_file).tables["seven"].mapping == {"*": 0}
        for levels in (MAX_DEPTH + 1, 1200):
            with pytest.raises(ParseError, match="element nested deeper") as err:
                parse_model(model(levels), bank_file)
            assert (err.value.line, err.value.col) == (4, 8 + MAX_DEPTH)
        tagged = "ok(" * MAX_DEPTH + "0" + ")" * MAX_DEPTH
        with pytest.raises(ParseError, match="element nested deeper"):
            parse_model(f"effectcarrier = {{0}}\ntable seven\n  * -> ({tagged})\n", bank_file)

    def test_totality_left_to_validate(self, bank_file):
        text = "effectcarrier = {0, 1}\ncarrier Int = {0, 1}\ntable seven\n  * -> 0\n"
        model = parse_model(text, bank_file)
        with pytest.raises(ModelMismatch):
            validate_model(bank_file, model)


class TestDerivationFiles:
    def test_corpus_bank_proof_verifies(self, bank_file):
        d = parse_derivation(corpus_path("bank_proof.drv").read_text(), bank_file)
        goal = parse_equation("weak f ~ g", bank_file)
        check_derivation(bank_file, d, expected=goal)

    def test_corpus_throwcatch_proof_verifies(self, throwcatch_file):
        d = parse_derivation(corpus_path("throwcatch_proof.drv").read_text(),
                             throwcatch_file)
        goal = parse_equation("weak catchZero . catchZero . throw ~ zero",
                              throwcatch_file)
        check_derivation(throwcatch_file, d, expected=goal)

    def test_axiom_shorthand(self, bank_file):
        assert parse_derivation("(axiom ax1)", bank_file) == \
            deriv(AXIOM, name="ax1")

    def test_refl_shorthand_and_spelled_equation(self, bank_file):
        short = parse_derivation("(refl seven)", bank_file)
        spelled = parse_derivation("(refl seven == seven)", bank_file)
        assert short == spelled == deriv(REFL, term=Op("seven"))

    def test_refl_spelled_with_definition(self, bank_file):
        d = parse_derivation("(refl f == f)", bank_file)
        assert d.param_map()["term"] == \
            compose(Op("balance"), Op("deposit"), Op("seven"))

    def test_refl_sides_must_match(self, bank_file):
        with pytest.raises(ParseError):
            parse_derivation("(refl seven == balance)", bank_file)

    def test_side_parameter_is_int(self, bank_file):
        d = parse_derivation("(pair_proj f=seven g=balance side=2)", bank_file)
        assert d.param_map()["side"] == 2

    def test_term_params_absorb_composition(self, bank_file):
        d = parse_derivation("(weak_subst (axiom ax1) g=deposit . seven)",
                             bank_file)
        assert d.param_map()["g"] == compose(Op("deposit"), Op("seven"))

    def test_params_may_precede_or_follow_premises(self, bank_file):
        a = parse_derivation("(weak_subst (axiom ax1) g=seven)", bank_file)
        b = parse_derivation("(weak_subst g=seven (axiom ax1))", bank_file)
        assert a == b

    def test_round_trip(self, bank_file, throwcatch_file):
        for name, theory in (("bank_proof.drv", bank_file),
                             ("throwcatch_proof.drv", throwcatch_file)):
            d = parse_derivation(corpus_path(name).read_text(), theory)
            assert parse_derivation(print_derivation(d), theory) == d

    def test_a_derivation_read_again_walks_no_term(self, monkeypatch):
        """normalize keeps each term's normal form for the process, so reading
        a derivation a second time walks no term, against its theory or a fresh
        equal one, whether the theory has checked the derivation or not."""
        text = corpus_path("bank_proof.drv").read_text()
        theory, fresh = (parse_theory(corpus_path("bank.dth").read_text()) for _ in "ab")
        walked = []
        step = calculus._analysis
        monkeypatch.setattr(calculus, "_analysis",
                            lambda theory, *args: walked.append(theory) or step(theory, *args))
        monkeypatch.setattr(calculus, "_NORMAL", {})
        d = parse_derivation(text, theory)
        assert walked and all(each is None for each in walked)
        walked.clear()
        assert parse_derivation(text, fresh) is d and walked == []
        check_derivation(theory, d)
        walked.clear()
        assert parse_derivation(text, theory) is d and parse_derivation(text, fresh) is d
        assert walked == []

    def test_trailing_junk(self, bank_file):
        with pytest.raises(ParseError):
            parse_derivation("(refl seven) (refl seven)", bank_file)

    def test_unbalanced_parens(self, bank_file):
        with pytest.raises(ParseError):
            parse_derivation("(trans_strong (refl seven)", bank_file)

    def test_derivation_depth_limit(self, throwcatch_file):
        def nested(levels):
            return "(sym " * (levels - 1) + "(axiom ax1)" + ")" * (levels - 1)
        with pytest.raises(ParseError, match="derivation nested deeper"):
            parse_derivation(nested(MAX_DEPTH + 1), throwcatch_file)
        # at the limit every walker of derivations still has room, even
        # with a term at its own limit inside
        comp = " . ".join(["catchZero"] * MAX_DEPTH)
        for text in (nested(MAX_DEPTH),
                     "(sym " * (MAX_DEPTH - 1) + f"(refl {comp})" + ")" * (MAX_DEPTH - 1)):
            d = parse_derivation(text, throwcatch_file)
            check_derivation(throwcatch_file, d)
            printed = print_derivation(d)
            assert print_derivation(parse_derivation(printed, throwcatch_file)) == printed
            dualize_derivation(duality_map(throwcatch_file), d)

    def test_pair_term_at_its_limit_in_the_deepest_derivation(self, bank_file):
        pairs = "<" * (MAX_DEPTH - 1) + "seven" + ", seven>" * (MAX_DEPTH - 1)
        text = "(sym " * (MAX_DEPTH - 1) + f"(refl {pairs})" + ")" * (MAX_DEPTH - 1)
        d = parse_derivation(text, bank_file)
        check_derivation(bank_file, d)
        print_derivation(d)


class TestCorpus:
    @pytest.mark.parametrize("name", CORPUS)
    def test_all_files_ship(self, name):
        assert corpus_path(name).is_file()
