"""Command line behavior: outputs, JSON reports, exit codes."""
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from decolog.cli import main
from decolog.deduction import check_derivation
from decolog.files import (
    MAX_DEPTH,
    corpus_path,
    parse_derivation,
    parse_equation,
    parse_theory,
)

BANK = str(corpus_path("bank.dth"))
BANK_MODEL = str(corpus_path("bank_mod4.model"))
BANK_PROOF = str(corpus_path("bank_proof.drv"))
TC = str(corpus_path("throwcatch.dth"))
TC_MODEL = str(corpus_path("throwcatch_mod2.model"))
TC_PROOF = str(corpus_path("throwcatch_proof.drv"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_bank_reports_definition_ranks(self, capsys):
        code, out, _ = run(capsys, "check", BANK)
        assert code == 0
        assert "def f : Unit -> Int [modifier, rank 2]" in out
        assert "def g : Unit -> Int [observer, rank 1]" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "check", BANK, "--json")
        assert code == 0
        data = json.loads(out)
        ranks = {d["name"]: d["rank"] for d in data["definitions"]}
        assert ranks == {"f": 2, "g": 1}
        assert data["ok"] is True
        assert data["effect"] == "states"
        assert [o["keyword"] for o in data["operations"]] == \
            ["pure", "pure", "observer", "modifier"]

    def test_keyword_effect_mismatch_is_semantic(self, capsys, tmp_path):
        path = tmp_path / "bad.dth"
        path.write_text("effect exceptions\ntype A\nop r : A -> A observer\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "observer" in err

    def test_syntax_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.dth"
        path.write_text("effect states\ntype A\nop u : A -> A pure\n"
                        "axiom strong <u, u == u\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line 4" in err

    def _check_with(self, capsys, tmp_path, base, extra):
        path = tmp_path / "deep.dth"
        path.write_text(corpus_path(base).read_text() + extra + "\n")
        return run(capsys, "check", str(path))

    def _assert_too_deep(self, result, what="term"):
        code, out, err = result
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"{what} nested deeper than {MAX_DEPTH}" in err

    def test_deep_composition_exits_2(self, capsys, tmp_path):
        factors = " . ".join(["catchZero"] * 1000)
        self._assert_too_deep(
            self._check_with(capsys, tmp_path, "throwcatch.dth", f"def d = {factors}"))

    def test_deeply_nested_pairs_exit_2(self, capsys, tmp_path):
        term = "<" * 800 + "seven" + ", seven>" * 800
        self._assert_too_deep(
            self._check_with(capsys, tmp_path, "bank.dth", f"def d = {term}"))

    def test_depth_limit_counts_factors_across_definitions(self, capsys, tmp_path):
        half = " . ".join(["catchZero"] * (MAX_DEPTH // 2))
        code, _, _ = self._check_with(capsys, tmp_path, "throwcatch.dth",
                                      f"def a = {half}\ndef b = a . a")
        assert code == 0
        self._assert_too_deep(self._check_with(
            capsys, tmp_path, "throwcatch.dth", f"def a = {half}\ndef b = a . a . zero"))

    def test_deep_types_exit_2(self, capsys, tmp_path):
        product = " * ".join(["Int"] * 1000)
        self._assert_too_deep(self._check_with(
            capsys, tmp_path, "bank.dth", f"op q : {product} -> Int pure"), "type")
        nested = "(" * 1000 + "Int" + ")" * 1000
        self._assert_too_deep(self._check_with(
            capsys, tmp_path, "bank.dth", f"op q : {nested} -> Int pure"), "type")
        # brackets of a term and of the types inside it share one budget
        mixed = "(" * 150 + "id(" + "(" * 150 + "Int" + ")" * 151 + ")" * 150
        self._assert_too_deep(self._check_with(
            capsys, tmp_path, "bank.dth", f"def d = {mixed}"), "type")

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "missing.dth"))
        assert code == 2
        assert "cannot read" in err


class TestDecorate:
    def test_definition_rank(self, capsys):
        code, out, _ = run(capsys, "decorate", BANK, "f")
        assert code == 0
        assert "[modifier, rank 2]" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decorate", BANK, "plus . <seven, balance>",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 1
        assert data["keyword"] == "observer"
        assert data["dom"] == "Unit"

    def test_ill_formed_term_exits_1(self, capsys):
        code, _, err = run(capsys, "decorate", BANK, "seven . seven")
        assert code == 1
        assert err


class TestVerify:
    def test_bank_proof_prints_the_conclusion(self, capsys):
        code, out, _ = run(capsys, "verify", BANK, BANK_PROOF)
        assert code == 0
        assert out.strip() == "weak: balance∘deposit∘seven ≈ plus∘<seven,balance>"

    def test_throwcatch_proof(self, capsys):
        code, out, _ = run(capsys, "verify", TC, TC_PROOF)
        assert code == 0
        assert out.strip() == "weak: catchZero∘catchZero∘throw ≈ zero"

    def test_rejected_derivation_names_the_node(self, capsys):
        code, _, err = run(capsys, "verify", BANK, TC_PROOF)
        assert code == 1
        assert "premise" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", BANK, BANK_PROOF, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["strength"] == "weak"
        assert data["lhs"] == "balance . deposit . seven"

    def _verify_nested(self, capsys, tmp_path, levels):
        path = tmp_path / "deep.drv"
        path.write_text("(sym " * (levels - 1) + "(axiom ax1)" + ")" * (levels - 1))
        return run(capsys, "verify", TC, str(path))

    def test_derivation_at_the_depth_limit_verifies(self, capsys, tmp_path):
        code, out, _ = self._verify_nested(capsys, tmp_path, MAX_DEPTH)
        assert code == 0
        sides = ["catchZero", "id(Int)"]
        if (MAX_DEPTH - 1) % 2:  # an odd number of syms flips the axiom
            sides.reverse()
        assert out.strip() == "weak: {} ≈ {}".format(*sides)

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 1000])
    def test_deeper_derivation_exits_2(self, capsys, tmp_path, levels):
        code, out, err = self._verify_nested(capsys, tmp_path, levels)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert f"derivation nested deeper than {MAX_DEPTH}" in err


class TestProve:
    def test_found_derivation_reparses_and_checks(self, capsys):
        code, out, _ = run(capsys, "prove", TC,
                           "weak catchZero . catchZero . throw ~ zero")
        assert code == 0
        theory = parse_theory(corpus_path("throwcatch.dth").read_text())
        d = parse_derivation(out, theory)
        goal = parse_equation("weak catchZero . catchZero . throw ~ zero", theory)
        check_derivation(theory, d, expected=goal)

    def test_unprovable_within_depth_exits_1(self, capsys):
        code, _, err = run(capsys, "prove", BANK, "strong f == g", "--depth", "5")
        assert code == 1
        assert "may still be derivable" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "prove", BANK, "weak f ~ g", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["found"] is True
        assert "derivation" in data

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_depth_below_1_is_a_usage_error(self, capsys, depth):
        with pytest.raises(SystemExit) as err:
            main(["prove", BANK, "weak f ~ g", "--depth", depth])
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err


class TestModelCheck:
    def test_weak_holds(self, capsys):
        code, out, _ = run(capsys, "model-check", BANK, BANK_MODEL, "weak f ~ g")
        assert code == 0
        assert out.startswith("holds:")

    def test_strong_violated_with_witness(self, capsys):
        code, out, _ = run(capsys, "model-check", BANK, BANK_MODEL,
                           "strong f == g")
        assert code == 1
        assert "at (*, 0): lhs gives (3, 3), rhs gives (3, 0)" in out

    def test_trivial_identity(self, capsys):
        code, _, _ = run(capsys, "model-check", BANK, BANK_MODEL,
                         "strong id(Int) == id(Int)")
        assert code == 0

    def test_incomplete_model_exits_3(self, capsys, tmp_path):
        path = tmp_path / "partial.model"
        path.write_text("effectcarrier = {0}\ncarrier Int = {0}\n"
                        "table seven\n  * -> 0\n")
        code, _, err = run(capsys, "model-check", BANK, str(path), "weak f ~ g")
        assert code == 3
        assert "model mismatch" in err

    def test_json_violation(self, capsys):
        code, out, _ = run(capsys, "model-check", BANK, BANK_MODEL,
                           "strong f == g", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["holds"] is False
        assert data["witness"] == "(*, 0)"

    @pytest.mark.parametrize("old, new, message", [
        ("* -> 3", "* -> " + "(" * 1200 + "3" + ")" * 1200,
         "line 7, col 208: element nested deeper than 200 levels"),
        ("* -> 3", "* -> " + "3" * 5000, "line 7, col 8: integer longer than 4300 digits"),
        ("{0, 1, 2, 3}\ncarrier", "{0, 1, 2, " + "3" * 5000 + "}\ncarrier",
         "line 4, col 27: integer longer than 4300 digits"),
        ("(0, 0) -> 0", "(0, 0) -> ²", "line 9, col 13: unexpected character '²'"),
        ("{0, 1, 2, 3}\ncarrier", "{0, 1²}\ncarrier", "line 4, col 22: unexpected character '²'"),
    ], ids=["nesting", "long-row-int", "long-set-int", "digit-row", "digit-set"])
    def test_malformed_element_exits_2(self, capsys, tmp_path, old, new, message):
        path = tmp_path / "bad.model"
        path.write_text(corpus_path("bank_mod4.model").read_text().replace(old, new, 1))
        code, out, err = run(capsys, "model-check", BANK, str(path), "weak f ~ g")
        assert (code, out) == (2, "")
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize("digits, code, message", [
        (640, 3, "model mismatch: table for 'seven' produces 333"),
        (641, 2, "parse error: line 7, col 8: integer longer than 640 digits"),
        (1000, 2, "parse error: line 7, col 8: integer longer than 640 digits"),
    ], ids=["640", "641", "1000"])
    def test_interpreter_int_limit_lowers_the_digit_limit(self, tmp_path, digits, code, message):
        """PYTHONINTMAXSTRDIGITS below MAX_INT_DIGITS lowers the parser's
        limit with it, so a long value is a parse error, not a traceback."""
        path = tmp_path / "long.model"
        path.write_text(corpus_path("bank_mod4.model").read_text().replace(
            "* -> 3", "* -> " + "3" * digits, 1))
        proc = subprocess.run(
            [sys.executable, "-m", "decolog.cli", "model-check", BANK, str(path), "weak f ~ g"],
            env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1


class TestLongEchoes:
    """An error that echoes an input shows at most its first 40 characters,
    and "..." after them; a shorter echo is shown whole."""

    LONG_NAME = "q" * 1200
    LONG_INT = "5" * 4000

    def _model(self, tmp_path, old, new):
        path = tmp_path / "long.model"
        path.write_text(corpus_path("bank_mod4.model").read_text().replace(old, new, 1))
        return str(path)

    def test_undeclared_operation(self, capsys):
        code, out, err = run(capsys, "model-check", BANK, BANK_MODEL,
                             f"weak {self.LONG_NAME} ~ seven")
        assert (code, out) == (1, "")
        assert err == "error: operation '" + "q" * 40 + "'... is not declared\n"

    def test_table_value(self, capsys, tmp_path):
        model = self._model(tmp_path, "* -> 3", "* -> " + self.LONG_INT)
        code, out, err = run(capsys, "model-check", BANK, model, "weak f ~ g")
        assert (code, out) == (3, "")
        assert err == ("model mismatch: table for 'seven' produces " + "5" * 40
                       + "... outside its codomain\n")

    def test_row_outside_the_domain(self, capsys, tmp_path):
        model = self._model(tmp_path, "(0, 0) -> 0", f"(0, 0) -> 0\n  ({self.LONG_INT}, 0) -> 0")
        code, out, err = run(capsys, "model-check", BANK, model, "weak f ~ g")
        assert (code, out) == (3, "")
        assert err == ("model mismatch: table for 'plus' has a row for (" + "5" * 39
                       + "... outside its domain\n")

    def test_row_label_parse_error(self, capsys, tmp_path):
        model = self._model(tmp_path, "(0, 0) -> 0", f"{self.LONG_NAME} -> 0")
        code, out, err = run(capsys, "model-check", BANK, model, "weak f ~ g")
        assert (code, out) == (2, "")
        assert err == "parse error: line 9, col 3: expected an element, got '" + "q" * 40 + "'...\n"

    @pytest.mark.parametrize("extra, shown", [
        ([LONG_NAME], "q" * 40 + "..."),
        (["x", "y"], "x y"),
        (["q" * 40], "q" * 40),
    ], ids=["long", "short", "at-the-limit"])
    def test_unrecognized_arguments(self, capsys, extra, shown):
        with pytest.raises(SystemExit) as stop:
            main(["check", BANK, *extra])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "decolog: error: unrecognized arguments: " + shown)


class TestFindCex:
    def test_strong_separation_found(self, capsys):
        code, out, _ = run(capsys, "find-cex", BANK, "strong f == g")
        assert code == 0
        assert "countermodel" in out
        assert "witness (*, " in out

    def test_weak_equation_has_no_countermodel(self, capsys):
        code, out, _ = run(capsys, "find-cex", BANK, "weak f ~ g",
                           "--max-carrier", "2")
        assert code == 1
        assert "no countermodel" in out

    def test_json_model_is_structured(self, capsys):
        code, out, _ = run(capsys, "find-cex", BANK, "strong f == g", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["found"] is True
        assert sorted(data["model"]["tables"]) == \
            ["balance", "deposit", "plus", "seven"]
        assert data["model"]["carriers"]["Int"] == [0]

    def test_enum_ceiling_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DECOLOG_MAX_ENUM", "10")
        code, _, err = run(capsys, "find-cex", BANK, "strong f == g")
        assert code == 1
        assert "ceiling is 10" in err

    @pytest.mark.parametrize("bound", ["30", "50", "200", "2000", str(10 ** 20)])
    def test_ceiling_stops_counting_at_the_ceiling(self, capsys, bound):
        started = time.perf_counter()
        code, out, err = run(capsys, "find-cex", BANK, "weak f ~ g", "--max-carrier", bound)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err == ("error: more than 10000000 interpretations within bounds, "
                       "ceiling is 10000000\n")

    def test_too_many_table_cells_is_one_line(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "wide.dth"
        path.write_text("effect states\ntype A\nop u : A -> A pure\n"
                        f"op w : {' * '.join(['A'] * 18)} -> A pure\n")
        monkeypatch.setenv("DECOLOG_MAX_ENUM", str(10 ** 5))
        code, out, err = run(capsys, "find-cex", str(path), "strong u . u == u")
        assert (code, out) == (1, "")
        assert err == ("error: more than 100000 table cells in one carrier assignment within "
                       "bounds, ceiling is 100000\n")

    def test_carrier_range_too_long_to_list(self, capsys, monkeypatch):
        """A ceiling above the number of carrier assignments lets the sizes
        be counted out, one at a time: 99,999,999,999,999,999,999 of them
        is more than a range can list."""
        ceiling = 10 ** 50
        monkeypatch.setenv("DECOLOG_MAX_ENUM", str(ceiling))
        started = time.perf_counter()
        code, out, err = run(capsys, "find-cex", BANK, "weak f ~ g", "--max-carrier", "9" * 20)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err == (f"error: more than {ceiling} interpretations within bounds, "
                       f"ceiling is {ceiling}\n")

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1e7"])
    def test_bad_enum_ceiling_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DECOLOG_MAX_ENUM", value)
        code, out, err = run(capsys, "find-cex", BANK, "strong f == g")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "DECOLOG_MAX_ENUM" in err

    @pytest.mark.parametrize("argv", [
        ["find-cex", BANK, "strong f == g"],
        ["validate-rules", "states"],
    ])
    def test_carrier_bound_below_1_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--max-carrier", "0"])
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err


class TestDualize:
    def test_bank_refused(self, capsys):
        code, _, err = run(capsys, "dualize", BANK)
        assert code == 1
        assert "no dual exists" in err
        assert "pair" in err

    def test_throwcatch_emits_a_parseable_states_theory(self, capsys):
        code, out, _ = run(capsys, "dualize", TC)
        assert code == 0
        dual = parse_theory(out)
        assert dual.effect.value == "states"
        assert dual.op("throw").cod.__class__.__name__ == "UnitType"
        assert "# correspondence:" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dualize", TC, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["effect"] == "states"
        assert len(data["correspondence"]) == 3
        names = [row["name"] for row in data["correspondence"]]
        assert names == ["zero", "throw", "catchZero"]


class TestValidateRules:
    @pytest.mark.parametrize("argv, shown", [
        (["validate-rules", "x" * 1200],
         "argument effect: invalid choice: '" + "x" * 40 + "'... "
         "(choose from 'exceptions', 'states')"),
        (["validate-rules", "states", "--max-carrier", "7" * 1200 + "z"],
         "argument --max-carrier: not an integer: '" + "7" * 40 + "'..."),
        (["find-cex", BANK, "weak f ~ g", "--max-carrier", "z" * 1200],
         "argument --max-carrier: not an integer: '" + "z" * 40 + "'..."),
    ], ids=["effect", "sweep-carrier", "carrier"])
    def test_long_bad_argument_is_cut_short(self, capsys, argv, shown):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(": error: " + shown)

    def test_long_bad_ceiling_is_cut_short(self, capsys, monkeypatch):
        monkeypatch.setenv("DECOLOG_MAX_ENUM", "9" * 5000)
        code, out, err = run(capsys, "find-cex", BANK, "weak f ~ g")
        assert (code, out) == (2, "")
        assert err == "bad setting: DECOLOG_MAX_ENUM not an integer: '" + "9" * 40 + "'...\n"

    def test_states_all_sound_at_carrier_2(self, capsys):
        code, out, _ = run(capsys, "validate-rules", "states",
                           "--max-carrier", "2")
        assert code == 0
        assert "all rules validated" in out
        assert "FAIL" not in out

    def test_singleton_state_cannot_exhibit_countermodels(self, capsys):
        code, out, _ = run(capsys, "validate-rules", "states",
                           "--max-carrier", "1")
        assert code == 1
        assert "FAIL" in out

    def test_singleton_carriers_still_separate_exceptions(self, capsys):
        code, out, _ = run(capsys, "validate-rules", "exceptions",
                           "--max-carrier", "1")
        assert code == 0
        assert "all rules validated" in out

    @pytest.mark.parametrize("effect", ["exceptions", "states"])
    def test_carrier_bound_above_2_is_a_usage_error(self, capsys, effect):
        with pytest.raises(SystemExit) as err:
            main(["validate-rules", effect, "--max-carrier", "3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at most 2, got 3" in captured.err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "validate-rules", "exceptions",
                           "--max-carrier", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["effect"] == "exceptions"
        assert {r["expectation"] for r in data["results"]} == \
            {"sound", "countermodel"}


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "decolog.cli", "check", BANK],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "def f" in proc.stdout

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_interrupt_exits_130_without_a_traceback(self):
        # bank has 3.1e10 raw interpretations at carrier 3, far more than
        # two seconds of search; SIGINT is reset to its default in the
        # child, as a shell that starts it in the background ignores it
        proc = subprocess.Popen(
            [sys.executable, "-m", "decolog.cli", "find-cex", BANK, "weak f ~ g",
             "--max-carrier", "3"],
            env={**os.environ, "DECOLOG_MAX_ENUM": "100000000000"},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(2)
            assert proc.poll() is None
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, out) == (130, "")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_closed_stdout_exits_141_quietly(self, tmp_path, capsys):
        path = tmp_path / "wide.dth"
        path.write_text("effect states\ntype Int\n"
                        + "".join(f"op o{i} : Int -> Int pure\n" for i in range(20000)))
        proc = subprocess.Popen([sys.executable, "-m", "decolog.cli", "check", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline() == "effect states\n"
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (141, "")
        # a file that cannot be read is still an input error
        code, _, err = run(capsys, "check", str(tmp_path / "missing.dth"))
        assert code == 2 and err.startswith("cannot read input")
