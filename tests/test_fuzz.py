"""Seeded fuzzing of the command line.

Corpus theories, models, derivations, equations and terms are mutated
(tokens dropped, duplicated or swapped, nesting deepened, text truncated,
numbers changed) and fed to every command in-process.  Whatever the input,
a command ends with a documented exit code and at most a one-line error (or
argparse's usage message), never a traceback.  A second draw replaces a
token with input at the edges of the lexical grammar and the depth limit
(non-ASCII digits and letters, integers too long for int(), elements
nested past MAX_DEPTH, a 1,200-character identifier and a 4,000-digit
integer that int() still takes), gives one command an extra 1,200-character
argument, and searches with carrier bounds far past the enumeration ceiling.
"""
import random
import re

import pytest

from decolog.cli import main
from decolog.files import corpus_path

#: theory, model, derivation, equations and terms of each corpus family
FAMILIES = {
    "bank": ("bank.dth", "bank_mod4.model", "bank_proof.drv",
             ("strong f == g", "weak f ~ g",
              "weak balance . deposit ~ plus . <id(Int), balance . bang(Int)>"),
             ("f", "plus . <seven, balance>", "bang(Int) . seven")),
    "throwcatch": ("throwcatch.dth", "throwcatch_mod2.model", "throwcatch_proof.drv",
                   ("weak catchZero . throw ~ zero", "strong catchZero == id(Int)",
                    "weak catchZero . catchZero . throw ~ zero"),
                   ("catchZero . throw", "id(Int)", "zero")),
}
NUMBERS = ("0", "1", "2", "3", "7", "-1", "99", "10000000000000000000000")
EXIT_CODES = {0, 1, 2, 3}


def _tokens(text: str) -> list[str]:
    return re.findall(r"\s+|\w+|\S", text)


def mutate(rng: random.Random, text: str) -> str:
    """text after one to three random token-level mutations."""
    tokens = _tokens(text)
    for _ in range(rng.randint(1, 3)):
        solid = [i for i, tok in enumerate(tokens) if not tok.isspace()]
        if not solid:
            break
        i = rng.choice(solid)
        kind = rng.randrange(6)
        if kind == 0:
            del tokens[i]
        elif kind == 1:
            tokens.insert(i, tokens[i])
        elif kind == 2:
            j = rng.choice(solid)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == 3:
            depth = rng.choice((1, 3, 60, 250))
            opener, closer = rng.choice((("(", ")"), ("<", ", id(Int)>"), ("(", "")))
            tokens[i] = opener * depth + tokens[i] + closer * depth
        elif kind == 4:
            cut = rng.randrange(len(tokens) + 1)
            tokens = tokens[:cut]
        else:
            numbers = [k for k in solid if tokens[k].isdigit()] or [i]
            tokens[rng.choice(numbers)] = rng.choice(NUMBERS)
    return "".join(tokens)


INPUTS = ("theory", "model", "derivation", "equation", "term", "effect")


#: What inject puts in place of a token.
INJECTIONS = (
    "²", "①", "٣", "Ⅷ", "é", "λx", "9" * 5000, "-" + "9" * 5000,
    "(" * 300 + "0" + ")" * 300, "(" * 1200 + "0" + ")" * 1200,
    "ok(" * 300 + "0" + ")" * 300, "q" * 1200, "4" * 4000,
)
#: The extra argument one command of each injected case gets.
EXTRA_ARGUMENT = "q" * 1200
#: Carrier bounds inject's cases search with: all far past the ceiling.
FAR_CARRIERS = ("30", "50", "200", str(10 ** 20))


def inject(rng: random.Random, text: str) -> str:
    """text with one token replaced by one of INJECTIONS."""
    tokens = _tokens(text)
    solid = [i for i, tok in enumerate(tokens) if not tok.isspace()]
    if solid:
        tokens[rng.choice(solid)] = rng.choice(INJECTIONS)
    return "".join(tokens)


def _cases(rng: random.Random, tmp_path, change=mutate, changeable=INPUTS, carriers=None):
    """Every command over one family's inputs, one or two of the changeable
    ones changed.  find-cex searches up to carrier 1 and validate-rules gets
    a small or malformed bound, unless carriers gives both their bound."""
    theory, model, proof, equations, terms = FAMILIES[rng.choice(sorted(FAMILIES))]
    mutated = set(rng.sample(changeable, rng.randint(1, 2)))

    def pick(name, text):
        return change(rng, text) if name in mutated else text

    paths = []
    for name, file in zip(INPUTS, (theory, model, proof)):
        path = tmp_path / file
        path.write_text(pick(name, corpus_path(file).read_text()))
        paths.append(str(path))
    th, mo, dr = paths
    eq = pick("equation", rng.choice(equations))
    term = pick("term", rng.choice(terms))
    effect = pick("effect", rng.choice(("exceptions", "states")))
    # validate-rules at carrier 2 takes about a second, so it is left out
    carrier = rng.choice(carriers or ("1", "3", "0", "-1", "x"))
    argvs = [
        ["check", th], ["decorate", th, term], ["verify", th, dr],
        ["prove", th, eq, "--depth", "2"], ["model-check", th, mo, eq],
        ["find-cex", th, eq, "--max-carrier", carrier if carriers else "1"], ["dualize", th],
        ["validate-rules", effect, "--max-carrier", carrier],
    ]
    return [argv + ["--json"] if rng.random() < 0.3 else argv for argv in argvs]


def _inputs(tmp_path) -> dict:
    """The files of the failing case, for the assertion message."""
    return {p.name: p.read_text() for p in tmp_path.iterdir()}


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as error:  # an escaped exception is the failure sought
        pytest.fail(f"{argv} raised {error!r}")
    captured = capsys.readouterr()
    return code, captured.err


@pytest.mark.parametrize("seed", range(5))
def test_mutated_inputs_end_with_a_documented_exit(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DECOLOG_MAX_ENUM", "2000")
    rng = random.Random(seed)
    ran = 0
    for _ in range(25):
        for argv in _cases(rng, tmp_path):
            code, err = _run(argv, capsys)
            assert code in EXIT_CODES, (argv, code, err, _inputs(tmp_path))
            assert "Traceback" not in err, (argv, err, _inputs(tmp_path))
            usage = err.startswith("usage:")
            assert usage or err == "" or err.count("\n") == 1, (argv, err, _inputs(tmp_path))
            if code == 0:
                assert err == "", (argv, err)
            ran += 1
    assert ran == 25 * 8


def _long_name_cases(tmp_path) -> list[list[str]]:
    """Three commands whose error echoes a 1,200-character name: an
    operation declared twice, an undeclared base type and an unknown rule.
    The random injection rarely puts the name in these places."""
    name = "q" * 1200
    op = f"op {name} : Int -> Int pure\n"
    texts = {"dup.dth": f"effect states\ntype Int\n{op}{op}",
             "type.dth": f"effect states\ntype Int\nop f : {name} -> Int pure\n",
             "rule.drv": f"({name})\n"}
    for file, text in texts.items():
        (tmp_path / file).write_text(text)
    dup, ty, rule = (str(tmp_path / file) for file in texts)
    return [["check", dup], ["check", ty], ["verify", str(corpus_path("bank.dth")), rule]]


def _assert_short_error(argv, capsys):
    code, err = _run(argv, capsys)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert err.startswith("usage:") or err.count("\n") <= 1, (argv, err)
    assert all(len(line) <= 500 for line in err.splitlines()), (argv, err[:1000])


@pytest.mark.parametrize("seed", range(3))
def test_injected_inputs_end_with_a_short_error(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DECOLOG_MAX_ENUM", "2000")
    for argv in _long_name_cases(tmp_path):
        _assert_short_error(argv, capsys)
    rng = random.Random(1000 + seed)
    ran = 0
    for _ in range(20):
        argvs = _cases(rng, tmp_path, inject, INPUTS, FAR_CARRIERS)
        rng.choice(argvs).append(EXTRA_ARGUMENT)
        for argv in argvs:
            _assert_short_error(argv, capsys)
            ran += 1
    assert ran == 20 * 8
