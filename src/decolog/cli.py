"""Command line front end.

Commands
    check THEORY                 well-formedness and decoration report
    decorate THEORY TERM         dom, cod, and inferred rank of one term
    verify THEORY DERIVATION     check a derivation; print its conclusion
    prove THEORY EQUATION        bounded proof search; print the derivation
    model-check THEORY MODEL EQUATION
                                 does the equation hold in the model
    find-cex THEORY EQUATION     countermodel search over small carriers
    dualize THEORY               mirror theory plus symbol correspondence
    validate-rules EFFECT        sweep every rule but trans_strong, trans_mixed,
                                 strong_to_weak, repl_strong and axiom
                                 against all small models

Exit codes: 0 success (proved, holds, countermodel found, all rules sound);
1 semantic failure (rejected derivation, violated equation, nothing found,
refuted rule, ill-formed input, a proof nested deeper than verify reads);
2 syntax error, unreadable file, or a bad setting (--depth, --max-carrier
or DECOLOG_MAX_ENUM not an integer of at least 1, or a validate-rules
--max-carrier above 2);
3 model/theory mismatch; 130 interrupted (SIGINT); 141 stdout closed
early (a broken pipe).  Each command returns its exit code and its report,
and main alone prints the report: the text lines, or with --json a
machine-readable object instead.  Errors always go to stderr as text.

The environment variable DECOLOG_MAX_ENUM overrides the ceiling on how many
interpretations a countermodel search may enumerate.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .calculus import (
    CalculusError,
    EffectKind,
    Strength,
    analyze_term,
    check_equation_wf,
    cut,
    quoted,
    rank_name,
    term_str,
    type_str,
)
from .deduction import (
    MAX_SWEEP_CARRIER,
    DeductionError,
    check_derivation,
    fold,
    prove,
    validate_rules,
)
from .duality import NotDualizable, duality_map
from .files import (
    MAX_DEPTH,
    ParseError,
    element_str,
    parse_derivation,
    parse_equation,
    parse_model,
    parse_term,
    parse_theory,
    print_derivation,
    print_model,
    print_theory,
)
from .semantics import (
    Bounds,
    DEFAULT_MAX_INTERPRETATIONS,
    FiniteModel,
    ModelMismatch,
    SemanticsError,
    find_counterexample,
    first_violation,
    validate_model,
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_theory(path: str):
    return parse_theory(_read(path))


def _sides(eq) -> str:
    """eq's sides joined by == (strong) or ≈ (weak), compacted: a . b as a∘b."""
    op = "==" if eq.strength is Strength.STRONG else "≈"
    return f"{term_str(eq.lhs)} {op} {term_str(eq.rhs)}".replace(" . ", "∘").replace(", ", ",")


def _judgment_line(eq) -> str:
    return f"{eq.strength.value}: {_sides(eq)}"


def _typed(theory, dom, cod, rank) -> dict:
    """A signature's --json fields: its types, its rank and the rank's word."""
    return {"dom": type_str(dom), "cod": type_str(cod), "rank": rank,
            "keyword": rank_name(theory.effect, rank)}


def _signature(typed: dict) -> str:
    return f"{typed['dom']} -> {typed['cod']} [{typed['keyword']}, rank {typed['rank']}]"


def _equation_json(eq) -> dict:
    return {"strength": eq.strength.value,
            "lhs": term_str(eq.lhs), "rhs": term_str(eq.rhs)}


def _model_json(model: FiniteModel) -> dict:
    return {
        "effect": model.effect.value,
        "effect_carrier": list(model.effect_carrier),
        "carriers": {name: list(elems) for name, elems in model.carriers.items()},
        "tables": {
            name: [[element_str(k), element_str(v)]
                   for k, v in table.mapping.items()]
            for name, table in model.tables.items()
        },
    }


def _witness_json(point, lhs_value, rhs_value) -> dict:
    return {"witness": element_str(point), "lhs_value": element_str(lhs_value),
            "rhs_value": element_str(rhs_value)}


#: What a command returns for main to print: its exit code, its --json
#: object and its text lines (at least one).
Report = tuple[int, dict, list[str]]


def cmd_check(args) -> Report:
    theory = _load_theory(args.theory)
    lines = [f"effect {theory.effect}"]
    ops_json = []
    for sym in theory.operations:
        ops_json.append({"name": sym.name,
                         **_typed(theory, sym.dom, sym.cod, sym.decoration)})
        lines.append(f"op {sym.name} : {_signature(ops_json[-1])}")
    defs_json = []
    for name, term in theory.definitions:
        defs_json.append({"name": name, "term": term_str(term),
                          **_typed(theory, *analyze_term(theory, term))})
        lines.append(f"def {name} : {_signature(defs_json[-1])}")
    axioms_json = []
    for ax in theory.axioms:
        report = check_equation_wf(theory, ax.equation)
        lines.append(f"axiom {ax.name} : {_sides(ax.equation)} [{ax.equation.strength.value}, "
                     f"ranks {report.lhs_rank}/{report.rhs_rank}]")
        axioms_json.append({"name": ax.name,
                            **_equation_json(ax.equation),
                            "lhs_rank": report.lhs_rank,
                            "rhs_rank": report.rhs_rank})
    lines.append("ok")
    return 0, {"ok": True, "effect": theory.effect.value,
               "types": list(theory.base_types), "operations": ops_json,
               "definitions": defs_json, "axioms": axioms_json}, lines


def cmd_decorate(args) -> Report:
    theory = _load_theory(args.theory)
    term = parse_term(args.term, theory)
    typed = {"term": term_str(term), **_typed(theory, *analyze_term(theory, term))}
    return 0, typed, [f"{typed['term']} : {_signature(typed)}"]


def cmd_verify(args) -> Report:
    theory = _load_theory(args.theory)
    derivation = parse_derivation(_read(args.derivation), theory)
    judgment = check_derivation(theory, derivation)
    return (0,
            {"ok": True, **_equation_json(judgment.equation),
             "dom": type_str(judgment.dom), "cod": type_str(judgment.cod)},
            [_judgment_line(judgment.equation)])


def cmd_prove(args) -> Report:
    theory = _load_theory(args.theory)
    goal = parse_equation(args.equation, theory)
    derivation = prove(theory, goal, max_depth=args.depth)
    levels = fold(derivation, lambda node, path, below: 1 + max(below, default=0))
    if levels > MAX_DEPTH:
        raise DeductionError(f"found a proof nested {levels} levels deep, but verify "
                             f"reads derivations only up to {MAX_DEPTH} levels")
    text = print_derivation(derivation)
    return 0, {"found": True, **_equation_json(goal), "derivation": text}, [text]


def cmd_model_check(args) -> Report:
    theory = _load_theory(args.theory)
    model = parse_model(_read(args.model), theory)
    validate_model(theory, model)
    eq = parse_equation(args.equation, theory)
    found = first_violation(model, theory, eq)
    if found is None:
        return 0, {"holds": True, **_equation_json(eq)}, [f"holds: {_judgment_line(eq)}"]
    witness = _witness_json(*found)
    return (1,
            {"holds": False, **_equation_json(eq), **witness},
            [f"violated: {_judgment_line(eq)}",
             f"  at {witness['witness']}: lhs gives {witness['lhs_value']}, "
             f"rhs gives {witness['rhs_value']}"])


def _effect(text: str) -> EffectKind:
    """Argument type of validate-rules' effect."""
    try:
        return EffectKind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {quoted(text)} (choose from "
            f"{', '.join(repr(e.value) for e in EffectKind)})") from None


def _at_least_one(text: str) -> int:
    """Argument type of a bound: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {quoted(text)}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {quoted(value)}")
    return value


def _sweep_carrier(text: str) -> int:
    """Argument type of validate-rules' carrier bound: 1 up to
    MAX_SWEEP_CARRIER."""
    value = _at_least_one(text)
    if value > MAX_SWEEP_CARRIER:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_SWEEP_CARRIER}, got {quoted(value)}")
    return value


def _enum_ceiling() -> int:
    raw = os.environ.get("DECOLOG_MAX_ENUM")
    if not raw:
        return DEFAULT_MAX_INTERPRETATIONS
    try:
        return _at_least_one(raw)
    except argparse.ArgumentTypeError as error:
        raise argparse.ArgumentTypeError(f"DECOLOG_MAX_ENUM {error}") from None


def cmd_find_cex(args) -> Report:
    ceiling = _enum_ceiling()
    theory = _load_theory(args.theory)
    eq = parse_equation(args.equation, theory)
    bounds = Bounds(base=args.max_carrier, effect=args.max_carrier)
    found = find_counterexample(theory, eq, bounds, max_interpretations=ceiling)
    if found is None:
        return (1,
                {"found": False, **_equation_json(eq),
                 "max_carrier": args.max_carrier},
                [f"no countermodel with carriers up to {args.max_carrier}"])
    witness = _witness_json(found.witness, found.lhs_value, found.rhs_value)
    return (0,
            {"found": True, **_equation_json(eq),
             "model": _model_json(found.model), **witness},
            [f"countermodel for {_judgment_line(eq)}",
             print_model(found.model).rstrip("\n"),
             f"witness {witness['witness']}: lhs gives "
             f"{witness['lhs_value']}, rhs gives {witness['rhs_value']}"])


def cmd_dualize(args) -> Report:
    theory = _load_theory(args.theory)
    mapping = duality_map(theory)
    text = print_theory(mapping.target)
    rows = mapping.rows()
    lines = [text.rstrip("\n"), "# correspondence:"]
    for name, source, target in rows:
        lines.append(f"#   {name} : {source}  <->  {name} : {target}")
    return (0,
            {"effect": mapping.target.effect.value, "theory": text,
             "correspondence": [
                 {"name": name, "source": source, "target": target}
                 for name, source, target in rows]},
            lines)


def cmd_validate_rules(args) -> Report:
    effect = args.effect
    report = validate_rules(effect, max_carrier=args.max_carrier)
    lines = []
    results_json = []
    for result in report.results:
        mark = "ok  " if result.ok else "FAIL"
        lines.append(f"{mark} {result.rule} ({result.description}): "
                     f"{result.expectation}, checked {result.models_checked}, "
                     f"violations {result.violations}")
        results_json.append({
            "rule": result.rule, "description": result.description,
            "expectation": result.expectation,
            "models_checked": result.models_checked,
            "violations": result.violations, "ok": result.ok,
        })
    lines.append("all rules validated" if report.ok
                 else "RULE VALIDATION FAILED")
    return (0 if report.ok else 1,
            {"ok": report.ok, "effect": effect.value,
             "max_carrier": args.max_carrier, "results": results_json},
            lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolog",
        description="Decorated equational logic workbench for exceptions "
                    "and states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *positional):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "well-formedness and decoration report", "theory")
    add("decorate", cmd_decorate, "infer a term's decoration", "theory", "term")
    add("verify", cmd_verify, "check a derivation file", "theory", "derivation")
    p = add("prove", cmd_prove, "search for a derivation", "theory", "equation")
    p.add_argument("--depth", type=_at_least_one, default=8,
                   help="search depth bound (default 8)")

    add("model-check", cmd_model_check, "evaluate an equation in a model",
        "theory", "model", "equation")
    p = add("find-cex", cmd_find_cex, "search for a countermodel", "theory", "equation")
    p.add_argument("--max-carrier", type=_at_least_one, default=2,
                   help="carrier size bound (default 2)")

    add("dualize", cmd_dualize, "mirror a theory into the other effect", "theory")

    p = add("validate-rules", cmd_validate_rules,
            "sweep every rule but trans_strong, trans_mixed, strong_to_weak, "
            "repl_strong and axiom against all small models")
    p.add_argument("effect", type=_effect, choices=list(EffectKind))
    p.add_argument("--max-carrier", type=_sweep_carrier, default=2,
                   help=f"carrier size bound, at most {MAX_SWEEP_CARRIER} (default 2)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.error(f"unrecognized arguments: {cut(' '.join(extra))}")
    try:
        code, payload, lines = args.func(args)
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot read input: {error}", file=sys.stderr)
        return 2
    except argparse.ArgumentTypeError as error:
        print(f"bad setting: {error}", file=sys.stderr)
        return 2
    except ModelMismatch as error:
        print(f"model mismatch: {error}", file=sys.stderr)
        return 3
    except (CalculusError, DeductionError, NotDualizable,
            SemanticsError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
