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
refuted rule, ill-formed input); 2 syntax error, unreadable file, or a bad
setting (--depth, --max-carrier or DECOLOG_MAX_ENUM not an integer of at
least 1, or a validate-rules --max-carrier above 2);
3 model/theory mismatch; 130 interrupted (SIGINT); 141 stdout closed
early (a broken pipe).  --json swaps the human report on stdout for a
machine-readable one; errors always go to stderr as text.

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
    prove,
    validate_rules,
)
from .duality import NotDualizable, duality_map
from .files import (
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


def _compact(term) -> str:
    return term_str(term).replace(" . ", "∘").replace(", ", ",")


def _judgment_line(eq) -> str:
    op = "==" if eq.strength is Strength.STRONG else "≈"
    return f"{eq.strength.value}: {_compact(eq.lhs)} {op} {_compact(eq.rhs)}"


def _signature(theory, dom, cod, rank) -> str:
    word = rank_name(theory.effect, rank)
    return f"{type_str(dom)} -> {type_str(cod)} [{word}, rank {rank}]"


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


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_check(args) -> int:
    theory = _load_theory(args.theory)
    lines = [f"effect {theory.effect}"]
    ops_json = []
    for sym in theory.operations:
        lines.append(f"op {sym.name} : "
                     f"{_signature(theory, sym.dom, sym.cod, sym.decoration)}")
        ops_json.append({"name": sym.name, "dom": type_str(sym.dom),
                         "cod": type_str(sym.cod), "rank": sym.decoration,
                         "keyword": rank_name(theory.effect, sym.decoration)})
    defs_json = []
    for name, term in theory.definitions:
        dom, cod, rank = analyze_term(theory, term)
        lines.append(f"def {name} : {_signature(theory, dom, cod, rank)}")
        defs_json.append({"name": name, "term": term_str(term),
                          "dom": type_str(dom), "cod": type_str(cod),
                          "rank": rank,
                          "keyword": rank_name(theory.effect, rank)})
    axioms_json = []
    for ax in theory.axioms:
        report = check_equation_wf(theory, ax.equation)
        op = "==" if ax.equation.strength is Strength.STRONG else "≈"
        lines.append(f"axiom {ax.name} : {_compact(ax.equation.lhs)} {op} "
                     f"{_compact(ax.equation.rhs)} "
                     f"[{ax.equation.strength.value}, "
                     f"ranks {report.lhs_rank}/{report.rhs_rank}]")
        axioms_json.append({"name": ax.name,
                            **_equation_json(ax.equation),
                            "lhs_rank": report.lhs_rank,
                            "rhs_rank": report.rhs_rank})
    lines.append("ok")
    _emit(args, {"ok": True, "effect": theory.effect.value,
                 "types": list(theory.base_types), "operations": ops_json,
                 "definitions": defs_json, "axioms": axioms_json}, lines)
    return 0


def cmd_decorate(args) -> int:
    theory = _load_theory(args.theory)
    term = parse_term(args.term, theory)
    dom, cod, rank = analyze_term(theory, term)
    _emit(args,
          {"term": term_str(term), "dom": type_str(dom), "cod": type_str(cod),
           "rank": rank, "keyword": rank_name(theory.effect, rank)},
          [f"{term_str(term)} : {_signature(theory, dom, cod, rank)}"])
    return 0


def cmd_verify(args) -> int:
    theory = _load_theory(args.theory)
    derivation = parse_derivation(_read(args.derivation), theory)
    judgment = check_derivation(theory, derivation)
    _emit(args,
          {"ok": True, **_equation_json(judgment.equation),
           "dom": type_str(judgment.dom), "cod": type_str(judgment.cod)},
          [_judgment_line(judgment.equation)])
    return 0


def cmd_prove(args) -> int:
    theory = _load_theory(args.theory)
    goal = parse_equation(args.equation, theory)
    derivation = prove(theory, goal, max_depth=args.depth)
    text = print_derivation(derivation)
    _emit(args,
          {"found": True, **_equation_json(goal), "derivation": text},
          [text])
    return 0


def cmd_model_check(args) -> int:
    theory = _load_theory(args.theory)
    model = parse_model(_read(args.model), theory)
    validate_model(theory, model)
    eq = parse_equation(args.equation, theory)
    found = first_violation(model, theory, eq)
    if found is None:
        _emit(args, {"holds": True, **_equation_json(eq)},
              [f"holds: {_judgment_line(eq)}"])
        return 0
    point, lhs_value, rhs_value = found
    _emit(args,
          {"holds": False, **_equation_json(eq),
           "witness": element_str(point), "lhs_value": element_str(lhs_value),
           "rhs_value": element_str(rhs_value)},
          [f"violated: {_judgment_line(eq)}",
           f"  at {element_str(point)}: lhs gives {element_str(lhs_value)}, "
           f"rhs gives {element_str(rhs_value)}"])
    return 1


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
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _sweep_carrier(text: str) -> int:
    """Argument type of validate-rules' carrier bound: 1 up to
    MAX_SWEEP_CARRIER."""
    value = _at_least_one(text)
    if value > MAX_SWEEP_CARRIER:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_SWEEP_CARRIER}, got {value}")
    return value


def _enum_ceiling() -> int:
    raw = os.environ.get("DECOLOG_MAX_ENUM")
    if not raw:
        return DEFAULT_MAX_INTERPRETATIONS
    try:
        return _at_least_one(raw)
    except argparse.ArgumentTypeError as error:
        raise argparse.ArgumentTypeError(f"DECOLOG_MAX_ENUM {error}") from None


def cmd_find_cex(args) -> int:
    ceiling = _enum_ceiling()
    theory = _load_theory(args.theory)
    eq = parse_equation(args.equation, theory)
    bounds = Bounds(base=args.max_carrier, effect=args.max_carrier)
    found = find_counterexample(theory, eq, bounds, max_interpretations=ceiling)
    if found is None:
        _emit(args,
              {"found": False, **_equation_json(eq),
               "max_carrier": args.max_carrier},
              [f"no countermodel with carriers up to {args.max_carrier}"])
        return 1
    _emit(args,
          {"found": True, **_equation_json(eq),
           "model": _model_json(found.model),
           "witness": element_str(found.witness),
           "lhs_value": element_str(found.lhs_value),
           "rhs_value": element_str(found.rhs_value)},
          [f"countermodel for {_judgment_line(eq)}",
           print_model(found.model).rstrip("\n"),
           f"witness {element_str(found.witness)}: lhs gives "
           f"{element_str(found.lhs_value)}, rhs gives "
           f"{element_str(found.rhs_value)}"])
    return 0


def cmd_dualize(args) -> int:
    theory = _load_theory(args.theory)
    mapping = duality_map(theory)
    text = print_theory(mapping.target)
    rows = mapping.rows()
    lines = [text.rstrip("\n"), "# correspondence:"]
    for name, source, target in rows:
        lines.append(f"#   {name} : {source}  <->  {name} : {target}")
    _emit(args,
          {"effect": mapping.target.effect.value, "theory": text,
           "correspondence": [
               {"name": name, "source": source, "target": target}
               for name, source, target in rows]},
          lines)
    return 0


def cmd_validate_rules(args) -> int:
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
    _emit(args, {"ok": report.ok, "effect": effect.value,
                 "max_carrier": args.max_carrier, "results": results_json},
          lines)
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolog",
        description="Decorated equational logic workbench for exceptions "
                    "and states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "well-formedness and decoration report")
    p.add_argument("theory")

    p = add("decorate", cmd_decorate, "infer a term's decoration")
    p.add_argument("theory")
    p.add_argument("term")

    p = add("verify", cmd_verify, "check a derivation file")
    p.add_argument("theory")
    p.add_argument("derivation")

    p = add("prove", cmd_prove, "search for a derivation")
    p.add_argument("theory")
    p.add_argument("equation")
    p.add_argument("--depth", type=_at_least_one, default=8,
                   help="search depth bound (default 8)")

    p = add("model-check", cmd_model_check, "evaluate an equation in a model")
    p.add_argument("theory")
    p.add_argument("model")
    p.add_argument("equation")

    p = add("find-cex", cmd_find_cex, "search for a countermodel")
    p.add_argument("theory")
    p.add_argument("equation")
    p.add_argument("--max-carrier", type=_at_least_one, default=2,
                   help="carrier size bound (default 2)")

    p = add("dualize", cmd_dualize, "mirror a theory into the other effect")
    p.add_argument("theory")

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
        return args.func(args)
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
