"""Set-up shared by the timed run and the set-up probe.

A workload's set-up is importing decolog and parsing its inputs.  The input
files are read before the clock starts; parsing them is what a user pays.
This module imports nothing from decolog itself, so the probe can time the
import.
"""
from __future__ import annotations

from pathlib import Path


def _cli_inputs(argv: list[str]) -> dict:
    """Which file or text argument of a decolog command is which."""
    cmd, *rest = argv
    if cmd == "validate-rules":
        return {}
    args = [a for a in rest if a != "--json"]
    out = {"theory": args[0]}
    if cmd == "model-check":
        out.update(model=args[1], goal=args[2])
    elif cmd in ("prove", "find-cex"):
        out["goal"] = args[1]
    elif cmd == "verify":
        out["derivation"] = args[1]
    elif cmd == "decorate":
        out["term"] = args[1]
    return out


def input_texts(inputs: dict, work: Path) -> dict:
    """Every text the set-up parses, grouped by parser, with the name of
    the theory each one belongs to."""
    texts: dict = {"theories": dict(inputs.get("theories", {})), "goals": [],
                   "terms": [], "models": [], "derivations": []}
    for goal in inputs.get("goals", []):
        texts["goals"].append((goal["theory"], goal["goal"]))
    for command in inputs.get("commands", []):
        found = _cli_inputs(command["argv"])
        if not found:
            continue
        theory = Path(found["theory"]).stem
        texts["theories"][theory] = (work / found["theory"]).read_text(encoding="utf-8")
        for key, group in (("goal", "goals"), ("term", "terms")):
            if key in found:
                texts[group].append((theory, found[key]))
        for key, group in (("model", "models"), ("derivation", "derivations")):
            if key in found:
                texts[group].append((theory, (work / found[key]).read_text(encoding="utf-8")))
    return texts


def parse_inputs(decolog, texts: dict) -> dict:
    theories = {name: decolog.parse_theory(text) for name, text in texts["theories"].items()}
    return {
        "theories": theories,
        "goals": [decolog.parse_equation(g, theories[t]) for t, g in texts["goals"]],
        "terms": [decolog.parse_term(g, theories[t]) for t, g in texts["terms"]],
        "models": [decolog.parse_model(m, theories[t]) for t, m in texts["models"]],
        "derivations": [decolog.parse_derivation(d, theories[t])
                        for t, d in texts["derivations"]],
    }
