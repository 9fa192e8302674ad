"""Decorated equational logic for computational effects.

Declare operations tagged with how they interact with an effect (exceptions
or mutable state), state strong and weak equations between composite terms,
check derivations against a fixed rule catalog, search for proofs, evaluate
everything in finite models, and hunt for countermodels.  The exceptions and
states calculi mirror each other; the duality transform makes that precise.
"""
from .calculus import (
    Axiom,
    Bang,
    BaseType,
    CalculusError,
    DecoratedEquation,
    DecoratedTerm,
    EffectKind,
    Id,
    Op,
    OperationSymbol,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Strength,
    Theory,
    TypeExpr,
    Unit,
    analyze_term,
    check_equation_wf,
    compose,
    infer_decoration,
    normalize,
    pair,
    strong,
    term_str,
    type_str,
    weak,
    wf_term,
)
from .deduction import (
    ALL_RULES,
    DeductionError,
    DepthExhausted,
    Derivation,
    Judgment,
    ValidationReport,
    check_derivation,
    deriv,
    prove,
    validate_rules,
)
from .duality import (
    DualityMap,
    NotDualizable,
    duality_map,
    dualize_derivation,
    dualize_term,
    dualize_theory,
)
from .files import (
    ParseError,
    corpus_path,
    parse_derivation,
    parse_equation,
    parse_model,
    parse_term,
    parse_theory,
    print_derivation,
    print_equation,
    print_model,
    print_theory,
)
from .semantics import (
    Bounds,
    Counterexample,
    FiniteModel,
    OperationTable,
    SemanticsError,
    enumerate_models,
    eval_term,
    find_counterexample,
    first_violation,
    holds,
    validate_model,
)

__all__ = [
    "Axiom", "Bang", "BaseType", "CalculusError", "DecoratedEquation",
    "DecoratedTerm", "EffectKind", "Id", "Op", "OperationSymbol", "Pair",
    "Prod", "Proj1", "Proj2", "Strength", "Theory", "TypeExpr", "Unit",
    "analyze_term", "check_equation_wf", "compose", "infer_decoration",
    "normalize", "pair", "strong", "term_str", "type_str", "weak", "wf_term",
    "ALL_RULES", "DeductionError", "DepthExhausted", "Derivation", "Judgment",
    "ValidationReport", "check_derivation", "deriv", "prove", "validate_rules",
    "DualityMap", "NotDualizable", "duality_map", "dualize_derivation",
    "dualize_term", "dualize_theory",
    "ParseError", "corpus_path", "parse_derivation", "parse_equation",
    "parse_model", "parse_term", "parse_theory", "print_derivation",
    "print_equation", "print_model", "print_theory",
    "Bounds", "Counterexample", "FiniteModel", "OperationTable",
    "SemanticsError", "enumerate_models", "eval_term", "find_counterexample",
    "first_violation", "holds", "validate_model",
]
