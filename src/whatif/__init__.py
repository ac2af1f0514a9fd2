"""Exact marginal, interventional and counterfactual inference for
propositional probabilistic logic programs."""

__version__ = "0.1.0"

from .model import (
    Alphabet,
    And,
    Clause,
    CounterfactualQuery,
    Formula,
    Literal,
    NegativeCycleError,
    Not,
    Or,
    Program,
    RandomFact,
    ValidationError,
    Var,
    WhatifError,
    ZeroEvidenceError,
    validate_program,
)
from .parser import parse_formula, parse_lpad, parse_problog, print_lpad, print_problog
from .semantics import Classification, check_unique_supported_models, minimal_model
from .transforms import intervene, twin
from .counterfactual import answer_counterfactual, answer_intervention, conditional, marginal
from .lpad import LpadClause, LpadProgram, lpad_of_problog, prob_of_lpad

__all__ = [
    "Alphabet",
    "And",
    "Clause",
    "Classification",
    "CounterfactualQuery",
    "Formula",
    "Literal",
    "LpadClause",
    "LpadProgram",
    "NegativeCycleError",
    "Not",
    "Or",
    "Program",
    "RandomFact",
    "ValidationError",
    "Var",
    "WhatifError",
    "ZeroEvidenceError",
    "answer_counterfactual",
    "answer_intervention",
    "check_unique_supported_models",
    "conditional",
    "intervene",
    "lpad_of_problog",
    "marginal",
    "minimal_model",
    "parse_formula",
    "parse_lpad",
    "parse_problog",
    "print_lpad",
    "print_problog",
    "prob_of_lpad",
    "twin",
    "validate_program",
]
