"""Query answering: marginal, interventional and counterfactual probabilities."""
from __future__ import annotations

import warnings
from typing import Iterable

from .model import (
    And,
    CounterfactualQuery,
    Formula,
    Literal,
    NegativeCycleError,
    Program,
    ValidationError,
    ZeroEvidenceError,
    conjunction,
    validate_program,
)
from . import semantics, wmc as wmc_mod
from .semantics import Classification, check_unique_supported_models
from .transforms import intervene, twin

BACKENDS = ("wmc", "enumerate", "oracle")


def _check_classification(program: Program, backend: str) -> None:
    classification = check_unique_supported_models(program)
    if classification is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    if classification is Classification.STRATIFIED_CYCLIC:
        if backend == "wmc":
            # raised here, not by the encoder: wmc drops irrelevant cycles
            raise ValidationError("WMC backend requires an acyclic program")
        warnings.warn(
            "program is cyclic (stratified); results are formal only",
            stacklevel=3,
        )


def _validate(program: Program) -> None:
    """Reject a program built through the API that breaks a structural invariant."""
    diagnostics = validate_program(program)
    if diagnostics:
        raise ValidationError("; ".join(diagnostics))


def marginal(program: Program, formula: Formula, backend: str = "wmc", exact: bool = True):
    _check_classification(program, backend)
    if backend == "wmc":
        return wmc_mod.marginal_wmc(program, formula, exact=exact)
    return semantics.marginal(program, formula, exact=exact)


def conditional(
    program: Program,
    formula: Formula,
    evidence: Iterable[Literal],
    backend: str = "wmc",
    exact: bool = True,
):
    _check_classification(program, backend)
    evidence = frozenset(evidence)
    if backend == "wmc":
        return wmc_mod.conditional(program, formula, evidence, exact=exact)
    evidence_formula = conjunction(evidence)
    denominator = marginal(program, evidence_formula, backend, exact)
    if denominator == 0:
        raise ZeroEvidenceError("evidence has probability zero")
    numerator = marginal(program, And((formula, evidence_formula)), backend, exact)
    return numerator / denominator


def answer_intervention(
    program: Program,
    formula: Formula,
    interventions: Iterable[Literal],
    backend: str = "wmc",
    exact: bool = True,
):
    """Marginal of `formula` on the surgically modified program."""
    _validate(program)
    return marginal(intervene(program, frozenset(interventions)), formula, backend, exact)


def answer_counterfactual(
    program: Program,
    query: CounterfactualQuery,
    backend: str = "wmc",
    exact: bool = True,
):
    """Twin-network evaluation: duplicate, intervene on one copy, condition on the other."""
    _validate(program)
    if backend == "oracle":
        from .oracle import abduction_action_prediction

        return abduction_action_prediction(program, query, exact=exact)
    transformed, renamed_query, evidence = twin(program, query)
    return conditional(transformed, renamed_query, evidence, backend, exact)
