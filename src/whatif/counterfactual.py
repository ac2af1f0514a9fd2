"""Query answering: marginal, interventional and counterfactual probabilities.

Each entry point passes one `CounterfactualQuery` to one core, `_answer`, which
builds the twin network only for a query with both evidence and interventions.
"""
from __future__ import annotations

import warnings
from typing import Callable, Iterable, Optional

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
from . import oracle, semantics, wmc as wmc_mod
from .semantics import Classification, check_unique_supported_models
from .transforms import intervene, twin

BACKENDS = ("wmc", "enumerate", "oracle")
CYCLIC_WARNING = "program is cyclic (stratified); results are formal only"


def _classify(program: Program, backend: str) -> bool:
    """Reject a program `backend` cannot answer; return whether it is stratified cyclic."""
    classification = check_unique_supported_models(program)
    if classification is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    cyclic = classification is Classification.STRATIFIED_CYCLIC
    if cyclic and backend == "wmc":
        # raised here, not by the encoder: wmc drops irrelevant cycles
        raise ValidationError("WMC backend requires an acyclic program")
    return cyclic


def reduce(
    program: Program, query: CounterfactualQuery
) -> tuple[Program, Formula, frozenset[Literal]]:
    """The program, formula and evidence whose P(formula | evidence) answers `query`.

    With both evidence and interventions that is `twin(program, query)`;
    otherwise the program, intervened on if there are interventions.
    """
    if query.evidence and query.interventions:
        return twin(program, query)
    if query.interventions:
        program = intervene(program, query.interventions)
    return program, query.query, query.evidence


def _answer(
    program: Program,
    query: CounterfactualQuery,
    backend: str,
    exact: bool,
    on_cnf: Optional[Callable[[wmc_mod.WeightedCnf], None]] = None,
):
    """The one query path; each public entry point calls it once, directly."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose one of {', '.join(BACKENDS)}")
    diagnostics = validate_program(program)
    if diagnostics:
        raise ValidationError("; ".join(diagnostics))
    counterfactual = bool(query.evidence and query.interventions)
    if counterfactual and backend == "oracle":  # unclassified, as querybench's pins expect
        answer = oracle.abduction_action_prediction(program, query)
        return answer if exact else float(answer)
    counted, formula, evidence = reduce(program, query)
    # The twin's dependency graph is two renamed copies of the program's, one
    # of them with clauses erased and facts added, so an edge inside an SCC of
    # the twin is a renamed edge inside an SCC of the program, and the two
    # classify alike.  The check follows twin() so that its errors come first.
    if _classify(program if counterfactual else counted, backend):
        warnings.warn(CYCLIC_WARNING, stacklevel=3)  # the caller of the public entry point
    # the twin, or the intervened copy, of a valid program is valid
    if backend == "wmc":
        answer = wmc_mod.conditional(counted, formula, evidence, on_cnf=on_cnf)
    elif backend == "oracle":
        answer = oracle.abduction_action_prediction(counted, CounterfactualQuery(formula, evidence))
    elif not evidence:  # enumerate: one walk over the worlds, or two with evidence
        answer = _walk(counted, formula)
    else:
        evidence_formula = conjunction(evidence)
        denominator = _walk(counted, evidence_formula)
        if denominator == 0:
            raise ZeroEvidenceError("evidence has probability zero")
        answer = _walk(counted, And((formula, evidence_formula))) / denominator
    return answer if exact else float(answer)


def _walk(program: Program, formula: Formula):
    # classifies again, silently, as querybench's call pins (`expected_calls`) expect
    _classify(program, "enumerate")
    return semantics.marginal(program, formula)


def marginal(program: Program, formula: Formula, backend: str = "wmc", exact: bool = True):
    """P(formula) by `backend`; raises ValidationError on an invalid program."""
    return _answer(program, CounterfactualQuery(formula), backend, exact)


def conditional(
    program: Program,
    formula: Formula,
    evidence: Iterable[Literal],
    backend: str = "wmc",
    exact: bool = True,
):
    """P(formula | evidence) by `backend`; raises ValidationError on an invalid program."""
    return _answer(program, CounterfactualQuery(formula, evidence), backend, exact)


def answer_intervention(
    program: Program,
    formula: Formula,
    interventions: Iterable[Literal],
    backend: str = "wmc",
    exact: bool = True,
):
    """Marginal of `formula` on the surgically modified program."""
    return _answer(program, CounterfactualQuery(formula, (), interventions), backend, exact)


def answer_counterfactual(
    program: Program,
    query: CounterfactualQuery,
    backend: str = "wmc",
    exact: bool = True,
    *,
    on_cnf: Optional[Callable[[wmc_mod.WeightedCnf], None]] = None,
):
    """P(query | evidence, do(interventions)), on the twin network only with both.

    `on_cnf`, if given, is called with the CNF the wmc backend counts, before counting.
    """
    return _answer(program, query, backend, exact, on_cnf)
