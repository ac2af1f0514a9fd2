"""Query answering: marginal, interventional and counterfactual probabilities."""
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
from . import semantics, wmc as wmc_mod
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


def _validate(program: Program, backend: str) -> None:
    """Reject an unknown backend, or a program that breaks a structural invariant."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose one of {', '.join(BACKENDS)}")
    diagnostics = validate_program(program)
    if diagnostics:
        raise ValidationError("; ".join(diagnostics))


def marginal(program: Program, formula: Formula, backend: str = "wmc", exact: bool = True):
    """P(formula) by `backend`; raises ValidationError on an invalid program."""
    _validate(program, backend)
    if _classify(program, backend):
        warnings.warn(CYCLIC_WARNING, stacklevel=2)
    answer = _marginal(program, formula, backend)
    return answer if exact else float(answer)


def conditional(
    program: Program,
    formula: Formula,
    evidence: Iterable[Literal],
    backend: str = "wmc",
    exact: bool = True,
):
    """P(formula | evidence) by `backend`; raises ValidationError on an invalid program."""
    _validate(program, backend)
    if _classify(program, backend):
        warnings.warn(CYCLIC_WARNING, stacklevel=2)
    answer = _conditional(program, formula, evidence, backend)
    return answer if exact else float(answer)


def _marginal(program: Program, formula: Formula, backend: str):
    # repeats the callers' check, as querybench's call pins (`expected_calls`) expect
    _classify(program, backend)
    if backend == "wmc":
        return wmc_mod.marginal_wmc(program, formula)
    return semantics.marginal(program, formula)


def _conditional(
    program: Program,
    formula: Formula,
    evidence: Iterable[Literal],
    backend: str,
    on_cnf: Optional[Callable[[wmc_mod.WeightedCnf], None]] = None,
):
    """The backend's P(formula | evidence); the caller has classified the program."""
    evidence = frozenset(evidence)
    if backend == "wmc":
        return wmc_mod.conditional(program, formula, evidence, on_cnf=on_cnf)
    evidence_formula = conjunction(evidence)
    denominator = _marginal(program, evidence_formula, backend)
    if denominator == 0:
        raise ZeroEvidenceError("evidence has probability zero")
    return _marginal(program, And((formula, evidence_formula)), backend) / denominator


def answer_intervention(
    program: Program,
    formula: Formula,
    interventions: Iterable[Literal],
    backend: str = "wmc",
    exact: bool = True,
):
    """Marginal of `formula` on the surgically modified program."""
    _validate(program, backend)
    acted = intervene(program, frozenset(interventions))
    if _classify(acted, backend):
        warnings.warn(CYCLIC_WARNING, stacklevel=2)
    answer = _marginal(acted, formula, backend)
    return answer if exact else float(answer)


def answer_counterfactual(
    program: Program,
    query: CounterfactualQuery,
    backend: str = "wmc",
    exact: bool = True,
    *,
    on_cnf: Optional[Callable[[wmc_mod.WeightedCnf], None]] = None,
):
    """Twin-network evaluation: duplicate, intervene on one copy, condition on the other.

    With the wmc backend, `on_cnf`, if given, is called with the CNF that is
    counted (`wmc.encode_query`), before counting; the other backends count
    no CNF and do not call it.
    """
    _validate(program, backend)
    if backend == "oracle":
        from .oracle import abduction_action_prediction

        answer = abduction_action_prediction(program, query)
        return answer if exact else float(answer)
    transformed, renamed_query, evidence = twin(program, query)
    # The twin's dependency graph is two renamed copies of the program's, one
    # of them with clauses erased and facts added, so an edge inside an SCC of
    # the twin is a renamed edge inside an SCC of the program, and the two
    # classify alike.  The check follows twin() so that its errors come first.
    if _classify(program, backend):
        warnings.warn(CYCLIC_WARNING, stacklevel=2)
    # the twin of a valid program is valid
    answer = _conditional(transformed, renamed_query, evidence, backend, on_cnf)
    return answer if exact else float(answer)
