"""Reference implementation of the abduction-action-prediction procedure.

Enumerates possible worlds directly on the causal reading of the program and
shares no code with the twin-network pipeline beyond the data model and
minimal-model computation, so it can serve as an independent test oracle.
"""
from __future__ import annotations

from fractions import Fraction

from .model import (
    CounterfactualQuery,
    Program,
    ZeroEvidenceError,
    evaluate,
)
from .semantics import minimal_model, worlds
from .transforms import intervene


def abduction_action_prediction(
    program: Program, query: CounterfactualQuery, exact: bool = True
):
    """Pearl's three steps: condition the error terms, intervene, predict."""
    weights = program.world_weights
    kept: list[tuple[dict[str, bool], Fraction]] = []
    for world in worlds(program):
        model = minimal_model(program, world)
        if all(model.get(lit.atom, False) == lit.positive for lit in query.evidence):
            kept.append((world, weights.weight(world, exact)))
    evidence_mass = sum(weight for _, weight in kept)
    if evidence_mass == 0:
        raise ZeroEvidenceError("evidence has probability zero")

    acted = intervene(program, query.interventions)
    predicted = sum(
        weight
        for world, weight in kept
        if evaluate(query.query, {**minimal_model(acted, world), **world})
    )
    return predicted / evidence_mass
