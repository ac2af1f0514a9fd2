"""Reference implementation of the abduction-action-prediction procedure.

Enumerates possible worlds directly on the causal reading of the program and
shares no code with the twin-network pipeline beyond the data model and
minimal-model computation, so it can serve as an independent test oracle.
Like `semantics.marginal`, it compiles the evidence and the query formula
once per walk (`model.predicate`, the evidence as its conjunction) and reads
each world's weight numerator from the program's table
(`WorldWeights.numerators`).
"""
from __future__ import annotations

from fractions import Fraction

from .model import (
    CounterfactualQuery,
    Program,
    ZeroEvidenceError,
    conjunction,
    predicate,
)
from .semantics import minimal_model, worlds
from .transforms import intervene


def abduction_action_prediction(program: Program, query: CounterfactualQuery) -> Fraction:
    """Pearl's three steps: condition the error terms, intervene, predict.

    Evidence may name a random fact, which is read from the world; an atom
    in neither the world nor the minimal model is false.  The interventions
    are applied first, so one on a random fact raises `intervene`'s
    `ValidationError` whatever the evidence.
    """
    acted = intervene(program, query.interventions)
    observed = predicate(conjunction(query.evidence))
    holds = predicate(query.query)
    # each world's weight numerator; the common denominator cancels in the ratio
    kept: list[tuple[dict[str, bool], int]] = []
    for world, weight in zip(worlds(program), program.world_weights.numerators):
        model = minimal_model(program, world)
        model.update(world)
        if observed(model):
            kept.append((world, weight))
    evidence_mass = sum(weight for _, weight in kept)
    if evidence_mass == 0:
        raise ZeroEvidenceError("evidence has probability zero")

    predicted = 0
    for world, weight in kept:
        model = minimal_model(acted, world)
        model.update(world)
        if holds(model):
            predicted += weight
    return Fraction(predicted, evidence_mass)
