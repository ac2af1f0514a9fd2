"""Reference implementation of the abduction-action-prediction procedure.

Enumerates possible worlds directly on the causal reading of the program and
shares no code with the twin-network pipeline beyond the data model and
minimal-model computation, so it can serve as an independent test oracle.
Like `semantics.marginal`, it walks the worlds as indices into the
program's weight table (`WorldWeights.numerators`), each of which is the
world's mask, and compiles the evidence and the query formula once per walk
against the layout they are read in (`model.predicate`, the evidence as its
conjunction).  The program and the acted program have the same externals,
so a world has one mask in both.
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
from .semantics import minimal_model
from .transforms import intervene


def abduction_action_prediction(program: Program, query: CounterfactualQuery) -> Fraction:
    """Pearl's three steps: condition the error terms, intervene, predict.

    Evidence may name a random fact, which is read from the world; an atom
    with no bit in the layout is false.  The interventions are applied
    first, so one on a random fact raises `intervene`'s `ValidationError`
    whatever the evidence.
    """
    acted = intervene(program, query.interventions)
    observed = predicate(conjunction(query.evidence), program.stratification.layout.bits)
    # each world's weight numerator; the common denominator cancels in the ratio
    kept: list[tuple[int, int]] = []
    for world, weight in enumerate(program.world_weights.numerators):
        if observed(minimal_model(program, world)):
            kept.append((world, weight))
    evidence_mass = sum(weight for _, weight in kept)
    if evidence_mass == 0:
        raise ZeroEvidenceError("evidence has probability zero")

    holds = predicate(query.query, acted.stratification.layout.bits)
    predicted = 0
    for world, weight in kept:
        if holds(minimal_model(acted, world)):
            predicted += weight
    return Fraction(predicted, evidence_mass)
