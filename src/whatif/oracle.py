"""Reference implementation of the abduction-action-prediction procedure.

`walk` is Pearl's three steps over any table of weighted worlds of one
program: it keeps the worlds whose minimal model satisfies the evidence and
sums the kept weights whose intervened model satisfies the query.  It serves
two semantics.  `abduction_action_prediction` walks the worlds of a ProbLog
program's independent facts, each of which is its index in the program's
weight table (`WorldWeights.numerators`).  `lpad.cp_counterfactual` walks
the selections of an LPAD as the worlds of its selector program (CP-logic
counterfactuals, Vennekens, Bruynooghe & Denecker 2010).  The walk shares
no code with the twin-network pipeline beyond the data model and
minimal-model computation, so it can serve as an independent test oracle.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .model import (
    CounterfactualQuery,
    Program,
    ZeroEvidenceError,
    conjunction,
    predicate,
)
from .semantics import minimal_model
from .transforms import intervene


def walk(program: Program, query: CounterfactualQuery,
         worlds: Iterable[tuple[int, int]]) -> Fraction:
    """Pearl's three steps over `worlds`: pairs of a mask in `program`'s `Layout` and a weight.

    The weights are integers over one common denominator, which cancels in
    the one ratio.  The interventions are applied first, so one on a random fact raises
    `intervene`'s `ValidationError` whatever the evidence.  The evidence and
    the query are compiled once each against the layout they are read in
    (`model.predicate`, the evidence as its conjunction); an atom with no
    bit is false, and evidence on a random fact is read from the world.
    The program and the acted program have the same externals, so a world
    has one mask in both, and its acted model is computed only when it
    satisfies the evidence.
    """
    acted = intervene(program, query.interventions)
    observed = predicate(conjunction(query.evidence), program.stratification.layout.bits)
    holds = predicate(query.query, acted.stratification.layout.bits)
    evidence_mass = predicted = 0
    for world, weight in worlds:
        if observed(minimal_model(program, world)):
            evidence_mass += weight
            if holds(minimal_model(acted, world)):
                predicted += weight
    if evidence_mass == 0:
        raise ZeroEvidenceError("evidence has probability zero")
    return Fraction(predicted, evidence_mass)


def abduction_action_prediction(program: Program, query: CounterfactualQuery) -> Fraction:
    """Pearl's three steps over every world of `program`'s random facts."""
    return walk(program, query, enumerate(program.world_weights.numerators))
