"""Annotated-disjunction programs: selection semantics, translations, and the
selection-based counterfactual formula of CP-logic."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .model import (
    Alphabet,
    Clause,
    CounterfactualQuery,
    Formula,
    Literal,
    Program,
    RandomFact,
    ValidationError,
    ZeroEvidenceError,
    evaluate,
)
from .semantics import minimal_model

# A selection maps each clause (by position) to a chosen head index or None.
Selection = tuple[Optional[int], ...]


@dataclass(frozen=True)
class LpadClause:
    """``h1:p1; ...; hl:pl :- body`` with head probabilities summing to at most 1."""

    head: tuple[tuple[str, Fraction], ...]
    body: frozenset[Literal] = frozenset()

    def __post_init__(self) -> None:
        total = sum((p for _, p in self.head), Fraction(0))
        if total > 1:
            raise ValidationError(f"head probabilities sum to {total} > 1")
        atoms = [atom for atom, _ in self.head]
        if len(set(atoms)) != len(atoms):
            raise ValidationError("duplicate head atoms in one clause")

    @property
    def residual(self) -> Fraction:
        return 1 - sum((p for _, p in self.head), Fraction(0))


@dataclass(frozen=True)
class LpadProgram:
    clauses: tuple[LpadClause, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))

    @property
    def atoms(self) -> frozenset[str]:
        mentioned: set[str] = set()
        for clause in self.clauses:
            mentioned.update(atom for atom, _ in clause.head)
            mentioned.update(lit.atom for lit in clause.body)
        return frozenset(mentioned)


def selections(program: LpadProgram) -> Iterable[Selection]:
    """All selections: per clause a head index or None for the no-choice branch."""
    options = [
        [None] + list(range(len(clause.head))) for clause in program.clauses
    ]
    return itertools.product(*options)


def selection_probability(program: LpadProgram, selection: Selection) -> Fraction:
    weight = Fraction(1)
    for clause, choice in zip(program.clauses, selection):
        weight *= clause.residual if choice is None else clause.head[choice][1]
    return weight


def select(program: LpadProgram, selection: Selection) -> Program:
    """The definite logic program picked out by a selection (no random facts)."""
    clauses = tuple(
        Clause(clause.head[choice][0], clause.body)
        for clause, choice in zip(program.clauses, selection)
        if choice is not None
    )
    return Program(clauses, (), Alphabet(program.atoms, frozenset()))


def _selection_model(program: LpadProgram, selection: Selection) -> dict[str, bool]:
    return minimal_model(select(program, selection), {})


def lpad_distribution(program: LpadProgram, formula: Formula) -> Fraction:
    """Distribution semantics by enumeration of all selections."""
    total = Fraction(0)
    for selection in selections(program):
        weight = selection_probability(program, selection)
        if weight and evaluate(formula, _selection_model(program, selection)):
            total += weight
    return total


def cp_counterfactual(program: LpadProgram, query: CounterfactualQuery) -> Fraction:
    """Counterfactual probability via selections.

    A selection stands for a leaf of any execution model: it contributes when
    its model satisfies the evidence, weighted by its conditional probability,
    and counts toward the query when the intervened selected program derives it.
    """
    from .transforms import intervene

    numerator = Fraction(0)
    evidence_mass = Fraction(0)
    for selection in selections(program):
        weight = selection_probability(program, selection)
        if weight == 0:
            continue
        model = _selection_model(program, selection)
        if not all(model.get(lit.atom, False) == lit.positive for lit in query.evidence):
            continue
        evidence_mass += weight
        acted = intervene(select(program, selection), query.interventions)
        if evaluate(query.query, minimal_model(acted, {})):
            numerator += weight
    if evidence_mass == 0:
        raise ZeroEvidenceError("evidence has probability zero")
    return numerator / evidence_mass


def prob_of_lpad(program: LpadProgram) -> Program:
    """Translate annotated disjunctions into independent random facts.

    Clause k with heads h_1..h_l becomes, per index i, a fresh switch atom
    guarded by the negations of the earlier switches, with fact probability
    p_i / (1 - sum of the earlier p_j); a zero denominator makes the later
    heads impossible and their facts get probability 0.
    """
    original = program.atoms
    clauses: list[Clause] = []
    facts: list[RandomFact] = []
    fresh: set[str] = set()
    for k, lpad_clause in enumerate(program.clauses):
        spent = Fraction(0)
        for i, (atom, prob) in enumerate(lpad_clause.head):
            switch = f"{atom}__rc{k}__{i}"
            chooser = f"u__rc{k}__{i}"
            for name in (switch, chooser):
                if name in original or name in fresh:
                    raise ValidationError(f"fresh atom {name} collides with existing atom")
                fresh.add(name)
            remaining = 1 - spent
            fact_prob = prob / remaining if remaining else Fraction(0)
            facts.append(RandomFact(chooser, fact_prob))
            body = set(lpad_clause.body)
            body.update(
                Literal(f"{earlier}__rc{k}__{j}", False)
                for j, (earlier, _) in enumerate(lpad_clause.head[:i])
            )
            body.add(Literal(chooser))
            clauses.append(Clause(switch, frozenset(body)))
            clauses.append(Clause(atom, frozenset({Literal(switch)})))
            spent += prob
    externals = frozenset(f.atom for f in facts)
    internals = frozenset(original) | (fresh - externals)
    return Program(tuple(clauses), tuple(facts), Alphabet(internals, externals))


def lpad_of_problog(program: Program) -> LpadProgram:
    """Read a ProbLog program as an LPAD: facts become annotated unit clauses."""
    clauses = [
        LpadClause(((fact.atom, fact.prob),)) for fact in program.facts
    ]
    clauses.extend(
        LpadClause(((clause.head, Fraction(1)),), clause.body)
        for clause in program.clauses
    )
    return LpadProgram(tuple(clauses))
