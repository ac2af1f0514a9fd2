"""Annotated-disjunction programs: selection semantics, translations, and the
selection-based counterfactual formula of CP-logic.

Selections weigh integers, as worlds do in `semantics.WorldWeights`
(`selection_weights`).  A selection is a world of one `selector` program:
the mask of the choice atoms it picks.  `cp_counterfactual` builds the
table of selections of nonzero weight and hands it to `oracle.walk`, the
same abduction-action-prediction walk the oracle runs over a ProbLog
program's worlds, so this module evaluates no world itself;
`lpad_distribution` is its query with no evidence and no interventions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import (
    Alphabet,
    Clause,
    CounterfactualQuery,
    Formula,
    Literal,
    Program,
    RandomFact,
    ValidationError,
    formula_atoms,
)
from .oracle import walk

# Per clause, per head index, the choice atom of `selector`.
Choices = tuple[tuple[str, ...], ...]


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


def selection_weights(program: LpadProgram) -> tuple[tuple[int, ...], ...]:
    """Per clause, its options' integer weights over d, the lcm of its heads' denominators.

    Options come in order: no head, weighing d minus the heads' weights,
    then head j, weighing p_j * d.  A selection weighs the
    product of its options' weights over the product of the d's.
    """
    table = []
    for clause in program.clauses:
        d = math.lcm(*(p.denominator for _, p in clause.head))
        heads = [p.numerator * (d // p.denominator) for _, p in clause.head]
        table.append((d - sum(heads), *heads))
    return tuple(table)


def selector(program: LpadProgram, reserved: Iterable[str] = ()) -> tuple[Program, Choices]:
    """One program whose worlds are the selections of `program`.

    Head j of clause k becomes the rule ``h :- body, c`` guarded by a fresh
    external choice atom c = `choices[k][j]`, and a selection is the world
    that makes its choices true.  That world's model is the model of the
    definite program the selection picks out (head j of clause k for each
    choice, with its body), and as `transforms.intervene` erases clauses by
    head, the intervened selector's model is the model of the intervened
    selected program.  Choice atoms share a prefix that starts no atom of
    the program and none of `reserved`, so they never merge with an atom of
    the program or of a query.  The selector has no random facts, and its
    dependency analysis and bit layout are built once for all selections.
    It holds the rule of every head, so a cycle through negation is
    rejected even where only selections of probability zero close it.
    """
    taken = program.atoms | frozenset(reserved)
    prefix = "choice"
    while any(atom.startswith(prefix) for atom in taken):
        prefix = "_" + prefix
    choices = tuple(
        tuple(f"{prefix}{k}_{j}" for j in range(len(clause.head)))
        for k, clause in enumerate(program.clauses)
    )
    clauses = tuple(
        Clause(atom, clause.body | {Literal(choice)})
        for clause, row in zip(program.clauses, choices)
        for (atom, _), choice in zip(clause.head, row)
    )
    externals = frozenset(choice for row in choices for choice in row)
    return Program(clauses, (), Alphabet(program.atoms, externals)), choices


def lpad_distribution(program: LpadProgram, formula: Formula) -> Fraction:
    """Distribution semantics: `cp_counterfactual` with no evidence and no interventions."""
    return cp_counterfactual(program, CounterfactualQuery(formula))


def cp_counterfactual(program: LpadProgram, query: CounterfactualQuery) -> Fraction:
    """Counterfactual probability via selections.

    A selection stands for a leaf of any execution model: it contributes when
    its model satisfies the evidence, weighted by its conditional probability,
    and counts toward the query when the intervened selected program derives
    it.  The selected programs are the worlds of one `selector` program, so
    this is `oracle.walk` over the selections of nonzero weight: one table of
    (choice mask, integer weight) pairs (`selection_weights`), built by one
    doubling per clause.
    """
    query_atoms = {lit.atom for lit in query.evidence | query.interventions}
    guarded, choices = selector(program, query_atoms | formula_atoms(query.query))
    bits = guarded.layout.bits
    worlds = [(0, 1)]
    for row, atoms in zip(selection_weights(program), choices):
        # the clause's options of nonzero weight, with the choice bit each sets (0 for no head)
        options = [(bit, weight) for weight, bit in zip(row, (0, *map(bits.get, atoms))) if weight]
        worlds = [(mask | bit, total * weight) for mask, total in worlds for bit, weight in options]
    return walk(guarded, query, worlds)


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
