"""Immutable data model: programs, literals, formulas and queries.

Atoms are plain strings matching ``[a-z][a-zA-Z0-9_]*``; probabilities are
exact `fractions.Fraction` values so that inference can stay exact.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .semantics import Stratification, WorldWeights

ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class WhatifError(Exception):
    """Base class for errors raised by this package."""


class ZeroEvidenceError(WhatifError):
    """The conditioning event has probability zero."""


class NegativeCycleError(WhatifError):
    """The program has a cycle through negation and is rejected."""


class ValidationError(WhatifError):
    """A program or query violates a structural invariant."""


@dataclass(frozen=True, order=True)
class Literal:
    atom: str
    positive: bool = True

    def __str__(self) -> str:
        return self.atom if self.positive else "\\+" + self.atom


def consistent(literals: Iterable[Literal]) -> bool:
    """True if no atom occurs both positively and negatively."""
    seen: dict[str, bool] = {}
    for lit in literals:
        if seen.setdefault(lit.atom, lit.positive) != lit.positive:
            return False
    return True


@dataclass(frozen=True)
class Clause:
    head: str
    body: frozenset[Literal] = frozenset()

    def sorted_body(self) -> list[Literal]:
        return sorted(self.body)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(map(str, self.sorted_body())) + "."


@dataclass(frozen=True, order=True)
class RandomFact:
    atom: str
    prob: Fraction


@dataclass(frozen=True)
class Alphabet:
    internals: frozenset[str]
    externals: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.internals & self.externals
        if overlap:
            raise ValidationError(f"atoms both internal and external: {sorted(overlap)}")

    def __contains__(self, atom: str) -> bool:
        return atom in self.internals or atom in self.externals


def _mentioned_atoms(clauses: Iterable[Clause]) -> set[str]:
    atoms: set[str] = set()
    for clause in clauses:
        atoms.add(clause.head)
        atoms.update(lit.atom for lit in clause.body)
    return atoms


@dataclass(frozen=True)
class Program:
    """A propositional ProbLog program: clauses plus probability-annotated facts.

    If no alphabet is given, external atoms are exactly the fact atoms and
    every other mentioned atom is internal.
    """

    clauses: tuple[Clause, ...] = ()
    facts: tuple[RandomFact, ...] = ()
    alphabet: Alphabet = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(self, "facts", tuple(self.facts))
        if self.alphabet is None:
            externals = frozenset(f.atom for f in self.facts)
            internals = frozenset(_mentioned_atoms(self.clauses)) - externals
            object.__setattr__(self, "alphabet", Alphabet(internals, externals))

    @property
    def internals(self) -> frozenset[str]:
        return self.alphabet.internals

    @property
    def externals(self) -> frozenset[str]:
        return self.alphabet.externals

    def fact_probs(self) -> dict[str, Fraction]:
        return {f.atom: f.prob for f in self.facts}

    def external_probs(self) -> dict[str, Fraction]:
        """`fact_probs`, checked to give every external atom a probability."""
        probs = self.fact_probs()
        missing = sorted(self.externals - probs.keys())
        if missing:
            raise ValidationError(f"external atom without random fact: {', '.join(missing)}")
        return probs

    @cached_property
    def stratification(self) -> "Stratification":
        """The program's dependency analysis, computed once and kept on this instance."""
        from .semantics import Stratification
        return Stratification(self)

    @cached_property
    def world_weights(self) -> "WorldWeights":
        """The externals' weight table of `world_probability`, built once per instance."""
        from .semantics import WorldWeights
        return WorldWeights(self)

    def clauses_by_head(self) -> dict[str, list[Clause]]:
        grouped: dict[str, list[Clause]] = {}
        for clause in self.clauses:
            grouped.setdefault(clause.head, []).append(clause)
        return grouped

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and Counter(self.clauses) == Counter(other.clauses)
            and set(self.facts) == set(other.facts)
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(Counter(self.clauses).items()), frozenset(self.facts)))


def ensure_internals(program: Program, atoms: Iterable[str]) -> Program:
    """Extend the alphabet with `atoms` as rule-less internals where missing."""
    missing = {a for a in atoms if a not in program.alphabet}
    if not missing:
        return program
    alphabet = Alphabet(program.internals | missing, program.externals)
    return Program(program.clauses, program.facts, alphabet)


# --- formulas -------------------------------------------------------------

class Formula:
    """Propositional formula over program atoms."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    operands: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    operands: tuple[Formula, ...]


def formula_atoms(formula: Formula) -> set[str]:
    if isinstance(formula, Var):
        return {formula.name}
    if isinstance(formula, Not):
        return formula_atoms(formula.operand)
    if isinstance(formula, (And, Or)):
        atoms: set[str] = set()
        for part in formula.operands:
            atoms |= formula_atoms(part)
        return atoms
    raise TypeError(f"not a formula: {formula!r}")


def evaluate(formula: Formula, model: Mapping[str, bool]) -> bool:
    """Evaluate under a truth assignment; missing atoms are false (closed world)."""
    if isinstance(formula, Var):
        return bool(model.get(formula.name, False))
    if isinstance(formula, Not):
        return not evaluate(formula.operand, model)
    if isinstance(formula, And):
        return all(evaluate(part, model) for part in formula.operands)
    if isinstance(formula, Or):
        return any(evaluate(part, model) for part in formula.operands)
    raise TypeError(f"not a formula: {formula!r}")


def rename_formula(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    if isinstance(formula, Var):
        return Var(mapping.get(formula.name, formula.name))
    if isinstance(formula, Not):
        return Not(rename_formula(formula.operand, mapping))
    if isinstance(formula, And):
        return And(tuple(rename_formula(part, mapping) for part in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(rename_formula(part, mapping) for part in formula.operands))
    raise TypeError(f"not a formula: {formula!r}")


def literal_formula(lit: Literal) -> Formula:
    return Var(lit.atom) if lit.positive else Not(Var(lit.atom))


def conjunction(literals: Iterable[Literal]) -> Formula:
    return And(tuple(literal_formula(lit) for lit in sorted(literals)))


# --- queries --------------------------------------------------------------

@dataclass(frozen=True)
class CounterfactualQuery:
    """A "what if" query: P(query | evidence, do(interventions)).

    Evidence and interventions must each be internally consistent, but they
    may contradict each other.
    """

    query: Formula
    evidence: frozenset[Literal] = frozenset()
    interventions: frozenset[Literal] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence", frozenset(self.evidence))
        object.__setattr__(self, "interventions", frozenset(self.interventions))
        if not consistent(self.evidence):
            raise ValidationError("inconsistent evidence")
        if not consistent(self.interventions):
            raise ValidationError("inconsistent interventions")


# --- validation -----------------------------------------------------------

def validate_program(program: Program) -> list[str]:
    """Return diagnostics for every violated invariant; empty means valid."""
    diagnostics: list[str] = []
    for atom in sorted(program.internals | program.externals):
        if not ATOM_RE.match(atom):
            diagnostics.append(f"invalid atom name: {atom!r}")
    fact_atoms = Counter(f.atom for f in program.facts)
    for atom, count in sorted(fact_atoms.items()):
        if count > 1:
            diagnostics.append(f"duplicate random fact: {atom}")
        if atom not in program.externals:
            diagnostics.append(f"random fact for non-external atom: {atom}")
    for atom in sorted(program.externals - fact_atoms.keys()):
        diagnostics.append(f"external atom without random fact: {atom}")
    for fact in program.facts:
        if not 0 <= fact.prob <= 1:
            diagnostics.append(f"probability out of range: {fact.prob}::{fact.atom}")
    for clause in program.clauses:
        if clause.head in program.externals:
            diagnostics.append(f"external atom in head: {clause.head}")
        elif clause.head not in program.internals:
            diagnostics.append(f"head atom outside alphabet: {clause.head}")
        for lit in clause.body:
            if lit.atom not in program.alphabet:
                diagnostics.append(f"body atom outside alphabet: {lit.atom}")
    return diagnostics
