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
from numbers import Rational
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    from .semantics import Layout, Stratification, WorldWeights

ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class WhatifError(Exception):
    """Base class for errors raised by this package."""


class ZeroEvidenceError(WhatifError):
    """The conditioning event has probability zero."""


class NegativeCycleError(WhatifError):
    """The program has a cycle through negation and is rejected."""


class ValidationError(WhatifError):
    """A program or query violates a structural invariant."""


class Literal(NamedTuple):
    """An atom or its negation; a named tuple, so equal to ``(atom, positive)``.

    Its hash is that tuple's hash, the one a frozen dataclass with these
    fields had, so sets of literals keep their iteration order.
    """

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

    @cached_property
    def stratification(self) -> "Stratification":
        """The program's dependency analysis, computed once and kept on this instance."""
        from .semantics import analyse
        return analyse(self.clauses, self.internals)

    @cached_property
    def layout(self) -> "Layout":
        """The program's worlds and rules on the bits of one integer, built on first use."""
        from .semantics import Layout
        return Layout(self.stratification.components, self.clauses, self.externals)

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        """`validate_program`'s diagnostics, computed once and kept on this instance."""
        return tuple(_diagnose(self))

    @cached_property
    def world_weights(self) -> "WorldWeights":
        """The externals' weight table, built once per instance; checks each has a fact."""
        from .semantics import WorldWeights
        probs = self.fact_probs()
        if missing := sorted(self.externals - probs.keys()):
            raise ValidationError(f"external atom without random fact: {', '.join(missing)}")
        return WorldWeights({atom: (p.numerator, p.denominator - p.numerator)
                             for atom, p in probs.items() if atom in self.externals})

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


def predicate(formula: Formula, bits: Mapping[str, int]) -> Callable[[int], bool]:
    """`formula` as a test of a model mask, built once per layout and called per world.

    Atom a reads the bit `bits[a]` of the mask (`semantics.Layout.bits`); an
    atom with no bit is false (closed world).  The formula becomes nested
    closures, one per node, so a call walks no formula objects.  `And(())`
    is true and `Or(())` is false.
    """
    if isinstance(formula, Var):
        bit = bits.get(formula.name, 0)
        return lambda model: model & bit != 0
    if isinstance(formula, Not):
        if isinstance(formula.operand, Var):
            bit = bits.get(formula.operand.name, 0)
            return lambda model: not model & bit
        operand = predicate(formula.operand, bits)
        return lambda model: not operand(model)
    if isinstance(formula, (And, Or)):
        parts = tuple(predicate(part, bits) for part in formula.operands)
        if len(parts) == 1:
            return parts[0]
        if isinstance(formula, And):
            def conjoined(model: int) -> bool:
                for part in parts:
                    if not part(model):
                        return False
                return True
            return conjoined

        def disjoined(model: int) -> bool:
            for part in parts:
                if part(model):
                    return True
            return False
        return disjoined
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
    """Return diagnostics for every violated invariant; empty means valid.

    The checks run once per program (`Program.diagnostics`); each call returns a new list.
    """
    return list(program.diagnostics)


def _diagnose(program: Program) -> Iterator[str]:
    """`validate_program`'s checks, one set operation per group of them.

    Only a group that finds a fault walks its items, in order, to name them.
    """
    internals, externals = program.internals, program.externals
    atoms = internals | externals
    if not all(map(ATOM_RE.match, atoms)):
        for atom in sorted(atoms):
            if not ATOM_RE.match(atom):
                yield f"invalid atom name: {atom!r}"
    fact_atoms = [fact.atom for fact in program.facts]
    distinct = set(fact_atoms)
    if len(distinct) < len(fact_atoms) or not distinct <= externals:
        for atom, count in sorted(Counter(fact_atoms).items()):
            if count > 1:
                yield f"duplicate random fact: {atom}"
            if atom not in externals:
                yield f"random fact for non-external atom: {atom}"
    for atom in sorted(externals - distinct):
        yield f"external atom without random fact: {atom}"
    for fact in program.facts:
        prob = fact.prob
        if not isinstance(prob, Rational):
            yield f"probability not an exact rational: {prob!r}::{fact.atom}"
        elif not 0 <= prob.numerator <= prob.denominator:
            yield f"probability out of range: {prob}::{fact.atom}"
    heads = {clause.head for clause in program.clauses}
    literals = frozenset().union(*(clause.body for clause in program.clauses))
    if heads <= internals and atoms.issuperset(lit.atom for lit in literals):
        return
    for clause in program.clauses:
        if clause.head in externals:
            yield f"external atom in head: {clause.head}"
        elif clause.head not in internals:
            yield f"head atom outside alphabet: {clause.head}"
        for lit in clause.body:
            if lit.atom not in atoms:
                yield f"body atom outside alphabet: {lit.atom}"
