"""Source-to-source rewrites: interventions, the twin-network construction and
the pruning of a program to the part a query depends on."""
from __future__ import annotations

from typing import Iterable

from .model import (
    Alphabet,
    Clause,
    CounterfactualQuery,
    Formula,
    Literal,
    Program,
    ValidationError,
    consistent,
    ensure_internals,
    formula_atoms,
    rename_formula,
)

EVIDENCE_SUFFIX = "__e"
INTERVENTION_SUFFIX = "__i"


def intervene(program: Program, interventions: Iterable[Literal]) -> Program:
    """Erase every clause whose head is intervened; add a fact for positive forcings.

    Atoms absent from the program are accepted: erasure is vacuous and a
    positive forcing adds the atom to the internal alphabet.
    """
    interventions = frozenset(interventions)
    if not consistent(interventions):
        raise ValidationError("inconsistent interventions")
    forced = {lit.atom for lit in interventions}
    external = forced & program.externals
    if external:
        raise ValidationError(f"cannot intervene on external atoms: {sorted(external)}")
    clauses = [c for c in program.clauses if c.head not in forced]
    clauses.extend(Clause(lit.atom) for lit in sorted(interventions) if lit.positive)
    internals = program.internals | {lit.atom for lit in interventions if lit.positive}
    return Program(tuple(clauses), program.facts, Alphabet(internals, program.externals))


def twin(
    program: Program, query: CounterfactualQuery
) -> tuple[Program, Formula, frozenset[Literal]]:
    """Build the duplicated program with shared random facts.

    Internal atoms are copied with an evidence-side and an intervention-side
    suffix; the interventions are applied to the intervention copy.  Returns
    the transformed program, the renamed query formula and the renamed
    evidence literals.
    """
    query_atoms = {lit.atom for lit in query.evidence | query.interventions}
    query_atoms |= formula_atoms(query.query)
    program = ensure_internals(program, query_atoms - program.externals)

    suffixes = (EVIDENCE_SUFFIX, INTERVENTION_SUFFIX)
    colliding = [a for a in program.internals | program.externals if a.endswith(suffixes)]
    if colliding:
        raise ValidationError(
            f"atom {min(colliding)} collides with the twin-copy suffix convention"
        )

    internals = program.internals
    literals = {lit for clause in program.clauses for lit in clause.body}
    clauses = []
    for suffix in suffixes:
        # each distinct body literal is renamed once per copy
        renamed = {
            lit: Literal(lit.atom + suffix, lit.positive) if lit.atom in internals else lit
            for lit in literals
        }.__getitem__
        clauses.extend(Clause(c.head + suffix, frozenset(map(renamed, c.body)))
                       for c in program.clauses)
    twin_alphabet = Alphabet(
        frozenset(a + s for a in internals for s in suffixes),
        program.externals,
    )
    twinned = Program(tuple(clauses), program.facts, twin_alphabet)

    rename_i = {a: a + INTERVENTION_SUFFIX for a in internals}
    rename_e = {a: a + EVIDENCE_SUFFIX for a in internals}
    interventions = frozenset(
        Literal(rename_i[lit.atom], lit.positive) for lit in query.interventions
    )
    transformed = intervene(twinned, interventions)
    renamed_query = rename_formula(query.query, rename_i)
    evidence = frozenset(Literal(rename_e[lit.atom], lit.positive) for lit in query.evidence)
    return transformed, renamed_query, evidence


def relevant(program: Program, formula: Formula, evidence: Iterable[Literal]) -> Program:
    """The part of `program` that decides `formula` and `evidence`.

    Keeps the internal atoms the formula and the evidence depend on, their
    clauses, and the facts those clauses mention; the weights of every other
    external sum to 1.  Atoms absent from the program become rule-less
    internals.  Nothing is merged or renamed: the encoder
    (`wmc.to_weighted_cnf`) gives atoms with equal bodies one variable, an
    atom whose one rule is `h :- v.` the variable of v, and rejects a cycle
    that is kept here.
    """
    externals = program.externals
    by_head = program.clauses_by_head()
    reached = formula_atoms(formula) | {lit.atom for lit in evidence}
    stack = list(reached)
    while stack:
        atom = stack.pop()
        if atom in externals:
            continue
        for clause in by_head.get(atom, ()):
            for lit in clause.body:
                if lit.atom not in reached:
                    reached.add(lit.atom)
                    stack.append(lit.atom)
    internals = frozenset(reached - externals)
    clauses = tuple(c for c in program.clauses if c.head in internals)
    facts = tuple(f for f in program.facts if f.atom in reached)
    return Program(clauses, facts, Alphabet(internals, frozenset(reached & externals)))
