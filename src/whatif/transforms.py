"""Source-to-source rewrites: interventions and the twin-network construction."""
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


def _rename(atom: str, internals: frozenset[str], suffix: str) -> str:
    return atom + suffix if atom in internals else atom


def _rename_clause(clause: Clause, internals: frozenset[str], suffix: str) -> Clause:
    body = frozenset(
        Literal(_rename(lit.atom, internals, suffix), lit.positive) for lit in clause.body
    )
    return Clause(clause.head + suffix, body)


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

    for atom in sorted(program.internals | program.externals):
        if atom.endswith(EVIDENCE_SUFFIX) or atom.endswith(INTERVENTION_SUFFIX):
            raise ValidationError(
                f"atom {atom} collides with the twin-copy suffix convention"
            )

    internals = program.internals
    clauses = []
    for suffix in (EVIDENCE_SUFFIX, INTERVENTION_SUFFIX):
        clauses.extend(_rename_clause(c, internals, suffix) for c in program.clauses)
    twin_alphabet = Alphabet(
        frozenset(a + s for a in internals for s in (EVIDENCE_SUFFIX, INTERVENTION_SUFFIX)),
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


_FACT_KEY = frozenset({frozenset()})  # the key of an atom that has a fact clause


def relevant(
    program: Program, formula: Formula, evidence: Iterable[Literal]
) -> tuple[Program, Formula, frozenset[Literal]]:
    """The part of an acyclic program that decides `formula` and `evidence`.

    Prune: keep only the internal atoms the formula and the evidence depend
    on, their clauses, and the facts those mention.  Merge: visit the kept
    atoms bottom-up and replace an atom by an earlier one with the same set
    of bodies (after renaming), in the clauses, the formula and the
    evidence; under Clark completion the two are equal in every world.
    Atoms absent from the program are rule-less internals.  If the kept
    part has a cycle, the input is returned unchanged for the encoder to
    reject.
    """
    evidence = frozenset(evidence)
    externals = program.externals
    by_head = program.clauses_by_head()
    roots = sorted(formula_atoms(formula) | {lit.atom for lit in evidence})
    kept_externals = {atom for atom in roots if atom in externals}
    body_atoms: dict[str, set[str]] = {}  # visited internal atom -> atoms of its bodies

    def visit(atom: str) -> list[str]:
        atoms = body_atoms[atom] = {l.atom for c in by_head.get(atom, ()) for l in c.body}
        return sorted(atoms, reverse=True)  # popped in sorted order

    order: list[str] = []  # post-order: body atoms before heads
    for root in roots:
        if root in externals or root in body_atoms:
            continue
        path = {root}
        stack = [(root, visit(root))]
        while stack:
            atom, pending = stack[-1]
            if not pending:
                stack.pop()
                path.discard(atom)
                order.append(atom)
                continue
            child = pending.pop()
            if child in externals:
                kept_externals.add(child)
            elif child in path:
                return program, formula, evidence
            elif child not in body_atoms:
                path.add(child)
                stack.append((child, visit(child)))

    renamed: dict[str, str] = {}
    first: dict[frozenset, str] = {}  # set of renamed bodies -> representative
    clauses: list[Clause] = []
    for atom in order:
        own = by_head.get(atom, [])
        key = frozenset(
            frozenset((renamed.get(l.atom, l.atom), l.positive) for l in c.body) for c in own
        )
        if frozenset() in key:  # a fact clause decides the head alone
            key, own = _FACT_KEY, [Clause(atom)]
        head = first.setdefault(key, atom)
        if head != atom:
            renamed[atom] = head
        elif renamed.keys().isdisjoint(body_atoms[atom]):
            clauses.extend(own)
        else:
            clauses.extend(Clause(atom, _rename_body(c.body, renamed)) for c in own)
    if renamed:
        formula = rename_formula(formula, renamed)
        evidence = _rename_body(evidence, renamed)
    facts = tuple(f for f in program.facts if f.atom in kept_externals)
    alphabet = Alphabet(frozenset(first.values()), frozenset(kept_externals))
    return Program(tuple(clauses), facts, alphabet), formula, evidence


def _rename_body(literals: frozenset[Literal], mapping: dict[str, str]) -> frozenset[Literal]:
    return frozenset(
        Literal(mapping[l.atom], l.positive) if l.atom in mapping else l for l in literals
    )
