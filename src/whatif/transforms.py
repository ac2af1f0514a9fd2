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
    formula_atoms,
    rename_formula,
)
from .semantics import analyse, inherit

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
    """The twin network (Balke & Pearl, AAAI 1994): two copies over shared random facts.

    The evidence copy is `program` and the intervention copy is
    `intervene(program, query.interventions)`.  Each copy is renamed once,
    alike in clause heads, clause bodies and the evidence: its internal
    atoms, and the query's atoms absent from the program, take the copy's
    suffix, and the random facts stay shared.  So evidence may name a random
    fact, which conditions the shared fact, while an intervention on one
    raises `intervene`'s `ValidationError`.  Returns the twin program, the
    query formula in the intervention copy's names and the evidence in the
    evidence copy's.

    The twin inherits the program's analyses (`semantics.inherit`): its SCCs
    in both copies, each evidence-copy SCC followed by its intervention
    copy, which is split again by `semantics.analyse` of its intervened
    clauses when an intervention cuts it, and its classification.
    """
    query_atoms = {lit.atom for lit in query.evidence | query.interventions}
    query_atoms |= formula_atoms(query.query)
    internals = program.internals | (query_atoms - program.externals)

    suffixes = (EVIDENCE_SUFFIX, INTERVENTION_SUFFIX)
    colliding = [a for a in internals | program.externals if a.endswith(suffixes)]
    if colliding:
        raise ValidationError(
            f"atom {min(colliding)} collides with the twin-copy suffix convention"
        )

    literals = {lit for clause in program.clauses for lit in clause.body} | query.evidence

    def renaming(suffix: str):
        names = {a: a + suffix for a in internals}
        # each distinct literal is renamed once per copy
        return names, {
            lit: Literal(names[lit.atom], lit.positive) if lit.atom in names else lit
            for lit in literals
        }.__getitem__

    names_e, rename_e = renaming(EVIDENCE_SUFFIX)
    names_i, rename_i = renaming(INTERVENTION_SUFFIX)
    acted = intervene(program, query.interventions)
    clauses = [Clause(names_e[c.head], frozenset(map(rename_e, c.body))) for c in program.clauses]
    clauses += [Clause(names_i[c.head], frozenset(map(rename_i, c.body))) for c in acted.clauses]
    alphabet = Alphabet(frozenset(a + s for a in internals for s in suffixes), program.externals)
    twinned = Program(tuple(clauses), program.facts, alphabet)
    forced = {lit.atom for lit in query.interventions}
    components = []
    for component in program.stratification.components:
        if len(component) == 1:  # the common case: no intervention splits it
            components += [names_e[component[0]]], [names_i[component[0]]]
            continue
        pieces = [component]
        if not forced.isdisjoint(component):
            members = frozenset(component)
            pieces = analyse([c for c in acted.clauses if c.head in members], members).components
        components.append([names_e[atom] for atom in component])
        components.extend([names_i[atom] for atom in piece] for piece in pieces)
    # an absent atom heads no rule, only facts, so it comes last: no edge points to it
    components.extend([a + s] for a in sorted(internals - program.internals) for s in suffixes)
    inherit(twinned, program, components)
    return twinned, rename_formula(query.query, names_i), frozenset(map(rename_e, query.evidence))


def relevant(program: Program, formula: Formula, evidence: Iterable[Literal]) -> Program:
    """The part of `program` that decides `formula` and `evidence`.

    Keeps the internal atoms the formula and the evidence depend on, their
    clauses, and the facts those clauses mention; the weights of every other
    external sum to 1.  A reached atom's SCC is kept whole, since its members
    are the atom's ancestors.  Atoms absent from the program become rule-less
    internals.  Nothing is merged or renamed: the encoder
    (`wmc.to_weighted_cnf`) gives atoms with equal bodies one variable, an
    atom whose one rule is `h :- v.` the variable of v, and rejects a cycle
    that is kept here.  The enumerate backend's world walk
    (`counterfactual._walk`) evaluates the clauses kept here too, over every
    external of the program.  The cone inherits what `program` has built
    (`semantics.inherit`): the SCCs inside it, when `program` is analysed,
    with `program`'s class when that is acyclic and its own clauses'
    otherwise, and the weight table.  It builds its own `Program.layout`.
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
    cone = Program(clauses, facts, Alphabet(internals, frozenset(reached & externals)))
    return inherit(cone, program)
