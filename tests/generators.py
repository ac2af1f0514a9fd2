"""Seeded random generators for programs, formulas and queries used across tests."""
from __future__ import annotations

import random
from fractions import Fraction

from whatif.model import (
    Alphabet,
    Clause,
    CounterfactualQuery,
    Formula,
    Literal,
    Not,
    And,
    Or,
    Program,
    RandomFact,
    Var,
    conjunction,
    formula_atoms,
)
from whatif.lpad import LpadClause, LpadProgram
from whatif.semantics import marginal


def random_probability(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 10), 10)


def random_acyclic_program(
    rng: random.Random,
    max_internals: int = 8,
    max_externals: int = 10,
    max_clauses: int = 12,
    max_body: int = 3,
    negation: bool = True,
) -> Program:
    """Acyclic by construction: clause bodies only mention lower-numbered internals."""
    n_int = rng.randint(1, max_internals)
    n_ext = rng.randint(1, max_externals)
    internals = [f"a{i}" for i in range(n_int)]
    externals = [f"u{i}" for i in range(n_ext)]
    facts = tuple(RandomFact(u, random_probability(rng)) for u in externals)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        head_index = rng.randrange(n_int)
        pool = internals[:head_index] + externals
        body = set()
        for _ in range(rng.randint(0, max_body)):
            atom = rng.choice(pool)
            positive = True if not negation else rng.random() < 0.7
            body.add(Literal(atom, positive))
        clauses.append(Clause(internals[head_index], frozenset(body)))
    # alphabet restricted to mentioned atoms so programs survive printing
    mentioned = {c.head for c in clauses} | {l.atom for c in clauses for l in c.body}
    alphabet = Alphabet(frozenset(mentioned) - frozenset(externals), frozenset(externals))
    return Program(tuple(clauses), facts, alphabet)


def random_stratified_program(
    rng: random.Random,
    max_internals: int = 7,
    max_externals: int = 3,
    max_clauses: int = 12,
    max_body: int = 3,
) -> Program:
    """Stratified by construction, and often cyclic.

    Each internal gets a level; a body reads internals of its head's level
    only positively (self-loops such as ``a :- a, u.`` and positive cycles)
    and lower levels with either sign.  Bodies may be empty (fact clauses),
    a clause may repeat or share its body with another head, and the
    alphabet holds every internal, so some have no rule.
    """
    internals = [f"a{i}" for i in range(rng.randint(1, max_internals))]
    externals = [f"u{i}" for i in range(rng.randint(0, max_externals))]
    level = {atom: rng.randrange(3) for atom in internals}
    clauses: list[Clause] = []
    for _ in range(rng.randint(0, max_clauses)):
        roll = rng.random()
        if clauses and roll < 0.1:
            clauses.append(rng.choice(clauses))
            continue
        head = rng.choice(internals)
        if clauses and roll < 0.2:
            body = rng.choice(clauses).body
            if all(level.get(lit.atom, -1) < level[head]
                   or (lit.positive and level[lit.atom] == level[head]) for lit in body):
                clauses.append(Clause(head, body))
            continue
        pool = [a for a in internals if level[a] <= level[head]] + externals
        body = set()
        for _ in range(rng.randint(0, max_body)):
            atom = rng.choice(pool)
            body.add(Literal(atom, level.get(atom, -1) == level[head] or rng.random() < 0.6))
        clauses.append(Clause(head, frozenset(body)))
    facts = tuple(RandomFact(u, random_probability(rng)) for u in externals)
    return Program(tuple(clauses), facts, Alphabet(frozenset(internals), frozenset(externals)))


def random_formula(rng: random.Random, atoms: list[str], depth: int = 2) -> Formula:
    if depth == 0 or rng.random() < 0.4:
        return Var(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    parts = tuple(random_formula(rng, atoms, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(parts) if kind == 1 else Or(parts)


def random_counterfactual_query(
    rng: random.Random, program: Program, max_draws: int = 50
) -> CounterfactualQuery:
    """Random query with satisfiable evidence (checked by enumeration)."""
    internals = sorted(program.internals)
    query = random_formula(rng, internals)
    interventions = frozenset(
        Literal(a, rng.random() < 0.5)
        for a in rng.sample(internals, min(len(internals), rng.randint(0, 2)))
    )
    for _ in range(max_draws):
        evidence = frozenset(
            Literal(a, rng.random() < 0.5)
            for a in rng.sample(internals, min(len(internals), rng.randint(0, 2)))
        )
        if not evidence or marginal(program, conjunction(evidence)) > 0:
            return CounterfactualQuery(query, evidence, interventions)
    return CounterfactualQuery(query, frozenset(), interventions)


def random_lpad(
    rng: random.Random, max_clauses: int = 4, max_heads: int = 2, max_body: int = 2
) -> LpadProgram:
    """Acyclic: head atoms of a clause are higher-numbered than its body atoms.

    Head probabilities are tenths.  A head takes no mass, or all the mass its
    clause has left, one time in ten; otherwise it takes strictly less.
    """
    atoms = [f"b{i}" for i in range(4)]
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        n_heads = rng.randint(1, max_heads)
        head_indices = sorted(rng.sample(range(len(atoms)), n_heads))
        probs = []
        left = 10  # tenths not yet given to a head
        for _ in head_indices:
            if left < 2 or rng.random() < 0.1:
                tenths = rng.choice((0, left))
            else:
                tenths = rng.randint(1, left - 1)
            probs.append(Fraction(tenths, 10))
            left -= tenths
        pool = atoms[: head_indices[0]]
        body = frozenset(
            Literal(rng.choice(pool), rng.random() < 0.7)
            for _ in range(rng.randint(0, max_body) if pool else 0)
        )
        clauses.append(
            LpadClause(tuple((atoms[i], p) for i, p in zip(head_indices, probs)), body)
        )
    return LpadProgram(tuple(clauses))


def random_lpad_query(
    rng: random.Random, program: LpadProgram, max_draws: int = 50
) -> CounterfactualQuery:
    """Random LPAD counterfactual query with evidence of nonzero probability.

    The query formula reads atoms that some head gives mass, and the
    evidence and the interventions name other atoms, when there are such
    atoms: a query on a massless, observed or intervened atom is decided.
    """
    from whatif.lpad import lpad_distribution

    atoms = sorted(program.atoms)
    heads = sorted({a for clause in program.clauses for a, p in clause.head if p})
    query = random_formula(rng, heads or atoms)
    others = sorted(set(atoms) - formula_atoms(query)) or atoms
    interventions = frozenset(
        Literal(a, rng.random() < 0.5)
        for a in rng.sample(others, min(len(others), rng.randint(0, 2)))
    )
    for _ in range(max_draws):
        evidence = frozenset(
            Literal(a, rng.random() < 0.5)
            for a in rng.sample(others, min(len(others), rng.randint(0, 2)))
        )
        if not evidence or lpad_distribution(program, conjunction(evidence)) > 0:
            return CounterfactualQuery(query, evidence, interventions)
    return CounterfactualQuery(query, frozenset(), interventions)
