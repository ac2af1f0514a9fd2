"""Seeded input generation for the query workloads.

Every case is a program printed to ProbLog text plus a counterfactual query.
The same seed always yields the same cases; the library keeps no state between
cases, so a case costs the same wherever it falls in the run.

Both workloads draw their problems (programs and queries) from a fixed
stream, and the seed renames the atoms: every seed hands the library
different program texts and queries, but the same problems up to
isomorphism.  So the seed moves what a run costs far less than fresh
problems would (names only shift the library's tie-breaking), and one set of
reference answers covers every seed.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from whatif import benchgen
from whatif.model import (
    And,
    CounterfactualQuery,
    Literal,
    Not,
    Or,
    Var,
    conjunction,
)
from whatif.parser import parse_problog, print_problog
from whatif.wmc import marginal_wmc


def fingerprint(text: str, query: CounterfactualQuery) -> str:
    # literals sorted: set order varies between processes
    blob = f"{text}\n{query.query!r}\n{sorted(query.evidence)}\n{sorted(query.interventions)}"
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class Case:
    text: str
    query: CounterfactualQuery
    externals: int
    problem: str  # key of the stored reference answers

    @property
    def key(self) -> str:
        """Fingerprint of the inputs as the library sees them."""
        return fingerprint(self.text, self.query)


@dataclass(frozen=True)
class Workload:
    name: str
    backends: tuple[str, ...]
    exact: bool
    pool: int  # cases generated per run
    why: str

    @property
    def cross_check(self) -> bool:
        """Several backends answer each query and must agree; no reference needed."""
        return len(self.backends) > 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hub-float",
            ("wmc",),
            exact=False,
            pool=100,
            why="benchgen hub graphs, float wmc: model counting is ~90% of query time "
            "and per-query cost is heavy-tailed",
        ),
        Workload(
            "small-xcheck",
            ("enumerate", "oracle", "wmc"),
            exact=True,
            pool=80,
            why="random programs with negation answered by enumerate, oracle and wmc, "
            "which must agree exactly; minimal models dominate",
        ),
    )
}

# (n, k) cells of the hub workload; cases alternate between the cells.  The
# sizes are small so that one run holds three passes over the cases (see
# README.md).
HUB_CELLS = ((5, 4), (6, 3))
XCHECK_EXTERNALS = 8


def generate(name: str, seed: int) -> list[Case]:
    workload = WORKLOADS[name]
    problems = random.Random(f"{name}:problems")  # the same for every seed
    names = random.Random(f"{name}:{seed}")
    if name == "small-xcheck":
        cases = [_xcheck_case(problems, names, XCHECK_EXTERNALS) for _ in range(workload.pool)]
    else:
        cases = [_graph_case(problems, names, *HUB_CELLS[i % len(HUB_CELLS)])
                 for i in range(workload.pool)]
    names.shuffle(cases)
    return cases


def _graph_case(problems: random.Random, names: random.Random, n: int, k: int) -> Case:
    """A benchgen graph with an (e=2, i=2) counterfactual query on its goal.

    The graph and query come from `problems`; `names` then permutes the
    labels of every vertex but the goal, which leaves the answer unchanged.
    """
    while True:
        graph_seed = problems.randrange(1 << 31)
        instance = benchgen.generate_instance(n, k, graph_seed)
        try:
            query = benchgen.sample_query(instance, 2, 2, graph_seed)
        except benchgen.QuerySamplingError:
            continue  # no satisfiable evidence on this graph: draw another graph
        break
    problem = fingerprint(print_problog(benchgen.instance_to_program(instance)), query)
    labels = [v for v in instance.vertices if v != instance.goal]
    rename = dict(zip(labels, names.sample(labels, len(labels))))
    rename[instance.goal] = instance.goal
    instance = replace(instance, arcs=tuple((rename[a], rename[b]) for a, b in instance.arcs),
                       start=rename[instance.start])
    atoms = {f"r_{v}": f"r_{w}" for v, w in rename.items()}  # benchgen's reach atoms

    def renamed(literals: frozenset[Literal]) -> frozenset[Literal]:
        return frozenset(Literal(atoms[lit.atom], lit.positive) for lit in literals)

    query = CounterfactualQuery(query.query, renamed(query.evidence), renamed(query.interventions))
    program = benchgen.instance_to_program(instance)
    return Case(print_problog(program), query, len(program.externals), problem)


def _xcheck_case(rng: random.Random, names: random.Random, n_externals: int) -> Case:
    """Acyclic program with negation: bodies only use earlier internals.

    The structure comes from `rng` and only ever by position; `names` shuffles
    the atom names over the positions, which leaves the answer unchanged.
    """
    internals = [f"a{i}" for i in range(rng.randint(6, 12))]
    externals = [f"u{i}" for i in range(n_externals)]
    names.shuffle(internals)
    names.shuffle(externals)
    lines = [f"{rng.randint(1, 9) / 10}::{u}." for u in externals]
    for index in range(1, len(internals)):
        pool = internals[:index] + externals
        for _ in range(rng.randint(1, 2)):
            body = dict.fromkeys(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            lits = ", ".join(a if rng.random() < 0.7 else "\\+" + a for a in body)
            lines.append(f"{internals[index]} :- {lits}.")
    lines.append(f"{internals[0]} :- {rng.choice(externals)}.")
    text = "\n".join(lines) + "\n"
    program = parse_problog(text)
    atoms = internals

    def literals(count: int) -> frozenset[Literal]:
        return frozenset(Literal(a, rng.random() < 0.5) for a in rng.sample(atoms, count))

    formula = _random_formula(rng, atoms, depth=2)
    interventions = literals(rng.randint(1, 2))
    evidence: frozenset[Literal] = frozenset()
    for _ in range(50):
        drawn = literals(rng.randint(1, 2))
        if marginal_wmc(program, conjunction(drawn), exact=False) > 0:
            evidence = drawn
            break
    query = CounterfactualQuery(formula, evidence, interventions)
    return Case(text, query, n_externals, fingerprint(text, query))


def _random_formula(rng: random.Random, atoms: list[str], depth: int):
    if depth == 0 or rng.random() < 0.4:
        return Var(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_formula(rng, atoms, depth - 1))
    parts = tuple(_random_formula(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3)))
    return And(parts) if kind == 1 else Or(parts)
