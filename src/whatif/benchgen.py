"""Benchmark family: random trees with hub vertices, the graph-traversal
program, query sampling and a CSV experiment runner.

Under the CP-logic reading of the program's annotated disjunctions, the
reach atoms true in a world are one walk from the start: each reached vertex
that is not trapped picks exactly one out-arc.  So on an acyclic graph the
query sampler decides whether evidence is satisfiable on the graph itself,
without translating or counting a program (see `sample_query`).
"""
from __future__ import annotations

import csv
import io
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import (
    Alphabet,
    Clause,
    CounterfactualQuery,
    Literal,
    NegativeCycleError,
    Program,
    RandomFact,
    Var,
    WhatifError,
)
from .lpad import LpadClause, LpadProgram, prob_of_lpad
from . import counterfactual

TRAP_PROB = Fraction(1, 10)
GOAL = "goal"
MAX_DRAWS = 200  # evidence sets `sample_query` tries before giving up


class QuerySamplingError(WhatifError):
    """No satisfiable evidence set found within the draw budget."""


@dataclass(frozen=True)
class GraphInstance:
    n: int
    k: int
    seed: int
    arcs: tuple[tuple[str, str], ...]
    start: str
    goal: str

    @property
    def vertices(self) -> list[str]:
        """The start, each arc's ends in order and the goal, each once, in order of first sight."""
        return list(dict.fromkeys([self.start, *(v for arc in self.arcs for v in arc), self.goal]))


def generate_instance(n: int, k: int, seed: int) -> GraphInstance:
    """Random tree of size n, k hub vertices fed by every tree vertex, one goal.

    The tree attaches vertex j to a uniformly chosen earlier vertex, so the
    construction is deterministic in the seed and needs no graph library.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = random.Random(seed)
    tree = [f"v{i}" for i in range(1, n + 1)]
    hubs = [f"h{j}" for j in range(1, k + 1)]
    arcs: list[tuple[str, str]] = []
    for j in range(2, n + 1):
        parent = rng.randrange(1, j)
        arcs.append((f"v{parent}", f"v{j}"))
    for vertex in tree:
        for hub in hubs:
            arcs.append((vertex, hub))
    for hub in hubs:
        arcs.append((hub, GOAL))
    return GraphInstance(n, k, seed, tuple(arcs), "v1", GOAL)


def _r(v: str) -> str:
    return f"r_{v}"


def instance_to_program(instance: GraphInstance) -> Program:
    """Ground traversal program: reach atoms, per-arc path choices, trap switches.

    Each vertex with outgoing arcs gets an annotated disjunction choosing one
    arc uniformly; it is emitted as an LPAD clause and translated into
    independent random facts.  Every arc grounding of the trap rule gets its
    own external switch.
    """
    out_arcs: dict[str, list[str]] = {}
    for src, dst in instance.arcs:
        out_arcs.setdefault(src, []).append(dst)

    clauses: list[Clause] = [Clause(_r(instance.start))]
    facts: list[RandomFact] = []
    choice_clauses: list[LpadClause] = []
    for src, dst in instance.arcs:
        path = f"p_{src}_{dst}"
        trap_switch = f"ut_{src}_{dst}"
        clauses.append(Clause(_r(dst), frozenset({Literal(path)})))
        facts.append(RandomFact(trap_switch, TRAP_PROB))
        clauses.append(
            Clause(f"trap_{dst}", frozenset({Literal(path), Literal(trap_switch)}))
        )
    for vertex in instance.vertices:
        targets = out_arcs.get(vertex)
        if not targets:
            continue
        share = Fraction(1, len(targets))
        head = tuple((f"p_{vertex}_{dst}", share) for dst in targets)
        body = frozenset({Literal(_r(vertex)), Literal(f"trap_{vertex}", False)})
        choice_clauses.append(LpadClause(head, body))

    translated = prob_of_lpad(LpadProgram(tuple(choice_clauses)))
    clauses.extend(translated.clauses)
    facts.extend(translated.facts)
    externals = frozenset(f.atom for f in facts)
    internals = frozenset(
        {_r(v) for v in instance.vertices}
        | {f"trap_{v}" for v in instance.vertices}
        | {a for a in translated.internals}
        | {f"p_{src}_{dst}" for src, dst in instance.arcs}
    )
    return Program(tuple(clauses), tuple(facts), Alphabet(internals, externals))


def _below(instance: GraphInstance) -> dict[str, set[str]]:
    """Each vertex's transitive successors along the arcs.

    A cycle in the arcs makes the program's reach and trap atoms depend on
    each other through negation, so it raises `NegativeCycleError`.
    """
    successors: dict[str, list[str]] = {v: [] for v in instance.vertices}
    unseen = dict.fromkeys(instance.vertices, 0)  # arcs into each vertex not yet ordered
    for src, dst in instance.arcs:
        successors[src].append(dst)
        unseen[dst] += 1
    order = [v for v, count in unseen.items() if not count]
    for v in order:  # topological order; the list grows while it is read
        for w in successors[v]:
            unseen[w] -= 1
            if not unseen[w]:
                order.append(w)
    if len(order) < len(unseen):
        raise NegativeCycleError("program has a cycle through negation")
    below: dict[str, set[str]] = {}
    for v in reversed(order):
        below[v] = set(successors[v]).union(*(below[w] for w in successors[v]))
    return below


def _satisfiable(
    instance: GraphInstance, below: dict[str, set[str]], vertices: list[str], positive: bool
) -> bool:
    """Whether some world reaches all of `vertices` (positive) or none of them."""
    start = instance.start
    if positive:
        return all(v == start or v in below[start] for v in vertices) and all(
            a in below[b] or b in below[a] for a, b in itertools.combinations(vertices, 2)
        )
    firsts = {dst for src, dst in instance.arcs if src == start}
    return start not in vertices and not (firsts and firsts.issubset(vertices))


def sample_query(
    instance: GraphInstance,
    e_count: int,
    i_count: int,
    seed: int,
) -> CounterfactualQuery:
    """Query r_goal with |e_count| evidence and |i_count| intervention literals.

    The sign of each count gives the literal polarity.  Evidence is rejection
    sampled until jointly satisfiable, which is decided on the graph, with
    no program built or counted.  A reached vertex that is not trapped picks
    exactly one out-arc, each with share 1/m > 0, the shares summing to 1; a
    vertex entered by arc (u, v) is trapped exactly when ut_u_v holds, of
    probability TRAP_PROB, strictly between 0 and 1; r_v holds exactly on
    the walk.  So every path from the start, stopped at any vertex after the
    start, has positive probability, and no other set of vertices is ever
    reached.  Positive evidence is satisfiable exactly when each of its
    vertices is the start or below it and every two of them are comparable,
    one below the other: one walk passes through all of them.  Negative
    evidence is satisfiable exactly when it leaves out the start, and the
    start has no out-arcs or one of them leads outside the evidence: the
    walk steps there and is trapped.  The argument needs an acyclic graph,
    so with evidence a cycle in the arcs raises `NegativeCycleError`.
    """
    rng = random.Random(seed)
    candidates = [_r(v) for v in instance.vertices if v != instance.goal]
    if abs(e_count) > len(candidates) or abs(i_count) > len(candidates):
        raise ValueError("more literals requested than reachable atoms")
    evidence: frozenset[Literal] = frozenset()
    if e_count:
        polarity = e_count > 0
        below = _below(instance)
        vertex = {_r(v): v for v in instance.vertices}
        for _ in range(MAX_DRAWS):
            atoms = rng.sample(candidates, abs(e_count))
            evidence = frozenset(Literal(a, polarity) for a in atoms)
            if _satisfiable(instance, below, [vertex[a] for a in atoms], polarity):
                break
        else:
            raise QuerySamplingError(
                f"no satisfiable evidence found in {MAX_DRAWS} draws"
            )
    interventions: frozenset[Literal] = frozenset()
    if i_count:
        atoms = rng.sample(candidates, abs(i_count))
        interventions = frozenset(Literal(a, i_count > 0) for a in atoms)
    return CounterfactualQuery(Var(_r(instance.goal)), evidence, interventions)


# --- experiment runner ----------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    ns: tuple[int, ...] = (20,)
    ks: tuple[int, ...] = (1,)
    seeds: tuple[int, ...] = (1,)
    e_count: int = 0
    i_count: int = 0
    backends: tuple[str, ...] = ("wmc",)


CSV_COLUMNS = ["n", "k", "seed", "e", "i", "backend", "status", "wall_time_s", "answer"]


def _run_instance(n, k, seed, e_count, i_count, backend, pipe) -> None:
    try:
        instance = generate_instance(n, k, seed)
        query = sample_query(instance, e_count, i_count, seed)
        program = instance_to_program(instance)
        start = time.perf_counter()
        answer = counterfactual.answer_counterfactual(
            program, query, backend=backend, exact=False
        )
        pipe.send(("OK", time.perf_counter() - start, float(answer)))
    except Exception as exc:  # recorded per row, never aborts the grid
        pipe.send(("ERROR", 0.0, str(exc)))
    finally:
        pipe.close()


def run_experiment(
    grid: GridSpec, time_limit_s: float, jobs: int = 1
) -> list[dict[str, object]]:
    """Run every grid cell with a wall-clock limit; timeouts get the penalty time."""
    import multiprocessing  # here, in the only code that starts workers, not on `whatif query`

    tasks = [
        (n, k, seed, grid.e_count, grid.i_count, backend)
        for n in grid.ns
        for k in grid.ks
        for seed in grid.seeds
        for backend in grid.backends
    ]
    rows: list[dict[str, object]] = []
    context = multiprocessing.get_context()
    for offset in range(0, len(tasks), max(jobs, 1)):
        batch = tasks[offset : offset + max(jobs, 1)]
        running = []
        for task in batch:
            if time_limit_s <= 0:
                running.append((task, None, None))
                continue
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_run_instance, args=task + (sender,))
            process.start()
            sender.close()
            running.append((task, process, receiver))
        deadline = time.monotonic() + time_limit_s  # one limit for the whole batch
        for task, process, receiver in running:
            n, k, seed, e_count, i_count, backend = task
            status, wall, answer = "TIMEOUT", float(time_limit_s), ""
            if process is not None:
                process.join(max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.terminate()
                    process.join()
                elif receiver.poll():
                    status, wall, answer = receiver.recv()
                else:
                    status, wall, answer = "ERROR", 0.0, "worker died"
                receiver.close()
            rows.append(
                dict(
                    zip(
                        CSV_COLUMNS,
                        [n, k, seed, e_count, i_count, backend, status, wall, answer],
                    )
                )
            )
    return rows


def rows_to_csv(rows: Iterable[dict[str, object]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()
