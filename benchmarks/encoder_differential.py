"""Differential check of the WMC encoding and the answers between two source trees.

Runs the `querybench` cases of both workloads for SEEDS under each tree.  Per
case it records the variable and clause counts of the CNF that
`wmc.encode_query` builds for the case's twin program, a digest of that CNF
(its clauses and weights in order, and its variable map sorted by atom, so
that the order in which atoms were entered does not count; the clauses in
order cover the definitions too, as the counter reads the variable a
clause defines from its first literal), the rational answer of every
backend the workload uses, and the float answer of `wmc`.  It then checks
that the rational answers are equal, that the float answers agree
within REL_TOL relative, and that the new variable and clause counts are at
most the old ones.  It also draws LPAD_CASES annotated-disjunction programs
per seed from `tests/generators.py` (`random_lpad`, `random_formula`,
`random_lpad_query`) and checks that the exact answers of
`lpad.lpad_distribution` and `lpad.cp_counterfactual` are equal, and that
so is the printed text of `lpad.prob_of_lpad`'s translation; a
`ZeroEvidenceError` counts as an answer.  It checks as well that the printed
text of `benchgen.instance_to_program` is the same on a small grid of
graphs, BENCHGEN_NS by BENCHGEN_KS, one per seed; a text counts as an
answer by its sha256 digest, so one differing byte is a difference.  Next,
it draws SHAPE_CASES programs and queries per seed (`random_acyclic_program`,
`random_counterfactual_query`), each drawn again until the probability of
the query's formula lies strictly between 0 and 1, and checks the exact
answers of the four entry points of `whatif.counterfactual` on every
backend: the query, its formula alone, with its evidence only and with its
interventions only; the name of an error's class counts as an answer.  Then
it draws STRATIFIED_CASES programs per seed with a recursive block
(`random_stratified_program`), each with a `random_formula` query, and
checks the exact `enumerate` and `oracle` answers of that query alone, with
evidence, with interventions and with both.  They run the fixpoint of
recursive blocks, which the other rows, all acyclic, never reach.  Answers
of 0 or 1 say little about weights, so at least OPEN_FLOOR of the
query-shape rows' answers, and of the stratified rows', under the new tree
must lie strictly between 0 and 1.

    python3 benchmarks/encoder_differential.py OLD/src NEW/src

Prints one line per workload and seed with the cases checked, the variable
and clause counts summed over them, how many cases' CNFs are identical and
the largest float difference, one line per seed of LPAD, benchgen-text,
query-shape and stratified cases, then the first SHOW differing cases.
Exits 1 on any difference or when the query-shape or the stratified rows
fall below OPEN_FLOOR; a CNF that is not identical is reported, not a difference.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

SEEDS = (1, 2)
REL_TOL = 1e-12
SHOW = 20  # differing cases to print
LPAD_CASES = 60  # random LPADs per seed
LPAD = "lpad"  # the workload name of the LPAD rows
BENCHGEN_NS, BENCHGEN_KS = (1, 5, 20), (0, 1, 3)  # the graph sizes of the benchgen-text rows
BENCHGEN = "benchgen text"  # the workload name of their rows
SHAPE_CASES = 60  # random programs and queries per seed
SHAPES = "query shapes"  # the workload name of their rows
STRATIFIED_CASES = 60  # random stratified programs and queries per seed
STRATIFIED = "stratified"  # the workload name of their rows
EVIDENCE_DRAWS = 20  # draws of stratified evidence until one has nonzero probability
OPEN_FLOOR = 0.25  # least share of query-shape and of stratified answers strictly in (0, 1)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _worker() -> None:
    from whatif import transforms, wmc
    from whatif.counterfactual import answer_counterfactual
    from whatif.parser import parse_problog
    from workloads import WORKLOADS, generate

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for case in generate(name, seed):
                program = parse_problog(case.text)
                cnf, _, _ = wmc.encode_query(*transforms.twin(program, case.query))
                layout = (cnf.clauses, list(cnf.weights.items()), sorted(cnf.var_map.items()))
                digest = _digest(repr(layout))
                answers = {}
                for backend in workload.backends:
                    answers[backend] = str(answer_counterfactual(program, case.query, backend))
                answers["wmc float"] = answer_counterfactual(program, case.query, exact=False)
                row = [name, seed, case.key, cnf.var_count, len(cnf.clauses), digest, answers]
                print(json.dumps(row))
    for seed in SEEDS:
        for row in _lpad_rows(seed):
            print(json.dumps(row))
    for seed in SEEDS:
        for row in _benchgen_rows(seed):
            print(json.dumps(row))
    for seed in SEEDS:
        for row in _shape_rows(seed):
            print(json.dumps(row))
    for seed in SEEDS:
        for row in _stratified_rows(seed):
            print(json.dumps(row))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lpad_rows(seed: int):
    """The exact answers of the two selection-based LPAD functions on seeded random cases.

    The printed text of the case's translation into random facts counts as an answer too.
    """
    import random

    from generators import random_formula, random_lpad, random_lpad_query
    from whatif.lpad import cp_counterfactual, lpad_distribution, prob_of_lpad
    from whatif.model import ZeroEvidenceError
    from whatif.parser import print_problog

    rng = random.Random(seed)
    for index in range(LPAD_CASES):
        lpad = random_lpad(rng, max_clauses=6, max_heads=3)
        formula = random_formula(rng, sorted(lpad.atoms))
        query = random_lpad_query(rng, lpad)
        answers = {"lpad_distribution": str(lpad_distribution(lpad, formula)),
                   "prob_of_lpad text": _digest(print_problog(prob_of_lpad(lpad)))}
        try:
            answers["cp_counterfactual"] = str(cp_counterfactual(lpad, query))
        except ZeroEvidenceError:
            answers["cp_counterfactual"] = "ZeroEvidenceError"
        yield [LPAD, seed, index, 0, 0, "", answers]


def _benchgen_rows(seed: int):
    """The printed text of the benchmark family's program, per graph size, for the seed."""
    from whatif.benchgen import generate_instance, instance_to_program
    from whatif.parser import print_problog

    for n in BENCHGEN_NS:
        for k in BENCHGEN_KS:
            text = print_problog(instance_to_program(generate_instance(n, k, seed)))
            yield [BENCHGEN, seed, f"n={n} k={k}", 0, 0, "", {"text": _digest(text)}]


def _shape_rows(seed: int):
    """The exact answers of the four entry points, on every backend, on seeded random cases.

    A program and query whose formula has probability 0 or 1 are drawn
    again, with the case's own generator, as in `_stratified_rows`: a
    rule-less query atom or a program of constant facts mostly gives 0 or 1.
    """
    import random

    from generators import random_acyclic_program, random_counterfactual_query
    from whatif import counterfactual
    from whatif.model import WhatifError
    from whatif.semantics import marginal

    for index in range(SHAPE_CASES):
        rng = random.Random(f"{SHAPES} {seed} {index}")
        while True:
            program = random_acyclic_program(rng, max_internals=6, max_externals=6)
            query = random_counterfactual_query(rng, program)
            if 0 < marginal(program, query.query) < 1:
                break
        entries = (
            (counterfactual.answer_counterfactual, (query,)),
            (counterfactual.marginal, (query.query,)),
            (counterfactual.conditional, (query.query, query.evidence)),
            (counterfactual.answer_intervention, (query.query, query.interventions)),
        )
        answers = {}
        for entry, args in entries:
            for backend in counterfactual.BACKENDS:
                key = f"{entry.__name__} {backend}"
                try:
                    answers[key] = str(entry(program, *args, backend))
                except WhatifError as exc:
                    answers[key] = type(exc).__name__
        yield [SHAPES, seed, index, 0, 0, "", answers]


def _stratified_rows(seed: int):
    """The exact enumerate and oracle answers of four query shapes on seeded cyclic programs.

    Each program is a `random_stratified_program` with a recursive block and
    a fact of probability strictly between 0 and 1, drawn again until it has
    both.  The query formula reads atoms that head a rule or are external,
    and evidence and interventions name heads; evidence of probability zero
    is drawn again up to EVIDENCE_DRAWS times, as `random_counterfactual_query`
    does.  A program without these, or a rule-less atom, mostly gives 0 or 1.
    """
    import random
    import warnings

    from generators import random_formula, random_stratified_program
    from whatif.counterfactual import answer_counterfactual
    from whatif.model import CounterfactualQuery, Literal, WhatifError, conjunction
    from whatif.semantics import marginal

    def informative(program) -> bool:
        return (any(0 < fact.prob < 1 for fact in program.facts)
                and any(len(component) > 1 for component in program.stratification.components))

    for index in range(STRATIFIED_CASES):
        # one generator per case, so that a wrong marginal in the evidence draw
        # shows in its own case and leaves the later cases as they were
        rng = random.Random(f"{seed} {index}")
        program = random_stratified_program(rng, max_externals=5)
        while not informative(program):
            program = random_stratified_program(rng, max_externals=5)
        heads = sorted({clause.head for clause in program.clauses})
        formula = random_formula(rng, heads + sorted(program.externals))

        def literals():
            return frozenset(Literal(atom, rng.random() < 0.5)
                             for atom in rng.sample(heads, min(len(heads), rng.randint(1, 2))))

        interventions = literals()
        for _ in range(EVIDENCE_DRAWS):
            evidence = literals()
            if marginal(program, conjunction(evidence)) > 0:
                break
        answers = {}
        for shape, query in (
            ("marginal", CounterfactualQuery(formula)),
            ("evidence", CounterfactualQuery(formula, evidence)),
            ("do", CounterfactualQuery(formula, (), interventions)),
            ("counterfactual", CounterfactualQuery(formula, evidence, interventions)),
        ):
            for backend in ("enumerate", "oracle"):
                try:
                    with warnings.catch_warnings():  # the cyclic-program warning
                        warnings.simplefilter("ignore")
                        answers[f"{shape} {backend}"] = str(
                            answer_counterfactual(program, query, backend))
                except WhatifError as exc:
                    answers[f"{shape} {backend}"] = type(exc).__name__
        yield [STRATIFIED, seed, index, 0, 0, "", answers]


def _open_share(rows: list) -> float:
    """The share of the rows' answers that are a number strictly between 0 and 1."""
    answers = [answer for row in rows for answer in row[6].values()]
    inside = sum(answer[0].isdigit() and 0 < Fraction(answer) < 1 for answer in answers)
    return inside / len(answers) if answers else 0.0


def _rows(src: str):
    """Stream the worker's rows for the tree at `src`."""
    path = os.pathsep.join(
        [os.path.abspath(src)] + [os.path.join(ROOT, d) for d in ("querybench", "tests")]
    )
    command = [sys.executable, __file__, "--worker"]
    env = dict(os.environ, PYTHONPATH=path)
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True) as worker:
        for line in worker.stdout:
            yield json.loads(line)
    if worker.returncode:
        raise subprocess.CalledProcessError(worker.returncode, command)


def _differences(old: list, new: list) -> list[str]:
    _, _, key, old_vars, old_clauses, _, before = old
    _, _, new_key, new_vars, new_clauses, _, after = new
    if key != new_key:
        return ["different case"]
    found = []
    if new_vars > old_vars:
        found.append(f"variables {old_vars} -> {new_vars}")
    if new_clauses > old_clauses:
        found.append(f"clauses {old_clauses} -> {new_clauses}")
    for backend in before:
        if backend != "wmc float" and before[backend] != after[backend]:
            found.append(f"{backend} {before[backend]} -> {after[backend]}")
    x, y = before.get("wmc float", 0.0), after.get("wmc float", 0.0)
    if abs(x - y) > REL_TOL * max(abs(x), abs(y)):
        found.append(f"wmc float {x!r} -> {y!r}")
    return found


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("old_src", nargs="?", help="source tree of the reference encoder")
    cli.add_argument("new_src", nargs="?", help="source tree of the encoder under test")
    cli.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = cli.parse_args(argv)
    if args.worker:
        _worker()
        return 0
    if not (args.old_src and args.new_src):
        cli.error("give the two source trees to compare")
    # (workload, seed) -> [cases, old vars, new vars, old clauses, new clauses,
    #                      identical CNFs, max rel]
    tally: dict[tuple, list] = {}
    shown, differing = [], 0
    floored: dict[tuple, list] = {}  # (workload, seed) -> the new tree's rows held to OPEN_FLOOR
    for old, new in zip(_rows(args.old_src), _rows(args.new_src), strict=True):
        if new[0] in (SHAPES, STRATIFIED):
            floored.setdefault((new[0], new[1]), []).append(new)
        counts = tally.setdefault((old[0], old[1]), [0, 0, 0, 0, 0, 0, 0.0])
        x, y = old[6].get("wmc float", 0.0), new[6].get("wmc float", 0.0)
        counts[0] += 1
        counts[1] += old[3]
        counts[2] += new[3]
        counts[3] += old[4]
        counts[4] += new[4]
        counts[5] += old[5] == new[5]
        counts[6] = max(counts[6], abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0)
        found = _differences(old, new)
        if found:
            differing += 1
            if len(shown) < SHOW:
                shown.append(f"{old[0]} seed {old[1]} case {old[2]}: " + "; ".join(found))
    for (name, seed), (cases, *sums, identical, rel) in tally.items():
        if name in (LPAD, BENCHGEN):
            print(f"{name} seed {seed}: {cases} cases")
            continue
        if name in (SHAPES, STRATIFIED):
            print(f"{name} seed {seed}: {cases} cases, "
                  f"{_open_share(floored[name, seed]):.1%} of answers strictly between 0 and 1")
            continue
        print(f"{name} seed {seed}: {cases} cases, variables {sums[0]} -> {sums[1]}, "
              f"clauses {sums[2]} -> {sums[3]}, {identical} identical CNFs, "
              f"largest float difference {rel:.3g} relative")
    print("\n".join(shown))
    print(f"{differing} differing cases")
    low = False
    for name in (SHAPES, STRATIFIED):
        share = _open_share([row for key, rows in floored.items() if key[0] == name
                             for row in rows])
        if share < OPEN_FLOOR:
            print(f"only {share:.1%} of {name} answers lie strictly between 0 and 1, "
                  f"below the floor of {OPEN_FLOOR:.0%}")
            low = True
    return 1 if differing or low else 0


if __name__ == "__main__":
    sys.exit(main())
