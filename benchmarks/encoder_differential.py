"""Differential check of the WMC encoding and the answers between two source trees.

Runs the `querybench` cases of both workloads for SEEDS under each tree.  Per
case it records the variable and clause counts of the CNF that
`wmc.encode_query` builds for the case's twin program, a digest of that CNF
(its clauses, weights and variable map, in order), the rational answer of
every backend the workload uses, and the float answer of `wmc`.  It then
checks that the rational answers are equal, that the float answers agree
within REL_TOL relative, and that the new variable and clause counts are at
most the old ones.  It also draws LPAD_CASES annotated-disjunction programs
per seed from `tests/generators.py` (`random_lpad`, `random_formula`,
`random_lpad_query`) and checks that the exact answers of
`lpad.lpad_distribution` and `lpad.cp_counterfactual` are equal; a
`ZeroEvidenceError` counts as an answer.

    python3 benchmarks/encoder_differential.py OLD/src NEW/src

Prints one line per workload and seed with the cases checked, the variable
and clause counts summed over them, how many cases' CNFs are identical and
the largest float difference, one line per seed of LPAD cases, then the
first SHOW differing cases.  Exits 1 on any difference; a CNF that is not
identical is reported, not a difference.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

SEEDS = (1, 2)
REL_TOL = 1e-12
SHOW = 20  # differing cases to print
LPAD_CASES = 60  # random LPADs per seed
LPAD = "lpad"  # the workload name of the LPAD rows

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
                layout = (cnf.clauses, list(cnf.weights.items()), list(cnf.var_map.items()))
                digest = hashlib.sha256(repr(layout).encode()).hexdigest()
                answers = {}
                for backend in workload.backends:
                    answers[backend] = str(answer_counterfactual(program, case.query, backend))
                answers["wmc float"] = answer_counterfactual(program, case.query, exact=False)
                row = [name, seed, case.key, cnf.var_count, len(cnf.clauses), digest, answers]
                print(json.dumps(row))
    for seed in SEEDS:
        for row in _lpad_rows(seed):
            print(json.dumps(row))


def _lpad_rows(seed: int):
    """The exact answers of the two selection-based LPAD functions on seeded random cases."""
    import random

    from generators import random_formula, random_lpad, random_lpad_query
    from whatif.lpad import cp_counterfactual, lpad_distribution
    from whatif.model import ZeroEvidenceError

    rng = random.Random(seed)
    for index in range(LPAD_CASES):
        lpad = random_lpad(rng, max_clauses=6, max_heads=3)
        formula = random_formula(rng, sorted(lpad.atoms))
        query = random_lpad_query(rng, lpad)
        answers = {"lpad_distribution": str(lpad_distribution(lpad, formula))}
        try:
            answers["cp_counterfactual"] = str(cp_counterfactual(lpad, query))
        except ZeroEvidenceError:
            answers["cp_counterfactual"] = "ZeroEvidenceError"
        yield [LPAD, seed, index, 0, 0, "", answers]


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
    for old, new in zip(_rows(args.old_src), _rows(args.new_src), strict=True):
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
        if name == LPAD:
            print(f"{name} seed {seed}: {cases} cases")
            continue
        print(f"{name} seed {seed}: {cases} cases, variables {sums[0]} -> {sums[1]}, "
              f"clauses {sums[2]} -> {sums[3]}, {identical} identical CNFs, "
              f"largest float difference {rel:.3g} relative")
    print("\n".join(shown))
    print(f"{differing} differing cases")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
