"""Time the model counter on twin-network CNFs from the benchmark generator.

Builds the CNF of a counterfactual query for each (n, k) cell and times one
float-mode count of it, taking the best of `--repeats` runs on a fresh
counter each time.

Usage: python benchmarks/counter_benchmark.py [--n 20,40,60] [--k 1,3,5] [--repeats 3]
"""
from __future__ import annotations

import argparse
import time

from whatif import benchgen, transforms, wmc as wmc_mod
from whatif._counter_py import DEFAULT_CACHE_CAP, ModelCounter


def build_case(n: int, k: int, seed: int):
    instance = benchgen.generate_instance(n, k, seed)
    query = benchgen.sample_query(instance, 2, 2, seed)
    program = benchgen.instance_to_program(instance)
    transformed, renamed, evidence = transforms.twin(program, query)
    cnf = wmc_mod.to_weighted_cnf(transformed)
    with_query, root = wmc_mod.add_formula(cnf, renamed)
    assumptions = [with_query.literal(lit) for lit in sorted(evidence)] + [root]
    return with_query, assumptions


def time_count(cnf, assumptions, repeats: int) -> float:
    weights = {v: (float(wt), float(wf)) for v, (wt, wf) in cnf.weights.items()}
    times = []
    for _ in range(repeats):
        counter = ModelCounter(cnf.clauses, weights, DEFAULT_CACHE_CAP)
        start = time.perf_counter()
        counter.count(assumptions)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="20,40,60")
    parser.add_argument("--k", default="1,3,5")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'n':>4} {'k':>3} {'vars':>6} {'clauses':>8} {'seconds':>9}")
    for n in (int(x) for x in args.n.split(",")):
        for k in (int(x) for x in args.k.split(",")):
            cnf, assumptions = build_case(n, k, args.seed)
            seconds = time_count(cnf, assumptions, args.repeats)
            print(f"{n:>4} {k:>3} {cnf.var_count:>6} {len(cnf.clauses):>8} {seconds:>9.4f}")


if __name__ == "__main__":
    main()
