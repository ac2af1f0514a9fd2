"""Time the model counter on twin-network CNFs from the benchmark generator.

Builds the CNF of a counterfactual query for each (n, k) cell, from the twin
program reduced by `transforms.relevant` and the query's clauses, as the wmc
backend does.  Then times what `wmc.conditional` counts: the denominator
P(e) and the numerator P(q ∧ e) from one float-mode counter, whose search
for the first also yields the second.  The counter builds its root
occurrence map on the first count, so that build is timed too.  Reports the
best of `--repeats` runs on a fresh counter each time, and both counts.

Usage: python benchmarks/counter_benchmark.py [--n 20,40,60] [--k 1,3,5] [--repeats 3]
"""
from __future__ import annotations

import argparse
import time

from whatif import benchgen, transforms, wmc as wmc_mod


def build_case(n: int, k: int, seed: int):
    instance = benchgen.generate_instance(n, k, seed)
    query = benchgen.sample_query(instance, 2, 2, seed)
    program = benchgen.instance_to_program(instance)
    transformed, renamed, evidence = transforms.relevant(*transforms.twin(program, query))
    cnf = wmc_mod.to_weighted_cnf(transformed)
    with_query, root = wmc_mod.add_formula(cnf, renamed)
    assumptions = [with_query.literal(lit) for lit in sorted(evidence)]
    return with_query, assumptions, root


def time_pair(cnf, assumptions, root, repeats: int):
    """Best time of the denominator and numerator counts, and the two counts."""
    times = []
    for _ in range(repeats):
        counter = wmc_mod.counter(cnf, exact=False, mark=root)
        start = time.perf_counter()
        denominator = counter.count(assumptions)
        numerator = counter.count(assumptions + [root])
        times.append(time.perf_counter() - start)
    return min(times), denominator, numerator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="20,40,60")
    parser.add_argument("--k", default="1,3,5")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'n':>4} {'k':>3} {'vars':>6} {'clauses':>8} {'seconds':>9} "
          f"{'P(e)':>12} {'P(q,e)':>12}")
    for n in (int(x) for x in args.n.split(",")):
        for k in (int(x) for x in args.k.split(",")):
            cnf, assumptions, root = build_case(n, k, args.seed)
            seconds, denominator, numerator = time_pair(cnf, assumptions, root, args.repeats)
            print(f"{n:>4} {k:>3} {cnf.var_count:>6} {len(cnf.clauses):>8} {seconds:>9.4f} "
                  f"{denominator:>12.6g} {numerator:>12.6g}")


if __name__ == "__main__":
    main()
