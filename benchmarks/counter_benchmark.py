"""Time the model counter on twin-network CNFs from the benchmark generator.

Builds the CNF of a counterfactual query for each (n, k) cell with
`wmc.encode_query`, as the wmc backend does.  Then times what
`wmc.conditional` counts: the denominator P(e) and the numerator P(q ∧ e)
from one float-mode counter, whose search for the first also yields the
second.  The counter builds its root occurrence map on the first count, so
that build is timed too.  Reports the best of `--repeats` runs on a fresh
counter each time, and both counts.

Each cell's ratio of the two counts must equal `wmc.conditional`'s float
answer exactly (same CNF, same search); the script exits with status 1 if
any cell differs.

Usage: python benchmarks/counter_benchmark.py [--n 20,40,60] [--k 1,3,5] [--repeats 3]
"""
from __future__ import annotations

import argparse
import sys
import time

from whatif import benchgen, transforms, wmc as wmc_mod


def build_case(n: int, k: int, seed: int):
    """The twin program, query and evidence of one cell, and `encode_query` of them."""
    instance = benchgen.generate_instance(n, k, seed)
    query = benchgen.sample_query(instance, 2, 2, seed)
    twinned = transforms.twin(benchgen.instance_to_program(instance), query)
    return twinned, wmc_mod.encode_query(*twinned)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="20,40,60")
    parser.add_argument("--k", default="1,3,5")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    mismatches = 0
    print(f"{'n':>4} {'k':>3} {'vars':>6} {'clauses':>8} {'seconds':>9} "
          f"{'P(e)':>12} {'P(q,e)':>12} check")
    for n in (int(x) for x in args.n.split(",")):
        for k in (int(x) for x in args.k.split(",")):
            twinned, (cnf, root, assumptions) = build_case(n, k, args.seed)
            seconds, denominator, numerator = time_pair(cnf, assumptions, root, args.repeats)
            # a float P(e) of 0 gives no ratio, while conditional recounts exactly
            ratio = numerator / denominator if denominator else None
            agrees = ratio == wmc_mod.conditional(*twinned, exact=False)
            mismatches += not agrees
            print(f"{n:>4} {k:>3} {cnf.var_count:>6} {len(cnf.clauses):>8} {seconds:>9.4f} "
                  f"{denominator:>12.6g} {numerator:>12.6g} {'ok' if agrees else 'MISMATCH'}")
    if mismatches:
        print(f"{mismatches} cell(s) differ from wmc.conditional", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
