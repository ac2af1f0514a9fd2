"""Time the model counter on twin-network CNFs from the benchmark generator.

Builds the CNF of a counterfactual query for each (n, k) cell with
`wmc.encode_query`, as the wmc backend does.  Then times what
`wmc.conditional` counts: the denominator P(e) and the numerator P(q ∧ e)
from one counter, whose search for the first also yields the second.  The
counter builds its clause database on the first count, so that build is
timed too.  Reports the best of `--repeats` runs on a fresh counter each
time, the expansions of the last run's search (`ModelCounter.passes`: one
component pass per node, so the size of the search tree), the cache entries
and the bytes of the cache's keys and values after the pair
(`ModelCounter.cache_bytes`), the bits of the counter's integer
scale (`ModelCounter.scale`: the CNF's `scale`, the product of the facts'
denominators, by which the integer counts are divided; the facts weigh their
integer pairs and every other variable 1), and both counts as floats.

`float()` of each cell's exact ratio of the two counts must equal
`wmc.conditional`'s float answer (same CNF, same search), and the pair must
be the same two `Fraction`s when counted once more with
`definitional=False`, so with no definitional component counted without search; that count's
expansions are reported too.  The script exits with status 1 if any cell
differs in either check.

Usage: python benchmarks/counter_benchmark.py [--n 20,40,60] [--k 1,3,5] [--repeats 3]
"""
from __future__ import annotations

import argparse
import sys
import time

from whatif import benchgen, transforms, wmc as wmc_mod
from whatif._counter_py import ModelCounter


def build_case(n: int, k: int, seed: int):
    """The twin program, query and evidence of one cell, and `encode_query` of them."""
    instance = benchgen.generate_instance(n, k, seed)
    query = benchgen.sample_query(instance, 2, 2, seed)
    twinned = transforms.twin(benchgen.instance_to_program(instance), query)
    return twinned, wmc_mod.encode_query(*twinned)


def time_pair(cnf, assumptions, root, repeats: int):
    """Best time of the denominator and numerator counts, the last counter and the two counts."""
    times = []
    for _ in range(repeats):
        counter = wmc_mod.counter(cnf, mark=root)
        start = time.perf_counter()
        denominator = counter.count(assumptions)
        numerator = counter.count(assumptions + [root])
        times.append(time.perf_counter() - start)
    return min(times), counter, denominator, numerator


def plain_pair(cnf, assumptions, root):
    """The two counts and the expansions of a counter that reads no clause as a definition."""
    counter = ModelCounter(cnf.var_count, cnf.clauses, cnf.weights, cnf.scale, root,
                           definitional=False)
    return (counter.count(assumptions), counter.count(assumptions + [root])), counter.passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="20,40,60")
    parser.add_argument("--k", default="1,3,5")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    mismatches = 0
    print(f"{'n':>4} {'k':>3} {'vars':>6} {'clauses':>8} {'seconds':>9} {'expansions':>10} "
          f"{'plain_exp':>10} {'entries':>8} {'cache_MB':>8} {'scale_bits':>10} {'P(e)':>12} "
          f"{'P(q,e)':>12} check")
    for n in (int(x) for x in args.n.split(",")):
        for k in (int(x) for x in args.k.split(",")):
            twinned, (cnf, root, assumptions) = build_case(n, k, args.seed)
            seconds, counter, denominator, numerator = time_pair(
                cnf, assumptions, root, args.repeats
            )
            plain, plain_passes = plain_pair(cnf, assumptions, root)
            agrees = (float(numerator / denominator) == float(wmc_mod.conditional(*twinned))
                      and (denominator, numerator) == plain)
            mismatches += not agrees
            print(f"{n:>4} {k:>3} {cnf.var_count:>6} {len(cnf.clauses):>8} {seconds:>9.4f} "
                  f"{counter.passes:>10} {plain_passes:>10} {len(counter.cache):>8} "
                  f"{counter.cache_bytes / 2**20:>8.2f} "
                  f"{counter.scale.bit_length():>10} {float(denominator):>12.6g} "
                  f"{float(numerator):>12.6g} {'ok' if agrees else 'MISMATCH'}")
    if mismatches:
        print(f"{mismatches} cell(s) differ from wmc.conditional or from the plain count",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
