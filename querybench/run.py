"""Closed-loop query benchmark for the whatif library.

One client, one process, one query at a time: program text -> parse_problog
-> answer_counterfactual -> answer.  Set-up generates every input from the
seed; the timed loop then makes whole passes over the cases, each pass in a
fresh seeded order, until it has made PASSES passes and --seconds have gone
by, and each case's latency is the mean of its first PASSES samples.  Every
latency is scaled to a reference host speed, measured by a small fixed
kernel timed before each query, because a shared host's speed can drift by
a quarter from one minute to the next.  With --trace 1 every case is
answered once untraced and once with every layer wrapped (see tracing.py),
and per-layer self times and counts are reported instead.  README.md has
the details.

Usage (from the repository root):
    python3 querybench/run.py --workload hub-float --seed 1 --seconds 40 --trace 0

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it are a readable report.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PASSES = 3  # timed samples per case that count
KERNEL_REFERENCE_S = 0.00097  # median time of _kernel() on the machine of README.md's numbers
WINDOW = 10  # queries on either side whose kernel times set a query's host speed
FLOAT_RTOL = 1e-9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hub-float", "small-xcheck"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _answer(workload, case):
    """One query, through module attributes so the tracer's rebinding applies."""
    from whatif import counterfactual, parser

    program = parser.parse_problog(case.text)
    answers = tuple(
        counterfactual.answer_counterfactual(program, case.query, backend=b, exact=workload.exact)
        for b in workload.backends
    )
    return answers if workload.cross_check else answers[0]


def _timed(workload, case):
    """(latency, answer or the exception raised)."""
    start = time.perf_counter()
    try:
        answer = _answer(workload, case)
    except Exception as exc:  # counted as failed, never aborts the run
        answer = exc
    return time.perf_counter() - start, answer


def _agrees(answer, reference) -> bool:
    if isinstance(answer, BaseException):
        return False
    if isinstance(answer, tuple):  # cross-check: all backends agree exactly
        return all(isinstance(a, Fraction) for a in answer) and len(set(answer)) == 1
    if isinstance(answer, Fraction) and isinstance(reference, Fraction):
        return answer == reference
    return abs(float(answer) - float(reference)) <= FLOAT_RTOL * abs(float(reference))


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def _kernel() -> int:
    """Fixed interpreter-bound work, independent of the library."""
    counts: dict[int, int] = {}
    for i in range(4000):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _kernel_s() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def _host_factor() -> float:
    """Reference over current host speed, from the kernel's median of 2 * WINDOW + 1 runs."""
    return KERNEL_REFERENCE_S / statistics.median(_kernel_s() for _ in range(2 * WINDOW + 1))


def _setup(name, seed):
    """Import the library, then generate the inputs SETUP_REPEATS times.

    Each part is scaled by the host factor measured right after or before it.
    """
    start = time.perf_counter()
    import whatif.wmc  # noqa: F401  (first import is part of set-up)
    import workloads

    import_s = (time.perf_counter() - start) * _host_factor()
    runs = []
    cases = None
    for _ in range(SETUP_REPEATS):
        factor = _host_factor()
        start = time.perf_counter()
        generated = workloads.generate(name, seed)
        runs.append((time.perf_counter() - start) * factor)
        if cases is not None and [c.key for c in generated] != [c.key for c in cases]:
            raise RuntimeError(f"generation of {name} is not deterministic for seed {seed}")
        cases = generated
    return workloads.WORKLOADS[name], cases, import_s + statistics.median(runs)


def _references(workload, cases):
    """Reference answer per problem: stored, else computed untimed."""
    import references

    if workload.cross_check:
        return {}, 0.0, 0
    refs = references.stored(workload.name)
    missing = [c for c in {c.problem: c for c in cases}.values() if c.problem not in refs]
    start = time.perf_counter()
    for case in missing:
        refs[case.problem] = references.compute(workload, case)
    return refs, time.perf_counter() - start, len(missing)


def _environment() -> str:
    import whatif.wmc

    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"compiled counter {whatif.wmc.HAVE_COMPILED_COUNTER}")


def run_timed(workload, cases, seconds, seed):
    """Whole passes over the cases, each in a fresh seeded order.

    Passes go on until PASSES of them are done and `seconds` have gone by, so
    every case has the same number of samples.  Returns (case index, latency,
    answer) per query, the kernel's time just before each query and the
    loop's length.
    """
    rng = random.Random(seed)
    results, kernel_s = [], []
    passes = 0
    start = time.perf_counter()
    while passes < PASSES or time.perf_counter() - start < seconds:
        order = list(range(len(cases)))
        rng.shuffle(order)
        for index in order:
            kernel_s.append(_kernel_s())
            results.append((index, *_timed(workload, cases[index])))
        passes += 1
    return results, kernel_s, time.perf_counter() - start


def at_reference_speed(results, kernel_s):
    """Each latency scaled by the kernel's median time over WINDOW queries either side."""
    scaled = []
    for j, (index, latency, answer) in enumerate(results):
        local = statistics.median(kernel_s[max(0, j - WINDOW):j + WINDOW + 1])
        scaled.append((index, latency * KERNEL_REFERENCE_S / local, answer))
    return scaled


def per_case(results) -> list[float]:
    """Mean of each case's first PASSES latencies.

    A fixed count keeps a faster program, which makes more passes, from
    gaining by having more samples to average.
    """
    samples: dict[int, list[float]] = {}
    for index, latency, _ in results:
        samples.setdefault(index, []).append(latency)
    return [statistics.fmean(v[:PASSES]) for v in samples.values()]


def expected_calls(workload, case, calls) -> list[str]:
    """Mismatches between the traced calls of one query and the call graph."""
    if workload.cross_check:
        worlds = 2 ** case.externals
        want = {"parser.parse": 1, "transforms.twin": 2, "semantics.marginal": 2,
                "oracle.aap": 1, "wmc.encode": 2, "wmc.count": 2,
                "semantics.classify": calls["semantics.minimal_model"] + 5}
        if not 3 * worlds <= calls["semantics.minimal_model"] <= 4 * worlds:
            want["semantics.minimal_model"] = f"{3 * worlds}..{4 * worlds}"
    else:
        want = {"parser.parse": 1, "semantics.classify": 2, "transforms.twin": 1,
                "wmc.encode": 2, "wmc.count": 2, "semantics.minimal_model": 0,
                "semantics.marginal": 0, "oracle.aap": 0}
    return [f"{layer}: {calls[layer]} calls, expected {n}"
            for layer, n in want.items() if calls[layer] != n]


def run_traced(workload, cases):
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    for query_id, case in enumerate(cases):  # interleaved, so warm-up hits both alike
        untraced.append(_timed(workload, case))
        with tracer.installed(), tracer.query(query_id):
            traced.append(_timed(workload, case)[1])
    problems = tracer.check()
    per_query = tracer.per_query()
    for query_id, case in enumerate(cases):
        problems += [f"query {query_id}: {p}"
                     for p in expected_calls(workload, case, per_query[query_id])]
        if repr(traced[query_id]) != repr(untraced[query_id][1]):
            problems.append(f"query {query_id}: traced answer differs from untraced")
    if problems:
        raise tracing.TraceError("; ".join(problems[:5]))
    metrics = tracer.summary()
    metrics["trace.overhead_frac"] = metrics["trace.query_s"] / sum(t for t, _ in untraced) - 1
    return [(i, t, a) for i, (t, a) in enumerate(untraced)], metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "whatif" / "__init__.py").is_file():
        print(f"querybench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, cases, setup_s = _setup(args.workload, args.seed)
    print(f"querybench: {_environment()}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: {len(cases)} cases, set-up median of {SETUP_REPEATS}")

    if args.trace:
        results, metrics = run_traced(workload, cases)
    else:
        results, kernel_s, loop_s = run_timed(workload, cases, args.seconds, args.seed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ran = [cases[index] for index in sorted({index for index, _, _ in results})]
    refs, reference_s, computed = _references(workload, ran)
    wrong = [(index, answer) for index, _, answer in results
             if not _agrees(answer, refs.get(cases[index].problem))]
    failed = len(wrong)
    for index, answer in wrong[:3]:
        print(f"case {index} failed: {answer!r}, reference {refs.get(cases[index].problem)!r}",
              file=sys.stderr)
    if refs:
        print(f"references: {computed} computed untimed in {reference_s:.3f} s, "
              f"{len({c.problem for c in ran}) - computed} stored")
    print(f"failed_frac {failed / len(results):.6g} ({failed} of {len(results)})")

    if args.trace:
        units = {"_s": "s", "_share": "frac", "_frac": "frac", "_bytes": "bytes"}
        out = {}
        for name, value in metrics.items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            out[name] = {"value": value, "unit": unit}
    else:
        scaled = at_reference_speed(results, kernel_s)
        latencies = per_case(scaled)
        tail, percentile = _tail(latencies)
        print(f"{len(results)} queries in {loop_s:.3f} s of wall clock over {len(latencies)} "
              f"cases; unscaled query_p50_s {statistics.median(per_case(results)):.6g} s, "
              f"queries_per_s {len(results) / loop_s:.6g} /s; median kernel "
              f"{statistics.median(kernel_s):.6g} s against {KERNEL_REFERENCE_S} s")
        print(f"query_tail_s is p{percentile:.2f} of the {len(latencies)} per-case latencies")
        out = {
            "query_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "query_tail_s": {"value": tail, "unit": "s"},
            "queries_per_s": {"value": len(scaled) / sum(t for _, t, _ in scaled),
                              "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, metric in out.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
