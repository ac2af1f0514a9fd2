"""Exact-repeat self-check of the traced benchmark.

Runs the traced benchmark twice on one seed for every workload and requires
every count metric (calls, twin and CNF sizes, program bytes) to be
identical between the two runs; then runs it once on a held-out seed and
requires a correct result there too.  Runs are sequential, one process each.

Usage (from the repository root):
    python3 querybench/selfcheck.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("hub-float", "small-xcheck")
COUNT_UNITS = ("count", "bytes")
SEED = 1
HELD_OUT = 7


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = traced(workload, SEED), traced(workload, SEED)
        held_out = traced(workload, HELD_OUT)
        differing = sorted(k for k, v in counts(first).items() if counts(second).get(k) != v)
        correct = first["correct"] and second["correct"] and held_out["correct"]
        ok &= correct and not differing
        print(f"{workload}: {len(counts(first))} count metrics, "
              f"{'identical' if not differing else 'differ: ' + ', '.join(differing)}; "
              f"correct on seeds {SEED} and {HELD_OUT}: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
