"""Reference answers for the workloads that time one backend.

The exact answers are stored in references.json, keyed by the fingerprint of
each problem before the seed renames it, so they hold for every seed.  Any
case without a stored answer gets one computed untimed by the precision the
workload does not time (rational for a float workload).

Regenerate the stored answers (rational mode, takes a few minutes):
    python3 querybench/references.py
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

STORE = Path(__file__).resolve().parent / "references.json"
DEFAULT_SEED = 1  # any seed: the problems, and so the answers, are the same
STORED_WORKLOADS = ("hub-float",)


def stored(name: str) -> dict[str, Fraction]:
    table = json.loads(STORE.read_text()).get(name, {}) if STORE.is_file() else {}
    return {key: Fraction(value) for key, value in table.items()}


def answer(case, exact: bool):
    from whatif import counterfactual
    from whatif.parser import parse_problog

    return counterfactual.answer_counterfactual(
        parse_problog(case.text), case.query, backend="wmc", exact=exact
    )


def compute(workload, case):
    """Reference by the precision the workload does not time."""
    return answer(case, exact=not workload.exact)


def exact_answers(name: str, seed: int) -> dict[str, str]:
    import workloads

    return {case.problem: str(answer(case, exact=True))
            for case in workloads.generate(name, seed)}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    table = {name: exact_answers(name, DEFAULT_SEED) for name in STORED_WORKLOADS}
    STORE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
