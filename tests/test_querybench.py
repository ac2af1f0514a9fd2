"""The traced benchmark's call pins hold on the first cases of each workload.

`querybench/run.py` checks, per traced query, that every layer fires as
often as the library's call graph implies, and raises `TraceError` if not.
Running that check on a few cases here makes a change to the call graph
fail the tests, not only the benchmark's own self-check.
"""
import importlib.util
from pathlib import Path

import pytest

QUERYBENCH = Path(__file__).resolve().parent.parent / "querybench"
CASES = 6


@pytest.fixture
def querybench(monkeypatch):
    monkeypatch.syspath_prepend(str(QUERYBENCH))  # run.py imports tracing from there
    spec = importlib.util.spec_from_file_location("querybench_run", QUERYBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("name", ["hub-float", "small-xcheck"])
def test_traced_call_pins_hold(querybench, name):
    import workloads

    workload = workloads.WORKLOADS[name]
    cases = workloads.generate(name, 1)[:CASES]
    results, metrics = querybench.run_traced(workload, cases)  # raises TraceError on a mismatch
    assert metrics["trace.queries"] == CASES
    for _, _, answer in results:
        assert not isinstance(answer, BaseException), answer
        if workload.cross_check:
            assert querybench._agrees(answer, None), answer
