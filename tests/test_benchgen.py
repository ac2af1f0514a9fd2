import time
from fractions import Fraction

import pytest

from whatif import benchgen
from whatif.benchgen import (
    CSV_COLUMNS,
    GridSpec,
    QuerySamplingError,
    generate_instance,
    instance_to_program,
    rows_to_csv,
    run_experiment,
    sample_query,
)
from whatif.counterfactual import answer_counterfactual
from whatif.model import Literal, Var
from whatif.semantics import marginal


def test_generation_is_deterministic():
    first = generate_instance(12, 3, 7)
    second = generate_instance(12, 3, 7)
    assert first == second
    assert generate_instance(12, 3, 8) != first


def test_instance_shape():
    instance = generate_instance(3, 1, 42)
    tree_arcs = [(s, d) for s, d in instance.arcs if d.startswith("v")]
    hub_in = [(s, d) for s, d in instance.arcs if d == "h1"]
    hub_out = [(s, d) for s, d in instance.arcs if s == "h1" and d == "goal"]
    assert len(tree_arcs) == 2
    assert len(hub_in) == 3
    assert len(hub_out) == 1
    assert instance.vertices == ["v1", "v2", "v3", "h1", "goal"]


def test_hubs_raise_out_degree():
    instance = generate_instance(10, 4, 5)
    out_degree = {}
    for src, _ in instance.arcs:
        out_degree[src] = out_degree.get(src, 0) + 1
    for i in range(1, 11):
        assert out_degree[f"v{i}"] >= 4


def test_invalid_sizes():
    with pytest.raises(ValueError):
        generate_instance(0, 1, 1)
    with pytest.raises(ValueError):
        generate_instance(3, -1, 1)


def test_program_size_is_linear():
    for n, k in [(5, 1), (10, 3), (20, 5)]:
        program = instance_to_program(generate_instance(n, k, 3))
        arcs = len(generate_instance(n, k, 3).arcs)
        assert len(program.clauses) <= 8 * (n + k + arcs)
        assert len(program.facts) == arcs + arcs  # one trap switch and one chooser per arc


def test_single_arc_chain_reaches_goal():
    # n=1, k=1 gives the chain v1 -> h1 -> goal with forced choices
    instance = generate_instance(1, 1, 0)
    program = instance_to_program(instance)
    # only the trap at h1 can cut the chain; a trap at goal is too late
    assert marginal(program, Var("r_goal")) == Fraction(9, 10)
    assert marginal(program, Var("trap_goal")) == Fraction(9, 100)


def test_agreement_between_backends():
    instance = generate_instance(3, 1, 11)
    program = instance_to_program(instance)
    query = sample_query(instance, 1, -1, 11)
    reference = answer_counterfactual(program, query, "oracle")
    assert answer_counterfactual(program, query, "wmc") == reference


def test_sample_query_counts():
    instance = generate_instance(6, 2, 9)
    query = sample_query(instance, 2, -2, 9)
    assert len(query.evidence) == 2 and all(l.positive for l in query.evidence)
    assert len(query.interventions) == 2
    assert all(not l.positive for l in query.interventions)
    assert query.query == Var("r_goal")
    empty = sample_query(instance, 0, 0, 9)
    assert empty.evidence == frozenset() and empty.interventions == frozenset()


def test_sample_query_too_many_literals():
    instance = generate_instance(1, 0, 0)
    with pytest.raises(ValueError):
        sample_query(instance, 5, 0, 0)


def test_grid_spec_from_config():
    spec = GridSpec.from_config("n = 20,40\nk=1,3 # hubs\nseeds=1,2,3\ne=2\ni=-2\nbackends=wmc,enumerate\n")
    assert spec.ns == (20, 40)
    assert spec.ks == (1, 3)
    assert spec.seeds == (1, 2, 3)
    assert spec.e_count == 2 and spec.i_count == -2
    assert spec.backends == ("wmc", "enumerate")


def test_run_experiment_small_grid():
    grid = GridSpec(ns=(3,), ks=(1,), seeds=(1, 2), e_count=1, i_count=-1)
    rows = run_experiment(grid, time_limit_s=30.0, jobs=2)
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "OK"
        assert 0 <= float(row["answer"]) <= 1
        assert row["wall_time_s"] < 30.0
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv_text.splitlines()) == 3


def test_run_experiment_zero_limit_times_out():
    grid = GridSpec(ns=(3,), ks=(1,), seeds=(1,))
    rows = run_experiment(grid, time_limit_s=0.0)
    assert [row["status"] for row in rows] == ["TIMEOUT"]
    assert rows[0]["wall_time_s"] == 0.0


def test_run_experiment_batch_shares_one_deadline():
    # each instance needs far more than the limit (seeds 1 and 3 run past
    # 8 s; seed 2 takes under 1 s); joined one after the other with the full
    # limit each, the call would take twice the limit
    grid = GridSpec(ns=(100,), ks=(5,), seeds=(1, 3), e_count=2, i_count=2)
    start = time.monotonic()
    rows = run_experiment(grid, time_limit_s=1.0, jobs=2)
    elapsed = time.monotonic() - start
    assert [row["status"] for row in rows] == ["TIMEOUT", "TIMEOUT"]
    assert all(row["wall_time_s"] == 1.0 for row in rows)
    assert elapsed < 1.7, elapsed


@pytest.mark.parametrize("n, k, small", [(3, 1, True), (6, 3, False)])
def test_sample_query_evidence_satisfiability(monkeypatch, n, k, small):
    instance = generate_instance(n, k, 1)
    assert (len(instance_to_program(instance).externals) <= 16) == small
    every = len(instance.vertices) - 1  # every atom but the goal's, so \+r_<start> too
    monkeypatch.setattr(benchgen, "MAX_DRAWS", 3)
    with pytest.raises(QuerySamplingError):
        sample_query(instance, -every, 0, seed=1)
    monkeypatch.setattr(benchgen, "MAX_DRAWS", 1)
    query = sample_query(instance, 1, 0, seed=1)  # any reach atom is possible
    assert len(query.evidence) == 1 and all(lit.positive for lit in query.evidence)
