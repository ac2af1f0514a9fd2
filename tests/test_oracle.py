import random
from fractions import Fraction

import pytest

from generators import random_acyclic_program, random_counterfactual_query
from whatif.counterfactual import answer_intervention, conditional
from whatif.model import CounterfactualQuery, Literal, ValidationError, Var, ZeroEvidenceError
from whatif import oracle
from whatif.oracle import abduction_action_prediction, walk


def test_sprinkler_counterfactual(sprinkler, sprinkler_query):
    assert abduction_action_prediction(sprinkler, sprinkler_query) == Fraction(1, 10)


def test_walk_reads_any_table_of_the_worlds(sprinkler, sprinkler_query):
    table = list(enumerate(sprinkler.world_weights.numerators))
    expected = abduction_action_prediction(sprinkler, sprinkler_query)
    assert walk(sprinkler, sprinkler_query, table) == expected == Fraction(1, 10)
    nonzero = [(world, weight) for world, weight in table if weight]
    random.Random(3).shuffle(nonzero)
    assert walk(sprinkler, sprinkler_query, iter(nonzero)) == expected


def test_walk_over_no_worlds_has_zero_evidence(sprinkler, sprinkler_query):
    with pytest.raises(ZeroEvidenceError):
        walk(sprinkler, sprinkler_query, ())


def test_walk_computes_the_acted_model_only_for_kept_worlds(
    monkeypatch, sprinkler, sprinkler_query
):
    calls = []
    original = oracle.minimal_model

    def counted(program, world):
        calls.append(world)
        return original(program, world)

    monkeypatch.setattr(oracle, "minimal_model", counted)
    abduction_action_prediction(sprinkler, sprinkler_query)
    # 16 worlds; the evidence sprinkler, slippery holds when u1 and u2 do, in 4 of them
    assert len(calls) == 16 + 4


def test_empty_evidence_is_plain_intervention(sprinkler):
    query = CounterfactualQuery(
        Var("wet"), frozenset(), frozenset({Literal("rain", False)})
    )
    expected = answer_intervention(sprinkler, Var("wet"), {Literal("rain", False)})
    assert abduction_action_prediction(sprinkler, query) == expected


def test_empty_query_is_conditional(sprinkler):
    query = CounterfactualQuery(Var("wet"), frozenset({Literal("slippery")}))
    expected = conditional(sprinkler, Var("wet"), {Literal("slippery")})
    assert abduction_action_prediction(sprinkler, query) == expected


def test_abduction_pins_error_terms(sprinkler):
    # observing no season fixes u1 false, and rain then depends only on u3
    query = CounterfactualQuery(
        Var("rain"),
        frozenset({Literal("szn_spr_sum", False)}),
        frozenset({Literal("szn_spr_sum")}),
    )
    assert abduction_action_prediction(sprinkler, query) == Fraction(1, 10)


def test_evidence_on_a_random_fact_is_read_from_the_world(sprinkler):
    do = frozenset({Literal("sprinkler", False)})
    query = CounterfactualQuery(Var("slippery"), frozenset({Literal("u1")}), do)
    assert abduction_action_prediction(sprinkler, query) == Fraction(1, 10)
    # no season: wet means rain, which the intervention leaves alone
    query = CounterfactualQuery(Var("slippery"), {Literal("u1", False), Literal("wet")}, do)
    assert abduction_action_prediction(sprinkler, query) == 1
    # an atom in neither the world nor the model is false
    query = CounterfactualQuery(Var("slippery"), {Literal("ghost", False)}, do)
    assert abduction_action_prediction(sprinkler, query) == Fraction(7, 20)


def test_intervention_on_a_random_fact_is_rejected_first(sprinkler):
    # the evidence has probability zero, and still the intervention is what is reported
    query = CounterfactualQuery(
        Var("rain"), {Literal("wet"), Literal("slippery", False)}, {Literal("u1")}
    )
    with pytest.raises(ValidationError, match="cannot intervene on external atoms"):
        abduction_action_prediction(sprinkler, query)


def test_zero_evidence(sprinkler):
    query = CounterfactualQuery(
        Var("rain"), frozenset({Literal("wet"), Literal("slippery", False)})
    )
    with pytest.raises(ZeroEvidenceError):
        abduction_action_prediction(sprinkler, query)


def test_answers_are_probabilities():
    rng = random.Random(31)
    for _ in range(30):
        program = random_acyclic_program(rng, max_internals=4, max_externals=5)
        query = random_counterfactual_query(rng, program)
        answer = abduction_action_prediction(program, query)
        assert 0 <= answer <= 1
