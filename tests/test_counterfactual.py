import random
from fractions import Fraction

import pytest

from generators import random_acyclic_program, random_counterfactual_query
from whatif.counterfactual import (
    BACKENDS,
    answer_counterfactual,
    answer_intervention,
    conditional,
    marginal,
)
from whatif.model import (
    Alphabet,
    Clause,
    CounterfactualQuery,
    Literal,
    NegativeCycleError,
    Or,
    Program,
    RandomFact,
    ValidationError,
    Var,
    ZeroEvidenceError,
)
from whatif.parser import parse_problog


def test_sprinkler_counterfactual_all_backends(sprinkler, sprinkler_query):
    for backend in BACKENDS:
        assert answer_counterfactual(sprinkler, sprinkler_query, backend) == Fraction(1, 10)


def test_sprinkler_intervention(sprinkler):
    result = answer_intervention(
        sprinkler, Var("slippery"), {Literal("sprinkler", False)}
    )
    assert result == Fraction(7, 20)


def test_counterfactual_do_query_atom(sprinkler):
    # intervening on the query atom itself pins the answer
    query = CounterfactualQuery(
        Var("sprinkler"),
        frozenset({Literal("slippery")}),
        frozenset({Literal("sprinkler")}),
    )
    assert answer_counterfactual(sprinkler, query) == 1
    query = CounterfactualQuery(
        Var("sprinkler"),
        frozenset({Literal("slippery")}),
        frozenset({Literal("sprinkler", False)}),
    )
    assert answer_counterfactual(sprinkler, query) == 0


def test_counterfactual_contradicting_evidence(sprinkler):
    query = CounterfactualQuery(
        Var("rain"), frozenset({Literal("rain", False)}), frozenset({Literal("rain")})
    )
    assert answer_counterfactual(sprinkler, query) == 1


def test_no_interventions_collapses_to_conditional(sprinkler):
    query = CounterfactualQuery(Var("slippery"), frozenset({Literal("rain")}))
    expected = conditional(sprinkler, Var("slippery"), {Literal("rain")})
    for backend in BACKENDS:
        assert answer_counterfactual(sprinkler, query, backend) == expected


def test_no_evidence_collapses_to_intervention(sprinkler):
    query = CounterfactualQuery(
        Var("slippery"), frozenset(), frozenset({Literal("sprinkler", False)})
    )
    expected = answer_intervention(sprinkler, Var("slippery"), {Literal("sprinkler", False)})
    for backend in BACKENDS:
        assert answer_counterfactual(sprinkler, query, backend) == expected


def test_zero_evidence_raises(sprinkler):
    query = CounterfactualQuery(
        Var("rain"), frozenset({Literal("sprinkler"), Literal("wet", False)})
    )
    for backend in BACKENDS:
        with pytest.raises(ZeroEvidenceError):
            answer_counterfactual(sprinkler, query, backend)


def test_negative_cycle_rejected():
    program = parse_problog("a :- \\+b. b :- \\+a.")
    with pytest.raises(NegativeCycleError):
        marginal(program, Var("a"), backend="enumerate")


def test_backend_agreement_random_suite():
    rng = random.Random(17)
    for _ in range(40):
        program = random_acyclic_program(rng, max_internals=5, max_externals=6)
        query = random_counterfactual_query(rng, program)
        reference = answer_counterfactual(program, query, "oracle")
        assert answer_counterfactual(program, query, "wmc") == reference
        assert answer_counterfactual(program, query, "enumerate") == reference


def test_float_mode_agreement(sprinkler, sprinkler_query):
    approx = answer_counterfactual(sprinkler, sprinkler_query, exact=False)
    assert abs(approx - 0.1) < 1e-9


def test_conditional_classifies_for_every_backend():
    # the cycle is irrelevant to d, so only the classification rejects it
    program = parse_problog("0.5::u. a :- b. b :- a. d :- u.")
    with pytest.raises(ValidationError, match="acyclic"):
        conditional(program, Var("d"), (), backend="wmc")


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
def test_external_without_random_fact_is_rejected(backend, exact):
    # only the API can build this program: u is external but has no probability
    program = Program(
        (Clause("a", frozenset({Literal("u")})), Clause("b", frozenset({Literal("v")}))),
        (RandomFact("v", Fraction(1, 2)),),
        Alphabet(frozenset({"a", "b"}), frozenset({"u", "v"})),
    )
    for query in (
        CounterfactualQuery(Var("a")),
        CounterfactualQuery(Var("a"), {Literal("b")}, {Literal("b", False)}),
        CounterfactualQuery(Var("b")),  # u is irrelevant to b, and still rejected
        CounterfactualQuery(Var("a"), {Literal("c")}),  # no world satisfies the evidence
    ):
        with pytest.raises(ValidationError, match="external atom without random fact: u"):
            answer_counterfactual(program, query, backend, exact)


@pytest.mark.parametrize("backend", BACKENDS)
def test_api_programs_are_validated(backend):
    # only the API can build these: b is outside the alphabet, and 3/2 is no probability
    outside = Program(
        (Clause("a", frozenset({Literal("b")})), Clause("c", frozenset({Literal("u")}))),
        (RandomFact("u", Fraction(1, 2)),),
        Alphabet(frozenset({"a", "c"}), frozenset({"u"})),
    )
    out_of_range = Program(
        (Clause("a", frozenset({Literal("u")})),), (RandomFact("u", Fraction(3, 2)),)
    )
    for program, formula, do, message in (
        (outside, Or((Var("a"), Var("c"))), {Literal("c", False)}, "body atom outside alphabet: b"),
        (out_of_range, Var("a"), set(), "probability out of range: 3/2::u"),
    ):
        with pytest.raises(ValidationError, match=message):
            answer_counterfactual(program, CounterfactualQuery(formula, (), do), backend)
        with pytest.raises(ValidationError, match=message):
            answer_intervention(program, formula, do, backend)
