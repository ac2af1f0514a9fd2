import random
import warnings
from fractions import Fraction

import pytest

import whatif
from generators import (
    random_acyclic_program,
    random_counterfactual_query,
    random_formula,
    random_lpad,
    random_lpad_query,
    random_stratified_program,
)
from whatif.counterfactual import (
    BACKENDS,
    answer_counterfactual,
    answer_intervention,
    conditional,
    marginal,
)
from whatif import oracle as oracle_mod, wmc as wmc_mod
from whatif.model import (
    Alphabet,
    And,
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
    conjunction,
)
from whatif.lpad import prob_of_lpad
from whatif.oracle import abduction_action_prediction
from whatif.parser import parse_problog
from whatif.semantics import Classification, check_unique_supported_models
from whatif.semantics import marginal as enumerated_marginal
from whatif.transforms import intervene, twin


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


def _twin_route(program: Program, query: CounterfactualQuery, backend: str) -> Fraction:
    """The answer on the full twin network, which only queries with both evidence
    and interventions take; the oracle's route is its own abduction-action-prediction."""
    if backend == "oracle":
        return abduction_action_prediction(program, query)
    transformed, formula, evidence = twin(program, query)
    if backend == "wmc":
        return wmc_mod.conditional(transformed, formula, evidence)
    evidence_formula = conjunction(evidence)
    both = enumerated_marginal(transformed, And((formula, evidence_formula)))
    return both / enumerated_marginal(transformed, evidence_formula)


def test_no_interventions_collapses_to_conditional(sprinkler):
    query = CounterfactualQuery(Var("slippery"), frozenset({Literal("rain")}))
    expected = conditional(sprinkler, Var("slippery"), {Literal("rain")})
    for backend in BACKENDS:
        assert answer_counterfactual(sprinkler, query, backend) == expected
        # the twin identity itself: the conditional's route builds no twin
        assert _twin_route(sprinkler, query, backend) == expected


def test_no_evidence_collapses_to_intervention(sprinkler):
    query = CounterfactualQuery(
        Var("slippery"), frozenset(), frozenset({Literal("sprinkler", False)})
    )
    expected = answer_intervention(sprinkler, Var("slippery"), {Literal("sprinkler", False)})
    for backend in BACKENDS:
        assert answer_counterfactual(sprinkler, query, backend) == expected
        assert _twin_route(sprinkler, query, backend) == expected


def test_reduced_route_matches_the_twin_route():
    # a query without evidence or without interventions is answered on the
    # program or its intervened copy; the twin network must give the same answer
    rng = random.Random(29)
    checked = {backend: 0 for backend in BACKENDS}
    undecided = 0  # answers strictly between 0 and 1, which a wrong weight could move
    for index in range(240):
        if index % 2:
            program, backends = random_stratified_program(rng), ("enumerate", "oracle")
        else:
            program, backends = random_acyclic_program(rng, 6, 6), BACKENDS
        query = random_counterfactual_query(rng, program)
        if query.evidence and query.interventions:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # stratified cyclic programs warn
            for backend in backends:
                reduced = answer_counterfactual(program, query, backend)
                assert reduced == _twin_route(program, query, backend), (program, query, backend)
                checked[backend] += 1
                undecided += 0 < reduced < 1
    assert checked["wmc"] >= 60 and checked["enumerate"] >= 120, checked
    # these generators mostly draw answers of 0 or 1 (24 of 390 are not; see
    # the FOUND line on them in CHANGES.md), so translated random LPADs, whose
    # answers mostly lie strictly between 0 and 1, follow
    rng = random.Random(31)
    lpad_checked = 0
    for _ in range(120):
        lpad = random_lpad(rng)
        query = random_lpad_query(rng, lpad)
        if query.evidence and query.interventions:
            continue
        program = prob_of_lpad(lpad)
        for backend in BACKENDS:
            reduced = answer_counterfactual(program, query, backend)
            assert reduced == _twin_route(program, query, backend), (lpad, query, backend)
            lpad_checked += 1
            undecided += 0 < reduced < 1
    total = sum(checked.values()) + lpad_checked
    assert lpad_checked >= 150 and 4 * undecided >= total, (lpad_checked, undecided, total)


def test_zero_evidence_raises(sprinkler):
    query = CounterfactualQuery(
        Var("rain"), frozenset({Literal("sprinkler"), Literal("wet", False)})
    )
    for backend in BACKENDS:
        with pytest.raises(ZeroEvidenceError):
            answer_counterfactual(sprinkler, query, backend)


def test_negative_cycle_rejected():
    program = parse_problog("a :- \\+b. b :- \\+a.")
    for backend in BACKENDS:
        with pytest.raises(NegativeCycleError):
            marginal(program, Var("a"), backend=backend)


def test_backend_agreement_random_suite():
    rng = random.Random(17)
    for _ in range(40):
        program = random_acyclic_program(rng, max_internals=5, max_externals=6)
        query = random_counterfactual_query(rng, program)
        reference = answer_counterfactual(program, query, "oracle")
        assert answer_counterfactual(program, query, "wmc") == reference
        assert answer_counterfactual(program, query, "enumerate") == reference


def _random_fact_query(rng: random.Random, program: Program) -> CounterfactualQuery:
    """A query whose evidence and interventions may name random facts.

    The evidence is drawn until enumeration finds it satisfiable.
    """
    internals, externals = sorted(program.internals), sorted(program.externals)

    def literals(atoms: list[str], count: int) -> frozenset[Literal]:
        return frozenset(Literal(a, rng.random() < 0.5)
                         for a in rng.sample(atoms, min(len(atoms), count)))

    interventions = literals(internals, rng.randint(0, 2))
    if rng.random() < 0.15:
        interventions |= literals(externals, 1)
    while True:
        evidence = literals(internals + externals, rng.randint(1, 3))
        if enumerated_marginal(program, conjunction(evidence)) > 0:
            return CounterfactualQuery(random_formula(rng, internals), evidence, interventions)


def test_backend_agreement_with_random_facts_in_the_query():
    # evidence on a random fact conditions the shared fact; an intervention on
    # one is rejected alike by every backend
    rng = random.Random(41)
    answered = rejected = 0
    for _ in range(200):
        program = random_acyclic_program(rng, max_internals=5, max_externals=6)
        query = _random_fact_query(rng, program)
        outcomes = set()
        for backend in BACKENDS:
            try:
                outcomes.add(answer_counterfactual(program, query, backend))
            except ValidationError as exc:
                outcomes.add(str(exc))
        assert len(outcomes) == 1, (program, query, outcomes)
        (outcome,) = outcomes
        if isinstance(outcome, Fraction):
            answered += any(lit.atom in program.externals for lit in query.evidence)
        else:
            assert "cannot intervene on external atoms" in outcome
            rejected += 1
    assert answered >= 50 and rejected >= 10, (answered, rejected)


def test_unknown_backend_is_rejected(sprinkler, sprinkler_query):
    formula, evidence = Var("slippery"), {Literal("wet")}
    for call in (
        lambda backend: answer_counterfactual(sprinkler, sprinkler_query, backend),
        lambda backend: answer_intervention(sprinkler, formula, {Literal("rain")}, backend),
        lambda backend: marginal(sprinkler, formula, backend),
        lambda backend: conditional(sprinkler, formula, evidence, backend),
    ):
        for backend in ("wcm", "nonsense", ""):
            with pytest.raises(ValueError, match="choose one of wmc, enumerate, oracle"):
                call(backend)


def test_float_mode_agreement(sprinkler, sprinkler_query):
    approx = answer_counterfactual(sprinkler, sprinkler_query, exact=False)
    assert abs(approx - 0.1) < 1e-9


def test_float_answers_are_float_of_the_exact_ones():
    # every backend computes the exact answer and converts it once, so float
    # mode rounds once and never differs from float() of rational mode
    rng = random.Random(5)
    for _ in range(300):
        program = random_acyclic_program(rng)
        query = random_counterfactual_query(rng, program)
        for backend in BACKENDS:
            approx = answer_counterfactual(program, query, backend, exact=False)
            assert approx == float(answer_counterfactual(program, query, backend)), backend


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
        with pytest.raises(ValidationError, match=message):
            marginal(program, formula, backend)
        with pytest.raises(ValidationError, match=message):
            conditional(program, formula, (), backend)


def test_top_level_names_validate():
    # b is outside the alphabet; the package's marginal and conditional are
    # the validating entry points of counterfactual.py
    program = Program(
        (Clause("a", frozenset({Literal("b")})),),
        (RandomFact("u", Fraction(1, 2)),),
        Alphabet(frozenset({"a"}), frozenset({"u"})),
    )
    assert whatif.marginal is marginal and whatif.conditional is conditional
    assert "abduction_action_prediction" not in whatif.__all__
    with pytest.raises(ValidationError, match="body atom outside alphabet: b"):
        whatif.marginal(program, Var("a"))
    with pytest.raises(ValidationError, match="body atom outside alphabet: b"):
        whatif.conditional(program, Var("a"), {Literal("u")})


def _with_negative_cycle(rng: random.Random, program: Program) -> Program:
    """Add ``a :- \\+b.`` and ``b :- a.`` over two internals of `program`, or ``a :- \\+a.``."""
    a, b = rng.choice(sorted(program.internals)), rng.choice(sorted(program.internals))
    cycle = [Clause(a, frozenset({Literal(b, False)}))]
    if a != b:
        cycle.append(Clause(b, frozenset({Literal(a)})))
    return Program(program.clauses + tuple(cycle), program.facts, program.alphabet)


def test_twin_classifies_as_its_program():
    # answer_counterfactual classifies the program in place of its twin
    rng = random.Random(23)
    seen = set()
    for index in range(300):
        if index % 3 == 0:
            program = random_acyclic_program(rng, max_internals=6, max_externals=5)
        else:
            program = random_stratified_program(rng)
        query = random_counterfactual_query(rng, program)
        if index % 3 == 2:  # the query is drawn first: its evidence check enumerates
            program = _with_negative_cycle(rng, program)
        classification = check_unique_supported_models(program)
        assert check_unique_supported_models(twin(program, query)[0]) is classification
        seen.add(classification)
    assert seen == set(Classification)


def test_suffix_error_comes_before_the_negative_cycle():
    program = parse_problog("0.5::u. a__e :- \\+b. b :- \\+a__e. c :- u.")
    # evidence and interventions: the query is answered on the twin
    query = CounterfactualQuery(Var("c"), {Literal("u")}, {Literal("b")})
    with pytest.raises(NegativeCycleError):
        marginal(program, Var("c"), "enumerate")
    for backend in ("wmc", "enumerate"):
        with pytest.raises(ValidationError, match="a__e collides with the twin-copy suffix"):
            answer_counterfactual(program, query, backend)
    # without evidence no twin is built, and the intervention cuts the cycle
    query = CounterfactualQuery(Var("c"), (), {Literal("b")})
    for backend in BACKENDS:
        assert answer_counterfactual(program, query, backend) == Fraction(1, 2)
        assert answer_intervention(program, Var("c"), {Literal("b")}, backend) == Fraction(1, 2)


def test_oracle_backend_runs_the_oracle_on_every_entry_point(monkeypatch, sprinkler):
    calls = []
    oracle = oracle_mod.abduction_action_prediction

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(oracle_mod, "abduction_action_prediction", counted)
    formula = Var("slippery")
    assert marginal(sprinkler, formula, "oracle") == marginal(sprinkler, formula)
    assert len(calls) == 1
    evidence = {Literal("rain")}
    assert conditional(sprinkler, formula, evidence, "oracle") == conditional(
        sprinkler, formula, evidence
    )
    assert len(calls) == 2
    do = {Literal("sprinkler", False)}
    assert answer_intervention(sprinkler, formula, do, "oracle") == Fraction(7, 20)
    assert len(calls) == 3
    # the oracle answers the program that is counted, with the query's own evidence
    acted, query = calls[-1]
    assert acted == intervene(sprinkler, do) and query == CounterfactualQuery(formula)


@pytest.mark.parametrize("backend", BACKENDS)
def test_contradictory_evidence_is_invalid(sprinkler, backend):
    formula, contradiction = Var("slippery"), {Literal("rain"), Literal("rain", False)}
    with pytest.raises(ValidationError, match="inconsistent evidence"):
        conditional(sprinkler, formula, contradiction, backend)
    with pytest.raises(ValidationError, match="inconsistent evidence"):
        answer_counterfactual(sprinkler, CounterfactualQuery(formula, contradiction), backend)
    # the query type itself rejects the evidence, before any backend runs; marginal
    # takes no evidence, and answer_intervention checks its own literals alike
    with pytest.raises(ValidationError, match="inconsistent interventions"):
        answer_intervention(sprinkler, formula, contradiction, backend)


def _only_warning_file(caught) -> str:
    [only] = [w for w in caught if issubclass(w.category, UserWarning)]
    assert "cyclic" in str(only.message)
    return only.filename


def test_cyclic_program_warning_names_the_caller():
    # each entry point warns once, naming this function's own frame, not a helper's
    program = parse_problog("0.5::u. a :- b. b :- a. a :- u. c :- a.")
    query = CounterfactualQuery(Var("c"), {Literal("a")}, {Literal("c", False)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        answer_counterfactual(program, query, backend="enumerate")
    assert _only_warning_file(caught) == __file__
    # the oracle classifies every query that lacks evidence or interventions
    for backend in ("enumerate", "oracle"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            answer_intervention(program, Var("a"), {Literal("c", False)}, backend=backend)
        assert _only_warning_file(caught) == __file__
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            marginal(program, Var("c"), backend=backend)
        assert _only_warning_file(caught) == __file__
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conditional(program, Var("c"), {Literal("a")}, backend)
        assert _only_warning_file(caught) == __file__
