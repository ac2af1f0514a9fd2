import itertools
import math
import random
from fractions import Fraction

import pytest

from generators import random_lpad, random_lpad_query, random_formula
from whatif.counterfactual import answer_counterfactual
from whatif.lpad import (
    LpadClause,
    LpadProgram,
    cp_counterfactual,
    lpad_distribution,
    lpad_of_problog,
    prob_of_lpad,
    select,
    selection_weights,
    selections,
    selector,
)
from whatif.model import (
    CounterfactualQuery,
    Literal,
    ValidationError,
    Var,
    ZeroEvidenceError,
)
from whatif.parser import parse_lpad
from whatif.semantics import marginal, minimal_model
from whatif.transforms import intervene


@pytest.fixture
def coin():
    return parse_lpad("heads:0.3; tails:0.5 :- toss.  toss:1.")


def test_selection_weights(coin):
    # no head, heads, tails over 10; toss (probability 1) over 1
    table = selection_weights(coin)
    assert table == ((2, 3, 5), (0, 1))
    weights = dict(zip(selections(coin), map(math.prod, itertools.product(*table))))
    assert weights[(0, 0)] == 3  # 3/10
    assert weights[(1, 0)] == 5  # 1/2
    assert weights[(None, 0)] == 2  # 1/5
    assert weights[(0, None)] == 0
    assert sum(weights.values()) == 10


def test_selection_weights_equal_the_fraction_product():
    rng = random.Random(61)
    for _ in range(40):
        lpad = random_lpad(rng, max_clauses=6, max_heads=3)
        table = selection_weights(lpad)
        total = math.prod(
            math.lcm(*(p.denominator for _, p in clause.head)) for clause in lpad.clauses
        )
        weights = [math.prod(row) for row in itertools.product(*table)]
        for selection, weight in zip(selections(lpad), weights, strict=True):
            expected = Fraction(1)
            for clause, choice in zip(lpad.clauses, selection):
                residual = 1 - sum(p for _, p in clause.head)
                expected *= residual if choice is None else clause.head[choice][1]
            assert Fraction(weight, total) == expected
        assert sum(weights) == total


def test_select_picks_one_head(coin):
    program = select(coin, (1, 0))
    assert [c.head for c in program.clauses] == ["tails", "toss"]
    assert select(coin, (None, None)).clauses == ()


def test_lpad_clause_validation():
    with pytest.raises(ValidationError):
        LpadClause((("a", Fraction(7, 10)), ("b", Fraction(2, 5))))
    with pytest.raises(ValidationError):
        LpadClause((("a", Fraction(1, 10)), ("a", Fraction(1, 10))))


def test_lpad_distribution(coin):
    assert lpad_distribution(coin, Var("heads")) == Fraction(3, 10)
    assert lpad_distribution(coin, Var("tails")) == Fraction(1, 2)
    assert lpad_distribution(coin, Var("toss")) == 1


def test_two_cause_distribution():
    program = parse_lpad("a:0.5.  b:0.5.  c :- a.  c :- b.")
    assert lpad_distribution(program, Var("c")) == Fraction(3, 4)


def test_lpad_of_problog_preserves_sprinkler(sprinkler):
    lpad = lpad_of_problog(sprinkler)
    assert lpad_distribution(lpad, Var("sprinkler")) == Fraction(7, 20)
    assert lpad_distribution(lpad, Var("slippery")) == Fraction(133, 200)


def test_prob_of_lpad_fact_probabilities(coin):
    program = prob_of_lpad(coin)
    probs = program.fact_probs()
    assert probs["u__rc0__0"] == Fraction(3, 10)
    assert probs["u__rc0__1"] == Fraction(5, 7)  # 0.5 / (1 - 0.3)
    assert probs["u__rc1__0"] == 1


def test_prob_of_lpad_boundary():
    program = prob_of_lpad(parse_lpad("a:0.5; b:0.5."))
    probs = program.fact_probs()
    assert probs["u__rc0__0"] == Fraction(1, 2)
    assert probs["u__rc0__1"] == 1
    # heads probabilities that already sum to 1 below the last head
    saturated = prob_of_lpad(parse_lpad("a:1; b:0."))
    assert saturated.fact_probs()["u__rc0__1"] == 0


def test_prob_of_lpad_collision():
    program = LpadProgram(
        (
            LpadClause((("a", Fraction(1, 2)),)),
            LpadClause((("a__rc0__0", Fraction(1, 2)),)),
        )
    )
    with pytest.raises(ValidationError, match="collides"):
        prob_of_lpad(program)


def test_cp_counterfactual_sprinkler(sprinkler, sprinkler_query):
    assert cp_counterfactual(lpad_of_problog(sprinkler), sprinkler_query) == Fraction(1, 10)


def test_cp_counterfactual_erased_head(coin):
    query = CounterfactualQuery(
        Var("heads"), frozenset({Literal("heads")}), frozenset({Literal("heads", False)})
    )
    assert cp_counterfactual(coin, query) == 0


def test_cp_counterfactual_zero_evidence(coin):
    query = CounterfactualQuery(
        Var("heads"), frozenset({Literal("heads"), Literal("tails")})
    )
    with pytest.raises(ZeroEvidenceError):
        cp_counterfactual(coin, query)


def test_translation_preserves_distribution():
    rng = random.Random(43)
    for _ in range(50):
        lpad = random_lpad(rng)
        translated = prob_of_lpad(lpad)
        formula = random_formula(rng, sorted(lpad.atoms))
        assert marginal(translated, formula) == lpad_distribution(lpad, formula)


def test_translation_preserves_counterfactuals():
    rng = random.Random(47)
    checked = undecided = 0
    for _ in range(50):
        lpad = random_lpad(rng)
        query = random_lpad_query(rng, lpad)
        translated = prob_of_lpad(lpad)
        try:
            expected = cp_counterfactual(lpad, query)
        except ZeroEvidenceError:
            continue
        checked += 1
        undecided += 0 < expected < 1  # an answer a wrong weight could move
        assert answer_counterfactual(translated, query, "oracle") == expected
        assert answer_counterfactual(translated, query, "wmc") == expected
    assert checked >= 30 and 2 * undecided >= checked, (checked, undecided)


def test_round_trip_problog_lpad_problog(sprinkler):
    back = prob_of_lpad(lpad_of_problog(sprinkler))
    for atom in sorted(sprinkler.internals):
        assert marginal(back, Var(atom)) == marginal(sprinkler, Var(atom))


def test_selector_worlds_are_the_selected_programs():
    rng = random.Random(59)
    negated = 0
    for _ in range(60):
        lpad = random_lpad(rng)
        negated += any(not lit.positive for clause in lpad.clauses for lit in clause.body)
        atoms = sorted(lpad.atoms)
        interventions = frozenset(
            Literal(a, rng.random() < 0.5)
            for a in rng.sample(atoms, rng.randint(0, min(2, len(atoms))))
        )
        guarded, choices = selector(lpad)
        acted = intervene(guarded, interventions)
        for selection in selections(lpad):
            world = {row[j]: True for row, j in zip(choices, selection) if j is not None}
            selected = select(lpad, selection)
            assert minimal_model(guarded, world) == minimal_model(selected, {})
            assert minimal_model(acted, world) == minimal_model(
                intervene(selected, interventions), {}
            )
    assert negated >= 15


def test_choice_atoms_never_merge_with_program_or_query_atoms():
    lpad = parse_lpad("choice0_0:0.5.  a:0.5 :- choice0_0.  b:0.5 :- \\+choice1_0.")
    guarded, choices = selector(lpad)
    assert guarded.internals == lpad.atoms
    assert not guarded.externals & lpad.atoms
    assert lpad_distribution(lpad, Var("choice0_0")) == Fraction(1, 2)
    assert lpad_distribution(lpad, Var("a")) == Fraction(1, 4)
    assert lpad_distribution(lpad, Var("b")) == Fraction(1, 2)
    # a query atom named like a choice atom is an atom of its own too
    guarded, _ = selector(lpad, {"_choice2_0"})
    assert not any(atom.startswith("_choice") for atom in guarded.externals)
    query = CounterfactualQuery(
        Var("b") & Var("_choice2_0"), frozenset({Literal("a")}),
        frozenset({Literal("choice1_0"), Literal("_choice2_0")}),
    )
    assert cp_counterfactual(lpad, query) == 0  # b :- \+choice1_0, and choice1_0 is forced
    query = CounterfactualQuery(Var("_choice2_0"),
                                interventions=frozenset({Literal("_choice2_0")}))
    assert cp_counterfactual(lpad, query) == 1
