import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import TWIN_SPRINKLER_TEXT
from generators import random_acyclic_program
from whatif.counterfactual import answer_counterfactual
from whatif.model import (
    Alphabet,
    Clause,
    CounterfactualQuery,
    Literal,
    NegativeCycleError,
    Not,
    RandomFact,
    ValidationError,
    Var,
    ZeroEvidenceError,
    formula_atoms,
)
from whatif.parser import parse_problog
from whatif.semantics import Classification, check_unique_supported_models, marginal
from whatif.transforms import intervene, relevant, twin
from whatif.wmc import conditional, marginal_wmc, to_weighted_cnf


def test_intervene_negative_sprinkler(sprinkler):
    result = intervene(sprinkler, {Literal("sprinkler", False)})
    assert len(result.clauses) == len(sprinkler.clauses) - 1
    assert all(c.head != "sprinkler" for c in result.clauses)
    assert result.facts == sprinkler.facts


def test_intervene_empty_is_identity(sprinkler):
    assert intervene(sprinkler, frozenset()) == sprinkler


def test_intervene_positive_wet(sprinkler):
    result = intervene(sprinkler, {Literal("wet")})
    wet_clauses = [c for c in result.clauses if c.head == "wet"]
    assert wet_clauses == [Clause("wet")]


def test_intervene_rejects_external(sprinkler):
    with pytest.raises(ValidationError):
        intervene(sprinkler, {Literal("u1")})


def test_intervene_absent_atom(sprinkler):
    result = intervene(sprinkler, {Literal("ghost")})
    assert Clause("ghost") in result.clauses
    assert "ghost" in result.internals
    vacuous = intervene(sprinkler, {Literal("ghost", False)})
    assert set(vacuous.clauses) == set(sprinkler.clauses)


def test_intervene_idempotent_and_commutative():
    rng = random.Random(3)
    for _ in range(50):
        program = random_acyclic_program(rng)
        internals = sorted(program.internals)
        i1 = frozenset({Literal(rng.choice(internals), rng.random() < 0.5)})
        once = intervene(program, i1)
        assert intervene(once, i1) == once
        others = [a for a in internals if a not in {l.atom for l in i1}]
        if not others:
            continue
        i2 = frozenset({Literal(rng.choice(others), rng.random() < 0.5)})
        assert intervene(intervene(program, i1), i2) == intervene(
            intervene(program, i2), i1
        )


def test_twin_matches_reference_listing(sprinkler, sprinkler_query):
    transformed, query, evidence = twin(sprinkler, sprinkler_query)
    assert transformed == parse_problog(TWIN_SPRINKLER_TEXT)
    assert query == Var("slippery__i")
    assert evidence == {Literal("slippery__e"), Literal("sprinkler__e")}
    assert len(transformed.clauses) == 13
    assert len(transformed.facts) == 4


def test_twin_empty_query_is_isomorphic_copy(sprinkler):
    query = CounterfactualQuery(Var("slippery"))
    transformed, renamed, evidence = twin(sprinkler, query)
    assert evidence == frozenset()
    assert len(transformed.clauses) == 2 * len(sprinkler.clauses)
    assert marginal(transformed, renamed) == marginal(sprinkler, Var("slippery"))


def test_twin_intervention_on_ruleless_atom(sprinkler):
    query = CounterfactualQuery(
        Var("wet"), frozenset(), frozenset({Literal("szn_spr_sum", False)})
    )
    transformed, _, _ = twin(sprinkler, query)
    # the only erased clause is the intervened head's definition
    assert len(transformed.clauses) == 2 * len(sprinkler.clauses) - 1


def test_twin_clause_count_property():
    rng = random.Random(13)
    for _ in range(30):
        program = random_acyclic_program(rng)
        internals = sorted(program.internals)
        atom = rng.choice(internals)
        query = CounterfactualQuery(
            Var(internals[0]), frozenset(), frozenset({Literal(atom, False)})
        )
        transformed, _, _ = twin(program, query)
        erased = sum(1 for c in program.clauses if c.head == atom)
        assert len(transformed.clauses) == 2 * len(program.clauses) - erased
        assert transformed.facts == program.facts
        assert (
            check_unique_supported_models(transformed) is Classification.ACYCLIC
        )


def test_twin_shares_a_random_fact_named_by_the_evidence(sprinkler):
    query = CounterfactualQuery(
        Var("slippery") | Var("u2"),
        frozenset({Literal("u1", False), Literal("wet"), Literal("ghost", False)}),
        frozenset({Literal("sprinkler", False)}),
    )
    transformed, renamed, evidence = twin(sprinkler, query)
    # the random facts keep their names in both copies, the evidence and the formula
    assert evidence == {Literal("u1", False), Literal("wet__e"), Literal("ghost__e", False)}
    assert renamed == Var("slippery__i") | Var("u2")
    assert transformed.externals == sprinkler.externals
    assert {"ghost__e", "ghost__i"} <= transformed.internals
    assert Clause("szn_spr_sum__e", frozenset({Literal("u1")})) in transformed.clauses
    assert Clause("szn_spr_sum__i", frozenset({Literal("u1")})) in transformed.clauses


def test_twin_rejects_an_intervention_on_a_random_fact(sprinkler):
    query = CounterfactualQuery(Var("wet"), frozenset({Literal("u1")}), frozenset({Literal("u1")}))
    with pytest.raises(ValidationError, match="cannot intervene on external atoms"):
        twin(sprinkler, query)


def test_twin_suffix_collision_rejected():
    program = parse_problog("a__e :- b.")
    with pytest.raises(ValidationError, match="suffix"):
        twin(program, CounterfactualQuery(Var("b")))


def _shared(cnf, atoms):
    """The number of distinct variables `atoms` have in `cnf`."""
    return len({cnf.var_map[atom] for atom in atoms})


def test_relevant_merges_sprinkler_twin(sprinkler, sprinkler_query):
    transformed, query, evidence = twin(sprinkler, sprinkler_query)
    reduced = relevant(transformed, query, evidence)
    cnf = to_weighted_cnf(reduced)
    heads = {c.head for c in reduced.clauses}
    copies = Counter(base for base, _ in {(h.split("__")[0], cnf.var_map[h]) for h in heads})
    # sprinkler__i, intervened to false, keeps no clause
    assert copies == {"szn_spr_sum": 1, "rain": 1, "sprinkler": 1, "wet": 2, "slippery": 2}
    assert cnf.var_map["rain__e"] == cnf.var_map["rain__i"]
    assert reduced.externals == {"u1", "u2", "u3", "u4"}
    # a one-literal rule's head takes that literal's variable, so the query
    # and evidence atoms slippery__* share theirs with wet__*, and
    # szn_spr_sum__* with u1; sprinkler__e, a conjunction, keeps its own
    assert cnf.var_map["slippery__i"] == cnf.var_map["wet__i"]
    assert cnf.var_map["slippery__e"] == cnf.var_map["wet__e"] != cnf.var_map["wet__i"]
    assert cnf.var_map["szn_spr_sum__e"] == cnf.var_map["u1"]
    assert Counter(cnf.var_map.values())[cnf.var_map["sprinkler__e"]] == 1
    assert conditional(reduced, query, evidence) == Fraction(1, 10)


def test_relevant_drops_unmentioned_facts():
    program = parse_problog("0.5::u. 0.3::w. 0.2::x. a :- u. b :- w. c :- a, x.")
    reduced = relevant(program, Var("a"), {Literal("b", False)})
    assert set(reduced.clauses) == {Clause("a", frozenset({Literal("u")})),
                                    Clause("b", frozenset({Literal("w")}))}
    assert {f.atom for f in reduced.facts} == {"u", "w"}
    assert reduced.alphabet == Alphabet(frozenset({"a", "b"}), frozenset({"u", "w"}))
    assert to_weighted_cnf(reduced).var_count == 2  # a takes u's variable, b w's
    # an external named only by the formula is kept
    reduced = relevant(program, Var("x"), ())
    assert reduced.facts == (RandomFact("x", Fraction(1, 5)),) and not reduced.clauses


@pytest.mark.parametrize("positive, kept, answer", [(False, 2, 1), (True, 3, 0)])
def test_relevant_intervention_on_ruleless_atom(positive, kept, answer):
    program = parse_problog("0.5::u. a :- b. a :- u. c :- a, \\+b.")
    query = CounterfactualQuery(
        Var("c"), frozenset({Literal("a")}), frozenset({Literal("b", positive)})
    )
    transformed, formula, evidence = twin(program, query)
    reduced = relevant(transformed, formula, evidence)
    cnf = to_weighted_cnf(reduced)
    # do(not b) makes both copies of b the false constant F, which the encoder folds
    # out of every body, so a__e, a__i and c__i all take u's variable.  do(b) makes b__i
    # the true constant T, so a__i is T, c__i's one body (a__i, \+b__i) is false and c__i
    # is F.  With the constants left in the bodies the two cases needed 3 and 5 variables.
    assert len(transformed.internals) == 6 and _shared(cnf, reduced.internals) == kept
    assert formula_atoms(formula) | {l.atom for l in evidence} <= reduced.internals
    assert conditional(reduced, formula, evidence) == answer
    assert answer_counterfactual(program, query, "oracle") == answer


def test_relevant_query_atom_absent_from_program(sprinkler):
    query = Var("ghost") | Var("rain")
    reduced = relevant(sprinkler, query, ())
    assert "ghost" in reduced.internals
    assert all(c.head != "ghost" for c in reduced.clauses)
    assert conditional(reduced, query, ()) == marginal(sprinkler, Var("rain"))
    # two absent atoms are the same rule-less atom
    cnf = to_weighted_cnf(relevant(sprinkler, Var("ghost") & Not(Var("spook")), ()))
    assert cnf.var_map["ghost"] == cnf.var_map["spook"]


def test_relevant_merge_keys():
    program = parse_problog("0.5::u. a :- u. b :- \\+u. c. c :- u. d. e :- c. f :- d.")
    # a body literal's sign is part of the key
    reduced = relevant(program, Var("a"), {Literal("b")})
    cnf = to_weighted_cnf(reduced)
    assert reduced.internals == {"a", "b"} and _shared(cnf, "ab") == 2
    assert conditional(program, Var("a"), {Literal("b")}) == 0
    # a fact clause decides the key alone
    reduced = relevant(program, Var("e") & Var("f"), ())
    cnf = to_weighted_cnf(reduced)
    assert reduced.internals == {"c", "d", "e", "f"}
    # and e, f take the variable of their one body literal
    assert cnf.var_map["c"] == cnf.var_map["d"] == cnf.var_map["e"] == cnf.var_map["f"]
    assert cnf.var_count == 2


def test_relevant_merge_makes_evidence_contradictory():
    program = parse_problog("0.5::u. a :- u. b :- u. c :- a.")
    evidence = {Literal("a"), Literal("b", False)}
    cnf = to_weighted_cnf(relevant(program, Var("c"), evidence))
    # a and \+b become opposite literals of one variable
    assert sorted(cnf.literal(lit) for lit in evidence) == [-cnf.var_map["a"], cnf.var_map["a"]]
    assert _shared(cnf, "abc") == 1
    with pytest.raises(ZeroEvidenceError):
        conditional(program, Var("c"), evidence)


def test_relevant_leaves_a_relevant_cycle_to_the_encoder():
    program = parse_problog("0.5::u. a :- b. b :- a. a :- u. c :- a. d :- u.")
    reduced = relevant(program, Var("c"), ())
    assert reduced.internals == {"a", "b", "c"}
    with pytest.raises(ValidationError):
        to_weighted_cnf(reduced)
    with pytest.raises(ValidationError):
        conditional(program, Var("c"), ())
    negative = parse_problog("0.5::u. a :- \\+b, u. b :- \\+a. c :- a.")
    assert relevant(negative, Var("c"), ()) == negative
    with pytest.raises(NegativeCycleError):
        marginal_wmc(negative, Var("c"))
    # a cycle the query does not reach is pruned on a direct call
    assert conditional(program, Var("d"), ()) == Fraction(1, 2)
    # so is a negative one beside a reached positive one, which alone is rejected
    both = parse_problog("0.5::u. a :- b. b :- a. a :- u. c :- a. e :- \\+f. f :- \\+e.")
    with pytest.raises(ValidationError):
        marginal_wmc(both, Var("c"))


def test_irrelevant_cycle_still_rejected_by_answer_counterfactual():
    program = parse_problog("0.5::u. a :- b. b :- a. d :- u.")
    query = CounterfactualQuery(Var("d"), frozenset(), frozenset({Literal("d", False)}))
    with pytest.raises(ValidationError, match="acyclic"):
        answer_counterfactual(program, query)
    with pytest.warns(UserWarning):
        assert answer_counterfactual(program, query, "enumerate") == 0
