import itertools
import random
import sys
from fractions import Fraction

import pytest

from generators import random_acyclic_program, random_formula
from whatif.model import (
    And,
    CounterfactualQuery,
    Literal,
    Not,
    Var,
    ValidationError,
    ZeroEvidenceError,
)
from whatif._counter_py import ModelCounter
from whatif.parser import parse_problog
from whatif.semantics import marginal
from whatif.transforms import twin
from whatif.wmc import (
    WeightedCnf,
    add_formula,
    conditional,
    dump_dimacs,
    marginal_wmc,
    to_weighted_cnf,
    wmc,
)
from whatif import counterfactual
from whatif.counterfactual import answer_counterfactual


def test_single_rule_completion():
    program = parse_problog("a :- u. 0.5::u.")
    cnf = to_weighted_cnf(program)
    assert cnf.weights[cnf.var_map["u"]] == (Fraction(1, 2), Fraction(1, 2))
    assert cnf.weights[cnf.var_map["a"]] == (Fraction(1), Fraction(1))
    assert wmc(cnf, [cnf.var_map["a"]]) == Fraction(1, 2)


def test_ruleless_internal_is_false():
    program = parse_problog("a :- u, \\+b. 0.5::u.")
    cnf = to_weighted_cnf(program)
    assert (-cnf.var_map["b"],) in cnf.clauses
    assert wmc(cnf, [cnf.var_map["a"]]) == Fraction(1, 2)


def test_inapplicable_body():
    program = parse_problog("a :- u, \\+u. 0.5::u.")
    assert marginal_wmc(program, Var("a")) == 0


def test_sprinkler_wmc(sprinkler):
    cnf = to_weighted_cnf(sprinkler)
    assert wmc(cnf, []) == 1
    assert wmc(cnf, [cnf.var_map["sprinkler"]]) == Fraction(7, 20)


def test_rejects_cyclic_programs():
    with pytest.raises(ValidationError):
        to_weighted_cnf(parse_problog("a :- b. b :- a."))


def test_free_variables_count():
    weights = {v: (Fraction(1), Fraction(1)) for v in range(1, 6)}
    cnf = WeightedCnf(5, [], weights, {})
    assert wmc(cnf) == 32


def test_unknown_assumption_rejected():
    cnf = WeightedCnf(1, [], {1: (Fraction(1), Fraction(1))}, {})
    with pytest.raises(ValidationError):
        wmc(cnf, [7])


def test_twin_sprinkler_counts(sprinkler, sprinkler_query):
    transformed, query, evidence = twin(sprinkler, sprinkler_query)
    cnf = to_weighted_cnf(transformed)
    assumptions = [cnf.literal(lit) for lit in sorted(evidence)]
    assert wmc(cnf, assumptions) == Fraction(7, 20)
    with_query, root = add_formula(cnf, query)
    assert wmc(with_query, assumptions + [root]) == Fraction(7, 200)  # 0.035


def test_assumption_monotonicity(sprinkler):
    cnf = to_weighted_cnf(sprinkler)
    base = wmc(cnf, [cnf.var_map["wet"]])
    assert wmc(cnf, [cnf.var_map["wet"], cnf.var_map["rain"]]) <= base


def test_count_invariant_under_clause_permutation(sprinkler):
    cnf = to_weighted_cnf(sprinkler)
    reference = wmc(cnf, [cnf.var_map["slippery"]])
    rng = random.Random(1)
    for _ in range(5):
        shuffled = cnf.copy()
        rng.shuffle(shuffled.clauses)
        assert wmc(shuffled, [cnf.var_map["slippery"]]) == reference


def test_conditional_examples(sprinkler):
    assert conditional(sprinkler, Var("slippery"), {Literal("sprinkler")}) == 1
    assert conditional(sprinkler, Var("sprinkler"), frozenset()) == Fraction(7, 20)
    with pytest.raises(ZeroEvidenceError):
        conditional(sprinkler, Var("rain"), {Literal("sprinkler"), Literal("wet", False)})


def test_oracle_equivalence_random_suite():
    rng = random.Random(99)
    for _ in range(60):
        program = random_acyclic_program(rng, max_externals=8)
        formula = random_formula(rng, sorted(program.internals | program.externals))
        assert marginal_wmc(program, formula) == marginal(program, formula)


def test_float_mode_close_to_exact(sprinkler):
    exact = marginal_wmc(sprinkler, Var("slippery"))
    approx = marginal_wmc(sprinkler, Var("slippery"), exact=False)
    assert abs(float(exact) - approx) < 1e-9


def test_dump_dimacs_format(sprinkler):
    cnf = to_weighted_cnf(sprinkler)
    text = dump_dimacs(cnf)
    lines = text.splitlines()
    assert lines[0] == f"p cnf {cnf.var_count} {len(cnf.clauses)}"
    assert any(line.startswith("c p weight ") and line.endswith(" 0") for line in lines)
    assert all(line.endswith(" 0") for line in lines[1:])


def test_counter_backends_agree():
    from whatif import wmc as wmc_mod

    rng = random.Random(21)
    for _ in range(20):
        program = random_acyclic_program(rng, max_externals=8)
        formula = random_formula(rng, sorted(program.internals))
        exact = marginal_wmc(program, formula)
        approx = marginal_wmc(program, formula, exact=False)
        assert abs(float(exact) - approx) < 1e-9


def _random_cnf(rng):
    """A CNF over at most 12 variables, with assumptions, covering edge shapes."""
    n = rng.randint(0, 12)
    weights = {
        v: (Fraction(rng.randint(0, 4), rng.randint(1, 4)), Fraction(rng.randint(0, 3), 3))
        for v in range(1, n + 1)
    }
    used = rng.sample(range(1, n + 1), rng.randint(0, n))  # the rest are unmentioned
    clauses = []
    for _ in range(rng.randint(0, 3 * len(used)) if used else 0):
        clause = [rng.choice((1, -1)) * rng.choice(used) for _ in range(rng.randint(1, 4))]
        shape = rng.random()
        if shape < 0.1:
            clause.append(clause[0])  # duplicate literal, as in (aux, -a, -a)
        elif shape < 0.2:
            clause.append(-clause[0])  # tautology
        clauses.append(tuple(clause))
    assumptions = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 2))] if n else []
    if assumptions and rng.random() < 0.1:
        assumptions.append(-assumptions[0])  # contradictory
    return n, clauses, weights, assumptions


def _brute_force(n, clauses, weights, assumptions):
    """Weighted sum over all 2^n assignments that satisfy every clause and assumption."""
    constraints = clauses + [(lit,) for lit in assumptions]
    total = Fraction(0)
    for bits in itertools.product((True, False), repeat=n):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in constraints):
            weight = Fraction(1)
            for var, value in enumerate(bits, 1):
                weight *= weights[var][0 if value else 1]
            total += weight
    return total


def test_counter_equals_brute_force():
    rng = random.Random(2305)
    shapes = set()
    for _ in range(300):
        n, clauses, weights, assumptions = _random_cnf(rng)
        expected = _brute_force(n, clauses, weights, assumptions)
        assert ModelCounter(clauses, weights).count(assumptions) == expected
        shapes.add("empty" if not clauses else "nonempty")
        shapes.update(
            name
            for name, present in (
                ("duplicate", any(len(set(c)) < len(c) for c in clauses)),
                ("tautology", any(-lit in c for c in clauses for lit in c)),
                ("unit", any(len(c) == 1 for c in clauses)),
                ("contradiction", any(-lit in assumptions for lit in assumptions)),
                ("unmentioned", len({abs(l) for c in clauses for l in c}) < n),
            )
            if present
        )
    assert shapes == {
        "empty", "nonempty", "duplicate", "tautology", "unit", "contradiction", "unmentioned",
    }


def test_counter_invariant_under_permutation_and_renaming():
    rng = random.Random(17)
    for _ in range(100):
        n, clauses, weights, assumptions = _random_cnf(rng)
        reference = ModelCounter(clauses, weights).count(assumptions)
        shuffled = [tuple(rng.sample(c, len(c))) for c in clauses]
        rng.shuffle(shuffled)
        assert ModelCounter(shuffled, weights).count(assumptions) == reference
        perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))

        def rename(lit):
            return perm[lit] if lit > 0 else -perm[-lit]

        renamed = [tuple(map(rename, c)) for c in clauses]
        renamed_weights = {perm[v]: w for v, w in weights.items()}
        counter = ModelCounter(renamed, renamed_weights)
        assert counter.count(list(map(rename, assumptions))) == reference


def test_counter_empty_clause_is_unsatisfiable():
    weights = {1: (Fraction(1, 2), Fraction(1, 2))}
    assert ModelCounter([(), (1, -1)], weights).count() == 0
    assert ModelCounter([(1, -1)], weights).count() == 1


def test_deep_path_counts_without_recursion_limit():
    n = 1200
    half = Fraction(1, 2)
    weights = {v: (half, half) for v in range(1, n + 2)}
    clauses = [(i, i + 1) for i in range(1, n + 1)]
    # independent DP over the path: weight of prefixes ending in true / false
    ends_true, ends_false = half, half
    for _ in range(n):
        ends_true, ends_false = (ends_true + ends_false) * half, ends_true * half
    limit = sys.getrecursionlimit()
    assert ModelCounter(clauses, weights).count() == ends_true + ends_false
    assert sys.getrecursionlimit() == limit


def test_float_underflow_falls_back_to_exact():
    facts = [f"u_{i}" for i in range(340)]
    text = "".join(f"0.1::{u}.\n" for u in facts)
    text += f"a :- {', '.join(facts)}.\nb :- a.\nc :- \\+b.\n"
    program = parse_problog(text)
    query = CounterfactualQuery(
        Var("c"), frozenset({Literal("a")}), frozenset({Literal("b", False)})
    )
    assert answer_counterfactual(program, query) == 1
    assert answer_counterfactual(program, query, exact=False) == 1.0
    with pytest.raises(ZeroEvidenceError):
        conditional(program, Var("c"), {Literal("a"), Literal("b", False)}, exact=False)
