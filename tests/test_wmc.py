import itertools
import random
import sys
from collections import OrderedDict
from fractions import Fraction

import pytest

from generators import random_acyclic_program, random_counterfactual_query, random_formula
from whatif.model import (
    And,
    CounterfactualQuery,
    Literal,
    Not,
    Or,
    Var,
    ValidationError,
    ZeroEvidenceError,
)
from whatif import _counter_py, wmc as wmc_mod
from whatif._counter_py import ModelCounter
from whatif.parser import parse_problog
from whatif.semantics import marginal
from whatif.transforms import relevant, twin
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


def test_conditional_searches_once(monkeypatch, sprinkler):
    formula, evidence = Var("slippery") | Var("rain"), {Literal("wet")}
    expected = counterfactual.conditional(sprinkler, formula, evidence, backend="enumerate")
    searches = []
    search = ModelCounter._search

    def counted(self, *args):
        searches.append(args)
        return search(self, *args)

    monkeypatch.setattr(ModelCounter, "_search", counted)
    assert conditional(sprinkler, formula, evidence) == expected
    assert len(searches) == 1


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


class _CountingCache(OrderedDict):
    """A counter's cache that counts its evictions."""

    def __init__(self):
        super().__init__()
        self.evictions = 0

    def popitem(self, last=True):
        self.evictions += 1
        return super().popitem(last)


def _counting(counter):
    counter.cache = _CountingCache()
    return counter


# the default cap, and a cap of one entry, which evicts on almost every miss
CACHE_CAPS = pytest.mark.parametrize("cap", [_counter_py.CACHE_CAP, 1], ids=["default-cap", "cap-1"])


@CACHE_CAPS
def test_counter_equals_brute_force(monkeypatch, cap):
    monkeypatch.setattr(_counter_py, "CACHE_CAP", cap)
    rng = random.Random(2305)
    shapes = set()
    evictions = 0
    for _ in range(300):
        n, clauses, weights, assumptions = _random_cnf(rng)
        expected = _brute_force(n, clauses, weights, assumptions)
        counter = _counting(ModelCounter(clauses, weights))
        assert counter.count(assumptions) == expected
        assert len(counter.cache) <= cap
        evictions += counter.cache.evictions
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
    assert (evictions > 0) == (cap == 1), evictions


@CACHE_CAPS
def test_marked_pair_equals_brute_force(monkeypatch, cap):
    # count(A) searches once; count(A + [m]) must then come from that search
    monkeypatch.setattr(_counter_py, "CACHE_CAP", cap)
    rng = random.Random(2306)
    shapes = set()
    evictions = 0
    for _ in range(300):
        n, clauses, weights, assumptions = _random_cnf(rng)
        if not n:
            continue
        units = [c[0] for c in clauses if len(c) == 1]
        pool = assumptions + [-lit for lit in assumptions] + units + [-lit for lit in units]
        if pool and rng.random() < 0.5:
            mark = rng.choice(pool)
        else:
            mark = rng.choice((1, -1)) * rng.randint(1, n)
        counter = _counting(ModelCounter(clauses, weights, mark=mark))
        expected = _brute_force(n, clauses, weights, assumptions)
        assert counter.count(assumptions) == expected
        counter._expand = None  # the marked count must not search again
        marked = _brute_force(n, clauses, weights, assumptions + [mark])
        assert counter.count(assumptions + [mark]) == marked
        del counter._expand  # any other assumptions search again, on the same cache
        unmarked = assumptions + [-mark]
        assert counter.count(unmarked) == _brute_force(n, clauses, weights, unmarked)
        assert counter.count(assumptions) == expected
        assert len(counter.cache) <= cap
        evictions += counter.cache.evictions
        shapes.update(
            name
            for name, present in (
                ("positive", mark > 0),
                ("negative", mark < 0),
                ("assumed", mark in assumptions),
                ("contradicted", -mark in assumptions),
                ("unit", any(abs(lit) == abs(mark) for lit in units)),
                ("free", all(abs(lit) != abs(mark) for c in clauses for lit in c)),
                ("unsatisfiable", expected == 0),
                ("split", 0 != marked != expected),
            )
            if present
        )
    assert shapes == {
        "positive", "negative", "assumed", "contradicted", "unit", "free", "unsatisfiable",
        "split",
    }
    assert (evictions > 0) == (cap == 1), evictions


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


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_depth_is_not_bounded_by_recursion_limit(monkeypatch):
    # the search nodes nest far deeper than the interpreter may recurse here
    n, margin = 1200, 100
    weights = {v: (Fraction(1, 2), Fraction(1, 2)) for v in range(1, n + 2)}
    clauses = [(i, i + 1) for i in range(1, n + 1)]  # a path; its count is tested above
    expected = ModelCounter(clauses, weights).count()
    live = peak = 0
    node = ModelCounter._node

    def measured(self, *args):
        nonlocal live, peak
        live += 1
        peak = max(peak, live)
        try:
            return (yield from node(self, *args))  # one level: the driver resumes each node
        finally:
            live -= 1

    monkeypatch.setattr(ModelCounter, "_node", measured)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + margin)
    try:
        assert ModelCounter(clauses, weights).count() == expected
    finally:
        sys.setrecursionlimit(limit)
    assert peak > 4 * margin, peak


def _underflow_case():
    """P(a) = 1e-340, which is 0 as a float."""
    facts = [f"u_{i}" for i in range(340)]
    text = "".join(f"0.1::{u}.\n" for u in facts)
    text += f"a :- {', '.join(facts)}.\nb :- a.\nc :- \\+b.\n"
    program = parse_problog(text)
    query = CounterfactualQuery(
        Var("c"), frozenset({Literal("a")}), frozenset({Literal("b", False)})
    )
    return program, query


def test_float_underflow_falls_back_to_exact():
    program, query = _underflow_case()
    assert answer_counterfactual(program, query) == 1
    assert answer_counterfactual(program, query, exact=False) == 1.0
    with pytest.raises(ZeroEvidenceError):
        conditional(program, Var("c"), {Literal("a"), Literal("b", False)}, exact=False)


def test_float_underflow_recounts_the_same_cnf(monkeypatch):
    program, query = _underflow_case()
    encoded = []

    def counted(program):
        encoded.append(program)
        return to_weighted_cnf(program)

    monkeypatch.setattr(wmc_mod, "to_weighted_cnf", counted)
    assert answer_counterfactual(program, query, exact=False) == 1.0
    assert len(encoded) == 1


def _plain_conditional(program, formula, evidence):
    """P(formula | evidence) counted on `program` as given, with no reduction."""
    cnf = to_weighted_cnf(program)
    assumptions = [cnf.literal(lit) for lit in sorted(evidence)]
    with_query, root = add_formula(cnf, formula)
    return wmc(with_query, assumptions + [root]) / wmc(cnf, assumptions)


def test_reduced_twin_equals_plain_twin():
    # conditional counts the reduced twin in one marked search; the references
    # make two fresh searches, on the plain twin and on the reduced one
    rng = random.Random(33)
    shrunk = renamed = compound = 0
    for case in range(300):
        program = random_acyclic_program(rng)
        query = random_counterfactual_query(rng, program)
        transformed, formula, evidence = twin(program, query)
        expected = _plain_conditional(transformed, formula, evidence)
        answer = conditional(transformed, formula, evidence)
        assert type(answer) is Fraction and answer == expected, case
        reduced = relevant(transformed, formula, evidence)
        assert _plain_conditional(*reduced) == expected, case
        shrunk += to_weighted_cnf(reduced[0]).var_count < to_weighted_cnf(transformed).var_count
        renamed += reduced[1:] != (formula, evidence)  # a query or evidence atom merged
        compound += isinstance(reduced[1], (And, Or))  # the query has Tseitin clauses
    assert shrunk >= 250 and renamed >= 50 and compound >= 100, (shrunk, renamed, compound)
