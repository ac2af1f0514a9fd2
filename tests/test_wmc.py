import itertools
import random
import sys
from collections import Counter, OrderedDict
from fractions import Fraction
from math import lcm

import pytest

from generators import random_acyclic_program, random_counterfactual_query, random_formula
from whatif.model import (
    Alphabet,
    And,
    Clause,
    CounterfactualQuery,
    Literal,
    Not,
    Or,
    Program,
    NegativeCycleError,
    Var,
    ValidationError,
    ZeroEvidenceError,
    formula_atoms,
)
from whatif import _counter_py, benchgen, wmc as wmc_mod
from whatif.lpad import lpad_of_problog, prob_of_lpad
from whatif._counter_py import ModelCounter
from whatif.parser import parse_problog
from whatif.semantics import Classification, check_unique_supported_models, marginal
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
    # a one-literal rule's head takes that literal's variable and weights
    assert cnf.var_map["a"] == cnf.var_map["u"]
    assert cnf.weights[cnf.var_map["a"]] == (1, 1) and cnf.scale == 2
    assert wmc(cnf, [cnf.var_map["a"]]) == Fraction(1, 2)


def test_atoms_with_equal_bodies_share_a_variable():
    cnf = to_weighted_cnf(parse_problog("0.5::u. a :- u. b :- u."))
    assert cnf.var_map["a"] == cnf.var_map["b"] == cnf.var_map["u"]
    assert cnf.var_count == 1


def test_single_body_has_no_auxiliary():
    cnf = to_weighted_cnf(parse_problog("0.5::u. 0.5::v. a :- u, v."))
    u, v, a = (cnf.var_map[atom] for atom in "uva")
    assert cnf.var_count == 3
    assert sorted(cnf.clauses) == sorted([(-a, u), (-a, v), (a, -u, -v)])
    assert wmc(cnf, [a]) == Fraction(1, 4)


def test_negative_one_literal_body_takes_the_negated_literal():
    cnf = to_weighted_cnf(parse_problog("0.5::u. b :- u. c :- \\+u."))
    u, b, c = (cnf.var_map[atom] for atom in "ubc")
    assert b == u == -c and cnf.var_count == 1
    assert cnf.clauses == []
    assert wmc(cnf, [c]) == Fraction(1, 2)


def test_chain_of_one_literal_rules_is_one_variable():
    links = 50
    text = "0.3::u. a1 :- u.\n" + "".join(f"a{i} :- a{i - 1}.\n" for i in range(2, links + 1))
    program = parse_problog(text)
    cnf = to_weighted_cnf(program)
    assert cnf.var_count == 1 and cnf.clauses == []
    assert set(cnf.var_map.values()) == {1}
    assert marginal_wmc(program, Var(f"a{links}")) == Fraction(3, 10)


def _with_copy(program, atom, copy):
    """`program` with the clause `copy :- atom.` appended."""
    clauses = program.clauses + (Clause(copy, frozenset({Literal(atom)})),)
    alphabet = Alphabet(program.internals | {copy}, program.externals)
    return Program(clauses, program.facts, alphabet)


def test_one_literal_copy_of_the_query_changes_neither_answer_nor_cnf():
    rng = random.Random(41)
    for case in range(80):
        program = random_acyclic_program(rng)
        drawn = random_counterfactual_query(rng, program)
        atom = rng.choice(sorted(program.internals))
        copied = _with_copy(program, atom, "q2")
        answers, sizes = [], []
        for base, name in ((program, atom), (copied, "q2")):
            query = CounterfactualQuery(Var(name), drawn.evidence, drawn.interventions)
            answer = answer_counterfactual(base, query)
            assert type(answer) is Fraction
            assert answer == answer_counterfactual(base, query, "enumerate"), case
            cnf, _, _ = wmc_mod.encode_query(*twin(base, query))
            answers.append(answer)
            sizes.append((cnf.var_count, len(cnf.clauses)))
        assert answers[0] == answers[1] and sizes[0] == sizes[1], case


def test_marked_literal_in_no_clause():
    # s and q take u's variable and r takes its negation, so unless an
    # intervention makes q a constant the query's root literal is u, which
    # then occurs in no clause; a constant q is T or its negation, and T's unit
    # clause is the CNF's one clause
    program = parse_problog("0.3::u. q :- u. s :- q. r :- \\+u.")
    s, q, r = Literal("s"), Literal("q"), Literal("r")
    cases = [
        (frozenset(), frozenset(), Fraction(3, 10), 0),
        (frozenset({s}), frozenset(), Fraction(1), 0),
        (frozenset({Literal("s", False)}), frozenset({r}), Fraction(0), 0),
        (frozenset({Literal("r", False)}), frozenset(), Fraction(1), 0),
        (frozenset(), frozenset({Literal("q", False)}), Fraction(0), 1),
        (frozenset({Literal("s", False)}), frozenset({q}), Fraction(1), 1),
    ]
    for evidence, interventions, expected, clauses in cases:
        query = CounterfactualQuery(Var("s"), evidence, interventions)
        cnf, root, _ = wmc_mod.encode_query(*twin(program, query))
        assert len(cnf.clauses) == clauses
        if not clauses:
            assert cnf.var_count == 1 and abs(root) == 1
        for backend in counterfactual.BACKENDS:
            assert answer_counterfactual(program, query, backend) == expected
            approx = answer_counterfactual(program, query, backend, exact=False)
            assert type(approx) is float and abs(approx - expected) < 1e-12


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


def test_complementary_parts_fold_to_a_constant():
    # and(u, \+u) is ¬T and or(u, \+u) is T: neither a nor b gets a gate variable
    cnf = to_weighted_cnf(parse_problog("0.5::u. a :- u, \\+u. b :- u. b :- \\+u."))
    true = cnf.gates[True, frozenset()]
    assert cnf.var_map["a"] == -true and cnf.var_map["b"] == true
    assert cnf.var_count == 2 and cnf.clauses == [(true,)]
    # so is a query formula's junction
    _, root = add_formula(cnf, Or((Var("u"), Not(Var("u")))))
    assert root == true
    assert add_formula(cnf, And((Var("a"), Var("b"), Not(Var("a")))))[1] == -true


def test_free_variables_count():
    # a variable with no weight entry weighs 1 either way
    cnf = WeightedCnf(5, [], {}, {}, 1)
    assert wmc(cnf) == 32


def test_fact_variables_carry_the_world_weight_pairs():
    # the CNF's weights are the pruned program's table on the variables of its facts
    # strictly between 0 and 1, and nothing else; a fact of probability 1 is the one true
    # variable T, the and-gate of no parts, fixed by its unit clause, and one of
    # probability 0 is its negation
    rng = random.Random(16)
    folded = 0
    for case in range(100):
        program = random_acyclic_program(rng)
        query = random_counterfactual_query(rng, program)
        transformed, formula, evidence = twin(program, query)
        cnf, _, _ = wmc_mod.encode_query(transformed, formula, evidence)
        table = relevant(transformed, formula, sorted(evidence)).world_weights
        assert cnf.weights == {
            cnf.var_map[atom]: pair for atom, pair in table.pairs.items() if 0 not in pair
        }, case
        units = {clause[0] for clause in cnf.clauses if len(clause) == 1}
        for value in (True, False):
            constant = {cnf.var_map[atom] for atom, (wt, wf) in table.pairs.items()
                        if not (wt and wf) and bool(wt) is value}
            assert len(constant) <= 1, case
            for lit in constant:
                assert (lit if value else -lit) in units, case
                assert (lit if value else -lit) == cnf.gates[True, frozenset()], case
            folded += len(constant)
        assert cnf.scale == table.denominator, case
    assert folded >= 30  # 35 constants over the 100 cases


def _query_shapes(query):
    """The query, its formula alone, with its evidence only and with its interventions only."""
    return (query, CounterfactualQuery(query.query),
            CounterfactualQuery(query.query, query.evidence),
            CounterfactualQuery(query.query, (), query.interventions))


def test_constants_are_folded_out_of_every_cnf():
    # facts of probability 0 or 1 (1/11 of the generator's draws each) and intervened
    # atoms are constants: none is weighted, and none is in a clause of two or more literals
    rng = random.Random(24)
    folded = 0
    for case in range(80):
        program = random_acyclic_program(rng, max_internals=6, max_externals=6)
        for query in _query_shapes(random_counterfactual_query(rng, program)):
            cnf, _, _ = wmc_mod.encode_query(*counterfactual.reduce(program, query))
            assert all(wt and wf for wt, wf in cnf.weights.values()), case
            fixed = {abs(clause[0]) for clause in cnf.clauses if len(clause) == 1}
            assert all(fixed.isdisjoint(map(abs, clause))
                       for clause in cnf.clauses if len(clause) > 1), case
            folded += bool(fixed)
    assert folded >= 200  # 259 of the 320 CNFs fix a constant


def _assert_definitional(cnf):
    """`cnf` meets the counter's `definitional=True` precondition, as the encoder's gates do.

    Every variable but the weighted facts and T heads one complete and- or or-definition
    of two or more parts, each clause starting with its literal; each part is numbered
    below the variable it defines, so the definitions are acyclic; no two definitions are
    equal; and T alone is fixed by a unit clause.
    """
    units = {clause[0] for clause in cnf.clauses if len(clause) == 1}
    definitions = {}
    for clause in cnf.clauses:
        if len(clause) > 1:
            definitions.setdefault(abs(clause[0]), []).append(clause)
    assert len(units) <= 1 and all(t > 0 for t in units)
    assert sorted([*cnf.weights, *definitions, *units]) == list(range(1, cnf.var_count + 1))
    gates = set()
    for var, clauses in definitions.items():
        (long,) = [clause for clause in clauses if len(clause) > 2]
        out, *parts = long  # (v, -p...) for v <-> and(p...); (-v, p...) for v <-> or(p...)
        assert sorted(clauses) == sorted([long] + [(-out, -part) for part in parts])
        assert all(abs(part) < var for part in parts)
        gates.add((out > 0, frozenset(parts)))
    assert len(gates) == len(definitions)


def test_every_cnf_meets_the_definitional_precondition():
    # random programs under every query shape, and hub cells: the CNF the counter reads
    # with `definitional=True`, Tseitin clauses of compound query formulas included
    rng = random.Random(30)
    cases = []
    for _ in range(60):
        program = random_acyclic_program(rng, max_internals=6, max_externals=6)
        cases += [(program, shape)
                  for shape in _query_shapes(random_counterfactual_query(rng, program))]
    for n, k, seed in ((10, 3, 1), (20, 1, 2), (20, 3, 3)):
        instance = benchgen.generate_instance(n, k, seed)
        program = benchgen.instance_to_program(instance)
        cases += [(program, shape)
                  for shape in _query_shapes(benchgen.sample_query(instance, 2, 2, seed))]
    constants = 0
    for case, (program, query) in enumerate(cases):
        cnf, _, _ = wmc_mod.encode_query(*counterfactual.reduce(program, query))
        try:
            _assert_definitional(cnf)
        except (AssertionError, ValueError) as error:
            raise AssertionError(f"case {case}: {cnf}") from error
        constants += (True, frozenset()) in cnf.gates
    assert constants >= 150  # T is in 224 of the 252 CNFs


def test_constant_facts_fold_like_internal_constants():
    # a fact of probability 1 is an internal fact clause, and one of probability 0 a
    # rule-less internal atom: every answer of the wmc backend is the same Fraction,
    # and the enumerate backend's on the program as written
    rng = random.Random(25)
    for case in range(60):
        constant = {}
        while not constant:  # a program with at least one such fact
            program = random_acyclic_program(rng)
            constant = {f.atom: f.prob for f in program.facts if f.prob in (0, 1)}
        query = random_counterfactual_query(rng, program)
        internal = Program(
            program.clauses + tuple(Clause(atom) for atom, p in constant.items() if p),
            tuple(f for f in program.facts if f.atom not in constant),
            Alphabet(program.internals | constant.keys(), program.externals - constant.keys()),
        )
        for shape in _query_shapes(query):
            answers = []
            for version, backend in ((program, "wmc"), (internal, "wmc"), (program, "enumerate")):
                try:
                    answers.append(answer_counterfactual(version, shape, backend))
                except ZeroEvidenceError:
                    answers.append(ZeroEvidenceError)
            assert answers[0] == answers[1] == answers[2], case


def test_lpad_round_trip_of_the_sprinkler_folds_its_deterministic_choices(
    sprinkler, sprinkler_query
):
    # every rule of the sprinkler reads as an annotated disjunction with one head of
    # probability 1, whose choice fact is the true constant; the original's twin CNF
    # has 10 variables and 16 clauses
    program = prob_of_lpad(lpad_of_problog(sprinkler))
    cnf, _, _ = wmc_mod.encode_query(*counterfactual.reduce(program, sprinkler_query))
    assert cnf.var_count <= 11 and len(cnf.clauses) <= 17
    assert answer_counterfactual(program, sprinkler_query, "wmc") == Fraction(1, 10)


def test_unknown_assumption_rejected():
    cnf = WeightedCnf(1, [], {}, {}, 1)
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


def _scaled(weights):
    """Rational weight pairs as the counter's (integer pairs, scale): each pair times its lcm."""
    integers, scale = {}, 1
    for var, (wt, wf) in weights.items():
        d = lcm(wt.denominator, wf.denominator)
        integers[var] = (int(wt * d), int(wf * d))
        scale *= d
    return integers, scale


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
    """A counter's cache that counts its evictions and hits."""

    def __init__(self):
        super().__init__()
        self.evictions = self.hits = 0

    def popitem(self, last=True):
        self.evictions += 1
        return super().popitem(last)

    def move_to_end(self, key, last=True):
        self.hits += 1
        return super().move_to_end(key, last)


def _counting(counter):
    counter.cache = _CountingCache()
    return counter


def _check_cache_bytes(counter, cap):
    """The cache's byte total is that of its entries and within `cap`."""
    held = sum(_counter_py._entry_bytes(key, value) for key, value in counter.cache.items())
    assert counter.cache_bytes == held <= cap


# the default byte bound, and a bound of one byte, which evicts every entry
# as soon as it is stored
CACHE_BOUNDS = pytest.mark.parametrize(
    "cap", [_counter_py.CACHE_BYTES, 1], ids=["default-cap", "cap-1"]
)


@CACHE_BOUNDS
def test_counter_equals_brute_force(monkeypatch, cap):
    monkeypatch.setattr(_counter_py, "CACHE_BYTES", cap)
    rng = random.Random(2305)
    shapes = set()
    evictions = 0
    for _ in range(300):
        n, clauses, weights, assumptions = _random_cnf(rng)
        expected = _brute_force(n, clauses, weights, assumptions)
        counter = _counting(ModelCounter(n, clauses, *_scaled(weights)))
        assert counter.count(assumptions) == expected
        _check_cache_bytes(counter, cap)
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


@CACHE_BOUNDS
def test_marked_pair_equals_brute_force(monkeypatch, cap):
    # count(A) searches once; count(A + [m]) must then come from that search
    monkeypatch.setattr(_counter_py, "CACHE_BYTES", cap)
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
        counter = _counting(ModelCounter(n, clauses, *_scaled(weights), mark=mark))
        expected = _brute_force(n, clauses, weights, assumptions)
        assert counter.count(assumptions) == expected
        counter._expand = None  # the marked count must not search again
        marked = _brute_force(n, clauses, weights, assumptions + [mark])
        assert counter.count(assumptions + [mark]) == marked
        del counter._expand  # any other assumptions search again, on the same cache
        unmarked = assumptions + [-mark]
        assert counter.count(unmarked) == _brute_force(n, clauses, weights, unmarked)
        _check_cache_bytes(counter, cap)
        assert counter.count(assumptions) == expected
        _check_cache_bytes(counter, cap)
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


# (n, k, seed) of benchgen hub cells whose (e=2, i=2) counterfactual CNFs count in well under a second
DEFINITION_HUB_CELLS = ((10, 3, 1), (20, 3, 2), (20, 5, 1), (30, 3, 1))


def _definition_cases():
    """(kind, CNF, root, assumptions) of seeded random acyclic queries and of hub cells."""
    rng = random.Random(28)
    for _ in range(40):
        program = random_acyclic_program(rng, max_externals=6)
        query = random_counterfactual_query(rng, program)
        yield "random", *wmc_mod.encode_query(*counterfactual.reduce(program, query))
    for n, k, seed in DEFINITION_HUB_CELLS:
        instance = benchgen.generate_instance(n, k, seed)
        query = benchgen.sample_query(instance, 2, 2, seed)
        program = benchgen.instance_to_program(instance)
        yield "hub", *wmc_mod.encode_query(*counterfactual.reduce(program, query))


def _marked_and_unmarked(cnf, root, assumptions, definitional):
    """The counts of a marked counter's pair and an unmarked counter's two searches.

    Also returns the expansions of the marked search.
    """
    marked, unmarked = (ModelCounter(cnf.var_count, cnf.clauses, cnf.weights, cnf.scale,
                                     mark, definitional=definitional) for mark in (root, 0))
    counts = (marked.count(assumptions), marked.count(assumptions + [root]),
              unmarked.count(assumptions), unmarked.count(assumptions + [root]))
    return counts, marked.passes


def test_definitional_components_count_as_the_search_does(monkeypatch):
    """Every count is the same with the encoder's definitions as with none, and fewer nodes."""
    expand = ModelCounter._expand
    marked_shortcuts = []  # definitional components that hold the marked variable

    def recording(self, *args):
        trail, factor, marked, components = expand(self, *args)
        marked_shortcuts.extend(c for c in components if c[2] is not None)
        return trail, factor, marked, components

    monkeypatch.setattr(ModelCounter, "_expand", recording)
    fewer = 0
    for kind, cnf, root, assumptions in _definition_cases():
        counts, passes = _marked_and_unmarked(cnf, root, assumptions, True)
        reference, reference_passes = _marked_and_unmarked(cnf, root, assumptions, False)
        assert counts == reference, (kind, counts, reference)
        assert all(type(count) is Fraction for count in counts)
        fewer += kind == "hub" and passes < reference_passes
    assert fewer
    assert marked_shortcuts


def test_counter_rejects_definitions_it_cannot_use():
    clauses = [(-1, 2), (1, -2)]  # 1 <-> 2
    with pytest.raises(ValueError, match="carries a weight"):
        ModelCounter(2, clauses, {1: (1, 1)}, 2, definitional=True)
    assert ModelCounter(2, clauses, {2: (1, 1)}, 2, definitional=True).count() == 1


def test_definitions_count_alike_in_any_clause_order():
    """The counter reads the variable a clause defines from its first literal, in any order."""
    rng = random.Random(63)
    for index in range(300):
        program = random_acyclic_program(rng)
        query = random_counterfactual_query(rng, program)
        cnf, root, assumptions = wmc_mod.encode_query(*counterfactual.reduce(program, query))
        shuffled = cnf.copy()
        rng.shuffle(shuffled.clauses)
        pairs = []
        for each in (cnf, shuffled):
            marked = wmc_mod.counter(each, mark=root)
            pairs.append((marked.count(assumptions), marked.count(assumptions + [root])))
        assert pairs[0] == pairs[1], index


def _path(n):
    """The clauses (i or i+1) over n+1 variables, their weights and their count."""
    weights = {v: (Fraction(1, v + 1), Fraction(v, v + 1)) for v in range(1, n + 2)}
    clauses = [(i, i + 1) for i in range(1, n + 1)]
    # weights of the prefixes whose last variable is true / false
    ends_true, ends_false = weights[1]
    for v in range(2, n + 2):
        wt, wf = weights[v]
        ends_true, ends_false = (ends_true + ends_false) * wt, ends_true * wf
    return clauses, weights, ends_true + ends_false


def test_cache_bound_of_a_few_entries_evicts_the_least_recent(monkeypatch):
    clauses, weights, expected = _path(40)
    counter = _counting(ModelCounter(len(weights), clauses, *_scaled(weights)))
    assert counter.count() == expected
    stored = list(counter.cache)  # oldest first; nothing was evicted
    assert counter.cache.evictions == 0 and len(stored) > 20
    # the bytes of the last three entries stored
    cap = sum(_counter_py._entry_bytes(key, counter.cache[key]) for key in stored[-3:])
    monkeypatch.setattr(_counter_py, "CACHE_BYTES", cap)
    counter = _counting(ModelCounter(len(weights), clauses, *_scaled(weights)))
    assert counter.count() == expected
    _check_cache_bytes(counter, cap)
    assert counter.cache.evictions > 0 and 1 < len(counter.cache) < len(stored)
    assert list(counter.cache) == stored[-len(counter.cache):]  # the most recent ones


def test_variable_ids_past_16_bits_pack_into_the_cache_key():
    n = 70_000  # the xor of the last two variables; the others are free, of weight sum 1
    weights = {v: (Fraction(1, 4), Fraction(3, 4)) for v in range(1, n + 1)}
    counter = ModelCounter(n, [(n - 1, n), (1 - n, -n)], *_scaled(weights))
    assert counter.count() == 0.375
    assert counter.count([n]) == 0.1875
    assert len(counter.cache) == 1


def test_interrupted_search_leaves_the_counter_usable():
    clauses, weights, expected = _path(40)
    counter = ModelCounter(len(weights), clauses, *_scaled(weights))
    expand, calls = counter._expand, []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 10:
            raise KeyboardInterrupt
        return expand(*args)

    counter._expand = interrupted
    with pytest.raises(KeyboardInterrupt):
        counter.count()
    del counter._expand  # the next search starts from no assignment
    assert counter.count() == expected


@pytest.mark.parametrize("m_in_second_branch", ["true", "free"])
def test_marked_pair_of_a_component_counted_first_under_the_marked_literal_false(
    m_in_second_branch,
):
    # x has the highest degree, so the root branches on it.  Its positive
    # branch propagates m false; its negative branch makes m true, or leaves
    # m in no clause.  Both leave the component {a, b} with the same clauses
    # and variables, so the negative branch takes that component's pair from
    # the cache, where it was stored below the assignment of m false.  That
    # pair must still count m as true, not as 0.
    x, m, a, b, y = 1, 2, 3, 4, 5
    if m_in_second_branch == "true":
        clauses = [(-x, -m), (x, m), (x, m, a), (a, b), (-a, -b)]
    else:
        clauses = [(-x, -m), (x, y), (x, y, a), (a, b), (-a, -b)]
    weights = {v: (Fraction(v, 7), Fraction(1, v + 1)) for v in range(1, 6)}
    counter = _counting(ModelCounter(5, clauses, *_scaled(weights), mark=m))
    assert counter.count() == _brute_force(5, clauses, weights, [])
    assert counter.count([m]) == _brute_force(5, clauses, weights, [m])
    assert counter.cache.hits == 1  # the lookup of {a, b} in the negative branch


def test_counter_invariant_under_permutation_and_renaming():
    rng = random.Random(17)
    for _ in range(100):
        n, clauses, weights, assumptions = _random_cnf(rng)
        reference = ModelCounter(n, clauses, *_scaled(weights)).count(assumptions)
        shuffled = [tuple(rng.sample(c, len(c))) for c in clauses]
        rng.shuffle(shuffled)
        assert ModelCounter(n, shuffled, *_scaled(weights)).count(assumptions) == reference
        perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))

        def rename(lit):
            return perm[lit] if lit > 0 else -perm[-lit]

        renamed = [tuple(map(rename, c)) for c in clauses]
        renamed_weights = {perm[v]: w for v, w in weights.items()}
        counter = ModelCounter(n, renamed, *_scaled(renamed_weights))
        assert counter.count(list(map(rename, assumptions))) == reference


def test_counter_empty_clause_is_unsatisfiable():
    weights = _scaled({1: (Fraction(1, 2), Fraction(1, 2))})
    assert ModelCounter(1, [(), (1, -1)], *weights).count() == 0
    assert ModelCounter(1, [(1, -1)], *weights).count() == 1


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
    assert ModelCounter(n + 1, clauses, *_scaled(weights)).count() == ends_true + ends_false
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
    expected = ModelCounter(n + 1, clauses, *_scaled(weights)).count()
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
        assert ModelCounter(n + 1, clauses, *_scaled(weights)).count() == expected
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
        conditional(program, Var("c"), {Literal("a"), Literal("b", False)})


def test_float_underflow_recounts_the_same_cnf(monkeypatch):
    program, query = _underflow_case()
    encoded = []

    def counted(program, roots=None):
        encoded.append(program)
        return to_weighted_cnf(program, roots)

    monkeypatch.setattr(wmc_mod, "to_weighted_cnf", counted)
    assert answer_counterfactual(program, query, exact=False) == 1.0
    assert len(encoded) == 1


def test_float_underflow_counts_in_one_search(monkeypatch):
    # float mode counts the same integers as rational mode, so the tiny P(e)
    # is not 0 and nothing is counted again
    program, query = _underflow_case()
    counts, searches = [], []
    count, search = wmc_mod.wmc, ModelCounter._search

    def counted_wmc(*args, **kwargs):
        counts.append(args)
        return count(*args, **kwargs)

    def counted_search(self, *args):
        searches.append(args)
        return search(self, *args)

    monkeypatch.setattr(wmc_mod, "wmc", counted_wmc)
    monkeypatch.setattr(ModelCounter, "_search", counted_search)
    assert answer_counterfactual(program, query, exact=False) == 1.0
    assert len(counts) == 2 and len(searches) == 1


def _fresh_conditional(program, formula, evidence):
    """P(formula | evidence) from two fresh searches over the CNF of `program`."""
    cnf = to_weighted_cnf(program)
    assumptions = [cnf.literal(lit) for lit in sorted(evidence)]
    with_query, root = add_formula(cnf, formula)
    return wmc(with_query, assumptions + [root]) / wmc(cnf, assumptions)


def test_reduced_twin_equals_plain_twin():
    # conditional counts the reduced twin in one marked search; the references
    # are enumeration over the plain twin and two fresh searches on the reduced one
    rng = random.Random(33)
    shrunk = renamed = compound = 0
    for case in range(300):
        program = random_acyclic_program(rng)
        query = random_counterfactual_query(rng, program)
        transformed, formula, evidence = twin(program, query)
        expected = counterfactual.conditional(transformed, formula, evidence, "enumerate")
        answer = conditional(transformed, formula, evidence)
        assert type(answer) is Fraction and answer == expected, case
        reduced = relevant(transformed, formula, evidence)
        assert _fresh_conditional(reduced, formula, evidence) == expected, case
        cnf = to_weighted_cnf(reduced)
        shared = Counter(cnf.var_map.values())  # atoms per atom variable
        shrunk += len(shared) < len(transformed.internals | transformed.externals)
        # a query or evidence atom shares its variable with another atom
        named = formula_atoms(formula) | {lit.atom for lit in evidence}
        renamed += any(shared[cnf.var_map[atom]] > 1 for atom in named)
        compound += isinstance(formula, (And, Or))  # the query has Tseitin clauses
    assert shrunk >= 250 and renamed >= 50 and compound >= 100, (shrunk, renamed, compound)


def _route_pairs(program, formula, evidence):
    """Pairs of CNFs, one encoded from the roots and one from the `relevant` cone.

    The first pair is over a copy of `program` that nothing has analysed, so
    each route analyses the cone alone, and the copy stays unanalysed; the
    second over `program` analysed, whose SCCs both take.
    """
    roots = formula_atoms(formula) | {lit.atom for lit in evidence}
    unanalysed = Program(program.clauses, program.facts, program.alphabet)
    program.stratification
    pairs = []
    for each in (unanalysed, program):
        cone = relevant(each, formula, evidence)
        pairs.append((dump_dimacs(to_weighted_cnf(each, roots)),
                      dump_dimacs(to_weighted_cnf(cone))))
    assert "stratification" not in unanalysed.__dict__
    return pairs


def test_encoding_from_the_roots_equals_encoding_the_cone():
    rng = random.Random(71)
    pruned = 0
    for case in range(60):
        program = random_acyclic_program(rng, max_internals=6, max_externals=6)
        for query in _query_shapes(random_counterfactual_query(rng, program)):
            counted, formula, evidence = counterfactual.reduce(program, query)
            for direct, cone in _route_pairs(counted, formula, evidence):
                assert direct == cone, case
            pruned += direct != dump_dimacs(to_weighted_cnf(counted))
    assert pruned >= 120, pruned  # 157 of the 240 encodings leave something out
    for n, k, seed in DEFINITION_HUB_CELLS:
        instance = benchgen.generate_instance(n, k, seed)
        query = benchgen.sample_query(instance, 2, 2, seed)
        program = benchgen.instance_to_program(instance)
        for direct, cone in _route_pairs(*counterfactual.reduce(program, query)):
            assert direct == cone, (n, k, seed)


@pytest.mark.parametrize("analysed", [False, True])
def test_encoding_from_the_roots_classifies_only_their_ancestors(analysed):
    outside = parse_problog("0.5::u. 0.5::w. a :- b. b :- a. a :- u. d :- w. "
                            "e :- \\+f. f :- \\+e.")
    if analysed:  # its own SCCs, classified again over the reached ones
        assert check_unique_supported_models(outside) is Classification.NEGATIVE_CYCLE
    # a positive and a negative cycle outside the cone are encoded
    cnf = to_weighted_cnf(outside, {"d"})
    assert set(cnf.var_map) == {"w", "d"} and cnf.scale == 2
    assert conditional(outside, Var("d"), ()) == Fraction(1, 2)
    # inside it, each is rejected as it is in the whole program
    with pytest.raises(ValidationError, match="acyclic"):
        to_weighted_cnf(outside, {"a"})
    with pytest.raises(NegativeCycleError):
        to_weighted_cnf(outside, {"e"})


def test_root_absent_from_the_program_is_false(sprinkler):
    cnf = to_weighted_cnf(sprinkler, {"ghost", "rain"})
    assert cnf.var_map["ghost"] == -cnf.gates[True, frozenset()]
    rain = marginal(sprinkler, Var("rain"))
    assert conditional(sprinkler, Var("ghost") | Var("rain"), ()) == rain
    assert conditional(sprinkler, Var("rain"), {Literal("ghost", False)}) == rain
