import itertools
import math
import os
import random
from functools import cached_property
from fractions import Fraction

import pytest

from generators import random_acyclic_program, random_formula, random_stratified_program
from whatif import semantics
from whatif.model import (
    Alphabet, And, Clause, CounterfactualQuery, Literal, Not, Or, Program, RandomFact, Var,
    NegativeCycleError,
)
from whatif.oracle import abduction_action_prediction
from whatif.parser import parse_problog
from whatif.transforms import intervene
from whatif.semantics import (
    Classification,
    check_unique_supported_models,
    marginal,
    minimal_model,
)


def worlds(program):
    """All external assignments, in sorted-atom binary order: the order of the world indices."""
    atoms = sorted(program.externals)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def test_sprinkler_dependency_graph(sprinkler):
    # Tarjan's order from the sorted roots, each atom after every atom it feeds:
    # rain -> wet -> slippery, sprinkler -> wet, szn_spr_sum -> rain, sprinkler
    assert sprinkler.stratification.components == [
        ["slippery"], ["wet"], ["rain"], ["sprinkler"], ["szn_spr_sum"],
    ]


def test_components_visit_successors_in_sorted_order():
    # the encoder numbers variables in this order, so it must not follow set order
    program = parse_problog("c :- a. b :- a. e :- a. d :- a.")
    assert program.stratification.components == [["b"], ["c"], ["d"], ["e"], ["a"]]


def test_two_cycle_detected():
    program = parse_problog("a :- b. b :- a.")
    assert check_unique_supported_models(program) is Classification.STRATIFIED_CYCLIC


def test_negative_self_loop():
    program = parse_problog("a :- \\+a.")
    assert check_unique_supported_models(program) is Classification.NEGATIVE_CYCLE


def test_sprinkler_is_acyclic(sprinkler):
    assert check_unique_supported_models(sprinkler) is Classification.ACYCLIC


def test_negative_two_cycle():
    program = parse_problog("a :- \\+b. b :- \\+a.")
    assert check_unique_supported_models(program) is Classification.NEGATIVE_CYCLE


def test_minimal_model_sprinkler(sprinkler):
    world = {"u1": True, "u2": True, "u3": False, "u4": False}
    assert minimal_model(sprinkler, world) == {
        "szn_spr_sum": True,
        "sprinkler": True,
        "rain": False,
        "wet": True,
        "slippery": True,
    }


def test_minimal_model_empty_program():
    assert minimal_model(Program(), {}) == {}


def test_minimal_model_closed_world_negation():
    program = parse_problog("a :- \\+b.")
    assert minimal_model(program, {}) == {"a": True, "b": False}


def test_minimal_model_rejects_negative_cycle():
    program = parse_problog("a :- \\+b. b :- \\+a.")
    with pytest.raises(NegativeCycleError):
        minimal_model(program, {})


def test_minimal_model_stratified_cycle():
    program = parse_problog("a :- b. b :- a. c :- \\+a.")
    assert minimal_model(program, {}) == {"a": False, "b": False, "c": True}


def reference_model(program, world):
    """The stratum-by-stratum fixpoint over `Clause` objects, which the rule masks replace."""
    by_head = program.clauses_by_head()
    values = {atom: bool(world.get(atom, False)) for atom in program.externals}
    values.update(dict.fromkeys(program.internals, False))
    for component in reversed(program.stratification.components):
        clauses = [clause for head in component for clause in by_head.get(head, ())]
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                if not values[clause.head] and all(  # an atom outside the alphabet is false
                    values.get(lit.atom, False) == lit.positive for lit in clause.body
                ):
                    values[clause.head] = changed = True
    return {atom: values[atom] for atom in program.internals}


def test_minimal_model_equals_the_stratum_by_stratum_fixpoint():
    rng = random.Random(13)
    loose_rng = random.Random(14)  # draws the loose worlds, apart from the programs
    seen = set()
    for _ in range(300):
        program = random_stratified_program(rng)
        assert check_unique_supported_models(program) is not Classification.NEGATIVE_CYCLE
        clauses = program.clauses
        for clause in clauses:
            body_atoms = {lit.atom for lit in clause.body}
            seen.add("fact" if not clause.body else "self-loop" if clause.head in body_atoms
                     else "rule")
            if any(c.head in body_atoms and clause.head in {l.atom for l in c.body}
                   for c in clauses if c.head != clause.head):
                seen.add("two-cycle")
        if len(set(clauses)) < len(clauses):
            seen.add("duplicate clause")
        if len({c.body for c in clauses}) < len({(c.head, c.body) for c in clauses}):
            seen.add("shared body")
        if program.internals - {c.head for c in clauses}:
            seen.add("rule-less internal")
        shuffled = Program(tuple(rng.sample(clauses, len(clauses))), program.facts,
                           program.alphabet)
        for variant in (program, shuffled):
            _check_both_forms(variant, loose_rng)
    assert seen == {"fact", "self-loop", "rule", "two-cycle", "duplicate clause",
                    "shared body", "rule-less internal"}

    # the layout on inputs the random programs do not reach
    for program in [*odd_named_programs(rng), chain_program(3000), ring_program(50),
                    Program((Clause("a", frozenset({Literal("zz")})),
                             Clause("b", frozenset({Literal("zz", False), Literal("u")}))),
                            (RandomFact("u", Fraction(1, 2)),),
                            Alphabet(frozenset({"a", "b"}), frozenset({"u"})))]:
        _check_both_forms(program, loose_rng)
    assert "WHATIF_INJECTED" not in os.environ


def _check_both_forms(program, rng):
    """The index form and the mapping form of `minimal_model` equal `reference_model`.

    World index i is the i-th world of `worlds()`, its mask in the layout and
    the index of its weight numerator; a model mask keeps the world's bits.
    """
    bits = program.layout.bits
    externals = sorted(program.externals)
    assert [bits[atom] for atom in externals] == [1 << j for j in reversed(range(len(externals)))]
    assert all(bit >> len(externals) for atom, bit in bits.items() if atom in program.internals)
    numerators = program.world_weights.numerators
    for index, world in enumerate(worlds(program)):
        assert sum(bits[atom] for atom in externals if world[atom]) == index
        assert numerators[index] == math.prod(
            program.world_weights.pairs[atom][0 if world[atom] else 1] for atom in externals)
        expected = reference_model(program, world)
        mask = minimal_model(program, index)
        assert mask & ((1 << len(externals)) - 1) == index, (program, world)
        assert {atom: bool(mask & bits.get(atom, 0)) for atom in program.internals} == expected
        model = minimal_model(program, world)
        assert model == expected and list(model) == list(expected), (program, world)
        # internal atoms in the world are ignored; any truthy value reads true
        loose = {atom: rng.choice(([1], "yes", 2) if value else ([], "", 0, None))
                 for atom, value in world.items()}
        loose.update(dict.fromkeys(program.internals, True))
        assert minimal_model(program, loose) == expected, (program, loose)


ODD_NAMES = [
    'say "hi"', "it's", "back\\slash", "new\nline", "if", "not", "v0", "x0", "changed",
    "world", "names", "keys", "dict", "map", 'x) or (1',
    '__import__("os").environ.__setitem__("WHATIF_INJECTED", "1")',
]


def odd_named_programs(rng, count=20):
    """Random stratified programs with their atoms renamed to strings that are not identifiers."""
    for _ in range(count):
        program = random_stratified_program(rng)
        atoms = sorted(program.internals | program.externals)
        names = dict(zip(atoms, rng.sample(ODD_NAMES, len(atoms))))
        clauses = tuple(Clause(names[c.head], frozenset(Literal(names[l.atom], l.positive)
                                                        for l in c.body))
                        for c in program.clauses)
        facts = tuple(RandomFact(names[f.atom], f.prob) for f in program.facts)
        alphabet = Alphabet(frozenset(map(names.get, program.internals)),
                            frozenset(map(names.get, program.externals)))
        yield Program(clauses, facts, alphabet)


def chain_program(length):
    """c0 :- u0.  c_i :- c_(i-1), not u1.  end :- not c_last.  Clauses listed last first."""
    clauses = [Clause("c0", frozenset({Literal("u0")}))]
    clauses += [Clause(f"c{i}", frozenset({Literal(f"c{i - 1}"), Literal("u1", False)}))
                for i in range(1, length)]
    clauses.append(Clause("end", frozenset({Literal(f"c{length - 1}", False)})))
    facts = (RandomFact("u0", Fraction(1, 2)), RandomFact("u1", Fraction(1, 2)))
    return Program(tuple(reversed(clauses)), facts)


def ring_program(size):
    """One recursive SCC of `size` atoms: a ring, chords guarded by u1, an entry, a reader."""
    ring = [f"s{i}" for i in range(size)]
    clauses = [Clause(ring[i], frozenset({Literal(ring[i - 1])})) for i in range(size)]
    clauses += [Clause(ring[i], frozenset({Literal(ring[(7 * i) % size]), Literal("u1")}))
                for i in range(0, size, 5)]
    clauses.append(Clause(ring[size // 2], frozenset({Literal("u0"), Literal("u1", False)})))
    clauses.append(Clause("off", frozenset({Literal(ring[0], False)})))
    facts = (RandomFact("u0", Fraction(1, 2)), RandomFact("u1", Fraction(1, 2)))
    return Program(tuple(clauses), facts)


def _world_probability(program: Program, world) -> Fraction:
    weights = program.world_weights
    index = list(worlds(program)).index(world)
    return Fraction(weights.numerators[index], weights.denominator)


def test_world_probability(sprinkler):
    all_true = {f"u{i}": True for i in range(1, 5)}
    assert _world_probability(sprinkler, all_true) == Fraction(21, 1000)  # 0.021
    mixed = {"u1": True, "u2": True, "u3": False, "u4": True}
    assert _world_probability(sprinkler, mixed) == Fraction(189, 1000)  # 0.189
    assert _world_probability(Program(), {}) == 1


def test_world_weights_equal_the_direct_product():
    rng = random.Random(8)
    for _ in range(40):
        denominators = [rng.randint(1, 12) for _ in range(5)]
        probs = {f"u{i}": Fraction(rng.randint(0, b), b) for i, b in enumerate(denominators)}
        program = Program((), tuple(RandomFact(a, p) for a, p in probs.items()))
        assert program.world_weights is program.world_weights  # built once
        for atom, (yes, no) in program.world_weights.pairs.items():
            assert Fraction(yes, yes + no) == probs[atom]
        for world in worlds(program):
            exact = Fraction(1)
            for atom in program.externals:
                exact *= probs[atom] if world[atom] else 1 - probs[atom]
            weight = _world_probability(program, world)
            assert type(weight) is Fraction and weight == exact


def test_world_probabilities_sum_to_one(sprinkler):
    assert sum(_world_probability(sprinkler, w) for w in worlds(sprinkler)) == 1


def test_world_numerators_follow_the_worlds():
    rng = random.Random(9)
    for size in range(6):
        probs = {f"u{i}": Fraction(rng.randint(0, 7), 7) for i in rng.sample(range(9), size)}
        program = Program((), tuple(RandomFact(a, p) for a, p in probs.items()))
        weights = program.world_weights
        assert weights.numerators is weights.numerators  # built once
        assert len(weights.numerators) == 2 ** size
        for world, numerator in zip(worlds(program), weights.numerators):
            product = 1
            for atom in sorted(world):  # the pair of each external, in worlds() order
                yes, no = weights.pairs[atom]
                product *= yes if world[atom] else no
            assert numerator == product
        assert sum(weights.numerators) == weights.denominator
    assert Program().world_weights.numerators == [1]


def test_marginal_sprinkler(sprinkler):
    assert marginal(sprinkler, Var("sprinkler")) == Fraction(7, 20)
    assert marginal(sprinkler, Var("slippery")) == Fraction(133, 200)  # 0.665


def test_marginal_tautology(sprinkler):
    assert marginal(sprinkler, Or((Var("rain"), Not(Var("rain"))))) == 1


def test_marginal_additivity():
    rng = random.Random(11)
    for _ in range(25):
        program = random_acyclic_program(rng, max_externals=6)
        atoms = sorted(program.internals | program.externals)
        phi = random_formula(rng, atoms)
        psi = random_formula(rng, atoms)
        both = marginal(program, And((phi, psi)))
        only = marginal(program, And((phi, Not(psi))))
        assert both + only == marginal(program, phi)
        assert 0 <= both + only <= 1


def test_minimal_model_monotone_without_negation():
    rng = random.Random(5)
    for _ in range(25):
        program = random_acyclic_program(rng, max_externals=5, negation=False)
        externals = sorted(program.externals)
        world = {u: rng.random() < 0.5 for u in externals}
        base = minimal_model(program, world)
        flip = next((u for u in externals if not world[u]), None)
        if flip is None:
            continue
        bigger = dict(world, **{flip: True})
        larger = minimal_model(program, bigger)
        assert all(larger[a] for a in base if base[a])


SIX_EXTERNALS = """\
0.1::u1. 0.2::u2. 0.3::u3. 0.4::u4. 0.5::u5. 0.6::u6.
a :- u1, \\+u2.  b :- a, u3.  b :- u4.  c :- b, \\+u5.  c :- u6, \\+a.
"""


def test_dependency_analysis_runs_once_per_program(monkeypatch):
    runs = []
    original = semantics._sccs

    def counted(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(semantics, "_sccs", counted)
    program = parse_problog(SIX_EXTERNALS)
    assert len(list(worlds(program))) == 64
    assert marginal(program, Var("c")) == marginal(program, Var("c"))
    assert len(runs) == 1

    runs.clear()
    query = CounterfactualQuery(Var("c"), frozenset({Literal("b")}), frozenset({Literal("a")}))
    abduction_action_prediction(parse_problog(SIX_EXTERNALS), query)
    assert len(runs) <= 2  # the program and the acted program

    runs.clear()
    cyclic = parse_problog("0.5::u. a :- b. b :- a. c :- u, \\+a.")
    assert check_unique_supported_models(cyclic) is Classification.STRATIFIED_CYCLIC
    acted = intervene(cyclic, {Literal("a")})
    assert check_unique_supported_models(acted) is Classification.ACYCLIC
    assert minimal_model(acted, {"u": True}) == {"a": True, "b": True, "c": False}
    assert minimal_model(cyclic, {"u": True}) == {"a": False, "b": False, "c": True}
    copy = Program(cyclic.clauses, cyclic.facts, cyclic.alphabet)
    assert check_unique_supported_models(copy) is Classification.STRATIFIED_CYCLIC
    assert len(runs) == 3  # one per instance, equal or not


def test_rules_are_compiled_once_per_program(monkeypatch):
    builds = []
    original = Program.layout.func

    def counted(self):
        builds.append(self)
        return original(self)

    counted_layout = cached_property(counted)
    counted_layout.__set_name__(Program, "layout")
    monkeypatch.setattr(Program, "layout", counted_layout)
    program = parse_problog(SIX_EXTERNALS)
    assert marginal(program, Var("c")) == marginal(program, Var("c"))  # 2 x 64 models
    assert len(builds) == 1

    builds.clear()
    query = CounterfactualQuery(Var("c"), frozenset({Literal("b")}), frozenset({Literal("a")}))
    abduction_action_prediction(parse_problog(SIX_EXTERNALS), query)
    assert len(builds) == 2  # the program and the acted program

    builds.clear()
    cyclic = parse_problog("0.5::u. a :- b. b :- a. c :- u, \\+a.")
    copy = Program(cyclic.clauses, cyclic.facts, cyclic.alphabet)
    for world in worlds(cyclic):
        assert minimal_model(cyclic, world) == minimal_model(copy, world)
    assert len(builds) == 2  # one per instance, equal or not
