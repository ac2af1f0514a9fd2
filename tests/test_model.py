import itertools
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

import pytest

from generators import random_acyclic_program, random_formula
from whatif.counterfactual import answer_counterfactual
from whatif.model import (
    ATOM_RE,
    Alphabet,
    And,
    Clause,
    CounterfactualQuery,
    Literal,
    Not,
    Or,
    Program,
    RandomFact,
    ValidationError,
    Var,
    formula_atoms,
    predicate,
    rename_formula,
    validate_program,
)


def test_literal_is_a_named_tuple():
    # the hash is the plain tuple's, which keeps frozenset orders, and so CNFs, stable
    negative = Literal("a", False)
    assert repr(negative) == "Literal(atom='a', positive=False)"
    assert str(negative) == "\\+a" and str(Literal("a")) == "a"
    assert Literal("a") == ("a", True) and Literal("a").positive is True
    literals = [Literal("b"), Literal("a"), Literal("b", False), negative, Literal("a_b")]
    assert sorted(literals) == sorted(literals, key=lambda lit: (lit.atom, lit.positive))
    assert sorted(literals) == [negative, Literal("a"), Literal("a_b"), Literal("b", False),
                                Literal("b")]
    for atom, positive in (("a", True), ("a", False), ("x_y1", True)):
        assert hash(Literal(atom, positive)) == hash((atom, positive))
    with pytest.raises(AttributeError):
        negative.atom = "b"
    with pytest.raises(AttributeError):
        negative.positive = True


def test_clause_and_fact_are_named_tuples():
    # hashed as the frozen dataclasses they were, so sets of clauses keep their order
    body = frozenset({Literal("b"), Literal("c", False)})
    for head, clause_body in (("a", body), ("a", frozenset())):
        clause = Clause(head, clause_body)
        assert hash(clause) == hash((head, clause_body)) and clause == (head, clause_body)
    assert Clause("a") == Clause("a", frozenset()) and str(Clause("a", body)) == "a :- b, \\+c."
    fact = RandomFact("u", Fraction(1, 3))
    assert hash(fact) == hash(("u", Fraction(1, 3)))
    assert repr(fact) == "RandomFact(atom='u', prob=Fraction(1, 3))"
    assert sorted([RandomFact("v", Fraction(1, 2)), fact, RandomFact("u", Fraction(1, 4))]) == [
        RandomFact("u", Fraction(1, 4)), fact, RandomFact("v", Fraction(1, 2))]
    with pytest.raises(AttributeError):
        clause.head = "b"
    with pytest.raises(AttributeError):
        fact.prob = Fraction(1, 2)


def test_sprinkler_is_valid(sprinkler):
    assert validate_program(sprinkler) == []


def test_external_head_is_diagnosed():
    program = Program(
        (Clause("u1", frozenset({Literal("wet")})),),
        (RandomFact("u1", Fraction(1, 2)),),
        Alphabet(frozenset({"wet"}), frozenset({"u1"})),
    )
    diagnostics = validate_program(program)
    assert any("external atom in head" in d for d in diagnostics)


def test_duplicate_fact_is_diagnosed():
    program = Program(
        (),
        (RandomFact("u1", Fraction(1, 2)), RandomFact("u1", Fraction(3, 10))),
    )
    diagnostics = validate_program(program)
    assert any("duplicate random fact" in d for d in diagnostics)


def test_validate_never_raises_on_junk():
    program = Program(
        (Clause("Bad_Atom", frozenset()),),
        (RandomFact("u", Fraction(3, 2)),),
        Alphabet(frozenset({"Bad_Atom"}), frozenset({"u"})),
    )
    diagnostics = validate_program(program)
    assert diagnostics  # reported, not thrown


@pytest.mark.parametrize("prob", [0.5, "1/2"])
def test_inexact_probability_is_diagnosed_on_every_backend(prob):
    program = Program(
        (Clause("a", frozenset({Literal("u")})),), (RandomFact("u", prob),)
    )
    assert validate_program(program) == [f"probability not an exact rational: {prob!r}::u"]
    query = CounterfactualQuery(
        Var("a"), frozenset({Literal("a")}), frozenset({Literal("a", False)})
    )
    for backend in ("wmc", "enumerate", "oracle"):
        with pytest.raises(ValidationError, match="not an exact rational"):
            answer_counterfactual(program, query, backend=backend)


def _reference_diagnostics(program):
    """The per-literal loop `validate_program` replaced, with the rational check added."""
    diagnostics = []
    for atom in sorted(program.internals | program.externals):
        if not ATOM_RE.match(atom):
            diagnostics.append(f"invalid atom name: {atom!r}")
    fact_atoms = Counter(f.atom for f in program.facts)
    for atom, count in sorted(fact_atoms.items()):
        if count > 1:
            diagnostics.append(f"duplicate random fact: {atom}")
        if atom not in program.externals:
            diagnostics.append(f"random fact for non-external atom: {atom}")
    for atom in sorted(program.externals - fact_atoms.keys()):
        diagnostics.append(f"external atom without random fact: {atom}")
    for fact in program.facts:
        if not isinstance(fact.prob, Rational):
            diagnostics.append(f"probability not an exact rational: {fact.prob!r}::{fact.atom}")
        elif not 0 <= fact.prob <= 1:
            diagnostics.append(f"probability out of range: {fact.prob}::{fact.atom}")
    for clause in program.clauses:
        if clause.head in program.externals:
            diagnostics.append(f"external atom in head: {clause.head}")
        elif clause.head not in program.internals:
            diagnostics.append(f"head atom outside alphabet: {clause.head}")
        for lit in clause.body:
            if lit.atom not in program.alphabet:
                diagnostics.append(f"body atom outside alphabet: {lit.atom}")
    return diagnostics


def _faulty_program(rng):
    """A random program with a random few of the faults `validate_program` names."""
    program = random_acyclic_program(rng)
    clauses, facts = list(program.clauses), list(program.facts)
    internals, externals = set(program.internals), set(program.externals)
    for _ in range(rng.randrange(4)):
        fault = rng.randrange(9)
        if fault == 0:  # invalid atom name
            internals.add(rng.choice(("Bad", "a-b", "_x", "1a")))
        elif fault == 1:  # duplicate random fact
            facts.append(RandomFact(rng.choice(facts).atom, Fraction(1, 3)))
        elif fault == 2:  # random fact for non-external atom
            facts.append(RandomFact(rng.choice([*internals, "zz"]), Fraction(1, 2)))
        elif fault == 3 and facts:  # external atom without random fact
            facts.pop(rng.randrange(len(facts)))
        elif fault == 4:  # probability out of range
            facts.append(RandomFact(f"w{rng.randrange(3)}", rng.choice((Fraction(3, 2), -1, 2))))
        elif fault == 5:  # external atom in head
            clauses.append(Clause(rng.choice(sorted(externals)), frozenset({Literal("a0")})))
        elif fault == 6:  # head atom outside alphabet
            clauses.append(Clause(f"h{rng.randrange(3)}", frozenset()))
        elif fault == 7:  # body atom outside alphabet
            body = {Literal(f"b{rng.randrange(3)}", rng.random() < 0.5), Literal("a0")}
            clauses.insert(rng.randrange(len(clauses) + 1), Clause("a0", frozenset(body)))
        else:  # not an exact rational
            inexact = rng.choice((0.5, "1/2", Decimal("0.5")))
            facts.append(RandomFact(f"w{rng.randrange(3)}", inexact))
    rng.shuffle(facts)
    alphabet = Alphabet(frozenset(internals), frozenset(externals))
    return Program(tuple(clauses), tuple(facts), alphabet)


def test_validate_program_matches_the_per_literal_loop():
    rng = random.Random(5)
    kinds = set()
    for _ in range(400):
        program = _faulty_program(rng)
        expected = _reference_diagnostics(program)
        assert validate_program(program) == expected
        kinds.update(message.split(":")[0] for message in expected)
        # once per program, but a fresh list per call
        first, second = validate_program(program), validate_program(program)
        assert first == second == expected and first is not second
        first.append("changed")
        assert validate_program(program) == expected
    assert len(kinds) == 9, kinds


def test_program_equality_ignores_clause_order(sprinkler):
    reordered = Program(
        tuple(reversed(sprinkler.clauses)), tuple(reversed(sprinkler.facts))
    )
    assert reordered == sprinkler


def test_program_equality_respects_clause_multiplicity():
    clause = Clause("a", frozenset({Literal("u")}))
    fact = (RandomFact("u", Fraction(1, 2)),)
    assert Program((clause,), fact) != Program((clause, clause), fact)


def test_alphabet_rejects_overlap():
    with pytest.raises(ValidationError):
        Alphabet(frozenset({"a"}), frozenset({"a"}))


def test_query_rejects_inconsistent_evidence():
    with pytest.raises(ValidationError):
        CounterfactualQuery(
            Var("a"), frozenset({Literal("b"), Literal("b", False)}), frozenset()
        )


def test_query_allows_evidence_contradicting_interventions():
    query = CounterfactualQuery(
        Var("a"), frozenset({Literal("b")}), frozenset({Literal("b", False)})
    )
    assert Literal("b") in query.evidence


def test_formula_evaluation_and_atoms():
    formula = Or((And((Var("a"), Not(Var("b")))), Var("c")))
    bits = {"a": 1, "b": 2, "c": 4}
    assert formula_atoms(formula) == {"a", "b", "c"}
    assert predicate(formula, bits)(0b001)
    assert not predicate(formula, bits)(0b011)
    assert predicate(formula, bits)(0b100)
    # atoms with no bit are false, even when every bit of the mask is set
    assert not predicate(Var("zzz"), bits)(-1)


def _meaning(formula, assignment) -> bool:
    """The truth-table meaning of `formula`, read straight off its definition."""
    if isinstance(formula, Var):
        return assignment[formula.name]
    if isinstance(formula, Not):
        return not _meaning(formula.operand, assignment)
    values = [_meaning(part, assignment) for part in formula.operands]
    return all(values) if isinstance(formula, And) else any(values)


def test_predicate_matches_the_truth_table_of_random_formulas():
    rng = random.Random(20)
    for _ in range(200):
        formula = random_formula(rng, ["a", "b", "c", "d"], depth=rng.randint(1, 4))
        atoms = sorted(formula_atoms(formula))
        # scattered bits, above a bit that no atom owns
        bits = {atom: 1 << position
                for atom, position in zip(atoms, sorted(rng.sample(range(1, 70), len(atoms))))}
        holds = predicate(formula, bits)
        for values in itertools.product((False, True), repeat=len(atoms)):
            assignment = dict(zip(atoms, values))
            mask = sum(bits[atom] for atom in atoms if assignment[atom])
            for model in (mask, mask | 1):  # a bit of no atom changes nothing
                result = holds(model)
                assert type(result) is bool and result == _meaning(formula, assignment)


def test_predicate_edge_cases():
    bits = {"a": 1, "b": 2}
    assert predicate(And(()), {})(0) is True
    assert predicate(Or(()), bits)(0b01) is False
    assert predicate(Not(And(())), {})(0) is False
    assert predicate(Not(Var("a")), {})(-1) is True  # an atom with no bit is false
    assert predicate(Var("c"), bits)(-1) is False
    assert predicate(And((Var("a"), Not(Var("b")))), bits)(0b01) is True
    assert predicate(Or((Var("a"), Var("b"))), {"c": 4})(0b011) is False  # bits of no atom
    nested = Not(Not(Not(Var("a"))))
    assert predicate(nested, bits)(0b01) is False
    assert predicate(nested, bits)(0b10) is True
    assert predicate(Not(Not(Var("a"))), bits)(0) is False
    assert predicate(And((Or((Var("a"),)),)), bits)(0b01) is True
    with pytest.raises(TypeError):
        predicate("a", bits)


def test_formula_rename():
    formula = And((Var("a"), Not(Var("b"))))
    renamed = rename_formula(formula, {"a": "a__i"})
    assert formula_atoms(renamed) == {"a__i", "b"}
