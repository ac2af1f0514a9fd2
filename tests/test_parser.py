import random
import time
from fractions import Fraction

import pytest

from generators import random_acyclic_program, random_stratified_program
from whatif import model, parser
from whatif.benchgen import generate_instance, instance_to_program
from whatif.lpad import LpadProgram
from whatif.model import Literal
from whatif.parser import (
    ParseError,
    format_probability,
    parse_formula,
    parse_literals,
    parse_lpad,
    parse_problog,
    print_lpad,
    print_problog,
)
from whatif.model import And, Not, Or, Var


def test_sprinkler_shape(sprinkler):
    assert sprinkler.internals == {"szn_spr_sum", "sprinkler", "rain", "wet", "slippery"}
    assert sprinkler.externals == {"u1", "u2", "u3", "u4"}
    assert len(sprinkler.clauses) == 7
    assert len(sprinkler.facts) == 4
    assert sprinkler.fact_probs()["u2"] == Fraction(7, 10)


def test_empty_input():
    program = parse_problog("")
    assert program.clauses == () and program.facts == ()
    assert print_problog(program) == ""


def test_negated_body_and_fact():
    program = parse_problog("a :- \\+b. 0.3::b.")
    (clause,) = program.clauses
    assert clause.body == frozenset({Literal("b", False)})
    assert program.fact_probs()["b"] == Fraction(3, 10)


def test_comments_and_rational_probability():
    program = parse_problog("% a comment\n2/7::u.  a :- u. % trailing\n")
    assert program.fact_probs()["u"] == Fraction(2, 7)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_problog("a :- b\nc.")
    assert err.value.span is not None
    assert err.value.span.line == 2


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (parse_problog, "a :- b\nc.", (2, 1, 7, 8)),
        (parse_problog, "% note\n0.5::u.\n  a :- u, $.", (3, 11, 25, 26)),
        (parse_problog, "a :- b", (1, 7, 6, 6)),
        (parse_problog, "0.5::u.\n\n1.5::v.", (3, 1, 9, 12)),
        (parse_problog, "0.5::u. 0.2::u.", (1, 14, 13, 14)),
        (parse_formula, "a, (b ; c", (1, 10, 9, 9)),
        (parse_literals, "a, \\+b c", (1, 8, 7, 8)),
        # one row per message and entry point that can raise it
        (parse_lpad, "a.\nb:0.5; $c.", (2, 8, 10, 11)),  # unexpected character
        (parse_formula, "a ; b & c", (1, 7, 6, 7)),
        (parse_literals, "a, #b", (1, 4, 3, 4)),
        (parse_lpad, "a:b.", (1, 3, 2, 3)),  # expected probability
        (parse_problog, "1/0.5::a.", (1, 3, 2, 5)),  # expected integer denominator
        (parse_lpad, "a:1/x.", (1, 5, 4, 5)),
        (parse_lpad, "b.\na:3/2.", (2, 3, 5, 6)),  # probability outside [0,1]
        (parse_problog, "0.5::u.\n:- u.", (2, 1, 8, 10)),  # expected atom
        (parse_lpad, "a :- b, .", (1, 9, 8, 9)),
        (parse_formula, "a, \\+", (1, 6, 5, 5)),
        (parse_literals, "a, , b", (1, 4, 3, 4)),
        (parse_lpad, "a:0.5 b:0.5.", (1, 7, 6, 7)),  # expected '.'
        (parse_problog, "0.5 u.", (1, 5, 4, 5)),  # expected '::'
        (parse_lpad, "0.5 a.", (1, 5, 4, 5)),
        (parse_formula, "(a ; b) c", (1, 9, 8, 9)),  # unexpected trailing input
        (parse_problog, "a :- u.\n0.5::u. u :- b.", (2, 9, 16, 17)),  # fact and rule head
        (parse_lpad, "a:0.5; b:0.25 :- c.\nd:0.7; e:0.7.", (2, 1, 20, 21)),  # head sum > 1
        (parse_lpad, "a:0.5; a:0.5.", (1, 1, 0, 1)),  # duplicate head atom
        (parse_literals, "  a b", (1, 5, 4, 5)),  # spans count the leading whitespace
        (parse_literals, "\n\na, $", (3, 4, 5, 6)),
        (parse_problog, "1/0::a.", (1, 3, 2, 3)),  # zero denominator
        (parse_problog, "0/0::a.", (1, 3, 2, 3)),
        (parse_lpad, "b.\na:1/00.", (2, 5, 7, 9)),
    ],
)
def test_error_span(parse, text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    span = err.value.span
    assert (span.line, span.column, span.start, span.end) == position


def test_end_of_input_is_named():
    with pytest.raises(ParseError, match="expected probability, found 'end of input'"):
        parse_lpad("a:")


def test_fact_and_head_conflict():
    with pytest.raises(ParseError, match="both as random fact and rule head"):
        parse_problog("0.5::a. a :- b.")


def test_duplicate_fact_rejected():
    with pytest.raises(ParseError, match="duplicate random fact"):
        parse_problog("0.5::a. 0.3::a.")


def test_probability_out_of_range():
    with pytest.raises(ParseError, match="outside"):
        parse_problog("3/2::a.")


def test_round_trip_sprinkler(sprinkler):
    assert parse_problog(print_problog(sprinkler)) == sprinkler


def test_round_trip_random_programs():
    rng = random.Random(7)
    for _ in range(100):
        program = random_acyclic_program(rng)
        text = print_problog(program)
        assert parse_problog(text) == program
        # canonical printing is idempotent
        assert print_problog(parse_problog(text)) == text



def _reference_print_problog(program):
    """The printer sorting clauses by (head, sorted body) and printing each with `str`."""
    lines = [f"{format_probability(f.prob)}::{f.atom}." for f in sorted(program.facts)]
    for clause in sorted(program.clauses, key=lambda c: (c.head, c.sorted_body())):
        lines.append(str(clause))
    return "\n".join(lines) + ("\n" if lines else "")


def test_print_problog_matches_the_reference_printer():
    rng = random.Random(19)
    programs = [random_acyclic_program(rng) for _ in range(100)]
    programs += [random_stratified_program(rng) for _ in range(30)]
    programs += [instance_to_program(generate_instance(n, k, seed))
                 for n in (1, 5, 20) for k in (0, 1, 3) for seed in (1, 2)]
    # bodies that differ only in one literal's sign, and duplicate clauses
    programs.append(model.Program((
        model.Clause("a", frozenset({Literal("c"), Literal("b", False)})),
        model.Clause("a", frozenset({Literal("c"), Literal("b")})),
        model.Clause("a", frozenset({Literal("c", False), Literal("b")})),
        model.Clause("a", frozenset({Literal("c"), Literal("b")})),
        model.Clause("a"),
        model.Clause("b", frozenset({Literal("u")})),
        model.Clause("a"),
        model.Clause("b", frozenset({Literal("u", False)})),
    ), (model.RandomFact("u", Fraction(1, 3)),)))
    assert any(len(program.clauses) > len(set(program.clauses)) for program in programs)
    for program in programs:
        assert print_problog(program) == _reference_print_problog(program)


def test_format_probability():
    assert format_probability(Fraction(1, 2)) == "0.5"
    assert format_probability(Fraction(7, 20)) == "0.35"
    assert format_probability(Fraction(2, 7)) == "2/7"
    assert format_probability(Fraction(1)) == "1"
    assert format_probability(Fraction(0)) == "0"


def test_parse_lpad_basic():
    program = parse_lpad("a:0.3; b:0.2 :- c.")
    (clause,) = program.clauses
    assert clause.head == (("a", Fraction(3, 10)), ("b", Fraction(1, 5)))
    assert clause.body == frozenset({Literal("c")})


def test_parse_lpad_probability_sum_error():
    with pytest.raises(ParseError, match="> 1"):
        parse_lpad("a:0.7; b:0.7 :- c.")


def test_parse_lpad_sugar_and_headless_probability():
    program = parse_lpad("0.5::a :- b.  c :- d.")
    assert program.clauses[0].head == (("a", Fraction(1, 2)),)
    assert program.clauses[1].head == (("c", Fraction(1)),)


def test_parse_lpad_benchmark_rule():
    program = parse_lpad("p_v_w1:0.5; p_v_w2:0.5 :- r_v, \\+trap_v.")
    (clause,) = program.clauses
    assert [p for _, p in clause.head] == [Fraction(1, 2), Fraction(1, 2)]
    assert Literal("trap_v", False) in clause.body


def test_lpad_round_trip():
    text = "a:0.3; b:0.2 :- c, \\+d.\ne:1.\n"
    assert print_lpad(parse_lpad(text)) == text


def test_parse_formula():
    formula = parse_formula("a, \\+b; (c; d)")
    assert formula == Or((And((Var("a"), Not(Var("b")))), Or((Var("c"), Var("d")))))


def test_parse_literals():
    assert parse_literals("a,\\+b") == frozenset({Literal("a"), Literal("b", False)})
    assert parse_literals("") == frozenset()
    with pytest.raises(ParseError):
        parse_literals("a b")


# --- the statement pattern and the token walk ------------------------------

def _outcome(parse, text):
    """A parse's program, or its ParseError's message and span."""
    try:
        program = parse(text)
    except ParseError as err:
        span = err.span
        return "error", str(err), (span.line, span.column, span.start, span.end)
    return "ok", program.clauses, program.facts, program.alphabet


def _no_token_walk(text):
    raise AssertionError(f"the token walk read {text!r}")


def test_statement_pattern_reads_printed_programs(monkeypatch):
    rng = random.Random(11)
    programs = [random_acyclic_program(rng) for _ in range(60)]
    programs += [random_stratified_program(rng) for _ in range(60)]
    programs.append(instance_to_program(generate_instance(100, 5, 1)))
    texts = [print_problog(program) for program in programs]
    expected = [_outcome(parser._walk_statements, text) for text in texts]
    monkeypatch.setattr(parser, "_TokenStream", _no_token_walk)
    for text, walked in zip(texts, expected):
        assert _outcome(parse_problog, text) == walked


@pytest.mark.parametrize(
    "text, falls_back",
    [
        ("% note\n.", True),  # a comment stops at its line end, not before
        ("a :- b % c\n, d.", True),  # a comment inside a body
        ("a :- b, % c\n d.", True),
        ("0.5 % c\n:: u.", True),  # a comment between 0.5 and ::
        ("1/0::a.", True),
        ("0/0::a.", True),
        ("3/2::a.", True),
        ("1.5::a.", True),
        ("1. 5::a.", True),
        ("1/0.5::a.", True),
        ("0.5::a. 0.2::a.", True),  # duplicate fact
        ("0.5::a. a :- b.", True),  # a fact atom that is also a head
        ("a :- u.\n0.5::u. u :- b.", True),
        ("a. $", True),
        ("0.5::a :- b.", True),
        ("a :- .", True),
        ("a :- \\+\\+b.", True),
        ("a :- b\nc.", True),
        ("a:0.5.", True),
        ("0.5::u.\r\na :- u, \\+b.\r\n% done\r\n", False),  # CRLF line ends
        ("0.5::u.\ta\t:-\t\\+\tu ,\tb\t.\t", False),  # tabs
        ("2 / 7 :: u. a :- u. % trailing, no newline", False),
        ("% only a comment", False),
        ("", False),
        ("a.b:-a.0::u.c:-\\+u,b,b.", False),
    ],
)
def test_statement_pattern_falls_back_to_the_token_walk(monkeypatch, text, falls_back):
    walk = parser._walk_statements
    walked = _outcome(walk, text)
    calls = []

    def spy(text):
        calls.append(text)
        return walk(text)

    monkeypatch.setattr(parser, "_walk_statements", spy)
    assert _outcome(parse_problog, text) == walked
    assert calls == ([text] if falls_back else [])


def test_statement_pattern_seeds_the_diagnostics_it_guarantees():
    rng = random.Random(13)
    programs = [random_acyclic_program(rng) for _ in range(40)]
    programs += [random_stratified_program(rng) for _ in range(40)]
    programs += [instance_to_program(generate_instance(n, k, 1)) for n, k in ((10, 3), (40, 5))]
    for program in programs:
        parsed = parse_problog(print_problog(program))
        assert parsed.__dict__["diagnostics"] == tuple(model._diagnose(parsed)) == ()
    # text the pattern hands to the token walk is checked on first use
    for text in ("a :- b % c\n, d.", "0.5 % c\n:: u. a :- \\+u."):
        parsed = parse_problog(text)
        assert "diagnostics" not in parsed.__dict__
        assert parsed.diagnostics == ()


def test_statement_pattern_fails_in_linear_time():
    for text in (" " * 100_000 + "$", "% c\n" * 25_000 + "$", "a :- " + "b, " * 30_000 + "$"):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_problog(text)
        assert time.perf_counter() - start < 1
