"""Surface syntax: tokenizer, recursive-descent parsers and canonical printers.

Statements are terminated by ``.``; comments start with ``%`` and run to the
end of the line.  Probability literals are decimal (``0.35``), integer, or
explicit rationals (``2/7``); all are kept exact.

ProbLog and LPAD text share one statement grammar.  An LPAD statement is
``p::a [:- body].`` or ``a[:p] {; b[:p]} [:- body].``; a ProbLog statement
is the same grammar restricted to facts ``p::a.`` and rules with one
unannotated head, ``a [:- body].``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .model import (
    Clause,
    Formula,
    Literal,
    Program,
    RandomFact,
    ValidationError,
    Var,
    Not,
    And,
    Or,
    WhatifError,
)
from .lpad import LpadClause, LpadProgram


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class ParseError(WhatifError):
    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.span = span
        where = f" at {span}" if span else ""
        super().__init__(message + where)


# Whitespace and comments match no group; the last group catches any bad character.
_TOKEN_RE = re.compile(
    r"""
      \s+|%[^\n]*
    | (?P<number>\d+\.\d+|\d+)
    | (?P<atom>[a-z][a-zA-Z0-9_]*)
    | (?P<op>::|:-|\\\+|[.:;,()/|~])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

# (kind, text, start); kind is "number", "atom", "op" or "eof"
_Token = tuple[str, str, int]


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.index = 0
        self.tokens: list[_Token] = [
            (match.lastgroup, match.group(), match.start())
            for match in _TOKEN_RE.finditer(text)
            if match.lastgroup
        ]
        for token in self.tokens:
            if token[0] == "bad":
                raise self.error(f"unexpected character {token[1]!r}", token)
        self.tokens.append(("eof", "", len(text)))

    def error(self, message: str, token: Optional[_Token] = None) -> ParseError:
        """A ParseError spanning `token`, by default the next one."""
        _, chars, start = token or self.tokens[self.index]
        line_start = self.text.rfind("\n", 0, start) + 1
        line = self.text.count("\n", 0, start) + 1
        column = start - line_start + 1
        return ParseError(message, SourceSpan(start, start + len(chars), line, column))

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def accept(self, op: str) -> bool:
        """Consume the next token if it is the operator `op`."""
        # only an op token's text can equal an operator
        if self.tokens[self.index][1] == op:
            self.index += 1
            return True
        return False

    def expected(self, what: str) -> ParseError:
        """A ParseError at the next token, which is not `what`."""
        return self.error(f"expected {what}, found {self.peek()[1] or 'end of input'!r}")

    def expect(self, op: str) -> None:
        if not self.accept(op):
            raise self.expected(repr(op))

    def atom(self) -> _Token:
        token = self.tokens[self.index]
        if token[0] != "atom":
            raise self.expected("atom")
        self.index += 1
        return token

    def probability(self) -> Fraction:
        token = self.tokens[self.index]
        kind, chars, _ = token
        if kind != "number":
            raise self.expected("probability")
        self.index += 1
        if "." in chars:
            whole, frac = chars.split(".")
            value = Fraction(int(whole + frac), 10 ** len(frac))
        else:
            value = Fraction(int(chars))
            if self.accept("/"):
                kind, denom, _ = self.peek()
                if kind != "number" or "." in denom:
                    raise self.error("expected integer denominator")
                if not int(denom):
                    raise self.error("zero denominator")
                self.index += 1
                value /= int(denom)
        if not 0 <= value <= 1:
            raise self.error(f"probability {value} outside [0,1]", token)
        return value

    def end(self) -> None:
        """Reject anything left after a complete formula or literal list."""
        kind, chars, _ = self.peek()
        if kind != "eof":
            raise self.error(f"unexpected trailing input {chars!r}")


def _parse_body(stream: _TokenStream) -> frozenset[Literal]:
    literals = []
    while True:
        positive = not stream.accept("\\+")
        literals.append(Literal(stream.atom()[1], positive))
        if not stream.accept(","):
            return frozenset(literals)


_Head = list[tuple[_Token, Optional[Fraction]]]


def _statements(
    stream: _TokenStream, lpad: bool
) -> Iterator[tuple[_Token, _Head, frozenset[Literal]]]:
    """Yield ``(first token, head, body)`` per statement.

    The head lists ``(atom token, probability)`` pairs; the probability is
    None for an unannotated atom.  Without `lpad`, a statement is a fact
    ``p::a.`` or a rule with one unannotated head atom.
    """
    while (first := stream.peek())[0] != "eof":
        if first[0] == "number":
            prob = stream.probability()
            stream.expect("::")
            head: _Head = [(stream.atom(), prob)]
        else:
            head = []
            while not head or lpad and stream.accept(";"):
                atom = stream.atom()
                head.append((atom, stream.probability() if lpad and stream.accept(":") else None))
        body: frozenset[Literal] = frozenset()
        if (lpad or head[0][1] is None) and stream.accept(":-"):
            body = _parse_body(stream)
        stream.expect(".")
        yield first, head, body


# --- ProbLog --------------------------------------------------------------

def parse_problog(text: str) -> Program:
    """Parse ProbLog text.  Fact atoms (``p::a.``) become the external alphabet."""
    stream = _TokenStream(text)
    clauses: list[Clause] = []
    facts: list[RandomFact] = []
    fact_atoms: set[str] = set()
    head_atoms: dict[str, _Token] = {}
    for _, ((atom, prob),), body in _statements(stream, lpad=False):
        name = atom[1]
        if prob is None:
            head_atoms[name] = atom
            clauses.append(Clause(name, body))
        elif name in fact_atoms:
            raise stream.error(f"duplicate random fact for {name}", atom)
        else:
            fact_atoms.add(name)
            facts.append(RandomFact(name, prob))
    for name, atom in head_atoms.items():
        if name in fact_atoms:
            raise stream.error(f"atom {name} used both as random fact and rule head", atom)
    return Program(tuple(clauses), tuple(facts))


def format_probability(prob: Fraction) -> str:
    """Shortest exact rendering: integer, finite decimal, or num/den."""
    if prob.denominator == 1:
        return str(prob.numerator)
    reduced = prob.denominator
    for base in (2, 5):
        while reduced % base == 0:
            reduced //= base
    if reduced != 1:
        return f"{prob.numerator}/{prob.denominator}"
    scale = 1
    while 10 ** scale % prob.denominator:
        scale += 1
    digits = prob.numerator * (10 ** scale // prob.denominator)
    text = f"{digits:0{scale + 1}d}"
    return text[:-scale] + "." + text[-scale:]


def print_problog(program: Program) -> str:
    """Canonical text: facts sorted by atom, then clauses sorted by head and body."""
    lines = [f"{format_probability(f.prob)}::{f.atom}." for f in sorted(program.facts)]
    for clause in sorted(program.clauses, key=lambda c: (c.head, c.sorted_body())):
        lines.append(str(clause))
    return "\n".join(lines) + ("\n" if lines else "")


# --- LPAD -----------------------------------------------------------------

def parse_lpad(text: str) -> LpadProgram:
    """Parse LPAD text: ``h1:0.3; h2:0.5 :- b1, \\+b2.`` plus ProbLog-style sugar."""
    stream = _TokenStream(text)
    clauses: list[LpadClause] = []
    for first, head, body in _statements(stream, lpad=True):
        pairs = tuple((atom[1], Fraction(1) if prob is None else prob) for atom, prob in head)
        try:
            clauses.append(LpadClause(pairs, body))
        except ValidationError as err:
            raise stream.error(str(err), first) from err
    return LpadProgram(tuple(clauses))


def print_lpad(program: LpadProgram) -> str:
    lines = []
    for clause in sorted(
        program.clauses, key=lambda c: (c.head, sorted(c.body))
    ):
        head = "; ".join(f"{atom}:{format_probability(prob)}" for atom, prob in clause.head)
        if clause.body:
            body = ", ".join(str(lit) for lit in sorted(clause.body))
            lines.append(f"{head} :- {body}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + ("\n" if lines else "")


# --- formulas and literal lists ------------------------------------------

def parse_formula(text: str) -> Formula:
    """Parse a query formula: ``;``/``|`` or, ``,`` and, ``\\+``/``~`` negation."""
    stream = _TokenStream(text)
    formula = _parse_disjunction(stream)
    stream.end()
    return formula


def _parse_disjunction(stream: _TokenStream) -> Formula:
    parts = [_parse_conjunction(stream)]
    while stream.accept(";") or stream.accept("|"):
        parts.append(_parse_conjunction(stream))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_conjunction(stream: _TokenStream) -> Formula:
    parts = [_parse_unary(stream)]
    while stream.accept(","):
        parts.append(_parse_unary(stream))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_unary(stream: _TokenStream) -> Formula:
    if stream.accept("\\+") or stream.accept("~"):
        return Not(_parse_unary(stream))
    if stream.accept("("):
        inner = _parse_disjunction(stream)
        stream.expect(")")
        return inner
    return Var(stream.atom()[1])


def parse_literals(text: str) -> frozenset[Literal]:
    """Parse a comma-separated literal list, e.g. ``sprinkler,\\+wet``."""
    if not text.strip():
        return frozenset()
    stream = _TokenStream(text)
    literals = _parse_body(stream)
    stream.end()
    return literals
