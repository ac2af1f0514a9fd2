"""Surface syntax: tokenizer, recursive-descent parsers and canonical printers.

Statements are terminated by ``.``; comments start with ``%`` and run to the
end of the line.  Probability literals are decimal (``0.35``), integer, or
explicit rationals (``2/7``); all are kept exact.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .model import (
    Clause,
    Formula,
    Literal,
    Program,
    RandomFact,
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


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<number>\d+\.\d+|\d+)
    | (?P<atom>[a-z][a-zA-Z0-9_]*)
    | (?P<op>::|:-|\\\+|[.:;,()/|~])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "number" | "atom" | "op" | "eof"
    text: str
    start: int


def _span(text: str, start: int, end: int) -> SourceSpan:
    """Position of text[start:end]; computed only when an error is raised."""
    line_start = text.rfind("\n", 0, start) + 1
    return SourceSpan(start, end, text.count("\n", 0, start) + 1, start - line_start + 1)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r}", _span(text, pos, pos + 1))
        if match.lastgroup != "ws":
            tokens.append(Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(Token("eof", "", pos))
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def error(self, message: str, token: Token) -> ParseError:
        return ParseError(message, _span(self.text, token.start, token.start + len(token.text)))

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def at(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            token = self.peek()
            raise self.error(f"expected {text!r}, found {token.text or 'end of input'!r}", token)
        return self.next()

    def expect_atom(self) -> Token:
        token = self.peek()
        if token.kind != "atom":
            raise self.error(f"expected atom, found {token.text or 'end of input'!r}", token)
        return self.next()


def _parse_probability(stream: _TokenStream) -> Fraction:
    token = stream.peek()
    if token.kind != "number":
        raise stream.error(f"expected probability, found {token.text!r}", token)
    stream.next()
    if "." in token.text:
        whole, frac = token.text.split(".")
        value = Fraction(int(whole + frac), 10 ** len(frac))
    else:
        value = Fraction(int(token.text))
        if stream.accept("/"):
            denom = stream.peek()
            if denom.kind != "number" or "." in denom.text:
                raise stream.error("expected integer denominator", denom)
            stream.next()
            value /= int(denom.text)
    if not 0 <= value <= 1:
        raise stream.error(f"probability {value} outside [0,1]", token)
    return value


def _parse_literal(stream: _TokenStream) -> Literal:
    if stream.accept("\\+"):
        return Literal(stream.expect_atom().text, False)
    return Literal(stream.expect_atom().text, True)


def _parse_body(stream: _TokenStream) -> frozenset[Literal]:
    literals = [_parse_literal(stream)]
    while stream.accept(","):
        literals.append(_parse_literal(stream))
    return frozenset(literals)


# --- ProbLog --------------------------------------------------------------

def parse_problog(text: str) -> Program:
    """Parse ProbLog text.  Fact atoms (``p::a.``) become the external alphabet."""
    stream = _TokenStream(text)
    clauses: list[Clause] = []
    facts: list[RandomFact] = []
    fact_atoms: dict[str, Token] = {}
    head_atoms: dict[str, Token] = {}
    while stream.peek().kind != "eof":
        token = stream.peek()
        if token.kind == "number":
            prob = _parse_probability(stream)
            stream.expect("::")
            atom = stream.expect_atom()
            stream.expect(".")
            if atom.text in fact_atoms:
                raise stream.error(f"duplicate random fact for {atom.text}", atom)
            fact_atoms[atom.text] = atom
            facts.append(RandomFact(atom.text, prob))
        else:
            head = stream.expect_atom()
            body: frozenset[Literal] = frozenset()
            if stream.accept(":-"):
                body = _parse_body(stream)
            stream.expect(".")
            head_atoms[head.text] = head
            clauses.append(Clause(head.text, body))
    for atom, token in head_atoms.items():
        if atom in fact_atoms:
            raise stream.error(f"atom {atom} used both as random fact and rule head", token)
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
    while stream.peek().kind != "eof":
        token = stream.peek()
        if token.kind == "number":  # pi::h :- body sugar
            prob = _parse_probability(stream)
            stream.expect("::")
            atom = stream.expect_atom()
            head = ((atom.text, prob),)
        else:
            head = _parse_lpad_head(stream)
        body: frozenset[Literal] = frozenset()
        if stream.accept(":-"):
            body = _parse_body(stream)
        stream.expect(".")
        total = sum((p for _, p in head), Fraction(0))
        if total > 1:
            raise stream.error(f"head probabilities sum to {total} > 1", token)
        clauses.append(LpadClause(head, body))
    return LpadProgram(tuple(clauses))


def _parse_lpad_head(stream: _TokenStream) -> tuple[tuple[str, Fraction], ...]:
    head: list[tuple[str, Fraction]] = []
    while True:
        atom = stream.expect_atom()
        prob = Fraction(1)
        if stream.accept(":"):
            prob = _parse_probability(stream)
        head.append((atom.text, prob))
        if not stream.accept(";"):
            return tuple(head)


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
    """Parse a query formula: ``;`` disjunction, ``,`` conjunction, ``\\+`` negation."""
    stream = _TokenStream(text)
    formula = _parse_disjunction(stream)
    token = stream.peek()
    if token.kind != "eof":
        raise stream.error(f"unexpected trailing input {token.text!r}", token)
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
    return Var(stream.expect_atom().text)


def parse_literals(text: str) -> frozenset[Literal]:
    """Parse a comma-separated literal list, e.g. ``sprinkler,\\+wet``."""
    text = text.strip()
    if not text:
        return frozenset()
    stream = _TokenStream(text)
    literals = _parse_body(stream)
    token = stream.peek()
    if token.kind != "eof":
        raise stream.error(f"unexpected trailing input {token.text!r}", token)
    return literals
