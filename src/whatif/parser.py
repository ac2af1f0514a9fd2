"""Surface syntax: a statement pattern, a token walk, and canonical printers.

Statements are terminated by ``.``; comments start with ``%`` and run to the
end of the line.  Probability literals are decimal (``0.35``), integer, or
explicit rationals (``2/7``); all are kept exact.

ProbLog and LPAD text share one statement grammar.  An LPAD statement is
``p::a [:- body].`` or ``a[:p] {; b[:p]} [:- body].``; a ProbLog statement
is the same grammar restricted to facts ``p::a.`` and rules with one
unannotated head, ``a [:- body].``.

Well-formed ProbLog is read by one compiled pattern, one match per
statement, with comments only between statements.  Any other text, and any
text that breaks a rule checked while parsing (a probability above 1, a zero
denominator, a duplicate fact, a fact atom that is also a head), goes whole
to the token walk (`_TokenStream`, `_statements`), the one source of
`ParseError` and its span.  The token walk also reads LPAD text, formulas
and literal lists.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .model import (
    Alphabet,
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


# Operators, each before any other operator it starts with.
_OPS = ("::", ":-", "\\+", ".", ":", ";", ",", "(", ")", "/", "|", "~")

# The one group holds every token: a number, an atom, an operator or, last,
# any other character, a bad token.  Whitespace and comments leave it empty.
_TOKEN_RE = re.compile(
    r"\s+|%[^\n]*|(\d+\.\d+|\d+|[a-z][a-zA-Z0-9_]*|" + "|".join(map(re.escape, _OPS)) + r"|.)"
)


def _is_number(token: str) -> bool:
    return token[:1].isdecimal()  # what \d matches


def _is_atom(token: str) -> bool:
    return "a" <= token[:1] <= "z"


def _is_bad(token: str) -> bool:
    return not (_is_number(token) or _is_atom(token) or token in _OPS)


class _TokenStream:
    """The token texts of `text`, ending with the empty end-of-input token.

    A token's kind is read off its text.  Token offsets are not kept: `error`
    scans the text again to find the one it reports.
    """

    def __init__(self, text: str):
        self.text = text
        self.index = 0
        self.tokens: list[str] = list(filter(None, _TOKEN_RE.findall(text)))
        if any(map(_is_bad, set(self.tokens))):
            index = next(i for i, token in enumerate(self.tokens) if _is_bad(token))
            raise self.error(f"unexpected character {self.tokens[index]!r}", index)
        self.tokens.append("")

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """A ParseError spanning the token at `index`, by default the next one."""
        if index is None:
            index = self.index
        starts = (match.start() for match in _TOKEN_RE.finditer(self.text) if match.group(1))
        start = next(itertools.islice(starts, index, None), len(self.text))
        line_start = self.text.rfind("\n", 0, start) + 1
        line = self.text.count("\n", 0, start) + 1
        column = start - line_start + 1
        end = start + len(self.tokens[index])
        return ParseError(message, SourceSpan(start, end, line, column))

    def peek(self) -> str:
        return self.tokens[self.index]

    def accept(self, op: str) -> bool:
        """Consume the next token if it is the operator `op`."""
        # only an op token's text can equal an operator
        if self.tokens[self.index] == op:
            self.index += 1
            return True
        return False

    def expected(self, what: str) -> ParseError:
        """A ParseError at the next token, which is not `what`."""
        return self.error(f"expected {what}, found {self.peek() or 'end of input'!r}")

    def expect(self, op: str) -> None:
        if not self.accept(op):
            raise self.expected(repr(op))

    def atom(self) -> str:
        token = self.tokens[self.index]
        if not _is_atom(token):
            raise self.expected("atom")
        self.index += 1
        return token

    def probability(self) -> Fraction:
        at = self.index
        chars = self.tokens[at]
        if not _is_number(chars):
            raise self.expected("probability")
        self.index += 1
        if "." not in chars and self.accept("/"):
            denom = self.peek()
            if not _is_number(denom) or "." in denom:
                raise self.error("expected integer denominator")
            if not int(denom):
                raise self.error("zero denominator")
            self.index += 1
            chars += "/" + denom
        numerator, denominator = _ratio(chars)
        value = Fraction(numerator, denominator)
        if numerator > denominator:
            raise self.error(f"probability {value} outside [0,1]", at)
        return value

    def end(self) -> None:
        """Reject anything left after a complete formula or literal list."""
        if self.peek():
            raise self.error(f"unexpected trailing input {self.peek()!r}")


def _ratio(chars: str) -> tuple[int, int]:
    """Numerator and denominator, unreduced, of a decimal, integer or ``num/den`` literal."""
    if "/" in chars:
        numerator, denominator = map(int, chars.split("/"))  # int() skips the spaces
        return numerator, denominator
    if "." in chars:
        whole, frac = chars.split(".")
        return int(whole + frac), 10 ** len(frac)
    return int(chars), 1


def _parse_body(stream: _TokenStream) -> frozenset[Literal]:
    literals = []
    while True:
        positive = not stream.accept("\\+")
        literals.append(Literal(stream.atom(), positive))
        if not stream.accept(","):
            return frozenset(literals)


_Head = list[tuple[int, Optional[Fraction]]]


def _statements(
    stream: _TokenStream, lpad: bool
) -> Iterator[tuple[int, _Head, frozenset[Literal]]]:
    """Yield ``(first token's index, head, body)`` per statement.

    The head lists ``(atom token's index, probability)`` pairs; the
    probability is None for an unannotated atom.  Without `lpad`, a statement
    is a fact ``p::a.`` or a rule with one unannotated head atom.
    """
    while stream.peek():
        first = stream.index
        if _is_number(stream.peek()):
            prob = stream.probability()
            stream.expect("::")
            head: _Head = [(stream.index, prob)]
            stream.atom()
        else:
            head = []
            while not head or lpad and stream.accept(";"):
                at = stream.index
                stream.atom()
                head.append((at, stream.probability() if lpad and stream.accept(":") else None))
        body: frozenset[Literal] = frozenset()
        if (lpad or head[0][1] is None) and stream.accept(":-"):
            body = _parse_body(stream)
        stream.expect(".")
        yield first, head, body


# --- ProbLog --------------------------------------------------------------

_ATOM = r"[a-z][a-zA-Z0-9_]*"
_LITERAL = rf"(?:\\\+\s*)?{_ATOM}"
# Whitespace and comments before a statement.  A comment must reach its line
# end, or backtracking would read the rest of the line as statements, and a
# repetition is one character or one comment, so failing takes linear time.
_SKIP = r"(?:\s|%[^\n]*(?![^\n]))*"
# One statement, with only whitespace between its tokens, or the end of the
# text: groups (probability, fact atom) or (head, body), and none at the end.
_STATEMENT_RE = re.compile(
    rf"{_SKIP}(?:(?:(\d+\.\d+|\d+(?:\s*/\s*\d+)?)\s*::\s*({_ATOM})"
    rf"|({_ATOM})(?:\s*:-\s*({_LITERAL}(?:\s*,\s*{_LITERAL})*))?)\s*\.|\Z)"
)


@functools.lru_cache(maxsize=256)
def _probability(chars: str) -> Optional[Fraction]:
    """The value of a matched probability, None if the token walk must reject it."""
    numerator, denominator = _ratio(chars)
    if not denominator or numerator > denominator:
        return None
    return Fraction(numerator, denominator)


class _Literals(dict):
    """Literal text without whitespace -> its `Literal`, made on first sight."""

    def __missing__(self, chars: str) -> Literal:
        positive = chars[0] != "\\"
        literal = self[chars] = Literal(chars if positive else chars[2:], positive)
        return literal


def _match_statements(text: str) -> Optional[Program]:
    """The program of well-formed ProbLog `text`, or None for the token walk to read."""
    clauses: list[Clause] = []
    facts: list[RandomFact] = []
    fact_atoms: set[str] = set()
    heads: set[str] = set()
    literals = _Literals()
    match, end = _STATEMENT_RE.match, 0
    while True:
        statement = match(text, end)
        if statement is None:
            return None
        prob, atom, head, body = statement.groups()
        end = statement.end()
        if head is not None:
            heads.add(head)
            pieces = "".join(body.split()).split(",") if body else ()
            clauses.append(Clause(head, frozenset(map(literals.__getitem__, pieces))))
        elif atom is not None:
            value = _probability(prob)
            if value is None or atom in fact_atoms:
                return None
            fact_atoms.add(atom)
            facts.append(RandomFact(atom, value))
        else:
            break
    if not heads.isdisjoint(fact_atoms):
        return None
    externals = frozenset(fact_atoms)
    mentioned = heads.union(literal.atom for literal in literals.values())
    alphabet = Alphabet(frozenset(mentioned) - externals, externals)
    program = Program(tuple(clauses), tuple(facts), alphabet)
    program.__dict__["diagnostics"] = ()  # `model._diagnose`'s checks hold by construction
    return program


def parse_problog(text: str) -> Program:
    """Parse ProbLog text.  Fact atoms (``p::a.``) become the external alphabet."""
    program = _match_statements(text)
    return program if program is not None else _walk_statements(text)


def _walk_statements(text: str) -> Program:
    """`parse_problog` by the token walk, for text the statement pattern does not read."""
    stream = _TokenStream(text)
    clauses: list[Clause] = []
    facts: list[RandomFact] = []
    fact_atoms: set[str] = set()
    head_atoms: dict[str, int] = {}  # atom -> the index of a token naming it as a head
    for _, ((atom, prob),), body in _statements(stream, lpad=False):
        name = stream.tokens[atom]
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
    for head, body in sorted((c.head, c.sorted_body()) for c in program.clauses):
        lines.append(f"{head} :- {', '.join(map(str, body))}." if body else f"{head}.")
    return "\n".join(lines) + ("\n" if lines else "")


# --- LPAD -----------------------------------------------------------------

def parse_lpad(text: str) -> LpadProgram:
    """Parse LPAD text: ``h1:0.3; h2:0.5 :- b1, \\+b2.`` plus ProbLog-style sugar."""
    stream = _TokenStream(text)
    clauses: list[LpadClause] = []
    for first, head, body in _statements(stream, lpad=True):
        pairs = tuple(
            (stream.tokens[atom], Fraction(1) if prob is None else prob) for atom, prob in head
        )
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
    return Var(stream.atom())


def parse_literals(text: str) -> frozenset[Literal]:
    """Parse a comma-separated literal list, e.g. ``sprinkler,\\+wet``."""
    if not text.strip():
        return frozenset()
    stream = _TokenStream(text)
    literals = _parse_body(stream)
    stream.end()
    return literals
