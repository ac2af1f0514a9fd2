"""Differential check of the parser between two source trees.

Feeds the same seeded random strings to `parse_problog`, `parse_lpad`,
`parse_formula` and `parse_literals` of two checkouts and compares, per
string, the result or the error (type, message and span).  The strings
come in classes: "mutated" strings are well-formed statements, formulas or
literal lists with up to two pieces deleted, replaced or inserted; "soup" is
random tokens with whitespace, comments and bad characters; and, for
`parse_problog` only, "long" programs are 20-200 well-formed statements with
random spacing and comments, half of them with a few pieces mutated, so that
both sides of the statement pattern's fallback to the token walk are met on
texts of realistic size.

    python3 benchmarks/parser_differential.py OLD/src NEW/src

Each entry point gets COUNT strings drawn with SEED, half mutated and half
soup, and `parse_problog` LONG long programs more.  Prints per entry point
and class how many strings gave equal results or equal errors, and how many
differ: in the error's span only, in the error's type only (same message),
or otherwise; then the first SHOW differing strings.  Exits 1 on any
difference.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

SEED = 1
COUNT = 100_000  # mutated and soup strings per entry point
LONG = 2_000  # long programs for parse_problog
SHOW = 20  # differing strings to print

ENTRY_POINTS = ("parse_problog", "parse_lpad", "parse_formula", "parse_literals")

ATOMS = ("a", "b", "c", "u", "v1", "x_y")
NUMBERS = ("0", "1", "2", "0.5", "0.25", "1.5", "0.70", "2/7", "3/2", "1/0", "1/0.5")
OPS = ("::", ":-", "\\+", ".", ":", ";", ",", "(", ")", "/", "|", "~")
BAD = ("$", "A", "_", "-", "é", "#")
SPACE = ("", " ", " ", "\n", "\t", "% note\n", "  \n ")
IN_RANGE = ("0", "1", "0.5", "0.25", "0.70", "2/7")
INSIDE = ("", " ", " ", " ", "\t", "\n", "\r\n")  # between the pieces of a long program's statement


def _literals(rng: random.Random) -> list[str]:
    pieces = []
    for index in range(rng.randint(1, 3)):
        if index:
            pieces.append(",")
        if rng.random() < 0.3:
            pieces.append("\\+")
        pieces.append(rng.choice(ATOMS))
    return pieces


def _statement(rng: random.Random) -> list[str]:
    form = rng.randrange(3)
    if form == 0:
        pieces = [rng.choice(NUMBERS), "::", rng.choice(ATOMS)]
    elif form == 1:
        pieces = [rng.choice(ATOMS)]
    else:
        pieces = []
        for index in range(rng.randint(1, 3)):
            pieces += [";"] * bool(index) + [rng.choice(ATOMS), ":", rng.choice(NUMBERS)]
    if rng.random() < 0.5:
        pieces += [":-"] + _literals(rng)
    return pieces + ["."]


def _formula(rng: random.Random, depth: int = 2) -> list[str]:
    if depth == 0 or rng.random() < 0.3:
        return [rng.choice(ATOMS)]
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.choice(("\\+", "~"))] + _formula(rng, depth - 1)
    if kind == 1:
        return ["("] + _formula(rng, depth - 1) + [")"]
    return _formula(rng, depth - 1) + [rng.choice((",", ";", "|"))] + _formula(rng, depth - 1)


def _well_formed(rng: random.Random, entry: str) -> list[str]:
    if entry in ("parse_problog", "parse_lpad"):
        return [piece for _ in range(rng.randint(0, 4)) for piece in _statement(rng)]
    return _formula(rng) if entry == "parse_formula" else _literals(rng)


def _any_piece(rng: random.Random) -> str:
    return rng.choice(rng.choice((ATOMS, NUMBERS, OPS, OPS, BAD)))


def _mutate(rng: random.Random, pieces: list[str]) -> None:
    """Delete, replace or insert one piece at a random spot."""
    spot = rng.randint(0, len(pieces))
    action = rng.randrange(3)
    if action == 0 and spot < len(pieces):
        del pieces[spot]
    elif action == 1 and spot < len(pieces):
        pieces[spot] = _any_piece(rng)
    else:
        pieces.insert(spot, _any_piece(rng))


def _long_program(rng: random.Random) -> str:
    """20-200 ProbLog statements: one fact per external, rules over the internals."""
    externals = [f"u{i}" for i in range(rng.randint(1, 40))]
    internals = [f"a{i}" for i in range(rng.randint(1, 40))]
    statements = [[rng.choice(IN_RANGE), "::", atom] for atom in externals]
    size = rng.randint(20, 200)
    while len(statements) < size:
        statement = [rng.choice(internals)]
        if rng.random() < 0.8:
            statement.append(":-")
            for index in range(rng.randint(1, 4)):
                statement += [","] * bool(index) + ["\\+"] * (rng.random() < 0.3)
                statement.append(rng.choice(internals + externals))
        statements.append(statement)
    rng.shuffle(statements)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, rng.choice(statements))
    # a quarter of the programs may get one comment inside a statement; the
    # others have comments only between statements
    inside = (rng.randrange(len(statements)), rng.randrange(8)) if rng.random() < 0.25 else None
    text = []
    for at, statement in enumerate(statements):
        text.append(rng.choice(SPACE))
        for index, piece in enumerate(statement):
            text += [piece, "% inside\n" if inside == (at, index) else rng.choice(INSIDE)]
        text.append(".")
    return "".join(text) + rng.choice(SPACE)


def strings(entry: str):
    """Yield (class, string) pairs for `entry`."""
    rng = random.Random(f"{SEED}:{entry}")
    for _ in range(COUNT):
        if rng.random() < 0.5:
            kind, pieces = "mutated", _well_formed(rng, entry)
            for _ in range(rng.randrange(3)):
                _mutate(rng, pieces)
        else:
            kind, pieces = "soup", [_any_piece(rng) for _ in range(rng.randint(0, 8))]
        yield kind, rng.choice(SPACE) + "".join(p + rng.choice(SPACE) for p in pieces)
    if entry == "parse_problog":
        rng = random.Random(f"{SEED}:{entry}:long")
        for _ in range(LONG):
            yield "long", _long_program(rng)


def _describe(value) -> object:
    """A process-independent rendering of a parse result (no set order)."""
    from whatif.lpad import LpadProgram
    from whatif.model import Program

    def body(literals):
        return sorted([lit.atom, lit.positive] for lit in literals)

    if isinstance(value, Program):
        return ["program", [[c.head, body(c.body)] for c in value.clauses],
                [[f.atom, str(f.prob)] for f in value.facts],
                sorted(value.internals), sorted(value.externals)]
    if isinstance(value, LpadProgram):
        return ["lpad", [[[[a, str(p)] for a, p in c.head], body(c.body)] for c in value.clauses]]
    if isinstance(value, frozenset):
        return ["literals", body(value)]
    return ["formula", repr(value)]


def _worker() -> None:
    from whatif import parser

    for entry in ENTRY_POINTS:
        parse = getattr(parser, entry)
        for kind, text in strings(entry):
            try:
                outcome = ["ok", _describe(parse(text))]
            except Exception as exc:  # compared, not handled: every error type counts
                span = getattr(exc, "span", None)
                where = [span.line, span.column, span.start, span.end] if span else None
                outcome = ["error", type(exc).__name__, str(exc), where]
            print(json.dumps([entry, kind, text, outcome]))


def _compare(before: list, after: list) -> str:
    if before == after:
        return "equal results" if before[0] == "ok" else "equal errors"
    if before[0] == after[0] == "error":
        same_type = before[1] == after[1]
        same_message = before[2].split(" at line ")[0] == after[2].split(" at line ")[0]
        if same_type and same_message:
            return "span only"
        if same_message:
            return "error type only"
    return "other"


def _outcomes(src: str):
    """Stream the worker's lines for the tree at `src`, one parsed line at a time."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    command = [sys.executable, __file__, "--worker"]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True) as worker:
        for line in worker.stdout:
            yield json.loads(line)
    if worker.returncode:
        raise subprocess.CalledProcessError(worker.returncode, command)


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("old_src", nargs="?", help="source tree of the reference parser")
    cli.add_argument("new_src", nargs="?", help="source tree of the parser under test")
    cli.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = cli.parse_args(argv)
    if args.worker:
        _worker()
        return 0
    if not (args.old_src and args.new_src):
        cli.error("give the two source trees to compare")
    old = _outcomes(args.old_src)
    new = _outcomes(args.new_src)
    kinds = ("equal results", "equal errors", "span only", "error type only", "other")
    tally: dict[tuple[str, str], dict[str, int]] = {}
    shown = []
    for (entry, group, text, before), (_, _, _, after) in zip(old, new, strict=True):
        kind = _compare(before, after)
        tally.setdefault((entry, group), dict.fromkeys(kinds, 0))[kind] += 1
        if not kind.startswith("equal") and len(shown) < SHOW:
            shown.append((entry, text, before, after))
    for (entry, group), counts in tally.items():
        print(entry, group, json.dumps(counts))
    for entry, text, before, after in shown:
        print(f"{entry}({text!r}):\n  old {before}\n  new {after}")
    differing = sum(counts[kind] for counts in tally.values() for kind in kinds[2:])
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
