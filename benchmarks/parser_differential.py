"""Differential check of the parser between two source trees.

Feeds the same seeded random strings to `parse_problog`, `parse_lpad`,
`parse_formula` and `parse_literals` of two checkouts and compares, per
string, the result or the error (type, message and span).  Half of the
strings are mutated well-formed statements, formulas or literal lists, half
are random token soup with whitespace, comments and bad characters.

    python3 benchmarks/parser_differential.py OLD/src NEW/src

Each entry point gets COUNT strings drawn with SEED.  Prints per entry point
how many strings gave equal results or equal errors, and how many differ: in
the error's span only, in the error's type only (same message), or otherwise;
then the first SHOW differing strings.  Exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

SEED = 1
COUNT = 100_000  # strings per entry point
SHOW = 20  # differing strings to print

ENTRY_POINTS = ("parse_problog", "parse_lpad", "parse_formula", "parse_literals")

ATOMS = ("a", "b", "c", "u", "v1", "x_y")
NUMBERS = ("0", "1", "2", "0.5", "0.25", "1.5", "0.70", "2/7", "3/2", "1/0", "1/0.5")
OPS = ("::", ":-", "\\+", ".", ":", ";", ",", "(", ")", "/", "|", "~")
BAD = ("$", "A", "_", "-", "é", "#")
SPACE = ("", " ", " ", "\n", "\t", "% note\n", "  \n ")


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


def strings(entry: str):
    rng = random.Random(f"{SEED}:{entry}")
    for _ in range(COUNT):
        if rng.random() < 0.5:
            pieces = _well_formed(rng, entry)
            for _ in range(rng.randrange(3)):
                spot = rng.randint(0, len(pieces))
                action = rng.randrange(3)
                if action == 0 and spot < len(pieces):
                    del pieces[spot]
                elif action == 1 and spot < len(pieces):
                    pieces[spot] = _any_piece(rng)
                else:
                    pieces.insert(spot, _any_piece(rng))
        else:
            pieces = [_any_piece(rng) for _ in range(rng.randint(0, 8))]
        yield rng.choice(SPACE) + "".join(p + rng.choice(SPACE) for p in pieces)


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
        for text in strings(entry):
            try:
                outcome = ["ok", _describe(parse(text))]
            except Exception as exc:  # compared, not handled: every error type counts
                span = getattr(exc, "span", None)
                where = [span.line, span.column, span.start, span.end] if span else None
                outcome = ["error", type(exc).__name__, str(exc), where]
            print(json.dumps([entry, text, outcome]))


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
    tally = {entry: dict.fromkeys(kinds, 0) for entry in ENTRY_POINTS}
    shown = []
    for (entry, text, before), (_, _, after) in zip(old, new, strict=True):
        kind = _compare(before, after)
        tally[entry][kind] += 1
        if not kind.startswith("equal") and len(shown) < SHOW:
            shown.append((entry, text, before, after))
    for entry, counts in tally.items():
        print(entry, json.dumps(counts))
    for entry, text, before, after in shown:
        print(f"{entry}({text!r}):\n  old {before}\n  new {after}")
    differing = sum(counts[kind] for counts in tally.values() for kind in kinds[2:])
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
