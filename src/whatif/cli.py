"""Command-line front end: query, transform, translate and bench subcommands.

Exit codes: 0 success, 1 syntax error, 2 semantic error (cycles, zero
evidence, invalid programs), 3 resource error.  Only the artifact goes to
stdout; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, benchgen, counterfactual, transforms, wmc as wmc_mod
from .lpad import lpad_of_problog, prob_of_lpad
from .model import CounterfactualQuery, WhatifError
from .parser import (
    ParseError,
    parse_formula,
    parse_literals,
    parse_lpad,
    parse_problog,
    print_lpad,
    print_problog,
)

EXIT_SYNTAX = 1
EXIT_SEMANTIC = 2
EXIT_RESOURCE = 3

RATIONAL_LIMIT = 64  # print a float, not a fraction, above this many externals


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whatif",
        description="Marginal, interventional and counterfactual queries "
        "on propositional probabilistic logic programs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="answer a (counterfactual) query")
    query.add_argument("program", type=Path)
    query.add_argument("--query", required=True, help="query formula, e.g. 'slippery'")
    query.add_argument("--evidence", default="", help="comma-separated literals, \\+a for negative")
    query.add_argument("--do", default="", help="comma-separated intervention literals")
    query.add_argument("--backend", choices=counterfactual.BACKENDS, default="wmc")
    query.add_argument("--precision", choices=("rational", "float", "auto"), default="auto")
    query.add_argument(
        "--dump-cnf",
        type=Path,
        help="also write the weighted CNF (DIMACS) that the wmc backend counts "
        "(wmc.encode_query): the reduced program's clauses and the query's",
    )

    transform = commands.add_parser("transform", help="print a transformed program")
    transform.add_argument("program", type=Path)
    transform.add_argument("--do", default=None, help="intervention literals")
    transform.add_argument(
        "--twin",
        default=None,
        help="'query;evidence;do' triple building the duplicated program; a query "
        "with ';' (or) needs both later parts, which may be empty: 'a;b;;'",
    )

    translate = commands.add_parser("translate", help="convert between ProbLog and LPAD")
    translate.add_argument("program", type=Path)
    translate.add_argument("--to", choices=("problog", "lpad"), required=True)

    # a grid flag left out takes the `benchgen.GridSpec` default
    bench = commands.add_parser("bench", help="run the scaling benchmark grid")
    bench.add_argument("--n", dest="ns", type=_ints, help="comma-separated tree sizes")
    bench.add_argument("--k", dest="ks", type=_ints, help="comma-separated hub counts")
    bench.add_argument("--seeds", type=_ints, help="comma-separated seeds")
    bench.add_argument("--evidence-count", dest="e_count", type=int)
    bench.add_argument("--intervention-count", dest="i_count", type=int)
    bench.add_argument("--backends", type=lambda text: tuple(text.split(",")))
    bench.add_argument("--time-limit", type=float, default=60.0)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", type=Path, help="CSV output path (default stdout)")
    return parser


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _format_probability(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return f"{value:.12g}"


def _parse_query(formula: str, evidence: str, do: str) -> CounterfactualQuery:
    return CounterfactualQuery(parse_formula(formula), parse_literals(evidence), parse_literals(do))


def _cmd_query(args) -> int:
    program = parse_problog(args.program.read_text())
    query = _parse_query(args.query, args.evidence, args.do)
    exact = args.precision == "rational" or (
        args.precision == "auto" and len(program.externals) <= RATIONAL_LIMIT
    )
    dumped = []  # the CNF written for --dump-cnf, once it is

    def dump(cnf: wmc_mod.WeightedCnf) -> None:
        args.dump_cnf.write_text(wmc_mod.dump_dimacs(cnf))
        dumped.append(cnf)

    try:
        if args.dump_cnf and args.backend != "wmc":
            # these backends count no CNF: encode it apart, before answering,
            # so a program wmc cannot encode prints no answer
            dump(wmc_mod.encode_query(*counterfactual.reduce(program, query))[0])
        # the wmc backend calls `dump` with the CNF it counts, before the count
        answer = counterfactual.answer_counterfactual(
            program, query, backend=args.backend, exact=exact,
            on_cnf=dump if args.dump_cnf else None,
        )
    except WhatifError as exc:
        if args.dump_cnf and not dumped:
            raise type(exc)(f"--dump-cnf: {exc}") from exc
        raise
    print(_format_probability(answer))
    return 0


def _cmd_transform(args) -> int:
    program = parse_problog(args.program.read_text())
    if args.twin is not None:
        query = _parse_query(*(args.twin.rsplit(";", 2) + ["", ""])[:3])
        program, _, _ = transforms.twin(program, query)
    else:
        program = transforms.intervene(program, parse_literals(args.do or ""))
    sys.stdout.write(print_problog(program))
    return 0


def _cmd_translate(args) -> int:
    text = args.program.read_text()
    if args.to == "lpad":
        sys.stdout.write(print_lpad(lpad_of_problog(parse_problog(text))))
    else:
        sys.stdout.write(print_problog(prob_of_lpad(parse_lpad(text))))
    return 0


def _cmd_bench(args) -> int:
    grid = {f.name: getattr(args, f.name) for f in dataclasses.fields(benchgen.GridSpec)}
    spec = benchgen.GridSpec(**{name: value for name, value in grid.items() if value is not None})
    rows = benchgen.run_experiment(spec, args.time_limit, jobs=args.jobs)
    text = benchgen.rows_to_csv(rows)
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "transform": _cmd_transform,
        "translate": _cmd_translate,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"whatif: syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except WhatifError as exc:
        print(f"whatif: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (MemoryError, RecursionError) as exc:
        print(f"whatif: resource limit: {exc!r}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"whatif: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
