"""Command-line front end: query, transform, translate and bench subcommands.

Exit codes: 0 success, 1 syntax error, 2 semantic error (cycles, zero
evidence, invalid programs), 3 resource error.  Only the artifact goes to
stdout; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, benchgen, counterfactual, transforms, wmc as wmc_mod
from .lpad import lpad_of_problog, prob_of_lpad
from .model import CounterfactualQuery, NegativeCycleError, WhatifError, ZeroEvidenceError
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

RATIONAL_LIMIT = 64  # default to float above this many externals


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
        "(wmc.encode_query): the reduced twin program's clauses and the query's",
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

    bench = commands.add_parser("bench", help="run the scaling benchmark grid")
    bench.add_argument("--grid", type=Path, help="key=value config file")
    bench.add_argument("--n", default=None, help="comma-separated tree sizes")
    bench.add_argument("--k", default=None, help="comma-separated hub counts")
    bench.add_argument("--seeds", default=None, help="comma-separated seeds")
    bench.add_argument("--evidence-count", type=int, default=None)
    bench.add_argument("--intervention-count", type=int, default=None)
    bench.add_argument("--backends", default=None)
    bench.add_argument("--time-limit", type=float, default=60.0)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", type=Path, help="CSV output path (default stdout)")
    return parser


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
    answer = counterfactual.answer_counterfactual(
        program, query, backend=args.backend, exact=exact
    )
    if args.dump_cnf:
        counted, _, _ = wmc_mod.encode_query(*transforms.twin(program, query))
        args.dump_cnf.write_text(wmc_mod.dump_dimacs(counted))
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
    spec = benchgen.GridSpec.from_config(args.grid.read_text()) if args.grid else benchgen.GridSpec()
    def ints(text):
        return tuple(int(x) for x in text.split(","))
    spec = benchgen.GridSpec(
        ns=ints(args.n) if args.n else spec.ns,
        ks=ints(args.k) if args.k else spec.ks,
        seeds=ints(args.seeds) if args.seeds else spec.seeds,
        e_count=args.evidence_count if args.evidence_count is not None else spec.e_count,
        i_count=args.intervention_count if args.intervention_count is not None else spec.i_count,
        backends=tuple(args.backends.split(",")) if args.backends else spec.backends,
    )
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
    except (ZeroEvidenceError, NegativeCycleError, WhatifError) as exc:
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
