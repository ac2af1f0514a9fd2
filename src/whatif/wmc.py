"""Weighted model counting backend.

Translates an acyclic program into a weighted CNF via Clark completion with
auxiliary variables, and counts with a DPLL-style counter.  Rational mode is
exact; float mode runs the same counter on float weights.

`encode_query` is the only builder of the CNF a query counts; `conditional`,
`marginal_wmc`, `whatif query --dump-cnf` and the counter benchmark use it.
It first shrinks the program with `transforms.relevant`, which keeps only the
ancestors of the query and evidence atoms and the facts they mention (the
weights of every other external sum to 1), and merges atoms whose sets of
bodies are equal once their body atoms are merged, since Clark completion
makes such atoms equal in every world.  On a twin program this merges the two
copies of every atom that no intervention reaches (the node merging of Balke
& Pearl's twin networks).  Clark completion and the query's Tseitin clauses
are written by one definer, `_define`.

`conditional` answers P(q | e) = P(q ∧ e) / P(e) with one search over one
counter whose marked literal is the query's root literal; the Tseitin
definitions are equivalences over auxiliaries of weight (1, 1), so the same
CNF also gives P(e).  Its first `wmc` call searches under the evidence and
returns P(e); the search carries the count restricted to the marked literal
along, so the second call, with the root literal added, returns P(q ∧ e)
without searching again.  A float P(e) of 0 may be an underflow, so the same
CNF is then counted again in exact mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from ._counter_py import ModelCounter
from .model import (
    Formula,
    Literal,
    Not,
    And,
    Or,
    Var,
    Program,
    NegativeCycleError,
    ValidationError,
    ZeroEvidenceError,
)
from .semantics import Classification, check_unique_supported_models
from .transforms import relevant

# There is no compiled kernel; the benchmark still reports this flag.
HAVE_COMPILED_COUNTER = False

_FREE = (Fraction(1), Fraction(1))  # the weights of a variable that is not a fact


@dataclass
class WeightedCnf:
    var_count: int
    clauses: list[tuple[int, ...]]
    weights: dict[int, tuple[Fraction, Fraction]]  # var -> (w_true, w_false)
    var_map: dict[str, int]

    def literal(self, lit: Literal) -> int:
        var = self.var_map[lit.atom]
        return var if lit.positive else -var

    def copy(self) -> "WeightedCnf":
        return WeightedCnf(
            self.var_count, list(self.clauses), dict(self.weights), dict(self.var_map)
        )

    def new_var(self) -> int:
        self.var_count += 1
        self.weights[self.var_count] = _FREE
        return self.var_count


def to_weighted_cnf(program: Program) -> WeightedCnf:
    """Clark-completion encoding; model weights are in bijection with worlds."""
    classification = check_unique_supported_models(program)
    if classification is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    if classification is not Classification.ACYCLIC:
        raise ValidationError("WMC backend requires an acyclic program")

    cnf = WeightedCnf(0, [], {}, {})
    for atom in sorted(program.externals) + sorted(program.internals):
        cnf.var_map[atom] = cnf.new_var()
    probs = program.external_probs()
    for atom in program.externals:
        cnf.weights[cnf.var_map[atom]] = (probs[atom], 1 - probs[atom])

    by_head = program.clauses_by_head()
    for atom in sorted(program.internals):
        head = cnf.var_map[atom]
        bodies = sorted(
            (clause.sorted_body() for clause in by_head.get(atom, ())),
            key=lambda lits: [(l.atom, l.positive) for l in lits],
        )
        if any(not body for body in bodies):  # a fact clause makes the head true
            cnf.clauses.append((head,))
            continue
        # with no bodies this is the unit clause (-head,)
        disjuncts = [_join(cnf, [cnf.literal(l) for l in body], True) for body in bodies]
        _define(cnf, head, disjuncts, False)
    return cnf


def _define(cnf: WeightedCnf, out: int, parts: list[int], conjunctive: bool) -> None:
    """Append the clauses of out <-> and(parts), or of out <-> or(parts)."""
    if conjunctive:
        cnf.clauses.extend((-out, part) for part in parts)
        cnf.clauses.append(tuple([out] + [-part for part in parts]))
    else:
        cnf.clauses.append(tuple([-out] + parts))
        cnf.clauses.extend((out, -part) for part in parts)


def _join(cnf: WeightedCnf, parts: list[int], conjunctive: bool) -> int:
    """A literal equal to and(parts) or or(parts): the single part, or a defined auxiliary."""
    if len(parts) == 1:
        return parts[0]
    out = cnf.new_var()
    _define(cnf, out, parts, conjunctive)
    return out


def add_formula(cnf: WeightedCnf, formula: Formula) -> tuple[WeightedCnf, int]:
    """Tseitin-clausify `formula` over a copy of `cnf`; returns (cnf, root literal)."""
    out = cnf.copy()
    root = _encode(out, formula)
    return out, root


def _encode(cnf: WeightedCnf, formula: Formula) -> int:
    if isinstance(formula, Var):
        return cnf.var_map[formula.name]
    if isinstance(formula, Not):
        return -_encode(cnf, formula.operand)
    if isinstance(formula, (And, Or)):
        parts = [_encode(cnf, part) for part in formula.operands]
        return _join(cnf, parts, isinstance(formula, And))
    raise TypeError(f"not a formula: {formula!r}")


def encode_query(
    program: Program, formula: Formula, evidence: Iterable[Literal] = ()
) -> tuple[WeightedCnf, int, list[int]]:
    """The CNF counted for P(formula | evidence), its root and evidence literals."""
    program.external_probs()  # checked before relevant() drops unused externals
    # relevant() adds absent atoms as rule-less internals
    program, formula, evidence = relevant(program, formula, evidence)
    cnf, root = add_formula(to_weighted_cnf(program), formula)
    return cnf, root, [cnf.literal(lit) for lit in sorted(evidence)]


def counter(cnf: WeightedCnf, exact: bool = True, mark: int = 0) -> ModelCounter:
    """A counter over `cnf` with `mark` as its marked literal (0 marks none)."""
    weights = cnf.weights
    if not exact:
        weights = {v: (float(wt), float(wf)) for v, (wt, wf) in weights.items()}
    return ModelCounter(cnf.clauses, weights, mark)


def wmc(
    cnf: WeightedCnf,
    assumptions: Iterable[int] = (),
    exact: bool = True,
    shared: Optional[ModelCounter] = None,
):
    """Weighted count of models consistent with the assumption literals.

    Searches a fresh counter, or `shared`, a `counter(cnf, ...)` kept across
    calls, whose cache and last marked count are then reused.
    """
    assumptions = list(assumptions)
    for lit in assumptions:
        if not 1 <= abs(lit) <= cnf.var_count:
            raise ValidationError(f"assumption references unknown variable: {lit}")
    if shared is None:
        shared = counter(cnf, exact)
    return shared.count(assumptions)


def marginal_wmc(program: Program, formula: Formula, exact: bool = True):
    """Marginal probability via the counting backend."""
    cnf, root, _ = encode_query(program, formula)
    return wmc(cnf, [root], exact=exact)


def conditional(
    program: Program,
    formula: Formula,
    evidence: Iterable[Literal],
    exact: bool = True,
):
    """P(formula | evidence) as a ratio of weighted counts."""
    cnf, root, assumptions = encode_query(program, formula, evidence)
    shared = counter(cnf, exact, mark=root)
    denominator = wmc(cnf, assumptions, shared=shared)
    if denominator == 0 and not exact:
        # a float count of 0 may be an underflow; an exact count of the same CNF decides
        shared = counter(cnf, True, mark=root)
        denominator = wmc(cnf, assumptions, shared=shared)
    if denominator == 0:
        raise ZeroEvidenceError("evidence has probability zero")
    # the count with the root literal true, kept by the search above
    numerator = wmc(cnf, assumptions + [root], shared=shared)
    answer = numerator / denominator
    return answer if exact else float(answer)


def dump_dimacs(cnf: WeightedCnf) -> str:
    """Weighted CNF in the standard model-counting text format."""
    lines = [f"p cnf {cnf.var_count} {len(cnf.clauses)}"]
    for var, (wt, wf) in sorted(cnf.weights.items()):
        lines.append(f"c p weight {var} {float(wt):.17g} 0")
        lines.append(f"c p weight {-var} {float(wf):.17g} 0")
    for clause in cnf.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"
