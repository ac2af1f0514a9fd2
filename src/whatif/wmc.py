"""Weighted model counting backend.

Translates an acyclic program into a weighted CNF via Clark completion with
auxiliary variables, and counts with a DPLL-style counter.  Rational mode is
exact; float mode runs the same counter on float weights.

`conditional` answers P(q | e) = P(q ∧ e) / P(e) with one search.  It
encodes the query once (`add_formula`) and builds one counter over that CNF
whose marked literal is the query's root literal; the Tseitin definitions
are equivalences over auxiliaries of weight (1, 1), so the same CNF also
gives P(e).  Its first `wmc` call searches under the evidence and returns
P(e); the search carries the count restricted to the marked literal along,
so the second call, with the root literal added, returns P(q ∧ e) without
searching again.

`marginal_wmc` and `conditional` first shrink the program with
`transforms.relevant`.  That keeps only the ancestors of the query and
evidence atoms and the facts they mention: the weights of every other
external sum to 1, and no other internal atom changes the atoms that remain.
It also merges atoms whose sets of bodies are equal once their body atoms
are merged, since Clark completion makes such atoms equal in every world.
On a twin program this merges the two copies of every atom that no
intervention reaches (the node merging of Balke & Pearl's twin networks),
with no rule specific to twins.  The answer is unchanged; only the CNF
shrinks.
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
        self.weights[self.var_count] = (Fraction(1), Fraction(1))
        return self.var_count


def to_weighted_cnf(program: Program) -> WeightedCnf:
    """Clark-completion encoding; model weights are in bijection with worlds."""
    classification = check_unique_supported_models(program)
    if classification is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    if classification is not Classification.ACYCLIC:
        raise ValidationError("WMC backend requires an acyclic program")

    cnf = WeightedCnf(0, [], {}, {})
    probs = program.external_probs()
    for atom in sorted(program.externals):
        var = cnf.var_count + 1
        cnf.var_count = var
        cnf.var_map[atom] = var
        cnf.weights[var] = (probs[atom], 1 - probs[atom])
    for atom in sorted(program.internals):
        var = cnf.var_count + 1
        cnf.var_count = var
        cnf.var_map[atom] = var
        cnf.weights[var] = (Fraction(1), Fraction(1))

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
        if not bodies:
            cnf.clauses.append((-head,))
            continue
        disjuncts = []
        for body in bodies:
            lits = [cnf.literal(l) for l in body]
            if len(lits) == 1:
                disjuncts.append(lits[0])
            else:
                aux = cnf.new_var()
                for lit in lits:
                    cnf.clauses.append((-aux, lit))
                cnf.clauses.append(tuple([aux] + [-lit for lit in lits]))
                disjuncts.append(aux)
        cnf.clauses.append(tuple([-head] + disjuncts))
        for disjunct in disjuncts:
            cnf.clauses.append((head, -disjunct))
    return cnf


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
        if len(parts) == 1:
            return parts[0]
        aux = cnf.new_var()
        if isinstance(formula, And):
            for part in parts:
                cnf.clauses.append((-aux, part))
            cnf.clauses.append(tuple([aux] + [-part for part in parts]))
        else:
            cnf.clauses.append(tuple([-aux] + parts))
            for part in parts:
                cnf.clauses.append((aux, -part))
        return aux
    raise TypeError(f"not a formula: {formula!r}")


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
    program.external_probs()  # checked before relevant() drops unused externals
    program, formula, _ = relevant(program, formula, ())
    cnf = to_weighted_cnf(program)
    with_query, root = add_formula(cnf, formula)
    return wmc(with_query, [root], exact=exact)


def conditional(
    program: Program,
    formula: Formula,
    evidence: Iterable[Literal],
    exact: bool = True,
):
    """P(formula | evidence) as a ratio of weighted counts."""
    program.external_probs()  # checked before relevant() drops unused externals
    # relevant() adds absent atoms as rule-less internals
    program, formula, evidence = relevant(program, formula, evidence)
    with_query, root = add_formula(to_weighted_cnf(program), formula)
    assumptions = [with_query.literal(lit) for lit in sorted(evidence)]
    shared = counter(with_query, exact, mark=root)
    denominator = wmc(with_query, assumptions, exact=exact, shared=shared)
    if denominator == 0 and not exact:
        # a float count of 0 may be an underflow; the exact count decides
        return float(conditional(program, formula, evidence, exact=True))
    if denominator == 0:
        raise ZeroEvidenceError("evidence has probability zero")
    # the count with the root literal true, kept by the search above
    numerator = wmc(with_query, assumptions + [root], exact=exact, shared=shared)
    return numerator / denominator


def dump_dimacs(cnf: WeightedCnf) -> str:
    """Weighted CNF in the standard model-counting text format."""
    lines = [f"p cnf {cnf.var_count} {len(cnf.clauses)}"]
    for var in range(1, cnf.var_count + 1):
        wt, wf = cnf.weights[var]
        lines.append(f"c p weight {var} {float(wt):.17g} 0")
        lines.append(f"c p weight {-var} {float(wf):.17g} 0")
    for clause in cnf.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"
