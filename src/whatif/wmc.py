"""Weighted model counting backend.

Translates an acyclic program into a weighted CNF via Clark completion, with
the query's Tseitin clauses on top, and counts it with a DPLL-style counter
in exact integer arithmetic: the fact variables weigh their integer pairs of
`Program.world_weights`, every other variable 1.  Every answer is an exact
`Fraction`; `marginal_wmc`, which is `conditional` with no evidence, returns
`float()` of it with `exact=False`.

`encode_query` is the only builder of the CNF a query counts; `conditional`,
`whatif query --dump-cnf` and the counter benchmark use it; the command line
calls it for its file before answering, on every backend.  It encodes the
query and evidence atoms' ancestors in the program, found by
`to_weighted_cnf` itself, and the facts among them; the weights of every
other external sum to 1.  The completion (`to_weighted_cnf`) and the query's
formula (`add_formula`) are built from one memoised gate table,
`WeightedCnf.gate`: an atom is the or-gate of its bodies' and-gates, a
formula the gates of its junctions, and each distinct gate is defined once.
So atoms whose sets of bodies are equal, which Clark completion makes equal
in every world, share one literal; on a twin program this merges the two
copies of every atom that no intervention reaches (the node merging of Balke
& Pearl's twin networks).  A gate of one part is that part, so an atom whose
one rule is `h :- v.` or `h :- \\+v.` takes v's literal or its negation,
chains of such rules cost no variable and no clause, and a query equal to an
atom's definition takes its literal.  Facts of probability 0 or 1 and
intervened atoms are constants: one variable T, fixed by its unit clause,
and its negation, which `gate` alone folds out of every other clause, so the
counter never branches on a variable of weight zero; a gate of a literal and
its negation is ¬T, or T for an or-gate.  The query and the evidence need no
renaming, as their atoms are looked up in the same literal map.  A gate's
variable is numbered after its parts' and every clause of its definition
starts with its literal; the counter (`definitional=True`) reads it there
and counts a component made only of definitions without search.

`conditional` answers P(q | e) = P(q ∧ e) / P(e) with one search over one
counter whose marked literal is the query's root literal; the Tseitin
definitions are equivalences over auxiliaries that weigh 1, so the same
CNF also gives P(e).  Its first `wmc` call searches under the evidence and
returns P(e); the search carries the count restricted to the marked literal
along, so the second call, with the root literal added, returns P(q ∧ e)
without searching again.  With no evidence P(e) is 1, and one search with
the root literal assumed counts P(q) on an unmarked counter.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import neg
from typing import Collection, Iterable, Optional, Sequence

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
    formula_atoms,
)
from .semantics import Classification, _classification, analyse, check_unique_supported_models
from .transforms import ancestors

# There is no compiled kernel; the benchmark still reports this flag.
HAVE_COMPILED_COUNTER = False
_TRUE = (True, frozenset())  # the key of T, the and-gate of no parts, in `WeightedCnf.gates`


@dataclass
class WeightedCnf:
    var_count: int
    clauses: list[tuple[int, ...]]
    weights: dict[int, tuple[int, int]]  # var of a fact in (0, 1) -> integers (w_true, w_false)
    var_map: dict[str, int]  # atom -> its literal
    scale: int  # the product of the facts' denominators, which every count is over
    # (conjunctive, parts) -> the gate's variable, for each gate `gate` has defined
    gates: dict[tuple[bool, frozenset[int]], int] = field(default_factory=dict)

    def literal(self, lit: Literal) -> int:
        var = self.var_map[lit.atom]
        return var if lit.positive else -var

    def copy(self) -> "WeightedCnf":
        """A copy for more clauses and variables; `weights` is shared, as no caller writes it."""
        return WeightedCnf(self.var_count, list(self.clauses), self.weights,
                           dict(self.var_map), self.scale, dict(self.gates))

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count

    def gate(self, parts: Sequence[int], conjunctive: bool) -> int:
        """A literal equal to and(parts), or to or(parts); each distinct gate is defined once.

        T, the and of no parts, is the one constant, fixed by its unit clause;
        ¬T, the or of none, is false.  They fold out here alone: a part that is
        the gate's zero decides it, as do a part and its negation; a unit part
        drops, and a single part is itself.  A new gate's variable is numbered
        after its parts', and each clause defining it starts with its literal.
        """
        if len(parts) == 1:
            return parts[0]
        key = frozenset(parts)
        unit = self.gates.get(_TRUE, 0)  # T, once defined
        if not conjunctive:
            unit = -unit
        if -unit in key:
            return -unit
        if unit in key:
            key -= {unit}
        if len(key) == 1:
            (part,) = key
            return part
        if not (key or conjunctive):
            return -self.gate(key, True)
        out = self.gates.get((conjunctive, key))
        if out is None:
            if not key.isdisjoint(map(neg, key)):  # and(x, ¬x, ...) is ¬T, or(x, ¬x, ...) T
                return self.gate((), not conjunctive)
            out = self.gates[conjunctive, key] = self.new_var()
            parts = sorted(key)
            if conjunctive:
                self.clauses.extend((-out, part) for part in parts)
                self.clauses.append((out, *[-part for part in parts]))
            else:
                self.clauses.append((-out, *parts))
                self.clauses.extend((out, -part) for part in parts)
        return out


def to_weighted_cnf(program: Program, roots: Optional[Collection[str]] = None) -> WeightedCnf:
    """Clark-completion encoding; model weights are in bijection with worlds.

    With `roots`, only their `transforms.ancestors` are encoded and
    classified, and a root absent from the program is a rule-less atom; the
    SCCs are the program's, when it is analysed, as for a `relevant` cone.
    Each external strictly between 0 and 1 gets a weighted variable, in
    sorted order; one of probability 1 is T and one of probability 0 is ¬T.
    Internal atoms are visited bottom-up, and each is the or-gate of its
    bodies' and-gates (`WeightedCnf.gate`), over its body atoms' literals.
    So atoms with equal sets of bodies, which Clark completion makes equal
    in every world, share one literal; a rule-less atom is ¬T, and an atom
    whose one rule is `h :- v.` or `h :- \\+v.` takes v's literal or its
    negation.  A body made only of true literals (a fact clause is one)
    makes the head T before any of its other bodies is gated.
    """
    by_head = program.clauses_by_head()
    reached = ancestors(by_head, program.internals | program.externals if roots is None else roots)
    table = program.world_weights.restricted(program.externals & reached)
    internals = frozenset(reached - program.externals)
    if "stratification" in program.__dict__ and internals <= program.internals:
        components = [c for c in program.stratification.components if c[0] in reached]
        classification = check_unique_supported_models(program)
        if classification is not Classification.ACYCLIC:
            classification = _classification(components, program.clauses)
    else:  # analysed alone, as `semantics.inherit` leaves a cone its program cannot seed
        clauses = [clause for atom in internals for clause in by_head.get(atom, ())]
        components, classification = analyse(clauses, internals)
    if classification is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    if classification is not Classification.ACYCLIC:
        raise ValidationError("WMC backend requires an acyclic program")

    cnf = WeightedCnf(0, [], {}, {}, table.denominator)
    var_map, gate = cnf.var_map, cnf.gate
    for atom, (wt, wf) in sorted(table.pairs.items()):
        if wt and wf:
            var = var_map[atom] = cnf.new_var()
            cnf.weights[var] = (wt, wf)
        else:  # probability 1 or 0: T or ¬T
            var_map[atom] = gate((), bool(wt))
    for (atom,) in reversed(components):  # acyclic: singletons
        bodies = [[var_map[a] if positive else -var_map[a] for a, positive in clause.body]
                  for clause in by_head.get(atom, ())]
        true = {cnf.gates.get(_TRUE)}
        if any(map(true.issuperset, bodies)):
            var_map[atom] = gate((), True)
        else:
            var_map[atom] = gate([gate(body, True) for body in bodies], False)
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
        return cnf.gate([_encode(cnf, part) for part in formula.operands], isinstance(formula, And))
    raise TypeError(f"not a formula: {formula!r}")


def encode_query(
    program: Program, formula: Formula, evidence: Iterable[Literal] = ()
) -> tuple[WeightedCnf, int, list[int]]:
    """The CNF counted for P(formula | evidence), its root and evidence literals."""
    evidence = sorted(evidence)
    roots = formula_atoms(formula) | {lit.atom for lit in evidence}
    cnf, root = add_formula(to_weighted_cnf(program, roots), formula)
    return cnf, root, [cnf.literal(lit) for lit in evidence]


def counter(cnf: WeightedCnf, mark: int = 0) -> ModelCounter:
    """A counter over `cnf` with `mark` as its marked literal (0 marks none)."""
    return ModelCounter(cnf.var_count, cnf.clauses, cnf.weights, cnf.scale, mark,
                        definitional=True)


def wmc(
    cnf: WeightedCnf,
    assumptions: Iterable[int] = (),
    shared: Optional[ModelCounter] = None,
) -> Fraction:
    """Exact weighted count of models consistent with the assumption literals.

    Searches a fresh counter, or `shared`, a `counter(cnf, ...)` kept across
    calls, whose cache and last marked count are then reused.
    """
    assumptions = list(assumptions)
    for lit in assumptions:
        if not 1 <= abs(lit) <= cnf.var_count:
            raise ValidationError(f"assumption references unknown variable: {lit}")
    if shared is None:
        shared = counter(cnf)
    return shared.count(assumptions)


def marginal_wmc(program: Program, formula: Formula, exact: bool = True):
    """P(formula): `conditional` with no evidence, on a validated program it does not check."""
    answer = conditional(program, formula, ())
    return answer if exact else float(answer)


def conditional(program: Program, formula: Formula, evidence: Iterable[Literal]) -> Fraction:
    """P(formula | evidence) as a ratio of weighted counts; the one query entry.

    Expects a validated program (`model.validate_program`); it is not checked here.
    """
    cnf, root, assumptions = encode_query(program, formula, evidence)
    if not assumptions:  # P(true) is 1: one search with the root literal assumed
        return wmc(cnf, [root])
    shared = counter(cnf, mark=root)
    denominator = wmc(cnf, assumptions, shared=shared)
    if denominator == 0:
        raise ZeroEvidenceError("evidence has probability zero")
    # the count with the root literal true, kept by the search above
    return wmc(cnf, assumptions + [root], shared=shared) / denominator


def dump_dimacs(cnf: WeightedCnf) -> str:
    """Weighted CNF in the standard model-counting text format.

    Only the variables of facts strictly between 0 and 1 get `c p weight`
    lines, with their probabilities; as in the model-counting competition
    format, an unlisted literal weighs 1.
    """
    lines = [f"p cnf {cnf.var_count} {len(cnf.clauses)}"]
    for var, (wt, wf) in sorted(cnf.weights.items()):
        lines.append(f"c p weight {var} {wt / (wt + wf):.17g} 0")
        lines.append(f"c p weight {-var} {wf / (wt + wf):.17g} 0")
    for clause in cnf.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"
