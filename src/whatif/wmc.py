"""Weighted model counting backend.

Translates an acyclic program into a weighted CNF via Clark completion, with
auxiliary variables for the bodies of atoms with two or more rules, and
counts with a DPLL-style counter in exact integer arithmetic: the fact
variables weigh their integer pairs of `Program.world_weights`, every other
variable 1.  Facts of probability 0 or 1 and intervened atoms are constants
that the encoder folds out of the CNF, so the counter never branches on a
variable of weight zero.  Every answer is an exact `Fraction`;
`marginal_wmc`, which is `conditional` with no evidence, returns `float()`
of it with `exact=False`.

`encode_query` is the only builder of the CNF a query counts; `conditional`,
`whatif query --dump-cnf` and the counter benchmark use it; the command line
calls it for its file before answering, on every backend.
It first prunes the program with `transforms.relevant` to the ancestors of
the query and evidence atoms and the facts they mention (the weights of
every other external sum to 1).  `to_weighted_cnf` then gives one variable
to atoms whose sets of bodies are equal once their body atoms share
variables, since Clark completion makes such atoms equal in every world.  On
a twin program this merges the two copies of every atom that no
intervention reaches (the node merging of Balke & Pearl's twin networks).
An atom with one rule is that rule's body conjunction, with no auxiliary,
and an atom whose one rule is `h :- v.` takes v's variable, so chains of
such rules cost no variable and no clause.  The query and the evidence need
no renaming, as their atoms are looked up in the same variable map.  Clark
completion and the query's Tseitin clauses are written by one definer,
`_define`, which puts the literal of the variable each clause helps define
first; the counter (`definitional=True`) reads it there and counts a
component made only of definitions without search.

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

_FACT_KEY = frozenset({frozenset()})  # the key of the true variable: a fact clause


@dataclass
class WeightedCnf:
    var_count: int
    clauses: list[tuple[int, ...]]
    weights: dict[int, tuple[int, int]]  # var of a fact in (0, 1) -> integers (w_true, w_false)
    var_map: dict[str, int]
    scale: int  # the product of the facts' denominators, which every count is over
    true: frozenset[int] = frozenset()  # the literals fixed true: T and -F
    false: frozenset[int] = frozenset()  # and those fixed false: -T and F

    def literal(self, lit: Literal) -> int:
        var = self.var_map[lit.atom]
        return var if lit.positive else -var

    def copy(self) -> "WeightedCnf":
        """A copy for more clauses and variables; `weights` is shared, as no caller writes it."""
        return WeightedCnf(self.var_count, list(self.clauses), self.weights,
                           dict(self.var_map), self.scale, self.true, self.false)

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count


def to_weighted_cnf(program: Program) -> WeightedCnf:
    """Clark-completion encoding; model weights are in bijection with worlds.

    Internal atoms are visited bottom-up and keyed by their set of bodies,
    written as CNF literals; an atom whose key matches an earlier atom's
    shares that atom's variable, since Clark completion makes the two equal
    in every world.  A fact clause decides the key alone, so every atom with
    one, and every fact of probability 1, shares one true variable T; every
    rule-less atom, and every fact of probability 0, one false variable F.
    The key folds T and F out of the bodies: a true literal is dropped, and
    so is a body with a false one; a body left empty makes the head T, and
    no body left makes it F.  So only T's and F's unit clauses mention them.
    Each variable v is also the key {{v}}, so an atom whose one rule's body
    is the positive literal v takes v's variable.  Any other atom with one
    body is defined as that body's conjunction; only an atom with two or
    more bodies gets an auxiliary per body of two or more literals.
    Variables are numbered as they are defined: externals in sorted order,
    then each new key's head and the auxiliaries of its bodies; T and F
    where they are first needed.
    """
    classification = check_unique_supported_models(program)
    if classification is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    if classification is not Classification.ACYCLIC:
        raise ValidationError("WMC backend requires an acyclic program")

    cnf = WeightedCnf(0, [], {}, {}, program.world_weights.denominator)
    # set of bodies -> the variable of its atoms; {{v}} -> v itself
    defined: dict[frozenset, int] = {}
    for atom, (wt, wf) in sorted(program.world_weights.pairs.items()):
        if wt and wf:
            var = cnf.var_map[atom] = cnf.new_var()
            cnf.weights[var] = (wt, wf)
            defined[frozenset({frozenset({var})})] = var
        else:  # probability 1 or 0: a fact clause, or no rule
            key = _FACT_KEY if wt else frozenset()
            cnf.var_map[atom] = defined.get(key) or _variable(cnf, defined, key)

    by_head = program.clauses_by_head()
    for (atom,) in reversed(program.stratification.components):  # acyclic: singletons
        key = frozenset([frozenset(map(cnf.literal, c.body)) for c in by_head.get(atom, ())])
        if frozenset() in key:  # a fact clause makes the head true
            key = _FACT_KEY
        cnf.var_map[atom] = defined.get(key) or _variable(cnf, defined, key)
    return cnf


def _variable(cnf: WeightedCnf, defined: dict[frozenset, int], key: frozenset) -> int:
    """The variable of a key not in `defined`: that of the key with T and F folded out, or new.

    Every key in `defined` gives the variable of its folded form, so needs no fold.
    """
    for body in key:
        if not (body.isdisjoint(cnf.true) and body.isdisjoint(cnf.false)):
            folded = frozenset([each - cnf.true for each in key if each.isdisjoint(cnf.false)])
            if frozenset() in folded:  # a body left empty makes the head true
                folded = _FACT_KEY
            defined[key] = var = defined.get(folded) or _variable(cnf, defined, folded)
            return var
    head = defined[key] = cnf.new_var()
    defined[frozenset({frozenset({head})})] = head
    if key == _FACT_KEY or not key:  # T, or F: a unit clause, and a constant to fold
        fixed = head if key else -head
        cnf.clauses.append((fixed,))
        cnf.true, cnf.false = cnf.true | {fixed}, cnf.false | {-fixed}
    elif len(key) == 1:  # the head is its one body's conjunction, with no auxiliary
        (body,) = key
        _define(cnf, head, sorted(body), True)
    else:
        disjuncts = [_join(cnf, sorted(body), True) for body in sorted(key, key=sorted)]
        _define(cnf, head, disjuncts, False)
    return head


def _define(cnf: WeightedCnf, out: int, parts: list[int], conjunctive: bool) -> None:
    """Append the clauses of out <-> and(parts), or of out <-> or(parts), each starting with out."""
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
        conjunctive = isinstance(formula, And)
        parts = [_encode(cnf, part) for part in formula.operands]
        # fold T and F out: a part that is the junction's zero decides it, and units drop
        zero, unit = (cnf.false, cnf.true) if conjunctive else (cnf.true, cnf.false)
        for part in parts:
            if part in zero:
                return part
        kept = [part for part in parts if part not in unit]
        return _join(cnf, kept, conjunctive) if kept or not parts else parts[0]
    raise TypeError(f"not a formula: {formula!r}")


def encode_query(
    program: Program, formula: Formula, evidence: Iterable[Literal] = ()
) -> tuple[WeightedCnf, int, list[int]]:
    """The CNF counted for P(formula | evidence), its root and evidence literals."""
    program.world_weights  # checked before relevant() drops unused externals
    evidence = sorted(evidence)
    # relevant() adds absent atoms as rule-less internals
    cnf, root = add_formula(to_weighted_cnf(relevant(program, formula, evidence)), formula)
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
