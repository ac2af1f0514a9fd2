"""Logic-program layer: dependency analysis, minimal models, world enumeration.

The dependency analysis (`Stratification`) runs once per `Program` instance,
which caches it as `Program.stratification`; programs are immutable.  It
reads the dependency edges (body atom to head, over internal atoms) straight
off the clauses into per-atom successor lists, runs Tarjan's algorithm over
them once, and classifies the program from the SCCs: a negative edge inside
an SCC is a cycle through negation, and an SCC of two or more atoms or a
self-loop is a cycle.  On first use it also compiles the clauses into
blocks of rules, in the topological order of the SCC condensation:
consecutive one-atom SCCs share one block that a single pass evaluates, and
each larger SCC gets a block of its own that is iterated to its least
fixpoint (stratified bottom-up evaluation, Apt, Blair & Walker 1988).  The
blocks then become the source of one Python function per program
(`Stratification.model`), compiled once, in which each atom is a local
variable and each rule one ``if``.  `minimal_model` only calls it, so no
world pays for interpreting the rules.  The externals' weight table that
every world's probability is computed from (`WorldWeights`) is cached the
same way, as `Program.world_weights`.

The enumeration-based `marginal` is the reference implementation the WMC
backend is tested against.  Each walk compiles its formula once, into nested
closures (`model.predicate`), and reads each world's integer weight
numerator from a table built once per program by doubling
(`WorldWeights.numerators`), so a world costs one model call, one predicate
call and one addition.  It sums the numerators and divides once, so its
answer is an exact `Fraction`.
"""
from __future__ import annotations

import enum
import itertools
import sys
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    Formula,
    NegativeCycleError,
    Program,
    ValidationError,
    predicate,
)

WorldAssignment = Mapping[str, bool]


class Classification(enum.Enum):
    ACYCLIC = "acyclic"
    STRATIFIED_CYCLIC = "stratified_cyclic"
    NEGATIVE_CYCLE = "negative_cycle"


def _sccs(vertices: frozenset[str], successors: Mapping[str, list[str]]) -> list[list[str]]:
    """Tarjan's algorithm, iterative; returns SCCs in reverse topological order.

    A vertex whose SCC is complete gets the index `done`, above every other
    index, so it never lowers a lowlink and no on-stack set is needed.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack: list[str] = []
    components: list[list[str]] = []
    done = sys.maxsize

    for root in sorted(vertices):
        if root in index:
            continue
        work = [(root, iter(successors.get(root, ())))]
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        while work:
            vertex, it = work[-1]
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    break
                if index[succ] < lowlink[vertex]:
                    lowlink[vertex] = index[succ]
            else:  # every successor done: vertex is finished
                work.pop()
                low = lowlink[vertex]
                if work and low < lowlink[parent := work[-1][0]]:
                    lowlink[parent] = low
                if low == index[vertex]:
                    component = []
                    while True:
                        member = stack.pop()
                        index[member] = done
                        component.append(member)
                        if member == vertex:
                            break
                    components.append(component)
    return components


Rule = tuple[str, frozenset[str], frozenset[str]]  # (head, positive body, negative body)


class Stratification:
    """Classification and compiled rules of one program, from one run of `_sccs`.

    Each internal atom's successors are the heads of the clauses whose body
    mentions it, deduplicated and sorted, so the SCCs come out in one order
    whatever the order of the clauses or of set iteration, and
    `wmc.to_weighted_cnf` numbers variables in that order.  Only the edges
    through negation are kept as pairs, to tell a negative cycle from a
    positive one.

    The blocks are built on first use, since only `minimal_model` needs them,
    through the function `model` generates from them: one
    `(recursive, rules)` pair per block, in topological order, where each
    rule is `(head, positive body atoms, negative body atoms)`.  A block is
    recursive when its SCC has more than one atom, and so a cycle (a positive
    one, unless the program is rejected).  A one-atom SCC is not, even with a
    self-loop: a rule such as ``a :- a, u.`` can only fire once `a` is true.
    Consecutive non-recursive SCCs merge into one block, in which every rule
    comes after the rules of the atoms its body depends on.
    """

    def __init__(self, program: Program) -> None:
        internals = program.internals
        successors: dict[str, set[str]] = {}
        negative: list[tuple[str, str]] = []
        for clause in program.clauses:
            head = clause.head
            for atom, positive in clause.body:
                if atom in internals:
                    successors.setdefault(atom, set()).add(head)
                    if not positive:
                        negative.append((atom, head))
        self.components = _sccs(
            internals, {atom: sorted(heads) for atom, heads in successors.items()}
        )
        # an edge inside one SCC lies on a cycle: an SCC of two or more atoms, or a self-loop
        if len(self.components) == sum(map(len, self.components)) and not any(
            atom in heads for atom, heads in successors.items()
        ):
            self.classification = Classification.ACYCLIC
        else:
            component_of = {v: i for i, comp in enumerate(self.components) for v in comp}
            self.classification = (
                Classification.NEGATIVE_CYCLE
                if any(component_of[src] == component_of[dst] for src, dst in negative)
                else Classification.STRATIFIED_CYCLIC
            )
        # not the program, which holds this object
        self._clauses, self._alphabet = program.clauses, program.alphabet

    @cached_property
    def blocks(self) -> list[tuple[bool, tuple[Rule, ...]]]:
        by_head: dict[str, dict[Rule, None]] = {}  # a dict drops duplicate rules, keeps order
        for clause in self._clauses:
            pos = frozenset(lit.atom for lit in clause.body if lit.positive)
            neg = frozenset(lit.atom for lit in clause.body if not lit.positive)
            by_head.setdefault(clause.head, {})[clause.head, pos, neg] = None
        blocks: list[tuple[bool, list[Rule]]] = []
        for component in reversed(self.components):
            rules = [rule for head in component for rule in by_head.get(head, ())]
            recursive = len(component) > 1
            if blocks and not recursive and not blocks[-1][0]:
                blocks[-1][1].extend(rules)
            elif rules:
                blocks.append((recursive, rules))
        return [(recursive, tuple(rules)) for recursive, rules in blocks]

    @cached_property
    def model(self) -> Callable[[WorldAssignment], dict[str, bool]]:
        """The blocks as one generated Python function from a world to the model.

        Each atom a rule reads is a local variable: a head starts false, and
        an external is read once, as its value in the world (so a world key
        that is not an external is ignored).  Any other atom, a rule-less
        internal or one outside the alphabet, is the constant false: a rule
        that reads it positively is dropped, and its negation is dropped from
        the body.  A non-recursive block is one ``if`` per rule, in block
        order; a recursive block repeats its rules in a ``while`` loop until
        none fires.  Besides atoms of its own SCC, which it reads only
        positively, a rule reads atoms that earlier rules have settled, so
        negation never reads an atom that may still change.  The function
        returns every internal atom in the order of the program's
        `internals`.  Atom names never enter the source, which only holds
        generated variable names: the names are bound as tuples of values in
        the function's own globals, so no name is parsed as code, and the
        source runs with no builtins.
        """
        internals = list(self._alphabet.internals)
        heads = {head for _, rules in self.blocks for head, _, _ in rules}
        read = {atom for _, rules in self.blocks for _, pos, neg in rules for atom in pos | neg}
        externals = sorted(read & self._alphabet.externals)
        local = {atom: f"v{i}" for i, atom in enumerate(internals) if atom in heads}
        local.update((atom, f"x{i}") for i, atom in enumerate(externals))

        lines = ["def model(world):"]
        if externals:
            lines.append(f"    {', '.join(local[a] for a in externals)}, = map(world.get, keys)")
        if heads:
            lines.append(f"    {' = '.join(local[a] for a in internals if a in heads)} = False")
        for recursive, rules in self.blocks:
            indent = "    "
            if recursive:
                lines += ["    changed = True", "    while changed:", "        changed = False"]
                indent = "        "
            for head, pos, neg in rules:
                if not local.keys() >= pos:
                    continue  # it reads an atom that is always false
                target = local[head]
                terms = [local[a] for a in sorted(pos)]
                terms += [f"not {local[a]}" for a in sorted(neg) if a in local]
                if recursive:
                    terms.insert(0, f"not {target}")
                    target += " = changed"
                test = " and ".join(terms)
                lines.append(f"{indent}if {test}: {target} = True" if test
                             else f"{indent}{target} = True")
        values = ", ".join(local.get(atom, "False") for atom in internals)
        lines.append(f"    return dict(zip(names, [{values}]))")
        namespace = {"__builtins__": {}, "keys": tuple(externals), "names": tuple(internals),
                     "dict": dict, "map": map, "zip": zip}
        exec("\n".join(lines), namespace)
        return namespace.pop("model")  # not left in its own globals, a reference cycle


def check_unique_supported_models(program: Program) -> Classification:
    """Syntactic classification: acyclicity guarantees unique supported models."""
    return program.stratification.classification


def minimal_model(program: Program, world: WorldAssignment) -> dict[str, bool]:
    """Perfect model of the program joined with the given external assignment.

    An external reads true when its value in `world` is truthy; a world key
    that is not an external is ignored, and a body atom outside the alphabet
    reads false.  Returns every internal atom, in the order of
    `program.internals`, from the program's generated function
    (`Stratification.model`), which is built on the first call.
    """
    if check_unique_supported_models(program) is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    return program.stratification.model(world)


def worlds(program: Program) -> Iterator[dict[str, bool]]:
    """All external assignments, in sorted-atom binary order."""
    atoms = sorted(program.externals)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def products(rows: Iterable[Sequence[int]]) -> list[int]:
    """Every product of one entry per row, in the order `itertools.product(*rows)` yields.

    Built by doubling, one row at a time, so the whole table costs about as
    many multiplications as it has entries; a world walk zips it with its
    worlds instead of multiplying out each world's weight.
    """
    table = [1]
    for row in rows:
        table = [weight * entry for weight in table for entry in row]
    return table


class WorldWeights:
    """Each external's integer weights when true and when false, over one denominator.

    With p = a / b in lowest terms, an external weighs a / b when true and
    (b - a) / b when false, so `pairs[atom]` is (a, b - a) and a world's
    weight is the product of the integers a or b - a over the product of the
    b's (`denominator`).  `numerators` holds every world's product, in the
    order of `worlds`.  The WMC encoder copies the pairs.
    """

    def __init__(self, program: Program) -> None:
        probs = program.fact_probs()
        if missing := sorted(program.externals - probs.keys()):
            raise ValidationError(f"external atom without random fact: {', '.join(missing)}")
        self.pairs, self.denominator = {}, 1
        for atom in program.externals:
            p = probs[atom]
            self.pairs[atom] = (p.numerator, p.denominator - p.numerator)
            self.denominator *= p.denominator

    @cached_property
    def numerators(self) -> list[int]:
        """Built on first use, since only the world walks need it: 2^n integers.

        The table lives as long as the program that caches this object.
        """
        return products(self.pairs[atom][::-1] for atom in sorted(self.pairs))


def marginal(program: Program, formula: Formula) -> Fraction:
    """Probability of `formula` by enumeration over all possible worlds.

    The formula is compiled once (`model.predicate`), and each world's weight
    numerator comes from the program's table (`WorldWeights.numerators`).
    """
    holds = predicate(formula)
    weights = program.world_weights
    total = 0
    for world, numerator in zip(worlds(program), weights.numerators):
        model = minimal_model(program, world)
        model.update(world)
        if holds(model):
            total += numerator
    return Fraction(total, weights.denominator)
