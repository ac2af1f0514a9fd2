"""Logic-program layer: dependency analysis, minimal models, world enumeration.

The dependency analysis runs once per query, on the program.  `analyse`
reads the dependency edges (body atom to head, over internal atoms) straight
off the clauses into per-atom successor lists, runs Tarjan's algorithm over
them once and returns a `Stratification`, a plain record of the SCCs and
the classification.  As many SCCs as atoms and no self-loop make the
program acyclic; otherwise `_classification`, the one test for the other
two classes, looks for an edge inside an SCC: a negative one is a cycle
through negation, and any other a positive cycle.  A program caches its
analysis as `Program.stratification`; programs are immutable, and the
programs that a query derives from it `inherit` it.  `Program.layout`, built
on first use, lays the program out on the bits of one integer (`Layout`): a
world is an integer whose bits are the externals, a model one that adds the
bits of the derived internals, and each rule a head bit with two body
masks, grouped into blocks in the topological order of the SCC
condensation.  Consecutive one-atom SCCs share one block that a single pass
evaluates, and each larger SCC gets a block of its own that is iterated to
its least fixpoint (stratified bottom-up evaluation, Apt, Blair & Walker
1988).  `minimal_model` runs that one evaluator, so no world builds a dict
or interprets a `Clause`.  The externals' weight table that every world's
probability is computed from (`WorldWeights`) is cached the same way, as
`Program.world_weights`, and a derived program shares it or restricts it to
its fewer externals.

The enumeration-based `marginal` is the reference implementation the WMC
backend is tested against.  A world is its index in a table of integer
weight numerators built once per program by doubling
(`WorldWeights.numerators`), and that index is also its mask, so the walk
counts through the indices.  Each walk compiles its formula once against
the layout, into nested closures over masks (`model.predicate`), so a world
costs one model call, one predicate call and one addition.  It sums the
numerators and divides once, so its answer is an exact `Fraction`.
"""
from __future__ import annotations

import enum
import math
import sys
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .model import (
    Clause,
    Formula,
    Literal,
    NegativeCycleError,
    Program,
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


Rule = tuple[int, int, int]  # (head bit, body mask, mask of the body's positive atoms)


class Layout:
    """A program's atoms as the bits of one integer, and its rules as masks over them.

    External j of the n sorted externals is bit ``1 << (n - 1 - j)``, so a
    world's index in the order of `WorldWeights.numerators` is its mask.
    Each internal atom that heads a rule takes one of the bits above.
    `bits` maps every atom with a bit to it; any other atom, a rule-less
    internal or one outside the alphabet, is always false, so a rule that
    reads it positively is dropped and its negation is dropped from the
    body.  A body that reads an atom both ways is dropped too.

    `blocks` holds one `(recursive, rules)` pair per block, in topological
    order.  Each rule is `(head, body, positive)`: it fires on a mask m when
    ``m & body == positive``, that is when every positive body atom is true
    and every negated one false.  A block is recursive when its SCC has
    more than one atom, and so a cycle (a positive one, unless the program
    is rejected).  A one-atom SCC is not, even with a self-loop: a rule such
    as ``a :- a, u.`` can only fire once `a` is true.  Consecutive
    non-recursive SCCs merge into one block, in which every rule comes after
    the rules of the atoms its body depends on.  Besides atoms of its own
    SCC, which it reads only positively, a rule reads atoms that earlier
    rules have settled, so negation never reads an atom that may still
    change.

    `Program.layout` builds one per program on first use, since only the
    world walks and `minimal_model` need it.
    """

    __slots__ = ("bits", "blocks")

    def __init__(self, components: list[list[str]], clauses: Iterable[Clause],
                 externals: Iterable[str]) -> None:
        # per head, its bodies; a dict drops duplicate rules and keeps their order
        bodies: dict[str, dict[frozenset[Literal], None]] = {}
        for clause in clauses:
            bodies.setdefault(clause.head, {})[clause.body] = None
        # Each SCC in the order `_sccs` discovered its atoms, the reverse of its
        # list, which follows the dependency edges: one pass over a recursive
        # block then carries a derivation along a path of them, not one step.
        ordered = [component[::-1] for component in reversed(components)]
        heads = [atom for atoms in ordered for atom in atoms if atom in bodies]
        externals = sorted(externals)
        n = len(externals)
        self.bits = {atom: 1 << (n - 1 - j) for j, atom in enumerate(externals)}
        self.bits.update((head, 1 << (n + k)) for k, head in enumerate(heads))
        self.blocks: list[tuple[bool, list[Rule]]] = []
        for atoms in ordered:
            rules = [rule for head in atoms for body in bodies.get(head, ())
                     if (rule := self._rule(head, body))]
            recursive = len(atoms) > 1
            if self.blocks and not recursive and not self.blocks[-1][0]:
                self.blocks[-1][1].extend(rules)
            elif rules:
                self.blocks.append((recursive, rules))

    def _rule(self, head: str, body: frozenset[Literal]) -> Optional[Rule]:
        pos = neg = 0
        for atom, positive in body:
            bit = self.bits.get(atom, 0)
            if not positive:
                neg |= bit
            elif not bit:
                return None
            else:
                pos |= bit
        return None if pos & neg else (self.bits[head], pos | neg, pos)

    def model(self, mask: int) -> int:
        """The perfect model of the world `mask`, as a mask: the world's bits and the derived ones.

        A non-recursive block is one pass over its rules; a recursive block
        repeats the pass until no rule adds a bit.
        """
        for recursive, rules in self.blocks:
            while True:
                before = mask
                for head, body, positive in rules:
                    if mask & body == positive:
                        mask |= head
                if not recursive or mask == before:
                    break
        return mask


class Stratification(NamedTuple):
    """A program's dependency analysis: its SCCs and its classification (`analyse`)."""

    components: list[list[str]]  # each dependency edge points to an earlier SCC
    classification: Classification


def analyse(clauses: Sequence[Clause], internals: frozenset[str]) -> Stratification:
    """The SCCs of `clauses` over `internals`, from one run of `_sccs`, and their class.

    Each internal atom's successors are the heads of the clauses whose body
    mentions it, deduplicated and sorted, so the SCCs come out in one order
    whatever the order of the clauses or of set iteration, and
    `wmc.to_weighted_cnf` numbers variables in that order.  As many SCCs as
    atoms and no self-loop leave no edge inside an SCC, so no cycle: the
    common case, decided without a second look at the clauses.
    """
    successors: dict[str, set[str]] = {}
    for clause in clauses:
        for atom, _ in clause.body:
            if atom in internals:
                successors.setdefault(atom, set()).add(clause.head)
    components = _sccs(internals, {atom: sorted(heads) for atom, heads in successors.items()})
    self_loop = any(atom in heads for atom, heads in successors.items())
    if len(components) == len(internals) and not self_loop:
        return Stratification(components, Classification.ACYCLIC)
    return Stratification(components, _classification(components, clauses))


def _classification(components: list[list[str]], clauses: Iterable[Clause]) -> Classification:
    """The classification of `clauses` with these SCCs: an edge inside one lies on a cycle."""
    component_of = {atom: i for i, component in enumerate(components) for atom in component}
    found = Classification.ACYCLIC
    for clause in clauses:
        home = component_of.get(clause.head)
        for atom, positive in clause.body:
            if component_of.get(atom, -1) == home:
                if not positive:
                    return Classification.NEGATIVE_CYCLE
                found = Classification.STRATIFIED_CYCLIC
    return found


def inherit(program: Program, parent: Program,
            components: Optional[list[list[str]]] = None) -> Program:
    """Seed `program`'s analyses from those of `parent`, which it derives from; returns it.

    `components` are `program`'s SCCs, each dependency edge pointing to an
    earlier one.  Without them `program` is a cone (`transforms.relevant`),
    of whole SCCs and closed under ancestors, so its SCCs are `parent`'s
    inside it, when `parent` is analysed and has all its internal atoms.
    A derived program has no cycle that `parent` lacks, so it is acyclic
    when `parent` is; else its own clauses are classified over its SCCs.
    Its `Program.layout` is built from its own clauses and externals.  It
    has `parent`'s facts on its externals, so it shares `parent`'s weight
    table, if built.
    """
    cache, built = program.__dict__, parent.__dict__
    if components is None and "stratification" in built and program.internals <= parent.internals:
        components = [c for c in parent.stratification.components if c[0] in program.internals]
    if components is not None:
        classification = parent.stratification.classification
        if classification is not Classification.ACYCLIC:
            classification = _classification(components, program.clauses)
        cache["stratification"] = Stratification(components, classification)
    if "world_weights" in built:
        cache["world_weights"] = parent.world_weights.restricted(program.externals)
    return program


def check_unique_supported_models(program: Program) -> Classification:
    """Syntactic classification: acyclicity guarantees unique supported models."""
    return program.stratification.classification


def minimal_model(program: Program, world: int | WorldAssignment) -> int | dict[str, bool]:
    """Perfect model of the program joined with an assignment of its externals.

    A world given as an index in the order of `WorldWeights.numerators` is
    its mask in the program's `Layout`, and the model comes back as a mask
    too.  A world given as a mapping reads an external true when its value
    is truthy and ignores a key that is not an external, and the model comes
    back as a dict of every internal atom, in the order of
    `program.internals`.  The layout is built on the first call.
    """
    if check_unique_supported_models(program) is Classification.NEGATIVE_CYCLE:
        raise NegativeCycleError("program has a cycle through negation")
    layout = program.layout
    if isinstance(world, int):
        return layout.model(world)
    bits = layout.bits
    model = layout.model(sum(bits[atom] for atom in program.externals if world.get(atom)))
    return {atom: bool(model & bits.get(atom, 0)) for atom in program.internals}


class WorldWeights:
    """Each external's integer weights when true and when false, over one denominator.

    With p = a / b in lowest terms, an external weighs a / b when true and
    (b - a) / b when false, so `pairs[atom]` is (a, b - a) and a world's
    weight is the product of the integers a or b - a over the product of the
    b's (`denominator`).  `numerators` holds every world's product: world i
    makes external j of the n sorted externals true when bit n - 1 - j of i
    is set, so i is the world's mask in the program's `Layout`.  The WMC
    encoder copies the pairs.
    """

    def __init__(self, pairs: dict[str, tuple[int, int]]) -> None:
        self.pairs = pairs
        self.denominator = math.prod(map(sum, pairs.values()))

    def restricted(self, externals: frozenset[str]) -> "WorldWeights":
        """The weights of `externals`, some or all of these, with no `Fraction` arithmetic."""
        if len(externals) == len(self.pairs):
            return self
        return WorldWeights({atom: self.pairs[atom] for atom in externals})

    @cached_property
    def numerators(self) -> list[int]:
        """Built on first use, since only the world walks need it: 2^n integers.

        The table doubles once per external, so it costs about as many
        multiplications as it has entries.  It lives as long as the program
        that caches this object.
        """
        table = [1]
        for atom in sorted(self.pairs):
            table = [weight * entry for weight in table for entry in self.pairs[atom][::-1]]
        return table


def marginal(program: Program, formula: Formula) -> Fraction:
    """Probability of `formula` by enumeration over all possible worlds.

    The formula is compiled once against the program's layout
    (`model.predicate`), and each world is its index in the program's weight
    table (`WorldWeights.numerators`), which is also its mask.
    """
    holds = predicate(formula, program.layout.bits)
    weights = program.world_weights
    total = 0
    for world, numerator in enumerate(weights.numerators):
        if holds(minimal_model(program, world)):
            total += numerator
    return Fraction(total, weights.denominator)
