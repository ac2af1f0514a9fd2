"""Pure-Python weighted model counter.

DPLL-style search with component caching over one clause database per
counter, in the manner of sharpSAT (Thurley, SAT 2006) and Cachet (Sang et
al., SAT 2004).  The first `count` builds the database once: the clauses of
two or more literals, the occurrence map `literal → clause ids`, the
assignment (`state`), all lists indexed by literal (literal -v wraps to its
own slot at the end), and two counters per clause, its literals not yet
false (`free`) and its literals true (`sat`).

Expanding a component assigns its seed literals (the assumptions and the
unit clauses at the root, the branch literal below it) and runs unit
propagation as a FIFO queue.  Each assigned literal updates both counters of
every clause it occurs in, multiplies in its weight and goes on the
expansion's trail.  When the node of an expansion finishes, `_search`
undoes the trail, so every node sees the assignments of its ancestors and
its own, and no clause is copied or shortened.

One breadth-first pass over the occurrence map then splits the expansion's
unassigned variables into connected components, through the clauses with no
true literal, and multiplies in the weight sum of each variable left in no
such clause.  On the way it counts each variable's degree: its occurrences
in the component's clauses.  A component is its sorted variable ids and its
sorted clause ids.  Under the node's assignment these two fix the residual
clauses (each clause's literals over those variables), so both are packed
into one `bytes` key.

Each search node is a generator (`_node`) over the components of one
expansion.  It looks each component up in an LRU cache whose keys and
values together hold at most `CACHE_BYTES` bytes (`_entry_bytes`).  On a
miss it picks the variable of highest degree (ties to the lowest index) and
yields the two branches, positive first; it is sent back each branch's count
and stores their sum.  `_search` drives the nodes on a plain list, so the
search depth is not limited by the interpreter's recursion limit.

A counter may carry one *marked literal* m (in the counterfactual backend,
the root literal of the query).  A search under assumptions A then yields
the pair count(A), count(A ∪ {m}) at once: every value in the search is a
pair (t, q), where q is t restricted to m being true.  Only the end of
`_expand` treats m specially: q = 0 when this expansion assigned m false;
when m's variable is left in no clause, t takes its weight sum and q only
m's weight; otherwise q = t (m true, or m's variable not in the node or still
in one of its components).  "This expansion" matters: a ¬m assigned by an
ancestor is that ancestor's zero, and reading it from the shared assignment
here would cache a component's pair with q = 0 under one context and hand it
to another where m is true or free.  Products and branch sums act on both
halves, and the cache stores pairs; propagation, cache keys and the
branching rule are those of an unmarked search.  A node whose factor t is 0
is not expanded further: with non-negative weights, as probabilities are,
its q is 0 too.  `count(A)` returns t and keeps q, so a following
`count(A + [m])` returns q without a second search.

A counter may also be told the variable each clause helps define
(`defines`; 0 only for a unit clause).  Each defined variable v must have a
complete definition v <-> and(parts) or v <-> or(parts) whose clauses all
name v, the definitions must be acyclic, and v must weigh 1 either way, as
the wmc encoder's Clark completion and Tseitin gates do.  The component
pass marks a component *definitional* when every clause it takes defines a
variable that is still unassigned.  Such a component needs no search.
Propagation has run to its fixpoint, so the open clauses of an unassigned
v's definition define v over its unassigned parts, and one is left (else v
would be assigned), which puts v in the component of its definition.  So
the component's other variables are undefined and free, and the acyclic
definitions extend each of their assignments in exactly one way: the count
is the product of `free_weight`, the weight sum of an undefined variable and
1 for a defined one.  Without the marked variable the component is
multiplied in like a freed variable, with no cache key and no node; with
it, t is that product and q the count of one expansion with m assumed.
With no `defines`, the default, no component is definitional.

Every count is exact and in integers.  A variable weighs the integers
(wt, wf) given for it, or 1 either way if none are; in the wmc backend the
facts weigh (a, b - a) for p = a / b.  A count in these integers is the
rational count times the given `scale`, there the product of the b's, and
`count` returns their `Fraction`.
"""
from __future__ import annotations

from array import array
from collections import OrderedDict
from fractions import Fraction
from itertools import repeat
from math import prod
from sys import getsizeof
from typing import Iterable, Sequence

CACHE_BYTES = 1 << 28  # bytes of cache keys and values kept before the least recently used go


def _entry_bytes(key: bytes, value: tuple) -> int:
    """Bytes held by one cache entry: its key, its pair and the pair's two counts."""
    return getsizeof(key) + getsizeof(value) + getsizeof(value[0]) + getsizeof(value[1])


class ModelCounter:
    """Counts over a fixed clause set; one instance per query (mutable cache).

    The variables are 1 to `var_count`.  `weights` maps a variable to its
    integer weights (wt, wf); a variable with no entry weighs 1 either way.
    `count` divides by `scale`.  `mark` is the marked literal; 0, the
    default, marks none.  `defines`, empty or aligned with `clauses`, gives
    the variable each clause helps define (see the module docstring); a
    defined variable may carry no weight.  The clauses are read on the first
    `count`.
    """

    def __init__(self, var_count: int, clauses: Sequence[Sequence[int]],
                 weights: dict[int, tuple[int, int]], scale: int, mark: int = 0,
                 defines: Sequence[int] = ()):
        if defines and len(defines) != len(clauses):
            raise ValueError(f"{len(defines)} defined variables for {len(clauses)} clauses")
        if any(map(weights.__contains__, defines)):
            raise ValueError("a defined variable carries a weight")
        self.defines = defines
        self.var_count = var_count
        self.weights = weights
        self.scale = scale
        self.cache: OrderedDict[bytes, tuple] = OrderedDict()
        self.cache_bytes = 0  # held by the cache's keys and values, see `_entry_bytes`
        self.clauses = clauses
        self.root = None  # (unit literals, variables, or None if a clause is empty)
        self.mark = mark
        self.marked = None  # (assumptions, scaled count with `mark` true) of the last search

    def _build_root(self):
        """The unit literals and variables of the root; builds the clause database.

        Unit clauses seed the root's propagation queue; an empty clause is
        never satisfied.
        """
        units, body, heads = [], [], []
        for clause, head in zip(map(tuple, self.clauses), self.defines or repeat(0)):
            if len(clause) > 1:
                body.append(clause)
                heads.append(head)
            elif clause:
                units.append(clause[0])
            else:
                return units, None
        places = self.var_count + 1  # per variable
        slots = 2 * places - 1  # per literal; literal -v is slot slots - v
        self.lit_weight = [1] * slots
        self.wsum = [2] * places
        for var, (wt, wf) in self.weights.items():
            self.lit_weight[var] = wt
            self.lit_weight[-var] = wf
            self.wsum[var] = wt + wf
        self.heads = heads if self.defines else ()  # per body clause, the variable it defines
        self.free_weight = list(self.wsum)  # of a variable in a definitional component
        for head in self.heads:
            self.free_weight[head] = 1  # its definition fixes its value
        self.occ = [[] for _ in range(slots)]
        for idx, clause in enumerate(body):
            for lit in clause:
                self.occ[lit].append(idx)
        self.occ_var = [self.occ[v] + self.occ[-v] for v in range(places)]
        self.body = body
        self.clause_vars = [tuple(map(abs, clause)) for clause in body]
        self.free = [len(clause) for clause in body]  # literals not yet false
        self.sat = [0] * len(body)  # literals true
        self.state = bytearray(slots)  # per literal: 1 true, 2 false, 0 unassigned
        self.degree = [0] * places  # per variable, set by the component pass
        self.stamp = [0] * places  # the number of the component pass that last reached it
        self.passes = 0
        # ids of both kinds are packed into the cache keys in the smallest unsigned type
        self.id_code = "H" if max(places, len(body)) <= 1 << 16 else "I"
        return units, range(1, places)

    def count(self, assumptions: Iterable[int] = ()) -> Fraction:
        assumptions = tuple(assumptions)
        if self.mark and self.marked and assumptions == self.marked[0] + (self.mark,):
            return Fraction(self.marked[1], self.scale)
        if self.root is None:
            self.root = self._build_root()
        units, variables = self.root
        if variables is None:
            return Fraction(0)
        try:
            total, marked = self._search(variables, [*units, *assumptions])
        except BaseException:
            self.root = None  # an interrupted search leaves assignments behind; rebuild
            raise
        self.marked = (assumptions, marked)
        return Fraction(total, self.scale)

    def _expand(self, variables, seeds):
        """Assign `seeds`, propagate, and split the rest of `variables` into components.

        Returns the trail of literals assigned, their weight times that of
        the freed variables and definitional components, that weight
        restricted to the marked literal true, and the components (weights
        zero and no components on a conflict).  Each component is its
        variables, its clause ids and, if definitional, its count t.
        """
        state, occ, free, sat, body = self.state, self.occ, self.free, self.sat, self.body
        weight = self.lit_weight
        mark = self.mark
        mark_was_false = state[mark] == 2  # slot 0 is never set, so no mark reads False
        trail = []
        factor = 1
        queue = list(seeds)
        for lit in queue:  # units found below are appended while iterating
            value = state[lit]
            if value == 1:
                continue
            if value:
                return trail, 0, 0, ()
            state[lit] = 1
            state[-lit] = 2
            trail.append(lit)
            factor *= weight[lit]
            for idx in occ[lit]:
                sat[idx] += 1
            conflict = False  # the counters of every clause are updated even so, for the undo
            for idx in occ[-lit]:
                n = free[idx] - 1
                free[idx] = n
                if n < 2 and not sat[idx]:
                    if not n:
                        conflict = True
                        continue
                    for other in body[idx]:
                        if not state[other]:
                            queue.append(other)
                            break
            if conflict:
                return trail, 0, 0, ()

        # Components of the clauses with no true literal.  A clause taken
        # into a component is marked by a `sat` of -1 until the pass ends, a
        # variable reached by a `stamp` of this pass's number.
        occ_var, clause_vars, wsum = self.occ_var, self.clause_vars, self.wsum
        stamp, degree, heads = self.stamp, self.degree, self.heads
        free_weight = self.free_weight
        self.passes = tick = self.passes + 1
        mark_var = abs(mark)
        mark_free = False
        components = []
        taken = []
        for start in variables:
            if stamp[start] == tick or state[start]:
                continue
            stamp[start] = tick
            degree[start] = 0
            group = [start]
            members = []
            definitional = bool(heads)
            for var in group:  # breadth-first; grows while iterating
                for idx in occ_var[var]:
                    if sat[idx]:
                        continue
                    sat[idx] = -1
                    members.append(idx)
                    if definitional and state[heads[idx]]:
                        definitional = False
                    for other in clause_vars[idx]:
                        if state[other]:
                            continue
                        if stamp[other] == tick:
                            degree[other] += 1
                        else:
                            stamp[other] = tick
                            degree[other] = 1
                            group.append(other)
            if members:
                taken += members
                fixed = prod(map(free_weight.__getitem__, group)) if definitional else None
                if fixed is None or mark_var in group:
                    components.append((group, members, fixed))
                else:
                    factor *= fixed
            elif start == mark_var:
                mark_free = True
            else:
                factor *= wsum[start]
        for idx in taken:
            sat[idx] = 0
        if mark_free:
            return trail, factor * wsum[mark_var], factor * weight[mark], components
        if state[mark] == 2 and not mark_was_false:
            return trail, factor, 0, components
        return trail, factor, factor, components

    def _undo(self, trail):
        state, occ, free, sat = self.state, self.occ, self.free, self.sat
        for lit in trail:
            state[lit] = state[-lit] = 0
            for idx in occ[lit]:
                sat[idx] -= 1
            for idx in occ[-lit]:
                free[idx] += 1

    def _node(self, factor, marked, components):
        """The pair (`factor`, `marked`) times the count pairs of `components`.

        Yields the arguments of `_expand` for each branch it needs counted
        and is sent back that branch's count pair.
        """
        cache, degree = self.cache, self.degree
        for variables, members, fixed in components:
            if not factor:
                break
            variables.sort()
            members.sort()
            key = array(self.id_code, variables)
            key.append(0)  # no variable is 0, so this ends the variables
            key.extend(members)
            key = key.tobytes()
            value = cache.get(key)
            if value is None:
                if fixed is not None:  # definitional, holding the mark: q is the count under m
                    value = (fixed, (yield variables, (self.mark,))[1])
                else:
                    # the first of the highest degree; the passes below this node
                    # so far reached only the variables of earlier components
                    branch = max(variables, key=degree.__getitem__)
                    positive = yield variables, (branch,)
                    negative = yield variables, (-branch,)
                    value = (negative[0] + positive[0], negative[1] + positive[1])
                cache[key] = value
                self.cache_bytes += _entry_bytes(key, value)
                while self.cache_bytes > CACHE_BYTES:
                    self.cache_bytes -= _entry_bytes(*cache.popitem(last=False))
            else:
                cache.move_to_end(key)
            factor *= value[0]
            marked *= value[1]
        return factor, marked

    def _search(self, variables, seeds):
        """Run the root node and every node below it on a list, not the call stack.

        Each entry holds a node and the trail of its expansion, undone when
        the node finishes.
        """
        trail, *root = self._expand(variables, seeds)
        stack = [(self._node(*root), trail)]
        value = None  # the count pair sent to the top node
        while True:
            node, trail = stack[-1]
            try:
                branch = node.send(value)
            except StopIteration as done:
                self._undo(trail)
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
            else:
                trail, *expanded = self._expand(*branch)
                stack.append((self._node(*expanded), trail))
                value = None
