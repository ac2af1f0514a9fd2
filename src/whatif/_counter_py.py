"""Pure-Python weighted model counter.

DPLL-style search with component caching.  A component is a pair (clauses,
variables).  Expanding one assigns its seed literals (the assumptions at the
root, the branch literal below it) and runs unit propagation as a FIFO queue
over the component's occurrence map `literal → clause indices`, with a count
of not-yet-false literals and a satisfied flag per clause; each literal's
weight is multiplied in as it is assigned.  One breadth-first pass over the
same occurrence map then collects the unsatisfied clauses, shortened to their
unassigned literals, into connected components, and multiplies in the weight
of each variable left in no clause.

Each search node is a generator (`_node`) over the components of one
expansion.  It looks each component up in an LRU cache keyed by its clause
set and capped at `CACHE_CAP` entries.  On a miss it builds the component's
occurrence map once, picks the variable of highest degree (ties to the
lowest index), and yields the two branches, positive first; it is sent back
each branch's count and stores their sum.  `_search` drives the nodes on a
plain list, so the search depth is not limited by the interpreter's
recursion limit.

A counter may carry one *marked literal* m (in the counterfactual backend,
the root literal of the query).  A search under assumptions A then yields
the pair count(A), count(A ∪ {m}) at once: every value in the search is a
pair (t, q), where q is t restricted to m being true.  Only the end of
`_expand` treats m specially: q = t when m is assigned true, or when m's
variable is not in the node at all or still in one of its components; q = 0
when m is assigned false; and when m's variable is left in no clause, t
takes its weight sum and q only m's weight.  Products and branch sums act on
both halves, and the cache stores pairs; propagation, cache keys and the
branching rule are those of an unmarked search.  A node whose factor t is 0
is not expanded further: with non-negative weights, as probabilities are,
its q is 0 too.  `count(A)` returns t and keeps q, so a following
`count(A + [m])` returns q without a second search.

Works with any numeric weight type; exact when weights are `Fraction`.
"""
from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Iterable, Sequence

CACHE_CAP = 1 << 20  # cache entries kept before the least recently used is evicted


def _prepare(clauses):
    """The occurrence map `literal → clause indices` and the clause lengths."""
    occ = defaultdict(list)
    for idx, clause in enumerate(clauses):
        for lit in clause:
            occ[lit].append(idx)
    return occ, [len(clause) for clause in clauses]


class ModelCounter:
    """Counts over a fixed clause set; one instance per query (mutable cache).

    `mark` is the marked literal; 0, the default, marks none.  The clauses
    are read on the first `count`.
    """

    def __init__(self, clauses: Sequence[Sequence[int]], weights: dict[int, tuple], mark: int = 0):
        self.wsum = {v: wt + wf for v, (wt, wf) in weights.items()}
        self.lit_weight = {}
        for var, (wt, wf) in weights.items():
            self.lit_weight[var] = wt
            self.lit_weight[-var] = wf
        self.cache: OrderedDict[frozenset, tuple] = OrderedDict()
        self.one = next(iter(weights.values()))[0] * 0 + 1 if weights else 1
        self.zero = self.one * 0
        self.clauses = clauses
        self.root = None  # (unit literals, prepared root or None if a clause is empty)
        self.mark = mark
        self.marked = None  # (assumptions, count with `mark` true) of the last search

    def _build_root(self):
        # Unit clauses seed the root's propagation queue; an empty clause is
        # never satisfied.
        units, body = [], []
        for clause in map(tuple, self.clauses):
            if len(clause) > 1:
                body.append(clause)
            elif clause:
                units.append(clause[0])
            else:
                return units, None
        return units, (body, list(self.wsum), *_prepare(body))

    def count(self, assumptions: Iterable[int] = ()):
        assumptions = tuple(assumptions)
        if self.mark and self.marked and assumptions == self.marked[0] + (self.mark,):
            return self.marked[1]
        if self.root is None:
            self.root = self._build_root()
        units, root = self.root
        if root is None:
            return self.zero
        total, marked = self._search(*self._expand(*root, [*units, *assumptions]))
        self.marked = (assumptions, marked)
        return total

    def _expand(self, clauses, variables, occ, lens, seeds):
        """Assign `seeds`, propagate, and split what is left into components.

        Returns the weight of the assigned and freed variables, that weight
        restricted to the marked literal true, and the components (weights
        zero and no components on a conflict).
        """
        weight = self.lit_weight
        true: set[int] = set()
        left = lens[:]
        satisfied = bytearray(len(clauses))
        factor = self.one
        queue = list(seeds)
        for lit in queue:  # units found below are appended while iterating
            if lit in true:
                continue
            if -lit in true:
                return self.zero, self.zero, ()
            true.add(lit)
            factor *= weight[lit]
            for idx in occ.get(lit, ()):
                satisfied[idx] = 1
            for idx in occ.get(-lit, ()):
                if satisfied[idx]:
                    continue
                n = left[idx] - 1
                left[idx] = n
                if n == 1:
                    for other in clauses[idx]:
                        if -other not in true:
                            queue.append(other)
                            break
                elif not n:
                    return self.zero, self.zero, ()

        # Components of the unsatisfied clauses, found through the component's
        # occurrence map; `satisfied` also marks the clauses already taken.
        wsum = self.wsum
        mark = self.mark
        mark_var = abs(mark)
        mark_free = False
        seen: set[int] = set()
        components = []
        for start in variables:
            if start in seen or start in true or -start in true:
                continue
            seen.add(start)
            group = [start]
            members = []
            for var in group:  # breadth-first; grows while iterating
                for occurrences in (occ.get(var, ()), occ.get(-var, ())):
                    for idx in occurrences:
                        if satisfied[idx]:
                            continue
                        satisfied[idx] = 1
                        clause = clauses[idx]
                        if left[idx] != lens[idx]:
                            clause = tuple([lit for lit in clause if -lit not in true])
                        members.append(clause)
                        for lit in clause:
                            other = abs(lit)
                            if other not in seen:
                                seen.add(other)
                                group.append(other)
            if members:
                components.append((members, group))
            elif start == mark_var:
                mark_free = True
            else:
                factor *= wsum[start]
        if mark_free:
            return factor * wsum[mark_var], factor * weight[mark], components
        if -mark in true:
            return factor, self.zero, components
        return factor, factor, components

    def _node(self, factor, marked, components):
        """The pair (`factor`, `marked`) times the count pairs of `components`.

        Yields the arguments of `_expand` for each branch it needs counted
        and is sent back that branch's count pair.
        """
        cache = self.cache
        for clauses, variables in components:
            if not factor:
                break
            key = frozenset(clauses)
            value = cache.get(key)
            if value is None:
                occ, lens = _prepare(clauses)
                branch, degree = 0, -1
                for var in variables:
                    d = len(occ.get(var, ())) + len(occ.get(-var, ()))
                    if d > degree or (d == degree and var < branch):
                        branch, degree = var, d
                positive = yield clauses, variables, occ, lens, (branch,)
                negative = yield clauses, variables, occ, lens, (-branch,)
                value = (negative[0] + positive[0], negative[1] + positive[1])
                cache[key] = value
                if len(cache) > CACHE_CAP:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
            factor *= value[0]
            marked *= value[1]
        return factor, marked

    def _search(self, factor, marked, components):
        """Run the root node and every node below it on a list, not the call stack."""
        stack = [self._node(factor, marked, components)]
        value = None  # the count pair sent to the top node
        while True:
            try:
                branch = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
            else:
                stack.append(self._node(*self._expand(*branch)))
                value = None
