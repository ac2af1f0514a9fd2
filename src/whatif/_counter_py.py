"""Pure-Python weighted model counter.

DPLL-style search with component caching.  Each search node assigns its seed
literals (the assumptions at the root, the branch literal below it) and runs
unit propagation as a FIFO queue over the component's occurrence map
`literal → clause indices`, with a count of not-yet-false literals and a
satisfied flag per clause; each literal's weight is multiplied in as it is
assigned.  One breadth-first pass over the same occurrence map then collects
the unsatisfied clauses, shortened to their unassigned literals, into
connected components, and multiplies in the weight of each variable left in
no clause.  A component is looked up in a size-bounded LRU cache keyed by its
clause set; on a miss its occurrence map is built once, it is split on the
variable of highest degree (ties to the lowest index), and both branches use
that map.  The search runs on an explicit stack, so its depth is not limited
by the interpreter's recursion limit.

Works with any numeric weight type; exact when weights are `Fraction`.
"""
from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Iterable, Sequence

DEFAULT_CACHE_CAP = 1 << 20


class _Component:
    """Clauses of one connected component, with what both branches share."""

    __slots__ = ("clauses", "occ", "lens", "variables")

    def __init__(self, clauses, variables):
        self.clauses = clauses
        self.variables = variables
        self.occ = None
        self.lens = None

    def prepare(self):
        """Build the occurrence map and clause lengths both branches use."""
        self.occ = defaultdict(list)
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                self.occ[lit].append(idx)
        self.lens = [len(clause) for clause in self.clauses]

    def branch_variable(self):
        """The variable of highest degree, ties to the lowest index."""
        occ = self.occ
        best_var, best_degree = 0, -1
        for var in self.variables:
            degree = len(occ.get(var, ())) + len(occ.get(-var, ()))
            if degree > best_degree or (degree == best_degree and var < best_var):
                best_var, best_degree = var, degree
        return best_var


class _Frame:
    """A search node: its factor times the counts of its components, in turn."""

    __slots__ = ("factor", "components", "next", "split", "key", "branch", "positive")

    def __init__(self, factor, components):
        self.factor = factor
        self.components = components
        self.next = 0
        self.split = None  # the component being split on `branch`
        self.key = None  # its cache key
        self.branch = 0
        self.positive = None  # its count with `branch` true, once known


class ModelCounter:
    """Counts over a fixed clause set; one instance per query (mutable cache)."""

    def __init__(
        self,
        clauses: Sequence[Sequence[int]],
        weights: dict[int, tuple],
        cache_cap: int = DEFAULT_CACHE_CAP,
    ):
        self.wsum = {v: wt + wf for v, (wt, wf) in weights.items()}
        self.lit_weight = {}
        for var, (wt, wf) in weights.items():
            self.lit_weight[var] = wt
            self.lit_weight[-var] = wf
        self.cache: OrderedDict[frozenset, object] = OrderedDict()
        self.cache_cap = cache_cap
        self.one = next(iter(weights.values()))[0] * 0 + 1 if weights else 1
        self.zero = self.one * 0
        # Unit clauses seed the root's propagation queue; an empty clause is
        # never satisfied.
        self.units: list[int] = []
        self.unsatisfiable = False
        body = []
        for clause in map(tuple, clauses):
            if len(clause) > 1:
                body.append(clause)
            elif clause:
                self.units.append(clause[0])
            else:
                self.unsatisfiable = True
        self.root = _Component(body, list(weights))
        self.root.prepare()

    def count(self, assumptions: Iterable[int] = ()):
        if self.unsatisfiable:
            return self.zero
        factor, components = self._expand(self.root, [*self.units, *assumptions])
        return self._search(factor, components)

    def _expand(self, component, seeds):
        """Assign `seeds`, propagate, and split what is left into components.

        Returns the weight of the assigned and freed variables and the
        components (weight zero and no components on a conflict).
        """
        clauses, occ = component.clauses, component.occ
        weight = self.lit_weight
        true: set[int] = set()
        left = component.lens[:]
        satisfied = bytearray(len(clauses))
        factor = self.one
        queue = list(seeds)
        for lit in queue:  # units found below are appended while iterating
            if lit in true:
                continue
            if -lit in true:
                return self.zero, ()
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
                    return self.zero, ()

        # Components of the unsatisfied clauses, found through the component's
        # occurrence map; `satisfied` also marks the clauses already taken.
        variables = component.variables
        lens = component.lens
        wsum = self.wsum
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
                components.append(_Component(members, group))
            else:
                factor *= wsum[start]
        return factor, components

    def _search(self, factor, components):
        """`factor` times the counts of `components`, on an explicit stack."""
        cache = self.cache
        stack = [_Frame(factor, components)]
        value = None  # count of the frame popped last, for the frame below it
        while stack:
            frame = stack[-1]
            if value is not None:
                if frame.positive is None:
                    frame.positive = value
                    value = None
                    stack.append(self._child(frame.split, -frame.branch))
                    continue
                value += frame.positive
                cache[frame.key] = value
                if len(cache) > self.cache_cap:
                    cache.popitem(last=False)
                frame.factor *= value
                frame.positive = value = None
            if frame.next == len(frame.components) or not frame.factor:
                stack.pop()
                value = frame.factor
                continue
            component = frame.components[frame.next]
            frame.next += 1
            key = frozenset(component.clauses)
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                frame.factor *= cached
                continue
            component.prepare()
            frame.split, frame.key = component, key
            frame.branch = component.branch_variable()
            stack.append(self._child(component, frame.branch))
        return value

    def _child(self, component, literal):
        return _Frame(*self._expand(component, (literal,)))
