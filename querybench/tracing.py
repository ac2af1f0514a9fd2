"""Per-layer tracing from outside the library.

`Tracer.installed()` rebinds each traced function in the module namespace
where its caller looks it up, records one span per call (name, parent, query
id, start, end) and restores the originals on exit.  Spans stay in memory;
`Tracer.summary()` turns them into per-layer self times and counts.
"""
from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, layer); a function bound in several modules is
# rebound in each, under one layer name.
TRACE_POINTS = (
    ("whatif.parser", "parse_problog", "parser.parse"),
    ("whatif.counterfactual", "check_unique_supported_models", "semantics.classify"),
    ("whatif.wmc", "check_unique_supported_models", "semantics.classify"),
    ("whatif.semantics", "check_unique_supported_models", "semantics.classify"),
    ("whatif.semantics", "minimal_model", "semantics.minimal_model"),
    ("whatif.oracle", "minimal_model", "semantics.minimal_model"),
    ("whatif.semantics", "marginal", "semantics.marginal"),
    ("whatif.counterfactual", "twin", "transforms.twin"),
    ("whatif.wmc", "to_weighted_cnf", "wmc.encode"),
    ("whatif.wmc", "add_formula", "wmc.encode"),
    ("whatif.wmc", "wmc", "wmc.count"),
    ("whatif.oracle", "abduction_action_prediction", "oracle.aap"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACE_POINTS))
COUNTS = (
    "parser.program_bytes",
    "transforms.twin_clauses",
    "transforms.twin_atoms",
    "wmc.cnf_vars",
    "wmc.cnf_clauses",
)
ROOT = "query"


class TraceError(AssertionError):
    """A traced layer did not fire the way the library's call graph implies."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, parent index, query id, start, end]
        self.counts: Counter[str] = Counter(dict.fromkeys(COUNTS, 0))
        self._stack: list[int] = []
        self._query = -1

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, self._query, 0.0, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[3] = start
        span[4] = end

    @contextlib.contextmanager
    def query(self, query_id: int):
        """Root span of one query; every span opened inside it carries its id."""
        self._query = query_id
        index = self._open(ROOT)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, start, perf_counter())

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            index = self._open(layer)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, perf_counter())
            self._count(layer, args, result)
            return result

        return traced

    def _count(self, layer: str, args, result) -> None:
        if layer == "parser.parse":
            self.counts["parser.program_bytes"] += len(args[0].encode())
        elif layer == "transforms.twin":
            program = result[0]
            self.counts["transforms.twin_clauses"] += len(program.clauses)
            self.counts["transforms.twin_atoms"] += len(program.internals | program.externals)
        elif layer == "wmc.encode" and isinstance(result, tuple):  # add_formula
            cnf = result[0]
            self.counts["wmc.cnf_vars"] += cnf.var_count
            self.counts["wmc.cnf_clauses"] += len(cnf.clauses)

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attribute, layer in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self._wrap(layer, original))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def per_query(self) -> dict[int, Counter]:
        """Calls of each layer, grouped by query id."""
        calls: dict[int, Counter] = {}
        for layer, _, query_id, _, _ in self.spans:
            calls.setdefault(query_id, Counter())[layer] += 1
        return calls

    def summary(self) -> dict[str, float]:
        """Per-layer self time and calls, plus the traced query time they sum to."""
        child_time = [0.0] * len(self.spans)
        for layer, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        count_order: Counter[int] = Counter()
        query_s = 0.0
        for index, (layer, parent, query_id, start, end) in enumerate(self.spans):
            own = end - start - child_time[index]
            calls[layer] += 1
            if layer == ROOT:
                query_s += end - start
                self_time["counterfactual.self"] += own
                continue
            self_time[layer] += own
            if layer == "wmc.count":  # a conditional counts P(e) first, then P(q and e)
                side = "den" if count_order[query_id] % 2 == 0 else "num"
                count_order[query_id] += 1
                self_time[f"wmc.count_{side}"] += own
        out = {"trace.query_s": query_s, "trace.queries": calls[ROOT]}
        for layer in LAYERS + ("counterfactual.self",):
            out[f"{layer}_s"] = self_time[layer]
            out[f"{layer}_share"] = self_time[layer] / query_s if query_s else 0.0
        for side in ("den", "num"):
            out[f"wmc.count_{side}_s"] = self_time[f"wmc.count_{side}"]
        for layer in ("semantics.classify", "semantics.minimal_model", "wmc.count"):
            out[f"{layer}_calls"] = calls[layer]
        out.update(self.counts)
        return out

    def check(self) -> list[str]:
        """Span-tree faults that would make the self times wrong.

        The self times sum to the traced query time by construction
        (counterfactual.self is the remainder), so what is checked is the
        tree they come from: only query roots lack a parent, every span
        carries its parent's query id, and no span's children take longer
        than the span itself.
        """
        problems = []
        child_time = [0.0] * len(self.spans)
        for index, (layer, parent, query_id, start, end) in enumerate(self.spans):
            if (parent < 0) != (layer == ROOT):
                problems.append(f"span {index} ({layer}) has parent {parent}")
            elif parent >= 0:
                child_time[parent] += end - start
                if self.spans[parent][2] != query_id:
                    problems.append(f"span {index} ({layer}) left its query")
        for index, (layer, _, _, start, end) in enumerate(self.spans):
            if child_time[index] > end - start:
                problems.append(f"span {index} ({layer}): children take {child_time[index]} s "
                                f"of {end - start} s")
        return problems
