"""Span tracing for the benchmark's traced runs.

The analyzer itself carries no tracing.  A traced run installs wrappers
around the public entry points of each layer (:data:`TARGETS`) from the
benchmark's own files, then drives the workload exactly as an untraced run
does.  Every wrapped call records one span (name, start, end, parent span,
request id) in memory; :meth:`Tracer.write_spans` writes them out when the
run ends, and :meth:`Tracer.summary` folds them into the per-layer metrics.

A function imported by name elsewhere (``from repro.xmltypes.compile import
compile_dtd``) is patched at every import site: after the workload's modules
are imported, each ``repro`` module attribute that *is* the original
function is replaced by the wrapper.  Methods are patched on their class.  A
target that no longer exists is recorded as missing instead of failing, so
the benchmark keeps working when later changes delete a code path.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (span name, module, attribute path) of every wrapped entry point.
TARGETS = (
    ("xslt.audit", "repro.xslt.rules", "audit_stylesheet"),
    ("xslt.parse", "repro.xslt.parser", "load_stylesheet"),
    ("api.solve", "repro.api", "StaticAnalyzer.solve"),
    ("api.solve_many", "repro.api", "StaticAnalyzer.solve_many"),
    ("cli.handle_line", "repro.cli.serve", "handle_line"),
    ("xpath.parse", "repro.xpath.parser", "parse_xpath_cached"),
    ("xpath.compile", "repro.xpath.compile", "compile_xpath"),
    ("xmltypes.dtd_parse", "repro.xmltypes.dtd", "parse_dtd"),
    ("xmltypes.compile", "repro.xmltypes.compile", "compile_dtd"),
    ("xmltypes.binarize", "repro.xmltypes.binarize", "binarize_dtd"),
    ("xmltypes.project", "repro.xmltypes.compile", "project_grammar"),
    ("xmltypes.lift", "repro.xmltypes.membership", "lift_wildcards"),
    ("logic.lean", "repro.logic.closure", "lean"),
    ("logic.expand", "repro.logic.syntax", "expand_fixpoint"),
    ("logic.negate", "repro.logic.negation", "negate"),
    ("solver.encoding", "repro.solver.relations", "LeanEncoding.__init__"),
    ("solver.relation", "repro.solver.relations", "TransitionRelation.__init__"),
    ("solver.witness", "repro.solver.relations", "TransitionRelation.witness"),
    ("solver.witness_strict", "repro.solver.relations", "TransitionRelation.witness_strict"),
    ("solver.solve", "repro.solver.symbolic", "SymbolicSolver.solve"),
    ("solver.reconstruct", "repro.solver.models", "reconstruct_counterexample"),
    ("bdd.and_exists", "repro.bdd.manager", "BDD.and_exists"),
    ("cache.get", "repro.cache", "DiskSolveCache.get"),
    ("cache.put", "repro.cache", "DiskSolveCache.put"),
)

#: Per-layer self-time metric of each span name.  Every span's self time
#: lands in exactly one metric, so the metrics add up to the time the root
#: spans cover.
SELF_TIME_METRICS = {
    "xslt.audit": "xslt.self_s",
    "xslt.parse": "xslt.parse_s",
    "api.solve": "api.self_s",
    "api.solve_many": "api.self_s",
    "cli.handle_line": "cli.self_s",
    "xpath.parse": "xpath.parse_s",
    "xpath.compile": "xpath.compile_s",
    "xmltypes.dtd_parse": "xmltypes.dtd_parse_s",
    "xmltypes.compile": "xmltypes.compile_s",
    "xmltypes.binarize": "xmltypes.binarize_s",
    "xmltypes.project": "xmltypes.project_s",
    "xmltypes.lift": "xmltypes.lift_s",
    "logic.lean": "logic.lean_s",
    "logic.expand": "logic.expand_s",
    "logic.negate": "logic.negate_s",
    "solver.encoding": "solver.encode_s",
    "solver.relation": "solver.encode_s",
    "solver.witness": "solver.product_s",
    "solver.witness_strict": "solver.product_s",
    "solver.solve": "solver.self_s",
    "solver.reconstruct": "solver.reconstruct_s",
    "bdd.and_exists": "bdd.and_exists_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
}

#: Per-layer call-count metrics and the spans they count.
CALL_METRICS = {
    "api.queries": ("api.solve",),
    "cli.requests": ("cli.handle_line",),
    "xpath.parse_calls": ("xpath.parse",),
    "xpath.compile_calls": ("xpath.compile",),
    "xmltypes.compile_calls": ("xmltypes.compile",),
    "xmltypes.binarize_calls": ("xmltypes.binarize",),
    "xmltypes.project_calls": ("xmltypes.project",),
    "logic.lean_calls": ("logic.lean",),
    "logic.expand_calls": ("logic.expand",),
    "solver.runs": ("solver.solve",),
    "solver.reconstruct_calls": ("solver.reconstruct",),
    "bdd.and_exists_calls": ("bdd.and_exists",),
    "cache.get_calls": ("cache.get",),
    "cache.put_calls": ("cache.put",),
}

_CACHE_ENTRY_KEYS = ("type_cache_entries", "query_cache_entries", "solve_cache_entries")


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        #: One ``(name, start, end, parent index, request id)`` per span,
        #: indexed by span id (a slot is reserved when the span opens).
        self.spans: list = []
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._self_time: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._analyzers: dict[int, object] = {}
        self._solver_statistics: list = []
        self._lean_size_max = 0
        self._cache_hits = 0
        self._xslt_queries = 0

    def next_request(self) -> None:
        """Start a new request: later spans carry the next request id."""
        self.request += 1

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, function, before=None, after=None):
        spans, stack = self.spans, self._stack
        self_time, calls = self._self_time, self._calls
        self_time.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [len(spans), clock(), 0.0]
            spans.append(None)
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                spans[frame[0]] = (
                    name,
                    frame[1],
                    end,
                    -1 if parent is None else parent[0],
                    tracer.request,
                )
                self_time[name] += duration - frame[2]
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, function)

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        hooks = {
            "xslt.audit": (None, self._after_audit),
            "api.solve": (self._before_solve, None),
            "api.solve_many": (self._before_solve, None),
            "cli.handle_line": (lambda args: self.next_request(), None),
            "logic.lean": (None, self._after_lean),
            "solver.solve": (None, self._after_solver),
            "cache.get": (None, self._after_cache_get),
        }
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attribute = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            before, after = hooks.get(name, (None, None))
            wrapper = self.wrap(name, original, before, after)
            if owner_name:
                setattr(owner, attribute, wrapper)
            else:
                _patch_import_sites(original, wrapper)

    # -- hooks reading the layers' public counters ---------------------------

    def _before_solve(self, args) -> None:
        analyzer = args[0]
        self._analyzers.setdefault(id(analyzer), analyzer)

    def _after_audit(self, args, report) -> None:
        self._xslt_queries += sum(report.queries.values())

    def _after_lean(self, args, result) -> None:
        self._lean_size_max = max(self._lean_size_max, len(result))

    def _after_solver(self, args, result) -> None:
        self._solver_statistics.append(result.statistics)

    def _after_cache_get(self, args, record) -> None:
        if record is not None:
            self._cache_hits += 1

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """The per-layer metrics of everything traced so far (no units)."""
        metrics: dict[str, float] = {}
        for span, metric in SELF_TIME_METRICS.items():
            metrics[metric] = metrics.get(metric, 0.0) + self._self_time.get(span, 0.0)
        for metric, span_names in CALL_METRICS.items():
            metrics[metric] = sum(self._calls.get(span, 0) for span in span_names)

        stats = [analyzer.cache_statistics() for analyzer in self._analyzers.values()]
        solver_runs = sum(entry["solver_runs"] for entry in stats)
        hits = sum(entry["solve_cache_hits"] + entry["disk_cache_hits"] for entry in stats)
        metrics["api.solver_runs"] = solver_runs
        metrics["api.hit_ratio"] = hits / (hits + solver_runs) if hits + solver_runs else 0.0
        for key in _CACHE_ENTRY_KEYS:
            metrics[f"api.{key}"] = sum(entry[key] for entry in stats)

        solves = self._solver_statistics
        ite_calls = sum(entry.bdd_ite_calls for entry in solves)
        ite_hits = sum(entry.bdd_ite_cache_hits for entry in solves)
        metrics["solver.iterations"] = sum(entry.iterations for entry in solves)
        metrics["solver.product_calls"] = sum(entry.product_calls for entry in solves)
        metrics["bdd.ite_calls"] = ite_calls
        metrics["bdd.ite_hit_ratio"] = ite_hits / ite_calls if ite_calls else 0.0
        metrics["bdd.peak_nodes"] = max(
            (entry.bdd_peak_node_count for entry in solves), default=0
        )
        metrics["logic.lean_size_max"] = self._lean_size_max
        metrics["logic.intern_nodes"] = _intern_table_size()
        metrics["cache.hits"] = self._cache_hits
        metrics["xslt.queries"] = self._xslt_queries
        metrics["trace.spans"] = len(self.spans)
        metrics["trace.missing_wrappers"] = len(self.missing)
        return metrics

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON array per line, in span-id order."""
        with open(path, "w", encoding="utf-8") as stream:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                stream.write(
                    json.dumps([index, name, round(start, 7), round(end, 7), parent, request])
                    + "\n"
                )

    def report(self) -> dict:
        """The per-layer metrics, the missing targets and the total self time."""
        return {
            "metrics": self.summary(),
            "missing": list(self.missing),
            "self_total_s": sum(self._self_time.values()),
        }


def _patch_import_sites(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` wherever a repro module binds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _intern_table_size() -> int:
    """Live hash-consed formulas (the logic layer's global intern table)."""
    syntax = sys.modules.get("repro.logic.syntax")
    table = getattr(syntax, "_INTERN", None)
    return len(table) if table is not None else 0
