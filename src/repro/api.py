"""The one entry point to every analysis: ``repro.api``.

Every decision problem is a :class:`Query` answered by a
:class:`StaticAnalyzer` — ``StaticAnalyzer().solve(Query.<kind>(...))`` for
one question.  The analyzer is built for programs that issue *many*
decision problems — a schema-aware editor validating every XPath expression
in a stylesheet, a query optimiser probing containment between rewrite
candidates, a service answering analysis requests over the same few schemas.
It wraps the problem reductions of :mod:`repro.analysis` behind three layers
of memoisation so that work is shared across an entire workload instead of
being redone per call:

1. **Type-translation cache** — compiling a DTD to its Lµ formula
   (Section 5.2 of the paper) is pure and depends only on the type, so each
   distinct type is translated once per analyzer.
2. **Query-translation cache** — likewise for the XPath-to-Lµ translation
   (Section 5.1), keyed by ``(expression, type)``.
3. **Solve cache** — Lµ formulas are hash-consed (:mod:`repro.logic.syntax`),
   so two problems that reduce to the same logical formula are *the same
   satisfiability question*; the solver runs once per distinct formula and
   every later occurrence is answered from cache.  This is where batch
   workloads win: containment, emptiness and equivalence checks over the same
   schema keep meeting the same sub-translations and often the same formulas.
4. **Persistent solve cache** (opt-in) — constructing the analyzer with
   ``cache_dir=...`` writes every solver verdict through to an on-disk,
   content-addressed store (:mod:`repro.cache`) and consults it on in-memory
   misses, so a *cold process* replaying a workload answered by an earlier
   process performs zero solver runs.

Results are plain data: every :class:`AnalysisOutcome` (and the
:class:`BatchReport` returned by :meth:`StaticAnalyzer.solve_many`) converts
to JSON-compatible dictionaries via ``as_dict()`` / ``to_json()``, including
the solver statistics of :class:`repro.solver.symbolic.SolverStatistics` and a
serialized counterexample document when one exists.

Quickstart::

    from repro.api import Query, StaticAnalyzer

    analyzer = StaticAnalyzer()
    report = analyzer.solve_many([
        Query.containment("child::a[b]", "child::a"),
        Query.satisfiability("descendant::a[ancestor::a]", "xhtml-core"),
        Query.emptiness("child::title/child::meta", "wikipedia"),
    ])
    for outcome in report.outcomes:
        print(outcome.problem, outcome.holds)
    print(report.to_json())

XML types may be given as built-in schema names (``"smil"``, ``"xhtml"``,
``"xhtml-core"``, ``"wikipedia"``), parsed :class:`repro.xmltypes.dtd.DTD`
objects, ``None`` for "any tree", or :class:`repro.analysis.problems.Rooted`
of one of these; a name, its aliases and its ``DTD`` object are one schema.

Expressions may use attribute steps (``@href``, ``attribute::*``); DTD types
then contribute their ``<!ATTLIST>`` constraints, projected onto the
attribute names the query mentions::

    # Under XHTML 1.0 Strict every img carries an alt attribute...
    analyzer.solve(Query.containment(".//img", ".//img[@alt]", "xhtml", "xhtml"))
    # ...but not every a carries href (a counterexample document is returned).
    analyzer.solve(Query.containment(".//a", ".//a[@href]", "xhtml", "xhtml"))

(The queries are relative to the marked, typed node: a bare DTD constraint
deliberately leaves the context of that node unconstrained — Section 5.2 —
so absolute ``//`` queries could select nodes outside the typed subtree.
For whole-document readings wrap the type in
:class:`repro.analysis.problems.Rooted` — ``Query.satisfiability("/html/head",
Rooted("xhtml"))`` — which anchors the context node at a virtual document
node above the typed root element, the data model XSLT patterns use; that
node has no name and no attributes.  On the CLI wire the same wrapper is
spelled ``"rooted:xhtml"``.)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.analysis.problems import (
    Rooted,
    document_formula,
    label_projection,
    reduce_problem,
    relevant_attributes,
    type_inclusion_attributes,
)
from repro.cache import DiskSolveCache, SolveRecord
from repro.core.errors import BudgetExceeded, ReproError, UnsupportedTypeError
from repro.logic import syntax as sx
from repro.solver.governor import Budget
from repro.solver.symbolic import SymbolicSolver
from repro.trees.unranked import Tree, serialize_tree
from repro.xmltypes.compile import attribute_constraints, compile_dtd
from repro.xmltypes.dtd import DTD
from repro.xmltypes.membership import lift_wildcards
from repro.xmltypes.library import builtin_dtd, schema_names
from repro.xpath.compile import compile_xpath
from repro.xpath.parser import parse_xpath_cached

#: Query kinds accepted by :class:`Query` / :meth:`StaticAnalyzer.solve_many`.
KINDS = (
    "satisfiability",
    "emptiness",
    "containment",
    "equivalence",
    "overlap",
    "coverage",
    "type_inclusion",
)


@dataclass(frozen=True)
class Query:
    """One decision problem, as plain data (JSON-able via :meth:`as_dict`).

    Use the factory classmethods rather than the constructor; they document
    which fields each kind uses.  ``exprs`` holds the XPath expressions
    involved (the subject first) and ``types`` the matching tree-type
    constraints (``None`` entries mean "any tree").
    """

    kind: str
    exprs: tuple[str, ...]
    types: tuple[object, ...] = ()

    #: Required (exprs, types) arities per kind; ``None`` means "one or more
    #: expressions, with exactly one type each" (coverage).
    _ARITIES = {
        "satisfiability": (1, 1),
        "emptiness": (1, 1),
        "containment": (2, 2),
        "equivalence": (2, 2),
        "overlap": (2, 2),
        "coverage": None,
        "type_inclusion": (1, 2),
    }

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}; expected one of {KINDS}")
        arity = self._ARITIES[self.kind]
        if arity is None:
            if not self.exprs or len(self.types) != len(self.exprs):
                raise ValueError(
                    f"{self.kind} takes one or more expressions with one type "
                    f"each; got {len(self.exprs)} expressions and "
                    f"{len(self.types)} types"
                )
        elif (len(self.exprs), len(self.types)) != arity:
            raise ValueError(
                f"{self.kind} takes {arity[0]} expression(s) and {arity[1]} "
                f"type(s); got {len(self.exprs)} and {len(self.types)}"
            )
        for expr in self.exprs:
            if not isinstance(expr, str):
                raise ValueError(
                    f"{self.kind} takes XPath expressions as text; got a "
                    f"{type(expr).__name__}"
                )

    # -- factories ---------------------------------------------------------------

    @classmethod
    def satisfiability(cls, expr: str, xml_type: object = None) -> "Query":
        """Can ``expr`` select at least one node in a document of ``xml_type``?"""
        return cls("satisfiability", (expr,), (xml_type,))

    @classmethod
    def emptiness(cls, expr: str, xml_type: object = None) -> "Query":
        """Is ``expr`` empty on every document of ``xml_type``?"""
        return cls("emptiness", (expr,), (xml_type,))

    @classmethod
    def containment(
        cls, expr1: str, expr2: str, type1: object = None, type2: object = None
    ) -> "Query":
        """Is every node selected by ``expr1`` also selected by ``expr2``?"""
        return cls("containment", (expr1, expr2), (type1, type2))

    @classmethod
    def equivalence(
        cls, expr1: str, expr2: str, type1: object = None, type2: object = None
    ) -> "Query":
        """Containment in both directions."""
        return cls("equivalence", (expr1, expr2), (type1, type2))

    @classmethod
    def overlap(
        cls, expr1: str, expr2: str, type1: object = None, type2: object = None
    ) -> "Query":
        """Can the two expressions select a common node?"""
        return cls("overlap", (expr1, expr2), (type1, type2))

    @classmethod
    def coverage(
        cls,
        expr: str,
        covering: Sequence[str],
        xml_type: object = None,
        covering_types: Sequence[object] | None = None,
    ) -> "Query":
        """Is every node selected by ``expr`` selected by one of ``covering``?"""
        others = tuple(covering)
        other_types = (
            tuple(covering_types) if covering_types is not None else (None,) * len(others)
        )
        # Arity (one type per covering expression) is enforced by __post_init__.
        return cls("coverage", (expr,) + others, (xml_type,) + other_types)

    @classmethod
    def type_inclusion(cls, expr: str, input_type: object, output_type: object) -> "Query":
        """Does every node ``expr`` selects under ``input_type`` root a subtree
        of ``output_type``?"""
        return cls("type_inclusion", (expr,), (input_type, output_type))

    # -- serialisation -----------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "exprs": list(self.exprs),
            "types": [_describe_type(t) for t in self.types],
        }


def _describe_type(xml_type: object) -> object:
    """The wire form of a type constraint (see :mod:`repro.cli.wire`): a
    registry DTD by its name, any other parsed DTD by the inline object of
    its text, so the description reads back as the same schema."""
    if xml_type is None:
        return None
    if isinstance(xml_type, Rooted):
        inner = _describe_type(xml_type.xml_type)
        return {"rooted": inner} if isinstance(inner, dict) else f"rooted:{inner or ''}"
    if isinstance(xml_type, str):
        return xml_type
    if isinstance(xml_type, DTD):
        name = xml_type.name
        if xml_type.source is None or (
            name in schema_names() and builtin_dtd(name) is xml_type
        ):
            return name
        return {"dtd": xml_type.source, "root": xml_type.root, "name": name}
    return type(xml_type).__name__


#: The three verdict statuses an :class:`AnalysisOutcome` can carry.
#: ``"definite"`` — ``holds``/``satisfiable`` are valid booleans;
#: ``"unknown"`` — a resource budget ran out before a verdict (``holds`` and
#: ``satisfiable`` are ``None``, ``budget_reason`` says which bound tripped);
#: ``"error"`` — the input itself was bad (``error``/``error_kind`` are set).
VERDICT_STATUSES = ("definite", "unknown", "error")


@dataclass
class AnalysisOutcome:
    """Outcome of one :class:`Query`, as structured JSON-able data.

    ``holds`` answers the question the query asked; ``satisfiable`` reports
    the verdict of the underlying satisfiability test (they differ for the
    "negative" problems: containment holds iff its formula is unsatisfiable).
    ``from_cache`` is True when the verdict was answered from the analyzer's
    solve cache without running the solver.

    Outcomes are three-valued (see :data:`VERDICT_STATUSES`): a resource
    budget running out produces a first-class *unknown* outcome — not an
    error — with ``verdict_status == "unknown"``, ``holds is None`` and the
    structured ``budget_reason`` (``"deadline"``, ``"steps"``,
    ``"iterations"``, ``"lean"``, ``"worker-crash"``).  Consumers acting on
    a verdict must gate on :attr:`definite`, never on ``holds`` alone.
    """

    query: Query
    problem: str
    holds: bool | None
    satisfiable: bool | None
    from_cache: bool
    solve_seconds: float
    statistics: dict
    counterexample: str | None = None
    #: Which cache layer answered: ``"memory"``, ``"disk"``, or ``None`` when
    #: the solver actually ran (always ``None`` for error outcomes).
    cache: str | None = None
    #: Machine-readable failure: the exception class name (``"ParseError"``,
    #: ``"KeyError"``, ...) and its message.  ``None`` on success.
    error_kind: str | None = None
    error: str | None = None
    #: One of :data:`VERDICT_STATUSES`.
    verdict_status: str = "definite"
    #: Which budget bound tripped (:data:`repro.core.errors.BUDGET_REASONS`);
    #: ``None`` unless ``verdict_status == "unknown"``.
    budget_reason: str | None = None
    #: For equivalence queries: the two directed containment outcomes.
    parts: list["AnalysisOutcome"] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the query was *analysed* — no structured input error.

        Unknown outcomes are ``ok`` (the input was fine; the budget was not):
        check :attr:`definite` before trusting ``holds``.
        """
        return self.error is None

    @property
    def definite(self) -> bool:
        """True when ``holds``/``satisfiable`` carry a valid verdict."""
        return self.verdict_status == "definite"

    @property
    def unknown(self) -> bool:
        """True when a resource budget ran out before a verdict."""
        return self.verdict_status == "unknown"

    @property
    def time_ms(self) -> float:
        """Solver running time in milliseconds (as reported in Table 2)."""
        return 1000.0 * self.solve_seconds

    def as_dict(self) -> dict:
        result = {
            "query": self.query.as_dict(),
            "problem": self.problem,
            "verdict_status": self.verdict_status,
            "holds": self.holds,
            "satisfiable": self.satisfiable,
            "budget_reason": self.budget_reason,
            "from_cache": self.from_cache,
            "cache": self.cache,
            "solve_seconds": round(self.solve_seconds, 6),
            "statistics": self.statistics,
            "counterexample": self.counterexample,
            "error": None
            if self.error is None
            else {"kind": self.error_kind, "message": self.error},
        }
        if self.parts:
            result["parts"] = [part.as_dict() for part in self.parts]
        return result

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


@dataclass
class BatchReport:
    """The outcomes of a :meth:`StaticAnalyzer.solve_many` run plus totals."""

    outcomes: list[AnalysisOutcome]
    total_seconds: float
    solver_runs: int
    cache_hits: int
    #: Verdicts answered from the persistent cache (0 without ``cache_dir``).
    disk_cache_hits: int = 0
    #: The ``workers`` the batch was answered with (1: solved in-process);
    #: its pool runs at most this many processes.
    workers: int = 1

    @property
    def errors(self) -> int:
        """Number of outcomes that are structured errors (``not outcome.ok``)."""
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def unknowns(self) -> int:
        """Number of outcomes whose budget ran out (``verdict_status=="unknown"``)."""
        return sum(1 for outcome in self.outcomes if outcome.unknown)

    def as_dict(self) -> dict:
        return {
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "total_seconds": round(self.total_seconds, 6),
            "solver_runs": self.solver_runs,
            "cache_hits": self.cache_hits,
            "disk_cache_hits": self.disk_cache_hits,
            "workers": self.workers,
            "errors": self.errors,
            "unknowns": self.unknowns,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


#: ``(schema, kept element names, rooted)``: what a pruned witness is lifted
#: against (see :func:`_lift_witness`).
LiftContext = tuple[DTD, tuple[str, ...], bool]


def _lift_context(
    types: Sequence, labels: tuple[str, ...] | None, attributes: tuple[str, ...]
) -> LiftContext | None:
    """The schema and kept element names to lift pruned witnesses against,
    from a problem's resolved types, pruning alphabet and attribute alphabet.

    ``None`` when no lifting applies (pruning off or skipped, or no DTD in
    the problem).  :func:`repro.xmltypes.compile.compile_dtd` keeps the
    queries' labels and every element whose attribute constraint is
    non-trivial under ``attributes``; a collapsed node stands for one of
    the other names, so the kept ones are passed to
    :func:`repro.xmltypes.membership.lift_wildcards` as *excluded*.
    """
    if labels is None:
        return None
    for xml_type in types:
        rooted = isinstance(xml_type, Rooted)
        schema = xml_type.xml_type if rooted else xml_type
        if isinstance(schema, DTD):
            kept = {*labels, *attribute_constraints(schema, attributes)}
            return schema, tuple(sorted(kept)), rooted
    return None


def _lift_witness(document: Tree, lift_context: LiftContext) -> Tree:
    """The witness with concrete names for its typed subtree's collapsed
    labels, if any fit.

    A schema holds at the marked node and leaves its context free (Section
    5.2); under :class:`Rooted` (``rooted``) the marked node is the virtual
    document node and the schema holds at its single child.  That typed
    subtree alone is fitted to the schema's root element; the context keeps
    its labels.  Best effort (see
    :func:`repro.xmltypes.membership.lift_wildcards`): the witness comes
    back unchanged when no assignment validates.
    """
    dtd, kept, rooted = lift_context
    path = document.find_mark()
    if path is None:
        return document
    typed = document
    for index in path:
        typed = typed.children[index]
    if rooted:
        if len(typed.children) != 1:
            return document
        path += (0,)
        typed = typed.children[0]
    lifted = lift_wildcards(dtd, typed, exclude=kept)
    return document if lifted is None else _replace_subtree(document, path, lifted)


def _replace_subtree(tree: Tree, path: tuple[int, ...], subtree: Tree) -> Tree:
    """``tree`` with the node at ``path`` (child indexes) replaced by ``subtree``."""
    if not path:
        return subtree
    children = list(tree.children)
    children[path[0]] = _replace_subtree(children[path[0]], path[1:], subtree)
    return replace(tree, children=tuple(children))


#: One solver run, as a worker process sends it back: ``(satisfiable,
#: witness document or None, statistics, solve seconds)``.
Run = tuple[bool, Tree | None, dict, float]


def run_solver(formula: sx.Formula, budget: Budget | None = None) -> Run:
    """Run :class:`SymbolicSolver` on one formula, in this process or in a
    :class:`repro.workers.WorkerPool` worker.

    The witness is the solver's own: lifting its collapsed labels needs the
    query's schema, which the analyzer that asked holds.  A budget that runs
    out raises :class:`BudgetExceeded`.
    """
    result = SymbolicSolver(formula, budget=budget).solve()
    return (
        result.satisfiable,
        result.model_document(),
        result.statistics.as_dict(),
        result.statistics.solve_seconds,
    )


def _parts(query: Query) -> tuple[Query, ...]:
    """An equivalence's two directed containments, or ``(query,)``."""
    if query.kind != "equivalence":
        return (query,)
    expr1, expr2 = query.exprs
    type1, type2 = query.types
    return (
        Query.containment(expr1, expr2, type1, type2),
        Query.containment(expr2, expr1, type2, type1),
    )


#: Input-shaped failures that :meth:`StaticAnalyzer.solve` converts into
#: structured error outcomes instead of raising.  Everything input-shaped is
#: a :class:`repro.core.errors.ReproError` subclass: parser errors, solver
#: limits, unknown built-in schema names (``SchemaLookupError``, also a
#: :class:`KeyError`) and unsupported type-constraint objects
#: (``UnsupportedTypeError``, also a :class:`TypeError`).  A plain
#: ``KeyError``/``TypeError`` out of the translation or solver internals is a
#: bug and still raises.
ANALYSIS_ERRORS = (ReproError,)


class StaticAnalyzer:
    """Caching façade over the decision problems of Section 8.

    All methods are pure with respect to the caches: a cached answer is
    always the answer the solver would produce — the solve cache is keyed by
    the (hash-consed) Lµ formula, the translation caches by the
    expression/type pair they translate.  A type is resolved once per problem
    (:meth:`_resolve_type`); the resolved value is its identity wherever
    "same schema?" is asked.  Every solve runs
    :class:`repro.solver.symbolic.SymbolicSolver`, which has one
    configuration.

    With ``cache_dir`` set, solver verdicts are additionally written through
    to a :class:`repro.cache.DiskSolveCache` rooted at that directory and
    looked up there on in-memory misses, so a fresh process replaying a
    workload another process has answered performs zero solver runs.  The
    disk cache is content-addressed by the canonical formula (alpha-invariant
    across processes) and safe under concurrent writers; see
    :mod:`repro.cache`.

    **Resource governance.**  ``budget`` bounds every solve (see
    :class:`repro.solver.governor.Budget`); with ``max_lean`` set the
    analyzer refuses to *solve* an exponentially-sized problem (Lemma 6.7
    prices it at ``2^O(lean)``) and returns an ``unknown`` outcome up front.
    Budget exhaustion never raises: it produces a first-class ``unknown``
    outcome with a structured ``budget_reason``.  Only definite verdicts
    ever enter a cache layer.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        prune_labels: bool = True,
        budget: Budget | None = None,
    ):
        self.prune_labels = prune_labels
        #: Default resource budget for every solve (``None`` = unlimited);
        #: a per-call budget can only tighten it (see :meth:`solve`).
        self.budget = budget
        self.disk_cache = None if cache_dir is None else DiskSolveCache(cache_dir)
        # (resolved type, constrain_siblings, attributes, labels) -> type formula.
        self._type_cache: dict[tuple, sx.Formula] = {}
        # (expression text, resolved type, attributes, labels) -> query formula.
        self._query_cache: dict[tuple, sx.Formula] = {}
        # Lµ formula (hash-consed, so identity == structure) -> SolveRecord.
        self._solve_cache: dict[sx.Formula, SolveRecord] = {}
        self.solver_runs = 0
        self.solve_cache_hits = 0
        self.disk_cache_hits = 0
        self.disk_cache_writes = 0

    # -- caching layers ----------------------------------------------------------

    @staticmethod
    def _resolve_type(xml_type: object) -> object:
        """The schema a type constraint denotes, which is also its identity.

        A registry name or alias becomes the registry's :class:`DTD` (one
        object per schema), ``Rooted(T)`` becomes ``Rooted`` of the resolved
        ``T``, and ``None`` or a ``DTD`` stands for itself.  Idempotent;
        anything else raises :class:`UnsupportedTypeError`.
        """
        if xml_type is None or isinstance(xml_type, DTD):
            return xml_type
        if isinstance(xml_type, str):
            return builtin_dtd(xml_type)
        if isinstance(xml_type, Rooted):
            inner = StaticAnalyzer._resolve_type(xml_type.xml_type)
            return xml_type if inner is xml_type.xml_type else Rooted(inner)
        raise UnsupportedTypeError(f"unsupported type constraint {xml_type!r}")

    def _label_projection(
        self, exprs: Sequence[object], types: Sequence[object]
    ) -> tuple[str, ...] | None:
        """The element alphabet to prune resolved type constraints onto, or
        ``None``.

        Delegates to :func:`repro.analysis.problems.label_projection` (the
        single home of the soundness rule).  Returns ``None`` — no pruning —
        when the analyzer was built with ``prune_labels=False`` or the
        problem mixes distinct schemas.
        """
        if not self.prune_labels:
            return None
        return label_projection(exprs, types)

    def type_formula(
        self,
        xml_type: object,
        constrain_siblings: bool = True,
        attributes: tuple[str, ...] = (),
        labels: tuple[str, ...] | None = None,
    ) -> sx.Formula:
        """The (cached) Lµ translation of a type constraint (⊤ for ``None``,
        which takes no cache entry).

        The constraint is resolved first (:meth:`_resolve_type`) and cached
        under its resolved value, so a registry name, its aliases and its
        ``DTD`` share one entry.  ``attributes`` is the attribute alphabet of
        the surrounding problem: DTD types project their ATTLIST constraints
        onto it (see :mod:`repro.xmltypes.compile`).  ``labels`` is the
        problem's element alphabet: when given, DTD element names outside it
        collapse onto the "any other label" proposition (cone-of-influence
        Lean pruning).  Both are part of the cache key.
        """
        xml_type = self._resolve_type(xml_type)
        if xml_type is None:
            return sx.TRUE
        key = (xml_type, constrain_siblings, attributes, labels)
        cached = self._type_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(xml_type, Rooted):
            formula = document_formula(
                self.type_formula(
                    xml_type.xml_type,
                    constrain_siblings=True,
                    attributes=attributes,
                    labels=labels,
                ),
                attributes,
            )
        else:
            formula = compile_dtd(
                xml_type,
                constrain_siblings=constrain_siblings,
                attributes=attributes,
                labels=labels,
            )
        self._type_cache[key] = formula
        return formula

    def query_formula(
        self,
        expr: str,
        xml_type: object = None,
        attributes: tuple[str, ...] | None = None,
        labels: tuple[str, ...] | None = None,
    ) -> sx.Formula:
        """The (cached) Lµ translation ``E→[[expr]]([[xml_type]])``.

        ``attributes`` is the problem's attribute alphabet (defaults to the
        names this expression mentions on its own); ``labels`` the problem's
        element alphabet for type pruning (defaults to no pruning).  The type
        is resolved like :meth:`type_formula`'s.
        """
        xml_type = self._resolve_type(xml_type)
        if attributes is None:
            attributes = relevant_attributes(expr)
        key = (expr, xml_type, attributes, labels)
        cached = self._query_cache.get(key)
        if cached is not None:
            return cached
        formula = compile_xpath(
            parse_xpath_cached(expr),
            self.type_formula(xml_type, attributes=attributes, labels=labels),
        )
        self._query_cache[key] = formula
        return formula

    def _solve(
        self,
        formula: sx.Formula,
        lift_context: LiftContext | None = None,
        budget: Budget | None = None,
        runs: dict | None = None,
    ) -> tuple[SolveRecord, str | None]:
        """Solve a formula, answering from a cache layer when possible.

        Returns the verdict record plus the layer that answered: ``"memory"``,
        ``"disk"``, or ``None`` when the solver actually ran.
        ``lift_context`` says how to lift a pruned witness's collapsed labels
        (see :func:`_lift_witness`); lifting is deterministic, so cached
        records are already lifted.

        ``budget`` governs the solver run; exhaustion raises
        :class:`BudgetExceeded` *without* touching any cache layer — an
        unknown is a statement about the budget, not about the formula, so
        it must never shadow a definite verdict (cached answers, being free,
        are immune to budgets by construction).

        ``runs`` maps ``(formula, budget)`` to what a worker pool's
        :func:`run_solver` returned, or to the exception it raised; such a
        run stands in for running the solver here, so it is counted, lifted
        and cached, or raised, exactly like one.
        """
        record = self._solve_cache.get(formula)
        if record is not None:
            self.solve_cache_hits += 1
            return record, "memory"
        if self.disk_cache is not None:
            record = self.disk_cache.get(formula)
            if record is not None:
                self.disk_cache_hits += 1
                self._solve_cache[formula] = record
                return record, "disk"
        run = None if runs is None else runs.get((formula, budget))
        if run is None:
            run = run_solver(formula, budget)
        elif isinstance(run, Exception):
            raise run
        satisfiable, document, statistics, solve_seconds = run
        self.solver_runs += 1
        if document is not None and lift_context is not None:
            document = _lift_witness(document, lift_context)
        record = SolveRecord(
            satisfiable=satisfiable,
            counterexample=None if document is None else serialize_tree(document),
            statistics=statistics,
            solve_seconds=solve_seconds,
        )
        self._solve_cache[formula] = record
        if self.disk_cache is not None:
            self.disk_cache.put(formula, record)
            self.disk_cache_writes += 1
        return record, None

    def clear_caches(self) -> None:
        """Drop every in-memory cached translation and solver verdict.

        The persistent cache (if any) is left untouched; clear it explicitly
        with ``analyzer.disk_cache.clear()``.
        """
        self._type_cache.clear()
        self._query_cache.clear()
        self._solve_cache.clear()

    def cache_statistics(self) -> dict[str, int]:
        return {
            "type_cache_entries": len(self._type_cache),
            "query_cache_entries": len(self._query_cache),
            "solve_cache_entries": len(self._solve_cache),
            "solver_runs": self.solver_runs,
            "solve_cache_hits": self.solve_cache_hits,
            "disk_cache_hits": self.disk_cache_hits,
            "disk_cache_writes": self.disk_cache_writes,
        }

    # -- single queries ----------------------------------------------------------

    def solve(self, query: Query, budget: Budget | None = None) -> AnalysisOutcome:
        """Answer one query (cached); see :class:`Query` for the kinds.

        Input-shaped failures — a malformed expression, an unknown built-in
        schema name, an unsupported type object — are returned as structured
        error outcomes (``outcome.ok`` is False, ``outcome.error`` carries
        the message) rather than raised, so one bad query never aborts a
        :meth:`solve_many` batch.  Programming errors still raise.

        ``budget`` tightens the analyzer-wide budget for this call only
        (where both set a limit, the smaller one applies).  A budgeted solve
        that runs out returns an *unknown* outcome — ``verdict_status ==
        "unknown"``, ``holds``/``satisfiable`` both ``None``,
        ``budget_reason`` naming the exhausted resource.
        """
        return self._answer(query, self._effective_budget(budget))

    def _answer(
        self, query: Query, budget: Budget | None, runs: dict | None = None
    ) -> AnalysisOutcome:
        """:meth:`solve` under the effective ``budget``, with the solver
        ``runs`` a worker pool made in hand (see :meth:`_solve`)."""
        if query.kind == "equivalence":
            forward, backward = (
                self._answer(part, budget, runs) for part in _parts(query)
            )
            return self._assemble_equivalence(query, forward, backward)
        try:
            formula, positive, lift_context = self._reduce(query)
        except ANALYSIS_ERRORS as exc:
            return self._error_outcome(query, exc)
        problem = self._problem_description(query)
        try:
            record, source = self._solve(formula, lift_context, budget, runs)
        except BudgetExceeded as exc:
            # Must precede the ANALYSIS_ERRORS arm: BudgetExceeded is a
            # ReproError, and swallowing it there would misreport resource
            # exhaustion as a definite input failure.
            return self._unknown_outcome(query, problem, exc)
        except ANALYSIS_ERRORS as exc:
            return self._error_outcome(query, exc)
        return self._outcome(query, problem, record, source, positive)

    def _effective_budget(self, budget: Budget | None) -> Budget | None:
        """The analyzer-wide budget tightened by a per-call budget."""
        if budget is None:
            return self.budget
        if self.budget is None:
            return budget
        return self.budget.merged_with(budget)

    def _error_outcome(self, query: Query, exc: Exception) -> AnalysisOutcome:
        return AnalysisOutcome(
            query=query,
            problem=f"{query.kind} (failed)",
            holds=False,
            satisfiable=False,
            from_cache=False,
            solve_seconds=0.0,
            statistics={},
            counterexample=None,
            error_kind=type(exc).__name__,
            error=str(exc),
            verdict_status="error",
        )

    def _unknown_outcome(
        self, query: Query, problem: str, exc: BudgetExceeded
    ) -> AnalysisOutcome:
        """A structured three-valued outcome for a budget-exhausted solve.

        Unknowns are *ok* (nothing was malformed) but not *definite*;
        consumers that act on ``holds`` must gate on ``outcome.definite``.
        Nothing is cached: an unknown describes the budget, not the formula.
        """
        return AnalysisOutcome(
            query=query,
            problem=problem,
            holds=None,
            satisfiable=None,
            from_cache=False,
            solve_seconds=0.0,
            statistics={"budget": exc.as_dict()},
            counterexample=None,
            verdict_status="unknown",
            budget_reason=exc.reason,
        )

    def _problem_description(self, query: Query) -> str:
        """The human-readable problem string of a query."""
        kind, exprs = query.kind, query.exprs
        if kind == "satisfiability":
            return f"satisfiability of {exprs[0]}"
        if kind == "emptiness":
            return f"emptiness of {exprs[0]}"
        if kind == "containment":
            return f"containment {exprs[0]} ⊆ {exprs[1]}"
        if kind == "overlap":
            return f"overlap of {exprs[0]} and {exprs[1]}"
        if kind == "coverage":
            return f"coverage of {exprs[0]} by {len(exprs) - 1} expressions"
        if kind == "type_inclusion":
            return f"type inclusion of {exprs[0]}"
        if kind == "equivalence":
            return f"equivalence {exprs[0]} ≡ {exprs[1]}"
        raise ValueError(f"unknown query kind {kind!r}")  # pragma: no cover

    def _problem_attributes(self, query: Query, types: Sequence) -> tuple[str, ...]:
        """The attribute alphabet a query's reduction is built over."""
        if query.kind == "type_inclusion":
            # The negated output type acts as a predicate on subtrees, so the
            # alphabet must also cover the DTDs' required/declared names (see
            # repro.analysis.problems.type_inclusion_attributes).
            return type_inclusion_attributes(query.exprs[0], types[0], types[1])
        return relevant_attributes(*query.exprs)

    def _reduce(self, query: Query) -> tuple[sx.Formula, bool, LiftContext | None]:
        """Reduce a (non-equivalence) query to one satisfiability question.

        Resolves the query's types once (:meth:`_resolve_type`) and returns
        ``(formula, positive, lift_context)``: the first two from
        :func:`repro.analysis.problems.reduce_problem`, fed with this
        analyzer's cached translators, and what :meth:`_solve` lifts a pruned
        witness against (:func:`_lift_context`).  All expressions of a
        problem share one attribute alphabet (and one element alphabet for
        pruning) so type constraints agree across the sub-formulas;
        type_inclusion derives a richer attribute alphabet of its own (see
        :meth:`_problem_attributes`).
        """
        types = tuple(self._resolve_type(xml_type) for xml_type in query.types)
        labels = self._label_projection(query.exprs, types)
        attributes = self._problem_attributes(query, types)
        formula, positive = reduce_problem(
            query.kind,
            query.exprs,
            types,
            self.query_formula,
            self.type_formula,
            attributes=attributes,
            labels=labels,
        )
        return formula, positive, _lift_context(types, labels, attributes)

    def _unanswered(self, query: Query) -> list[sx.Formula]:
        """The distinct formulas of ``query``'s parts that no cache layer
        answers yet: what a worker pool must run before :meth:`_answer` can
        answer it.

        The lookup counts nothing; a part that fails to reduce needs no run
        (it is answered as an error outcome).  A disk entry is only checked
        for presence, never read: :meth:`_solve` reads it once when it
        answers, and runs the solver itself if the entry turns out corrupt.
        """
        formulas = []
        for part in _parts(query):
            try:
                formula = self._reduce(part)[0]
            except ANALYSIS_ERRORS:
                continue
            if formula in self._solve_cache or formula in formulas:
                continue
            if self.disk_cache is None or formula not in self.disk_cache:
                formulas.append(formula)
        return formulas

    def _assemble_equivalence(
        self, query: Query, forward: AnalysisOutcome, backward: AnalysisOutcome
    ) -> AnalysisOutcome:
        """Combine the two directed containment outcomes of an equivalence."""
        expr1, expr2 = query.exprs
        if not forward.ok or not backward.ok:
            broken = forward if not forward.ok else backward
            return AnalysisOutcome(
                query=query,
                problem=f"{query.kind} (failed)",
                holds=False,
                satisfiable=False,
                from_cache=False,
                solve_seconds=0.0,
                statistics={},
                error_kind=broken.error_kind,
                error=broken.error,
                verdict_status="error",
                parts=[forward, backward],
            )
        if not forward.definite or not backward.definite:
            # A definite failed containment already refutes the equivalence,
            # so an unknown in the *other* direction does not matter.
            refuted = next(
                (p for p in (forward, backward) if p.definite and not p.holds), None
            )
            if refuted is None:
                vague = forward if not forward.definite else backward
                return AnalysisOutcome(
                    query=query,
                    problem=f"equivalence {expr1} ≡ {expr2}",
                    holds=None,
                    satisfiable=None,
                    from_cache=False,
                    solve_seconds=forward.solve_seconds + backward.solve_seconds,
                    statistics={
                        "forward": forward.statistics,
                        "backward": backward.statistics,
                    },
                    verdict_status="unknown",
                    budget_reason=vague.budget_reason,
                    parts=[forward, backward],
                )
            return AnalysisOutcome(
                query=query,
                problem=f"equivalence {expr1} ≡ {expr2}",
                holds=False,
                satisfiable=refuted.satisfiable,
                from_cache=refuted.from_cache,
                solve_seconds=forward.solve_seconds + backward.solve_seconds,
                statistics={
                    "forward": forward.statistics,
                    "backward": backward.statistics,
                },
                counterexample=refuted.counterexample,
                parts=[forward, backward],
            )
        failed = forward if not forward.holds else backward
        return AnalysisOutcome(
            query=query,
            problem=f"equivalence {expr1} ≡ {expr2}",
            holds=forward.holds and backward.holds,
            satisfiable=failed.satisfiable,
            from_cache=forward.from_cache and backward.from_cache,
            solve_seconds=forward.solve_seconds + backward.solve_seconds,
            statistics={
                "forward": forward.statistics,
                "backward": backward.statistics,
            },
            counterexample=failed.counterexample,
            parts=[forward, backward],
        )

    def _outcome(
        self,
        query: Query,
        problem: str,
        record: SolveRecord,
        source: str | None,
        positive: bool,
    ) -> AnalysisOutcome:
        from_cache = source is not None
        return AnalysisOutcome(
            query=query,
            problem=problem,
            holds=record.satisfiable if positive else not record.satisfiable,
            satisfiable=record.satisfiable,
            from_cache=from_cache,
            cache=source,
            solve_seconds=0.0 if from_cache else record.solve_seconds,
            statistics=dict(record.statistics),
            counterexample=record.counterexample,
        )

    # -- batch -------------------------------------------------------------------

    def solve_many(
        self,
        queries: Iterable[Query],
        workers: int = 1,
        budget: Budget | None = None,
    ) -> BatchReport:
        """Answer a batch of queries, amortising translations and solves.

        Queries over the same schema share its type translation; queries that
        reduce to the same Lµ formula (duplicates, or e.g. a containment that
        an equivalence in the batch already checked) share one solver run.
        The returned :class:`BatchReport` records how much was shared.

        With ``workers > 1`` the batch is answered in two phases.  First this
        analyzer reduces every query and collects the distinct formulas that
        no cache layer answers; a :class:`repro.workers.WorkerPool` of at
        most ``workers`` processes runs the solver on each of them once.
        Then the queries are answered in order exactly as without workers,
        with those runs in hand, so the outcomes, counters and caches are the
        sequential ones.  No worker outlives the call.

        ``budget`` applies per query (tightening the analyzer-wide budget)
        and governs each solver run, in a worker too.  The batch survives
        worker crashes: a worker holds one formula at a time, so a formula
        whose worker dies is run again on a fresh worker, and a second death
        answers every query that needs it ``unknown("worker-crash")`` — no
        other query is interrupted.
        """
        queries = list(queries)
        runs_before = self.solver_runs
        hits_before = self.solve_cache_hits
        disk_before = self.disk_cache_hits
        started = time.perf_counter()
        if workers <= 1 or len(queries) <= 1:
            workers = 1
            outcomes = [self.solve(query, budget) for query in queries]
        else:
            effective = self._effective_budget(budget)
            runs = self._pool_runs(queries, effective, workers)
            outcomes = [self._answer(query, effective, runs) for query in queries]
        return BatchReport(
            outcomes=outcomes,
            total_seconds=time.perf_counter() - started,
            solver_runs=self.solver_runs - runs_before,
            cache_hits=self.solve_cache_hits - hits_before,
            disk_cache_hits=self.disk_cache_hits - disk_before,
            workers=workers,
        )

    def _pool_runs(
        self, queries: list[Query], budget: Budget | None, workers: int
    ) -> dict:
        """Run the solver, in a worker pool, once on every distinct formula
        the ``queries`` need; the runs are keyed as :meth:`_solve` reads them.

        Each formula goes with the text of the first query that needs it,
        which the ``worker-crash`` fault point matches.
        """
        from repro.workers import WorkerPool

        jobs: dict[sx.Formula, str] = {}
        for query in queries:
            for formula in self._unanswered(query):
                jobs.setdefault(formula, " ".join(query.exprs))
        if not jobs:
            return {}
        with WorkerPool(min(workers, len(jobs))) as pool:
            for formula, text in jobs.items():
                pool.submit(formula, budget, text)
            return dict(pool.next() for _ in jobs)

