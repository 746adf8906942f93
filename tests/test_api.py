"""Tests for the ``repro.api`` batch façade."""

import json

import pytest

from repro.analysis.problems import Rooted, label_projection, relevant_attributes
from repro.api import KINDS, AnalysisOutcome, BatchReport, Query, StaticAnalyzer
from repro.cache import formula_digest
from repro.logic import syntax as sx
from repro.logic.negation import negate
from repro.solver.governor import Budget
from repro.solver.symbolic import SymbolicSolver
from repro.trees.unranked import serialize_tree
from repro.xmltypes.ast import BinaryTypeGrammar
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import builtin_dtd

#: The fast Table 2 decision problems (Figure 21 queries; the SMIL and XHTML
#: rows are exercised by the slow integration suite instead).
TABLE2_FAST = [
    Query.containment("/a[.//b[c/*//d]/b[c//d]/b[c/d]]", "/a[.//b[c/*//d]/b[c/d]]"),
    Query.containment("/a[.//b[c/*//d]/b[c/d]]", "/a[.//b[c/*//d]/b[c//d]/b[c/d]]"),
    Query.equivalence("a/b//c/foll-sibling::d/e", "a/b//d[prec-sibling::c]/e"),
    Query.containment(
        "a/b[//c]/following::d/e ∩ a/d[preceding::c]/e", "a/c/following::d/e"
    ),
]


def test_query_factories_and_validation():
    query = Query.containment("a", "b", "wikipedia")
    assert query.kind == "containment"
    assert query.exprs == ("a", "b")
    with pytest.raises(ValueError):
        Query("spelling", ("a",))
    # Arity is validated up front, not left to fail inside the solver.
    with pytest.raises(ValueError):
        Query("containment", ("a", "b"))  # missing the two type slots
    with pytest.raises(ValueError):
        Query("satisfiability", ("a", "b"), (None, None))
    assert set(KINDS) >= {"satisfiability", "containment", "equivalence"}


def test_coverage_rejects_mismatched_type_list():
    with pytest.raises(ValueError):
        Query.coverage("child::a", ["child::b", "child::a"], covering_types=[None])


def test_coverage_holds_for_trivial_cover():
    outcome = StaticAnalyzer().solve(Query.coverage("child::a", ["child::b", "child::a"]))
    assert outcome.holds is True


def test_query_as_dict_is_json_compatible():
    query = Query.coverage("a", ["b", "c"], "wikipedia")
    payload = json.loads(json.dumps(query.as_dict()))
    assert payload["kind"] == "coverage"
    assert payload["exprs"] == ["a", "b", "c"]
    assert payload["types"] == ["wikipedia", None, None]


def test_query_as_dict_round_trips_a_dtd_outside_the_registry():
    from repro.cli import wire

    tiny = parse_dtd("<!ELEMENT a EMPTY>", name="tiny")
    query = Query.satisfiability("a", tiny)
    payload = json.loads(json.dumps(query.as_dict()))
    assert payload["types"] == [{"dtd": "<!ELEMENT a EMPTY>", "root": "a", "name": "tiny"}]
    original = StaticAnalyzer().solve(query)
    replayed = StaticAnalyzer().solve(wire.query_from_dict(payload))
    assert original.definite and replayed.definite, replayed.error
    assert (replayed.holds, replayed.satisfiable) == (original.holds, original.satisfiable)


def test_a_dtd_parsed_under_a_registry_name_is_not_that_schema():
    """Only the registry's own object is described by its name: a DTD parsed
    from other text under the name ``wikipedia`` is described by its text,
    and reads back as that text, not as the registry schema."""
    from repro.cli import wire
    from repro.xmltypes.dtd import DTD

    registry = builtin_dtd("wikipedia")
    impostor = parse_dtd("<!ELEMENT article EMPTY>", name="wikipedia")
    inline = {"dtd": "<!ELEMENT article EMPTY>", "root": "article", "name": "wikipedia"}
    query = Query.satisfiability("self::article/child::meta", impostor)
    assert query.as_dict()["types"] == [inline]
    assert Query.satisfiability("a", Rooted(impostor)).as_dict()["types"] == [
        {"rooted": inline}
    ]
    assert Query.satisfiability("a", registry).as_dict()["types"] == ["wikipedia"]
    assert Query.satisfiability("a", Rooted(registry)).as_dict()["types"] == [
        "rooted:wikipedia"
    ]
    # A DTD built without text keeps today's description by name.
    assert Query.satisfiability("a", DTD(name="bare")).as_dict()["types"] == ["bare"]

    replayed = wire.query_from_dict(query.as_dict())
    assert replayed.types[0] is not registry
    assert replayed.types[0].source == impostor.source
    analyzer = StaticAnalyzer()
    assert analyzer.solve(replayed).holds is False  # article is EMPTY here
    assert analyzer.solve(Query.satisfiability(query.exprs[0], registry)).holds


@pytest.mark.parametrize("schema", ["smil", "xhtml", "xhtml-core", "wikipedia"])
def test_every_registry_schema_round_trips_as_one_schema(schema):
    """A registry object is described by its registry name, so the wire
    round trip reads back the same schema: one type-cache entry and one
    solver run, the replay answered from the solve cache."""
    from repro.cli import wire

    query = Query.satisfiability("a", builtin_dtd(schema))
    payload = json.loads(json.dumps(query.as_dict()))
    assert payload["types"] == [builtin_dtd(schema).name]
    analyzer = StaticAnalyzer()
    original = analyzer.solve(query)
    replayed = analyzer.solve(wire.query_from_dict(payload))
    assert original.definite and replayed.from_cache
    assert replayed.holds == original.holds
    statistics = analyzer.cache_statistics()
    assert statistics["type_cache_entries"] == 1
    assert (statistics["solver_runs"], statistics["solve_cache_hits"]) == (1, 1)


#: Problems whose only models are hedges of top-level trees, which no
#: document is: a node with a sibling has a parent, and the root has no
#: preceding sibling.
HEDGE_PROBES = [
    (Query.containment("following-sibling::*", "parent::*/*"), True),
    (Query.satisfiability("/preceding-sibling::c"), False),
]


@pytest.mark.parametrize(
    "query, holds", HEDGE_PROBES, ids=["containment", "satisfiability"]
)
def test_hedge_probes_are_answered_over_documents(query, holds):
    outcome = StaticAnalyzer().solve(query)
    assert outcome.definite and outcome.holds is holds, outcome.as_dict()
    assert outcome.satisfiable is False and outcome.counterexample is None


def test_solve_many_matches_one_by_one_solve_on_table2():
    batch = StaticAnalyzer().solve_many(TABLE2_FAST)
    one_by_one = [StaticAnalyzer().solve(query) for query in TABLE2_FAST]
    assert [o.holds for o in batch.outcomes] == [o.holds for o in one_by_one]
    assert [o.holds for o in batch.outcomes] == [True, False, True, False]


def test_solve_cache_shares_repeated_queries():
    analyzer = StaticAnalyzer()
    query = Query.containment("child::a[b]", "child::a")
    first = analyzer.solve(query)
    second = analyzer.solve(query)
    assert not first.from_cache
    assert second.from_cache
    assert first.holds == second.holds
    assert analyzer.solver_runs == 1
    assert analyzer.solve_cache_hits == 1


def test_equivalence_shares_containment_solves():
    analyzer = StaticAnalyzer()
    analyzer.solve(Query.containment("child::a[b]", "child::a"))
    outcome = analyzer.solve(Query.equivalence("child::a[b]", "child::a"))
    # The forward direction was already solved by the explicit containment.
    forward, backward = outcome.parts
    assert forward.from_cache
    assert not backward.from_cache
    assert outcome.holds is False  # child::a ⊄ child::a[b]
    assert outcome.counterexample is not None


def test_batch_report_is_json_round_trippable():
    report = StaticAnalyzer().solve_many(
        [
            Query.satisfiability("child::meta/child::title", "wikipedia"),
            Query.emptiness("child::title/child::meta", "wikipedia"),
            Query.satisfiability("child::meta/child::title", "wikipedia"),
        ]
    )
    assert isinstance(report, BatchReport)
    payload = json.loads(report.to_json())
    assert len(payload["outcomes"]) == 3
    assert payload["solver_runs"] == 2
    assert payload["cache_hits"] == 1
    first = payload["outcomes"][0]
    assert first["holds"] is True
    assert first["statistics"]["lean_size"] > 0
    assert first["counterexample"] is not None  # a witness document
    assert payload["outcomes"][2]["from_cache"] is True


def test_type_objects_and_names_are_both_accepted():
    from repro.xmltypes.library import wikipedia_dtd

    by_name = StaticAnalyzer().solve(Query.emptiness("child::meta/child::edit", "wikipedia"))
    by_object = StaticAnalyzer().solve(
        Query.emptiness("child::meta/child::edit", wikipedia_dtd())
    )
    assert by_name.holds is True
    assert by_object.holds is True


def test_type_translation_cache_is_shared_across_queries():
    # With label pruning (the default), the two queries project the schema
    # onto different element alphabets, so each gets its own translation;
    # with pruning off, the translation is shared across the whole workload.
    analyzer = StaticAnalyzer()
    analyzer.solve(Query.satisfiability("child::meta/child::title", "wikipedia"))
    analyzer.solve(Query.emptiness("child::meta/child::edit", "wikipedia"))
    stats = analyzer.cache_statistics()
    assert stats["type_cache_entries"] == 2
    assert stats["query_cache_entries"] == 2

    unpruned = StaticAnalyzer(prune_labels=False)
    unpruned.solve(Query.satisfiability("child::meta/child::title", "wikipedia"))
    unpruned.solve(Query.emptiness("child::meta/child::edit", "wikipedia"))
    stats = unpruned.cache_statistics()
    assert stats["type_cache_entries"] == 1
    assert stats["query_cache_entries"] == 2
    analyzer.clear_caches()
    assert analyzer.cache_statistics()["solve_cache_entries"] == 0


def test_aliases_and_dtd_objects_are_one_schema():
    """A registry alias and the registry's DTD object are the schema the
    name is: the same reduction, label projection and shared-type rule
    included, so the same Lean (365 formulas when they counted as two)."""
    analyzer = StaticAnalyzer()
    named = Query.containment(".//img", ".//img[@alt]", "xhtml", "xhtml")
    formula = analyzer._reduce(named)[0]
    for types in (("xhtml", "xhtml-strict"), (builtin_dtd("xhtml"), "xhtml")):
        query = Query.containment(".//img", ".//img[@alt]", *types)
        assert analyzer._reduce(query)[0] is formula
        outcome = StaticAnalyzer().solve(query, budget=Budget(max_lean=1))
        assert outcome.budget_reason == "lean"
        assert outcome.statistics["budget"]["observed"] == 141


@pytest.mark.parametrize("workers", [1, 2])
def test_alias_duplicates_share_one_solve(workers):
    report = StaticAnalyzer().solve_many(
        [
            Query.satisfiability("child::head", "xhtml"),
            Query.satisfiability("child::head", "xhtml-strict"),
        ],
        workers=workers,
    )
    assert (report.solver_runs, report.cache_hits) == (1, 1)
    assert [outcome.holds for outcome in report.outcomes] == [True, True]


def test_a_dtd_is_binarized_once_across_alphabets(monkeypatch):
    from repro.xmltypes import compile as compile_module

    binarized = []
    binarize = compile_module.binarize_dtd

    def counting_binarize(dtd):
        binarized.append(dtd)
        return binarize(dtd)

    monkeypatch.setattr(compile_module, "binarize_dtd", counting_binarize)
    dtd = parse_dtd(
        "<!ELEMENT doc (sec+)><!ELEMENT sec (title, para*, sec*)>"
        "<!ATTLIST sec id CDATA #IMPLIED><!ELEMENT title EMPTY><!ELEMENT para EMPTY>",
        name="sections",
    )
    analyzer = StaticAnalyzer()
    for query in (
        Query.satisfiability(".//sec/title", dtd),
        Query.containment(".//para", ".//sec/para", dtd, dtd),
        Query.satisfiability(".//sec[@id]/para", dtd),
    ):
        assert analyzer.solve(query).definite
    assert analyzer.cache_statistics()["type_cache_entries"] == 3
    assert binarized == [dtd]


def test_untyped_sides_take_no_type_cache_entry():
    analyzer = StaticAnalyzer()
    analyzer.solve(Query.containment("a/b", "a//b"))
    analyzer.solve(
        Query.containment("meta/title", "meta/*", "wikipedia", "wikipedia")
    )
    assert analyzer._type_cache
    assert all(key[0] is not None for key in analyzer._type_cache)


# ---------------------------------------------------------------------------
# A shared type is conjoined once (repro.analysis.problems.reduce_problem)
# ---------------------------------------------------------------------------

ROOTED_WIKI = Rooted("wikipedia")

#: A small inline schema (sections of titled paragraphs).
SECTIONS = parse_dtd(
    "<!ELEMENT doc (sec+)><!ELEMENT sec (title, para*, sec*)>"
    "<!ELEMENT title EMPTY><!ELEMENT para EMPTY>",
    root="doc",
    name="sections",
)

SAME_TYPED = [
    Query.containment(".//edit", "meta/history/edit[status]", "wikipedia", "wikipedia"),
    Query.overlap(".//title", "meta/*", "wikipedia", "wikipedia"),
    Query.coverage(".//*", ["meta", "meta//*"], "wikipedia", ["wikipedia", "wikipedia"]),
    Query.containment(".//sec/para", "sec/para", SECTIONS, SECTIONS),
    Query.overlap(".//sec[para]", ".//sec/sec", SECTIONS, SECTIONS),
    Query.coverage(".//*", ["sec", "sec//title"], SECTIONS, [SECTIONS, SECTIONS]),
    Query.containment("//edit", "//history/edit[status]", ROOTED_WIKI, ROOTED_WIKI),
    Query.overlap("//title", "/article/*/*", ROOTED_WIKI, ROOTED_WIKI),
    Query.coverage("//*", ["/article", "/article/*"], ROOTED_WIKI, [ROOTED_WIKI] * 2),
]


def _full_type_reduction(analyzer: StaticAnalyzer, query: Query):
    """The reduction before shared types were conjoined once: every side
    is translated under its own type."""
    exprs, types = query.exprs, query.types
    attributes = relevant_attributes(*exprs)
    labels = label_projection(exprs, types)
    if query.kind == "overlap":
        return sx.mk_and(
            analyzer.query_formula(exprs[0], types[0], attributes, labels),
            analyzer.query_formula(exprs[1], types[1], attributes, labels),
        )
    formula = analyzer.query_formula(exprs[0], types[0], attributes, labels)
    for other, other_type in zip(exprs[1:], types[1:]):
        formula = sx.mk_and(
            formula,
            negate(analyzer.query_formula(other, other_type, attributes, labels)),
        )
    return formula


@pytest.mark.parametrize(
    "query", SAME_TYPED, ids=[f"{q.kind}-{i}" for i, q in enumerate(SAME_TYPED)]
)
def test_shared_type_reduction_keeps_verdicts_and_witnesses(query):
    """Translating a repeated type once changes the formula, never its
    models: same verdict, and the same counterexample byte for byte."""
    shared = StaticAnalyzer()._reduce(query)[0]
    full = _full_type_reduction(StaticAnalyzer(), query)
    assert formula_digest(shared) != formula_digest(full)  # the rule applied
    got, want = SymbolicSolver(shared).solve(), SymbolicSolver(full).solve()
    assert got.satisfiable == want.satisfiable
    if query.kind != "overlap":  # only negated sides duplicate the closure
        assert len(got.lean) < len(want.lean)

    def witness(result):
        document = result.model_document()
        return None if document is None else serialize_tree(document)

    assert witness(got) == witness(want)


def test_a_side_over_another_type_keeps_its_constraint():
    """Only a repeated type is dropped: the mark cannot be both an article
    and a doc, so the right side selects nothing and containment fails."""
    outcome = StaticAnalyzer().solve(
        Query.containment(".//title", ".//title", "wikipedia", SECTIONS)
    )
    assert outcome.definite and outcome.holds is False


def test_outcome_time_ms_matches_seconds():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a"))
    assert isinstance(outcome, AnalysisOutcome)
    assert outcome.time_ms == pytest.approx(outcome.solve_seconds * 1000.0)


# ---------------------------------------------------------------------------
# Structured error outcomes (one bad query must never kill a batch)
# ---------------------------------------------------------------------------


def test_malformed_expression_is_a_structured_error():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a["))
    assert not outcome.ok
    assert outcome.holds is False
    assert outcome.error_kind == "ParseError"
    assert "qualifier" in outcome.error
    payload = json.loads(outcome.to_json())
    assert payload["error"]["kind"] == "ParseError"
    assert payload["counterexample"] is None


def test_unknown_schema_name_is_a_structured_error():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a", "nosuch"))
    assert not outcome.ok
    assert outcome.error_kind == "SchemaLookupError"
    assert "unknown built-in DTD 'nosuch'" in outcome.error


def test_unsupported_type_object_is_a_structured_error():
    # Unhashable objects and binary grammars are not type constraints either.
    for xml_type in (object(), [], BinaryTypeGrammar()):
        outcome = StaticAnalyzer().solve(Query.satisfiability("child::a", xml_type))
        assert not outcome.ok
        assert outcome.error_kind == "UnsupportedTypeError"
        report = StaticAnalyzer().solve_many(
            [
                Query.satisfiability("child::a", xml_type),
                Query.satisfiability("child::a", xml_type),
                Query.satisfiability("child::a"),
            ],
            workers=2,
        )
        kinds = [outcome.error_kind for outcome in report.outcomes]
        assert kinds == ["UnsupportedTypeError", "UnsupportedTypeError", None]
        assert report.outcomes[2].holds is True


def test_internal_bugs_are_not_masked_as_error_outcomes(monkeypatch):
    # A KeyError out of the solver machinery is a programming error, not an
    # input error: it must raise, not become a structured outcome.
    from repro import api as api_module

    def broken_solver(*args, **kwargs):
        raise KeyError("internal bug")

    monkeypatch.setattr(api_module, "SymbolicSolver", broken_solver)
    with pytest.raises(KeyError):
        StaticAnalyzer().solve(Query.satisfiability("child::a"))


def test_successful_outcomes_report_ok_and_no_error():
    outcome = StaticAnalyzer().solve(Query.satisfiability("child::a"))
    assert outcome.ok
    assert json.loads(outcome.to_json())["error"] is None


def test_bad_query_does_not_abort_solve_many():
    report = StaticAnalyzer().solve_many(
        [
            Query.containment("child::a[b]", "child::a"),
            Query.satisfiability("child::a[", None),
            Query.emptiness("child::title/child::meta", "wikipedia"),
        ]
    )
    assert [o.ok for o in report.outcomes] == [True, False, True]
    assert report.errors == 1
    assert report.outcomes[0].holds is True
    assert report.outcomes[2].holds is True
    assert json.loads(report.to_json())["errors"] == 1


def test_equivalence_with_bad_side_is_a_structured_error():
    outcome = StaticAnalyzer().solve(Query.equivalence("child::a[", "child::a"))
    assert not outcome.ok
    assert outcome.error_kind == "ParseError"
    assert len(outcome.parts) == 2
    # Both containment directions mention the malformed expression.
    assert all(not part.ok for part in outcome.parts)


# ---------------------------------------------------------------------------
# Multiprocess batch solving
# ---------------------------------------------------------------------------


def test_analyzer_has_no_engine_option():
    """The dict BDD manager is the only engine: there is nothing to choose."""
    with pytest.raises(TypeError, match="backend"):
        StaticAnalyzer(backend="dict")


@pytest.mark.parametrize(
    "knob",
    ["early_quantification", "monolithic_relation", "interleaved_order", "track_marks"],
)
def test_analyzer_has_no_solver_ablation_knobs(knob):
    """No analyzer option selects a solver configuration: the solver has
    exactly one (with ``track_marks=False`` it used to be unsound)."""
    with pytest.raises(TypeError, match=knob):
        StaticAnalyzer(**{knob: False})


@pytest.mark.parametrize(
    "build, keyword",
    [
        ("solver", "early_quantification"),
        ("solver", "monolithic_relation"),
        ("solver", "interleaved_order"),
        ("solver", "track_marks"),
        ("solver", "check_cycle_freeness"),
        ("analyzer", "max_lean"),
        ("analyzer", "degrade"),
        ("relation", "early_quantification"),
        ("relation", "monolithic"),
        ("encoding", "interleaved"),
    ],
)
def test_removed_configuration_keywords_raise_type_error(build, keyword):
    """The solver has one configuration, and ``Budget(max_lean=...)`` is the
    one spelling of a Lean bound: every removed keyword is a TypeError."""
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.relations import LeanEncoding, TransitionRelation
    from repro.solver.symbolic import SymbolicSolver

    formula = sx.prop("a") & sx.START
    constructors = {
        "solver": lambda **kw: SymbolicSolver(formula, **kw),
        "analyzer": lambda **kw: StaticAnalyzer(**kw),
        "relation": lambda **kw: TransitionRelation(
            LeanEncoding(compute_lean(formula)), 1, **kw
        ),
        "encoding": lambda **kw: LeanEncoding(compute_lean(formula), **kw),
    }
    with pytest.raises(TypeError, match=keyword):
        constructors[build](**{keyword: 1})


#: Batches of different queries that reduce to one formula: a later side
#: repeating the first side's type is translated under ⊤, and a coverage by
#: one expression is that containment.
DUPLICATE_FORMULA_BATCHES = [
    pytest.param(
        [
            Query.containment("a/b", "a//b", "wikipedia", "wikipedia"),
            Query.containment("a/b", "a//b", "wikipedia", None),
        ],
        id="typed-and-untyped-second-side",
    ),
    pytest.param(
        [Query.containment("a/b", "a//b"), Query.coverage("a/b", ["a//b"])],
        id="containment-and-coverage",
    ),
]


def _cache_flags(report: BatchReport) -> list[tuple]:
    return [(outcome.cache, outcome.from_cache) for outcome in report.outcomes]


@pytest.mark.parametrize(
    "queries",
    [
        pytest.param(
            [
                Query.containment("child::a[b]", "child::a"),
                Query.satisfiability("child::a"),
                Query.containment("child::a[b]", "child::a"),  # duplicate
                Query.overlap("a//b", "a/b"),
                Query.emptiness("child::title/child::meta", "wikipedia"),
            ],
            id="mixed",
        ),
        *DUPLICATE_FORMULA_BATCHES,
    ],
)
def test_solve_many_workers_matches_sequential_order_and_verdicts(queries):
    sequential = StaticAnalyzer().solve_many(queries, workers=1)
    parallel = StaticAnalyzer().solve_many(queries, workers=2)
    assert [o.holds for o in parallel.outcomes] == [o.holds for o in sequential.outcomes]
    assert [o.problem for o in parallel.outcomes] == [o.problem for o in sequential.outcomes]
    assert parallel.workers == 2
    # Callers get back the exact query objects they submitted.
    assert all(o.query is q for o, q in zip(parallel.outcomes, queries))
    # Every batch repeats a formula, which the solve cache answers once.
    assert parallel.cache_hits >= 1
    assert (parallel.solver_runs, parallel.cache_hits) == (
        sequential.solver_runs,
        sequential.cache_hits,
    )
    assert _cache_flags(parallel) == _cache_flags(sequential)


#: Lµ formulas are not type constraints: one that is not cycle-free (its
#: least fixpoint holds at no node of a finite tree), an open one, and a
#: closed, cycle-free one under ``Rooted``.
FORMULA_TYPES = {
    "not-cycle-free": sx.mu([("X", sx.dia(1, sx.dia(-1, sx.var("X"))))], sx.var("X")),
    "open": sx.var("Z"),
    "rooted": Rooted(sx.prop("a")),
}


@pytest.mark.parametrize("name", list(FORMULA_TYPES))
def test_a_formula_type_is_an_error_outcome(name):
    """A formula passed as a type is neither a verdict nor an exception, in
    process and through the worker pool."""
    query = Query.satisfiability("self::*", FORMULA_TYPES[name])
    outcome = StaticAnalyzer().solve(query)
    assert outcome.verdict_status == "error"
    assert outcome.error_kind == "UnsupportedTypeError"
    report = StaticAnalyzer().solve_many(
        [query, Query.satisfiability("child::b")], workers=2
    )
    assert [o.error_kind for o in report.outcomes] == ["UnsupportedTypeError", None]
    assert report.outcomes[1].holds is True


def test_solve_many_workers_propagates_structured_errors():
    queries = [
        Query.satisfiability("child::a["),          # parse error
        Query.satisfiability("child::a", "nosuch"), # unknown schema
        Query.satisfiability("child::a"),
    ]
    report = StaticAnalyzer().solve_many(queries, workers=2)
    assert [o.ok for o in report.outcomes] == [False, False, True]
    assert report.errors == 2
    assert report.outcomes[0].error_kind == "ParseError"
    assert report.outcomes[1].error_kind == "SchemaLookupError"


def test_solve_many_workers_share_the_disk_cache(tmp_path):
    cache_dir = str(tmp_path / "solve-cache")
    first = StaticAnalyzer(cache_dir=cache_dir)
    queries = [
        Query.containment("child::a[b]", "child::a"),
        Query.overlap("a//b", "a/b"),
    ]
    report = first.solve_many(queries, workers=2)
    assert report.solver_runs == 2
    assert first.disk_cache_writes == 2  # the parent writes the workers' runs
    # A second analyzer answers everything from disk, starting no pool.
    second = StaticAnalyzer(cache_dir=cache_dir)
    replay = second.solve_many(queries, workers=2)
    assert replay.solver_runs == 0
    assert replay.disk_cache_hits == 2
    assert [o.holds for o in replay.outcomes] == [o.holds for o in report.outcomes]


def test_pool_replay_reads_each_disk_entry_once(tmp_path, monkeypatch):
    """A ``workers=2`` replay from disk checks entries for presence and reads
    each once, when it answers: as many reads as ``workers=1`` makes."""
    from repro.cache import DiskSolveCache

    cache_dir = str(tmp_path / "solve-cache")
    queries = [
        Query.containment("child::a[b]", "child::a"),
        Query.overlap("a//b", "a/b"),
        Query.satisfiability("child::meta/child::title", "wikipedia"),
    ]
    StaticAnalyzer(cache_dir=cache_dir).solve_many(queries)
    reads = []
    get = DiskSolveCache.get

    def counting_get(self, formula):
        reads.append(formula)
        return get(self, formula)

    monkeypatch.setattr(DiskSolveCache, "get", counting_get)
    sequential = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=1)
    assert len(reads) == 3
    reads.clear()
    parallel = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=2)
    assert len(reads) == 3
    assert (parallel.solver_runs, parallel.disk_cache_hits) == (
        sequential.solver_runs,
        sequential.disk_cache_hits,
    ) == (0, 3)


@pytest.mark.parametrize(
    "queries",
    [
        pytest.param(
            [
                Query.satisfiability("child::a[b]"),
                Query.emptiness("child::a[b]"),  # same formula: no second solve
                Query.containment("a/b", "a//b"),
                Query.equivalence("a//b", "a//b[c] | a//b[not(c)]"),
                Query.containment("a/b", "a//b"),  # duplicate
            ],
            id="mixed",
        ),
        *DUPLICATE_FORMULA_BATCHES,
    ],
)
def test_parallel_batch_counters_equal_sequential(queries, tmp_path):
    """A ``workers=2`` batch must report the *same* ``solver_runs``/
    ``cache_hits``/``disk_cache_hits`` and cache flags as a sequential pass
    over the identical batch — including a satisfiability and an emptiness
    of one expression, and the equivalence decomposition."""
    cache_dir = str(tmp_path / "solve-cache")
    StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=1)

    sequential = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=1)
    parallel = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=2)

    def observed(outcome) -> dict:
        return {
            name: getattr(outcome, name)
            for name in (
                "holds",
                "satisfiable",
                "verdict_status",
                "budget_reason",
                "error_kind",
                "counterexample",
            )
        }

    assert [observed(o) for o in parallel.outcomes] == [
        observed(o) for o in sequential.outcomes
    ]
    assert parallel.solver_runs == sequential.solver_runs
    assert parallel.cache_hits == sequential.cache_hits
    assert parallel.disk_cache_hits == sequential.disk_cache_hits
    assert _cache_flags(parallel) == _cache_flags(sequential)
