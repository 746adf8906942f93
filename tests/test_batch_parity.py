"""Batch solving is observationally invisible.

``solve_many`` answers a batch through one warm analyzer — shared type
translations, one solver run per distinct formula, optionally a worker
pool — and none of that sharing may show in an answer: every query must get
the same ``holds``/``satisfiable``/``verdict_status`` and the byte-identical
serialised witness that a stand-alone solve in a fresh analyzer gives.
These tests pin that contract over the committed fuzz corpus, the batch
counters, budgets inside a batch (bystanders stay definite), disk-cache
replay of batch solves, and a small stylesheet audit.
"""

from __future__ import annotations

import multiprocessing
import os
import textwrap
from pathlib import Path

import pytest

from repro.api import Query, StaticAnalyzer
from repro.solver.governor import Budget
from repro.testing.corpus import load_corpus
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import builtin_dtd
from repro.xslt import audit_stylesheet

CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = load_corpus(CORPUS_DIR)

#: The committed regression instance of test_robustness: depth-14 nested
#: containment, effectively unbounded for the symbolic solver.
PATHOLOGICAL = "/".join(["a1"] + [f"a{i}[b{i}]" for i in range(2, 15)])
PATHOLOGICAL_SUPERSET = PATHOLOGICAL.replace("[b2]", "")

#: What "observationally identical" means, field by field.
OBSERVABLE_FIELDS = (
    "holds",
    "satisfiable",
    "verdict_status",
    "budget_reason",
    "error_kind",
    "counterexample",
)


def _observed(outcome) -> dict:
    return {name: getattr(outcome, name) for name in OBSERVABLE_FIELDS}


def _case_query(case) -> Query:
    """The :class:`Query` asking a corpus case's own question."""
    dtd = case.dtd()
    if case.kind in ("satisfiability", "emptiness"):
        return getattr(Query, case.kind)(case.exprs[0], dtd)
    return getattr(Query, case.kind)(case.exprs[0], case.exprs[1], dtd, dtd)


def _solo(query: Query):
    return StaticAnalyzer().solve(query)


# ---------------------------------------------------------------------------
# Differential: one warm batch vs stand-alone solves
# ---------------------------------------------------------------------------


def test_batch_matches_fresh_solves_on_corpus():
    """Every committed corpus seed, as one batch through one analyzer, must
    agree with a fresh analyzer per query on verdicts, ``verdict_status``
    and the serialised witness document."""
    queries = [_case_query(entry.case) for entry in ENTRIES]
    report = StaticAnalyzer().solve_many(queries)
    for entry, query, outcome in zip(ENTRIES, queries, report.outcomes):
        assert outcome.definite, entry.name
        assert _observed(outcome) == _observed(_solo(query)), entry.name
    assert 1 <= report.solver_runs <= len(queries)


def test_parallel_batch_matches_sequential_on_corpus():
    queries = [_case_query(entry.case) for entry in ENTRIES]
    sequential = StaticAnalyzer().solve_many(queries)
    parallel = StaticAnalyzer().solve_many(queries, workers=2)
    for entry, expected, outcome in zip(
        ENTRIES, sequential.outcomes, parallel.outcomes
    ):
        assert _observed(outcome) == _observed(expected), entry.name
    assert parallel.solver_runs == sequential.solver_runs


def test_batch_witness_matches_solo():
    """The witness of a batch member must not depend on its neighbours: the
    manager's pick walks to the lex-min assignment w.r.t. the variable
    order, so any Lean shared across queries would decode a different (if
    equally valid) document than a stand-alone solve (fuzz seed 7, trial
    20: ``<_><a!/></_>`` vs ``<c><a!/></c>``)."""
    dtd = parse_dtd("<!ELEMENT c EMPTY>", root="c")
    queries = [
        Query.containment("/descendant::a", "descendant::c", dtd, dtd),
        Query.satisfiability("/descendant::a", dtd),
        Query.satisfiability("descendant::c", dtd),
    ]
    report = StaticAnalyzer().solve_many(queries)
    for query, outcome in zip(queries, report.outcomes):
        assert _observed(outcome) == _observed(_solo(query))
    assert report.outcomes[0].counterexample is not None
    assert report.solver_runs == 3


def test_batch_counts_one_solver_run_per_distinct_formula():
    queries = [
        Query.satisfiability("child::a/child::b"),
        Query.satisfiability("child::c"),
        Query.overlap("a//b", "a/b"),
        Query.satisfiability("child::a/child::b"),  # duplicate
        Query.emptiness("child::c"),  # same formula as the satisfiability
    ]
    report = StaticAnalyzer().solve_many(queries)
    assert [o.holds for o in report.outcomes] == [True, True, True, True, False]
    assert report.solver_runs == 3
    assert report.cache_hits == 2
    assert [o.from_cache for o in report.outcomes] == [
        False,
        False,
        False,
        True,
        True,
    ]


# ---------------------------------------------------------------------------
# Resource governance inside a batch
# ---------------------------------------------------------------------------


def test_budgeted_batch_trips_pathological():
    """The depth-14 containment inside a batch: the steps budget must
    surface as the structured ``budget_reason`` "steps", and the cheap query
    of the same batch must come out definite."""
    queries = [
        Query.satisfiability("child::a"),
        Query.containment(PATHOLOGICAL, PATHOLOGICAL_SUPERSET),
    ]
    report = StaticAnalyzer().solve_many(queries, budget=Budget(max_steps=100_000))
    cheap, pathological = report.outcomes
    assert cheap.definite and cheap.holds is True
    assert pathological.unknown
    assert pathological.budget_reason == "steps"


def test_budgeted_batch_leaves_bystanders_definite():
    """A ``BudgetExceeded`` in one query of a batch must leave every other
    verdict definite and identical to an unbudgeted solve."""
    bystanders = [
        Query.satisfiability("child::a/child::b"),
        Query.containment("a/b", "a//b"),
        Query.overlap("a//b", "a/b"),
        Query.emptiness("child::c"),
    ]
    queries = bystanders + [Query.containment(PATHOLOGICAL, PATHOLOGICAL_SUPERSET)]
    reference = StaticAnalyzer().solve_many(bystanders)
    budgeted = StaticAnalyzer().solve_many(queries, budget=Budget(max_steps=100_000))
    for expected, outcome in zip(reference.outcomes, budgeted.outcomes):
        assert outcome.definite, outcome.problem
        assert _observed(outcome) == _observed(expected)
    assert budgeted.outcomes[-1].unknown
    assert budgeted.outcomes[-1].budget_reason == "steps"


def test_iteration_budget_is_an_unknown_verdict():
    """A fixpoint cut short by ``Budget(max_iterations=...)`` is reported
    unknown, never unsatisfiable, and the unknown is not cached."""
    query = Query.satisfiability("a/b[c]")
    analyzer = StaticAnalyzer()
    cut = analyzer.solve(query, Budget(max_iterations=3))
    assert cut.unknown and cut.budget_reason == "iterations"
    assert cut.satisfiable is None

    full = analyzer.solve(query)
    assert full.definite and full.satisfiable is True
    assert not full.from_cache
    assert full.statistics["iterations"] == 4
    enough = StaticAnalyzer().solve(query, Budget(max_iterations=4))
    assert _observed(enough) == _observed(full)


# ---------------------------------------------------------------------------
# Disk cache and the auditor
# ---------------------------------------------------------------------------


def test_batch_solves_replay_from_disk_as_single_queries(tmp_path):
    """A batch publishes each formula under its batch-independent key, so a
    later *single* solve of one member in a new analyzer is a disk hit."""
    cache_dir = str(tmp_path / "solve-cache")
    queries = [
        Query.satisfiability("child::a/child::b"),
        Query.overlap("a//b", "a/b"),
    ]
    batch = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries)
    assert batch.solver_runs == 2

    for query, expected in zip(queries, batch.outcomes):
        replay = StaticAnalyzer(cache_dir=cache_dir).solve(query)
        assert replay.from_cache and replay.cache == "disk"
        assert _observed(replay) == _observed(expected)


def _tiny_stylesheet(directory: Path) -> Path:
    """A stylesheet with a dead template and a coverage gap."""
    stylesheet = directory / "tiny.xsl"
    stylesheet.write_text(
        textwrap.dedent(
            """\
            <xsl:stylesheet version="1.0"
                xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
              <xsl:template match="title/meta"><dead/></xsl:template>
              <xsl:template match="meta"><xsl:apply-templates/></xsl:template>
            </xsl:stylesheet>
            """
        )
    )
    return stylesheet


def test_audit_findings_do_not_depend_on_workers(tmp_path):
    """A tiny stylesheet with a dead template and a coverage gap, audited
    with the sequential and the multiprocess batch path."""
    stylesheet = _tiny_stylesheet(tmp_path)
    sequential = audit_stylesheet(stylesheet, "wikipedia")
    parallel = audit_stylesheet(stylesheet, "wikipedia", workers=2)
    assert [f.as_dict() for f in parallel.findings] == [
        f.as_dict() for f in sequential.findings
    ]
    assert any(f.rule == "dead-template" for f in sequential.findings)
    assert parallel.solver_runs == sequential.solver_runs


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="only forked workers inherit the counting wrapper",
)
def test_pool_audit_binarizes_the_schema_once(tmp_path, monkeypatch):
    """The parent translates every query and a worker only runs the solver,
    so a ``workers=2`` audit binarizes its schema once across all processes.
    Each call appends a line to a file, which every process can reach."""
    from repro.xmltypes import compile as compile_module

    log = tmp_path / "binarize.log"
    binarize = compile_module.binarize_dtd

    def logging_binarize(dtd):
        with log.open("a") as handle:
            handle.write(f"{os.getpid()}\n")
        return binarize(dtd)

    monkeypatch.setattr(compile_module, "binarize_dtd", logging_binarize)
    wikipedia = builtin_dtd("wikipedia")
    schema = wikipedia.with_root(wikipedia.root)  # not binarized yet
    report = audit_stylesheet(_tiny_stylesheet(tmp_path), schema, workers=2)
    assert report.solver_runs > 1
    assert log.read_text().splitlines() == [str(os.getpid())]
