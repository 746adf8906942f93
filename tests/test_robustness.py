"""Resource governance, graceful degradation, and crash tolerance.

The solver is ``2^O(lean)`` (Lemma 6.7), so deployments facing untrusted
queries bound every solve with a :class:`repro.solver.governor.Budget` and
treat exhaustion as a first-class *unknown* verdict.  This suite covers the
whole ladder:

* the governor primitives (budget validation/merging, every trip reason);
* ``unknown`` outcomes through the API façade, including the committed
  pathological query that must trip a 2-second deadline with the structured
  reason ``"deadline"``;
* graceful degradation to the bounded explicit solver;
* crash-tolerant batches: an injected mid-batch worker crash must leave
  every other verdict identical to an uninjected run;
* the one worker pool behind ``solve_many`` and ``serve``: one crash rule on
  both paths, no worker outliving the call, non-fork start methods, and
  interactive ``serve --workers`` clients;
* disk-cache corruption quarantine (including the torn-write fault point);
* the wire/CLI surface (per-request budgets, exit code 3) and the fuzzer's
  chaos axis.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import pickle
import select
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.api import BatchReport, Query, StaticAnalyzer
from repro.cli import main
from repro.cli import wire
from repro.cli.analyze import EXIT_ANALYSIS_ERROR, EXIT_OK, EXIT_UNKNOWN
from repro.cli.serve import serve
from repro.core.errors import BUDGET_REASONS, BudgetExceeded
from repro.solver.governor import Budget, ResourceGovernor, governor_for
from repro.core import faults

#: A containment whose full solve is effectively unbounded (the scaling
#: family of docs/BENCHMARKS.md at depth 14): ``a1/a2[b2]/.../a14[b14]``
#: against the same path with the first filter removed.  Committed as the
#: regression instance for deadline trips — the solver must give up on it
#: within a small deadline instead of running for minutes.
PATHOLOGICAL = "/".join(["a1"] + [f"a{i}[b{i}]" for i in range(2, 15)])
PATHOLOGICAL_SUPERSET = PATHOLOGICAL.replace("[b2]", "")


# ---------------------------------------------------------------------------
# Budget and governor primitives
# ---------------------------------------------------------------------------


def test_budget_from_dict_round_trips():
    budget = Budget.from_dict(
        {"deadline_seconds": 1.5, "max_steps": 100, "max_iterations": 7}
    )
    assert budget == Budget(deadline_seconds=1.5, max_steps=100, max_iterations=7)
    assert Budget.from_dict(budget.as_dict()) == budget
    assert Budget().unlimited and not budget.unlimited


def test_budget_from_dict_rejects_unknown_and_non_positive_fields():
    with pytest.raises(ValueError, match="unknown budget field"):
        Budget.from_dict({"max_steps": 1, "timeout": 3})
    for field in ("deadline_seconds", "max_steps", "max_iterations", "max_lean"):
        with pytest.raises(ValueError, match="must be positive"):
            Budget.from_dict({field: 0})
        with pytest.raises(ValueError, match="must be positive"):
            Budget.from_dict({field: -1})


def test_budget_merged_with_tightens_field_by_field():
    analyzer_wide = Budget(deadline_seconds=10.0, max_steps=1000)
    per_request = Budget(max_steps=50, max_lean=30)
    merged = analyzer_wide.merged_with(per_request)
    assert merged == Budget(deadline_seconds=10.0, max_steps=50, max_lean=30)
    assert analyzer_wide.merged_with(None) == analyzer_wide


def test_budget_merged_with_never_loosens():
    service = Budget(deadline_seconds=2.0, max_steps=100, max_iterations=3, max_lean=5)
    looser = Budget(
        deadline_seconds=3600.0, max_steps=10**9, max_iterations=10**6, max_lean=100_000
    )
    assert service.merged_with(looser) == service
    assert looser.merged_with(service) == service


@pytest.mark.parametrize(
    "field", ["deadline_seconds", "max_steps", "max_iterations", "max_lean"]
)
@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "true", "false", '"5"'])
def test_budget_rejects_non_finite_and_boolean_fields(field, text):
    # json.loads accepts NaN and Infinity; NaN compares false with every
    # bound, so accepting it would silently lift the limit.
    payload = json.loads(f'{{"{field}": {text}}}')
    with pytest.raises(ValueError, match=field):
        Budget.from_dict(payload)
    with pytest.raises(ValueError, match=field):
        Budget(**payload)


@pytest.mark.parametrize("field", ["max_steps", "max_iterations", "max_lean"])
def test_budget_from_dict_rejects_fractional_counts(field):
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        Budget.from_dict({field: 2.7})
    assert getattr(Budget.from_dict({field: 3.0}), field) == 3


def test_governor_for_returns_none_when_unlimited():
    assert governor_for(None) is None
    assert governor_for(Budget()) is None
    assert governor_for(Budget(max_steps=1)) is not None


def test_governor_trips_step_budget_within_one_stride():
    governor = ResourceGovernor(Budget(max_steps=10))
    with pytest.raises(BudgetExceeded) as info:
        for _ in range(2 * ResourceGovernor.POLL_STRIDE):
            governor.tick()
    assert info.value.reason == "steps"
    assert info.value.limit == 10
    assert info.value.observed <= 2 * ResourceGovernor.POLL_STRIDE


def test_governor_trips_deadline():
    governor = ResourceGovernor(Budget(deadline_seconds=0.001))
    time.sleep(0.01)
    with pytest.raises(BudgetExceeded) as info:
        governor.poll()
    assert info.value.reason == "deadline"


def test_governor_trips_iterations_and_lean():
    governor = ResourceGovernor(Budget(max_iterations=4))
    governor.check_iteration(4)  # at the cap: fine
    with pytest.raises(BudgetExceeded) as info:
        governor.check_iteration(5)
    assert info.value.reason == "iterations"

    governor = ResourceGovernor(Budget(max_lean=5))
    governor.check_lean(5)
    with pytest.raises(BudgetExceeded) as info:
        governor.check_lean(6)
    assert info.value.reason == "lean"


def test_governor_injected_deadline_fault():
    faults.install(faults.FaultPlan([faults.FaultPoint(point="deadline")]))
    try:
        governor = ResourceGovernor(Budget(deadline_seconds=3600.0))
        with pytest.raises(BudgetExceeded) as info:
            governor.poll()
        assert info.value.reason == "deadline"
        governor.poll()  # the point was times=1: spent after one firing
    finally:
        faults.uninstall()


def test_budget_exceeded_validates_reason():
    exc = BudgetExceeded("steps", "ran out", limit=5, observed=9)
    assert exc.as_dict() == {
        "reason": "steps",
        "message": "ran out",
        "limit": 5,
        "observed": 9,
    }
    with pytest.raises(ValueError):
        BudgetExceeded("toner", "not a reason")
    assert "worker-crash" in BUDGET_REASONS


def test_budget_exceeded_pickles_with_its_fields():
    """A worker sends a budget trip back to its pool as the exception."""
    exc = BudgetExceeded("deadline", "ran out", limit=2.0, observed=2.5)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is BudgetExceeded
    assert copy.as_dict() == exc.as_dict()


# ---------------------------------------------------------------------------
# Unknown outcomes through the API façade
# ---------------------------------------------------------------------------


def test_step_budget_yields_structured_unknown_then_definite():
    analyzer = StaticAnalyzer()
    query = Query.containment("a/b", "a//b")
    vague = analyzer.solve(query, Budget(max_steps=1))
    assert vague.ok and not vague.definite and vague.unknown
    assert vague.verdict_status == "unknown"
    assert vague.budget_reason == "steps"
    assert vague.holds is None and vague.satisfiable is None
    assert vague.statistics["budget"]["reason"] == "steps"
    assert vague.as_dict()["verdict_status"] == "unknown"

    sharp = analyzer.solve(query)
    assert sharp.definite and sharp.verdict_status == "definite"
    assert sharp.holds is True and sharp.budget_reason is None

    # Cache layers are immune to budgets: once a definite verdict is known,
    # the same budgeted request is answered from cache instead of unknown.
    cached = analyzer.solve(query, Budget(max_steps=1))
    assert cached.definite and cached.from_cache


def test_max_lean_gate_refuses_before_solving():
    analyzer = StaticAnalyzer(budget=Budget(max_lean=5))
    outcome = analyzer.solve(Query.satisfiability("a/b[c]//d"))
    assert outcome.unknown and outcome.budget_reason == "lean"
    assert outcome.statistics["budget"]["observed"] > 5


def test_analyzer_wide_budget_merges_with_per_call_budget():
    analyzer = StaticAnalyzer(budget=Budget(max_lean=5))
    # A per-call budget cannot relax the analyzer-wide lean gate ...
    outcome = analyzer.solve(Query.satisfiability("a/b"), Budget(max_lean=10_000))
    assert outcome.unknown and outcome.budget_reason == "lean"
    assert outcome.statistics["budget"]["limit"] == 5
    # ... but it tightens the fields the analyzer leaves open.
    roomy = StaticAnalyzer(budget=Budget(max_lean=10_000))
    outcome = roomy.solve(Query.containment("a/b", "a//b"), Budget(max_steps=1))
    assert outcome.unknown and outcome.budget_reason == "steps"


def test_error_outcomes_carry_error_status():
    outcome = StaticAnalyzer().solve(Query.satisfiability("a////"))
    assert not outcome.ok and outcome.verdict_status == "error"
    assert not outcome.definite and not outcome.unknown
    assert outcome.budget_reason is None


def test_equivalence_with_budget_is_unknown_not_wrong():
    analyzer = StaticAnalyzer()
    query = Query.equivalence("a//b", "a//b[c] | a//b[not(c)]")
    vague = analyzer.solve(query, Budget(max_steps=1))
    assert vague.unknown and vague.budget_reason == "steps"
    sharp = analyzer.solve(query)
    assert sharp.definite and sharp.holds is True


def test_batch_report_counts_unknowns():
    analyzer = StaticAnalyzer()
    outcomes = [
        analyzer.solve(Query.satisfiability("a"), None),
        analyzer.solve(Query.containment("a/b", "a//b"), Budget(max_steps=1)),
    ]
    report = BatchReport(
        outcomes=outcomes, total_seconds=0.0, solver_runs=2, cache_hits=0
    )
    assert report.unknowns == 1
    assert report.as_dict()["unknowns"] == 1


def test_pathological_query_trips_deadline():
    """The committed regression instance: a 2s deadline must turn the
    effectively-unbounded depth-14 containment into a structured unknown
    with the reason "deadline"."""
    query = Query.containment(PATHOLOGICAL, PATHOLOGICAL_SUPERSET)
    started = time.perf_counter()
    outcome = StaticAnalyzer().solve(query, Budget(deadline_seconds=2.0))
    elapsed = time.perf_counter() - started
    assert outcome.unknown, f"expected unknown, got {outcome.as_dict()}"
    assert outcome.budget_reason == "deadline"
    # The deadline is enforced inside iterations (kernel ticks), so the
    # solve must stop within a small margin of the 2s budget.
    assert elapsed < 10.0, f"deadline trip took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Crash-tolerant batches
# ---------------------------------------------------------------------------

BATCH = [
    Query.satisfiability("a/b"),
    Query.containment("a/b", "a//b"),
    Query.satisfiability("zzpoison"),
    Query.containment("a//b", "a/b"),
    Query.satisfiability("c[d]"),
]


def _verdicts(report: BatchReport) -> list[tuple]:
    return [
        (o.verdict_status, o.holds, o.satisfiable, o.budget_reason)
        for o in report.outcomes
    ]


def test_batch_recovers_fully_from_a_single_injected_crash(tmp_path, monkeypatch):
    """One worker crash (latched: exactly one firing across the pool and its
    respawns) must be invisible in the verdicts: the isolated retry answers
    the blamed query, and every verdict equals the uninjected run's."""
    reference = StaticAnalyzer().solve_many(BATCH)
    plan = [
        {
            "point": "worker-crash",
            "match": "zzpoison",
            "times": None,
            "latch": str(tmp_path / "crash.latch"),
        }
    ]
    monkeypatch.setenv(faults.FAULTS_ENV, json.dumps(plan))
    report = StaticAnalyzer().solve_many(BATCH, workers=2)
    assert (tmp_path / "crash.latch").exists(), "the fault never fired"
    assert _verdicts(report) == _verdicts(reference)
    assert all(o.definite for o in report.outcomes)


def test_batch_quarantines_a_poison_query(monkeypatch):
    """A query that kills its worker every time (shared pool *and* isolated
    retry) becomes unknown('worker-crash'); every other verdict must be
    identical to the uninjected run."""
    reference = StaticAnalyzer().solve_many(BATCH)
    plan = [{"point": "worker-crash", "match": "zzpoison", "times": None}]
    monkeypatch.setenv(faults.FAULTS_ENV, json.dumps(plan))
    report = StaticAnalyzer().solve_many(BATCH, workers=2)
    poison = report.outcomes[2]
    assert poison.unknown and poison.budget_reason == "worker-crash"
    assert report.unknowns == 1
    for index, outcome in enumerate(report.outcomes):
        if index == 2:
            continue
        assert (
            _verdicts(report)[index] == _verdicts(reference)[index]
        ), f"bystander {index} verdict changed"


def test_batch_workers_enforce_budgets(monkeypatch):
    """Budgets pickle across the pool: workers produce the same structured
    unknown the in-process path does."""
    queries = [Query.satisfiability("a"), Query.containment("a/b", "a//b")]
    report = StaticAnalyzer().solve_many(queries, workers=2, budget=Budget(max_steps=1))
    assert all(o.unknown and o.budget_reason == "steps" for o in report.outcomes)
    sequential = StaticAnalyzer().solve_many(queries, budget=Budget(max_steps=1))
    assert [o.statistics["budget"] for o in report.outcomes] == [
        o.statistics["budget"] for o in sequential.outcomes
    ]


# ---------------------------------------------------------------------------
# Disk-cache corruption quarantine
# ---------------------------------------------------------------------------


def test_corrupt_cache_entry_is_quarantined_and_resolved(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = StaticAnalyzer(cache_dir=cache_dir)
    outcome = first.solve(Query.satisfiability("a/b"))
    assert outcome.definite
    [entry] = list(first.disk_cache.entry_paths())
    entry.write_text('{"truncated', encoding="utf-8")

    second = StaticAnalyzer(cache_dir=cache_dir)
    replay = second.solve(Query.satisfiability("a/b"))
    assert replay.definite and replay.satisfiable is True
    assert second.disk_cache_hits == 0  # the corrupt entry was a miss
    corpses = list(tmp_path.glob("cache/**/*.corrupt"))
    assert len(corpses) == 1, "the corrupt entry was not quarantined"
    # The healthy verdict was re-written; a third analyzer hits disk again.
    third = StaticAnalyzer(cache_dir=cache_dir)
    assert third.solve(Query.satisfiability("a/b")).from_cache


def test_torn_write_fault_is_survived_by_the_next_reader(tmp_path):
    cache_dir = str(tmp_path / "cache")
    faults.install(faults.FaultPlan([faults.FaultPoint(point="cache-torn-write")]))
    try:
        writer = StaticAnalyzer(cache_dir=cache_dir)
        assert writer.solve(Query.satisfiability("a/b")).definite
    finally:
        faults.uninstall()

    reader = StaticAnalyzer(cache_dir=cache_dir)
    replay = reader.solve(Query.satisfiability("a/b"))
    assert replay.definite and replay.satisfiable is True
    assert reader.disk_cache_hits == 0
    assert list(tmp_path.glob("cache/**/*.corrupt")), "torn entry not quarantined"


def test_pool_path_answers_a_torn_disk_entry(tmp_path):
    """A torn entry is present on disk, so the pool does not run its formula;
    reading it when answering misses, and the parent runs the solver."""
    cache_dir = str(tmp_path / "cache")
    faults.install(faults.FaultPlan([faults.FaultPoint(point="cache-torn-write")]))
    try:
        StaticAnalyzer(cache_dir=cache_dir).solve(Query.satisfiability("a/b"))
    finally:
        faults.uninstall()

    queries = [Query.satisfiability("a/b"), Query.containment("a/b", "a//b")]
    report = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=2)
    assert [o.definite for o in report.outcomes] == [True, True]
    assert [o.holds for o in report.outcomes] == [True, True]
    assert (report.solver_runs, report.disk_cache_hits) == (2, 0)
    assert list(tmp_path.glob("cache/**/*.corrupt")), "torn entry not quarantined"
    # The parent's run republished a good entry.
    replay = StaticAnalyzer(cache_dir=cache_dir).solve_many(queries, workers=2)
    assert (replay.solver_runs, replay.disk_cache_hits) == (0, 2)


# ---------------------------------------------------------------------------
# Wire format and CLI surface
# ---------------------------------------------------------------------------


def test_wire_budget_from_dict():
    assert wire.budget_from_dict({"kind": "satisfiability"}) is None
    assert wire.budget_from_dict({"budget": {}}) is None  # unlimited: absent
    budget = wire.budget_from_dict({"budget": {"max_steps": 9}})
    assert budget == Budget(max_steps=9)
    with pytest.raises(wire.WireError, match="must be an object"):
        wire.budget_from_dict({"budget": 5})
    with pytest.raises(wire.WireError, match="invalid budget"):
        wire.budget_from_dict({"budget": {"timeout": 3}})
    with pytest.raises(wire.WireError, match="invalid budget"):
        wire.budget_from_dict({"budget": {"max_steps": -1}})


@pytest.mark.parametrize(
    "budget_text, field",
    [
        ('{"deadline_seconds": NaN}', "deadline_seconds"),
        ('{"deadline_seconds": Infinity}', "deadline_seconds"),
        ('{"max_steps": true}', "max_steps"),
        ('{"max_iterations": 2.7}', "max_iterations"),
        ('{"max_lean": Infinity}', "max_lean"),
        # Too large for a float: this used to end the serve loop.
        ('{"deadline_seconds": 1%s}' % ("0" * 400), "deadline_seconds"),
    ],
    ids=["nan", "infinity", "bool", "fraction", "lean-infinity", "overflow"],
)
def test_wire_rejects_non_finite_boolean_and_fractional_budgets(budget_text, field):
    line = '{"id": 7, "kind": "satisfiability", "exprs": ["a"], "budget": %s}' % budget_text
    with pytest.raises(wire.WireError, match=f"invalid budget: budget field {field}"):
        wire.budget_from_dict(json.loads(line))
    output = io.StringIO()
    assert serve(io.StringIO(line + '\n{"op": "ping"}\n'), output) == 0
    response, ping = [json.loads(text) for text in output.getvalue().splitlines()]
    assert response["id"] == 7 and response["ok"] is False
    assert field in response["error"]["message"]
    assert ping == {"ok": True, "op": "ping"}


def test_analyze_cli_budget_exit_code_three(capsys):
    code = main(["analyze", "a/b", "a//b", "--max-steps", "1"])
    document = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNKNOWN
    assert document["unknowns"] == 1 and document["errors"] == 0
    [outcome] = document["outcomes"]
    assert outcome["verdict_status"] == "unknown"
    assert outcome["budget_reason"] == "steps"


def test_analyze_cli_per_request_budgets(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        json.dumps(
            {"kind": "containment", "exprs": ["a/b", "a//b"],
             "budget": {"max_steps": 1}}
        )
        + "\n"
        + json.dumps({"kind": "satisfiability", "exprs": ["a"]})
        + "\n",
        encoding="utf-8",
    )
    code = main(["analyze", "--batch", str(batch)])
    document = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNKNOWN
    first, second = document["outcomes"]
    assert first["verdict_status"] == "unknown"
    assert second["verdict_status"] == "definite" and second["satisfiable"]


def test_analyze_cli_malformed_budget_is_a_conversion_error(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        json.dumps(
            {"kind": "satisfiability", "exprs": ["a"], "budget": {"nope": 1}}
        )
        + "\n",
        encoding="utf-8",
    )
    code = main(["analyze", "--batch", str(batch)])
    document = json.loads(capsys.readouterr().out)
    assert code == EXIT_ANALYSIS_ERROR
    assert document["outcomes"][0]["verdict_status"] == "error"


def test_analyze_cli_definite_still_exits_zero(capsys):
    assert main(["analyze", "a", "--max-steps", "1000000"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["unknowns"] == 0


def test_audit_cli_budget_exit_code_three(tmp_path, capsys):
    sheet = tmp_path / "sheet.xsl"
    sheet.write_text(
        '<?xml version="1.0"?>\n'
        '<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" '
        'version="1.0">\n'
        + textwrap.dedent(
            """\
            <xsl:template match="/">
              <xsl:apply-templates select="article"/>
            </xsl:template>
            <xsl:template match="article">body</xsl:template>
            """
        )
        + "</xsl:stylesheet>\n",
        encoding="utf-8",
    )
    code = main(
        ["audit", str(sheet), "--schema", "wikipedia", "--format", "json",
         "--max-steps", "1"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNKNOWN
    rules = {finding["rule"] for finding in report["findings"]}
    assert "analysis-unknown" in rules
    assert all(
        finding["severity"] == "info"
        for finding in report["findings"]
        if finding["rule"] == "analysis-unknown"
    )


def _serve_lines(lines: list[dict], **kwargs) -> list[dict]:
    text = "\n".join(json.dumps(line) for line in lines)
    output = io.StringIO()
    assert serve(io.StringIO(text + "\n"), output, **kwargs) == 0
    return [json.loads(line) for line in output.getvalue().splitlines()]


def test_serve_per_request_budget_yields_unknown_and_session_continues():
    responses = _serve_lines(
        [
            {"id": 1, "kind": "containment", "exprs": ["a/b", "a//b"],
             "budget": {"max_steps": 1}},
            {"id": 2, "kind": "satisfiability", "exprs": ["a"]},
            {"op": "ping"},
        ]
    )
    assert responses[0]["id"] == 1 and responses[0]["ok"]
    assert responses[0]["outcome"]["verdict_status"] == "unknown"
    assert responses[0]["outcome"]["budget_reason"] == "steps"
    assert responses[1]["outcome"]["verdict_status"] == "definite"
    assert responses[2] == {"ok": True, "op": "ping"}


def test_serve_analyzer_wide_budget():
    responses = _serve_lines(
        [{"id": 1, "kind": "containment", "exprs": ["a/b", "a//b"]}],
        budget=Budget(max_steps=1),
    )
    assert responses[0]["outcome"]["verdict_status"] == "unknown"


@pytest.mark.parametrize(
    "flags, request_budget, exprs, reason, limit",
    [
        (["--max-lean", "5"], {"max_lean": 100_000}, ["a/b[c]//d"], "lean", 5),
        (["--deadline", "1"], {"deadline_seconds": 3600},
         [PATHOLOGICAL, PATHOLOGICAL_SUPERSET], "deadline", 1.0),
    ],
    ids=["max-lean", "deadline"],
)
def test_serve_per_request_budget_cannot_loosen_the_service_budget(
    flags, request_budget, exprs, reason, limit, monkeypatch, capsys
):
    """``repro serve --max-lean 5`` refuses ``a/b[c]//d``, and ``--deadline
    1`` gives up on the pathological containment; a request asking for a
    looser budget is answered the same way."""
    kind = "satisfiability" if len(exprs) == 1 else "containment"
    request = {"id": 1, "kind": kind, "exprs": exprs, "budget": request_budget}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request) + "\n"))
    started = time.perf_counter()
    assert main(["serve", *flags]) == 0
    assert time.perf_counter() - started < 30.0
    [response] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    outcome = response["outcome"]
    assert outcome["verdict_status"] == "unknown", outcome
    assert outcome["budget_reason"] == reason
    assert outcome["statistics"]["budget"]["limit"] == limit


def test_serve_parallel_survives_poison_request(monkeypatch):
    plan = [{"point": "worker-crash", "match": "zzpoison", "times": None}]
    monkeypatch.setenv(faults.FAULTS_ENV, json.dumps(plan))
    responses = _serve_lines(
        [
            {"id": 1, "kind": "satisfiability", "exprs": ["a"]},
            {"id": 2, "kind": "satisfiability", "exprs": ["zzpoison"]},
            {"id": 3, "kind": "containment", "exprs": ["a/b", "a//b"]},
        ],
        workers=2,
    )
    by_id = {response["id"]: response for response in responses}
    assert by_id[2]["outcome"]["verdict_status"] == "unknown"
    assert by_id[2]["outcome"]["budget_reason"] == "worker-crash"
    assert by_id[1]["outcome"]["verdict_status"] == "definite"
    assert by_id[3]["outcome"]["verdict_status"] == "definite"
    assert by_id[3]["outcome"]["holds"] is True


# ---------------------------------------------------------------------------
# One worker pool behind solve_many and serve
# ---------------------------------------------------------------------------

CRASH_BATCH = [
    Query.satisfiability("a/b"),
    Query.satisfiability("zzpoison"),
    Query.containment("a/b", "a//b"),
]

VERDICT_FIELDS = ("verdict_status", "holds", "satisfiable", "budget_reason")


def _pool_verdicts(path: str, queries: list[Query]) -> list[tuple]:
    """The verdicts of ``queries`` through two workers on one of the paths."""
    if path == "solve_many":
        return _verdicts(StaticAnalyzer().solve_many(queries, workers=2))
    requests = [
        {"id": index, "kind": query.kind, "exprs": list(query.exprs)}
        for index, query in enumerate(queries)
    ]
    responses = _serve_lines(requests, workers=2)
    assert [response["id"] for response in responses] == list(range(len(queries)))
    return [
        tuple(response["outcome"][name] for name in VERDICT_FIELDS)
        for response in responses
    ]


@pytest.mark.parametrize("crashes", [1, 2])
@pytest.mark.parametrize("path", ["solve_many", "serve"])
def test_one_crash_rule_on_both_paths(path, crashes, tmp_path, monkeypatch):
    """A worker holds one query, so a crash blames exactly that query: one
    death is retried on a fresh worker and keeps the uninjected verdict, a
    second death quarantines the query as unknown('worker-crash'), and the
    bystanders never change.  Each latched point fires once across every
    process, so ``crashes`` points kill exactly ``crashes`` workers."""
    reference = _verdicts(StaticAnalyzer().solve_many(CRASH_BATCH))
    latches = [tmp_path / f"crash-{number}.latch" for number in range(crashes)]
    plan = [
        {"point": "worker-crash", "match": "zzpoison", "times": None, "latch": str(latch)}
        for latch in latches
    ]
    monkeypatch.setenv(faults.FAULTS_ENV, json.dumps(plan))
    verdicts = _pool_verdicts(path, CRASH_BATCH)
    assert all(latch.exists() for latch in latches), "a fault never fired"
    poison, expected = verdicts.pop(1), reference.pop(1)
    assert verdicts == reference, "a bystander's verdict changed"
    if crashes == 1:
        assert poison == expected
    else:
        assert poison == ("unknown", None, None, "worker-crash")


@pytest.mark.parametrize("path", ["solve_many", "serve"])
def test_no_worker_outlives_the_call(path):
    _pool_verdicts(path, CRASH_BATCH)
    assert multiprocessing.active_children() == []


def _untimed(value):
    """``value`` without its ``*_seconds`` entries, at any depth."""
    if isinstance(value, dict):
        return {
            key: _untimed(item)
            for key, item in value.items()
            if not key.endswith("_seconds")
        }
    if isinstance(value, list):
        return [_untimed(item) for item in value]
    return value


def test_serve_workers_has_one_cache_and_one_count():
    """The parent of ``serve --workers`` owns the caches and the counters:
    an immediate repeat is a solve-cache hit, and every response, the final
    ``stats`` included, equals the sequential service's."""
    requests = [
        {"id": 1, "kind": "containment", "exprs": ["child::a[b]", "child::a"]},
        {"id": 2, "kind": "containment", "exprs": ["child::a[b]", "child::a"]},
        {"id": 3, "kind": "satisfiability", "exprs": ["meta/title"], "types": ["wikipedia"]},
        {"id": 4, "kind": "equivalence", "exprs": ["a//b", "a/b"]},
        {"id": 5, "op": "stats"},
    ]
    sequential = _serve_lines(requests, workers=1)
    parallel = _serve_lines(requests, workers=2)
    assert _untimed(parallel) == _untimed(sequential)
    stats = parallel[-1]["stats"]
    assert (stats["solver_runs"], stats["solve_cache_hits"]) == (4, 1)
    assert parallel[1]["outcome"]["cache"] == "memory"
    assert min(
        stats[f"{layer}_cache_entries"] for layer in ("type", "query", "solve")
    ) > 0


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="only forked workers inherit the patched solve",
)
def test_worker_exception_is_reraised_in_the_parent(monkeypatch):
    """A bug inside a worker is not a crash to quarantine: like a sequential
    solve, the batch raises it, with the worker's traceback attached."""
    from repro.solver.symbolic import SymbolicSolver

    def broken_solve(self):
        raise RuntimeError(f"bug while solving {self.formula}")

    monkeypatch.setattr(SymbolicSolver, "solve", broken_solve)
    with pytest.raises(RuntimeError, match="bug while solving") as info:
        StaticAnalyzer().solve_many(CRASH_BATCH, workers=2)
    assert "broken_solve" in "".join(info.value.__notes__)
    assert multiprocessing.active_children() == []


SPAWN_SCRIPT = """
import io, json, multiprocessing
from repro.analysis.problems import Rooted
from repro.api import Query, StaticAnalyzer
from repro.cli.serve import serve

multiprocessing.set_start_method("spawn")
queries = [
    Query.satisfiability("a/b"),
    Query.containment("a/b", "a//b"),
    Query.emptiness("c[d]"),
    Query.satisfiability("/self::*[not(@href)]", Rooted("xhtml-core")),
    Query.emptiness("/article/meta", Rooted("wikipedia")),
]
report = StaticAnalyzer().solve_many(queries, workers=2)
output = io.StringIO()
request = {"id": 1, "kind": "containment", "exprs": ["a//b", "a/b"]}
serve(io.StringIO(json.dumps(request) + "\\n"), output, workers=2)
print(json.dumps({
    "batch": [[o.verdict_status, o.holds] for o in report.outcomes],
    "serve": json.loads(output.getvalue())["outcome"]["holds"],
}))
"""


def test_pool_answers_under_the_spawn_start_method():
    """Workers started without fork re-import the package and still answer
    (Python 3.14 makes forkserver the Linux default)."""
    source_root = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
        timeout=120,
        check=True,
    )
    report = json.loads(result.stdout)
    assert report["batch"] == [
        ["definite", True],
        ["definite", True],
        ["definite", False],
        ["definite", True],
        ["definite", False],
    ]
    assert report["serve"] is False


def test_serve_workers_answers_each_request_before_the_next():
    """An interactive client waits for each reply with stdin still open.
    Under an unlatched poison plan the poison request is quarantined, and
    the session keeps answering."""
    source_root = Path(repro.__file__).resolve().parents[1]
    plan = [{"point": "worker-crash", "match": "zzpoison", "times": None}]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--workers", "2"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(source_root),
            faults.FAULTS_ENV: json.dumps(plan),
        },
    )
    try:
        replies = []
        for number, expr in enumerate(["a", "zzpoison", "a/b"]):
            request = {"id": number, "kind": "satisfiability", "exprs": [expr]}
            process.stdin.write(json.dumps(request) + "\n")
            process.stdin.flush()
            readable, _, _ = select.select([process.stdout], [], [], 30)
            assert readable, f"no reply to {expr!r} within 30 s"
            replies.append(json.loads(process.stdout.readline()))
        process.stdin.close()
        assert process.wait(timeout=30) == 0
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
    assert [reply["id"] for reply in replies] == [0, 1, 2]
    assert [
        (reply["outcome"]["verdict_status"], reply["outcome"]["budget_reason"])
        for reply in replies
    ] == [("definite", None), ("unknown", "worker-crash"), ("definite", None)]


# ---------------------------------------------------------------------------
# The fuzzer's chaos axis
# ---------------------------------------------------------------------------


def test_fuzz_chaos_axis_finds_no_governance_bugs():
    from repro.testing.fuzz import FuzzConfig, run_fuzz

    report = run_fuzz(FuzzConfig(budget=3, seed=11, chaos=True))
    payload = report.as_dict()
    assert payload["errors"] == [] and payload["disagreements"] == []
    probed = payload["trials"] - payload["skipped_oversized"]
    assert payload["chaos"]["enabled"] is True
    assert payload["chaos"]["trials"] == probed > 0
    # Every probed trial's injected deadline expiry surfaced as a structured
    # BudgetExceeded — the governor checkpoints are reachable on arbitrary
    # generated formulas.
    assert payload["chaos"]["deadline_injections"] == probed
    assert (
        payload["chaos"]["budgeted_unknowns"]
        + payload["chaos"]["budgeted_agreements"]
        == probed
    )
