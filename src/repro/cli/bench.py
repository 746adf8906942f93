"""``repro bench`` — re-emit the machine-readable ``BENCH_*.json`` reports.

Four benchmarks are built in (the pytest wrappers under ``benchmarks/`` call
the same functions, so the numbers cannot drift between the CLI and the
suite):

* ``api-batch`` → ``BENCH_api_batch.json`` — one warm
  :meth:`repro.api.StaticAnalyzer.solve_many` pass over repeated Table 2
  queries vs. cold per-query analyzers, plus the multiprocess section:
  ``solve_many(workers=4)`` vs ``workers=1`` over the 50-query workload.
* ``cli-cache`` → ``BENCH_cli_cache.json`` — the cross-process acceptance
  run: a 50-query JSONL batch streamed through ``repro serve`` twice, in two
  separate processes sharing one ``--cache-dir``.  The second (cold) process
  must answer every query without a single solver run.
* ``scaling`` → ``BENCH_scaling.json`` — the Lemma 6.7 scaling study
  (containment of nested queries, depths 1–8), with a warm-up solve so
  first-call import/compile cost is reported separately (``warmup`` entry)
  instead of skewing the depth-1 row.  ``--quick`` runs depths 1–3 only.
  Either way the run fails when the depth-3 ``product_calls`` or
  ``bdd_ite_calls`` counter regresses above
  :data:`SCALING_PRODUCT_CALLS_MAX_DEPTH3` /
  :data:`SCALING_ITE_CALLS_MAX_DEPTH3` — deterministic performance guards
  that need no wall-clock.
* ``audit`` → ``BENCH_audit.json`` — the stylesheet-auditor workload: one
  :func:`repro.xslt.rules.audit_stylesheet` pass over a committed example
  (``--quick``: the clean Wikipedia control; full: the seeded XHTML
  stylesheet), recording queries planned per rule, solver runs, cache hits
  and wall time, plus a warm repeat through the same analyzer that must
  need **zero** further solver runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import StaticAnalyzer
from repro.cli import wire

BENCHMARKS = (
    "api-batch",
    "cli-cache",
    "scaling",
    "audit",
)

#: The twelve benchmark XPath expressions of Figure 21 — the single home of
#: this corpus (benchmarks/conftest.py re-exports it for the pytest files).
FIGURE_21 = {
    "e1": "/a[.//b[c/*//d]/b[c//d]/b[c/d]]",
    "e2": "/a[.//b[c/*//d]/b[c/d]]",
    "e3": "a/b//c/foll-sibling::d/e",
    "e4": "a/b//d[prec-sibling::c]/e",
    "e5": "a/c/following::d/e",
    "e6": "a/b[//c]/following::d/e ∩ a/d[preceding::c]/e",
    "e7": "*//switch[ancestor::head]//seq//audio[prec-sibling::video]",
    "e8": "descendant::a[ancestor::a]",
    "e9": "/descendant::*",
    "e10": "html/(head | body)",
    "e11": "html/head/descendant::*",
    "e12": "html/body/descendant::*",
}

#: The fast rows of Table 2 (Figure 21 queries; SMIL/XHTML rows are slow).
TABLE2_FAST = (
    ("containment", [FIGURE_21["e1"], FIGURE_21["e2"]], None),
    ("containment", [FIGURE_21["e2"], FIGURE_21["e1"]], None),
    ("equivalence", [FIGURE_21["e3"], FIGURE_21["e4"]], None),
    ("containment", [FIGURE_21["e6"], FIGURE_21["e5"]], None),
)

#: The workload base of ``api-batch`` (the 6 queries bench_api_batch.py has
#: always replayed: Table 2 fast rows plus two Wikipedia-typed problems).
API_BATCH_BASE = TABLE2_FAST + (
    ("satisfiability", ["child::meta/child::title"], ["wikipedia"]),
    ("containment", ["child::history", "child::history[edit]"], ["wikipedia"]),
)

#: Distinct building blocks of the 50-query ``cli-cache`` workload.
_CLI_CACHE_BASE = API_BATCH_BASE + (
    ("emptiness", ["child::title/child::meta"], ["wikipedia"]),
    ("satisfiability", ["descendant::a[ancestor::a]"], ["xhtml-core"]),
    ("overlap", ["a//b", "a/b"], None),
    ("coverage", ["child::a", "child::b", "child::a"], None),
)


def _query_from_spec(kind, exprs, types):
    payload = {"kind": kind, "exprs": exprs}
    if types is not None:
        payload["types"] = types
    return wire.query_from_dict(payload)


def cli_cache_workload(repeats: int = 5) -> list[dict]:
    """The 50-query JSONL workload (10 distinct problems × ``repeats``)."""
    requests = []
    for repeat in range(repeats):
        for position, (kind, exprs, types) in enumerate(_CLI_CACHE_BASE):
            payload = {
                "id": repeat * len(_CLI_CACHE_BASE) + position,
                "kind": kind,
                "exprs": exprs,
            }
            if types is not None:
                payload["types"] = types
            requests.append(payload)
    return requests


# ---------------------------------------------------------------------------
# api-batch
# ---------------------------------------------------------------------------


#: Threshold asserted by benchmarks/bench_api_batch.py and recorded in the
#: payload, so the CLI and pytest producers emit an identical schema.
API_BATCH_REQUIRED_SPEEDUP = 1.5

#: Cold-cache throughput ``solve_many(workers=4)`` must reach over
#: ``workers=1`` on the 50-query workload — only enforceable on hardware
#: that can actually run 4 workers in parallel (see ``cpu_count`` in the
#: emitted payload; a 1-core container cannot express any speedup).
MP_REQUIRED_SPEEDUP = 2.0
MP_WORKERS = 4
#: CPUs needed before the multiprocess threshold is enforced.
MP_REQUIRED_CPUS = 4


def run_api_batch(repeats: int = 3, workers: int | None = None) -> dict:
    """Warm ``solve_many`` vs. cold per-query analyzers on Table 2 fast rows."""
    workload = [_query_from_spec(*spec) for spec in API_BATCH_BASE] * repeats

    cold_started = time.perf_counter()
    cold_outcomes = [StaticAnalyzer().solve(query) for query in workload]
    cold_seconds = time.perf_counter() - cold_started

    analyzer = StaticAnalyzer()
    report = analyzer.solve_many(workload)
    for cold, batched in zip(cold_outcomes, report.outcomes):
        assert cold.holds == batched.holds, cold.problem

    return {
        "benchmark": "StaticAnalyzer.solve_many vs cold per-query solves",
        "workload_queries": len(workload),
        "repeats": repeats,
        "cold_seconds": round(cold_seconds, 6),
        "batch_seconds": round(report.total_seconds, 6),
        "speedup": round(cold_seconds / report.total_seconds, 3),
        "required_speedup": API_BATCH_REQUIRED_SPEEDUP,
        "solver_runs": report.solver_runs,
        "cache_hits": report.cache_hits,
        "cache_statistics": analyzer.cache_statistics(),
        "outcomes": [
            {"problem": outcome.problem, "holds": outcome.holds}
            for outcome in report.outcomes[: len(workload) // repeats]
        ],
        "multiprocess": run_api_batch_multiprocess(
            MP_WORKERS if workers is None else max(1, workers)
        ),
    }


def run_api_batch_multiprocess(workers: int = MP_WORKERS) -> dict:
    """Cold-cache ``solve_many(workers=N)`` vs ``workers=1`` (50 queries).

    Both runs use fresh analyzers (no disk cache): this measures raw fan-out
    throughput including pool start-up, with verdict equality and stable
    result ordering asserted.  The ``threshold_applies`` flag records
    whether the host has enough CPUs for the required speedup to be
    physically expressible.
    """
    requests = cli_cache_workload()
    queries = [
        wire.query_from_dict({k: v for k, v in r.items() if k != "id"})
        for r in requests
    ]

    sequential_started = time.perf_counter()
    sequential = StaticAnalyzer().solve_many(queries, workers=1)
    sequential_seconds = time.perf_counter() - sequential_started

    parallel_started = time.perf_counter()
    parallel = StaticAnalyzer().solve_many(queries, workers=workers)
    parallel_seconds = time.perf_counter() - parallel_started

    verdicts_sequential = [o.holds for o in sequential.outcomes]
    verdicts_parallel = [o.holds for o in parallel.outcomes]
    if verdicts_sequential != verdicts_parallel:
        raise RuntimeError("multiprocess batch changed verdicts or ordering")

    cpu_count = os.cpu_count() or 1
    return {
        "workload_queries": len(queries),
        "workers": workers,
        "cpu_count": cpu_count,
        "sequential_seconds": round(sequential_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "speedup": round(sequential_seconds / parallel_seconds, 3),
        "sequential_solver_runs": sequential.solver_runs,
        "parallel_solver_runs": parallel.solver_runs,
        "required_speedup": MP_REQUIRED_SPEEDUP,
        "threshold_applies": cpu_count >= MP_REQUIRED_CPUS,
        "verdicts_identical": True,
        "ordering_stable": True,
    }


# ---------------------------------------------------------------------------
# cli-cache
# ---------------------------------------------------------------------------


def _serve_subprocess_env() -> dict[str, str]:
    """Environment for child processes: make *this* repro importable."""
    src_dir = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_serve_once(cache_dir: str, requests: list[dict]) -> dict:
    """Stream the workload through one fresh ``repro serve`` process."""
    lines = [json.dumps(request) for request in requests] + [json.dumps({"op": "stats"})]
    started = time.perf_counter()
    process = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--cache-dir", cache_dir],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        env=_serve_subprocess_env(),
        check=True,
    )
    elapsed = time.perf_counter() - started
    responses = [json.loads(line) for line in process.stdout.splitlines()]
    if len(responses) != len(requests) + 1:
        raise RuntimeError(
            f"serve answered {len(responses)} lines for {len(requests) + 1} requests; "
            f"stderr: {process.stderr[-500:]}"
        )
    stats = responses[-1]["stats"]
    failures = [r for r in responses[:-1] if not r.get("ok")]
    if failures:
        raise RuntimeError(f"serve reported errors: {failures[:3]}")
    return {
        "wall_seconds": round(elapsed, 6),
        "responses": responses[:-1],
        "stats": stats,
    }


def run_cli_cache(cache_dir: str | None = None, repeats: int = 5) -> dict:
    """The acceptance benchmark: two cold processes, one persistent cache.

    The first process populates ``cache_dir``; the second must replay the
    identical workload with **zero** solver runs (every distinct formula a
    disk hit, every repeat an in-memory hit).
    """
    requests = cli_cache_workload(repeats=repeats)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as scratch:
        directory = cache_dir or os.path.join(scratch, "solve-cache")
        first = _run_serve_once(directory, requests)
        second = _run_serve_once(directory, requests)

    verdicts_first = [r["outcome"]["holds"] for r in first["responses"]]
    verdicts_second = [r["outcome"]["holds"] for r in second["responses"]]
    if verdicts_first != verdicts_second:
        raise RuntimeError("cached replay changed verdicts")

    def summary(run: dict) -> dict:
        stats = run["stats"]
        return {
            "wall_seconds": run["wall_seconds"],
            "solver_runs": stats["solver_runs"],
            "solve_cache_hits": stats["solve_cache_hits"],
            "disk_cache_hits": stats["disk_cache_hits"],
            "disk_cache_writes": stats["disk_cache_writes"],
            "disk_cache_entries": stats.get("disk_cache_entries"),
        }

    return {
        "benchmark": "repro serve: cold-process replay through the persistent solve cache",
        "workload_queries": len(requests),
        "distinct_problems": len(_CLI_CACHE_BASE),
        "first_process": summary(first),
        "second_process": summary(second),
        "second_process_solver_runs": second["stats"]["solver_runs"],
        "replay_speedup": round(first["wall_seconds"] / second["wall_seconds"], 3),
        "verdicts": [
            {"id": r.get("id"), "holds": r["outcome"]["holds"]}
            for r in first["responses"][: len(_CLI_CACHE_BASE)]
        ],
    }


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

#: Depths of the full scaling table (``--quick`` stops after 3).
SCALING_DEPTHS = tuple(range(1, 9))
SCALING_QUICK_DEPTHS = (1, 2, 3)

#: CI guard: the depth-3 relational-product counter must not regress above
#: this (measured 20 after the elimination-order work on the early
#: quantification schedule, committed with headroom for benign schedule
#: changes).  Counters are deterministic, so this needs no wall-clock and
#: never flakes.
SCALING_PRODUCT_CALLS_MAX_DEPTH3 = 22

#: CI guard: the depth-3 ``bdd_ite_calls`` counter (ternary operations,
#: recursive expansions included) must not regress above this (measured
#: 10,434, committed with headroom).  Deterministic like the guard above.
SCALING_ITE_CALLS_MAX_DEPTH3 = 14_000


def scaling_query(depth: int) -> str:
    """Nested path a1/a2[b2]/a3[b3]/… of the given depth."""
    steps = ["a1"] + [f"a{i}[b{i}]" for i in range(2, depth + 1)]
    return "/".join(steps)


def _scaling_row(depth: int) -> dict:
    from repro.api import Query, StaticAnalyzer

    query = scaling_query(depth)
    weaker = query.replace("[b2]", "") if depth >= 2 else "*"
    outcome = StaticAnalyzer().solve(Query.containment(query, weaker))
    assert outcome.holds, f"depth-{depth} containment must hold"
    return {"depth": depth, "query": query, **outcome.statistics}


def run_scaling(quick: bool = False) -> dict:
    """The Lemma 6.7 scaling study with warm-up separated from the table.

    The first solver run of a process pays one-off import/translation costs
    (compiling the XPath parser tables, building formula interning state);
    without a warm-up that lands in the depth-1 ``translation_seconds`` and
    makes depth 1 look slower than depth 2.  The warm-up row is reported
    under ``warmup`` (cold) next to the measured (warm) ``rows``.
    """
    depths = SCALING_QUICK_DEPTHS if quick else SCALING_DEPTHS
    warmup = _scaling_row(1)  # cold: first-call costs land here, visibly
    rows = [_scaling_row(depth) for depth in depths]
    payload = {
        "benchmark": "containment of nested queries (Lemma 6.7 scaling)",
        "quick": quick,
        "warmup": {
            "note": "cold first-call row; import/compile cost lands here, "
            "not in rows[0]",
            **warmup,
        },
        "product_calls_max_depth3": SCALING_PRODUCT_CALLS_MAX_DEPTH3,
        "bdd_ite_calls_max_depth3": SCALING_ITE_CALLS_MAX_DEPTH3,
        "rows": rows,
    }
    depth3 = next((row for row in rows if row["depth"] == 3), None)
    if depth3 is not None:
        for counter, ceiling in (
            ("product_calls", SCALING_PRODUCT_CALLS_MAX_DEPTH3),
            ("bdd_ite_calls", SCALING_ITE_CALLS_MAX_DEPTH3),
        ):
            if depth3[counter] > ceiling:
                raise RuntimeError(
                    f"performance regression: depth-3 {counter} "
                    f"{depth3[counter]} > {ceiling}"
                )
    return payload


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

#: The committed example stylesheets the audit benchmark replays.
AUDIT_QUICK_CASE = ("examples/audit_clean.xsl", "wikipedia")
AUDIT_FULL_CASE = ("examples/audit_stylesheet.xsl", "xhtml-strict")


def _repo_example(relative: str) -> Path:
    path = Path(__file__).resolve().parents[3] / relative
    if not path.is_file():
        raise RuntimeError(f"example stylesheet not found: {path}")
    return path


def run_audit(quick: bool = False) -> dict:
    """One auditor pass over a committed example, plus a warm repeat.

    The cold pass records the real workload (queries planned per rule, one
    ``solve_many`` batch, wall time); the warm repeat re-audits the same
    stylesheet through the same analyzer and must answer every query from
    the in-memory caches — zero further solver runs, or the run fails.
    """
    from repro.xslt import audit_stylesheet

    stylesheet, schema = AUDIT_QUICK_CASE if quick else AUDIT_FULL_CASE
    path = _repo_example(stylesheet)
    analyzer = StaticAnalyzer()

    cold_started = time.perf_counter()
    cold = audit_stylesheet(path, schema, analyzer=analyzer)
    cold_seconds = time.perf_counter() - cold_started

    warm_started = time.perf_counter()
    warm = audit_stylesheet(path, schema, analyzer=analyzer)
    warm_seconds = time.perf_counter() - warm_started

    if warm.solver_runs != 0:
        raise RuntimeError(
            f"warm audit repeat ran the solver {warm.solver_runs} time(s); "
            "every verdict should have been cached"
        )
    if [f.as_dict() for f in warm.findings] != [f.as_dict() for f in cold.findings]:
        raise RuntimeError("warm audit repeat changed the findings")

    return {
        "benchmark": "stylesheet audit: one solve_many batch, then a warm repeat",
        "quick": quick,
        "stylesheet": stylesheet,
        "schema": schema,
        "templates": cold.templates,
        "branches": cold.branches,
        "findings": cold.counts(),
        "queries_by_rule": dict(cold.queries),
        "cold": {
            "wall_seconds": round(cold_seconds, 6),
            "batch_seconds": round(cold.total_seconds, 6),
            "solver_runs": cold.solver_runs,
            "cache_hits": cold.cache_hits,
        },
        "warm": {
            "wall_seconds": round(warm_seconds, 6),
            "batch_seconds": round(warm.total_seconds, 6),
            "solver_runs": warm.solver_runs,
            "cache_hits": warm.cache_hits,
        },
        "cache_statistics": cold.cache_statistics,
    }


# ---------------------------------------------------------------------------
# CLI entry
# ---------------------------------------------------------------------------

_RUNNERS = {
    "api-batch": run_api_batch,
    "cli-cache": run_cli_cache,
    "scaling": run_scaling,
    "audit": run_audit,
}

#: Benchmarks that understand the ``--quick`` smoke mode.
_QUICK_AWARE = {"scaling", "audit"}

#: Benchmarks whose multiprocess sections honour ``--workers``.
_WORKERS_AWARE = {"api-batch"}


def run(args) -> int:
    names = args.names or list(BENCHMARKS)
    quick = getattr(args, "quick", False)
    unknown = [name for name in names if name not in _RUNNERS]
    if unknown:
        print(
            f"repro bench: unknown benchmark(s) {unknown}; "
            f"available: {', '.join(BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    workers = getattr(args, "workers", None)
    for name in names:
        runner = _RUNNERS[name]
        kwargs = {}
        if quick and name in _QUICK_AWARE:
            kwargs["quick"] = True
        if workers is not None and name in _WORKERS_AWARE:
            kwargs["workers"] = workers
        try:
            payload = runner(**kwargs)
        except RuntimeError as exc:
            print(f"repro bench: {name}: {exc}", file=sys.stderr)
            return 1
        path = output_dir / f"BENCH_{name.replace('-', '_')}.json"
        path.write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        print(f"wrote {path}")
    return 0
