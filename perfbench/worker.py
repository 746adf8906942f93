"""One cold analysis process for the audit-xhtml and scaling-deep workloads.

Usage (driven by ``run.py``, never by hand)::

    python3 perfbench/worker.py audit|scaling [--trace-out SPANS_FILE]

The process imports what the workload uses, constructs a default
:class:`repro.api.StaticAnalyzer` and prints one ``{"ready": true}`` line:
that is the end of set-up.  It then reads one line from stdin: ``exit``
ends the process (a set-up probe); otherwise the line is the JSON job,
``{"stylesheet": ..., "schema": ...}`` for ``audit`` or ``{"depths":
[...]}`` for ``scaling``.  The job runs once, timed with ``perf_counter``,
and the process prints one JSON result line and exits.

With ``--trace-out`` the benchmark's wrappers (:mod:`tracer`) are installed
before the ready line, the spans are written to ``SPANS_FILE`` after the
job, and the result carries the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time


def scaling_query(depth: int) -> tuple[str, str]:
    """The nested containment of ``repro bench scaling`` at one depth.

    ``a1/a2[b2]/…/ad[bd]`` is contained in the same path without ``[b2]``.
    """
    steps = ["a1"] + [f"a{i}[b{i}]" for i in range(2, depth + 1)]
    query = "/".join(steps)
    return query, query.replace("[b2]", "")


def run_audit(job: dict, analyzer, tracer) -> dict:
    from repro.xslt import audit_stylesheet

    if tracer is not None:
        tracer.next_request()
    started = time.perf_counter()
    report = audit_stylesheet(job["stylesheet"], job["schema"], analyzer=analyzer)
    elapsed = time.perf_counter() - started
    findings = [
        {
            "rule": finding.rule,
            "severity": finding.severity,
            "file": os.path.basename(finding.file),
            "line": finding.line,
            "element": finding.detail.get("element"),
        }
        for finding in report.findings
    ]
    return {
        "run_s": elapsed,
        "latencies_s": [elapsed],
        "queries": sum(report.queries.values()),
        "findings": findings,
    }


def run_scaling(job: dict, tracer) -> dict:
    from repro.api import Query, StaticAnalyzer

    queries = [Query.containment(*scaling_query(depth)) for depth in job["depths"]]
    latencies = []
    outcomes = []
    started = time.perf_counter()
    for query in queries:
        if tracer is not None:
            tracer.next_request()
        row_started = time.perf_counter()
        outcome = StaticAnalyzer().solve(query)
        latencies.append(time.perf_counter() - row_started)
        outcomes.append(outcome)
    elapsed = time.perf_counter() - started
    return {
        "run_s": elapsed,
        "latencies_s": latencies,
        "rows": [
            {
                "holds": outcome.holds,
                "verdict_status": outcome.verdict_status,
                "error": outcome.error,
            }
            for outcome in outcomes
        ],
    }


def main(argv: list[str]) -> int:
    kind = argv[0]
    spans_out = argv[argv.index("--trace-out") + 1] if "--trace-out" in argv else None

    if kind == "audit":
        import repro.xslt  # noqa: F401 - the audit's import cost belongs to set-up
    from repro.api import StaticAnalyzer

    analyzer = StaticAnalyzer()
    tracer = None
    if spans_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print(json.dumps({"ready": True}), flush=True)

    line = sys.stdin.readline().strip()
    if not line or line == "exit":
        return 0
    job = json.loads(line)
    if kind == "audit":
        result = run_audit(job, analyzer, tracer)
    else:
        result = run_scaling(job, tracer)
    if tracer is not None:
        tracer.write_spans(spans_out)
        result["trace"] = tracer.report()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
