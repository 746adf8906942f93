"""``repro serve`` — a streaming JSON-lines analysis service on stdin/stdout.

The process reads one JSON request per line, answers with one JSON response
per line (flushed immediately), and exits 0 on end-of-input.  All requests
share one :class:`repro.api.StaticAnalyzer`, so an editor or load generator
can stream thousands of queries at a single set of warm caches; with
``--cache-dir`` the verdicts also persist across restarts.

With ``--workers N`` the service fans query requests out to a process pool
(responses still arrive strictly in request order; control operations act as
barriers so ``stats`` always reflects every request before them).  The
parent parses and validates every line — workers only ever see well-formed
:class:`repro.api.Query` objects — and aggregates worker cache counters into
its own statistics.

Requests are either query objects in the wire format of
:mod:`repro.cli.wire`, or control operations:

* ``{"op": "ping"}`` — liveness probe.
* ``{"op": "stats"}`` — the analyzer's cache statistics (solver runs,
  memory/disk hits, entry counts).
* ``{"op": "schemas"}`` — the bundled schema registry.

Responses echo the request's ``id`` (when present) and carry ``ok``:

* query analysed → ``{"id": ..., "ok": true, "outcome": {...}}``
  (``ok`` is false when the outcome is a structured analysis error — the
  ``outcome`` object is still present with its ``error`` field filled);
* malformed line or unknown op → ``{"id": ..., "ok": false, "error":
  {"kind": ..., "message": ...}}``.

A malformed line never terminates the loop: the service answers with an
error response and keeps reading.  The same holds for expensive queries:
with ``--deadline``/``--max-steps`` (or a per-request ``budget`` object,
which tightens the service-wide limits) a pathological query costs its
budget and returns an outcome with ``verdict_status: "unknown"`` — ``ok``
stays true, the session keeps serving.  With ``--workers``, a worker
process dying mid-solve does not take the service down either: the pool is
respawned, in-flight queries are retried once, and a query that kills its
worker twice is answered as ``unknown`` with ``budget_reason:
"worker-crash"``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import IO

from repro.api import StaticAnalyzer
from repro.cli import wire
from repro.xmltypes.library import schema_catalog


def handle_op(payload: dict, analyzer: StaticAnalyzer) -> dict:
    op = payload["op"]
    if op == "ping":
        return {"ok": True, "op": op}
    if op == "stats":
        stats = dict(analyzer.cache_statistics())
        if analyzer.disk_cache is not None:
            stats["disk_cache_entries"] = len(analyzer.disk_cache)
            stats["disk_cache_directory"] = str(analyzer.disk_cache.directory)
        return {"ok": True, "op": op, "stats": stats}
    if op == "schemas":
        return {
            "ok": True,
            "op": op,
            "schemas": [info.as_dict() for info in schema_catalog()],
        }
    return {
        "ok": False,
        "error": {"kind": "ProtocolError", "message": f"unknown op {op!r}"},
    }


def handle_line(
    line: str, analyzer: StaticAnalyzer, dtd_cache: wire.DTDCache
) -> dict | None:
    """The response for one input line (``None`` for blank/comment lines)."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"ok": False, "error": wire.error_payload(exc)}
    if not isinstance(payload, dict):
        return {
            "ok": False,
            "error": {"kind": "ProtocolError", "message": "request must be an object"},
        }
    response: dict = {}
    if "id" in payload:
        response["id"] = payload["id"]
    if "op" in payload:
        response.update(handle_op(payload, analyzer))
        return response
    try:
        query = wire.query_from_dict(payload, dtd_cache)
        budget = wire.budget_from_dict(payload)
    except (wire.WireError, ValueError) as exc:
        response.update(ok=False, error=wire.error_payload(exc))
        return response
    outcome = analyzer.solve(query, budget)
    response.update(ok=outcome.ok, outcome=outcome.as_dict())
    return response


def serve(
    input_stream: IO[str],
    output_stream: IO[str],
    cache_dir: str | None = None,
    analyzer: StaticAnalyzer | None = None,
    workers: int = 1,
    budget: "object | None" = None,
    degrade: bool = False,
) -> int:
    """Run the request/response loop until end-of-input; returns exit code 0.

    With ``workers > 1`` queries are dispatched to a process pool while the
    loop keeps reading; responses are written strictly in request order.
    ``budget`` bounds every solve (tightened further by per-request
    ``budget`` objects) and ``degrade`` enables the explicit-solver fallback
    for budget-exhausted queries.
    """
    analyzer = analyzer or StaticAnalyzer(
        cache_dir=cache_dir,
        budget=budget,
        degrade=degrade,
    )
    if workers > 1:
        return _serve_parallel(input_stream, output_stream, analyzer, workers)
    dtd_cache: wire.DTDCache = {}
    for line in input_stream:
        response = handle_line(line, analyzer, dtd_cache)
        if response is None:
            continue
        output_stream.write(json.dumps(response, ensure_ascii=False) + "\n")
        output_stream.flush()
    return 0


def _serve_parallel(
    input_stream: IO[str],
    output_stream: IO[str],
    analyzer: StaticAnalyzer,
    workers: int,
) -> int:
    """The pipelined loop behind ``serve(..., workers=N)``.

    A sliding window of at most ``4 * workers`` in-flight queries keeps the
    pool busy without unbounded buffering; completed heads are flushed
    eagerly after every submission, and control operations (or end of input)
    drain the window so their responses observe every earlier request.

    The loop survives pool collapses: workers drop per-query marker files
    (see :func:`repro.api._pool_solve`), so a ``BrokenProcessPool`` is
    blamed on the specific queries that were mid-solve when a worker died.
    The pool is respawned, blamed queries are retried once (a second blamed
    crash answers them as ``unknown("worker-crash")`` via
    :meth:`StaticAnalyzer._crash_outcome`), and *unblamed* in-flight queries
    are resubmitted without penalty — a poison request never costs its
    window-mates their verdicts, and the session keeps serving.
    """
    import shutil
    import tempfile
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.api import _parallel_safe, _pool_initializer, _pool_solve

    dtd_cache: wire.DTDCache = {}
    max_in_flight = 4 * workers

    def emit(response: dict) -> None:
        output_stream.write(json.dumps(response, ensure_ascii=False) + "\n")
        output_stream.flush()

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_initializer,
            initargs=(analyzer._options(),),
        )

    pool = new_pool()
    marker_dir = tempfile.mkdtemp(prefix="repro-serve-")
    sequence = 0
    # Crashes in a row that left no marker to blame (e.g. a worker dying at
    # startup): after a few, every in-flight query takes the penalty so the
    # flush loop cannot respawn forever.
    unattributed = 0
    # Entries are mutable lists:
    #   ["ready", response]
    #   ["future", future, request_id, query, budget, crashes, seq]
    pending: deque = deque()

    def in_flight() -> int:
        return sum(1 for entry in pending if entry[0] == "future")

    def submit(entry: list) -> None:
        entry[1] = pool.submit(_pool_solve, (entry[6], entry[3], entry[4], marker_dir))

    def handle_crash() -> None:
        """Respawn the pool; retry in-flight queries, penalising only the
        ones the leftover markers blame for the collapse."""
        nonlocal pool, unattributed
        pool.shutdown(wait=False)
        pool = new_pool()
        blamed = set()
        for name in os.listdir(marker_dir):
            if not name.endswith(".running"):
                continue
            try:
                blamed.add(int(name.split(".", 1)[0]))
            except ValueError:
                continue
            try:
                os.unlink(os.path.join(marker_dir, name))
            except OSError:
                pass
        unattributed = 0 if blamed else unattributed + 1
        blame_everyone = unattributed >= 5
        for entry in pending:
            if entry[0] != "future":
                continue
            future = entry[1]
            if future.done() and future.exception() is None:
                continue  # finished before the collapse; result still good
            if entry[6] in blamed or blame_everyone:
                entry[5] += 1
            if entry[5] >= 2:
                # Twice blamed: quarantine.  One retry in a pool of one
                # separates the actual poison (dies again → unknown) from a
                # bystander that kept sharing collapse rounds with it.
                payload = analyzer._retry_isolated(
                    entry[6], entry[3], entry[4], marker_dir
                )
                if payload is None:
                    outcome = analyzer._crash_outcome(entry[3])
                else:
                    _index, outcome, runs, hits, disk_hits, disk_writes = payload
                    analyzer.solver_runs += runs
                    analyzer.solve_cache_hits += hits
                    analyzer.disk_cache_hits += disk_hits
                    analyzer.disk_cache_writes += disk_writes
                request_id = entry[2]
                response = {} if request_id is None else {"id": request_id}
                response.update(ok=outcome.ok, outcome=outcome.as_dict())
                entry[:] = ["ready", response]
            else:
                submit(entry)

    def flush(block_head: bool = False) -> None:
        """Emit completed responses from the head (in request order).

        With ``block_head`` the head future is awaited, so callers can
        apply backpressure one entry at a time.
        """
        while pending:
            entry = pending[0]
            if entry[0] == "ready":
                emit(entry[1])
            else:
                future, request_id = entry[1], entry[2]
                if not block_head and not future.done():
                    break
                try:
                    _index, outcome, runs, hits, disk_hits, disk_writes = (
                        future.result()
                    )
                except BrokenProcessPool:
                    # handle_crash rewrote the head (fresh future or a ready
                    # crash response); take it from the top of the loop.
                    handle_crash()
                    continue
                analyzer.solver_runs += runs
                analyzer.solve_cache_hits += hits
                analyzer.disk_cache_hits += disk_hits
                analyzer.disk_cache_writes += disk_writes
                response = {} if request_id is None else {"id": request_id}
                response.update(ok=outcome.ok, outcome=outcome.as_dict())
                emit(response)
                block_head = False  # only force the first head
            pending.popleft()

    def drain() -> None:
        while pending:
            flush(block_head=True)

    try:
        for line in input_stream:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as exc:
                pending.append(
                    ["ready", {"ok": False, "error": wire.error_payload(exc)}]
                )
            else:
                if not isinstance(payload, dict):
                    pending.append(
                        [
                            "ready",
                            {
                                "ok": False,
                                "error": {
                                    "kind": "ProtocolError",
                                    "message": "request must be an object",
                                },
                            },
                        ]
                    )
                elif "op" in payload:
                    # Control operations are barriers: drain so e.g. stats
                    # reflect every request submitted before them.
                    drain()
                    response = {"id": payload["id"]} if "id" in payload else {}
                    response.update(handle_op(payload, analyzer))
                    pending.append(["ready", response])
                else:
                    request_id = payload.get("id")
                    try:
                        query = wire.query_from_dict(payload, dtd_cache)
                        query_budget = wire.budget_from_dict(payload)
                    except (wire.WireError, ValueError) as exc:
                        response = {} if request_id is None else {"id": request_id}
                        response.update(ok=False, error=wire.error_payload(exc))
                        pending.append(["ready", response])
                    else:
                        if _parallel_safe(query):
                            sequence += 1
                            entry = [
                                "future", None, request_id, query, query_budget,
                                0, sequence,
                            ]
                            submit(entry)
                            pending.append(entry)
                        else:  # pragma: no cover - wire types are always safe
                            outcome = analyzer.solve(query, query_budget)
                            response = {} if request_id is None else {"id": request_id}
                            response.update(ok=outcome.ok, outcome=outcome.as_dict())
                            pending.append(["ready", response])
            flush()
            while in_flight() > max_in_flight:
                flush(block_head=True)
        drain()
    finally:
        pool.shutdown(wait=False)
        shutil.rmtree(marker_dir, ignore_errors=True)
    return 0


def run(args) -> int:
    from repro.cli.main import budget_from_args

    return serve(
        sys.stdin,
        sys.stdout,
        cache_dir=args.cache_dir,
        workers=getattr(args, "workers", 1) or 1,
        budget=budget_from_args(args),
        degrade=getattr(args, "degrade", False),
    )
