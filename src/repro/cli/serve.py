"""``repro serve`` — a streaming JSON-lines analysis service on stdin/stdout.

The process reads one JSON request per line, answers with one JSON response
per line (flushed immediately), and exits 0 on end-of-input.  All requests
share one :class:`repro.api.StaticAnalyzer`, so an editor or load generator
can stream thousands of queries at a single set of warm caches; with
``--cache-dir`` the verdicts also persist across restarts.

With ``--workers N`` the solver runs that requests need go to a
:class:`repro.workers.WorkerPool`, while the parent keeps decoding,
reducing and answering every request through its one analyzer; responses
still arrive strictly in request order (see :func:`_serve_parallel`).

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
process dying mid-solve does not take the service down either: a request
that kills its worker twice is answered as ``unknown`` with
``budget_reason: "worker-crash"``, and no other request is interrupted.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

from repro.api import Query, StaticAnalyzer
from repro.cli import wire
from repro.solver.governor import Budget
from repro.xmltypes.library import schema_catalog

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


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


def parse_line(
    line: str, dtd_cache: wire.DTDCache
) -> tuple[dict, dict | None, Query | None, Budget | None] | None:
    """Decode one input line: ``None`` for blank/comment lines, else
    ``(response, op, query, budget)``.

    ``response`` starts the reply (it echoes the request's ``id``).  A
    control operation comes back as its payload ``op``, a query request as
    its ``query`` and per-request ``budget``; a line that is neither has its
    wire-error ``response`` complete already.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"ok": False, "error": wire.error_payload(exc)}, None, None, None
    if not isinstance(payload, dict):
        error = {"kind": "ProtocolError", "message": "request must be an object"}
        return {"ok": False, "error": error}, None, None, None
    response = {"id": payload["id"]} if "id" in payload else {}
    if "op" in payload:
        return response, payload, None, None
    try:
        query = wire.query_from_dict(payload, dtd_cache)
        budget = wire.budget_from_dict(payload)
    except (wire.WireError, ValueError) as exc:
        response.update(ok=False, error=wire.error_payload(exc))
        return response, None, None, None
    return response, None, query, budget


def handle_line(
    line: str, analyzer: StaticAnalyzer, dtd_cache: wire.DTDCache
) -> dict | None:
    """The response for one input line (``None`` for blank/comment lines)."""
    parsed = parse_line(line, dtd_cache)
    if parsed is None:
        return None
    response, op, query, budget = parsed
    if op is not None:
        response.update(handle_op(op, analyzer))
    elif query is not None:
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
) -> int:
    """Run the request/response loop until end-of-input; returns exit code 0.

    With ``workers > 1`` solver runs are dispatched to a worker pool while
    the loop keeps reading; responses are written strictly in request order.
    ``budget`` bounds every solve; a per-request ``budget`` object can only
    tighten it.
    """
    analyzer = analyzer or StaticAnalyzer(cache_dir=cache_dir, budget=budget)
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


def _read_lines(input_stream: IO[str], feed: Connection) -> None:
    """Forward every input line to ``feed``, then ``None`` at end of input."""
    try:
        # Read a private wrapper of the descriptor, never the stream itself:
        # a worker forked while this thread blocks inside the stream's
        # readline() inherits its held buffer lock, and multiprocessing
        # closes sys.stdin in every forked child, so the child would hang at
        # start-up.  Streams without a descriptor (StringIO) hold no lock.
        source = open(
            input_stream.fileno(),
            encoding=input_stream.encoding,
            errors=input_stream.errors,
            closefd=False,
        )
    except OSError:
        source = input_stream
    try:
        for line in source:
            feed.send(line)
    finally:
        feed.send(None)
        feed.close()


@dataclass
class _Request:
    """A request in the window of :func:`_serve_parallel`: its response and,
    for a query, its effective budget and the ``(formula, budget)`` runs it
    waits for (see ``StaticAnalyzer._solve``)."""

    response: dict
    query: Query | None = None
    budget: Budget | None = None
    keys: tuple = ()
    answered: bool = False


def _serve_parallel(
    input_stream: IO[str],
    output_stream: IO[str],
    analyzer: StaticAnalyzer,
    workers: int,
) -> int:
    """The pipelined loop behind ``serve(..., workers=N)``.

    The parent reduces each request on arrival and submits to the
    :class:`repro.workers.WorkerPool` each of its formulas that no cache
    layer answers and no run in flight or held under the same budget
    covers.  Requests are answered in order through ``analyzer`` with those
    runs in hand, so outcomes, caches and counters are the sequential
    loop's.  A run is dropped once no unanswered request waits on it, so an
    unknown never shadows a later retry.

    A window of at most ``4 * workers`` unanswered requests keeps the pool
    busy without unbounded buffering.  The loop waits on input and workers
    together, so each response is written as soon as it and every earlier
    one are ready — a client that waits for each reply gets it.  A control
    operation waits for every earlier response, so e.g. ``stats`` observes
    every request before it.
    """
    import threading
    from multiprocessing import Pipe

    from repro.workers import WorkerPool

    dtd_cache: wire.DTDCache = {}
    window: deque[_Request] = deque()
    # The runs unanswered requests wait on, by key (``None`` in flight).
    runs: dict[tuple, object] = {}

    def answer_ready() -> None:
        """Answer, in request order, every request whose runs have arrived,
        and drop the runs no unanswered request waits on."""
        for request in window:
            if request.answered:
                continue
            if any(runs[key] is None for key in request.keys):
                return
            outcome = analyzer._answer(request.query, request.budget, runs)
            request.response.update(ok=outcome.ok, outcome=outcome.as_dict())
            request.answered = True
            for key in request.keys:
                if not any(key in other.keys for other in window if not other.answered):
                    del runs[key]

    def flush() -> None:
        while window and window[0].answered:
            response = window.popleft().response
            output_stream.write(json.dumps(response, ensure_ascii=False) + "\n")
            output_stream.flush()

    def take(line: str) -> None:
        parsed = parse_line(line, dtd_cache)
        if parsed is None:
            return
        response, op, query, budget = parsed
        request = _Request(response, query, answered=query is None)
        if op is not None:
            while pool.pending():
                arrived(*pool.next())
                flush()
            response.update(handle_op(op, analyzer))
        elif query is not None:
            request.budget = analyzer._effective_budget(budget)
            request.keys = tuple(
                (formula, request.budget) for formula in analyzer._unanswered(query)
            )
            for key in request.keys:
                if key not in runs:
                    runs[key] = None
                    pool.submit(*key, " ".join(query.exprs))
        window.append(request)
        answer_ready()

    def arrived(key: tuple, run) -> None:
        runs[key] = run
        answer_ready()

    # Start the workers before the reader thread, so that only replacements
    # for dead workers fork while it runs.
    with WorkerPool(workers) as pool:
        lines, feed = Pipe(duplex=False)
        threading.Thread(
            target=_read_lines, args=(input_stream, feed), daemon=True
        ).start()
        reading = True
        while reading or window:
            flush()
            room = reading and len(window) < 4 * workers
            if room and (lines.poll() or not pool.pending()):
                line = lines.recv()
                if line is None:
                    reading = False
                else:
                    take(line)
            elif pool.pending():
                finished = pool.next(lines if room else None)
                if finished is not None:
                    arrived(*finished)
        lines.close()
    return 0


def run(args) -> int:
    from repro.cli.main import budget_from_args

    return serve(
        sys.stdin,
        sys.stdout,
        cache_dir=args.cache_dir,
        workers=getattr(args, "workers", 1) or 1,
        budget=budget_from_args(args),
    )
