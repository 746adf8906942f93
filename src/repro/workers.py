"""The worker pool behind ``solve_many(workers=N)`` and ``repro serve --workers N``.

Each worker is one process with its own pipe, and it holds at most one
query, so when a worker dies (an OOM kill, a segfault, an injected
``worker-crash`` fault) the pool knows exactly which query it held.  That
query is retried once on a fresh worker, and a second death answers it
``unknown`` with ``budget_reason == "worker-crash"``; no other query is
interrupted.  A worker that dies at start-up is blamed on the query it was
handed, so even a crash loop stops after two worker starts per query.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess

from repro.api import AnalysisOutcome, Query, StaticAnalyzer
from repro.core import faults
from repro.solver.governor import Budget

#: The analyzer counters a worker reports back as per-query deltas.
COUNTERS = ("solver_runs", "solve_cache_hits", "disk_cache_hits", "disk_cache_writes")


def _work(conn: Connection, options: dict) -> None:
    """A worker process: answer ``(query, budget)`` jobs until ``None``."""
    analyzer = StaticAnalyzer(**options)
    while (job := conn.recv()) is not None:
        query, budget = job
        if faults.should_fire("worker-crash", " ".join(query.exprs)):
            os._exit(137)  # simulate an OOM kill: no cleanup, no reply
        before = [getattr(analyzer, name) for name in COUNTERS]
        try:
            outcome = analyzer.solve(query, budget)
        except Exception as exc:  # a bug, not a verdict: the parent re-raises it
            exc.add_note(traceback.format_exc())
            outcome = exc
        deltas = [getattr(analyzer, name) - old for name, old in zip(COUNTERS, before)]
        conn.send((outcome, deltas))


@dataclass
class _Worker:
    process: BaseProcess
    conn: Connection
    #: The ``(ticket, query, budget, died_before)`` the worker holds, or
    #: ``None`` while it is idle.
    job: tuple | None = None


class WorkerPool:
    """``workers`` processes answering queries for ``analyzer`` (a context
    manager, so no worker outlives the block).

    The workers come from the platform's default :mod:`multiprocessing`
    context (where that is fork, a pool starts about ten times faster than
    under spawn, whose workers re-import the package) and all start here,
    so later forks only replace dead workers.
    Each builds its own analyzer from ``analyzer._options()``; the pool adds
    their counter deltas to ``analyzer``'s counters.
    """

    def __init__(self, analyzer: StaticAnalyzer, workers: int):
        self._analyzer = analyzer
        self._options = analyzer._options()
        self._context = multiprocessing.get_context()
        self._size = workers
        self._workers: list[_Worker] = []
        self._queue: deque[tuple] = deque()
        for _ in range(workers):
            self._start()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(
        self, ticket: object, query: Query, budget: Budget | None = None
    ) -> None:
        """Queue ``query``; :meth:`next` returns its outcome with ``ticket``,
        which stays in this process."""
        self._queue.append((ticket, query, budget, False))
        self._dispatch()

    def pending(self) -> int:
        """The number of queries submitted but not yet returned by :meth:`next`."""
        return len(self._queue) + sum(1 for w in self._workers if w.job is not None)

    def next(
        self, wake: Connection | None = None
    ) -> tuple[object, AnalysisOutcome] | None:
        """Block until a query finishes and return ``(ticket, outcome)``, or
        ``None`` as soon as the connection ``wake`` has data.

        An exception a worker raised is re-raised here.
        """
        while True:
            busy = [worker for worker in self._workers if worker.job is not None]
            waitables = [worker.conn for worker in busy]
            waitables += [worker.process.sentinel for worker in busy]
            if wake is not None:
                waitables.append(wake)
            ready = wait(waitables)
            for worker in busy:
                if worker.conn in ready or worker.process.sentinel in ready:
                    finished = self._collect(worker)
                    if finished is not None:
                        return finished
            if wake is not None and wake in ready:
                return None

    def close(self) -> None:
        """Stop idle workers, kill busy ones and join them all."""
        for worker in self._workers:
            if worker.job is None:
                try:
                    worker.conn.send(None)
                except OSError:  # it died idle
                    pass
            else:
                worker.process.kill()
        for worker in self._workers:
            worker.process.join()
            worker.conn.close()
        self._workers.clear()

    def _start(self) -> _Worker:
        conn, child = self._context.Pipe()
        process = self._context.Process(
            target=_work, args=(child, self._options), daemon=True
        )
        process.start()
        child.close()
        worker = _Worker(process, conn)
        self._workers.append(worker)
        return worker

    def _dispatch(self) -> None:
        """Hand queued queries to idle workers, replacing dead ones as needed."""
        while self._queue:
            worker = next((w for w in self._workers if w.job is None), None)
            if worker is None:
                if len(self._workers) >= self._size:
                    return
                worker = self._start()
            worker.job = self._queue.popleft()
            _ticket, query, budget, _died_before = worker.job
            try:
                worker.conn.send((query, budget))
            except OSError:
                # The worker died before taking the query; next() sees its
                # sentinel and blames the query like any other death.
                pass

    def _collect(self, worker: _Worker) -> tuple[object, AnalysisOutcome] | None:
        """The busy ``worker``'s finished query, or ``None`` when the worker
        died and its query went back to the front of the queue."""
        ticket, query, budget, died_before = worker.job
        try:
            reply = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):
            reply = None
        if reply is None:
            self._workers.remove(worker)
            worker.process.kill()
            worker.process.join()
            worker.conn.close()
            if not died_before:
                self._queue.appendleft((ticket, query, budget, True))
                self._dispatch()
                return None
            outcome = self._analyzer._crash_outcome(query)
        else:
            worker.job = None
            outcome, deltas = reply
            if isinstance(outcome, Exception):
                raise outcome
            for name, delta in zip(COUNTERS, deltas):
                setattr(self._analyzer, name, getattr(self._analyzer, name) + delta)
            # The worker's query is a pickled copy: hand back the caller's.
            outcome.query = query
        self._dispatch()
        return ticket, outcome
