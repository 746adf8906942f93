"""The worker pool behind ``solve_many(workers=N)`` and ``repro serve --workers N``.

A worker runs the solver on one Lµ formula and nothing else: the analyzer in
the parent process reduces each query, consults its caches, and answers it
with the run a worker sent back (see :meth:`repro.api.StaticAnalyzer._solve`).
So every cache and counter has one owner, and the pool's unit of work is the
formula, the unit the solve cache is keyed by.

Each worker is one process with its own pipe, and it holds at most one
formula, so when a worker dies (an OOM kill, a segfault, an injected
``worker-crash`` fault) the pool knows exactly which formula it held.  That
formula is run again on a fresh worker, and a second death makes its run a
:class:`repro.core.errors.BudgetExceeded` with reason ``"worker-crash"``; no
other formula is interrupted.  A worker that dies at start-up is blamed on
the formula it was handed, so even a crash loop stops after two worker
starts per formula.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess

from repro.api import Run, run_solver
from repro.core import faults
from repro.core.errors import BudgetExceeded
from repro.logic import syntax as sx
from repro.solver.governor import Budget


def _work(conn: Connection) -> None:
    """A worker process: run ``(formula, budget, label)`` jobs until ``None``."""
    while (job := conn.recv()) is not None:
        formula, budget, label = job
        if faults.should_fire("worker-crash", label):
            os._exit(137)  # simulate an OOM kill: no cleanup, no reply
        try:
            run = run_solver(formula, budget)
        except Exception as exc:  # the parent raises it where the solver would
            exc.add_note(traceback.format_exc())
            run = exc
        conn.send(run)


@dataclass
class _Worker:
    process: BaseProcess
    conn: Connection
    #: The ``(formula, budget, label, died_before)`` the worker holds, or
    #: ``None`` while it is idle.
    job: tuple | None = None


class WorkerPool:
    """``workers`` processes running the solver on submitted formulas (a
    context manager, so no worker outlives the block).

    The workers come from the platform's default :mod:`multiprocessing`
    context (where that is fork, a pool starts about ten times faster than
    under spawn, whose workers re-import the package) and all start here,
    so later forks only replace dead workers.
    """

    def __init__(self, workers: int):
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

    def submit(self, formula: sx.Formula, budget: Budget | None, label: str) -> None:
        """Queue a solver run of ``formula`` under ``budget``; ``label`` is
        what the ``worker-crash`` fault point matches."""
        self._queue.append((formula, budget, label, False))
        self._dispatch()

    def pending(self) -> int:
        """The number of runs submitted but not yet returned by :meth:`next`."""
        return len(self._queue) + sum(1 for w in self._workers if w.job is not None)

    def next(
        self, wake: Connection | None = None
    ) -> tuple[tuple[sx.Formula, Budget | None], Run | Exception] | None:
        """Block until a run finishes and return ``((formula, budget), run)``,
        or ``None`` as soon as the connection ``wake`` has data.

        ``run`` is what :func:`repro.api.run_solver` returned, or the
        exception it raised (a :class:`BudgetExceeded`, or a bug carrying the
        worker's traceback as a note).
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
        process = self._context.Process(target=_work, args=(child,), daemon=True)
        process.start()
        child.close()
        worker = _Worker(process, conn)
        self._workers.append(worker)
        return worker

    def _dispatch(self) -> None:
        """Hand queued runs to idle workers, replacing dead ones as needed."""
        while self._queue:
            worker = next((w for w in self._workers if w.job is None), None)
            if worker is None:
                if len(self._workers) >= self._size:
                    return
                worker = self._start()
            worker.job = self._queue.popleft()
            formula, budget, label, _died_before = worker.job
            try:
                worker.conn.send((formula, budget, label))
            except OSError:
                # The worker died before taking the formula; next() sees its
                # sentinel and blames the formula like any other death.
                pass

    def _collect(self, worker: _Worker) -> tuple | None:
        """The busy ``worker``'s finished run, or ``None`` when the worker
        died and its formula went back to the front of the queue."""
        formula, budget, label, died_before = worker.job
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
                self._queue.appendleft((formula, budget, label, True))
                self._dispatch()
                return None
            reply = BudgetExceeded(
                "worker-crash",
                "worker process died while solving this query "
                "(on its worker and again on a fresh one)",
            )
        else:
            worker.job = None
        self._dispatch()
        return (formula, budget), reply
