"""Deterministic fault injection: ``repro.core.faults``.

Robustness code is only trustworthy if its failure paths actually run, so the
library carries *injectable failure points* at the places where the real world
misbehaves: a worker process dying mid-solve, a cache entry torn by a crashed
writer, a deadline expiring between checkpoints.  Production code calls
:func:`should_fire` at those sites; with no plan installed the call is a cheap
``None`` check and nothing ever fires.

This module lives in :mod:`repro.core` (stdlib-only, no intra-package
imports) so the solver, the cache and the API façade can all host injection
sites without import cycles.  The same module is the harness that tests and
the fuzzer's chaos axis (:mod:`repro.testing.fuzz`) install plans through::

    from repro.core import faults

    faults.install(faults.FaultPlan([
        faults.FaultPoint(point="worker-crash", match="poison"),
    ]))
    try:
        ...  # code under test
    finally:
        faults.uninstall()

A plan is installed either programmatically (:func:`install`, in-process
tests) or through the :data:`FAULTS_ENV` environment variable, which worker
processes inherit — that is how a fault can reach the workers of a
:class:`repro.workers.WorkerPool`.  The env value is a JSON list of points::

    REPRO_FAULTS='[{"point": "worker-crash", "match": "poison", "times": 1}]'

Known points (the ``point`` names production sites use):

* ``worker-crash`` — a pool worker ``os._exit``\\ s mid-solve
  (:func:`repro.workers._work`); ``match`` selects the formula by a
  substring of the text of the first query that needs it.
* ``cache-torn-write`` — :meth:`repro.cache.DiskSolveCache.put` writes a
  truncated entry straight to the final path, simulating a torn write that
  the atomic-publish protocol normally makes impossible.
* ``deadline`` — the resource governor's next checkpoint behaves as if the
  wall-clock deadline had already expired
  (:meth:`repro.solver.governor.ResourceGovernor.poll`).

Every decision is deterministic: a point fires when its ``match`` substring
occurs in the site's detail string and its ``times`` counter (per process) is
not yet spent.  The optional ``latch`` field names a file created atomically
when the point first fires, after which no process fires it again — that is
how a test injects *exactly one* crash across a pool of workers and their
replacements.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

#: Environment variable carrying a JSON fault plan into worker processes.
FAULTS_ENV = "REPRO_FAULTS"

#: Point names production injection sites use (documented above).
FAULT_POINTS = ("worker-crash", "cache-torn-write", "deadline")


@dataclass
class FaultPoint:
    """One injectable failure: fire ``point`` when ``match`` is seen."""

    point: str
    #: Substring that must occur in the site's detail string ("" matches all).
    match: str = ""
    #: Firings allowed in this process; ``None`` means unlimited.
    times: int | None = 1
    #: Optional latch file: once it exists (created atomically on the first
    #: firing, by whichever process wins), the point is spent *globally*.
    latch: str | None = None
    fired: int = field(default=0, compare=False)

    def should_fire(self, detail: str) -> bool:
        if self.match and self.match not in detail:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.latch is not None and not self._acquire_latch():
            return False
        self.fired += 1
        return True

    def _acquire_latch(self) -> bool:
        try:
            fd = os.open(self.latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        os.close(fd)
        return True


class FaultPlan:
    """An ordered collection of :class:`FaultPoint` entries."""

    def __init__(self, points: "list[FaultPoint] | None" = None):
        self.points = list(points or [])

    def should_fire(self, point: str, detail: str = "") -> bool:
        for entry in self.points:
            if entry.point == point and entry.should_fire(detail):
                return True
        return False

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        entries = json.loads(value)
        if not isinstance(entries, list):
            raise ValueError(f"{FAULTS_ENV} must be a JSON list, got {value!r}")
        points = []
        for entry in entries:
            points.append(
                FaultPoint(
                    point=str(entry["point"]),
                    match=str(entry.get("match", "")),
                    times=entry.get("times", 1),
                    latch=entry.get("latch"),
                )
            )
        return cls(points)


#: The installed plan: a programmatic install wins over the environment.
_PLAN: FaultPlan | None = None
#: The env value the cached env plan was parsed from (re-parsed on change).
_ENV_VALUE: str | None = None
_ENV_PLAN: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Install a plan for this process (overrides :data:`FAULTS_ENV`)."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    """Remove any programmatic plan (the environment plan, if set, remains)."""
    global _PLAN
    _PLAN = None


def active() -> FaultPlan | None:
    """The plan in effect, or ``None`` (the overwhelmingly common case)."""
    global _ENV_VALUE, _ENV_PLAN
    if _PLAN is not None:
        return _PLAN
    value = os.environ.get(FAULTS_ENV)
    if not value:
        return None
    if value != _ENV_VALUE:
        _ENV_VALUE = value
        try:
            _ENV_PLAN = FaultPlan.from_env(value)
        except (ValueError, KeyError, TypeError):
            # A malformed plan must never take the host process down; chaos
            # tooling validates its own plans, so silently inert is correct.
            _ENV_PLAN = None
    return _ENV_PLAN


def should_fire(point: str, detail: str = "") -> bool:
    """Whether the failure point fires here; the hook production sites call."""
    plan = active()
    return plan is not None and plan.should_fire(point, detail)
