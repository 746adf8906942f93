"""Resource governance for budgeted solving: ``repro.solver.governor``.

The satisfiability algorithm is ``2^O(lean)`` (Lemma 6.7), so a service
answering untrusted queries needs every solve bounded in advance: a
pathological formula must cost a *budget*, not the process.  This module
defines the budget vocabulary and the cooperative enforcement object that the
solver and the BDD manager poll:

* :class:`Budget` — declarative limits: a wall-clock deadline, a cap on BDD
  kernel steps, a cap on fixpoint iterations, and a cap on the Lean size
  (refusing up front what Lemma 6.7 prices as hopeless).
* :class:`ResourceGovernor` — the per-solve enforcement state.  Enforcement
  is *cooperative*: the fixpoint loop of :class:`repro.solver.symbolic.
  SymbolicSolver` calls :meth:`~ResourceGovernor.poll` once per iteration,
  and the BDD manager calls :meth:`~ResourceGovernor.tick` once per
  *expanded* kernel frame (a computed-table or memo miss of ``∧``/``∨``,
  ``exists`` or ``and_exists``; terminal and memoised frames do
  no work and are not counted), which polls the clock every
  :data:`~ResourceGovernor.POLL_STRIDE` frames.  A single fixpoint
  iteration can conjoin astronomically large BDDs, so iteration-level checks
  alone would not bound latency — the kernel ticks are what make the deadline
  bite *inside* an iteration, within milliseconds of expiry.

Exhaustion raises :class:`repro.core.errors.BudgetExceeded` with a structured
``reason`` (``"deadline"``, ``"steps"``, ``"iterations"``, ``"lean"``); the
API façade converts it into an ``unknown`` outcome (see
:class:`repro.api.AnalysisOutcome`).  A step is one expanded kernel frame,
so ``max_steps`` trips deterministically: the same formula under the same
budget reports the same reason on every run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core import faults
from repro.core.errors import BudgetExceeded

#: The fields of a :class:`Budget`, each with whether it counts (and so must
#: be a whole number).
_LIMIT_FIELDS = {
    "deadline_seconds": False,
    "max_steps": True,
    "max_iterations": True,
    "max_lean": True,
}


def checked_limit(name: str, value: object) -> float | int:
    """``value`` as the budget field ``name``, or a ``ValueError`` naming it.

    A limit is a positive finite number, and a count is a whole one.
    ``json.loads`` parses ``NaN`` and ``Infinity`` (and ``float`` parses
    ``"nan"``), and every comparison with NaN is false, so such a value
    would silently lift its limit: it is refused like a boolean or a
    fractional count.  So is a deadline too large for a float.
    """
    whole = _LIMIT_FIELDS[name]
    finite = isinstance(value, (int, float)) and not isinstance(value, bool)
    if finite and not whole:
        try:
            value = float(value)
        except OverflowError:
            finite = False
    if not finite or (isinstance(value, float) and not math.isfinite(value)):
        raise ValueError(f"budget field {name} must be a finite number, got {value!r}")
    if whole and value != int(value):
        raise ValueError(f"budget field {name} must be a whole number, got {value!r}")
    if value <= 0:
        raise ValueError(f"budget field {name} must be positive, got {value!r}")
    return int(value) if whole else value


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits for one solve (``None`` = unlimited).

    ``deadline_seconds`` bounds wall-clock time, ``max_steps`` bounds
    expanded BDD kernel frames (a machine-independent, deterministic work
    measure; see :meth:`repro.bdd.manager.BDDManager.set_governor`),
    ``max_iterations`` bounds fixpoint iterations, and ``max_lean`` refuses
    formulas whose Lean exceeds the bound before any BDD is built.  Every
    set field must pass :func:`checked_limit`, whichever way the budget was
    built (Python, the wire, the CLI flags).  A budget is plain data and
    pickles across process boundaries, so batch workers enforce the same
    limits as the parent.
    """

    deadline_seconds: float | None = None
    max_steps: int | None = None
    max_iterations: int | None = None
    max_lean: int | None = None

    def __post_init__(self) -> None:
        for name in _LIMIT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, checked_limit(name, value))

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_steps is None
            and self.max_iterations is None
            and self.max_lean is None
        )

    def as_dict(self) -> dict:
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_steps": self.max_steps,
            "max_iterations": self.max_iterations,
            "max_lean": self.max_lean,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Budget":
        """A budget from its wire form (see :meth:`as_dict`)."""
        unknown = set(payload) - set(_LIMIT_FIELDS)
        if unknown:
            raise ValueError(f"unknown budget field(s): {sorted(unknown)}")
        return cls(**payload)

    def merged_with(self, other: "Budget | None") -> "Budget":
        """The tighter of the two budgets, field by field.

        A field set on one side only keeps that value; where both set it,
        the smaller limit applies.  Merging can therefore only tighten a
        budget: a per-request budget never lifts a service-wide limit.
        """
        if other is None:
            return self

        def tighter(mine, theirs):
            if mine is None:
                return theirs
            return mine if theirs is None else min(mine, theirs)

        return Budget(
            deadline_seconds=tighter(self.deadline_seconds, other.deadline_seconds),
            max_steps=tighter(self.max_steps, other.max_steps),
            max_iterations=tighter(self.max_iterations, other.max_iterations),
            max_lean=tighter(self.max_lean, other.max_lean),
        )


class ResourceGovernor:
    """Per-solve budget enforcement, polled cooperatively by solver layers.

    One governor instance governs one solver run (translation *and* fixpoint
    — the deadline covers everything between :meth:`start` and the verdict).
    The two entry points trade precision for overhead:

    * :meth:`tick` — one expanded BDD kernel frame.  Counts a step; every
      :data:`POLL_STRIDE` steps it falls through to :meth:`poll`.  This is
      the hot path and must stay a counter bump almost always.
    * :meth:`poll` — a full checkpoint (step cap, wall clock, injected
      deadline faults).  Called by :meth:`tick` on stride boundaries and by
      the fixpoint loop once per iteration.
    """

    #: Expanded kernel frames between wall-clock polls.  At the BDD
    #: manager's ~10⁶ frames/second this bounds checkpoint latency well under a
    #: millisecond while keeping the per-frame cost to one increment and
    #: one masked comparison.
    POLL_STRIDE = 1024

    __slots__ = ("budget", "steps", "iterations", "_started", "_deadline_at")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.steps = 0
        self.iterations = 0
        self._started = time.monotonic()
        self._deadline_at = (
            None
            if budget.deadline_seconds is None
            else self._started + budget.deadline_seconds
        )

    def start(self) -> None:
        """(Re)start the clock; call at the beginning of the governed solve."""
        self._started = time.monotonic()
        if self.budget.deadline_seconds is not None:
            self._deadline_at = self._started + self.budget.deadline_seconds

    @property
    def elapsed_seconds(self) -> float:
        return time.monotonic() - self._started

    def tick(self) -> None:
        """Account one expanded kernel frame; poll on stride boundaries."""
        self.steps += 1
        if not self.steps & (self.POLL_STRIDE - 1):
            self.poll()

    def poll(self) -> None:
        """Full checkpoint: raise :class:`BudgetExceeded` when out of budget."""
        budget = self.budget
        if budget.max_steps is not None and self.steps > budget.max_steps:
            raise BudgetExceeded(
                "steps",
                f"step budget exhausted: {self.steps} BDD kernel steps "
                f"> {budget.max_steps}",
                limit=budget.max_steps,
                observed=self.steps,
            )
        if self._deadline_at is not None and time.monotonic() > self._deadline_at:
            raise BudgetExceeded(
                "deadline",
                f"deadline exceeded: {self.elapsed_seconds:.3f}s "
                f"> {budget.deadline_seconds}s",
                limit=budget.deadline_seconds,
                observed=round(self.elapsed_seconds, 3),
            )
        if faults.should_fire("deadline"):
            raise BudgetExceeded(
                "deadline",
                "deadline exceeded: expiry injected by fault plan",
                limit=budget.deadline_seconds,
                observed=round(self.elapsed_seconds, 3),
            )

    def check_iteration(self, iteration: int) -> None:
        """Fixpoint-loop checkpoint: iteration cap plus a full poll."""
        self.iterations = iteration
        budget = self.budget
        if budget.max_iterations is not None and iteration > budget.max_iterations:
            raise BudgetExceeded(
                "iterations",
                f"iteration budget exhausted: {iteration} fixpoint iterations "
                f"> {budget.max_iterations}",
                limit=budget.max_iterations,
                observed=iteration,
            )
        self.poll()

    def check_lean(self, lean_size: int) -> None:
        """Refuse up front when the Lean exceeds the budget (Lemma 6.7)."""
        budget = self.budget
        if budget.max_lean is not None and lean_size > budget.max_lean:
            raise BudgetExceeded(
                "lean",
                f"lean budget exceeded before solving: {lean_size} Lean "
                f"formulas > {budget.max_lean} (the algorithm is 2^O(lean), "
                f"Lemma 6.7)",
                limit=budget.max_lean,
                observed=lean_size,
            )


def governor_for(budget: "Budget | None") -> ResourceGovernor | None:
    """A governor enforcing ``budget``, or ``None`` when nothing is limited."""
    if budget is None or budget.unlimited:
        return None
    return ResourceGovernor(budget)
