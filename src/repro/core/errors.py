"""Error hierarchy shared by every subsystem of the library."""


class ReproError(Exception):
    """Base class of every error raised by the library."""


class NavigationError(ReproError):
    """Raised when a focused-tree navigation step is undefined.

    The paper (Section 3) defines the four navigation modalities as partial
    functions; following an undefined modality raises this error.
    """


class ParseError(ReproError):
    """Raised by the XPath, DTD and logic parsers on malformed input."""

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            context = text[max(0, position - 20):position + 20]
            message = f"{message} (at position {position}, near {context!r})"
        super().__init__(message)


class CycleFreenessError(ReproError):
    """Raised when a formula that must be cycle-free is not (Section 4)."""


class SchemaLookupError(ReproError, KeyError):
    """Raised when a built-in schema name is unknown.

    Subclasses :class:`KeyError` so callers doing plain dictionary-style
    lookups keep working, while the analyzer can treat it as the
    input-shaped :class:`ReproError` it is.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class UnsupportedTypeError(ReproError, TypeError):
    """Raised when a type constraint object is not of a supported kind."""


class SolverLimitError(ReproError):
    """Raised when a solver refuses an instance that exceeds a configured limit.

    The explicit solver of Figure 16 enumerates psi-types eagerly and is only
    intended for small instances and cross-validation; it raises this error
    instead of running for an unbounded amount of time.
    """


#: Structured reasons a :class:`BudgetExceeded` may carry.  These strings are
#: the wire-visible ``budget_reason`` vocabulary of unknown outcomes and must
#: stay stable.
BUDGET_REASONS = ("deadline", "steps", "iterations", "lean", "worker-crash")


class BudgetExceeded(ReproError):
    """Raised when a resource-governed solve runs out of budget.

    The algorithm is ``2^O(lean)`` (Lemma 6.7), so a deployment facing
    adversarial inputs bounds each solve with a :class:`repro.solver.governor.
    Budget` and treats exhaustion as a first-class *unknown* verdict rather
    than a failure.  ``reason`` is one of :data:`BUDGET_REASONS`; ``limit``
    and ``observed`` quantify which bound tripped and where the run stood.
    """

    def __init__(
        self,
        reason: str,
        message: str,
        *,
        limit: float | int | None = None,
        observed: float | int | None = None,
    ):
        if reason not in BUDGET_REASONS:
            raise ValueError(f"unknown budget reason {reason!r}")
        super().__init__(message)
        self.reason = reason
        self.limit = limit
        self.observed = observed

    def __reduce__(self) -> tuple:
        # The default rebuilds from ``args`` (the message alone), which
        # __init__ rejects; a worker process sends these back to its pool.
        return type(self), (self.reason, str(self)), self.__dict__

    def as_dict(self) -> dict:
        return {
            "reason": self.reason,
            "message": str(self),
            "limit": self.limit,
            "observed": self.observed,
        }
