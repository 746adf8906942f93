"""ψ-types and the truth assignment of formulas at a type (Section 6.1, Figure 15).

A ψ-type (Hintikka set) is a subset ``t ⊆ Lean(ψ)`` such that:

* modal consistency: ``⟨a⟩ϕ ∈ t`` implies ``⟨a⟩⊤ ∈ t``;
* a node cannot be both a first child and a second child:
  not (``⟨1̄⟩⊤ ∈ t`` and ``⟨2̄⟩⊤ ∈ t``);
* exactly one atomic proposition belongs to ``t``;
* the start proposition ``s`` may or may not belong to ``t``.

The *truth assignment* ``ϕ ∈̇ t`` decides whether a formula of the closure is
implied by a type, by structural recursion that unfolds fixpoints; it is the
boolean function called ``status`` in the implementation section (7.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import SolverLimitError
from repro.logic import syntax as sx
from repro.logic.closure import Lean
from repro.trees.focus import MODALITIES


@dataclass(frozen=True)
class TypeAssignment:
    """A ψ-type represented as the frozenset of lean formulas it contains."""

    lean: Lean
    members: frozenset[sx.Formula]

    def __contains__(self, item: sx.Formula) -> bool:
        return item in self.members

    @property
    def label(self) -> str:
        """The unique atomic proposition of the type."""
        for item in self.members:
            if item.kind == sx.KIND_PROP:
                return item.label
        raise AssertionError("a psi-type carries exactly one atomic proposition")

    @property
    def marked(self) -> bool:
        """Whether the start proposition belongs to the type."""
        return sx.START in self.members

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attribute names of the type, sorted (possibly empty)."""
        return tuple(
            sorted(item.label for item in self.members if item.kind == sx.KIND_ATTR)
        )

    def has_parent_program(self, program: int) -> bool:
        """Whether ``⟨program⟩⊤`` belongs to the type."""
        return sx.dia(program, sx.TRUE) in self.members

    def bits(self) -> tuple[bool, ...]:
        """Bit-vector view in the lean order (Section 7.1)."""
        return tuple(item in self.members for item in self.lean.items)

    def __str__(self) -> str:
        from repro.logic.printer import format_formula

        parts = sorted(format_formula(item) for item in self.members)
        return "{" + ", ".join(parts) + "}"


def status_on_set(
    formula: sx.Formula, members: frozenset[sx.Formula] | TypeAssignment
) -> bool:
    """The truth assignment ``formula ∈̇ t`` of Figure 15.

    ``members`` is the set of lean formulas belonging to the type.  Formulas
    are evaluated by structural recursion; lean formulas are looked up
    directly, fixpoints are expanded once (which terminates because expansion
    always ends below a modality for guarded formulas).
    """
    if isinstance(members, TypeAssignment):
        members = members.members
    return _status(formula, members, cache={})


def _status(
    formula: sx.Formula, members: frozenset[sx.Formula], cache: dict[sx.Formula, bool]
) -> bool:
    cached = cache.get(formula)
    if cached is not None:
        return cached
    kind = formula.kind
    if kind == sx.KIND_TRUE:
        result = True
    elif kind == sx.KIND_FALSE:
        result = False
    elif kind == sx.KIND_PROP:
        result = formula in members
    elif kind == sx.KIND_NPROP:
        result = sx.prop(formula.label) not in members
    elif kind == sx.KIND_ATTR:
        if formula.label == sx.ANY_ATTRIBUTE:
            result = any(item.kind == sx.KIND_ATTR for item in members)
        else:
            result = formula in members
    elif kind == sx.KIND_NATTR:
        result = not _status(sx.attr(formula.label), members, cache)
    elif kind == sx.KIND_START:
        result = sx.START in members
    elif kind == sx.KIND_NSTART:
        result = sx.START not in members
    elif kind == sx.KIND_DIA:
        result = formula in members
    elif kind == sx.KIND_NDIA:
        result = sx.dia(formula.prog, sx.TRUE) not in members
    elif kind == sx.KIND_AND:
        result = _status(formula.left, members, cache) and _status(
            formula.right, members, cache
        )
    elif kind == sx.KIND_OR:
        result = _status(formula.left, members, cache) or _status(
            formula.right, members, cache
        )
    elif formula.is_fixpoint:
        result = _status(sx.expand_fixpoint(formula), members, cache)
    elif kind == sx.KIND_VAR:
        raise ValueError(
            f"free recursion variable {formula.label!r}; the solver only "
            "handles closed formulas"
        )
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown formula kind {kind!r}")
    cache[formula] = result
    return result


def psi_types(lean: Lean, limit: int = 500_000) -> Iterator[TypeAssignment]:
    """Enumerate every ψ-type of a lean (used by the explicit solver).

    The number of types is ``|Σ| · 2 · 2^(modal items)`` before applying the
    consistency constraints; ``limit`` guards against accidentally launching
    an enumeration that could never finish.
    """
    top_items = [sx.dia(program, sx.TRUE) for program in MODALITIES]
    attribute_items = [sx.attr(name) for name in lean.attributes]
    modal_items = [
        item for item in lean.items if item.kind == sx.KIND_DIA and item.left is not sx.TRUE
    ]
    optional_items = top_items + attribute_items + modal_items

    estimated = len(lean.propositions) * 2 * (2 ** len(optional_items))
    if estimated > limit:
        raise SolverLimitError(
            f"explicit psi-type enumeration would visit about {estimated} types "
            f"(limit {limit}); use the symbolic solver for this formula"
        )

    for label in lean.propositions:
        for marked in (False, True):
            for included in itertools.product((False, True), repeat=len(optional_items)):
                members = {sx.prop(label)}
                if marked:
                    members.add(sx.START)
                for item, present in zip(optional_items, included):
                    if present:
                        members.add(item)
                candidate = frozenset(members)
                if _is_consistent_type(candidate):
                    yield TypeAssignment(lean, candidate)


def _is_consistent_type(members: frozenset[sx.Formula]) -> bool:
    if sx.dia(-1, sx.TRUE) in members and sx.dia(-2, sx.TRUE) in members:
        return False
    for item in members:
        if item.kind == sx.KIND_DIA and sx.dia(item.prog, sx.TRUE) not in members:
            return False
    return True


def count_types_symbolically(lean: Lean) -> int:
    """``|Types(ψ)|`` computed through the BDD encoding (Section 7.1).

    Builds the characteristic function χ_Types of the lean and model-counts
    it over the unprimed variable vector.  For every lean small enough to
    enumerate this equals ``sum(1 for _ in psi_types(lean))`` — the
    conformance suite holds the engine to both counts, tying the explicit
    Figure 15 machinery to the symbolic encoding.
    """
    from repro.solver.relations import LeanEncoding

    encoding = LeanEncoding(lean)
    return encoding.types_constraint().count_assignments(encoding.x_names)
