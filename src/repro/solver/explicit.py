"""Explicit implementation of the satisfiability algorithm of Figure 16.

The algorithm repeatedly adds *triples* ``(t, w₁, w₂)`` — a ψ-type together
with witness types proving its ``⟨1⟩``/``⟨2⟩`` obligations — until either a
satisfying root type is produced or no new triple can be added.  Four variants
of the update ensure the start mark occurs exactly once in the tree being
proved: a triple is either unmarked (no mark anywhere below), or marked
because its own type carries ``s``, or marked through exactly one of its
witnesses.

Following Section 7.1, the solver actually tests the linear-size "plunging"
formula ``µX. ψ ∨ ⟨1⟩X ∨ ⟨2⟩X`` at the root: a root type (no pending backward
modality, no ⟨2⟩ successor, mark present below) whose truth assignment
satisfies the plunging formula witnesses a single-rooted document in which ψ
holds at some node reachable by forward modalities, which is exactly
satisfiability of ψ over focused trees.

This implementation enumerates ψ-types eagerly, so it is only usable for small
Leans; it exists to mirror the paper's abstract algorithm closely and to
cross-validate the symbolic solver of Section 7 on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import SolverLimitError
from repro.logic import syntax as sx
from repro.logic.closure import Lean, lean as compute_lean
from repro.solver.models import render_attributes
from repro.solver.truth import TypeAssignment, psi_types, status_on_set
from repro.trees.binary import BinTree

#: An entry is a ψ-type plus the "contains the start mark" flag.
EntryKey = tuple[frozenset[sx.Formula], bool]


def estimate_psi_types(solver: "ExplicitSolver") -> int:
    """Upper bound on the ψ-types the explicit solver would enumerate."""
    lean = solver.lean
    modal = sum(
        1
        for item in lean.items
        if item.kind == sx.KIND_DIA and item.left is not sx.TRUE
    )
    optional = 4 + len(lean.attributes) + modal
    return len(lean.propositions) * 2 * (2**optional)


@dataclass
class _Entry:
    assignment: TypeAssignment
    contains_mark: bool
    iteration: int
    witness_first: EntryKey | None = None
    witness_second: EntryKey | None = None


@dataclass
class ExplicitResult:
    """Outcome of a run of the explicit solver."""

    satisfiable: bool
    model: BinTree | None
    iterations: int
    entry_count: int
    type_count: int
    lean: Lean


@dataclass
class ExplicitSolver:
    """Direct implementation of the bottom-up algorithm of Section 6.2."""

    formula: sx.Formula
    max_types: int = 300_000
    _plunged: sx.Formula = field(init=False, repr=False)
    _lean: Lean = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._plunged = sx.mu1(
            lambda x: self.formula | sx.dia(1, x) | sx.dia(2, x), prefix="Plunge"
        )
        self._lean = compute_lean(self._plunged)

    @property
    def lean(self) -> Lean:
        return self._lean

    def solve(self) -> ExplicitResult:
        """Run the algorithm; returns satisfiability, a model, and statistics."""
        lean = self._lean
        all_types = list(psi_types(lean, limit=self.max_types))
        if not all_types:
            raise SolverLimitError("no psi-types; the lean is degenerate")

        entries: dict[EntryKey, _Entry] = {}
        iteration = 0
        while True:
            iteration += 1
            added = self._update(all_types, entries, iteration)
            winner = self._final_check(entries)
            if winner is not None:
                model = self._reconstruct(entries, winner)
                return ExplicitResult(
                    satisfiable=True,
                    model=model,
                    iterations=iteration,
                    entry_count=len(entries),
                    type_count=len(all_types),
                    lean=lean,
                )
            if not added:
                return ExplicitResult(
                    satisfiable=False,
                    model=None,
                    iterations=iteration,
                    entry_count=len(entries),
                    type_count=len(all_types),
                    lean=lean,
                )

    # -- one iteration of Upd(·) -------------------------------------------------

    def _update(
        self,
        all_types: list[TypeAssignment],
        entries: dict[EntryKey, _Entry],
        iteration: int,
    ) -> bool:
        added = False
        existing = list(entries.items())
        unmarked = [(key, entry) for key, entry in existing if not entry.contains_mark]
        marked = [(key, entry) for key, entry in existing if entry.contains_mark]

        for assignment in all_types:
            # (entry is marked, first witness marked, second witness marked)
            if assignment.marked:
                cases = [(True, False, False)]
            else:
                cases = [(False, False, False), (True, True, False), (True, False, True)]
            for entry_marked, first_marked, second_marked in cases:
                key: EntryKey = (assignment.members, entry_marked)
                if key in entries:
                    continue
                first = self._find_witness(
                    assignment, 1, marked if first_marked else unmarked, first_marked
                )
                if first is _MISSING:
                    continue
                second = self._find_witness(
                    assignment, 2, marked if second_marked else unmarked, second_marked
                )
                if second is _MISSING:
                    continue
                entries[key] = _Entry(
                    assignment=assignment,
                    contains_mark=entry_marked,
                    iteration=iteration,
                    witness_first=first,
                    witness_second=second,
                )
                added = True
        return added

    def _find_witness(
        self,
        assignment: TypeAssignment,
        program: int,
        candidates: list[tuple[EntryKey, _Entry]],
        required: bool,
    ):
        """A witness entry for program ``program``, or ``None`` when not needed.

        Returns the sentinel ``_MISSING`` when a witness is required (the type
        claims ``⟨program⟩⊤``, or the mark must come from this branch) but none
        exists among the candidates.
        """
        needs_child = assignment.has_parent_program(program)
        if not needs_child:
            return _MISSING if required else None
        for key, entry in candidates:
            if self._compatible(assignment, program, entry.assignment):
                return key
        return _MISSING

    def _compatible(
        self, parent: TypeAssignment, program: int, child: TypeAssignment
    ) -> bool:
        """The compatibility relation ∆ₐ(t, t′) of Definition 6.2."""
        if not child.has_parent_program(-program):
            return False
        for item in self._lean.items:
            if item.kind != sx.KIND_DIA or item.left is sx.TRUE:
                continue
            if item.prog == program:
                if (item in parent.members) != status_on_set(item.left, child.members):
                    return False
            elif item.prog == -program:
                if (item in child.members) != status_on_set(item.left, parent.members):
                    return False
        return True

    # -- final check and model reconstruction -----------------------------------------

    def _final_check(self, entries: dict[EntryKey, _Entry]) -> EntryKey | None:
        for key, entry in entries.items():
            if not entry.contains_mark:
                continue
            assignment = entry.assignment
            if assignment.has_parent_program(-1) or assignment.has_parent_program(-2):
                continue
            if assignment.has_parent_program(2):
                continue  # a root with a ⟨2⟩ successor is a hedge
            if status_on_set(self._plunged, assignment.members):
                return key
        return None

    def _reconstruct(self, entries: dict[EntryKey, _Entry], root: EntryKey) -> BinTree:
        def build(key: EntryKey) -> BinTree:
            entry = entries[key]
            first = build(entry.witness_first) if entry.witness_first is not None else None
            second = (
                build(entry.witness_second) if entry.witness_second is not None else None
            )
            return BinTree(
                label=entry.assignment.label,
                left=first,
                right=second,
                marked=entry.assignment.marked,
                attributes=render_attributes(entry.assignment.attributes),
            )

        return build(root)


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing witness>"


_MISSING = _Missing()
