"""Fisher–Ladner closure and the Lean of a formula (Section 6.1).

The closure ``cl(ψ)`` is the smallest set containing ``ψ`` and closed under
taking immediate subformulas, with fixpoint formulas additionally unwound once
(``µXᵢ=ϕᵢ in ψ' →ₑ exp(µXᵢ=ϕᵢ in ψ')``).

The ``Lean(ψ)`` is the set of formulas from which every formula of
``cl(ψ) ∪ ¬cl(ψ)`` can be recovered as a boolean combination::

    Lean(ψ) = {⟨a⟩⊤ | a ∈ {1, 2, 1̄, 2̄}} ∪ Σ(ψ) ∪ {s} ∪ {⟨a⟩ϕ ∈ cl(ψ)}

where ``Σ(ψ)`` contains the atomic propositions of ``ψ`` plus one extra name
standing for "any other label".  ψ-types (Hintikka sets) are subsets of the
Lean; the satisfiability algorithm of Section 6 and its BDD-based symbolic
implementation of Section 7 both work directly on the Lean.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.errors import SolverLimitError
from repro.logic import syntax as sx
from repro.trees.focus import MODALITIES


#: Label used to represent "an atomic proposition not occurring in ψ"
#: (written σₓ in the paper).
OTHER_LABEL = "#other"

#: Attribute name standing for "an attribute named by none of the attribute
#: propositions of ψ".  It gives the wildcard ``@*`` something to be true of
#: on nodes whose attributes are all outside the formula's alphabet.
OTHER_ATTRIBUTE = "#otherattr"


def _closure_in_order(
    formula: sx.Formula, max_size: int = 200_000
) -> dict[sx.Formula, None]:
    """``cl(ψ)`` in breadth-first order of first appearance from ψ, as the
    keys of a dict (an insertion-ordered set)."""
    closure: dict[sx.Formula, None] = {}
    queue: deque[sx.Formula] = deque([formula])
    while queue:
        current = queue.popleft()
        if current in closure:
            continue
        closure[current] = None
        if len(closure) > max_size:
            raise SolverLimitError(
                f"Fisher-Ladner closure exceeded {max_size} formulas; "
                "is the formula cycle-free?"
            )
        kind = current.kind
        if kind in (sx.KIND_AND, sx.KIND_OR):
            queue.append(current.left)
            queue.append(current.right)
        elif kind == sx.KIND_DIA:
            queue.append(current.left)
        elif current.is_fixpoint:
            queue.append(sx.expand_fixpoint(current))
    return closure


def fisher_ladner_closure(formula: sx.Formula, max_size: int = 200_000) -> set[sx.Formula]:
    """Compute the Fisher–Ladner closure ``cl(ψ)``.

    ``max_size`` bounds the number of closure elements as a safety net: the
    closure of a cycle-free formula is finite, but a buggy or adversarial
    non-cycle-free input could otherwise loop forever.
    """
    return set(_closure_in_order(formula, max_size))


@dataclass(frozen=True)
class Lean:
    """The Lean of a formula, with a fixed order used for bit-vector encodings.

    The order follows Section 7.4 and the layout of Figure 18: first the four
    topological propositions ``⟨a⟩⊤``, then the start proposition ``s``, then
    the atomic propositions, then the existential formulas of the closure in
    breadth-first order of their appearance in the formula (keeping sister
    subformulas close together, which is the variable-ordering heuristic the
    paper found to work best).
    """

    formula: sx.Formula
    items: tuple[sx.Formula, ...]
    index: dict[sx.Formula, int] = field(compare=False, hash=False)
    propositions: tuple[str, ...]
    other_label: str
    #: Attribute names with a bit of their own (empty when ψ never mentions
    #: attributes); always ends with :data:`OTHER_ATTRIBUTE` when non-empty.
    attributes: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: sx.Formula) -> bool:
        return item in self.index

    def position(self, item: sx.Formula) -> int:
        """Index of a lean formula in the bit-vector encoding."""
        return self.index[item]

    @property
    def start_index(self) -> int:
        """Index of the start proposition ``s``."""
        return self.index[sx.START]

    def modal_items(self) -> tuple[tuple[int, sx.Formula, int], ...]:
        """All ``⟨a⟩ϕ`` lean entries as ``(program, ϕ, index)`` triples."""
        result = []
        for position, item in enumerate(self.items):
            if item.kind == sx.KIND_DIA:
                result.append((item.prog, item.left, position))
        return tuple(result)

    def proposition_index(self, label: str) -> int:
        """Index of the lean entry for atomic proposition ``label``.

        Labels that do not occur in the formula are mapped to the extra
        "other" proposition.
        """
        formula = sx.prop(label if label in self.propositions else self.other_label)
        return self.index[formula]

    def attribute_index(self, name: str) -> int:
        """Index of the lean entry for attribute proposition ``@name``.

        Attribute names without a bit of their own map to the extra
        :data:`OTHER_ATTRIBUTE` bit (mirroring :meth:`proposition_index`).
        """
        formula = sx.attr(name if name in self.attributes else OTHER_ATTRIBUTE)
        return self.index[formula]

    def describe(self) -> str:
        """A short human-readable summary (used by reports and benchmarks)."""
        modal = sum(1 for item in self.items if item.kind == sx.KIND_DIA)
        attributes = (
            f", {len(self.attributes)} attribute propositions" if self.attributes else ""
        )
        return (
            f"Lean size {len(self.items)}: {len(self.propositions)} propositions"
            f"{attributes}, {modal} modal formulas"
        )


def closure_alphabet(closure: Iterable[sx.Formula]) -> tuple[set[str], set[str]]:
    """The atomic propositions and attribute names of a set of formulas.

    Collecting ``Σ(ψ)`` from the *closure* instead of the raw syntax tree is
    the Lean-level half of cone-of-influence pruning: a proposition buried in
    a fixpoint definition the formula never references cannot influence any
    ψ-type, so it gets no bit.  (For formulas produced by the translations
    the two coincide — every definition is reachable — but projected type
    grammars and hand-built formulas can differ.)
    """
    labels: set[str] = set()
    attributes: set[str] = set()
    for item in closure:
        kind = item.kind
        if kind in (sx.KIND_PROP, sx.KIND_NPROP):
            labels.add(item.label)
        elif kind in (sx.KIND_ATTR, sx.KIND_NATTR):
            attributes.add(item.label)
    return labels, attributes


def lean(formula: sx.Formula) -> Lean:
    """Compute ``Lean(ψ)`` together with its bit-vector ordering.

    One attribute bit is allocated per attribute name occurring in ψ, plus
    the :data:`OTHER_ATTRIBUTE` bit; formulas without attribute propositions
    pay nothing.

    The alphabet is read off the Fisher–Ladner closure (the formulas ψ-types
    are actually built from), not the raw syntax tree — see
    :func:`closure_alphabet`.  The closure is walked once: its breadth-first
    order from ψ is also the order of the existential formulas.
    """
    closure = _closure_in_order(formula)
    closure_labels, closure_attributes = closure_alphabet(closure)

    labels = sorted(closure_labels)
    if OTHER_LABEL not in labels:
        labels.append(OTHER_LABEL)

    # The wildcard ``@*`` is not a name of its own, but its presence (like
    # any named attribute) forces the "other attribute" bit to exist.
    attribute_names = sorted(
        closure_attributes - {OTHER_ATTRIBUTE, sx.ANY_ATTRIBUTE}
    )
    if attribute_names or closure_attributes:
        attribute_names.append(OTHER_ATTRIBUTE)

    items: list[sx.Formula] = [sx.dia(program, sx.TRUE) for program in MODALITIES]
    items.append(sx.START)
    items.extend(sx.prop(label) for label in labels)
    items.extend(sx.attr(name) for name in attribute_names)
    # Existential formulas of the closure, in breadth-first order of first
    # appearance starting from the root formula (a ``⟨a⟩⊤`` of the closure
    # already heads the order).
    seen = set(items)
    items.extend(
        item for item in closure if item.kind == sx.KIND_DIA and item not in seen
    )

    index = {item: position for position, item in enumerate(items)}
    return Lean(
        formula=formula,
        items=tuple(items),
        index=index,
        propositions=tuple(labels),
        other_label=OTHER_LABEL,
        attributes=tuple(attribute_names),
    )
