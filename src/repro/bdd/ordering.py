"""Variable-ordering and cone-of-influence helpers (Sections 7.3, 7.4).

The cost of BDD operations is very sensitive to the variable order.  The paper
found that ordering the Lean formulas by a breadth-first traversal of the
formula to solve — which keeps sister subformulas close together — works best
in practice.  The Lean computed by :func:`repro.logic.closure.lean` is already
in that order, and :class:`repro.solver.relations.LeanEncoding` interleaves
each unprimed variable with its primed copy.  What lives here is the
cone-of-influence closure the relational products use to skip partitions
that cannot affect them.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, TypeVar

Node = TypeVar("Node", bound=Hashable)


def cone_of_influence(
    supports: Mapping[Node, frozenset[str]], goals: Iterable[str]
) -> set[Node]:
    """The constraints transitively connected to ``goals`` through shared variables.

    ``supports`` maps each constraint to the set of variables it mentions;
    ``goals`` is the variable set of interest (e.g. the support of a fixpoint
    frontier, or the element names a query tests).  A constraint belongs to
    the cone when its support intersects the goals, or intersects the support
    of another constraint already in the cone — the standard cone-of-influence
    closure used both to skip transition-relation partitions that cannot
    affect a relational product and to project type constraints onto the
    alphabet a problem can observe.
    """
    cone: set[Node] = set()
    reached: set[str] = set(goals)
    changed = True
    while changed:
        changed = False
        for node, support in supports.items():
            if node in cone or not (support & reached):
                continue
            cone.add(node)
            reached |= support
            changed = True
    return cone

