"""The bounded explicit oracles behind differential fuzzing.

Three independent ways of answering a fuzzed decision problem, none of which
shares code with the BDD engine:

1. **Bounded focused-tree enumeration** (:func:`bounded_search`) — enumerate
   every document up to depth/width bounds over the problem's label and
   attribute alphabets, and decide the problem *denotationally*: evaluate the
   XPath semantics (:mod:`repro.xpath.semantics`) at every marked node whose
   subtree satisfies the type constraint (:mod:`repro.xmltypes.membership`).
   Finding a witness is conclusive (the symbolic solver must agree);
   exhausting the bounds without one is conclusive only *within* the bounds.
   A sampled subset of the enumerated documents is additionally evaluated
   against the compiled Lµ formula through the logic's denotational
   semantics (:mod:`repro.logic.semantics`) — the Proposition 5.1 check that
   the translation selects exactly the denotationally-selected nodes.

2. **ψ-type enumeration** (:func:`explicit_verdict`) — the paper's abstract
   algorithm of Figure 16, :class:`repro.solver.explicit.ExplicitSolver`,
   run on the same formula.  It is a *complete* decision procedure, so its
   verdict must match the symbolic one exactly; being exponential in the
   Lean it only engages below a ψ-type budget.

3. **Witness replay** (:func:`replay_witness`) — every satisfiable symbolic
   verdict comes with a model document; the model must be one document and
   actually witness the problem: the expressions select the right nodes
   under the denotational semantics, the marked subtree validates against
   the DTD (:func:`repro.xmltypes.membership.dtd_accepts`) and carries no
   attribute violations
   (:func:`repro.xmltypes.membership.dtd_attribute_violations`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.errors import SolverLimitError
from repro.logic import syntax as sx
from repro.logic.closure import OTHER_ATTRIBUTE
from repro.logic.semantics import interpret
from repro.solver.explicit import ExplicitSolver, estimate_psi_types
from repro.testing.corpus import FuzzCase
from repro.trees.focus import FocusedTree, all_focuses, focus_at
from repro.trees.unranked import Tree
from repro.xmltypes.compile import attribute_constraints
from repro.xmltypes.dtd import DTD
from repro.xmltypes.membership import dtd_accepts, dtd_attribute_violations
from repro.xpath.parser import parse_xpath_cached
from repro.xpath.semantics import evaluate_xpath

#: Wildcard label of lifted-but-unliftable witness nodes (see
#: :func:`repro.xmltypes.membership.lift_wildcards`) — the solver's
#: rendering of the "any other label" proposition.
from repro.solver.models import FRESH_LABEL as WILDCARD_LABEL  # noqa: E402


@dataclass(frozen=True)
class Bounds:
    """Budgets of the bounded oracles (see ``docs/TESTING.md``)."""

    #: Depth bound (nodes on a root-to-leaf path) of enumerated documents.
    max_depth: int = 3
    #: Per-node children bound of enumerated documents.
    max_width: int = 2
    #: Marked documents examined before the enumeration gives up.
    max_documents: int = 300
    #: Marked documents additionally cross-checked against the compiled
    #: formula via the logic's denotational semantics (Proposition 5.1).
    semantic_samples: int = 6
    #: ψ-type estimate above which :func:`explicit_verdict` declines to run.
    explicit_types: int = 2048
    #: Lean-size gate: trials whose (unpruned) formula exceeds this many
    #: Lean formulas are skipped entirely — the solver's cost is
    #: ``2^O(lean)`` (Lemma 6.7), so a rare oversized case would otherwise
    #: dominate a whole campaign's wall clock.  Skips are deterministic and
    #: counted in the report.
    max_lean: int = 90

    def max_nodes(self) -> int:
        """Largest document size expressible within depth/width bounds."""
        return sum(self.max_width**level for level in range(self.max_depth))

    def as_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "max_width": self.max_width,
            "max_documents": self.max_documents,
            "semantic_samples": self.semantic_samples,
            "explicit_types": self.explicit_types,
            "max_lean": self.max_lean,
        }


@dataclass
class BoundedVerdict:
    """Outcome of one bounded enumeration run."""

    #: A document within bounds witnesses the problem's satisfiability.
    witness_found: bool
    #: The witnessing marked document (when found).
    witness: Tree | None
    #: Marked documents examined.
    documents_checked: int
    #: Every marked document within the bounds was examined.  When False the
    #: ``max_documents`` budget ran out first, so "no witness" is only a
    #: statement about the examined prefix.
    exhausted: bool
    #: Documents cross-checked against the compiled formula (Prop. 5.1).
    semantic_checks: int = 0
    #: Human-readable mismatches between the formula's models and the
    #: denotational expectation — each one is a translation/oracle bug.
    semantic_mismatches: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Document enumeration
# ---------------------------------------------------------------------------


def enumerate_trees(
    labels: tuple[str, ...],
    attribute_sets: tuple[tuple[str, ...], ...],
    bounds: Bounds,
) -> Iterator[Tree]:
    """Every unmarked tree within the bounds, smallest first.

    Trees are enumerated by total node count, so a capped consumer examines
    the smallest documents — which shrink best and cover the most distinct
    shapes per budget unit.
    """
    variants = tuple(itertools.product(labels, attribute_sets))

    def trees(nodes: int, depth: int) -> Iterator[Tree]:
        if nodes <= 0 or depth <= 0:
            return
        for label, attributes in variants:
            if nodes == 1:
                yield Tree(label, (), False, attributes)
            else:
                for children in forests(nodes - 1, bounds.max_width, depth - 1):
                    yield Tree(label, children, False, attributes)

    def forests(nodes: int, width: int, depth: int) -> Iterator[tuple[Tree, ...]]:
        if nodes == 0:
            yield ()
            return
        if width == 0 or depth == 0:
            return
        for first_size in range(1, nodes + 1):
            for first in trees(first_size, depth):
                for rest in forests(nodes - first_size, width - 1, depth):
                    yield (first,) + rest

    for total in range(1, bounds.max_nodes() + 1):
        yield from trees(total, bounds.max_depth)


def problem_alphabets(case: FuzzCase, dtd: DTD | None) -> tuple[
    tuple[str, ...], tuple[tuple[str, ...], ...]
]:
    """The label universe and attribute-set family to enumerate over.

    Labels: the DTD's element names (the query's own names otherwise), the
    names the expressions test, plus one fresh "context" label standing for
    the Lean's *any other label* proposition, so models that need a label
    outside the problem's alphabet stay within reach.

    Attribute sets: the empty set, one singleton per attribute name the
    expressions mention, and (when several) the full set.  When a query uses
    the wildcard ``@*`` the literal :data:`~repro.logic.closure.
    OTHER_ATTRIBUTE` name joins the pool — it is the concrete counterpart of
    the Lean's "other attribute" bit, and the denotational semantics treats
    it as an ordinary attribute.
    """
    from repro.analysis.problems import relevant_attributes, relevant_labels

    query_labels = set(relevant_labels(*case.exprs))
    labels = set(dtd.element_names()) if dtd is not None else set(query_labels)
    labels |= query_labels
    fresh = "w"
    while fresh in labels:
        fresh += "w"
    universe = tuple(sorted(labels)) + (fresh,)

    pool = relevant_attributes(*case.exprs)
    attribute_sets: list[tuple[str, ...]] = [()]
    attribute_sets.extend((name,) for name in pool)
    if len(pool) > 1:
        attribute_sets.append(tuple(pool))
    return universe, tuple(attribute_sets)


# ---------------------------------------------------------------------------
# The type constraint, denotationally
# ---------------------------------------------------------------------------


def _attribute_formula_holds(formula: sx.Formula, attributes: tuple[str, ...]) -> bool:
    """Evaluate a pure attribute constraint against a concrete attribute set."""
    kind = formula.kind
    if kind == sx.KIND_TRUE:
        return True
    if kind == sx.KIND_FALSE:
        return False
    if kind == sx.KIND_ATTR:
        if formula.label == sx.ANY_ATTRIBUTE:
            return bool(attributes)
        return formula.label in attributes
    if kind == sx.KIND_NATTR:
        return not _attribute_formula_holds(sx.attr(formula.label), attributes)
    if kind == sx.KIND_AND:
        return _attribute_formula_holds(formula.left, attributes) and (
            _attribute_formula_holds(formula.right, attributes)
        )
    if kind == sx.KIND_OR:
        return _attribute_formula_holds(formula.left, attributes) or (
            _attribute_formula_holds(formula.right, attributes)
        )
    raise AssertionError(f"not an attribute constraint: {formula!r}")


def type_holds_at(
    dtd: DTD | None,
    focus: FocusedTree,
    constraints: dict[str, sx.Formula] | None = None,
) -> bool:
    """Whether the compiled type constraint holds at a focused tree.

    This is the denotational counterpart of ``compile_dtd(dtd, ...)`` — the
    equivalence is exercised by the sampled Proposition 5.1 checks of
    :func:`bounded_search`:

    * the subtree in focus validates against the DTD (the start variable's
      language), and
    * the focus has no following sibling (the start alternative constrains
      the second successor), and
    * every node of the subtree satisfies the DTD's attribute constraints
      projected onto the problem's attribute alphabet.

    The focus *context* (everything above and before) is unconstrained,
    exactly as in Section 5.2.
    """
    if dtd is None:
        return True
    if focus.follow(2) is not None:
        return False
    subtree = focus.tree.unmark_all()
    if not dtd_accepts(dtd, subtree):
        return False
    if constraints:
        for node in subtree.iter_nodes():
            constraint = constraints.get(node.label)
            if constraint is not None and not _attribute_formula_holds(
                constraint, node.attributes
            ):
                return False
    return True


def selected_nodes(
    case: FuzzCase, contexts: "Tree | frozenset[FocusedTree]"
) -> frozenset[FocusedTree]:
    """The denotational answer set of the case's problem.

    ``contexts`` is a marked document or a pre-computed focus universe.  The
    underlying model must carry exactly one start mark; the type constraint
    is *not* checked here (callers gate on :func:`type_holds_at`).
    """
    if isinstance(contexts, Tree):
        contexts = frozenset(all_focuses(contexts))
    exprs = [parse_xpath_cached(text) for text in case.exprs]
    first = evaluate_xpath(exprs[0], contexts)
    if case.kind in ("satisfiability", "emptiness"):
        return first
    second = evaluate_xpath(exprs[1], contexts)
    if case.kind == "containment":
        return first - second
    if case.kind == "overlap":
        return first & second
    raise AssertionError(f"unknown fuzz kind {case.kind!r}")


# ---------------------------------------------------------------------------
# Oracle 1: bounded enumeration
# ---------------------------------------------------------------------------


def bounded_search(
    case: FuzzCase,
    bounds: Bounds = Bounds(),
    formula: sx.Formula | None = None,
) -> BoundedVerdict:
    """Search for a witness within bounds; cross-check sampled documents.

    Returns as soon as a witness turns up (a conclusive SAT answer).  When
    ``formula`` is given — the *unpruned* Lµ reduction of the case — every
    ``semantic_samples``-th document is additionally interpreted against it:
    the formula's models restricted to the document must coincide with the
    denotational answer set (Proposition 5.1 composed with the Section 5.2
    type translation).  Mismatches are reported, never raised.
    """
    dtd = case.dtd()
    labels, attribute_sets = problem_alphabets(case, dtd)
    constraints = None
    if dtd is not None:
        from repro.analysis.problems import relevant_attributes

        alphabet = relevant_attributes(*case.exprs)
        constraints = attribute_constraints(dtd, alphabet) if alphabet else None

    stride = max(1, bounds.max_documents // max(1, bounds.semantic_samples))
    checked = 0
    semantic_checks = 0
    mismatches: list[str] = []
    exhausted = True
    for base in enumerate_trees(labels, attribute_sets, bounds):
        for path, _node in sorted(base.iter_paths()):
            if checked >= bounds.max_documents:
                exhausted = False
                break
            document = base.mark_at(path)
            checked += 1
            focus = focus_at(document, path)
            answers = (
                selected_nodes(case, document)
                if type_holds_at(dtd, focus, constraints)
                else frozenset()
            )
            if formula is not None and (
                checked % stride == 0 or (answers and not mismatches)
            ):
                semantic_checks += 1
                mismatch = _semantic_mismatch(
                    formula, document, answers, dtd, focus, constraints, case
                )
                if mismatch is not None:
                    mismatches.append(mismatch)
            if answers:
                return BoundedVerdict(
                    witness_found=True,
                    witness=document,
                    documents_checked=checked,
                    exhausted=False,
                    semantic_checks=semantic_checks,
                    semantic_mismatches=mismatches,
                )
        else:
            continue
        break
    return BoundedVerdict(
        witness_found=False,
        witness=None,
        documents_checked=checked,
        exhausted=exhausted,
        semantic_checks=semantic_checks,
        semantic_mismatches=mismatches,
    )


def _semantic_mismatch(
    formula: sx.Formula,
    document: Tree,
    expected: frozenset[FocusedTree],
    dtd: DTD | None,
    focus: FocusedTree,
    constraints: dict[str, sx.Formula] | None,
    case: FuzzCase,
) -> str | None:
    """Compare the formula's models on one document with the expectation."""
    universe = frozenset(all_focuses(document))
    satisfied = interpret(formula, universe)
    if satisfied == expected:
        return None
    gained = {f.name for f in satisfied - expected}
    lost = {f.name for f in expected - satisfied}
    return (
        f"formula models disagree with denotational semantics on "
        f"{document} for {case.describe()}: formula-only foci at "
        f"{sorted(gained)}, semantics-only at {sorted(lost)}"
    )


# ---------------------------------------------------------------------------
# Oracle 2: the explicit psi-type algorithm
# ---------------------------------------------------------------------------


def explicit_verdict(
    formula: sx.Formula, bounds: Bounds = Bounds()
) -> tuple[bool | None, int]:
    """The ψ-type algorithm's verdict, or ``None`` when it would be too big.

    Returns ``(satisfiable, estimated_types)``; the estimate is reported
    either way so campaigns can tell how often this oracle engaged.
    """
    solver = ExplicitSolver(formula)
    estimated = estimate_psi_types(solver)
    if estimated > bounds.explicit_types:
        return None, estimated
    try:
        result = solver.solve()
    except SolverLimitError:  # pragma: no cover - estimate should prevent this
        return None, estimated
    return result.satisfiable, estimated


# ---------------------------------------------------------------------------
# Oracle 3: witness replay
# ---------------------------------------------------------------------------


def replay_witness(
    case: FuzzCase,
    witness: Tree | tuple[Tree, ...],
    dtd: DTD | None = None,
) -> list[str]:
    """Validate a satisfiable verdict's model; returns the problems found.

    ``witness`` is the model document, or the solver's top-level forest.
    The solver decides single-rooted documents, so a forest of several
    trees is itself a finding and is reported as one.

    An empty list means the witness genuinely witnesses the verdict: it is
    a single document carrying exactly one start mark, the denotational
    answer set of the problem on it is non-empty, and — for typed problems
    — the marked subtree validates against the DTD (structure and
    attributes, modulo the problem's attribute alphabet) with no following
    sibling at the mark.

    Witnesses containing the wildcard label (a pruned model whose collapsed
    elements could not be lifted back) skip the membership check; the
    selection checks still run.
    """
    from repro.analysis.problems import relevant_attributes

    forest = (witness,) if isinstance(witness, Tree) else tuple(witness)
    if len(forest) != 1:
        return [
            f"witness is a forest of {len(forest)} top-level trees; a "
            "document has exactly one root"
        ]
    document = forest[0]
    problems: list[str] = []
    marks = document.mark_count()
    if marks != 1:
        return [f"witness carries {marks} start marks (expected exactly 1)"]
    if not selected_nodes(case, document):
        problems.append(
            f"witness {document} does not satisfy {case.describe()} under the "
            "denotational semantics"
        )
    dtd = dtd if dtd is not None else case.dtd()
    if dtd is None:
        return problems
    focus = focus_at(document, document.find_mark())
    if focus.follow(2) is not None:
        problems.append("marked node has a following sibling (type anchors forbid it)")
    subtree = focus.tree.unmark_all()
    if WILDCARD_LABEL in subtree.labels():
        return problems  # unlifted pruned model: membership not decidable here
    if not dtd_accepts(dtd, subtree):
        problems.append(f"marked subtree {subtree} does not validate against the DTD")
    alphabet = relevant_attributes(*case.exprs)
    violations = dtd_attribute_violations(dtd, subtree, alphabet)
    problems.extend(
        f"attribute violation in witness: {violation}" for violation in violations
    )
    return problems
