"""The symbolic (BDD-based) satisfiability solver of Section 7.

The solver tests the "plunging" formula ``µX. ψ ∨ ⟨1⟩X ∨ ⟨2⟩X`` at the root of
focused trees: ψ is satisfiable exactly when some root type — a ψ-type with no
pending backward modality and no ⟨2⟩ successor, below which the start mark
occurs exactly once — satisfies the plunging formula.  Models are therefore
single-rooted documents.  This removes the need to keep witness sets:
at every iteration the solver only maintains the *set of types proved so far*,
represented as a BDD over the Lean bit-vector.

Two sets are maintained so that the start mark occurs exactly once in the
proved trees, mirroring the four cases of ``Upd`` in Figure 16:

* ``U`` — types of trees containing **no** mark,
* ``M`` — types of trees containing **exactly one** mark (either at the root
  of the subtree, or in exactly one of its branches).

Each iteration adds to ``U`` the mark-free types whose required children have
witnesses in ``U``, and to ``M`` the types marked at the node (children in
``U``) or marked through exactly one branch (that branch's witness in ``M``,
the other in ``U``).  The algorithm stops as soon as the final check succeeds
(early termination on satisfiable formulas, one of the key practical
advantages discussed in Section 9) or when both sets are stable.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.bdd.manager import BDD
from repro.logic import syntax as sx
from repro.logic.closure import Lean, lean as compute_lean
from repro.solver.governor import Budget, governor_for
from repro.solver.models import reconstruct_counterexample
from repro.solver.relations import LeanEncoding, TransitionRelation
from repro.trees.binary import BinTree
from repro.trees.unranked import Tree
from repro.trees.binary import binary_forest_to_unranked


@dataclass
class SolverStatistics:
    """Measurements collected during one solver run.

    Fields:

    * ``lean_size`` — number of formulas in the Lean of the plunged formula;
      the BDD manager works over twice this many variables (the unprimed
      ``~x`` and primed ``~y`` vectors).  Lemma 6.7 bounds the running time
      by ``2^O(lean_size)``.
    * ``iterations`` — fixpoint iterations performed before the final check
      succeeded (early termination, Section 9) or the sets became stable.
    * ``relation_partitions`` — conjuncts across the two partitioned ``∆ₐ``
      relations (Section 7.3); 0 partitions means a trivial relation.
    * ``partitions_skipped`` — relation partitions never conjoined because
      the cone-of-influence check proved they could not affect a product
      (vacuous components disjoint from the product's target, and every
      partition of a product against the empty set).
    * ``product_calls`` — relational products computed by the two
      :class:`repro.solver.relations.TransitionRelation` objects.
    * ``bdd_node_count`` / ``bdd_peak_node_count`` — live and peak nodes of
      the solver's BDD manager at the end of the run.
    * ``bdd_ite_calls`` / ``bdd_ite_cache_hits`` — ``∧``/``∨`` kernel
      frames the manager ran and computed-table hits among them (the names
      are the classical ITE frames each stands for; see
      :class:`repro.bdd.manager.BDDStatistics`).
    * ``translation_seconds`` — time to build the Lean encoding, the ``∆ₐ``
      partitions with their elimination schedule, and the root filter.
    * ``solve_seconds`` — time spent in the fixpoint loop itself (the "time"
      column of Table 2).
    """

    lean_size: int = 0
    iterations: int = 0
    relation_partitions: int = 0
    partitions_skipped: int = 0
    product_calls: int = 0
    bdd_node_count: int = 0
    bdd_peak_node_count: int = 0
    bdd_ite_calls: int = 0
    bdd_ite_cache_hits: int = 0
    translation_seconds: float = 0.0
    solve_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "lean_size": self.lean_size,
            "iterations": self.iterations,
            "relation_partitions": self.relation_partitions,
            "partitions_skipped": self.partitions_skipped,
            "product_calls": self.product_calls,
            "bdd_node_count": self.bdd_node_count,
            "bdd_peak_node_count": self.bdd_peak_node_count,
            "bdd_ite_calls": self.bdd_ite_calls,
            "bdd_ite_cache_hits": self.bdd_ite_cache_hits,
            "translation_seconds": round(self.translation_seconds, 6),
            "solve_seconds": round(self.solve_seconds, 6),
        }


@dataclass
class SolverResult:
    """Outcome of a satisfiability test."""

    satisfiable: bool
    model: BinTree | None
    statistics: SolverStatistics
    lean: Lean

    @property
    def unsatisfiable(self) -> bool:
        return not self.satisfiable

    def model_document(self) -> Tree | None:
        """The satisfying model: one document, one root, one start mark."""
        forest = self.model_forest()
        if forest is None:
            return None
        return forest[0]

    def model_forest(self) -> tuple[Tree, ...] | None:
        """The satisfying model decoded as an unranked forest (of one tree)."""
        if self.model is None:
            return None
        return binary_forest_to_unranked(self.model)


@dataclass
class SymbolicSolver:
    """BDD-based decision procedure for cycle-free closed Lµ formulas.

    The algorithm is only correct for cycle-free formulas; the translations
    of Section 8 produce nothing else, and
    :func:`repro.logic.cyclefree.assert_cycle_free` checks an arbitrary one.
    Every run uses the same implementation choices: partitioned ``∆ₐ``
    relations with early quantification (Section 7.3), the ``x``-above-``y``
    variable order of :class:`repro.solver.relations.LeanEncoding`, and the
    two mark-tracking sets of Figure 16.

    ``budget`` is an optional :class:`repro.solver.governor.Budget` bounding
    the run (wall-clock deadline, BDD kernel steps, fixpoint iterations, Lean
    size).  Exhaustion raises :class:`repro.core.errors.BudgetExceeded` with
    a structured reason; the governor is polled once per fixpoint iteration
    and — via the BDD manager's kernel ticks — every ~1024 expanded kernel
    frames, so
    a deadline bites within milliseconds even inside one enormous iteration.
    The budget is the only bound on the number of iterations: without one
    the loop runs until the sets are stable, which always happens (they grow
    monotonically in a finite lattice).
    """

    formula: sx.Formula
    budget: Budget | None = None

    _lean: Lean = field(init=False, repr=False)
    _plunged: sx.Formula = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._plunged = sx.mu1(
            lambda x: self.formula | sx.dia(1, x) | sx.dia(2, x), prefix="Plunge"
        )
        self._lean = compute_lean(self._plunged)

    @property
    def lean(self) -> Lean:
        return self._lean

    # -- main loop --------------------------------------------------------------------

    def solve(self) -> SolverResult:
        statistics = SolverStatistics(lean_size=len(self._lean))
        # Resource governance (all checkpoints are cooperative): refuse
        # over-budget Leans before any BDD exists, then let the manager's
        # kernel ticks and the per-iteration poll below enforce the deadline
        # and step budget.  The governor's clock starts here, so translation
        # time counts against the deadline too.
        governor = governor_for(self.budget)
        if governor is not None:
            governor.check_lean(len(self._lean))
        start_translation = time.perf_counter()

        encoding = LeanEncoding(self._lean)
        if governor is not None:
            encoding.manager.set_governor(governor)
        relations = {program: TransitionRelation(encoding, program) for program in (1, 2)}
        statistics.relation_partitions = sum(
            len(relation.partitions) for relation in relations.values()
        )

        types = encoding.types_constraint()
        start_literal = encoding.start()
        final_filter = encoding.root_filter(self._plunged)

        statistics.translation_seconds = time.perf_counter() - start_translation
        start_solve = time.perf_counter()

        unmarked = marked = encoding.manager.false()
        snapshots: list[tuple[BDD, BDD]] = []
        satisfiable = False
        model: BinTree | None = None
        iterates = upd_iterates(relations, types, start_literal)

        for iteration in itertools.count(1):
            statistics.iterations = iteration
            if governor is not None:
                governor.check_iteration(iteration)
            new_unmarked, new_marked = next(iterates)
            # The update operator is monotone and the iteration starts from
            # ⊥, so the proved sets only grow: ``new_unmarked``/``new_marked``
            # already contain the previous sets and *are* the next sets (no
            # union needed).
            changed = new_unmarked != unmarked or new_marked != marked
            unmarked, marked = new_unmarked, new_marked
            snapshots.append((unmarked, marked))

            success = marked & final_filter
            if not success.is_false:
                satisfiable = True
                model = reconstruct_counterexample(
                    encoding, relations, snapshots, success
                )
                break
            if not changed:
                break

        statistics.solve_seconds = time.perf_counter() - start_solve
        statistics.product_calls = sum(r.product_calls for r in relations.values())
        statistics.partitions_skipped = sum(
            r.partitions_skipped for r in relations.values()
        )
        manager_stats = encoding.manager.statistics()
        statistics.bdd_node_count = manager_stats.node_count
        statistics.bdd_peak_node_count = manager_stats.peak_node_count
        statistics.bdd_ite_calls = manager_stats.ite_calls
        statistics.bdd_ite_cache_hits = manager_stats.ite_cache_hits
        return SolverResult(
            satisfiable=satisfiable,
            model=model,
            statistics=statistics,
            lean=self._lean,
        )


def upd_iterates(
    relations: dict[int, TransitionRelation], types: BDD, start_literal: BDD
) -> Iterator[tuple[BDD, BDD]]:
    """The iterates ``(U, M)`` of Figure 16's ``Upd`` from ``(⊥, ⊥)``.

    ``types`` is χ_Types and ``start_literal`` the start mark, both over the
    unprimed vector of the relations' encoding.  Each ``next`` runs one
    iteration; the caller decides when to stop (success or stable sets).

    Witness BDDs are recomputed only when the set they depend on actually
    changed in the previous iteration, which removes the redundant
    relational products the naive loop performs once one of the two sets
    has stabilised.  Every recomputation is a full product through the
    early-quantification schedule, whose persistent per-step memos make it
    incremental in practice: only the region of the set that changed does
    new work.

    Every case of ``Upd`` lies inside χ_Types, and a witness set is huge
    outside it, so each one is conjoined with χ_Types before it meets
    another witness set: ``typed_first = χ ∧ W₁(U)`` and ``typed_both =
    typed_first ∧ W₂(U)`` are built once per change of U and shared by U and
    the marked cases, and nothing conjoins χ_Types afterwards.
    """
    unmarked = marked = types.manager.false()
    not_start = ~start_literal
    types_unmarked = types & not_start
    unmarked_node_seen: int | None = None
    marked_node_seen: int | None = None
    while True:
        if unmarked.node != unmarked_node_seen:
            witness_unmarked = {
                program: relations[program].witness(unmarked) for program in (1, 2)
            }
            typed_first = types & witness_unmarked[1]
            typed_both = typed_first & witness_unmarked[2]
            typed_first_unmarked = typed_first & not_start
            unmarked_node_seen = unmarked.node
        if marked.node != marked_node_seen:
            strict_marked = {
                program: relations[program].witness_strict(marked) for program in (1, 2)
            }
            typed_strict_first = types_unmarked & strict_marked[1]
            marked_node_seen = marked.node
        # U: no mark below.  M: marked here with both children in U, or
        # marked through exactly one branch (M there, U in the other).
        unmarked = typed_both & not_start
        marked_here = typed_both & start_literal
        marked_first = typed_strict_first & witness_unmarked[2]
        marked_second = typed_first_unmarked & strict_marked[2]
        marked = marked_here | marked_first | marked_second
        yield unmarked, marked
