"""Tests of the satisfiability solvers (Sections 6 and 7).

The central properties checked here:

* soundness — when the solver reports "satisfiable" it produces a model, and
  the model really satisfies the formula according to the declarative
  semantics of Figure 2;
* completeness — formulas known to be satisfiable (because a concrete document
  satisfies them) are reported satisfiable;
* agreement between the explicit solver (Figure 16) and the symbolic BDD
  solver (Section 7);
* the mark-tracking update keeps exactly one start mark in every model.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import syntax as sx
from repro.logic.negation import negate
from repro.logic.semantics import interpret
from repro.solver.explicit import ExplicitSolver
from repro.solver.symbolic import SymbolicSolver
from repro.solver.truth import psi_types, status_on_set
from repro.logic.closure import lean as compute_lean
from repro.trees.binary import binary_forest_to_unranked
from repro.trees.focus import all_focuses
from repro.trees.unranked import parse_tree


def model_satisfies(result, formula) -> bool:
    """Check a solver model against the declarative semantics: one
    document, one start mark, and the formula holds at some node."""
    forest = result.model_forest()
    assert forest is not None
    (document,) = forest
    assert document.mark_count() == 1
    return bool(interpret(formula, frozenset(all_focuses(document))))


# -- truth assignment ------------------------------------------------------------------


def test_status_of_lean_atoms():
    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    lean = compute_lean(formula)
    members = frozenset({sx.prop("a"), sx.dia(1, sx.prop("b")), sx.dia(1, sx.TRUE)})
    assert status_on_set(formula, members)
    assert not status_on_set(sx.prop("b"), members)
    assert status_on_set(sx.nprop("b"), members)
    assert status_on_set(sx.no_dia(2), members)
    assert not status_on_set(sx.NSTART, members) is False  # ¬s holds: no mark
    assert len(lean) >= 7


def test_status_unfolds_fixpoints():
    formula = sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x))
    members_direct = frozenset({sx.prop("a")})
    assert status_on_set(formula, members_direct)
    members_modal = frozenset({sx.dia(1, sx.TRUE), sx.dia(1, formula), sx.prop("b")})
    assert status_on_set(formula, members_modal)
    assert not status_on_set(formula, frozenset({sx.prop("b")}))


@pytest.mark.parametrize(
    "formula",
    [
        sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b"))),
        sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x)) & sx.dia(-1, sx.NSTART),
        sx.attr("href") & sx.dia(2, sx.nattr("alt") | sx.dia(-2, sx.prop("a"))),
        sx.attr(sx.ANY_ATTRIBUTE) & sx.dia(1, sx.nattr(sx.ANY_ATTRIBUTE) & sx.START),
    ],
    ids=["modal", "fixpoint", "attributes", "any-attribute"],
)
def test_status_bdd_evaluates_to_the_truth_assignment(formula):
    """Reconstruction reads a parent's ⟨ā⟩ bits off the status BDDs: at the
    bits of every ψ-type, each body's status evaluates to Figure 15's
    ``status_on_set``."""
    from repro.solver.relations import LeanEncoding

    lean = compute_lean(formula)
    encoding = LeanEncoding(lean)
    bodies = [sub for _program, sub, _index in lean.modal_items()] + [formula]
    checked = 0
    for assignment in psi_types(lean):
        bits = dict(zip(encoding.x_names, assignment.bits()))
        for sub in bodies:
            status = encoding.status(sub).evaluate(bits)
            assert status == status_on_set(sub, assignment.members), (sub, assignment)
            checked += 1
    assert checked > 0


def test_psi_types_satisfy_constraints():
    lean = compute_lean(sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b"))))
    types = list(psi_types(lean))
    assert types
    for assignment in types:
        assert sum(1 for item in assignment.members if item.kind == sx.KIND_PROP) == 1
        assert not (
            assignment.has_parent_program(-1) and assignment.has_parent_program(-2)
        )


# -- symbolic solver: satisfiable cases ---------------------------------------------------


SATISFIABLE = [
    sx.prop("a") & sx.START,
    sx.prop("a") & sx.dia(1, sx.prop("b")) & sx.START,
    sx.dia(1, sx.dia(2, sx.prop("c"))) & sx.no_dia(-1) & sx.START,
    sx.mu1(lambda x: sx.prop("b") | sx.dia(1, x)) & sx.START,
    sx.dia(-1, sx.prop("a") & sx.START),
    sx.NSTART & sx.dia(1, sx.START),
]


@pytest.mark.parametrize("formula", SATISFIABLE)
def test_symbolic_satisfiable_with_verified_model(formula):
    result = SymbolicSolver(formula).solve()
    assert result.satisfiable
    assert model_satisfies(result, formula)


UNSATISFIABLE = [
    sx.FALSE,
    sx.prop("a") & sx.nprop("a"),
    sx.prop("a") & sx.prop("b"),
    sx.dia(1, sx.TRUE) & sx.no_dia(1),
    sx.dia(-1, sx.TRUE) & sx.dia(-2, sx.TRUE),
    sx.START & sx.NSTART,
    sx.START & sx.dia(1, sx.START),       # two marks are impossible
    sx.mu1(lambda x: sx.dia(1, x)),       # no base case: empty least fixpoint
]


@pytest.mark.parametrize("formula", UNSATISFIABLE)
def test_symbolic_unsatisfiable(formula):
    result = SymbolicSolver(formula).solve()
    assert not result.satisfiable
    assert result.model is None


def test_symbolic_statistics_are_populated():
    result = SymbolicSolver(SATISFIABLE[1]).solve()
    stats = result.statistics.as_dict()
    assert stats["lean_size"] > 0 and stats["iterations"] >= 1
    assert stats["solve_seconds"] >= 0.0


def test_mark_tracking_rejects_double_mark_requirement():
    # ⟨1⟩(s ∧ ⟨2⟩s): two distinct nodes would have to carry the mark.  A
    # solver treating the mark as an ordinary proposition answers
    # satisfiable here; the four-case update of Figure 16 prevents it.
    formula = sx.dia(1, sx.START & sx.dia(2, sx.START))
    assert not SymbolicSolver(formula).solve().satisfiable


# -- explicit solver and agreement ---------------------------------------------------------


SMALL_FORMULAS = [
    sx.prop("a") & sx.START,
    sx.prop("a") & sx.nprop("a"),
    sx.dia(1, sx.prop("b")) & sx.START,
    sx.dia(1, sx.TRUE) & sx.no_dia(1),
    sx.dia(-1, sx.START),
    sx.START & sx.dia(2, sx.TRUE),
]


@pytest.mark.parametrize("formula", SMALL_FORMULAS)
def test_explicit_and_symbolic_agree(formula):
    explicit = ExplicitSolver(formula).solve()
    symbolic = SymbolicSolver(formula).solve()
    assert explicit.satisfiable == symbolic.satisfiable
    if explicit.satisfiable:
        (document,) = binary_forest_to_unranked(explicit.model)
        assert document.mark_count() == 1


#: The marked node has no parent and no previous sibling: it is a root.
LONE_ROOT = sx.START & sx.no_dia(-1) & sx.no_dia(-2)
#: Satisfiable only over hedges: a root with a following sibling.  A
#: document has one root, so both solvers must refute it.
HEDGE_ONLY = LONE_ROOT & sx.dia(2, sx.TRUE)


def test_explicit_and_symbolic_agree_on_a_hedge_only_formula():
    for solver in (ExplicitSolver, SymbolicSolver):
        assert not solver(HEDGE_ONLY).solve().satisfiable, solver.__name__
        assert solver(LONE_ROOT).solve().satisfiable, solver.__name__


def test_explicit_solver_reports_statistics():
    result = ExplicitSolver(sx.prop("a") & sx.START).solve()
    assert result.type_count > 0 and result.iterations >= 1


# -- satisfiability is consistent with negation (small property) ----------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(
        [
            sx.prop("a"),
            sx.dia(1, sx.prop("b")),
            sx.no_dia(-1),
            sx.dia(2, sx.TRUE),
            sx.prop("a") & sx.dia(1, sx.prop("a")),
        ]
    )
)
def test_formula_or_negation_is_satisfiable(formula):
    anchored = formula & sx.START
    negated = negate(formula) & sx.START
    sat_positive = SymbolicSolver(anchored).solve().satisfiable
    sat_negative = SymbolicSolver(negated).solve().satisfiable
    assert sat_positive or sat_negative


# -- iteration budget, garbage collection, determinism --------------------------------------


def _containment_formula(depth: int) -> sx.Formula:
    """The depth-N nested containment formula of the scaling benchmark."""
    from repro.xpath.compile import compile_xpath

    steps = ["a1"] + [f"a{i}[b{i}]" for i in range(2, depth + 1)]
    query = "/".join(steps)
    return sx.mk_and(
        compile_xpath(query), negate(compile_xpath(query.replace("[b2]", "")))
    )


def test_iteration_budget_reports_unknown_instead_of_unsat():
    """A fixpoint cut short must never read as "unsatisfiable": the budget
    is the one iteration bound, and it raises a structured reason."""
    from repro.core.errors import BudgetExceeded
    from repro.solver.governor import Budget

    formula = sx.prop("a") & sx.dia(1, sx.prop("b") & sx.dia(1, sx.prop("c")))
    unbounded = SymbolicSolver(formula).solve()
    assert unbounded.satisfiable
    assert unbounded.statistics.iterations == 3
    with pytest.raises(BudgetExceeded) as excinfo:
        SymbolicSolver(formula, budget=Budget(max_iterations=2)).solve()
    assert excinfo.value.reason == "iterations"
    assert SymbolicSolver(formula, budget=Budget(max_iterations=3)).solve().satisfiable


def test_partitions_skipped_counts_empty_set_products():
    result = SymbolicSolver(_containment_formula(2)).solve()
    # Iteration 1 runs every product against the empty set: each partition
    # of each relation is skipped at least once over the run.
    assert result.statistics.partitions_skipped >= result.statistics.relation_partitions


@pytest.mark.parametrize(
    "formula",
    [
        sx.prop("a") & sx.dia(1, sx.prop("b") & sx.dia(2, sx.prop("c"))),
        _containment_formula(2),
    ],
)
def test_partitioned_product_equals_the_monolithic_one(formula):
    """Early quantification leaves no primed variable behind: the scheduled
    product equals ∃y over the frontier and every partition conjoined."""
    from repro.solver.relations import LeanEncoding, TransitionRelation

    encoding = LeanEncoding(SymbolicSolver(formula).lean)
    types = encoding.types_constraint()
    for program in (1, 2):
        relation = TransitionRelation(encoding, program)
        monolithic = encoding.manager.true()
        for partition in relation.partitions:
            monolithic = monolithic & partition.function
        mentioned = set().union(*(p.primed_support for p in relation.partitions))
        free = [i for i, name in enumerate(encoding.y_names) if name not in mentioned]
        bound = [i for i, name in enumerate(encoding.y_names) if name in mentioned]
        assert free and bound
        # A frontier mentioning a primed variable that no partition mentions,
        # tied to one that some partition does.
        tied = encoding.x(free[0]).iff(encoding.x(bound[-1]))
        targets = (types, types & encoding.start(), types & ~encoding.start(), tied)
        primed_child = encoding.ischild(program).rename(encoding.x_to_y)
        for target in targets:
            frontier = target.rename(encoding.x_to_y) & primed_child
            expected = (frontier & monolithic).exists(encoding.y_names)
            witness = relation.witness(target)
            assert set(witness.support()) <= set(encoding.x_names)
            assert witness == encoding.isparent(program).implies(expected)


def _reference_iterates(relations, types, start_literal):
    """The ``Upd`` iterates in Figure 16's plain association, the reference
    for :func:`upd_iterates`: the two witness sets meet first and χ_Types
    is conjoined last."""
    unmarked = marked = types.manager.false()
    while True:
        witness_unmarked = {p: relations[p].witness(unmarked) for p in (1, 2)}
        strict_marked = {p: relations[p].witness_strict(marked) for p in (1, 2)}
        both_witnessed = witness_unmarked[1] & witness_unmarked[2]
        unmarked = types & ~start_literal & both_witnessed
        marked_here = start_literal & both_witnessed
        marked_first = ~start_literal & strict_marked[1] & witness_unmarked[2]
        marked_second = ~start_literal & witness_unmarked[1] & strict_marked[2]
        marked = types & (marked_here | marked_first | marked_second)
        yield unmarked, marked


def _figure18_formula():
    from repro.api import Query, StaticAnalyzer

    query = Query.containment("child::c/preceding-sibling::a[child::b]", "child::c[child::b]")
    return StaticAnalyzer()._reduce(query)[0]


def _xhtml_core_formula():
    from repro.api import Query, StaticAnalyzer

    query = Query.containment(".//img", ".//img[@alt]", "xhtml-core")
    return StaticAnalyzer()._reduce(query)[0]


@pytest.mark.parametrize(
    "make_formula",
    [
        *(lambda depth=depth: _containment_formula(depth) for depth in range(1, 6)),
        _figure18_formula,
        _xhtml_core_formula,
        lambda: sx.START & sx.dia(1, sx.START),
        lambda: sx.NSTART & sx.dia(1, sx.START),
    ],
    ids=[
        *(f"scaling-{depth}" for depth in range(1, 6)),
        "figure-18",
        "xhtml-core",
        "two-marks",
        "mark-below",
    ],
)
def test_upd_iterates_match_the_reference_association(make_formula):
    """Conjoining inside χ_Types first computes the same sets: on one
    encoding and one pair of relations, U and M are the same node as the
    reference's at every iteration, up to the iteration at which the solver
    stops."""
    from repro.solver.relations import LeanEncoding, TransitionRelation
    from repro.solver.symbolic import upd_iterates

    solver = SymbolicSolver(make_formula())
    expected = solver.solve()
    encoding = LeanEncoding(solver.lean)
    relations = {p: TransitionRelation(encoding, p) for p in (1, 2)}
    types = encoding.types_constraint()
    start_literal = encoding.start()
    final_filter = encoding.root_filter(solver._plunged)
    previous = None
    iterations = 0
    for actual, reference in zip(
        upd_iterates(relations, types, start_literal),
        _reference_iterates(relations, types, start_literal),
    ):
        iterations += 1
        assert [s.node for s in actual] == [s.node for s in reference], iterations
        _unmarked, marked = actual
        if not (marked & final_filter).is_false or actual == previous:
            break
        previous = actual
    assert iterations == expected.statistics.iterations
    assert expected.satisfiable == (not (marked & final_filter).is_false)


def test_solver_counters_are_deterministic_across_runs():
    """Byte-identical counters let CI guard performance without wall-clock."""
    formula = _containment_formula(3)

    def counters():
        stats = SymbolicSolver(formula).solve().statistics.as_dict()
        stats.pop("translation_seconds")
        stats.pop("solve_seconds")
        return stats

    first = counters()
    second = counters()
    assert first == second
    for key in ("iterations", "product_calls", "partitions_skipped",
                "bdd_ite_calls"):
        assert first[key] == second[key], key
