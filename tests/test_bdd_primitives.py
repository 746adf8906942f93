"""Tests for the BDD engine's caches and statistics."""

import pytest

from repro.bdd.manager import BDDManager

NAMES = ["a", "b", "c", "d"]


@pytest.fixture
def manager():
    return BDDManager(NAMES)


def test_ite_computed_table_hits(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    manager.ite(a, b, manager.FALSE)
    before = manager.statistics().ite_cache_hits
    manager.ite(a, b, manager.FALSE)
    after = manager.statistics().ite_cache_hits
    assert after > before


def test_ite_cache_key_is_canonical_for_commutative_shapes(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    # Warm the cache with a ∧ b, then issue b ∧ a: the canonical computed
    # table must answer the swapped call without recomputation.
    manager.conj(a, b)
    before = manager.statistics().ite_cache_hits
    assert manager.conj(b, a) == manager.conj(a, b)
    assert manager.statistics().ite_cache_hits > before
    # Same for disjunction.
    manager.disj(a, b)
    before = manager.statistics().ite_cache_hits
    manager.disj(b, a)
    assert manager.statistics().ite_cache_hits > before


def test_ite_handles_deep_chains_iteratively(manager):
    # One ITE whose expansion descends through 3000 alternating levels would
    # break a naively recursive ITE (default recursion limit: 1000); the
    # iterative engine must not care.  The two operand chains are built
    # bottom-up so each construction step is O(1).
    depth = 3000
    deep = BDDManager([f"v{i}" for i in range(depth)])
    evens = deep.TRUE
    odds = deep.TRUE
    for i in reversed(range(depth)):
        node = deep.var_node(f"v{i}")
        if i % 2 == 0:
            evens = deep.ite(node, evens, deep.FALSE)
        else:
            odds = deep.ite(node, odds, deep.FALSE)
    result = deep.conj(evens, odds)
    assert deep.dag_size(result) == depth
    assert deep.dag_size(deep.neg(result)) == depth


def test_negation_cache_is_two_way(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    function = manager.conj(a, b)
    negated = manager.neg(function)
    before = manager.statistics().neg_cache_hits
    # Double negation is answered from the cache, in both directions.
    assert manager.neg(negated) == function
    assert manager.neg(function) == negated
    assert manager.statistics().neg_cache_hits >= before + 2


def test_restrict_cofactors(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    function = manager.ite(a, b, manager.FALSE)
    assert manager.restrict(function, {"a": True}) == b
    assert manager.restrict(function, {"a": False}) == manager.FALSE
    assert manager.restrict(function, {"a": True, "b": True}) == manager.TRUE
    assert manager.cofactor(function, "a", True) == b
    # Restriction over variables outside the support is the identity.
    assert manager.restrict(function, {"d": True}) == function


def test_restrict_results_are_memoised(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    function = manager.conj(a, b)
    first = manager.restrict(function, {"a": True})
    entries = manager.statistics().cache_entries
    assert manager.restrict(function, {"a": True}) == first
    assert manager.statistics().cache_entries == entries


def test_node_count_statistics(manager):
    stats = manager.statistics()
    assert stats.var_count == 4
    assert stats.node_count == 0
    a = manager.var_node("a")
    b = manager.var_node("b")
    manager.conj(a, b)
    stats = manager.statistics()
    assert stats.node_count == 3  # a, b and the conjunction node
    assert stats.peak_node_count == stats.node_count
    assert stats.ite_calls > 0
    payload = stats.as_dict()
    assert payload["node_count"] == 3
    assert set(payload) >= {"ite_calls", "ite_cache_hits", "neg_calls"}


def test_child_constraint_parts_mention_only_unprimed_variables():
    # Model reconstruction conjoins these parts into the solver's sets, which
    # are BDDs over x only; that is why the placement of the y vector in the
    # variable order cannot move a witness.
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.relations import LeanEncoding, TransitionRelation

    formula = sx.prop("a") & sx.dia(1, sx.prop("b")) & sx.START
    encoding = LeanEncoding(compute_lean(formula))
    relation = TransitionRelation(encoding, 1)
    # A parent claiming ⟨1⟩⊤ and ⟨1⟩b (all other bits clear).
    bits = {
        encoding.top_index(1): True,
        encoding.lean.position(sx.dia(1, sx.prop("b"))): True,
    }
    conjunction = encoding.manager.true()
    for part in relation.child_constraint_parts(bits):
        assert set(part.support()) <= set(encoding.x_names)
        conjunction = conjunction & part
    assert not conjunction.is_false


def test_rename_fast_path_used_for_order_preserving_maps():
    manager = BDDManager(["x0", "y0", "x1", "y1"])
    x0 = manager.var_node("x0")
    x1 = manager.var_node("x1")
    function = manager.conj(x0, x1)
    before = manager.statistics().rename_fast_paths
    renamed = manager.rename(function, {"x0": "y0", "x1": "y1"})
    assert manager.statistics().rename_fast_paths == before + 1
    assert manager.support(renamed) == {"y0", "y1"}
    assert manager.evaluate(renamed, {"y0": True, "y1": True})


def test_rename_general_path_for_order_swapping_maps():
    manager = BDDManager(["x0", "x1"])
    x0 = manager.var_node("x0")
    x1 = manager.var_node("x1")
    function = manager.disj(x0, manager.neg(x1))  # x0 ∨ ¬x1 (asymmetric)
    before = manager.statistics().rename_fast_paths
    swapped = manager.rename(function, {"x0": "x1", "x1": "x0"})
    assert manager.statistics().rename_fast_paths == before
    for vx0 in (False, True):
        for vx1 in (False, True):
            # The renamed function is x1 ∨ ¬x0.
            assert manager.evaluate(swapped, {"x0": vx0, "x1": vx1}) == (vx1 or not vx0)
