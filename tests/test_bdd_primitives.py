"""Tests for the BDD engine's caches and statistics."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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


def _alternating_chain(manager, names):
    """``n0 ∧ ¬n1 ∧ n2 ∧ ¬n3 ∧ …``, built bottom-up in O(1) per level."""
    chain = manager.TRUE
    for i in reversed(range(len(names))):
        node = manager.var_node(names[i])
        if i % 2 == 0:
            chain = manager.ite(node, chain, manager.FALSE)
        else:
            chain = manager.ite(node, manager.FALSE, chain)
    return chain


def test_disjunction_handles_deep_chains_iteratively():
    depth = 3000
    names = [f"v{i}" for i in range(depth)]
    deep = BDDManager(names)
    evens = deep.conj_all(deep.var_node(name) for name in reversed(names[0::2]))
    odds = deep.conj_all(deep.var_node(name) for name in reversed(names[1::2]))
    result = deep.disj(evens, odds)
    everything = {name: True for name in names}
    assert deep.evaluate(result, everything)
    assert not deep.evaluate(result, {})
    assert deep.evaluate(result, {name: True for name in names[0::2]})
    assert deep.evaluate(result, {name: True for name in names[1::2]})
    assert not deep.evaluate(result, {**everything, "v4": False, "v2999": False})


def test_rename_swapping_adjacent_levels_of_a_deep_chain_is_iterative():
    depth = 3000
    names = [f"v{i}" for i in range(depth)]
    deep = BDDManager(names)
    chain = _alternating_chain(deep, names)
    swap = {}
    for i in range(0, depth, 2):
        swap[names[i]], swap[names[i + 1]] = names[i + 1], names[i]
    renamed = deep.rename(chain, swap)
    # The chain wanted n_{2k} and ¬n_{2k+1}; the renamed one the opposite.
    odd_only = {name: i % 2 == 1 for i, name in enumerate(names)}
    even_only = {name: i % 2 == 0 for i, name in enumerate(names)}
    assert deep.evaluate(renamed, odd_only)
    assert not deep.evaluate(renamed, even_only)
    assert not deep.evaluate(renamed, {**odd_only, "v1501": False})
    assert not deep.evaluate(renamed, {**odd_only, "v1500": True})
    assert deep.evaluate(chain, even_only)
    assert deep.rename(renamed, swap) == chain


def test_rename_of_disjoint_paths_is_built_without_ite():
    # ite(v0, v1, v2) with v1 <-> v2 is not order-preserving over the
    # support, but v1 and v2 never share a path, so every node is relabelled
    # in place.
    manager = BDDManager(["v0", "v1", "v2"])
    v0, v1, v2 = (manager.var_node(name) for name in ("v0", "v1", "v2"))
    function = manager.ite(v0, v1, v2)
    before = manager.statistics()
    renamed = manager.rename(function, {"v1": "v2", "v2": "v1"})
    after = manager.statistics()
    assert after.rename_fast_paths == before.rename_fast_paths + 1
    assert after.ite_calls == before.ite_calls
    for b0, b1, b2 in itertools.product((False, True), repeat=3):
        assignment = {"v0": b0, "v1": b1, "v2": b2}
        assert manager.evaluate(renamed, assignment) == (b2 if b0 else b1)


def test_conjunction_and_ite_share_one_computed_table(manager):
    a = manager.var_node("a")
    b = manager.var_node("b")
    conjunction = manager.conj(a, b)
    before = manager.statistics().ite_cache_hits
    assert manager.ite(a, b, manager.FALSE) == conjunction
    assert manager.statistics().ite_cache_hits == before + 1
    c = manager.var_node("c")
    disjunction = manager.ite(c, manager.TRUE, b)
    before = manager.statistics().ite_cache_hits
    assert manager.disj(b, c) == disjunction
    assert manager.statistics().ite_cache_hits == before + 1


class _CountingGovernor:
    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def test_governor_ticks_only_on_expanded_frames(manager):
    a, b, c = (manager.var_node(name) for name in ("a", "b", "c"))
    governor = _CountingGovernor()
    manager.set_governor(governor)
    function = manager.disj(manager.conj(a, b), c)
    assert governor.ticks > 0
    for operation in (
        lambda: manager.disj(manager.conj(a, b), c),
        lambda: manager.conj(function, manager.TRUE),
    ):
        governor.ticks = 0
        operation()
        assert governor.ticks == 0  # table hits and terminal cases only
    not_c = manager.neg(c)
    memo: dict = {}
    manager.and_exists(function, not_c, ["a"], memo)
    expanded = governor.ticks
    assert expanded > 0
    manager.and_exists(function, not_c, ["a"], memo)
    assert governor.ticks == expanded  # the step memo answers at once
    manager.exists(function, ["b"])
    expanded = governor.ticks
    manager.exists(function, ["b"])
    assert governor.ticks == expanded  # so does the ∃ memo


def test_quantification_after_adding_a_variable():
    # The per-level modes of a quantified level set cover the levels declared
    # when it was first used; a variable added later must not fall outside.
    manager = BDDManager(["a", "b"])
    a, b = manager.var_node("a"), manager.var_node("b")
    assert manager.exists(manager.conj(a, b), ["a"]) == b
    manager.add_variable("c")
    c = manager.var_node("c")
    function = manager.disj(manager.conj(a, c), manager.conj(manager.neg(a), b))
    assert manager.exists(function, ["a"]) == manager.disj(b, c)
    assert manager.and_exists(function, manager.neg(b), ["a"]) == manager.conj(
        manager.neg(b), c
    )


# -- rename with quantification, memoised support (random functions) ----------

RANDOM_NAMES = [f"v{i}" for i in range(8)]


@st.composite
def random_functions(draw):
    """A random truth table over a random subset of :data:`RANDOM_NAMES`."""
    names = draw(
        st.lists(st.sampled_from(RANDOM_NAMES), min_size=1, max_size=5, unique=True)
    )
    table = draw(st.integers(min_value=0, max_value=2 ** (2 ** len(names)) - 1))
    return names, table


def _build(manager, function):
    """The BDD of a truth table: bit ``i`` is the value at the assignment
    that sets ``names[j]`` to bit ``j`` of ``i``."""
    names, table = function

    def shannon(table, count):
        if count == 0:
            return manager.TRUE if table & 1 else manager.FALSE
        half = 1 << (count - 1)
        low = shannon(table & ((1 << half) - 1), count - 1)
        high = shannon(table >> half, count - 1)
        return manager.ite(manager.var_node(names[count - 1]), high, low)

    return shannon(table, len(names))


def _walked_support(manager, node):
    """The support by a plain walk of the DAG, with nothing memoised."""
    levels, seen, stack = set(), set(), [node]
    while stack:
        current = stack.pop()
        if current <= 1 or current in seen:
            continue
        seen.add(current)
        level, low, high = manager._nodes[current]
        levels.add(level)
        stack += [low, high]
    return {RANDOM_NAMES[level] for level in levels}


#: An order-preserving map (the solver's vector renames look like it) and a
#: map that swaps two levels.
RENAME_MAPS = {
    "order-preserving": {"v0": "v4", "v1": "v5", "v2": "v6", "v3": "v7"},
    "swapping": {"v2": "v5", "v5": "v2"},
}


@pytest.mark.parametrize("mapping", list(RENAME_MAPS.values()), ids=list(RENAME_MAPS))
@settings(max_examples=60, deadline=None)
@given(
    first=random_functions(),
    second=random_functions(),
    quantify=st.sets(st.sampled_from(RANDOM_NAMES), max_size=3),
    renamed_too=st.booleans(),
)
def test_rename_with_quantification_is_exists_then_rename(
    mapping, first, second, quantify, renamed_too
):
    """The fused pass equals ∃ followed by the rename, also for a quantified
    variable the map renames, and also for a function that shares nodes
    with one renamed before under the same map and quantified set."""
    manager = BDDManager(RANDOM_NAMES)
    if renamed_too:
        quantify = quantify | {sorted(mapping)[0]}
    f = _build(manager, first)
    g = manager.disj(f, _build(manager, second))
    for function in (f, g, manager.conj(g, manager.var_node("v3"))):
        fused = manager.rename(function, mapping, quantify)
        assert fused == manager.rename(manager.exists(function, quantify), mapping)


@settings(max_examples=60, deadline=None)
@given(first=random_functions(), second=random_functions())
def test_memoised_support_matches_a_plain_walk_as_the_table_grows(first, second):
    manager = BDDManager(RANDOM_NAMES)
    f = _build(manager, first)
    assert manager.support(f) == _walked_support(manager, f) == set(
        name for name in first[0] if manager.cofactor(f, name, False)
        != manager.cofactor(f, name, True)
    )
    # New nodes above and around f's: their masks build on f's memoised ones.
    g = _build(manager, second)
    for function in (
        g,
        manager.disj(f, g),
        manager.conj(f, manager.neg(g)),
        manager.exists(f, ["v0", "v4"]),
        manager.rename(f, RENAME_MAPS["swapping"]),
    ):
        assert manager.support(function) == _walked_support(manager, function)
