"""Unit and property tests for the ROBDD engine."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.bdd.manager import BDDManager
from repro.bdd.ordering import cone_of_influence

NAMES = ["a", "b", "c", "d"]


@pytest.fixture
def manager():
    return BDDManager(NAMES)


def brute_force(function, names=NAMES):
    """Truth table of a BDD as a set of satisfying assignments."""
    table = set()
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        if function.evaluate(assignment):
            table.add(bits)
    return table


def test_terminals(manager):
    assert manager.true().is_true
    assert manager.false().is_false
    assert (~manager.true()).is_false


def test_variable_and_negation(manager):
    a = manager.variable("a")
    assert a.evaluate({"a": True}) and not a.evaluate({"a": False})
    assert (~a).evaluate({"a": False})


def test_connectives_against_truth_tables(manager):
    a, b, c, d = (manager.variable(name) for name in NAMES)
    cases = {
        "and": (a & b, lambda va, vb, vc, vd: va and vb),
        "or": (a | b, lambda va, vb, vc, vd: va or vb),
        "xor": (a ^ c, lambda va, vb, vc, vd: va != vc),
        "iff": (b.iff(d), lambda va, vb, vc, vd: vb == vd),
        "implies": (a.implies(d), lambda va, vb, vc, vd: (not va) or vd),
        "ite": (a.ite(b, c), lambda va, vb, vc, vd: vb if va else vc),
    }
    for name, (function, predicate) in cases.items():
        expected = {
            bits
            for bits in itertools.product((False, True), repeat=4)
            if predicate(*bits)
        }
        assert brute_force(function) == expected, name


def test_reduction_canonical_form(manager):
    a, b = manager.variable("a"), manager.variable("b")
    assert ((a & b) | (a & ~b)).node == a.node  # Shannon reduction
    assert (a | ~a).is_true
    assert (a & ~a).is_false


def test_exists_and_forall(manager):
    a, b = manager.variable("a"), manager.variable("b")
    function = a & b
    assert brute_force(function.exists(["a"])) == brute_force(b)
    assert function.forall(["a"]).is_false
    assert (a | b).forall(["a"]).node == b.node


def test_and_exists_equals_conjoin_then_quantify(manager):
    a, b, c, d = (manager.variable(name) for name in NAMES)
    left = (a & b) | (c & ~d)
    right = a.iff(c) & (b | d)
    fused = left.and_exists(right, ["a", "c"])
    naive = (left & right).exists(["a", "c"])
    assert fused.node == naive.node


def test_rename(manager):
    a, b = manager.variable("a"), manager.variable("b")
    renamed = (a & ~b).rename({"a": "c", "b": "d"})
    assert renamed.support() == {"c", "d"}
    assert renamed.evaluate({"c": True, "d": False})


def test_restrict(manager):
    a, b = manager.variable("a"), manager.variable("b")
    assert (a & b).restrict({"a": True}).node == b.node
    assert (a & b).restrict({"a": False}).is_false


def test_support_and_dag_size(manager):
    a, b, c = manager.variable("a"), manager.variable("b"), manager.variable("c")
    function = (a & b) | c
    assert function.support() == {"a", "b", "c"}
    assert function.dag_size() >= 3
    assert manager.true().dag_size() == 0


def test_pick_assignment(manager):
    a, b = manager.variable("a"), manager.variable("b")
    assert (a & ~b).pick_assignment() == {"a": True, "b": False}
    assert manager.false().pick_assignment() is None
    chosen = (a | b).pick_assignment()
    assert (a | b).evaluate({"a": False, "b": False, **chosen})


def test_count_assignments(manager):
    a, b, c, d = (manager.variable(name) for name in NAMES)
    assert manager.true().count_assignments() == 16
    assert (a & b).count_assignments() == 4
    assert (a | b).count_assignments(["a", "b"]) == 3


def test_iter_assignments(manager):
    a, b = manager.variable("a"), manager.variable("b")
    models = list((a ^ b).iter_assignments(["a", "b"]))
    assert len(models) == 2
    assert {frozenset(m.items()) for m in models} == {
        frozenset({("a", True), ("b", False)}.items() if False else {("a", True), ("b", False)}),
        frozenset({("a", False), ("b", True)}),
    }


def test_iter_assignments_walks_the_variable_order(manager):
    a, b, c = (manager.variable(name) for name in ("a", "b", "c"))
    function = (a & b) | c
    expected = {
        bits
        for bits in itertools.product((False, True), repeat=3)
        if function.evaluate(dict(zip("cba", bits)))
    }
    # ``over`` lists the variables against the manager's order.
    models = list(function.iter_assignments(["c", "b", "a"]))
    assert len(models) == len(expected) == 5
    assert {(m["c"], m["b"], m["a"]) for m in models} == expected


def test_cone_of_influence_closes_over_shared_variables():
    supports = {
        "p": frozenset({"x"}),
        "q": frozenset({"x", "y"}),
        "r": frozenset({"y", "z"}),
        "s": frozenset({"w"}),
        "t": frozenset(),
    }
    # From z: r shares z, q shares y with r, p shares x with q — the closure
    # needs several passes because p is listed before what connects it.
    assert cone_of_influence(supports, {"z"}) == {"p", "q", "r"}
    assert cone_of_influence(supports, {"x"}) == {"p", "q", "r"}
    assert cone_of_influence(supports, ["w", "w"]) == {"s"}
    assert cone_of_influence(supports, {"unused"}) == set()
    assert cone_of_influence(supports, ()) == set()


def test_no_implicit_truthiness(manager):
    with pytest.raises(TypeError):
        bool(manager.true())


def test_duplicate_variable_rejected(manager):
    with pytest.raises(ValueError):
        manager.add_variable("a")


# -- property-based equivalence with Python boolean evaluation -------------------------


@st.composite
def boolean_exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return ("var", draw(st.sampled_from(NAMES)))
    op = draw(st.sampled_from(["and", "or", "not", "xor"]))
    if op == "not":
        return ("not", draw(boolean_exprs(depth=depth - 1)))
    return (op, draw(boolean_exprs(depth=depth - 1)), draw(boolean_exprs(depth=depth - 1)))


def build_bdd(manager, expr):
    if expr[0] == "var":
        return manager.variable(expr[1])
    if expr[0] == "not":
        return ~build_bdd(manager, expr[1])
    left, right = build_bdd(manager, expr[1]), build_bdd(manager, expr[2])
    return {"and": left & right, "or": left | right, "xor": left ^ right}[expr[0]]


def eval_expr(expr, assignment):
    if expr[0] == "var":
        return assignment[expr[1]]
    if expr[0] == "not":
        return not eval_expr(expr[1], assignment)
    left, right = eval_expr(expr[1], assignment), eval_expr(expr[2], assignment)
    return {"and": left and right, "or": left or right, "xor": left != right}[expr[0]]


@given(boolean_exprs())
def test_bdd_matches_boolean_semantics(expr):
    manager = BDDManager(NAMES)
    function = build_bdd(manager, expr)
    for bits in itertools.product((False, True), repeat=len(NAMES)):
        assignment = dict(zip(NAMES, bits))
        assert function.evaluate(assignment) == eval_expr(expr, assignment)


@given(boolean_exprs(), st.sampled_from(NAMES))
def test_quantification_property(expr, name):
    manager = BDDManager(NAMES)
    function = build_bdd(manager, expr)
    exists = function.exists([name])
    forall = function.forall([name])
    for bits in itertools.product((False, True), repeat=len(NAMES)):
        assignment = dict(zip(NAMES, bits))
        either = any(
            function.evaluate({**assignment, name: value}) for value in (False, True)
        )
        both = all(
            function.evaluate({**assignment, name: value}) for value in (False, True)
        )
        assert exists.evaluate(assignment) == either
        assert forall.evaluate(assignment) == both
