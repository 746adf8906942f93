"""Conformance suite for the BDD engine.

:class:`repro.bdd.manager.BDDManager` must obey the algebraic laws of boolean
functions, keep node ids canonical (equal functions are the same id) and
report deterministic statistics.  The suite finishes with a seeded
differential check that builds a few hundred random formula DAGs and
compares each against a truth table computed in plain Python over all 256
assignments of the 8 variables (every assignment, the model count, the model
enumeration, the constant tests and the picked model) — an oracle that
shares no code with the engine.

None of these properties may depend on the variable order, so the law and
differential tests run under three orders of the same 8 variables: as
declared, reversed, and scrambled.  Under the scrambled order most renames
between the two halves of the variables do not preserve the relative order
of the renamed variables, which sends ``rename`` down its general
(``ite``-composition) path instead of the structural relabelling.
"""

import itertools
import random

import pytest

from repro.bdd.manager import BDDManager

NAMES = ["v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"]

#: Variable orders (level 0 first) the laws must hold under.
ORDERS = {
    "declared": NAMES,
    "reversed": NAMES[::-1],
    "scrambled": ["v5", "v2", "v7", "v0", "v3", "v6", "v1", "v4"],
}


@pytest.fixture(params=sorted(ORDERS))
def manager(request):
    return BDDManager(ORDERS[request.param])


def brute_force(function, names=NAMES):
    table = set()
    for bits in itertools.product((False, True), repeat=len(names)):
        if function.evaluate(dict(zip(names, bits))):
            table.add(bits)
    return table


# ---------------------------------------------------------------------------
# Algebraic laws
# ---------------------------------------------------------------------------


def test_negation_involution(manager):
    a, b = manager.variable("v0"), manager.variable("v1")
    f = (a & ~b) | (b ^ a)
    assert (~~f).node == f.node
    assert (~f).node != f.node
    assert (~manager.true()).node == manager.false().node


def test_ite_identities(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v1", "v2"))
    f = a.iff(b) | c
    assert f.ite(manager.true(), manager.false()).node == f.node
    assert f.ite(b, b).node == b.node
    assert a.ite(b, c).node == ((a & b) | (~a & c)).node
    assert (a ^ b).node == a.ite(~b, b).node
    assert a.iff(b).node == a.ite(b, ~b).node
    assert a.implies(b).node == (~a | b).node


def test_de_morgan_and_absorption(manager):
    a, b = manager.variable("v3"), manager.variable("v5")
    assert (~(a & b)).node == (~a | ~b).node
    assert (a | (a & b)).node == a.node
    assert (a & (a | b)).node == a.node


def test_quantifier_laws(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v1", "v2"))
    f = (a & b) | (~a & c)
    # ∃x f == f|x=0 ∨ f|x=1 ; ∀x f == f|x=0 ∧ f|x=1.
    assert f.exists(["v0"]).node == (f.restrict({"v0": False}) | f.restrict({"v0": True})).node
    assert f.forall(["v0"]).node == (f.restrict({"v0": False}) & f.restrict({"v0": True})).node
    # Quantifiers over distinct variables commute.
    assert f.exists(["v0"]).exists(["v1"]).node == f.exists(["v1"]).exists(["v0"]).node
    assert f.exists(["v0", "v1"]).node == f.exists(["v1"]).exists(["v0"]).node
    # ∀x f == ¬∃x ¬f.
    assert f.forall(["v1"]).node == (~((~f).exists(["v1"]))).node
    # and_exists is the fused relational product.
    g = b.iff(c)
    assert f.and_exists(g, ["v1", "v2"]).node == (f & g).exists(["v1", "v2"]).node


def test_rename_quantifier_commutation(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v2", "v4"))
    f = (a ^ b) | (b & c)
    mapping = {"v0": "v1", "v2": "v3", "v4": "v5"}
    fast_before = manager.statistics().rename_fast_paths
    renamed = f.rename(mapping)
    # The structural pass is taken exactly when the rename keeps the renamed
    # variables in their relative level order.
    ordered = sorted(mapping, key=manager.level_of)
    images = [manager.level_of(mapping[name]) for name in ordered]
    took_fast_path = manager.statistics().rename_fast_paths == fast_before + 1
    assert took_fast_path == (images == sorted(images))
    # Semantics: renamed(y) == f(x) pointwise under the substitution.
    for bits in itertools.product((False, True), repeat=len(NAMES)):
        assignment = dict(zip(NAMES, bits))
        pulled = {n: assignment[mapping.get(n, n)] for n in NAMES}
        assert renamed.evaluate(assignment) == f.evaluate(pulled)
    # ∃(unrenamed var) commutes with the rename.
    assert f.exists(["v4"]).rename({"v0": "v1"}).node == f.rename({"v0": "v1"}).exists(["v4"]).node


def test_canonicity_equal_functions_equal_ids(manager):
    a, b, c, d = (manager.variable(n) for n in ("v0", "v1", "v2", "v3"))
    left = (a & b) | (a & c) | (b & c)
    right = (a | b) & (a | c) & (b | c)  # majority, factored differently
    assert left.node == right.node
    assert ((a ^ b) ^ c ^ d).node == (a ^ (b ^ (c ^ d))).node
    assert (left & ~left).node == manager.false().node
    assert (left | ~left).node == manager.true().node


def test_counting_and_assignments(manager):
    a, b, c = (manager.variable(n) for n in ("v0", "v1", "v2"))
    f = (a & b) | c
    assert f.count_assignments(["v0", "v1", "v2"]) == len(brute_force(f, ["v0", "v1", "v2"]))
    assert manager.true().count_assignments(["v0"]) == 2
    assert manager.false().count_assignments() == 0
    picked = f.pick_assignment()
    assert picked is not None
    full = {name: picked.get(name, False) for name in NAMES}
    assert f.evaluate(full)
    models = list(f.iter_assignments(["v0", "v1", "v2"]))
    assert len(models) == f.count_assignments(["v0", "v1", "v2"])
    assert all(f.evaluate({**{n: False for n in NAMES}, **m}) for m in models)


def test_statistics_deterministic():
    def workload():
        m = BDDManager(NAMES)
        a, b, c = (m.variable(n) for n in ("v0", "v1", "v2"))
        f = (a ^ b).iff(c) | (a & b)
        f = f.and_exists(b | c, ["v1"])
        _ = (~f).exists(["v0"])
        return m.statistics().as_dict()

    first, second = workload(), workload()
    assert first == second
    assert first["ite_calls"] > 0
    assert first["node_count"] >= 1
    # The node table only grows, so its peak is its current size.
    assert first["peak_node_count"] == first["node_count"]


# ---------------------------------------------------------------------------
# Seeded randomized differential check against plain-Python truth tables
# ---------------------------------------------------------------------------

TRIALS = 200

#: Truth tables are ints: bit ``i`` is the function's value under assignment
#: ``i``, which gives ``NAMES[j]`` the value of bit ``j`` of ``i``.
ASSIGNMENTS = range(2 ** len(NAMES))
FULL = (1 << len(ASSIGNMENTS)) - 1


def _assignment(index):
    return {name: bool(index >> j & 1) for j, name in enumerate(NAMES)}


def _index(assignment):
    return sum(1 << j for j, name in enumerate(NAMES) if assignment.get(name, False))


def _table(predicate):
    return sum(1 << i for i in ASSIGNMENTS if predicate(i))


def _var_table(name):
    j = NAMES.index(name)
    return _table(lambda i: i >> j & 1)


def _exists_table(table, names, universal=False):
    for name in names:
        bit = 1 << NAMES.index(name)

        def quantified(i, table=table, bit=bit):
            low, high = table >> (i & ~bit) & 1, table >> (i | bit) & 1
            return (low and high) if universal else (low or high)

        table = _table(quantified)
    return table


def _rename_table(table, mapping):
    # renamed(a) = f(a') with a'[n] = a[mapping.get(n, n)] (substitution).
    sources = [NAMES.index(mapping.get(name, name)) for name in NAMES]

    def pulled(i):
        return sum(1 << j for j, source in enumerate(sources) if i >> source & 1)

    return _table(lambda i: table >> pulled(i) & 1)


def _random_dag(rng, manager):
    """One random formula DAG, built as a BDD and as a truth table."""
    pool = []
    for _ in range(3):
        name = rng.choice(NAMES)
        pool.append((manager.variable(name), _var_table(name)))
    ops = rng.randrange(4, 14)
    for _ in range(ops):
        op = rng.randrange(9)
        f, tf = rng.choice(pool)
        g, tg = rng.choice(pool)
        if op == 0:
            pool.append((~f, FULL ^ tf))
        elif op == 1:
            pool.append((f & g, tf & tg))
        elif op == 2:
            pool.append((f | g, tf | tg))
        elif op == 3:
            pool.append((f ^ g, tf ^ tg))
        elif op == 4:
            pool.append((f.iff(g), FULL ^ tf ^ tg))
        elif op == 5:
            h, th = rng.choice(pool)
            pool.append((f.ite(g, h), (tf & tg) | (~tf & th)))
        elif op == 6:
            names = rng.sample(NAMES, rng.randrange(1, 3))
            if rng.random() < 0.5:
                pool.append((f.exists(names), _exists_table(tf, names)))
            else:
                pool.append(
                    (f.forall(names), _exists_table(tf, names, universal=True))
                )
        elif op == 7:
            half = len(NAMES) // 2
            mapping = dict(zip(NAMES[:half], NAMES[half:]))
            if rng.random() < 0.5:
                mapping = {value: key for key, value in mapping.items()}
            pool.append((f.rename(mapping), _rename_table(tf, mapping)))
        else:
            names = rng.sample(NAMES, rng.randrange(1, 3))
            pool.append((f.and_exists(g, names), _exists_table(tf & tg, names)))
    return pool[-1]


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_differential_random_dags(order):
    master = random.Random(20260807)
    for trial in range(TRIALS):
        seed = master.randrange(2**60)
        function, table = _random_dag(random.Random(seed), BDDManager(ORDERS[order]))
        context = f"{order} order, trial {trial} (seed {seed})"
        for i in ASSIGNMENTS:
            assert function.evaluate(_assignment(i)) == bool(table >> i & 1), (
                f"{context}: assignment {i}"
            )
        assert function.count_assignments(NAMES) == bin(table).count("1"), context
        models = [_index(model) for model in function.iter_assignments(NAMES)]
        assert sorted(models) == [i for i in ASSIGNMENTS if table >> i & 1], context
        assert function.is_false == (table == 0), context
        assert function.is_true == (table == FULL), context
        picked = function.pick_assignment()
        if table == 0:
            assert picked is None, context
        else:
            assert table >> _index(picked) & 1, f"{context}: picked {picked}"


def test_psi_type_count_matches_enumeration():
    """The symbolic |Types(ψ)| (Section 7.1) matches explicit enumeration."""
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.truth import count_types_symbolically, psi_types

    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.mk_or(sx.prop("b"), sx.dia(2, sx.prop("a")))))
    lean = compute_lean(formula)
    assert count_types_symbolically(lean) == sum(1 for _ in psi_types(lean))


# ---------------------------------------------------------------------------
# Regression: node ids never cross managers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["witness", "witness_strict"])
def test_witness_rejects_target_from_another_manager(method):
    """The per-step ``and_exists`` memos are keyed by node id, which only
    means something inside the manager that made it: a target built on a
    second encoding (hence a second manager) must be rejected, not silently
    looked up by its id — by ``witness`` and by the mark-propagating
    ``witness_strict`` alike."""
    from repro.logic import syntax as sx
    from repro.logic.closure import lean as compute_lean
    from repro.solver.relations import LeanEncoding, TransitionRelation

    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    lean = compute_lean(formula)
    encoding = LeanEncoding(lean)
    relation = TransitionRelation(encoding, 1)
    witness = getattr(relation, method)
    witness(encoding.types_constraint())
    assert relation.product_calls == 1

    foreign = LeanEncoding(lean)
    with pytest.raises(ValueError, match="different BDD manager"):
        witness(foreign.types_constraint())
    assert relation.product_calls == 1
    # The target's own manager still gets its product.
    witness(encoding.types_constraint())
    assert relation.product_calls == 2
