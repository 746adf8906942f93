"""Unit tests for the Lµ syntax: hash-consing, constructors, substitution, expansion."""

import pickle
from pathlib import Path

import pytest

from repro.logic import syntax as sx


def test_hash_consing_makes_equal_formulas_identical():
    one = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    two = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    assert one is two


def test_or_simplifications():
    assert sx.mk_or(sx.TRUE, sx.prop("a")) is sx.TRUE
    assert sx.mk_or(sx.FALSE, sx.prop("a")) is sx.prop("a")
    assert sx.mk_or(sx.prop("a"), sx.prop("a")) is sx.prop("a")


def test_and_simplifications():
    assert sx.mk_and(sx.FALSE, sx.prop("a")) is sx.FALSE
    assert sx.mk_and(sx.TRUE, sx.prop("a")) is sx.prop("a")


def test_dia_of_false_is_false():
    assert sx.dia(1, sx.FALSE) is sx.FALSE


def test_dia_rejects_bad_program():
    with pytest.raises(ValueError):
        sx.dia(3, sx.TRUE)


def test_big_or_and_big_and():
    props = [sx.prop(name) for name in "abc"]
    assert sx.big_or([]) is sx.FALSE
    assert sx.big_and([]) is sx.TRUE
    assert sx.formula_size(sx.big_or(props)) == 5


def test_fixpoint_requires_definitions():
    with pytest.raises(ValueError):
        sx.mu((), sx.TRUE)
    with pytest.raises(ValueError):
        sx.mu((("X", sx.TRUE), ("X", sx.FALSE)), sx.TRUE)


def test_free_variables():
    formula = sx.mu((("X", sx.dia(1, sx.var("X")) | sx.var("Y")),), sx.var("X"))
    assert sx.free_variables(formula) == {"Y"}
    assert sx.free_variables(sx.prop("a")) == frozenset()


def test_substitute_replaces_free_occurrences_only():
    inner = sx.mu((("X", sx.dia(1, sx.var("X"))),), sx.var("X"))
    formula = sx.mk_or(sx.var("X"), inner)
    substituted = sx.substitute(formula, {"X": sx.prop("a")})
    assert substituted.left is sx.prop("a")
    assert substituted.right is inner  # bound occurrence untouched


def test_substitute_empty_mapping_is_identity():
    formula = sx.dia(1, sx.var("X"))
    assert sx.substitute(formula, {}) is formula


def test_expand_fixpoint_substitutes_closed_definitions():
    formula = sx.mu((("X", sx.dia(1, sx.var("X")) | sx.prop("a")),), sx.var("X"))
    expanded = sx.expand_fixpoint(formula)
    assert sx.free_variables(expanded) == frozenset()
    # Expanding again below the modality reaches the same closed formula.
    assert expanded.is_fixpoint or expanded.kind in (sx.KIND_OR, sx.KIND_DIA)


def test_expand_fixpoint_terminates_on_mutual_recursion():
    formula = sx.mu(
        (
            ("X", sx.dia(1, sx.var("Y"))),
            ("Y", sx.dia(2, sx.var("X")) | sx.prop("leaf")),
        ),
        sx.var("X"),
    )
    expanded = sx.expand_fixpoint(formula)
    assert sx.free_variables(expanded) == frozenset()


def test_mu1_builds_guarded_unary_fixpoint():
    formula = sx.mu1(lambda x: sx.dia(1, x) | sx.prop("a"))
    assert formula.is_fixpoint
    assert len(formula.defs) == 1
    assert formula.body is formula.defs[0][1]


def test_formula_size_counts_shared_subterms_once():
    shared = sx.dia(1, sx.prop("a"))
    formula = sx.mk_and(shared, sx.mk_or(shared, sx.prop("b")))
    assert sx.formula_size(formula) == 5  # and, or, dia, a, b


def test_atomic_propositions():
    formula = sx.mk_and(sx.prop("a"), sx.mk_or(sx.nprop("b"), sx.START))
    assert sx.atomic_propositions(formula) == {"a", "b"}


def test_rename_bound_variables_freshens_binders():
    formula = sx.mu((("X", sx.dia(1, sx.var("X"))),), sx.var("X"))
    renamed = sx.rename_bound_variables(formula)
    assert renamed.defs[0][0] != "X"
    assert sx.free_variables(renamed) == frozenset()


def test_operator_overloading_matches_constructors():
    a, b = sx.prop("a"), sx.prop("b")
    assert (a | b) is sx.mk_or(a, b)
    assert (a & b) is sx.mk_and(a, b)


def test_unpickling_interns_the_same_node():
    """A pickled formula comes back as this process's one node of its
    structure, fixpoint definitions and free-variable sets included."""
    fix = sx.mu1(lambda x: sx.dia(1, x) | sx.attr("href") | sx.prop("a"))
    formula = sx.mk_and(fix, sx.NSTART) | sx.no_dia(-2)
    assert pickle.loads(pickle.dumps(formula)) is formula
    body = pickle.loads(pickle.dumps(fix.defs[0][1]))
    assert body is fix.defs[0][1]
    assert sx.free_variables(body) == {fix.defs[0][0]}


# -- substitution and capture ---------------------------------------------------------


def test_substitute_under_binder_that_does_not_see_the_name():
    """A binder captures nothing when no substituted name is free below it."""
    fix = sx.mu1(lambda x: sx.dia(1, x) | sx.prop("a"))
    bound_name = fix.defs[0][0]
    formula = sx.mk_and(fix, sx.var("Z"))
    substituted = sx.substitute(formula, {"Z": sx.var(bound_name)})
    assert substituted is sx.mk_and(fix, sx.var(bound_name))


def test_substitute_refuses_real_capture():
    formula = sx.mu((("X", sx.dia(1, sx.var("X")) | sx.var("Z")),), sx.var("X"))
    with pytest.raises(ValueError, match="capture variable 'X'"):
        sx.substitute(formula, {"Z": sx.var("X")})


# -- the memos are exact ----------------------------------------------------------------


class _Reference:
    """Recomputes free variables and expansions from scratch, without memos
    on the nodes and without pruning closed subterms."""

    def __init__(self):
        self.free: dict[int, frozenset[str]] = {}

    def free_variables(self, formula):
        cached = self.free.get(id(formula))
        if cached is not None:
            return cached
        if formula.kind == sx.KIND_VAR:
            result = frozenset({formula.label})
        else:
            inner = set()
            for child in sx.iter_children(formula):
                inner |= self.free_variables(child)
            if formula.is_fixpoint:
                inner -= {name for name, _ in formula.defs}
            result = frozenset(inner)
        self.free[id(formula)] = result
        return result

    @staticmethod
    def substitute(formula, mapping):
        cache = {}

        # Rebuild through the intern table without the smart constructors'
        # simplifications, as substitution does.
        def go(current, active):
            key = (id(current), active)
            if key in cache:
                return cache[key]
            if current.kind == sx.KIND_VAR:
                result = mapping[current.label] if current.label in active else current
            elif current.is_fixpoint:
                remaining = active - {name for name, _ in current.defs}
                result = sx._intern(
                    current.kind,
                    defs=tuple((name, go(d, remaining)) for name, d in current.defs),
                    body=go(current.body, remaining),
                )
            elif current.kind in (sx.KIND_OR, sx.KIND_AND):
                result = sx._intern(
                    current.kind,
                    left=go(current.left, active),
                    right=go(current.right, active),
                )
            elif current.kind == sx.KIND_DIA:
                result = sx._intern(
                    sx.KIND_DIA, prog=current.prog, left=go(current.left, active)
                )
            else:
                result = current
            cache[key] = result
            return result

        return go(formula, frozenset(mapping))

    def expand(self, formula):
        definitions = dict(formula.defs)
        mapping = {
            name: sx._intern(formula.kind, defs=formula.defs, body=definitions[name])
            for name, _ in formula.defs
        }
        return self.substitute(formula.body, mapping)


def _memo_test_formulas():
    """Compiled schemas and corpus problems, with their negations and
    alpha-renamings."""
    from repro.logic.negation import negate
    from repro.testing.corpus import load_corpus
    from repro.testing.fuzz import case_formula
    from repro.xmltypes.compile import compile_dtd
    from repro.xmltypes.library import schema_catalog

    formulas = [compile_dtd(info.load()) for info in schema_catalog()]
    for entry in load_corpus(Path(__file__).parent / "corpus"):
        dtd = entry.case.dtd()
        formulas += [case_formula(entry.case, dtd, pruned) for pruned in (False, True)]
    images = []
    for formula in formulas:
        images += [negate(formula), sx.rename_bound_variables(formula)]
    return formulas + images


def test_free_variables_and_expansions_match_the_reference():
    from repro.logic.closure import fisher_ladner_closure

    formulas = _memo_test_formulas()
    # The closures add the fixpoints that only arise from expanding others.
    stack = formulas + [f for formula in formulas for f in fisher_ladner_closure(formula)]
    nodes = set()
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(sx.iter_children(node))
    reference = _Reference()
    fixpoints = [node for node in nodes if node.is_fixpoint]
    for node in nodes:
        assert sx.free_variables(node) == reference.free_variables(node)
    for node in fixpoints:
        assert sx.expand_fixpoint(node) is reference.expand(node)
    assert len(fixpoints) > 1000


def test_expansion_is_computed_once(monkeypatch):
    formula = sx.mu1(lambda x: sx.dia(2, x) | sx.prop("memo-once"))
    calls = []
    real_substitute = sx.substitute

    def counting_substitute(*args):
        calls.append(args)
        return real_substitute(*args)

    monkeypatch.setattr(sx, "substitute", counting_substitute)
    first = sx.expand_fixpoint(formula)
    assert len(calls) == 1
    assert sx.expand_fixpoint(formula) is first
    assert len(calls) == 1
