"""Tests for the Fisher–Ladner closure and the Lean (Section 6.1)."""

import pytest

from repro.logic import syntax as sx
from repro.logic.closure import OTHER_LABEL, fisher_ladner_closure, lean
from repro.trees.focus import MODALITIES


def test_closure_contains_the_formula_and_subformulas():
    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    closure = fisher_ladner_closure(formula)
    assert formula in closure
    assert sx.prop("a") in closure
    assert sx.dia(1, sx.prop("b")) in closure
    assert sx.prop("b") in closure


def test_closure_unwinds_fixpoints_once():
    formula = sx.mu1(lambda x: sx.dia(1, x) | sx.prop("a"))
    closure = fisher_ladner_closure(formula)
    # The expansion places the closed fixpoint under the modality.
    assert any(item.kind == sx.KIND_DIA and item.left.is_fixpoint for item in closure)


def test_closure_is_finite_for_recursive_formulas():
    formula = sx.mu(
        (
            ("X", sx.dia(1, sx.var("Y")) | sx.prop("a")),
            ("Y", sx.dia(2, sx.var("X")) | sx.prop("b")),
        ),
        sx.var("X") | sx.var("Y"),
    )
    closure = fisher_ladner_closure(formula)
    assert 0 < len(closure) < 60


def test_lean_contains_topological_propositions_first():
    computed = lean(sx.prop("a"))
    heads = computed.items[: len(MODALITIES)]
    assert [item.prog for item in heads] == list(MODALITIES)
    assert all(item.kind == sx.KIND_DIA and item.left is sx.TRUE for item in heads)
    assert computed.items[len(MODALITIES)] is sx.START


def test_lean_includes_extra_other_label():
    computed = lean(sx.prop("a"))
    assert OTHER_LABEL in computed.propositions
    assert "a" in computed.propositions


def test_lean_positions_are_consistent():
    formula = sx.mk_and(sx.prop("a"), sx.dia(1, sx.prop("b")))
    computed = lean(formula)
    for index, item in enumerate(computed.items):
        assert computed.position(item) == index
    assert computed.proposition_index("a") == computed.position(sx.prop("a"))
    # Unknown labels map to the "other" proposition.
    assert computed.proposition_index("zzz") == computed.position(sx.prop(OTHER_LABEL))


def test_lean_contains_every_modal_closure_formula():
    formula = sx.mu1(lambda x: sx.dia(-1, sx.START) | sx.dia(-2, x))
    computed = lean(formula)
    modal_programs = {program for program, _sub, _idx in computed.modal_items()}
    assert modal_programs == set(MODALITIES)
    # Both the ⟨1̄⟩s and the recursive ⟨2̄⟩(µ…) formulas are present.
    non_trivial = [sub for _p, sub, _i in computed.modal_items() if sub is not sx.TRUE]
    assert len(non_trivial) == 2


def test_lean_size_is_linear_in_formula_size():
    # Lean(ψ) grows linearly for a chain of modalities.
    def chain(depth: int) -> sx.Formula:
        formula = sx.prop("a")
        for _ in range(depth):
            formula = sx.dia(1, formula)
        return formula

    small = len(lean(chain(5)))
    large = len(lean(chain(10)))
    assert large - small == 5


def test_describe_mentions_sizes():
    description = lean(sx.prop("a")).describe()
    assert "Lean size" in description
