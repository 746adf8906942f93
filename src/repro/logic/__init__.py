"""The tree logic Lµ of the paper (Section 4).

Lµ is a sub-logic of the alternation-free modal µ-calculus with converse
modalities, interpreted over finite focused trees carrying a single start
mark.  Formulas are restricted to *cycle-free* ones, for which the least and
greatest fixpoints coincide (Lemma 4.2), making the logic closed under
negation.

This package provides:

* :mod:`repro.logic.syntax`    — hash-consed formula AST and constructors,
* :mod:`repro.logic.printer`   — textual rendering (Figure 14 style),
* :mod:`repro.logic.parser`    — parser for the textual syntax,
* :mod:`repro.logic.negation`  — negation normal form via the De Morgan and
  fixpoint dualities,
* :mod:`repro.logic.cyclefree` — the cycle-freeness check of Section 4,
* :mod:`repro.logic.closure`   — Fisher–Ladner closure and the Lean (§6.1),
* :mod:`repro.logic.semantics` — the interpretation of Figure 2 over finite
  universes of focused trees, used as a test oracle.
"""

from repro.logic.syntax import (
    Formula,
    TRUE,
    FALSE,
    START,
    NSTART,
    prop,
    nprop,
    var,
    mk_or,
    mk_and,
    dia,
    no_dia,
    mu,
    nu,
    big_or,
    big_and,
    expand_fixpoint,
    substitute,
    free_variables,
    formula_size,
    iter_subformulas,
)
from repro.logic.printer import format_formula
from repro.logic.parser import parse_formula
from repro.logic.negation import negate
from repro.logic.cyclefree import is_cycle_free, assert_cycle_free
from repro.logic.closure import fisher_ladner_closure, lean, Lean
from repro.logic.semantics import interpret, satisfies

__all__ = [
    "Formula",
    "TRUE",
    "FALSE",
    "START",
    "NSTART",
    "prop",
    "nprop",
    "var",
    "mk_or",
    "mk_and",
    "dia",
    "no_dia",
    "mu",
    "nu",
    "big_or",
    "big_and",
    "expand_fixpoint",
    "substitute",
    "free_variables",
    "formula_size",
    "iter_subformulas",
    "format_formula",
    "parse_formula",
    "negate",
    "is_cycle_free",
    "assert_cycle_free",
    "fisher_ladner_closure",
    "lean",
    "Lean",
    "interpret",
    "satisfies",
]
