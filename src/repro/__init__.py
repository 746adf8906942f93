"""repro — static analysis of XML paths and types.

A from-scratch Python reproduction of

    Pierre Genevès, Nabil Layaïda, Alan Schmitt.
    "Efficient Static Analysis of XML Paths and Types", PLDI 2007
    (extended version: INRIA RR-6590, 2008).

The package solves XPath decision problems — emptiness, containment, overlap,
coverage, equivalence and static type checking — in the presence of XML
regular tree types (DTDs), by translating both queries and types to a
cycle-free µ-calculus over finite focused trees and deciding satisfiability
with a BDD-based fixpoint algorithm.

Quick start::

    from repro import Query, StaticAnalyzer
    analyzer = StaticAnalyzer()
    outcome = analyzer.solve(Query.containment("child::a[b]", "child::a"))
    assert outcome.holds                      # every a[b] child is an a child

    outcome = analyzer.solve(
        Query.satisfiability("descendant::a[ancestor::a]", "xhtml")
    )
    print(outcome.holds, outcome.counterexample)

One analyzer shares type translations, query translations and solver
verdicts across every query it answers; ``solve_many`` answers a batch::

    report = analyzer.solve_many([
        Query.containment("child::a[b]", "child::a"),
        Query.emptiness("child::title/child::meta", "wikipedia"),
    ])
"""

from repro.api import (
    AnalysisOutcome,
    BatchReport,
    Query,
    StaticAnalyzer,
)
from repro.logic.negation import negate
from repro.logic.parser import parse_formula
from repro.logic.printer import format_formula
from repro.solver.explicit import ExplicitSolver
from repro.solver.symbolic import SolverResult, SymbolicSolver
from repro.trees.unranked import Tree, parse_tree, serialize_tree
from repro.xmltypes.compile import compile_dtd
from repro.xmltypes.dtd import DTD, AttributeDeclaration, parse_dtd
from repro.xmltypes.library import builtin_dtd
from repro.xmltypes.membership import dtd_accepts, dtd_attribute_violations
from repro.xpath.compile import compile_xpath
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import select

__version__ = "1.0.0"

__all__ = [
    "AnalysisOutcome",
    "BatchReport",
    "Query",
    "StaticAnalyzer",
    "negate",
    "parse_formula",
    "format_formula",
    "ExplicitSolver",
    "SymbolicSolver",
    "SolverResult",
    "Tree",
    "parse_tree",
    "serialize_tree",
    "DTD",
    "AttributeDeclaration",
    "parse_dtd",
    "compile_dtd",
    "builtin_dtd",
    "dtd_accepts",
    "dtd_attribute_violations",
    "compile_xpath",
    "parse_xpath",
    "select",
    "__version__",
]
