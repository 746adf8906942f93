"""The worked example of the paper (Section 6.3, Figure 18).

Checks whether ``child::c/preceding-sibling::a[b]`` is contained in
``child::c[b]``.  It is not: the solver builds a counterexample tree of depth
3 — a context node with an ``a`` child (itself having a ``b`` child) followed
by a ``c`` child — exactly the tree shown in Figure 18.

Run with::

    python examples/containment_counterexample.py
"""

from repro import Query, StaticAnalyzer, parse_tree, parse_xpath, select, serialize_tree
from repro.logic.printer import format_formula
from repro.xpath.compile import compile_xpath

QUERY_1 = "child::c/preceding-sibling::a[child::b]"
QUERY_2 = "child::c[child::b]"


def verdict(outcome) -> str:
    """One line per answer: the problem, its verdict, the solver time and the
    witness document, if any."""
    status = "holds" if outcome.holds else "does not hold"
    witness = "" if outcome.counterexample is None else f"; witness: {outcome.counterexample}"
    return f"{outcome.problem}: {status} ({outcome.time_ms:.1f} ms){witness}"


def main() -> None:
    print("query 1:", QUERY_1)
    print("query 2:", QUERY_2)
    print()
    print("translation of query 1:", format_formula(compile_xpath(QUERY_1)))
    print("translation of query 2:", format_formula(compile_xpath(QUERY_2)))
    print()

    analyzer = StaticAnalyzer()
    outcome = analyzer.solve(Query.containment(QUERY_1, QUERY_2))
    print(verdict(outcome))
    stats = outcome.statistics
    print(f"lean size: {stats['lean_size']}, fixpoint iterations: {stats['iterations']}")

    document = parse_tree(outcome.counterexample)
    print("counterexample document:", serialize_tree(document))
    print("pretty-printed:")
    print(serialize_tree(document, indent=2))

    # Double-check the counterexample against the XPath interpreter: the first
    # query selects a node that the second one misses.
    selected_1 = select(parse_xpath(QUERY_1), document)
    selected_2 = select(parse_xpath(QUERY_2), document)
    print("selected by query 1:", sorted(f.name for f in selected_1))
    print("selected by query 2:", sorted(f.name for f in selected_2))

    # The reverse containment does not hold either.
    print(verdict(analyzer.solve(Query.containment(QUERY_2, QUERY_1))))


if __name__ == "__main__":
    main()
