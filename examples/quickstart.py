"""Quickstart: XPath containment, emptiness and counterexamples.

Run with::

    PYTHONPATH=src python examples/quickstart.py

Every decision problem is a :class:`repro.api.Query` answered by a
:class:`repro.api.StaticAnalyzer`, one at a time with ``solve`` or as a batch
with ``solve_many``.
"""

from repro import (
    Query,
    StaticAnalyzer,
    compile_xpath,
    format_formula,
    parse_xpath,
    select,
    parse_tree,
)


def verdict(outcome) -> str:
    """One line per answer: the problem, its verdict, the solver time and the
    witness document, if any."""
    status = "holds" if outcome.holds else "does not hold"
    witness = "" if outcome.counterexample is None else f"; witness: {outcome.counterexample}"
    return f"{outcome.problem}: {status} ({outcome.time_ms:.1f} ms){witness}"


def main() -> None:
    # 1. Evaluate an XPath expression on a document (the "!" marks the node
    #    where evaluation starts).
    document = parse_tree("<library!><book><title/></book><book/><journal/></library>")
    expr = parse_xpath("child::book[title]")
    print("selected nodes:", [focus.name for focus in select(expr, document)])

    # 2. Look at the µ-calculus formula the query compiles to.
    print("compiled formula:", format_formula(compile_xpath("child::book[title]")))

    # 3. Decide containment between two queries (no schema needed).
    analyzer = StaticAnalyzer()
    outcome = analyzer.solve(Query.containment("child::book[title]", "child::book"))
    print(verdict(outcome))

    # 4. A containment that does not hold comes with a counterexample document
    #    (serialized; parse_tree reads it back as a tree).
    outcome = analyzer.solve(Query.containment("child::book", "child::book[title]"))
    print(verdict(outcome))
    print("counterexample document:", outcome.counterexample)

    # 5. Emptiness and overlap.
    print(verdict(analyzer.solve(Query.emptiness("self::a ∩ self::b"))))
    print(verdict(analyzer.solve(Query.overlap("descendant::title", "book/title"))))

    # 6. Batches: one StaticAnalyzer shares type translations, query
    #    translations and solver verdicts across all queries it answers.
    report = analyzer.solve_many(
        [
            Query.satisfiability("child::meta/child::title", "wikipedia"),
            Query.emptiness("child::title/child::meta", "wikipedia"),
            Query.containment("child::history", "child::history[edit]", "wikipedia", "wikipedia"),
            # Duplicate of the first query: answered from the solve cache.
            Query.satisfiability("child::meta/child::title", "wikipedia"),
        ]
    )
    for outcome in report.outcomes:
        cached = " (cached)" if outcome.from_cache else ""
        print(f"{outcome.problem}: holds={outcome.holds}{cached}")
    print(
        f"batch: {len(report.outcomes)} queries, {report.solver_runs} solver runs, "
        f"{report.cache_hits} cache hits, {report.total_seconds * 1000:.1f} ms"
    )


if __name__ == "__main__":
    main()
