"""Type-constrained analysis with the Wikipedia DTD (Figures 12-14 of the paper).

Shows the whole regular-tree-type pipeline — DTD, binary type grammar, Lµ
formula — and uses the type as a constraint for XPath decision problems
(Section 8): satisfiability, emptiness and containment *under* a DTD.

Run with::

    python examples/wikipedia_types.py
"""

from repro import Query, StaticAnalyzer, builtin_dtd, dtd_accepts, parse_tree, serialize_tree
from repro.logic.printer import format_formula_pretty
from repro.xmltypes.binarize import binarize_dtd
from repro.xmltypes.compile import compile_grammar


def verdict(outcome) -> str:
    """One line per answer: the problem, its verdict, the solver time and the
    witness document, if any."""
    status = "holds" if outcome.holds else "does not hold"
    witness = "" if outcome.counterexample is None else f"; witness: {outcome.counterexample}"
    return f"{outcome.problem}: {status} ({outcome.time_ms:.1f} ms){witness}"


def main() -> None:
    dtd = builtin_dtd("wikipedia")
    print(f"Wikipedia DTD fragment: {dtd.symbol_count()} element symbols, root <{dtd.root}>")
    print()

    # Figure 13: the binary encoding of the DTD.
    grammar = binarize_dtd(dtd).restricted_to_reachable()
    print("binary tree type grammar (Figure 13):")
    print(grammar.describe())
    print()

    # Figure 14: the Lµ formula of the type.
    print("Lµ formula (Figure 14):")
    print(format_formula_pretty(compile_grammar(grammar)))
    print()

    analyzer = StaticAnalyzer()

    # Queries consistent with the DTD are satisfiable under it, and the solver
    # produces a witness document that really validates.
    satisfiable = analyzer.solve(
        Query.satisfiability("child::meta/child::history/child::edit", dtd)
    )
    print(verdict(satisfiable))
    witness = parse_tree(satisfiable.counterexample)
    print("witness document:", serialize_tree(witness))
    print("witness validates against the DTD:", dtd_accepts(dtd, witness.unmark_all()))
    print()

    # Queries that contradict the DTD are reported empty.
    print(verdict(analyzer.solve(Query.emptiness("child::title/child::meta", dtd))))
    print(verdict(analyzer.solve(Query.emptiness("child::meta[redirect]", dtd))))
    print()

    # Containment that only holds thanks to the type constraint: every history
    # element has at least one edit child.
    with_type = analyzer.solve(
        Query.containment("child::history", "child::history[edit]", dtd, dtd)
    )
    without_type = analyzer.solve(Query.containment("child::history", "child::history[edit]"))
    print("under the DTD:   ", verdict(with_type))
    print("without the DTD: ", verdict(without_type))


if __name__ == "__main__":
    main()
