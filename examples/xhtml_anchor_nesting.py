"""The XHTML anchor-nesting analysis (query e8 of the paper's evaluation).

The XHTML 1.0 Strict DTD forbids an ``a`` element *directly* inside another
``a`` element, but the paper's query e8, ``descendant::a[ancestor::a]``, is
satisfiable under the DTD: anchors can still be nested through an ``object``
element.  This example reproduces that analysis and exhibits a witness
document, then shows that a repaired schema (without the loophole) makes the
query unsatisfiable.

Two variants are run:

* with the type constraint exactly as in Section 5.2 (the context above the
  typed node is unconstrained, so an ``a`` ancestor *outside* the document is
  enough);
* with the type anchored at the document root (``repro.analysis.problems.rooted``),
  which is the reading under which the analysis says something interesting
  about the schema itself: nesting must then happen through ``object``.

Run with::

    python examples/xhtml_anchor_nesting.py
"""

from repro import (
    Query,
    StaticAnalyzer,
    builtin_dtd,
    dtd_accepts,
    parse_dtd,
    parse_tree,
    serialize_tree,
)
from repro.analysis.problems import rooted

QUERY = "descendant::a[ancestor::a]"

#: A small anchor-only schema without the object loophole, used as contrast.
STRICT_ANCHORS = """
<!ELEMENT html (body)>
<!ELEMENT body (p)*>
<!ELEMENT p (a | span)*>
<!ELEMENT a (span)*>
<!ELEMENT span (#PCDATA)>
"""


def verdict(outcome) -> str:
    """One line per answer: the problem, its verdict, the solver time and the
    witness document, if any."""
    status = "holds" if outcome.holds else "does not hold"
    witness = "" if outcome.counterexample is None else f"; witness: {outcome.counterexample}"
    return f"{outcome.problem}: {status} ({outcome.time_ms:.1f} ms){witness}"


def main() -> None:
    analyzer = StaticAnalyzer()

    # Use the reduced structural subset of XHTML Strict by default; switch to
    # builtin_dtd("xhtml") for the full 77-element DTD (much slower).
    xhtml = builtin_dtd("xhtml-core")
    print(f"query: {QUERY}")

    unanchored = analyzer.solve(Query.satisfiability(QUERY, xhtml))
    print("type constraint as in §5.2 (context unconstrained):")
    print(" ", verdict(unanchored))

    anchored = analyzer.solve(Query.satisfiability(QUERY, rooted(xhtml)))
    print("type constraint anchored at the document root:")
    print(" ", verdict(anchored))
    if anchored.counterexample is not None:
        witness = parse_tree(anchored.counterexample)
        print("witness document (anchors nested through an intermediate inline element):")
        print(serialize_tree(witness, indent=2))
        print("witness validates against the DTD:", dtd_accepts(xhtml, witness.unmark_all()))
    print()

    # The same query under a root-anchored schema with no loophole is unsatisfiable.
    repaired = parse_dtd(STRICT_ANCHORS, root="html", name="no-nesting")
    print("under the repaired, root-anchored schema:")
    print(" ", verdict(analyzer.solve(Query.satisfiability(QUERY, rooted(repaired)))))


if __name__ == "__main__":
    main()
