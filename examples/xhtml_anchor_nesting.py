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
* with the type read as a whole document (``repro.analysis.problems.Rooted``:
  the context node is a document node above the root element, with no name
  of its own, printed ``<_!>``), which is the reading under which the
  analysis says something interesting about the schema itself: nesting must
  then happen through an intermediate inline element.

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
from repro.analysis.problems import Rooted

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
    witness document, if any.  An outcome without a verdict (bad input, or a
    budget that ran out) prints its status and why instead."""
    if outcome.error is not None:
        return f"{outcome.problem}: error ({outcome.error_kind}: {outcome.error})"
    if not outcome.definite:
        return f"{outcome.problem}: unknown ({outcome.budget_reason} budget)"
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

    anchored = analyzer.solve(Query.satisfiability(QUERY, Rooted(xhtml)))
    print("type constraint read as a whole document:")
    print(" ", verdict(anchored))
    if anchored.counterexample is not None:
        witness = parse_tree(anchored.counterexample)
        print("witness document (anchors nested through an intermediate inline element):")
        print(serialize_tree(witness, indent=2))
        (root,) = witness.children  # the root element, below the document node
        print("witness validates against the DTD:", dtd_accepts(xhtml, root))
    print()

    # The same query over whole documents of a schema with no loophole is
    # unsatisfiable.
    repaired = parse_dtd(STRICT_ANCHORS, root="html", name="no-nesting")
    print("under the repaired schema, read as a whole document:")
    print(" ", verdict(analyzer.solve(Query.satisfiability(QUERY, Rooted(repaired)))))


if __name__ == "__main__":
    main()
