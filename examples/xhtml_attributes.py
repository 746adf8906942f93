"""Attribute-aware analyses over the XHTML schema.

The paper's XPath fragment ignores attributes; this reproduction follows the
companion thesis ("Logics for XML") and models attribute *presence* as
propositions on elements, with the DTD's ``<!ATTLIST ...>`` declarations
compiled into required/forbidden-attribute constraints.  Three analyses a
schema-aware editor would ask:

1. accessibility — does every ``img`` carry an ``alt`` text?  (Yes: the DTD
   declares ``alt`` ``#REQUIRED``, so the containment holds.)
2. dead links — can an ``a`` lack ``@href``?  (Yes: ``href`` is optional on
   anchors; the analysis exhibits a counterexample document.)
3. nested links — can an ``a[@href]`` be nested inside another ``a[@href]``?
   (Yes: the DTD only forbids *direct* nesting, and the solver shows the
   loophole, attributes included.)

Run with::

    python examples/xhtml_attributes.py
"""

from repro import Query, StaticAnalyzer, builtin_dtd, parse_tree, serialize_tree
from repro.analysis.problems import Rooted


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
    # Whole documents of the reduced structural subset of XHTML Strict (the
    # witnesses' <_!> is the document node); switch to builtin_dtd("xhtml")
    # for the full 77-element DTD (much slower).
    xhtml = Rooted(builtin_dtd("xhtml-core"))

    print("1. every img carries a required alt attribute:")
    outcome = analyzer.solve(Query.containment("//img", "//img[@alt]", xhtml, xhtml))
    print("  ", verdict(outcome))

    print("2. anchors may lack href (counterexample shown):")
    outcome = analyzer.solve(Query.containment("//a", "//a[@href]", xhtml, xhtml))
    print("  ", verdict(outcome))

    print("3. an a[@href] nested inside another a[@href] is still possible:")
    outcome = analyzer.solve(
        Query.satisfiability("descendant::a[@href][ancestor::a[@href]]", xhtml)
    )
    print("  ", verdict(outcome))
    if outcome.counterexample is not None:
        print("   witness document:")
        print(serialize_tree(parse_tree(outcome.counterexample), indent=2))


if __name__ == "__main__":
    main()
