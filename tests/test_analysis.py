"""Tests of the decision problems of Section 8 (analysis API)."""

import pytest

from repro.analysis import (
    Analyzer,
    check_containment,
    check_coverage,
    check_emptiness,
    check_equivalence,
    check_overlap,
    check_satisfiability,
    check_type_inclusion,
)
from repro.analysis.problems import Rooted, rooted
from repro.api import KINDS, Query, StaticAnalyzer
from repro.core.errors import ParseError, UnsupportedTypeError
from repro.trees.unranked import serialize_tree
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import wikipedia_dtd
from repro.xmltypes.membership import dtd_accepts
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import select

from conftest import WILDCARD_LABEL, assert_genuine_counterexample

SIMPLE_DTD = parse_dtd(
    "<!ELEMENT r (a*, b?)><!ELEMENT a (c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
    root="r",
)


def test_satisfiability_and_emptiness_without_type():
    assert check_satisfiability("child::a").holds
    assert not check_emptiness("child::a").holds
    # self::a intersected with self::b can never select anything.
    assert check_emptiness("self::a ∩ self::b").holds


def test_satisfiability_under_type_constraint():
    # Under the simple DTD, an "a" node always has a "c" child ...
    assert check_satisfiability("child::a[c]", SIMPLE_DTD).holds
    # ... and never has a "b" child.
    assert check_emptiness("child::a[b]", SIMPLE_DTD).holds


def test_containment_positive_and_negative():
    assert check_containment("child::a", "child::*").holds
    negative = check_containment("child::*", "child::a")
    assert not negative.holds
    assert_genuine_counterexample(negative)


def test_containment_counterexample_is_genuine():
    result = check_containment("child::c/preceding-sibling::a[child::b]", "child::c[child::b]")
    assert not result.holds
    document = assert_genuine_counterexample(result)
    bigger = select(parse_xpath("child::c/preceding-sibling::a[child::b]"), document)
    smaller = select(parse_xpath("child::c[child::b]"), document)
    assert bigger - smaller, "counterexample does not separate the two queries"


def test_containment_under_types():
    # Under the DTD the only children an "a" element may have are "c" elements,
    # so the containment holds with the type constraint and fails without it.
    assert check_containment(
        "child::a/child::*", "child::a/child::c", type1=SIMPLE_DTD, type2=SIMPLE_DTD
    ).holds
    assert not check_containment("child::a/child::*", "child::a/child::c").holds


def test_equivalence():
    forward, backward = check_equivalence("child::a[b]", "child::a[child::b]")
    assert forward.holds and backward.holds
    forward, backward = check_equivalence("child::a", "child::*")
    assert forward.holds and not backward.holds


def test_overlap():
    assert check_overlap("child::a", "child::*[not(b)]").holds
    assert not check_overlap("child::a", "child::b").holds


def test_coverage():
    assert check_coverage("child::*", ["child::a", "child::*[not(self::a)]"]).holds
    result = check_coverage("child::*", ["child::a", "child::b"])
    assert not result.holds
    assert_genuine_counterexample(result)


def test_type_inclusion():
    output_type = parse_dtd("<!ELEMENT a (c)><!ELEMENT c EMPTY>", root="a")
    assert check_type_inclusion("child::a", SIMPLE_DTD, output_type).holds
    wrong_output = parse_dtd("<!ELEMENT a EMPTY>", root="a")
    assert not check_type_inclusion("child::a", SIMPLE_DTD, wrong_output).holds


def test_analyzer_describe_and_timing():
    result = Analyzer().containment("child::a", "child::*")
    assert result.time_ms >= 0.0
    assert "containment" in result.describe()


def test_analyzer_accepts_parsed_expressions_and_formulas():
    from repro.xmltypes.compile import compile_dtd

    expr = parse_xpath("child::a")
    type_formula = compile_dtd(SIMPLE_DTD)
    assert Analyzer().satisfiability(expr, type_formula).holds


# -- Analyzer and check_* wrap StaticAnalyzer ------------------------------------------

SIMPLE_OUTPUT = parse_dtd("<!ELEMENT a (c)><!ELEMENT c EMPTY>", root="a")

#: One type constraint of each shape the analysis accepts.
PARITY_TYPES = {
    "none": None,
    "dtd": SIMPLE_DTD,
    "formula": rooted(SIMPLE_DTD),
    "rooted": Rooted(SIMPLE_DTD),
}


def _parity_args(kind, xml_type):
    """Arguments of ``Analyzer.<kind>`` and ``Query.<kind>`` (same order)."""
    return {
        "satisfiability": ("descendant::a[c]", xml_type),
        "emptiness": ("descendant::a[b]", xml_type),
        "containment": ("descendant::*", "descendant::a", xml_type, xml_type),
        "equivalence": ("descendant::a[c]", "descendant::a", xml_type, xml_type),
        "overlap": ("descendant::a", "descendant::*[c]", xml_type, xml_type),
        "coverage": (
            "descendant::*",
            ["descendant::a", "descendant::c"],
            xml_type,
            [xml_type, xml_type],
        ),
        "type_inclusion": ("descendant::a", xml_type, SIMPLE_OUTPUT),
    }[kind]


@pytest.mark.parametrize("type_name", list(PARITY_TYPES))
@pytest.mark.parametrize("kind", KINDS)
def test_analyzer_matches_static_analyzer(kind, type_name):
    """Every kind under every type shape: the one-shot wrapper answers with
    the verdict, Lean and witness of the production analyzer."""
    args = _parity_args(kind, PARITY_TYPES[type_name])
    result = getattr(Analyzer(), kind)(*args)
    outcome = StaticAnalyzer().solve(getattr(Query, kind)(*args))
    assert outcome.definite
    pairs = zip(result, outcome.parts) if kind == "equivalence" else [(result, outcome)]
    for wrapped, expected in pairs:
        assert wrapped.holds == expected.holds
        assert wrapped.statistics["lean_size"] == expected.statistics["lean_size"]
        witness = wrapped.counterexample
        assert (None if witness is None else serialize_tree(witness)) == (
            expected.counterexample
        )


def test_analyzer_input_errors_raise():
    """Unlike StaticAnalyzer.solve, the one-shot helpers raise on bad input."""
    with pytest.raises(ParseError):
        check_containment("child::a[", "child::a")
    with pytest.raises(UnsupportedTypeError):
        check_satisfiability("child::a", object())


def test_analyzer_lifts_rooted_witnesses_below_the_document_node():
    wikipedia = wikipedia_dtd()
    result = Analyzer().satisfiability("/article/meta/title", Rooted(wikipedia))
    assert result.holds
    (root,) = result.counterexample.children
    assert WILDCARD_LABEL not in root.labels()
    assert dtd_accepts(wikipedia, root.unmark_all())


def test_same_typed_containment_conjoins_the_type_once():
    """Both sides under the Wikipedia DTD: the right side reuses the left
    side's type at the mark, so the Lean holds one closure of the schema."""
    wikipedia = wikipedia_dtd()
    result = check_containment(
        "child::history", "child::history[edit]", wikipedia, wikipedia
    )
    assert result.holds
    assert result.statistics["lean_size"] == 23
