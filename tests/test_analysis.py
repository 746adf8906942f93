"""Tests of the decision problems of Section 8, asked through the analyzer."""

import pytest

from repro.analysis.problems import Rooted
from repro.api import KINDS, Query, StaticAnalyzer
from repro.trees.unranked import parse_tree
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import wikipedia_dtd
from repro.xmltypes.membership import dtd_accepts
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import select

from conftest import WILDCARD_LABEL, assert_genuine_counterexample, solve

SIMPLE_DTD = parse_dtd(
    "<!ELEMENT r (a*, b?)><!ELEMENT a (c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
    root="r",
)


def test_satisfiability_and_emptiness_without_type():
    assert solve(Query.satisfiability("child::a")).holds
    assert not solve(Query.emptiness("child::a")).holds
    # self::a intersected with self::b can never select anything.
    assert solve(Query.emptiness("self::a ∩ self::b")).holds


def test_satisfiability_under_type_constraint():
    # Under the simple DTD, an "a" node always has a "c" child ...
    assert solve(Query.satisfiability("child::a[c]", SIMPLE_DTD)).holds
    # ... and never has a "b" child.
    assert solve(Query.emptiness("child::a[b]", SIMPLE_DTD)).holds


def test_containment_positive_and_negative():
    assert solve(Query.containment("child::a", "child::*")).holds
    negative = solve(Query.containment("child::*", "child::a"))
    assert not negative.holds
    assert_genuine_counterexample(negative)


def test_containment_counterexample_is_genuine():
    outcome = solve(
        Query.containment("child::c/preceding-sibling::a[child::b]", "child::c[child::b]")
    )
    assert not outcome.holds
    document = assert_genuine_counterexample(outcome)
    bigger = select(parse_xpath("child::c/preceding-sibling::a[child::b]"), document)
    smaller = select(parse_xpath("child::c[child::b]"), document)
    assert bigger - smaller, "counterexample does not separate the two queries"


def test_containment_under_types():
    # Under the DTD the only children an "a" element may have are "c" elements,
    # so the containment holds with the type constraint and fails without it.
    assert solve(
        Query.containment("child::a/child::*", "child::a/child::c", SIMPLE_DTD, SIMPLE_DTD)
    ).holds
    assert not solve(Query.containment("child::a/child::*", "child::a/child::c")).holds


def test_equivalence():
    forward, backward = solve(Query.equivalence("child::a[b]", "child::a[child::b]")).parts
    assert forward.holds and backward.holds
    forward, backward = solve(Query.equivalence("child::a", "child::*")).parts
    assert forward.holds and not backward.holds


def test_overlap():
    assert solve(Query.overlap("child::a", "child::*[not(b)]")).holds
    assert not solve(Query.overlap("child::a", "child::b")).holds


def test_coverage():
    assert solve(Query.coverage("child::*", ["child::a", "child::*[not(self::a)]"])).holds
    outcome = solve(Query.coverage("child::*", ["child::a", "child::b"]))
    assert not outcome.holds
    assert_genuine_counterexample(outcome)


def test_type_inclusion():
    output_type = parse_dtd("<!ELEMENT a (c)><!ELEMENT c EMPTY>", root="a")
    assert solve(Query.type_inclusion("child::a", SIMPLE_DTD, output_type)).holds
    wrong_output = parse_dtd("<!ELEMENT a EMPTY>", root="a")
    assert not solve(Query.type_inclusion("child::a", SIMPLE_DTD, wrong_output)).holds


def test_outcome_names_the_problem_and_its_time():
    outcome = solve(Query.containment("child::a", "child::*"))
    assert outcome.time_ms >= 0.0
    assert outcome.problem == "containment child::a ⊆ child::*"


def test_query_refuses_a_parsed_expression():
    """A query is plain data: expressions are XPath text, never parsed ASTs."""
    with pytest.raises(ValueError, match="as text"):
        Query.satisfiability(parse_xpath("child::a"))
    with pytest.raises(ValueError, match="as text"):
        Query.coverage("child::*", [parse_xpath("child::a")])


# -- every kind under every type shape ------------------------------------------------

SIMPLE_OUTPUT = parse_dtd("<!ELEMENT a (c)><!ELEMENT c EMPTY>", root="a")

#: One type constraint of each shape the analysis accepts.
TYPE_SHAPES = {
    "none": None,
    "dtd": SIMPLE_DTD,
    "rooted": Rooted(SIMPLE_DTD),
}


def _shape_args(kind, xml_type):
    """Arguments of ``Query.<kind>`` under one type shape."""
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


@pytest.mark.parametrize("type_name", list(TYPE_SHAPES))
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_answers_under_every_type_shape(kind, type_name):
    """Every kind under every type shape answers definitely, and every
    witness is genuine: one start mark, and the typed subtree validates —
    under ``Rooted`` that is the marked document node's single child."""
    outcome = solve(getattr(Query, kind)(*_shape_args(kind, TYPE_SHAPES[type_name])))
    typed = None if type_name == "none" else SIMPLE_DTD
    for part in outcome.parts or [outcome]:
        assert part.definite
        if part.counterexample is not None:
            assert_genuine_counterexample(part, typed)


def test_input_errors_are_error_outcomes():
    """Bad input never raises out of ``solve``: it is an error outcome."""
    analyzer = StaticAnalyzer()
    parse_error = analyzer.solve(Query.containment("child::a[", "child::a"))
    assert parse_error.verdict_status == "error"
    assert parse_error.error_kind == "ParseError"
    bad_type = analyzer.solve(Query.satisfiability("child::a", object()))
    assert bad_type.verdict_status == "error"
    assert bad_type.error_kind == "UnsupportedTypeError"


def test_analyzer_lifts_rooted_witnesses_below_the_document_node():
    wikipedia = wikipedia_dtd()
    outcome = solve(Query.satisfiability("/article/meta/title", Rooted(wikipedia)))
    assert outcome.holds
    (root,) = parse_tree(outcome.counterexample).children
    assert WILDCARD_LABEL not in root.labels()
    assert dtd_accepts(wikipedia, root.unmark_all())


def test_same_typed_containment_conjoins_the_type_once():
    """Both sides under the Wikipedia DTD: the right side reuses the left
    side's type at the mark, so the Lean holds one closure of the schema."""
    wikipedia = wikipedia_dtd()
    outcome = solve(
        Query.containment("child::history", "child::history[edit]", wikipedia, wikipedia)
    )
    assert outcome.holds
    assert outcome.statistics["lean_size"] == 23
