"""Tests for the document-rooted type wrapper (:class:`repro.analysis.problems.Rooted`).

``Rooted(T)`` anchors the marked context node at a virtual document node
above the typed root element, so absolute expressions read as whole-document
paths (the data model XSLT patterns are defined over).  These tests pin the
semantics against the small Wikipedia schema, the wire spellings
(``"rooted:NAME"`` / ``{"rooted": ...}``), and the analyzer plumbing
(cache keys, label projection, parallel safety).
"""

import pytest

from repro.analysis.problems import Rooted, label_projection, type_inclusion_attributes
from repro.api import Query, StaticAnalyzer, _describe_type
from repro.cli import wire
from repro.trees.unranked import parse_tree
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import builtin_dtd
from repro.xmltypes.membership import dtd_accepts, dtd_attribute_violations

ROOTED = Rooted("wikipedia")


@pytest.fixture(scope="module")
def analyzer() -> StaticAnalyzer:
    return StaticAnalyzer()


# ---------------------------------------------------------------------------
# Semantics against the Wikipedia schema
# (article -> (meta, (text|redirect)); meta -> (title, history?);
#  history -> edit+; edit -> (status?, comment?))
# ---------------------------------------------------------------------------


def _solve(analyzer, query):
    outcome = analyzer.solve(query)
    assert outcome.ok, outcome.error
    return outcome


def test_root_element_is_the_document_nodes_only_child(analyzer):
    assert _solve(analyzer, Query.satisfiability("/article", ROOTED)).holds
    # ...and only the designated root can sit there.
    assert not _solve(analyzer, Query.satisfiability("/meta", ROOTED)).holds
    # The document node has exactly one child: no second top-level element.
    assert not _solve(analyzer, Query.satisfiability("/article/article", ROOTED)).holds


def test_descendant_queries_read_whole_document(analyzer):
    assert _solve(analyzer, Query.satisfiability("//title", ROOTED)).holds
    assert _solve(
        analyzer, Query.satisfiability("/article/meta/history/edit/comment", ROOTED)
    ).holds


def test_document_node_pattern_selects_exactly_the_document_node(analyzer):
    # "/" parses to /self::* — satisfiable only under the rooted reading.
    assert _solve(analyzer, Query.satisfiability("/self::*", ROOTED)).holds
    # The document node has no element children named like grandchildren.
    assert not _solve(analyzer, Query.satisfiability("/self::*/title", ROOTED)).holds


#: Queries that only a named or attributed document node could satisfy,
#: with the type they are asked under and whether they are empty.  The
#: wildcard ``/self::*`` still selects the document node.
DOCUMENT_NODE_QUERIES = [
    ("/article[parent::meta]", "wikipedia", True),
    ("//title[ancestor::text]", "wikipedia", True),
    ("/self::meta", "wikipedia", True),
    ("/self::*[@href]", "xhtml-core", True),
    ("/html[parent::*[@*]]", "xhtml-core", True),
    ("/self::*", "wikipedia", False),
]


@pytest.mark.parametrize(
    "expr, schema, empty", DOCUMENT_NODE_QUERIES, ids=[q[0] for q in DOCUMENT_NODE_QUERIES]
)
def test_document_node_is_not_an_element(analyzer, expr, schema, empty):
    """No name test and no attribute test selects the document node."""
    outcome = _solve(analyzer, Query.emptiness(expr, Rooted(schema)))
    assert outcome.holds is empty, outcome.counterexample
    if not empty:
        document = parse_tree(outcome.counterexample)
        assert document.label == "_" and not document.attributes


def test_emptiness_under_rooted_type(analyzer):
    # redirect is declared EMPTY: nothing below it.
    assert _solve(analyzer, Query.emptiness("//redirect/title", ROOTED)).holds
    assert not _solve(analyzer, Query.emptiness("//edit", ROOTED)).holds


def test_containment_under_rooted_types(analyzer):
    # edit occurs only inside history.
    assert _solve(
        analyzer, Query.containment("//edit", "//history/edit", ROOTED, ROOTED)
    ).holds
    # title occurs outside history (meta/title), so the reverse framing fails.
    assert not _solve(
        analyzer, Query.containment("//title", "//history//title", ROOTED, ROOTED)
    ).holds


def test_coverage_under_rooted_types(analyzer):
    covered = Query.coverage("//edit", ["//history/edit"], ROOTED, [ROOTED])
    assert _solve(analyzer, covered).holds
    gap = Query.coverage("//edit", ["//edit[status]"], ROOTED, [ROOTED])
    outcome = _solve(analyzer, gap)
    assert not outcome.holds
    assert outcome.counterexample is not None  # a status-less edit witness


def test_rooted_witnesses_are_lifted_below_the_document_node(analyzer):
    """The document node carries no name (``_``); its only child, the root
    element, is lifted to concrete names and validates."""
    outcome = _solve(analyzer, Query.satisfiability("/article/text", ROOTED))
    document = parse_tree(outcome.counterexample)
    assert document.label == "_"
    (root,) = document.children
    assert all(node.label != "_" for node in root.iter_nodes())
    assert dtd_accepts(builtin_dtd("wikipedia"), root)


def test_same_typed_containment_translates_the_type_once():
    """The audit's ``tbody/tr ⊆ tr`` under XHTML 1.0 Strict: the right side
    reuses the left side's type constraint at the mark, so the Lean holds
    one closure of the schema — 59 formulas, against 92 when both sides
    translate the type."""
    strict = Rooted("xhtml-strict")
    outcome = StaticAnalyzer().solve(
        Query.containment(
            "/desc-or-self::*/child::tbody/child::tr",
            "/desc-or-self::*/child::tr",
            strict,
            strict,
        )
    )
    assert outcome.definite and outcome.holds
    assert outcome.statistics["lean_size"] == 59


# ---------------------------------------------------------------------------
# Construction and description
# ---------------------------------------------------------------------------


def test_rooted_rejects_nesting():
    with pytest.raises(TypeError):
        Rooted(Rooted("wikipedia"))


def test_describe_type_spells_rooted_prefix():
    assert _describe_type(Rooted("xhtml")) == "rooted:xhtml"
    assert _describe_type(Rooted(None)) == "rooted:"
    assert _describe_type(Rooted(builtin_dtd("wikipedia"))) == "rooted:wikipedia"


@pytest.mark.parametrize(
    "xml_type",
    [None, "wikipedia", ROOTED, Rooted(None)],
    ids=["none", "name", "rooted-name", "rooted-any"],
)
def test_query_as_dict_round_trips_through_the_wire(xml_type):
    query = Query.satisfiability("/article", xml_type)
    assert wire.query_from_dict(query.as_dict()) == query


# ---------------------------------------------------------------------------
# Wire spellings
# ---------------------------------------------------------------------------


def test_wire_rooted_string_prefix():
    assert wire.resolve_wire_type("rooted:wikipedia") == Rooted("wikipedia")
    assert wire.resolve_wire_type("rooted:") == Rooted(None)


def test_wire_rooted_object_wraps_inline_dtd():
    resolved = wire.resolve_wire_type(
        {"rooted": {"dtd": "<!ELEMENT a (b*)><!ELEMENT b EMPTY>", "root": "a"}}
    )
    assert isinstance(resolved, Rooted)
    assert resolved.xml_type.name == "inline"


def test_wire_rooted_rejects_nesting_and_extra_keys():
    with pytest.raises(wire.WireError):
        wire.resolve_wire_type("rooted:rooted:wikipedia")
    with pytest.raises(wire.WireError):
        wire.resolve_wire_type({"rooted": "rooted:wikipedia"})
    with pytest.raises(wire.WireError):
        wire.resolve_wire_type({"rooted": "wikipedia", "dtd": "<!ELEMENT a EMPTY>"})


def test_wire_query_round_trips_rooted_types():
    query = wire.query_from_dict(
        {
            "kind": "containment",
            "exprs": ["//edit", "//history/edit"],
            "types": ["rooted:wikipedia"],
        }
    )
    assert query.types == (Rooted("wikipedia"), Rooted("wikipedia"))


# ---------------------------------------------------------------------------
# StaticAnalyzer plumbing
# ---------------------------------------------------------------------------


def test_label_projection_unwraps_rooted():
    dtd = builtin_dtd("wikipedia")
    exprs = ["//history/edit"]
    # Mixing Rooted(T) and T is still one distinct schema: pruning applies.
    labels = label_projection(exprs, [Rooted(dtd), dtd])
    assert labels is not None
    assert set(labels) >= {"history", "edit"}


def test_type_cache_key_distinguishes_rooted_from_bare():
    analyzer = StaticAnalyzer()
    bare = analyzer.type_formula("wikipedia")
    assert analyzer.cache_statistics()["type_cache_entries"] == 1
    rooted = analyzer.type_formula(Rooted("wikipedia"))
    # The wrapper takes an entry of its own and reuses the bare translation.
    assert rooted is not bare
    assert analyzer.cache_statistics()["type_cache_entries"] == 2
    assert analyzer.type_formula(Rooted(builtin_dtd("wikipedia"))) is rooted
    assert analyzer.type_formula(builtin_dtd("wikipedia")) is bare
    assert analyzer.cache_statistics()["type_cache_entries"] == 2


def test_rooted_type_inclusion_names_the_inner_dtds_attributes():
    """Type inclusion's attribute alphabet comes from the DTD inside a
    Rooted type too; without it, both problems answered "holds"."""
    # An attribute the input type admits and the output type does not declare.
    doc = parse_dtd(
        "<!ELEMENT a (b*)><!ELEMENT b EMPTY><!ATTLIST b foo CDATA #IMPLIED>", name="t1"
    )
    bare_b = parse_dtd("<!ELEMENT b EMPTY>", name="t2")
    assert type_inclusion_attributes("//b", Rooted(doc), bare_b) == ("foo",)
    analyzer = StaticAnalyzer()
    bare = analyzer.solve(Query.type_inclusion(".//b", doc, bare_b))
    assert bare.definite and bare.holds is False
    assert bare.counterexample == '<a!><b foo=""/></a>'
    rooted = analyzer.solve(Query.type_inclusion("//b", Rooted(doc), bare_b))
    assert rooted.definite and rooted.holds is False
    (element,) = parse_tree(rooted.counterexample).children
    assert dtd_accepts(doc, element)
    assert element.children[0].attributes == ("foo",)
    # An attribute the output type requires and the input type leaves optional.
    optional = parse_dtd(
        "<!ELEMENT p (img*)><!ELEMENT img EMPTY><!ATTLIST img alt CDATA #IMPLIED>"
    )
    required = parse_dtd(
        "<!ELEMENT p (img*)><!ELEMENT img EMPTY><!ATTLIST img alt CDATA #REQUIRED>"
    )
    bare = analyzer.solve(Query.type_inclusion("self::*", optional, required))
    assert bare.definite and bare.holds is False
    assert bare.counterexample == "<p!><img/></p>"
    rooted = analyzer.solve(
        Query.type_inclusion("/self::*", Rooted(optional), Rooted(required))
    )
    assert rooted.definite and rooted.holds is False
    (element,) = parse_tree(rooted.counterexample).children
    assert dtd_accepts(optional, element) and dtd_accepts(required, element)
    assert not dtd_attribute_violations(optional, element)
    assert dtd_attribute_violations(required, element) == [
        "<img> is missing required attribute 'alt'"
    ]


def test_worker_pool_agrees_with_in_process_verdicts(analyzer):
    queries = [
        Query.satisfiability("/article", ROOTED),
        Query.emptiness("//redirect/title", ROOTED),
    ]
    expected = [analyzer.solve(query).holds for query in queries]
    fresh = StaticAnalyzer()
    batch = fresh.solve_many(queries, workers=2)
    assert [outcome.holds for outcome in batch.outcomes] == expected
