"""Attribute-aware analysis end to end: ATTLIST parsing, the attribute
propositions of the logic, attribute steps in XPath, type projection, and
counterexample documents carrying attributes."""

import pytest

from repro import (
    Query,
    StaticAnalyzer,
    parse_dtd,
    parse_tree,
    serialize_tree,
)
from repro.analysis.problems import (
    Rooted,
    relevant_attributes,
    type_inclusion_attributes,
)
from repro.core.errors import ParseError
from repro.logic import syntax as sx
from repro.logic.closure import OTHER_ATTRIBUTE, lean
from repro.logic.negation import negate
from repro.logic.parser import parse_formula
from repro.logic.printer import format_formula
from repro.logic.semantics import satisfies
from repro.solver.explicit import ExplicitSolver
from repro.solver.symbolic import SymbolicSolver
from repro.trees.focus import focus_at
from repro.xmltypes.compile import attribute_constraints
from repro.xmltypes.dtd import IMPLIED, REQUIRED
from repro.xmltypes.library import smil_dtd, xhtml_core_dtd, xhtml_strict_dtd
from conftest import assert_genuine_counterexample, solve
from repro.xpath import ast as xp
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import select

MINI_DTD = """
<!ELEMENT doc (a | img)*>
<!ELEMENT a (a | img)*>
<!ELEMENT img EMPTY>
<!ATTLIST a href CDATA #IMPLIED
            name CDATA #IMPLIED>
<!ATTLIST img src CDATA #REQUIRED
              alt CDATA #REQUIRED
              align (top|middle|bottom) "middle">
"""


@pytest.fixture(scope="module")
def mini():
    return parse_dtd(MINI_DTD, root="doc", name="mini")


# -- ATTLIST parsing -----------------------------------------------------------


def test_attlist_declarations_are_parsed(mini):
    a_attrs = {decl.name: decl for decl in mini.attributes_of("a")}
    assert set(a_attrs) == {"href", "name"}
    assert a_attrs["href"].default == IMPLIED and not a_attrs["href"].required

    img_attrs = {decl.name: decl for decl in mini.attributes_of("img")}
    assert img_attrs["src"].default == REQUIRED and img_attrs["src"].required
    assert img_attrs["align"].attribute_type == "enumeration"
    assert img_attrs["align"].values == ("top", "middle", "bottom")
    assert img_attrs["align"].value == "middle" and not img_attrs["align"].required

    assert mini.required_attributes("img") == ("src", "alt")
    assert mini.attribute_names() == ("align", "alt", "href", "name", "src")
    assert not mini.attributes_of("doc")


def test_attlist_default_value_may_contain_gt():
    # '>' is legal inside a quoted AttValue (XML 1.0); the declaration must
    # not be truncated at it.
    dtd = parse_dtd('<!ELEMENT a EMPTY>\n<!ATTLIST a title CDATA "x>y">', root="a")
    (declaration,) = dtd.attributes_of("a")
    assert declaration.name == "title" and declaration.value == "x>y"


def test_attlist_fixed_and_merging():
    dtd = parse_dtd(
        """
        <!ELEMENT r EMPTY>
        <!ATTLIST r xmlns CDATA #FIXED "urn:x">
        <!ATTLIST r id ID #IMPLIED xmlns CDATA #IMPLIED>
        """,
        root="r",
    )
    declarations = {decl.name: decl for decl in dtd.attributes_of("r")}
    # The first declaration of a name wins (XML 1.0 section 3.3).
    assert declarations["xmlns"].default == "#FIXED"
    assert declarations["xmlns"].value == "urn:x"
    assert set(declarations) == {"xmlns", "id"}


def test_attlists_survive_with_root(mini):
    rerooted = mini.with_root("a")
    assert rerooted.attributes_of("img") == mini.attributes_of("img")


def test_bundled_dtds_carry_real_attribute_lists():
    xhtml = xhtml_strict_dtd()
    assert xhtml.required_attributes("img") == ("src", "alt")
    assert xhtml.declares_attribute("a", "href")
    assert not xhtml.declares_attribute("br", "href")
    assert xhtml.declares_attribute("html", "xmlns")
    assert "xml:lang" in {decl.name for decl in xhtml.attributes_of("span")}
    assert xhtml_core_dtd().required_attributes("img") == ("src", "alt")
    # SMIL 1.0 requires href on anchors.
    assert smil_dtd().required_attributes("a") == ("href",)


# -- attribute propositions in the logic ---------------------------------------


def test_attribute_proposition_round_trips_through_printer_and_parser():
    formula = sx.mk_and(sx.prop("a"), sx.attr("href"))
    assert format_formula(formula) == "a & @href"
    assert parse_formula("a & @href") is formula
    assert parse_formula("~@href") is sx.nattr("href")
    assert parse_formula("@*") is sx.attr(sx.ANY_ATTRIBUTE)
    assert negate(sx.attr("x")) is sx.nattr("x")
    assert negate(sx.nattr(sx.ANY_ATTRIBUTE)) is sx.attr(sx.ANY_ATTRIBUTE)
    # Qualified names survive a print/parse round trip too.
    qualified = sx.mk_and(sx.prop("xsl:template"), sx.attr("xml:lang"))
    assert parse_formula(format_formula(qualified)) is qualified


def test_lean_allocates_attribute_bits_only_when_needed():
    plain = lean(sx.prop("a"))
    assert plain.attributes == ()
    with_attr = lean(sx.mk_and(sx.prop("a"), sx.attr("href")))
    assert with_attr.attributes == ("href", OTHER_ATTRIBUTE)
    wildcard_only = lean(sx.attr(sx.ANY_ATTRIBUTE))
    assert wildcard_only.attributes == (OTHER_ATTRIBUTE,)


def test_attribute_semantics_over_focused_trees():
    document = parse_tree('<r!><a href=""/><a/></r>')
    with_href = focus_at(document, (0,))
    without = focus_at(document, (1,))
    assert satisfies(sx.attr("href"), with_href)
    assert not satisfies(sx.attr("href"), without)
    assert satisfies(sx.attr(sx.ANY_ATTRIBUTE), with_href)
    assert satisfies(sx.nattr(sx.ANY_ATTRIBUTE), without)


def test_symbolic_and_explicit_solvers_agree_on_attribute_formulas():
    cases = [
        sx.mk_and(sx.prop("a"), sx.attr("x")),
        sx.mk_and(sx.attr("x"), sx.nattr("x")),
        sx.mk_and(sx.attr("x"), sx.nattr(sx.ANY_ATTRIBUTE)),
        sx.mk_and(sx.attr(sx.ANY_ATTRIBUTE), sx.nattr("x")),
        sx.mk_and(sx.prop("a"), sx.dia(1, sx.mk_and(sx.prop("b"), sx.attr("y")))),
    ]
    for formula in cases:
        symbolic = SymbolicSolver(formula).solve()
        explicit = ExplicitSolver(formula).solve()
        assert symbolic.satisfiable == explicit.satisfiable, format_formula(formula)
        if symbolic.satisfiable:
            assert symbolic.model is not None and explicit.model is not None


def test_wildcard_requires_an_actual_attribute_bit():
    # @* and "no attribute" are contradictory; @* with ¬@x is satisfiable via
    # the "other attribute" bit.
    assert not SymbolicSolver(
        sx.mk_and(sx.attr(sx.ANY_ATTRIBUTE), sx.nattr(sx.ANY_ATTRIBUTE))
    ).solve().satisfiable
    result = SymbolicSolver(
        sx.mk_and(sx.attr(sx.ANY_ATTRIBUTE), sx.nattr("x"))
    ).solve()
    assert result.satisfiable
    assert result.model.attributes == ("_",)


# -- attribute steps in XPath ---------------------------------------------------


def test_attribute_steps_parse():
    assert parse_xpath("a[@href]").path.qualifier == xp.QualifierPath(
        xp.AttributeStep("href")
    )
    assert parse_xpath("a/@href").path.second == xp.AttributeStep("href")
    assert parse_xpath("attribute::href") == parse_xpath("@href")
    assert parse_xpath("attribute::*") == parse_xpath("@*")
    assert parse_xpath("@xml:lang").path == xp.AttributeStep("xml:lang")


def test_attribute_step_must_be_trailing():
    with pytest.raises(ParseError, match="trailing"):
        parse_xpath("a/@href/b")
    with pytest.raises(ParseError, match="trailing"):
        parse_xpath("a[@href//b]")


def test_targeted_parse_errors():
    with pytest.raises(ParseError, match="positional predicates"):
        parse_xpath("a[1]")
    with pytest.raises(ParseError, match="outside the supported fragment"):
        parse_xpath("a[text()]")
    with pytest.raises(ParseError, match="attribute name"):
        parse_xpath("a[@]")
    with pytest.raises(ParseError, match="value comparisons"):
        parse_xpath('a[@href="x"]')


def test_attribute_selection_against_the_denotational_semantics():
    document = parse_tree('<doc!><a href=""><img src="" alt=""/></a><a/></doc>')
    selected = select(parse_xpath("a[@href]"), document)
    assert {focus.name for focus in selected} == {"a"}
    assert len(selected) == 1
    assert not select(parse_xpath("a[@nosuch]"), document)
    assert len(select(parse_xpath("a/img[@src and @alt]"), document)) == 1
    assert len(select(parse_xpath("a[not(@href)]"), document)) == 1
    assert len(select(parse_xpath(".//img/@src"), document)) == 1


def test_relevant_attributes_collects_names_and_wildcard():
    assert relevant_attributes("a[@href]", "//img[not(@alt)]") == ("alt", "href")
    assert relevant_attributes("a[@*]") == (OTHER_ATTRIBUTE,)
    assert relevant_attributes("a[b]") == ()


# -- type projection ------------------------------------------------------------


def test_attribute_constraints_projection(mini):
    constraints = attribute_constraints(mini, ("alt", "href"))
    # img requires alt; href is undeclared on img, forbidden.
    assert constraints["img"] is sx.mk_and(sx.attr("alt"), sx.nattr("href"))
    # a declares href (optional) but not alt.
    assert constraints["a"] is sx.nattr("alt")
    # doc declares nothing: both names forbidden.
    assert constraints["doc"] is sx.mk_and(sx.nattr("alt"), sx.nattr("href"))
    assert attribute_constraints(mini, ()) == {}


def test_attribute_constraints_wildcard_marker(mini):
    constraints = attribute_constraints(mini, (OTHER_ATTRIBUTE,))
    # img has required attributes outside the named alphabet: marker forced on.
    assert constraints["img"] is sx.attr(OTHER_ATTRIBUTE)
    # doc declares nothing at all: marker forced off.
    assert constraints["doc"] is sx.nattr(OTHER_ATTRIBUTE)
    # a declares only optional attributes outside the alphabet: marker free.
    assert "a" not in constraints


# -- decision problems ----------------------------------------------------------


def test_satisfiability_and_emptiness_with_attributes(mini):
    analyzer = StaticAnalyzer()
    outcome = solve(Query.satisfiability("//a[@href]", Rooted(mini)), analyzer)
    assert outcome.holds
    witness = assert_genuine_counterexample(outcome, mini, exprs=("//a[@href]",))
    assert 'href=""' in serialize_tree(witness)
    # The witness genuinely selects under the denotational semantics.
    assert select(parse_xpath("//a[@href]"), witness)
    # An attribute declared nowhere renders the query empty.
    assert solve(Query.emptiness("//a[@nosuch]", Rooted(mini)), analyzer).holds


def test_required_attribute_containment(mini):
    analyzer = StaticAnalyzer()
    constrained = Rooted(mini)
    assert solve(
        Query.containment("//img", "//img[@alt]", constrained, constrained), analyzer
    ).holds
    # Optional attributes do not support the containment; the counterexample
    # exhibits an anchor without href.
    outcome = solve(
        Query.containment("//a", "//a[@href]", constrained, constrained), analyzer
    )
    assert not outcome.holds
    counterexample = assert_genuine_counterexample(
        outcome, mini, exprs=("//a", "//a[@href]")
    )
    selected_left = select(parse_xpath("//a"), counterexample)
    selected_right = select(parse_xpath("//a[@href]"), counterexample)
    assert selected_left and not (selected_left <= selected_right)


def test_required_attribute_is_never_absent(mini):
    analyzer = StaticAnalyzer()
    assert not solve(
        Query.satisfiability("//img[not(@alt)]", Rooted(mini)), analyzer
    ).holds
    assert not solve(
        Query.satisfiability("//img[not(@*)]", Rooted(mini)), analyzer
    ).holds


def test_type_inclusion_respects_required_attributes(mini):
    # The negated output type is a predicate on subtrees, so its #REQUIRED
    # attributes matter even when the query never mentions them.
    analyzer = StaticAnalyzer()
    img_type = mini.with_root("img")
    # An attribute-free input admits an alt-less img: inclusion must fail.
    outcome = solve(Query.type_inclusion(".//img[not(*)]", None, img_type), analyzer)
    assert not outcome.holds
    # The same DTD as input supplies src/alt on every img: inclusion holds.
    assert solve(Query.type_inclusion(".//img", mini, img_type), analyzer).holds
    # The alphabet covers the DTDs' required and asymmetric declared names.
    alphabet = type_inclusion_attributes(".//img", mini, img_type)
    assert {"src", "alt"} <= set(alphabet)
    stripped = parse_dtd("<!ELEMENT img EMPTY>", root="img", name="bare")
    assert "href" in type_inclusion_attributes(".//img", mini, stripped)
    # The declared-name comparison is per element: the output declaring the
    # same name on a *different* element does not admit it on this one.
    input_dtd = parse_dtd(
        "<!ELEMENT doc (a)*><!ELEMENT a EMPTY><!ATTLIST a x CDATA #IMPLIED>",
        root="doc",
    )
    output_dtd = parse_dtd(
        "<!ELEMENT a (img)*><!ELEMENT img EMPTY><!ATTLIST img x CDATA #IMPLIED>",
        root="a",
    )
    assert "x" in type_inclusion_attributes(".//a", input_dtd, output_dtd)
    outcome = solve(Query.type_inclusion(".//a", input_dtd, output_dtd), analyzer)
    assert not outcome.holds  # <a x=""/> is valid input but invalid output


def test_api_facade_answers_attribute_queries(mini):
    # Queries relative to the marked (typed) node: the type translation of
    # Section 5.2 leaves the context of the typed node unconstrained, so
    # absolute queries could select nodes outside the typed subtree.
    analyzer = StaticAnalyzer()
    report = analyzer.solve_many(
        [
            Query.containment(".//img", ".//img[@alt]", mini, mini),
            Query.satisfiability(".//a[@href]", mini),
            Query.emptiness(".//a[@nosuch]/a", mini),
        ]
    )
    containment, satisfiability, emptiness = report.outcomes
    assert containment.holds
    assert satisfiability.holds
    assert 'href=""' in satisfiability.counterexample
    # .//a[@nosuch]/a navigates below the attribute-less match: empty.
    assert emptiness.holds
    # The same queries again are answered entirely from the solve cache.
    again = analyzer.solve_many([Query.satisfiability(".//a[@href]", mini)])
    assert again.cache_hits == 1 and again.solver_runs == 0


def test_absolute_anchors_ignore_non_first_siblings():
    # Regression: "top level" must mean "no parent AND no previous sibling"
    # (transitively); ¬⟨1̄⟩⊤ alone also holds at every non-first sibling, which
    # used to anchor absolute paths at arbitrary inner nodes.
    from repro.logic.semantics import models_of
    from repro.trees.focus import all_focuses
    from repro.xpath.compile import compile_xpath
    from repro.xpath.semantics import evaluate_xpath

    for query, text in [
        (".//b[/c]", "<r!><a/><x><c/><b/></x></r>"),
        ("/c", "<r><a/><x><c!/></x></r>"),
        ("/x/c", "<r><a/><x><c!/></x></r>"),
        (".//b[//c]", "<r!><a/><x><c/><b/></x></r>"),
    ]:
        document = parse_tree(text)
        denotational = evaluate_xpath(
            parse_xpath(query), frozenset(all_focuses(document))
        )
        logical = models_of(compile_xpath(query), [document])
        assert denotational == logical, (query, text)


def test_absolute_qualifier_anchors_at_the_root():
    # a[//b] per XPath 1.0: the *document* must contain a b.
    document_without = parse_tree("<r!><x><a/></x></r>")
    assert not select(parse_xpath(".//a[//b]"), document_without)
    document_with = parse_tree("<r!><x><a/></x><b/></r>")
    assert select(parse_xpath(".//a[//b]"), document_with)
    # The translation agrees: a[//b] is satisfiable, a[//b] with a b-free
    # document type is not.
    analyzer = StaticAnalyzer()
    assert solve(Query.satisfiability("//a[//b]"), analyzer).holds
    b_free = parse_dtd("<!ELEMENT r (a)*><!ELEMENT a EMPTY>", root="r")
    assert not solve(Query.satisfiability("//a[//b]", Rooted(b_free)), analyzer).holds
    # The relative reading is strictly stronger than the absolute one.
    assert solve(Query.containment(".//a[.//b]", ".//a[//b]"), analyzer).holds
    assert not solve(Query.containment(".//a[//b]", ".//a[.//b]"), analyzer).holds


@pytest.mark.slow
def test_xhtml_core_attribute_analyses():
    analyzer = StaticAnalyzer()
    xhtml = xhtml_core_dtd()
    constrained = Rooted(xhtml)
    assert solve(
        Query.containment("//img", "//img[@alt]", constrained, constrained), analyzer
    ).holds
    # Anchors with href can still be nested under the (structural) XHTML
    # rules, through an intermediate inline element — the attribute-aware
    # variant of the paper's e8 analysis.
    nested = solve(
        Query.satisfiability("descendant::a[@href][ancestor::a[@href]]", Rooted(xhtml)),
        analyzer,
    )
    assert nested.holds
    assert 'href=""' in nested.counterexample


@pytest.mark.slow
def test_smil_requires_href_on_anchors():
    analyzer = StaticAnalyzer()
    smil = smil_dtd()
    assert not solve(
        Query.satisfiability("//a[not(@href)]", Rooted(smil)), analyzer
    ).holds
    assert solve(Query.satisfiability("//a[@href]", Rooted(smil)), analyzer).holds


def test_witness_never_decorates_undeclared_elements_with_attributes():
    """Regression (fuzz seed 7, trial 154): ``attribute_constraints`` only
    constrained *declared* elements, so an element a content model references
    without declaring (valid only as an empty node) could carry an attribute
    in a witness — which ``membership.dtd_attribute_violations`` rejects.
    Referenced-but-undeclared elements now get the same ``¬@a`` pins as an
    attribute-free declaration."""
    dtd = parse_dtd("<!ELEMENT b (a)>", root="b")
    outcome = StaticAnalyzer().solve(
        Query.containment("parent::a/descendant::*", "desc-or-self::a/@p", dtd, dtd)
    )
    assert outcome.holds is False
    assert outcome.counterexample is not None
    assert 'p="' not in outcome.counterexample
