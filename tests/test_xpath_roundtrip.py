"""Parse→print→parse round-trip property of the XPath printer.

The printer must be the left inverse of the parser up to AST equality:
``parse_xpath(str(e)) == e`` for every expression the fragment accepts.  This
caught a real precedence bug — ``a[(b or c) and d]`` used to print as
``a[b or c and d]``, which re-parses as ``a[b or (c and d)]``.
"""

import pytest

from repro.analysis.problems import FIGURE_21
from repro.xpath import ast as xp
from repro.xpath.parser import parse_xpath

#: The bench-query corpus: every Figure 21 query plus expressions exercising
#: each printer production (qualifier precedence, attributes, absolute
#: qualifier paths, unions, intersections, qualified names).
CORPUS = list(FIGURE_21.values()) + [
    "a[(b or c) and d]",
    "a[b or (c and d)]",
    "a[(b or c) and (d or e)]",
    "a[not(b or c) and d]",
    "a[not((b and c) or d)]",
    "a[b and c and d]",
    "a[b or c or d]",
    "a[@href]",
    "a[@href and (b or @name)]",
    "a/@href",
    "a/@*",
    "attribute::xml:lang",
    "xsl:template[xsl:param]",
    "a[not(@alt)]",
    "a[//b]",
    "a[/b/c]",
    "a[.//b]",
    "a[//b and .//c]",
    "descendant::a[@href][ancestor::a[@href]]",
    "a | b intersect c",
    "html/(head | body)[meta]",
    "a[b][c][d]",
    "..[a]/*[b]",
]


@pytest.mark.parametrize("text", CORPUS)
def test_parse_print_parse_is_identity(text):
    expr = parse_xpath(text)
    printed = str(expr)
    assert parse_xpath(printed) == expr
    # And printing is a fixpoint after one round.
    assert str(parse_xpath(printed)) == printed


def test_or_under_and_is_parenthesised():
    expr = parse_xpath("a[(b or c) and d]")
    qualifier = expr.path.qualifier
    assert isinstance(qualifier, xp.QualifierAnd)
    assert isinstance(qualifier.left, xp.QualifierOr)
    assert "(" in str(expr)
    assert parse_xpath(str(expr)) == expr


def test_wrong_precedence_reading_is_a_different_ast():
    assert parse_xpath("a[(b or c) and d]") != parse_xpath("a[b or c and d]")


#: Seeds for the generator-driven property: each drives one random
#: expression over a small element/attribute alphabet, with attribute steps
#: and nested qualifiers included (see repro.testing.generators).
GENERATOR_SEEDS = range(60)


@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_generated_expressions_round_trip(seed):
    import random

    from repro.testing.generators import GeneratorConfig, gen_xpath

    rng = random.Random(seed)
    expr = gen_xpath(rng, ("a", "b", "c"), ("p", "q"), GeneratorConfig())
    printed = str(expr)
    assert parse_xpath(printed) == expr, printed
    assert str(parse_xpath(printed)) == printed


def test_generated_qualifier_nesting_round_trips():
    # Right-nested connectives used to print flat and re-parse left-nested;
    # the printer now parenthesises them (found by generator coverage).
    right_nested_and = xp.RelativePath(
        xp.QualifiedPath(
            xp.Step(xp.Axis.CHILD, "a"),
            xp.QualifierAnd(
                xp.QualifierPath(xp.Step(xp.Axis.CHILD, "b")),
                xp.QualifierAnd(
                    xp.QualifierPath(xp.Step(xp.Axis.CHILD, "c")),
                    xp.QualifierPath(xp.Step(xp.Axis.CHILD, "d")),
                ),
            ),
        )
    )
    assert parse_xpath(str(right_nested_and)) == right_nested_and
    assert str(right_nested_and) == "child::a[child::b and (child::c and child::d)]"
    right_nested_or = xp.RelativePath(
        xp.QualifiedPath(
            xp.Step(xp.Axis.CHILD, "a"),
            xp.QualifierOr(
                xp.QualifierPath(xp.Step(xp.Axis.CHILD, "b")),
                xp.QualifierOr(
                    xp.QualifierPath(xp.Step(xp.Axis.CHILD, "c")),
                    xp.QualifierPath(xp.Step(xp.Axis.CHILD, "d")),
                ),
            ),
        )
    )
    assert parse_xpath(str(right_nested_or)) == right_nested_or


def test_manual_ast_round_trips():
    expr = xp.RelativePath(
        xp.QualifiedPath(
            xp.Step(xp.Axis.CHILD, "a"),
            xp.QualifierAnd(
                xp.QualifierOr(
                    xp.QualifierPath(xp.Step(xp.Axis.CHILD, "b")),
                    xp.QualifierPath(xp.AttributeStep("href")),
                ),
                xp.QualifierNot(
                    xp.QualifierPath(xp.Step(xp.Axis.DESCENDANT, None), absolute=True)
                ),
            ),
        )
    )
    assert parse_xpath(str(expr)) == expr
