"""Tests for content models, DTD parsing, binarisation and type membership."""

import pytest

from repro.core.errors import ParseError
from repro.trees.unranked import parse_tree
from repro.xmltypes import content as cm
from repro.xmltypes.ast import BinaryTypeGrammar, EPSILON, LabelAlternative
from repro.xmltypes.binarize import binarize_dtd
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.membership import dtd_accepts, grammar_accepts

WIKI_DTD = """
<!ELEMENT article (meta, (text | redirect))>
<!ELEMENT meta (title, status?, interwiki*, history?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT interwiki (#PCDATA)>
<!ELEMENT status (#PCDATA)>
<!ELEMENT history (edit)+>
<!ELEMENT edit (status?, interwiki*, (text | redirect)?)>
<!ELEMENT redirect EMPTY>
<!ELEMENT text (#PCDATA)>
"""


# -- content models -----------------------------------------------------------------


def test_content_nullable():
    assert cm.nullable(cm.CEmpty())
    assert not cm.nullable(cm.CSymbol("a"))
    assert cm.nullable(cm.CStar(cm.CSymbol("a")))
    assert cm.nullable(cm.COptional(cm.CSymbol("a")))
    assert not cm.nullable(cm.CPlus(cm.CSymbol("a")))
    assert cm.nullable(cm.CSeq(cm.CStar(cm.CSymbol("a")), cm.COptional(cm.CSymbol("b"))))


def test_content_matches():
    model = cm.CSeq(cm.CSymbol("a"), cm.CSeq(cm.CStar(cm.CSymbol("b")), cm.COptional(cm.CSymbol("c"))))
    assert cm.matches(model, ["a"])
    assert cm.matches(model, ["a", "b", "b", "c"])
    assert not cm.matches(model, ["b"])
    assert not cm.matches(model, ["a", "c", "b"])


def test_content_choice_and_plus():
    model = cm.CPlus(cm.CChoice(cm.CSymbol("x"), cm.CSymbol("y")))
    assert cm.matches(model, ["x", "y", "x"])
    assert not cm.matches(model, [])


def test_content_symbols():
    model = cm.CSeq(cm.CSymbol("a"), cm.CChoice(cm.CSymbol("b"), cm.CEmpty()))
    assert cm.symbols(model) == {"a", "b"}


# -- DTD parsing ---------------------------------------------------------------------


def test_parse_wikipedia_dtd():
    dtd = parse_dtd(WIKI_DTD, root="article")
    assert dtd.symbol_count() == 9
    assert dtd.root == "article"
    assert cm.nullable(dtd.content_of("text"))
    assert not cm.nullable(dtd.content_of("article"))


def test_parse_dtd_with_parameter_entities():
    text = """
    <!ENTITY % inline "a | b">
    <!ELEMENT p (#PCDATA | %inline;)*>
    <!ELEMENT a EMPTY>
    <!ELEMENT b EMPTY>
    """
    dtd = parse_dtd(text, root="p")
    assert cm.symbols(dtd.content_of("p")) == {"a", "b"}


def test_parse_dtd_with_any_content():
    dtd = parse_dtd("<!ELEMENT a ANY><!ELEMENT b EMPTY>", root="a")
    assert cm.symbols(dtd.content_of("a")) == {"a", "b"}


def test_parse_dtd_ignores_attlist_and_comments():
    text = """
    <!-- a comment with <!ELEMENT fake (ignored)> inside -->
    <!ELEMENT a (b)>
    <!ATTLIST a id CDATA #IMPLIED>
    <!ELEMENT b EMPTY>
    """
    dtd = parse_dtd(text, root="a")
    assert dtd.symbol_count() == 2


def test_parse_dtd_errors():
    with pytest.raises(ParseError):
        parse_dtd("<!ATTLIST a id CDATA #IMPLIED>")
    with pytest.raises(ParseError):
        parse_dtd("<!ELEMENT a (b,)><!ELEMENT b EMPTY>")
    with pytest.raises(ParseError):
        parse_dtd("<!ELEMENT a (b)>", root="zzz")


def test_with_root_changes_designated_root():
    dtd = parse_dtd(WIKI_DTD, root="article")
    assert dtd.with_root("meta").root == "meta"
    with pytest.raises(ValueError):
        dtd.with_root("nope")


# -- binarisation -----------------------------------------------------------------------


def test_binarize_produces_figure13_like_grammar():
    dtd = parse_dtd(WIKI_DTD, root="article")
    grammar = binarize_dtd(dtd)
    assert grammar.start.startswith("Doc_")
    start_alternatives = grammar.alternatives(grammar.start)
    assert len(start_alternatives) == 1
    assert isinstance(start_alternatives[0], LabelAlternative)
    assert start_alternatives[0].label == "article"
    assert grammar.labels() == {
        "article", "meta", "title", "interwiki", "status", "history", "edit",
        "redirect", "text",
    }


def test_binarize_nullability():
    dtd = parse_dtd(WIKI_DTD, root="article")
    grammar = binarize_dtd(dtd)
    assert grammar.is_epsilon_only("C_title")
    assert grammar.is_nullable("C_edit")
    assert not grammar.is_nullable("C_article")


#: SHA-256 of each bundled schema's binarized grammar (see _grammar_digest).
BINARIZED_GRAMMAR_DIGESTS = {
    "smil": "b1dfb4f8ba7f29ca7fa81877144a6ac9888c701457482c0e7e2555642b2f98d7",
    "xhtml": "afd30c98db410754fe9e26c839cc3c7091c64963dea00842fd9d2936df333aae",
    # The digest covers ``grammar.name``: re-pinned when the schema's DTD
    # took its registry name ``xhtml-core`` (it was ``xhtmlcore``); the
    # variable table did not change.
    "xhtml-core": "eb7f18c37cff96685c4ea5a6849ba534d448ebda28fa62a99fcff5f97456ca54",
    "wikipedia": "aecfabba41ab67f9c6f6add0e01d2ddcab2dde5726abdf8d7013e12d70524cb5",
}


def _grammar_digest(grammar: BinaryTypeGrammar) -> str:
    """Digest of the start, the name and the variable table, in order."""
    import hashlib
    import json

    table = [
        [name, [str(alternative) for alternative in alternatives]]
        for name, alternatives in grammar.variables.items()
    ]
    payload = json.dumps([grammar.start, grammar.name, table])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("schema", sorted(BINARIZED_GRAMMAR_DIGESTS))
def test_binarized_bundled_schemas_are_pinned(schema):
    """Binarization is deterministic: same variables, names and order."""
    from repro.xmltypes.library import builtin_dtd

    grammar = binarize_dtd(builtin_dtd(schema))
    assert _grammar_digest(grammar) == BINARIZED_GRAMMAR_DIGESTS[schema]


@pytest.mark.parametrize(
    "spec,word",
    [
        ("((b)*)*", ["b"]),
        ("((b)*)*", []),
        ("((b)+)*", ["b"]),
        ("((b)+)+", ["b", "b"]),
        ("(c, (b)?)*", ["c"]),
        ("(c, (b)?)*", ["c", "b", "c"]),
        ("((b | (c)*))*", ["c", "b"]),
    ],
)
def test_binarize_nested_nullable_constructs(spec, word):
    """Nested stars/options must keep their loop exits.

    A nullable construct inlines its continuation's alternatives; while an
    enclosing loop variable was still being defined that inline used to read
    an empty placeholder, so ``(b*)*`` compiled to a sibling chain that could
    never terminate and rejected every non-empty valid document.  Found by
    differential fuzzing (tests/corpus/fuzz-containment-0044cc20ad80.json).
    """
    from repro.trees.unranked import Tree
    from repro.xmltypes.membership import dtd_accepts, grammar_accepts

    dtd = parse_dtd(
        f"<!ELEMENT a {spec}><!ELEMENT b EMPTY><!ELEMENT c EMPTY>", root="a"
    )
    document = Tree("a", tuple(Tree(name) for name in word))
    assert dtd_accepts(dtd, document)
    assert grammar_accepts(binarize_dtd(dtd), document)


def test_grammar_reachability_and_describe():
    dtd = parse_dtd(WIKI_DTD, root="article")
    grammar = binarize_dtd(dtd).restricted_to_reachable()
    assert grammar.variable_count() > 5
    description = grammar.describe()
    assert "Start Symbol" in description and "terminals" in description


# -- membership (validation) ---------------------------------------------------------------


VALID_DOCS = [
    "<article><meta><title/></meta><text/></article>",
    "<article><meta><title/><status/><interwiki/><interwiki/></meta><redirect/></article>",
    "<article><meta><title/><history><edit><text/></edit><edit/></history></meta><text/></article>",
]

INVALID_DOCS = [
    "<article><text/></article>",                       # missing meta
    "<article><meta><title/></meta></article>",         # missing text|redirect
    "<article><meta/><text/></article>",                 # meta missing title
    "<meta><title/></meta>",                             # wrong root
    "<article><meta><title/></meta><text/><text/></article>",  # too many children
]


@pytest.mark.parametrize("text", VALID_DOCS)
def test_valid_documents_accepted(text):
    dtd = parse_dtd(WIKI_DTD, root="article")
    document = parse_tree(text)
    assert dtd_accepts(dtd, document)
    assert grammar_accepts(binarize_dtd(dtd), document)


@pytest.mark.parametrize("text", INVALID_DOCS)
def test_invalid_documents_rejected(text):
    dtd = parse_dtd(WIKI_DTD, root="article")
    document = parse_tree(text)
    assert not dtd_accepts(dtd, document)
    assert not grammar_accepts(binarize_dtd(dtd), document)


def test_grammar_accepts_ignores_marks():
    dtd = parse_dtd(WIKI_DTD, root="article")
    document = parse_tree("<article><meta><title!/></meta><text/></article>")
    assert grammar_accepts(binarize_dtd(dtd), document)


def test_empty_grammar_variable():
    grammar = BinaryTypeGrammar(variables={"X": ()}, start="X")
    assert grammar.is_empty("X")
    assert not grammar_accepts(grammar, parse_tree("<a/>"))
    assert grammar.alternatives("Epsilon") == (EPSILON,)
