"""Cone-of-influence Lean pruning: semantics preservation and proportionality.

The projection collapses element names a problem's expressions never test
onto the "any other label" proposition before any BDD is built
(:func:`repro.xmltypes.compile.project_grammar`).  These tests check the
three properties the optimisation rests on:

* **semantics preservation** — every verdict matches the unpruned run
  (``StaticAnalyzer(prune_labels=False)``), including across problem kinds;
* **proportionality** — a query touching 2 of 40 element names solves with a
  proportionally smaller Lean;
* **witness quality** — satisfying models are lifted back to concrete
  element names and validate against the original DTD.
"""

import pytest

from repro.analysis.problems import label_projection, relevant_labels
from repro.api import Query, StaticAnalyzer
from repro.trees.unranked import parse_tree
from repro.xmltypes.binarize import binarize_dtd
from repro.xmltypes.compile import project_grammar
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import builtin_dtd
from repro.xmltypes.membership import dtd_accepts, grammar_accepts, lift_wildcards

from conftest import solve


def wide_dtd(sections: int = 19):
    """A DTD with ``2 * sections + 2`` elements: root -> s1..sN -> leafN."""
    parts = [
        "<!ELEMENT root ("
        + ", ".join(f"s{i}" for i in range(1, sections + 1))
        + ", leaf0?)>"
    ]
    for i in range(1, sections + 1):
        parts.append(f"<!ELEMENT s{i} (leaf{i})*>")
        parts.append(f"<!ELEMENT leaf{i} EMPTY>")
    parts.append("<!ELEMENT leaf0 EMPTY>")
    return parse_dtd("\n".join(parts), name="wide", root="root")


# -- the projection itself -----------------------------------------------------------


def test_relevant_labels_collects_name_tests_only():
    assert relevant_labels("a/b[c]", "descendant::d/following::*") == (
        "a",
        "b",
        "c",
        "d",
    )
    assert relevant_labels("child::*") == ()


def test_label_projection_requires_a_single_shared_type():
    dtd = wide_dtd()
    other = wide_dtd()
    # One shared type (possibly repeated, possibly with None sides): prune.
    assert label_projection(("a", "b"), (dtd, dtd)) == ("a", "b")
    assert label_projection(("a",), (dtd, None)) == ("a",)
    # Two distinct type objects can be told apart through collapsed names:
    # pruning must be skipped.
    assert label_projection(("a", "b"), (dtd, other)) is None


def test_projected_grammar_is_a_label_homomorphism():
    from repro.trees.unranked import Tree

    grammar = binarize_dtd(wide_dtd())
    projected = project_grammar(grammar, {"s2", "leaf2"})
    assert projected.labels() == {"s2", "leaf2", "#other"}
    # Structure is preserved: the projected grammar accepts exactly the
    # label-homomorphic image of the original language (spot-check one
    # document and its image).
    original = Tree(
        "root",
        tuple(
            Tree("s2", (Tree("leaf2", ()),)) if i == 2 else Tree(f"s{i}", ())
            for i in range(1, 20)
        ),
    )
    image = Tree(
        "root" if "root" in projected.labels() else "#other",
        tuple(
            Tree("s2", (Tree("leaf2", ()),)) if i == 2 else Tree("#other", ())
            for i in range(1, 20)
        ),
    )
    assert grammar_accepts(grammar, original)
    assert grammar_accepts(projected, image)


def test_minimization_merges_collapsed_variables():
    grammar = binarize_dtd(wide_dtd())
    projected = project_grammar(grammar, {"s2", "leaf2"})
    # The 19 isomorphic (sN, leafN) chains collapse into a handful of
    # classes once their labels coincide.
    assert projected.variable_count() < grammar.variable_count() / 2


# -- semantics preservation across problem kinds -------------------------------------


@pytest.mark.parametrize(
    "method, args",
    [
        ("satisfiability", ("child::s2/child::leaf2",)),
        ("satisfiability", ("child::s2/child::leaf3",)),
        ("emptiness", ("child::leaf0/child::s1",)),
        ("containment", ("child::s2[leaf2]", "child::s2")),
        ("containment", ("child::s2", "child::s2[leaf2]")),
        ("overlap", ("child::s2", "child::s3")),
    ],
)
def test_pruned_verdicts_match_unpruned(method, args):
    dtd = wide_dtd()
    types = (dtd,) * (2 if method in ("containment", "overlap") else 1)
    query = getattr(Query, method)(*args, *types)
    fast = solve(query)
    slow = solve(query, StaticAnalyzer(prune_labels=False))
    assert fast.holds == slow.holds


def test_pruned_lean_is_proportionally_smaller():
    """A query touching 2 of 40 element names: the Lean shrinks ~3x."""
    dtd = wide_dtd()
    assert len(dtd.element_names()) == 40
    query = Query.satisfiability("child::s2/child::leaf2", dtd)
    pruned = solve(query)
    unpruned = solve(query, StaticAnalyzer(prune_labels=False))
    assert pruned.holds == unpruned.holds is True
    pruned_lean = pruned.statistics["lean_size"]
    unpruned_lean = unpruned.statistics["lean_size"]
    # 40 collapsed propositions and their content-model chains are gone.
    assert pruned_lean < unpruned_lean / 2


def test_pruned_witness_is_lifted_to_a_valid_document():
    dtd = wide_dtd()
    outcome = solve(Query.satisfiability("child::s2/child::leaf2", dtd))
    assert outcome.holds
    assert outcome.counterexample is not None
    witness = parse_tree(outcome.counterexample)
    # Collapsed labels were reassigned concrete element names.
    assert dtd_accepts(dtd, witness.unmark_all())


def test_lift_wildcards_returns_none_when_no_assignment_exists():
    from repro.trees.unranked import Tree

    dtd = wide_dtd()
    # `_` cannot be the root's only child: the root requires 19 sections.
    assert lift_wildcards(dtd, Tree("root", (Tree("_", ()),))) is None


# -- named schemas through the API ---------------------------------------------------


def test_api_prunes_and_lifts_like_the_analyzer():
    analyzer = StaticAnalyzer()
    outcome = analyzer.solve(
        Query.satisfiability("child::meta/child::title", "wikipedia")
    )
    assert outcome.holds
    # The witness validates against the schema (labels were lifted).
    assert dtd_accepts(builtin_dtd("wikipedia"), parse_tree(outcome.counterexample).unmark_all())


def test_api_prune_labels_off_reproduces_unpruned_lean():
    query = Query.satisfiability("child::meta/child::title", "wikipedia")
    pruned = StaticAnalyzer().solve(query)
    unpruned = StaticAnalyzer(prune_labels=False).solve(query)
    assert pruned.holds == unpruned.holds
    assert pruned.statistics["lean_size"] < unpruned.statistics["lean_size"]


def test_lifted_witness_never_reuses_a_tested_label():
    """Lifting must pick labels *outside* the pruned alphabet.

    Regression: with elements c and x both allowed where the witness has a
    collapsed node, assigning the tested name c would make the counterexample
    to `//a ⊆ //c/a` select the node on both sides — no longer a witness.
    """
    from repro.xmltypes.membership import dtd_accepts

    dtd = parse_dtd(
        "<!ELEMENT r (x | c)>\n<!ELEMENT c (a)>\n<!ELEMENT x (a)>\n"
        "<!ELEMENT a EMPTY>",
        name="lift",
        root="r",
    )
    query = Query.containment("//a", "//c/a", dtd, dtd)
    outcome = solve(query)
    reference = solve(query, StaticAnalyzer(prune_labels=False))
    assert outcome.holds == reference.holds is False
    assert outcome.counterexample is not None
    witness = parse_tree(outcome.counterexample)
    # The lifted witness must still separate the two queries: the `a` node
    # must not sit under a `c`.
    assert all(node.label != "c" for node in witness.iter_nodes())
    assert dtd_accepts(dtd, witness.unmark_all())
