"""Shared fixtures for the test-suite.

The ``src`` directory is added to ``sys.path`` so the tests run even when the
package has not been installed (the offline reproduction environment lacks the
``wheel`` package needed by ``pip install -e .``; ``python setup.py develop``
is the documented fallback).
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from repro.trees.unranked import Tree, parse_tree


@pytest.fixture
def small_document() -> Tree:
    """A small document with the start mark on the root."""
    return parse_tree("<r!><a><c/></a><a><d/><b/></a><b/></r>")


@pytest.fixture
def book_document() -> Tree:
    """The book/chapter/section document from the paper's XPath primer."""
    return parse_tree(
        "<book!>"
        "<chapter><section/><section/></chapter>"
        "<chapter><section><title/></section></chapter>"
        "</book>"
    )


def documents_with_every_mark(text: str) -> list[Tree]:
    """All markings of a document: one copy per node carrying the start mark."""
    base = parse_tree(text).unmark_all()
    return [base.mark_at(path) for path, _node in sorted(base.iter_paths())]


def solve(query, analyzer=None):
    """Answer ``query`` on ``analyzer`` (a fresh one by default) and fail the
    test unless the verdict is definite.

    An error outcome carries ``holds=False``, so a test asserting
    ``not outcome.holds`` must not read it without this check.
    """
    from repro.api import StaticAnalyzer

    outcome = (analyzer or StaticAnalyzer()).solve(query)
    assert outcome.definite, (
        f"{outcome.problem}: {outcome.verdict_status} "
        f"({outcome.error or outcome.budget_reason})"
    )
    return outcome


#: Wildcard label of pruned witnesses whose collapsed elements could not be
#: lifted back to concrete names (repro.xmltypes.membership.lift_wildcards).
from repro.solver.models import FRESH_LABEL as WILDCARD_LABEL  # noqa: E402


def assert_genuine_counterexample(result, dtd=None, exprs=()) -> Tree:
    """Shared witness-validity invariant for satisfiable analysis outcomes.

    ``result`` is an :class:`repro.api.AnalysisOutcome` (its serialized
    witness is parsed) or a bare document.  Asserts that the witness exists and carries exactly one
    start mark; with ``dtd`` given, additionally that the marked node's
    subtree validates against the DTD and that
    :func:`repro.xmltypes.membership.dtd_attribute_violations` is empty when
    restricted to the attribute alphabet of ``exprs`` (the expressions of
    the problem that produced the witness).  When the outcome's query reads
    its first type as :class:`repro.analysis.problems.Rooted`, the marked
    node is the document node: it must carry no name and no attribute, and
    its single child is the subtree checked, which must be fully lifted (no
    wildcard label), so it always gets the membership check.  Returns the
    document so tests can chain further assertions.

    Other subtrees still containing the wildcard label (a pruned model the
    lifter could not fully concretise) skip the membership check — their
    attribute constraints are still enforced.
    """
    from repro.analysis.problems import Rooted, relevant_attributes
    from repro.trees.focus import focus_at
    from repro.xmltypes.membership import dtd_accepts, dtd_attribute_violations

    document = getattr(result, "counterexample", result)
    assert document is not None, "expected a witness document"
    if isinstance(document, str):
        document = parse_tree(document)
    assert document.mark_count() == 1, (
        f"witness must carry exactly one start mark: {document}"
    )
    if dtd is None:
        return document
    focus = focus_at(document, document.find_mark())
    subtree = focus.tree.unmark_all()
    query = getattr(result, "query", None)
    if query is not None and isinstance(query.types[0], Rooted):
        assert subtree.label == WILDCARD_LABEL and not subtree.attributes, (
            f"the document node of {document} is named or carries attributes"
        )
        (subtree,) = subtree.children
        assert WILDCARD_LABEL not in subtree.labels(), (
            f"the element below the document node of {document} was not lifted"
        )
    if WILDCARD_LABEL not in subtree.labels():
        assert dtd_accepts(dtd, subtree), (
            f"witness subtree does not validate against {dtd.name}: {subtree}"
        )
    alphabet = relevant_attributes(*exprs) if exprs else ()
    violations = dtd_attribute_violations(dtd, subtree, alphabet)
    assert not violations, f"witness attribute violations: {violations}"
    return document
