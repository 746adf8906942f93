"""Figure 18 — the worked containment example and its counterexample tree.

The paper walks through the run of the algorithm on
``child::c/preceding-sibling::a[b]  ⊆?  child::c[b]`` and shows that a
satisfying binary tree of depth 3 is found after computing T³, disproving the
containment.  This benchmark re-runs that containment, checks the verdict and
the shape of the counterexample, and records the number of fixpoint iterations
(the paper's T¹, T², T³ correspond to our iterations).
"""

from conftest import write_report
from repro.api import Query, StaticAnalyzer
from repro.trees.unranked import parse_tree
from repro.xpath.parser import parse_xpath
from repro.xpath.semantics import select

QUERY_1 = "child::c/preceding-sibling::a[child::b]"
QUERY_2 = "child::c[child::b]"


def test_fig18_containment_example(benchmark):
    # A fresh analyzer per round: every round times a full solver run.
    result = benchmark(lambda: StaticAnalyzer().solve(Query.containment(QUERY_1, QUERY_2)))
    assert result.definite and not result.holds
    assert result.counterexample is not None
    document = parse_tree(result.counterexample)
    assert document.depth() == 3
    # The counterexample genuinely separates the queries.
    selected_1 = select(parse_xpath(QUERY_1), document)
    selected_2 = select(parse_xpath(QUERY_2), document)
    assert selected_1 - selected_2
    write_report(
        "fig18_example_run",
        [
            f"query 1: {QUERY_1}",
            f"query 2: {QUERY_2}",
            f"containment holds: {result.holds} (paper: does not hold)",
            f"fixpoint iterations: {result.statistics['iterations']} (paper: 3)",
            f"lean size: {result.statistics['lean_size']}",
            f"counterexample (depth {document.depth()}): {result.counterexample}",
            f"solver time: {result.time_ms:.1f} ms (paper: 353 ms for the e1/e2 pair)",
        ],
    )
