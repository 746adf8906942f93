"""Table 2 — the paper's decision problems and solver running times.

Each row reproduces one line of Table 2.  Absolute times are not comparable
with the paper's (a pure-Python BDD engine against a Java implementation on
2007 hardware); what is compared is the *decision* of each problem and the
relative cost ordering (untyped containment ≪ SMIL-constrained satisfiability
≪ XHTML-constrained problems).  The XHTML rows run on the full 77-element
XHTML 1.0 Strict DTD, as in the paper.  Each problem is answered by a fresh
``StaticAnalyzer``, so every row times full solver runs, never a cache hit.
The recorded numbers land in
``benchmarks/reports/table2_decision_problems.txt``; the reading of the
e6 ⊆ e5 row is pinned by ``tests/test_integration_paper.py::
test_table2_row3_e6_versus_e5``.
"""

from conftest import FIGURE_21, write_report
from repro.api import Query, StaticAnalyzer
from repro.xmltypes.library import smil_dtd, xhtml_strict_dtd

PAPER_ROWS = {
    "row1_e1_e2": ("e1 ⊆ e2 and e2 ⊄ e1", "none", 353),
    "row2_e4_e3": ("e4 ⊆ e3 and e3 ⊆ e4", "none", 45),
    "row3_e6_e5": ("e6' ⊆ e5' and e5' ⊄ e6'", "none", 41),
    "row4_e7": ("e7 is satisfiable", "SMIL 1.0", 157),
    "row5_e8": ("e8 is satisfiable", "XHTML 1.0", 2630),
    "row6_e9": ("e9 ⊆ (e10 ∪ e11 ∪ e12)", "XHTML 1.0", 2872),
}

_RESULTS: dict[str, str] = {}


def _solve(query: Query):
    """Answer one problem on a fresh analyzer (a full solver run)."""
    outcome = StaticAnalyzer().solve(query)
    assert outcome.definite, outcome.error
    return outcome


def _record(key: str, verdicts: list[str], milliseconds: float) -> None:
    label, xml_type, paper_ms = PAPER_ROWS[key]
    _RESULTS[key] = (
        f"{label:<28} | {xml_type:<9} | paper {paper_ms:>5} ms | ours {milliseconds:>10.1f} ms | "
        + "; ".join(verdicts)
    )
    if len(_RESULTS) == len(PAPER_ROWS):
        write_report(
            "table2_decision_problems",
            ["problem                      | type      | paper time  | measured time   | verdicts"]
            + [_RESULTS[key] for key in PAPER_ROWS],
        )


def test_row1_e1_e2_containment(benchmark):
    def run():
        forward = _solve(Query.containment(FIGURE_21["e1"], FIGURE_21["e2"]))
        backward = _solve(Query.containment(FIGURE_21["e2"], FIGURE_21["e1"]))
        return forward, backward

    forward, backward = benchmark.pedantic(run, rounds=1, iterations=1)
    assert forward.holds and not backward.holds
    _record(
        "row1_e1_e2",
        [f"e1⊆e2: {forward.holds}", f"e2⊆e1: {backward.holds}"],
        forward.time_ms + backward.time_ms,
    )


def test_row2_e4_e3_equivalence(benchmark):
    def run():
        return _solve(Query.equivalence(FIGURE_21["e4"], FIGURE_21["e3"])).parts

    forward, backward = benchmark.pedantic(run, rounds=1, iterations=1)
    assert forward.holds and backward.holds
    _record(
        "row2_e4_e3",
        [f"e4⊆e3: {forward.holds}", f"e3⊆e4: {backward.holds}"],
        forward.time_ms + backward.time_ms,
    )


#: Table 2's e6 ⊆ e5 verdict belongs to e6' — e6 with the relative qualifier
#: ``[.//c]`` — against e5', the descendant variant of e5.  Under XPath 1.0,
#: e6 as printed anchors ``[//c]`` at the document root and is not contained
#: in e5.
E6_RELATIVE = "a/b[.//c]/following::d/e ∩ a/d[preceding::c]/e"
E5_DESCENDANT = "a//c/following::d/e"


def test_row3_e6_e5_containment(benchmark):
    def run():
        as_printed = _solve(Query.containment(FIGURE_21["e6"], FIGURE_21["e5"]))
        relative = _solve(Query.containment(E6_RELATIVE, E5_DESCENDANT))
        reverse = _solve(Query.containment(E5_DESCENDANT, E6_RELATIVE))
        return as_printed, relative, reverse

    as_printed, relative, reverse = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not as_printed.holds and relative.holds and not reverse.holds
    _record(
        "row3_e6_e5",
        [
            f"e6⊆e5 (as printed): {as_printed.holds}",
            f"e6'⊆e5' (.//c, a//c): {relative.holds}",
            f"e5'⊆e6': {reverse.holds}",
        ],
        as_printed.time_ms + relative.time_ms + reverse.time_ms,
    )


def test_row4_e7_satisfiable_under_smil(benchmark):
    result = benchmark.pedantic(
        lambda: _solve(Query.satisfiability(FIGURE_21["e7"], smil_dtd())),
        rounds=1,
        iterations=1,
    )
    assert result.holds
    _record("row4_e7", [f"satisfiable: {result.holds}"], result.time_ms)


def test_row5_e8_satisfiable_under_xhtml(benchmark):
    dtd = xhtml_strict_dtd()
    result = benchmark.pedantic(
        lambda: _solve(Query.satisfiability(FIGURE_21["e8"], dtd)), rounds=1, iterations=1
    )
    assert result.holds
    _record(
        "row5_e8",
        [f"satisfiable: {result.holds} (DTD: {dtd.name})"],
        result.time_ms,
    )


def test_row6_e9_coverage_under_xhtml(benchmark):
    dtd = xhtml_strict_dtd()

    def run():
        return _solve(
            Query.coverage(
                FIGURE_21["e9"],
                [FIGURE_21["e10"], FIGURE_21["e11"], FIGURE_21["e12"]],
                dtd,
                [dtd, dtd, dtd],
            )
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(
        "row6_e9",
        [f"covered: {result.holds} (DTD: {dtd.name})"],
        result.time_ms,
    )
