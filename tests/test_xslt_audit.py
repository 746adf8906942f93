"""Tests for the stylesheet auditor (:mod:`repro.xslt.rules` / ``repro.xslt``).

The fast cases audit small stylesheets against the Wikipedia schema
(article -> (meta, (text|redirect)); meta -> (title, history?); history ->
edit+; edit -> (status?, comment?); the leaves are EMPTY).  The full
acceptance run over ``examples/audit_stylesheet.xsl`` against XHTML 1.0
Strict is marked slow.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.problems import Rooted
from repro.api import StaticAnalyzer
from repro.core.errors import SchemaLookupError, UnsupportedTypeError
from repro.trees.unranked import parse_tree
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.library import builtin_dtd
from repro.xmltypes.membership import dtd_accepts
from repro.xslt import AuditReport, audit_stylesheet, load_stylesheet

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

HEADER = '<?xml version="1.0"?>\n'
OPEN = '<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">\n'
CLOSE = "</xsl:stylesheet>\n"

#: One of everything: a dead template (article/title — title only occurs in
#: meta), a shadowed template (history/edit, shadowed by the priority-3
#: edit rule), an unreachable test (redirect inside for-each select="meta"),
#: a dead select (text/title — text is EMPTY), and an aggregated coverage
#: gap for the elements no template pattern names.
SEEDED = """\
<xsl:template match="/">
  <xsl:apply-templates select="article"/>
</xsl:template>
<xsl:template match="article">
  <xsl:for-each select="meta">
    <xsl:value-of select="title"/>
    <xsl:if test="history/edit/status">ok</xsl:if>
    <xsl:if test="redirect">never</xsl:if>
  </xsl:for-each>
  <xsl:value-of select="text/title"/>
</xsl:template>
<xsl:template match="meta/title">t</xsl:template>
<xsl:template match="article/title">dead</xsl:template>
<xsl:template match="history/edit">e</xsl:template>
<xsl:template match="edit" priority="3">shadower</xsl:template>
"""


def write(tmp_path, body, name="sheet.xsl"):
    path = tmp_path / name
    path.write_text(HEADER + OPEN + textwrap.dedent(body) + CLOSE, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def analyzer() -> StaticAnalyzer:
    return StaticAnalyzer()


@pytest.fixture(scope="module")
def seeded(tmp_path_factory, analyzer) -> AuditReport:
    path = tmp_path_factory.mktemp("audit") / "seeded.xsl"
    path.write_text(HEADER + OPEN + SEEDED + CLOSE, encoding="utf-8")
    return audit_stylesheet(path, "wikipedia", analyzer=analyzer)


def by_rule(report: AuditReport) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for finding in report.findings:
        grouped.setdefault(finding.rule, []).append(finding)
    return grouped


# ---------------------------------------------------------------------------
# The seeded Wikipedia audit: every rule fires exactly as designed
# ---------------------------------------------------------------------------


def test_seeded_rules_fire_exactly_once_each(seeded):
    grouped = by_rule(seeded)
    assert {rule: len(findings) for rule, findings in grouped.items()} == {
        "dead-template": 1,
        "shadowed-template": 1,
        "unreachable-branch": 1,
        "dead-select": 1,
        "coverage-gap": 1,
    }


def test_dead_template_finding(seeded):
    (finding,) = by_rule(seeded)["dead-template"]
    assert finding.severity == "error"
    assert 'match="article/title"' in finding.message
    assert finding.line == 15  # the article/title template element


def test_shadowed_template_finding(seeded):
    (finding,) = by_rule(seeded)["shadowed-template"]
    assert finding.severity == "error"
    assert 'match="history/edit"' in finding.message
    assert finding.line == 16
    (shadower,) = finding.detail["shadowed_by"]
    assert shadower["match"] == "edit" and shadower["priority"] == 3.0


def test_unreachable_branch_finding(seeded):
    (finding,) = by_rule(seeded)["unreachable-branch"]
    assert finding.severity == "warning"
    # redirect is a sibling of meta, never its child.
    assert 'test="redirect"' in finding.message
    assert (finding.line, finding.column) == (10, 5)


def test_parent_of_the_root_element_is_no_element(tmp_path, analyzer):
    """The root element's parent is the document node, which no name test
    selects: a ``parent::meta`` test on ``article`` is unreachable."""
    path = write(
        tmp_path,
        """\
        <xsl:template match="article">
          <xsl:if test="parent::meta">never</xsl:if>
        </xsl:template>
        """,
    )
    report = audit_stylesheet(path, "wikipedia", analyzer=analyzer)
    (finding,) = by_rule(report)["unreachable-branch"]
    assert 'test="parent::meta"' in finding.message


def test_dead_select_finding(seeded):
    (finding,) = by_rule(seeded)["dead-select"]
    assert finding.severity == "warning"
    assert 'select="text/title"' in finding.message  # text is EMPTY
    assert finding.line == 12


def test_aggregated_coverage_gap(seeded):
    (finding,) = by_rule(seeded)["coverage-gap"]
    assert finding.severity == "warning"
    assert finding.line == 1
    # meta, text, redirect, status, comment: reachable but never matched.
    assert set(finding.detail["elements"]) == {
        "comment",
        "history",
        "meta",
        "redirect",
        "status",
        "text",
    }


def test_reachable_test_and_select_stay_silent(seeded):
    messages = " ".join(finding.message for finding in seeded.findings)
    assert 'test="history/edit/status"' not in messages
    assert 'select="title"' not in messages


def test_report_metadata_and_batch_evidence(seeded):
    assert seeded.schema == "wikipedia"
    assert seeded.templates == 6
    assert seeded.branches == 6
    assert seeded.queries == {
        "dead-template": 6,
        "shadowed-template": 1,
        "dead-select": 4,
        "unreachable-branch": 2,
        "coverage-gap": 1,
    }
    assert seeded.solver_runs + seeded.cache_hits >= sum(seeded.queries.values())
    assert seeded.exit_code("error") == 1
    assert seeded.exit_code(None) == 0


def test_report_serialization_round_trip(seeded):
    document = seeded.as_dict()
    assert document["counts"]["error"] == 2
    assert document["batch"]["queries"] == sum(seeded.queries.values())
    assert len(document["findings"]) == len(seeded.findings)
    text = seeded.to_text()
    assert "dead-template" in text
    assert "2 error(s)" in text
    assert "in one batch" in text


def test_findings_are_sorted_by_location(seeded):
    keys = [(f.file, f.line, f.column, f.rule) for f in seeded.findings]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Clean control and suppression behaviors
# ---------------------------------------------------------------------------


def test_clean_stylesheet_audits_clean(tmp_path, analyzer):
    path = write(
        tmp_path,
        """\
        <xsl:template match="/">
          <xsl:apply-templates select="article"/>
        </xsl:template>
        <xsl:template match="*">
          <xsl:apply-templates select="*"/>
        </xsl:template>
        <xsl:template match="meta" priority="1">
          <xsl:value-of select="title"/>
          <xsl:if test="history">h</xsl:if>
        </xsl:template>
        """,
    )
    report = audit_stylesheet(path, "wikipedia", analyzer=analyzer)
    assert report.findings == []
    # The catch-all match="*" covers every element syntactically.
    assert "coverage-gap" not in report.queries
    assert report.exit_code("warning") == 0


def test_dead_template_suppresses_its_body_and_shadow_findings(tmp_path, analyzer):
    path = write(
        tmp_path,
        """\
        <xsl:template match="article/redirect" priority="2">r</xsl:template>
        <xsl:template match="meta/redirect">
          <xsl:value-of select="nothing"/>
        </xsl:template>
        """,
    )
    report = audit_stylesheet(path, "wikipedia", analyzer=analyzer)
    grouped = by_rule(report)
    # meta/redirect is dead (redirect is article's child): one error, and
    # neither its dead select nor its shadowing by the priority-2 rule is
    # reported on top of it.
    assert len(grouped["dead-template"]) == 1
    assert "dead-select" not in grouped
    assert "shadowed-template" not in grouped


def test_empty_enclosing_scope_suppresses_nested_findings(tmp_path, analyzer):
    path = write(
        tmp_path,
        """\
        <xsl:template match="article">
          <xsl:for-each select="redirect/meta">
            <xsl:value-of select="title"/>
          </xsl:for-each>
        </xsl:template>
        """,
    )
    report = audit_stylesheet(path, "wikipedia", analyzer=analyzer)
    # Only the enclosing empty for-each select is reported; the select
    # nested under it is silenced (it is unreachable for the same reason).
    (finding,) = by_rule(report)["dead-select"]
    assert 'select="redirect/meta"' in finding.message


def test_equal_rank_is_a_conflict_not_a_shadow(tmp_path, analyzer):
    path = write(
        tmp_path,
        """\
        <xsl:template match="title">b</xsl:template>
        <xsl:template match="meta/title" priority="0">c</xsl:template>
        """,
    )
    report = audit_stylesheet(path, "wikipedia", analyzer=analyzer)
    # Every title is a meta/title under wikipedia, but the explicit
    # priority 0 ties the bare-name default: equal rank means neither
    # outranks the other, so no shadow query is even planned.
    assert "shadowed-template" not in by_rule(report)
    assert "shadowed-template" not in report.queries


# ---------------------------------------------------------------------------
# Info notes: skipped and unsupported constructs
# ---------------------------------------------------------------------------


def test_info_notes_for_unsupported_constructs(tmp_path):
    dtd = parse_dtd(
        "<!ELEMENT a (b*)><!ELEMENT b EMPTY><!ATTLIST b id CDATA #IMPLIED>",
        name="tiny",
        root="a",
    )
    path = write(
        tmp_path,
        """\
        <xsl:template name="helper">
          <xsl:value-of select="b"/>
        </xsl:template>
        <xsl:template match="id('x')">i</xsl:template>
        <xsl:template match="b/@id">
          <xsl:value-of select="whatever"/>
        </xsl:template>
        <xsl:template match="a">
          <xsl:value-of select="position()"/>
          <xsl:apply-templates select="b"/>
        </xsl:template>
        """,
    )
    report = audit_stylesheet(path, dtd, analyzer=StaticAnalyzer())
    grouped = by_rule(report)
    assert report.schema == "tiny"
    # Named template: body audited only via call sites.
    (skipped_template,) = grouped["skipped-template"]
    assert skipped_template.severity == "info"
    assert "helper" in skipped_template.message
    # id() pattern: outside the audited grammar, with the targeted message.
    (unsupported_pattern,) = grouped["unsupported-pattern"]
    assert "identity" in unsupported_pattern.message
    # A select under an attribute-matching template cannot be composed.
    (skipped_expression,) = grouped["skipped-expression"]
    assert "attribute" in skipped_expression.message
    # position() select: unsupported expression, audited templates continue.
    (unsupported_expression,) = grouped["unsupported-expression"]
    assert "position" in unsupported_expression.message
    # Info notes never gate the exit code.
    errors_or_warnings = [
        f for f in report.findings if f.severity in ("error", "warning")
    ]
    assert report.exit_code("warning") == (1 if errors_or_warnings else 0)


# ---------------------------------------------------------------------------
# Batching: the whole audit is one solve_many call
# ---------------------------------------------------------------------------


def test_audit_issues_exactly_one_solver_batch(tmp_path, monkeypatch):
    analyzer = StaticAnalyzer()
    calls: list[int] = []
    original = analyzer.solve_many

    def counting(queries, **kwargs):
        calls.append(len(list(queries)))
        return original(queries, **kwargs)

    monkeypatch.setattr(analyzer, "solve_many", counting)
    path = tmp_path / "seeded.xsl"
    path.write_text(HEADER + OPEN + SEEDED + CLOSE, encoding="utf-8")
    report = audit_stylesheet(path, "wikipedia", analyzer=analyzer)
    assert len(calls) == 1
    assert calls[0] == sum(report.queries.values())
    # Shared-schema evidence: one cached translation per (alphabet) variant,
    # far fewer than one per query.
    statistics = report.cache_statistics
    assert statistics["type_cache_entries"] < 2 * calls[0]


def test_identical_queries_are_deduplicated(tmp_path, analyzer):
    path = write(
        tmp_path,
        """\
        <xsl:template match="article/title">a</xsl:template>
        <xsl:template match="article/title" mode="other">b</xsl:template>
        """,
    )
    report = audit_stylesheet(path, "wikipedia", analyzer=analyzer)
    # Two templates, one satisfiability query: the expression is shared.
    assert report.queries["dead-template"] == 1
    assert len(by_rule(report)["dead-template"]) == 2


# ---------------------------------------------------------------------------
# Schema resolution
# ---------------------------------------------------------------------------


def test_audit_schema_is_a_name_or_a_dtd(tmp_path, analyzer):
    """The auditor takes a schema as a query does: a registry name (the
    report keeps the name given) or a parsed DTD (the report names it)."""
    path = write(tmp_path, '<xsl:template match="a">x</xsl:template>\n')
    tiny = parse_dtd("<!ELEMENT a (b*)><!ELEMENT b EMPTY>", name="tiny")
    assert audit_stylesheet(path, tiny, analyzer=analyzer).schema == "tiny"
    assert audit_stylesheet(path, "wikipedia", analyzer=analyzer).schema == "wikipedia"
    with pytest.raises(SchemaLookupError, match="no-such-builtin"):
        audit_stylesheet(path, "no-such-builtin", analyzer=analyzer)
    # A file path is the command line's spelling (repro audit --schema x.dtd).
    with pytest.raises(SchemaLookupError):
        audit_stylesheet(path, str(tmp_path / "tiny.dtd"), analyzer=analyzer)
    for schema in (1234, None, Rooted("wikipedia")):
        with pytest.raises(UnsupportedTypeError):
            audit_stylesheet(path, schema, analyzer=analyzer)


# ---------------------------------------------------------------------------
# The full XHTML acceptance audit (slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_xhtml_acceptance_audit():
    analyzer = StaticAnalyzer()
    stylesheet = load_stylesheet(EXAMPLES / "audit_stylesheet.xsl")
    report = audit_stylesheet(stylesheet, "xhtml-strict", analyzer=analyzer)
    grouped = by_rule(report)

    (dead,) = grouped["dead-template"]
    assert 'match="body/title"' in dead.message
    assert (dead.line, dead.column) == (63, 3)

    shadows = {f.line: f for f in grouped["shadowed-template"]}
    assert set(shadows) == {55, 7}  # tbody/tr here, head/title in the import
    assert shadows[55].file.endswith("audit_stylesheet.xsl")
    assert shadows[7].file.endswith("audit_imported.xsl")
    (by_priority,) = shadows[55].detail["shadowed_by"]
    assert by_priority["match"] == "tr"
    (by_precedence,) = shadows[7].detail["shadowed_by"]
    assert by_precedence["match"] == "head/title"
    assert by_precedence["precedence"] > 1

    (unreachable,) = grouped["unreachable-branch"]
    assert 'test="h1/p"' in unreachable.message
    assert (unreachable.line, unreachable.column) == (40, 7)

    semantic_gaps = [f for f in grouped["coverage-gap"] if "element" in f.detail]
    (li_gap,) = semantic_gaps
    assert li_gap.detail["element"] == "li"
    assert li_gap.detail["witness"] is not None
    # The witness's top node is the virtual document node; the root element
    # below it is lifted to declared names and validates against the schema.
    (root,) = parse_tree(li_gap.detail["witness"]).children
    assert all(node.label != "_" for node in root.iter_nodes())
    assert dtd_accepts(builtin_dtd("xhtml-strict"), root)

    # The covered negative case plans a query but yields no finding.
    assert not any(
        f.detail.get("element") == "caption" for f in grouped["coverage-gap"]
    )

    # Exactly one batch answered everything; the schema translations were
    # shared across it (cache statistics, the acceptance-criteria proof).
    queries = sum(report.queries.values())
    statistics = report.cache_statistics
    assert statistics["solver_runs"] + statistics["solve_cache_hits"] == queries
    assert statistics["type_cache_entries"] < 2 * queries
    # ⊤ takes no type-cache entry, so sides the shared-type rule leaves
    # untyped add none.
    assert statistics["type_cache_entries"] <= 28
    assert report.exit_code("error") == 1

    # A warm repeat through the same analyzer answers every query from the
    # in-memory caches and reports the same findings.
    warm = audit_stylesheet(stylesheet, "xhtml-strict", analyzer=analyzer)
    assert warm.solver_runs == 0
    assert [f.as_dict() for f in warm.findings] == [
        f.as_dict() for f in report.findings
    ]
