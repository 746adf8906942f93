"""Tests for ``repro audit`` and the auditor's wire-format round trips.

The wire tests are the end-to-end proof that every query kind the auditor
plans (satisfiability, emptiness, containment, coverage — all under
document-rooted schemas) is expressible in the CLI wire format: the same
queries answered through ``repro analyze --batch`` and a ``repro serve``
session must return the verdicts ``StaticAnalyzer.solve_many`` returns
in-process.
"""

import io
import json
import textwrap

import pytest

from repro.analysis.problems import Rooted
from repro.api import Query, StaticAnalyzer
from repro.cli import build_parser, main
from repro.cli.analyze import EXIT_ANALYSIS_ERROR, EXIT_OK, EXIT_USAGE
from repro.cli.serve import serve

HEADER = '<?xml version="1.0"?>\n'
OPEN = '<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">\n'
CLOSE = "</xsl:stylesheet>\n"


def write(tmp_path, body, name="sheet.xsl"):
    path = tmp_path / name
    path.write_text(HEADER + OPEN + textwrap.dedent(body) + CLOSE, encoding="utf-8")
    return path


@pytest.fixture
def seeded(tmp_path):
    return write(
        tmp_path,
        """\
        <xsl:template match="/">
          <xsl:apply-templates select="article"/>
        </xsl:template>
        <xsl:template match="article">
          <xsl:value-of select="text/title"/>
        </xsl:template>
        <xsl:template match="article/title">dead</xsl:template>
        """,
    )


@pytest.fixture
def clean(tmp_path):
    return write(
        tmp_path,
        """\
        <xsl:template match="/">
          <xsl:apply-templates select="article"/>
        </xsl:template>
        <xsl:template match="*">
          <xsl:apply-templates select="*"/>
        </xsl:template>
        """,
        name="clean.xsl",
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parser_accepts_audit_flags():
    args = build_parser().parse_args(
        ["audit", "sheet.xsl", "--schema", "xhtml-strict", "--format", "json",
         "--fail-on", "warning", "--compact", "--workers", "2"]
    )
    assert args.command == "audit"
    assert args.stylesheet == "sheet.xsl"
    assert args.schema == "xhtml-strict"
    assert args.format == "json" and args.fail_on == "warning"
    assert args.compact and args.workers == 2


def test_parser_requires_schema():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["audit", "sheet.xsl"])
    assert excinfo.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# Text and JSON output, exit codes
# ---------------------------------------------------------------------------


def test_audit_text_output_and_failing_exit(seeded, capsys):
    code = main(["audit", str(seeded), "--schema", "wikipedia"])
    out = capsys.readouterr().out
    assert code == 1  # the dead template is an error
    assert "dead-template" in out
    assert f"{seeded}:" in out  # compiler-style file:line:col prefixes
    assert "in one batch" in out


def test_audit_json_output_is_stable(seeded, capsys):
    code = main(["audit", str(seeded), "--schema", "wikipedia", "--format", "json",
                 "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["schema"] == "wikipedia"
    rules = [finding["rule"] for finding in payload["findings"]]
    assert "dead-template" in rules and "dead-select" in rules
    assert payload["batch"]["queries"] == sum(payload["queries"].values())
    assert payload["cache_statistics"]["solver_runs"] >= 1


def test_audit_clean_stylesheet_exits_zero(clean, capsys):
    code = main(["audit", str(clean), "--schema", "wikipedia",
                 "--fail-on", "warning"])
    assert code == EXIT_OK
    assert "0 error(s), 0 warning(s)" in capsys.readouterr().out


def test_audit_fail_on_thresholds(seeded, capsys):
    assert main(["audit", str(seeded), "--schema", "wikipedia",
                 "--fail-on", "never"]) == EXIT_OK
    assert main(["audit", str(seeded), "--schema", "wikipedia",
                 "--fail-on", "warning"]) == 1
    capsys.readouterr()


def test_audit_usage_errors(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "ghost.xsl"), "--schema", "wikipedia"]) \
        == EXIT_USAGE
    assert "not found" in capsys.readouterr().err
    sheet = write(tmp_path, '<xsl:template match="a">x</xsl:template>\n')
    assert main(["audit", str(sheet), "--schema", "no-such"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "no-such" in err and "wikipedia" in err  # lists available schemas


def test_audit_schema_accepts_dtd_files(tmp_path, capsys):
    """``--schema`` reads a .dtd path as ``analyze --type`` does; the report
    names the schema by the file stem."""
    schema = tmp_path / "tiny.dtd"
    schema.write_text("<!ELEMENT a (b*)><!ELEMENT b EMPTY>", encoding="utf-8")
    sheet = write(tmp_path, '<xsl:template match="a | b">x</xsl:template>\n')
    code = main(["audit", str(sheet), "--schema", str(schema), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["schema"] == "tiny"
    assert payload["findings"] == []


def test_audit_schema_errors(tmp_path, capsys):
    sheet = write(tmp_path, '<xsl:template match="a">x</xsl:template>\n')
    missing = str(tmp_path / "missing.dtd")
    assert main(["audit", str(sheet), "--schema", missing]) == EXIT_USAGE
    assert missing in capsys.readouterr().err
    broken = tmp_path / "broken.dtd"
    broken.write_text("<!ELEMENT a (b", encoding="utf-8")
    assert main(["audit", str(sheet), "--schema", str(broken)]) == EXIT_USAGE
    assert "invalid DTD 'broken'" in capsys.readouterr().err
    # An audit reads its schema as a document already: rooted: is refused.
    assert main(["audit", str(sheet), "--schema", "rooted:wikipedia"]) == EXIT_USAGE
    assert "needs a schema" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Wire round trips: the auditor's query kinds via analyze --batch and serve
# ---------------------------------------------------------------------------

#: One request per auditor rule, all under the document-rooted wikipedia
#: schema: dead-template (satisfiability), dead-select/unreachable-branch
#: (emptiness), shadowed-template (containment), coverage-gap (coverage).
WIRE_REQUESTS = [
    {"id": "dead-template", "kind": "satisfiability",
     "exprs": ["//article/title"], "types": ["rooted:wikipedia"]},
    {"id": "dead-select", "kind": "emptiness",
     "exprs": ["//article/text/title"], "types": ["rooted:wikipedia"]},
    {"id": "shadowed-template", "kind": "containment",
     "exprs": ["//history/edit", "//edit"], "types": ["rooted:wikipedia"]},
    {"id": "coverage-gap", "kind": "coverage",
     "exprs": ["//edit", "//edit[status]"], "types": ["rooted:wikipedia"]},
]


def in_process_verdicts() -> list[tuple[bool, bool]]:
    rooted = Rooted("wikipedia")
    queries = [
        Query.satisfiability("//article/title", rooted),
        Query.emptiness("//article/text/title", rooted),
        Query.containment("//history/edit", "//edit", rooted, rooted),
        Query.coverage("//edit", ["//edit[status]"], rooted, [rooted]),
    ]
    batch = StaticAnalyzer().solve_many(queries)
    assert all(outcome.ok for outcome in batch.outcomes)
    return [(outcome.holds, outcome.satisfiable) for outcome in batch.outcomes]


def test_analyze_batch_round_trips_auditor_query_kinds(tmp_path, capsys):
    batch_file = tmp_path / "audit-queries.jsonl"
    batch_file.write_text(
        "# the four auditor query kinds\n"
        + "\n".join(json.dumps(request) for request in WIRE_REQUESTS)
        + "\n",
        encoding="utf-8",
    )
    code = main(["analyze", "--batch", str(batch_file), "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and payload["errors"] == 0
    wire_verdicts = [
        (outcome["holds"], outcome["satisfiable"])
        for outcome in payload["outcomes"]
    ]
    assert wire_verdicts == in_process_verdicts()
    kinds = [outcome["query"]["kind"] for outcome in payload["outcomes"]]
    assert kinds == ["satisfiability", "emptiness", "containment", "coverage"]
    types = {
        t for outcome in payload["outcomes"] for t in outcome["query"]["types"]
    }
    assert types == {"rooted:wikipedia"}


def test_serve_session_round_trips_auditor_query_kinds():
    text = "\n".join(json.dumps(request) for request in WIRE_REQUESTS)
    output = io.StringIO()
    assert serve(io.StringIO(text + "\n"), output) == 0
    responses = [json.loads(line) for line in output.getvalue().splitlines()]
    assert [r["id"] for r in responses] == [r["id"] for r in WIRE_REQUESTS]
    assert all(r["ok"] for r in responses)
    wire_verdicts = [
        (r["outcome"]["holds"], r["outcome"]["satisfiable"]) for r in responses
    ]
    assert wire_verdicts == in_process_verdicts()
    # The coverage gap's witness travels the wire too.
    assert responses[3]["outcome"]["counterexample"] is not None


def test_analyze_inline_rooted_type(capsys):
    code = main(["analyze", "/article/meta", "--kind", "satisfiability",
                 "--type", "rooted:wikipedia", "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["outcomes"][0]["holds"] is True


def test_analyze_rejects_nested_rooted_type(capsys):
    code = main(["analyze", "/a", "--kind", "satisfiability",
                 "--type", "rooted:rooted:wikipedia", "--compact"])
    assert code == EXIT_ANALYSIS_ERROR
