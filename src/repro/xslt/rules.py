"""The audit rules: from a parsed stylesheet to one batch of decision problems.

The auditor is a *planner/interpreter* around
:meth:`repro.api.StaticAnalyzer.solve_many`:

1. **Compile** — parse every match pattern into its ``|`` alternatives and
   every body ``select``/``test`` expression, then compose each body
   expression with its static context (the template's match expression,
   folded through enclosing ``xsl:for-each`` selects).
2. **Plan** — one :class:`~repro.api.Query` per check, deduplicated, all
   under a single shared :class:`~repro.analysis.problems.Rooted` schema
   constraint so the analyzer's caches share every type translation.
3. **Solve** — exactly one ``solve_many`` call.
4. **Interpret** — map verdicts back to findings, applying suppression: a
   dead template silences its body and shadow findings, an empty enclosing
   ``xsl:for-each`` select or ``xsl:if``/``xsl:when`` test silences the
   findings nested under it (the enclosing finding already explains them).

Checks that syntax alone decides never reach the solver: coverage of an
element by a bare name/wildcard pattern is trivially true, and elements no
pattern could syntactically match are decided by DTD reachability
(:func:`repro.xmltypes.dtd.reachable_elements`) and aggregated into one
finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.problems import Rooted
from repro.api import AnalysisOutcome, Query, StaticAnalyzer
from repro.core.errors import ParseError, UnsupportedTypeError
from repro.xmltypes.dtd import DTD, reachable_elements
from repro.xpath import ast as xp
from repro.xpath.parser import parse_xpath_cached
from repro.xslt.parser import Stylesheet, Template, load_stylesheet
from repro.xslt.patterns import (
    ComposeError,
    _last_steps,
    compose_context,
    default_priority,
    match_expression,
    matches_exactly_element,
    may_match_element,
    outranks,
    parse_test,
    pattern_alternatives,
)
from repro.xslt.report import AuditReport, Finding


def audit_stylesheet(
    stylesheet: Stylesheet | str | Path,
    schema: object,
    analyzer: StaticAnalyzer | None = None,
    workers: int = 1,
) -> AuditReport:
    """Audit a stylesheet against a schema; see the module docstring.

    ``schema`` is a schema as :class:`~repro.api.Query` takes one: a built-in
    schema name or a parsed :class:`~repro.xmltypes.dtd.DTD` (``repro audit``
    parses a ``.dtd`` file through :func:`repro.cli.wire.resolve_wire_type`).
    The report names it by the given name, or by the DTD's name.
    ``analyzer`` defaults to a fresh :class:`~repro.api.StaticAnalyzer`;
    pass a configured one to reuse its caches (or a disk cache) across
    audits.
    """
    if not isinstance(stylesheet, Stylesheet):
        stylesheet = load_stylesheet(stylesheet)
    dtd = StaticAnalyzer._resolve_type(schema)
    if not isinstance(dtd, DTD):
        raise UnsupportedTypeError(f"an audit needs a schema, not {schema!r}")
    schema_name = schema if isinstance(schema, str) else dtd.name
    if analyzer is None:
        analyzer = StaticAnalyzer()
    rooted = Rooted(dtd)
    plan = _Plan()
    findings: list[Finding] = []

    compiled = _compile_templates(stylesheet, findings)
    branches = [branch for entry in compiled for branch in entry.branches]
    for entry in compiled:
        entry.sat = plan.add(
            "dead-template", Query.satisfiability(entry.match_text, rooted)
        )
    _plan_shadows(compiled, branches, plan, rooted)
    _plan_bodies(compiled, plan, rooted, findings)
    coverage_plans = _plan_coverage(
        stylesheet, dtd, schema_name, branches, plan, rooted, findings
    )

    batch = analyzer.solve_many(plan.queries, workers=workers)
    outcomes = batch.outcomes

    # First pass: which templates are dead?  A dead template's own findings
    # collapse to the one dead-template error, and it is dropped from the
    # *displayed* shadowers of other templates (an unsatisfiable pattern
    # contributes nothing to the shadowing union, so this never changes a
    # verdict — only the provenance shown).
    dead = {
        id(entry.template)
        for entry in compiled
        if outcomes[entry.sat].definite and not outcomes[entry.sat].holds
    }
    for entry in compiled:
        _interpret_template(entry, outcomes, schema_name, findings, dead)
    for label, candidates, index in coverage_plans:
        _interpret_coverage(
            stylesheet, label, candidates, outcomes[index], schema_name, findings
        )

    return AuditReport(
        stylesheet=stylesheet.path,
        schema=schema_name,
        files=stylesheet.files,
        templates=len(stylesheet.templates),
        branches=len(branches),
        findings=findings,
        queries=plan.per_rule,
        solver_runs=batch.solver_runs,
        cache_hits=batch.cache_hits,
        total_seconds=batch.total_seconds,
        cache_statistics=analyzer.cache_statistics(),
    )


# -- compile ---------------------------------------------------------------------


@dataclass
class _Branch:
    """One pattern alternative of one template, with its resolved rank."""

    template: Template
    alternative: xp.Expr
    expr: xp.AbsolutePath
    precedence: int
    priority: float
    text: str
    #: Plan indices, filled in when the branch has outranking rivals.
    sat: int | None = None
    containment: int | None = None
    rivals: list["_Branch"] = field(default_factory=list)


@dataclass
class _BodyCheck:
    expression: object  # parser.Expression
    rule: str  # "unreachable-branch" | "dead-select"
    empty: int  # plan index of the emptiness query


@dataclass
class _Audited:
    """One match template that compiled successfully."""

    template: Template
    branches: list[_Branch]
    match_text: str
    sat: int | None = None
    body: list[_BodyCheck] = field(default_factory=list)


def _compile_templates(
    stylesheet: Stylesheet, findings: list[Finding]
) -> list[_Audited]:
    compiled: list[_Audited] = []
    for template in stylesheet.templates:
        if template.match is None:
            findings.append(
                Finding(
                    "skipped-template",
                    "info",
                    f"named template '{template.name}' has no match pattern; "
                    "its body is audited only through its call sites",
                    template.file,
                    template.line,
                    template.column,
                    {"name": template.name},
                )
            )
            continue
        try:
            alternatives = pattern_alternatives(template.match)
        except ParseError as exc:
            findings.append(
                Finding(
                    "unsupported-pattern",
                    "info",
                    f"match pattern not audited: {exc}",
                    template.file,
                    template.line,
                    template.column,
                    {"pattern": template.match, "position": exc.position},
                )
            )
            continue
        branches = [
            _Branch(
                template=template,
                alternative=alternative,
                expr=match_expression(alternative),
                precedence=template.precedence,
                priority=(
                    template.priority
                    if template.priority is not None
                    else default_priority(alternative)
                ),
                text=str(alternative),
            )
            for alternative in alternatives
        ]
        compiled.append(
            _Audited(
                template=template,
                branches=branches,
                match_text=str(_union(branch.expr for branch in branches)),
            )
        )
    return compiled


def _union(exprs) -> xp.Expr:
    exprs = list(exprs)
    result = exprs[0]
    for expr in exprs[1:]:
        result = xp.ExprUnion(result, expr)
    return result


# -- plan ------------------------------------------------------------------------


class _Plan:
    """The deduplicated query list of one audit (one ``solve_many`` batch)."""

    def __init__(self) -> None:
        self.queries: list[Query] = []
        self._index: dict[tuple, int] = {}
        self.per_rule: dict[str, int] = {}

    def add(self, rule: str, query: Query) -> int:
        key = (query.kind, query.exprs)
        index = self._index.get(key)
        if index is None:
            index = len(self.queries)
            self._index[key] = index
            self.queries.append(query)
            self.per_rule[rule] = self.per_rule.get(rule, 0) + 1
        return index


def _may_overlap(left: xp.Expr, right: xp.Expr) -> bool:
    """Syntactic prescreen: could the two pattern alternatives match a common
    node?  Compares the possible last steps (pattern steps are child/attribute
    only, so the last step decides the node kind and name)."""
    for a in _last_steps(left.path):
        for b in _last_steps(right.path):
            if isinstance(a, xp.Step) and isinstance(b, xp.Step):
                if a.axis is xp.Axis.SELF or b.axis is xp.Axis.SELF:
                    if a.axis is b.axis:
                        return True  # both are the document-node pattern "/"
                    continue
                if a.label is None or b.label is None or a.label == b.label:
                    return True
            elif isinstance(a, xp.AttributeStep) and isinstance(b, xp.AttributeStep):
                if a.name is None or b.name is None or a.name == b.name:
                    return True
    return False


def _plan_shadows(
    compiled: list[_Audited],
    branches: list[_Branch],
    plan: _Plan,
    rooted: Rooted,
) -> None:
    """Per branch: one containment against the union of every *outranking*
    same-mode branch of another template it could syntactically overlap,
    plus one satisfiability check (a branch that matches nothing is dead,
    not shadowed)."""
    for entry in compiled:
        for branch in entry.branches:
            rivals = [
                other
                for other in branches
                if other.template is not branch.template
                and other.template.mode == branch.template.mode
                and outranks(
                    (other.precedence, other.priority),
                    (branch.precedence, branch.priority),
                )
                and _may_overlap(branch.alternative, other.alternative)
            ]
            if not rivals:
                continue
            branch.rivals = rivals
            branch.sat = plan.add(
                "shadowed-template", Query.satisfiability(str(branch.expr), rooted)
            )
            branch.containment = plan.add(
                "shadowed-template",
                Query.containment(
                    str(branch.expr),
                    str(_union(other.expr for other in rivals)),
                    rooted,
                    rooted,
                ),
            )


def _plan_bodies(
    compiled: list[_Audited],
    plan: _Plan,
    rooted: Rooted,
    findings: list[Finding],
) -> None:
    for entry in compiled:
        context = _union(branch.expr for branch in entry.branches)
        asts: dict[int, xp.Expr | None] = {}
        for e in entry.template.expressions:
            try:
                ast = parse_test(e.text) if e.role == "test" else parse_xpath_cached(e.text)
            except ParseError as exc:
                asts[e.index] = None
                findings.append(
                    Finding(
                        "unsupported-expression",
                        "info",
                        f"{e.source} {e.role} not audited: {exc}",
                        e.file,
                        e.line,
                        e.column,
                        {"source": e.source, "text": e.text, "position": exc.position},
                    )
                )
                continue
            asts[e.index] = ast
            if any(asts.get(i) is None for i in e.context_chain):
                # An enclosing for-each select failed to parse; its own
                # note already covers everything nested under it.
                continue
            try:
                composed_context = context
                for i in e.context_chain:
                    composed_context = compose_context(composed_context, asts[i])
                composed = compose_context(composed_context, ast)
            except ComposeError as exc:
                findings.append(
                    Finding(
                        "skipped-expression",
                        "info",
                        f"{e.source} {e.role} not audited: {exc}",
                        e.file,
                        e.line,
                        e.column,
                        {"source": e.source, "text": e.text},
                    )
                )
                continue
            rule = "unreachable-branch" if e.role == "test" else "dead-select"
            entry.body.append(
                _BodyCheck(
                    expression=e,
                    rule=rule,
                    empty=plan.add(rule, Query.emptiness(str(composed), rooted)),
                )
            )


def _plan_coverage(
    stylesheet: Stylesheet,
    dtd: DTD,
    schema_name: str,
    branches: list[_Branch],
    plan: _Plan,
    rooted: Rooted,
    findings: list[Finding],
) -> list[tuple[str, list[_Branch], int]]:
    """Three tiers per reachable element: trivially covered by a bare
    name/wildcard pattern (no query), no syntactic candidate at all
    (aggregated finding, no query), or a semantic coverage query against
    the candidates' match expressions.  Mode-insensitive: a template in
    any mode counts as matching."""
    uncovered: list[str] = []
    plans: list[tuple[str, list[_Branch], int]] = []
    for label in sorted(reachable_elements(dtd)):
        candidates = [
            branch
            for branch in branches
            if may_match_element(branch.alternative, label)
        ]
        if any(
            matches_exactly_element(branch.alternative, label) for branch in candidates
        ):
            continue
        if not candidates:
            uncovered.append(label)
            continue
        index = plan.add(
            "coverage-gap",
            Query.coverage(
                f"//{label}",
                [str(branch.expr) for branch in candidates],
                rooted,
                [rooted] * len(candidates),
            ),
        )
        plans.append((label, candidates, index))
    if uncovered:
        findings.append(
            Finding(
                "coverage-gap",
                "warning",
                "no template matches element(s): " + ", ".join(uncovered),
                stylesheet.path,
                1,
                1,
                {"elements": uncovered, "schema": schema_name},
            )
        )
    return plans


# -- interpret -------------------------------------------------------------------


def _analysis_error(
    file: str, line: int, column: int, outcome: AnalysisOutcome
) -> Finding:
    return Finding(
        "analysis-error",
        "warning",
        f"analysis failed: {outcome.error}",
        file,
        line,
        column,
        {"kind": outcome.error_kind, "problem": outcome.problem},
    )


def _analysis_unknown(
    file: str, line: int, column: int, outcome: AnalysisOutcome
) -> Finding:
    """An audit query whose solver budget ran out: reported, never guessed.

    A non-definite outcome must not feed a rule verdict — treating an
    unknown satisfiability as "dead template" would turn a tight deadline
    into false positives — so the rule engine surfaces it as an ``info``
    finding and draws no conclusion from the query.
    """
    return Finding(
        "analysis-unknown",
        "info",
        f"analysis inconclusive (budget exhausted: {outcome.budget_reason}): "
        f"{outcome.problem}",
        file,
        line,
        column,
        {"budget_reason": outcome.budget_reason, "problem": outcome.problem},
    )


def _mode_suffix(template: Template) -> str:
    return f' mode="{template.mode}"' if template.mode is not None else ""


def _interpret_template(
    entry: _Audited,
    outcomes: list[AnalysisOutcome],
    schema_name: str,
    findings: list[Finding],
    dead: set[int],
) -> None:
    template = entry.template
    sat = outcomes[entry.sat]
    if not sat.ok:
        findings.append(
            _analysis_error(template.file, template.line, template.column, sat)
        )
        return
    if not sat.definite:
        findings.append(
            _analysis_unknown(template.file, template.line, template.column, sat)
        )
        return
    if not sat.holds:
        findings.append(
            Finding(
                "dead-template",
                "error",
                f'template match="{template.match}"{_mode_suffix(template)} can '
                f"never match any node of schema '{schema_name}'",
                template.file,
                template.line,
                template.column,
                {"match": template.match, "mode": template.mode, "schema": schema_name},
            )
        )
        return  # a dead template's shadow and body findings are redundant
    _interpret_shadows(entry, outcomes, findings, dead)
    _interpret_body(entry, outcomes, schema_name, findings)


def _interpret_shadows(
    entry: _Audited,
    outcomes: list[AnalysisOutcome],
    findings: list[Finding],
    dead: set[int],
) -> None:
    template = entry.template
    for branch in entry.branches:
        if branch.containment is None:
            continue
        sat = outcomes[branch.sat]
        contained = outcomes[branch.containment]
        broken = sat if not sat.ok else (contained if not contained.ok else None)
        if broken is not None:
            findings.append(
                _analysis_error(template.file, template.line, template.column, broken)
            )
            continue
        if not sat.definite or not contained.definite:
            vague = sat if not sat.definite else contained
            findings.append(
                _analysis_unknown(template.file, template.line, template.column, vague)
            )
            continue
        if not sat.holds or not contained.holds:
            continue  # dead branch, or genuinely reachable
        rivals = [
            rival for rival in branch.rivals if id(rival.template) not in dead
        ] or branch.rivals
        shadowers = sorted(
            {
                (rival.template.file, rival.template.line, rival.template.column)
                for rival in rivals
            }
        )
        where = "; ".join(f"{f}:{l}:{c}" for f, l, c in shadowers)
        subject = (
            f'match="{template.match}"'
            if len(entry.branches) == 1
            else f"match branch '{branch.text}'"
        )
        findings.append(
            Finding(
                "shadowed-template",
                "error",
                f"template {subject}{_mode_suffix(template)} never fires: every "
                f"node it matches is also matched by the higher-precedence "
                f"template(s) at {where}",
                template.file,
                template.line,
                template.column,
                {
                    "branch": branch.text,
                    "mode": template.mode,
                    "shadowed_by": [
                        {
                            "file": rival.template.file,
                            "line": rival.template.line,
                            "column": rival.template.column,
                            "match": rival.template.match,
                            "precedence": rival.precedence,
                            "priority": rival.priority,
                        }
                        for rival in rivals
                    ],
                },
            )
        )


def _interpret_body(
    entry: _Audited,
    outcomes: list[AnalysisOutcome],
    schema_name: str,
    findings: list[Finding],
) -> None:
    empties: dict[int, bool] = {}
    for check in entry.body:
        e = check.expression
        outcome = outcomes[check.empty]
        if not outcome.ok:
            findings.append(_analysis_error(e.file, e.line, e.column, outcome))
            continue
        if not outcome.definite:
            findings.append(_analysis_unknown(e.file, e.line, e.column, outcome))
            continue
        empties[e.index] = outcome.holds
        if not outcome.holds:
            continue
        if any(empties.get(i) for i in e.ancestors):
            continue  # an enclosing empty select/test already explains this
        if check.rule == "unreachable-branch":
            message = (
                f'{e.source} test="{e.text}" is never true in this context '
                f"under schema '{schema_name}'"
            )
        else:
            message = (
                f'{e.source} select="{e.text}" never selects any node in '
                f"this context under schema '{schema_name}'"
            )
        findings.append(
            Finding(
                check.rule,
                "warning",
                message,
                e.file,
                e.line,
                e.column,
                {"source": e.source, "text": e.text, "schema": schema_name},
            )
        )


def _interpret_coverage(
    stylesheet: Stylesheet,
    label: str,
    candidates: list[_Branch],
    outcome: AnalysisOutcome,
    schema_name: str,
    findings: list[Finding],
) -> None:
    if not outcome.ok:
        findings.append(_analysis_error(stylesheet.path, 1, 1, outcome))
        return
    if not outcome.definite:
        findings.append(_analysis_unknown(stylesheet.path, 1, 1, outcome))
        return
    if outcome.holds:
        return
    where = ", ".join(
        sorted(
            {
                f"{branch.template.file}:{branch.template.line}"
                for branch in candidates
            }
        )
    )
    findings.append(
        Finding(
            "coverage-gap",
            "warning",
            f"element '{label}' can occur where no template matches it: the "
            f"candidate template(s) at {where} miss some occurrences",
            stylesheet.path,
            1,
            1,
            {
                "element": label,
                "schema": schema_name,
                "candidates": [branch.text for branch in candidates],
                "witness": outcome.counterexample,
            },
        )
    )
