"""Build ``reference/serve-stream.json``: the request pool and its verdicts.

Usage, from the root of the repository::

    PYTHONPATH=src python3 perfbench/make_reference.py

Each candidate problem below is solved cold by a default
:class:`repro.api.StaticAnalyzer`.  A candidate enters the pool only if it
decides definitely within :data:`MAX_SOLVE_S` (:data:`MAX_SOLVE_S_STRICT`
over ``xhtml-strict``, which nothing decides faster; the 50-query CLI
workload's problems enter regardless) and no oracle contradicts the
verdict.  The cap keeps one pass over the pool short enough for several
passes per benchmark run.  The
verdict is then checked, where they apply, by the independent oracles of
:mod:`repro.testing.oracle`, never by the BDD solver alone:

* ``explicit`` — the ψ-type algorithm (:func:`explicit_verdict`) decides the
  problem's single-rooted fuzz reduction; for ``rooted:`` types and
  ``type_inclusion`` it decides the analyzer's unpruned translation instead;
* ``bounded`` — bounded document enumeration (:func:`bounded_search`) finds
  a witness, or exhausts its bounds without one; ``bounded-prefix`` — it
  finds no witness among the :data:`BOUNDED_DOCUMENTS` smallest documents,
  which supports an unsatisfiable answer without proving it;
* ``replay`` — the model of the single-rooted reduction is replayed against
  the denotational XPath semantics and the DTD (:func:`replay_witness`).

Equivalence is checked as its two containments and coverage as containment
in the union of the covering expressions.  Each entry records which oracles
agreed; a problem no oracle can reach says so (``"oracles": []``).
"""

from __future__ import annotations

import json
import sys
import time
from importlib import resources
from pathlib import Path

from repro.analysis.problems import relevant_attributes, type_inclusion_attributes
from repro.api import StaticAnalyzer
from repro.cli import wire
from repro.cli.bench import cli_cache_workload
from repro.logic import syntax as sx
from repro.logic.negation import negate
from repro.solver.symbolic import SymbolicSolver
from repro.testing.corpus import FuzzCase
from repro.testing.fuzz import case_formula
from repro.testing.oracle import Bounds, bounded_search, explicit_verdict, replay_witness

OUTPUT = Path(__file__).resolve().parent / "reference" / "serve-stream.json"

#: Pool cap: a candidate must decide cold within this many seconds, far
#: below the server deadline.
MAX_SOLVE_S = 0.3
MAX_SOLVE_S_STRICT = 0.7
DEADLINE_S = 60
#: Problems in the reduced pool of ``run.py --quick``.
QUICK_SIZE = 12
#: Documents the bounded enumeration examines, smallest first.
BOUNDED_DOCUMENTS = 4000

BUILTIN_DTDS = {
    "wikipedia": ("wikipedia.dtd", "article"),
    "xhtml-core": ("xhtml1_core.dtd", "html"),
    "smil": ("smil10.dtd", "smil"),
    "xhtml-strict": ("xhtml1_strict.dtd", "html"),
}

ABCD = {"dtd": "<!ELEMENT a (b*, c?)><!ELEMENT b (c | d)*><!ELEMENT c EMPTY>"
        "<!ELEMENT d (b?)>", "root": "a", "name": "abcd"}
NESTED = {"dtd": "<!ELEMENT list (item+)><!ELEMENT item (name, (list | value))>"
          "<!ELEMENT name EMPTY><!ELEMENT value EMPTY>", "root": "list", "name": "nested"}
DOC = {"dtd": "<!ELEMENT doc (sec+)><!ELEMENT sec (title, para*)>"
       "<!ATTLIST sec id CDATA #REQUIRED><!ELEMENT title EMPTY><!ELEMENT para EMPTY>"
       "<!ATTLIST para role CDATA #IMPLIED>", "root": "doc", "name": "doc"}
META = {"dtd": "<!ELEMENT meta (title, history?)><!ELEMENT title EMPTY>"
        "<!ELEMENT history (edit)+><!ELEMENT edit (status?, comment?)>"
        "<!ELEMENT status EMPTY><!ELEMENT comment EMPTY>", "root": "meta", "name": "meta"}
META_TITLE = {"dtd": "<!ELEMENT meta (title)><!ELEMENT title EMPTY>",
              "root": "meta", "name": "metatitle"}
SECTION = {"dtd": "<!ELEMENT sec (title, para*)><!ATTLIST sec id CDATA #REQUIRED>"
           "<!ELEMENT title EMPTY><!ELEMENT para EMPTY>", "root": "sec", "name": "sec"}


def candidates() -> list[dict]:
    """Candidate requests in the wire format of ``repro serve``."""
    pool: list[dict] = []

    def add(kind: str, exprs: list[str], types: list | None = None) -> None:
        request = {"kind": kind, "exprs": exprs}
        if types is not None:
            request["types"] = types
        pool.append(request)

    for request in cli_cache_workload(repeats=1):
        add(request["kind"], request["exprs"], request.get("types"))

    for left, right in [
        ("a/b", "a//b"), ("a//b", "a/b"), ("a[b]/c", "a/c"), ("a/b[c][d]", "a/b[c]"),
        ("a/*/c", "a//c"), ("a/b/following-sibling::c", "a/*"), ("a/b[not(c)]", "a/b"),
        ("descendant::a[ancestor::b]", "descendant::a"), ("a/b[c]/d", "a/b/d[preceding-sibling::*]"),
        ("a/parent::*/b", "*/b"), ("a/b/ancestor::*", "descendant-or-self::*"),
        ("a/b[c]", "a/b"), ("a/b/c", "a//c"), ("a[b][c]", "a[c]"),
        ("descendant::b[parent::a]", "descendant::b"), ("a/b", "a/b[following-sibling::c]"),
    ]:
        add("containment", [left, right])
    add("satisfiability", ["a/b[following-sibling::c]/d"])
    add("overlap", ["a/b", "a/c"])
    add("overlap", ["descendant::a", "descendant::b/parent::a"])
    for expr in ["a/b[c and not(c)]", "a[b]/parent::*/c", "a/preceding-sibling::b/following-sibling::c",
                 "a//b[ancestor::c]", "a/b/self::c", "child::a/following-sibling::a[b]"]:
        add("satisfiability", [expr])
        add("emptiness", [expr])
    for left, right in [("a/b", "a/b[c]"), ("a//b", "a/b"), ("a/b[c]", "a/b[not(c)]"), ("a/*", "a/b | a/c")]:
        add("overlap", [left, right])
    for left, right in [("a/b | a/c", "a/(b | c)"), ("a//b", "a/descendant::b"),
                        ("a/b[c]", "a/b[c][c]"), ("a/b/..", "a[b]")]:
        add("equivalence", [left, right])
    add("coverage", ["a/*", "a/b", "a/c"])
    add("coverage", ["descendant::a", "child::a", "child::*/descendant::a"])

    wikipedia = ["wikipedia"]
    for expr in ["descendant::edit[status]", "meta/history/edit/comment",
                 "descendant::redirect[preceding-sibling::meta]", "descendant::edit[comment][status]",
                 "child::text/following-sibling::meta", "descendant::title[ancestor::history]",
                 "meta/title/following-sibling::history/edit", "descendant::history[not(edit)]",
                 "descendant::status/parent::edit/parent::history"]:
        add("satisfiability", [expr], wikipedia)
    for expr in ["descendant::comment/child::*", "meta/history[edit/status]",
                 "child::redirect[preceding-sibling::text]"]:
        add("emptiness", [expr], wikipedia)
    for left, right in [("descendant::edit", "descendant::history/edit"),
                        ("meta/*", "meta/title | meta/history"),
                        ("descendant::status", "descendant::edit/status"),
                        ("child::meta", "child::meta[title]"),
                        ("descendant::edit[comment]", "descendant::edit[status]")]:
        add("containment", [left, right], wikipedia)
    add("equivalence", ["child::meta/child::*", "child::meta/(child::title | child::history)"], wikipedia)
    add("equivalence", ["descendant::edit", "descendant::history/child::edit"], wikipedia)
    add("overlap", ["descendant::edit[status]", "descendant::edit[comment]"], wikipedia)
    add("overlap", ["child::text", "child::redirect"], wikipedia)
    add("coverage", ["child::*", "child::meta", "child::text", "child::redirect"], wikipedia)
    add("type_inclusion", ["child::meta"], ["wikipedia", META])
    add("type_inclusion", ["child::meta"], ["wikipedia", META_TITLE])

    core = ["xhtml-core"]
    for expr in ["html/head/title", "descendant::li[ancestor::table]", "descendant::td/child::ul/child::li",
                 "html/body/descendant::p/child::div", "descendant::img[parent::a]", "html/head/child::p"]:
        add("satisfiability", [expr], core)
    for left, right in [("descendant::li", "descendant::ul/li"),
                        ("html/body/descendant::td", "descendant::tr/td"),
                        ("descendant::em[ancestor::p]", "descendant::p//em")]:
        add("containment", [left, right], core)
    add("emptiness", ["html/head/body"], core)
    add("overlap", ["descendant::span[em]", "descendant::span[strong]"], core)

    smil = ["smil"]
    for expr in ["*//switch[ancestor::head]//seq//audio[prec-sibling::video]",
                 "descendant::region[parent::layout]", "smil/body/par/audio",
                 "descendant::seq[par]/video", "smil/head/layout/root-layout",
                 "descendant::anchor[parent::video]"]:
        add("satisfiability", [expr], smil)
    for left, right in [("descendant::region", "descendant::layout/region"),
                        ("smil/body/*", "smil/body/par | smil/body/seq")]:
        add("containment", [left, right], smil)
    add("emptiness", ["smil/head/par"], smil)

    strict = ["xhtml-strict"]
    for expr in ["html/head/title", "html/body/p/a", "descendant::form[ancestor::form]",
                 "html/head/body", "descendant::li[parent::ol]"]:
        add("satisfiability", [expr], strict)
    add("emptiness", ["html/head/child::p"], strict)

    for expr, xml_type in [("/article/meta/title", "rooted:wikipedia"), ("/article/text", "rooted:wikipedia"),
                           ("/meta", "rooted:wikipedia"), ("/html/head/title", "rooted:xhtml-core"),
                           ("//li", "rooted:xhtml-core"), ("/smil/head", "rooted:smil")]:
        add("satisfiability", [expr], [xml_type])
    add("containment", ["//edit", "/article/meta/history/edit"], ["rooted:wikipedia"])
    add("containment", ["//title", "/html/head/title"], ["rooted:xhtml-core"])

    for expr in ["a/b/d/b", "descendant::d[c]", "a/c/following-sibling::b", "descendant::b[d/b/c]"]:
        add("satisfiability", [expr], [ABCD])
    add("containment", ["descendant::d", "descendant::b/d"], [ABCD])
    add("containment", ["a/b", "a/b[c]"], [ABCD])
    add("equivalence", ["descendant::c", "descendant::b/c | a/c"], [ABCD])
    for expr in ["list/item/list/item/value", "descendant::name[following-sibling::list]",
                 "descendant::value/following-sibling::name"]:
        add("satisfiability", [expr], [NESTED])
    add("containment", ["descendant::item", "descendant::list/item"], [NESTED])
    add("satisfiability", ["descendant::item[value]"], [NESTED])
    add("containment", ["list/item/name", "descendant::name"], [NESTED])
    add("satisfiability", ["doc/sec/para[@role]"], [DOC])
    add("emptiness", ["child::text/child::*"], wikipedia)
    add("satisfiability", ["descendant::edit[parent::history]"], wikipedia)
    add("coverage", ["descendant::*", "descendant::item", "descendant::list",
                     "descendant::name", "descendant::value"], [NESTED])
    for expr in ["descendant::sec[@id]", "descendant::sec[not(@id)]", "descendant::para[@role]",
                 "doc/sec/title[@role]"]:
        add("satisfiability", [expr], [DOC])
    add("containment", ["descendant::sec", "descendant::sec[@id]"], [DOC])
    add("type_inclusion", ["descendant::sec"], [DOC, SECTION])
    return pool


# -- oracles ------------------------------------------------------------------


def dtd_source(entry) -> tuple[str | None, str | None]:
    """(DTD source, root) of a plain wire type entry (``None`` when untyped)."""
    if entry is None:
        return None, None
    if isinstance(entry, dict):
        return entry["dtd"], entry.get("root")
    filename, root = BUILTIN_DTDS[entry]
    text = resources.files("repro.xmltypes.data").joinpath(filename).read_text()
    return text, root


def fuzz_cases(request: dict) -> list[FuzzCase] | None:
    """The single-question fuzz cases deciding a request, or ``None``.

    Equivalence yields its two containments; coverage the containment in
    the union of its covering expressions.  Problems over ``rooted:`` types,
    mixed types or ``type_inclusion`` have no fuzz case.
    """
    kind, exprs = request["kind"], request["exprs"]
    types = request.get("types") or [None]
    if len({json.dumps(entry) for entry in types}) != 1 or kind == "type_inclusion":
        return None
    if isinstance(types[0], str) and types[0].startswith("rooted:"):
        return None
    source, root = dtd_source(types[0])
    if kind == "equivalence":
        return [FuzzCase("containment", tuple(exprs), source, root),
                FuzzCase("containment", tuple(reversed(exprs)), source, root)]
    if kind == "coverage":
        union = " | ".join(f"({expr})" if "|" in expr else expr for expr in exprs[1:])
        return [FuzzCase("containment", (exprs[0], union), source, root)]
    return [FuzzCase(kind, tuple(exprs), source, root)]


def check_case(case: FuzzCase, holds: bool) -> dict:
    """Oracle verdicts on one fuzz case whose expected answer is ``holds``.

    Values are ``True`` when the oracle agrees and ``False`` when it
    contradicts; oracles that do not engage are left out.
    """
    dtd = case.dtd()
    results = {}
    explicit, _estimated = explicit_verdict(case_formula(case, dtd, pruned=False))
    if explicit is not None:
        results["explicit"] = case.holds(explicit) == holds
    bounded = bounded_search(case, Bounds(max_documents=BOUNDED_DOCUMENTS))
    if bounded.witness_found:
        results["bounded"] = case.holds(True) == holds
    elif case.holds(False) == holds:
        # No witness agrees with an unsatisfiable answer: a proof within the
        # bounds when they were exhausted, else evidence from the smallest
        # documents.  It cannot refute a satisfiable answer whose witnesses
        # are larger, so a disagreement here is not recorded.
        results["bounded" if bounded.exhausted else "bounded-prefix"] = True
    model = SymbolicSolver(case_formula(case, dtd, pruned=True)).solve()
    if model.satisfiable:
        forest = model.model_forest() or ()
        results["replay"] = (
            bool(forest) and not replay_witness(case, forest, dtd) and case.holds(True) == holds
        )
    return results


def check_translation(request: dict, holds: bool) -> dict:
    """ψ-type verdict on the analyzer's unpruned translation of a request."""
    analyzer = StaticAnalyzer()
    query = wire.query_from_dict(request, {})
    kind, exprs, types = query.kind, query.exprs, query.types
    if kind == "type_inclusion":
        attributes = type_inclusion_attributes(exprs[0], types[0], types[1])
        formula = sx.mk_and(
            analyzer.query_formula(exprs[0], types[0], attributes),
            negate(analyzer.type_formula(types[1], constrain_siblings=False,
                                         attributes=attributes)),
        )
        positive = False
    else:
        attributes = relevant_attributes(*exprs)
        first = analyzer.query_formula(exprs[0], types[0], attributes)
        if kind == "satisfiability":
            formula, positive = first, True
        elif kind == "containment":
            second = analyzer.query_formula(exprs[1], types[1], attributes)
            formula, positive = sx.mk_and(first, negate(second)), False
        else:
            return {}
    explicit, _estimated = explicit_verdict(formula)
    if explicit is None:
        return {}
    return {"explicit": (explicit if positive else not explicit) == holds}


def confirm(request: dict, holds: bool) -> dict:
    cases = fuzz_cases(request)
    if cases is None:
        return check_translation(request, holds)
    if request["kind"] == "equivalence":
        # Both directions must hold for the equivalence to hold; when it
        # fails, the oracles must refute at least one direction.
        forward, backward = (check_case(case, case_holds) for case, case_holds in
                             zip(cases, _equivalence_parts(request)))
        return {name: forward.get(name, True) and backward.get(name, True)
                for name in set(forward) | set(backward)}
    return check_case(cases[0], holds)


def _equivalence_parts(request: dict) -> tuple[bool, bool]:
    """The verdicts of an equivalence's two directed containments."""
    types = request.get("types")
    verdicts = []
    for exprs in (request["exprs"], list(reversed(request["exprs"]))):
        part = {"kind": "containment", "exprs": exprs}
        if types is not None:
            part["types"] = types
        verdicts.append(StaticAnalyzer().solve(wire.query_from_dict(part, {})).holds)
    return verdicts[0], verdicts[1]


def main() -> int:
    workload = {json.dumps(request, sort_keys=True) for request in
                ({k: v for k, v in r.items() if k != "id"} for r in cli_cache_workload(repeats=1))}
    pool = []
    seen = set()
    for request in candidates():
        key = json.dumps(request, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        started = time.perf_counter()
        outcome = StaticAnalyzer().solve(wire.query_from_dict(request, {}))
        elapsed = time.perf_counter() - started
        in_workload = key in workload
        if not outcome.definite or outcome.error is not None:
            print(f"skip (no verdict): {key}", file=sys.stderr)
            continue
        cap = MAX_SOLVE_S_STRICT if request.get("types") == ["xhtml-strict"] else MAX_SOLVE_S
        if elapsed > cap and not in_workload:
            print(f"skip ({elapsed:.2f}s): {key}", file=sys.stderr)
            continue
        oracles = confirm(request, outcome.holds)
        if not all(oracles.values()):
            print(f"skip (oracle disagrees {oracles}): {key}", file=sys.stderr)
            continue
        pool.append({
            "request": request,
            "expected": {"holds": outcome.holds, "satisfiable": outcome.satisfiable},
            "oracles": sorted(oracles),
            "cli_workload": in_workload,
            "cold_solve_s": round(elapsed, 3),
        })
        print(f"{elapsed:6.3f}s {sorted(oracles)} {key}", file=sys.stderr)

    by_cost = sorted(range(len(pool)), key=lambda index: pool[index]["cold_solve_s"])
    quick, kinds = set(), set()
    for index in by_cost:  # cheapest problem of every kind first, then the cheapest rest
        kind = pool[index]["request"]["kind"]
        if kind not in kinds:
            kinds.add(kind)
            quick.add(index)
    for index in by_cost:
        if len(quick) >= QUICK_SIZE:
            break
        quick.add(index)
    for index, entry in enumerate(pool):
        entry["quick"] = index in quick

    OUTPUT.write_text(json.dumps({
        "note": "Generated by perfbench/make_reference.py; expected verdicts of "
                "the serve-stream pool, with the independent oracles that agreed.",
        "deadline_seconds": DEADLINE_S,
        "pool": pool,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pool)} problems written to {OUTPUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
