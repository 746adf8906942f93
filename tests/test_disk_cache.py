"""Tests for the persistent solve cache (:mod:`repro.cache`)."""

import hashlib
import json

import pytest

from repro.api import Query, StaticAnalyzer
from repro.cache import (
    CACHE_FORMAT_VERSION,
    DiskSolveCache,
    SolveRecord,
    formula_digest,
    lean_alphabet,
    solve_cache_key,
)
from repro.logic import syntax as sx
from repro.logic.parser import parse_formula


QUERY = Query.containment("child::a[b]", "child::a")


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


def test_digest_is_alpha_invariant():
    # Two structurally identical fixpoints over *different* bound names (as
    # produced by the globally-fresh variable generator in two processes).
    first = sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x))
    second = sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x))
    assert first is not second  # different bound names, so not interned
    assert formula_digest(first) == formula_digest(second)
    assert solve_cache_key(first) == solve_cache_key(second)


def test_digest_distinguishes_formulas():
    digests = {
        formula_digest(parse_formula(text))
        for text in ("a & <1>b", "a | <1>b", "a & <2>b", "a & <1>c", "~a & <1>b")
    }
    assert len(digests) == 5


def test_solve_cache_key_is_pinned():
    """Every published v5 address stays valid: the key of a fixed formula
    must not move unless ``CACHE_FORMAT_VERSION`` is bumped on purpose."""
    assert CACHE_FORMAT_VERSION == 5
    assert solve_cache_key(sx.prop("a")) == (
        "14d25807e697a30767b4a2e3041c1425497e4e972271cb3c15d860ae57ea4d26"
    )


@pytest.mark.parametrize(
    ("formula", "expected"),
    [
        (
            parse_formula("a & <1>b"),
            "9275e18e34448437ce3914e0a52aa2da69139c963ac30a9ac2e1ebda7cafef85",
        ),
        (
            sx.mu1(lambda x: sx.prop("a") | sx.dia(1, x)),
            "687cbe1cd5bc19d5a6908bf95a4d88c7125288fd399d8984b45739bbb703c350",
        ),
    ],
    ids=["modal", "fixpoint"],
)
def test_solve_cache_key_pins_options_and_fixpoints(formula, expected):
    """The pinned addresses cover a modality and an alpha-renamed fixpoint
    binder, not just a bare proposition."""
    assert solve_cache_key(formula) == expected


def test_v1_entries_are_clean_misses(tmp_path):
    """Old-format entries live under ``v1/`` (never read) or carry
    ``version: 1`` (well-formed mismatch): both are plain misses — no
    quarantine, no deletion — and the next solve republishes under v5."""
    formula = sx.prop("a")
    cache = DiskSolveCache(tmp_path)
    v1_file = tmp_path / "v1" / "ab" / "abcdef.json"
    v1_file.parent.mkdir(parents=True)
    v1_file.write_text(json.dumps({"version": 1, "satisfiable": True}))
    # A v1 payload parked at the entry's v5 path: versioned miss, kept as-is.
    stale = cache.path_for_key(cache.key_for(formula))
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text(json.dumps({"version": 1, "key": cache.key_for(formula)}))

    assert cache.get(formula) is None
    assert v1_file.exists() and stale.exists()
    assert not list(tmp_path.rglob("*.corrupt"))

    record = SolveRecord(
        satisfiable=True, counterexample="<a/>", statistics={}, solve_seconds=0.1
    )
    cache.put(formula, record)
    assert cache.get(formula) == record


def test_v3_hedge_verdict_is_not_read(tmp_path):
    """A v3 entry may hold a verdict over hedges of top-level trees: the
    containment below read ``satisfiable: true`` with the lone-node witness
    ``<_!/>``, although a node with a sibling has a parent.  Its v3 address
    is never read, so a ``cache_dir`` analyzer solves and answers it holds."""
    query = Query.containment("following-sibling::*", "parent::*/*")
    formula = StaticAnalyzer()._reduce(query)[0]
    alphabet = lean_alphabet(formula)
    material = "\n".join(
        [
            "repro-solve-cache/v3",
            formula_digest(formula),
            "labels=" + ",".join(alphabet["labels"]),
            "attributes=" + ",".join(alphabet["attributes"]),
            "track_marks=True",
        ]
    )
    v3_key = hashlib.sha256(material.encode()).hexdigest()
    stale = tmp_path / "v3" / v3_key[:2] / f"{v3_key}.json"
    stale.parent.mkdir(parents=True)
    stale.write_text(
        json.dumps(
            {
                "version": 3,
                "key": v3_key,
                **SolveRecord(True, "<_!/>", {}, 0.0).as_dict(),
            }
        )
    )

    analyzer = StaticAnalyzer(cache_dir=str(tmp_path))
    outcome = analyzer.solve(query)
    assert outcome.definite and outcome.holds is True, outcome.as_dict()
    assert outcome.cache is None and outcome.counterexample is None
    assert analyzer.solver_runs == 1 and analyzer.disk_cache_hits == 0
    assert stale.exists()


def test_solve_cache_key_covers_options_and_alphabet():
    alphabet = lean_alphabet(parse_formula("a & @href"))
    assert alphabet == {"labels": ["a"], "attributes": ["href"]}


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------


def test_put_get_round_trip(tmp_path):
    cache = DiskSolveCache(tmp_path)
    formula = parse_formula("a & <1>b")
    record = SolveRecord(
        satisfiable=True,
        counterexample="<a><b/></a>",
        statistics={"lean_size": 9},
        solve_seconds=0.25,
    )
    path = cache.put(formula, record)
    assert path.is_file()
    assert len(cache) == 1
    assert cache.get(formula) == record
    entry = next(iter(cache.entries()))
    assert entry["version"] == CACHE_FORMAT_VERSION
    assert entry["alphabet"]["labels"] == ["a", "b"]


def test_corrupt_entries_are_misses(tmp_path):
    cache = DiskSolveCache(tmp_path)
    formula = parse_formula("a & <1>b")
    record = SolveRecord(True, None, {}, 0.0)
    path = cache.put(formula, record)
    path.write_text("{ truncated", encoding="utf-8")
    assert cache.get(formula) is None
    # A different key under the same entry name is also rejected.
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "key": "0" * 64,
        **record.as_dict(),
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cache.get(formula) is None


def test_clear_removes_entries(tmp_path):
    cache = DiskSolveCache(tmp_path)
    cache.put(parse_formula("a"), SolveRecord(True, None, {}, 0.0))
    cache.put(parse_formula("b"), SolveRecord(True, None, {}, 0.0))
    assert cache.clear() == 2
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Through the analyzer: two instances, one cache directory
# ---------------------------------------------------------------------------


def test_second_analyzer_answers_from_disk(tmp_path):
    first = StaticAnalyzer(cache_dir=tmp_path)
    original = first.solve(QUERY)
    assert first.solver_runs == 1
    assert first.disk_cache_writes == 1

    # A second instance re-translates the query (fresh recursion variables),
    # yet must find the verdict on disk without running the solver.
    second = StaticAnalyzer(cache_dir=tmp_path)
    replayed = second.solve(QUERY)
    assert second.solver_runs == 0
    assert second.disk_cache_hits == 1
    assert replayed.from_cache and replayed.cache == "disk"
    assert replayed.holds == original.holds
    assert replayed.counterexample == original.counterexample
    assert replayed.statistics["lean_size"] == original.statistics["lean_size"]

    # Within one instance the in-memory layer answers before the disk.
    again = second.solve(QUERY)
    assert again.cache == "memory"
    assert second.disk_cache_hits == 1


def test_counterexample_survives_the_disk_round_trip(tmp_path):
    failing = Query.containment("child::a", "child::a[b]")
    first = StaticAnalyzer(cache_dir=tmp_path).solve(failing)
    second = StaticAnalyzer(cache_dir=tmp_path).solve(failing)
    assert not first.holds and not second.holds
    assert first.counterexample is not None
    assert second.counterexample == first.counterexample


def test_clearing_the_disk_cache_invalidates(tmp_path):
    first = StaticAnalyzer(cache_dir=tmp_path)
    first.solve(QUERY)
    assert first.disk_cache.clear() == 1
    second = StaticAnalyzer(cache_dir=tmp_path)
    second.solve(QUERY)
    assert second.solver_runs == 1  # miss: the entry was invalidated


def test_disk_cache_disabled_by_default(tmp_path):
    analyzer = StaticAnalyzer()
    assert analyzer.disk_cache is None
    analyzer.solve(QUERY)
    assert analyzer.cache_statistics()["disk_cache_writes"] == 0


def test_batch_report_counts_disk_hits(tmp_path):
    StaticAnalyzer(cache_dir=tmp_path).solve(QUERY)
    report = StaticAnalyzer(cache_dir=tmp_path).solve_many([QUERY, QUERY])
    assert report.solver_runs == 0
    assert report.disk_cache_hits == 1
    assert report.cache_hits == 1  # the repeat, from memory
    payload = json.loads(report.to_json())
    assert payload["disk_cache_hits"] == 1


def test_concurrent_writers_publish_atomically(tmp_path):
    # Simulate a racing writer: the scratch file of one writer never shadows
    # the published entry of another, and duplicate puts are idempotent.
    cache_a = DiskSolveCache(tmp_path)
    cache_b = DiskSolveCache(tmp_path)
    formula = parse_formula("a & <1>b")
    record = SolveRecord(True, "<a/>", {"lean_size": 9}, 0.1)
    cache_a.put(formula, record)
    cache_b.put(formula, record)
    assert len(cache_a) == 1
    assert cache_a.get(formula) == record
    assert not list(cache_a.root.glob("**/*.tmp"))  # no scratch files leak


@pytest.mark.parametrize("expression", ["child::a[b]", ".//a[@href]"])
def test_attribute_alphabet_is_part_of_the_key(tmp_path, expression):
    analyzer = StaticAnalyzer(cache_dir=tmp_path)
    analyzer.solve(Query.satisfiability(expression))
    for entry in analyzer.disk_cache.entries():
        assert ("@" in expression) == bool(entry["alphabet"]["attributes"])
