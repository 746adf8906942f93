"""Byte-level pin of serialized witnesses.

No optimisation or deletion may change a serialized witness.  This test
solves the satisfiable problems of the serve-stream benchmark pool that solve
in well under a second (``cold_solve_s < 0.1`` in
``perfbench/reference/serve-stream.json``, which is only read here) and pins
the SHA-256 digest of their verdicts and witnesses, in pool order.  The set
covers every query kind except equivalence, over untyped problems, the
wikipedia, smil and xhtml-core schemas, ``rooted:`` types and inline DTDs.

A change that moves a witness — a different variable order, another model
pick, a different lifting — changes the digest.  When such a change is
intended, the new digest must be recorded together with the reason.
"""

import hashlib
import json
from pathlib import Path

from repro.api import StaticAnalyzer
from repro.cli import wire
from repro.trees.unranked import parse_tree

REFERENCE = (
    Path(__file__).resolve().parent.parent
    / "perfbench" / "reference" / "serve-stream.json"
)

PINNED_PROBLEMS = 44
#: Last moved when the ``Rooted`` document node stopped carrying an element
#: name: the pin's four ``rooted:`` witnesses (pool problems 97, 98, 100 and
#: 102) changed only that node's label, from ``<title!>``, ``<text!>``,
#: ``<title!>`` and ``<smil!>`` to ``<_!>``; every other byte is unchanged.
PINNED_DIGEST = "eb6136a63d57a2c550eb0b208affd8372dcaa0cf2790b043d9df5bd4f3a8731a"


def _satisfiable_entries() -> list[dict]:
    pool = json.loads(REFERENCE.read_text(encoding="utf-8"))["pool"]
    return [entry for entry in pool if entry["expected"]["satisfiable"]]


def _pinned_requests() -> list[dict]:
    return [
        entry["request"]
        for entry in _satisfiable_entries()
        if entry["cold_solve_s"] < 0.1
    ]


def test_serialized_witnesses_are_byte_identical():
    requests = _pinned_requests()
    assert len(requests) == PINNED_PROBLEMS
    answers = []
    for request in requests:
        outcome = StaticAnalyzer().solve(wire.query_from_dict(request, {}))
        assert outcome.definite and outcome.satisfiable, request
        assert outcome.counterexample is not None, request
        answers.append([outcome.holds, outcome.counterexample])
    payload = json.dumps(answers, ensure_ascii=False).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == PINNED_DIGEST


def test_every_satisfiable_pool_problem_serves_one_marked_document():
    """The model class is single-rooted documents: every satisfiable pool
    problem, pinned or not, serves one tree carrying one start mark."""
    analyzer = StaticAnalyzer()
    entries = _satisfiable_entries()
    assert len(entries) > PINNED_PROBLEMS
    for entry in entries:
        request = entry["request"]
        outcome = analyzer.solve(wire.query_from_dict(request, {}))
        assert outcome.definite and outcome.satisfiable, request
        # parse_tree refuses trailing top-level trees.
        witness = parse_tree(outcome.counterexample)
        assert witness.mark_count() == 1, (request, outcome.counterexample)
