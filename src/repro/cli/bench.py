"""``repro bench scaling`` — re-emit ``BENCH_scaling.json``.

The Lemma 6.7 scaling study (containment of nested queries, depths 1–8),
with a warm-up solve so first-call import/compile cost is reported
separately (``warmup`` entry) instead of skewing the depth-1 row.
``--quick`` runs depths 1–3 only.  Either way the run fails when the
depth-3 ``product_calls``, ``bdd_ite_calls`` or ``bdd_node_count`` counter
regresses above :data:`SCALING_PRODUCT_CALLS_MAX_DEPTH3` /
:data:`SCALING_ITE_CALLS_MAX_DEPTH3` / :data:`SCALING_NODE_COUNT_MAX_DEPTH3`
— deterministic performance guards that need no wall-clock.  ``benchmarks/bench_scaling.py`` calls the same
runner, so the CLI and the suite cannot drift.

Wall clock on the real-schema workloads is perfbench's job
(``perfbench/run.py``); its ``serve-stream`` pool starts from
:func:`cli_cache_workload`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.problems import FIGURE_21

BENCHMARKS = ("scaling",)

#: The 10 distinct problems of the CLI workload, as ``(kind, exprs, types)``:
#: the fast rows of Table 2 (the SMIL/XHTML rows are slow), then typed
#: Wikipedia/XHTML-core problems and two untyped multi-expression kinds.
_CLI_WORKLOAD_BASE = (
    ("containment", [FIGURE_21["e1"], FIGURE_21["e2"]], None),
    ("containment", [FIGURE_21["e2"], FIGURE_21["e1"]], None),
    ("equivalence", [FIGURE_21["e3"], FIGURE_21["e4"]], None),
    ("containment", [FIGURE_21["e6"], FIGURE_21["e5"]], None),
    ("satisfiability", ["child::meta/child::title"], ["wikipedia"]),
    ("containment", ["child::history", "child::history[edit]"], ["wikipedia"]),
    ("emptiness", ["child::title/child::meta"], ["wikipedia"]),
    ("satisfiability", ["descendant::a[ancestor::a]"], ["xhtml-core"]),
    ("overlap", ["a//b", "a/b"], None),
    ("coverage", ["child::a", "child::b", "child::a"], None),
)


def cli_cache_workload(repeats: int = 5) -> list[dict]:
    """The 50-query JSONL workload (10 distinct problems × ``repeats``)."""
    requests = []
    for repeat in range(repeats):
        for position, (kind, exprs, types) in enumerate(_CLI_WORKLOAD_BASE):
            payload = {
                "id": repeat * len(_CLI_WORKLOAD_BASE) + position,
                "kind": kind,
                "exprs": exprs,
            }
            if types is not None:
                payload["types"] = types
            requests.append(payload)
    return requests


#: Depths of the full scaling table (``--quick`` stops after 3).
SCALING_DEPTHS = tuple(range(1, 9))
SCALING_QUICK_DEPTHS = (1, 2, 3)

#: CI guard: the depth-3 relational-product counter must not regress above
#: this (measured 20 after the elimination-order work on the early
#: quantification schedule, committed with headroom for benign schedule
#: changes).  Counters are deterministic, so this needs no wall-clock and
#: never flakes.
SCALING_PRODUCT_CALLS_MAX_DEPTH3 = 22

#: CI guard: the depth-3 ``bdd_ite_calls`` counter (ternary operations,
#: recursive expansions included) must not regress above this (measured
#: 9,505 once the fixpoint loop conjoins inside χ_Types first, committed
#: with headroom).  Deterministic like the guard above.
SCALING_ITE_CALLS_MAX_DEPTH3 = 11_000

#: CI guard: the depth-3 ``bdd_node_count`` (every node the run built; the
#: table only grows) must not regress above this (measured 4,982, committed
#: with headroom).  Deterministic like the guards above.
SCALING_NODE_COUNT_MAX_DEPTH3 = 5_500


def scaling_query(depth: int) -> str:
    """Nested path a1/a2[b2]/a3[b3]/… of the given depth."""
    steps = ["a1"] + [f"a{i}[b{i}]" for i in range(2, depth + 1)]
    return "/".join(steps)


def _scaling_row(depth: int) -> dict:
    from repro.api import Query, StaticAnalyzer

    query = scaling_query(depth)
    weaker = query.replace("[b2]", "") if depth >= 2 else "*"
    outcome = StaticAnalyzer().solve(Query.containment(query, weaker))
    assert outcome.holds, f"depth-{depth} containment must hold"
    return {"depth": depth, "query": query, **outcome.statistics}


def run_scaling(quick: bool = False) -> dict:
    """The Lemma 6.7 scaling study with warm-up separated from the table.

    The first solver run of a process pays one-off import/translation costs
    (compiling the XPath parser tables, building formula interning state);
    without a warm-up that lands in the depth-1 ``translation_seconds`` and
    makes depth 1 look slower than depth 2.  The warm-up row is reported
    under ``warmup`` (cold) next to the measured (warm) ``rows``.
    """
    depths = SCALING_QUICK_DEPTHS if quick else SCALING_DEPTHS
    warmup = _scaling_row(1)  # cold: first-call costs land here, visibly
    rows = [_scaling_row(depth) for depth in depths]
    payload = {
        "benchmark": "containment of nested queries (Lemma 6.7 scaling)",
        "quick": quick,
        "warmup": {
            "note": "cold first-call row; import/compile cost lands here, "
            "not in rows[0]",
            **warmup,
        },
        "product_calls_max_depth3": SCALING_PRODUCT_CALLS_MAX_DEPTH3,
        "bdd_ite_calls_max_depth3": SCALING_ITE_CALLS_MAX_DEPTH3,
        "bdd_node_count_max_depth3": SCALING_NODE_COUNT_MAX_DEPTH3,
        "rows": rows,
    }
    depth3 = next((row for row in rows if row["depth"] == 3), None)
    if depth3 is not None:
        for counter, ceiling in (
            ("product_calls", SCALING_PRODUCT_CALLS_MAX_DEPTH3),
            ("bdd_ite_calls", SCALING_ITE_CALLS_MAX_DEPTH3),
            ("bdd_node_count", SCALING_NODE_COUNT_MAX_DEPTH3),
        ):
            if depth3[counter] > ceiling:
                raise RuntimeError(
                    f"performance regression: depth-3 {counter} "
                    f"{depth3[counter]} > {ceiling}"
                )
    return payload


def run(args) -> int:
    names = args.names or list(BENCHMARKS)
    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        print(
            f"repro bench: unknown benchmark(s) {unknown}; "
            f"available: {', '.join(BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        try:
            payload = run_scaling(quick=args.quick)
        except RuntimeError as exc:
            print(f"repro bench: {name}: {exc}", file=sys.stderr)
            return 1
        path = output_dir / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        print(f"wrote {path}")
    return 0
