"""Scaling study — solver cost as a function of Lean size (Lemma 6.7).

Lemma 6.7 bounds the running time by ``2^O(|Lean(ψ)|)``.  This benchmark runs
the solver on a family of containment problems of growing size (nested child
steps with qualifiers, depths 1–8) and records Lean size, iterations,
counters and time, giving the measured counterpart of the complexity claim.
The measurement lives in :func:`repro.cli.bench.run_scaling` (shared with
``repro bench scaling``, so the CLI and the suite cannot drift): a warm-up
solve runs first so one-off import/compile cost is reported separately
instead of skewing the depth-1 row, and the depth-3 ``product_calls``,
``bdd_ite_calls`` and ``bdd_node_count`` counters are guarded by committed
thresholds — deterministic performance checks that need no wall-clock.

It also compares the explicit solver of Figure 16 with the symbolic solver
of Section 7 on an instance small enough for both.
"""

from conftest import write_bench_json, write_report
from repro.cli.bench import (
    SCALING_ITE_CALLS_MAX_DEPTH3,
    SCALING_NODE_COUNT_MAX_DEPTH3,
    SCALING_PRODUCT_CALLS_MAX_DEPTH3,
    run_scaling,
)
from repro.logic import syntax as sx
from repro.solver.explicit import ExplicitSolver
from repro.solver.symbolic import SymbolicSolver


def test_scaling_with_query_depth(benchmark):
    payload = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    rows = payload["rows"]
    assert rows[-1]["depth"] == 8
    # The acceptance bar of the extended table: every row solves in under
    # five seconds.
    assert all(row["solve_seconds"] < 5.0 for row in rows)
    # Deterministic counter guards (the runner raises if they regress).
    depth3 = next(row for row in rows if row["depth"] == 3)
    assert depth3["product_calls"] <= SCALING_PRODUCT_CALLS_MAX_DEPTH3
    assert depth3["bdd_ite_calls"] <= SCALING_ITE_CALLS_MAX_DEPTH3
    assert depth3["bdd_node_count"] <= SCALING_NODE_COUNT_MAX_DEPTH3

    report = ["containment of nested queries (cold warm-up reported separately)"]
    warmup = payload["warmup"]
    report.append(
        f"warm-up (cold): translation={warmup['translation_seconds'] * 1000:.1f} ms "
        f"solve={warmup['solve_seconds'] * 1000:.1f} ms"
    )
    for row in rows:
        report.append(
            f"depth {row['depth']}: lean={row['lean_size']:>3} "
            f"iterations={row['iterations']:>2} "
            f"products={row['product_calls']:>3} "
            f"ite={row['bdd_ite_calls']:>8} "
            f"peak_nodes={row['bdd_peak_node_count']:>7} "
            f"time={row['solve_seconds'] * 1000:>8.1f} ms"
        )
    write_report("scaling_lean_size", report)
    write_bench_json("scaling", payload)


def test_explicit_vs_symbolic(benchmark):
    formula = sx.prop("a") & sx.dia(1, sx.prop("b")) & sx.START

    def run():
        explicit = ExplicitSolver(formula).solve()
        symbolic = SymbolicSolver(formula).solve()
        return explicit, symbolic

    explicit, symbolic = benchmark(run)
    assert explicit.satisfiable == symbolic.satisfiable is True
    write_report(
        "scaling_explicit_vs_symbolic",
        [
            f"formula: {formula}",
            f"explicit solver (Figure 16): {explicit.entry_count} triples over "
            f"{explicit.type_count} psi-types, {explicit.iterations} iterations",
            f"symbolic solver (Section 7): lean {symbolic.statistics.lean_size}, "
            f"{symbolic.statistics.iterations} iterations, "
            f"{symbolic.statistics.solve_seconds * 1000:.1f} ms",
        ],
    )
