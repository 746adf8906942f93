"""Ablations of the implementation techniques of Section 7.

The paper attributes the practical performance of the solver to three
implementation choices: conjunctive partitioning with early quantification
(Section 7.3), the BDD variable ordering derived from the formula's
breadth-first traversal with interleaved primed/unprimed vectors (Section 7.4),
and the mark-tracking update (Figure 16).  Each benchmark toggles one of them
on the same containment instance (the e1/e2 pair of Table 2), solving its
formula ``E→[[e1]] ∧ ¬E→[[e2]]`` with :class:`repro.solver.symbolic.
SymbolicSolver` directly: the ablation knobs are solver options only.
"""

import pytest

from conftest import FIGURE_21, write_report
from repro.logic import syntax as sx
from repro.logic.negation import negate
from repro.solver.symbolic import SymbolicSolver
from repro.xpath.compile import compile_xpath

_CONFIGS = {
    "baseline (all optimisations)": {},
    "no early quantification": {"early_quantification": False},
    "monolithic delta relation": {"monolithic_relation": True},
    "non-interleaved variable order": {"interleaved_order": False},
}

_ROWS: dict[str, str] = {}


@pytest.mark.parametrize("config_name", list(_CONFIGS))
def test_ablation_on_e1_e2(benchmark, config_name):
    formula = sx.mk_and(
        compile_xpath(FIGURE_21["e1"]), negate(compile_xpath(FIGURE_21["e2"]))
    )
    result = benchmark.pedantic(
        lambda: SymbolicSolver(formula, **_CONFIGS[config_name]).solve(),
        rounds=1,
        iterations=1,
    )
    # e1 ⊆ e2 holds: the decision never changes, only the cost does.
    assert not result.satisfiable
    milliseconds = 1000.0 * result.statistics.solve_seconds
    _ROWS[config_name] = f"{config_name:<32} | {milliseconds:>10.1f} ms"
    if len(_ROWS) == len(_CONFIGS):
        write_report(
            "ablation_bdd",
            ["configuration                    | e1 ⊆ e2 solve time"]
            + [_ROWS[name] for name in _CONFIGS],
        )


def test_ablation_mark_tracking(benchmark):
    # Without the four-case update of Figure 16 the solver admits "models"
    # with several start marks: a formula requiring two marked nodes becomes
    # (wrongly) satisfiable.  This documents why the update is needed.
    formula = sx.dia(1, sx.START & sx.dia(2, sx.START))

    def run():
        sound = SymbolicSolver(formula, track_marks=True).solve()
        unsound = SymbolicSolver(formula, track_marks=False).solve()
        return sound, unsound

    sound, unsound = benchmark(run)
    assert not sound.satisfiable and unsound.satisfiable
    write_report(
        "ablation_mark_tracking",
        [
            "formula requiring two start marks: <1>(s & <2>s)",
            f"with mark tracking (Figure 16): satisfiable = {sound.satisfiable}",
            f"without mark tracking (ablation): satisfiable = {unsound.satisfiable} (unsound)",
        ],
    )
