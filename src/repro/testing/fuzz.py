"""The differential fuzzing campaign driver behind ``repro fuzz``.

Every trial generates one decision problem (:func:`repro.testing.generators.
gen_case`) and answers it through the front door,
:meth:`repro.api.StaticAnalyzer.solve`, under the ablation matrix —
cone-of-influence label pruning on and off — then cross-examines the
verdict with the three oracles of :mod:`repro.testing.oracle`:

* both served verdicts must be identical (ablation agreement);
* a witness found by bounded focused-tree enumeration refutes an
  "unsatisfiable" verdict;
* the sampled Proposition 5.1 checks must find no model/semantics mismatch;
* the gated ψ-type solver's verdict must match;
* every served witness — the serialized counterexample ``serve`` sends —
  must be one document that replays cleanly through the denotational
  semantics and DTD membership.

With ``FuzzConfig.chaos`` the campaign additionally stress-tests *resource
governance* on every trial: a solve under a small seeded step budget must
either agree with the unbudgeted reference verdict or surface as a
structured :class:`~repro.core.errors.BudgetExceeded` (never a wrong verdict
and never any other exception), and a solve with an injected deadline-expiry
fault (:mod:`repro.core.faults`) must raise
``BudgetExceeded(reason="deadline")`` — proving the governor's checkpoints
are reachable on arbitrary generated formulas.

Disagreements are shrunk (:func:`repro.testing.shrink.shrink_case`) and
serialised into the corpus directory, where ``tests/test_corpus.py`` replays
them forever.  Campaigns are deterministic: trial ``i`` of ``--seed S``
always fuzzes the same case, whatever ``--workers`` says.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.analysis.problems import relevant_attributes
from repro.api import Query, StaticAnalyzer
from repro.logic import syntax as sx
from repro.solver.symbolic import SymbolicSolver
from repro.testing.corpus import FuzzCase, write_corpus_case
from repro.testing.generators import GeneratorConfig, gen_case
from repro.testing.oracle import (
    Bounds,
    bounded_search,
    explicit_verdict,
    replay_witness,
)
from repro.testing.shrink import shrink_case
from repro.trees.unranked import parse_tree, serialize_tree
from repro.xmltypes.dtd import DTD

#: The ablation matrix every trial runs: label pruning off and on (the first
#: entry is the reference).
ABLATION_MATRIX = (False, True)


@dataclass(frozen=True)
class FuzzConfig:
    """One campaign's parameters (all deterministic given ``seed``)."""

    budget: int = 100
    seed: int = 0
    bounds: Bounds = field(default_factory=Bounds)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    workers: int = 1
    #: Where shrunk disagreements are serialised (``None``: not written).
    corpus_dir: str | None = None
    #: Additionally write this many shrunk *agreeing* cases as regression
    #: seeds (spread over kinds and verdicts).
    sample_corpus: int = 0
    #: Also run the resource-governance chaos probes on every solved trial
    #: (seeded budgeted re-solve + injected deadline expiry; see module
    #: docstring).
    chaos: bool = False

    def trial_seeds(self) -> list[int]:
        """The per-trial generator seeds; independent of ``workers``."""
        master = random.Random(self.seed)
        return [master.randrange(2**62) for _ in range(self.budget)]


@dataclass
class TrialOutcome:
    """Everything one trial learned about its case."""

    index: int
    case: FuzzCase
    satisfiable: bool | None = None
    holds: bool | None = None
    #: Verdicts of the pruning ablation matrix, keyed ``"prune=P"``.
    ablation: dict = field(default_factory=dict)
    disagreements: list[dict] = field(default_factory=list)
    #: Oracle engagement counters for the campaign report.
    enumeration_checked: int = 0
    enumeration_exhausted: bool = False
    enumeration_witness: bool = False
    semantic_checks: int = 0
    explicit_engaged: bool = False
    replay_checked: bool = False
    replay_skipped: bool = False
    #: Chaos-axis engagement (``FuzzConfig.chaos``): whether the probes ran,
    #: the step budget the budgeted re-solve ran under, the structured reason
    #: when that budget ran out (``None``: it finished and agreed), and
    #: whether the injected deadline expiry surfaced correctly.
    chaos_checked: bool = False
    chaos_max_steps: int = 0
    chaos_budget_reason: str | None = None
    chaos_deadline_injected: bool = False
    #: The case's Lean exceeded ``bounds.max_lean``; nothing was solved.
    skipped_oversized: bool = False
    lean_size: int = 0
    error: str | None = None
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "case": self.case.as_dict(),
            "satisfiable": self.satisfiable,
            "holds": self.holds,
            "disagreements": self.disagreements,
            "error": self.error,
            "seconds": round(self.seconds, 6),
        }


def _case_query(case: FuzzCase, dtd: DTD | None) -> Query:
    """The case as the :class:`Query` ``analyze`` and ``serve`` answer: one
    (optional) DTD shared by every expression."""
    return Query(case.kind, case.exprs, (dtd,) * len(case.exprs))


def case_formula(case: FuzzCase, dtd: DTD | None, pruned: bool) -> sx.Formula:
    """The Lµ reduction of the case (optionally label-pruned).

    The case goes through :class:`repro.api.StaticAnalyzer`'s reduction —
    the one ``analyze``, ``serve`` and ``audit`` run — so every oracle
    checks production's formula.
    """
    return StaticAnalyzer(prune_labels=pruned)._reduce(_case_query(case, dtd))[0]


def evaluate_case(
    case: FuzzCase,
    bounds: Bounds = Bounds(),
    index: int = 0,
    chaos: bool = False,
) -> TrialOutcome:
    """Run one case through the ablation matrix and every oracle.

    Both rows are answered by ``StaticAnalyzer(prune_labels=P).solve``; the
    unpruned one is the reference verdict, and every witness a row serves is
    replayed as ``serve`` sends it.  With ``chaos`` the resource-governance
    probes of :func:`_chaos_check` run after the oracles.
    """
    started = time.perf_counter()
    outcome = TrialOutcome(index=index, case=case)
    dtd = case.dtd()
    query = _case_query(case, dtd)
    analyzers = {p: StaticAnalyzer(prune_labels=p) for p in ABLATION_MATRIX}
    formula = analyzers[False]._reduce(query)[0]

    # Size gate: Lemma 6.7 bounds the solver by 2^O(lean), so a rare
    # oversized case would otherwise dominate the campaign's wall clock.
    outcome.lean_size = len(SymbolicSolver(formula).lean)
    if outcome.lean_size > bounds.max_lean:
        outcome.skipped_oversized = True
        outcome.seconds = time.perf_counter() - started
        return outcome

    # Symbolic verdicts: pruning off and on, through the front door.
    served = {pruned: analyzer.solve(query) for pruned, analyzer in analyzers.items()}
    for pruned, answer in served.items():
        if not answer.definite:  # a trial error, like any raised exception
            raise RuntimeError(
                f"prune={pruned} answered {answer.verdict_status}: "
                f"{answer.error or answer.budget_reason}"
            )
    outcome.ablation = {
        f"prune={pruned}": answer.satisfiable for pruned, answer in served.items()
    }
    reference = served[ABLATION_MATRIX[0]]
    outcome.satisfiable = reference.satisfiable
    outcome.holds = reference.holds
    if len(set(outcome.ablation.values())) > 1:
        outcome.disagreements.append(
            {
                "oracle": "ablation",
                "detail": "label pruning changed the verdict",
                "verdicts": dict(outcome.ablation),
            }
        )

    # Oracle 1: bounded enumeration + sampled Proposition 5.1 checks.
    bounded = bounded_search(case, bounds, formula=formula)
    outcome.enumeration_checked = bounded.documents_checked
    outcome.enumeration_exhausted = bounded.exhausted
    outcome.enumeration_witness = bounded.witness_found
    outcome.semantic_checks = bounded.semantic_checks
    for mismatch in bounded.semantic_mismatches:
        outcome.disagreements.append({"oracle": "semantics", "detail": mismatch})
    if bounded.witness_found and not reference.satisfiable:
        outcome.disagreements.append(
            {
                "oracle": "enumeration",
                "detail": (
                    "bounded enumeration found a witness but the symbolic "
                    f"solver answered unsatisfiable: {bounded.witness}"
                ),
                "witness": serialize_tree(bounded.witness),
            }
        )

    # Oracle 2: the psi-type algorithm (gated by its exponential cost).
    explicit, _estimated = explicit_verdict(formula, bounds)
    if explicit is not None:
        outcome.explicit_engaged = True
        if explicit != reference.satisfiable:
            outcome.disagreements.append(
                {
                    "oracle": "explicit",
                    "detail": (
                        f"psi-type solver answered {explicit}, symbolic solver "
                        f"answered {reference.satisfiable}"
                    ),
                }
            )

    # Oracle 3: replay every distinct witness the rows served.
    for witness in dict.fromkeys(
        answer.counterexample for answer in served.values() if answer.satisfiable
    ):
        if witness is None:
            outcome.replay_skipped = True
            continue
        outcome.replay_checked = True
        for problem in replay_witness(case, parse_tree(witness), dtd):
            outcome.disagreements.append({"oracle": "witness", "detail": problem})

    # Oracle 4 (chaos axis): resource governance must degrade, never lie.
    if chaos:
        _chaos_check(outcome, formula, reference.satisfiable)

    outcome.seconds = time.perf_counter() - started
    return outcome


def _chaos_check(
    outcome: TrialOutcome,
    formula: sx.Formula,
    reference_satisfiable: bool,
) -> None:
    """The resource-governance probes behind ``FuzzConfig.chaos``.

    Two deterministic checks per trial (the step budget is seeded from the
    trial index and the case's Lean size, so campaigns stay reproducible
    whatever ``--workers`` says):

    * a re-solve under a small step budget must either agree with the
      unbudgeted reference verdict or raise a structured
      :class:`~repro.core.errors.BudgetExceeded` — a *different* verdict, or
      any other exception, is a disagreement like any oracle split;
    * a re-solve with an injected deadline expiry (the ``deadline`` fault
      point of :mod:`repro.core.faults`) must raise
      ``BudgetExceeded(reason="deadline")`` — every governed solve polls at
      its first fixpoint iteration, so a formula on which the fault never
      surfaces means a checkpoint went missing.
    """
    from repro.core.errors import BudgetExceeded
    from repro.solver.governor import Budget
    from repro.core import faults

    outcome.chaos_checked = True
    rng = random.Random((outcome.index << 20) ^ outcome.lean_size)
    outcome.chaos_max_steps = 2 ** rng.randint(6, 14)
    try:
        budgeted = SymbolicSolver(
            formula, budget=Budget(max_steps=outcome.chaos_max_steps)
        ).solve()
    except BudgetExceeded as exc:
        outcome.chaos_budget_reason = exc.reason
    except Exception as exc:  # noqa: BLE001 - the property under test
        outcome.disagreements.append(
            {
                "oracle": "chaos",
                "detail": (
                    f"budgeted solve (max_steps={outcome.chaos_max_steps}) "
                    f"raised {type(exc).__name__} instead of finishing or "
                    f"raising BudgetExceeded: {exc}"
                ),
            }
        )
    else:
        if budgeted.satisfiable != reference_satisfiable:
            outcome.disagreements.append(
                {
                    "oracle": "chaos",
                    "detail": (
                        f"budgeted solve (max_steps={outcome.chaos_max_steps}) "
                        f"answered {budgeted.satisfiable}, unbudgeted "
                        f"reference answered {reference_satisfiable}"
                    ),
                }
            )

    faults.install(faults.FaultPlan([faults.FaultPoint(point="deadline")]))
    try:
        SymbolicSolver(formula, budget=Budget(deadline_seconds=3600.0)).solve()
    except BudgetExceeded as exc:
        if exc.reason == "deadline":
            outcome.chaos_deadline_injected = True
        else:
            outcome.disagreements.append(
                {
                    "oracle": "chaos",
                    "detail": (
                        "injected deadline expiry surfaced with reason "
                        f"{exc.reason!r} instead of 'deadline'"
                    ),
                }
            )
    except Exception as exc:  # noqa: BLE001 - the property under test
        outcome.disagreements.append(
            {
                "oracle": "chaos",
                "detail": (
                    f"injected deadline expiry raised {type(exc).__name__} "
                    f"instead of BudgetExceeded: {exc}"
                ),
            }
        )
    else:
        outcome.disagreements.append(
            {
                "oracle": "chaos",
                "detail": (
                    "injected deadline expiry never surfaced: the governed "
                    "solve finished without reaching a checkpoint"
                ),
            }
        )
    finally:
        faults.uninstall()


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Aggregated campaign outcome (JSON-able via :meth:`as_dict`)."""

    config: FuzzConfig
    trials: list[TrialOutcome] = field(default_factory=list)
    corpus_files: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def disagreements(self) -> list[dict]:
        found = []
        for trial in self.trials:
            for disagreement in trial.disagreements:
                found.append({"trial": trial.index, **disagreement})
        return found

    @property
    def errors(self) -> list[dict]:
        return [
            {"trial": trial.index, "error": trial.error}
            for trial in self.trials
            if trial.error is not None
        ]

    def as_dict(self) -> dict:
        trials = self.trials
        sat = sum(1 for t in trials if t.satisfiable)
        return {
            "budget": self.config.budget,
            "seed": self.config.seed,
            "workers": self.config.workers,
            "bounds": self.config.bounds.as_dict(),
            "trials": len(trials),
            "skipped_oversized": sum(1 for t in trials if t.skipped_oversized),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "verdicts": {
                "satisfiable": sat,
                "unsatisfiable": sum(
                    1 for t in trials if t.satisfiable is False
                ),
            },
            "ablation": {
                "matrix": [{"prune_labels": pruned} for pruned in ABLATION_MATRIX],
                "identical_verdicts": not any(
                    d["oracle"] == "ablation" for d in self.disagreements
                ),
            },
            "oracles": {
                "enumeration_documents": sum(t.enumeration_checked for t in trials),
                "enumeration_exhausted_trials": sum(
                    1 for t in trials if t.enumeration_exhausted
                ),
                "enumeration_witnesses": sum(
                    1 for t in trials if t.enumeration_witness
                ),
                "semantic_checks": sum(t.semantic_checks for t in trials),
                "explicit_engaged_trials": sum(
                    1 for t in trials if t.explicit_engaged
                ),
                "witness_replays": sum(1 for t in trials if t.replay_checked),
                "witness_replays_skipped": sum(
                    1 for t in trials if t.replay_skipped
                ),
            },
            "chaos": {
                "enabled": self.config.chaos,
                "trials": sum(1 for t in trials if t.chaos_checked),
                "budgeted_unknowns": sum(
                    1 for t in trials if t.chaos_budget_reason is not None
                ),
                "budgeted_agreements": sum(
                    1
                    for t in trials
                    if t.chaos_checked and t.chaos_budget_reason is None
                ),
                "deadline_injections": sum(
                    1 for t in trials if t.chaos_deadline_injected
                ),
            },
            "disagreements": self.disagreements,
            "errors": self.errors,
            "corpus_files": list(self.corpus_files),
        }


def _run_trial(index: int, trial_seed: int, config: FuzzConfig) -> TrialOutcome:
    rng = random.Random(trial_seed)
    case = gen_case(rng, config.generator)
    try:
        return evaluate_case(case, config.bounds, index=index, chaos=config.chaos)
    except Exception as exc:  # noqa: BLE001 - reported, never swallowed
        outcome = TrialOutcome(index=index, case=case)
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome


def _run_trial_chunk(args: tuple) -> list[TrialOutcome]:
    config, indexed_seeds = args
    return [_run_trial(index, seed, config) for index, seed in indexed_seeds]


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run a campaign; shrink and serialise whatever disagrees.

    With ``workers > 1`` trials fan out to a process pool; results are
    identical to a sequential run because every trial draws from its own
    pre-computed seed.
    """
    started = time.perf_counter()
    seeds = config.trial_seeds()
    indexed = list(enumerate(seeds))
    if config.workers > 1 and len(indexed) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [
            (config, indexed[offset :: config.workers])
            for offset in range(config.workers)
        ]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = [
                outcome
                for chunk in pool.map(_run_trial_chunk, chunks)
                for outcome in chunk
            ]
        outcomes.sort(key=lambda outcome: outcome.index)
    else:
        outcomes = [_run_trial(index, seed, config) for index, seed in indexed]

    report = FuzzReport(config=config, trials=outcomes)
    if config.corpus_dir is not None:
        _write_disagreements(report, config)
        if config.sample_corpus:
            _write_regression_samples(report, config)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _still_disagrees(bounds: Bounds, chaos: bool = False):
    def predicate(candidate: FuzzCase) -> bool:
        outcome = evaluate_case(candidate, bounds, chaos=chaos)
        return bool(outcome.disagreements)

    return predicate


def _write_disagreements(report: FuzzReport, config: FuzzConfig) -> None:
    """Shrink every disagreeing case and serialise it for permanent replay."""
    for trial in report.trials:
        if not trial.disagreements:
            continue
        shrunk = shrink_case(
            trial.case,
            _still_disagrees(config.bounds, config.chaos),
        )
        path = write_corpus_case(
            config.corpus_dir,
            shrunk,
            origin=f"repro fuzz --seed {config.seed} (trial {trial.index})",
            disagreement=trial.disagreements[0],
        )
        _record_corpus_file(report, path)


def _verdict_preserved(reference: TrialOutcome, bounds: Bounds):
    """Shrink predicate for regression seeds: same verdict, same shape.

    Typedness is preserved (a typed case must not shrink into an untyped
    one — the corpus should keep covering the DTD translation), and every
    oracle must still agree on the candidate.
    """

    def predicate(candidate: FuzzCase) -> bool:
        if (candidate.dtd_source is None) != (reference.case.dtd_source is None):
            return False
        if _mentions_attributes(reference.case) and not _mentions_attributes(candidate):
            return False
        outcome = evaluate_case(candidate, bounds)
        return (
            not outcome.disagreements
            and outcome.error is None
            and outcome.satisfiable == reference.satisfiable
        )

    return predicate


def _mentions_attributes(case: FuzzCase) -> bool:
    return bool(relevant_attributes(*case.exprs))


def _write_regression_samples(report: FuzzReport, config: FuzzConfig) -> None:
    """Serialise shrunk *agreeing* cases as permanent regression seeds.

    Candidates are spread over (kind, verdict, typedness) so the corpus
    covers the problem space instead of twelve flavours of the same case;
    shrinking uses a verdict-preserving predicate, so the committed case is
    the smallest one that still exercises the same engines the same way.
    """
    chosen: dict[tuple, TrialOutcome] = {}
    for trial in report.trials:
        if trial.disagreements or trial.error is not None or trial.satisfiable is None:
            continue
        if trial.satisfiable and not trial.replay_checked:
            continue  # prefer cases whose witness actually replays
        key = (
            trial.case.kind,
            trial.satisfiable,
            trial.case.dtd_source is not None,
            _mentions_attributes(trial.case),
        )
        if key not in chosen:
            chosen[key] = trial
        if len(chosen) >= config.sample_corpus:
            break
    extra = (
        trial
        for trial in report.trials
        if not trial.disagreements
        and trial.error is None
        and trial.satisfiable is not None
        and trial not in chosen.values()
    )
    samples = list(chosen.values())
    while len(samples) < config.sample_corpus:
        candidate = next(extra, None)
        if candidate is None:
            break
        samples.append(candidate)
    for trial in samples:
        shrunk = shrink_case(
            trial.case,
            _verdict_preserved(trial, config.bounds),
            budget=80,
        )
        final = evaluate_case(shrunk, config.bounds)
        path = write_corpus_case(
            config.corpus_dir,
            shrunk,
            origin=f"repro fuzz --seed {config.seed} (trial {trial.index}, shrunk)",
            expected={"satisfiable": final.satisfiable, "holds": final.holds},
        )
        _record_corpus_file(report, path)


def _record_corpus_file(report: FuzzReport, path) -> None:
    """Corpus file names are content-addressed: two trials shrinking to the
    same minimal case rewrite one file, which must be reported once."""
    text = str(path)
    if text not in report.corpus_files:
        report.corpus_files.append(text)
