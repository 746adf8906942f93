"""Unit tests for the differential fuzzing subsystem (``repro.testing``)."""

import json
import random
from pathlib import Path

import pytest

from repro.logic import syntax as sx
from repro.testing.corpus import FuzzCase, load_corpus, write_corpus_case
from repro.testing.fuzz import (
    FuzzConfig,
    case_formula,
    evaluate_case,
    run_fuzz,
)
from repro.testing.generators import (
    GeneratorConfig,
    gen_case,
    gen_content_model,
    gen_dtd,
    gen_tree,
    gen_xpath,
    render_content,
)
from repro.testing.oracle import (
    Bounds,
    bounded_search,
    enumerate_trees,
    explicit_verdict,
    replay_witness,
    type_holds_at,
)
from repro.testing.shrink import case_size, shrink_case
from repro.trees.focus import focus_at
from repro.trees.unranked import Tree, parse_tree
from repro.xmltypes import content as cm
from repro.xmltypes.dtd import parse_dtd
from repro.xmltypes.membership import dtd_accepts
from repro.xpath.parser import parse_xpath

CONFIG = GeneratorConfig()


# -- generators -----------------------------------------------------------------


def test_gen_dtd_source_reparses_identically():
    for seed in range(30):
        source, dtd = gen_dtd(random.Random(seed), CONFIG)
        reparsed = parse_dtd(source, root=dtd.root, name="fuzz")
        assert reparsed.element_names() == dtd.element_names()
        assert reparsed.attlists.keys() == dtd.attlists.keys()


def test_gen_tree_documents_validate():
    produced = 0
    for seed in range(40):
        rng = random.Random(seed)
        _source, dtd = gen_dtd(rng, CONFIG)
        tree = gen_tree(rng, dtd, CONFIG)
        if tree is not None:
            produced += 1
            assert dtd_accepts(dtd, tree)
    # Random DTDs may describe empty languages, but most do not.
    assert produced >= 20


def test_gen_tree_respects_required_attributes():
    dtd = parse_dtd(
        "<!ELEMENT a (b)*><!ELEMENT b EMPTY><!ATTLIST b p CDATA #REQUIRED>",
        root="a",
    )
    for seed in range(10):
        tree = gen_tree(random.Random(seed), dtd, CONFIG)
        assert tree is not None
        for node in tree.iter_nodes():
            if node.label == "b":
                assert "p" in node.attributes


def test_render_content_round_trips_through_the_dtd_parser():
    for seed in range(40):
        rng = random.Random(seed)
        model = gen_content_model(rng, ("a", "b", "c"), 3)
        source = f"<!ELEMENT r {render_content(model)}><!ELEMENT a EMPTY>"
        dtd = parse_dtd(source, root="r")
        # The reparsed model accepts the same small words.
        words = [[], ["a"], ["b"], ["a", "b"], ["b", "a"], ["a", "a", "b"]]
        for word in words:
            assert cm.matches(dtd.content_of("r"), word) == cm.matches(model, word)


def test_gen_xpath_round_trips_and_respects_trailing_attributes():
    for seed in range(120):
        rng = random.Random(seed)
        expr = gen_xpath(rng, ("a", "b", "c"), ("p", "q"), CONFIG)
        text = str(expr)
        assert parse_xpath(text) == expr, text


def test_gen_case_is_deterministic_per_seed():
    first = gen_case(random.Random(7), CONFIG)
    second = gen_case(random.Random(7), CONFIG)
    assert first == second


# -- the bounded enumeration oracle ---------------------------------------------


def test_enumerate_trees_is_exhaustive_and_small_first():
    bounds = Bounds(max_depth=2, max_width=2)
    trees = list(enumerate_trees(("a", "b"), ((),), bounds))
    sizes = [tree.size() for tree in trees]
    assert sizes == sorted(sizes)
    # depth<=2, width<=2 over 2 labels: 2 singles, 2*2 one-child, 2*4
    # two-children = 14 trees.
    assert len(trees) == 14
    assert len(set(trees)) == 14


def test_type_holds_at_matches_membership_and_anchoring():
    dtd = parse_dtd("<!ELEMENT a (b)?><!ELEMENT b EMPTY>", root="a")
    document = parse_tree("<r><a!><b/></a><c/></r>")
    focus = focus_at(document, (0,))
    # Subtree valid but a following sibling exists: the anchor fails.
    assert not type_holds_at(dtd, focus)
    document = parse_tree("<r><c/><a!><b/></a></r>")
    assert type_holds_at(dtd, focus_at(document, (1,)))
    # Invalid subtree.
    document = parse_tree("<r><c/><a!><c/></a></r>")
    assert not type_holds_at(dtd, focus_at(document, (1,)))


def test_bounded_search_finds_witnesses():
    case = FuzzCase(kind="satisfiability", exprs=("child::a[child::b]",))
    verdict = bounded_search(case, Bounds(max_documents=200))
    assert verdict.witness_found
    assert verdict.witness is not None and verdict.witness.mark_count() == 1


def test_bounded_search_exhausts_unsatisfiable_cases():
    case = FuzzCase(kind="satisfiability", exprs=("child::a[self::b]",))
    bounds = Bounds(max_depth=2, max_width=1, max_documents=10_000)
    verdict = bounded_search(case, bounds)
    assert not verdict.witness_found
    assert verdict.exhausted


def test_bounded_search_semantic_checks_cover_the_compiled_formula():
    case = FuzzCase(kind="satisfiability", exprs=("child::a",))
    formula = case_formula(case, None, pruned=False)
    verdict = bounded_search(case, Bounds(max_documents=60), formula=formula)
    assert verdict.semantic_checks >= 1
    assert verdict.semantic_mismatches == []


def test_bounded_search_respects_the_type_constraint():
    dtd_source = "<!ELEMENT a (b)><!ELEMENT b EMPTY>"
    # Under the DTD an `a` always has a `b` child: no witness without one.
    case = FuzzCase(
        kind="satisfiability",
        exprs=("self::a[not(child::b)]",),
        dtd_source=dtd_source,
        root="a",
    )
    assert not bounded_search(case, Bounds()).witness_found
    positive = FuzzCase(
        kind="satisfiability",
        exprs=("self::a[child::b]",),
        dtd_source=dtd_source,
        root="a",
    )
    assert bounded_search(positive, Bounds()).witness_found


# -- the explicit psi-type oracle -----------------------------------------------


def test_explicit_verdict_agrees_on_small_formulas():
    bounds = Bounds(explicit_types=10_000)
    satisfiable, estimated = explicit_verdict(sx.prop("a") & sx.START, bounds)
    assert satisfiable is True and estimated > 0
    unsatisfiable, _ = explicit_verdict(sx.prop("a") & sx.nprop("a"), bounds)
    assert unsatisfiable is False


def test_explicit_verdict_declines_above_the_type_budget():
    verdict, estimated = explicit_verdict(
        sx.prop("a") & sx.START, Bounds(explicit_types=1)
    )
    assert verdict is None and estimated > 1


# -- witness replay -------------------------------------------------------------


def test_replay_witness_accepts_a_genuine_witness():
    case = FuzzCase(kind="satisfiability", exprs=("child::b",))
    witness = parse_tree("<a!><b/></a>")
    assert replay_witness(case, witness) == []


def test_replay_witness_rejects_bad_documents():
    case = FuzzCase(kind="satisfiability", exprs=("child::b",))
    assert replay_witness(case, parse_tree("<a!><c/></a>"))  # nothing selected
    assert replay_witness(case, parse_tree("<a><b/></a>"))  # no mark
    typed = FuzzCase(
        kind="satisfiability",
        exprs=("self::a",),
        dtd_source="<!ELEMENT a (b)><!ELEMENT b EMPTY>",
        root="a",
    )
    # Structurally invalid subtree at the mark.
    problems = replay_witness(typed, parse_tree("<a!><c/></a>"))
    assert any("validate" in problem for problem in problems)


def test_replay_witness_rejects_hedge_models():
    # A document has one root: a multi-tree forest surfacing here is itself
    # a finding, whatever its trees select.
    case = FuzzCase(kind="satisfiability", exprs=("foll-sibling::b",))
    hedge = (parse_tree("<a!/>"), parse_tree("<b/>"))
    problems = replay_witness(case, hedge)
    assert problems and "2 top-level trees" in problems[0]


# -- the model class: single-rooted documents -----------------------------------


def test_case_formula_is_tree_satisfiable_only():
    """Satisfiable over hedges (two top-level siblings) but not over
    single-rooted documents: production answers "unsatisfiable"."""
    from repro.api import Query, StaticAnalyzer

    outcome = StaticAnalyzer().solve(Query.satisfiability("/foll-sibling::a"))
    assert outcome.definite and outcome.satisfiable is False
    assert outcome.counterexample is None


@pytest.mark.parametrize("pruned", (False, True), ids=["unpruned", "pruned"])
def test_case_formula_is_the_reduction_serve_runs(pruned):
    """The fuzzer checks the formula ``repro serve`` builds for the same
    problem sent over the wire (one inline DTD shared by every side).
    Digests, not identity: every translation draws fresh bound-variable
    names."""
    from repro.api import StaticAnalyzer
    from repro.cache import formula_digest
    from repro.cli import wire

    entries = load_corpus(Path(__file__).parent / "corpus")
    assert entries
    for entry in entries:
        case = entry.case
        payload = {"kind": case.kind, "exprs": list(case.exprs)}
        if case.dtd_source is not None:
            inline = {"dtd": case.dtd_source, "root": case.root}
            payload["types"] = [inline] * len(case.exprs)
        query = wire.query_from_dict(payload, wire.DTDCache())
        served = StaticAnalyzer(prune_labels=pruned)._reduce(query)[0]
        fuzzed = case_formula(case, case.dtd(), pruned)
        assert formula_digest(fuzzed) == formula_digest(served), entry.name


# -- shrinking ------------------------------------------------------------------


def test_shrink_case_minimises_while_predicate_holds():
    case = FuzzCase(
        kind="satisfiability",
        exprs=("child::a[child::b and child::c]/descendant::d",),
        dtd_source="<!ELEMENT a (b, c, d*)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        "<!ELEMENT d EMPTY>",
        root="a",
    )

    def mentions_b(candidate: FuzzCase) -> bool:
        return any("b" in text for text in candidate.exprs)

    shrunk = shrink_case(case, mentions_b)
    assert mentions_b(shrunk)
    assert case_size(shrunk) < case_size(case)
    assert shrunk.dtd_source is None  # the type is irrelevant to the predicate


def test_shrink_case_survives_predicate_exceptions():
    case = FuzzCase(kind="satisfiability", exprs=("child::a/child::b",))

    def explosive(candidate: FuzzCase) -> bool:
        raise RuntimeError("predicate blew up")

    assert shrink_case(case, explosive) == case


def test_oversized_cases_are_skipped_deterministically():
    case = FuzzCase(kind="satisfiability", exprs=("child::a",))
    outcome = evaluate_case(case, Bounds(max_lean=1))
    assert outcome.skipped_oversized and outcome.satisfiable is None
    assert outcome.lean_size > 1 and not outcome.disagreements
    normal = evaluate_case(case, Bounds())
    assert not normal.skipped_oversized and normal.satisfiable is True


# -- the campaign driver --------------------------------------------------------


def test_evaluate_case_agrees_on_known_problems():
    known = [
        (FuzzCase(kind="satisfiability", exprs=("child::a",)), True, True),
        (FuzzCase(kind="emptiness", exprs=("child::a[self::b]",)), False, True),
        (
            FuzzCase(kind="containment", exprs=("child::a[b]", "child::a")),
            False,
            True,
        ),
        (FuzzCase(kind="overlap", exprs=("child::a", "child::b")), False, False),
    ]
    for case, satisfiable, holds in known:
        outcome = evaluate_case(case, Bounds(max_documents=150))
        assert outcome.error is None
        assert not outcome.disagreements, outcome.disagreements
        assert outcome.satisfiable is satisfiable, case.describe()
        assert outcome.holds is holds, case.describe()
        assert len(outcome.ablation) == 2


def test_evaluate_case_replays_the_served_witness(monkeypatch):
    """The replay oracle reads the counterexample the front door serves, so
    a witness broken after the solver ran (here: its mark dropped) is a
    finding."""
    import repro.api as api

    solver = api.run_solver

    def unmarked(formula, budget=None):
        satisfiable, document, statistics, seconds = solver(formula, budget)
        return satisfiable, document and document.unmark_all(), statistics, seconds

    monkeypatch.setattr(api, "run_solver", unmarked)
    case = FuzzCase(kind="satisfiability", exprs=("child::a",))
    outcome = evaluate_case(case, Bounds(max_documents=50))
    assert outcome.replay_checked and outcome.satisfiable
    assert any(
        d["oracle"] == "witness" and "0 start marks" in d["detail"]
        for d in outcome.disagreements
    ), outcome.disagreements


def test_a_non_definite_answer_is_a_trial_error(monkeypatch):
    import repro.api as api
    from repro.core.errors import BudgetExceeded

    def exhausted(formula, budget=None):
        raise BudgetExceeded("steps", "injected")

    monkeypatch.setattr(api, "run_solver", exhausted)
    report = run_fuzz(FuzzConfig(budget=1, seed=11, bounds=Bounds(max_documents=50)))
    (trial,) = report.trials
    assert trial.error is not None and "answered unknown: steps" in trial.error
    assert trial.satisfiable is None and not report.disagreements


def test_ablation_matrix_is_pruning_only():
    """The matrix has exactly one axis: label pruning off/on (off is the
    reference)."""
    from repro.testing.fuzz import ABLATION_MATRIX

    assert ABLATION_MATRIX == (False, True)
    case = FuzzCase(kind="satisfiability", exprs=("child::a[b]",))
    outcome = evaluate_case(case, Bounds(max_documents=150))
    assert not outcome.disagreements, outcome.disagreements
    assert outcome.ablation == {"prune=False": True, "prune=True": True}


def test_run_fuzz_small_campaign_is_clean_and_deterministic():
    config = FuzzConfig(budget=4, seed=11, bounds=Bounds(max_documents=120))
    first = run_fuzz(config)
    second = run_fuzz(config)
    assert len(first.trials) == 4
    assert not first.disagreements and not first.errors
    assert [t.satisfiable for t in first.trials] == [
        t.satisfiable for t in second.trials
    ]
    assert [t.case for t in first.trials] == [t.case for t in second.trials]


def test_run_fuzz_writes_corpus_samples(tmp_path):
    config = FuzzConfig(
        budget=3,
        seed=5,
        bounds=Bounds(max_documents=100),
        corpus_dir=str(tmp_path),
        sample_corpus=2,
    )
    report = run_fuzz(config)
    assert len(report.corpus_files) == 2
    entries = load_corpus(tmp_path)
    assert len(entries) == 2
    for entry in entries:
        assert entry.expected is not None and entry.disagreement is None
        assert set(entry.expected) == {"satisfiable", "holds"}
        replay = evaluate_case(entry.case, config.bounds)
        assert replay.satisfiable == entry.expected["satisfiable"]


def test_corpus_round_trip(tmp_path):
    case = FuzzCase(
        kind="containment",
        exprs=("child::a", "child::*"),
        dtd_source="<!ELEMENT a EMPTY>",
        root="a",
    )
    path = write_corpus_case(
        tmp_path, case, origin="unit test", expected={"satisfiable": False, "holds": True}
    )
    (entry,) = load_corpus(tmp_path)
    assert entry.case == case and entry.path == path
    # Content-addressed names: rewriting the same case reuses the file.
    assert write_corpus_case(tmp_path, case, origin="again") == path
    assert len(load_corpus(tmp_path)) == 1


# -- the CLI --------------------------------------------------------------------


def test_cli_fuzz_reports_and_exits_zero(tmp_path, capsys):
    from repro.cli.main import main

    code = main(
        [
            "fuzz",
            "--budget",
            "2",
            "--seed",
            "9",
            "--max-docs",
            "80",
            "--corpus-dir",
            str(tmp_path),
            "--compact",
        ]
    )
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["trials"] == 2
    assert payload["disagreements"] == [] and payload["errors"] == []
    assert payload["ablation"] == {
        "matrix": [{"prune_labels": False}, {"prune_labels": True}],
        "identical_verdicts": True,
    }


def test_cli_fuzz_rejects_bad_budget(capsys):
    from repro.cli.main import main

    assert main(["fuzz", "--budget", "0"]) == 2


def test_cli_internal_errors_exit_2_without_traceback(tmp_path, capsys):
    from repro.cli.main import main

    # --corpus-dir pointing at a *file* makes corpus writing blow up; the
    # central handler must turn that into one stderr line and exit code 2.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    code = main(
        [
            "fuzz",
            "--budget",
            "1",
            "--seed",
            "0",
            "--max-docs",
            "40",
            "--sample-corpus",
            "1",
            "--corpus-dir",
            str(blocker),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "internal error" in captured.err
    assert "Traceback" not in captured.err
