"""Tests for the ``repro`` command line (:mod:`repro.cli`)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.cli import wire
from repro.cli.analyze import EXIT_ANALYSIS_ERROR, EXIT_OK, EXIT_USAGE
from repro.cli import bench
from repro.cli.bench import SCALING_QUICK_DEPTHS, cli_cache_workload, run_scaling
from repro.cli.serve import serve


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parser_accepts_every_subcommand():
    parser = build_parser()
    args = parser.parse_args(["analyze", "a", "b", "--kind", "containment"])
    assert args.command == "analyze" and args.exprs == ["a", "b"]
    assert parser.parse_args(["serve"]).command == "serve"
    assert parser.parse_args(["schemas", "xhtml"]).name == "xhtml"
    assert parser.parse_args(["bench", "--output-dir", "/tmp"]).names == []
    assert parser.parse_args(["bench", "--workers", "2"]).workers == 2
    fuzz = parser.parse_args(["fuzz", "--budget", "50", "--seed", "3", "--workers", "2"])
    assert fuzz.command == "fuzz" and fuzz.budget == 50
    assert fuzz.seed == 3 and fuzz.workers == 2


def test_package_and_cli_import_without_numpy():
    """The library and its command line are pure Python: a fresh interpreter
    importing them must not pull in numpy."""
    code = (
        "import sys\n"
        "import repro, repro.api, repro.cli.main, repro.cli.serve\n"
        "print('numpy' in sys.modules)\n"
    )
    source_root = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
        check=True,
    )
    assert result.stdout.strip() == "False"


#: One engine answers every query, so no subcommand takes an engine option.
ENGINE_FREE_COMMANDS = {
    "analyze": ["analyze", "child::a"],
    "audit": ["audit", "sheet.xsl", "--schema", "xhtml"],
    "serve": ["serve"],
    "fuzz": ["fuzz"],
}


@pytest.mark.parametrize("command", sorted(ENGINE_FREE_COMMANDS))
def test_parser_rejects_backend_option(command, capsys):
    argv = ENGINE_FREE_COMMANDS[command]
    assert build_parser().parse_args(argv).command == command
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([*argv, "--backend", "dict"])
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments: --backend dict" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "audit", "serve"])
def test_parser_rejects_degrade_option(command, capsys):
    """The explicit-solver fallback is gone: ``--degrade`` is a usage error."""
    argv = ENGINE_FREE_COMMANDS[command]
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([*argv, "--degrade"])
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments: --degrade" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--deadline", "nan"),
        ("--deadline", "inf"),
        ("--deadline", "0"),
        ("--max-steps", "-5"),
        ("--max-iterations", "0"),
        ("--max-lean", "2.7"),
    ],
)
def test_parser_rejects_invalid_budget_flags(flag, value, capsys):
    """A NaN deadline would silently disable the limit, and a non-positive
    count would make every solve unknown: both are usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", flag, value])
    assert excinfo.value.code == EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err


def test_parser_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


def test_cache_dir_defaults_to_environment(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/from-env")
    assert build_parser().parse_args(["serve"]).cache_dir == "/tmp/from-env"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert build_parser().parse_args(["serve"]).cache_dir is None


# ---------------------------------------------------------------------------
# The wire format
# ---------------------------------------------------------------------------


def test_query_from_dict_with_broadcast_type():
    query = wire.query_from_dict(
        {"kind": "containment", "exprs": ["a/b", "a//b"], "types": ["wikipedia"]}
    )
    assert query.types == ("wikipedia", "wikipedia")


def test_query_from_dict_rejects_malformed_payloads():
    with pytest.raises(wire.WireError):
        wire.query_from_dict({"kind": "nope", "exprs": ["a"]})
    with pytest.raises(wire.WireError):
        wire.query_from_dict({"kind": "containment", "exprs": "a"})
    with pytest.raises(wire.WireError):
        wire.query_from_dict({"kind": "containment", "exprs": ["a", "b"], "oops": 1})
    with pytest.raises(ValueError):
        wire.query_from_dict({"kind": "containment", "exprs": ["a"]})  # arity


def test_inline_dtd_objects_are_parsed_and_cached():
    cache: wire.DTDCache = {}
    payload = {
        "kind": "satisfiability",
        "exprs": ["child::b"],
        "types": [{"dtd": "<!ELEMENT a (b)><!ELEMENT b EMPTY>", "root": "a"}],
    }
    first = wire.query_from_dict(payload, cache)
    second = wire.query_from_dict(payload, cache)
    assert first.types[0] is second.types[0]  # identity preserved for caching


#: Type entries that used to escape the wire layer: a DTD the parser
#: rejects, a non-string DTD, and a non-string root.
MALFORMED_TYPES = (
    {"dtd": "<!ELEMENT a (b"},
    {"dtd": 5},
    {"dtd": "<!ELEMENT a (b)>", "root": 5},
)


@pytest.mark.parametrize(
    "entry", MALFORMED_TYPES + ({"dtd": "<!ELEMENT a EMPTY>", "name": 7},)
)
def test_malformed_type_objects_are_wire_errors(entry):
    payload = {"kind": "satisfiability", "exprs": ["a"], "types": [entry]}
    with pytest.raises(wire.WireError):
        wire.query_from_dict(payload, {})
    with pytest.raises(wire.WireError):
        wire.query_from_dict({**payload, "types": [{"rooted": entry}]}, {})


def test_malformed_dtd_file_is_a_wire_error(tmp_path):
    path = tmp_path / "broken.dtd"
    path.write_text("<!ELEMENT a (b", encoding="utf-8")
    for entry in (str(path), "rooted:" + str(path)):
        with pytest.raises(wire.WireError, match="broken"):
            wire.query_from_dict(
                {"kind": "satisfiability", "exprs": ["a"], "types": [entry]}, {}
            )


def test_read_batch_json_and_jsonl(tmp_path):
    requests = [{"kind": "satisfiability", "exprs": ["a"]}]
    as_json = tmp_path / "batch.json"
    as_json.write_text(json.dumps(requests), encoding="utf-8")
    as_jsonl = tmp_path / "batch.jsonl"
    as_jsonl.write_text("# comment\n" + json.dumps(requests[0]) + "\n\n", encoding="utf-8")
    assert wire.read_batch(as_json) == requests
    assert wire.read_batch(as_jsonl) == requests
    as_jsonl.write_text("not json\n", encoding="utf-8")
    with pytest.raises(wire.WireError):
        wire.read_batch(as_jsonl)


# ---------------------------------------------------------------------------
# repro analyze
# ---------------------------------------------------------------------------


def test_analyze_containment_exit_zero(capsys):
    code = main(["analyze", "child::a[b]", "child::a", "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["outcomes"][0]["holds"] is True
    assert payload["outcomes"][0]["query"]["kind"] == "containment"
    assert payload["errors"] == 0


def test_analyze_malformed_expression_exit_one(capsys):
    code = main(["analyze", "child::a[", "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ANALYSIS_ERROR
    assert payload["errors"] == 1
    assert payload["outcomes"][0]["error"]["kind"] == "ParseError"


def test_analyze_unknown_schema_exit_one(capsys):
    code = main(["analyze", "child::a", "--type", "nosuch", "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ANALYSIS_ERROR
    assert payload["outcomes"][0]["error"]["kind"] == "SchemaLookupError"


def test_analyze_three_exprs_need_explicit_kind(capsys):
    assert main(["analyze", "a", "b", "c"]) == EXIT_USAGE
    assert main(["analyze"]) == EXIT_USAGE
    assert main(["analyze", "a", "b", "c", "--kind", "coverage", "--compact"]) == EXIT_OK


def test_analyze_batch_mixes_verdicts_and_errors(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        "\n".join(
            [
                json.dumps({"kind": "containment", "exprs": ["child::a[b]", "child::a"]}),
                json.dumps({"kind": "spelling", "exprs": ["a"]}),  # wire error
                json.dumps({"kind": "satisfiability", "exprs": ["child::a["]}),
            ]
        ),
        encoding="utf-8",
    )
    code = main(["analyze", "--batch", str(batch), "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ANALYSIS_ERROR
    assert payload["errors"] == 2
    assert [bool(o.get("error")) for o in payload["outcomes"]] == [False, True, True]
    assert payload["outcomes"][0]["holds"] is True  # good query still answered


def test_analyze_batch_keeps_verdicts_past_a_malformed_type(tmp_path, capsys):
    good = {"kind": "containment", "exprs": ["child::a[b]", "child::a"]}
    lines = [good] + [
        {"kind": "satisfiability", "exprs": ["a"], "types": [entry]}
        for entry in MALFORMED_TYPES
    ]
    batch = tmp_path / "batch.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines), encoding="utf-8")
    code = main(["analyze", "--batch", str(batch), "--compact"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ANALYSIS_ERROR
    assert payload["errors"] == len(MALFORMED_TYPES)
    assert payload["outcomes"][0]["holds"] is True
    assert [o["error"]["kind"] for o in payload["outcomes"][1:]] == [
        "WireError"
    ] * len(MALFORMED_TYPES)


def test_analyze_missing_batch_file_exit_two(capsys):
    assert main(["analyze", "--batch", "/nonexistent.jsonl"]) == EXIT_USAGE
    assert "analyze" in capsys.readouterr().err


def test_analyze_uses_persistent_cache(tmp_path, capsys):
    argv = ["analyze", "child::a[b]", "child::a", "--compact", "--cache-dir", str(tmp_path)]
    main(argv)
    first = json.loads(capsys.readouterr().out)
    main(argv)
    second = json.loads(capsys.readouterr().out)
    assert first["solver_runs"] == 1 and first["disk_cache_hits"] == 0
    assert second["solver_runs"] == 0 and second["disk_cache_hits"] == 1
    assert second["outcomes"][0]["cache"] == "disk"


# ---------------------------------------------------------------------------
# repro serve: JSONL round trips
# ---------------------------------------------------------------------------


def _serve_lines(requests: list[dict | str], **kwargs) -> list[dict]:
    text = "\n".join(
        request if isinstance(request, str) else json.dumps(request)
        for request in requests
    )
    output = io.StringIO()
    assert serve(io.StringIO(text + "\n"), output, **kwargs) == 0
    return [json.loads(line) for line in output.getvalue().splitlines()]


def test_serve_round_trips_queries_with_ids():
    responses = _serve_lines(
        [
            {"id": "q1", "kind": "containment", "exprs": ["child::a[b]", "child::a"]},
            {"id": "q2", "kind": "satisfiability", "exprs": ["child::meta/child::title"],
             "types": ["wikipedia"]},
            {"id": "q1", "kind": "containment", "exprs": ["child::a[b]", "child::a"]},
        ]
    )
    assert [r["id"] for r in responses] == ["q1", "q2", "q1"]
    assert all(r["ok"] for r in responses)
    assert responses[0]["outcome"]["holds"] is True
    assert responses[2]["outcome"]["from_cache"] is True


def test_serve_survives_malformed_lines_and_unknown_ops():
    responses = _serve_lines(
        [
            "this is not json",
            "[1, 2]",
            {"id": 9, "op": "selfdestruct"},
            {"id": 10, "kind": "satisfiability", "exprs": ["child::a"]},
        ]
    )
    assert [r["ok"] for r in responses] == [False, False, False, True]
    assert responses[0]["error"]["kind"] == "JSONDecodeError"
    assert responses[2]["error"]["kind"] == "ProtocolError"
    assert responses[3]["outcome"]["holds"] is True


def test_serve_answers_malformed_types_and_keeps_serving():
    responses = _serve_lines(
        [
            {"id": index, "kind": "satisfiability", "exprs": ["a"], "types": [entry]}
            for index, entry in enumerate(MALFORMED_TYPES)
        ]
        + [{"op": "ping"}]
    )
    assert [r["ok"] for r in responses] == [False] * len(MALFORMED_TYPES) + [True]
    assert [r.get("id") for r in responses[:-1]] == list(range(len(MALFORMED_TYPES)))
    assert all(r["error"]["kind"] == "WireError" for r in responses[:-1])
    assert responses[-1]["op"] == "ping"


def test_serve_analysis_errors_are_per_request():
    responses = _serve_lines(
        [
            {"id": 1, "kind": "satisfiability", "exprs": ["child::a["]},
            {"id": 2, "kind": "satisfiability", "exprs": ["child::a"]},
        ]
    )
    assert responses[0]["ok"] is False
    assert responses[0]["outcome"]["error"]["kind"] == "ParseError"
    assert responses[1]["ok"] is True


def test_serve_ops_ping_stats_schemas(tmp_path):
    responses = _serve_lines(
        [
            {"op": "ping"},
            {"id": 1, "kind": "satisfiability", "exprs": ["child::a"]},
            {"op": "stats"},
            {"op": "schemas"},
        ],
        cache_dir=str(tmp_path),
    )
    assert responses[0] == {"ok": True, "op": "ping"}
    stats = responses[2]["stats"]
    assert stats["solver_runs"] == 1
    assert stats["disk_cache_writes"] == 1
    assert stats["disk_cache_entries"] == 1
    assert {s["name"] for s in responses[3]["schemas"]} >= {"xhtml", "wikipedia"}


def test_serve_blank_and_comment_lines_are_ignored():
    responses = _serve_lines(["", "# warmup", {"op": "ping"}])
    assert len(responses) == 1


# ---------------------------------------------------------------------------
# repro schemas
# ---------------------------------------------------------------------------


def test_schemas_listing_and_detail(capsys):
    assert main(["schemas"]) == EXIT_OK
    listing = capsys.readouterr().out
    for name in ("smil", "xhtml", "xhtml-core", "wikipedia"):
        assert name in listing

    assert main(["schemas", "wikipedia", "--json"]) == EXIT_OK
    detail = json.loads(capsys.readouterr().out)
    assert detail["root"] == "article"
    assert detail["elements"] == 9
    assert "article" in detail["element_names"]

    assert main(["schemas", "nosuch"]) == EXIT_USAGE
    assert "unknown built-in DTD" in capsys.readouterr().err


def test_schemas_alias_resolves(capsys):
    assert main(["schemas", "xhtml-strict", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["name"] == "xhtml"


# ---------------------------------------------------------------------------
# repro bench plumbing (the heavy two-process run lives in benchmarks/)
# ---------------------------------------------------------------------------


def test_bench_rejects_unknown_names(capsys):
    assert main(["bench", "nosuch"]) == EXIT_USAGE
    assert "unknown benchmark" in capsys.readouterr().err


def test_bench_has_no_backend_benchmark(capsys):
    assert "backend" not in bench.BENCHMARKS
    assert main(["bench", "backend"]) == EXIT_USAGE
    assert "unknown benchmark(s) ['backend']" in capsys.readouterr().err


#: The committed scaling table; its solver counters are deterministic, so a
#: quick run must reproduce them exactly.
SCALING_TABLE = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_scaling.json").read_text(
        encoding="utf-8"
    )
)
SCALING_COUNTERS = (
    "lean_size",
    "iterations",
    "product_calls",
    "bdd_ite_calls",
    "bdd_ite_cache_hits",
    "bdd_node_count",
    "bdd_peak_node_count",
)


@pytest.fixture(scope="module")
def quick_scaling():
    return run_scaling(quick=True)


@pytest.mark.parametrize("depth", SCALING_QUICK_DEPTHS)
def test_quick_scaling_reproduces_committed_counters(quick_scaling, depth):
    (row,) = [row for row in quick_scaling["rows"] if row["depth"] == depth]
    (committed,) = [row for row in SCALING_TABLE["rows"] if row["depth"] == depth]
    assert {key: row[key] for key in SCALING_COUNTERS} == {
        key: committed[key] for key in SCALING_COUNTERS
    }


def test_quick_scaling_records_its_depth3_ceilings(quick_scaling):
    ceilings = {
        "product_calls_max_depth3": bench.SCALING_PRODUCT_CALLS_MAX_DEPTH3,
        "bdd_ite_calls_max_depth3": bench.SCALING_ITE_CALLS_MAX_DEPTH3,
    }
    for key, ceiling in ceilings.items():
        assert quick_scaling[key] == SCALING_TABLE[key] == ceiling
    (depth3,) = [row for row in quick_scaling["rows"] if row["depth"] == 3]
    assert depth3["product_calls"] <= bench.SCALING_PRODUCT_CALLS_MAX_DEPTH3
    assert depth3["bdd_ite_calls"] <= bench.SCALING_ITE_CALLS_MAX_DEPTH3


@pytest.mark.parametrize(
    "counter, ceiling",
    [
        ("product_calls", "SCALING_PRODUCT_CALLS_MAX_DEPTH3"),
        ("bdd_ite_calls", "SCALING_ITE_CALLS_MAX_DEPTH3"),
    ],
    ids=["product_calls", "bdd_ite_calls"],
)
def test_quick_scaling_fails_above_a_depth3_ceiling(monkeypatch, counter, ceiling):
    monkeypatch.setattr(bench, ceiling, 1)
    with pytest.raises(RuntimeError, match=f"depth-3 {counter} [0-9]+ > 1"):
        run_scaling(quick=True)


def test_cli_cache_workload_is_fifty_valid_requests():
    workload = cli_cache_workload()
    assert len(workload) == 50
    assert len({json.dumps(q, sort_keys=True) for q in workload}) == 50  # distinct ids
    for payload in workload:
        wire.query_from_dict(payload)  # every request is wire-valid


# ---------------------------------------------------------------------------
# serve --workers (parallel request/response loop)
# ---------------------------------------------------------------------------


def _serve_raw_lines(lines, **kwargs):
    output = io.StringIO()
    code = serve(io.StringIO("\n".join(lines) + "\n"), output, **kwargs)
    assert code == 0
    return [json.loads(line) for line in output.getvalue().splitlines()]


def test_serve_workers_preserves_request_order_and_errors():
    lines = [
        '{"id": 1, "kind": "containment", "exprs": ["child::a[b]", "child::a"]}',
        "this is not json",
        '{"id": 3, "kind": "overlap", "exprs": ["a//b", "a/b"]}',
        '{"id": 4, "kind": "satisfiability", "exprs": ["child::a["]}',
        '{"id": 5, "kind": "emptiness", "exprs": ["child::title/child::meta"], "types": ["wikipedia"]}',
    ]
    sequential = _serve_raw_lines(lines, workers=1)
    parallel = _serve_raw_lines(lines, workers=2)
    assert [r.get("id") for r in parallel] == [1, None, 3, 4, 5]
    assert [r.get("ok") for r in parallel] == [r.get("ok") for r in sequential]
    for fast, slow in zip(parallel, sequential):
        if fast.get("outcome") and slow.get("outcome"):
            assert fast["outcome"]["holds"] == slow["outcome"]["holds"]


def test_serve_workers_stats_op_is_a_barrier():
    lines = [
        '{"id": 1, "kind": "containment", "exprs": ["child::a[b]", "child::a"]}',
        '{"id": 2, "kind": "overlap", "exprs": ["a//b", "a/b"]}',
        '{"id": 3, "op": "stats"}',
    ]
    responses = _serve_raw_lines(lines, workers=2)
    assert [r["id"] for r in responses] == [1, 2, 3]
    # The barrier flushed both queries before answering, and the worker
    # counters were folded into the parent's statistics.
    assert responses[2]["stats"]["solver_runs"] == 2


def test_serve_workers_share_the_persistent_cache(tmp_path):
    cache_dir = str(tmp_path / "serve-cache")
    lines = [
        '{"id": 1, "kind": "containment", "exprs": ["child::a[b]", "child::a"]}',
        '{"id": 2, "op": "stats"}',
    ]
    first = _serve_raw_lines(lines, cache_dir=cache_dir, workers=2)
    assert first[1]["stats"]["disk_cache_writes"] == 1
    replay = _serve_raw_lines(lines, cache_dir=cache_dir, workers=2)
    assert replay[1]["stats"]["solver_runs"] == 0
    assert replay[1]["stats"]["disk_cache_hits"] == 1


def test_serve_workers_answers_non_object_json_lines():
    """Regression: a line holding JSON `null` (or any non-object) must get a
    ProtocolError response, not be silently dropped (which would shift every
    later position-matched response by one)."""
    lines = [
        "null",
        '{"id": 2, "kind": "overlap", "exprs": ["a//b", "a/b"]}',
    ]
    for workers in (1, 2):
        responses = _serve_raw_lines(lines, workers=workers)
        assert len(responses) == 2, responses
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["kind"] == "ProtocolError"
        assert responses[1]["id"] == 2 and responses[1]["ok"]
