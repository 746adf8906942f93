"""The repository benchmark: three workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit-xhtml|scaling-deep|serve-stream \\
        --seed N --seconds S --trace 0|1 [--quick] [--reference FILE]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a readable summary (including ``failed_ratio``).  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  ``--quick`` shrinks every workload for the self-test
(``selftest.py``); ``--reference`` swaps in another reference file.

Every measured process is a fresh child: global tables start cold, the
analyzer runs with its defaults, and ``REPRO_*`` variables are removed
from the environment.  The children run the sources under ``src/`` of the
checkout; without them the benchmark exits with code 2.

A run repeats *rounds* of fixed work — one audit, one pass over the deep
scaling rows, one request stream through a fresh server — until the next
round would end after ``--seconds``, and always runs at least one.  It
reports medians over rounds (for latencies, each fresh request's median
over the rounds, then percentiles over requests), and the median of set-up
over the rounds plus :data:`SETUP_PROBES` extra spawns that stop once
ready.  Inputs depend only on ``--seed``, never on how many rounds fit.

A traced run (``--trace 1``) runs one untraced round and then one round
with the wrappers of ``tracer.py`` installed; its overhead is the
difference of the two ``run_s``.  Spans are written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench"

#: Extra processes per run that only start up, for a steadier ``setup_s``.
SETUP_PROBES = 6
#: Every child is killed this long after the run began; a run must finish
#: within 180 s.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure (a child failed or hung)."""


# -- child processes ----------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's sources, analyzer defaults.

    String hashing is pinned (``PYTHONHASHSEED=0``) so that traced counts
    repeat exactly and the seed stays the only input that varies.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and not key.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Child:
    """One child process spoken to in lines over stdin/stdout."""

    def __init__(self, argv: list[str], env: dict[str, str], deadline: float):
        self.argv = argv
        self.log_path = WORK / "child-stderr.log"
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            encoding="utf-8",
            bufsize=1,
        )
        self.timer = threading.Timer(
            max(1.0, deadline - time.perf_counter()), self.process.kill
        )
        self.timer.daemon = True
        self.timer.start()
        self.peak_rss_mb: float | None = None

    def send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def receive(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise BenchError(f"{self._name()} stopped early: {self._log_tail()}")
        return line

    def finish(self) -> float:
        """Close stdin, wait for a clean exit; returns peak RSS in MB."""
        self.process.stdin.close()
        self._reap()
        if self.process.returncode != 0:
            raise BenchError(
                f"{self._name()} exited with {self.process.returncode}: {self._log_tail()}"
            )
        return self.peak_rss_mb

    def close(self) -> None:
        """Stop the child if it still runs and wait until it has ended."""
        if self.process.returncode is None:
            self.process.kill()
            self._reap()
        for stream in (self.process.stdin, self.process.stdout):
            if not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass
        self.log.close()

    def _reap(self) -> None:
        _pid, status, usage = os.wait4(self.process.pid, 0)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    def _name(self) -> str:
        return " ".join(self.argv[1:3])

    def _log_tail(self) -> str:
        self.log.flush()
        text = self.log_path.read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else "(no stderr)"


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolation percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * share
    low, high = math.floor(position), math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- workloads ----------------------------------------------------------------


class Workload:
    """Fixed work per round; subclasses run one round in fresh processes."""

    name = ""

    def __init__(self, reference: dict, seed: int, quick: bool, deadline: float):
        self.reference = reference
        self.seed = seed
        self.quick = quick
        self.deadline = deadline
        self.env = child_env()

    def probe_setup(self) -> float:
        raise NotImplementedError

    def round(self, index: int, tag: str, traced: bool) -> dict:
        """Round ``index`` of a run: ``setup_s``, ``run_s``, ``latencies_s``
        (one entry per fixed request, in the same order every round),
        ``peak_rss_mb``, ``attempted``, ``failed`` and, when traced, ``trace``."""
        raise NotImplementedError


class WorkerWorkload(Workload):
    """audit-xhtml and scaling-deep: one ``worker.py`` process per round."""

    kind = ""

    def job(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict) -> tuple[int, int]:
        """(attempted, failed) of one result against the reference."""
        raise NotImplementedError

    def _spawn(self, extra: list[str] = ()) -> Child:
        argv = [sys.executable, str(BENCH / "worker.py"), self.kind, *extra]
        return Child(argv, self.env, self.deadline)

    def probe_setup(self) -> float:
        child = self._spawn()
        try:
            child.receive()
            setup = time.perf_counter() - child.started
            child.send("exit")
            child.finish()
        finally:
            child.close()
        return setup

    def round(self, index: int, tag: str, traced: bool) -> dict:
        spans = WORK / f"spans-{tag}.jsonl"
        child = self._spawn(["--trace-out", str(spans)] if traced else [])
        try:
            child.receive()
            setup = time.perf_counter() - child.started
            child.send(json.dumps(self.job()))
            result = json.loads(child.receive())
            peak_rss_mb = child.finish()
        finally:
            child.close()
        attempted, failed = self.check(result)
        return {
            "setup_s": setup,
            "run_s": result["run_s"],
            "latencies_s": result["latencies_s"],
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "trace": result.get("trace"),
        }


class AuditWorkload(WorkerWorkload):
    name = "audit-xhtml"
    kind = "audit"

    def _case(self) -> dict:
        return self.reference["quick" if self.quick else "full"]

    def job(self) -> dict:
        case = self._case()
        return {"stylesheet": str(ROOT / case["stylesheet"]), "schema": case["schema"]}

    def check(self, result: dict) -> tuple[int, int]:
        """Every missing or unexpected finding counts as one failed query."""
        case = self._case()
        expected = Counter(json.dumps(f, sort_keys=True) for f in case["findings"])
        observed = Counter(json.dumps(f, sort_keys=True) for f in result["findings"])
        unmatched = (expected - observed).total() + (observed - expected).total()
        unmatched += abs(result["queries"] - case["queries"])
        return case["queries"], min(case["queries"], unmatched)


class ScalingWorkload(WorkerWorkload):
    name = "scaling-deep"
    kind = "scaling"

    def _depths(self) -> list[int]:
        return self.reference["quick_depths" if self.quick else "depths"]

    def job(self) -> dict:
        return {"depths": self._depths()}

    def check(self, result: dict) -> tuple[int, int]:
        expected = self.reference["expected"]
        rows = result["rows"]
        failed = sum(
            1
            for depth, row in zip(self._depths(), rows)
            if row["error"] is not None
            or row["verdict_status"] != "definite"
            or row["holds"] != expected[str(depth)]
        )
        return len(self._depths()), failed + len(self._depths()) - len(rows)


class ServeWorkload(Workload):
    """serve-stream: one closed-loop client against one fresh server per round.

    Round ``index`` streams the pool in an order of its own (see
    :func:`make_stream`), so a problem's fresh latency, its median over the
    rounds, is taken over several arrival orders rather than one.
    """

    name = "serve-stream"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pool = self.reference["pool"]
        if self.quick:
            pool = [entry for entry in pool if entry.get("quick")]
        self.pool = pool

    def _spawn(self, tag: str, traced: bool) -> tuple[Child, Path]:
        cache_dir = WORK / f"serve-cache-{os.getpid()}-{tag}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        cli = ["serve", "--cache-dir", str(cache_dir),
               "--deadline", str(self.reference["deadline_seconds"])]
        if traced:
            argv = [sys.executable, str(BENCH / "serve_boot.py"),
                    str(WORK / f"spans-{tag}.jsonl"), str(WORK / f"report-{tag}.json"), *cli]
        else:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        return Child(argv, self.env, self.deadline), cache_dir

    def _ping(self, child: Child) -> float:
        child.send(json.dumps({"op": "ping"}))
        if not json.loads(child.receive()).get("ok"):
            raise BenchError("serve did not answer ping")
        return time.perf_counter() - child.started

    def probe_setup(self) -> float:
        child, cache_dir = self._spawn("probe", traced=False)
        try:
            setup = self._ping(child)
            child.finish()
        finally:
            child.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return setup

    def round(self, index: int, tag: str, traced: bool) -> dict:
        stream, fresh = make_stream(len(self.pool), index, self.seed)
        lines = [
            json.dumps({"id": number, **self.pool[problem]["request"]})
            for number, problem in enumerate(stream)
        ]
        child, cache_dir = self._spawn(tag, traced)
        clock = time.perf_counter
        latencies = [0.0] * len(self.pool)
        responses = []
        try:
            setup = self._ping(child)
            started = clock()
            for problem, first, line in zip(stream, fresh, lines):
                sent = clock()
                child.send(line)
                responses.append(child.receive())
                if first:
                    latencies[problem] = clock() - sent
            run_s = clock() - started
            peak_rss_mb = child.finish()
        finally:
            child.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        trace = None
        if traced:
            trace = json.loads((WORK / f"report-{tag}.json").read_text(encoding="utf-8"))
        return {
            "setup_s": setup,
            "run_s": run_s,
            "latencies_s": latencies,
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(stream),
            "failed": self.check(stream, responses),
            "trace": trace,
        }

    def check(self, stream: list[int], responses: list[str]) -> int:
        failed = len(stream) - len(responses)
        for number, (problem, text) in enumerate(zip(stream, responses)):
            response = json.loads(text)
            outcome = response.get("outcome") or {}
            if (
                response.get("id") != number
                or not response.get("ok")
                or outcome.get("verdict_status") != "definite"
                or outcome.get("holds") != self.pool[problem]["expected"]["holds"]
            ):
                failed += 1
        return failed


def make_stream(pool_size: int, index: int, seed: int) -> tuple[list[int], list[bool]]:
    """The seeded request sequence over a pool and its first-appearance flags.

    Every pool problem appears once as a fresh request, in an order drawn
    from ``index`` alone.  After each fresh request come one to three
    repeats, drawn from ``seed`` and ``index`` among the problems seen so
    far with Zipf-like weights (1/rank, ranks seeded), so a few problems
    dominate the repeats.

    The fresh orders do not depend on the seed: a fresh request costs more
    or less depending on what earlier problems left in the server's caches
    (a compiled schema, a shared solve), so runs with different seeds meet
    the fresh problems in the same orders and the seed varies the repeat
    traffic between them.
    """
    order = list(range(pool_size))
    random.Random(f"order/{index}").shuffle(order)
    rng = random.Random(f"{seed}/{index}")
    ranks = list(range(1, pool_size + 1))
    rng.shuffle(ranks)
    stream: list[int] = []
    fresh: list[bool] = []
    seen: list[int] = []
    weights: list[float] = []
    for problem in order:
        stream.append(problem)
        fresh.append(True)
        seen.append(problem)
        weights.append(1.0 / ranks[problem])
        for _ in range(rng.randint(1, 3)):
            stream.append(rng.choices(seen, weights)[0])
            fresh.append(False)
    return stream, fresh


WORKLOADS = {cls.name: cls for cls in (AuditWorkload, ScalingWorkload, ServeWorkload)}


# -- runs ---------------------------------------------------------------------


def timed_run(workload: Workload, seconds: float) -> tuple[dict, dict, tuple[int, int]]:
    """End-to-end metrics: rounds until ``seconds``, medians over rounds.

    Half of the set-up probes run before the rounds and half after, so the
    set-up samples span the whole run.
    """
    setups = [workload.probe_setup() for _ in range(SETUP_PROBES // 2)]
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(workload.round(len(rounds), f"r{len(rounds)}", traced=False))
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    setups += [workload.probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups += [entry["setup_s"] for entry in rounds]

    def median_of(key):
        return statistics.median(entry[key] for entry in rounds)

    # Every round carries the same fresh requests (for serve, in another
    # order), so each one's latency is its median over the rounds; the
    # percentiles are taken over requests.
    latencies = [
        statistics.median(samples)
        for samples in zip(*(entry["latencies_s"] for entry in rounds))
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": median_of("run_s"),
        "fresh_p50_ms": 1000.0 * percentile(latencies, 0.5),
        "fresh_p90_ms": 1000.0 * percentile(latencies, 0.9),
        "peak_rss_mb": median_of("peak_rss_mb"),
    }
    extra = {
        "rounds": len(rounds),
        "round_run_s": [entry["run_s"] for entry in rounds],
        "fresh_requests": len(latencies),
        "setup_samples": len(setups),
    }
    return metrics, extra, _totals(rounds)


def traced_run(workload: Workload, predictions: dict) -> tuple[dict, dict, tuple]:
    """Per-layer metrics of one traced round, with its tracing overhead."""
    untraced = workload.round(0, f"{workload.name}-untraced", traced=False)
    traced = workload.round(0, f"{workload.name}-traced", traced=True)
    report = traced["trace"]
    metrics = dict(report["metrics"])
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.untraced_run_s"] = untraced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    metrics["trace.unattributed_s"] = traced["run_s"] - report["self_total_s"]
    violations = [name for name in predictions["zero"] if metrics.get(name) != 0]
    metrics["trace.bypass_violations"] = len(violations)
    extra = {"missing_wrappers": report["missing"], "bypass_violations": violations}
    return metrics, extra, _totals([untraced, traced])


def _totals(rounds: list[dict]) -> tuple[int, int]:
    return (
        sum(entry["attempted"] for entry in rounds),
        sum(entry["failed"] for entry in rounds),
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size workloads (for the self-test)")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference file to check outputs against")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    reference_path = args.reference or BENCH / "reference" / f"{args.workload}.json"
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](
        reference, args.seed, args.quick, began + RUN_LIMIT_S
    )
    try:
        if args.trace:
            metrics, extra, (attempted, failed) = traced_run(
                workload, predictions["workloads"][args.workload]
            )
            declared = spec["per_layer"]
        else:
            metrics, extra, (attempted, failed) = timed_run(workload, args.seconds)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "failed_ratio": failed / attempted,
        "wall_s": round(time.perf_counter() - began, 3),
        **extra,
    }
    print("perfbench summary: " + json.dumps(summary))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
