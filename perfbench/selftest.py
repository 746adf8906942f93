"""Fast self-test of the benchmark on reduced-size workloads.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload with ``run.py --quick`` and checks that:

1. every metric named in ``BENCHMARK.json`` is emitted with its unit, in
   untraced and in traced runs;
2. flipping one expected verdict in a copy of a reference raises
   ``failed_ratio`` above 0;
3. the counts of two traced runs with the same seed repeat exactly;
4. the per-layer self times account for the traced ``run_s``: the
   unattributed rest is under :data:`UNATTRIBUTED_SHARE` of it.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench"

#: Largest share of the traced run_s that may lie outside every span.
UNATTRIBUTED_SHARE = 0.05


def run(workload: str, trace: int, seed: int = 7, reference: Path | None = None) -> tuple:
    """One quick run: (summary dict, result dict)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    if reference is not None:
        argv += ["--reference", str(reference)]
    process = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if process.returncode != 0:
        raise AssertionError(f"{' '.join(argv[1:])} failed: {process.stderr.strip()}")
    lines = process.stdout.strip().splitlines()
    summary = json.loads(lines[-2].split(": ", 1)[1])
    return summary, json.loads(lines[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    names = [entry["name"] for entry in declared]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"{label}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    for entry in declared:
        metric = result["metrics"].get(entry["name"])
        if metric is not None and metric.get("unit") != entry["unit"]:
            problems.append(f"{label}: {entry['name']} has unit {metric.get('unit')!r}")
    return problems


def flipped_reference(workload: str) -> Path:
    """A copy of the workload's reference with one expectation reversed."""
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    if workload == "audit-xhtml":
        reference["quick"]["findings"].append(
            {"rule": "dead-template", "severity": "error", "file": "audit_clean.xsl",
             "line": 1, "element": None}
        )
    elif workload == "scaling-deep":
        depth = str(reference["quick_depths"][0])
        reference["expected"][depth] = not reference["expected"][depth]
    else:
        entry = next(entry for entry in reference["pool"] if entry.get("quick"))
        entry["expected"]["holds"] = not entry["expected"]["holds"]
    WORK.mkdir(parents=True, exist_ok=True)
    target = WORK / f"flipped-{workload}.json"
    target.write_text(json.dumps(reference))
    return target


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    is_count = {entry["name"]: entry["unit"] == "count" for entry in spec["per_layer"]}
    problems: list[str] = []
    for entry in spec["workloads"]:
        workload = entry["name"]
        print(f"selftest: {workload}", flush=True)
        _summary, plain = run(workload, trace=0)
        problems += check_metrics(plain, spec["end_to_end"], f"{workload} --trace 0")
        if plain["failed"]:
            problems.append(f"{workload}: {plain['failed']} failed at this commit")

        _summary, first = run(workload, trace=1)
        _summary, second = run(workload, trace=1)
        problems += check_metrics(first, spec["per_layer"], f"{workload} --trace 1")
        for name, value in first["metrics"].items():
            if is_count.get(name) and value["value"] != second["metrics"][name]["value"]:
                problems.append(f"{workload}: count {name} differs between traced runs "
                                f"({value['value']} vs {second['metrics'][name]['value']})")
        run_s = first["metrics"]["trace.run_s"]["value"]
        rest = first["metrics"]["trace.unattributed_s"]["value"]
        if not 0 <= rest <= UNATTRIBUTED_SHARE * run_s:
            problems.append(f"{workload}: self times leave {rest:.4f}s of the traced "
                            f"run_s {run_s:.4f}s unattributed")

        summary, flipped = run(workload, trace=0, reference=flipped_reference(workload))
        if not summary["failed_ratio"] > 0 or flipped["correct"]:
            problems.append(f"{workload}: a flipped expectation left "
                            f"failed_ratio at {summary['failed_ratio']}")

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
