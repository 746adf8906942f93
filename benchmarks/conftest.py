"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 8).  Besides the pytest-benchmark timings, each benchmark appends the
rows it reproduces to ``benchmarks/reports/<name>.txt`` so the numbers can be
compared with the paper without re-running pytest with output capturing
disabled.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REPORT_DIR = Path(__file__).resolve().parent / "reports"

#: Machine-readable benchmark results land at the repository root as
#: ``BENCH_<name>.json`` so successive PRs can track the perf trajectory.
BENCH_JSON_DIR = Path(__file__).resolve().parent.parent


def write_report(name: str, lines: list[str]) -> None:
    """Write (and print) the reproduced rows of a table or figure."""
    REPORT_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (REPORT_DIR / f"{name}.txt").write_text(text)
    print(f"\n===== {name} =====\n{text}")


def write_bench_json(name: str, payload: dict) -> Path:
    """Write a machine-readable benchmark result to ``BENCH_<name>.json``."""
    path = BENCH_JSON_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {path}")
    return path


#: The twelve benchmark XPath expressions of Figure 21; the corpus lives in
#: :mod:`repro.analysis.problems` and is re-exported here for the benchmark
#: files.
from repro.analysis.problems import FIGURE_21  # noqa: E402  (needs the sys.path insert)
