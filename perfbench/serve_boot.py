"""A traced ``repro serve`` process for the serve-stream workload.

Usage (driven by ``run.py``)::

    python3 perfbench/serve_boot.py SPANS_FILE REPORT_FILE serve --cache-dir DIR --deadline S

It imports the server, installs the benchmark's wrappers (:mod:`tracer`)
and enters the command line exactly as ``python -m repro.cli serve ...``
does.  When the client closes stdin and the loop returns, the spans go to
``SPANS_FILE`` and the per-layer metrics to ``REPORT_FILE`` (JSON).
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    spans_out, report_out, cli_args = argv[0], argv[1], argv[2:]

    import repro.cli.serve  # noqa: F401 - import sites must exist before patching
    from repro.cli.main import main as repro_main
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = repro_main(cli_args)
    tracer.write_spans(spans_out)
    with open(report_out, "w", encoding="utf-8") as stream:
        json.dump(tracer.report(), stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
