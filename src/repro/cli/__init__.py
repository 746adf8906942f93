"""The ``repro`` command line: the analyzer as a service.

The paper positions the solver as a *practical* analysis component for
editors, compilers and query optimisers; this package is that interface,
without a Python import in sight:

* :mod:`repro.cli.analyze` — ``repro analyze``: one-shot decision problems
  from arguments or a JSON/JSONL batch file.
* :mod:`repro.cli.serve` — ``repro serve``: a long-running JSON-lines
  request/response loop over stdin/stdout, so one warm analyzer (and one
  persistent cache) serves a whole editing session or load test.
* :mod:`repro.cli.schemas` — ``repro schemas``: the bundled DTD registry.
* :mod:`repro.cli.bench` — ``repro bench``: re-emit ``BENCH_scaling.json``,
  the Lemma 6.7 scaling table with its deterministic counter guards.
* :mod:`repro.cli.wire` — the JSON wire format shared by ``analyze --batch``
  and ``serve``.

``pip install`` exposes :func:`main` as the ``repro`` console script;
``python -m repro.cli`` works from a source checkout.  User guide:
``docs/CLI.md``; wire-format reference: :mod:`repro.cli.wire`.
"""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
