"""The JSON wire format of the ``repro`` command line.

One *request* object describes one :class:`repro.api.Query`:

.. code-block:: json

    {"id": 7,
     "kind": "containment",
     "exprs": [".//img", ".//img[@alt]"],
     "types": ["xhtml"]}

* ``kind`` — one of :data:`repro.api.KINDS`.
* ``exprs`` — the XPath expressions, subject first.
* ``types`` — optional; entries may be ``null`` ("any tree"), a built-in
  schema name (see :func:`repro.xmltypes.library.schema_names`), a path to a
  ``.dtd`` file, or an inline ``{"dtd": "<source>", "root": ..., "name": ...}``
  object.  A missing list means "no type constraints"; a single entry is
  broadcast when the kind needs more (the usual "both sides under the same
  schema" case).  Any of these forms can be anchored at a document node
  (:class:`repro.analysis.problems.Rooted` — absolute paths then start above
  the root element, as in XSLT) by prefixing a string entry with ``rooted:``
  (``"rooted:xhtml"``, ``"rooted:type.dtd"``) or wrapping an entry in
  ``{"rooted": <entry>}``.
* ``id`` — optional opaque value echoed back by ``repro serve``.
* ``budget`` — optional per-request resource budget, an object with any of
  ``deadline_seconds``, ``max_steps``, ``max_iterations``, ``max_lean`` (see
  :class:`repro.solver.governor.Budget`).  It *tightens* whatever budget the
  serving analyzer was built with; a budgeted solve that runs out yields an
  outcome with ``verdict_status: "unknown"`` and a ``budget_reason`` instead
  of a verdict.

Batch files for ``repro analyze --batch`` hold either a JSON array of request
objects or JSON Lines (one request per line; blank lines and ``#`` comment
lines are skipped).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.problems import Rooted
from repro.api import KINDS, Query
from repro.core.errors import ParseError
from repro.xmltypes.dtd import DTD, parse_dtd


class WireError(ValueError):
    """A request payload that does not follow the wire format."""


#: Cache for inline/file DTDs, keyed by (source, root, name).  Re-parsing per
#: request would hand the analyzer a *new* DTD object every time and defeat
#: its identity-keyed type-translation cache.
DTDCache = dict


def resolve_wire_type(value: object, dtd_cache: DTDCache | None = None) -> object:
    """Decode one ``types`` entry into what :class:`Query` accepts."""
    if value is None:
        return None
    if isinstance(value, str):
        if value.startswith("rooted:"):
            inner = value[len("rooted:") :]
            return _wire_rooted(resolve_wire_type(inner or None, dtd_cache), value)
        if value.endswith(".dtd"):
            path = Path(value)
            if not path.is_file():
                raise WireError(f"DTD file not found: {value}")
            return _parse_cached(
                path.read_text(encoding="utf-8"), None, path.stem, dtd_cache
            )
        return value  # built-in schema name; validated by the analyzer
    if isinstance(value, dict):
        if "rooted" in value:
            if set(value) != {"rooted"}:
                raise WireError(
                    f"a rooted type object holds exactly one 'rooted' key: {value!r}"
                )
            return _wire_rooted(resolve_wire_type(value["rooted"], dtd_cache), value)
        if "dtd" not in value:
            raise WireError(f"inline type object needs a 'dtd' key: {value!r}")
        source = value["dtd"]
        root = value.get("root")
        name = value.get("name", "inline")
        if not isinstance(source, str) or not isinstance(name, str):
            raise WireError(
                f"'dtd' and 'name' of a type object must be strings: {value!r}"
            )
        if root is not None and not isinstance(root, str):
            raise WireError(
                f"'root' of a type object must be a string or null: {value!r}"
            )
        return _parse_cached(source, root, name, dtd_cache)
    raise WireError(f"unsupported type constraint in request: {value!r}")


def _wire_rooted(inner: object, original: object) -> Rooted:
    if isinstance(inner, Rooted):
        raise WireError(f"'rooted' cannot be nested: {original!r}")
    return Rooted(inner)


def _parse_cached(
    source: str, root: str | None, name: str, dtd_cache: DTDCache | None
) -> DTD:
    key = (source, root, name)
    if dtd_cache is not None and key in dtd_cache:
        return dtd_cache[key]
    try:
        dtd = parse_dtd(source, root=root, name=name)
    except ParseError as exc:
        raise WireError(f"invalid DTD {name!r}: {exc}") from None
    if dtd_cache is not None:
        dtd_cache[key] = dtd
    return dtd


def query_from_dict(payload: dict, dtd_cache: DTDCache | None = None) -> Query:
    """Build a :class:`Query` from a request object (see module docstring).

    Raises :class:`WireError` on malformed payloads and :class:`ValueError`
    (from :class:`Query` itself) on arity violations.
    """
    if not isinstance(payload, dict):
        raise WireError(f"request must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {"id", "kind", "exprs", "types", "budget"}
    if unknown:
        raise WireError(f"unknown request keys {sorted(unknown)!r}")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise WireError(f"unknown query kind {kind!r}; expected one of {KINDS}")
    exprs = payload.get("exprs")
    if (
        not isinstance(exprs, list)
        or not exprs
        or not all(isinstance(e, str) for e in exprs)
    ):
        raise WireError("'exprs' must be a non-empty list of XPath strings")
    types = payload.get("types")
    arity = Query._ARITIES[kind]
    wanted = len(exprs) if arity is None else arity[1]
    if types is None:
        types = [None] * wanted
    if not isinstance(types, list):
        raise WireError("'types' must be a list when present")
    if len(types) == 1 and wanted > 1:
        types = types * wanted  # broadcast "same schema on every side"
    resolved = tuple(resolve_wire_type(value, dtd_cache) for value in types)
    return Query(kind, tuple(exprs), resolved)


def budget_from_dict(payload: dict) -> "Budget | None":
    """The request's per-query :class:`~repro.solver.governor.Budget`.

    ``None`` when the request carries no ``budget`` key (the common case);
    raises :class:`WireError` on malformed budget objects (unknown fields,
    non-positive limits).
    """
    value = payload.get("budget") if isinstance(payload, dict) else None
    if value is None:
        return None
    if not isinstance(value, dict):
        raise WireError(f"'budget' must be an object, got {value!r}")
    from repro.solver.governor import Budget

    try:
        budget = Budget.from_dict(value)
    except (ValueError, TypeError) as exc:
        raise WireError(f"invalid budget: {exc}") from None
    return None if budget.unlimited else budget


def read_batch(path: str | Path) -> list[dict]:
    """Load a batch file (JSON array or JSON Lines) into request objects."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            payloads = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WireError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(payloads, list):
            raise WireError(f"{path}: expected a JSON array of request objects")
        return payloads
    payloads = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            payloads.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise WireError(f"{path}:{number}: invalid JSON: {exc}") from None
    return payloads


def error_payload(exc: Exception) -> dict:
    """The wire shape of a protocol-level failure."""
    return {"kind": type(exc).__name__, "message": str(exc)}
