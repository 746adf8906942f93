"""Fuzz cases and the on-disk corpus format of ``tests/corpus/``.

A :class:`FuzzCase` is one decision problem as *plain data*: the query kind,
the XPath expressions in surface syntax, and the DTD as source text (or
``None`` for "any tree").  Keeping cases textual makes them trivially
picklable (for ``--workers``), shrinkable, and serialisable.

Corpus entries are JSON files, one case per file::

    {
      "name": "fuzz-seed0-trial17",
      "origin": "repro fuzz --seed 0 (trial 17)",
      "kind": "containment",
      "exprs": ["a/b", "a//b"],
      "dtd": "<!ELEMENT a (b)*><!ELEMENT b EMPTY>",
      "root": "a",
      "expected": {"satisfiable": false, "holds": true},
      "disagreement": null
    }

``expected`` records the verdict every engine agreed on when the case was
written; replay reads only its ``satisfiable`` and ``holds`` (older entries
also carry a ``backends`` list from when the fuzzer had a BDD-engine axis).
``disagreement`` is non-null only for unresolved fuzz findings (a
checked-in disagreement keeps failing ``tests/test_corpus.py`` until the
underlying bug is fixed, which is exactly the point).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.xmltypes.dtd import DTD, parse_dtd

#: Query kinds the fuzzer exercises (a subset of :data:`repro.api.KINDS`:
#: the kinds that reduce to a *single* satisfiability question, so one
#: symbolic verdict is compared per trial).
FUZZ_KINDS = ("satisfiability", "emptiness", "containment", "overlap")

#: Kinds whose property *holds* when the reduced formula is satisfiable.
POSITIVE_KINDS = frozenset({"satisfiability", "overlap"})


@dataclass(frozen=True)
class FuzzCase:
    """One generated decision problem, as plain serialisable data."""

    kind: str
    exprs: tuple[str, ...]
    dtd_source: str | None = None
    root: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FUZZ_KINDS:
            raise ValueError(f"unknown fuzz kind {self.kind!r}; expected {FUZZ_KINDS}")
        expected = 2 if self.kind in ("containment", "overlap") else 1
        if len(self.exprs) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} expression(s), got {len(self.exprs)}"
            )

    def dtd(self) -> DTD | None:
        """The parsed DTD of the case (``None`` for untyped problems)."""
        if self.dtd_source is None:
            return None
        return parse_dtd(self.dtd_source, root=self.root, name="fuzz")

    def holds(self, satisfiable: bool) -> bool:
        """Map a satisfiability verdict to the property the kind asks about."""
        return satisfiable if self.kind in POSITIVE_KINDS else not satisfiable

    def describe(self) -> str:
        typed = f" under <!DOCTYPE {self.root}>" if self.dtd_source else ""
        return f"{self.kind} of {' vs '.join(self.exprs)}{typed}"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "exprs": list(self.exprs),
            "dtd": self.dtd_source,
            "root": self.root,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        return cls(
            kind=payload["kind"],
            exprs=tuple(payload["exprs"]),
            dtd_source=payload.get("dtd"),
            root=payload.get("root"),
        )

    def without_type(self) -> "FuzzCase":
        return replace(self, dtd_source=None, root=None)

    def digest(self) -> str:
        """A short content hash used for corpus file names and dedup."""
        blob = json.dumps(self.as_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class CorpusEntry:
    """A corpus file: the case plus the verdict recorded when it was written."""

    case: FuzzCase
    name: str
    origin: str = ""
    #: ``{"satisfiable": bool, "holds": bool}`` when every engine agreed.
    expected: dict | None = None
    #: Unresolved fuzz finding (kind + detail), ``None`` for regression seeds.
    disagreement: dict | None = None
    path: Path | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "origin": self.origin,
            **self.case.as_dict(),
            "expected": self.expected,
            "disagreement": self.disagreement,
        }

    @classmethod
    def from_dict(cls, payload: dict, path: Path | None = None) -> "CorpusEntry":
        return cls(
            case=FuzzCase.from_dict(payload),
            name=payload.get("name", path.stem if path else "corpus-case"),
            origin=payload.get("origin", ""),
            expected=payload.get("expected"),
            disagreement=payload.get("disagreement"),
            path=path,
        )


def load_corpus(directory: str | Path) -> list[CorpusEntry]:
    """Every corpus entry under ``directory``, sorted by file name."""
    root = Path(directory)
    if not root.is_dir():
        return []
    entries = []
    for path in sorted(root.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        entries.append(CorpusEntry.from_dict(payload, path=path))
    return entries


def write_corpus_case(
    directory: str | Path,
    case: FuzzCase,
    *,
    origin: str,
    expected: dict | None = None,
    disagreement: dict | None = None,
) -> Path:
    """Serialise a (shrunk) case into the corpus; returns the file path.

    File names are content-addressed, so re-running a deterministic fuzz
    campaign rewrites the same files instead of accumulating duplicates.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    name = f"fuzz-{case.kind}-{case.digest()}"
    entry = CorpusEntry(
        case=case,
        name=name,
        origin=origin,
        expected=expected,
        disagreement=disagreement,
    )
    path = root / f"{name}.json"
    path.write_text(
        json.dumps(entry.as_dict(), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return path
