"""Built-in XML types used by the paper's evaluation (Section 8, Table 1).

The evaluation of the paper uses two real-world DTDs — SMIL 1.0 (19 element
symbols) and XHTML 1.0 Strict (77 element symbols) — plus the Wikipedia DTD
fragment of Figure 12 used to illustrate the type translation.  The DTD texts
shipped with this package are hand-written reproductions of the element
structure of those DTDs (see DESIGN.md, "Substitutions"); a reduced XHTML
"core" subset is also provided for fast regression runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

from repro.core.errors import SchemaLookupError
from repro.xmltypes.dtd import DTD, parse_dtd


def _load(filename: str, root: str, name: str) -> DTD:
    data = resources.files("repro.xmltypes.data").joinpath(filename).read_text()
    return parse_dtd(data, root=root, name=name)


@functools.lru_cache(maxsize=None)
def smil_dtd() -> DTD:
    """SMIL 1.0 (19 element symbols), rooted at ``smil``."""
    return _load("smil10.dtd", root="smil", name="smil")


@functools.lru_cache(maxsize=None)
def xhtml_strict_dtd() -> DTD:
    """XHTML 1.0 Strict (77 element symbols), rooted at ``html``."""
    return _load("xhtml1_strict.dtd", root="html", name="xhtml")


@functools.lru_cache(maxsize=None)
def xhtml_core_dtd() -> DTD:
    """A 21-element structural subset of XHTML 1.0 Strict, rooted at ``html``."""
    return _load("xhtml1_core.dtd", root="html", name="xhtml-core")


@functools.lru_cache(maxsize=None)
def wikipedia_dtd() -> DTD:
    """The Wikipedia DTD fragment of Figure 12, rooted at ``article``."""
    return _load("wikipedia.dtd", root="article", name="wikipedia")


# ---------------------------------------------------------------------------
# Schema registry (used by ``repro schemas``, the serve protocol, and name
# resolution in builtin_dtd — one catalog, no second list to keep in sync)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaInfo:
    """Registry metadata for one bundled schema (JSON-able via :meth:`as_dict`)."""

    name: str
    aliases: tuple[str, ...]
    filename: str
    description: str
    loader: Callable[[], DTD] = field(repr=False, compare=False, kw_only=True)

    def load(self) -> DTD:
        return self.loader()

    def as_dict(self, verbose: bool = False) -> dict:
        dtd = self.load()
        info = {
            "name": self.name,
            "aliases": list(self.aliases),
            "file": self.filename,
            "root": dtd.root,
            "elements": len(dtd.elements),
            "attributes": len(dtd.attribute_names()),
            "description": self.description,
        }
        if verbose:
            info["element_names"] = list(dtd.element_names())
            info["required_attributes"] = {
                element: list(required)
                for element in dtd.element_names()
                if (required := dtd.required_attributes(element))
            }
        return info


_CATALOG = (
    SchemaInfo(
        name="smil",
        aliases=(),
        filename="smil10.dtd",
        loader=smil_dtd,
        description="SMIL 1.0 (19 element symbols), rooted at smil; Table 1.",
    ),
    SchemaInfo(
        name="xhtml",
        aliases=("xhtml-strict",),
        filename="xhtml1_strict.dtd",
        loader=xhtml_strict_dtd,
        description="XHTML 1.0 Strict (77 element symbols), rooted at html; Table 1.",
    ),
    SchemaInfo(
        name="xhtml-core",
        aliases=(),
        filename="xhtml1_core.dtd",
        loader=xhtml_core_dtd,
        description="21-element structural subset of XHTML 1.0 Strict for fast runs.",
    ),
    SchemaInfo(
        name="wikipedia",
        aliases=(),
        filename="wikipedia.dtd",
        loader=wikipedia_dtd,
        description="The Wikipedia DTD fragment of Figure 12, rooted at article.",
    ),
)

_CATALOG_BY_NAME = {
    alias: info for info in _CATALOG for alias in (info.name, *info.aliases)
}

def builtin_dtd(name: str) -> DTD:
    """Look up a built-in DTD by registry name or alias (``smil``, ``xhtml``,
    ``xhtml-strict``, ``xhtml-core``, ``wikipedia``)."""
    return schema_info(name).load()


def schema_catalog() -> tuple[SchemaInfo, ...]:
    """Every bundled schema, in registry order."""
    return _CATALOG


def schema_names() -> tuple[str, ...]:
    """Canonical names of the bundled schemas (aliases excluded)."""
    return tuple(info.name for info in _CATALOG)


def schema_info(name: str) -> SchemaInfo:
    """Registry entry for a schema name or alias.

    Unknown names raise :class:`repro.core.errors.SchemaLookupError` — a
    :class:`KeyError` for dictionary-style callers, and an input-shaped
    :class:`ReproError` for the analyzer's structured error outcomes.
    """
    try:
        return _CATALOG_BY_NAME[name]
    except KeyError:
        raise SchemaLookupError(
            f"unknown built-in DTD {name!r}; available: "
            f"{sorted(_CATALOG_BY_NAME)}"
        ) from None
