"""The decision problems of Section 8, reduced to Lµ satisfiability.

For XPath expressions ``e₁, …, eₙ`` and XML types ``T₁, …, Tₙ``:

* **emptiness / satisfiability**: ``E→[[e₁]]([[T₁]])`` is satisfiable iff
  ``e₁`` can select at least one node in some document of type ``T₁``;
* **containment**: ``E→[[e₁]]([[T₁]]) ∧ ¬E→[[e₂]]([[T₂]])`` is unsatisfiable
  iff every node selected by ``e₁`` (under ``T₁``) is selected by ``e₂``
  (under ``T₂``);
* **overlap**: ``E→[[e₁]]([[T₁]]) ∧ E→[[e₂]]([[T₂]])`` is satisfiable iff the
  two expressions can select a common node;
* **coverage**: ``E→[[e₁]]([[T₁]]) ∧ ⋀ᵢ ¬E→[[eᵢ]]([[Tᵢ]])`` is unsatisfiable
  iff every node selected by ``e₁`` is selected by one of the others;
* **static type checking**: ``E→[[e₁]]([[T₁]]) ∧ ¬[[T₂]]`` is unsatisfiable
  iff every node selected by ``e₁`` under ``T₁`` roots a subtree of type
  ``T₂``;
* **equivalence**: containment in both directions.

When the formula of a "negative" problem (containment, coverage, type
inclusion) is satisfiable, the satisfying model is a counterexample document,
annotated with the start mark, which is returned to the caller.

:func:`reduce_problem` is the reduction :class:`repro.api.StaticAnalyzer`
runs and the fuzzer checks; it translates a later side's type under ⊤ when
it repeats the first side's (same models, a much smaller Lean — see there).
Every problem is asked through ``StaticAnalyzer().solve(Query.<kind>(...))``.

**Attributes.**  When an expression of a problem mentions attribute steps
(``@href``, ``attribute::*``), every DTD involved in the problem is compiled
with its ATTLIST constraints projected onto the union of the attribute names
the problem's expressions mention (see :mod:`repro.xmltypes.compile`): the
projection keeps the Lean small while preserving every verdict a
presence-based query can distinguish.  Attribute-free problems compile types
exactly as before.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.logic import syntax as sx
from repro.logic.closure import OTHER_ATTRIBUTE, OTHER_LABEL
from repro.logic.negation import negate
from repro.xmltypes.dtd import DTD
from repro.xpath import ast as xp
from repro.xpath.parser import parse_xpath_cached

#: The twelve benchmark XPath expressions of Figure 21 (``//`` is the paper's
#: shorthand for ``/desc-or-self::*/``; e10 uses the parenthesised union).
FIGURE_21 = {
    "e1": "/a[.//b[c/*//d]/b[c//d]/b[c/d]]",
    "e2": "/a[.//b[c/*//d]/b[c/d]]",
    "e3": "a/b//c/foll-sibling::d/e",
    "e4": "a/b//d[prec-sibling::c]/e",
    "e5": "a/c/following::d/e",
    "e6": "a/b[//c]/following::d/e ∩ a/d[preceding::c]/e",
    "e7": "*//switch[ancestor::head]//seq//audio[prec-sibling::video]",
    "e8": "descendant::a[ancestor::a]",
    "e9": "/descendant::*",
    "e10": "html/(head | body)",
    "e11": "html/head/descendant::*",
    "e12": "html/body/descendant::*",
}


@dataclass(frozen=True)
class Rooted:
    """A whole-document reading of a type constraint.

    The type translation of Section 5.2 leaves the context of the typed node
    unconstrained, so absolute paths in a query may anchor anywhere.
    ``Rooted(T)`` instead places the marked context node *above* the typed
    root element, as a virtual document node: it has no parent, no siblings,
    no attributes, no element name, and exactly one child — the root element
    of a document of type ``T``.  Absolute expressions then read as paths
    from the document node (``/html`` is the root element, ``//p`` is every
    ``p`` in the document, ``/self::*`` is the document node itself),
    matching the data model XSLT patterns are defined over.  No name test
    (``/self::html``, ``parent::meta``) and no attribute test (``@href``,
    ``@*``) selects the document node; the wildcard ``*`` does.

    ``xml_type`` is a schema (a built-in name or a
    :class:`~repro.xmltypes.dtd.DTD`) or ``None`` for any tree; anything
    else is an :class:`~repro.core.errors.UnsupportedTypeError` when the
    analyzer resolves it.  A ``Rooted`` cannot wrap another ``Rooted``.
    """

    xml_type: "DTD | str | None"

    def __post_init__(self) -> None:
        if isinstance(self.xml_type, Rooted):
            raise TypeError("Rooted wraps a base type constraint, not Rooted")


def document_formula(inner: sx.Formula, attributes: tuple[str, ...]) -> sx.Formula:
    """The Lµ formula of :class:`Rooted` given the inner type's translation.

    The marked node is the document node: a unique top-level node (no parent,
    no siblings — only a first child with no previous sibling can satisfy
    ``¬⟨-1⟩⊤ ∧ ¬⟨-2⟩⊤``) whose single child satisfies the inner constraint.
    It is no element: it carries the "any other label" proposition, which no
    XPath name test can name, and none of the problem's ``attributes``.
    """
    return sx.big_and(
        (
            sx.prop(OTHER_LABEL),
            *(sx.nattr(name) for name in attributes),
            sx.no_dia(-1),
            sx.no_dia(-2),
            sx.no_dia(2),
            sx.dia(1, sx.mk_and(inner, sx.no_dia(2))),
        )
    )


def relevant_attributes(*exprs: str) -> tuple[str, ...]:
    """The attribute alphabet of a problem: every name its expressions mention.

    The wildcard ``@*`` contributes the "other attribute" marker so that type
    constraints can also rule attributes outside the named alphabet in or
    out.  Returns a sorted tuple (empty for attribute-free problems).
    """
    names: set[str] = set()
    wildcard = False
    for expr in exprs:
        expr_names, expr_wildcard = xp.collect_attributes(parse_xpath_cached(expr))
        names |= expr_names
        wildcard = wildcard or expr_wildcard
    if wildcard:
        names.add(OTHER_ATTRIBUTE)
    return tuple(sorted(names))


def relevant_labels(*exprs: str) -> tuple[str, ...]:
    """The element alphabet of a problem: every name its expressions test.

    Wildcard node tests contribute nothing (they cannot distinguish labels).
    Returns a sorted tuple.
    """
    names: set[str] = set()
    for expr in exprs:
        names |= xp.collect_labels(parse_xpath_cached(expr))
    return tuple(sorted(names))


def label_projection(exprs: Sequence[str], types: Sequence) -> tuple[str, ...] | None:
    """The element alphabet to project type constraints onto, or ``None``.

    Cone-of-influence pruning collapses element names a problem's
    expressions never test onto the "any other label" proposition.  The
    collapse is a label homomorphism applied to the type constraints, so it
    is semantics-preserving exactly when every type constraint of the
    problem is collapsed *through the same homomorphism*: with two distinct
    DTDs the problem can tell types apart through names neither query
    mentions (e.g. containment between differently-typed sides), so pruning
    must be skipped — this returns ``None``.

    Concretely, pruning applies when the problem involves at most one
    distinct DTD (possibly repeated, possibly mixed with unconstrained
    ``None`` sides).  ``types`` are resolved type constraints (see
    :meth:`repro.api.StaticAnalyzer._resolve_type`): a DTD is its own
    identity, so a registry name, its aliases and its ``DTD`` object are one
    schema.
    """
    distinct: set[object] = set()
    for xml_type in types:
        if isinstance(xml_type, Rooted):
            # The document-node wrapper is the same label homomorphism as its
            # inner type; mixing Rooted(T) and T in one problem is still one
            # distinct schema.
            xml_type = xml_type.xml_type
        if xml_type is not None:
            distinct.add(xml_type)
    if len(distinct) > 1:
        return None
    return relevant_labels(*exprs)


def _required_attribute_names(xml_type) -> set[str]:
    """Every ``#REQUIRED`` attribute name of a DTD type (else ∅)."""
    if not isinstance(xml_type, DTD):
        return set()
    return {
        name
        for element in xml_type.element_names()
        for name in xml_type.required_attributes(element)
    }


def type_inclusion_attributes(expr, input_type, output_type) -> tuple[str, ...]:
    """The attribute alphabet for a static type-checking problem.

    Unlike query-versus-query problems, type inclusion uses a *negated type*
    as a predicate on the selected subtrees, so attribute names the
    expression never mentions can still decide validity: an output type with
    ``alt`` ``#REQUIRED`` on ``img`` rejects every alt-less ``img`` whether
    or not the query talks about ``alt``.  The alphabet therefore adds, on
    top of the expression's names, every ``#REQUIRED`` name of either DTD
    and every name the input type declares *on an element* for which the
    output type does not declare it (an attribute the input admits there
    that would invalidate the output; the comparison is per element — the
    output declaring the same name on a different element does not help).

    Both types are resolved constraints; a :class:`Rooted` type contributes
    its DTD's names.  When the input type is unconstrained (``None``),
    documents may carry attribute names no finite alphabet can
    enumerate; such attributes stay outside the model, i.e. inclusion is
    decided *modulo attributes the problem cannot name* (consistent with the
    projection semantics everywhere else).
    """
    input_type, output_type = (
        xml_type.xml_type if isinstance(xml_type, Rooted) else xml_type
        for xml_type in (input_type, output_type)
    )
    names = set(relevant_attributes(expr))
    names |= _required_attribute_names(input_type)
    names |= _required_attribute_names(output_type)
    if isinstance(input_type, DTD):
        output_attlists = (
            output_type.attlists if isinstance(output_type, DTD) else {}
        )
        for element, declarations in input_type.attlists.items():
            declared_out = {
                declaration.name for declaration in output_attlists.get(element, ())
            }
            names |= {
                declaration.name
                for declaration in declarations
                if declaration.name not in declared_out
            }
    return tuple(sorted(names))


def reduce_problem(
    kind: str,
    exprs: Sequence,
    types: Sequence,
    query_formula: Callable[..., sx.Formula],
    type_formula: Callable[..., sx.Formula],
    attributes: tuple[str, ...],
    labels: tuple[str, ...] | None,
) -> tuple[sx.Formula, bool]:
    """Reduce one problem (any kind but equivalence) to one Lµ formula.

    Returns ``(formula, positive)``: ``positive`` tells whether the property
    *holds* when the formula is satisfiable (satisfiability, overlap) or when
    it is unsatisfiable (the rest).  ``query_formula(expr, xml_type,
    attributes, labels)`` and ``type_formula(xml_type, constrain_siblings=...,
    attributes=..., labels=...)`` are the translators; every side is
    translated over the problem's attribute alphabet ``attributes`` and
    element alphabet ``labels`` (``None``: no pruning), which the caller
    derives from the problem's types.  ``types`` are resolved (see
    :meth:`repro.api.StaticAnalyzer._resolve_type`): equal types are one schema.

    **A shared type is conjoined once.**  Every XPath translation anchors at
    ``χ ∧ s`` and the solver's models carry exactly one start mark
    (Fig. 16), so once the first side has forced χ at the mark, ``χ ∧ s ≡ s``
    inside every later side over the same type.  A later side of
    containment, overlap or coverage whose type equals the first side's is
    therefore translated under ⊤: the models are the same, and the
    Lean — which prices a solve at 2^O(|Lean|) (Lemma 6.7) — loses the
    negated copy of χ's closure.  Type inclusion keeps its negated output
    type, which holds at the selected node, not at the mark.
    """

    def later_side(expr, xml_type) -> sx.Formula:
        if xml_type is not None and xml_type == types[0]:
            xml_type = None
        return query_formula(expr, xml_type, attributes, labels)

    first = query_formula(exprs[0], types[0], attributes, labels)
    if kind in ("satisfiability", "emptiness"):
        return first, kind == "satisfiability"
    if kind == "containment":
        return sx.mk_and(first, negate(later_side(exprs[1], types[1]))), False
    if kind == "overlap":
        return sx.mk_and(first, later_side(exprs[1], types[1])), True
    if kind == "coverage":
        formula = first
        for other, other_type in zip(exprs[1:], types[1:]):
            formula = sx.mk_and(formula, negate(later_side(other, other_type)))
        return formula, False
    if kind == "type_inclusion":
        output = type_formula(
            types[1], constrain_siblings=False, attributes=attributes, labels=labels
        )
        return sx.mk_and(first, negate(output)), False
    raise ValueError(f"unknown query kind {kind!r}")
