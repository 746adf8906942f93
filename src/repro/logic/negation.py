"""Negation of Lµ formulas (end of Section 4).

For cycle-free formulas over finite focused trees the least and greatest
fixpoints coincide (Lemma 4.2), so the logic restricted to least fixpoints is
closed under negation using De Morgan's dualities extended to modalities and
fixpoints::

    ¬⟨a⟩ϕ              =  ¬⟨a⟩⊤ ∨ ⟨a⟩¬ϕ
    ¬(µ Xᵢ = ϕᵢ in ψ)  =  µ Xᵢ = ¬ϕᵢ{Xᵢ/¬Xᵢ} in ¬ψ{Xᵢ/¬Xᵢ}

The substitution ``{Xᵢ/¬Xᵢ}`` is realised by simply *not* negating bound
recursion variables: after the transformation the variable stands for the
complement of its original interpretation.  Negating a formula with free
recursion variables is therefore rejected.
"""

from __future__ import annotations

from repro.core.errors import ReproError
from repro.logic import syntax as sx


class NegationError(ReproError):
    """Raised when asked to negate a formula with free recursion variables."""


def negate(formula: sx.Formula) -> sx.Formula:
    """Return the negation of ``formula`` in negation normal form."""
    return _negate(formula, flipped=frozenset(), cache={})


def _negate(
    formula: sx.Formula,
    flipped: frozenset[str],
    cache: dict[tuple[int, frozenset[str]], sx.Formula],
) -> sx.Formula:
    key = (id(formula), flipped)
    cached = cache.get(key)
    if cached is not None:
        return cached
    kind = formula.kind
    if kind == sx.KIND_TRUE:
        result = sx.FALSE
    elif kind == sx.KIND_FALSE:
        result = sx.TRUE
    elif kind == sx.KIND_PROP:
        result = sx.nprop(formula.label)
    elif kind == sx.KIND_NPROP:
        result = sx.prop(formula.label)
    elif kind == sx.KIND_ATTR:
        result = sx.nattr(formula.label)
    elif kind == sx.KIND_NATTR:
        result = sx.attr(formula.label)
    elif kind == sx.KIND_START:
        result = sx.NSTART
    elif kind == sx.KIND_NSTART:
        result = sx.START
    elif kind == sx.KIND_VAR:
        if formula.label not in flipped:
            raise NegationError(
                f"cannot negate free recursion variable {formula.label!r}; "
                "negation is only defined for closed formulas"
            )
        # The variable now denotes the complement of its original meaning.
        result = formula
    elif kind == sx.KIND_OR:
        result = sx.mk_and(
            _negate(formula.left, flipped, cache), _negate(formula.right, flipped, cache)
        )
    elif kind == sx.KIND_AND:
        result = sx.mk_or(
            _negate(formula.left, flipped, cache), _negate(formula.right, flipped, cache)
        )
    elif kind == sx.KIND_DIA:
        if formula.left is sx.TRUE:
            result = sx.no_dia(formula.prog)
        else:
            result = sx.mk_or(
                sx.no_dia(formula.prog),
                sx.dia(formula.prog, _negate(formula.left, flipped, cache)),
            )
    elif kind == sx.KIND_NDIA:
        result = sx.dia(formula.prog, sx.TRUE)
    elif kind in (sx.KIND_MU, sx.KIND_NU):
        new_flipped = flipped | {name for name, _ in formula.defs}
        new_defs = tuple(
            (name, _negate(definition, new_flipped, cache))
            for name, definition in formula.defs
        )
        new_body = _negate(formula.body, new_flipped, cache)
        # On finite focused trees the two fixpoints coincide for cycle-free
        # formulas (Lemma 4.2); the rest of the system only manipulates µ, so
        # the dual of either fixpoint is produced as a µ as well.
        result = sx.mu(new_defs, new_body) if new_defs else new_body
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown formula kind {kind!r}")
    cache[key] = result
    return result

