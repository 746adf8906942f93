"""Direct membership checking (validation) against binary tree types and DTDs.

This module is independent of the logic and of the solver: it decides whether
a concrete document belongs to a regular tree language by structural
recursion.  The test-suite uses it as an oracle for the Lµ translation of
types (a document validates against a DTD exactly when its root satisfies the
translated formula) and the benchmarks use it to sanity-check reconstructed
counterexample models.
"""

from __future__ import annotations

from typing import Iterable

from repro.trees.binary import BinTree, to_binary
from repro.trees.unranked import Tree
from repro.xmltypes import content as cm
from repro.xmltypes.ast import BinaryTypeGrammar, LabelAlternative
from repro.xmltypes.dtd import DTD


def grammar_accepts(grammar: BinaryTypeGrammar, document: Tree) -> bool:
    """Whether the document (an unranked tree) belongs to the grammar's language."""
    binary = to_binary(document.unmark_all())
    cache: dict[tuple[int, str], bool] = {}

    def accepts(node: BinTree | None, variable: str) -> bool:
        if node is None:
            return grammar.is_nullable(variable)
        key = (id(node), variable)
        cached = cache.get(key)
        if cached is not None:
            return cached
        # Guard against pathological cyclic queries: assume False while
        # computing (regular tree languages over finite trees are well-founded
        # in the first-child direction, so this only affects sibling cycles
        # that cannot accept a finite tree anyway).
        cache[key] = False
        result = False
        for alternative in grammar.alternatives(variable):
            if not isinstance(alternative, LabelAlternative):
                continue
            if alternative.label != node.label:
                continue
            if accepts(node.left, alternative.first) and accepts(
                node.right, alternative.next
            ):
                result = True
                break
        cache[key] = result
        return result

    return accepts(binary, grammar.start)


def dtd_accepts(dtd: DTD, document: Tree, root: str | None = None) -> bool:
    """Whether the document validates against the DTD.

    Validation checks that the document element is the designated root and
    that every element's children sequence matches its declared content model.
    Elements that are referenced but not declared must be empty.
    """
    expected_root = root if root is not None else dtd.root
    if document.label != expected_root:
        return False

    def valid(node: Tree) -> bool:
        declaration = dtd.elements.get(node.label)
        if declaration is None:
            return not node.children
        child_names = [child.label for child in node.children]
        if not cm.matches(declaration.content, child_names):
            return False
        return all(valid(child) for child in node.children)

    return valid(document)


def lift_wildcards(
    dtd: DTD, document: Tree, exclude: Iterable[str] = ()
) -> Tree | None:
    """Reassign concrete element names to wildcard-labelled nodes.

    Counterexample models solved under a *label-projected* type constraint
    (cone-of-influence Lean pruning, :func:`repro.xmltypes.compile.
    project_grammar`) carry the placeholder label
    (:data:`repro.solver.models.FRESH_LABEL`) for every element the
    problem's expressions never test.  This is the lifting direction of the
    projection's correctness argument made concrete: search for an
    assignment of declared element names to the wildcard nodes under which
    the whole document validates against the original DTD.  Returns the
    relabelled document, or ``None`` when no assignment exists (e.g. the
    model's typed region does not span the whole document, so parts of it
    are genuinely unconstrained).

    ``exclude`` must be the problem's kept alphabet: a wildcard node stands
    for "some label *outside* the names the queries test", so assigning it a
    kept name could change which nodes the queries select and hand back a
    document that no longer witnesses the verdict.

    The search is a backtracking walk of the content models (Brzozowski
    derivatives, one nondeterministic choice per wildcard child); witness
    documents are small, so this is cheap.
    """
    from repro.solver.models import FRESH_LABEL

    excluded = set(exclude)
    names = tuple(name for name in dtd.elements if name not in excluded)
    fit_cache: dict[tuple[int, str], Tree | None] = {}

    def fit(node: Tree, name: str) -> Tree | None:
        """The node relabelled as a valid ``name`` element, or ``None``."""
        if node.label != FRESH_LABEL and node.label != name:
            return None
        key = (id(node), name)
        if key in fit_cache:
            return fit_cache[key]
        fit_cache[key] = None
        declaration = dtd.elements.get(name)
        result: Tree | None = None
        if declaration is None:
            # Referenced-but-undeclared elements must be empty.
            result = (
                Tree(name, (), node.marked, node.attributes)
                if not node.children
                else None
            )
        else:
            for children in assignments(declaration.content, node.children, 0):
                result = Tree(name, tuple(children), node.marked, node.attributes)
                break
        fit_cache[key] = result
        return result

    def assignments(model: cm.ContentModel, children: tuple[Tree, ...], index: int):
        """Yield lifted children lists matching the content model."""
        if index == len(children):
            if cm.nullable(model):
                yield []
            return
        child = children[index]
        candidates = names if child.label == FRESH_LABEL else (child.label,)
        for name in candidates:
            derived = cm._derivative(model, name)
            if derived is None:
                continue
            lifted = fit(child, name)
            if lifted is None:
                continue
            for rest in assignments(derived, children, index + 1):
                yield [lifted, *rest]

    return fit(document, dtd.root)


def dtd_attribute_violations(
    dtd: DTD, document: Tree, alphabet: tuple[str, ...] | None = None
) -> list[str]:
    """Attribute inconsistencies of a document against the DTD's ATTLISTs.

    Checks, for every element node, that ``#REQUIRED`` attributes are present
    and that present attributes are declared.  ``alphabet`` restricts both
    checks to the given attribute names — pass the projection alphabet used
    when compiling the type so that counterexample documents (which only
    carry attributes the problem could observe) validate exactly.  The
    placeholder name (:data:`repro.solver.models.FRESH_ATTRIBUTE`, a solver
    model's "any other attribute") is only accepted on elements that declare
    at least one attribute outside the alphabet.  Returns human-readable
    violation strings (empty: consistent).
    """
    from repro.solver.models import FRESH_ATTRIBUTE

    violations: list[str] = []
    for node in document.iter_nodes():
        declared = {decl.name for decl in dtd.attributes_of(node.label)}
        required = set(dtd.required_attributes(node.label))
        if alphabet is not None:
            required &= set(alphabet)
        for name in sorted(required - set(node.attributes)):
            violations.append(f"<{node.label}> is missing required attribute {name!r}")
        for name in node.attributes:
            if name == FRESH_ATTRIBUTE:
                named = set(alphabet) if alphabet is not None else set()
                if not (declared - named):
                    violations.append(
                        f"<{node.label}> carries an undeclarable extra attribute"
                    )
                continue
            if alphabet is not None and name not in alphabet:
                continue
            if name not in declared:
                violations.append(
                    f"<{node.label}> carries undeclared attribute {name!r}"
                )
    return violations
