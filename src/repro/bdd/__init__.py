"""A reduced ordered binary decision diagram (ROBDD) engine.

Section 7 of the paper represents sets of ψ-types implicitly as BDDs [5] and
implements the satisfiability algorithm entirely with BDD operations.  The
reference system used a mature BDD library; this package provides an
equivalent pure-Python engine, :class:`BDDManager`, with the operations the
solver needs:

* hash-consed node table with a fixed variable order,
* conjunction and disjunction through one memoised ``apply`` kernel, and
  negation; ``implies`` and ``iff`` are built from the three,
* existential quantification, and the fused conjunction-then-quantification
  (``and_exists``) used for relational products,
* variable renaming (for the primed/unprimed vectors ``~x`` and ``~y``),
  which can quantify variables as it goes,
* evaluation, satisfying-assignment extraction and model counting.
"""

from repro.bdd.manager import BDD, BDDManager

__all__ = ["BDD", "BDDManager"]
