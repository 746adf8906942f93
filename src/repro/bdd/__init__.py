"""A reduced ordered binary decision diagram (ROBDD) engine.

Section 7 of the paper represents sets of ψ-types implicitly as BDDs [5] and
implements the satisfiability algorithm entirely with BDD operations.  The
reference system used a mature BDD library; this package provides an
equivalent pure-Python engine, :class:`BDDManager`, with the operations the
solver needs:

* hash-consed node table with a fixed variable order,
* boolean connectives via the ``apply`` / ``ite`` algorithms with memoisation,
* existential and universal quantification, and the fused
  conjunction-then-quantification (``and_exists``) used for relational
  products,
* variable renaming (for the primed/unprimed vectors ``~x`` and ``~y``),
* satisfying-assignment extraction and model counting.
"""

from repro.bdd.manager import BDD, BDDManager

__all__ = ["BDD", "BDDManager"]
