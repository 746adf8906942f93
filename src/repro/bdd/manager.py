"""The ROBDD manager: node table, boolean operations, quantification.

Nodes are identified by non-negative integers.  The two terminals are ``0``
(false) and ``1`` (true); every other node is a triple ``(level, low, high)``
stored in the manager's node table, where ``level`` is the position of the
node's variable in the manager's fixed variable order, ``low`` is the cofactor
for the variable being false and ``high`` for it being true.  The standard
reduction rules apply: no node with ``low == high``, and no two distinct nodes
with the same triple.

Because the node table is append-only, a node's children always have
smaller indices than the node itself — several algorithms below rely on this
for bottom-up passes.

Operation caching follows the classical computed-table design [Brace, Rudell &
Bryant, DAC'90]: every :meth:`BDDManager.ite` call is normalised to a
*canonical* triple first (constant-argument simplifications, then argument
swaps for the commutative ``∧``/``∨`` shapes), so equivalent calls share one
cache entry.  Negation has a dedicated two-way cache, and the renaming used
for the solver's primed/unprimed vectors takes a linear structural fast path
whenever the mapping preserves the variable order.  :meth:`BDDManager.statistics`
exposes the node-table and cache counters the benchmarks report.

The :class:`BDD` wrapper pairs a node id with its manager and provides
operator overloading (``&``, ``|``, ``~``, ...) so client code reads like the
boolean formulas of Section 7.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass
class BDDStatistics:
    """A snapshot of the manager's node-table and cache counters.

    * ``var_count`` / ``node_count`` — declared variables and internal nodes
      (terminals excluded); ``peak_node_count`` is the largest the table has
      ever been, which is ``node_count`` itself because the table only grows.
    * ``ite_calls`` / ``ite_cache_hits`` — top-level *and* recursive ternary
      operations, and how many were answered from the computed table.
    * ``neg_calls`` / ``neg_cache_hits`` — negations and negation-cache hits
      (the cache stores both directions, so ``¬¬f`` is always a hit).
    * ``rename_fast_paths`` — renamings that took the linear structural path
      because the mapping preserved the variable order.
    * ``cache_entries`` — total entries across every operation cache.
    """

    var_count: int = 0
    node_count: int = 0
    peak_node_count: int = 0
    ite_calls: int = 0
    ite_cache_hits: int = 0
    neg_calls: int = 0
    neg_cache_hits: int = 0
    rename_fast_paths: int = 0
    cache_entries: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class BDDManager:
    """Owner of the node table and operation caches for one variable order."""

    FALSE = 0
    TRUE = 1

    def __init__(self, variables: Sequence[str] = ()):
        # Node table: index -> (level, low, high).  Entries 0 and 1 are
        # placeholders for the terminals and never dereferenced.
        self._nodes: list[tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._neg_cache: dict[int, int] = {}
        self._quant_cache: dict[tuple, int] = {}
        self._rename_cache: dict[tuple, int] = {}
        self._restrict_cache: dict[tuple, int] = {}
        self._var_names: list[str] = []
        self._var_levels: dict[str, int] = {}
        # Counters behind ``statistics()``.
        self._ite_calls = 0
        self._ite_hits = 0
        self._neg_calls = 0
        self._neg_hits = 0
        self._rename_fast = 0
        # Cooperative resource governor (``set_governor``); ``None`` keeps the
        # kernels on their ungoverned fast path (one ``None`` check per frame).
        self._governor = None
        for name in variables:
            self.add_variable(name)

    # -- variables -----------------------------------------------------------

    def add_variable(self, name: str) -> int:
        """Append a variable at the end of the order; returns its level."""
        if name in self._var_levels:
            raise ValueError(f"variable {name!r} already declared")
        level = len(self._var_names)
        self._var_names.append(name)
        self._var_levels[name] = level
        return level

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._var_names)

    def level_of(self, name: str) -> int:
        return self._var_levels[name]

    def name_of(self, level: int) -> str:
        return self._var_names[level]

    def var_count(self) -> int:
        return len(self._var_names)

    def node_count(self) -> int:
        """Total number of nodes in the table (terminals excluded)."""
        return len(self._nodes) - 2

    # -- statistics and resource governance ----------------------------------

    def statistics(self) -> BDDStatistics:
        """A snapshot of the node-table and operation-cache counters."""
        return BDDStatistics(
            var_count=len(self._var_names),
            node_count=self.node_count(),
            peak_node_count=self.node_count(),
            ite_calls=self._ite_calls,
            ite_cache_hits=self._ite_hits,
            neg_calls=self._neg_calls,
            neg_cache_hits=self._neg_hits,
            rename_fast_paths=self._rename_fast,
            cache_entries=(
                len(self._ite_cache)
                + len(self._neg_cache)
                + len(self._quant_cache)
                + len(self._rename_cache)
                + len(self._restrict_cache)
            ),
        )

    def set_governor(self, governor: object | None) -> None:
        """Attach (or detach, with ``None``) a cooperative resource governor.

        While attached, every ``ite``/``exists``/``and_exists`` kernel frame
        calls ``governor.tick()`` (see :class:`repro.solver.governor.
        ResourceGovernor`), which may raise ``BudgetExceeded``.  A raise
        mid-operation leaves the node table and caches consistent (partial
        results are hash-consed nodes like any other, and every id already
        returned stays valid), so the manager stays usable afterwards.
        """
        self._governor = governor

    # -- raw node constructors ------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        index = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = index
        return index

    def var_node(self, name: str) -> int:
        """Node id of the literal ``name``."""
        return self._mk(self._var_levels[name], self.FALSE, self.TRUE)

    def nvar_node(self, name: str) -> int:
        """Node id of the literal ``¬name``."""
        return self._mk(self._var_levels[name], self.TRUE, self.FALSE)

    def _level(self, node: int) -> int:
        if node <= 1:
            return len(self._var_names)  # terminals sit below every variable
        return self._nodes[node][0]

    # -- core operations -------------------------------------------------------

    def _ite_shortcut(self, cond: int, then: int, other: int) -> int | None:
        """Terminal cases of ITE, or ``None`` when real work remains."""
        if cond == self.TRUE:
            return then
        if cond == self.FALSE:
            return other
        if then == other:
            return then
        if then == self.TRUE and other == self.FALSE:
            return cond
        if then == self.FALSE and other == self.TRUE:
            return self.neg(cond)
        return None

    @staticmethod
    def _ite_key(cond: int, then: int, other: int) -> tuple[int, int, int]:
        """Canonical computed-table key for a non-terminal ITE triple.

        The two commutative shapes are normalised so the smaller operand id
        comes first: ``ite(f, 1, h) = f ∨ h = ite(h, 1, f)`` and
        ``ite(f, g, 0) = f ∧ g = ite(g, f, 0)``.  Conjunction and disjunction
        issued with swapped operands therefore share one cache entry.
        """
        if then == BDDManager.TRUE and other > cond:
            return (other, BDDManager.TRUE, cond)
        if other == BDDManager.FALSE and then > cond:
            return (then, cond, BDDManager.FALSE)
        return (cond, then, other)

    def ite(self, cond: int, then: int, other: int) -> int:
        """If-then-else ``(cond ∧ then) ∨ (¬cond ∧ other)``, iteratively.

        The classical recursive cofactor expansion is run on an explicit
        two-phase stack (``CALL`` frames expand a triple, ``BUILD`` frames pop
        the two child results and hash-cons the node), so deeply nested
        formulas never hit the Python recursion limit and every intermediate
        triple goes through the canonical computed table.
        """
        CALL, BUILD = 0, 1
        tasks: list[tuple] = [(CALL, cond, then, other)]
        values: list[int] = []
        nodes = self._nodes
        terminal_level = len(self._var_names)
        governor = self._governor
        while tasks:
            task = tasks.pop()
            if task[0] == CALL:
                _tag, f, g, h = task
                self._ite_calls += 1
                if governor is not None:
                    governor.tick()
                # Redundant-argument simplifications: ite(f, f, h) = ite(f, 1, h)
                # and ite(f, g, f) = ite(f, g, 0).
                if g == f:
                    g = self.TRUE
                if h == f:
                    h = self.FALSE
                shortcut = self._ite_shortcut(f, g, h)
                if shortcut is not None:
                    values.append(shortcut)
                    continue
                key = self._ite_key(f, g, h)
                cached = self._ite_cache.get(key)
                if cached is not None:
                    self._ite_hits += 1
                    values.append(cached)
                    continue
                f, g, h = key
                f_level = nodes[f][0] if f > 1 else terminal_level
                g_level = nodes[g][0] if g > 1 else terminal_level
                h_level = nodes[h][0] if h > 1 else terminal_level
                level = min(f_level, g_level, h_level)
                if f_level == level:
                    _l, f_low, f_high = nodes[f]
                else:
                    f_low = f_high = f
                if g_level == level:
                    _l, g_low, g_high = nodes[g]
                else:
                    g_low = g_high = g
                if h_level == level:
                    _l, h_low, h_high = nodes[h]
                else:
                    h_low = h_high = h
                tasks.append((BUILD, level, key))
                tasks.append((CALL, f_high, g_high, h_high))
                tasks.append((CALL, f_low, g_low, h_low))
            else:
                _tag, level, key = task
                high = values.pop()
                low = values.pop()
                result = self._mk(level, low, high)
                self._ite_cache[key] = result
                values.append(result)
        return values[0]

    def neg(self, node: int) -> int:
        """Negation through a dedicated two-way complement cache.

        The cache records ``f -> ¬f`` in both directions, so double negation
        and the extremely common ``¬`` of an already-negated function are O(1).
        The traversal is a bottom-up structural pass (no ITE involved).
        """
        self._neg_calls += 1
        if node <= 1:
            return node ^ 1
        cache = self._neg_cache
        cached = cache.get(node)
        if cached is not None:
            self._neg_hits += 1
            return cached
        nodes = self._nodes
        stack = [node]
        while stack:
            current = stack[-1]
            if current in cache:
                stack.pop()
                continue
            _level, low, high = nodes[current]
            missing = [
                child for child in (high, low) if child > 1 and child not in cache
            ]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            neg_low = low ^ 1 if low <= 1 else cache[low]
            neg_high = high ^ 1 if high <= 1 else cache[high]
            result = self._mk(_level, neg_low, neg_high)
            cache[current] = result
            cache[result] = current
        return cache[node]

    def conj(self, a: int, b: int) -> int:
        return self.ite(a, b, self.FALSE)

    def disj(self, a: int, b: int) -> int:
        return self.ite(a, self.TRUE, b)

    def xor(self, a: int, b: int) -> int:
        return self.ite(a, self.neg(b), b)

    def iff(self, a: int, b: int) -> int:
        return self.ite(a, b, self.neg(b))

    def implies(self, a: int, b: int) -> int:
        return self.ite(a, b, self.TRUE)

    def conj_all(self, nodes: Iterable[int]) -> int:
        result = self.TRUE
        for node in nodes:
            result = self.conj(result, node)
            if result == self.FALSE:
                return result
        return result

    def disj_all(self, nodes: Iterable[int]) -> int:
        result = self.FALSE
        for node in nodes:
            result = self.disj(result, node)
            if result == self.TRUE:
                return result
        return result

    # -- quantification --------------------------------------------------------

    def exists(self, node: int, names: Iterable[str]) -> int:
        """Existential quantification over the given variables."""
        levels = frozenset(self._var_levels[name] for name in names)
        if not levels:
            return node
        return self._exists(node, levels, cache_tag=("exists", levels))

    def _exists(self, node: int, levels: frozenset[int], cache_tag: tuple) -> int:
        if node <= 1:
            return node
        if self._governor is not None:
            self._governor.tick()
        level, low, high = self._nodes[node]
        if level > max(levels):
            return node
        key = (cache_tag, node)
        cached = self._quant_cache.get(key)
        if cached is not None:
            return cached
        low_result = self._exists(low, levels, cache_tag)
        if level in levels:
            # ∃v . f = f|v=0 ∨ f|v=1 — already ⊤ once either cofactor is.
            if low_result == self.TRUE:
                result = self.TRUE
            else:
                result = self.disj(low_result, self._exists(high, levels, cache_tag))
        else:
            result = self._mk(level, low_result, self._exists(high, levels, cache_tag))
        self._quant_cache[key] = result
        return result

    def forall(self, node: int, names: Iterable[str]) -> int:
        """Universal quantification over the given variables."""
        return self.neg(self.exists(self.neg(node), names))

    def and_exists(
        self,
        a: int,
        b: int,
        names: Iterable[str],
        cache: dict[tuple[int, int], int] | None = None,
    ) -> int:
        """The relational product ``∃ names . a ∧ b`` computed in one pass.

        This is the operation at the heart of the conjunctive-partitioning
        optimisation of Section 7.3: conjoining a partition of the transition
        relation with the current set of types and quantifying variables out
        without ever building the full conjunction.

        ``cache`` may be a caller-owned memo dictionary, persisted across
        calls that share the same quantified variable set: the solver's
        fixpoint pushes monotonically growing sets through fixed relation
        blocks (one memo per step of the early-quantification schedule), so
        later products recurse into subproblems earlier products already
        solved.
        """
        levels = frozenset(self._var_levels[name] for name in names)
        if not levels:
            return self.conj(a, b)
        return self._and_exists(a, b, levels, cache if cache is not None else {})

    def _and_exists(
        self, a: int, b: int, levels: frozenset[int], cache: dict[tuple[int, int], int]
    ) -> int:
        """Recursive core of :meth:`and_exists`.

        Recursion depth is bounded by the variable count (once per level), so
        the C stack is safe; an algebraic short-circuit prunes whole
        branches: when the split level is quantified, ``∃v . f = f|₀ ∨ f|₁``
        is already ``⊤`` once the low branch is — the high branch is never
        computed.
        """
        FALSE, TRUE = self.FALSE, self.TRUE
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE and b == TRUE:
            return TRUE
        if self._governor is not None:
            self._governor.tick()
        if a == TRUE or b == TRUE:
            node = b if a == TRUE else a
            return self._exists(node, levels, cache_tag=("exists", levels))
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = cache.get(key)
        if cached is not None:
            return cached
        nodes = self._nodes
        a_level, a_low, a_high = nodes[a]
        b_level, b_low, b_high = nodes[b]
        if a_level < b_level:
            level = a_level
            b_low = b_high = b
        elif b_level < a_level:
            level = b_level
            a_low = a_high = a
        else:
            level = a_level
        quantified = level in levels
        low = self._and_exists(a_low, b_low, levels, cache)
        if quantified and low == TRUE:
            result = TRUE
        else:
            high = self._and_exists(a_high, b_high, levels, cache)
            if quantified:
                result = self.disj(low, high)
            elif low == high:
                result = low
            else:
                result = self._mk(level, low, high)
        cache[key] = result
        return result

    def _cofactors(self, node: int, level: int) -> tuple[int, int]:
        if node <= 1 or self._nodes[node][0] != level:
            return node, node
        _lvl, low, high = self._nodes[node]
        return low, high

    # -- substitution / renaming ----------------------------------------------

    def rename(self, node: int, mapping: Mapping[str, str]) -> int:
        """Rename variables according to ``mapping`` (old name -> new name).

        When the mapping preserves the relative order of the variables that
        actually occur in ``node`` (as the solver's x-to-y vector renames
        do), the result is built by a linear structural pass.  Otherwise the
        general (and much slower) composition with fresh literals through
        ``ite`` is used, which is correct for any mapping.  Results are
        memoised per ``(node, mapping)``.
        """
        if node <= 1 or not mapping:
            return node
        items = tuple(sorted(mapping.items()))
        memo_key = (node, items)
        memoised = self._rename_cache.get(memo_key)
        if memoised is not None:
            return memoised
        level_map = {
            self._var_levels[old]: self._var_levels[new] for old, new in mapping.items()
        }
        support = self._support_levels(node)
        images = [level_map.get(level, level) for level in sorted(support)]
        monotone = all(a < b for a, b in zip(images, images[1:]))
        if monotone:
            self._rename_fast += 1
            result = self._rename_structural(node, level_map)
        else:
            result = self._rename_general(node, level_map)
        self._rename_cache[memo_key] = result
        return result

    def _support_levels(self, node: int) -> set[int]:
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current <= 1 or current in seen:
                continue
            seen.add(current)
            level, low, high = self._nodes[current]
            levels.add(level)
            stack.append(low)
            stack.append(high)
        return levels

    def _rename_structural(self, node: int, level_map: Mapping[int, int]) -> int:
        """Order-preserving rename: rebuild bottom-up, relabelling levels."""
        cache: dict[int, int] = {}
        nodes = self._nodes
        stack = [node]
        while stack:
            current = stack[-1]
            if current <= 1 or current in cache:
                stack.pop()
                continue
            level, low, high = nodes[current]
            missing = [c for c in (high, low) if c > 1 and c not in cache]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            new_low = low if low <= 1 else cache[low]
            new_high = high if high <= 1 else cache[high]
            cache[current] = self._mk(level_map.get(level, level), new_low, new_high)
        return node if node <= 1 else cache[node]

    def _rename_general(self, node: int, level_map: Mapping[int, int]) -> int:
        cache: dict[int, int] = {}

        def go(current: int) -> int:
            if current <= 1:
                return current
            cached = cache.get(current)
            if cached is not None:
                return cached
            level, low, high = self._nodes[current]
            new_level = level_map.get(level, level)
            literal = self._mk(new_level, self.FALSE, self.TRUE)
            result = self.ite(literal, go(high), go(low))
            cache[current] = result
            return result

        return go(node)

    def restrict(self, node: int, assignment: Mapping[str, bool]) -> int:
        """Cofactor with respect to a partial assignment.

        ``restrict(f, {v: b, ...})`` is ``f`` with each variable ``v`` fixed
        to ``b`` — the generalised cofactor the relational layer uses to
        specialise a relation to a concrete parent type.  Results are memoised
        per ``(node, assignment)`` across calls.
        """
        if node <= 1 or not assignment:
            return node
        items = tuple(sorted(assignment.items()))
        memo_key = (node, items)
        memoised = self._restrict_cache.get(memo_key)
        if memoised is not None:
            return memoised
        values = {self._var_levels[name]: value for name, value in assignment.items()}
        cache: dict[int, int] = {}

        def go(current: int) -> int:
            if current <= 1:
                return current
            cached = cache.get(current)
            if cached is not None:
                return cached
            level, low, high = self._nodes[current]
            if level in values:
                result = go(high) if values[level] else go(low)
            else:
                result = self._mk(level, go(low), go(high))
            cache[current] = result
            return result

        result = go(node)
        self._restrict_cache[memo_key] = result
        return result

    def cofactor(self, node: int, name: str, value: bool) -> int:
        """Single-variable cofactor ``f|_{name=value}`` (see :meth:`restrict`)."""
        return self.restrict(node, {name: value})

    # -- inspection -------------------------------------------------------------

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function under a total assignment of its support."""
        current = node
        while current > 1:
            level, low, high = self._nodes[current]
            current = high if assignment.get(self._var_names[level], False) else low
        return current == self.TRUE

    def support(self, node: int) -> set[str]:
        """Names of the variables the function actually depends on."""
        return {self._var_names[level] for level in self._support_levels(node)}

    def dag_size(self, node: int, limit: int | None = None) -> int:
        """Number of internal nodes reachable from ``node``.

        With ``limit`` set, the walk stops as soon as more than ``limit``
        nodes have been seen and returns ``limit + 1`` — for cheap "is this
        function bigger than X" checks on potentially huge functions.
        """
        seen: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current <= 1 or current in seen:
                continue
            seen.add(current)
            if limit is not None and len(seen) > limit:
                return limit + 1
            _level, low, high = self._nodes[current]
            stack.append(low)
            stack.append(high)
        return len(seen)

    def pick_assignment(self, node: int) -> dict[str, bool] | None:
        """One satisfying assignment (unmentioned variables default to False)."""
        if node == self.FALSE:
            return None
        assignment: dict[str, bool] = {}
        current = node
        while current > 1:
            level, low, high = self._nodes[current]
            name = self._var_names[level]
            if low != self.FALSE:
                assignment[name] = False
                current = low
            else:
                assignment[name] = True
                current = high
        return assignment

    def count_assignments(self, node: int, over: Sequence[str] | None = None) -> int:
        """Number of satisfying assignments over the given variables.

        ``over`` defaults to every declared variable.
        """
        names = list(over) if over is not None else list(self._var_names)
        levels = sorted(self._var_levels[name] for name in names)
        position = {level: i for i, level in enumerate(levels)}
        cache: dict[int, int] = {}

        def count(current: int) -> int:
            # Result is the count over variables strictly below the current
            # node's level within `levels`; scaled by the caller.
            if current == self.FALSE:
                return 0
            if current == self.TRUE:
                return 1
            cached = cache.get(current)
            if cached is None:
                level, low, high = self._nodes[current]
                if level not in position:
                    raise ValueError(
                        f"node depends on variable {self._var_names[level]!r} "
                        "not included in the count"
                    )
                cached = count(low) * _gap(level, low) + count(high) * _gap(level, high)
                cache[current] = cached
            return cached

        def _gap(level: int, child: int) -> int:
            # Number of skipped decision variables between `level` and `child`.
            child_level = self._level(child)
            upper = position[level]
            lower = (
                len(levels)
                if child <= 1
                else position.get(child_level, len(levels))
            )
            return 2 ** (lower - upper - 1)

        top = node
        top_level = self._level(top)
        if top <= 1:
            full = 2 ** len(levels)
            return full if top == self.TRUE else 0
        leading = position.get(top_level, 0)
        return count(top) * (2 ** leading)

    def iter_assignments(self, node: int, over: Sequence[str]) -> Iterator[dict[str, bool]]:
        """Iterate every satisfying assignment over exactly the given variables."""
        # Walk the variables in level order, whatever order ``over`` lists
        # them in: a node is only expanded when the walk reaches its level.
        names = sorted(over, key=self._var_levels.__getitem__)

        def go(current: int, index: int, partial: dict[str, bool]) -> Iterator[dict[str, bool]]:
            if current == self.FALSE:
                return
            if index == len(names):
                if current == self.TRUE:
                    yield dict(partial)
                return
            name = names[index]
            level = self._var_levels[name]
            current_level = self._level(current)
            if current_level == level:
                _lvl, low, high = self._nodes[current]
                partial[name] = False
                yield from go(low, index + 1, partial)
                partial[name] = True
                yield from go(high, index + 1, partial)
                del partial[name]
            else:
                partial[name] = False
                yield from go(current, index + 1, partial)
                partial[name] = True
                yield from go(current, index + 1, partial)
                del partial[name]

        yield from go(node, 0, {})

    # -- wrapper construction ---------------------------------------------------

    def false(self) -> "BDD":
        return BDD(self, self.FALSE)

    def true(self) -> "BDD":
        return BDD(self, self.TRUE)

    def variable(self, name: str) -> "BDD":
        return BDD(self, self.var_node(name))

    def wrap(self, node: int) -> "BDD":
        return BDD(self, node)


class BDD:
    """A boolean function: a node id tied to its manager, with operators."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: BDDManager, node: int):
        self.manager = manager
        self.node = node

    # -- boolean structure ------------------------------------------------------

    def __invert__(self) -> "BDD":
        return BDD(self.manager, self.manager.neg(self.node))

    def __and__(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.conj(self.node, other.node))

    def __or__(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.disj(self.node, other.node))

    def __xor__(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.xor(self.node, other.node))

    def iff(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.iff(self.node, other.node))

    def implies(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.implies(self.node, other.node))

    def ite(self, then: "BDD", other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.ite(self.node, then.node, other.node))

    # -- quantification ----------------------------------------------------------

    def exists(self, names: Iterable[str]) -> "BDD":
        return BDD(self.manager, self.manager.exists(self.node, names))

    def forall(self, names: Iterable[str]) -> "BDD":
        return BDD(self.manager, self.manager.forall(self.node, names))

    def and_exists(
        self,
        other: "BDD",
        names: Iterable[str],
        cache: dict[tuple[int, int], int] | None = None,
    ) -> "BDD":
        return BDD(
            self.manager, self.manager.and_exists(self.node, other.node, names, cache)
        )

    def rename(self, mapping: Mapping[str, str]) -> "BDD":
        return BDD(self.manager, self.manager.rename(self.node, mapping))

    def restrict(self, assignment: Mapping[str, bool]) -> "BDD":
        return BDD(self.manager, self.manager.restrict(self.node, assignment))

    def cofactor(self, name: str, value: bool) -> "BDD":
        return BDD(self.manager, self.manager.cofactor(self.node, name, value))

    # -- inspection ---------------------------------------------------------------

    @property
    def is_false(self) -> bool:
        return self.node == self.manager.FALSE

    @property
    def is_true(self) -> bool:
        return self.node == self.manager.TRUE

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.manager.evaluate(self.node, assignment)

    def support(self) -> set[str]:
        return self.manager.support(self.node)

    def dag_size(self, limit: int | None = None) -> int:
        return self.manager.dag_size(self.node, limit)

    def pick_assignment(self) -> dict[str, bool] | None:
        return self.manager.pick_assignment(self.node)

    def count_assignments(self, over: Sequence[str] | None = None) -> int:
        return self.manager.count_assignments(self.node, over)

    def iter_assignments(self, over: Sequence[str]) -> Iterator[dict[str, bool]]:
        return self.manager.iter_assignments(self.node, over)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BDD):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise TypeError(
            "a BDD has no implicit truth value; use .is_true / .is_false "
            "or compare with == explicitly"
        )

    def __repr__(self) -> str:
        return f"<BDD node={self.node} size={self.dag_size()}>"
