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

The engine is ``∧``, ``∨``, ``¬``, ``∃`` and renaming, the operations Section 7
states the solver in.  Conjunction and disjunction share one kernel,
:meth:`BDDManager._apply`, whose computed table follows the classical design
[Brace, Rudell & Bryant, DAC'90]: an operand pair is keyed with the larger id
first, so ``a ∧ b`` and ``b ∧ a`` share one entry.  Negation has a dedicated
two-way cache; ``implies`` and ``iff`` are built from the three connectives.
Existential quantification, the fused relational product ``and_exists`` and
renaming are memoised bottom-up passes that combine cofactors through the
same kernel.  Renaming can quantify variables as it goes, and composes a node
with its new literal, ``(l ∧ hi) ∨ (¬l ∧ lo)``, only when the node's new
level would not lie above its renamed children (never, for the solver's
x-to-y vector renames).  Supports are memoised per node as level masks.
:meth:`BDDManager.statistics` exposes the node-table and cache counters the
benchmarks report.

The :class:`BDD` wrapper pairs a node id with its manager and provides
operator overloading (``&``, ``|``, ``~``, ...) so client code reads like the
boolean formulas of Section 7.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

#: How a quantification treats each level (see ``BDDManager._quantification``):
#: kept, quantified, or below every quantified level, where nothing is left
#: to quantify.
_FREE, _QUANTIFIED, _BELOW = 0, 1, 2


@dataclass
class BDDStatistics:
    """A snapshot of the manager's node-table and cache counters.

    * ``var_count`` / ``node_count`` — declared variables and internal nodes
      (terminals excluded); ``peak_node_count`` is the largest the table has
      ever been, which is ``node_count`` itself because the table only grows.
    * ``ite_calls`` / ``ite_cache_hits`` — top-level *and* recursive frames
      of the ``∧``/``∨`` kernel, and how many were answered from the
      computed table.  The names are older than the kernel (each frame
      stands for the ``ite(a, b, 0)`` or ``ite(a, 1, b)`` frame of the
      classical ternary algorithm) and stay because the benchmarks read
      them.
    * ``neg_calls`` / ``neg_cache_hits`` — negations and negation-cache hits
      (the cache stores both directions, so ``¬¬f`` is always a hit).
    * ``rename_fast_paths`` — renamings that composed no node with its new
      literal: every node was relabelled in place, as under a mapping that
      preserves the variable order.
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
        # The ∧/∨ computed table: (larger id, smaller id, conjunction).
        self._apply_cache: dict[tuple[int, int, bool], int] = {}
        self._neg_cache: dict[int, int] = {}
        # Per quantified level set: the level modes and the shared ∃ memo.
        self._quant_cache: dict[frozenset[int], tuple[list[int], dict[int, int]]] = {}
        # Per mapping and quantified level set: renamed node ids.
        self._rename_cache: dict[tuple, dict[int, int]] = {}
        # Per node: the levels of its support as a bit mask.
        self._support_masks: dict[int, int] = {self.FALSE: 0, self.TRUE: 0}
        self._var_names: list[str] = []
        self._var_levels: dict[str, int] = {}
        # Counters behind ``statistics()``.
        self._apply_calls = 0
        self._apply_hits = 0
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
        # The level modes of a quantification cover the declared levels only.
        self._quant_cache.clear()
        return level

    def level_of(self, name: str) -> int:
        return self._var_levels[name]

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
            ite_calls=self._apply_calls,
            ite_cache_hits=self._apply_hits,
            neg_calls=self._neg_calls,
            neg_cache_hits=self._neg_hits,
            rename_fast_paths=self._rename_fast,
            cache_entries=(
                len(self._apply_cache)
                + len(self._neg_cache)
                + sum(len(memo) for _mode, memo in self._quant_cache.values())
                + sum(len(memo) for memo in self._rename_cache.values())
                + len(self._support_masks)
            ),
        )

    def set_governor(self, governor: object | None) -> None:
        """Attach (or detach, with ``None``) a cooperative resource governor.

        While attached, every *expanded* kernel frame — a computed-table or
        memo miss of ``∧``/``∨``, ``exists`` or ``and_exists`` —
        calls ``governor.tick()`` (see :class:`repro.solver.governor.
        ResourceGovernor`), which may raise ``BudgetExceeded``.  Terminal and
        memoised frames do no work and are not counted.  A raise
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

    def _level(self, node: int) -> int:
        if node <= 1:
            return len(self._var_names)  # terminals sit below every variable
        return self._nodes[node][0]

    # -- core operations -------------------------------------------------------

    def neg(self, node: int) -> int:
        """Negation through a dedicated two-way complement cache.

        The cache records ``f -> ¬f`` in both directions, so double negation
        and the extremely common ``¬`` of an already-negated function are O(1).
        The traversal is a bottom-up structural pass that never calls the
        ``∧``/``∨`` kernel.
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
        return self._apply(a, b, True)

    def disj(self, a: int, b: int) -> int:
        return self._apply(a, b, False)

    def _apply(self, f: int, g: int, conjunction: bool) -> int:
        """``f ∧ g`` (``conjunction``) or ``f ∨ g``: the one boolean kernel.

        The classical cofactor expansion, low cofactor first, over one
        computed table keyed ``(larger id, smaller id, conjunction)``, so a
        swapped operand pair is a table hit.  Each frame counts as one
        ``ite_calls`` (see :class:`BDDStatistics`).  An operand pair is
        settled (terminal case or table hit) as soon as it arises, and the
        explicit stack holds only expanded frames, so deep operands never
        meet the Python recursion limit.
        """
        absorbing = self.FALSE if conjunction else self.TRUE
        identity = absorbing ^ 1
        nodes = self._nodes
        unique = self._unique
        table = self._apply_cache
        governor = self._governor
        # Expanded frames ``[key, level, f_high, g_high, low]``; ``low`` is
        # -1 until the low cofactor is known.
        pending: list[list] = []
        calls = hits = 0
        try:
            while True:
                calls += 1
                if f > 1 and g > 1 and f != g:
                    if f < g:
                        f, g = g, f
                    key = (f, g, conjunction)
                    value = table.get(key)
                    if value is None:
                        if governor is not None:
                            governor.tick()
                        f_level, f_low, f_high = nodes[f]
                        g_level, g_low, g_high = nodes[g]
                        if f_level < g_level:
                            level = f_level
                            g_low = g_high = g
                        elif g_level < f_level:
                            level = g_level
                            f_low = f_high = f
                        else:
                            level = f_level
                        pending.append([key, level, f_high, g_high, -1])
                        f, g = f_low, g_low
                        continue
                    hits += 1
                elif f == g or g == identity:
                    value = f
                elif f == identity:
                    value = g
                else:
                    value = absorbing
                # ``value`` answers the innermost open cofactor.
                while pending:
                    frame = pending[-1]
                    if frame[4] < 0:
                        frame[4] = value
                        f, g = frame[2], frame[3]
                        break
                    pending.pop()
                    key, level, _f_high, _g_high, low = frame
                    if low != value:
                        triple = (level, low, value)
                        node = unique.get(triple)
                        if node is None:
                            node = len(nodes)
                            nodes.append(triple)
                            unique[triple] = node
                        value = node
                    table[key] = value
                else:
                    return value
        finally:
            self._apply_calls += calls
            self._apply_hits += hits

    def implies(self, a: int, b: int) -> int:
        """``a → b``, built as ``¬a ∨ b``."""
        return self._apply(self.neg(a), b, False)

    def iff(self, a: int, b: int) -> int:
        """``a ↔ b``, built as ``(a ∧ b) ∨ (¬a ∧ ¬b)``."""
        both = self._apply(a, b, True)
        neither = self._apply(self.neg(a), self.neg(b), True)
        return self._apply(both, neither, False)

    # -- quantification --------------------------------------------------------

    def exists(self, node: int, names: Iterable[str]) -> int:
        """Existential quantification over the given variables."""
        quantification = self._quantification(names)
        if quantification is None:
            return node
        return self._exists(node, *quantification)

    def _quantification(
        self, names: Iterable[str]
    ) -> tuple[list[int], dict[int, int]] | None:
        """``(mode, memo)`` for quantifying ``names``; ``None`` if there are none.

        ``mode[level]`` is ``_QUANTIFIED``, ``_FREE``, or ``_BELOW`` for a
        level under every quantified one.  ``memo`` is the ``∃`` memo that
        every ``exists`` and ``and_exists`` over the same levels shares.
        Both are built once per set of levels.
        """
        levels = frozenset(self._var_levels[name] for name in names)
        if not levels:
            return None
        entry = self._quant_cache.get(levels)
        if entry is None:
            last = max(levels)
            mode = [_FREE] * last + [_BELOW] * (len(self._var_names) - last)
            for level in levels:
                mode[level] = _QUANTIFIED
            entry = self._quant_cache[levels] = (mode, {})
        return entry

    def _exists(self, node: int, mode: list[int], memo: dict[int, int]) -> int:
        """``∃`` over the levels ``mode`` quantifies, memoised in ``memo``.

        Each frame descends one level, so the recursion depth is bounded by
        the variable count.
        """
        if node <= 1:
            return node
        level, low, high = self._nodes[node]
        kind = mode[level]
        if kind == _BELOW:
            return node
        result = memo.get(node)
        if result is not None:
            return result
        if self._governor is not None:
            self._governor.tick()
        low = self._exists(low, mode, memo)
        if kind == _QUANTIFIED:
            # ∃v . f = f|v=0 ∨ f|v=1 — already ⊤ once either cofactor is.
            if low == self.TRUE:
                result = self.TRUE
            else:
                result = self._apply(low, self._exists(high, mode, memo), False)
        else:
            result = self._mk(level, low, self._exists(high, mode, memo))
        memo[node] = result
        return result

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
        quantification = self._quantification(names)
        if quantification is None:
            return self.conj(a, b)
        mode, exists_memo = quantification
        if a == self.FALSE or b == self.FALSE:
            return self.FALSE
        if a == self.TRUE:
            return self._exists(b, mode, exists_memo)
        if b == self.TRUE:
            return self._exists(a, mode, exists_memo)
        memo = cache if cache is not None else {}
        key = (a, b) if a < b else (b, a)
        result = memo.get(key)
        if result is None:
            result = self._and_exists(key, mode, memo, exists_memo)
        return result

    def _and_exists(
        self,
        key: tuple[int, int],
        mode: list[int],
        memo: dict[tuple[int, int], int],
        exists_memo: dict[int, int],
    ) -> int:
        """Expand the memo miss ``key = (a, b)``, two internal nodes ``a <= b``.

        Each cofactor pair is settled before any recursion: a ``⊥`` operand
        answers ``⊥``, a ``⊤`` operand hands the other to :meth:`_exists`,
        and a memoised pair answers from ``memo``; only a miss recurses, one
        level down, so the depth is bounded by the variable count.  When the
        split level is quantified, ``∃v . f = f|₀ ∨ f|₁`` is already ``⊤``
        once the low branch is, and the high branch is never computed.
        """
        if self._governor is not None:
            self._governor.tick()
        # The terminals are the node ids 0 (⊥) and 1 (⊤).
        a, b = key
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
        if a_low > 1 and b_low > 1:
            pair = (a_low, b_low) if a_low < b_low else (b_low, a_low)
            low = memo.get(pair)
            if low is None:
                low = self._and_exists(pair, mode, memo, exists_memo)
        elif a_low == 0 or b_low == 0:
            low = 0
        else:
            other = b_low if a_low == 1 else a_low
            low = self._exists(other, mode, exists_memo)
        quantified = mode[level] == _QUANTIFIED
        if quantified and low == 1:
            result = 1
        else:
            if a_high > 1 and b_high > 1:
                pair = (a_high, b_high) if a_high < b_high else (b_high, a_high)
                high = memo.get(pair)
                if high is None:
                    high = self._and_exists(pair, mode, memo, exists_memo)
            elif a_high == 0 or b_high == 0:
                high = 0
            else:
                other = b_high if a_high == 1 else a_high
                high = self._exists(other, mode, exists_memo)
            if quantified:
                result = self._apply(low, high, False)
            elif low == high:
                result = low
            else:
                triple = (level, low, high)
                result = self._unique.get(triple)
                if result is None:
                    result = len(nodes)
                    nodes.append(triple)
                    self._unique[triple] = result
        memo[key] = result
        return result

    # -- substitution / renaming ----------------------------------------------

    def rename(
        self, node: int, mapping: Mapping[str, str], quantify: Iterable[str] = ()
    ) -> int:
        """Rename variables according to ``mapping`` (old name -> new name),
        quantifying the variables ``quantify`` existentially as it goes.

        The result is ``∃ quantify . node`` renamed: ``quantify`` names
        variables of ``node``, before renaming, and a quantified variable
        that ``mapping`` also renames is simply gone.  One iterative
        bottom-up pass rebuilds the function.  A quantified node becomes the
        disjunction of its renamed cofactors (``⊤`` as soon as the low one
        is).  Any other node whose new level lies strictly above the top
        levels of both renamed children is relabelled in place; the rest are
        composed with their new literal ``l`` as ``(l ∧ hi) ∨ (¬l ∧ lo)``.
        That is correct for every mapping, needs no support walk first, and
        composes nothing when the mapping keeps the order of the variables
        on every path, as the solver's x-to-y vector renames do
        (``rename_fast_paths`` counts those renames).  Renamed nodes are
        memoised per mapping and quantified set, so a function that shares
        nodes with one renamed before (the fixpoint's growing sets) walks
        only its new part.
        """
        quantified = frozenset(self._var_levels[name] for name in quantify)
        if node <= 1 or not (mapping or quantified):
            return node
        memo_key = (tuple(sorted(mapping.items())), quantified)
        renamed = self._rename_cache.get(memo_key)
        if renamed is None:
            renamed = {self.FALSE: self.FALSE, self.TRUE: self.TRUE}
            self._rename_cache[memo_key] = renamed
        result = renamed.get(node)
        if result is not None:
            return result
        level_map = {
            self._var_levels[old]: self._var_levels[new] for old, new in mapping.items()
        }
        nodes = self._nodes
        terminal_level = len(self._var_names)
        composed = False
        stack = [node]
        while stack:
            current = stack[-1]
            level, low, high = nodes[current]
            new_low = renamed.get(low)
            if new_low is None:
                stack.append(low)
                continue
            if level in quantified and new_low == self.TRUE:
                stack.pop()
                renamed[current] = self.TRUE
                continue
            new_high = renamed.get(high)
            if new_high is None:
                stack.append(high)
                continue
            stack.pop()
            if level in quantified:
                renamed[current] = self._apply(new_low, new_high, False)
                continue
            new_level = level_map.get(level, level)
            if new_level < (nodes[new_low][0] if new_low > 1 else terminal_level) and (
                new_level < (nodes[new_high][0] if new_high > 1 else terminal_level)
            ):
                renamed[current] = self._mk(new_level, new_low, new_high)
            else:
                composed = True
                literal = self._mk(new_level, self.FALSE, self.TRUE)
                renamed[current] = self._apply(
                    self._apply(literal, new_high, True),
                    self._apply(self.neg(literal), new_low, True),
                    False,
                )
        if not composed:
            self._rename_fast += 1
        return renamed[node]

    # -- inspection -------------------------------------------------------------

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function under a total assignment of its support."""
        current = node
        while current > 1:
            level, low, high = self._nodes[current]
            current = high if assignment.get(self._var_names[level], False) else low
        return current == self.TRUE

    def support(self, node: int) -> set[str]:
        """Names of the variables the function actually depends on.

        Every node's support is memoised as a bit mask of levels, so the
        support of a function that shares nodes with one asked before (the
        fixpoint's growing frontiers) walks only its new nodes.
        """
        masks = self._support_masks
        mask = masks.get(node)
        if mask is None:
            nodes = self._nodes
            stack = [node]
            while stack:
                current = stack[-1]
                level, low, high = nodes[current]
                low_mask = masks.get(low)
                if low_mask is None:
                    stack.append(low)
                    continue
                high_mask = masks.get(high)
                if high_mask is None:
                    stack.append(high)
                    continue
                stack.pop()
                masks[current] = (1 << level) | low_mask | high_mask
            mask = masks[node]
        names = self._var_names
        return {names[level] for level in range(mask.bit_length()) if mask >> level & 1}

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

    # -- wrapper construction ---------------------------------------------------

    def false(self) -> "BDD":
        return BDD(self, self.FALSE)

    def true(self) -> "BDD":
        return BDD(self, self.TRUE)

    def variable(self, name: str) -> "BDD":
        return BDD(self, self.var_node(name))


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

    def iff(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.iff(self.node, other.node))

    def implies(self, other: "BDD") -> "BDD":
        return BDD(self.manager, self.manager.implies(self.node, other.node))

    # -- quantification ----------------------------------------------------------

    def exists(self, names: Iterable[str]) -> "BDD":
        return BDD(self.manager, self.manager.exists(self.node, names))

    def and_exists(
        self,
        other: "BDD",
        names: Iterable[str],
        cache: dict[tuple[int, int], int] | None = None,
    ) -> "BDD":
        return BDD(
            self.manager, self.manager.and_exists(self.node, other.node, names, cache)
        )

    def rename(self, mapping: Mapping[str, str], quantify: Iterable[str] = ()) -> "BDD":
        return BDD(self.manager, self.manager.rename(self.node, mapping, quantify))

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
