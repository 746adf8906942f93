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
cache entry.  Conjunction and disjunction run a binary kernel of their own
that reads and writes that one table under the same canonical keys.
Negation has a dedicated two-way cache, and renaming is one bottom-up pass
that composes through ``ite`` only the nodes whose new level would not lie
above their children (none, for the solver's primed/unprimed vector
renames).  :meth:`BDDManager.statistics` exposes the node-table and cache
counters the benchmarks report.

The :class:`BDD` wrapper pairs a node id with its manager and provides
operator overloading (``&``, ``|``, ``~``, ...) so client code reads like the
boolean formulas of Section 7.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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
      of the ternary ITE and of the binary ``∧``/``∨`` kernel (one frame of
      ``a ∧ b`` counts as the ``ite(a, b, 0)`` frame it stands for), and
      how many were answered from the computed table.
    * ``neg_calls`` / ``neg_cache_hits`` — negations and negation-cache hits
      (the cache stores both directions, so ``¬¬f`` is always a hit).
    * ``rename_fast_paths`` — renamings that composed nothing through
      ``ite``: every node was relabelled in place, as under a mapping that
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
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._neg_cache: dict[int, int] = {}
        # Per quantified level set: the level modes and the shared ∃ memo.
        self._quant_cache: dict[frozenset[int], tuple[list[int], dict[int, int]]] = {}
        # Per mapping: renamed node ids.
        self._rename_cache: dict[tuple, dict[int, int]] = {}
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
        # The level modes of a quantification cover the declared levels only.
        self._quant_cache.clear()
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
                + sum(len(memo) for _mode, memo in self._quant_cache.values())
                + sum(len(memo) for memo in self._rename_cache.values())
                + len(self._restrict_cache)
            ),
        )

    def set_governor(self, governor: object | None) -> None:
        """Attach (or detach, with ``None``) a cooperative resource governor.

        While attached, every *expanded* kernel frame — a computed-table or
        memo miss of ``ite``, ``∧``/``∨``, ``exists`` or ``and_exists`` —
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

        The two commutative shapes are normalised so the larger operand id
        comes first: ``ite(f, 1, h) = f ∨ h = ite(h, 1, f)`` is keyed
        ``(max, 1, min)`` and ``ite(f, g, 0) = f ∧ g = ite(g, f, 0)`` is keyed
        ``(max, min, 0)``.  Conjunction and disjunction issued with swapped
        operands therefore share one cache entry, and :meth:`_apply` reads
        and writes the same keys.
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
                if governor is not None:
                    governor.tick()
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
        return self._apply(a, b, True)

    def disj(self, a: int, b: int) -> int:
        return self._apply(a, b, False)

    def _apply(self, f: int, g: int, conjunction: bool) -> int:
        """``f ∧ g`` (``conjunction``) or ``f ∨ g``: the binary AND/OR kernel.

        Frame for frame this is ``ite(f, g, 0)`` or ``ite(f, 1, g)``: the
        same terminal cases, the same canonical keys in the one computed
        table (``(max, min, 0)`` for ∧, ``(max, 1, min)`` for ∨), the same
        low-then-high expansion and so the same nodes in the same order, and
        each frame counts as one ITE call.  Only the ternary dispatch is
        gone.  An operand pair is settled (terminal case or table hit) as
        soon as it arises, and the explicit stack holds only expanded
        frames, so deep operands never meet the Python recursion limit.
        """
        absorbing = self.FALSE if conjunction else self.TRUE
        identity = absorbing ^ 1
        nodes = self._nodes
        unique = self._unique
        table = self._ite_cache
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
                    key = (f, g, 0) if conjunction else (f, 1, g)
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
            self._ite_calls += calls
            self._ite_hits += hits

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

    def rename(self, node: int, mapping: Mapping[str, str]) -> int:
        """Rename variables according to ``mapping`` (old name -> new name).

        One iterative bottom-up pass rebuilds the function.  A node whose new
        level lies strictly above the top levels of both renamed children is
        relabelled in place; any other is composed with its new literal
        through ``ite``.  That is correct for every mapping, needs no support
        walk first, and composes nothing when the mapping keeps the order of
        the variables on every path, as the solver's x-to-y vector renames
        do (``rename_fast_paths`` counts those renames).  Renamed nodes are
        memoised per mapping, so a function that shares nodes with one
        renamed before (the fixpoint's growing sets) walks only its new part.
        """
        if node <= 1 or not mapping:
            return node
        items = tuple(sorted(mapping.items()))
        renamed = self._rename_cache.get(items)
        if renamed is None:
            renamed = {self.FALSE: self.FALSE, self.TRUE: self.TRUE}
            self._rename_cache[items] = renamed
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
            new_high = renamed.get(high)
            if new_high is None:
                stack.append(high)
                continue
            stack.pop()
            new_level = level_map.get(level, level)
            if new_level < (nodes[new_low][0] if new_low > 1 else terminal_level) and (
                new_level < (nodes[new_high][0] if new_high > 1 else terminal_level)
            ):
                renamed[current] = self._mk(new_level, new_low, new_high)
            else:
                composed = True
                literal = self._mk(new_level, self.FALSE, self.TRUE)
                renamed[current] = self.ite(literal, new_high, new_low)
        if not composed:
            self._rename_fast += 1
        return renamed[node]

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
        nodes = self._nodes
        levels: set[int] = set()
        seen = {node}
        stack = [node] if node > 1 else []
        while stack:
            level, low, high = nodes[stack.pop()]
            levels.add(level)
            if low > 1 and low not in seen:
                seen.add(low)
                stack.append(low)
            if high > 1 and high not in seen:
                seen.add(high)
                stack.append(high)
        return {self._var_names[level] for level in levels}

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
