"""BDD encoding of ψ-types and of the transition relations ∆ₐ (Sections 7.1, 7.3).

Every Lean formula is represented by one BDD variable; a ψ-type is a
bit-vector assignment of these variables.  Two vectors are used: the unprimed
vector ``x`` for the types being added and the primed vector ``y`` for their
candidate witnesses.  The relation ``∆ₐ(x, y)`` is a conjunction of
equivalences — one per modal Lean formula for programs ``a`` and ``ā`` — and
is never built as a single BDD: following Section 7.3 it is kept as a list of
partitions that are conjoined with the frontier one at a time while
quantifying out primed variables as early as possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import cone_of_influence
from repro.logic import syntax as sx
from repro.logic.closure import Lean
from repro.trees.focus import FORWARD_MODALITIES, MODALITIES


class LeanEncoding:
    """Bit-vector encoding of ψ-types over a BDD manager.

    Variable ``x{i}`` stands for "the i-th Lean formula belongs to the type";
    ``y{i}`` is its primed (witness) copy.  Within each vector the order
    follows the Lean order, which itself follows the breadth-first traversal
    of the formula (Section 7.4).  Unlike Section 7.4 the two vectors are not
    interleaved: every ``x`` variable lies above every ``y`` variable, which
    measures fewer ITE calls and peak nodes at every scaling depth (see
    docs/ARCHITECTURE.md).  The sets of types and the reconstruction
    constraints are BDDs over ``x`` only, and both orders rank the ``x``
    variables alike, so the choice never moves a witness.
    """

    def __init__(self, lean: Lean):
        self.lean = lean
        self.x_names = [f"x{i}" for i in range(len(lean))]
        self.y_names = [f"y{i}" for i in range(len(lean))]
        self.manager = BDDManager(self.x_names + self.y_names)
        self._status_cache: dict[tuple[sx.Formula, bool], BDD] = {}
        self.x_to_y = dict(zip(self.x_names, self.y_names))

    # -- literals ------------------------------------------------------------------

    def x(self, index: int) -> BDD:
        return self.manager.variable(self.x_names[index])

    def y(self, index: int) -> BDD:
        return self.manager.variable(self.y_names[index])

    def literal(self, index: int, primed: bool) -> BDD:
        return self.y(index) if primed else self.x(index)

    # -- structural predicates (Section 7.1) ------------------------------------------

    def top_index(self, program: int) -> int:
        return self.lean.position(sx.dia(program, sx.TRUE))

    def isparent(self, program: int, primed: bool = False) -> BDD:
        """``isparentₐ``: the bit for ``⟨a⟩⊤`` is set."""
        return self.literal(self.top_index(program), primed)

    def ischild(self, program: int, primed: bool = False) -> BDD:
        """``ischildₐ``: the bit for ``⟨ā⟩⊤`` is set."""
        return self.literal(self.top_index(-program), primed)

    def start(self, primed: bool = False) -> BDD:
        return self.literal(self.lean.start_index, primed)

    def root_filter(self, formula: sx.Formula, primed: bool = False) -> BDD:
        """Root types satisfying ``formula``: no pending backward modality,
        and no ⟨2⟩ successor, so that a model is one document, not a hedge.

        This is the final check of the fixpoint loop: ``¬ischild₁ ∧
        ¬ischild₂ ∧ ¬isparent₂ ∧ statusᵩ``.
        """
        return (
            ~self.ischild(1, primed)
            & ~self.ischild(2, primed)
            & ~self.isparent(2, primed)
            & self.status(formula, primed)
        )

    # -- the truth-status of a formula as a boolean function ----------------------------

    def status(self, formula: sx.Formula, primed: bool = False) -> BDD:
        """The BDD of ``statusᵩ`` over the (un)primed vector (Section 7.1)."""
        key = (formula, primed)
        cached = self._status_cache.get(key)
        if cached is not None:
            return cached
        kind = formula.kind
        manager = self.manager
        if kind == sx.KIND_TRUE:
            result = manager.true()
        elif kind == sx.KIND_FALSE:
            result = manager.false()
        elif kind == sx.KIND_PROP:
            result = self.literal(self.lean.proposition_index(formula.label), primed)
        elif kind == sx.KIND_NPROP:
            result = ~self.literal(self.lean.proposition_index(formula.label), primed)
        elif kind == sx.KIND_ATTR:
            result = self._attribute_status(formula.label, primed)
        elif kind == sx.KIND_NATTR:
            result = ~self._attribute_status(formula.label, primed)
        elif kind == sx.KIND_START:
            result = self.start(primed)
        elif kind == sx.KIND_NSTART:
            result = ~self.start(primed)
        elif kind == sx.KIND_NDIA:
            result = ~self.literal(self.top_index(formula.prog), primed)
        elif kind == sx.KIND_DIA:
            result = self.literal(self.lean.position(formula), primed)
        elif kind == sx.KIND_AND:
            result = self.status(formula.left, primed) & self.status(formula.right, primed)
        elif kind == sx.KIND_OR:
            result = self.status(formula.left, primed) | self.status(formula.right, primed)
        elif formula.is_fixpoint:
            result = self.status(sx.expand_fixpoint(formula), primed)
        else:
            raise ValueError(f"cannot compute the status of {formula!r}")
        self._status_cache[key] = result
        return result

    def _attribute_status(self, name: str, primed: bool) -> BDD:
        """The BDD of an attribute proposition ``@name``.

        The wildcard ``@*`` is not a bit of its own: it is the disjunction of
        every attribute bit of the lean (including the "other attribute" bit),
        so its negation "no attribute at all" comes out right as well.
        """
        if name == sx.ANY_ATTRIBUTE:
            result = self.manager.false()
            for attribute in self.lean.attributes:
                result = result | self.literal(
                    self.lean.attribute_index(attribute), primed
                )
            return result
        return self.literal(self.lean.attribute_index(name), primed)

    # -- the characteristic function of Types(ψ) ------------------------------------------

    def types_constraint(self, primed: bool = False) -> BDD:
        """χ_Types: modal consistency, first/second child exclusion, one label."""
        manager = self.manager
        constraint = manager.true()
        # Modal consistency: ⟨a⟩ϕ ∈ t implies ⟨a⟩⊤ ∈ t.
        for program, _sub, index in self.lean.modal_items():
            if index == self.top_index(program):
                continue
            constraint = constraint & self.literal(index, primed).implies(
                self.literal(self.top_index(program), primed)
            )
        # A node cannot be both a first child and a second child.
        constraint = constraint & ~(
            self.literal(self.top_index(-1), primed)
            & self.literal(self.top_index(-2), primed)
        )
        # Exactly one atomic proposition.
        label_literals = [
            self.literal(self.lean.proposition_index(label), primed)
            for label in self.lean.propositions
        ]
        at_least_one = manager.false()
        for literal in label_literals:
            at_least_one = at_least_one | literal
        at_most_one = manager.true()
        for i in range(len(label_literals)):
            for j in range(i + 1, len(label_literals)):
                at_most_one = at_most_one & ~(label_literals[i] & label_literals[j])
        return constraint & at_least_one & at_most_one


@dataclass
class _Partition:
    """One conjunct Rᵢ(x, y) of ∆ₐ, with the primed variables it depends on."""

    function: BDD
    primed_support: frozenset[str]


@dataclass
class _ScheduleStep:
    """One step of the precomputed early-quantification schedule.

    ``block`` is the conjunction of the partitions grouped at this step (built
    once, at relation-construction time) and ``eliminable`` the primed
    variables that no later step mentions, so they can be quantified out as
    soon as the block has been conjoined with the frontier.
    ``primed_support`` is the union of the grouped partitions' primed
    supports and ``partition_count`` how many partitions the step bundles —
    both feed the cone-of-influence skipping of :meth:`TransitionRelation.
    _skippable_steps`.
    """

    block: BDD
    eliminable: frozenset[str]
    primed_support: frozenset[str] = frozenset()
    partition_count: int = 1
    #: Persistent relational-product memo for this step (the block and the
    #: eliminated variables are fixed, so only the incoming frontier varies).
    cache: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass
class _Component:
    """A set of schedule steps connected through shared primed variables.

    Components are variable-disjoint from one another, so the relational
    product factorises across them: a component whose variables the frontier
    never mentions contributes ``∃ vars . ∧ blocks`` — a constant that is
    computed once (lazily, on the first skip opportunity) and, when it is
    ``⊤``, lets the whole component be skipped.
    """

    steps: frozenset[int]
    vacuous: bool | None = field(default=None, compare=False)


class TransitionRelation:
    """The relation ∆ₐ of Definition 6.2 in partitioned form.

    ``witness(target)`` computes the Wit formula of Section 7.1: the set of
    types ``x`` such that, *if* ``x`` claims an ``a``-child, a compatible
    witness exists in ``target``; ``witness_strict`` additionally requires the
    child to exist (used for propagating the start mark through a branch).
    The fixpoint loop of :mod:`repro.solver.symbolic` asks for each product
    only when its set changed, so there is no per-target product cache.

    Every product runs over the whole target through the precomputed
    early-quantification schedule.  Each schedule step keeps a persistent
    ``and_exists`` memo, so a product over a set that grew since the last one
    redoes work only in the region that changed.  ``partitions_skipped``
    counts the partitions avoided by the cone-of-influence check (a partition
    component whose primed variables the target never mentions, and whose
    projection is vacuous, cannot affect the product — and every partition
    of a product against the empty set).
    """

    def __init__(self, encoding: LeanEncoding, program: int):
        if program not in FORWARD_MODALITIES:
            raise ValueError("transition relations are built for programs 1 and 2 only")
        self.encoding = encoding
        self.program = program
        self.partitions = self._build_partitions()
        self._schedule = self._build_schedule()
        partition_primed = frozenset().union(
            *(partition.primed_support for partition in self.partitions)
        )
        # The x-copies of the primed variables no partition mentions: the
        # frontier pass quantifies them while it primes the target.
        self._unconstrained = frozenset(
            x_name
            for x_name, y_name in encoding.x_to_y.items()
            if y_name not in partition_primed
        )
        self._step_supports: dict[int, frozenset[str]] = {
            index: step.primed_support for index, step in enumerate(self._schedule)
        }
        self._components = self._build_components()
        self.product_calls = 0
        self.partitions_skipped = 0

    def _build_partitions(self) -> list[_Partition]:
        encoding = self.encoding
        partitions: list[_Partition] = []
        for item_program, sub, index in encoding.lean.modal_items():
            if sub is sx.TRUE:
                continue
            if item_program == self.program:
                # x_i  <=>  status_sub(y)
                function = encoding.x(index).iff(encoding.status(sub, primed=True))
            elif item_program == -self.program:
                # y_i  <=>  status_sub(x)
                function = encoding.y(index).iff(encoding.status(sub, primed=False))
            else:
                continue
            primed_support = frozenset(
                name for name in function.support() if name.startswith("y")
            )
            partitions.append(_Partition(function, primed_support))
        return partitions

    def _build_schedule(self) -> list[_ScheduleStep]:
        """Precompute the elimination order of Section 7.3.

        The greedy choice eliminates, at each step, the primed variable
        mentioned by the *fewest remaining partitions* (so each block
        conjoins as few partitions as possible), breaking ties towards the
        shallowest variable in the order (quantifying the upper ``y``
        variables early collapses those levels of every intermediate before
        the deeper equivalences are conjoined).
        Against the previous min-total-support choice this measures ~3x
        faster products on the deep-nesting scaling family and slightly
        faster XHTML rows (see BENCH_scaling.json).
        The order only depends on the partitions, never on the frontier, so
        the grouping of partitions into blocks — and the block conjunctions
        themselves — are computed once here instead of on every relational
        product.  A variable becomes eliminable at the first step after which
        no later block mentions it; the frontier is pure-primed, so it blocks
        nothing.
        """
        level_of = self.encoding.manager.level_of
        remaining = list(self.partitions)
        grouped: list[list[_Partition]] = []
        while remaining:
            mention_counts: dict[str, int] = {}
            for partition in remaining:
                for name in partition.primed_support:
                    mention_counts[name] = mention_counts.get(name, 0) + 1
            if not mention_counts:
                grouped.append(remaining)
                break
            cheapest = min(
                mention_counts, key=lambda name: (mention_counts[name], level_of(name))
            )
            grouped.append([p for p in remaining if cheapest in p.primed_support])
            remaining = [p for p in remaining if cheapest not in p.primed_support]

        steps: list[_ScheduleStep] = []
        seen_later: set[str] = set()
        pending_steps: list[tuple[BDD, frozenset[str], int]] = []
        for group in grouped:
            block = self.encoding.manager.true()
            support: set[str] = set()
            for partition in group:
                block = block & partition.function
                support |= partition.primed_support
            pending_steps.append((block, frozenset(support), len(group)))
        for block, support, count in reversed(pending_steps):
            steps.append(_ScheduleStep(block, support - seen_later, support, count))
            seen_later |= support
        steps.reverse()
        return steps

    def _build_components(self) -> list[_Component]:
        """Partition the schedule steps into variable-disjoint components."""
        remaining = set(self._step_supports)
        components: list[_Component] = []
        while remaining:
            seed = remaining.pop()
            members = {seed} | cone_of_influence(
                {index: self._step_supports[index] for index in remaining},
                self._step_supports[seed],
            )
            remaining -= members
            components.append(_Component(frozenset(members)))
        return components

    def _component_vacuous(self, component: _Component) -> bool:
        """Whether ``∃ (the component's variables) . ∧ blocks`` is ``⊤``.

        Computed once per component, with the same early-quantification walk
        a relational product uses.  The component's variables are disjoint
        from every other step's, so each of them is eliminable at the last
        step of the component that mentions it, and none is left over.
        """
        current = self.encoding.manager.true()
        for index in sorted(component.steps):
            step = self._schedule[index]
            current = current.and_exists(step.block, step.eliminable)
        return current.is_true

    def _skippable_steps(self, frontier_support: set[str]) -> frozenset[int]:
        """Schedule steps this product can skip (cone-of-influence check).

        A component is skippable when the frontier mentions none of its
        variables *and* its projection is vacuous; its blocks then contribute
        the constant ``⊤`` to the factorised product.
        """
        if not self._schedule:
            return frozenset()
        needed = cone_of_influence(self._step_supports, frontier_support)
        if len(needed) == len(self._schedule):
            return frozenset()
        skippable: set[int] = set()
        for component in self._components:
            if component.steps & needed:
                continue
            if component.vacuous is None:
                component.vacuous = self._component_vacuous(component)
            if component.vacuous:
                skippable |= component.steps
        return frozenset(skippable)

    # -- relational products -----------------------------------------------------------

    def _witness_product(self, target_x: BDD) -> BDD:
        """``∃y (target(y) ∧ ischildₐ(y) ∧ ∆ₐ(x,y))`` with early quantification.

        One memoised rename pass primes ``target ∧ ischildₐ`` into the
        frontier and quantifies, as it goes, the primed variables that no
        partition mentions: nothing constrains them, so they can go before
        the first schedule step.  ``ischildₐ`` is conjoined on the unprimed
        side first, because its own bit may be one of those.  No primed
        variable is left over: one of a conjoined block lies in the
        eliminable set of the last step that mentions it (and that step
        runs, since it shares the block's component), and a skipped
        component's variables never enter the product.
        """
        encoding = self.encoding
        manager = encoding.manager
        if target_x.manager is not manager:
            # The per-step ``and_exists`` memos are keyed by node id, which
            # only means something inside the manager that made it.
            raise ValueError(
                "witness target was built on a different BDD manager; node "
                "ids are only meaningful within the manager that made them"
            )
        if target_x.is_false:
            # ∃y (⊥ ∧ ∆ₐ) — nothing to compute, every partition is skipped.
            self.partitions_skipped += len(self.partitions)
            return manager.false()
        self.product_calls += 1
        current = (target_x & encoding.ischild(self.program)).rename(
            encoding.x_to_y, self._unconstrained
        )
        skipped = self._skippable_steps(current.support())
        for index, step in enumerate(self._schedule):
            if index in skipped:
                self.partitions_skipped += step.partition_count
                continue
            current = current.and_exists(step.block, step.eliminable, step.cache)
        return current

    def witness(self, target_x: BDD) -> BDD:
        """``Witₐ(target)``: ``isparentₐ(x) → ∃y (target(y) ∧ ischildₐ(y) ∧ ∆ₐ(x,y))``."""
        product = self._witness_product(target_x)
        return self.encoding.isparent(self.program).implies(product)

    def witness_strict(self, target_x: BDD) -> BDD:
        """Like :meth:`witness` but the child must exist (mark propagation)."""
        product = self._witness_product(target_x)
        return self.encoding.isparent(self.program) & product

    def child_constraint_parts(self, parent_bits: dict[int, bool]) -> list[BDD]:
        """The admissible-children constraint as a list of conjuncts (over ``x``).

        Used by model reconstruction: given the parent's bit-vector, a child
        type must support exactly the parent's ``⟨a⟩ϕ`` claims and claim
        exactly the ``⟨ā⟩ϕ`` formulas whose body holds at the parent.

        The conjunction of all parts can be exponentially larger than any
        individual part, so the constraint is returned *partitioned* — cheap
        single-literal parts first, then the status BDDs by ascending size —
        and callers intersect the parts one at a time against an existing set
        of types (which prunes the intermediates), exactly like the solver
        never builds ``∆ₐ`` monolithically.
        """
        from repro.solver.truth import status_on_set

        lean = self.encoding.lean
        members = frozenset(
            item for index, item in enumerate(lean.items) if parent_bits.get(index, False)
        )
        literal_parts: list[BDD] = [self.encoding.ischild(self.program, primed=False)]
        status_parts: list[BDD] = []
        for item_program, sub, index in lean.modal_items():
            if sub is sx.TRUE:
                continue
            if item_program == self.program:
                required = parent_bits.get(index, False)
                status = self.encoding.status(sub, primed=False)
                status_parts.append(status if required else ~status)
            elif item_program == -self.program:
                holds_at_parent = status_on_set(sub, members)
                literal = self.encoding.x(index)
                literal_parts.append(literal if holds_at_parent else ~literal)
        status_parts.sort(key=lambda part: part.dag_size())
        return literal_parts + status_parts
