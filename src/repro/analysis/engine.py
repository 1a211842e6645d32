"""The shared fixpoint engine behind every analyzer in the repo.

The paper's complexity argument lives in *how the fixpoint is driven*,
not in any one transition relation: the single-threaded store worklist
(§3.7) is what turns the EXPTIME-hard functional analysis into the
PTIME m-CFA family, while the naive reachable-*states* engine (§3.6)
is what the exponential lower bound actually talks about.  Before this
module existed each analyzer (k-CFA, m-CFA, poly k-CFA, 0CFA, ΓCFA and
the Featherweight Java machines) hand-rolled its own copy of those two
loops; the machines themselves later collapsed the same way into the
policy-parameterized :mod:`repro.analysis.kernel`.  There is exactly
one of each driver:

* :func:`run_single_store` — the §3.7 driver.  One global monotone
  :class:`~repro.analysis.domains.AbsStore` and a
  :class:`~repro.util.fixpoint.DependencyWorklist` that re-enqueues a
  configuration only when an address it *read* grows.  The re-step is
  semi-naive for shared and summary environments: the kernel enters
  only the operators new since the configuration's last step
  (:meth:`~repro.analysis.kernel.Kernel._to_enter`).

* :func:`run_naive` — the §3.6 driver.  Every abstract state carries
  its own immutable :class:`~repro.analysis.domains.FrozenStore`; an
  optional GC policy (abstract garbage collection, ΓCFA) restricts
  each successor store to its reachable addresses before dedup.

A *machine* is anything satisfying the :class:`Machine` protocol: it
boots an initial configuration against a store and exposes one
``step`` transfer function returning ``(successor, joins)`` pairs.
Engine-level improvements — worklist order, budgets, future parallel
drivers — land here once and every analysis benefits at once.

The pushdown-summary rep (:class:`~repro.analysis.kernel.SummaryEnv`)
needs **no extra propagation pass** on top of :func:`run_single_store`:
an exit summary is just a join into the caller's continuation-parameter
address, so when an entry's return value grows, the worklist
re-enqueues exactly the configurations that read it — summary
propagation *is* dependency propagation.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import (
    Callable, Generic, Hashable, Protocol, TypeVar, runtime_checkable,
)

from repro.analysis.domains import AbsStore, FrozenStore
from repro.util.budget import Budget
from repro.util.fixpoint import DependencyWorklist, Worklist

C = TypeVar("C", bound=Hashable)  # configuration type


@runtime_checkable
class Machine(Protocol):
    """What the engine needs from an abstract transition relation.

    Implementations in this repo: the policy-parameterized
    :class:`~repro.analysis.kernel.Kernel` (behind every CPS
    analysis), :class:`~repro.fj.kcfa.FJKCFAMachine` and
    :class:`~repro.fj.poly.FJFlatMachine`.
    """

    def boot(self, store: AbsStore):
        """Seed *store* if needed; return the initial configuration."""
        ...

    def step(self, config, store, reads: set, recorder
             ) -> "list[tuple[object, tuple]]":
        """Apply the transfer function to one configuration.

        Must add every address it reads to *reads* and record monotone
        facts on *recorder*; returns ``(successor-config, joins)``
        pairs without mutating the store — the engine owns all joins.
        """
        ...


#: The engine tiers a run can ask for: the generic kernel loop, the
#: per-policy specialized loop (:mod:`repro.analysis.specialize`) and
#: generated step source (:mod:`repro.analysis.codegen`).  A tier
#: falls back to the one below it wherever its policy is not covered,
#: and all three give byte- and trajectory-identical results, so the
#: tier is never part of a job's identity.  It follows from the call
#: site: one-shot runs take :data:`DEFAULT_TIER`, and only a warm
#: fleet worker asks for ``codegen``, because only it runs a program
#: often enough to repay ``compile()`` of the generated module.
TIERS = ("generic", "specialized", "codegen")
DEFAULT_TIER = "specialized"


def specialize(machine: "Machine", enabled: bool = True) -> "Machine":
    """The per-policy specialization stage.

    Given a generic machine, return the staged step loop its policy's
    declared axes admit (:mod:`repro.analysis.specialize`): shared-env
    policies get pre-bound address constructors and a monomorphic
    eval/apply dispatch, the context-free flat FJ policy a fully
    folded per-statement loop.  Falls back to *machine* itself when
    nothing applies (or ``enabled`` is False — the ``generic`` tier).
    Specialized machines are trajectory-identical to their generic
    originals; the golden suite and ``tests/test_specialize.py`` gate
    that byte-for-byte.
    """
    if not enabled:
        return machine
    from repro.analysis.specialize import specialize_machine
    return specialize_machine(machine) or machine


def codegen_stage(machine: "Machine", enabled: bool = True,
                  cache=None) -> "Machine | None":
    """The source-level codegen stage, one rung past specialization.

    Given a generic machine whose policy admits it
    (:mod:`repro.analysis.codegen`: flat-env kernels, and the flat FJ
    machine under a receiver-insensitive context-free policy), return
    a machine that ``exec``-s *generated Python source* — one
    straight-line step function per program node with addresses,
    successor configurations and dispatch plans inlined as literals,
    and (for the context-free kinds) bit-parallel transfer blocks that
    collapse a successor's per-address joins into one packed-int
    compare.  Returns ``None`` when the policy is not covered or
    ``enabled`` is False — callers then fall back to
    :func:`specialize`.  Codegen machines honor the same byte- and
    trajectory-identity contract as specialized ones; *cache* is the
    :class:`~repro.cache.CodegenCache` to draw generated modules from
    (``None`` = the process default).

    Building a machine here costs an emit and a ``compile()`` of the
    module on a cache miss — far more than a one-shot fixpoint on the
    cheap analyses — so only the ``codegen`` tier, which warm fleet
    workers request, reaches this stage enabled.

    Codegen steps may *omit* joins they prove cannot grow the store;
    the single-store driver only observes joins that grow it, so the
    omission is invisible to every run.
    """
    if not enabled:
        return None
    from repro.analysis.codegen import codegen_machine
    return codegen_machine(machine, cache)


def machine_path(machine: "Machine") -> str:
    """``codegen:<name>``, ``specialized:<name>`` or ``generic`` —
    which step loop ran.  The bench runner records this per row."""
    name = getattr(machine, "specialization", None)
    if not name:
        return "generic"
    stage = getattr(machine, "stage", "specialized")
    return f"{stage}:{name}"


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """Knobs shared by every driver.

    * ``budget`` — step/wall-clock limits
      (:class:`~repro.util.budget.Budget`); ``None`` means unlimited.
    * ``lifo`` — depth-first exploration for the naive driver (the
      single-store driver is inherently order-insensitive: any order
      reaches the same least fixpoint).
    * ``collect`` — the GC policy for the naive driver: a callable
      ``(config, frozen_store) -> frozen_store`` applied to every
      successor state before dedup (abstract garbage collection);
      ``None`` disables collection.

    Flow sets are always interned into the bitset table each run's
    :class:`~repro.analysis.domains.AbsStore` builds
    (:mod:`repro.analysis.interning`).
    """

    budget: Budget | None = None
    lifo: bool = False
    collect: Callable[[object, FrozenStore], FrozenStore] | None = None


@dataclass
class EngineRun(Generic[C]):
    """What a driver hands back to the analyzer wrapper.

    The wrapper turns this into its public result type
    (:class:`~repro.analysis.results.AnalysisResult` or
    :class:`~repro.fj.kcfa.FJResult`); the engine itself is agnostic
    about what was analyzed.
    """

    store: AbsStore                  # global store (naive: merged)
    configs: frozenset               # reachable configurations
    steps: int                       # transfer-function applications
    elapsed: float                   # driver wall-clock seconds
    state_count: int = 0             # naive driver only: |states|
    requeues: int = 0                # dirty-triggered re-enqueues
    recorder: object = None
    states: frozenset = field(default_factory=frozenset)


def run_single_store(machine: Machine, recorder,
                     options: EngineOptions | None = None) -> EngineRun:
    """Drive *machine* to fixpoint over one global store (§3.7).

    The loop pops a configuration in FIFO order, applies the transfer
    function, records its read set, joins its store writes, and
    re-enqueues every reader of an address that grew.  A re-visited
    configuration is stepped against the same store it joined into
    before, which is what lets the kernel skip the operators it
    entered last time with the same inputs (semi-naive re-steps);
    the successors and joins it skips are already in ``seen`` and in
    the store, so the trajectory is the full re-step's.

    Raises :class:`~repro.errors.AnalysisTimeout` when the budget is
    exceeded, like every analyzer built on it.
    """
    options = options or EngineOptions()
    budget = options.budget or Budget()
    budget.ensure_started()
    worklist: DependencyWorklist = DependencyWorklist()
    store = AbsStore()
    worklist.add(machine.boot(store))
    # The loop below inlines the worklist's pop/record/add/dirty
    # operations against its internals — the driver and the worklist
    # are one subsystem, and at ~5 bookkeeping operations per transfer
    # step the call overhead is measurable on every analysis.  The
    # public :class:`~repro.util.fixpoint.DependencyWorklist` methods
    # remain the reference semantics (and are property-tested); this
    # loop must mirror them exactly, or trajectories (and therefore
    # ``steps`` counts diffed across engine paths) drift.
    join_mask = store.join_mask
    machine_step = machine.step
    queue = worklist._queue
    pending = worklist._pending
    seen = worklist._seen
    readers = worklist._readers
    # The budget check is likewise inlined (one method call per step
    # otherwise); ``charge`` stays the reference semantics, and the
    # unlimited case pays a single truth test per step.
    charge = budget.charge
    limited = budget.max_steps is not None \
        or budget.max_seconds is not None
    requeued = 0
    steps = 0
    started = _time.perf_counter()
    while queue:
        if limited:
            charge()
        config = queue.popleft()
        pending.discard(config)
        steps += 1
        reads: set = set()
        succs = machine_step(config, store, reads, recorder)
        if reads:
            for addr in reads:
                addr_readers = readers.get(addr)
                if addr_readers is None:
                    readers[addr] = {config}
                else:
                    addr_readers.add(config)
        changed = []
        for succ, joins in succs:
            if joins:
                for addr, mask in joins:
                    if mask and join_mask(addr, mask):
                        changed.append(addr)
            if succ not in seen:
                seen.add(succ)
                pending.add(succ)
                queue.append(succ)
        for addr in changed:
            for reader in readers.get(addr, ()):
                if reader not in pending:
                    pending.add(reader)
                    queue.append(reader)
                    requeued += 1
    worklist.requeue_count = requeued
    elapsed = _time.perf_counter() - started
    return EngineRun(
        store=store, configs=worklist.seen, steps=steps,
        elapsed=elapsed, requeues=worklist.requeue_count,
        recorder=recorder)


@dataclass(frozen=True, slots=True)
class NaiveState(Generic[C]):
    """A full §3.6 abstract state: configuration *plus* store."""

    config: C
    store: FrozenStore


class _FrozenMaskView:
    """Adapts an immutable :class:`FrozenStore` to the machines' mask
    reads.

    The machines are mask-native (they read flow sets through
    ``get_mask``); the naive engine's states deliberately keep the
    expensive object representation the §3.6 complexity bound talks
    about.  This view encodes on read — memoized by the table, since
    naive states alias the same frozensets heavily — so one machine
    implementation serves both drivers.
    """

    __slots__ = ("table", "frozen")

    def __init__(self, table):
        self.table = table
        self.frozen: FrozenStore | None = None

    def get(self, addr) -> frozenset:
        return self.frozen.get(addr)

    def get_mask(self, addr):
        return self.table.encode(self.frozen.get(addr))


def run_naive(machine: Machine, recorder,
              options: EngineOptions | None = None) -> EngineRun:
    """Drive *machine* over the reachable-states space (§3.6).

    Deliberately the expensive engine — states carry whole stores, so
    the system space is P(Σ̂) and can explode even for k = 0, which is
    the paper's point.  Use on small terms, with a budget.

    With ``options.collect`` set this is ΓCFA: every successor store is
    restricted to the addresses reachable from its configuration before
    the state is deduplicated, trading the single-threaded store for
    per-state stores and buying precision.
    """
    options = options or EngineOptions()
    budget = options.budget or Budget()
    budget.ensure_started()
    collect = options.collect
    seed = AbsStore()
    table = seed.table
    decode = table.decode
    initial = machine.boot(seed)
    frozen_seed = FrozenStore(seed.items())
    if collect is not None:
        frozen_seed = collect(initial, frozen_seed)
    view = _FrozenMaskView(table)
    worklist: Worklist[NaiveState] = Worklist(lifo=options.lifo)
    worklist.add(NaiveState(initial, frozen_seed))
    steps = 0
    started = _time.perf_counter()
    while worklist:
        budget.charge()
        state = worklist.pop()
        steps += 1
        reads: set = set()
        view.frozen = state.store
        succs = machine.step(state.config, view, reads, recorder)
        for succ, joins in succs:
            next_store = state.store.join_many(
                (addr, decode(mask)) for addr, mask in joins)
            if collect is not None:
                next_store = collect(succ, next_store)
            worklist.add(NaiveState(succ, next_store))
    elapsed = _time.perf_counter() - started
    states = worklist.seen
    merged = AbsStore()
    configs = set()
    for state in states:
        configs.add(state.config)
        for addr, values in state.store.items():
            merged.join(addr, values)
    return EngineRun(
        store=merged, configs=frozenset(configs), steps=steps,
        elapsed=elapsed, state_count=len(states), recorder=recorder,
        states=states)
