"""Incremental re-analysis and demand-driven point queries.

The delta-propagating engine (:func:`~repro.analysis.engine.
run_single_store`) already re-enqueues exactly the readers of every
grown address; this module turns that machinery into an *editing*
workflow.  An :class:`AnalysisSession` holds one program's warm
analysis state — the monotone store, the reachable configurations and
the read/write/discovery maps a tracked run leaves behind
(:class:`~repro.analysis.engine.FixpointState`) — and replays an edit
in three moves:

1. **Align** the old labelled syntax tree against a fresh compile of
   the edited source (:func:`align_program`).  Structurally identical
   subtrees keep their *old* node objects (and therefore their old
   labels, configurations and addresses).  A node whose shape matches
   but whose children changed is *patched in place* — its object
   identity and label survive, only the changed child is swapped —
   provided the swap preserves the subtree's free-variable set (the
   id-keyed free-variable caches stay valid by construction).  Only
   genuinely mismatched structure is rebuilt, with fresh labels drawn
   above everything the session has ever used, so old and new facts
   can never collide.  Patching is what keeps a one-literal edit
   O(1)-dirty: the ancestors of the edit keep their identity, so
   their configurations — and everything dataflow-independent of the
   edited value — are untouched.  The session owns a private clone of
   its tree, so the mutation never reaches the worker's shared
   :class:`~repro.cache.ProgramCache`.

2. **Close over the damage** (:func:`affected_closure`).  A
   configuration is *stale* when its call node was detached or
   patched by the edit, or any label/variable in its context was
   retired.  The closure then grows
   along the recorded dependency maps: writes of affected
   configurations become *suspect* addresses, readers of suspect
   addresses become affected, and a configuration all of whose
   discoverers are affected is affected too (it may only have been
   reachable through deleted code).  Everything else is *kept*.

3. **Resume the fixpoint** from the warm store: suspect and stale
   addresses are cleared, the worklist is seeded with the new boot
   configuration, the kept writers of every cleared address (their
   reads are intact, so they re-derive their contributions verbatim)
   and the kept discoverers of affected configurations (so
   still-reachable work is re-produced).  Monotone chaotic iteration
   from this sound intermediate point converges to the same least
   fixpoint as a cold run.

Because the resumed store may transiently over-approximate (a kept
configuration can turn out unreachable in the new program), the
session *renders* its public result with one breadth-first pass from
the boot configuration over the final store.  Every fact the
:class:`~repro.analysis.kernel.Recorder` collects is monotone in the
store, so the pass reproduces exactly what a from-scratch run reports
— and it rebuilds the dependency maps at the same time, leaving the
session in precisely the state a cold tracked run would have left.

A diff that is too invasive (little structural sharing — new
top-level binders, a destabilised simplify pass) falls back to the
always-on shadow path: a from-scratch tracked run of the freshly
compiled program.  Fallbacks are reported, never silent.

Point queries (``value-of``, ``call-sites-of``, ``escaping``) answer
from the rendered store and configuration set directly — a demanded
slice of the dependency graph, no report materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.engine import (
    EngineOptions, EngineRun, FixpointState, run_single_store,
)
from repro.analysis.domains import AbsStore
from repro.analysis.interning import PlainTable
from repro.analysis.kernel import (
    FConfig, KConfig, Kernel, Recorder, result_from_run,
)
from repro.analysis.policies import (
    call_site_tick, mcfa_allocator, poly_kcfa_allocator,
)
from repro.analysis.clients import (
    call_sites_of, escaping_point, parse_label, run_result_query,
    validate_query, value_of,
)
from repro.analysis.registry import registry
from repro.analysis.results import AnalysisResult
from repro.cps.program import Program, label_maximum
from repro.cps.syntax import (
    AppCall, FixCall, HaltCall, IfCall, Lam, Lit, PrimCall, Ref,
    free_vars_of_call, free_vars_of_exp,
)
from repro.errors import AnalysisTimeout, UsageError
from repro.util.budget import Budget

__all__ = [
    "SESSION_ANALYSES", "AnalysisSession", "ProgramDiff",
    "affected_closure", "align_program", "clone_program",
]

#: Analyses a session can hold warm state for: the single-store CPS
#: policies whose environment representations carry no analysis state
#: outside the store.  (``pushdown``'s summary tables are reset by
#: ``boot`` and would be lost on resume; the naive/GC engines have no
#: single store to resume.)
SESSION_ANALYSES = ("kcfa", "mcfa", "poly", "zero")

#: Below this fraction of structurally shared labelled nodes the diff
#: is judged too invasive and the edit takes the from-scratch path.
KEPT_RATIO_FLOOR = 0.5


def build_session_machine(analysis: str, parameter: int,
                          program: Program) -> Kernel:
    """The generic (unspecialized) kernel for a session analysis.

    Sessions always run the generic step loop: specialized machines
    are trajectory-identical anyway, and the query layer needs the
    kernel's ``evaluate``.
    """
    from repro.analysis.kernel import FlatEnv, SharedEnv
    if analysis == "kcfa":
        return Kernel(program, SharedEnv(call_site_tick(parameter)))
    if analysis == "mcfa":
        return Kernel(program, FlatEnv(mcfa_allocator(parameter)))
    if analysis == "poly":
        return Kernel(program, FlatEnv(poly_kcfa_allocator(parameter)))
    if analysis == "zero":
        return Kernel(program, FlatEnv(mcfa_allocator(0)))
    raise UsageError(
        f"analysis {analysis!r} does not support sessions; choose "
        f"from {', '.join(SESSION_ANALYSES)}")


# ---------------------------------------------------------------------------
# Tree alignment: old program × new compile → shared-where-possible tree
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ProgramDiff:
    """What :func:`align_program` learned about an edit."""

    program: Program          # the aligned new program
    kept_labels: frozenset    # old labels that survived the edit
    dirty_labels: frozenset   # kept calls patched in place (semantics
    #                           below them changed; configs must rerun)
    retired_labels: frozenset  # old labels gone from the new program
    retired_names: frozenset  # old binder names gone from the program
    fresh_nodes: int          # labelled nodes rebuilt with new labels
    kept_ratio: float         # |kept| / labelled nodes of the result


def clone_program(program: Program) -> Program:
    """A label-preserving deep copy of *program*.

    Sessions patch their tree in place on every edit, so they must
    own it outright — the worker's :class:`~repro.cache.ProgramCache`
    hands out one shared instance per source.  Atoms (``Ref``/``Lit``)
    are immutable and safely shared; every labelled node is copied.
    """
    def cexp(exp):
        if isinstance(exp, Lam):
            return Lam(exp.kind, exp.params, ccall(exp.body), exp.label)
        return exp

    def ccall(call):
        if isinstance(call, AppCall):
            return AppCall(cexp(call.fn),
                           tuple(cexp(a) for a in call.args), call.label)
        if isinstance(call, IfCall):
            return IfCall(cexp(call.test), ccall(call.then),
                          ccall(call.orelse), call.label)
        if isinstance(call, PrimCall):
            return PrimCall(call.op, tuple(cexp(a) for a in call.args),
                            cexp(call.cont), call.label)
        if isinstance(call, FixCall):
            return FixCall(tuple((name, cexp(lam))
                                 for name, lam in call.bindings),
                           ccall(call.body), call.label)
        return HaltCall(cexp(call.arg), call.label)

    return Program(ccall(program.root))


def align_program(old: Program, new_root, fresh: Callable[[], int]
                  ) -> ProgramDiff:
    """Align *old* against a fresh compile's *new_root*.

    Mutates *old*'s tree into the aligned program.  Structurally
    identical subtrees are untouched; a node whose shape survives but
    whose children changed is *patched in place* (same object, same
    label, new children) when the change preserves the node's
    free-variable set — otherwise the node is rebuilt with a label
    drawn from *fresh* and the change bubbles up.  Patched calls are
    reported as *dirty*: their configurations are still configurations
    of the new program, but they must be re-stepped because the atoms
    they evaluate changed underneath them.
    """
    dirty: set = set()
    root, _replaced = _align_call(old.root, new_root, fresh, dirty)
    aligned = Program(root)
    old_labels = frozenset(old.calls_by_label) \
        | frozenset(old.lams_by_label)
    new_labels = frozenset(aligned.calls_by_label) \
        | frozenset(aligned.lams_by_label)
    kept = old_labels & new_labels
    retired_names = frozenset(old.variables) \
        - frozenset(aligned.variables)
    return ProgramDiff(
        program=aligned, kept_labels=kept,
        dirty_labels=frozenset(dirty),
        retired_labels=frozenset(old_labels - new_labels),
        retired_names=retired_names,
        fresh_nodes=len(new_labels - kept),
        kept_ratio=len(kept) / max(1, len(new_labels)))


def _patchable(pairs) -> bool:
    """May the parent swap these children in place?

    *pairs* holds ``(old_child, aligned_child, replaced)`` triples.
    Patching keeps the parent's object identity, so every cached
    free-variable set of every enclosing lambda (cached per node id)
    must stay correct: allowed exactly when each replaced child has
    the same free variables as the one it displaces.
    """
    for old_child, new_child, replaced in pairs:
        if not replaced:
            continue
        fv = free_vars_of_call if not isinstance(
            old_child, (Ref, Lit, Lam)) else free_vars_of_exp
        if fv(old_child) != fv(new_child):
            return False
    return True


def _patch(node, dirty, **fields):
    """Swap *fields* into frozen *node* in place; mark its label dirty."""
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    dirty.add(node.label)
    return node, False


def _align_exp(old, new, fresh, dirty):
    """Align one atomic/lambda expression; ``(node, replaced)``.

    ``replaced`` is True when the returned node is a *new object* —
    the parent must change a field (patch or rebuild).  False covers
    both untouched and patched-in-place subtrees.
    """
    if isinstance(new, Ref):
        if isinstance(old, Ref) and old.name == new.name:
            return old, False
        return new, True  # Refs carry no label: the new node is fine
    if isinstance(new, Lit):
        # Mirror AConst's datum-type sensitivity: True and 1 compare
        # equal in Python but abstract to different constants.
        if isinstance(old, Lit) and type(old.datum) is type(new.datum) \
                and old.datum == new.datum:
            return old, False
        return new, True
    if isinstance(old, Lam) and old.kind is new.kind \
            and old.params == new.params:
        body, replaced = _align_call(old.body, new.body, fresh, dirty)
        if not replaced:
            return old, False
        if free_vars_of_call(old.body) == free_vars_of_call(body):
            # Swap the body in place: the lambda keeps its identity,
            # so closures already in the store keep meaning it — and
            # its cached free-variable set stays correct.  No dirty
            # label: configurations live at calls, and the detached
            # old body's are already stale by identity.
            object.__setattr__(old, "body", body)
            return old, False
        return Lam(new.kind, new.params, body, fresh()), True
    return _fresh_exp(new, fresh), True


def _align_call(old, new, fresh, dirty):
    """Align one call node; ``(node, replaced)``."""
    if type(old) is not type(new):
        return _fresh_call(new, fresh), True
    if isinstance(new, AppCall):
        if len(old.args) != len(new.args):
            return _fresh_call(new, fresh), True
        fn, rf = _align_exp(old.fn, new.fn, fresh, dirty)
        args = [_align_exp(o, n, fresh, dirty)
                for o, n in zip(old.args, new.args)]
        if not rf and not any(r for _, r in args):
            return old, False
        pairs = [(old.fn, fn, rf)] + [
            (o, e, r) for o, (e, r) in zip(old.args, args)]
        if _patchable(pairs):
            return _patch(old, dirty, fn=fn,
                          args=tuple(e for e, _ in args))
        return AppCall(fn, tuple(e for e, _ in args), fresh()), True
    if isinstance(new, IfCall):
        test, r0 = _align_exp(old.test, new.test, fresh, dirty)
        then, r1 = _align_call(old.then, new.then, fresh, dirty)
        orelse, r2 = _align_call(old.orelse, new.orelse, fresh, dirty)
        if not (r0 or r1 or r2):
            return old, False
        if _patchable([(old.test, test, r0), (old.then, then, r1),
                       (old.orelse, orelse, r2)]):
            return _patch(old, dirty, test=test, then=then,
                          orelse=orelse)
        return IfCall(test, then, orelse, fresh()), True
    if isinstance(new, PrimCall):
        if old.op != new.op or len(old.args) != len(new.args):
            return _fresh_call(new, fresh), True
        args = [_align_exp(o, n, fresh, dirty)
                for o, n in zip(old.args, new.args)]
        cont, rc = _align_exp(old.cont, new.cont, fresh, dirty)
        if not rc and not any(r for _, r in args):
            return old, False
        pairs = [(o, e, r) for o, (e, r) in zip(old.args, args)] \
            + [(old.cont, cont, rc)]
        if _patchable(pairs):
            return _patch(old, dirty, args=tuple(e for e, _ in args),
                          cont=cont)
        return PrimCall(new.op, tuple(e for e, _ in args), cont,
                        fresh()), True
    if isinstance(new, FixCall):
        if tuple(name for name, _ in old.bindings) \
                != tuple(name for name, _ in new.bindings):
            return _fresh_call(new, fresh), True
        lams = [_align_exp(o, n, fresh, dirty)
                for (_, o), (_, n) in zip(old.bindings, new.bindings)]
        body, rb = _align_call(old.body, new.body, fresh, dirty)
        if not rb and not any(r for _, r in lams):
            return old, False
        pairs = [(o, e, r) for (_, o), (e, r)
                 in zip(old.bindings, lams)] \
            + [(old.body, body, rb)]
        if _patchable(pairs):
            bindings = tuple((name, lam) for (name, _), (lam, _)
                             in zip(old.bindings, lams))
            return _patch(old, dirty, bindings=bindings, body=body)
        bindings = tuple((name, lam) for (name, _), (lam, _)
                         in zip(new.bindings, lams))
        return FixCall(bindings, body, fresh()), True
    # HaltCall
    arg, replaced = _align_exp(old.arg, new.arg, fresh, dirty)
    if not replaced:
        return old, False
    if _patchable([(old.arg, arg, replaced)]):
        return _patch(old, dirty, arg=arg)
    return HaltCall(arg, fresh()), True


def _fresh_exp(exp, fresh):
    """Deep-relabel one expression of the new tree (no sharing)."""
    if isinstance(exp, Lam):
        return Lam(exp.kind, exp.params, _fresh_call(exp.body, fresh),
                   fresh())
    return exp


def _fresh_call(call, fresh):
    """Deep-relabel one call of the new tree (no sharing)."""
    if isinstance(call, AppCall):
        return AppCall(_fresh_exp(call.fn, fresh),
                       tuple(_fresh_exp(a, fresh) for a in call.args),
                       fresh())
    if isinstance(call, IfCall):
        return IfCall(_fresh_exp(call.test, fresh),
                      _fresh_call(call.then, fresh),
                      _fresh_call(call.orelse, fresh), fresh())
    if isinstance(call, PrimCall):
        return PrimCall(call.op,
                        tuple(_fresh_exp(a, fresh) for a in call.args),
                        _fresh_exp(call.cont, fresh), fresh())
    if isinstance(call, FixCall):
        return FixCall(tuple((name, _fresh_exp(lam, fresh))
                             for name, lam in call.bindings),
                       _fresh_call(call.body, fresh), fresh())
    return HaltCall(_fresh_exp(call.arg, fresh), fresh())


# ---------------------------------------------------------------------------
# The affected closure: stale configurations → dirtied addresses
# ---------------------------------------------------------------------------

def _mentions_retired(items, retired_labels) -> bool:
    return any(label in retired_labels for label in items)


def _config_stale(config, aligned_calls, dirty_labels, retired_labels,
                  retired_names) -> bool:
    """Does *config* refer to anything the edit retired or patched?

    The call node is checked by *identity* against the aligned
    program — a kept configuration's call must be a node of the new
    tree, not merely share a label with one.  Configurations at dirty
    (patched-in-place) calls are stale too: the node survived but the
    atoms it evaluates changed, so their recorded steps are void.
    """
    call = config.call
    if aligned_calls.get(call.label) is not call \
            or call.label in dirty_labels:
        return True
    if isinstance(config, KConfig):
        for name, time in config.benv.items():
            if name in retired_names \
                    or _mentions_retired(time, retired_labels):
                return True
        return _mentions_retired(config.time, retired_labels)
    return _mentions_retired(config.env, retired_labels)


def _addr_stale(addr, retired_labels, retired_names) -> bool:
    name, context = addr
    if "@" in name:  # synthetic pair-field address: car@<label>
        try:
            if int(name.rsplit("@", 1)[1]) in retired_labels:
                return True
        except ValueError:
            pass
    elif name in retired_names:
        return True
    return isinstance(context, tuple) \
        and _mentions_retired(context, retired_labels)


@dataclass(slots=True)
class AffectedClosure:
    """The damage report :func:`affected_closure` hands the resume."""

    affected: set = field(default_factory=set)   # configs to retire
    suspect: set = field(default_factory=set)    # addrs they wrote


def affected_closure(state: FixpointState, diff: ProgramDiff,
                     boot_config) -> AffectedClosure:
    """Close the stale set over the recorded dependency maps.

    Three rules to fixpoint, seeded by the configurations the edit
    made stale outright:

    * every address an affected configuration wrote is suspect;
    * every reader of a suspect address is affected;
    * a configuration all of whose discoverers are affected is
      affected (the new boot configuration is exempt — it needs no
      discoverer).
    """
    aligned_calls = diff.program.calls_by_label
    dirty_labels = diff.dirty_labels
    retired_labels = diff.retired_labels
    retired_names = diff.retired_names
    closure = AffectedClosure()
    affected = closure.affected
    suspect = closure.suspect
    queue = []
    for config in state.seen:
        if _config_stale(config, aligned_calls, dirty_labels,
                         retired_labels, retired_names):
            affected.add(config)
            queue.append(config)
    written_by: dict = {}
    for addr, writers in state.writers.items():
        for config in writers:
            written_by.setdefault(config, []).append(addr)
    forward: dict = {}
    for succ, preds in state.discovered.items():
        for pred in preds:
            forward.setdefault(pred, []).append(succ)
    readers = state.readers
    discovered = state.discovered
    while queue:
        config = queue.pop()
        for addr in written_by.get(config, ()):
            if addr in suspect:
                continue
            suspect.add(addr)
            for reader in readers.get(addr, ()):
                if reader not in affected:
                    affected.add(reader)
                    queue.append(reader)
        for succ in forward.get(config, ()):
            if succ in affected or succ == boot_config:
                continue
            if all(pred in affected for pred in discovered[succ]):
                affected.add(succ)
                queue.append(succ)
    return closure


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class EditOutcome:
    """One edit's result plus how it was obtained."""

    result: AnalysisResult
    mode: str            # "resumed" | "scratch"
    reason: str          # why scratch, or "" when resumed
    kept_ratio: float
    affected: int = 0    # configurations retired by the closure
    cleared: int = 0     # addresses cleared from the warm store
    seeds: int = 0       # configurations re-enqueued


class AnalysisSession:
    """One program's warm, editable, queryable analysis state."""

    __slots__ = ("analysis", "parameter", "plain", "program",
                 "machine", "store", "state", "boot_config", "result",
                 "edits", "resumed", "scratch", "_next_label")

    def __init__(self, program: Program, analysis: str, parameter: int,
                 plain: bool = False, budget: Budget | None = None):
        if analysis not in SESSION_ANALYSES:
            raise UsageError(
                f"analysis {analysis!r} does not support sessions; "
                f"choose from {', '.join(SESSION_ANALYSES)}")
        self.analysis = analysis
        self.parameter = parameter
        self.plain = plain
        self.edits = 0
        self.resumed = 0
        self.scratch = 0
        self._next_label = label_maximum(program.root) + 1
        self._run_scratch(program, budget)

    # -- fixpoint plumbing -------------------------------------------------

    def _fresh_label(self) -> int:
        label = self._next_label
        self._next_label += 1
        return label

    def _package(self, run: EngineRun) -> AnalysisResult:
        # The registry spec names the analysis and the depth it
        # reports, exactly as a cold run of the same analysis does.
        spec = registry().get(self.analysis)
        return result_from_run(run, self.program, spec.display,
                               spec.reported_parameter(self.parameter))

    def _adopt(self, program: Program, machine: Kernel,
               run: EngineRun) -> None:
        self.program = program
        self.machine = machine
        self.store = run.store
        self.state = run.fixpoint
        self.boot_config = machine.rep.initial_config(program)
        self.result = self._package(run)
        self._next_label = max(self._next_label,
                               label_maximum(program.root) + 1)

    def _run_scratch(self, program: Program,
                     budget: Budget | None) -> None:
        # The session patches its tree in place on later edits, so it
        # must own a private copy — the caller's program may be the
        # worker-wide cached instance.
        program = clone_program(program)
        machine = build_session_machine(self.analysis, self.parameter,
                                        program)
        run = run_single_store(
            machine, Recorder(),
            EngineOptions(budget=budget, track=True,
                          table_factory=PlainTable if self.plain
                          else None))
        self._adopt(program, machine, run)

    # -- editing -----------------------------------------------------------

    def edit(self, new_program: Program,
             budget: Budget | None = None) -> EditOutcome:
        """Re-analyze after an edit; warm resume when the diff allows.

        *new_program* is a fresh compile of the edited source; its
        labels are discarded in the warm path (the aligned tree keeps
        old labels for shared nodes and draws fresh ones for the
        rest) and kept verbatim in the scratch path.
        """
        self.edits += 1
        try:
            diff = align_program(self.program, new_program.root,
                                 self._fresh_label)
        except Exception as error:  # alignment must never kill a session
            return self._fall_back(new_program, budget,
                                   f"alignment failed: {error}", 0.0)
        if diff.kept_ratio < KEPT_RATIO_FLOOR:
            return self._fall_back(
                new_program, budget,
                f"only {diff.kept_ratio:.0%} of the tree survived "
                f"the edit", diff.kept_ratio)
        try:
            outcome = self._resume(diff, budget)
        except AnalysisTimeout:
            raise  # out of budget: a scratch run would be too
        except Exception as error:
            return self._fall_back(new_program, budget,
                                   f"resume failed: {error}",
                                   diff.kept_ratio)
        self.resumed += 1
        return outcome

    def _fall_back(self, new_program: Program, budget: Budget | None,
                   reason: str, kept_ratio: float) -> EditOutcome:
        self.scratch += 1
        self._run_scratch(new_program, budget)
        return EditOutcome(result=self.result, mode="scratch",
                           reason=reason, kept_ratio=kept_ratio)

    def _resume(self, diff: ProgramDiff,
                budget: Budget | None) -> EditOutcome:
        program = diff.program
        machine = build_session_machine(self.analysis, self.parameter,
                                        program)
        boot = machine.rep.initial_config(program)
        state = self.state
        closure = affected_closure(state, diff, boot)
        affected = closure.affected
        kept = state.seen - affected
        cleared = set(closure.suspect)
        for addr in self.store.addresses():
            if _addr_stale(addr, diff.retired_labels,
                           diff.retired_names):
                cleared.add(addr)
        # Seeds: the new boot, kept writers of every cleared address
        # (they re-derive their intact contributions), kept
        # discoverers of affected configurations (they re-produce the
        # still-reachable ones) — and, belt and braces, kept readers
        # of cleared addresses.
        seeds = [boot]
        seeded = {boot}
        old_writers = state.writers
        old_readers = state.readers
        for addr in cleared:
            for config in old_writers.get(addr, ()):
                if config not in affected and config not in seeded:
                    seeded.add(config)
                    seeds.append(config)
            for config in old_readers.get(addr, ()):
                if config not in affected and config not in seeded:
                    seeded.add(config)
                    seeds.append(config)
        old_discovered = state.discovered
        for config in affected:
            for pred in old_discovered.get(config, ()):
                if pred not in affected and pred not in seeded:
                    seeded.add(pred)
                    seeds.append(pred)
        resumed_state = FixpointState(
            seen=set(kept),
            readers={addr: live for addr, readers
                     in old_readers.items()
                     if (live := readers & kept)},
            writers={addr: live for addr, writers
                     in old_writers.items()
                     if (live := writers & kept)},
            discovered={succ: live for succ, preds
                        in old_discovered.items()
                        if succ in kept and (live := preds & kept)})
        self.store.clear_addresses(cleared)
        run = run_single_store(
            machine, Recorder(), EngineOptions(budget=budget),
            resume_store=self.store, resume_state=resumed_state,
            seeds=seeds)
        rendered = self._render(machine, program, run, budget)
        self._adopt(program, machine, rendered)
        return EditOutcome(result=self.result, mode="resumed",
                           reason="", kept_ratio=diff.kept_ratio,
                           affected=len(affected),
                           cleared=len(cleared), seeds=len(seeds))

    def _render(self, machine: Kernel, program: Program,
                run: EngineRun, budget: Budget | None = None
                ) -> EngineRun:
        """One breadth-first pass from boot at the final store.

        The resumed store can over-approximate (a kept configuration
        may be unreachable in the new program), so the public result
        is re-derived: every Recorder fact is monotone in the store,
        so stepping each boot-reachable configuration once against
        the final store reproduces exactly the facts, configurations
        and store a from-scratch run reports — and rebuilds the
        dependency maps, leaving the session in cold-run-equivalent
        state.  The pass is O(reachable configurations); its steps
        are *not* added to the fixpoint's step counter, but each is
        charged to *budget*, as the engine charges its own, so the
        edit's timeout bounds the whole edit.
        """
        charge = (budget or Budget()).charge
        source = run.store
        recorder = Recorder()
        rendered = AbsStore(source.table)
        state = FixpointState()
        readers_map = state.readers
        writers_map = state.writers
        discovered = state.discovered
        boot = machine.boot(rendered)
        seen = state.seen
        seen.add(boot)
        queue = [boot]
        index = 0
        while index < len(queue):
            charge()
            config = queue[index]
            index += 1
            reads: set = set()
            succs = machine.step(config, source, reads, recorder)
            for addr in reads:
                readers_map.setdefault(addr, set()).add(config)
            for succ, joins in succs:
                for addr, mask in joins:
                    if mask:
                        writers_map.setdefault(addr, set()).add(config)
                        rendered.join_mask(addr, mask)
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
                discovered.setdefault(succ, set()).add(config)
        return EngineRun(
            store=rendered, configs=frozenset(seen), steps=run.steps,
            elapsed=run.elapsed, requeues=run.requeues,
            delta_addresses=run.delta_addresses, recorder=recorder,
            fixpoint=state)

    # -- point queries -----------------------------------------------------

    def query(self, kind: str, target: str | None = None) -> dict:
        """Answer one query from the warm state.

        The PR-10 client layer (:mod:`repro.analysis.clients`) holds
        every implementation; the session contributes its warm store,
        kernel and configuration set.  ``value-of <var>`` — the
        values flowing to a variable, joined over contexts;
        ``call-sites-of <lam label>`` — the call sites whose operator
        may be that lambda; ``escaping <lam label>`` — may the lambda
        escape to the halt continuation or into a heap (pair) cell.
        Point queries touch only the demanded slice of the store.
        Pass kinds (``call-graph``, ``mono``, ``inlining``, and
        ``escaping`` without a target) answer from the rendered
        result.
        """
        validate_query(kind, target, session=True)
        if kind == "value-of":
            return value_of(self.store, target)
        if kind == "call-sites-of":
            return call_sites_of(self.machine, self.store,
                                 self.state.seen, parse_label(target))
        if kind == "escaping" and target is not None:
            return escaping_point(self.machine, self.store,
                                  self.state.seen, parse_label(target))
        return run_result_query(self.result, kind, target)

    def stats(self) -> dict:
        """Counters for the service's session bookkeeping."""
        return {"analysis": self.analysis, "parameter": self.parameter,
                "edits": self.edits, "resumed": self.resumed,
                "scratch": self.scratch,
                "configs": len(self.state.seen),
                "store_entries": len(self.store),
                "next_label": self._next_label}
