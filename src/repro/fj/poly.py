"""The flat-environment FJ machine — §4.4's polynomial collapse,
generalized over context policies.

Inspecting the Figure 9 semantics shows that every address in the range
of a binding environment shares one allocation time, so environments
can be replaced by that time with no loss of precision: ``BEnv ≅ Time``.
Objects become ``(class, site, base-time)`` and the system space
becomes polynomial in program size for fixed k.

:class:`FJFlatMachine` implements that collapsed machine once, with
every context decision delegated to an
:class:`~repro.analysis.policies.FJContextPolicy`:

* :class:`~repro.analysis.policies.FJCallSite` reproduces the
  historical ``fj-poly`` analysis (both §4.3/§4.5 ticking policies);
* :class:`~repro.analysis.policies.FJStack` is m-CFA transplanted to
  FJ (:mod:`repro.fj.mcfa`): top-m stack frames and ``this`` re-bound
  by copying the receiver's fields — flat-closure copying with fields
  as the free variables;
* :class:`~repro.analysis.policies.FJHybrid` is the object-/call-site
  sensitivity ladder (:mod:`repro.fj.hybrid`).

Receiver-*sensitive* policies (the latter two) take a per-receiver
invoke path: each dispatching object gets its own entry context.  The
receiver-insensitive path is byte-identical to the pre-kernel machine
(pinned by the golden suite).

Two deltas against the faithful map-based machine, both noted in the
original DESIGN.md:

* ``this`` is bound by *copy* into ``(this, t̂')`` rather than by
  aliasing the receiver's address — required for the uniform-time
  invariant, and reaching the same fixpoint (the copy is re-done when
  the source grows, via dependency tracking);
* field-less classes keep their allocation context (the map-based
  encoding collapses their empty records), so the collapsed machine is
  equal on classes with fields and finer on field-less ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.domains import AbsStore
from repro.analysis.engine import DEFAULT_TIER, EngineOptions, \
    codegen_stage, machine_path, run_single_store, specialize
from repro.analysis.policies import FJCallSite, FJContextPolicy
from repro.fj.class_table import FJProgram
from repro.fj.concrete import TICK_POLICIES
from repro.fj.kcfa import (
    HALT_PTR, FJResult, _FJRecorder, fj_result_from_run,
)
from repro.fj.syntax import (
    Assign, Cast, FieldAccess, Invoke, Method, New, Return, Stmt,
    VarExp,
)
from repro.errors import UsageError
from repro.util.budget import Budget

AbsTime = tuple
AbsAddr = tuple[str, AbsTime]


@dataclass(frozen=True, slots=True)
class PObj:
    """A collapsed abstract object: class + site + base time."""

    classname: str
    site: int
    time: AbsTime

    def __repr__(self) -> str:
        return f"obj[{self.classname}@{self.site}]{list(self.time)}"


@dataclass(frozen=True, slots=True)
class PKont:
    """A collapsed continuation: the caller is its entry time."""

    var: str
    stmt: Stmt
    caller_entry: AbsTime
    saved_time: AbsTime
    kont_ptr: object


class PConfig:
    """``(stmt, t̂_entry, p̂κ, t̂_now)`` — β̂ collapsed to its time.

    Hash cached at construction; the engine hashes configurations on
    every worklist and dependency operation.
    """

    __slots__ = ("stmt", "entry", "kont_ptr", "time", "_hash")

    def __init__(self, stmt: Stmt, entry: AbsTime, kont_ptr,
                 time: AbsTime):
        self.stmt = stmt
        self.entry = entry
        self.kont_ptr = kont_ptr
        self.time = time
        self._hash = hash((stmt, entry, kont_ptr, time))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is PConfig and self.stmt == other.stmt
            and self.entry == other.entry
            and self.kont_ptr == other.kont_ptr
            and self.time == other.time)

    def __repr__(self) -> str:
        return (f"PConfig(stmt={self.stmt!r}, entry={self.entry!r}, "
                f"kont_ptr={self.kont_ptr!r}, time={self.time!r})")


class FJFlatMachine:
    """The collapsed abstract transition relation, policy-driven."""

    def __init__(self, program: FJProgram, policy: FJContextPolicy):
        self.program = program
        self.policy = policy
        # The historical collapse stores a field at (fieldname, time),
        # sharing the namespace of variables at the same time.  The
        # receiver-sensitive policies tag field addresses ("f@f" —
        # '@' cannot appear in an FJ identifier) because the rebind
        # mode copies fields to the *method entry* context, exactly
        # where parameters and locals bind; an untagged copy would
        # merge a parameter named like a field into field reads.
        self._field_key = (
            (lambda fieldname: f"{fieldname}@f")
            if policy.receiver_sensitive else
            (lambda fieldname: fieldname))

    def initial(self, store: AbsStore) -> PConfig:
        program = self.program
        start = self.policy.initial()
        entry_obj = PObj(program.entry_class, -1, start)
        store.join(("this", start), {entry_obj})
        method = program.lookup_method(program.entry_class,
                                       program.entry_method)
        return PConfig(method.body[0], start, HALT_PTR, start)

    # -- the engine's Machine protocol ---------------------------------

    def boot(self, store: AbsStore) -> PConfig:
        """Adopt the store's value table and seed the entry object."""
        self.table = store.table
        return self.initial(store)

    def step(self, config: PConfig, store, reads: set[AbsAddr],
             recorder: _FJRecorder) -> list[tuple[PConfig, list]]:
        """One transfer-function application, in engine form."""
        return self.transitions(config, store, reads, recorder)

    # -- transitions ------------------------------------------------------

    def transitions(self, config: PConfig, store: AbsStore,
                    reads: set[AbsAddr], recorder: _FJRecorder
                    ) -> list[tuple[PConfig, list]]:
        stmt, entry = config.stmt, config.entry
        kont_ptr, now = config.kont_ptr, config.time
        if isinstance(stmt, Return):
            return self._return(stmt, entry, kont_ptr, now, store,
                                reads, recorder)
        exp = stmt.exp
        if isinstance(exp, VarExp):
            source = (exp.name, entry)
            reads.add(source)
            values = store.get_mask(source)
            joins = [((stmt.var, entry), values)] if values else []
            return self._advance(stmt, entry, kont_ptr, now, joins)
        if isinstance(exp, FieldAccess):
            source = (exp.target, entry)
            reads.add(source)
            joins = []
            for value in self.table.decode_iter(store.get_mask(source)):
                if isinstance(value, PObj) and exp.fieldname in \
                        self.program.all_fields(value.classname):
                    addr = (self._field_key(exp.fieldname), value.time)
                    reads.add(addr)
                    field_values = store.get_mask(addr)
                    if field_values:
                        joins.append(((stmt.var, entry), field_values))
            return self._advance(stmt, entry, kont_ptr, now, joins)
        if isinstance(exp, Invoke):
            return self._invoke(stmt, exp, entry, kont_ptr, now, store,
                                reads, recorder)
        if isinstance(exp, New):
            return self._new(stmt, exp, entry, kont_ptr, now, store,
                             reads, recorder)
        if isinstance(exp, Cast):
            source = (exp.target, entry)
            reads.add(source)
            values = store.get_mask(source)
            joins = [((stmt.var, entry), values)] if values else []
            return self._advance(stmt, entry, kont_ptr, now, joins)
        raise TypeError(f"cannot step statement {stmt!r}")

    def _advance(self, stmt: Stmt, entry: AbsTime, kont_ptr,
                 now: AbsTime, joins: list) -> list:
        following = self.program.succ(stmt.label)
        if following is None:
            return []
        succ = PConfig(following, entry, kont_ptr,
                       self.policy.step(stmt.label, now))
        return [(succ, joins)]

    def _return(self, stmt: Return, entry: AbsTime, kont_ptr,
                now: AbsTime, store: AbsStore, reads: set,
                recorder: _FJRecorder) -> list:
        source = (stmt.var, entry)
        reads.add(source)
        values = store.get_mask(source)
        if kont_ptr is HALT_PTR:
            recorder.halt_values |= self.table.decode(values)
            return []
        reads.add(kont_ptr)
        succs = []
        for kont in self.table.decode_iter(store.get_mask(kont_ptr)):
            if not isinstance(kont, PKont):
                continue
            joins = []
            if values:
                joins.append(((kont.var, kont.caller_entry), values))
            new_time = self.policy.ret(stmt.label, now,
                                       kont.saved_time)
            succs.append((PConfig(kont.stmt, kont.caller_entry,
                                  kont.kont_ptr, new_time), joins))
        return succs

    # -- invocation -------------------------------------------------------

    def _invoke(self, stmt: Assign, exp: Invoke, entry: AbsTime,
                kont_ptr, now: AbsTime, store: AbsStore, reads: set,
                recorder: _FJRecorder) -> list:
        receiver_addr = (exp.target, entry)
        reads.add(receiver_addr)
        receivers = store.get_mask(receiver_addr)
        following = self.program.succ(stmt.label)
        if following is None:
            return []
        arg_values = []
        for arg in exp.args:
            addr = (arg, entry)
            reads.add(addr)
            arg_values.append(store.get_mask(addr))
        if self.policy.receiver_sensitive:
            return self._invoke_per_receiver(
                stmt, exp, entry, kont_ptr, now, receivers, arg_values,
                following, store, reads, recorder)
        methods: dict[str, Method] = {}
        for value in self.table.decode_iter(receivers):
            if not isinstance(value, PObj):
                continue
            method = self.program.lookup_method(value.classname,
                                                exp.method)
            if method is not None and \
                    len(method.params) == len(exp.args):
                methods[method.qualified_name] = method
        succs = []
        for qualified_name, method in sorted(methods.items()):
            new_time = self.policy.invoke(stmt.label, now, entry, None)
            kont = PKont(stmt.var, following, entry, now, kont_ptr)
            joins: list = [((qualified_name, new_time),
                            self.table.bit_for(kont))]
            # this is bound by copy, keeping every address at t̂'.
            if receivers:
                joins.append((("this", new_time), receivers))
            self._record_entry(recorder, stmt.label, qualified_name,
                               new_time)
            self._bind_args(joins, method, arg_values, new_time)
            succs.append((PConfig(method.body[0], new_time,
                                  (qualified_name, new_time), new_time),
                          joins))
        return succs

    def _invoke_per_receiver(self, stmt: Assign, exp: Invoke,
                             entry: AbsTime, kont_ptr, now: AbsTime,
                             receivers, arg_values, following,
                             store: AbsStore, reads: set,
                             recorder: _FJRecorder) -> list:
        """One successor per dispatching receiver object: the entry
        context may depend on the receiver (object sensitivity), and
        ``this`` binds per the policy's ``this_mode``."""
        policy = self.policy
        targets = []
        for value in self.table.decode_iter(receivers):
            if not isinstance(value, PObj):
                continue
            method = self.program.lookup_method(value.classname,
                                                exp.method)
            if method is None or len(method.params) != len(exp.args):
                continue
            new_time = policy.invoke(stmt.label, now, entry, value)
            targets.append((method.qualified_name, method, new_time,
                            value))
        succs = []
        for qualified_name, method, new_time, receiver in sorted(
                targets, key=lambda t: (t[0], repr(t[2]), repr(t[3]))):
            kont = PKont(stmt.var, following, entry, now, kont_ptr)
            joins: list = [((qualified_name, new_time),
                            self.table.bit_for(kont))]
            joins.extend(self._bind_this(receiver, new_time, store,
                                         reads))
            self._record_entry(recorder, stmt.label, qualified_name,
                               new_time)
            self._bind_args(joins, method, arg_values, new_time)
            succs.append((PConfig(method.body[0], new_time,
                                  (qualified_name, new_time), new_time),
                          joins))
        return succs

    def _bind_this(self, receiver: PObj, new_time: AbsTime,
                   store: AbsStore, reads: set) -> list:
        """Bind ``this`` for one receiver, per the policy."""
        if self.policy.this_mode == "alias":
            return [(("this", new_time), self.table.bit_for(receiver))]
        # "rebind": flat-closure copying for objects — the receiver is
        # re-based into the entry context and its fields are copied
        # there, so every address the method touches shares one base
        # context.  Sound because FJ fields are constructor-only; the
        # copy re-runs when its source grows (dependency tracking).
        rebased = PObj(receiver.classname, receiver.site, new_time)
        joins = [(("this", new_time), self.table.bit_for(rebased))]
        for fieldname in self.program.all_fields(receiver.classname):
            key = self._field_key(fieldname)
            source = (key, receiver.time)
            reads.add(source)
            copied = store.get_mask(source)
            if copied:
                joins.append(((key, new_time), copied))
        return joins

    def _record_entry(self, recorder: _FJRecorder, label: int,
                      qualified_name: str, new_time: AbsTime) -> None:
        recorder.invoke_targets.setdefault(
            label, set()).add(qualified_name)
        recorder.method_contexts.setdefault(
            qualified_name, set()).add(new_time)

    @staticmethod
    def _bind_args(joins: list, method: Method, arg_values,
                   new_time: AbsTime) -> None:
        for name, values in zip(method.param_names(), arg_values):
            if values:
                joins.append(((name, new_time), values))

    def _new(self, stmt: Assign, exp: New, entry: AbsTime, kont_ptr,
             now: AbsTime, store: AbsStore, reads: set,
             recorder: _FJRecorder) -> list:
        alloc_time = self.policy.step(stmt.label, now)
        arg_values = []
        for arg in exp.args:
            addr = (arg, entry)
            reads.add(addr)
            arg_values.append(store.get_mask(addr))
        joins = []
        for fieldname, param_index in \
                self.program.ctor_wiring[exp.classname]:
            if arg_values[param_index]:
                joins.append(((self._field_key(fieldname), alloc_time),
                              arg_values[param_index]))
        obj = PObj(exp.classname, stmt.label, alloc_time)
        recorder.objects.add(obj)
        joins.append(((stmt.var, entry), self.table.bit_for(obj)))
        following = self.program.succ(stmt.label)
        if following is None:
            return []
        return [(PConfig(following, entry, kont_ptr, alloc_time),
                 joins)]


class FJPolyMachine(FJFlatMachine):
    """The historical §4.4 machine: flat contexts from call-site
    windows, with either of the paper's ticking policies."""

    def __init__(self, program: FJProgram, k: int,
                 tick_policy: str = "invocation"):
        if k < 0:
            raise UsageError(f"k must be non-negative, got {k}")
        if tick_policy not in TICK_POLICIES:
            raise UsageError(f"unknown tick_policy {tick_policy!r}")
        super().__init__(program, FJCallSite(k, tick_policy))
        self.k = k
        self.tick_policy = tick_policy


def run_flat_policy(machine: FJFlatMachine, display: str,
                    parameter: int, budget: Budget | None = None,
                    tier: str = DEFAULT_TIER) -> FJResult:
    """Drive one flat FJ machine to fixpoint and package the result —
    the single run harness behind every flat-machine analysis
    (``fj-poly``, ``fj-mcfa``, ``fj-hybrid``, ``fj-obj``).

    ``tier`` (:data:`~repro.analysis.engine.TIERS`) picks the step
    loop.  Receiver-insensitive context-free policies have all three:
    ``specialized`` is the per-statement compiled loop and
    ``codegen`` generated source (:mod:`repro.analysis.codegen`);
    every other policy runs generic whatever the tier.
    """
    staged = codegen_stage(machine, tier == "codegen")
    machine = staged if staged is not None \
        else specialize(machine, tier != "generic")
    run = run_single_store(machine, _FJRecorder(),
                           EngineOptions(budget=budget))
    result = fj_result_from_run(run, machine.program, display,
                                parameter, machine.policy.display)
    result.engine_path = machine_path(machine)
    return result


def analyze_fj_poly(program: FJProgram, k: int = 1,
                    tick_policy: str = "invocation",
                    budget: Budget | None = None,
                    tier: str = DEFAULT_TIER) -> FJResult:
    """Run the collapsed polynomial OO k-CFA."""
    return run_flat_policy(FJPolyMachine(program, k, tick_policy),
                           "FJ-poly-k-CFA", k, budget, tier)
