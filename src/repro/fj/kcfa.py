"""Abstract k-CFA for A-Normal Featherweight Java (paper Figure 9).

This is Shivers's k-CFA transplanted onto Java exactly as §4 does it:
abstract times are the last k labels, addresses pair a variable, field
or method with a time, and continuations are allocated in the store at
``(method, time)`` addresses.  Objects are a class name plus a *record
of field addresses* — the encoding "congruent to k-CFA's encoding of
closures" whose degeneracy (§4.4) the polynomial variant
(:mod:`repro.fj.poly`) exploits.

Both §4.3/§4.5 ticking policies are available (``"statement"`` and
``"invocation"``), matching the concrete machine.

Objects additionally record their allocation site, the standard
allocation-site sensitivity of OO points-to analyses; without it,
field-less classes would collapse to a single abstract object and the
Figure 1 points-to table would not be expressible.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Iterator

from repro.analysis.domains import AbsStore
from repro.analysis.engine import EngineOptions, EngineRun, \
    run_single_store
from repro.fj.class_table import FJProgram
from repro.fj.concrete import TICK_POLICIES
from repro.fj.syntax import (
    Assign, Cast, FieldAccess, Invoke, Method, New, Return, Stmt,
    VarExp,
)
from repro.errors import UsageError
from repro.util.budget import Budget

AbsTime = tuple[int, ...]
AbsAddr = tuple[str, AbsTime]


class FJBEnv:
    """An immutable binding environment: name → abstract address.

    Unlike the CPS analyses' environments, values are full addresses —
    the Figure 9 invocation rule *aliases* ``this`` to the receiver
    variable's address, so the address name can differ from the bound
    name.
    """

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, items: Iterable[tuple[str, AbsAddr]] = ()):
        pairs = tuple(sorted(items))
        self._items = pairs
        self._dict = dict(pairs)
        self._hash = hash(pairs)

    def __getitem__(self, name: str) -> AbsAddr:
        return self._dict[name]

    def get(self, name: str, default=None):
        return self._dict.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._dict

    def items(self) -> tuple[tuple[str, AbsAddr], ...]:
        return self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self._dict)

    def __eq__(self, other) -> bool:
        return isinstance(other, FJBEnv) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}→{addr}" for name, addr in self._items)
        return "{" + inner + "}"


@dataclass(frozen=True, slots=True)
class AObj:
    """An abstract object: class, allocation site, field record."""

    classname: str
    site: int
    benv: FJBEnv  # field name → address

    def __repr__(self) -> str:
        return f"obj[{self.classname}@{self.site}]{self.benv!r}"


@dataclass(frozen=True, slots=True)
class AKont:
    """An abstract continuation (Figure 7's ˆKont plus saved time)."""

    var: str
    stmt: Stmt
    benv: FJBEnv
    saved_time: AbsTime
    kont_ptr: object  # AbsAddr or HALT_PTR

    def __repr__(self) -> str:
        return f"kont[{self.var}@{self.stmt.label}]"


class _HaltPtr:
    def __repr__(self) -> str:
        return "#halt-ptr"


HALT_PTR = _HaltPtr()


class FJConfig:
    """A store-less abstract state: ``(stmt, β̂, p̂κ, t̂)`` (hash cached
    at construction; the engine hashes configurations constantly)."""

    __slots__ = ("stmt", "benv", "kont_ptr", "time", "_hash")

    def __init__(self, stmt: Stmt, benv: FJBEnv, kont_ptr,
                 time: AbsTime):
        self.stmt = stmt
        self.benv = benv
        self.kont_ptr = kont_ptr
        self.time = time
        self._hash = hash((stmt, benv, kont_ptr, time))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is FJConfig and self.stmt == other.stmt
            and self.benv == other.benv
            and self.kont_ptr == other.kont_ptr
            and self.time == other.time)

    def __repr__(self) -> str:
        return (f"FJConfig(stmt={self.stmt!r}, benv={self.benv!r}, "
                f"kont_ptr={self.kont_ptr!r}, time={self.time!r})")


@dataclass
class FJResult:
    """What OO k-CFA learned about a program."""

    program: FJProgram
    analysis: str
    parameter: int
    tick_policy: str
    store: AbsStore
    configs: frozenset
    method_contexts: dict[str, frozenset[AbsTime]]
    objects: frozenset[AObj]
    invoke_targets: dict[int, frozenset[str]]
    halt_values: frozenset
    steps: int
    elapsed: float = 0.0
    #: Which step loop ran — ``generic``, ``specialized:<name>`` or
    #: ``codegen:<name>`` (provenance only; never part of
    #: :meth:`summary`).
    engine_path: str = "generic"

    # -- queries ---------------------------------------------------------

    def points_to(self, name: str) -> frozenset:
        """Objects a variable may point to, joined over contexts.

        Works for both machine families: map-based results hold
        :class:`AObj`, flat results :class:`~repro.fj.poly.PObj` —
        anything with a ``classname`` that is not a continuation.
        """
        values = set()
        for (addr_name, _time), addr_values in self.store.items():
            if addr_name == name:
                values.update(value for value in addr_values
                              if hasattr(value, "classname"))
        return frozenset(values)

    def objects_of_class(self, classname: str) -> frozenset[AObj]:
        return frozenset(obj for obj in self.objects
                         if obj.classname == classname)

    def method_context_count(self, qualified_name: str) -> int:
        return len(self.method_contexts.get(qualified_name, frozenset()))

    def total_environments(self) -> int:
        """Σ method analysis contexts + distinct abstract objects —
        the O(N+M) quantity of Figure 1."""
        contexts = sum(len(times)
                       for times in self.method_contexts.values())
        return contexts + len(self.objects)

    def monomorphic_call_sites(self) -> list[int]:
        """Invocation sites with exactly one resolved target."""
        return sorted(label
                      for label, targets in self.invoke_targets.items()
                      if len(targets) == 1)

    def summary(self) -> dict[str, object]:
        return {
            "analysis": self.analysis,
            "parameter": self.parameter,
            "tick_policy": self.tick_policy,
            "statements": self.program.statement_count(),
            "configs": len(self.configs),
            "objects": len(self.objects),
            "environments": self.total_environments(),
            "store_entries": len(self.store),
            "mono_sites": len(self.monomorphic_call_sites()),
            "steps": self.steps,
            "elapsed": round(self.elapsed, 6),
        }

    def __repr__(self) -> str:
        return (f"<{self.analysis}({self.parameter}, "
                f"{self.tick_policy}) configs={len(self.configs)} "
                f"objects={len(self.objects)}>")


@dataclass
class _FJRecorder:
    method_contexts: dict[str, set[AbsTime]] = \
        dataclass_field(default_factory=dict)
    objects: set[AObj] = dataclass_field(default_factory=set)
    invoke_targets: dict[int, set[str]] = \
        dataclass_field(default_factory=dict)
    halt_values: set = dataclass_field(default_factory=set)


class FJKCFAMachine:
    """The Figure 9 abstract transition relation.

    The machine owns the syntax-directed step rules; every context
    decision is delegated to an
    :class:`~repro.analysis.policies.FJContextPolicy` (here the
    :class:`~repro.analysis.policies.FJCallSite` family — the
    map-based machine has no flat entry context, so it cannot host
    receiver-sensitive policies; those run on
    :class:`~repro.fj.poly.FJFlatMachine`).
    """

    def __init__(self, program: FJProgram, k: int,
                 tick_policy: str = "invocation"):
        from repro.analysis.policies import FJCallSite
        if k < 0:
            raise UsageError(f"k must be non-negative, got {k}")
        if tick_policy not in TICK_POLICIES:
            raise UsageError(f"unknown tick_policy {tick_policy!r}")
        self.program = program
        self.k = k
        self.tick_policy = tick_policy
        self.policy = FJCallSite(k, tick_policy)

    # -- time ----------------------------------------------------------

    def simple_tick(self, label: int, time: AbsTime) -> AbsTime:
        return self.policy.step(label, time)

    def invoke_tick(self, label: int, time: AbsTime) -> AbsTime:
        return self.policy.invoke(label, time, None, None)

    # -- initial state ----------------------------------------------------

    def initial(self, store: AbsStore) -> FJConfig:
        program = self.program
        entry_obj = AObj(program.entry_class, -1, FJBEnv())
        entry_addr = ("%entry", ())
        store.join(entry_addr, {entry_obj})
        method = program.lookup_method(program.entry_class,
                                       program.entry_method)
        benv_items = [("this", entry_addr)]
        benv_items += [(local, (local, ()))
                       for local in method.local_names()]
        return FJConfig(method.body[0], FJBEnv(benv_items), HALT_PTR, ())

    # -- the engine's Machine protocol ---------------------------------

    def boot(self, store: AbsStore) -> FJConfig:
        """Adopt the store's value table and seed the entry object."""
        self.table = store.table
        return self.initial(store)

    def step(self, config: FJConfig, store, reads: set[AbsAddr],
             recorder: "_FJRecorder") -> list[tuple[FJConfig, list]]:
        """One transfer-function application, in engine form."""
        return self.transitions(config, store, reads, recorder)

    # -- transitions (Figure 9) ----------------------------------------------

    def transitions(self, config: FJConfig, store: AbsStore,
                    reads: set[AbsAddr], recorder: _FJRecorder
                    ) -> list[tuple[FJConfig, list]]:
        stmt, benv = config.stmt, config.benv
        kont_ptr, now = config.kont_ptr, config.time
        if isinstance(stmt, Return):
            return self._return(stmt, benv, kont_ptr, now, store, reads,
                                recorder)
        exp = stmt.exp
        if isinstance(exp, VarExp):
            reads.add(benv[exp.name])
            values = store.get_mask(benv[exp.name])
            joins = [(benv[stmt.var], values)] if values else []
            return self._advance(stmt, benv, kont_ptr, now, joins)
        if isinstance(exp, FieldAccess):
            reads.add(benv[exp.target])
            joins = []
            receivers = store.get_mask(benv[exp.target])
            for value in self.table.decode_iter(receivers):
                if isinstance(value, AObj) and \
                        exp.fieldname in value.benv:
                    addr = value.benv[exp.fieldname]
                    reads.add(addr)
                    field_values = store.get_mask(addr)
                    if field_values:
                        joins.append((benv[stmt.var], field_values))
            return self._advance(stmt, benv, kont_ptr, now, joins)
        if isinstance(exp, Invoke):
            return self._invoke(stmt, exp, benv, kont_ptr, now, store,
                                reads, recorder)
        if isinstance(exp, New):
            return self._new(stmt, exp, benv, kont_ptr, now, store,
                             reads, recorder)
        if isinstance(exp, Cast):
            reads.add(benv[exp.target])
            values = store.get_mask(benv[exp.target])
            joins = [(benv[stmt.var], values)] if values else []
            return self._advance(stmt, benv, kont_ptr, now, joins)
        raise TypeError(f"cannot step statement {stmt!r}")

    def _advance(self, stmt: Stmt, benv: FJBEnv, kont_ptr,
                 now: AbsTime, joins: list) -> list:
        following = self.program.succ(stmt.label)
        if following is None:
            return []
        succ = FJConfig(following, benv, kont_ptr,
                        self.simple_tick(stmt.label, now))
        return [(succ, joins)]

    def _return(self, stmt: Return, benv: FJBEnv, kont_ptr,
                now: AbsTime, store: AbsStore, reads: set,
                recorder: _FJRecorder) -> list:
        reads.add(benv[stmt.var])
        values = store.get_mask(benv[stmt.var])
        if kont_ptr is HALT_PTR:
            recorder.halt_values |= self.table.decode(values)
            return []
        reads.add(kont_ptr)
        succs = []
        for kont in self.table.decode_iter(store.get_mask(kont_ptr)):
            if not isinstance(kont, AKont):
                continue
            joins = []
            if values:
                joins.append((kont.benv[kont.var], values))
            new_time = self.policy.ret(stmt.label, now,
                                       kont.saved_time)
            succs.append((FJConfig(kont.stmt, kont.benv, kont.kont_ptr,
                                   new_time), joins))
        return succs

    def _invoke(self, stmt: Assign, exp: Invoke, benv: FJBEnv,
                kont_ptr, now: AbsTime, store: AbsStore, reads: set,
                recorder: _FJRecorder) -> list:
        receiver_addr = benv[exp.target]
        reads.add(receiver_addr)
        receivers = store.get_mask(receiver_addr)
        methods: dict[str, Method] = {}
        for value in self.table.decode_iter(receivers):
            if not isinstance(value, AObj):
                continue
            method = self.program.lookup_method(value.classname,
                                                exp.method)
            if method is not None and \
                    len(method.params) == len(exp.args):
                methods[method.qualified_name] = method
        arg_values = []
        for arg in exp.args:
            reads.add(benv[arg])
            arg_values.append(store.get_mask(benv[arg]))
        following = self.program.succ(stmt.label)
        if following is None:
            return []
        succs = []
        for qualified_name, method in sorted(methods.items()):
            recorder.invoke_targets.setdefault(
                stmt.label, set()).add(qualified_name)
            new_time = self.invoke_tick(stmt.label, now)
            recorder.method_contexts.setdefault(
                qualified_name, set()).add(new_time)
            kont = AKont(stmt.var, following, benv, now, kont_ptr)
            kont_addr = (qualified_name, new_time)
            joins: list = [(kont_addr, self.table.bit_for(kont))]
            # β' = [this ↦ β(v0)] — this aliases the receiver address.
            benv_items = [("this", receiver_addr)]
            for name, values in zip(method.param_names(), arg_values):
                addr = (name, new_time)
                benv_items.append((name, addr))
                if values:
                    joins.append((addr, values))
            for local in method.local_names():
                benv_items.append((local, (local, new_time)))
            succs.append((FJConfig(method.body[0], FJBEnv(benv_items),
                                   kont_addr, new_time), joins))
        return succs

    def _new(self, stmt: Assign, exp: New, benv: FJBEnv, kont_ptr,
             now: AbsTime, store: AbsStore, reads: set,
             recorder: _FJRecorder) -> list:
        alloc_time = next_time = self.policy.step(stmt.label, now)
        arg_values = []
        for arg in exp.args:
            reads.add(benv[arg])
            arg_values.append(store.get_mask(benv[arg]))
        joins = []
        record = []
        for fieldname, param_index in \
                self.program.ctor_wiring[exp.classname]:
            addr = (fieldname, alloc_time)
            record.append((fieldname, addr))
            if arg_values[param_index]:
                joins.append((addr, arg_values[param_index]))
        obj = AObj(exp.classname, stmt.label, FJBEnv(record))
        recorder.objects.add(obj)
        joins.append((benv[stmt.var], self.table.bit_for(obj)))
        following = self.program.succ(stmt.label)
        if following is None:
            return []
        succ = FJConfig(following, benv, kont_ptr, next_time)
        return [(succ, joins)]


def fj_result_from_run(run: EngineRun, program: FJProgram,
                       analysis: str, parameter: int,
                       tick_policy: str) -> FJResult:
    """Package an engine run + :class:`_FJRecorder` as an FJResult."""
    recorder: _FJRecorder = run.recorder
    return FJResult(
        program=program, analysis=analysis, parameter=parameter,
        tick_policy=tick_policy, store=run.store, configs=run.configs,
        method_contexts={name: frozenset(times) for name, times
                         in recorder.method_contexts.items()},
        objects=frozenset(recorder.objects),
        invoke_targets={label: frozenset(targets) for label, targets
                        in recorder.invoke_targets.items()},
        halt_values=frozenset(recorder.halt_values),
        steps=run.steps, elapsed=run.elapsed)


def analyze_fj_kcfa(program: FJProgram, k: int = 1,
                    tick_policy: str = "invocation",
                    budget: Budget | None = None) -> FJResult:
    """Run OO k-CFA with the single-threaded store."""
    run = run_single_store(FJKCFAMachine(program, k, tick_policy),
                           _FJRecorder(), EngineOptions(budget=budget))
    return fj_result_from_run(run, program, "FJ-k-CFA", k, tick_policy)
