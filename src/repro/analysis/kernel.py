"""The AAM kernel: one CPS transfer function behind every analysis.

The paper's central observation is that 0CFA, k-CFA, m-CFA and
"naive polynomial k-CFA" are *one* abstract machine that varies only
along the context axis — how times are ticked, how addresses are
allocated, and whether environments are shared per-variable maps
(§3.4) or flat base contexts with free-variable copying (§5.2).  This
module makes that observation executable: :class:`Kernel` implements
the eval/apply transfer function exactly once, and everything
analysis-specific lives in an *environment representation* —
:class:`SharedEnv`, :class:`FlatEnv` or :class:`SummaryEnv` — carrying
a context policy (:mod:`repro.analysis.policies`).

Before this module, ``kcfa.py`` and ``flat_machine.py`` each hand-
rolled the whole transition relation; every engine or interning change
had to be ported machine-by-machine.  Now a new analysis is a policy
value handed to an env rep — a data point, not a module — and the
golden differential suite (``tests/test_golden_reports.py``) pins the
kernel to byte-identical reports against the pre-kernel seed.

The Featherweight Java machines (:mod:`repro.fj.kcfa`,
:mod:`repro.fj.poly`) keep their own syntax-directed step rules — FJ
is not CPS — but draw their tick/alloc behaviour from the same policy
objects and run on the same store/engine machinery.

Configurations keep their historical shapes (:class:`KConfig` for
shared environments, :class:`FConfig` for flat ones) so abstraction
maps, GC root computation and soundness checks are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cps.program import Program
from repro.cps.syntax import (
    AppCall, Call, CExp, FixCall, HaltCall, IfCall, Lam, Lit, PrimCall,
    Ref, free_vars_of_lam,
)
from repro.analysis.domains import (
    AConst, APair, AbsStore, Addr, BASIC, BEnv, EMPTY_BENV, FClo,
    FlatEnvAbs, KClo, SClo, SCont, Time, abstract_literal,
)
from repro.analysis.policies import SUMMARY_HEAP, summary_layout
from repro.analysis.results import AnalysisResult
from repro.scheme.primitives import lookup_primitive


class KConfig:
    """A store-less shared-env configuration ``(call, β̂, t̂)``.

    Hand-rolled rather than a dataclass: the engine hashes
    configurations on every worklist, dependency and dedup operation,
    so the hash is computed once at construction (call nodes hash by
    identity, so this is cheap) instead of per set operation.
    """

    __slots__ = ("call", "benv", "time", "_hash")

    def __init__(self, call: Call, benv: BEnv, time: Time):
        self.call = call
        self.benv = benv
        self.time = time
        self._hash = hash((call, benv, time))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is KConfig and self.call == other.call
            and self.benv == other.benv and self.time == other.time)

    def __repr__(self) -> str:
        return (f"KConfig(call={self.call!r}, benv={self.benv!r}, "
                f"time={self.time!r})")


class FConfig:
    """A flat abstract configuration ``(call, ρ̂)`` (hash cached at
    construction, like :class:`KConfig`)."""

    __slots__ = ("call", "env", "_hash")

    def __init__(self, call: Call, env: FlatEnvAbs):
        self.call = call
        self.env = env
        self._hash = hash((call, env))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is FConfig and self.call == other.call
            and self.env == other.env)

    def __repr__(self) -> str:
        return f"FConfig(call={self.call!r}, env={self.env!r})"


@dataclass
class Recorder:
    """Monotone facts accumulated across engine runs."""

    callees: dict[int, set[Lam]] = field(default_factory=dict)
    unknown_operator: set[int] = field(default_factory=set)
    entries: dict[int, set] = field(default_factory=dict)
    halt_values: set = field(default_factory=set)

    def record_apply(self, call_label: int, lam: Lam, entry_env) -> None:
        self.callees.setdefault(call_label, set()).add(lam)
        self.entries.setdefault(lam.label, set()).add(entry_env)

    def frozen_callees(self) -> dict[int, frozenset[Lam]]:
        return {label: frozenset(lams)
                for label, lams in self.callees.items()}

    def frozen_entries(self) -> dict[int, frozenset]:
        return {label: frozenset(envs)
                for label, envs in self.entries.items()}


class SharedEnv:
    """Shared-store binding environments (the k-CFA family, §3.4).

    Closures capture the binding environment *shared*: each free
    variable keeps the context it was bound in, which is precisely
    what makes k-CFA exponential for functional programs (§2.2).  The
    context policy is a ``tick(call_label, time) -> time`` callable;
    addresses are ``(variable, time)`` pairs (footnote 3).
    """

    kind = "shared"
    clo_type = KClo

    __slots__ = ("tick", "table", "_clo_bits", "_extend_memo",
                 "_fix_memo")

    def __init__(self, tick):
        self.tick = tick

    def boot(self, table) -> None:
        self.table = table
        self._clo_bits: dict[tuple, object] = {}
        self._extend_memo: dict[tuple, BEnv] = {}
        self._fix_memo: dict[tuple, tuple] = {}

    def initial_config(self, program: Program) -> KConfig:
        return KConfig(program.root, EMPTY_BENV, ())

    def ref_addr(self, config: KConfig, name: str) -> Addr:
        return (name, config.benv[name])

    def close_bit(self, config: KConfig, lam: Lam):
        key = (lam.label, config.benv)
        bit = self._clo_bits.get(key)
        if bit is None:
            bit = self.table.bit_for(
                KClo(lam, config.benv.restrict(free_vars_of_lam(lam))))
            self._clo_bits[key] = bit
        return bit

    def call_ctx(self, config: KConfig, call_label: int) -> Time:
        """The ticked time for this call — also the pair-field
        allocation context (§3.5.1)."""
        return self.tick(call_label, config.time)

    def with_call(self, config: KConfig, call: Call) -> KConfig:
        return KConfig(call, config.benv, config.time)

    def enter(self, call_label: int, lam: Lam, operator: KClo,
              arg_masks: list, config: KConfig, ctx: Time, store,
              reads: set, recorder: Recorder):
        """Bind parameters at the new time (the §3.4 apply rule)."""
        key = (operator.benv, lam.label, ctx)
        body_benv = self._extend_memo.get(key)
        if body_benv is None:
            body_benv = operator.benv.extend(lam.params, ctx)
            self._extend_memo[key] = body_benv
        joins = tuple(((param, ctx), mask)
                      for param, mask in zip(lam.params, arg_masks))
        recorder.record_apply(call_label, lam, body_benv)
        return KConfig(lam.body, body_benv, ctx), joins

    def fix(self, config: KConfig, call: FixCall):
        """letrec: bind every name at the *current* time."""
        now = config.time
        key = (config.benv, call.label, now)
        memo = self._fix_memo.get(key)
        if memo is None:
            extended = config.benv.extend(
                (name for name, _ in call.bindings), now)
            joins = []
            for name, lam in call.bindings:
                closure = KClo(
                    lam, extended.restrict(free_vars_of_lam(lam)))
                joins.append(((name, now), self.table.bit_for(closure)))
            memo = (extended, tuple(joins))
            self._fix_memo[key] = memo
        extended, joins = memo
        return KConfig(call.body, extended, now), joins


class FlatEnv:
    """Flat environments with free-variable copying (§5.2).

    A configuration's environment is a single bounded tuple of call
    labels; entering a lambda allocates a fresh environment via the
    context policy ``alloc(call_label, caller_env, lam, callee_env)``
    and *copies* the callee's free variables into it — the abstract
    image of flat-closure creation, which is what makes the state
    space polynomial (§4.4 projected back onto closures).
    """

    kind = "flat"
    clo_type = FClo

    __slots__ = ("alloc", "table", "_clo_bits")

    def __init__(self, alloc):
        self.alloc = alloc

    def boot(self, table) -> None:
        self.table = table
        self._clo_bits: dict[tuple, object] = {}

    def initial_config(self, program: Program) -> FConfig:
        return FConfig(program.root, ())

    def ref_addr(self, config: FConfig, name: str) -> Addr:
        return (name, config.env)

    def close_bit(self, config: FConfig, lam: Lam):
        key = (lam.label, config.env)
        bit = self._clo_bits.get(key)
        if bit is None:
            bit = self.table.bit_for(FClo(lam, config.env))
            self._clo_bits[key] = bit
        return bit

    def call_ctx(self, config: FConfig, call_label: int) -> FlatEnvAbs:
        """Pair fields allocate in the *current* environment — the
        callee environment is per-operator (see :meth:`enter`)."""
        return config.env

    def with_call(self, config: FConfig, call: Call) -> FConfig:
        return FConfig(call, config.env)

    def enter(self, call_label: int, lam: Lam, operator: FClo,
              arg_masks: list, config: FConfig, ctx, store,
              reads: set, recorder: Recorder):
        """Allocate ρ̂'', bind parameters, copy free variables (§5.2)."""
        new_env = self.alloc(call_label, config.env, lam, operator.env)
        joins: list[tuple[Addr, object]] = [
            ((param, new_env), mask)
            for param, mask in zip(lam.params, arg_masks)]
        if new_env != operator.env:
            for free in free_vars_of_lam(lam):
                source = (free, operator.env)
                reads.add(source)
                copied = store.get_mask(source)
                if copied:
                    joins.append(((free, new_env), copied))
        recorder.record_apply(call_label, lam, new_env)
        return FConfig(lam.body, new_env), joins

    def fix(self, config: FConfig, call: FixCall):
        """letrec: flat closures simply capture the current env."""
        env = config.env
        joins = tuple(
            ((name, env), self.table.bit_for(FClo(lam, env)))
            for name, lam in call.bindings)
        return FConfig(call.body, env), joins


def _entry_token(value) -> str:
    """A canonical string token for one abstract value in an entry key.

    Entry environments must be *structural* — derived from the key's
    value content, never from arrival order — because the engine's
    trajectory varies across value domains and hash seeds while the
    fixpoint (and the golden report bytes) must not.  Every value that
    can appear in a stripped argument mask renders to a stable string:
    summary closures carry only their label, pair addresses only their
    field tokens (their context is the constant heap), and constants
    their type-tagged datum.
    """
    if isinstance(value, SClo):
        return f"clo:{value.lam.label}"
    if isinstance(value, AConst):
        return f"const:{type(value.datum).__name__}:{value.datum!r}"
    if value is BASIC:
        return "basic"
    if isinstance(value, APair):
        return f"pair:{value.car[0]}:{value.cdr[0]}"
    return f"val:{value!r}"


class SummaryEnv:
    """Pushdown summarization (CFA2-style): the third env rep.

    Instead of a context *tuple*, a configuration's environment is a
    **function-entry summary key**: entering a user lambda interns the
    entry ``(lam label, call site, abstract argument signature)`` —
    one entry per call *edge* per argument signature — and analyzes
    the body once per distinct entry.  Continuation closures record the
    entry frame they were created in and *restore* it when entered —
    the return edge — so every entry's returns flow only to that
    entry's continuation parameter: perfect call/return matching
    without finite-k context tuples.  On the paper's §6 identity
    example the two call sites induce two entries (``x ↦ {3}`` vs
    ``x ↦ {4}``) whose returns never merge, which no finite-k rung of
    the poly-k-CFA ladder achieves.

    The cost stays in the flat envelope because user closures are
    environment-less (:class:`~repro.analysis.domains.SClo`): the same
    lambda flowing from two creation contexts is one operator, so the
    Van Horn–Mairson ladder's doubling is cut at every level and the
    entry table stays polynomial (argument masks grow monotonically
    per call site, so each site contributes a finite chain of keys).
    Captured variables pay for that: any reference outside its
    binder's user frame resolves to a name-keyed heap address
    (:data:`~repro.analysis.policies.SUMMARY_HEAP`) per the
    precomputed :func:`~repro.analysis.policies.summary_layout`, and
    escaping bindings are mirrored there (0CFA precision for captures,
    exact stack precision for everything else).

    Entry→callers edges and entry→exit-value summaries are recorded in
    :attr:`call_edges` / :attr:`summaries` as the analysis runs; the
    engine needs no extra propagation pass for them because return
    values travel through ordinary store joins at the caller's frame,
    which the dependency worklist already re-propagates.
    """

    kind = "summary"
    clo_type = (SClo, SCont)

    __slots__ = ("layout", "table", "_clo_bits", "_entry_memo",
                 "_tokens", "call_edges", "summaries")

    def __init__(self, program: Program):
        self.layout = summary_layout(program)

    def boot(self, table) -> None:
        self.table = table
        self._clo_bits: dict[object, object] = {}
        #: (lam label, raw argument-mask tuple) → interned entry env.
        self._entry_memo: dict[tuple, tuple] = {}
        #: abstract value → its entry token, one string per value.
        self._tokens: dict[object, str] = {}
        #: entry env → {(call label, caller env)} — the call-edge table.
        self.call_edges: dict[tuple, set] = {}
        #: exited frame env → joined exit-value mask (entry/exit
        #: summaries, observable by tests and tooling).
        self.summaries: dict[tuple, object] = {}

    def initial_config(self, program: Program) -> FConfig:
        return FConfig(program.root, ())

    def ref_addr(self, config: FConfig, name: str) -> Addr:
        layout = self.layout
        if layout.frame_of_binder[name] == \
                layout.owner_of_call[config.call.label]:
            return (name, config.env)
        return (name, SUMMARY_HEAP)

    def close_bit(self, config: FConfig, lam: Lam):
        if lam.is_user:
            bit = self._clo_bits.get(lam.label)
            if bit is None:
                bit = self.table.bit_for(SClo(lam))
                self._clo_bits[lam.label] = bit
            return bit
        key = (lam.label, config.env)
        bit = self._clo_bits.get(key)
        if bit is None:
            bit = self.table.bit_for(SCont(lam, config.env))
            self._clo_bits[key] = bit
        return bit

    def call_ctx(self, config: FConfig, call_label: int):
        """Pair fields allocate in the shared heap context — entry
        keys contain pair values, so an entry-keyed pair context would
        let keys grow through themselves (unbounded); the constant
        context keeps the value domain, and with it the key space,
        finite."""
        return SUMMARY_HEAP

    def with_call(self, config: FConfig, call: Call) -> FConfig:
        return FConfig(call, config.env)

    def _entry_env(self, lam: Lam, call_label: int,
                   arg_masks: list) -> tuple:
        key = (lam.label, call_label, tuple(arg_masks))
        env = self._entry_memo.get(key)
        if env is None:
            decode = self.table.decode_iter
            signature = tuple(
                tuple(sorted(self._token(value)
                             for value in decode(mask)
                             if not isinstance(value, SCont)))
                for mask in arg_masks)
            env = (lam.label, call_label, signature)
            self._entry_memo[key] = env
        return env

    def _token(self, value) -> str:
        token = self._tokens.get(value)
        if token is None:
            token = self._tokens[value] = _entry_token(value)
        return token

    def _bind(self, names, masks, env) -> list:
        joins = [((name, env), mask)
                 for name, mask in zip(names, masks)]
        heap_names = self.layout.heap_names
        for name, mask in zip(names, masks):
            if name in heap_names:
                joins.append(((name, SUMMARY_HEAP), mask))
        return joins

    def enter(self, call_label: int, lam: Lam, operator,
              arg_masks: list, config: FConfig, ctx, store,
              reads: set, recorder: Recorder):
        if type(operator) is SCont:
            # A continuation restores the frame it was created in;
            # crossing frames is a return — record the exit summary
            # for the frame being left.
            env = operator.env
            if env != config.env:
                exited = self.summaries.get(config.env,
                                            self.table.empty)
                for mask in arg_masks:
                    exited |= mask
                self.summaries[config.env] = exited
            recorder.record_apply(call_label, lam, env)
            return (FConfig(lam.body, env),
                    tuple(self._bind(lam.params, arg_masks, env)))
        # A user closure: intern the function entry, record the call
        # edge, and bind parameters in the entry frame.  The key is
        # the whole call edge — call site *and* argument signature —
        # so two sites passing equal arguments still get separate
        # entries whose continuations never cross-flow.  Continuation
        # bits are stripped from the *key* (a continuation embeds its
        # creation frame, so keeping them would let entries grow
        # through entries) but kept in the parameter *bindings*, which
        # is exactly what matches each entry's returns to its callers.
        env = self._entry_env(lam, call_label, arg_masks)
        self.call_edges.setdefault(env, set()).add(
            (call_label, config.env))
        recorder.record_apply(call_label, lam, env)
        return (FConfig(lam.body, env),
                tuple(self._bind(lam.params, arg_masks, env)))

    def fix(self, config: FConfig, call: FixCall):
        """letrec: bind environment-less user closures in the current
        frame (recursive references resolve through the heap — the
        layout classifies them as escaping, which keeps the entry
        table finite under recursion)."""
        env = config.env
        joins = []
        heap_names = self.layout.heap_names
        for name, lam in call.bindings:
            bit = self.close_bit(config, lam)
            joins.append(((name, env), bit))
            if name in heap_names:
                joins.append(((name, SUMMARY_HEAP), bit))
        return FConfig(call.body, env), tuple(joins)


class Kernel:
    """The single eval/apply transfer function, in engine form.

    Mask-native like its two hand-written predecessors: flow sets are
    the value-table masks of :mod:`repro.analysis.interning`, closures
    are hash-consed per ``(lambda, environment)``, and every store
    read is recorded in the engine's dependency set.  All per-analysis
    behaviour is delegated to the environment representation ``rep``.
    """

    def __init__(self, program: Program, rep):
        self.program = program
        self.rep = rep

    def initial(self):
        """The initial configuration (store-independent)."""
        return self.rep.initial_config(self.program)

    # -- the engine's Machine protocol ---------------------------------

    def boot(self, store: AbsStore):
        """Adopt the store's value table; CPS analyses seed nothing."""
        table = store.table
        self.table = table
        self._basic = table.bit_for(BASIC)
        self._lit_bits: dict[int, object] = {}
        #: app/prim configuration → (operator mask, inputs) at its last
        #: step: the semi-naive memo of :meth:`_to_enter`, kept only
        #: for the one store the run joins into, and not for flat reps.
        self._last_step: dict = {}
        self._memo_store = store if self.rep.kind != "flat" else None
        self.rep.boot(table)
        return self.rep.initial_config(self.program)

    def step(self, config, store, reads: set[Addr],
             recorder: Recorder) -> list[tuple[object, tuple]]:
        """One transfer-function application: ``(successor, joins)``
        pairs, joins as value-table masks."""
        rep = self.rep
        call = config.call
        if isinstance(call, AppCall):
            return self._app(call, config, store, reads, recorder)
        if isinstance(call, IfCall):
            test = self.evaluate(call.test, config, store, reads)
            succs = []
            if self.table.any_truthy(test):
                succs.append((rep.with_call(config, call.then), ()))
            if self.table.any_falsy(test):
                succs.append((rep.with_call(config, call.orelse), ()))
            return succs
        if isinstance(call, PrimCall):
            return self._prim(call, config, store, reads, recorder)
        if isinstance(call, FixCall):
            return [rep.fix(config, call)]
        if isinstance(call, HaltCall):
            recorder.halt_values |= self.table.decode(
                self.evaluate(call.arg, config, store, reads))
            return []
        raise TypeError(f"cannot step call {call!r}")

    # -- Ê ------------------------------------------------------------

    def evaluate(self, exp: CExp, config, store, reads: set[Addr]):
        """The mask of values *exp* may evaluate to."""
        if isinstance(exp, Ref):
            addr = self.rep.ref_addr(config, exp.name)
            reads.add(addr)
            return store.get_mask(addr)
        if isinstance(exp, Lam):
            return self.rep.close_bit(config, exp)
        if isinstance(exp, Lit):
            bit = self._lit_bits.get(id(exp))
            if bit is None:
                bit = self.table.bit_for(abstract_literal(exp.datum))
                self._lit_bits[id(exp)] = bit
            return bit
        raise TypeError(f"not an atomic expression: {exp!r}")

    # -- apply ---------------------------------------------------------

    def _to_enter(self, config, operators, inputs, store):
        """The operators of *operators* this step must enter.

        Semi-naive re-steps: when *config* is stepped again with the
        same *inputs*, entering an operator it entered last time would
        rebuild a successor already seen and joins already in the
        store, so only the operators new since then are entered, in
        interning order.  That holds only against the monotone store
        those joins went into (the naive driver steps against
        per-state stores) and only where ``enter`` reads nothing from
        the store (a flat rep copies free variables from it).
        """
        if store is self._memo_store:
            memo = self._last_step
            last = memo.get(config)
            memo[config] = (operators, inputs)
            if last is not None and last[1] == inputs:
                return self.table.decode_new(operators, last[0])
        return self.table.decode_iter(operators)

    def _app(self, call: AppCall, config, store, reads: set[Addr],
             recorder: Recorder) -> list:
        rep = self.rep
        operators = self.evaluate(call.fn, config, store, reads)
        if operators & self._basic:
            recorder.unknown_operator.add(call.label)
        arg_masks = [self.evaluate(arg, config, store, reads)
                     for arg in call.args]
        ctx = rep.call_ctx(config, call.label)
        clo_type = rep.clo_type
        succs = []
        for operator in self._to_enter(config, operators, arg_masks,
                                       store):
            if not isinstance(operator, clo_type):
                continue
            lam = operator.lam
            if len(lam.params) != len(call.args):
                continue
            succs.append(rep.enter(call.label, lam, operator,
                                   arg_masks, config, ctx, store,
                                   reads, recorder))
        return succs

    # -- primitives ----------------------------------------------------

    def _prim(self, call: PrimCall, config, store, reads: set[Addr],
              recorder: Recorder) -> list:
        rep = self.rep
        prim = lookup_primitive(call.op)
        arg_masks = [self.evaluate(arg, config, store, reads)
                     for arg in call.args]
        if any(not mask for mask in arg_masks):
            return []  # an argument is unreachable, so is the call
        if prim.kind == "error":
            return []
        ctx = rep.call_ctx(config, call.label)
        extra_joins: list[tuple[Addr, object]] = []
        if prim.kind == "basic":
            result = self._basic
        elif prim.kind == "cons":
            car_addr = (f"car@{call.label}", ctx)
            cdr_addr = (f"cdr@{call.label}", ctx)
            extra_joins.append((car_addr, arg_masks[0]))
            extra_joins.append((cdr_addr, arg_masks[1]))
            result = self.table.bit_for(APair(car_addr, cdr_addr))
        elif prim.kind in ("car", "cdr"):
            gathered = self.table.empty
            for value in self.table.decode_iter(arg_masks[0]):
                if isinstance(value, APair):
                    addr = value.car if prim.kind == "car" else value.cdr
                    reads.add(addr)
                    gathered |= store.get_mask(addr)
                elif value is BASIC:
                    # Quoted list structure abstracts to BASIC and can
                    # only contain basic data, so projecting stays BASIC.
                    gathered |= self._basic
            if not gathered:
                return []
            result = gathered
        else:
            raise ValueError(f"unknown primitive kind {prim.kind!r}")
        succs = []
        conts = self.evaluate(call.cont, config, store, reads)
        clo_type = rep.clo_type
        for operator in self._to_enter(config, conts,
                                       (arg_masks, result), store):
            if not isinstance(operator, clo_type):
                continue
            if len(operator.lam.params) != 1:
                continue
            succ, joins = rep.enter(call.label, operator.lam, operator,
                                    [result], config, ctx, store,
                                    reads, recorder)
            succs.append((succ, tuple(joins) + tuple(extra_joins)))
        if not succs and extra_joins:
            # Keep the pair fields even if no continuation flowed yet.
            # (A re-step that skipped every old continuation lands here
            # too: harmless, as the successor is *config* itself.)
            succs.append((rep.with_call(config, call),
                          tuple(extra_joins)))
        return succs


def result_from_run(run, program: Program, analysis: str,
                    parameter: int) -> AnalysisResult:
    """Package an engine run + :class:`Recorder` as a public result."""
    recorder: Recorder = run.recorder
    return AnalysisResult(
        program=program, analysis=analysis, parameter=parameter,
        store=run.store, config_count=len(run.configs),
        callees=recorder.frozen_callees(),
        unknown_operator=frozenset(recorder.unknown_operator),
        entries=recorder.frozen_entries(),
        halt_values=frozenset(recorder.halt_values),
        steps=run.steps, elapsed=run.elapsed,
        state_count=run.state_count, configs=run.configs)
