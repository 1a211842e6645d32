"""Per-policy engine specialization: staged step loops.

The generic :class:`~repro.analysis.kernel.Kernel` pays the fully
general price (a polymorphic eval/apply dispatch, environment lookups
through the rep) for every policy.  This module is the partial
evaluator the registry's policy-as-data refactor unlocked: given a
machine whose policy declares its axes (env rep shared/flat, tick
arity, alloc shape — see :mod:`repro.analysis.policies`), it builds a
**pre-resolved step function per program node**, staged against the
policy.  Two policies have one, the two whose staged loop measured
faster than the generic kernel end to end:

* :class:`CompiledSharedKernel` — shared environments (the k-CFA
  family): pre-bound tick and address constructors, monomorphic
  eval/apply dispatch, the §3.4 apply rule inlined against the rep's
  extend memo.
* :class:`ZeroFJFlatMachine` — the flat FJ machine under a
  receiver-insensitive *context-free* policy (``fj-poly`` at k = 0):
  per-statement compiled steps with all times folded to ``()`` and
  per-method entry records (kont address, parameter addresses,
  successor configuration) computed once.

Flat Scheme environments (m-CFA, poly-k-CFA, 0CFA) run the generic
kernel here; their faster tier is generated source
(:mod:`repro.analysis.codegen`), which only warm fleet workers use.

**The contract is byte-identity, trajectory included.**  A compiled
step must produce the same successors with the same joins *in the
same order* as the generic machine, and intern abstract values in the
same global order — the engine's worklist is FIFO, so matching
trajectories keep even the ``steps`` counter of a run identical
(and the golden suite pins reports down to the byte).  That is why
compilation is *lazy*, per node, at its first step: the generic
kernel interns a node's literal/closure bits at exactly that moment.
Within a primitive step, the continuation atom and the pair bit are
compiled lazily past the empty-argument bail-out for the same reason.

``tests/test_specialize.py`` holds every registered analysis to that
contract, in the bitset domain and in the tests' frozenset oracle,
selecting the tier through the run functions' ``tier`` keyword.
"""

from __future__ import annotations

from repro.analysis.domains import APair, BASIC, KClo, abstract_literal
from repro.analysis.kernel import KConfig, Kernel, SharedEnv
from repro.cps.syntax import (
    AppCall, FixCall, HaltCall, IfCall, Lam, PrimCall, Ref,
)
from repro.scheme.primitives import lookup_primitive

_MISSING = object()

#: The constant environment of every context-free flat policy.
_EMPTY = ()


def specialize_machine(machine):
    """The specialization stage: a staged machine for *machine*'s
    policy, or ``None`` when no specialization applies (flat Scheme
    environments, the pushdown rep, naive-engine machines,
    receiver-sensitive FJ policies, the map-based FJ machine)."""
    from repro.fj.poly import FJFlatMachine
    if isinstance(machine, Kernel):
        rep = machine.rep
        if isinstance(rep, SharedEnv):
            return CompiledSharedKernel(machine.program, rep)
        # Flat environments run the generic kernel: staged flat loops
        # measured no faster than it, cold or warm.
        # SummaryEnv (the pushdown rep) is deliberately not covered:
        # its step cost is already flat (entry keys are memoized and
        # the stack/heap split is static), and its entry environments
        # depend on run-time argument signatures, so there is nothing
        # to fold at compile time.  Its spec leaves the
        # ``specialized`` knob off; tests/test_pushdown.py asserts the
        # knob stays honest.
        return None
    if isinstance(machine, FJFlatMachine):
        policy = machine.policy
        if getattr(policy, "context_free", False) \
                and not policy.receiver_sensitive:
            return ZeroFJFlatMachine(machine.program, policy)
        return None
    return None


class CompiledSharedKernel(Kernel):
    """Shared environments (k-CFA): pre-bound tick and address
    constructors, the §3.4 apply rule inlined against the rep's
    extend memo.

    The step loop is compiled per call node, lazily: one dict probe
    on the call label (labels are unique per program) replaces the
    generic kernel's isinstance chain.
    """

    specialization = "shared"

    def boot(self, store):
        config = super().boot(store)
        self._compiled: dict[int, object] = {}
        self._compilers = {
            AppCall: self._compile_app,
            IfCall: self._compile_if,
            PrimCall: self._compile_prim,
            FixCall: self._compile_fix,
            HaltCall: self._compile_halt,
        }
        return config

    def step(self, config, store, reads, recorder):
        call = config.call
        fn = self._compiled.get(call.label)
        if fn is None:
            fn = self._compile(call)
            self._compiled[call.label] = fn
        return fn(config, store, reads, recorder)

    def _compile(self, call):
        compiler = self._compilers.get(type(call))
        if compiler is None:
            raise TypeError(f"cannot step call {call!r}")
        return compiler(call)

    def _lit_bit(self, exp):
        """The generic kernel's literal memo, shared so a fallback to
        the generic ``evaluate`` stays consistent."""
        bit = self._lit_bits.get(id(exp))
        if bit is None:
            bit = self.table.bit_for(abstract_literal(exp.datum))
            self._lit_bits[id(exp)] = bit
        return bit

    def _compile_halt(self, call: HaltCall):
        arg_ev = self._atom(call.arg)
        decode = self.table.decode

        def step(config, store, reads, recorder):
            recorder.halt_values |= decode(arg_ev(config, store, reads))
            return []
        return step

    def _atom(self, exp):
        if type(exp) is Ref:
            name = exp.name

            def ev(config, store, reads, _name=name):
                addr = (_name, config.benv[_name])
                reads.add(addr)
                return store.get_mask(addr)
            return ev
        if type(exp) is Lam:
            close_bit = self.rep.close_bit

            def ev(config, store, reads, _exp=exp):
                return close_bit(config, _exp)
            return ev
        bit = self._lit_bit(exp)
        return lambda config, store, reads, _bit=bit: _bit

    def _compile_app(self, call: AppCall):
        label = call.label
        fn_ev = self._atom(call.fn)
        arg_evs = tuple(self._atom(arg) for arg in call.args)
        nargs = len(arg_evs)
        basic = self._basic
        tick = self.rep.tick
        extend_memo = self.rep._extend_memo
        to_enter = self._to_enter
        arity: dict = {}

        def step(config, store, reads, recorder):
            operators = fn_ev(config, store, reads)
            if operators & basic:
                recorder.unknown_operator.add(label)
            arg_masks = [ev(config, store, reads) for ev in arg_evs]
            ctx = tick(label, config.time)
            succs = []
            lam_of = arity.get
            for operator in to_enter(config, operators, arg_masks,
                                     store):
                key = id(operator)
                lam = lam_of(key, _MISSING)
                if lam is _MISSING:
                    lam = operator.lam \
                        if type(operator) is KClo \
                        and len(operator.lam.params) == nargs else None
                    arity[key] = lam
                if lam is None:
                    continue
                key = (operator.benv, lam.label, ctx)
                body_benv = extend_memo.get(key)
                if body_benv is None:
                    body_benv = operator.benv.extend(lam.params, ctx)
                    extend_memo[key] = body_benv
                joins = tuple(((param, ctx), mask)
                              for param, mask in zip(lam.params,
                                                     arg_masks))
                recorder.record_apply(label, lam, body_benv)
                succs.append((KConfig(lam.body, body_benv, ctx),
                              joins))
            return succs
        return step

    def _compile_if(self, call: IfCall):
        test_ev = self._atom(call.test)
        then_call, else_call = call.then, call.orelse
        any_truthy = self.table.any_truthy
        any_falsy = self.table.any_falsy

        def step(config, store, reads, recorder):
            test = test_ev(config, store, reads)
            succs = []
            if any_truthy(test):
                succs.append(
                    (KConfig(then_call, config.benv, config.time), ()))
            if any_falsy(test):
                succs.append(
                    (KConfig(else_call, config.benv, config.time), ()))
            return succs
        return step

    def _compile_fix(self, call: FixCall):
        rep_fix = self.rep.fix

        def step(config, store, reads, recorder, _call=call):
            return [rep_fix(config, _call)]
        return step

    def _compile_prim(self, call: PrimCall):
        label = call.label
        prim = lookup_primitive(call.op)
        kind = prim.kind
        arg_evs = tuple(self._atom(arg) for arg in call.args)
        basic = self._basic
        table = self.table
        decode_iter = table.decode_iter
        bit_for = table.bit_for
        tick = self.rep.tick
        extend_memo = self.rep._extend_memo
        car_name = f"car@{label}"
        cdr_name = f"cdr@{label}"
        to_enter = self._to_enter
        cont_cell: list = []
        pair_memo: dict = {}
        arity: dict = {}

        def step(config, store, reads, recorder):
            arg_masks = [ev(config, store, reads) for ev in arg_evs]
            if kind == "error":
                return []
            for mask in arg_masks:
                if not mask:
                    return []
            ctx = tick(label, config.time)
            extra_joins = ()
            if kind == "basic":
                result = basic
            elif kind == "cons":
                pair = pair_memo.get(ctx)
                if pair is None:
                    car_addr = (car_name, ctx)
                    cdr_addr = (cdr_name, ctx)
                    pair = (car_addr, cdr_addr,
                            bit_for(APair(car_addr, cdr_addr)))
                    pair_memo[ctx] = pair
                car_addr, cdr_addr, result = pair
                extra_joins = ((car_addr, arg_masks[0]),
                               (cdr_addr, arg_masks[1]))
            else:  # car / cdr
                gathered = table.empty
                want_car = kind == "car"
                for value in decode_iter(arg_masks[0]):
                    if type(value) is APair:
                        addr = value.car if want_car else value.cdr
                        reads.add(addr)
                        gathered |= store.get_mask(addr)
                    elif value is BASIC:
                        gathered |= basic
                if not gathered:
                    return []
                result = gathered
            if not cont_cell:
                cont_cell.append(self._atom(call.cont))
            conts = cont_cell[0](config, store, reads)
            succs = []
            lam_of = arity.get
            for operator in to_enter(config, conts, (arg_masks, result),
                                     store):
                key = id(operator)
                lam = lam_of(key, _MISSING)
                if lam is _MISSING:
                    lam = operator.lam \
                        if type(operator) is KClo \
                        and len(operator.lam.params) == 1 else None
                    arity[key] = lam
                if lam is None:
                    continue
                key = (operator.benv, lam.label, ctx)
                body_benv = extend_memo.get(key)
                if body_benv is None:
                    body_benv = operator.benv.extend(lam.params, ctx)
                    extend_memo[key] = body_benv
                recorder.record_apply(label, lam, body_benv)
                succs.append(
                    (KConfig(lam.body, body_benv, ctx),
                     (((lam.params[0], ctx), result),) + extra_joins))
            if not succs and extra_joins:
                succs.append(
                    (KConfig(call, config.benv, config.time),
                     extra_joins))
            return succs
        return step


class ZeroFJFlatMachine:
    """The flat FJ machine under a receiver-insensitive context-free
    policy, with per-statement compiled steps and all times folded to
    ``()``.

    Constructed via :func:`specialize_machine`; delegates everything
    structural (entry seeding, class table, constructor wiring) to
    the generic machine it replaces and only overrides the step loop.
    """

    specialization = "zero-fj-flat"

    def __init__(self, program, policy):
        from repro.fj.poly import FJFlatMachine
        self.program = program
        self.policy = policy
        self._generic = FJFlatMachine(program, policy)

    def boot(self, store):
        config = self._generic.boot(store)
        self.table = self._generic.table
        self._compiled: dict[int, object] = {}
        return config

    def step(self, config, store, reads, recorder):
        stmt = config.stmt
        fn = self._compiled.get(stmt.label)
        if fn is None:
            fn = self._compile(stmt)
            self._compiled[stmt.label] = fn
        return fn(config, store, reads, recorder)

    # -- compilation ---------------------------------------------------

    def _compile(self, stmt):
        from repro.fj.syntax import (
            Cast, FieldAccess, Invoke, New, Return, VarExp,
        )
        if isinstance(stmt, Return):
            return self._compile_return(stmt)
        exp = stmt.exp
        if isinstance(exp, (VarExp, Cast)):
            return self._compile_move(stmt, exp.target
                                      if isinstance(exp, Cast)
                                      else exp.name)
        if isinstance(exp, FieldAccess):
            return self._compile_field_access(stmt, exp)
        if isinstance(exp, Invoke):
            return self._compile_invoke(stmt, exp)
        if isinstance(exp, New):
            return self._compile_new(stmt, exp)
        raise TypeError(f"cannot step statement {stmt!r}")

    def _succ_memo(self, following):
        """``kont_ptr -> PConfig(following, (), kont_ptr, ())``, one
        constructed configuration per continuation pointer."""
        from repro.fj.poly import PConfig
        memo: dict = {}

        def succ_for(kont_ptr):
            succ = memo.get(kont_ptr)
            if succ is None:
                succ = PConfig(following, _EMPTY, kont_ptr, _EMPTY)
                memo[kont_ptr] = succ
            return succ
        return succ_for

    def _compile_move(self, stmt, source_name):
        source = (source_name, _EMPTY)
        target = (stmt.var, _EMPTY)
        following = self.program.succ(stmt.label)
        if following is None:
            def dead(config, store, reads, recorder):
                reads.add(source)
                store.get_mask(source)
                return []
            return dead
        succ_for = self._succ_memo(following)

        def step(config, store, reads, recorder):
            reads.add(source)
            values = store.get_mask(source)
            joins = [(target, values)] if values else []
            return [(succ_for(config.kont_ptr), joins)]
        return step

    def _compile_field_access(self, stmt, exp):
        from repro.fj.poly import PObj
        source = (exp.target, _EMPTY)
        target = (stmt.var, _EMPTY)
        fieldname = exp.fieldname
        all_fields = self.program.all_fields
        field_key = self._generic._field_key
        decode_iter = self.table.decode_iter
        following = self.program.succ(stmt.label)
        addr_memo: dict = {}

        def addr_for(value):
            addr = addr_memo.get(value, _MISSING)
            if addr is _MISSING:
                addr = (field_key(fieldname), value.time) \
                    if isinstance(value, PObj) \
                    and fieldname in all_fields(value.classname) \
                    else None
                addr_memo[value] = addr
            return addr

        if following is None:
            def dead(config, store, reads, recorder):
                reads.add(source)
                for value in decode_iter(store.get_mask(source)):
                    addr = addr_for(value)
                    if addr is not None:
                        reads.add(addr)
                        store.get_mask(addr)
                return []
            return dead
        succ_for = self._succ_memo(following)

        def step(config, store, reads, recorder):
            reads.add(source)
            joins = []
            for value in decode_iter(store.get_mask(source)):
                addr = addr_for(value)
                if addr is None:
                    continue
                reads.add(addr)
                field_values = store.get_mask(addr)
                if field_values:
                    joins.append((target, field_values))
            return [(succ_for(config.kont_ptr), joins)]
        return step

    def _compile_return(self, stmt):
        from repro.fj.kcfa import HALT_PTR
        from repro.fj.poly import PConfig, PKont
        source = (stmt.var, _EMPTY)
        decode = self.table.decode
        decode_iter = self.table.decode_iter
        kont_memo: dict = {}

        def kont_entry(kont):
            entry = kont_memo.get(kont, _MISSING)
            if entry is _MISSING:
                entry = None
                if isinstance(kont, PKont):
                    entry = ((kont.var, kont.caller_entry),
                             PConfig(kont.stmt, kont.caller_entry,
                                     kont.kont_ptr, _EMPTY))
                kont_memo[kont] = entry
            return entry

        def step(config, store, reads, recorder):
            reads.add(source)
            values = store.get_mask(source)
            kont_ptr = config.kont_ptr
            if kont_ptr is HALT_PTR:
                recorder.halt_values |= decode(values)
                return []
            reads.add(kont_ptr)
            succs = []
            for kont in decode_iter(store.get_mask(kont_ptr)):
                entry = kont_entry(kont)
                if entry is None:
                    continue
                target, succ = entry
                joins = [(target, values)] if values else []
                succs.append((succ, joins))
            return succs
        return step

    def _compile_invoke(self, stmt, exp):
        from repro.fj.poly import PConfig, PKont, PObj
        label = stmt.label
        var = stmt.var
        receiver_addr = (exp.target, _EMPTY)
        arg_addrs = tuple((arg, _EMPTY) for arg in exp.args)
        nargs = len(arg_addrs)
        method_name = exp.method
        lookup_method = self.program.lookup_method
        decode_iter = self.table.decode_iter
        bit_for = self.table.bit_for
        following = self.program.succ(stmt.label)
        dispatch_memo: dict = {}   # receiver value -> method | None
        plan_memo: dict = {}       # qualified name -> entry plan
        kont_bits: dict = {}       # kont_ptr -> interned PKont bit
        recorded: set = set()

        def method_for(value):
            method = dispatch_memo.get(value, _MISSING)
            if method is _MISSING:
                method = None
                if isinstance(value, PObj):
                    found = lookup_method(value.classname, method_name)
                    if found is not None \
                            and len(found.params) == nargs:
                        method = found
                dispatch_memo[value] = method
            return method

        def plan_for(qualified_name, method):
            plan = plan_memo.get(qualified_name)
            if plan is None:
                kont_addr = (qualified_name, _EMPTY)
                plan = (kont_addr,
                        tuple((name, _EMPTY)
                              for name in method.param_names()),
                        PConfig(method.body[0], _EMPTY, kont_addr,
                                _EMPTY))
                plan_memo[qualified_name] = plan
            return plan

        def step(config, store, reads, recorder):
            reads.add(receiver_addr)
            receivers = store.get_mask(receiver_addr)
            if following is None:
                return []
            arg_masks = []
            for addr in arg_addrs:
                reads.add(addr)
                arg_masks.append(store.get_mask(addr))
            methods = {}
            for value in decode_iter(receivers):
                method = method_for(value)
                if method is not None:
                    methods[method.qualified_name] = method
            kont_ptr = config.kont_ptr
            succs = []
            for qualified_name, method in sorted(methods.items()):
                kont_bit = kont_bits.get(kont_ptr)
                if kont_bit is None:
                    kont_bit = bit_for(PKont(var, following, _EMPTY,
                                             _EMPTY, kont_ptr))
                    kont_bits[kont_ptr] = kont_bit
                kont_addr, param_addrs, succ = plan_for(
                    qualified_name, method)
                joins = [(kont_addr, kont_bit)]
                if receivers:
                    joins.append((("this", _EMPTY), receivers))
                if qualified_name not in recorded:
                    recorded.add(qualified_name)
                    recorder.invoke_targets.setdefault(
                        label, set()).add(qualified_name)
                    recorder.method_contexts.setdefault(
                        qualified_name, set()).add(_EMPTY)
                for addr, values in zip(param_addrs, arg_masks):
                    if values:
                        joins.append((addr, values))
                succs.append((succ, joins))
            return succs
        return step

    def _compile_new(self, stmt, exp):
        from repro.fj.poly import PObj
        arg_addrs = tuple((arg, _EMPTY) for arg in exp.args)
        field_key = self._generic._field_key
        wiring = tuple(
            ((field_key(fieldname), _EMPTY), param_index)
            for fieldname, param_index
            in self.program.ctor_wiring[exp.classname])
        obj = PObj(exp.classname, stmt.label, _EMPTY)
        obj_cell: list = []
        bit_for = self.table.bit_for
        target = (stmt.var, _EMPTY)
        following = self.program.succ(stmt.label)
        succ_for = self._succ_memo(following) \
            if following is not None else None

        def step(config, store, reads, recorder):
            arg_masks = []
            for addr in arg_addrs:
                reads.add(addr)
                arg_masks.append(store.get_mask(addr))
            joins = []
            for field_addr, param_index in wiring:
                if arg_masks[param_index]:
                    joins.append((field_addr, arg_masks[param_index]))
            recorder.objects.add(obj)
            if not obj_cell:
                obj_cell.append(bit_for(obj))
            joins.append((target, obj_cell[0]))
            if succ_for is None:
                return []
            return [(succ_for(config.kont_ptr), joins)]
        return step
