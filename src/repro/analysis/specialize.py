"""Per-policy engine specialization: a staged step loop for k-CFA.

The generic :class:`~repro.analysis.kernel.Kernel` pays the fully
general price (a polymorphic eval/apply dispatch, environment lookups
through the rep) for every policy.  This module is the partial
evaluator for the one policy family whose staged loop measured faster
than the generic kernel end to end: :class:`CompiledSharedKernel`,
for shared environments (the k-CFA family), builds a **pre-resolved
step function per call node** — pre-bound tick and address
constructors, monomorphic eval/apply dispatch, the §3.4 apply rule
inlined against the rep's extend memo.

Flat Scheme environments (m-CFA, poly-k-CFA, 0CFA) run the generic
kernel here; their faster tier is generated source
(:mod:`repro.analysis.codegen`), which only warm fleet workers use.
The FJ machines have no staged loop: the flat FJ machine memoizes its
own invoke plans (:meth:`repro.fj.poly.FJFlatMachine._invoke`).

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


def specialize_machine(machine):
    """The specialization stage: a staged machine for *machine*'s
    policy, or ``None`` when no specialization applies (flat Scheme
    environments, the pushdown rep, naive-engine machines, every FJ
    machine)."""
    if isinstance(machine, Kernel) and isinstance(machine.rep,
                                                  SharedEnv):
        return CompiledSharedKernel(machine.program, machine.rep)
    # Flat environments run the generic kernel: staged flat loops
    # measured no faster than it, cold or warm.
    # SummaryEnv (the pushdown rep) is deliberately not covered: its
    # step cost is already flat (entry keys are memoized and the
    # stack/heap split is static), and its entry environments depend
    # on run-time argument signatures, so there is nothing to fold at
    # compile time.  Its spec leaves the ``specialized`` knob off;
    # tests/test_pushdown.py asserts the knob stays honest.
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
