"""Source-level codegen: emitted step loops + bit-parallel transfer.

The top engine tier (``codegen`` in :data:`repro.analysis.engine.
TIERS`).  The specializer builds a closure per node at its first
step; this module walks the whole compiled program **ahead of time**
and emits actual Python source — one step function per labeled node,
with addresses, labels, primitive kinds, constructor wiring and
successor plans inlined as literals — which is ``exec``'d into a
module and driven unchanged by the inlined single-store loop in
:mod:`repro.analysis.engine`.  Generated modules are content-addressed
and cached (:class:`~repro.cache.CodegenCache`), so the emission walk
is paid once per ``(schema, kind, program)``.

Only warm fleet workers run this tier.  Emitting a module and
``compile()``-ing it costs far more than one fixpoint of the cheap
analyses, so it pays off only where the module is reused across
jobs; one-shot runs take the specialized or generic loop instead.

Covered kinds
-------------

* ``zero-flat`` — flat environments under a context-free allocator
  (0CFA; m-CFA and poly-k-CFA at depth 0).
* ``flat`` — flat environments at depth ≥ 1: straight-line bodies
  with the allocator and the §5.2 copy loop inlined.  Addresses
  depend on the run-time environment, so there is no constant-address
  folding — instead each apply node memoizes a per-(environment,
  operator) *plan* (allocation, record hooks, copy-loop sources and
  targets resolved once) and runs the same packed-shadow bit-parallel
  transfer over the plan's targets as the context-free kinds.
* ``zero-fj-flat`` — the flat FJ machine under a receiver-insensitive
  context-free policy (``fj-poly`` at k = 0).

Declined, deliberately (their specs leave the ``codegen`` knob off):

* shared environments (the k-CFA family) — addresses are
  ``(name, context)`` with run-time contexts and the binding
  environments are per-configuration, so there are no constants to
  inline beyond what :class:`CompiledSharedKernel` already pre-binds;
* the pushdown-summary rep — declined for the same reasons the
  specializer documents (entry environments depend on run-time
  argument signatures);
* the naive §3.6 driver (``kcfa-naive``, ``kcfa-gc``, ``fj-kcfa-gc``)
  — per-state frozen stores, shared envs, and the driver itself is
  the object of study;
* the map-based ``fj-kcfa`` machine and the receiver-sensitive flat
  FJ policies (``fj-mcfa``, ``fj-hybrid``, ``fj-obj``) — per-receiver
  times mean per-statement addresses are not compile-time constants.

Bit-parallel transfer
---------------------

For the mask-native context-free kinds every join target is a
compile-time constant, so a successor's parameter block is a
*contiguous address range* known at emission time.  Each generated
apply/invoke entry keeps a **packed shadow**: the parameter masks
side by side in one big int, one lane per address.  A step batches
its per-address ``|=`` joins into a single multi-word operation::

    packed = m0 | (m1 << width) | (m2 << (2 * width))
    merged = shadow | packed

Growth detection is **one compare per range** (``merged == shadow``:
nothing can grow, emit no joins at all — the saturated steady state
of a fixpoint run); otherwise an XOR picks out exactly the grown
lanes and only those joins are emitted.  The shadow is a monotone
under-approximation of the store (it only accumulates masks the
engine is about to join, and the engine applies every completed
step's joins), so an omitted join is provably growthless: the engine
would have called ``join_mask`` and discarded it.  Once a plan has
yielded its successor at least once, a fully saturated step may even
omit the ``(succ, ())`` tuple itself — the successor is already in
the engine's seen set, so an empty join list is a no-op.  Omitting
either skips per-address dict work without touching ``changed`` order
— which is why trajectories (and ``steps`` counters) stay identical
to the generic machine.  The driver observes only joins that grow the
store, so no run can tell the difference.

**The contract is byte-identity, trajectory included** — the same
contract :mod:`repro.analysis.specialize` documents.  Generated
binders run lazily at a node's first step and intern constant bits in
exactly the order the generic kernel would; ``tests/test_specialize.py``
holds every covered analysis to it across both value domains.

Cache key
---------

``sha256({schema, kind, program fingerprint})``.  The *kind string is
the whole policy spec*: emitted source for ``zero-flat`` folds every
context to ``()`` regardless of which context-free allocator produced
it, and ``flat`` source calls the allocator at run time — so depth
and shape provably do not appear in the text.  The program
fingerprint hashes the labeled AST's repr (dataclass reprs are
content-complete, labels included).
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.domains import FClo, abstract_literal
from repro.analysis.kernel import FConfig, FlatEnv, Kernel
from repro.cache import (
    CODEGEN_SCHEMA_VERSION, CodegenCache, default_codegen_dir,
)
from repro.cps.syntax import (
    AppCall, FixCall, HaltCall, IfCall, Lam, PrimCall, Ref,
    free_vars_of_lam,
)
from repro.fj.syntax import (
    Cast, FieldAccess, Invoke, New, Return, VarExp,
)
from repro.scheme.primitives import lookup_primitive

#: Sentinel shared with generated modules (``dict.get`` default that
#: can never be a real entry — mirrors the specializer's ``_MISSING``).
MISSING = object()

_EMPTY = ()

#: The kinds :func:`generate_source` knows how to emit.
CODEGEN_KINDS = ("zero-flat", "flat", "zero-fj-flat")


# -- keys and the process-default cache --------------------------------

def program_fingerprint(program) -> str:
    """Content hash of a compiled program's labeled AST.

    Works for both :class:`~repro.cps.program.Program` (hash the root
    call's repr — every node is a dataclass whose repr prints all
    fields, labels included) and :class:`~repro.fj.class_table.
    FJProgram` (class definitions plus the entry point).  Memoized on
    the program object, like the specializer's structural plans.
    """
    cached = getattr(program, "_codegen_fingerprint", None)
    if cached is None:
        if hasattr(program, "calls_by_label"):
            text = repr(program.root)
        else:
            text = repr((program.classes, program.entry_class,
                         program.entry_method))
        cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
        try:
            program._codegen_fingerprint = cached
        except AttributeError:
            pass
    return cached


def codegen_key(program, kind: str) -> str:
    """The content-addressed key of one generated module:
    ``(codegen schema version, policy spec, program content key)``."""
    document = json.dumps({
        "schema": CODEGEN_SCHEMA_VERSION,
        "kind": kind,
        "program": program_fingerprint(program),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


_DEFAULT_CACHE: CodegenCache | None = None


def default_codegen_cache() -> CodegenCache:
    """The process-wide :class:`~repro.cache.CodegenCache`, created on
    first use next to the result cache.  Falls back to memory-only if
    the cache directory cannot be created — codegen must never make
    an analysis fail."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        try:
            _DEFAULT_CACHE = CodegenCache(default_codegen_dir())
        except OSError:
            _DEFAULT_CACHE = CodegenCache()
    return _DEFAULT_CACHE


def set_default_codegen_cache(cache: CodegenCache | None) -> None:
    """Replace the process default (fleet workers, tests).  ``None``
    resets to lazy re-creation."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = cache


def _module_for(program, kind: str, cache: CodegenCache | None) -> dict:
    if cache is None:
        cache = default_codegen_cache()
    key = codegen_key(program, kind)
    return cache.module_for(
        key, lambda: generate_source(program, kind, key))


def generate_source(program, kind: str, key: str | None = None) -> str:
    """Emit the generated module's source text for *program* under
    *kind* (exposed for tests and offline inspection)."""
    if key is None:
        key = codegen_key(program, kind)
    if kind == "zero-flat":
        return _emit_scheme(program, key, zero=True)
    if kind == "flat":
        return _emit_scheme(program, key, zero=False)
    if kind == "zero-fj-flat":
        return _emit_fj(program, key)
    raise ValueError(f"unknown codegen kind {kind!r}")


# -- runtime helpers imported by generated modules ---------------------

def lit_bit(K, exp):
    """The generic kernel's literal memo (id-keyed, value-interned) —
    shared so generated binders intern literal bits in the same global
    order as the generic ``evaluate``."""
    bit = K._lit_bits.get(id(exp))
    if bit is None:
        bit = K.table.bit_for(abstract_literal(exp.datum))
        K._lit_bits[id(exp)] = bit
    return bit


def const_bit(K, exp):
    """A context-free constant atom's bit (closure or literal)."""
    if type(exp) is Lam:
        return K.table.bit_for(FClo(exp, _EMPTY))
    return lit_bit(K, exp)


def entry_maker(K, label, nargs):
    """The context-free per-operator apply plan, against the machine's
    shared per-lambda structure cache; records the apply exactly
    where the generic kernel's apply rule does."""
    lam_plans = K._lam_plans

    def entry_for(operator, recorder):
        if type(operator) is not FClo:
            return None
        lam = operator.lam
        if len(lam.params) != nargs:
            return None
        recorder.record_apply(label, lam, _EMPTY)
        entry = lam_plans.get(lam.label)
        if entry is None:
            entry = (FConfig(lam.body, _EMPTY),
                     tuple([(param, _EMPTY)
                            for param in lam.params]))
            lam_plans[lam.label] = entry
        return entry
    return entry_for


def enter_info(operator, nargs):
    """Depth ≥ 1 apply plan: ``(lam, params, free-vars)`` or ``None``
    — the *same* free-vars frozenset the generic rep iterates."""
    if type(operator) is not FClo:
        return None
    lam = operator.lam
    if len(lam.params) != nargs:
        return None
    return (lam, lam.params, free_vars_of_lam(lam))


def prim_enter_info(operator):
    """Unary continuation variant of :func:`enter_info`."""
    if type(operator) is not FClo:
        return None
    lam = operator.lam
    if len(lam.params) != 1:
        return None
    return (lam, lam.params[0], free_vars_of_lam(lam))


def new_shadow(store, addrs):
    """A packed shadow over a constant address range: the current
    store masks side by side, one lane per address, as
    ``[packed, lane_width, lane_count, yielded]``.  A pure peek — no
    reader registration (the generic machine never reads these
    addresses at this site, so the readers map must not change).

    ``yielded`` flips on the plan's first emission: after that, a
    no-growth step may omit its ``(succ, ())`` entry entirely — the
    successor is in the engine's seen set and an empty join list does
    nothing, so dropping the pair is invisible to the trajectory."""
    masks = [store.get_mask(addr) for addr in addrs]
    width = 64
    for mask in masks:
        while mask.bit_length() >= width:
            width *= 2
    packed = 0
    shift = 0
    for mask in masks:
        packed |= mask << shift
        shift += width
    return [packed, width, len(masks), False]


def widen_shadow(shadow, masks):
    """Grow a shadow's lane width until every mask in *masks* fits,
    repacking the existing lanes in place."""
    packed, width, count = shadow[0], shadow[1], shadow[2]
    need = width
    for mask in masks:
        while mask.bit_length() >= need:
            need *= 2
    lane = (1 << width) - 1
    repacked = 0
    for index in range(count):
        repacked |= ((packed >> (index * width)) & lane) \
            << (index * need)
    shadow[0] = repacked
    shadow[1] = need


def flat_transfer(shadow, masks, targets, succ, succs):
    """One plan's bit-parallel transfer with a *dynamic* lane count.

    The depth ≥ 1 apply plans carry a per-plan number of lanes
    (parameters plus the §5.2 free-variable copies), so the inline
    ``_emit_lane_diff`` blocks — whose lane count is baked into the
    emitted source — do not apply.  Same contract: pack *masks* onto
    the shadow's lanes, one compare for the whole range, and emit only
    the grown lanes (an empty join tuple in the saturated steady
    state)."""
    width = shadow[1]
    for mask in masks:
        if mask.bit_length() >= width:
            widen_shadow(shadow, masks)
            width = shadow[1]
            break
    packed = 0
    shift = 0
    for mask in masks:
        packed |= mask << shift
        shift += width
    merged = shadow[0] | packed
    if merged == shadow[0]:
        if not shadow[3]:
            shadow[3] = True
            succs.append((succ, ()))
        return
    diff = merged ^ shadow[0]
    shadow[0] = merged
    shadow[3] = True
    lane = (1 << width) - 1
    joins = []
    index = 0
    for mask in masks:
        if diff & lane:
            joins.append((targets[index], mask))
        index += 1
        diff >>= width
    succs.append((succ, joins))


# -- machines ----------------------------------------------------------

class CodegenFlatKernel(Kernel):
    """A kernel whose step dispatch is a dict of generated functions,
    one per call label, installed as self-replacing stubs at boot so
    each node's binder still runs lazily at its first step (interning
    order — see the specializer's laziness note)."""

    stage = "codegen"

    def __init__(self, program, rep, kind: str,
                 cache: CodegenCache | None = None):
        super().__init__(program, rep)
        self.specialization = kind  # "zero-flat" | "flat"
        self._cache = cache

    def boot(self, store):
        config = super().boot(store)
        if self.specialization == "zero-flat":
            plans = getattr(self.program, "_codegen_lam_plans", None)
            if plans is None:
                plans = {}
                self.program._codegen_lam_plans = plans
            self._lam_plans = plans
        steps: dict = {}
        module = _module_for(self.program, self.specialization,
                             self._cache)
        module["build"](self, steps)
        self._steps = steps
        return config

    def step(self, config, store, reads, recorder):
        return self._steps[config.call.label](
            config, store, reads, recorder)


class CodegenFJFlatMachine:
    """The generated-source mirror of ``ZeroFJFlatMachine``: delegates
    boot/seeding to the generic flat FJ machine, dispatches steps
    through the generated per-statement table."""

    stage = "codegen"
    specialization = "zero-fj-flat"

    def __init__(self, program, policy,
                 cache: CodegenCache | None = None):
        from repro.fj.poly import FJFlatMachine
        self.program = program
        self.policy = policy
        self._generic = FJFlatMachine(program, policy)
        self._cache = cache

    def boot(self, store):
        config = self._generic.boot(store)
        self.table = self._generic.table
        steps: dict = {}
        module = _module_for(self.program, "zero-fj-flat",
                             self._cache)
        module["build"](self, steps)
        self._steps = steps
        return config

    def step(self, config, store, reads, recorder):
        return self._steps[config.stmt.label](
            config, store, reads, recorder)


def codegen_machine(machine, cache: CodegenCache | None = None):
    """The codegen stage's dispatch: a generated-source machine for
    *machine*'s policy, or ``None`` when the policy is declined (see
    the module docstring's coverage list).

    Declines on the spot (memoizing the probe) when the program is
    too deeply nested to fingerprint — ``repr`` of a dataclass AST
    recurses, and a pathologically deep term would blow the stack at
    boot.  Codegen must never make an analysis fail; such programs
    fall back to the specialized tier."""
    from repro.fj.poly import FJFlatMachine
    if isinstance(machine, Kernel):
        rep = machine.rep
        if isinstance(rep, FlatEnv):
            try:
                program_fingerprint(machine.program)
            except RecursionError:
                return None
            kind = "zero-flat" \
                if getattr(rep.alloc, "context_free", False) else "flat"
            return CodegenFlatKernel(machine.program, rep, kind, cache)
        return None
    if isinstance(machine, FJFlatMachine):
        policy = machine.policy
        if getattr(policy, "context_free", False) \
                and not policy.receiver_sensitive:
            return CodegenFJFlatMachine(machine.program, policy, cache)
    return None


# -- emission infrastructure -------------------------------------------

class _Writer:
    __slots__ = ("lines",)

    def __init__(self):
        self.lines: list[str] = []

    def w(self, indent: int, *lines: str):
        pad = "    " * indent
        for line in lines:
            self.lines.append(pad + line if line else "")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _zaddr(name) -> str:
    """The literal of a context-free address ``(name, ())``."""
    return repr((name, _EMPTY))


def _pack_expr(names) -> str:
    terms = [names[0]]
    for index, name in enumerate(names[1:], start=1):
        shift = "width" if index == 1 else f"({index} * width)"
        terms.append(f"({name} << {shift})")
    return " | ".join(terms)


def _widen_cond(names) -> str:
    return " or ".join(f"{name}.bit_length() >= width"
                       for name in names)


def _lane_guard(index: int) -> str:
    if index == 0:
        return "diff & lane"
    if index == 1:
        return "diff & (lane << width)"
    return f"diff & (lane << ({index} * width))"


def _emit_lane_diff(w: _Writer, ind: int, names, targets):
    """The bit-parallel transfer block: batch the joins onto lanes
    ``names`` (mask variable per lane) → addresses ``targets``
    (expression per lane), compare once against ``shadow``, emit only
    grown lanes.  Assumes ``succ``/``shadow``/``succs`` in scope and
    runs inside a loop (uses ``continue``)."""
    if len(names) == 1:
        w.w(ind, f"merged = shadow[0] | {names[0]}")
        w.w(ind, "if merged == shadow[0]:")
        w.w(ind + 1, "if not shadow[3]:")
        w.w(ind + 2, "shadow[3] = True")
        w.w(ind + 2, "succs.append((succ, ()))")
        w.w(ind + 1, "continue")
        w.w(ind, "shadow[0] = merged")
        w.w(ind, "shadow[3] = True")
        w.w(ind, f"succs.append((succ, (({targets[0]}, "
                 f"{names[0]}),)))")
        return
    w.w(ind, "width = shadow[1]")
    w.w(ind, f"if {_widen_cond(names)}:")
    w.w(ind + 1, f"widen_shadow(shadow, ({', '.join(names)}))")
    w.w(ind + 1, "width = shadow[1]")
    w.w(ind, f"packed = {_pack_expr(names)}")
    w.w(ind, "merged = shadow[0] | packed")
    w.w(ind, "if merged == shadow[0]:")
    w.w(ind + 1, "if not shadow[3]:")
    w.w(ind + 2, "shadow[3] = True")
    w.w(ind + 2, "succs.append((succ, ()))")
    w.w(ind + 1, "continue")
    w.w(ind, "diff = merged ^ shadow[0]")
    w.w(ind, "shadow[0] = merged")
    w.w(ind, "shadow[3] = True")
    w.w(ind, "lane = (1 << width) - 1")
    w.w(ind, "joins = []")
    for index, (name, target) in enumerate(zip(names, targets)):
        w.w(ind, f"if {_lane_guard(index)}:")
        w.w(ind + 1, f"joins.append(({target}, {name}))")
    w.w(ind, "succs.append((succ, joins))")


def _module_head(w: _Writer, key: str, kind: str, imports):
    w.w(0, f'"""Generated step loops — {kind}.')
    w.w(0, "")
    w.w(0, "Emitted by repro.analysis.codegen; content-addressed (the")
    w.w(0, "file name is the key), regenerated on any program or schema")
    w.w(0, 'change.  Do not edit."""')
    w.w(0, f"SCHEMA = {CODEGEN_SCHEMA_VERSION}")
    w.w(0, f"KEY = {key!r}")
    w.w(0, f"KIND = {kind!r}")
    w.w(0, "")
    for line in imports:
        w.w(0, line)
    w.w(0, "")
    w.w(0, "")


def _emit_build(w: _Writer, labels):
    w.w(0, "def build(K, steps):")
    w.w(1, "def stub(label, binder):")
    w.w(2, "def first(config, store, reads, recorder):")
    w.w(3, "fn = binder(K)")
    w.w(3, "steps[label] = fn")
    w.w(3, "return fn(config, store, reads, recorder)")
    w.w(2, "return first")
    w.w(1, "")
    for label in labels:
        w.w(1, f"steps[{label}] = stub({label}, _b{label})")


# -- Scheme emitters ---------------------------------------------------

_SCHEME_IMPORTS = (
    "from repro.analysis.codegen import (",
    "    MISSING, const_bit, enter_info, entry_maker, flat_transfer,",
    "    lit_bit, new_shadow, prim_enter_info, widen_shadow,",
    ")",
    "from repro.analysis.domains import APair, BASIC, FClo",
    "from repro.analysis.kernel import FConfig",
)


def _emit_scheme(program, key: str, zero: bool) -> str:
    w = _Writer()
    _module_head(w, key, "zero-flat" if zero else "flat",
                 _SCHEME_IMPORTS)
    labels = sorted(program.calls_by_label)
    _emit_build(w, labels)
    emitters = {
        AppCall: _z_app if zero else _f_app,
        IfCall: _z_if if zero else _f_if,
        PrimCall: _z_prim if zero else _f_prim,
        FixCall: _z_fix if zero else _f_fix,
        HaltCall: _z_halt if zero else _f_halt,
    }
    for label in labels:
        call = program.calls_by_label[label]
        emitter = emitters.get(type(call))
        if emitter is None:
            raise TypeError(f"cannot emit call {call!r}")
        w.w(0, "", "")
        w.w(0, f"def _b{label}(K):")
        w.w(1, f"call = K.program.calls_by_label[{label}]")
        w.w(1, "table = K.table")
        emitter(w, call)
    return w.text()


def _z_app(w: _Writer, call):
    label = call.label
    args = call.args
    nargs = len(args)
    atoms = (call.fn, *args)
    read_addrs = tuple([(exp.name, _EMPTY) for exp in atoms
                        if type(exp) is Ref])
    names = [f"m{i}" for i in range(nargs)]
    w.w(1, "basic = K._basic")
    w.w(1, "entries = {}")
    w.w(1, f"entry_for = entry_maker(K, {label}, {nargs})")
    if read_addrs:
        w.w(1, "recorded = []")
    # Constant bits intern in evaluation order: fn first, then args.
    if type(call.fn) is not Ref:
        w.w(1, "c_fn = const_bit(K, call.fn)")
    for i, arg in enumerate(args):
        if type(arg) is not Ref:
            w.w(1, f"c{i} = const_bit(K, call.args[{i}])")

    def body(ind: int, interned: bool):
        w.w(ind, "")
        w.w(ind, "def step(config, store, reads, recorder):")
        b = ind + 1
        if read_addrs:
            w.w(b, "if not recorded:")
            w.w(b + 1, "recorded.append(True)")
            w.w(b + 1, f"reads.update({read_addrs!r})")
        if read_addrs:
            w.w(b, "get_mask = store.get_mask")
        if type(call.fn) is Ref:
            w.w(b, f"operators = get_mask({_zaddr(call.fn.name)})")
        else:
            w.w(b, "operators = c_fn")
        w.w(b, "if operators & basic:")
        w.w(b + 1, f"recorder.unknown_operator.add({label})")
        for i, arg in enumerate(args):
            if type(arg) is Ref:
                w.w(b, f"m{i} = get_mask({_zaddr(arg.name)})")
            else:
                w.w(b, f"m{i} = c{i}")
        w.w(b, "succs = []")
        if interned:
            w.w(b, "mask = operators")
            w.w(b, "while mask:")
            l = b + 1
            w.w(l, "low = mask & -mask")
            w.w(l, "mask ^= low")
            w.w(l, "entry = entries.get(low, MISSING)")
            w.w(l, "if entry is MISSING:")
            w.w(l + 1, "plan = entry_for("
                       "values[low.bit_length() - 1], recorder)")
            w.w(l + 1, "if plan is None:")
            w.w(l + 2, "entry = None")
            w.w(l + 1, "else:")
            if nargs == 0:
                w.w(l + 2, "entry = plan")
            elif nargs == 1:
                w.w(l + 2, "entry = (plan[0], plan[1][0], "
                           "new_shadow(store, plan[1]))")
            else:
                w.w(l + 2, "entry = (plan[0], plan[1], "
                           "new_shadow(store, plan[1]))")
            w.w(l + 1, "entries[low] = entry")
            w.w(l, "if entry is None:")
            w.w(l + 1, "continue")
            if nargs == 0:
                w.w(l, "succs.append((entry[0], ()))")
            elif nargs == 1:
                w.w(l, "succ, param_addr, shadow = entry")
                _emit_lane_diff(w, l, names, ["param_addr"])
            else:
                w.w(l, "succ, param_addrs, shadow = entry")
                _emit_lane_diff(w, l, names,
                                [f"param_addrs[{i}]"
                                 for i in range(nargs)])
        else:
            w.w(b, "for operator in decode_iter(operators):")
            l = b + 1
            w.w(l, "key = id(operator)")
            w.w(l, "entry = entries.get(key, MISSING)")
            w.w(l, "if entry is MISSING:")
            w.w(l + 1, "entry = entry_for(operator, recorder)")
            w.w(l + 1, "entries[key] = entry")
            w.w(l, "if entry is None:")
            w.w(l + 1, "continue")
            if nargs:
                w.w(l, "succ, param_addrs = entry")
                joins = ", ".join(f"(param_addrs[{i}], m{i})"
                                  for i in range(nargs))
                w.w(l, f"succs.append((succ, [{joins}]))")
            else:
                w.w(l, "succs.append((entry[0], []))")
        w.w(b, "return succs")
        w.w(ind, "return step")

    w.w(1, "if table.interned:")
    w.w(2, "values = table._values")
    body(2, True)
    w.w(1, "decode_iter = table.decode_iter")
    body(1, False)


def _z_if(w: _Writer, call):
    w.w(1, "any_truthy = table.any_truthy")
    w.w(1, "any_falsy = table.any_falsy")
    w.w(1, "then_succ = (FConfig(call.then, ()), ())")
    w.w(1, "else_succ = (FConfig(call.orelse, ()), ())")
    if type(call.test) is Ref:
        addr = _zaddr(call.test.name)
        w.w(1, "recorded = []")
        w.w(1, "")
        w.w(1, "def step(config, store, reads, recorder):")
        w.w(2, "if not recorded:")
        w.w(3, "recorded.append(True)")
        w.w(3, f"reads.add({addr})")
        w.w(2, f"test = store.get_mask({addr})")
        w.w(2, "succs = []")
        w.w(2, "if any_truthy(test):")
        w.w(3, "succs.append(then_succ)")
        w.w(2, "if any_falsy(test):")
        w.w(3, "succs.append(else_succ)")
        w.w(2, "return succs")
        w.w(1, "return step")
        return
    # Constant test: the branch decision is itself a constant.
    w.w(1, "c_test = const_bit(K, call.test)")
    w.w(1, "result = []")
    w.w(1, "if any_truthy(c_test):")
    w.w(2, "result.append(then_succ)")
    w.w(1, "if any_falsy(c_test):")
    w.w(2, "result.append(else_succ)")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    w.w(2, "return result")
    w.w(1, "return step")


def _z_fix(w: _Writer, call):
    w.w(1, "bit_for = table.bit_for")
    w.w(1, "joins = tuple([((name, ()), bit_for(FClo(lam, ())))"
           " for name, lam in call.bindings])")
    w.w(1, "result = [(FConfig(call.body, ()), joins)]")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    w.w(2, "return result")
    w.w(1, "return step")


def _z_halt(w: _Writer, call):
    w.w(1, "decode = table.decode")
    if type(call.arg) is Ref:
        addr = _zaddr(call.arg.name)
        w.w(1, "recorded = []")
        w.w(1, "")
        w.w(1, "def step(config, store, reads, recorder):")
        w.w(2, "if not recorded:")
        w.w(3, "recorded.append(True)")
        w.w(3, f"reads.add({addr})")
        w.w(2, f"recorder.halt_values |= decode(store.get_mask({addr}))")
        w.w(2, "return []")
        w.w(1, "return step")
        return
    w.w(1, "c_arg = const_bit(K, call.arg)")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    w.w(2, "recorder.halt_values |= decode(c_arg)")
    w.w(2, "return []")
    w.w(1, "return step")


def _z_prim(w: _Writer, call):
    label = call.label
    kind = lookup_primitive(call.op).kind
    args = call.args
    cont = call.cont
    read_addrs = tuple([(arg.name, _EMPTY) for arg in args
                        if type(arg) is Ref])
    car_addr = (f"car@{label}", _EMPTY)
    cdr_addr = (f"cdr@{label}", _EMPTY)
    w.w(1, "basic = K._basic")
    w.w(1, "entries = {}")
    w.w(1, f"entry_for = entry_maker(K, {label}, 1)")
    # Constant argument bits intern at bind, in evaluation order —
    # even for error-kind primitives (mirrors _bind_atoms).
    for i, arg in enumerate(args):
        if type(arg) is not Ref:
            w.w(1, f"c{i} = const_bit(K, call.args[{i}])")
    if read_addrs:
        w.w(1, "args_recorded = []")
    if type(cont) is Ref:
        w.w(1, "cont_recorded = []")
    else:
        w.w(1, "cont_cell = []")
    if kind == "cons":
        w.w(1, "pair_cell = []")
        w.w(1, "self_succ = FConfig(call, ())")
    w.w(1, "decode_iter = table.decode_iter")
    if kind in ("car", "cdr"):
        w.w(1, "empty = table.empty")

    def body(ind: int, interned: bool):
        w.w(ind, "")
        w.w(ind, "def step(config, store, reads, recorder):")
        b = ind + 1
        if read_addrs:
            w.w(b, "if not args_recorded:")
            w.w(b + 1, "args_recorded.append(True)")
            w.w(b + 1, f"reads.update({read_addrs!r})")
        if kind == "error":
            w.w(b, "return []")
            w.w(ind, "return step")
            return
        if read_addrs or type(cont) is Ref or kind in ("car", "cdr"):
            w.w(b, "get_mask = store.get_mask")
        for i, arg in enumerate(args):
            if type(arg) is Ref:
                w.w(b, f"m{i} = get_mask({_zaddr(arg.name)})")
            else:
                w.w(b, f"m{i} = c{i}")
        for i in range(len(args)):
            w.w(b, f"if not m{i}:")
            w.w(b + 1, "return []")
        if kind == "basic":
            w.w(b, "result = basic")
        elif kind == "cons":
            w.w(b, "if not pair_cell:")
            w.w(b + 1, f"pair_cell.append(table.bit_for("
                       f"APair({car_addr!r}, {cdr_addr!r})))")
            w.w(b, "result = pair_cell[0]")
        else:  # car / cdr — the one dynamic read set
            w.w(b, "gathered = empty")
            w.w(b, "for value in decode_iter(m0):")
            w.w(b + 1, "if type(value) is APair:")
            w.w(b + 2, f"addr = value.{kind}")
            w.w(b + 2, "reads.add(addr)")
            w.w(b + 2, "gathered |= get_mask(addr)")
            w.w(b + 1, "elif value is BASIC:")
            w.w(b + 2, "gathered |= basic")
            w.w(b, "if not gathered:")
            w.w(b + 1, "return []")
            w.w(b, "result = gathered")
        if type(cont) is Ref:
            caddr = _zaddr(cont.name)
            w.w(b, "if not cont_recorded:")
            w.w(b + 1, "cont_recorded.append(True)")
            w.w(b + 1, f"reads.add({caddr})")
            w.w(b, f"conts = get_mask({caddr})")
        else:
            w.w(b, "if not cont_cell:")
            w.w(b + 1, "cont_cell.append(const_bit(K, call.cont))")
            w.w(b, "conts = cont_cell[0]")
        w.w(b, "succs = []")
        if interned:
            if kind == "cons":
                lanes = ["result", "m0", "m1"]
                targets = ["param_addr", repr(car_addr),
                           repr(cdr_addr)]
                shadow_addrs = (f"(plan[1][0], {car_addr!r}, "
                                f"{cdr_addr!r})")
            else:
                lanes = ["result"]
                targets = ["param_addr"]
                shadow_addrs = "plan[1]"
            w.w(b, "mask = conts")
            w.w(b, "while mask:")
            l = b + 1
            w.w(l, "low = mask & -mask")
            w.w(l, "mask ^= low")
            w.w(l, "entry = entries.get(low, MISSING)")
            w.w(l, "if entry is MISSING:")
            w.w(l + 1, "plan = entry_for("
                       "values[low.bit_length() - 1], recorder)")
            w.w(l + 1, "if plan is None:")
            w.w(l + 2, "entry = None")
            w.w(l + 1, "else:")
            w.w(l + 2, f"entry = (plan[0], plan[1][0], "
                       f"new_shadow(store, {shadow_addrs}))")
            w.w(l + 1, "entries[low] = entry")
            w.w(l, "if entry is None:")
            w.w(l + 1, "continue")
            w.w(l, "succ, param_addr, shadow = entry")
            _emit_lane_diff(w, l, lanes, targets)
        else:
            w.w(b, "for operator in decode_iter(conts):")
            l = b + 1
            w.w(l, "key = id(operator)")
            w.w(l, "entry = entries.get(key, MISSING)")
            w.w(l, "if entry is MISSING:")
            w.w(l + 1, "entry = entry_for(operator, recorder)")
            w.w(l + 1, "if entry is not None:")
            w.w(l + 2, "entry = (entry[0], entry[1][0])")
            w.w(l + 1, "entries[key] = entry")
            w.w(l, "if entry is None:")
            w.w(l + 1, "continue")
            if kind == "cons":
                w.w(l, f"succs.append((entry[0], ((entry[1], result),"
                       f" ({car_addr!r}, m0), ({cdr_addr!r}, m1))))")
            else:
                w.w(l, "succs.append((entry[0], "
                       "((entry[1], result),)))")
        if kind == "cons":
            w.w(b, "if not succs:")
            w.w(b + 1, f"succs.append((self_succ, (({car_addr!r}, m0),"
                       f" ({cdr_addr!r}, m1))))")
        w.w(b, "return succs")
        w.w(ind, "return step")

    w.w(1, "if table.interned:")
    w.w(2, "values = table._values")
    body(2, True)
    body(1, False)


def _f_atom_binder(w: _Writer, exp, cname: str, access: str):
    """Binder-time lines for one depth≥1 atom: literal bits intern at
    bind (like ``_atom``), lambda nodes get a local alias."""
    if type(exp) is Ref:
        return
    if type(exp) is Lam:
        w.w(1, f"{cname}_lam = {access}")
    else:
        w.w(1, f"{cname} = lit_bit(K, {access})")


def _f_atom_step(w: _Writer, b: int, exp, mvar: str, cname: str,
                 avar: str, env: str):
    """Step-time lines binding *mvar* to one atom's mask."""
    if type(exp) is Ref:
        w.w(b, f"{avar} = ({exp.name!r}, {env})")
        w.w(b, f"reads.add({avar})")
        w.w(b, f"{mvar} = store.get_mask({avar})")
    elif type(exp) is Lam:
        w.w(b, f"{mvar} = close_bit(config, {cname}_lam)")
    else:
        w.w(b, f"{mvar} = {cname}")


def _f_copy_loop(w: _Writer, l: int):
    w.w(l, "if new_env != operator.env:")
    w.w(l + 1, "operator_env = operator.env")
    w.w(l + 1, "for name in free:")
    w.w(l + 2, "source = (name, operator_env)")
    w.w(l + 2, "reads.add(source)")
    w.w(l + 2, "copied = store.get_mask(source)")
    w.w(l + 2, "if copied:")
    w.w(l + 3, "joins.append(((name, new_env), copied))")


def _f_app(w: _Writer, call):
    label = call.label
    args = call.args
    nargs = len(args)
    atoms = (call.fn, *args)
    n_refs = sum(1 for exp in atoms if type(exp) is Ref)
    w.w(1, "basic = K._basic")
    w.w(1, "alloc = K.rep.alloc")
    if any(type(exp) is Lam for exp in atoms):
        w.w(1, "close_bit = K.rep.close_bit")
    # Literal bits intern at bind, in atom order (fn, then args).
    _f_atom_binder(w, call.fn, "c_fn", "call.fn")
    for i, arg in enumerate(args):
        _f_atom_binder(w, arg, f"c{i}", f"call.args[{i}]")

    # Interned: a per-environment record (the atom addresses, read
    # once, plus a per-operator plan dict).  A plan pre-builds the
    # successor, the copy sources, and a packed shadow over its whole
    # join range — parameters and §5.2 free-variable copies alike —
    # so the saturated steady state emits no joins at all.
    w.w(1, "if table.interned:")
    w.w(2, "values = table._values")
    w.w(2, "empty = table.empty")
    w.w(2, "envs = {}")
    w.w(2, "")
    w.w(2, "def step(config, store, reads, recorder):")
    b = 3
    w.w(b, "env = config.env")
    w.w(b, "rec = envs.get(env)")
    w.w(b, "if rec is None:")
    rec_items = [f"({exp.name!r}, env)" for exp in atoms
                 if type(exp) is Ref] + ["[0, []]"]
    w.w(b + 1, f"rec = ({', '.join(rec_items)},)")
    w.w(b + 1, "envs[env] = rec")
    for i in range(n_refs):
        w.w(b + 1, f"reads.add(rec[{i}])")
    # Reads go straight at the mask map — ``AbsStore.get_mask`` is
    # pure and this loop pays it per copy source per operator.
    w.w(b, "get_mask = store._map.get")
    ref_index = 0

    def mask_line(exp, mvar, cname):
        nonlocal ref_index
        if type(exp) is Ref:
            w.w(b, f"{mvar} = get_mask(rec[{ref_index}], empty)")
            ref_index += 1
        elif type(exp) is Lam:
            w.w(b, f"{mvar} = close_bit(config, {cname}_lam)")
        else:
            w.w(b, f"{mvar} = {cname}")

    mask_line(call.fn, "operators", "c_fn")
    w.w(b, "if operators & basic:")
    w.w(b + 1, f"recorder.unknown_operator.add({label})")
    for i, arg in enumerate(args):
        mask_line(arg, f"m{i}", f"c{i}")
    # The operator mask at a record's address only ever grows, so
    # each step decodes just the added bits, builds their plans once
    # — in exactly the order the per-step rebuild would have — and
    # merges them into the record's bit-ordered row list.  The hot
    # loop is then a plain list walk: no per-bit arithmetic, no plan
    # dict probe.
    w.w(b, f"state = rec[{n_refs}]")
    w.w(b, "if operators != state[0]:")
    w.w(b + 1, "added = operators & ~state[0]")
    w.w(b + 1, "state[0] = operators")
    w.w(b + 1, "fresh = []")
    w.w(b + 1, "while added:")
    c = b + 2
    w.w(c, "low = added & -added")
    w.w(c, "added ^= low")
    w.w(c, "operator = values[low.bit_length() - 1]")
    w.w(c, f"info = enter_info(operator, {nargs})")
    w.w(c, "if info is not None:")
    p = c + 1
    w.w(p, "lam, params, free = info")
    w.w(p, "operator_env = operator.env")
    w.w(p, f"new_env = alloc({label}, env, lam, operator_env)")
    w.w(p, f"recorder.record_apply({label}, lam, new_env)")
    w.w(p, "targets = tuple([(name, new_env) for name in params])")
    w.w(p, "sources = ()")
    w.w(p, "if free and new_env != operator_env:")
    w.w(p + 1, "sources = tuple([(name, operator_env)")
    w.w(p + 1, "                 for name in free])")
    w.w(p + 1, "for source in sources:")
    w.w(p + 2, "reads.add(source)")
    w.w(p + 1, "targets += tuple([(name, new_env)")
    w.w(p + 1, "                  for name in free])")
    w.w(p, "fresh.append((low, (FConfig(lam.body, new_env),")
    w.w(p, "                    sources, targets,")
    w.w(p, "                    new_shadow(store, targets))))")
    w.w(b + 1, "if fresh:")
    w.w(b + 2, "rows = state[1]")
    w.w(b + 2, "if rows and fresh[0][0] < rows[-1][0]:")
    w.w(b + 3, "rows.extend(fresh)")
    w.w(b + 3, "rows.sort(key=lambda row: row[0])")
    w.w(b + 2, "else:")
    w.w(b + 3, "rows.extend(fresh)")
    w.w(b, "succs = []")
    if nargs >= 3:
        # Wide nodes: the static lanes are the same for every
        # operator this step, so their packed form is shared across
        # the loop, keyed by lane width (plans converge on one width;
        # ``None`` records that this step's masks force a widen).
        w.w(b, "packs = {}")
    w.w(b, "for low, plan in state[1]:")
    l = b + 1
    w.w(l, "succ, sources, targets, shadow = plan")
    # Inline transfer: pack the static lanes with the baked shift
    # expression, fold the copy sources in, one compare for the whole
    # range, and when lanes did grow recover their masks from
    # ``packed`` itself — no mask list is ever built.  Only lane
    # widening (a handful of times per plan, ever) falls back to the
    # out-of-line helper.
    names = [f"m{i}" for i in range(nargs)]
    w.w(l, "width = shadow[1]")
    guard = " and ".join(f"{name}.bit_length() < width"
                         for name in names)
    if nargs >= 3:
        w.w(l, "packed = packs.get(width, MISSING)")
        w.w(l, "if packed is MISSING:")
        w.w(l + 1, f"if {guard}:")
        w.w(l + 2, f"packed = {_pack_expr(names)}")
        w.w(l + 1, "else:")
        w.w(l + 2, "packed = None")
        w.w(l + 1, "packs[width] = packed")
        w.w(l, "if packed is not None:")
        f = l + 1
        w.w(f, f"shift = {nargs} * width")
    else:
        if guard:
            w.w(l, f"if {guard}:")
        else:
            w.w(l, "if True:")
        f = l + 1
        if nargs:
            w.w(f, f"packed = {_pack_expr(names)}")
            w.w(f, "shift = width" if nargs == 1
                 else f"shift = {nargs} * width")
        else:
            w.w(f, "packed = 0")
            w.w(f, "shift = 0")
    w.w(f, "ok = True")
    w.w(f, "for source in sources:")
    w.w(f + 1, "m = get_mask(source, empty)")
    w.w(f + 1, "if m.bit_length() >= width:")
    w.w(f + 2, "ok = False")
    w.w(f + 2, "break")
    w.w(f + 1, "packed |= m << shift")
    w.w(f + 1, "shift += width")
    w.w(f, "if ok:")
    w.w(f + 1, "old = shadow[0]")
    w.w(f + 1, "merged = old | packed")
    w.w(f + 1, "if merged == old:")
    w.w(f + 2, "if not shadow[3]:")
    w.w(f + 3, "shadow[3] = True")
    w.w(f + 3, "succs.append((succ, ()))")
    w.w(f + 2, "continue")
    w.w(f + 1, "diff = merged ^ old")
    w.w(f + 1, "shadow[0] = merged")
    w.w(f + 1, "shadow[3] = True")
    w.w(f + 1, "lane = (1 << width) - 1")
    w.w(f + 1, "joins = []")
    w.w(f + 1, "index = 0")
    w.w(f + 1, "while diff:")
    w.w(f + 2, "if diff & lane:")
    w.w(f + 3, "joins.append((targets[index],")
    w.w(f + 3, "              (packed >> (index * width)) & lane))")
    w.w(f + 2, "diff >>= width")
    w.w(f + 2, "index += 1")
    w.w(f + 1, "succs.append((succ, joins))")
    w.w(f + 1, "continue")
    w.w(l, f"masks = [{', '.join(names)}]")
    w.w(l, "for source in sources:")
    w.w(l + 1, "masks.append(get_mask(source, empty))")
    w.w(l, "flat_transfer(shadow, masks, targets, succ, succs)")
    w.w(b, "return succs")
    w.w(2, "return step")

    # Plain-table fallback: the object domain decodes operators and
    # re-emits joins each step, like the generic kernel it mirrors.
    w.w(1, "decode_iter = table.decode_iter")
    w.w(1, "infos = {}")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    b = 2
    w.w(b, "env = config.env")
    _f_atom_step(w, b, call.fn, "operators", "c_fn", "addr", "env")
    w.w(b, "if operators & basic:")
    w.w(b + 1, f"recorder.unknown_operator.add({label})")
    for i, arg in enumerate(args):
        _f_atom_step(w, b, arg, f"m{i}", f"c{i}", f"a{i}", "env")
    w.w(b, "succs = []")
    w.w(b, "for operator in decode_iter(operators):")
    l = b + 1
    w.w(l, "key = id(operator)")
    w.w(l, "info = infos.get(key, MISSING)")
    w.w(l, "if info is MISSING:")
    w.w(l + 1, f"info = enter_info(operator, {nargs})")
    w.w(l + 1, "infos[key] = info")
    w.w(l, "if info is None:")
    w.w(l + 1, "continue")
    w.w(l, "lam, params, free = info")
    w.w(l, f"new_env = alloc({label}, env, lam, operator.env)")
    if nargs:
        joins = ", ".join(f"((params[{i}], new_env), m{i})"
                          for i in range(nargs))
        w.w(l, f"joins = [{joins}]")
    else:
        w.w(l, "joins = []")
    _f_copy_loop(w, l)
    w.w(l, f"recorder.record_apply({label}, lam, new_env)")
    w.w(l, "succs.append((FConfig(lam.body, new_env), joins))")
    w.w(b, "return succs")
    w.w(1, "return step")


def _f_if(w: _Writer, call):
    w.w(1, "any_truthy = table.any_truthy")
    w.w(1, "any_falsy = table.any_falsy")
    w.w(1, "then_call = call.then")
    w.w(1, "else_call = call.orelse")
    if type(call.test) is Lam:
        w.w(1, "close_bit = K.rep.close_bit")
    _f_atom_binder(w, call.test, "c_test", "call.test")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    _f_atom_step(w, 2, call.test, "test", "c_test", "addr",
                 "config.env")
    w.w(2, "env = config.env")
    w.w(2, "succs = []")
    w.w(2, "if any_truthy(test):")
    w.w(3, "succs.append((FConfig(then_call, env), ()))")
    w.w(2, "if any_falsy(test):")
    w.w(3, "succs.append((FConfig(else_call, env), ()))")
    w.w(2, "return succs")
    w.w(1, "return step")


def _f_fix(w: _Writer, call):
    w.w(1, "bindings = call.bindings")
    w.w(1, "body = call.body")
    w.w(1, "bit_for = table.bit_for")
    w.w(1, "memo = {}")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    w.w(2, "env = config.env")
    w.w(2, "result = memo.get(env)")
    w.w(2, "if result is None:")
    w.w(3, "joins = tuple(((name, env), bit_for(FClo(lam, env)))"
           " for name, lam in bindings)")
    w.w(3, "result = [(FConfig(body, env), joins)]")
    w.w(3, "memo[env] = result")
    w.w(2, "return result")
    w.w(1, "return step")


def _f_halt(w: _Writer, call):
    w.w(1, "decode = table.decode")
    if type(call.arg) is Lam:
        w.w(1, "close_bit = K.rep.close_bit")
    _f_atom_binder(w, call.arg, "c_arg", "call.arg")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    _f_atom_step(w, 2, call.arg, "mask", "c_arg", "addr",
                 "config.env")
    w.w(2, "recorder.halt_values |= decode(mask)")
    w.w(2, "return []")
    w.w(1, "return step")


def _f_prim(w: _Writer, call):
    label = call.label
    kind = lookup_primitive(call.op).kind
    args = call.args
    cont = call.cont
    car_name = f"car@{label}"
    cdr_name = f"cdr@{label}"
    w.w(1, "basic = K._basic")
    w.w(1, "decode_iter = table.decode_iter")
    w.w(1, "bit_for = table.bit_for")
    w.w(1, "alloc = K.rep.alloc")
    if any(type(exp) is Lam for exp in (*args, cont)):
        w.w(1, "close_bit = K.rep.close_bit")
    for i, arg in enumerate(args):
        _f_atom_binder(w, arg, f"c{i}", f"call.args[{i}]")
    if type(cont) is Lam:
        w.w(1, "cont_lam = call.cont")
    elif type(cont) is not Ref:
        # The continuation literal interns lazily, past the
        # empty-argument bail-out (mirrors the cont_cell).
        w.w(1, "cont_cell = []")
    if kind == "cons":
        w.w(1, "pair_memo = {}")
    if kind in ("car", "cdr"):
        w.w(1, "empty = table.empty")
    w.w(1, "infos = {}")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    b = 2
    w.w(b, "env = config.env")
    for i, arg in enumerate(args):
        _f_atom_step(w, b, arg, f"m{i}", f"c{i}", f"a{i}", "env")
    if kind == "error":
        w.w(b, "return []")
        w.w(1, "return step")
        return
    for i in range(len(args)):
        w.w(b, f"if not m{i}:")
        w.w(b + 1, "return []")
    extras = ""
    if kind == "basic":
        w.w(b, "result = basic")
    elif kind == "cons":
        w.w(b, "pair = pair_memo.get(env)")
        w.w(b, "if pair is None:")
        w.w(b + 1, f"car_addr = ({car_name!r}, env)")
        w.w(b + 1, f"cdr_addr = ({cdr_name!r}, env)")
        w.w(b + 1, "pair = (car_addr, cdr_addr, "
                   "bit_for(APair(car_addr, cdr_addr)))")
        w.w(b + 1, "pair_memo[env] = pair")
        w.w(b, "car_addr, cdr_addr, result = pair")
        extras = " + ((car_addr, m0), (cdr_addr, m1))"
    else:  # car / cdr
        w.w(b, "gathered = empty")
        w.w(b, "for value in decode_iter(m0):")
        w.w(b + 1, "if type(value) is APair:")
        w.w(b + 2, f"addr = value.{kind}")
        w.w(b + 2, "reads.add(addr)")
        w.w(b + 2, "gathered |= store.get_mask(addr)")
        w.w(b + 1, "elif value is BASIC:")
        w.w(b + 2, "gathered |= basic")
        w.w(b, "if not gathered:")
        w.w(b + 1, "return []")
        w.w(b, "result = gathered")
    if type(cont) is Ref:
        w.w(b, f"ca = ({cont.name!r}, env)")
        w.w(b, "reads.add(ca)")
        w.w(b, "conts = store.get_mask(ca)")
    elif type(cont) is Lam:
        w.w(b, "conts = close_bit(config, cont_lam)")
    else:
        w.w(b, "if not cont_cell:")
        w.w(b + 1, "cont_cell.append(lit_bit(K, call.cont))")
        w.w(b, "conts = cont_cell[0]")
    w.w(b, "succs = []")
    w.w(b, "for operator in decode_iter(conts):")
    l = b + 1
    w.w(l, "key = id(operator)")
    w.w(l, "info = infos.get(key, MISSING)")
    w.w(l, "if info is MISSING:")
    w.w(l + 1, "info = prim_enter_info(operator)")
    w.w(l + 1, "infos[key] = info")
    w.w(l, "if info is None:")
    w.w(l + 1, "continue")
    w.w(l, "lam, param, free = info")
    w.w(l, f"new_env = alloc({label}, env, lam, operator.env)")
    w.w(l, "joins = [((param, new_env), result)]")
    _f_copy_loop(w, l)
    w.w(l, f"recorder.record_apply({label}, lam, new_env)")
    w.w(l, f"succs.append((FConfig(lam.body, new_env), "
           f"tuple(joins){extras}))")
    if kind == "cons":
        w.w(b, "if not succs:")
        w.w(b + 1, "succs.append((FConfig(call, env), "
                   "((car_addr, m0), (cdr_addr, m1))))")
    w.w(b, "return succs")
    w.w(1, "return step")


# -- FJ emitters -------------------------------------------------------

_FJ_IMPORTS = (
    "from repro.analysis.codegen import MISSING, new_shadow, "
    "widen_shadow",
    "from repro.fj.kcfa import HALT_PTR",
    "from repro.fj.poly import PConfig, PKont, PObj",
)


def _emit_fj(program, key: str) -> str:
    w = _Writer()
    _module_head(w, key, "zero-fj-flat", _FJ_IMPORTS)
    labels = sorted(program.stmt_by_label)
    _emit_build(w, labels)
    for label in labels:
        stmt = program.stmt_by_label[label]
        w.w(0, "", "")
        w.w(0, f"def _b{label}(K):")
        w.w(1, "program = K.program")
        w.w(1, "table = K.table")
        w.w(1, f"following = program.succ({label})")
        if isinstance(stmt, Return):
            _fj_return(w, stmt)
            continue
        exp = stmt.exp
        if isinstance(exp, (VarExp, Cast)):
            _fj_move(w, program, stmt,
                     exp.target if isinstance(exp, Cast) else exp.name)
        elif isinstance(exp, FieldAccess):
            _fj_field(w, program, stmt, exp)
        elif isinstance(exp, Invoke):
            _fj_invoke(w, program, stmt, exp)
        elif isinstance(exp, New):
            _fj_new(w, program, stmt, exp)
        else:
            raise TypeError(f"cannot emit statement {stmt!r}")
    return w.text()


def _fj_succ_lines(w: _Writer, b: int):
    """The per-``kont_ptr`` successor memo shared by move, field
    access, and ``new`` (mirrors ``_succ_memo``)."""
    w.w(b, "kont_ptr = config.kont_ptr")
    w.w(b, "succ = succ_memo.get(kont_ptr)")
    w.w(b, "if succ is None:")
    w.w(b + 1, "succ = PConfig(following, (), kont_ptr, ())")
    w.w(b + 1, "succ_memo[kont_ptr] = succ")


def _fj_move(w: _Writer, program, stmt, source_name: str):
    src = repr((source_name, _EMPTY))
    tgt = repr((stmt.var, _EMPTY))
    if program.succ(stmt.label) is None:
        w.w(1, "")
        w.w(1, "def step(config, store, reads, recorder):")
        w.w(2, f"reads.add({src})")
        w.w(2, f"store.get_mask({src})")
        w.w(2, "return []")
        w.w(1, "return step")
        return
    # ``succ_memo`` rows are ``[succ, emitted]`` where ``emitted`` is
    # the union of every mask this config has already joined into the
    # target (``None`` until the first yield).  ``emitted`` is always
    # a subset of the store's value at the target, so a step whose
    # source mask adds nothing over ``emitted`` can return no
    # successors at all: the join would not grow the store, and the
    # successor is already in the engine's seen set.
    w.w(1, "succ_memo = {}")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    w.w(2, f"reads.add({src})")
    w.w(2, f"values = store.get_mask({src})")
    w.w(2, "kont_ptr = config.kont_ptr")
    w.w(2, "entry = succ_memo.get(kont_ptr)")
    w.w(2, "if entry is None:")
    w.w(3, "entry = [PConfig(following, (), kont_ptr, ()), None]")
    w.w(3, "succ_memo[kont_ptr] = entry")
    w.w(2, "emitted = entry[1]")
    w.w(2, "if emitted is None:")
    w.w(3, "entry[1] = values")
    w.w(3, f"return [(entry[0], [({tgt}, values)] if values else [])]")
    w.w(2, "if values | emitted == emitted:")
    w.w(3, "return []")
    w.w(2, "entry[1] = emitted | values")
    w.w(2, f"return [(entry[0], [({tgt}, values)])]")
    w.w(1, "return step")


def _fj_field(w: _Writer, program, stmt, exp):
    src = repr((exp.target, _EMPTY))
    tgt = repr((stmt.var, _EMPTY))
    field = exp.fieldname   # receiver-insensitive: field key is the name
    dead = program.succ(stmt.label) is None
    # The receiver address is a per-node constant, so its mask only
    # ever grows: interned tables decode just the added bits per step
    # and keep a bit-ordered ``(bit, field address)`` row list (full
    # decode order is bit order, so join order is unchanged).  Every
    # join targets the same variable, so one emitted-union per
    # ``kont_ptr`` detects the saturated steady state and skips the
    # successor entirely.  The per-address ``reads.add``/``get_mask``
    # stay in the step: dependency registration is per config.
    w.w(1, "all_fields = program.all_fields")
    w.w(1, "decode_iter = table.decode_iter")
    w.w(1, "addr_memo = {}")
    w.w(1, "if table.interned:")
    w.w(2, "values_tab = table._values")
    w.w(2, "state = [0, []]")
    if not dead:
        w.w(2, "succ_memo = {}")
    w.w(2, "")
    w.w(2, "def step(config, store, reads, recorder):")
    w.w(3, f"reads.add({src})")
    w.w(3, f"mask = store.get_mask({src})")
    w.w(3, "rows = state[1]")
    w.w(3, "if mask != state[0]:")
    w.w(4, "added = mask & ~state[0]")
    w.w(4, "state[0] = mask")
    w.w(4, "fresh = []")
    w.w(4, "while added:")
    w.w(5, "low = added & -added")
    w.w(5, "added ^= low")
    w.w(5, "addr = addr_memo.get(low, MISSING)")
    w.w(5, "if addr is MISSING:")
    w.w(6, "value = values_tab[low.bit_length() - 1]")
    w.w(6, f"addr = (({field!r}, value.time)")
    w.w(6, "        if isinstance(value, PObj)")
    w.w(6, f"        and {field!r} in all_fields(value.classname)")
    w.w(6, "        else None)")
    w.w(6, "addr_memo[low] = addr")
    w.w(5, "if addr is not None:")
    w.w(6, "fresh.append((low, addr))")
    w.w(4, "if fresh:")
    w.w(5, "if rows and fresh[0][0] < rows[-1][0]:")
    w.w(6, "rows.extend(fresh)")
    w.w(6, "rows.sort()")
    w.w(5, "else:")
    w.w(6, "rows.extend(fresh)")
    if dead:
        w.w(3, "for low, addr in rows:")
        w.w(4, "reads.add(addr)")
        w.w(4, "store.get_mask(addr)")
        w.w(3, "return []")
        w.w(2, "return step")
    else:
        w.w(3, "get_mask = store.get_mask")
        w.w(3, "joins = []")
        w.w(3, "total = 0")
        w.w(3, "for low, addr in rows:")
        w.w(4, "reads.add(addr)")
        w.w(4, "field_values = get_mask(addr)")
        w.w(4, "if field_values:")
        w.w(5, f"joins.append(({tgt}, field_values))")
        w.w(5, "total |= field_values")
        w.w(3, "kont_ptr = config.kont_ptr")
        w.w(3, "entry = succ_memo.get(kont_ptr)")
        w.w(3, "if entry is None:")
        w.w(4, "entry = [PConfig(following, (), kont_ptr, ()), None]")
        w.w(4, "succ_memo[kont_ptr] = entry")
        w.w(3, "emitted = entry[1]")
        w.w(3, "if emitted is None:")
        w.w(4, "entry[1] = total")
        w.w(4, "return [(entry[0], joins)]")
        w.w(3, "if total | emitted == emitted:")
        w.w(4, "return []")
        w.w(3, "entry[1] = emitted | total")
        w.w(3, "return [(entry[0], joins)]")
        w.w(2, "return step")
    if not dead:
        w.w(1, "succ_memo = {}")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    w.w(2, f"reads.add({src})")
    if not dead:
        w.w(2, "joins = []")
    w.w(2, f"for value in decode_iter(store.get_mask({src})):")
    w.w(3, "addr = addr_memo.get(value, MISSING)")
    w.w(3, "if addr is MISSING:")
    w.w(4, f"addr = (({field!r}, value.time)")
    w.w(4, "        if isinstance(value, PObj)")
    w.w(4, f"        and {field!r} in all_fields(value.classname)")
    w.w(4, "        else None)")
    w.w(4, "addr_memo[value] = addr")
    if dead:
        w.w(3, "if addr is not None:")
        w.w(4, "reads.add(addr)")
        w.w(4, "store.get_mask(addr)")
        w.w(2, "return []")
        w.w(1, "return step")
        return
    w.w(3, "if addr is None:")
    w.w(4, "continue")
    w.w(3, "reads.add(addr)")
    w.w(3, "field_values = store.get_mask(addr)")
    w.w(3, "if field_values:")
    w.w(4, f"joins.append(({tgt}, field_values))")
    _fj_succ_lines(w, 2)
    w.w(2, "return [(succ, joins)]")
    w.w(1, "return step")


def _fj_return(w: _Writer, stmt):
    src = repr((stmt.var, _EMPTY))
    # Interned tables get a *delta decode*: the kont mask at one
    # ``kont_ptr`` address only ever grows, so each step decodes just
    # the added bits (``kont_mask & ~prev``) and merges the new rows
    # into a bit-ordered row list — full-mask decode order is exactly
    # bit order, so the successor order is unchanged.  Each row also
    # carries the union of masks it has already joined into its
    # target (``None`` until its first yield), letting a saturated
    # row drop out of the successor list entirely.
    w.w(1, "decode = table.decode")
    w.w(1, "decode_iter = table.decode_iter")
    w.w(1, "kont_memo = {}")
    w.w(1, "if table.interned:")
    w.w(2, "values_tab = table._values")
    w.w(2, "states = {}")
    w.w(2, "")
    w.w(2, "def step(config, store, reads, recorder):")
    w.w(3, f"reads.add({src})")
    w.w(3, f"values = store.get_mask({src})")
    w.w(3, "kont_ptr = config.kont_ptr")
    w.w(3, "if kont_ptr is HALT_PTR:")
    w.w(4, "recorder.halt_values |= decode(values)")
    w.w(4, "return []")
    w.w(3, "reads.add(kont_ptr)")
    w.w(3, "kont_mask = store.get_mask(kont_ptr)")
    w.w(3, "state = states.get(kont_ptr)")
    w.w(3, "if state is None:")
    w.w(4, "state = [0, []]")
    w.w(4, "states[kont_ptr] = state")
    w.w(3, "rows = state[1]")
    w.w(3, "if kont_mask != state[0]:")
    w.w(4, "added = kont_mask & ~state[0]")
    w.w(4, "state[0] = kont_mask")
    w.w(4, "fresh = []")
    w.w(4, "while added:")
    w.w(5, "low = added & -added")
    w.w(5, "added ^= low")
    w.w(5, "pair = kont_memo.get(low, MISSING)")
    w.w(5, "if pair is MISSING:")
    w.w(6, "kont = values_tab[low.bit_length() - 1]")
    w.w(6, "pair = None")
    w.w(6, "if isinstance(kont, PKont):")
    w.w(7, "pair = ((kont.var, kont.caller_entry),")
    w.w(7, "        PConfig(kont.stmt, kont.caller_entry,")
    w.w(7, "                kont.kont_ptr, ()))")
    w.w(6, "kont_memo[low] = pair")
    w.w(5, "if pair is not None:")
    w.w(6, "fresh.append([low, pair[0], pair[1], None])")
    w.w(4, "if fresh:")
    w.w(5, "if rows and fresh[0][0] < rows[-1][0]:")
    w.w(6, "rows.extend(fresh)")
    w.w(6, "rows.sort(key=lambda row: row[0])")
    w.w(5, "else:")
    w.w(6, "rows.extend(fresh)")
    w.w(3, "succs = []")
    w.w(3, "for row in rows:")
    w.w(4, "emitted = row[3]")
    w.w(4, "if emitted is None:")
    w.w(5, "row[3] = values")
    w.w(5, "succs.append((row[2],")
    w.w(5, "              [(row[1], values)] if values else []))")
    w.w(4, "elif values | emitted != emitted:")
    w.w(5, "row[3] = emitted | values")
    w.w(5, "succs.append((row[2], [(row[1], values)]))")
    w.w(3, "return succs")
    w.w(2, "return step")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    w.w(2, f"reads.add({src})")
    w.w(2, f"values = store.get_mask({src})")
    w.w(2, "kont_ptr = config.kont_ptr")
    w.w(2, "if kont_ptr is HALT_PTR:")
    w.w(3, "recorder.halt_values |= decode(values)")
    w.w(3, "return []")
    w.w(2, "reads.add(kont_ptr)")
    w.w(2, "succs = []")
    w.w(2, "for kont in decode_iter(store.get_mask(kont_ptr)):")
    w.w(3, "entry = kont_memo.get(kont, MISSING)")
    w.w(3, "if entry is MISSING:")
    w.w(4, "entry = None")
    w.w(4, "if isinstance(kont, PKont):")
    w.w(5, "entry = ((kont.var, kont.caller_entry),")
    w.w(5, "         PConfig(kont.stmt, kont.caller_entry,")
    w.w(5, "                 kont.kont_ptr, ()))")
    w.w(4, "kont_memo[kont] = entry")
    w.w(3, "if entry is None:")
    w.w(4, "continue")
    w.w(3, "target, succ = entry")
    w.w(3, "joins = [(target, values)] if values else []")
    w.w(3, "succs.append((succ, joins))")
    w.w(2, "return succs")
    w.w(1, "return step")


def _fj_invoke(w: _Writer, program, stmt, exp):
    label = stmt.label
    recv = repr((exp.target, _EMPTY))
    arg_addrs = tuple((arg, _EMPTY) for arg in exp.args)
    nargs = len(arg_addrs)
    if program.succ(label) is None:
        w.w(1, "")
        w.w(1, "def step(config, store, reads, recorder):")
        w.w(2, f"reads.add({recv})")
        w.w(2, f"store.get_mask({recv})")
        w.w(2, "return []")
        w.w(1, "return step")
        return
    w.w(1, "lookup_method = program.lookup_method")
    w.w(1, "decode_iter = table.decode_iter")
    w.w(1, "bit_for = table.bit_for")
    w.w(1, "dispatch_memo = {}")
    w.w(1, "plan_memo = {}")
    w.w(1, "kont_bits = {}")
    w.w(1, "recorded = set()")

    def body(ind: int, interned: bool):
        if interned:
            # The receiver address is a per-node constant, so its
            # mask only grows: decode just the added bits per step
            # and accumulate the dispatch set.  ``sorted`` re-imposes
            # the qualified-name order the per-step rebuild produced,
            # so it only reruns when a new method actually appears.
            w.w(ind, "values_tab = table._values")
            w.w(ind, "dispatch_state = [0, {}, ()]")
        w.w(ind, "")
        w.w(ind, "def step(config, store, reads, recorder):")
        b = ind + 1
        w.w(b, f"reads.add({recv})")
        w.w(b, f"receivers = store.get_mask({recv})")
        for i, addr in enumerate(arg_addrs):
            w.w(b, f"reads.add({addr!r})")
            w.w(b, f"m{i} = store.get_mask({addr!r})")
        if interned:
            w.w(b, "if receivers != dispatch_state[0]:")
            w.w(b + 1, "added = receivers & ~dispatch_state[0]")
            w.w(b + 1, "dispatch_state[0] = receivers")
            w.w(b + 1, "methods = dispatch_state[1]")
            w.w(b + 1, "grew = False")
            w.w(b + 1, "while added:")
            w.w(b + 2, "low = added & -added")
            w.w(b + 2, "added ^= low")
            w.w(b + 2, "method = dispatch_memo.get(low, MISSING)")
            w.w(b + 2, "if method is MISSING:")
            w.w(b + 3, "value = values_tab[low.bit_length() - 1]")
            w.w(b + 3, "method = None")
            w.w(b + 3, "if isinstance(value, PObj):")
            w.w(b + 4, f"found = lookup_method(value.classname, "
                       f"{exp.method!r})")
            w.w(b + 4, "if found is not None "
                       f"and len(found.params) == {nargs}:")
            w.w(b + 5, "method = found")
            w.w(b + 3, "dispatch_memo[low] = method")
            w.w(b + 2, "if method is not None:")
            w.w(b + 3, "name = method.qualified_name")
            w.w(b + 3, "if name not in methods:")
            w.w(b + 4, "methods[name] = method")
            w.w(b + 4, "grew = True")
            w.w(b + 1, "if grew:")
            w.w(b + 2, "dispatch_state[2] = sorted(methods.items())")
            w.w(b, "dispatch = dispatch_state[2]")
        else:
            w.w(b, "methods = {}")
            w.w(b, "for value in decode_iter(receivers):")
            w.w(b + 1, "method = dispatch_memo.get(value, MISSING)")
            w.w(b + 1, "if method is MISSING:")
            w.w(b + 2, "method = None")
            w.w(b + 2, "if isinstance(value, PObj):")
            w.w(b + 3, f"found = lookup_method(value.classname, "
                       f"{exp.method!r})")
            w.w(b + 3, "if found is not None "
                       f"and len(found.params) == {nargs}:")
            w.w(b + 4, "method = found")
            w.w(b + 2, "dispatch_memo[value] = method")
            w.w(b + 1, "if method is not None:")
            w.w(b + 2, "methods[method.qualified_name] = method")
            w.w(b, "dispatch = sorted(methods.items())")
        w.w(b, "kont_ptr = config.kont_ptr")
        w.w(b, "succs = []")
        w.w(b, "for qualified_name, method in dispatch:")
        l = b + 1
        w.w(l, "kont_bit = kont_bits.get(kont_ptr)")
        w.w(l, "if kont_bit is None:")
        w.w(l + 1, f"kont_bit = bit_for(PKont({stmt.var!r}, "
                   f"following, (), (), kont_ptr))")
        w.w(l + 1, "kont_bits[kont_ptr] = kont_bit")
        w.w(l, "plan = plan_memo.get(qualified_name)")
        w.w(l, "if plan is None:")
        w.w(l + 1, "kont_addr = (qualified_name, ())")
        w.w(l + 1, "param_addrs = tuple((name, ())"
                   " for name in method.param_names())")
        if interned:
            w.w(l + 1, "plan = (kont_addr, param_addrs,")
            w.w(l + 1, "        PConfig(method.body[0], (), "
                       "kont_addr, ()),")
            w.w(l + 1, "        new_shadow(store, (kont_addr, "
                       "('this', ())) + param_addrs))")
        else:
            w.w(l + 1, "plan = (kont_addr, param_addrs,")
            w.w(l + 1, "        PConfig(method.body[0], (), "
                       "kont_addr, ()))")
        w.w(l + 1, "plan_memo[qualified_name] = plan")
        if interned:
            w.w(l, "kont_addr, param_addrs, succ, shadow = plan")
        else:
            w.w(l, "kont_addr, param_addrs, succ = plan")
        w.w(l, "if qualified_name not in recorded:")
        w.w(l + 1, "recorded.add(qualified_name)")
        w.w(l + 1, "recorder.invoke_targets.setdefault(")
        w.w(l + 1, f"    {label}, set()).add(qualified_name)")
        w.w(l + 1, "recorder.method_contexts.setdefault(")
        w.w(l + 1, "    qualified_name, set()).add(())")
        if interned:
            names = ["kont_bit", "receivers"] + \
                [f"m{i}" for i in range(nargs)]
            targets = ["kont_addr", "('this', ())"] + \
                [f"param_addrs[{i}]" for i in range(nargs)]
            _emit_lane_diff(w, l, names, targets)
        else:
            w.w(l, "joins = [(kont_addr, kont_bit)]")
            w.w(l, "if receivers:")
            w.w(l + 1, "joins.append(((\"this\", ()), receivers))")
            for i in range(nargs):
                w.w(l, f"if m{i}:")
                w.w(l + 1, f"joins.append((param_addrs[{i}], m{i}))")
            w.w(l, "succs.append((succ, joins))")
        w.w(b, "return succs")
        w.w(ind, "return step")

    w.w(1, "if table.interned:")
    body(2, True)
    body(1, False)


def _fj_new(w: _Writer, program, stmt, exp):
    arg_addrs = tuple((arg, _EMPTY) for arg in exp.args)
    tgt = repr((stmt.var, _EMPTY))
    wiring = program.ctor_wiring[exp.classname]
    dead = program.succ(stmt.label) is None
    w.w(1, "bit_for = table.bit_for")
    w.w(1, f"obj = PObj({exp.classname!r}, {stmt.label}, ())")
    w.w(1, "obj_cell = []")
    if dead:
        w.w(1, "")
        w.w(1, "def step(config, store, reads, recorder):")
        for i, addr in enumerate(arg_addrs):
            w.w(2, f"reads.add({addr!r})")
            w.w(2, f"m{i} = store.get_mask({addr!r})")
        w.w(2, "recorder.objects.add(obj)")
        w.w(2, "if not obj_cell:")
        w.w(3, "obj_cell.append(bit_for(obj))")
        w.w(2, "return []")
        w.w(1, "return step")
        return
    # ``emitted`` holds per-wiring-slot unions of the masks already
    # joined (``None`` until a slot's first join; the last slot flags
    # the constant object-bit join), and ``succ_memo`` rows are
    # ``[succ, yielded]``.  A step where no slot grows and this
    # config has already yielded returns no successors at all —
    # every join would be growthless and the successor is seen.
    w.w(1, "succ_memo = {}")
    w.w(1, f"emitted = [None] * {len(wiring) + 1}")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    for i, addr in enumerate(arg_addrs):
        w.w(2, f"reads.add({addr!r})")
        w.w(2, f"m{i} = store.get_mask({addr!r})")
    w.w(2, "recorder.objects.add(obj)")
    w.w(2, "if not obj_cell:")
    w.w(3, "obj_cell.append(bit_for(obj))")
    w.w(2, f"fresh = emitted[{len(wiring)}] is None")
    for slot, (fieldname, param_index) in enumerate(wiring):
        w.w(2, f"if m{param_index} and not fresh:")
        w.w(3, f"e = emitted[{slot}]")
        w.w(3, f"if e is None or m{param_index} | e != e:")
        w.w(4, "fresh = True")
    w.w(2, "kont_ptr = config.kont_ptr")
    w.w(2, "entry = succ_memo.get(kont_ptr)")
    w.w(2, "if entry is None:")
    w.w(3, "entry = [PConfig(following, (), kont_ptr, ()), False]")
    w.w(3, "succ_memo[kont_ptr] = entry")
    w.w(2, "if not fresh and entry[1]:")
    w.w(3, "return []")
    w.w(2, "joins = []")
    for slot, (fieldname, param_index) in enumerate(wiring):
        # Receiver-insensitive: the field key is the bare field name.
        w.w(2, f"if m{param_index}:")
        w.w(3, f"joins.append((({fieldname!r}, ()), m{param_index}))")
        w.w(3, f"e = emitted[{slot}]")
        w.w(3, f"emitted[{slot}] = "
               f"m{param_index} if e is None else e | m{param_index}")
    w.w(2, f"joins.append(({tgt}, obj_cell[0]))")
    w.w(2, f"emitted[{len(wiring)}] = True")
    w.w(2, "entry[1] = True")
    w.w(2, "return [(entry[0], joins)]")
    w.w(1, "return step")
