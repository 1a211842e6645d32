"""Source-level codegen: emitted step loops + bit-parallel transfer.

The top engine tier (``codegen`` in :data:`repro.analysis.engine.
TIERS`).  Where the generic kernel dispatches on node type at every
step, this module walks the whole compiled program **ahead of time**
and emits actual Python source — one step function per labeled node,
with labels, primitive kinds and atom shapes inlined as literals —
which is ``exec``'d into a module and driven unchanged by the inlined
single-store loop in :mod:`repro.analysis.engine`.  Generated modules
are content-addressed and cached (:class:`~repro.cache.CodegenCache`),
so the emission walk is paid once per ``(schema, program)``.

Only warm fleet workers run this tier.  Emitting a module and
``compile()``-ing it costs far more than one fixpoint of the cheap
analyses, so it pays off only where the module is reused across
jobs; one-shot runs take the specialized or generic loop instead.

Covered machines
----------------

One kind of module covers every flat-environment kernel — 0CFA, and
m-CFA and poly-k-CFA at any depth: straight-line bodies with the
allocator and the §5.2 copy loop inlined.  The allocator is called at
run time, so one module per program serves every flat policy and
depth.  Addresses depend on the run-time environment, so there is no
constant-address folding — instead each apply node memoizes a
per-(environment, operator) *plan* (allocation, record hooks,
copy-loop sources and targets resolved once) and runs a packed-shadow
bit-parallel transfer over the plan's targets.

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
* every Featherweight Java machine — the flat FJ machine memoizes its
  own invoke plans (:meth:`repro.fj.poly.FJFlatMachine._invoke`), and
  a generated copy of it measured no faster.

Bit-parallel transfer
---------------------

Each apply plan's join targets (its parameters, then its §5.2
free-variable copies) form one address range known when the plan is
built.  The plan keeps a **packed shadow**: the range's masks side by
side in one big int, one lane per address.  A step batches its
per-address ``|=`` joins into a single multi-word operation::

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
holds every covered analysis to it.  Generated steps work on the
interned bitsets directly (``table._values``, ``bit_length``), so
they run only over :class:`~repro.analysis.interning.ValueTable`.

Cache key
---------

``sha256({schema, program fingerprint})``.  Emitted source calls the
allocator at run time, so no policy, shape or depth appears in the
text, and 0CFA, m-CFA and poly-k-CFA share one module per program.
The program fingerprint hashes the labeled AST's repr (dataclass
reprs are content-complete, labels included).
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.domains import FClo, abstract_literal
from repro.analysis.kernel import FlatEnv, Kernel
from repro.cache import (
    CODEGEN_SCHEMA_VERSION, CodegenCache, default_codegen_dir,
)
from repro.cps.syntax import (
    AppCall, FixCall, HaltCall, IfCall, Lam, PrimCall, Ref,
    free_vars_of_lam,
)
from repro.scheme.primitives import lookup_primitive

#: Sentinel shared with generated modules (``dict.get`` default that
#: can never be a real entry — mirrors the specializer's ``_MISSING``).
MISSING = object()


# -- keys and the process-default cache --------------------------------

def program_fingerprint(program) -> str:
    """Content hash of a compiled :class:`~repro.cps.program.Program`:
    the root call's repr (every node is a dataclass whose repr prints
    all fields, labels included).  Memoized on the program object, so
    a warm worker's cached program hashes once."""
    cached = getattr(program, "_codegen_fingerprint", None)
    if cached is None:
        text = repr(program.root)
        cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
        try:
            program._codegen_fingerprint = cached
        except AttributeError:
            pass
    return cached


def codegen_key(program) -> str:
    """The content-addressed key of one generated module:
    ``(codegen schema version, program content key)``."""
    document = json.dumps({
        "schema": CODEGEN_SCHEMA_VERSION,
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


def generate_source(program, key: str | None = None) -> str:
    """Emit the generated module's source text for *program*
    (exposed for tests and offline inspection)."""
    if key is None:
        key = codegen_key(program)
    w = _Writer()
    _module_head(w, key)
    labels = sorted(program.calls_by_label)
    _emit_build(w, labels)
    for label in labels:
        call = program.calls_by_label[label]
        emitter = _EMITTERS.get(type(call))
        if emitter is None:
            raise TypeError(f"cannot emit call {call!r}")
        w.w(0, "", "")
        w.w(0, f"def _b{label}(K):")
        w.w(1, f"call = K.program.calls_by_label[{label}]")
        w.w(1, "table = K.table")
        emitter(w, call)
    return w.text()


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


def enter_info(operator, nargs):
    """An apply plan's structure: ``(lam, params, free-vars)`` or
    ``None`` — the *same* free-vars frozenset the generic rep
    iterates."""
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
    """A packed shadow over a plan's join targets: the current
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
    """One plan's bit-parallel transfer, out of line: the fallback of
    the inline block ``_f_app`` emits, taken when a mask outgrows the
    shadow's lane width.  Pack *masks* onto the shadow's lanes (a
    plan's parameters plus its §5.2 free-variable copies), one
    compare for the whole range, and emit only the grown lanes (an
    empty join tuple in the saturated steady state)."""
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
    specialization = "flat"

    def __init__(self, program, rep, cache: CodegenCache | None = None):
        super().__init__(program, rep)
        self._cache = cache

    def boot(self, store):
        config = super().boot(store)
        cache = self._cache
        if cache is None:
            cache = default_codegen_cache()
        program = self.program
        key = codegen_key(program)
        module = cache.module_for(
            key, lambda: generate_source(program, key))
        steps: dict = {}
        module["build"](self, steps)
        self._steps = steps
        return config

    def step(self, config, store, reads, recorder):
        return self._steps[config.call.label](
            config, store, reads, recorder)


def codegen_machine(machine, cache: CodegenCache | None = None):
    """The codegen stage's dispatch: a generated-source machine for a
    flat-environment kernel, or ``None`` for every other machine (see
    the module docstring's coverage list).

    Declines on the spot (memoizing the probe) when the program is
    too deeply nested to fingerprint — ``repr`` of a dataclass AST
    recurses, and a pathologically deep term would blow the stack at
    boot.  Codegen must never make an analysis fail; such programs
    fall back to the specialized tier."""
    if isinstance(machine, Kernel) and isinstance(machine.rep, FlatEnv):
        try:
            program_fingerprint(machine.program)
        except RecursionError:
            return None
        return CodegenFlatKernel(machine.program, machine.rep, cache)
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


def _pack_expr(names) -> str:
    terms = [names[0]]
    for index, name in enumerate(names[1:], start=1):
        shift = "width" if index == 1 else f"({index} * width)"
        terms.append(f"({name} << {shift})")
    return " | ".join(terms)


def _module_head(w: _Writer, key: str):
    w.w(0, '"""Generated step loops — flat environments.')
    w.w(0, "")
    w.w(0, "Emitted by repro.analysis.codegen; content-addressed (the")
    w.w(0, "file name is the key), regenerated on any program or schema")
    w.w(0, 'change.  Do not edit."""')
    w.w(0, f"SCHEMA = {CODEGEN_SCHEMA_VERSION}")
    w.w(0, f"KEY = {key!r}")
    w.w(0, "")
    w.w(0, "from repro.analysis.codegen import (")
    w.w(0, "    MISSING, enter_info, flat_transfer, lit_bit, new_shadow,")
    w.w(0, "    prim_enter_info,")
    w.w(0, ")")
    w.w(0, "from repro.analysis.domains import APair, BASIC, FClo")
    w.w(0, "from repro.analysis.kernel import FConfig")
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


# -- emitters, one per call type ---------------------------------------

def _f_atom_binder(w: _Writer, exp, cname: str, access: str):
    """Binder-time lines for one atom: literal bits intern at
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

    # A per-environment record (the atom addresses, read once, plus
    # a per-operator plan dict).  A plan pre-builds the successor, the
    # copy sources, and a packed shadow over its whole join range —
    # parameters and §5.2 free-variable copies alike — so the
    # saturated steady state emits no joins at all.
    w.w(1, "values = table._values")
    w.w(1, "empty = table.empty")
    w.w(1, "envs = {}")
    w.w(1, "")
    w.w(1, "def step(config, store, reads, recorder):")
    b = 2
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


_EMITTERS = {
    AppCall: _f_app,
    IfCall: _f_if,
    PrimCall: _f_prim,
    FixCall: _f_fix,
    HaltCall: _f_halt,
}
