"""Context policies: the tick/alloc axis of the AAM kernel, as data.

Van Horn & Mairson's EXPTIME result and the m-CFA construction pin
the whole functional-vs-OO complexity gap on three choices — how times
tick, how addresses allocate, and how environments are represented.
This module is that axis made into values:

* **Scheme/CPS policies** are small callables handed to the kernel's
  environment representations (:class:`~repro.analysis.kernel.
  SharedEnv` takes a ``tick``, :class:`~repro.analysis.kernel.FlatEnv`
  an ``alloc``); the third rep,
  :class:`~repro.analysis.kernel.SummaryEnv`, takes no callable at all
  — its whole policy is the static stack/heap split computed by
  :func:`summary_layout` below.
* **Featherweight Java policies** are :class:`FJContextPolicy` values
  consumed by the FJ machines (:mod:`repro.fj.kcfa`,
  :mod:`repro.fj.poly`), which keep their own syntax-directed step
  rules but draw every context decision from the policy.

Every analysis in the repository is one of these values registered in
:mod:`repro.analysis.registry`; adding an analysis means declaring a
policy here, not writing a machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.domains import first_k
from repro.cps.syntax import (
    FixCall, Lam, Ref, call_children, call_exps,
)

# -- Scheme/CPS context policies -----------------------------------------


def call_site_tick(k: int):
    """k-CFA's tick (§3.5.1): keep the last *k* call-site labels."""
    def tick(call_label: int, time: tuple) -> tuple:
        return first_k(k, (call_label, *time))
    return tick


def mcfa_allocator(m: int):
    """The §5.3 allocator: top-m-frames with continuation restore.

    A *procedure* call pushes the call site and keeps the top m
    frames; a *continuation* call **restores** the environment the
    continuation closed over (the caller's frames — a return).
    """
    def alloc(call_label: int, caller_env: tuple, lam: Lam,
              callee_env: tuple) -> tuple:
        if lam.is_user:
            return first_k(m, (call_label, *caller_env))
        return callee_env
    return alloc


def poly_kcfa_allocator(k: int):
    """Last-k-call-sites for *every* call — the naive JW instantiation
    the paper's §6 evaluates against.  Any intervening call rotates
    the context window, merging bindings m-CFA keeps apart."""
    def alloc(call_label: int, caller_env: tuple, lam: Lam,
              callee_env: tuple) -> tuple:
        return first_k(k, (call_label, *caller_env))
    return alloc


# -- the pushdown summary layout (third env rep) -------------------------

#: The frame of top-level calls (no enclosing user lambda).  A string,
#: so it can never collide with a lambda label (labels are ints).
ROOT_FRAME = "root"

#: The single allocation context of heap-escaping bindings and pair
#: fields under the summary rep.  Binder names are globally unique
#: (validated by :class:`~repro.cps.program.Program`), so one shared
#: context keeps name-keyed heap addresses unambiguous — and keeps the
#: abstract-pair domain finite, which is what bounds the entry-summary
#: key space.
SUMMARY_HEAP = ("heap",)


@dataclass(frozen=True)
class SummaryLayout:
    """The static stack/heap split the summary rep executes against.

    CFA2's insight (PAPERS.md) is that a reference is *stack-resolvable*
    exactly when it occurs in the same user-procedure frame that bound
    it — continuations run in their creator's frame, so a CPS program's
    frames are delimited by its *user* lambdas alone.  Everything else
    (captures by nested lambdas, recursive fix references) escapes to
    the heap.  All three maps are syntax-directed and computed once per
    program:

    * ``owner_of_call`` — call label → the user frame its code runs in
      (:data:`ROOT_FRAME` at top level);
    * ``frame_of_binder`` — binder name → the user frame its binding
      lives in (a user lambda's own entry frame for its parameters; the
      *defining* frame for continuation parameters and fix bindings);
    * ``heap_names`` — binders with at least one cross-frame reference;
      their bindings are mirrored to ``(name, SUMMARY_HEAP)``.
    """

    owner_of_call: dict
    frame_of_binder: dict
    heap_names: frozenset


def summary_layout(program) -> SummaryLayout:
    """Compute the :class:`SummaryLayout` of *program* (iteratively —
    generated CPS nests deeply enough to overflow Python recursion)."""
    owner_of_call: dict = {}
    frame_of_binder: dict = {}
    stack = [(program.root, ROOT_FRAME)]
    while stack:
        call, frame = stack.pop()
        owner_of_call[call.label] = frame
        if isinstance(call, FixCall):
            for name, _lam in call.bindings:
                frame_of_binder[name] = frame
        for exp in call_exps(call):
            if isinstance(exp, Lam):
                # A user lambda opens a new frame; a continuation's
                # body runs in the frame that created it (entering a
                # continuation *restores* that frame).
                inner = exp.label if exp.is_user else frame
                for param in exp.params:
                    frame_of_binder[param] = inner
                stack.append((exp.body, inner))
        for child in call_children(call):
            stack.append((child, frame))
    heap_names = set()
    for call in program.calls:
        frame = owner_of_call[call.label]
        for exp in call_exps(call):
            if isinstance(exp, Ref) and \
                    frame_of_binder[exp.name] != frame:
                heap_names.add(exp.name)
    return SummaryLayout(owner_of_call=owner_of_call,
                         frame_of_binder=frame_of_binder,
                         heap_names=frozenset(heap_names))


# -- Featherweight Java context policies ---------------------------------

#: Context elements of receiver-sensitive FJ policies are tagged so an
#: allocation site can never collide with a call-site label.
CALL_ELEM = "C"
OBJ_ELEM = "O"


class FJContextPolicy:
    """What an FJ machine asks its context policy.

    * ``step(label, now)`` — time after a non-invocation statement
      (also the allocation time of a ``new`` at that statement);
    * ``invoke(label, now, entry, receiver)`` — the callee's entry
      time.  ``entry`` is the caller's method-entry context (flat
      machine only; ``None`` on the map-based machine) and
      ``receiver`` the receiver object when the policy is
      receiver-sensitive (``None`` otherwise);
    * ``ret(label, now, saved)`` — the caller's time after a return,
      given the continuation's saved time;
    * ``receiver_sensitive`` — whether ``invoke`` needs the receiver
      (forces the flat machine's per-receiver invoke path);
    * ``this_mode`` — how ``this`` is bound on entry: ``"join-all"``
      (the whole receiver flow set, the historical Figure 9
      behaviour), ``"alias"`` (only the dispatching receiver) or
      ``"rebind"`` (copy the receiver's fields into the entry
      context — flat-closure copying for objects);
    * ``display`` — the ticking label reports print.
    """

    receiver_sensitive = False
    this_mode = "join-all"
    display = "invocation"

    def initial(self) -> tuple:
        return ()


@dataclass(frozen=True)
class FJCallSite(FJContextPolicy):
    """The paper's §4.3/§4.5 policies: last-k labels, ticked either at
    every statement or only at invocations (with return-restore)."""

    k: int
    tick: str = "invocation"  # or "statement"

    @property
    def display(self) -> str:
        return self.tick

    def step(self, label: int, now: tuple) -> tuple:
        if self.tick == "statement":
            return first_k(self.k, (label, *now))
        return now

    def invoke(self, label: int, now: tuple, entry, receiver) -> tuple:
        return first_k(self.k, (label, *now))

    def ret(self, label: int, now: tuple, saved: tuple) -> tuple:
        if self.tick == "invocation":
            return saved
        return first_k(self.k, (label, *now))


@dataclass(frozen=True)
class FJStack(FJContextPolicy):
    """m-CFA for Featherweight Java: top-m stack frames with flat
    method environments.

    Entering a method pushes the call site onto the *caller's entry*
    frames; returning restores them; and ``this`` is re-bound by
    **copying the receiver's fields into the entry context** — the
    §5.2 free-variable-copying move with an object's fields playing
    the free variables.  Every address a method body touches then
    shares one base context, the §4.4 invariant that makes the state
    space polynomial.  Sound because FJ fields are write-once
    (constructor-only); the copy re-runs when its source grows, via
    the engine's dependency tracking.
    """

    m: int

    receiver_sensitive = True
    this_mode = "rebind"
    display = "stack"

    def step(self, label: int, now: tuple) -> tuple:
        return now

    def invoke(self, label: int, now: tuple, entry: tuple,
               receiver) -> tuple:
        return first_k(self.m, (label, *entry))

    def ret(self, label: int, now: tuple, saved: tuple) -> tuple:
        return saved


@dataclass(frozen=True)
class FJHybrid(FJContextPolicy):
    """The hybrid call-site/object-sensitivity ladder.

    A callee context is the concatenation of the two axes, each drawn
    from its own history so neither can crowd out the other:

    * the receiver's **allocation chain** — its own site plus the
      ``O`` elements of its allocation context — truncated to
      ``obj_depth`` (object sensitivity);
    * the **call-site stack** — this call's label plus the ``C``
      elements of the caller's entry context — truncated to
      ``call_depth``.

    ``call_depth = 0`` is pure object sensitivity (Milanova-style
    obj^n: shallow allocation chains simply yield short contexts —
    there is no call-site padding, which is exactly why obj^n cannot
    separate two calls on the same receiver at any depth);
    ``obj_depth = 0`` is pure entry-stack call-site windows; anything
    between is a rung of the ladder.
    """

    call_depth: int
    obj_depth: int = 1

    receiver_sensitive = True
    this_mode = "alias"

    @property
    def display(self) -> str:
        return f"hybrid[obj={self.obj_depth},call={self.call_depth}]"

    def step(self, label: int, now: tuple) -> tuple:
        return now

    def invoke(self, label: int, now: tuple, entry: tuple,
               receiver) -> tuple:
        chain = ((OBJ_ELEM, receiver.site),) + tuple(
            elem for elem in receiver.time if elem[0] == OBJ_ELEM)
        calls = ((CALL_ELEM, label),) + tuple(
            elem for elem in entry if elem[0] == CALL_ELEM)
        return (first_k(self.obj_depth, chain)
                + first_k(self.call_depth, calls))

    def ret(self, label: int, now: tuple, saved: tuple) -> tuple:
        return saved
