"""Abstract domains shared by the functional analyses.

Values (paper §3.4, extended with pairs and a basic top):

* :class:`KClo` — a shared-environment abstract closure ``(lam, β̂)``,
  where β̂ maps each variable to its binding *time* (the paper's
  footnote 3: since ``alloc(v, t) = (v, t)``, an environment is fully
  determined by the times alone).
* :class:`FClo` — a flat-environment abstract closure ``(lam, ρ̂)``,
  where ρ̂ is a bounded tuple of call-site labels (§5.2).
* :class:`SClo` / :class:`SCont` — the pushdown-summary closures: an
  environment-less user closure and a frame-restoring continuation
  closure (see :class:`repro.analysis.kernel.SummaryEnv`).
* :data:`BASIC` — the single abstraction of every non-closure,
  non-pair value (numbers, booleans, strings, symbols, nil, void).
* :class:`APair` — a field-sensitive abstract cons cell holding the
  *addresses* of its components.

The :class:`AbsStore` is the single-threaded store of §3.7: a monotone
map from addresses to value sets whose :meth:`~AbsStore.join` reports
whether the store grew (driving dependency re-enqueueing).  The
immutable :class:`FrozenStore` backs the naive §3.6 engine, where every
abstract state carries its own store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.cps.syntax import Lam

#: An abstract time: the last ≤ k call-site labels (§3.5.1).
Time = tuple[int, ...]

#: An abstract flat environment: the top ≤ m frames (§5.3).
FlatEnvAbs = tuple[int, ...]

#: Abstract addresses are (name, context) pairs; ``name`` is a variable
#: or a synthetic pair-field token like ``"car@17"``.
Addr = tuple[str, Hashable]


def first_k(k: int, labels: tuple[int, ...]) -> tuple[int, ...]:
    """``firstk`` from the paper: keep the most recent *k* entries."""
    return labels[:k]


class BasicValue:
    """The abstraction of every non-closure, non-pair runtime value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊤basic"

    def __reduce__(self):
        return (BasicValue, ())


BASIC = BasicValue()


@dataclass(frozen=True, slots=True, eq=False)
class AConst:
    """An exactly-known atomic constant (a program literal).

    Program literals are finitely many, so tracking them exactly keeps
    the domain finite while letting the analyses distinguish, e.g.,
    ``(id 3)`` from ``(id 4)`` — the observable in the paper's §6
    identity example.  Primitive *results* still abstract to
    :data:`BASIC`; quoted list structure also stays :data:`BASIC`.

    Equality is *datum-type-sensitive*: ``AConst(True) != AConst(1)``
    and ``AConst(False) != AConst(0)``, even though Python's ``bool``
    compares equal to ``int``.  Booleans and numbers are distinct
    Scheme data with different truthiness, and the hash-consing table
    must never hand ``#f`` the bit of ``0`` (whose truthiness differs).
    """

    datum: object

    def __eq__(self, other) -> bool:
        return isinstance(other, AConst) and \
            type(other.datum) is type(self.datum) and \
            other.datum == self.datum

    def __hash__(self) -> int:
        return hash((type(self.datum).__name__, self.datum))

    def __repr__(self) -> str:
        if self.datum is True:
            return "#t"
        if self.datum is False:
            return "#f"
        return repr(str(self.datum)) if isinstance(self.datum, str) \
            else repr(self.datum)


def abstract_literal(datum: object) -> "AConst | BasicValue":
    """The abstraction of a ``Lit`` node's datum."""
    if isinstance(datum, (bool, int)):
        return AConst(datum)
    if isinstance(datum, str):  # strings and symbols
        return AConst(str(datum))
    return BASIC  # quoted structure (lists) collapses to basic


def maybe_truthy(value: "AbsVal") -> bool:
    """Could this abstract value be a concrete non-#f value?"""
    if isinstance(value, AConst):
        return value.datum is not False
    return True


def maybe_falsy(value: "AbsVal") -> bool:
    """Could this abstract value be the concrete value #f?"""
    if isinstance(value, AConst):
        return value.datum is False
    return value is BASIC


class BEnv:
    """An immutable abstract binding environment: variable → time.

    One dict, built in sorted order, serves lookups, iteration and
    equality; the hash is the sorted item tuple's, computed once at
    construction (environments are read far more often than they are
    created, and set iteration orders follow that hash).
    """

    __slots__ = ("_dict", "_hash")

    def __init__(self, items: Iterable[tuple[str, Time]] = ()):
        pairs = sorted(items)
        self._dict = dict(pairs)
        self._hash = hash(tuple(pairs))

    def __getitem__(self, name: str) -> Time:
        return self._dict[name]

    def get(self, name: str, default=None):
        return self._dict.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._dict

    def __iter__(self) -> Iterator[str]:
        return iter(self._dict)

    def items(self) -> tuple[tuple[str, Time], ...]:
        return tuple(self._dict.items())

    def extend(self, names: Iterable[str], time: Time) -> "BEnv":
        """Bind every name in *names* at *time*."""
        updated = dict(self._dict)
        for name in names:
            updated[name] = time
        return BEnv(updated.items())

    def restrict(self, names: frozenset[str]) -> "BEnv":
        """Keep only *names* (free-variable restriction at closure
        creation)."""
        return BEnv((name, time) for name, time in self._dict.items()
                    if name in names)

    def __eq__(self, other) -> bool:
        return isinstance(other, BEnv) and self._dict == other._dict

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._dict)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}→{time}"
                          for name, time in self._dict.items())
        return "{" + inner + "}"


EMPTY_BENV = BEnv()


@dataclass(frozen=True, slots=True)
class KClo:
    """Shared-environment abstract closure (k-CFA)."""

    lam: Lam
    benv: BEnv

    def __repr__(self) -> str:
        return f"clo[{self.lam.label}]{self.benv!r}"


@dataclass(frozen=True, slots=True)
class FClo:
    """Flat-environment abstract closure (m-CFA / poly k-CFA)."""

    lam: Lam
    env: FlatEnvAbs

    def __repr__(self) -> str:
        return f"fclo[{self.lam.label}]{list(self.env)}"


@dataclass(frozen=True, slots=True)
class SClo:
    """Summary-rep abstract *user* closure: the lambda alone.

    The pushdown summarization rep (CFA2 / the pushdown line cited in
    PAPERS.md) keeps no environment inside a user closure — captured
    variables live at name-keyed heap addresses instead, so the same
    lambda reaching a call site from two different creation contexts
    is *one* abstract operator.  That collapse is what keeps the
    entry-summary table polynomial on the Van Horn–Mairson ladder.
    """

    lam: Lam

    def __repr__(self) -> str:
        return f"sclo[{self.lam.label}]"


@dataclass(frozen=True, slots=True)
class SCont:
    """Summary-rep abstract *continuation* closure ``(lam, entry)``.

    Unlike :class:`SClo`, a continuation records the frame (function
    entry) it was created in; entering it **restores** that frame —
    the return edge of the summary machine.  Because every function
    entry binds its own continuation parameter, return flow is matched
    per entry: this is what separates the two call sites of the
    paper's §6 identity example.
    """

    lam: Lam
    env: tuple

    def __repr__(self) -> str:
        return f"scont[{self.lam.label}]@{list(self.env)}"


@dataclass(frozen=True, slots=True)
class APair:
    """Field-sensitive abstract cons cell (addresses of car/cdr)."""

    car: Addr
    cdr: Addr

    def __repr__(self) -> str:
        return f"pair[{self.car}, {self.cdr}]"


#: An abstract value.
AbsVal = object  # KClo | FClo | SClo | SCont | APair | BasicValue

EMPTY: frozenset = frozenset()


class AbsStore:
    """The single-threaded monotone store (§3.7).

    ``join`` returns True when the store actually grew at the address,
    which the engines use to re-enqueue reader configurations.  A
    join, once made, holds for the rest of the run: that is what lets
    the kernel's semi-naive re-steps skip joins they made before.

    Flow sets are stored as *masks* of a per-store value table
    (:mod:`repro.analysis.interning`): each distinct abstract value is
    interned to one bit of a Python int on first sight, so joining is
    ``old | new`` and growth detection a single int comparison.  The
    mask-level API (:meth:`get_mask`, :meth:`join_mask`,
    :meth:`mask_items`) is the hot path the engines and machines use;
    :meth:`get`/:meth:`items` decode back to frozensets of values so
    every external consumer — results, reports, soundness checks —
    sees exactly the pre-interning representation.
    """

    __slots__ = ("table", "_empty", "_map")

    def __init__(self):
        # Resolved per store, never bound at import: the tests'
        # frozenset oracle (tests/plain_domain.py) swaps the table in
        # by rebinding ``interning.ValueTable``.
        from repro.analysis.interning import ValueTable
        #: The value table interning this store's flow sets.
        self.table = table = ValueTable()
        self._empty = table.empty
        self._map: dict[Addr, object] = {}  # addr -> mask

    def get(self, addr: Addr) -> frozenset:
        """The decoded flow set at *addr* (empty set if unbound)."""
        return self.table.decode(self._map.get(addr, self._empty))

    def get_mask(self, addr: Addr):
        """The raw mask at *addr* — the machines' read primitive."""
        return self._map.get(addr, self._empty)

    def join(self, addr: Addr, values: Iterable[AbsVal]) -> bool:
        """Join a collection of abstract values (interning them)."""
        return self.join_mask(addr, self.table.encode(values))

    def join_mask(self, addr: Addr, mask) -> bool:
        """Join a pre-encoded mask; True when the store grew."""
        if not mask:
            return False
        current = self._map.get(addr)
        if current is None:
            self._map[addr] = mask
            return True
        merged = current | mask
        if merged == current:
            return False
        self._map[addr] = merged
        return True

    def addresses(self) -> Iterable[Addr]:
        return self._map.keys()

    def items(self) -> Iterable[tuple[Addr, frozenset]]:
        decode = self.table.decode
        return [(addr, decode(mask)) for addr, mask in self._map.items()]

    def mask_items(self) -> Iterable[tuple[Addr, object]]:
        return self._map.items()

    def __len__(self) -> int:
        return len(self._map)

    def total_values(self) -> int:
        """Σ |store(a)| — the lattice-position measure for ablations."""
        mask_len = self.table.mask_len
        return sum(mask_len(mask) for mask in self._map.values())

    def as_dict(self) -> dict[Addr, frozenset]:
        return dict(self.items())


class FrozenStore:
    """An immutable store for the naive §3.6 state-space engine.

    Abstract states hash their store, so the representation is a sorted
    tuple of (address, value-set) pairs with a cached hash.  Joining
    returns a fresh store; this is deliberately the expensive
    representation the paper's complexity bound talks about.
    """

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, items: Iterable[tuple[Addr, frozenset]] = ()):
        kept = tuple(sorted(
            ((addr, values) for addr, values in items if values),
            key=lambda pair: repr(pair[0])))
        self._items = kept
        self._dict = dict(kept)
        self._hash = hash(kept)

    def get(self, addr: Addr) -> frozenset:
        return self._dict.get(addr, EMPTY)

    def join(self, addr: Addr, values: Iterable[AbsVal]) -> "FrozenStore":
        values = frozenset(values)
        current = self._dict.get(addr, EMPTY)
        merged = current | values
        if merged == current:
            return self
        updated = dict(self._dict)
        updated[addr] = merged
        return FrozenStore(updated.items())

    def join_many(self,
                  joins: Iterable[tuple[Addr, Iterable[AbsVal]]]
                  ) -> "FrozenStore":
        store = self
        for addr, values in joins:
            store = store.join(addr, values)
        return store

    def items(self) -> tuple[tuple[Addr, frozenset], ...]:
        return self._items

    def __eq__(self, other) -> bool:
        return isinstance(other, FrozenStore) and \
            self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._items)

    def widen(self, other: "FrozenStore") -> "FrozenStore":
        """Least upper bound of two stores."""
        updated = dict(self._dict)
        for addr, values in other.items():
            updated[addr] = updated.get(addr, EMPTY) | values
        return FrozenStore(updated.items())
