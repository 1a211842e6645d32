"""The frozenset value domain: the tests' oracle for interning.

The program runs one representation, the interned bitsets of
:class:`~repro.analysis.interning.ValueTable`.  :class:`PlainTable`
keeps the pre-interning object domain behind the same protocol —
masks *are* frozensets of abstract values — and :func:`plain_values`
swaps it in at the one seam there is: the table every
:class:`~repro.analysis.domains.AbsStore` builds.  Every machine then
runs its unchanged code over frozensets: the interning equivalence
suite, the ``*.plain.txt`` goldens and the generic≡specialized cells
run whole analyses that way, and the codegen, session, service and
CLI differentials use it as the reference their interned runs must
match.  Generated step code (the ``codegen`` tier) works on the bits
themselves and cannot run here.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterable, Iterator

from repro.analysis import interning
from repro.analysis.domains import EMPTY, maybe_falsy, maybe_truthy

#: The two value domains the suites cross: the program's interned
#: bitsets and this module's frozenset oracle.
VALUE_MODES = ("interned", "plain")

#: Result fields that depend on the worklist's pop order: a bitset
#: iterates in interning order and a frozenset in hash order, so
#: re-enqueue interleavings (and hence pop counts) legitimately differ
#: between the domains.  Everything else must agree.
SCHEDULING_KEYS = ("elapsed", "steps")


class PlainTable:
    """The identity table: masks *are* frozensets of abstract values.

    Every operation the machines perform on masks (``|``, ``&``,
    equality, truthiness) means the same thing on frozensets, so the
    same machine code runs in the pre-interning object domain.  This
    is the reference implementation the interned runs are checked
    against.
    """

    __slots__ = ("_singletons",)

    #: The empty flow set.
    empty = EMPTY

    def __init__(self):
        self._singletons: dict[object, frozenset] = {}

    def __len__(self) -> int:
        return len(self._singletons)

    def bit_for(self, value) -> frozenset:
        mask = self._singletons.get(value)
        if mask is None:
            mask = frozenset({value})
            self._singletons[value] = mask
        return mask

    def encode(self, values: Iterable) -> frozenset:
        return values if isinstance(values, frozenset) \
            else frozenset(values)

    def decode(self, mask: frozenset) -> frozenset:
        return mask

    def decode_iter(self, mask: frozenset) -> Iterator:
        return iter(mask)

    def decode_new(self, mask: frozenset, old: frozenset) -> Iterator:
        return (value for value in mask if value not in old)

    def mask_len(self, mask: frozenset) -> int:
        return len(mask)

    def any_truthy(self, mask: frozenset) -> bool:
        return any(maybe_truthy(value) for value in mask)

    def any_falsy(self, mask: frozenset) -> bool:
        return any(maybe_falsy(value) for value in mask)


@contextmanager
def plain_values():
    """Run every analysis started inside the block in the frozenset
    domain."""
    interned = interning.ValueTable
    interning.ValueTable = PlainTable
    try:
        yield
    finally:
        interning.ValueTable = interned


def value_domain(mode: str):
    """A context running its analyses in *mode* (one of
    :data:`VALUE_MODES`)."""
    return plain_values() if mode == "plain" else nullcontext()
