"""Interning (hash-consing) of abstract values into integer bitsets.

Van Horn and Mairson's EXPTIME terms make the worst case unavoidable,
so the constant factor is all we control — and the profile says that
constant is dominated by ``frozenset`` unions over heavyweight
:class:`~repro.analysis.domains.KClo`/:class:`~repro.analysis.domains.
FClo` dataclasses.  The fix is the classic flat-lattice trick (compare
the ``CFACPS`` structure in SNIPPETS.md): assign every distinct
abstract value a small integer on first sight and represent a *flow
set* as a Python ``int`` used as a bitmask.  Then

* ``join`` is ``old | new`` — one machine-word-per-64-values OR;
* growth detection is ``merged != old`` — an int comparison;
* membership of ⊤basic is one AND;
* "could this be truthy/falsy" is one AND against a precomputed mask.

:class:`ValueTable` is the only representation the program runs:
``bit_for`` hash-conses a value to a single-bit ``int`` and masks are
ints.  Apart from the generated step code (:mod:`repro.analysis.
codegen`, which works on the bits directly), the machines touch masks
only through ``|``, ``&``, equality, falsiness-when-empty and this
table's methods.  That is what lets the tests run the same machine
code over frozensets as an oracle: they rebind :class:`ValueTable`,
the table every :class:`~repro.analysis.domains.AbsStore` builds.

A table is per-analysis-run state (created by
:class:`~repro.analysis.domains.AbsStore`); masks from different
tables must never be mixed.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.analysis.domains import maybe_falsy, maybe_truthy


class ValueTable:
    """Hash-consing table: abstract value ↔ one bit of an int mask."""

    __slots__ = ("_bits", "_values", "_truthy", "_falsy",
                 "_decode_memo", "_encode_memo")

    #: The empty flow set.
    empty = 0

    def __init__(self):
        self._bits: dict[object, int] = {}
        self._values: list[object] = []
        self._truthy = 0
        self._falsy = 0
        self._decode_memo: dict[int, frozenset] = {}
        self._encode_memo: dict[frozenset, int] = {}

    def __len__(self) -> int:
        """How many distinct abstract values have been interned."""
        return len(self._values)

    def bit_for(self, value) -> int:
        """The single-bit mask of *value*, interning on first sight."""
        bit = self._bits.get(value)
        if bit is None:
            bit = 1 << len(self._values)
            self._bits[value] = bit
            self._values.append(value)
            if maybe_truthy(value):
                self._truthy |= bit
            if maybe_falsy(value):
                self._falsy |= bit
        return bit

    def encode(self, values: Iterable) -> int:
        """The mask of a collection of abstract values.

        ``frozenset`` arguments are memoized — the naive engine's
        states alias the same flow sets heavily.
        """
        if isinstance(values, frozenset):
            mask = self._encode_memo.get(values)
            if mask is None:
                mask = 0
                for value in values:
                    mask |= self.bit_for(value)
                self._encode_memo[values] = mask
            return mask
        mask = 0
        for value in values:
            mask |= self.bit_for(value)
        return mask

    def decode(self, mask: int) -> frozenset:
        """The abstract values of *mask*, as a frozenset (memoized)."""
        cached = self._decode_memo.get(mask)
        if cached is None:
            cached = frozenset(self.decode_iter(mask))
            self._decode_memo[mask] = cached
        return cached

    def decode_iter(self, mask: int) -> Iterator:
        """Iterate the values of *mask* in interning order."""
        values = self._values
        while mask:
            low = mask & -mask
            yield values[low.bit_length() - 1]
            mask ^= low

    def decode_new(self, mask: int, old: int) -> Iterator:
        """Iterate the values of *mask* not in *old*, in interning
        order (a semi-naive re-step's new operators)."""
        return self.decode_iter(mask & ~old)

    def mask_len(self, mask: int) -> int:
        return mask.bit_count()

    def any_truthy(self, mask: int) -> bool:
        """Could any value in *mask* be a concrete non-#f value?"""
        return bool(mask & self._truthy)

    def any_falsy(self, mask: int) -> bool:
        """Could any value in *mask* be the concrete value #f?"""
        return bool(mask & self._falsy)

