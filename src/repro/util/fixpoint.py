"""Worklist engines for fixpoint computations.

Two flavours are provided:

* :class:`Worklist` — a plain deduplicating FIFO/LIFO worklist; used by
  the naive reachable-states analyses (paper Section 3.6) where the
  system-space is a set of states.

* :class:`DependencyWorklist` — a worklist of *configurations* paired
  with read-dependency tracking over store addresses; used by the
  single-threaded-store analyses (paper Section 3.7).  When the global
  store grows at an address, only the configurations that previously
  *read* that address are re-enqueued.  This is the efficient
  realization of Shivers's "one store to represent all stores"
  optimization and is what makes the m-CFA rows of the worst-case table
  finish in reasonable time.  A re-enqueue does not say which
  addresses grew: the kernel's semi-naive re-step compares the
  configuration's inputs with its last step's instead.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)
A = TypeVar("A", bound=Hashable)


class Worklist(Generic[T]):
    """A deduplicating worklist.

    Items are admitted at most once per *epoch*; :meth:`reset_seen`
    starts a new epoch.  Iteration order is FIFO by default, which gives
    breadth-first exploration of the transition relation (useful for
    deterministic traces in tests); pass ``lifo=True`` for depth-first.
    """

    def __init__(self, items: Iterable[T] = (), lifo: bool = False):
        self._queue: deque[T] = deque()
        self._seen: set[T] = set()
        self._pending: set[T] = set()
        self._lifo = lifo
        for item in items:
            self.add(item)

    def add(self, item: T) -> bool:
        """Enqueue *item* unless it was already admitted this epoch.

        Returns True if the item was actually enqueued.
        """
        if item in self._seen:
            return False
        self._seen.add(item)
        self._pending.add(item)
        self._queue.append(item)
        return True

    def add_all(self, items: Iterable[T]) -> int:
        """Enqueue every new item; return how many were admitted."""
        return sum(1 for item in items if self.add(item))

    def pop(self) -> T:
        item = self._queue.pop() if self._lifo else self._queue.popleft()
        self._pending.discard(item)
        return item

    def force(self, item: T) -> None:
        """Re-enqueue *item* even if it was seen before (store grew).

        The pending set is maintained persistently, so this is O(1)
        rather than an O(n) rebuild of the queue contents per call.
        """
        if item not in self._pending:
            self._pending.add(item)
            self._queue.append(item)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def seen(self) -> frozenset[T]:
        """Every item admitted this epoch (the reachable set)."""
        return frozenset(self._seen)

    def reset_seen(self) -> None:
        self._seen.clear()


class DependencyWorklist(Generic[T, A]):
    """Worklist with read-dependency tracking over addresses.

    The driver registers, for each processed configuration, the set of
    addresses it read (:meth:`record_reads`).  When the global store is
    later joined at some address (:meth:`dirty`), every configuration
    that read it is re-enqueued.  Configurations are deduplicated while
    pending, so a configuration is processed at most once per store
    change that affects it.

    :func:`~repro.analysis.engine.run_single_store` inlines these
    operations against the internals, so this class is the reference
    semantics its loop must mirror.
    """

    def __init__(self):
        self._queue: deque[T] = deque()
        self._pending: set[T] = set()
        self._seen: set[T] = set()
        self._readers: dict[A, set[T]] = {}
        self.requeue_count = 0

    def add(self, item: T) -> bool:
        """Enqueue a newly-discovered configuration (dedup vs. seen)."""
        if item in self._seen:
            return False
        self._seen.add(item)
        return self._enqueue(item)

    def _enqueue(self, item: T) -> bool:
        if item in self._pending:
            return False
        self._pending.add(item)
        self._queue.append(item)
        return True

    def pop(self) -> T:
        item = self._queue.popleft()
        self._pending.discard(item)
        return item

    def record_reads(self, item: T, addresses: Iterable[A]) -> None:
        """Remember that *item* read each address in *addresses*."""
        readers = self._readers
        for addr in addresses:
            existing = readers.get(addr)
            if existing is None:
                readers[addr] = {item}
            else:
                existing.add(item)

    def readers_of(self, address: A) -> frozenset[T]:
        """The configurations known to have read *address*."""
        return frozenset(self._readers.get(address, ()))

    def dirty(self, addresses: Iterable[A]) -> int:
        """The store grew at *addresses*: re-enqueue every reader.

        Each reader is enqueued at most once no matter how many of its
        addresses changed.  Returns the number of configurations newly
        re-enqueued.
        """
        requeued = 0
        readers_of = self._readers.get
        pending = self._pending
        queue = self._queue
        for addr in addresses:
            for reader in readers_of(addr, ()):
                if reader not in pending:
                    pending.add(reader)
                    queue.append(reader)
                    requeued += 1
        self.requeue_count += requeued
        return requeued

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def seen(self) -> frozenset[T]:
        """Every configuration ever admitted (the reachable set)."""
        return frozenset(self._seen)

    def __iter__(self) -> Iterator[T]:
        return iter(tuple(self._queue))
