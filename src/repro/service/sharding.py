"""Consistent-hash sharding for the worker fleet.

The async front door (:mod:`repro.service.server`) routes every job
to one long-lived worker process by consistent hash of its
``job_cache_key``, so repeat submissions of the same program land on
the *same* worker — whose in-memory
:class:`~repro.cache.ProgramCache` then still holds the compiled
:class:`~repro.cps.program.Program` (and the plans the engine tiers
cached on it) and the program's generated step module, turning a
result-cache miss into a warm run that skips parse/CPS/codegen
entirely.

:class:`HashRing` is the classic construction: each node is hashed
onto the ring at :data:`REPLICAS` virtual points, and a key belongs to
the first virtual point clockwise from the key's own hash.  Two
properties the fleet relies on (pinned by ``tests/test_sharding.py``):

* **stability** — ``node_for(key)`` depends only on the key and the
  live node set, never on insertion order or process hash seed (all
  hashing is SHA-256, not Python ``hash``);
* **minimal disruption** — removing a node remaps *only* the keys
  that node owned; every other key keeps its shard, so one worker
  death never cold-starts the whole fleet.
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual points per node.  More replicas smooth the key
#: distribution across a small fleet (4 workers × 96 points gives a
#: near-uniform split) at a negligible memory cost.
REPLICAS = 96


def _point(token: str) -> int:
    """A node's or key's position on the ring: the first 8 bytes of
    its SHA-256, as an integer (process-independent, unlike hash())."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over opaque node names."""

    def __init__(self, nodes=(), replicas: int = REPLICAS):
        if replicas < 1:
            raise ValueError(f"need at least one replica per node, "
                             f"got {replicas}")
        self.replicas = replicas
        self._points: list[int] = []       # sorted virtual points
        self._owners: dict[int, str] = {}  # point -> node
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    def _node_points(self, node: str) -> list[int]:
        return [_point(f"{node}#{replica}")
                for replica in range(self.replicas)]

    def add(self, node: str) -> None:
        """Place *node* on the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for point in self._node_points(node):
            # SHA-256 collisions between distinct vnode tokens are not
            # a practical concern; deterministic tie-break keeps the
            # ring identical however nodes were added.
            if point not in self._owners \
                    or node < self._owners[point]:
                if point not in self._owners:
                    bisect.insort(self._points, point)
                self._owners[point] = node

    def remove(self, node: str) -> None:
        """Take *node* off the ring; its keys fall to the next node
        clockwise, everyone else's keys stay put (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for point in self._node_points(node):
            if self._owners.get(point) == node:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) \
                        and self._points[index] == point:
                    del self._points[index]

    def node_for(self, key: str) -> str:
        """The live node owning *key*; raises LookupError when the
        ring is empty (the caller decides how a dead fleet fails)."""
        if not self._points:
            raise LookupError("hash ring has no live nodes")
        index = bisect.bisect_right(self._points, _point(key))
        if index == len(self._points):
            index = 0  # wrap past 12 o'clock
        return self._owners[self._points[index]]

    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)
